//! Execution: provisioning deployments onto their site chains, keep-warm
//! pings, per-component invocation through the run's
//! [`SiteRegistry`](crate::site::SiteRegistry) (or on the members' own
//! devices), breaker-aware site selection, and deadline-budgeted hedged
//! requests.

use ntc_faults::{ErrorClass, FailureCause};
use ntc_partition::Side;
use ntc_simcore::event::Simulator;
use ntc_simcore::rng::{Key, KeyHasher, RngStream};
use ntc_simcore::units::{round_to_u64, Cycles, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;
use ntc_workloads::{Archetype, Job};

use super::admission::{unit_key, MAX_COMPONENTS};
use super::{Ev, HedgePending, Ping, Run};
use crate::deploy::Deployment;
use crate::site::{Site, SiteRegistry};

// A ping's index fits its `u32`: a run makes at most one ping per
// deployment (one per archetype), component and remote site, and
// `BatchStates::reset` refuses a graph past `MAX_COMPONENTS` before the
// loop reads a ping.
const _: () =
    assert!(Archetype::all().len() * MAX_COMPONENTS * (Site::ALL.len() - 1) <= u32::MAX as usize);

/// Provisions every deployment's offloaded components on every remote
/// site of its preference chain: the primary hosts the live functions or
/// services, later sites hold cheap mirrors so failure-driven fallback
/// can re-route mid-run. Refills `pings` with every keep-warm schedule
/// and arms each one on the event queue.
pub(crate) fn provision_deployments(
    deployments: &[Deployment],
    sites: &mut SiteRegistry,
    sim: &mut Simulator<Ev>,
    pings: &mut Vec<Ping>,
) {
    pings.clear();
    for (di, d) in deployments.iter().enumerate() {
        let remote = d.remote_sites();
        sites.attach(remote[0]);
        for comp in d.plan.offloaded() {
            for &site in remote {
                if let Some(period) = sites.provision(site, di, d, comp) {
                    let pi = pings.len() as u32;
                    pings.push((di, comp, period));
                    sim.schedule_after(period, Ev::Ping(pi));
                }
            }
        }
    }
}

impl Run<'_> {
    /// Keep-warm ping: re-touch the primary site's function and re-arm.
    pub(super) fn ping(&mut self, t: SimTime, pi: u32) {
        if t <= self.ctx.horizon_end {
            let (di, comp, period) = self.ctx.pings[pi as usize];
            self.sites.keep_warm(self.ctx.deployments[di].site_chain[0], t, di, comp);
            self.sim.schedule_after(period, Ev::Ping(pi));
        }
    }

    /// Executes one ready component of a batch on its current site.
    pub(super) fn exec(&mut self, t: SimTime, bi: usize, comp: ComponentId) {
        if self.states.failed[bi] {
            return;
        }
        let ctx = self.ctx;
        let d = ctx.deployment(bi);
        let chain = &d.site_chain;
        let mut pos = self.states.chain_pos(bi);
        let mut side = ctx.side(bi, pos, comp);
        // Breaker-aware selection: rather than burning an attempt (and the
        // failure-detect latency) on a site whose breaker is Open, start at
        // the first chain site that admits the request. Fail-open: when
        // every breaker refuses, keep the original site — the health layer
        // may steer, never strand. Device-side components never consult the
        // breakers: no remote invocation happens, so an admitted probe slot
        // could never resolve.
        if side == Side::Cloud {
            let next = self.health.first_admitting(chain, pos, t).unwrap_or(pos);
            if next != pos {
                self.states.set_chain_pos(bi, next);
                self.acct.overload.breaker_skips += 1;
                pos = next;
                side = ctx.side(bi, pos, comp);
            }
        }
        let rng = ctx.batch_rng(bi);
        match side {
            Side::Device => {
                let noise = self.noise_factor(&rng, bi, comp);
                // Per-member execution on each member's own device:
                // wall-clock is the slowest member; energy is paid by
                // every member.
                let works = ctx
                    .members(bi)
                    .iter()
                    .map(|&ji| member_work(&ctx.jobs[ji as usize], d, comp, noise));
                let (slowest, energy) = ctx.env.device.execute_members(works);
                self.acct.device_energy += energy;
                self.sim.schedule_after(slowest, Ev::done(bi, comp, Site::Device));
            }
            Side::Cloud => {
                let attempt = self.states.next_attempt(bi, comp);
                let site = chain[pos];
                match self.invoke_remote(&rng, t, bi, comp, site, Try::Attempt(attempt)) {
                    Ok(latency) => {
                        if self.health.enabled() {
                            self.health.site_mut(site).enter();
                            // A straggler past the site's p99-derived hedge
                            // delay defers its completion: at `t + delay` a
                            // duplicate may race it on a later remote site
                            // of the chain, and the earlier finisher wins.
                            if let Some(delay) = self.health.site(site).hedge_delay() {
                                if latency > delay && pos + 1 < d.remote_sites().len() {
                                    let primary_finish = t + latency;
                                    let pending =
                                        HedgePending { start: t, primary_finish, from_pos: pos };
                                    self.hedges.insert(unit_key(bi, comp), pending);
                                    self.sim.schedule_after(delay, Ev::hedge_fire(bi, comp));
                                    return;
                                }
                            }
                            self.health.site_mut(site).record_success(latency);
                        }
                        self.sim.schedule_after(latency, Ev::done(bi, comp, site));
                    }
                    Err((class, cause)) => {
                        if self.health.enabled() {
                            self.health.site_mut(site).record_failure(t, &self.health_rng);
                        }
                        self.recover(&rng, t, bi, comp, class, cause);
                    }
                }
            }
        }
    }

    /// A straggling invocation's hedge delay elapsed: launch a
    /// speculative duplicate on the next healthy remote site of the chain
    /// and let the earlier finisher win. The loser is cancelled — its
    /// site keeps the billing (the work was submitted) but its health
    /// ledger records a deliberate cancellation, never a failure.
    pub(super) fn hedge_fire(&mut self, t: SimTime, bi: usize, comp: ComponentId) {
        let Some(pending) = self.hedges.remove(&unit_key(bi, comp)) else { return };
        let remote = self.ctx.deployment(bi).remote_sites();
        let primary = remote[pending.from_pos];
        if self.states.failed[bi] {
            // Another component already failed the whole batch; release
            // the primary's queue slot and let its invocation evaporate.
            self.health.site_mut(primary).leave();
            return;
        }
        // The duplicate goes to the first breaker-admitting remote site
        // strictly past the primary's position.
        let Some(target_pos) = self.health.first_admitting(remote, pending.from_pos + 1, t) else {
            // Nobody healthy to race against: the primary wins by default.
            self.resolve_primary_win(t, bi, comp, primary, &pending);
            return;
        };
        let target = remote[target_pos];

        self.acct.overload.hedges += 1;
        // The duplicate re-observes the same work (noise is keyed per
        // (batch, component)); its injected-fault key carries a `-hedge`
        // marker so it draws from its own stream without perturbing the
        // per-attempt keys of the retry path.
        match self.invoke_remote(&self.ctx.batch_rng(bi), t, bi, comp, target, Try::Hedge) {
            Ok(latency) if t + latency < pending.primary_finish => {
                // The duplicate wins: cancel the primary (a deliberate
                // cancellation — not a failure, not an observation) and
                // complete from the duplicate's site.
                self.acct.overload.hedges_won += 1;
                self.acct.overload.hedge_cancelled += 1;
                self.health.site_mut(target).record_success(latency);
                self.health.site_mut(primary).record_cancelled();
                self.health.site_mut(primary).leave();
                self.health.site_mut(target).enter();
                // Route downstream flows over the winning site. `max`:
                // another component may have already fallen back further.
                self.states.set_chain_pos(bi, self.states.chain_pos(bi).max(target_pos));
                self.sim.schedule_after(latency, Ev::done(bi, comp, target));
            }
            Ok(_) => {
                // The duplicate loses the race before it even finishes:
                // cancel it (its site keeps the billing) and let the
                // primary complete.
                self.acct.overload.hedges_lost += 1;
                self.acct.overload.hedge_cancelled += 1;
                self.health.site_mut(target).record_cancelled();
                self.resolve_primary_win(t, bi, comp, primary, &pending);
            }
            Err(_) => {
                // The duplicate failed outright: that *is* an observation
                // against its site, but the primary is still in flight —
                // nothing is retried and the batch loses nothing.
                self.acct.overload.hedges_lost += 1;
                self.health.site_mut(target).record_failure(t, &self.health_rng);
                self.resolve_primary_win(t, bi, comp, primary, &pending);
            }
        }
    }

    /// Invokes one component of batch `bi`, whose stream is `rng`, on
    /// remote `site` at `t`: one invocation for the whole batch, on the
    /// concatenated input, so the fixed demand and the request fee
    /// amortise across members. An injected fault (retryable: each
    /// attempt re-rolls) or a site outage answers instead of the site.
    /// Returns the invocation's latency from `t`.
    ///
    /// The injected fault is drawn under `rng` by the key
    /// `{comp}-{site}{try}`, with the site's name — its spelling is part
    /// of the reproducibility contract. Fault-free plans answer every key
    /// with "no fault", so the key is only hashed when faults are
    /// configured.
    fn invoke_remote(
        &mut self,
        rng: &RngStream,
        t: SimTime,
        bi: usize,
        comp: ComponentId,
        site: Site,
        try_: Try,
    ) -> Result<SimDuration, (ErrorClass, FailureCause)> {
        let ctx = self.ctx;
        let b = &ctx.batches[bi];
        let annotated = ctx
            .deployment(bi)
            .graph
            .component(comp)
            .batch_demand_cycles(ctx.members(bi).len() as u64, b.sum_input);
        let noise = self.noise_factor(rng, bi, comp);
        let work = Cycles::new(round_to_u64(annotated.get() as f64 * noise));
        let faults = &ctx.env.faults;
        if let Some(cause) = faults.invocation_fault(rng, fault_key(comp, site, try_)) {
            return Err((ErrorClass::Retryable, cause));
        }
        if let Some(err) = site.outage(faults, t) {
            return Err(err);
        }
        self.sites.invoke(site, t, b.di as usize, comp, work)
    }

    /// Completes a hedged invocation from its deferred primary at `t`:
    /// records the primary's success (measured from its original
    /// submission) and schedules the completion it was holding back.
    fn resolve_primary_win(
        &mut self,
        t: SimTime,
        bi: usize,
        comp: ComponentId,
        primary: Site,
        pending: &HedgePending,
    ) {
        self.health
            .site_mut(primary)
            .record_success(pending.primary_finish.saturating_duration_since(pending.start));
        self.sim.schedule_after(pending.primary_finish - t, Ev::done(bi, comp, primary));
    }

    /// The execution noise of component `comp` of batch `bi`, whose
    /// stream is `rng`: a function of the batch's first member and the
    /// component alone (see [`noise::draw`](super::noise::draw)), so
    /// retries and hedges re-observe the same value. Read through the
    /// input's memo.
    fn noise_factor(&mut self, rng: &RngStream, bi: usize, comp: ComponentId) -> f64 {
        let ctx = self.ctx;
        let archetype = ctx.deployment(bi).archetype;
        self.noise.get(ctx.members(bi)[0], comp, archetype, rng)
    }
}

/// Which try of a component an invocation is, spelled as the last part
/// of its injected-fault key: `-a{n}` for attempt `n`, `-hedge` for a
/// hedged duplicate.
#[derive(Debug, Clone, Copy)]
pub(super) enum Try {
    Attempt(u32),
    Hedge,
}

impl Key for Try {
    fn spell(&self, h: &mut KeyHasher) {
        match *self {
            Try::Attempt(n) => {
                h.write_str("-a");
                h.write_decimal(n.into());
            }
            Try::Hedge => h.write_str("-hedge"),
        }
    }
}

/// The injected-fault key of one try of a component on `site`:
/// `{comp}-{site}{try}`. Its spelling is part of the reproducibility
/// contract, because each child is derived by hashing it.
pub(super) fn fault_key(comp: ComponentId, site: Site, try_: Try) -> impl Key {
    (comp, "-", site, try_)
}

fn member_work(job: &Job, d: &Deployment, comp: ComponentId, noise: f64) -> Cycles {
    let annotated = d.graph.component(comp).demand_cycles(job.input).get() as f64;
    Cycles::new(round_to_u64(annotated * noise))
}
