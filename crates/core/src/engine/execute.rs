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
use ntc_workloads::Job;

use super::{recovery, Ev, HedgePending, Ping, RunCtx, RunState};
use crate::deploy::Deployment;
use crate::site::{Site, SiteRegistry, SiteRole};

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
        let chain = &d.site_chain;
        sites.attach(chain[0]);
        for comp in d.plan.offloaded() {
            for (ci, &site) in chain.iter().enumerate() {
                if !site.is_remote() {
                    continue;
                }
                let role = if ci == 0 { SiteRole::Primary } else { SiteRole::Mirror };
                if let Some(period) = sites.provision(site, di, d, comp, role) {
                    let pi = u32::try_from(pings.len()).expect("ping count fits in u32");
                    pings.push((di, comp, period));
                    sim.schedule_after(period, Ev::Ping(pi));
                }
            }
        }
    }
}

/// Keep-warm ping: re-touch the primary site's function and re-arm.
pub(crate) fn handle_ping(
    ctx: &RunCtx<'_>,
    sites: &mut SiteRegistry,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    pi: u32,
) {
    if t <= ctx.horizon_end {
        let (di, comp, period) = ctx.pings[pi as usize];
        sites.keep_warm(ctx.deployments[di].site_chain[0], t, di, comp);
        sim.schedule_after(period, Ev::Ping(pi));
    }
}

/// Executes one ready component of a batch on its current site.
pub(crate) fn handle_exec(
    ctx: &RunCtx<'_>,
    sites: &mut SiteRegistry,
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
) {
    if st.states.failed[bi] {
        return;
    }
    let d = ctx.deployment(bi);
    let chain = &d.site_chain;
    let mut pos = st.states.chain_pos(bi);
    // Breaker-aware selection: rather than burning an attempt (and the
    // failure-detect latency) on a site whose breaker is Open, start at
    // the first chain site that admits the request. Fail-open: when
    // every breaker refuses, keep the original site — the health layer
    // may steer, never strand. Device-side components never consult the
    // breakers: no remote invocation happens, so an admitted probe slot
    // could never resolve.
    if st.health.breakers() && !ctx.local_override[bi] && d.plan.side(comp) == Side::Cloud {
        if let Some(next) = st.health.first_admitting(chain, pos, t) {
            if next != pos {
                st.states.set_chain_pos(bi, next);
                st.acct.overload.breaker_skips += 1;
                pos = next;
            }
        }
    }
    let degraded = ctx.local_override[bi] || !chain[pos].is_remote();
    let side = if degraded { Side::Device } else { d.plan.side(comp) };
    let cix = st.states.ix(bi, comp);
    st.states.exec_side[cix] = side;
    let rng = ctx.batch_rng(bi);
    let noise = noise_factor(ctx, st, &rng, bi, comp);
    match side {
        Side::Device => {
            // Per-member execution on each member's own device: wall-clock
            // is the slowest member; energy is paid by every member.
            let works = ctx
                .members(bi)
                .iter()
                .map(|&ji| member_work(&ctx.jobs[ji as usize], d, comp, noise));
            let (slowest, energy) = ctx.env.device.execute_members(works);
            st.acct.device_energy += energy;
            sim.schedule_after(slowest, Ev::done(bi, comp));
        }
        Side::Cloud => {
            st.states.attempts[cix] += 1;
            let attempt = st.states.attempts[cix];
            let site = chain[pos];
            let outcome =
                invoke_remote(ctx, sites, &rng, t, bi, comp, site, noise, Try::Attempt(attempt));
            match outcome {
                Ok(latency) => {
                    if st.health.enabled() {
                        st.health.site_mut(site).enter();
                        st.states.inflight_site[cix] = Some(site);
                        // A straggler past the site's p99-derived hedge
                        // delay defers its completion: at `t + delay` a
                        // duplicate may race it on the next healthy
                        // remote site, and the earlier finisher wins.
                        if let Some(delay) = st.health.site(site).hedge_delay() {
                            if latency > delay && chain[pos + 1..].iter().any(|s| s.is_remote()) {
                                st.hedges.insert(
                                    (bi, comp),
                                    HedgePending {
                                        start: t,
                                        primary_finish: t + latency,
                                        from_pos: pos,
                                    },
                                );
                                sim.schedule_after(delay, Ev::hedge_fire(bi, comp));
                                return;
                            }
                        }
                        st.health.site_mut(site).record_success(latency);
                    }
                    sim.schedule_after(latency, Ev::done(bi, comp));
                }
                Err((class, cause)) => {
                    if st.health.enabled() {
                        st.health.site_mut(site).record_failure(t, &st.health_rng);
                    }
                    recovery::recover(ctx, st, sim, &rng, t, bi, comp, class, cause);
                }
            }
        }
    }
}

/// A straggling invocation's hedge delay elapsed: launch a speculative
/// duplicate on the next healthy chain site and let the earlier finisher
/// win. The loser is cancelled — its site keeps the billing (the work
/// was submitted) but its health ledger records a deliberate
/// cancellation, never a failure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_hedge_fire(
    ctx: &RunCtx<'_>,
    sites: &mut SiteRegistry,
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
) {
    let Some(pending) = st.hedges.remove(&(bi, comp)) else { return };
    let cix = st.states.ix(bi, comp);
    let chain = &ctx.deployment(bi).site_chain;
    let primary = chain[pending.from_pos];
    if st.states.failed[bi] {
        // Another component already failed the whole batch; release the
        // primary's queue slot and let its invocation evaporate.
        st.health.site_mut(primary).leave();
        st.states.inflight_site[cix] = None;
        return;
    }
    // The duplicate goes to the first breaker-admitting remote site
    // strictly past the primary's position; remote sites lead every
    // chain.
    let remote = &chain[..chain.iter().take_while(|s| s.is_remote()).count()];
    let Some(target_pos) = st.health.first_admitting(remote, pending.from_pos + 1, t) else {
        // Nobody healthy to race against: the primary wins by default.
        resolve_primary_win(st, sim, t, bi, comp, primary, &pending);
        return;
    };
    let target = chain[target_pos];

    st.acct.overload.hedges += 1;
    // The duplicate re-observes the same work (noise is keyed per
    // (batch, component)); its injected-fault key carries a `-hedge`
    // marker so it draws from its own stream without perturbing the
    // per-attempt keys of the retry path.
    let rng = ctx.batch_rng(bi);
    let noise = noise_factor(ctx, st, &rng, bi, comp);
    match invoke_remote(ctx, sites, &rng, t, bi, comp, target, noise, Try::Hedge) {
        Ok(latency) if t + latency < pending.primary_finish => {
            // The duplicate wins: cancel the primary (a deliberate
            // cancellation — not a failure, not an observation) and
            // complete from the duplicate's site.
            st.acct.overload.hedges_won += 1;
            st.acct.overload.hedge_cancelled += 1;
            st.health.site_mut(target).record_success(latency);
            st.health.site_mut(primary).record_cancelled();
            st.health.site_mut(primary).leave();
            st.health.site_mut(target).enter();
            st.states.inflight_site[cix] = Some(target);
            // Route downstream flows over the winning site. `max`:
            // another component may have already fallen back further.
            st.states.set_chain_pos(bi, st.states.chain_pos(bi).max(target_pos));
            sim.schedule_after(latency, Ev::done(bi, comp));
        }
        Ok(_) => {
            // The duplicate loses the race before it even finishes:
            // cancel it (its site keeps the billing) and let the
            // primary complete.
            st.acct.overload.hedges_lost += 1;
            st.acct.overload.hedge_cancelled += 1;
            st.health.site_mut(target).record_cancelled();
            resolve_primary_win(st, sim, t, bi, comp, primary, &pending);
        }
        Err(_) => {
            // The duplicate failed outright: that *is* an observation
            // against its site, but the primary is still in flight —
            // nothing is retried and the batch loses nothing.
            st.acct.overload.hedges_lost += 1;
            st.health.site_mut(target).record_failure(t, &st.health_rng);
            resolve_primary_win(st, sim, t, bi, comp, primary, &pending);
        }
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

/// Invokes one component of batch `bi` on remote `site` at `t`: one
/// invocation for the whole batch, on the concatenated input, so the
/// fixed demand and the request fee amortise across members. An injected
/// fault (retryable: each attempt re-rolls) or a site outage answers
/// instead of the site. Returns the invocation's latency from `t`.
///
/// The injected fault is drawn under the batch's stream `rng` by the key
/// `{comp}-{site}{try}`, with the site's name — its spelling is part of
/// the reproducibility contract. Fault-free plans answer every key with
/// "no fault", so the key is only hashed when faults are configured.
#[allow(clippy::too_many_arguments)]
fn invoke_remote(
    ctx: &RunCtx<'_>,
    sites: &mut SiteRegistry,
    rng: &RngStream,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
    site: Site,
    noise: f64,
    try_: Try,
) -> Result<SimDuration, (ErrorClass, FailureCause)> {
    let b = &ctx.batches[bi];
    let annotated = ctx
        .deployment(bi)
        .graph
        .component(comp)
        .batch_demand_cycles(ctx.members(bi).len() as u64, b.sum_input);
    let work = Cycles::new(round_to_u64(annotated.get() as f64 * noise));
    let faults = &ctx.env.faults;
    if let Some(cause) = faults.invocation_fault(rng, fault_key(comp, site, try_)) {
        return Err((ErrorClass::Retryable, cause));
    }
    if let Some(err) = site.outage(faults, t) {
        return Err(err);
    }
    sites.invoke(site, t, b.di as usize, comp, work)
}

/// Completes a hedged invocation from its deferred primary at `t`:
/// records the primary's success (measured from its original
/// submission) and schedules the completion it was holding back.
fn resolve_primary_win(
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
    primary: Site,
    pending: &HedgePending,
) {
    st.health
        .site_mut(primary)
        .record_success(pending.primary_finish.saturating_duration_since(pending.start));
    sim.schedule_after(pending.primary_finish - t, Ev::done(bi, comp));
}

/// The injected-fault key of one try of a component on `site`:
/// `{comp}-{site}{try}`. Its spelling is part of the reproducibility
/// contract, because each child is derived by hashing it.
pub(super) fn fault_key(comp: ComponentId, site: Site, try_: Try) -> impl Key {
    (comp, "-", site, try_)
}

/// The execution noise of component `comp` of batch `bi`, whose stream
/// is `rng`: a function of the batch's first member and the component
/// alone (see [`noise::draw`](super::noise::draw)), so retries and hedges
/// re-observe the same value. Read through the input's memo.
fn noise_factor(
    ctx: &RunCtx<'_>,
    st: &mut RunState<'_>,
    rng: &RngStream,
    bi: usize,
    comp: ComponentId,
) -> f64 {
    let archetype = ctx.deployment(bi).archetype;
    st.noise.get(ctx.members(bi)[0], comp, archetype, rng)
}

fn member_work(job: &Job, d: &Deployment, comp: ComponentId, noise: f64) -> Cycles {
    let annotated = d.graph.component(comp).demand_cycles(job.input).get() as f64;
    Cycles::new(round_to_u64(annotated * noise))
}
