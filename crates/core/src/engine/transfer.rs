//! Transfer timing: congestion- and outage-aware uploads, inter-component
//! flows, result returns, and faulty-transfer injection.
//!
//! Each transfer of a batch draws from its own child of the batch's
//! stream, keyed by the transfer's kind, components and site: each
//! member's duration in member order, the batch's being the slowest
//! member's. Its drops come from the child `xfer-{key}` of the same
//! stream.

use ntc_faults::FaultConfig;
use ntc_partition::Side;
use ntc_simcore::event::Simulator;
use ntc_simcore::rng::{Key, RngStream};
use ntc_simcore::units::{DataSize, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use super::accounting::{self, Accounting};
use super::admission::{self, Verdict};
use super::{Ev, RunCtx, RunState};
use crate::site::Site;

/// The site whose network paths carry this batch's offloaded traffic: the
/// last *remote* site at or before the batch's chain position. After a
/// last-resort degrade to device, in-flight remote outputs still route
/// over the site they were produced on.
fn offload_site(chain: &[Site], pos: usize) -> Site {
    chain[..=pos]
        .iter()
        .rev()
        .copied()
        .find(|s| s.is_remote())
        .expect("site chains start at a remote site")
}

/// The key of a batch's upload to entry component `c` on `site`:
/// `up-{c}-{site}`.
pub(super) fn upload_key(c: ComponentId, site: Site) -> impl Key + Copy {
    ("up-", c, "-", site)
}

/// The key of a batch's flow from `from` to `to`, offloaded work running
/// on `site`: `flow-{from}-{to}-{site}`.
pub(super) fn flow_key(from: ComponentId, to: ComponentId, site: Site) -> impl Key + Copy {
    ("flow-", from, "-", to, "-", site)
}

/// The key of a batch's result return from exit component `comp` on
/// `site`: `ret-{comp}-{site}`.
pub(super) fn return_key(comp: ComponentId, site: Site) -> impl Key + Copy {
    ("ret-", comp, "-", site)
}

/// Scales a transfer duration by the drop penalty `faults` inject for
/// `key` under the batch's stream `rng`. A fault-free config leaves the
/// duration untouched without even hashing the key; the key's spelling
/// is part of the reproducibility contract, since the answer is derived
/// by hashing it.
fn faulty_transfer(
    dur: SimDuration,
    faults: &FaultConfig,
    rng: &RngStream,
    key: impl Key,
) -> SimDuration {
    let penalty = faults.transfer_penalty(rng, key);
    if penalty > 1.0 {
        dur.mul_f64(penalty)
    } else {
        dur
    }
}

/// Moves one payload per member of batch `bi` between the members'
/// devices and `site`, towards `to`, starting at `t`: each member's
/// `bytes(input)` crosses its own radio link, in parallel with the
/// others, once the devices are back online. Charges every member's
/// radio energy and bytes, and returns the wait from `t` until the
/// slowest member's transfer lands, drop penalty included. The members'
/// durations are drawn in member order from the batch stream's child
/// `key`.
#[allow(clippy::too_many_arguments)]
fn member_transfer(
    ctx: &RunCtx<'_>,
    acct: &mut Accounting,
    rng: &RngStream,
    t: SimTime,
    bi: usize,
    site: Site,
    key: impl Key + Copy,
    to: Side,
    bytes: impl Fn(DataSize) -> DataSize,
) -> SimDuration {
    let online = ctx.env.connectivity.next_online(t);
    let path = site.ue_path(ctx.env).at_share(site.wan_share(ctx.env, online));
    let mut net = rng.derive(key);
    let mut slowest = SimDuration::ZERO;
    for &ji in ctx.members(bi) {
        let size = bytes(ctx.jobs[ji as usize].input);
        let dur = path.transfer_time(size, &mut net);
        acct.device_energy += ctx.env.device.radio_energy(dur);
        match to {
            Side::Cloud => acct.bytes_up += size,
            Side::Device => acct.bytes_down += size,
        }
        slowest = slowest.max(dur);
    }
    online.saturating_duration_since(t) + faulty_transfer(slowest, &ctx.env.faults, rng, key)
}

/// Releases a batch: consults the admission controller (which may defer
/// the release or shed the batch down its chain), then schedules every
/// entry component, timing the upload of offloaded entries over the
/// target site's UE path.
pub(crate) fn handle_dispatch(
    ctx: &RunCtx<'_>,
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    bi: usize,
) {
    if st.health.admission() {
        match admission::admission_verdict(ctx, st.health, st.states, t, bi) {
            Verdict::Admit => {}
            Verdict::Defer(step) => {
                st.states.deferrals[bi] += 1;
                st.acct.overload.deferrals += 1;
                sim.schedule_after(step, Ev::dispatch(bi));
                return;
            }
            Verdict::Shed(next) => {
                st.states.set_chain_pos(bi, next);
                st.acct.overload.sheds += 1;
            }
        }
    }
    let RunState { states, acct, .. } = st;
    let d = ctx.deployment(bi);
    let rng = ctx.batch_rng(bi);
    // The upload targets the batch's *current* chain site: identical to
    // the primary unless admission control shed the batch above.
    let primary = offload_site(&d.site_chain, states.chain_pos(bi));
    for &c in d.graph.entries() {
        let side = if ctx.local_override[bi] { Side::Device } else { d.plan.side(c) };
        let wait = match side {
            Side::Device => SimDuration::ZERO,
            // Each member uploads its own input; the batch is ready when
            // the slowest upload lands.
            Side::Cloud => {
                let key = upload_key(c, primary);
                member_transfer(ctx, acct, &rng, t, bi, primary, key, Side::Cloud, |input| input)
            }
        };
        sim.schedule_after(wait, Ev::exec(bi, c));
    }
}

/// Routes a finished component's outputs to its successors and, for exit
/// components, returns results to each member device.
pub(crate) fn handle_done(
    ctx: &RunCtx<'_>,
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
) {
    let RunState { states, acct, health, .. } = st;
    // Release the bounded-queue slot this component's invocation held
    // (before the failed-batch early-out, so slots never leak).
    let cix = states.ix(bi, comp);
    if let Some(site) = states.inflight_site.get_mut(cix).and_then(Option::take) {
        health.site_mut(site).leave();
    }
    if states.failed[bi] {
        return;
    }
    let b = &ctx.batches[bi];
    let d = ctx.deployment(bi);
    let chain = &d.site_chain;
    let pos = states.chain_pos(bi);
    // What the component actually ran on (it may have fallen back
    // mid-graph), and where offloaded work now runs.
    let from_side = states.exec_side[states.ix(bi, comp)];
    let eff = offload_site(chain, pos);
    let degraded = ctx.local_override[bi] || !chain[pos].is_remote();
    let rng = ctx.batch_rng(bi);

    // Propagate data to successors.
    for f in d.graph.flows_from(comp) {
        let (to, payload) = (f.to, &f.payload);
        let to_side = if degraded { Side::Device } else { d.plan.side(to) };
        let key = flow_key(comp, to, eff);
        let dur = match (from_side, to_side) {
            (Side::Device, Side::Device) => SimDuration::ZERO,
            (Side::Cloud, Side::Cloud) => {
                // One merged transfer inside the backend.
                let bytes = payload.eval_bytes(b.sum_input);
                eff.internal_path(ctx.env).at_share(1.0).transfer_time(bytes, &mut rng.derive(key))
            }
            // Boundary crossing: per-member payloads over each member's
            // own radio link.
            _ => member_transfer(ctx, acct, &rng, t, bi, eff, key, to_side, |input| {
                payload.eval_bytes(input)
            }),
        };
        let arrival = t + dur;
        let ti = states.ix(bi, to);
        states.ready_at[ti] = states.ready_at[ti].max(arrival);
        states.remaining_preds[ti] -= 1;
        if states.remaining_preds[ti] == 0 {
            sim.schedule_after(states.ready_at[ti].saturating_duration_since(t), Ev::exec(bi, to));
        }
    }

    // Exit component: return results to each member device.
    if d.graph.successors(comp).next().is_none() {
        let finish = match from_side {
            Side::Device => t,
            Side::Cloud => {
                let online = ctx.env.connectivity.next_online(t);
                let path = eff.ue_path(ctx.env).at_share(eff.wan_share(ctx.env, online));
                let key = return_key(comp, eff);
                let dur = path.transfer_time(ctx.env.result_return, &mut rng.derive(key));
                let dur = faulty_transfer(dur, &ctx.env.faults, &rng, key);
                let n = ctx.members(bi).len() as u64;
                acct.device_energy += ctx.env.device.radio_energy(dur) * n;
                acct.bytes_down += ctx.env.result_return * n;
                online + dur
            }
        };
        accounting::record_exit(ctx, states, acct, bi, finish);
    }
}
