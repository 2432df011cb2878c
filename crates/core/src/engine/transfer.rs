//! Transfer timing: congestion- and outage-aware inter-component flows
//! (a member's input leaves its device as the payload of an entry
//! component's flow), result returns, and faulty-transfer injection.
//!
//! Each transfer of a batch draws from its own child of the batch's
//! stream, keyed by the transfer's kind, components and site: each
//! member's duration in member order, the batch's being the slowest
//! member's. Its drops come from the child `xfer-{key}` of the same
//! stream.

use ntc_faults::FaultConfig;
use ntc_partition::Side;
use ntc_simcore::rng::{Key, RngStream};
use ntc_simcore::units::{DataSize, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use super::{Ev, Run};
use crate::site::Site;

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
/// `key` under the batch's stream `rng` (1.0, which leaves it unchanged,
/// without a drop). A fault-free config answers without even hashing the
/// key; the key's spelling is part of the reproducibility contract, since
/// the answer is derived by hashing it.
fn faulty_transfer(
    dur: SimDuration,
    faults: &FaultConfig,
    rng: &RngStream,
    key: impl Key,
) -> SimDuration {
    dur.mul_f64(faults.transfer_penalty(rng, key))
}

impl Run<'_> {
    /// Moves one payload per member of batch `bi` between the members'
    /// devices and `site`, towards `to`, starting at `t`: each member's
    /// `bytes(input)` crosses its own radio link, in parallel with the
    /// others, once the devices are back online. Charges every member's
    /// radio energy and bytes, and returns the wait from `t` until the
    /// slowest member's transfer lands, drop penalty included. The
    /// members' durations are drawn in member order from the batch
    /// stream's child `key`.
    fn member_transfer(
        &mut self,
        t: SimTime,
        bi: usize,
        site: Site,
        key: impl Key + Copy,
        to: Side,
        bytes: impl Fn(DataSize) -> DataSize,
    ) -> SimDuration {
        let ctx = self.ctx;
        let online = ctx.env.connectivity.next_online(t);
        let path = site.ue_path(ctx.env).at_share(site.wan_share(ctx.env, online));
        let rng = ctx.batch_rng(bi);
        let mut net = rng.derive(key);
        let mut slowest = SimDuration::ZERO;
        for &ji in ctx.members(bi) {
            let size = bytes(ctx.jobs[ji as usize].input);
            let dur = path.transfer_time(size, &mut net);
            self.acct.device_energy += ctx.env.device.radio_energy(dur);
            match to {
                Side::Cloud => self.acct.bytes_up += size,
                Side::Device => self.acct.bytes_down += size,
            }
            slowest = slowest.max(dur);
        }
        online.saturating_duration_since(t) + faulty_transfer(slowest, &ctx.env.faults, &rng, key)
    }

    /// Routes the outputs of component `comp`, which ran on `site`
    /// (`Site::Device` for the members' devices), to its successors and,
    /// for the exit component, returns results to each member device and
    /// settles the batch.
    pub(super) fn done(&mut self, t: SimTime, bi: usize, comp: ComponentId, site: Site) {
        // Release the bounded-queue slot a remote invocation held (before
        // the failed-batch early-out, so slots never leak).
        if self.health.enabled() && site.is_remote() {
            self.health.site_mut(site).leave();
        }
        if self.states.failed[bi] {
            return;
        }
        let ctx = self.ctx;
        let b = &ctx.batches[bi];
        let d = ctx.deployment(bi);
        let pos = self.states.chain_pos(bi);
        // What the component actually ran on (it may have fallen back
        // mid-graph), and the site whose paths carry the batch's
        // offloaded traffic: its chain site, or after a degrade to the
        // device, the last remote site, over which in-flight remote
        // outputs still route.
        let from_side = if site.is_remote() { Side::Cloud } else { Side::Device };
        let remote = d.remote_sites();
        let eff = remote[pos.min(remote.len() - 1)];
        let on_device = ctx.on_device(bi, pos);
        let rng = ctx.batch_rng(bi);

        // Propagate data to successors.
        for f in d.graph.flows_from(comp) {
            let (to, payload) = (f.to, &f.payload);
            let to_side = if on_device { Side::Device } else { d.plan.side(to) };
            let key = flow_key(comp, to, eff);
            let dur = match (from_side, to_side) {
                (Side::Device, Side::Device) => SimDuration::ZERO,
                (Side::Cloud, Side::Cloud) => {
                    // One merged transfer inside the backend.
                    let bytes = payload.eval_bytes(b.sum_input);
                    let path = eff.internal_path(ctx.env).at_share(1.0);
                    path.transfer_time(bytes, &mut rng.derive(key))
                }
                // Boundary crossing: per-member payloads over each
                // member's own radio link.
                _ => self
                    .member_transfer(t, bi, eff, key, to_side, |input| payload.eval_bytes(input)),
            };
            // A component with one input starts when it lands; a join
            // when its latest does.
            let arrival = t + dur;
            let preds = d.graph.predecessors(to).count();
            let ready =
                if preds == 1 { Some(arrival) } else { self.states.join(bi, to, preds, arrival) };
            if let Some(at) = ready {
                self.sim.schedule_after(at - t, Ev::exec(bi, to));
            }
        }

        // The exit: return results to each member device, and the batch
        // settles when they land (every graph has one exit).
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
                    self.acct.device_energy += ctx.env.device.radio_energy(dur) * n;
                    self.acct.bytes_down += ctx.env.result_return * n;
                    online + dur
                }
            };
            self.settle(bi, finish, None);
        }
    }
}
