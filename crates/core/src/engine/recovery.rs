//! Recovery: acting on classified attempt failures — deterministic waits,
//! retry with decorrelated-jitter backoff, and fallback down the
//! deployment's site-preference chain.

use ntc_faults::{backoff, ErrorClass, FailureCause};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use super::{Ev, Run};

/// How long the caller takes to observe a failed attempt (error
/// propagation and detection), charged before any retry or fallback.
pub(super) const DETECT: SimDuration = SimDuration::from_millis(500);

impl Run<'_> {
    /// Acts on a classified attempt failure, which it records in the try
    /// ledger: wait, retry with backoff, fall back down the site chain, or
    /// fail the batch. The backoff jitter is drawn under the batch's
    /// stream `rng`, keyed by component and attempt.
    pub(super) fn recover(
        &mut self,
        rng: &RngStream,
        t: SimTime,
        bi: usize,
        comp: ComponentId,
        class: ErrorClass,
        cause: FailureCause,
    ) {
        let tries = self.states.fail_attempt(bi, comp);
        match class {
            ErrorClass::WaitUntil(r) => {
                // A deterministic wait (service still installing, outage
                // with a known end): free, and not a retry.
                self.sim.schedule_after(r.saturating_duration_since(t), Ev::exec(bi, comp));
            }
            ErrorClass::Retryable if self.ctx.retry => {
                let wait = backoff(rng, comp, tries.attempts);
                tries.retries += 1;
                tries.backoff += wait;
                self.sim.schedule_after(DETECT + wait, Ev::exec(bi, comp));
            }
            ErrorClass::Retryable | ErrorClass::Fallback => {
                self.fall_back_or_fail(t, bi, comp, cause);
            }
            ErrorClass::Terminal => self.settle(bi, t, Some(cause)),
        }
    }

    /// Advances the batch to the next site in its preference chain (every
    /// later site mirrors the deployment's offloaded components, and the
    /// device serves anything), or fails it when the chain is exhausted.
    /// The walk asks no breaker: the re-execution, [`DETECT`] later,
    /// starts at the first site from the new position whose breaker
    /// admits it (`exec`'s selection). A breaker asked here as well would
    /// hand out a HalfOpen probe slot that `exec`'s second question then
    /// refuses, and the slot would stay taken for the rest of the run.
    fn fall_back_or_fail(&mut self, t: SimTime, bi: usize, comp: ComponentId, cause: FailureCause) {
        let next = self.states.chain_pos(bi) + 1;
        if next < self.ctx.deployment(bi).site_chain.len() {
            self.states.set_chain_pos(bi, next);
            self.states.fallbacks[bi] += 1;
            self.sim.schedule_after(DETECT, Ev::exec(bi, comp));
        } else {
            self.settle(bi, t, Some(cause));
        }
    }
}
