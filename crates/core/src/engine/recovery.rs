//! Recovery: acting on classified attempt failures — deterministic waits,
//! retry with decorrelated-jitter backoff, and fallback down the
//! deployment's site-preference chain (preferring sites whose breaker
//! admits when the health layer is on).

use ntc_faults::{backoff, ErrorClass, FailureCause};
use ntc_simcore::event::Simulator;
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use super::{accounting, Ev, RunCtx, RunState};

/// How long the caller takes to observe a failed attempt (error
/// propagation and detection), charged before any retry or fallback.
const DETECT: SimDuration = SimDuration::from_millis(500);

/// Acts on a classified attempt failure: wait, retry with backoff, fall
/// back down the site chain, or fail the batch. The backoff jitter is
/// drawn under the batch's stream `rng`, keyed by component and attempt.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recover(
    ctx: &RunCtx<'_>,
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    rng: &RngStream,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
    class: ErrorClass,
    cause: FailureCause,
) {
    match class {
        ErrorClass::WaitUntil(r) => {
            // A deterministic wait (service still installing, outage
            // with a known end): free, and not a retry.
            sim.schedule_after(r.saturating_duration_since(t), Ev::exec(bi, comp));
        }
        ErrorClass::Retryable if ctx.retry => {
            let cix = st.states.ix(bi, comp);
            let wait = backoff(rng, comp, st.states.attempts[cix]);
            st.states.add_backoff(cix, wait);
            sim.schedule_after(DETECT + wait, Ev::exec(bi, comp));
        }
        ErrorClass::Retryable | ErrorClass::Fallback => {
            fall_back_or_fail(ctx, st, sim, t, bi, comp, cause);
        }
        ErrorClass::Terminal => {
            accounting::settle_batch(ctx, st.states, st.acct, bi, t, Some(cause));
        }
    }
}

/// Advances the batch to the next site in its preference chain (every
/// later site mirrors the deployment's offloaded components, and the
/// device serves anything), or fails it when the chain is exhausted.
/// With breakers on, sites whose breaker refuses admission are skipped
/// — falling back onto a site that is known-bad burns the attempt the
/// walk was trying to save — but the walk fails open: when every later
/// breaker refuses, the next site is taken anyway, so the health layer
/// can never fail a batch the plain walk would have saved.
pub(crate) fn fall_back_or_fail(
    ctx: &RunCtx<'_>,
    st: &mut RunState<'_>,
    sim: &mut Simulator<Ev>,
    t: SimTime,
    bi: usize,
    comp: ComponentId,
    cause: FailureCause,
) {
    let chain = &ctx.deployment(bi).site_chain;
    let pos = st.states.chain_pos(bi);
    let plain = (pos + 1 < chain.len()).then_some(pos + 1);
    let next = if st.health.breakers() {
        st.health.first_admitting(chain, pos + 1, t).or(plain)
    } else {
        plain
    };
    match next {
        Some(i) => {
            st.states.set_chain_pos(bi, i);
            st.states.fallbacks[bi] += 1;
            sim.schedule_after(DETECT, Ev::exec(bi, comp));
        }
        None => {
            accounting::settle_batch(ctx, st.states, st.acct, bi, t, Some(cause));
        }
    }
}
