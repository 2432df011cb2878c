//! # ntc-faults
//!
//! Deterministic fault injection and recovery policy for the offloading
//! engine. The paper's thesis is that non-time-critical work can tolerate
//! the cloud's drawbacks because *delay-tolerant work can simply wait* —
//! which must hold for failures as much as for latency. This crate
//! provides the pieces the engine composes into that behaviour:
//!
//! * [`ErrorClass`] / [`FailureCause`] — the failure vocabulary: what a
//!   failed attempt admits (wait, retry, fall back or fail) and why it
//!   failed. Every failure is classified once, where it is raised.
//! * [`FaultConfig`] — the injected faults and their queries, which
//!   answer in that vocabulary: transient and throttled invocations (a
//!   [`FailureCause`]), site outage windows (an availability schedule
//!   analogous to [`ConnectivityTrace`](ntc_net::ConnectivityTrace),
//!   answered as an [`ErrorClass`]), and mid-flight transfer drops with
//!   partial-progress loss. All draws come from per-key derived
//!   [`RngStream`](ntc_simcore::rng::RngStream)s, so answers are
//!   reproducible and independent of query order. The engine's site
//!   registry classifies its simulators' own errors and timeouts in the
//!   same vocabulary.
//! * [`backoff`] — capped exponential backoff with decorrelated jitter,
//!   the wait before each retry of a caller that waits failures out.
//! * [`SiteHealth`] / [`HealthConfig`] — the feed-forward half of
//!   robustness: per-site circuit breakers with EWMA latency and
//!   failure-rate tracking, queue-delay estimation for admission
//!   control, and p99-derived hedge delays for straggler duplication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod health;
pub mod plan;
pub mod retry;

pub use classify::{ErrorClass, FailureCause};
pub use health::{Admission, BreakerState, HealthConfig, SiteHealth};
pub use plan::FaultConfig;
pub use retry::backoff;
