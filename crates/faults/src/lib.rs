//! # ntc-faults
//!
//! Deterministic fault injection and recovery policy for the offloading
//! engine. The paper's thesis is that non-time-critical work can tolerate
//! the cloud's drawbacks because *delay-tolerant work can simply wait* —
//! which must hold for failures as much as for latency. This crate
//! provides the pieces the engine composes into that behaviour:
//!
//! * [`FaultConfig`] — the injected faults and their queries:
//!   transient invocation errors, throttling, site outage windows
//!   (an availability schedule analogous to
//!   [`ConnectivityTrace`](ntc_net::ConnectivityTrace)), and mid-flight
//!   transfer drops with partial-progress loss. All draws come from
//!   per-key derived [`RngStream`](ntc_simcore::rng::RngStream)s, so
//!   answers are reproducible and independent of query order.
//! * [`backoff`] — capped exponential backoff with decorrelated jitter,
//!   the wait before each retry of a caller that waits failures out.
//! * [`ErrorClass`] / [`FailureCause`] — the retryable-vs-terminal
//!   classification of every backend error, replacing the engine's old
//!   all-errors-are-terminal path.
//! * [`SiteHealth`] / [`HealthConfig`] — the feed-forward half of
//!   robustness: per-site circuit breakers with EWMA latency and
//!   failure-rate tracking, queue-delay estimation for admission
//!   control, and p99-derived hedge delays for straggler duplication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod config;
pub mod health;
pub mod plan;
pub mod retry;

pub use classify::{
    classify_edge, classify_injected, classify_invoke, classify_outage, classify_timeout,
    ErrorClass, FailureCause,
};
pub use config::FaultConfig;
pub use health::{Admission, BreakerState, HealthConfig, SiteHealth};
pub use plan::{InjectedFault, SiteOutage};
pub use retry::backoff;
