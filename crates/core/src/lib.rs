//! # ntc-core
//!
//! The `ntc-offload` framework: a faithful, laptop-scale reproduction of
//! *Computational Offloading for Non-Time-Critical Applications*
//! (Richard Patsch, ICDCS 2022). The thesis: for delay-tolerant
//! workloads, offload to cloud serverless platforms instead of edge
//! infrastructure — determine demands (C1), allocate serverless resources
//! (C2), partition the code (C3), deploy through the ordinary CI/CD
//! pipeline (C4), and exploit deadline slack (C5).
//!
//! * [`device`] — the user equipment model.
//! * [`environment`] — device + networks + cloud + edge + pricing.
//! * [`policy`] — [`OffloadPolicy`]: local-only / edge-all / cloud-all /
//!   the full NTC framework with ablation switches.
//! * [`mod@deploy`] — policy → [`deploy::Deployment`] (profile, partition,
//!   allocate, batching plan).
//! * [`site`] — the [`Site`] enum (edge, cloud, device in fallback
//!   order) with per-site paths, outages and costs, and the
//!   [`SiteRegistry`] of stateful remote simulators it dispatches to.
//! * [`engine`] — the discrete-event execution [`Engine`] replaying job
//!   streams over the three sites, with deterministic fault
//!   injection, retry backoff and site-chain fallback (see
//!   [`ntc_faults`]).
//! * [`runner`] — parallel, deterministic replications.
//! * [`report`] — per-job and aggregate results.
//!
//! # Examples
//!
//! ```
//! use ntc_core::{Engine, Environment, OffloadPolicy};
//! use ntc_simcore::units::SimDuration;
//! use ntc_workloads::{Archetype, StreamSpec};
//!
//! let engine = Engine::new(Environment::metro_reference(), 1);
//! let specs = [StreamSpec::poisson(Archetype::ReportRendering, 0.005)];
//! let horizon = SimDuration::from_hours(2);
//!
//! let local = engine.run(&OffloadPolicy::LocalOnly, &specs, horizon);
//! let ntc = engine.run(&OffloadPolicy::ntc(), &specs, horizon);
//! // Offloading relieves the device battery…
//! assert!(ntc.device_energy < local.device_energy);
//! // …without missing the (generous) deadlines.
//! assert_eq!(ntc.deadline_misses(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod device;
pub mod engine;
pub mod environment;
pub mod policy;
pub mod report;
pub mod runner;
pub mod site;

pub use deploy::{deploy, Deployment};
pub use device::DeviceModel;
pub use engine::{Engine, JobRetention, RunScratch};
pub use environment::Environment;
pub use ntc_faults::{FailureCause, FaultConfig, HealthConfig};
pub use policy::{Backend, NtcConfig, OffloadPolicy};
pub use report::{
    ArchetypeAggregate, ArchetypeBreakdown, CauseCount, JobResult, LatencyDigest, OverloadStats,
    RunAggregates, RunResult,
};
pub use runner::{
    across, default_threads, run_replications, run_sweep, run_sweep_with, MetricSummary,
};
pub use site::{Site, SiteRegistry};
