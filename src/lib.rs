//! # ntc-offload
//!
//! Umbrella crate for the `ntc-offload` framework — a laptop-scale,
//! fully deterministic reproduction of *Computational Offloading for
//! Non-Time-Critical Applications* (Richard Patsch, ICDCS 2022).
//!
//! Re-exports every subsystem crate; see the README for the map and
//! `DESIGN.md` for the system inventory and experiment index.
//!
//! # Examples
//!
//! ```
//! use ntc_offload::core::{Engine, Environment, OffloadPolicy};
//! use ntc_offload::simcore::units::SimDuration;
//! use ntc_offload::workloads::{Archetype, StreamSpec};
//!
//! let engine = Engine::new(Environment::metro_reference(), 1);
//! let specs = [StreamSpec::poisson(Archetype::MlInference, 0.02)];
//! let result = engine.run(&OffloadPolicy::ntc(), &specs, SimDuration::from_mins(30));
//! assert!(result.failures() == 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ntc_alloc as alloc;
pub use ntc_cicd as cicd;
pub use ntc_core as core;
pub use ntc_edge as edge;
pub use ntc_faults as faults;
pub use ntc_net as net;
pub use ntc_partition as partition;
pub use ntc_profiler as profiler;
pub use ntc_serverless as serverless;
pub use ntc_simcore as simcore;
pub use ntc_taskgraph as taskgraph;
pub use ntc_workloads as workloads;
