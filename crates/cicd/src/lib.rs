//! # ntc-cicd
//!
//! Deployment-process integration (contribution **C4** of *Computational
//! Offloading for Non-Time-Critical Applications*, ICDCS 2022): the
//! offloading decisions ride the ordinary release pipeline — profiling,
//! partitioning, packaging, deployment and canary validation are pipeline
//! stages, partition plans are versioned artifacts, and a breached SLO
//! rolls the whole release back.
//!
//! * [`artifact`] — content-addressed, versioned artifact registry.
//! * [`pipeline`] — the stage machine ([`Pipeline`]) with canary + rollback.
//!   [`Pipeline::new`] runs the offloading stages and
//!   [`Pipeline::conventional`] skips them; the stage budgets and the
//!   canary's 1.5× SLO are constants of the module.
//! * [`monitor`] — post-promotion drift watch ([`ProductionMonitor`]).
//!
//! # Examples
//!
//! ```
//! use ntc_cicd::{Outcome, Pipeline, ReleaseSpec};
//! use ntc_simcore::rng::RngStream;
//! use ntc_taskgraph::{TaskGraphBuilder, Component, LinearModel};
//!
//! let mut b = TaskGraphBuilder::new("svc");
//! b.add_component(Component::new("work").with_demand(LinearModel::constant(1e9)));
//! let graph = b.build().unwrap();
//!
//! let mut pipe = Pipeline::new(RngStream::root(3));
//! let ok = pipe.run(&ReleaseSpec { version: 1, graph: graph.clone(), demand_factor: 1.0, noise_sigma: 0.05 });
//! assert!(matches!(ok.outcome, Outcome::Promoted { .. }));
//! // A 4× demand regression is caught by the canary and rolled back.
//! let bad = pipe.run(&ReleaseSpec { version: 2, graph, demand_factor: 4.0, noise_sigma: 0.05 });
//! assert!(matches!(bad.outcome, Outcome::RolledBack { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod monitor;
pub mod pipeline;

pub use artifact::{Artifact, ArtifactRegistry, ContentHash};
pub use monitor::{MonitorAction, ProductionMonitor};
pub use pipeline::{Outcome, Pipeline, PipelineReport, ReleaseSpec, Stage};
