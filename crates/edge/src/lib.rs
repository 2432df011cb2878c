//! # ntc-edge
//!
//! Edge-computing baseline substrate for the `ntc-offload` framework: a
//! pre-provisioned, capacity-limited fleet of edge servers with flat-rate
//! infrastructure cost. This is the comparator that *Computational
//! Offloading for Non-Time-Critical Applications* (ICDCS 2022) argues can
//! be skipped when jobs tolerate delay: low RTT, but finite capacity and a
//! bill that accrues whether or not anyone uses it.
//!
//! # Examples
//!
//! ```
//! use ntc_edge::{EdgeConfig, EdgeFleet};
//! use ntc_simcore::units::{Cycles, DataSize, SimTime};
//!
//! let mut edge = EdgeFleet::new(EdgeConfig::default());
//! let svc = edge.register();
//! let ready = edge.install(SimTime::ZERO, svc, DataSize::from_mib(80));
//! let out = edge.invoke(ready, svc, Cycles::from_giga(2))?;
//! println!("done at {}, fleet bill so far {}", out.finish, edge.infrastructure_cost(out.finish));
//! # Ok::<(), ntc_edge::EdgeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

pub use fleet::{EdgeConfig, EdgeError, EdgeFleet, EdgeOutcome, ServiceId};
