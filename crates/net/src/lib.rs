//! # ntc-net
//!
//! Network substrate for the `ntc-offload` framework: stochastic link
//! models, multi-hop paths, reference UE/edge/cloud topologies, and
//! time-varying congestion traces.
//!
//! The cloud-vs-edge trade-off at the heart of *Computational Offloading
//! for Non-Time-Critical Applications* (ICDCS 2022) is entirely mediated by
//! this crate: the edge is close (low RTT) and the cloud is far but
//! well-provisioned; for delay-tolerant jobs the RTT difference stops
//! mattering.
//!
//! # Examples
//!
//! ```
//! use ntc_net::{Topology, BandwidthTrace};
//! use ntc_simcore::rng::RngStream;
//! use ntc_simcore::units::{DataSize, SimTime};
//!
//! let topo = Topology::metro_reference();
//! let mut rng = RngStream::root(1).derive("net");
//! let to_edge = topo.ue_edge.transfer_time(DataSize::from_mib(4), &mut rng);
//! let to_cloud = topo.ue_cloud.transfer_time(DataSize::from_mib(4), &mut rng);
//! assert!(to_edge < to_cloud);
//!
//! let trace = BandwidthTrace::diurnal_congestion();
//! assert!(trace.share_at(SimTime::from_secs(2 * 3600)) >= trace.share_at(SimTime::from_secs(20 * 3600)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod link;
pub mod path;
mod step;
pub mod trace;

pub use connectivity::ConnectivityTrace;
pub use link::LinkModel;
pub use path::{PathModel, SharedPath, Topology};
pub use trace::BandwidthTrace;
