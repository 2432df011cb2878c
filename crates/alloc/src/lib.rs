//! # ntc-alloc
//!
//! Serverless resource allocation (contribution **C2** of *Computational
//! Offloading for Non-Time-Critical Applications*, ICDCS 2022): choose the
//! FaaS configuration for each offloaded partition and decide *when* to
//! dispatch delay-tolerant jobs.
//!
//! * [`memory`] — the memory-size cost/latency sweep, Pareto frontier,
//!   and cheapest-under-deadline selection (Figure 3).
//! * [`batching`] — deadline-aware dispatch policies that exploit slack
//!   without ever violating a deadline (Figure 4).
//! * [`keepwarm`] — cold-start mitigation strategies (Figure 2).
//!
//! # Examples
//!
//! ```
//! use ntc_alloc::memory::{select_memory, standard_sizes};
//! use ntc_serverless::{BillingModel, CpuScaling};
//! use ntc_simcore::units::{Cycles, SimDuration};
//!
//! // Cheapest configuration that renders a report within 2 minutes:
//! let pick = select_memory(
//!     Cycles::from_giga(100),
//!     SimDuration::from_mins(2),
//!     &CpuScaling::lambda_like(),
//!     &BillingModel::aws_like(),
//!     &standard_sizes(),
//! ).unwrap();
//! assert!(pick.exec <= SimDuration::from_mins(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batching;
pub mod keepwarm;
pub mod memory;

pub use batching::{dispatch_time, DispatchPolicy};
pub use keepwarm::{recommend, WarmStrategy};
pub use memory::{pareto_frontier, select_memory, standard_sizes, sweep, MemoryPoint};
