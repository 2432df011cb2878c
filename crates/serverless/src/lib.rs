//! # ntc-serverless
//!
//! Cloud FaaS platform simulator for the `ntc-offload` framework — the
//! "seemingly endless computational capacity in the cloud" that
//! *Computational Offloading for Non-Time-Critical Applications*
//! (ICDCS 2022) allocates instead of edge infrastructure.
//!
//! * [`function`] — function configs and the memory → CPU-share model.
//! * [`billing`] — pay-per-request + GB-second billing.
//! * [`coldstart`] — cold-start durations and keep-alive policies.
//! * [`platform`] — the sequential-invocation platform simulator with
//!   instance lifecycle, scale-out, queueing and provisioned capacity.
//!
//! # Examples
//!
//! ```
//! use ntc_serverless::{FunctionConfig, PlatformConfig, ServerlessPlatform};
//! use ntc_simcore::rng::RngStream;
//! use ntc_simcore::units::{Cycles, DataSize, SimTime};
//!
//! let mut cloud = ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(7));
//! let f = cloud.register(FunctionConfig::new(DataSize::from_mib(2048)));
//! let out = cloud.invoke(SimTime::ZERO, f, Cycles::from_giga(5))?;
//! println!("finished at {} for {}", out.finish, out.cost);
//! # Ok::<(), ntc_serverless::InvokeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod coldstart;
pub mod function;
pub mod platform;

pub use billing::BillingModel;
pub use coldstart::{ColdStartModel, KeepAlive};
pub use function::{CpuScaling, FunctionConfig, FunctionId};
pub use platform::{InvocationOutcome, InvokeError, PlatformConfig, ServerlessPlatform};
