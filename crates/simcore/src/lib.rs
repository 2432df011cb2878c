//! # ntc-simcore
//!
//! Deterministic discrete-event simulation kernel for the `ntc-offload`
//! framework (a reproduction of *Computational Offloading for
//! Non-Time-Critical Applications*, ICDCS 2022).
//!
//! This crate provides the substrate everything else runs on:
//!
//! * [`units`] — integer-backed newtypes for simulated time, data sizes,
//!   bandwidth, CPU work, money, and energy, so accounting is exact and
//!   event ordering is total.
//! * [`event`] — a stable time-ordered [`event::EventQueue`] and a clocked
//!   [`event::Simulator`] that schedules only into the future.
//! * [`rng`] — hierarchically splittable named random streams
//!   ([`rng::RngStream`]) so adding a consumer of randomness never perturbs
//!   other consumers' draws.
//! * [`metrics`] — HDR-style log-linear histograms.
//! * [`stats`] — Welford accumulators, quantiles, MAPE, sample summaries.
//!
//! # Examples
//!
//! A tiny M/D/1 queue simulated to completion:
//!
//! ```
//! use ntc_simcore::event::Simulator;
//! use ntc_simcore::metrics::Histogram;
//! use ntc_simcore::rng::RngStream;
//! use ntc_simcore::units::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival(u32), Departure(u32) }
//!
//! let mut sim = Simulator::new();
//! let mut rng = RngStream::root(1).derive("arrivals");
//! let mut at = SimDuration::ZERO;
//! for id in 0..100 {
//!     at += SimDuration::from_secs_f64(rng.exponential(1.0));
//!     sim.schedule_after(at, Ev::Arrival(id));
//! }
//!
//! let service = SimDuration::from_millis(500);
//! let mut busy_until = SimTime::ZERO;
//! let mut waits = Histogram::new();
//! while let Some((now, ev)) = sim.step() {
//!     match ev {
//!         Ev::Arrival(id) => {
//!             let start = now.max(busy_until);
//!             busy_until = start + service;
//!             waits.record_duration(start - now);
//!             sim.schedule_after(busy_until - now, Ev::Departure(id));
//!         }
//!         Ev::Departure(_) => {}
//!     }
//! }
//! assert_eq!(waits.count(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod timeseries;
pub mod units;

pub use event::{EventQueue, Simulator};
pub use rng::RngStream;
pub use timeseries::TimeSeries;
pub use units::{
    Bandwidth, ClockSpeed, Cycles, DataSize, Energy, Money, Power, SimDuration, SimTime,
};
