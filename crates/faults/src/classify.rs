//! The failure vocabulary: what a failed attempt admits
//! ([`ErrorClass`]) and why it failed ([`FailureCause`]).
//!
//! Each failure is classified once, where it is raised: the fault
//! queries of [`FaultConfig`](crate::FaultConfig) answer in these types,
//! and so does the engine's site registry for its simulators' errors and
//! timeouts. Delay-tolerant work can then wait faults out while
//! misconfiguration still fails fast.

use ntc_json::ToJson;
use ntc_simcore::units::SimTime;
use std::fmt;

/// Why an attempt (or, ultimately, a job) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, ToJson)]
pub enum FailureCause {
    /// A transient platform error (crash, dropped response, 5xx).
    Transient,
    /// The platform throttled the invocation.
    Throttled,
    /// The invocation ran but exceeded its execution timeout.
    Timeout,
    /// The edge site was unreachable.
    EdgeOutage,
    /// Some other execution site was unreachable (a site-keyed
    /// availability schedule declared it down).
    SiteOutage,
    /// The backend permanently ran out of capacity.
    Capacity,
    /// The service or function was missing or not deployable.
    Deployment,
    /// The simulation submitted invocations out of time order (a bug in
    /// the caller, never worth retrying).
    Ordering,
}

impl FailureCause {
    /// A stable lowercase name for aggregation keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            FailureCause::Transient => "transient",
            FailureCause::Throttled => "throttled",
            FailureCause::Timeout => "timeout",
            FailureCause::EdgeOutage => "edge-outage",
            FailureCause::SiteOutage => "site-outage",
            FailureCause::Capacity => "capacity",
            FailureCause::Deployment => "deployment",
            FailureCause::Ordering => "ordering",
        }
    }

    /// Whether a [`FaultConfig`](crate::FaultConfig) injects this cause:
    /// a transient or throttled invocation, or a site down under its
    /// availability schedule. Timeouts, capacity, deployment and ordering
    /// failures arise from the simulated system itself, faults or not.
    pub fn is_injected(self) -> bool {
        matches!(
            self,
            FailureCause::Transient
                | FailureCause::Throttled
                | FailureCause::EdgeOutage
                | FailureCause::SiteOutage
        )
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What recovery action an error admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The failure resolves itself at a known instant: wait until then
    /// and re-attempt. This is a deterministic wait (e.g. a service
    /// still installing), not a gamble, so it is not a retry.
    WaitUntil(SimTime),
    /// The attempt may succeed if simply retried after a backoff.
    Retryable,
    /// Retrying the same backend would deterministically fail again, but
    /// another backend (or the device itself) could still run the work.
    Fallback,
    /// No recovery action can succeed; fail the work.
    Terminal,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;
    use ntc_net::ConnectivityTrace;
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::SimDuration;

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(FailureCause::Transient.to_string(), "transient");
        assert_eq!(FailureCause::EdgeOutage.name(), "edge-outage");
        assert_eq!(FailureCause::SiteOutage.name(), "site-outage");
    }

    #[test]
    fn injected_causes_are_the_fault_plans_and_the_outages() {
        let injected = [
            FailureCause::Transient,
            FailureCause::Throttled,
            FailureCause::EdgeOutage,
            FailureCause::SiteOutage,
        ];
        let rng = RngStream::root(1);
        let always = |transient_rate, throttle_rate| FaultConfig {
            transient_rate,
            throttle_rate,
            ..FaultConfig::none()
        };
        for cfg in [always(1.0, 0.0), always(0.0, 1.0)] {
            assert!(cfg.invocation_fault(&rng, "k").is_some_and(FailureCause::is_injected));
        }
        for cause in injected {
            assert!(cause.is_injected(), "{cause}");
        }
        for cause in [
            FailureCause::Timeout,
            FailureCause::Capacity,
            FailureCause::Deployment,
            FailureCause::Ordering,
        ] {
            assert!(!cause.is_injected(), "{cause}");
        }
    }

    #[test]
    fn outages_wait_when_bounded_and_fall_back_when_not() {
        let hour = SimDuration::from_hours(1);
        let mut cfg = FaultConfig::none();
        let bounded = vec![(SimDuration::ZERO, false), (SimDuration::from_secs(90), true)];
        cfg.site_availability.insert("edge".into(), ConnectivityTrace::new(hour, bounded));
        let never = vec![(SimDuration::ZERO, false)];
        cfg.site_availability.insert("cloud".into(), ConnectivityTrace::new(hour, never));
        let resume = SimTime::from_secs(90);
        assert_eq!(cfg.site_outage("edge", SimTime::ZERO), Some(ErrorClass::WaitUntil(resume)));
        assert_eq!(cfg.site_outage("edge", resume), None);
        assert_eq!(cfg.site_outage("cloud", SimTime::ZERO), Some(ErrorClass::Fallback));
    }
}
