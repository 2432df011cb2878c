//! Retryable-vs-terminal classification of backend errors.
//!
//! The engine used to treat every error as terminal. This module maps
//! each failure mode onto a recovery action ([`ErrorClass`]) and a
//! reportable [`FailureCause`], so that delay-tolerant work can wait
//! faults out while misconfiguration still fails fast.

use ntc_edge::EdgeError;
use ntc_json::ToJson;
use ntc_serverless::InvokeError;
use ntc_simcore::units::SimTime;
use std::fmt;

use crate::plan::{InjectedFault, SiteOutage as Outage};

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
    /// A hedged duplicate was deliberately cancelled because its twin
    /// finished first. Not a fault: cancellations are never retried and
    /// never feed a site's failure-rate EWMA.
    HedgeCancelled,
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
            FailureCause::HedgeCancelled => "hedge-cancelled",
        }
    }

    /// Whether this cause describes a deliberate cancellation rather
    /// than a genuine failure. Cancellations must not be retried or
    /// move failure-rate EWMAs.
    pub fn is_cancellation(self) -> bool {
        matches!(self, FailureCause::HedgeCancelled)
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

/// Classifies an edge-fleet error observed at `now`.
pub fn classify_edge(err: &EdgeError, now: SimTime) -> (ErrorClass, FailureCause) {
    match err {
        EdgeError::UnknownService(_) => (ErrorClass::Terminal, FailureCause::Deployment),
        EdgeError::NotInstalled { ready_at: Some(ready), .. } if *ready > now => {
            (ErrorClass::WaitUntil(*ready), FailureCause::Deployment)
        }
        // Already-ready according to the fleet, yet the invoke failed:
        // a race worth one more try.
        EdgeError::NotInstalled { ready_at: Some(_), .. } => {
            (ErrorClass::Retryable, FailureCause::Deployment)
        }
        EdgeError::NotInstalled { ready_at: None, .. } => {
            (ErrorClass::Fallback, FailureCause::Deployment)
        }
        EdgeError::OutOfOrder { .. } => (ErrorClass::Terminal, FailureCause::Ordering),
    }
}

/// Classifies a serverless-platform error.
pub fn classify_invoke(err: &InvokeError) -> (ErrorClass, FailureCause) {
    match err {
        InvokeError::UnknownFunction(_) => (ErrorClass::Terminal, FailureCause::Deployment),
        // Capacity never frees up (the platform documents the region as
        // permanently exhausted), so retrying the same backend is futile.
        InvokeError::CapacityExhausted => (ErrorClass::Fallback, FailureCause::Capacity),
        InvokeError::OutOfOrder { .. } => (ErrorClass::Terminal, FailureCause::Ordering),
    }
}

/// Classifies a site's outage, reported as `cause` (the site decides
/// which): `None` while the site is online, a free deterministic wait
/// when the outage has a known end, and a fallback down the site chain
/// when it does not.
pub fn classify_outage(cause: FailureCause, outage: Outage) -> Option<(ErrorClass, FailureCause)> {
    match outage {
        Outage::Online => None,
        Outage::Until(resume) => Some((ErrorClass::WaitUntil(resume), cause)),
        Outage::Forever => Some((ErrorClass::Fallback, cause)),
    }
}

/// Classifies an execution timeout.
///
/// The engine fixes an invocation's compute noise per `(batch,
/// component)`, so re-running the same work on the same backend would
/// time out again deterministically — the only way out is a different
/// backend.
pub fn classify_timeout() -> (ErrorClass, FailureCause) {
    (ErrorClass::Fallback, FailureCause::Timeout)
}

/// Classifies an injected fault drawn by
/// [`FaultConfig::invocation_fault`](crate::FaultConfig::invocation_fault).
/// Both kinds are transient by construction: each attempt re-rolls.
pub fn classify_injected(fault: InjectedFault) -> (ErrorClass, FailureCause) {
    match fault {
        InjectedFault::Transient => (ErrorClass::Retryable, FailureCause::Transient),
        InjectedFault::Throttled => (ErrorClass::Retryable, FailureCause::Throttled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_edge::{EdgeConfig, EdgeFleet, ServiceId};
    use ntc_serverless::{FunctionConfig, FunctionId, PlatformConfig, ServerlessPlatform};
    use ntc_simcore::rng::RngStream;
    use ntc_simcore::units::DataSize;

    fn service_id() -> ServiceId {
        EdgeFleet::new(EdgeConfig::default()).register()
    }

    fn function_id() -> FunctionId {
        ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(0))
            .register(FunctionConfig::new(DataSize::from_mib(128)))
    }

    #[test]
    fn unknown_service_is_terminal() {
        let (class, cause) = classify_edge(&EdgeError::UnknownService(service_id()), SimTime::ZERO);
        assert_eq!(class, ErrorClass::Terminal);
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn installing_service_waits_until_ready() {
        let ready = SimTime::from_secs(30);
        let err = EdgeError::NotInstalled { service: service_id(), ready_at: Some(ready) };
        let (class, cause) = classify_edge(&err, SimTime::from_secs(10));
        assert_eq!(class, ErrorClass::WaitUntil(ready));
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn ready_but_rejected_service_is_retryable() {
        let err = EdgeError::NotInstalled {
            service: service_id(),
            ready_at: Some(SimTime::from_secs(5)),
        };
        let (class, _) = classify_edge(&err, SimTime::from_secs(10));
        assert_eq!(class, ErrorClass::Retryable);
    }

    #[test]
    fn never_installable_service_falls_back() {
        let err = EdgeError::NotInstalled { service: service_id(), ready_at: None };
        let (class, cause) = classify_edge(&err, SimTime::ZERO);
        assert_eq!(class, ErrorClass::Fallback);
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn out_of_order_submissions_are_terminal_bugs() {
        let e = EdgeError::OutOfOrder { submitted: SimTime::ZERO, latest: SimTime::from_secs(1) };
        assert_eq!(
            classify_edge(&e, SimTime::ZERO),
            (ErrorClass::Terminal, FailureCause::Ordering)
        );
        let i = InvokeError::OutOfOrder { submitted: SimTime::ZERO, latest: SimTime::from_secs(1) };
        assert_eq!(classify_invoke(&i), (ErrorClass::Terminal, FailureCause::Ordering));
    }

    #[test]
    fn exhausted_capacity_falls_back() {
        let (class, cause) = classify_invoke(&InvokeError::CapacityExhausted);
        assert_eq!(class, ErrorClass::Fallback);
        assert_eq!(cause, FailureCause::Capacity);
    }

    #[test]
    fn unknown_function_is_terminal() {
        let (class, cause) = classify_invoke(&InvokeError::UnknownFunction(function_id()));
        assert_eq!(class, ErrorClass::Terminal);
        assert_eq!(cause, FailureCause::Deployment);
    }

    #[test]
    fn timeouts_fall_back_rather_than_retry() {
        assert_eq!(classify_timeout(), (ErrorClass::Fallback, FailureCause::Timeout));
    }

    #[test]
    fn injected_faults_are_retryable() {
        assert_eq!(
            classify_injected(InjectedFault::Transient),
            (ErrorClass::Retryable, FailureCause::Transient)
        );
        assert_eq!(
            classify_injected(InjectedFault::Throttled),
            (ErrorClass::Retryable, FailureCause::Throttled)
        );
    }

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(FailureCause::Transient.to_string(), "transient");
        assert_eq!(FailureCause::EdgeOutage.name(), "edge-outage");
        assert_eq!(FailureCause::SiteOutage.name(), "site-outage");
        assert_eq!(FailureCause::HedgeCancelled.name(), "hedge-cancelled");
    }

    #[test]
    fn only_hedge_cancellation_is_a_cancellation() {
        assert!(FailureCause::HedgeCancelled.is_cancellation());
        assert!(!FailureCause::Timeout.is_cancellation());
        assert!(!FailureCause::Transient.is_cancellation());
    }

    #[test]
    fn injected_causes_are_the_fault_plans_and_the_outages() {
        let injected = [
            FailureCause::Transient,
            FailureCause::Throttled,
            FailureCause::EdgeOutage,
            FailureCause::SiteOutage,
        ];
        for fault in [InjectedFault::Transient, InjectedFault::Throttled] {
            assert!(classify_injected(fault).1.is_injected());
        }
        for outage in [FailureCause::EdgeOutage, FailureCause::SiteOutage] {
            let (_, cause) = classify_outage(outage, Outage::Forever).unwrap();
            assert!(cause.is_injected(), "{outage}");
        }
        for cause in [
            FailureCause::Timeout,
            FailureCause::Capacity,
            FailureCause::Deployment,
            FailureCause::Ordering,
            FailureCause::HedgeCancelled,
        ] {
            assert!(!cause.is_injected(), "{cause}");
            assert!(!injected.contains(&cause));
        }
    }

    #[test]
    fn outages_wait_when_bounded_and_fall_back_when_not() {
        let edge = FailureCause::EdgeOutage;
        assert_eq!(classify_outage(edge, Outage::Online), None);
        let resume = SimTime::from_secs(90);
        assert_eq!(
            classify_outage(edge, Outage::Until(resume)),
            Some((ErrorClass::WaitUntil(resume), edge))
        );
        assert_eq!(classify_outage(edge, Outage::Forever), Some((ErrorClass::Fallback, edge)));
        // The cause is reported as given.
        assert_eq!(
            classify_outage(FailureCause::SiteOutage, Outage::Forever),
            Some((ErrorClass::Fallback, FailureCause::SiteOutage))
        );
    }
}
