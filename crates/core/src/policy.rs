//! Offloading policies: the strategies compared throughout the
//! evaluation, including the full NTC framework and its ablations.

use core::fmt;

use ntc_faults::HealthConfig;

/// Where offloaded components execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Cloud serverless platform.
    Cloud,
    /// Edge fleet.
    Edge,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Cloud => "cloud",
            Backend::Edge => "edge",
        })
    }
}

/// Configuration of the full NTC framework, with ablation switches
/// (Figure 6): each `use_*` flag disables one contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NtcConfig {
    /// C1: learn demands by profiling (off → static annotations).
    pub use_profiler: bool,
    /// C3: min-cut partitioning (off → offload everything offloadable).
    pub use_partitioner: bool,
    /// C2: memory-size allocation (off → platform default size).
    pub use_allocator: bool,
    /// C5: deadline-aware batching (off → dispatch immediately).
    pub use_batching: bool,
    /// C5 extension: steer held jobs into the nightly off-peak band
    /// (00:00–06:00) when their slack reaches it, to ride uncongested
    /// WAN bandwidth and bigger coalesced batches.
    pub off_peak: bool,
    /// Patient retries: a retryable failure of an offloaded attempt is
    /// tried again after a capped exponential backoff
    /// ([`ntc_faults::backoff`]), as often as it takes. NTC work is
    /// delay-tolerant, so the default retries; off, the first retryable
    /// failure falls back or fails the batch, as under the baselines.
    pub retry: bool,
    /// Failure-driven backend fallback: when a backend declares an
    /// attempt unrecoverable (outage, exhausted capacity, timeout), move
    /// the batch down the chain edge → cloud → device instead of losing
    /// it. Distinct from the local fallback every NTC deployment has
    /// ([`Deployment::fallback_local`](crate::Deployment::fallback_local)),
    /// which acts *before* dispatch on latency estimates.
    pub fallback: bool,
    /// The backend offloaded components target first. The default is the
    /// paper's cloud-first stance; `Backend::Edge` demonstrates the full
    /// edge → cloud → device fallback chain.
    pub primary_backend: Backend,
    /// The overload-aware health layer: per-site circuit breakers,
    /// queue-delay admission control (defer or shed) and hedged
    /// requests. Defaults to fully disabled, which behaves exactly as
    /// builds that predate the layer.
    pub health: HealthConfig,
}

impl Default for NtcConfig {
    fn default() -> Self {
        NtcConfig {
            use_profiler: true,
            use_partitioner: true,
            use_allocator: true,
            use_batching: true,
            off_peak: false,
            retry: true,
            fallback: true,
            primary_backend: Backend::Cloud,
            health: HealthConfig::disabled(),
        }
    }
}

/// A complete offloading strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadPolicy {
    /// Everything runs on the UE.
    LocalOnly,
    /// Every offloadable component runs on the edge fleet.
    EdgeAll,
    /// Every offloadable component runs on cloud functions at the
    /// platform-default memory size, dispatched immediately.
    CloudAll,
    /// The paper's framework: profile → partition → allocate → batch,
    /// targeting the cloud.
    Ntc(NtcConfig),
}

impl OffloadPolicy {
    /// The full framework with default settings.
    pub fn ntc() -> Self {
        OffloadPolicy::Ntc(NtcConfig::default())
    }

    /// The backend offloaded components use under this policy.
    pub fn backend(&self) -> Backend {
        match self {
            OffloadPolicy::EdgeAll => Backend::Edge,
            OffloadPolicy::Ntc(cfg) => cfg.primary_backend,
            _ => Backend::Cloud,
        }
    }

    /// Whether retryable failures are retried under this policy. The
    /// baselines model conventional latency-critical deployments: the
    /// first failure is final.
    pub fn retry_enabled(&self) -> bool {
        match self {
            OffloadPolicy::Ntc(cfg) => cfg.retry,
            _ => false,
        }
    }

    /// Whether unrecoverable backend errors trigger a fallback down the
    /// chain edge → cloud → device instead of failing the work.
    pub fn fallback_enabled(&self) -> bool {
        match self {
            OffloadPolicy::Ntc(cfg) => cfg.fallback,
            _ => false,
        }
    }

    /// The overload-aware health configuration this policy runs under.
    /// Baselines model conventional deployments with no health layer.
    pub fn health(&self) -> HealthConfig {
        match self {
            OffloadPolicy::Ntc(cfg) => cfg.health,
            _ => HealthConfig::disabled(),
        }
    }

    /// A short stable name for result tables.
    pub fn name(&self) -> String {
        match self {
            OffloadPolicy::LocalOnly => "local-only".into(),
            OffloadPolicy::EdgeAll => "edge-all".into(),
            OffloadPolicy::CloudAll => "cloud-all".into(),
            OffloadPolicy::Ntc(cfg) => {
                if *cfg == NtcConfig::default() {
                    "ntc".into()
                } else {
                    let mut offs = Vec::new();
                    if !cfg.use_profiler {
                        offs.push("profiler");
                    }
                    if !cfg.use_partitioner {
                        offs.push("partitioner");
                    }
                    if !cfg.use_allocator {
                        offs.push("allocator");
                    }
                    if !cfg.use_batching {
                        offs.push("batching");
                    }
                    if !cfg.retry {
                        offs.push("retry");
                    }
                    if !cfg.fallback {
                        offs.push("fallback");
                    }
                    let mut adds = Vec::new();
                    if cfg.off_peak {
                        adds.push("offpeak");
                    }
                    if cfg.primary_backend == Backend::Edge {
                        adds.push("edge");
                    }
                    if cfg.health.breakers {
                        adds.push("breakers");
                    }
                    if cfg.health.admission {
                        adds.push("admission");
                    }
                    if cfg.health.hedge {
                        adds.push("hedge");
                    }
                    if !offs.is_empty() {
                        format!("ntc[-{}]", offs.join(",-"))
                    } else if !adds.is_empty() {
                        format!("ntc[+{}]", adds.join(",+"))
                    } else {
                        "ntc[custom]".into()
                    }
                }
            }
        }
    }
}

impl fmt::Display for OffloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_health_on() -> HealthConfig {
        HealthConfig { breakers: true, admission: true, hedge: true, ..HealthConfig::disabled() }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OffloadPolicy::LocalOnly.name(), "local-only");
        assert_eq!(OffloadPolicy::EdgeAll.name(), "edge-all");
        assert_eq!(OffloadPolicy::CloudAll.name(), "cloud-all");
        assert_eq!(OffloadPolicy::ntc().name(), "ntc");
        let ablated = OffloadPolicy::Ntc(NtcConfig { use_batching: false, ..Default::default() });
        assert_eq!(ablated.name(), "ntc[-batching]");
        let no_retry = OffloadPolicy::Ntc(NtcConfig { retry: false, ..Default::default() });
        assert_eq!(no_retry.name(), "ntc[-retry]");
        let edge_first =
            OffloadPolicy::Ntc(NtcConfig { primary_backend: Backend::Edge, ..Default::default() });
        assert_eq!(edge_first.name(), "ntc[+edge]");
        let overload =
            OffloadPolicy::Ntc(NtcConfig { health: all_health_on(), ..Default::default() });
        assert_eq!(overload.name(), "ntc[+breakers,+admission,+hedge]");
        let hedged = OffloadPolicy::Ntc(NtcConfig {
            health: HealthConfig { hedge: true, ..HealthConfig::disabled() },
            ..Default::default()
        });
        assert_eq!(hedged.name(), "ntc[+hedge]");
        let tuned = OffloadPolicy::Ntc(NtcConfig {
            health: HealthConfig { queue_bound: 6, ..HealthConfig::disabled() },
            ..Default::default()
        });
        assert_eq!(tuned.name(), "ntc[custom]");
    }

    #[test]
    fn health_defaults_off_and_only_ntc_carries_it() {
        assert!(!OffloadPolicy::ntc().health().enabled());
        assert!(!OffloadPolicy::CloudAll.health().enabled());
        let on = OffloadPolicy::Ntc(NtcConfig { health: all_health_on(), ..Default::default() });
        assert!(on.health().breakers && on.health().admission && on.health().hedge);
    }

    #[test]
    fn backends() {
        assert_eq!(OffloadPolicy::EdgeAll.backend(), Backend::Edge);
        assert_eq!(OffloadPolicy::CloudAll.backend(), Backend::Cloud);
        assert_eq!(OffloadPolicy::ntc().backend(), Backend::Cloud);
        let edge_first =
            OffloadPolicy::Ntc(NtcConfig { primary_backend: Backend::Edge, ..Default::default() });
        assert_eq!(edge_first.backend(), Backend::Edge);
        assert_eq!(Backend::Edge.to_string(), "edge");
    }

    #[test]
    fn baselines_never_retry_but_ntc_does() {
        assert!(!OffloadPolicy::CloudAll.retry_enabled());
        assert!(!OffloadPolicy::EdgeAll.retry_enabled());
        assert!(!OffloadPolicy::LocalOnly.retry_enabled());
        assert!(OffloadPolicy::ntc().retry_enabled());
        assert!(OffloadPolicy::ntc().fallback_enabled());
        assert!(!OffloadPolicy::CloudAll.fallback_enabled());
    }
}
