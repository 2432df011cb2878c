//! The cloud serverless simulator behind [`Site::Cloud`](super::Site::Cloud).

use ntc_alloc::WarmStrategy;
use ntc_faults::{classify_invoke, classify_timeout, ErrorClass, FailureCause};
use ntc_serverless::{FunctionConfig, FunctionId, PlatformConfig, ServerlessPlatform};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Cycles, Money, SimDuration, SimTime};
use ntc_taskgraph::ComponentId;

use super::{ByComponent, SiteRole};
use crate::deploy::Deployment;

/// A metered serverless platform behind the WAN: cold starts, queueing,
/// per-invocation billing.
#[derive(Debug)]
pub(super) struct CloudSite {
    platform: ServerlessPlatform,
    fns: ByComponent<FunctionId>,
}

impl CloudSite {
    /// Wraps a platform built from `config`, drawing from `rng`.
    pub(super) fn new(config: PlatformConfig, rng: RngStream) -> Self {
        CloudSite { platform: ServerlessPlatform::new(config, rng), fns: ByComponent::default() }
    }

    /// Registers `comp` of deployment `di` as a function. Returns the
    /// keep-warm ping period, if the primary's strategy uses a warmer.
    pub(super) fn provision(
        &mut self,
        di: usize,
        d: &Deployment,
        comp: ComponentId,
        role: SiteRole,
    ) -> Option<SimDuration> {
        // Mirrors register like primaries: registration alone accrues no
        // cost, and nothing is billed unless a mirror is invoked.
        let c = d.graph.component(comp);
        let f = self.platform.register(
            FunctionConfig::new(d.memory[comp.index()]).with_artifact_size(c.artifact_size()),
        );
        self.fns.insert(di, comp, f);
        if role == SiteRole::Primary {
            match d.warm {
                WarmStrategy::Provisioned { count } => {
                    self.platform.set_provisioned(SimTime::ZERO, f, count);
                }
                WarmStrategy::Warmer { period } if !period.is_zero() => return Some(period),
                _ => {}
            }
        }
        None
    }

    pub(super) fn can_serve(&self, di: usize, comp: ComponentId) -> bool {
        self.fns.get(di, comp).is_some()
    }

    pub(super) fn invoke(
        &mut self,
        at: SimTime,
        di: usize,
        comp: ComponentId,
        work: Cycles,
    ) -> Result<SimTime, (ErrorClass, FailureCause)> {
        let f = self.fns.get(di, comp).expect("invoked a function never provisioned");
        match self.platform.invoke(at, f, work) {
            Ok(out) if !out.timed_out => Ok(out.finish),
            Ok(_) => Err(classify_timeout()),
            Err(e) => Err(classify_invoke(&e)),
        }
    }

    pub(super) fn keep_warm(&mut self, at: SimTime, di: usize, comp: ComponentId) {
        if let Some(f) = self.fns.get(di, comp) {
            let _ = self.platform.invoke(at, f, Cycles::new(1_000));
        }
    }

    /// The bill for all work drained through `drained_end`.
    pub(super) fn cost(&mut self, drained_end: SimTime) -> Money {
        self.platform.total_cost(drained_end)
    }
}
