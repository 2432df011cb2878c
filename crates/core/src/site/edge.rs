//! The edge fleet simulator behind [`Site::Edge`](super::Site::Edge).

use ntc_edge::{EdgeConfig, EdgeFleet, ServiceId};
use ntc_faults::{classify_edge, ErrorClass, FailureCause};
use ntc_simcore::units::{Cycles, Money, SimTime};
use ntc_taskgraph::ComponentId;

use super::ByComponent;
use crate::deploy::Deployment;

/// A pre-paid edge fleet on the metro LAN: slot admission, installation
/// delay, flat standing cost, no per-invocation fee.
#[derive(Debug)]
pub(super) struct EdgeSite {
    fleet: EdgeFleet,
    svcs: ByComponent<ServiceId>,
    /// Whether any deployment targets this site as its primary; the
    /// standing infrastructure cost is billed from the moment it does,
    /// busy or idle.
    attached: bool,
}

impl EdgeSite {
    /// Wraps a fleet built from `config`.
    pub(super) fn new(config: EdgeConfig) -> Self {
        EdgeSite { fleet: EdgeFleet::new(config), svcs: ByComponent::default(), attached: false }
    }

    pub(super) fn attach(&mut self) {
        self.attached = true;
    }

    /// Registers `comp` of deployment `di` as a service and starts its
    /// installation at t = 0.
    pub(super) fn provision(&mut self, di: usize, d: &Deployment, comp: ComponentId) {
        let s = self.fleet.register();
        self.fleet.install(SimTime::ZERO, s, d.graph.component(comp).artifact_size());
        self.svcs.insert(di, comp, s);
    }

    pub(super) fn can_serve(&self, di: usize, comp: ComponentId) -> bool {
        self.svcs.get(di, comp).is_some()
    }

    pub(super) fn invoke(
        &mut self,
        at: SimTime,
        di: usize,
        comp: ComponentId,
        work: Cycles,
    ) -> Result<SimTime, (ErrorClass, FailureCause)> {
        let s = self.svcs.get(di, comp).expect("invoked a service never provisioned");
        match self.fleet.invoke(at, s, work) {
            Ok(out) => Ok(out.finish),
            Err(e) => Err(classify_edge(&e, at)),
        }
    }

    /// The standing infrastructure bill through `horizon_end`, once
    /// attached.
    pub(super) fn cost(&self, horizon_end: SimTime) -> Money {
        if self.attached {
            self.fleet.infrastructure_cost(horizon_end)
        } else {
            Money::ZERO
        }
    }
}
