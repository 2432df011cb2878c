//! The complete simulated world an offloading policy operates in.

use ntc_edge::EdgeConfig;
use ntc_faults::FaultConfig;
use ntc_net::{BandwidthTrace, ConnectivityTrace, LinkModel, PathModel, Topology};
use ntc_serverless::PlatformConfig;
use ntc_simcore::units::{Bandwidth, DataSize, Energy, Money, SimDuration};

use crate::device::DeviceModel;

/// Everything outside the policy's control: device hardware, networks,
/// the cloud platform, the edge fleet, and pricing.
#[derive(Debug, Clone)]
pub struct Environment {
    /// UE hardware.
    pub device: DeviceModel,
    /// UE / edge / cloud connectivity.
    pub topology: Topology,
    /// Time-varying congestion on the UE ↔ cloud WAN (share of nominal
    /// bandwidth available by time of day).
    pub wan_congestion: BandwidthTrace,
    /// When the UE can reach any network at all (outage schedule).
    pub connectivity: ConnectivityTrace,
    /// Cloud FaaS platform configuration.
    pub platform: PlatformConfig,
    /// Edge fleet configuration.
    pub edge: EdgeConfig,
    /// Path between two cloud functions (storage hop).
    pub intra_cloud: PathModel,
    /// Path between two services on the same edge site.
    pub intra_edge: PathModel,
    /// Size of the result notification returned to the device.
    pub result_return: DataSize,
    /// Electricity-equivalent price of UE energy, per joule.
    pub energy_price_per_joule: Money,
    /// Injected faults: transient invocation errors, throttling, edge
    /// outage windows and transfer drops. Defaults to none.
    pub faults: FaultConfig,
}

impl Environment {
    /// The metropolitan reference environment used throughout the
    /// evaluation: smartphone UE, metro networks, Lambda-like cloud,
    /// four-server edge site.
    pub fn metro_reference() -> Self {
        Environment {
            device: DeviceModel::smartphone(),
            topology: Topology::metro_reference(),
            wan_congestion: BandwidthTrace::diurnal_congestion(),
            connectivity: ConnectivityTrace::always(),
            platform: PlatformConfig::default(),
            edge: EdgeConfig::default(),
            intra_cloud: PathModel::single(LinkModel::new(
                SimDuration::from_millis(5),
                Bandwidth::from_megabits_per_sec(1000),
            )),
            intra_edge: PathModel::single(LinkModel::new(
                SimDuration::from_millis(1),
                Bandwidth::from_megabits_per_sec(2000),
            )),
            result_return: DataSize::from_kib(100),
            // ~\$0.45/kWh mobile-charging equivalent = \$1.25e-7 per joule.
            energy_price_per_joule: Money::from_nano_usd(125),
            faults: FaultConfig::none(),
        }
    }

    /// The monetary value of `energy` at this environment's price.
    pub fn energy_cost(&self, energy: Energy) -> Money {
        self.energy_price_per_joule.mul_f64(energy.as_joules_f64())
    }
}

impl Default for Environment {
    fn default() -> Self {
        Self::metro_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_environment_is_consistent() {
        let env = Environment::metro_reference();
        assert!(env.topology.ue_edge.base_latency() < env.topology.ue_cloud.base_latency());
        assert!(env.intra_cloud.base_latency() < env.topology.ue_cloud.base_latency());
        assert!(env.result_return > DataSize::ZERO);
    }

    #[test]
    fn congestion_trace_is_diurnal() {
        let env = Environment::metro_reference();
        assert!(env.wan_congestion.min_share() < 1.0);
    }

    #[test]
    fn energy_pricing() {
        let env = Environment::metro_reference();
        // 1 kWh = 3.6 MJ at 125 n$/J = \$0.45.
        let c = env.energy_cost(Energy::from_joules(3_600_000));
        assert!((c.as_usd_f64() - 0.45).abs() < 1e-9, "{c}");
    }
}
