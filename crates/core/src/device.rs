//! The user equipment (UE): the compute- and battery-constrained device
//! offloading exists to relieve.

use ntc_simcore::units::{ClockSpeed, Cycles, Energy, Power, SimDuration};

/// A UE hardware model.
///
/// Each job is assumed to originate from its own device (a population of
/// users), so device execution does not queue across jobs; the scarce
/// resources are per-job time and battery energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// CPU speed of the UE core running the app.
    pub clock: ClockSpeed,
    /// Power draw while computing.
    pub active_power: Power,
    /// Power draw while transmitting or receiving.
    pub tx_power: Power,
}

impl DeviceModel {
    /// A mid-range smartphone: 1.5 GHz sustained, 2 W active, 1.2 W radio.
    pub fn smartphone() -> Self {
        DeviceModel {
            clock: ClockSpeed::from_ghz_tenths(15),
            active_power: Power::from_watts(2),
            tx_power: Power::from_milliwatts(1200),
        }
    }

    /// A small IoT gateway: slower CPU, lower power.
    pub fn iot_gateway() -> Self {
        DeviceModel {
            clock: ClockSpeed::from_mhz(800),
            active_power: Power::from_milliwatts(900),
            tx_power: Power::from_milliwatts(700),
        }
    }

    /// The time this device needs for `work`.
    pub fn execution_time(&self, work: Cycles) -> SimDuration {
        self.clock.execution_time(work)
    }

    /// Battery energy consumed computing `work`.
    pub fn compute_energy(&self, work: Cycles) -> Energy {
        self.active_power.energy_over(self.execution_time(work))
    }

    /// Runs each member's share of one component on the member's own
    /// device, in parallel: returns the wall-clock of the slowest member
    /// and the battery energy of all of them, folded in member order.
    /// Device execution cannot fail.
    pub fn execute_members(
        &self,
        works: impl IntoIterator<Item = Cycles>,
    ) -> (SimDuration, Energy) {
        works.into_iter().fold((SimDuration::ZERO, Energy::ZERO), |(slowest, energy), work| {
            (slowest.max(self.execution_time(work)), energy + self.compute_energy(work))
        })
    }

    /// Battery energy consumed keeping the radio up for `d`.
    pub fn radio_energy(&self, d: SimDuration) -> Energy {
        self.tx_power.energy_over(d)
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        Self::smartphone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smartphone_numbers_are_sane() {
        let d = DeviceModel::smartphone();
        // 15 Gcyc at 1.5 GHz = 10 s, at 2 W = 20 J.
        assert_eq!(d.execution_time(Cycles::from_giga(15)), SimDuration::from_secs(10));
        assert_eq!(d.compute_energy(Cycles::from_giga(15)), Energy::from_joules(20));
    }

    #[test]
    fn gateway_is_slower_but_thriftier() {
        let phone = DeviceModel::smartphone();
        let gw = DeviceModel::iot_gateway();
        let work = Cycles::from_giga(8);
        assert!(gw.execution_time(work) > phone.execution_time(work));
        assert!(gw.active_power < phone.active_power);
    }

    #[test]
    fn radio_energy_scales_with_time() {
        let d = DeviceModel::smartphone();
        let one = d.radio_energy(SimDuration::from_secs(1));
        let ten = d.radio_energy(SimDuration::from_secs(10));
        assert_eq!(ten.as_nanojoules(), one.as_nanojoules() * 10);
    }
}
