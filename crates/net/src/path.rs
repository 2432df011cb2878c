//! Multi-hop network paths and the UE/edge/cloud topology.

use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Bandwidth, DataSize, SimDuration};

use crate::link::LinkModel;

/// A network path composed of one or more links in sequence.
///
/// Latency adds across hops; the serialisation rate is the bottleneck
/// link's. Loss/jitter are applied per hop by delegating to each link.
#[derive(Debug, Clone, PartialEq)]
pub struct PathModel {
    links: Vec<LinkModel>,
}

impl PathModel {
    /// Creates a path from hops in order.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub fn new(links: Vec<LinkModel>) -> Self {
        assert!(!links.is_empty(), "a path needs at least one link");
        PathModel { links }
    }

    /// Creates a single-hop path.
    pub fn single(link: LinkModel) -> Self {
        PathModel { links: vec![link] }
    }

    /// The hops of this path.
    pub fn links(&self) -> &[LinkModel] {
        &self.links
    }

    /// The bottleneck (minimum) nominal bandwidth along the path.
    pub fn bottleneck_bandwidth(&self) -> Bandwidth {
        self.links.iter().map(LinkModel::bandwidth).min().expect("path is non-empty")
    }

    /// The sum of base one-way latencies along the path.
    pub fn base_latency(&self) -> SimDuration {
        self.links.iter().map(LinkModel::base_latency).sum()
    }

    /// Samples the one-way latency across all hops: one standard normal
    /// from `rng` per jittered hop, in hop order.
    pub fn sample_latency(&self, rng: &mut RngStream) -> SimDuration {
        self.links.iter().map(|l| l.sample_latency(rng)).sum()
    }

    /// Samples the time to move `size` along the path: per-hop latency plus
    /// serialisation at the slowest hop (store-and-forward pipelining is
    /// approximated by charging serialisation once).
    pub fn transfer_time(&self, size: DataSize, rng: &mut RngStream) -> SimDuration {
        self.transfer_time_at_share(size, 1.0, rng)
    }

    /// Like [`PathModel::transfer_time`] but with only `share` (0, 1] of
    /// the bottleneck bandwidth available — the hook for time-varying
    /// congestion ([`crate::BandwidthTrace`]).
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `(0, 1]`.
    pub fn transfer_time_at_share(
        &self,
        size: DataSize,
        share: f64,
        rng: &mut RngStream,
    ) -> SimDuration {
        assert!(share > 0.0 && share <= 1.0, "bandwidth share must be in (0, 1]");
        let latency = self.sample_latency(rng);
        if size.is_zero() {
            return latency;
        }
        // Charge serialisation once, on the bottleneck hop (store-and-forward
        // pipelining approximation), including that hop's loss inflation.
        let bottleneck =
            self.links.iter().min_by_key(|l| l.bandwidth()).expect("path is non-empty");
        latency + bottleneck.serialisation_time(size).mul_f64(1.0 / share)
    }
}

/// The three-point topology every offloading decision sees: the paths
/// from the user equipment to a nearby edge site and to a cloud region.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Path from the UE to the cloud region (WAN).
    pub ue_cloud: PathModel,
    /// Path from the UE to the nearest edge site (LAN / radio access).
    pub ue_edge: PathModel,
}

impl Topology {
    /// A metropolitan reference topology:
    ///
    /// * UE → edge: 5 ms, 200 Mbit/s (radio access + one hop);
    /// * UE → cloud: 40 ms, 50 Mbit/s (access + WAN).
    ///
    /// Latency jitter ~10 %, light loss on the radio segment.
    pub fn metro_reference() -> Self {
        Topology {
            ue_cloud: PathModel::new(vec![
                LinkModel::new(SimDuration::from_millis(8), Bandwidth::from_megabits_per_sec(100))
                    .with_jitter(0.15)
                    .with_loss(0.005),
                LinkModel::new(SimDuration::from_millis(32), Bandwidth::from_megabits_per_sec(50))
                    .with_jitter(0.10),
            ]),
            ue_edge: PathModel::single(
                LinkModel::new(SimDuration::from_millis(5), Bandwidth::from_megabits_per_sec(200))
                    .with_jitter(0.10)
                    .with_loss(0.005),
            ),
        }
    }

    /// A rural / constrained-access topology: higher latency, lower
    /// bandwidth, more jitter on every segment.
    pub fn rural_reference() -> Self {
        Topology {
            ue_cloud: PathModel::new(vec![
                LinkModel::new(SimDuration::from_millis(25), Bandwidth::from_megabits_per_sec(20))
                    .with_jitter(0.3)
                    .with_loss(0.02),
                LinkModel::new(SimDuration::from_millis(45), Bandwidth::from_megabits_per_sec(20))
                    .with_jitter(0.15),
            ]),
            ue_edge: PathModel::single(
                LinkModel::new(SimDuration::from_millis(12), Bandwidth::from_megabits_per_sec(50))
                    .with_jitter(0.25)
                    .with_loss(0.02),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::root(7).derive("path-tests")
    }

    #[test]
    fn bottleneck_and_latency_compose() {
        let p = PathModel::new(vec![
            LinkModel::new(SimDuration::from_millis(10), Bandwidth::from_megabits_per_sec(100)),
            LinkModel::new(SimDuration::from_millis(20), Bandwidth::from_megabits_per_sec(10)),
        ]);
        assert_eq!(p.base_latency(), SimDuration::from_millis(30));
        assert_eq!(p.bottleneck_bandwidth(), Bandwidth::from_megabits_per_sec(10));
    }

    #[test]
    fn transfer_time_is_latency_plus_bottleneck_serialisation() {
        let p = PathModel::new(vec![
            LinkModel::new(SimDuration::from_millis(10), Bandwidth::from_megabits_per_sec(80)),
            LinkModel::new(SimDuration::from_millis(20), Bandwidth::from_megabits_per_sec(8)),
        ]);
        // 1 MB over 1 MB/s bottleneck = 1s; latency 30ms.
        let t = p.transfer_time(DataSize::from_bytes(1_000_000), &mut rng());
        assert_eq!(t, SimDuration::from_millis(1030));
    }

    #[test]
    fn single_hop_path_matches_link() {
        let link = LinkModel::new(SimDuration::from_millis(5), Bandwidth::from_megabits_per_sec(8))
            .with_jitter(0.2)
            .with_loss(0.1);
        let p = PathModel::single(link.clone());
        let mut r1 = rng();
        let mut r2 = rng();
        let size = DataSize::from_kib(100);
        assert_eq!(
            p.transfer_time(size, &mut r1),
            link.sample_latency(&mut r2) + link.serialisation_time(size)
        );
    }

    #[test]
    fn reference_topologies_are_ordered_sensibly() {
        let metro = Topology::metro_reference();
        assert!(metro.ue_edge.base_latency() < metro.ue_cloud.base_latency());
        assert!(metro.ue_edge.bottleneck_bandwidth() > metro.ue_cloud.bottleneck_bandwidth());
        let rural = Topology::rural_reference();
        assert!(rural.ue_cloud.base_latency() > metro.ue_cloud.base_latency());
    }

    #[test]
    fn congested_share_slows_serialisation_only() {
        let p = PathModel::single(LinkModel::new(
            SimDuration::from_millis(10),
            Bandwidth::from_megabits_per_sec(8),
        ));
        let size = DataSize::from_bytes(1_000_000); // 1 s at full rate
        let full = p.transfer_time_at_share(size, 1.0, &mut rng());
        let half = p.transfer_time_at_share(size, 0.5, &mut rng());
        assert_eq!(full, SimDuration::from_millis(1010));
        assert_eq!(
            half,
            SimDuration::from_millis(2010),
            "latency unchanged, serialisation doubled"
        );
    }

    #[test]
    #[should_panic(expected = "share")]
    fn zero_share_panics() {
        let p = PathModel::single(LinkModel::new(
            SimDuration::ZERO,
            Bandwidth::from_megabits_per_sec(1),
        ));
        let _ = p.transfer_time_at_share(DataSize::from_kib(1), 0.0, &mut rng());
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_panics() {
        let _ = PathModel::new(vec![]);
    }
}
