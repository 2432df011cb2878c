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
    #[inline]
    pub fn sample_latency(&self, rng: &mut RngStream) -> SimDuration {
        self.links.iter().map(|l| l.sample_latency(rng)).sum()
    }

    /// Samples the time to move `size` along the path: per-hop latency plus
    /// serialisation at the slowest hop (store-and-forward pipelining is
    /// approximated by charging serialisation once).
    pub fn transfer_time(&self, size: DataSize, rng: &mut RngStream) -> SimDuration {
        self.at_share(1.0).transfer_time(size, rng)
    }

    /// This path's transfers at `share` (0, 1] of the bottleneck
    /// bandwidth — the hook for time-varying congestion
    /// ([`crate::BandwidthTrace`]): the share is checked, the bottleneck
    /// hop found and the slowdown `1 / share` computed once, for every
    /// transfer a batch's members make at one instant.
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `(0, 1]`.
    pub fn at_share(&self, share: f64) -> SharedPath<'_> {
        assert!(share > 0.0 && share <= 1.0, "bandwidth share must be in (0, 1]");
        // Charge serialisation once, on the bottleneck hop (store-and-forward
        // pipelining approximation), including that hop's loss inflation.
        let bottleneck =
            self.links.iter().min_by_key(|l| l.bandwidth()).expect("path is non-empty");
        SharedPath { path: self, bottleneck, slowdown: 1.0 / share }
    }
}

/// A [`PathModel`] at one bandwidth share, made by
/// [`PathModel::at_share`].
#[derive(Debug, Clone, Copy)]
pub struct SharedPath<'a> {
    path: &'a PathModel,
    bottleneck: &'a LinkModel,
    slowdown: f64,
}

impl SharedPath<'_> {
    /// Samples the time to move `size` along the path at this share: the
    /// hops' latencies plus the bottleneck's serialisation, slowed by the
    /// share.
    #[inline]
    pub fn transfer_time(&self, size: DataSize, rng: &mut RngStream) -> SimDuration {
        let latency = self.path.sample_latency(rng);
        if size.is_zero() {
            return latency;
        }
        latency + self.bottleneck.serialisation_time(size).mul_f64(self.slowdown)
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
        let full = p.at_share(1.0).transfer_time(size, &mut rng());
        let half = p.at_share(0.5).transfer_time(size, &mut rng());
        assert_eq!(full, SimDuration::from_millis(1010));
        assert_eq!(
            half,
            SimDuration::from_millis(2010),
            "latency unchanged, serialisation doubled"
        );
    }

    /// A transfer as timed before paths had a per-share plan: every hop's
    /// latency in hop order, then the bottleneck found and the share
    /// divided out for this one transfer.
    fn unplanned(path: &PathModel, size: DataSize, share: f64, rng: &mut RngStream) -> SimDuration {
        let latency: SimDuration = path.links().iter().map(|l| l.sample_latency(rng)).sum();
        if size.is_zero() {
            return latency;
        }
        let bottleneck = path.links().iter().min_by_key(|l| l.bandwidth()).unwrap();
        latency + bottleneck.serialisation_time(size).mul_f64(1.0 / share)
    }

    #[test]
    fn a_shared_path_draws_like_transfer_time_at_share() {
        let (metro, rural) = (Topology::metro_reference(), Topology::rural_reference());
        let paths = [&metro.ue_cloud, &metro.ue_edge, &rural.ue_cloud, &rural.ue_edge];
        let sizes = [0, 1, 999, 65_536, 3 << 20, 700 << 20].map(DataSize::from_bytes);
        for (pi, path) in paths.into_iter().enumerate() {
            for share in [1.0, 0.999, 0.5, 0.37, 0.01] {
                let plan = path.at_share(share);
                // Both sides read one stream each, from the same key: a
                // draw taken out of turn would shift every later value.
                let mut a = rng().derive(("shared", pi));
                let mut c = rng().derive(("shared", pi));
                for _ in 0..50 {
                    for size in sizes {
                        let want = unplanned(path, size, share, &mut c);
                        let why = format!("path {pi}, share {share}, {size}");
                        assert_eq!(plan.transfer_time(size, &mut a), want, "{why}");
                    }
                }
                assert_eq!(a.next_u64(), c.next_u64(), "path {pi}: streams in step");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share")]
    fn a_shared_path_checks_its_share() {
        let _ = Topology::metro_reference().ue_edge.at_share(1.5);
    }

    #[test]
    #[should_panic(expected = "share")]
    fn zero_share_panics() {
        let p = PathModel::single(LinkModel::new(
            SimDuration::ZERO,
            Bandwidth::from_megabits_per_sec(1),
        ));
        let _ = p.at_share(0.0).transfer_time(DataSize::from_kib(1), &mut rng());
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_panics() {
        let _ = PathModel::new(vec![]);
    }
}
