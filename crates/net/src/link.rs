//! Single-link network models: latency, jitter, bandwidth, and loss.

use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Bandwidth, DataSize, SimDuration};

/// A stochastic model of one network link.
///
/// One-way latency is `base_latency` inflated by lognormal jitter;
/// serialisation time is `size / bandwidth` inflated by retransmissions at
/// `loss_rate`. A [`PathModel`](crate::PathModel) of one or more links
/// samples transfers.
///
/// # Examples
///
/// ```
/// use ntc_net::link::LinkModel;
/// use ntc_simcore::rng::RngStream;
/// use ntc_simcore::units::{Bandwidth, DataSize, SimDuration};
///
/// let wan = LinkModel::new(SimDuration::from_millis(40), Bandwidth::from_megabits_per_sec(50))
///     .with_jitter(0.1);
/// let mut rng = RngStream::root(1).derive("net");
/// assert!(wan.sample_latency(&mut rng) > SimDuration::ZERO);
/// // 1 MB at 50 Mbit/s.
/// let size = DataSize::from_bytes(1_000_000);
/// assert_eq!(wan.serialisation_time(size), SimDuration::from_millis(160));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    base_latency: SimDuration,
    bandwidth: Bandwidth,
    jitter_sigma: f64,
    loss_rate: f64,
}

impl LinkModel {
    /// Creates a link with the given one-way latency and bandwidth, no
    /// jitter and no loss.
    pub fn new(base_latency: SimDuration, bandwidth: Bandwidth) -> Self {
        LinkModel { base_latency, bandwidth, jitter_sigma: 0.0, loss_rate: 0.0 }
    }

    /// Sets lognormal jitter: latency is multiplied by
    /// `exp(N(0, sigma))`. A sigma of 0.2 gives roughly ±20 % spread.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "jitter sigma must be non-negative");
        self.jitter_sigma = sigma;
        self
    }

    /// Sets the packet-loss rate in `[0, 1)`; transfers are inflated by
    /// `1 / (1 - loss)` to model retransmission.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1)`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss rate must be in [0, 1)");
        self.loss_rate = loss;
        self
    }

    /// The configured base one-way latency.
    pub fn base_latency(&self) -> SimDuration {
        self.base_latency
    }

    /// The configured nominal bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Samples a one-way latency: one standard normal from `rng` when the
    /// link has jitter, none otherwise.
    #[inline]
    pub fn sample_latency(&self, rng: &mut RngStream) -> SimDuration {
        if self.jitter_sigma == 0.0 {
            return self.base_latency;
        }
        self.base_latency.mul_f64(rng.lognormal(0.0, self.jitter_sigma))
    }

    /// The deterministic serialisation time for `size` at full rate,
    /// inflated for retransmissions, excluding propagation latency.
    #[inline]
    pub fn serialisation_time(&self, size: DataSize) -> SimDuration {
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        let inflation = 1.0 / (1.0 - self.loss_rate);
        self.bandwidth.transfer_time(size).mul_f64(inflation)
    }
}

#[cfg(test)]
mod tests {
    //! A link's transfers are sampled through a single-link path.

    use super::*;
    use crate::PathModel;

    fn rng() -> RngStream {
        RngStream::root(42).derive("link-tests")
    }

    #[test]
    fn no_jitter_is_deterministic() {
        let link =
            LinkModel::new(SimDuration::from_millis(10), Bandwidth::from_megabits_per_sec(8));
        let mut r = rng();
        assert_eq!(link.sample_latency(&mut r), SimDuration::from_millis(10));
        assert_eq!(link.sample_latency(&mut r), SimDuration::from_millis(10));
    }

    #[test]
    fn transfer_includes_latency_and_serialisation() {
        // 8 Mbit/s = 1 MB/s; 1 MB takes 1 s + 10 ms latency.
        let path = PathModel::single(LinkModel::new(
            SimDuration::from_millis(10),
            Bandwidth::from_megabits_per_sec(8),
        ));
        let t = path.transfer_time(DataSize::from_bytes(1_000_000), &mut rng());
        assert_eq!(t, SimDuration::from_millis(1010));
    }

    #[test]
    fn zero_size_transfer_is_latency_only() {
        let path = PathModel::single(LinkModel::new(
            SimDuration::from_millis(5),
            Bandwidth::from_megabits_per_sec(1),
        ));
        assert_eq!(path.transfer_time(DataSize::ZERO, &mut rng()), SimDuration::from_millis(5));
    }

    #[test]
    fn loss_inflates_serialisation() {
        let clean = LinkModel::new(SimDuration::ZERO, Bandwidth::from_megabits_per_sec(8));
        let lossy = PathModel::single(clean.clone().with_loss(0.5));
        let clean = PathModel::single(clean);
        let size = DataSize::from_bytes(1_000_000);
        let t_clean = clean.transfer_time(size, &mut rng());
        let t_lossy = lossy.transfer_time(size, &mut rng());
        assert_eq!(t_lossy.as_micros(), t_clean.as_micros() * 2);
    }

    #[test]
    fn jitter_spreads_latency() {
        let path = PathModel::single(
            LinkModel::new(SimDuration::from_millis(100), Bandwidth::from_megabits_per_sec(8))
                .with_jitter(0.3),
        );
        let mut r = rng();
        let samples: Vec<u64> =
            (0..200).map(|_| path.transfer_time(DataSize::ZERO, &mut r).as_micros()).collect();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(min < 100_000 && max > 100_000, "jitter should spread around base ({min}..{max})");
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 100_000.0).abs() < 20_000.0, "mean={mean}");
    }

    #[test]
    fn bandwidth_share_slows_transfer() {
        let path = PathModel::single(LinkModel::new(
            SimDuration::ZERO,
            Bandwidth::from_megabits_per_sec(8),
        ));
        let size = DataSize::from_bytes(1_000_000);
        let full = path.at_share(1.0).transfer_time(size, &mut rng());
        let half = path.at_share(0.5).transfer_time(size, &mut rng());
        assert_eq!(half.as_micros(), full.as_micros() * 2);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn full_loss_is_rejected() {
        let _ =
            LinkModel::new(SimDuration::ZERO, Bandwidth::from_megabits_per_sec(1)).with_loss(1.0);
    }
}
