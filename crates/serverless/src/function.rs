//! Function definitions and the memory-size → CPU-share model.

use core::fmt;

use ntc_simcore::units::{ClockSpeed, DataSize, SimDuration};

/// Identifier of a function registered on a
/// [`crate::platform::ServerlessPlatform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub(crate) u32);

impl FunctionId {
    /// The dense index of this function.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Deployment configuration of one serverless function.
///
/// # Examples
///
/// ```
/// use ntc_serverless::function::FunctionConfig;
/// use ntc_simcore::units::{DataSize, SimDuration};
///
/// let f = FunctionConfig::new(DataSize::from_mib(512))
///     .with_timeout(SimDuration::from_mins(5))
///     .with_concurrency_limit(100);
/// assert_eq!(f.memory(), DataSize::from_mib(512));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionConfig {
    memory: DataSize,
    timeout: SimDuration,
    concurrency_limit: u32,
    artifact_size: DataSize,
}

impl FunctionConfig {
    /// Creates a function with the given memory size, a 15-minute timeout,
    /// a concurrency limit of 1000, and a 10 MiB artifact.
    pub fn new(memory: DataSize) -> Self {
        FunctionConfig {
            memory,
            timeout: SimDuration::from_mins(15),
            concurrency_limit: 1000,
            artifact_size: DataSize::from_mib(10),
        }
    }

    /// Sets the invocation timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the per-function concurrency limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_concurrency_limit(mut self, limit: u32) -> Self {
        assert!(limit > 0, "concurrency limit must be positive");
        self.concurrency_limit = limit;
        self
    }

    /// Sets the deployment-artifact size (affects cold-start time).
    pub fn with_artifact_size(mut self, size: DataSize) -> Self {
        self.artifact_size = size;
        self
    }

    /// The configured memory size.
    pub fn memory(&self) -> DataSize {
        self.memory
    }

    /// The invocation timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// The per-function concurrency limit.
    pub fn concurrency_limit(&self) -> u32 {
        self.concurrency_limit
    }

    /// The deployment-artifact size.
    pub fn artifact_size(&self) -> DataSize {
        self.artifact_size
    }
}

/// The memory → CPU model of the platform: CPU share grows linearly with
/// configured memory up to `full_speed_memory` (one full vCPU), then keeps
/// growing sub-linearly up to `max_speed_factor` (multi-vCPU functions only
/// help partially parallel code).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuScaling {
    /// Clock speed of one full vCPU.
    pub base_clock: ClockSpeed,
    /// Memory size at which one full vCPU is granted (Lambda: 1769 MB).
    pub full_speed_memory: DataSize,
    /// Cap on the speed multiple from extra memory (models limited
    /// parallelism above one vCPU).
    pub max_speed_factor: f64,
    /// Fraction of above-one-vCPU capacity that actually speeds the
    /// function up (Amdahl-style efficiency in `(0, 1]`).
    pub parallel_efficiency: f64,
}

impl CpuScaling {
    /// A Lambda-like scaling: 2.5 GHz vCPU, full speed at 1769 MB, up to
    /// 2.5× with 60 % parallel efficiency above one vCPU.
    pub fn lambda_like() -> Self {
        CpuScaling {
            base_clock: ClockSpeed::from_ghz_tenths(25),
            full_speed_memory: DataSize::from_bytes(1769 * 1024 * 1024),
            max_speed_factor: 2.5,
            parallel_efficiency: 0.6,
        }
    }

    /// The effective clock speed granted to a function with `memory`
    /// configured.
    pub fn effective_speed(&self, memory: DataSize) -> ClockSpeed {
        let ratio = memory.as_bytes() as f64 / self.full_speed_memory.as_bytes() as f64;
        let factor = if ratio <= 1.0 {
            ratio
        } else {
            (1.0 + (ratio - 1.0) * self.parallel_efficiency).min(self.max_speed_factor)
        };
        self.base_clock.mul_f64(factor.max(1e-3))
    }
}

impl Default for CpuScaling {
    fn default() -> Self {
        Self::lambda_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_simcore::units::Cycles;

    #[test]
    fn config_builder_sets_fields() {
        let f = FunctionConfig::new(DataSize::from_mib(256))
            .with_timeout(SimDuration::from_secs(30))
            .with_concurrency_limit(5)
            .with_artifact_size(DataSize::from_mib(50));
        assert_eq!(f.timeout(), SimDuration::from_secs(30));
        assert_eq!(f.concurrency_limit(), 5);
        assert_eq!(f.artifact_size(), DataSize::from_mib(50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_concurrency_panics() {
        let _ = FunctionConfig::new(DataSize::from_mib(128)).with_concurrency_limit(0);
    }

    #[test]
    fn speed_scales_linearly_below_full() {
        let s = CpuScaling::lambda_like();
        let half = s.effective_speed(DataSize::from_bytes(1769 * 1024 * 1024 / 2));
        let full = s.effective_speed(DataSize::from_bytes(1769 * 1024 * 1024));
        assert!((half.as_hz() as f64 * 2.0 - full.as_hz() as f64).abs() < 2.0);
        assert_eq!(full, s.base_clock);
    }

    #[test]
    fn speed_saturates_above_full() {
        let s = CpuScaling::lambda_like();
        let at_4x = s.effective_speed(DataSize::from_bytes(4 * 1769 * 1024 * 1024));
        let at_8x = s.effective_speed(DataSize::from_bytes(8 * 1769 * 1024 * 1024));
        assert!(at_4x > s.base_clock);
        // Both above the max factor cap → equal.
        assert_eq!(at_8x, s.base_clock.mul_f64(2.5));
        assert!(at_4x <= at_8x);
    }

    #[test]
    fn tiny_memory_still_executes() {
        let s = CpuScaling::lambda_like();
        let slow = s.effective_speed(DataSize::from_mib(128));
        assert!(slow.as_hz() > 0);
        // 128 MB gets ~7% of a vCPU: a 1 Gcyc job takes ~5.5 s.
        let t = slow.execution_time(Cycles::from_giga(1));
        assert!(t.as_secs() >= 5 && t.as_secs() <= 7, "t={t}");
    }

    #[test]
    fn execution_time_decreases_with_memory() {
        let s = CpuScaling::lambda_like();
        let work = Cycles::from_giga(10);
        let mut prev = SimDuration::MAX;
        for mib in [128u64, 256, 512, 1024, 1769, 3072, 6144] {
            let t = s.effective_speed(DataSize::from_mib(mib)).execution_time(work);
            assert!(t <= prev, "{mib} MiB should not be slower than smaller size");
            prev = t;
        }
    }
}
