//! Job streams: archetypes × arrival processes × input/slack sampling.

use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{DataSize, SimDuration, SimTime};

use crate::archetypes::Archetype;
use crate::arrivals::ArrivalProcess;

/// One job: an invocation of an application with a concrete input and a
/// completion deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Stream-unique id, dense from 0 in arrival order.
    pub id: u64,
    /// The job's identity: the `n`-th `u64` of its spec's `keys` stream
    /// for the spec's `n`-th job, so it depends on the spec's stream and
    /// `n` alone, never on the other specs. It roots [`Job::rng`].
    pub key: u64,
    /// The application being invoked.
    pub archetype: Archetype,
    /// Submission instant.
    pub arrival: SimTime,
    /// Input payload size.
    pub input: DataSize,
    /// Deadline slack: the job must finish by `arrival + slack`.
    pub slack: SimDuration,
}

impl Job {
    /// The hard completion deadline.
    pub fn deadline(&self) -> SimTime {
        self.arrival + self.slack
    }

    /// The job's own stream, rooted at its [`key`](Self::key): every draw
    /// made for the job derives from it, so a draw depends on what it is
    /// for and on the job, not on the order of any other draw.
    #[inline]
    pub fn rng(&self) -> RngStream {
        RngStream::root(self.key)
    }
}

/// Specification of one archetype's traffic within a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// The application.
    pub archetype: Archetype,
    /// Its arrival process.
    pub arrivals: ArrivalProcess,
    /// Multiplier on the archetype's typical slack (1.0 = typical;
    /// 0.0 = time-critical).
    pub slack_factor: f64,
}

impl StreamSpec {
    /// A spec with Poisson arrivals at `rate_per_sec` and typical slack.
    pub fn poisson(archetype: Archetype, rate_per_sec: f64) -> Self {
        StreamSpec {
            archetype,
            arrivals: ArrivalProcess::Poisson { rate_per_sec },
            slack_factor: 1.0,
        }
    }

    /// A spec with office-hours diurnal arrivals peaking at
    /// `peak_rate_per_sec` and typical slack.
    pub fn diurnal(archetype: Archetype, peak_rate_per_sec: f64) -> Self {
        StreamSpec {
            archetype,
            arrivals: ArrivalProcess::office_diurnal(peak_rate_per_sec),
            slack_factor: 1.0,
        }
    }

    /// A spec with two-state bursty (MMPP) arrivals and typical slack.
    pub fn bursty(
        archetype: Archetype,
        calm_rate_per_sec: f64,
        burst_rate_per_sec: f64,
        mean_calm: ntc_simcore::units::SimDuration,
        mean_burst: ntc_simcore::units::SimDuration,
    ) -> Self {
        StreamSpec {
            archetype,
            arrivals: ArrivalProcess::Bursty {
                calm_rate_per_sec,
                burst_rate_per_sec,
                mean_calm,
                mean_burst,
            },
            slack_factor: 1.0,
        }
    }

    /// Overrides the slack factor.
    pub fn with_slack_factor(mut self, factor: f64) -> Self {
        self.slack_factor = factor;
        self
    }
}

/// Generates the merged, time-ordered job stream of several specs over a
/// horizon.
///
/// Each spec draws from its own child of `rng`, `stream-{archetype}-{n}`
/// for the `n`-th spec of its archetype, so a spec's jobs do not depend on
/// its position among other archetypes' specs or on their number:
/// permuting the list, save the order of one archetype's specs, or adding
/// a spec leaves every other spec's jobs as they were. A sweep over one
/// spec's rate or slack keeps its stream, so its points share their
/// random numbers. Jobs sort by arrival, then by key, so the merged order
/// is a function of the jobs alone.
///
/// Jitter: each job's slack is its archetype's typical slack scaled by the
/// spec's factor and ±20 % lognormal noise, so deadlines are not lockstep.
///
/// # Examples
///
/// ```
/// use ntc_workloads::{generate_jobs, Archetype, StreamSpec};
/// use ntc_simcore::rng::RngStream;
/// use ntc_simcore::units::SimDuration;
///
/// let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, 0.05)];
/// let jobs = generate_jobs(&specs, SimDuration::from_hours(1), &RngStream::root(1));
/// assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
pub fn generate_jobs(specs: &[StreamSpec], horizon: SimDuration, rng: &RngStream) -> Vec<Job> {
    let mut jobs = Vec::new();
    generate_jobs_into(specs, horizon, rng, &mut jobs);
    jobs
}

/// [`generate_jobs`], but filling a caller-owned buffer: `jobs` is
/// cleared and refilled, so a reused buffer generates the stream without
/// reallocating once it has grown to steady-state capacity. The contents
/// are identical to what [`generate_jobs`] returns.
pub fn generate_jobs_into(
    specs: &[StreamSpec],
    horizon: SimDuration,
    rng: &RngStream,
    jobs: &mut Vec<Job>,
) {
    jobs.clear();
    for (si, spec) in specs.iter().enumerate() {
        let rank = specs[..si].iter().filter(|s| s.archetype == spec.archetype).count();
        let stream_rng = rng.derive(("stream-", spec.archetype.name(), "-", rank));
        let mut arr_rng = stream_rng.derive("arrivals");
        let mut body_rng = stream_rng.derive("bodies");
        let mut key_rng = stream_rng.derive("keys");
        for arrival in spec.arrivals.generate(horizon, &mut arr_rng) {
            let input = spec.archetype.sample_input(&mut body_rng);
            let slack = spec
                .archetype
                .typical_slack()
                .mul_f64(spec.slack_factor * body_rng.lognormal(0.0, 0.2));
            let key = key_rng.next_u64();
            jobs.push(Job { id: 0, key, archetype: spec.archetype, arrival, input, slack });
        }
    }
    jobs.sort_by_key(|j| (j.arrival, j.key));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stream_is_sorted_with_dense_ids() {
        let specs = [
            StreamSpec::poisson(Archetype::PhotoPipeline, 0.02),
            StreamSpec::poisson(Archetype::LogAnalytics, 0.05),
        ];
        let jobs = generate_jobs(&specs, SimDuration::from_hours(2), &RngStream::root(5));
        assert!(!jobs.is_empty());
        for (i, w) in jobs.windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "unsorted at {i}");
        }
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
        let kinds: std::collections::HashSet<_> = jobs.iter().map(|j| j.archetype).collect();
        assert_eq!(kinds.len(), 2, "both archetypes present");
    }

    #[test]
    fn slack_factor_scales_deadlines() {
        let tight = [StreamSpec::poisson(Archetype::ReportRendering, 0.05).with_slack_factor(0.1)];
        let loose = [StreamSpec::poisson(Archetype::ReportRendering, 0.05).with_slack_factor(1.0)];
        let rng = RngStream::root(9);
        let jt = generate_jobs(&tight, SimDuration::from_hours(4), &rng);
        let jl = generate_jobs(&loose, SimDuration::from_hours(4), &rng);
        let mean =
            |js: &[Job]| js.iter().map(|j| j.slack.as_secs_f64()).sum::<f64>() / js.len() as f64;
        assert!(mean(&jl) > mean(&jt) * 5.0);
    }

    #[test]
    fn deadline_is_arrival_plus_slack() {
        let j = Job {
            id: 0,
            key: 0,
            archetype: Archetype::SciSweep,
            arrival: SimTime::from_secs(100),
            input: DataSize::from_kib(1),
            slack: SimDuration::from_secs(50),
        };
        assert_eq!(j.deadline(), SimTime::from_secs(150));
    }

    #[test]
    fn bursty_spec_generates_bursty_jobs() {
        let specs = [StreamSpec::bursty(
            Archetype::LogAnalytics,
            0.01,
            2.0,
            SimDuration::from_mins(30),
            SimDuration::from_mins(2),
        )];
        let jobs = generate_jobs(&specs, SimDuration::from_hours(12), &RngStream::root(6));
        assert!(!jobs.is_empty());
        // Squared CV of inter-arrivals well above Poisson's 1.
        let gaps: Vec<f64> =
            jobs.windows(2).map(|w| (w[1].arrival - w[0].arrival).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var / (mean * mean) > 2.0, "cv2={}", var / (mean * mean));
    }

    #[test]
    fn into_buffer_reuse_matches_fresh_generation() {
        let specs = [StreamSpec::poisson(Archetype::PhotoPipeline, 0.05)];
        let rng = RngStream::root(11);
        let fresh = generate_jobs(&specs, SimDuration::from_hours(2), &rng);
        // A dirty, pre-grown buffer must end up byte-identical to fresh.
        let mut buf = generate_jobs(&specs, SimDuration::from_hours(4), &rng);
        generate_jobs_into(&specs, SimDuration::from_hours(2), &rng, &mut buf);
        assert_eq!(buf, fresh);
    }

    #[test]
    fn generation_is_deterministic() {
        let specs = [StreamSpec::diurnal(Archetype::MlInference, 0.1)];
        let a = generate_jobs(&specs, SimDuration::from_hours(6), &RngStream::root(3));
        let b = generate_jobs(&specs, SimDuration::from_hours(6), &RngStream::root(3));
        assert_eq!(a, b);
    }
}
