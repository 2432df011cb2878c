//! Result records of an end-to-end run: per-job outcomes and aggregate
//! metrics. [`RunResult::to_json`] writes them in the layout of the
//! committed `results/` files: units as bare integers, `Archetype` and
//! `FailureCause` as variant names, and the two optional sections left
//! out while they are `None`.

use std::collections::BTreeMap;

use ntc_faults::FailureCause;
use ntc_json::ToJson;
use ntc_simcore::metrics::Histogram;
use ntc_simcore::stats::{Summary, Welford};
use ntc_simcore::timeseries::TimeSeries;
use ntc_simcore::units::{DataSize, Energy, Money, SimDuration, SimTime};
use ntc_workloads::Archetype;

/// The outcome of one job.
#[derive(Debug, Clone, Copy, PartialEq, ToJson)]
pub struct JobResult {
    /// The job's stream id.
    pub id: u64,
    /// Which application it invoked.
    pub archetype: Archetype,
    /// When it arrived.
    pub arrival: SimTime,
    /// When it was released to execution (after any deliberate holding).
    pub dispatched: SimTime,
    /// When its results reached the device.
    pub finish: SimTime,
    /// Its deadline.
    pub deadline: SimTime,
    /// Whether a cloud/edge failure lost the job.
    pub failed: bool,
    /// Remote executions of the job's batch: the most any one component
    /// made, and at least 1. Every remote execution counts: the first, a
    /// retry after a backoff, and a re-execution after an outage wait
    /// (`ErrorClass::WaitUntil`) or a fallback hop to a remote site.
    /// [`RunResult::total_retries`] counts only the retries.
    pub attempts: u32,
    /// Time the job's batch spent waiting in retry backoff (the maximum
    /// cumulative backoff across components, so it never exceeds
    /// `finish - dispatched`).
    pub backoff: SimDuration,
    /// Backend fallback switches the job's batch performed (edge → cloud
    /// → device).
    pub fallbacks: u32,
    /// Why the job was lost, when it was.
    pub cause: Option<FailureCause>,
}

impl JobResult {
    /// End-to-end latency (arrival to results on device).
    pub fn latency(&self) -> SimDuration {
        self.finish - self.arrival
    }

    /// Whether the job finished by its deadline (failed jobs never do).
    pub fn met_deadline(&self) -> bool {
        !self.failed && self.finish <= self.deadline
    }
}

/// A constant-memory latency sketch: exact first/second moments
/// (Welford, in seconds) plus a log-bucketed histogram (microseconds)
/// for quantiles with relative error below
/// [`Histogram::RELATIVE_ERROR_BOUND`] (< 1/32 ≈ 3.1%). Count, mean,
/// min and max are exact; only p50/p95/p99 carry the bucket error.
#[derive(Debug, Clone, Default, ToJson)]
pub struct LatencyDigest {
    /// Exact streaming mean/variance of the latency, in seconds.
    pub moments: Welford,
    /// Log-bucketed latency histogram over microseconds.
    pub histogram: Histogram,
}

impl LatencyDigest {
    /// Folds one latency observation into the digest.
    pub fn observe(&mut self, latency: SimDuration) {
        self.moments.record(latency.as_secs_f64());
        self.histogram.record_duration(latency);
    }

    /// A [`Summary`] in seconds served from the sketch, or `None` if
    /// empty. Count, mean, min and max are exact; the percentiles are
    /// histogram bucket upper bounds (never underestimates, within the
    /// documented bound).
    pub fn summary(&self) -> Option<Summary> {
        if self.moments.count() == 0 {
            return None;
        }
        let q = |p: f64| self.histogram.value_at_quantile(p) as f64 / 1e6;
        Some(Summary {
            count: self.moments.count(),
            mean: self.moments.mean(),
            min: self.histogram.min().unwrap_or(0) as f64 / 1e6,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max: self.histogram.max().unwrap_or(0) as f64 / 1e6,
        })
    }
}

/// One failure cause's lost-job count (named struct rather than a map so
/// the entry order is an explicit, committed part of the report format).
#[derive(Debug, Clone, ToJson)]
pub struct CauseCount {
    /// The failure cause.
    pub cause: FailureCause,
    /// Jobs lost to it.
    pub count: u64,
}

/// One archetype's streaming aggregate within [`RunAggregates`].
#[derive(Debug, Clone, ToJson)]
pub struct ArchetypeAggregate {
    /// The application.
    pub archetype: Archetype,
    /// Jobs of this archetype.
    pub jobs: u64,
    /// Deadline misses (including failures).
    pub misses: u64,
    /// Platform failures.
    pub failures: u64,
    /// Streaming latency sketch.
    pub latency: LatencyDigest,
    /// Total deliberate hold before dispatch, in seconds (divide by
    /// `jobs` for the mean).
    pub hold_s: f64,
}

/// Streaming whole-run aggregates: the one definition of every counter
/// the methods of [`RunResult`] report, folded one job at a time with
/// O(1) memory in the job count.
///
/// A `JobRetention::Aggregates` run streams its outcomes in at settlement
/// and carries a copy in [`RunResult::aggregates`]; a `Full` run counts
/// its `jobs` once, at assembly, and leaves the latency sketches empty
/// for exact sorts. Counts, rates, means and totals are exact; latency
/// percentiles carry the histogram's documented error bound.
#[derive(Debug, Clone, Default, ToJson)]
pub struct RunAggregates {
    /// Total jobs.
    pub jobs: u64,
    /// Jobs that missed their deadline or failed.
    pub deadline_misses: u64,
    /// Jobs lost to platform failures.
    pub failures: u64,
    /// Total [`attempts`](JobResult::attempts) (≥ the job count).
    pub total_attempts: u64,
    /// Total retry-backoff wait.
    pub total_backoff: SimDuration,
    /// Total backend fallback switches.
    pub total_fallbacks: u64,
    /// Total retries after a backoff (see [`RunResult::total_retries`]).
    /// A [`JobResult`] does not carry them, so the engine sets this once
    /// the run's jobs are counted, and counting a job leaves it alone.
    /// Left out of the report.
    #[json(skip)]
    pub total_retries: u64,
    /// Lost-job counts per failure cause, sorted by cause name.
    pub failure_causes: Vec<CauseCount>,
    /// Whole-run latency sketch.
    pub latency: LatencyDigest,
    /// Per-archetype aggregates, sorted by archetype name.
    pub by_archetype: Vec<ArchetypeAggregate>,
    /// Total deliberate hold before dispatch, in seconds, summed in the
    /// order the jobs were counted (a `Full` run's arrival order). Left
    /// out of the report: each archetype's `hold_s` carries it.
    #[json(skip)]
    pub hold_s: f64,
}

impl RunAggregates {
    /// Folds one job outcome into the aggregates, latency included.
    pub fn record(&mut self, r: &JobResult) {
        let i = self.count(r);
        self.latency.observe(r.latency());
        self.by_archetype[i].latency.observe(r.latency());
    }

    /// Counts one job outcome, latency aside, and returns its archetype's
    /// index. The cause and archetype tables use linear probes: both are
    /// bounded by the enum sizes, not the job count.
    pub(crate) fn count(&mut self, r: &JobResult) -> usize {
        self.jobs += 1;
        if !r.met_deadline() {
            self.deadline_misses += 1;
        }
        if r.failed {
            self.failures += 1;
        }
        self.total_attempts += u64::from(r.attempts);
        self.total_backoff += r.backoff;
        self.total_fallbacks += u64::from(r.fallbacks);
        if let Some(c) = r.cause {
            match self.failure_causes.iter_mut().find(|e| e.cause == c) {
                Some(e) => e.count += 1,
                None => self.failure_causes.push(CauseCount { cause: c, count: 1 }),
            }
        }
        let i = match self.by_archetype.iter().position(|a| a.archetype == r.archetype) {
            Some(i) => i,
            None => {
                self.by_archetype.push(ArchetypeAggregate {
                    archetype: r.archetype,
                    jobs: 0,
                    misses: 0,
                    failures: 0,
                    latency: LatencyDigest::default(),
                    hold_s: 0.0,
                });
                self.by_archetype.len() - 1
            }
        };
        let slot = &mut self.by_archetype[i];
        slot.jobs += 1;
        if !r.met_deadline() {
            slot.misses += 1;
        }
        if r.failed {
            slot.failures += 1;
        }
        let hold = (r.dispatched - r.arrival).as_secs_f64();
        slot.hold_s += hold;
        self.hold_s += hold;
        i
    }

    /// Sorts the cause and archetype tables into their committed name
    /// order. Call once when the run closes.
    pub fn finalize(&mut self) {
        self.failure_causes.sort_by_key(|e| e.cause.name());
        self.by_archetype.sort_by_key(|a| a.archetype.name());
    }
}

/// Aggregate outcome of one policy over one job stream.
#[derive(Debug, Clone, ToJson)]
pub struct RunResult {
    /// The policy that produced this run.
    pub policy: String,
    /// Per-job outcomes, in arrival order. Empty when the run was made
    /// with `JobRetention::Aggregates`, in which case `aggregates`
    /// carries the streaming equivalents.
    pub jobs: Vec<JobResult>,
    /// Total bill of metered sites: the serverless invocations,
    /// provisioning and warmers.
    pub cloud_cost: Money,
    /// Flat-rate bill of unmetered sites (edge infrastructure).
    pub edge_cost: Money,
    /// UE battery energy consumed across all jobs.
    pub device_energy: Energy,
    /// The UE energy expressed as money (electricity-equivalent price).
    pub device_energy_cost: Money,
    /// Bytes uploaded from devices.
    pub bytes_up: DataSize,
    /// Bytes downloaded to devices.
    pub bytes_down: DataSize,
    /// Job completions per simulated hour.
    pub completions_per_hour: TimeSeries,
    /// The simulated horizon.
    pub horizon: SimDuration,
    /// Overload-layer counters, present only when the run's policy
    /// enabled any part of the health layer (breakers, admission
    /// control or hedging); `None` reproduces the legacy report
    /// byte for byte.
    #[json(skip_if_none)]
    pub overload: Option<OverloadStats>,
    /// Streaming aggregates: `Some` exactly for `JobRetention::Aggregates`
    /// runs (where `jobs` is empty), and left out of a `Full` run's report.
    /// Consumers branch on it: the benchmark's run check and digest read
    /// per-job data exactly when it is `None`.
    #[json(skip_if_none)]
    pub aggregates: Option<RunAggregates>,
    /// The counters every method reads, counted once at assembly; the
    /// report writes `jobs` or `aggregates` instead.
    #[json(skip)]
    pub(crate) totals: RunAggregates,
}

impl RunResult {
    /// Total monetary cost: cloud + edge + device electricity.
    pub fn total_cost(&self) -> Money {
        self.cloud_cost + self.edge_cost + self.device_energy_cost
    }

    /// Total jobs in the run, whichever retention mode produced it.
    pub fn job_count(&self) -> u64 {
        self.totals.jobs
    }

    /// Number of jobs that missed their deadline or failed.
    pub fn deadline_misses(&self) -> u64 {
        self.totals.deadline_misses
    }

    /// Deadline-miss rate in `[0, 1]`; zero for an empty run.
    pub fn miss_rate(&self) -> f64 {
        let t = &self.totals;
        if t.jobs == 0 {
            0.0
        } else {
            t.deadline_misses as f64 / t.jobs as f64
        }
    }

    /// Goodput: jobs that met their deadline, per simulated hour. The
    /// overload experiments rank policies by this — raw completions
    /// overcount work that arrived too late to matter.
    pub fn goodput_per_hour(&self) -> f64 {
        let hours = self.horizon.as_secs_f64() / 3600.0;
        if hours <= 0.0 {
            return 0.0;
        }
        (self.totals.jobs - self.totals.deadline_misses) as f64 / hours
    }

    /// Number of jobs lost to platform failures.
    pub fn failures(&self) -> u64 {
        self.totals.failures
    }

    /// Total [`attempts`](JobResult::attempts) across all jobs (≥ the
    /// job count).
    pub fn total_attempts(&self) -> u64 {
        self.totals.total_attempts
    }

    /// Total retries: the re-executions that recovery schedules after a
    /// backoff, for a retryable failure under a retrying policy. Each job
    /// counts its batch's largest per-component retry count, as
    /// [`attempts`](JobResult::attempts) does. A re-execution after an
    /// outage wait (`ErrorClass::WaitUntil`) or a fallback hop is an
    /// attempt but not a retry; [`total_fallbacks`](Self::total_fallbacks)
    /// counts the hops.
    pub fn total_retries(&self) -> u64 {
        self.totals.total_retries
    }

    /// Total time jobs spent waiting in retry backoff.
    pub fn total_backoff(&self) -> SimDuration {
        self.totals.total_backoff
    }

    /// Total backend fallback switches across all jobs.
    pub fn total_fallbacks(&self) -> u64 {
        self.totals.total_fallbacks
    }

    /// Failed-job counts keyed by failure cause name, sorted by name.
    pub fn failure_causes(&self) -> BTreeMap<&'static str, u64> {
        self.totals.failure_causes.iter().map(|e| (e.cause.name(), e.count)).collect()
    }

    /// Jobs lost to any failure cause that `hit` accepts.
    pub fn lost_to(&self, hit: impl Fn(FailureCause) -> bool) -> u64 {
        self.totals.failure_causes.iter().filter(|e| hit(e.cause)).map(|e| e.count).sum()
    }

    /// Mean deliberate hold before dispatch over every job, in seconds;
    /// zero for an empty run. A `Full` run's is the arrival-order sum of
    /// its jobs' holds over the job count, bit for bit.
    pub fn mean_hold_s(&self) -> f64 {
        let t = &self.totals;
        if t.jobs == 0 {
            0.0
        } else {
            t.hold_s / t.jobs as f64
        }
    }

    /// The whole-run latency summary and the per-archetype breakdown,
    /// computed together. An `Aggregates` run serves both from the
    /// streaming sketch; a `Full` run, whose sketches are empty, takes
    /// exact summaries from a single value-sort of its jobs.
    /// Callers that need both should call this once instead of
    /// [`latency_summary`](Self::latency_summary) plus
    /// [`by_archetype`](Self::by_archetype), which each redo the work.
    pub fn metrics(&self) -> (Option<Summary>, Vec<ArchetypeBreakdown>) {
        let t = &self.totals;
        let mut breakdown: Vec<_> = t
            .by_archetype
            .iter()
            .map(|a| ArchetypeBreakdown {
                archetype: a.archetype,
                jobs: a.jobs as usize,
                misses: a.misses,
                failures: a.failures,
                latency: a.latency.summary(),
                mean_hold_s: a.hold_s / a.jobs as f64,
            })
            .collect();
        if self.aggregates.is_some() {
            return (t.latency.summary(), breakdown);
        }
        // Latencies sort as integer microseconds, tagged with their
        // archetype's index. Seconds are a monotone function of them, so
        // the converted buffer is the ascending sort of the seconds, and
        // each archetype's subsequence is exactly its own ascending sort
        // (ties are bit-identical f64s): every Summary field matches the
        // sort-per-archetype result bit for bit.
        let mut tagged: Vec<(u64, usize)> =
            self.jobs.iter().map(|j| (j.latency().as_micros(), j.archetype.index())).collect();
        tagged.sort_unstable();
        let mut own: [Vec<f64>; Archetype::all().len()] = Default::default();
        let mut sorted = Vec::with_capacity(tagged.len());
        for &(us, a) in &tagged {
            let secs = SimDuration::from_micros(us).as_secs_f64();
            own[a].push(secs);
            sorted.push(secs);
        }
        for b in &mut breakdown {
            b.latency = Summary::of_sorted(&own[b.archetype.index()]);
        }
        (Summary::of_sorted(&sorted), breakdown)
    }

    /// Latency summary in seconds, or `None` for an empty run. Exact in
    /// `Full` retention, from an integer sort of the latencies in
    /// microseconds (see [`metrics`](Self::metrics)); percentiles within
    /// the histogram bound in `Aggregates`.
    pub fn latency_summary(&self) -> Option<Summary> {
        if self.aggregates.is_some() {
            return self.totals.latency.summary();
        }
        let mut micros: Vec<u64> = self.jobs.iter().map(|j| j.latency().as_micros()).collect();
        micros.sort_unstable();
        let secs: Vec<f64> =
            micros.into_iter().map(|us| SimDuration::from_micros(us).as_secs_f64()).collect();
        Summary::of_sorted(&secs)
    }

    /// Per-archetype outcome breakdown, sorted by archetype name.
    /// Callers that also need [`latency_summary`](Self::latency_summary)
    /// should use [`metrics`](Self::metrics), which sorts once for both.
    pub fn by_archetype(&self) -> Vec<ArchetypeBreakdown> {
        self.metrics().1
    }

    /// The full result as pretty JSON, in the layout of every file under
    /// `results/`.
    pub fn to_json(&self) -> String {
        ntc_json::to_string_pretty(self)
    }
}

/// Counters of the overload-aware dispatch layer over one run: how often
/// work was deferred, shed down the chain, steered around an Open
/// breaker, or hedged onto a second site.
#[derive(Debug, Clone, Default, PartialEq, ToJson)]
pub struct OverloadStats {
    /// Batches shed to the next chain site by admission control.
    pub sheds: u64,
    /// Dispatch deferrals granted to delay-tolerant batches.
    pub deferrals: u64,
    /// Executions steered past an Open breaker at dispatch.
    pub breaker_skips: u64,
    /// Hedged (duplicated) invocations launched.
    pub hedges: u64,
    /// Hedges whose duplicate finished first.
    pub hedges_won: u64,
    /// Hedges whose duplicate lost (or failed outright).
    pub hedges_lost: u64,
    /// Invocations cancelled as hedge losers (never counted as failures
    /// and never retried).
    pub hedge_cancelled: u64,
    /// Breaker state transitions per site, keyed by site name.
    pub breaker_transitions: BTreeMap<String, u32>,
}

/// One archetype's slice of a [`RunResult`].
#[derive(Debug, Clone, PartialEq, ToJson)]
pub struct ArchetypeBreakdown {
    /// The application.
    pub archetype: Archetype,
    /// Jobs of this archetype.
    pub jobs: usize,
    /// Deadline misses (including failures).
    pub misses: u64,
    /// Platform failures.
    pub failures: u64,
    /// Latency summary in seconds.
    pub latency: Option<Summary>,
    /// Mean deliberate hold before dispatch, in seconds.
    pub mean_hold_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrival_s: u64, finish_s: u64, deadline_s: u64, failed: bool) -> JobResult {
        JobResult {
            id,
            archetype: Archetype::PhotoPipeline,
            arrival: SimTime::from_secs(arrival_s),
            dispatched: SimTime::from_secs(arrival_s),
            finish: SimTime::from_secs(finish_s),
            deadline: SimTime::from_secs(deadline_s),
            failed,
            attempts: 1,
            backoff: SimDuration::ZERO,
            fallbacks: 0,
            cause: if failed { Some(FailureCause::Transient) } else { None },
        }
    }

    /// A `Full` run of `jobs`, counted as the engine's assembly counts it.
    fn run(jobs: Vec<JobResult>) -> RunResult {
        let mut totals = RunAggregates::default();
        for j in &jobs {
            totals.count(j);
        }
        totals.finalize();
        RunResult {
            policy: "test".into(),
            jobs,
            cloud_cost: Money::from_cents(30),
            edge_cost: Money::from_cents(50),
            device_energy: Energy::from_joules(100),
            device_energy_cost: Money::from_cents(20),
            bytes_up: DataSize::from_mib(1),
            bytes_down: DataSize::from_mib(2),
            completions_per_hour: TimeSeries::new(SimDuration::from_hours(1)),
            horizon: SimDuration::from_hours(1),
            overload: None,
            aggregates: None,
            totals,
        }
    }

    /// The same run served through streaming aggregates instead of the
    /// per-job vector.
    fn aggregated(jobs: Vec<JobResult>) -> RunResult {
        let mut totals = RunAggregates::default();
        for j in &jobs {
            totals.record(j);
        }
        totals.finalize();
        RunResult { aggregates: Some(totals.clone()), totals, ..run(vec![]) }
    }

    #[test]
    fn deadline_accounting() {
        let r = run(vec![
            job(0, 0, 10, 20, false), // met
            job(1, 0, 30, 20, false), // missed
            job(2, 0, 10, 20, true),  // failed → counts as miss
        ]);
        assert_eq!(r.deadline_misses(), 2);
        assert_eq!(r.failures(), 1);
        assert!((r.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn totals_add_up() {
        let r = run(vec![job(0, 0, 10, 20, false), job(1, 0, 10, 20, false)]);
        assert_eq!(r.total_cost(), Money::from_cents(100));
    }

    #[test]
    fn latency_summary_reflects_jobs() {
        let r = run(vec![job(0, 0, 5, 100, false), job(1, 10, 25, 100, false)]);
        let s = r.latency_summary().unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 15.0);
    }

    #[test]
    fn empty_run_is_well_behaved() {
        let r = run(vec![]);
        assert_eq!(r.miss_rate(), 0.0);
        assert!(r.latency_summary().is_none());
        assert!(r.by_archetype().is_empty());
    }

    #[test]
    fn by_archetype_groups_and_counts() {
        let mut jobs = vec![job(0, 0, 10, 20, false), job(1, 0, 30, 20, false)];
        jobs.push(JobResult { archetype: Archetype::SciSweep, ..job(2, 0, 5, 50, false) });
        let r = run(jobs);
        let groups = r.by_archetype();
        assert_eq!(groups.len(), 2);
        let photo = groups.iter().find(|g| g.archetype == Archetype::PhotoPipeline).unwrap();
        assert_eq!(photo.jobs, 2);
        assert_eq!(photo.misses, 1);
        let sci = groups.iter().find(|g| g.archetype == Archetype::SciSweep).unwrap();
        assert_eq!(sci.jobs, 1);
        assert_eq!(sci.misses, 0);
    }

    #[test]
    fn retry_accounting_sums_over_jobs() {
        let mut a = job(0, 0, 10, 20, false);
        a.attempts = 3;
        a.backoff = SimDuration::from_secs(4);
        a.fallbacks = 1;
        let mut b = job(1, 0, 10, 20, true);
        b.attempts = 5;
        b.backoff = SimDuration::from_secs(6);
        b.cause = Some(FailureCause::Timeout);
        let r = run(vec![a, b]);
        assert_eq!(r.total_attempts(), 8);
        assert_eq!(r.total_retries(), 0, "retries are the engine's count, not attempts − jobs");
        assert_eq!(r.total_backoff(), SimDuration::from_secs(10));
        assert_eq!(r.total_fallbacks(), 1);
        let causes = r.failure_causes();
        assert_eq!(causes.get("timeout"), Some(&1));
        assert_eq!(causes.len(), 1);
        assert_eq!(r.lost_to(|c| c == FailureCause::Timeout), 1);
        assert_eq!(r.lost_to(FailureCause::is_injected), 0);
    }

    #[test]
    fn goodput_counts_only_deadline_met_jobs() {
        let r = run(vec![
            job(0, 0, 10, 20, false), // met
            job(1, 0, 30, 20, false), // missed
            job(2, 0, 10, 20, true),  // failed
        ]);
        assert_eq!(r.goodput_per_hour(), 1.0, "one met job over a one-hour horizon");
        assert_eq!(run(vec![]).goodput_per_hour(), 0.0);
    }

    #[test]
    fn overload_stats_absent_by_default() {
        let r = run(vec![job(0, 0, 10, 20, false)]);
        assert!(r.overload.is_none());
        let stats = OverloadStats { hedges: 3, hedges_won: 2, ..Default::default() };
        assert_eq!(stats.hedges_won, 2);
        assert!(stats.breaker_transitions.is_empty());
    }

    /// The report format, pinned: units as bare integers in their base
    /// unit (µs, bytes, nano-USD, nJ), enums as variant names, floats
    /// with a `.0`, and `aggregates` left out while it is `None`.
    #[test]
    fn to_json_golden() {
        let failed = JobResult {
            archetype: Archetype::SciSweep,
            cause: Some(FailureCause::EdgeOutage),
            ..job(1, 5, 10, 20, true)
        };
        let mut r = run(vec![job(0, 0, 10, 20, false), failed]);
        r.completions_per_hour.record(SimTime::from_secs(10), 1.0);
        let transitions = [("edge".to_string(), 2), ("cloud".to_string(), 1)].into();
        r.overload = Some(OverloadStats {
            sheds: 1,
            hedges: 2,
            hedges_won: 1,
            hedges_lost: 1,
            breaker_transitions: transitions,
            ..Default::default()
        });
        let golden = r#"{
  "policy": "test",
  "jobs": [
    {
      "id": 0,
      "archetype": "PhotoPipeline",
      "arrival": 0,
      "dispatched": 0,
      "finish": 10000000,
      "deadline": 20000000,
      "failed": false,
      "attempts": 1,
      "backoff": 0,
      "fallbacks": 0,
      "cause": null
    },
    {
      "id": 1,
      "archetype": "SciSweep",
      "arrival": 5000000,
      "dispatched": 5000000,
      "finish": 10000000,
      "deadline": 20000000,
      "failed": true,
      "attempts": 1,
      "backoff": 0,
      "fallbacks": 0,
      "cause": "EdgeOutage"
    }
  ],
  "cloud_cost": 300000000,
  "edge_cost": 500000000,
  "device_energy": 100000000000,
  "device_energy_cost": 200000000,
  "bytes_up": 1048576,
  "bytes_down": 2097152,
  "completions_per_hour": {
    "bucket": 3600000000,
    "counts": [
      1
    ],
    "sums": [
      1.0
    ]
  },
  "horizon": 3600000000,
  "overload": {
    "sheds": 1,
    "deferrals": 0,
    "breaker_skips": 0,
    "hedges": 2,
    "hedges_won": 1,
    "hedges_lost": 1,
    "hedge_cancelled": 0,
    "breaker_transitions": {
      "cloud": 1,
      "edge": 2
    }
  }
}"#;
        assert_eq!(r.to_json(), golden);
    }

    /// A histogram's `u128` sum is written in full, past `u64::MAX`.
    #[test]
    fn histogram_json_writes_the_u128_sum() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let json = ntc_json::to_string_pretty(&h);
        assert!(json.starts_with("{\n  \"counts\": [\n    0,\n"), "{}", &json[..40]);
        assert!(
            json.ends_with(
                "    2\n  ],\n  \"total\": 2,\n  \"sum\": 36893488147419103230,\n  \
                 \"min\": 18446744073709551615,\n  \"max\": 18446744073709551615\n}"
            ),
            "{}",
            &json[json.len() - 160..]
        );
    }

    #[test]
    fn aggregates_match_full_retention_counters() {
        let mut jobs = vec![
            job(0, 0, 10, 20, false), // met
            job(1, 0, 30, 20, false), // missed
            job(2, 0, 10, 20, true),  // failed
        ];
        jobs[1].attempts = 3;
        jobs[1].backoff = SimDuration::from_secs(2);
        jobs[1].fallbacks = 1;
        jobs.push(JobResult { archetype: Archetype::SciSweep, ..job(3, 0, 5, 50, false) });
        let full = run(jobs.clone());
        let agg = aggregated(jobs);
        assert_eq!(agg.job_count(), full.job_count());
        assert_eq!(agg.deadline_misses(), full.deadline_misses());
        assert_eq!(agg.miss_rate(), full.miss_rate());
        assert_eq!(agg.goodput_per_hour(), full.goodput_per_hour());
        assert_eq!(agg.failures(), full.failures());
        assert_eq!(agg.total_attempts(), full.total_attempts());
        assert_eq!(agg.total_retries(), full.total_retries());
        assert_eq!(agg.total_backoff(), full.total_backoff());
        assert_eq!(agg.total_fallbacks(), full.total_fallbacks());
        assert_eq!(agg.failure_causes(), full.failure_causes());
        assert_eq!(agg.mean_hold_s(), full.mean_hold_s());
        let (fs, fb) = full.metrics();
        let (as_, ab) = agg.metrics();
        let (fs, as_) = (fs.unwrap(), as_.unwrap());
        assert_eq!(as_.count, fs.count);
        assert!((as_.mean - fs.mean).abs() <= 1e-9 * fs.mean.abs());
        assert_eq!(as_.min, fs.min);
        assert_eq!(as_.max, fs.max);
        assert_eq!(ab.len(), fb.len());
        for (a, f) in ab.iter().zip(&fb) {
            assert_eq!(a.archetype, f.archetype);
            assert_eq!(a.jobs, f.jobs);
            assert_eq!(a.misses, f.misses);
            assert_eq!(a.failures, f.failures);
            assert_eq!(a.mean_hold_s, f.mean_hold_s);
        }
    }

    #[test]
    fn digest_quantiles_stay_within_documented_bound() {
        let mut d = LatencyDigest::default();
        let mut xs = Vec::new();
        for i in 0..5_000u64 {
            let us = 1_000 + i * 977;
            d.observe(SimDuration::from_micros(us));
            xs.push(us as f64 / 1e6);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = d.summary().unwrap();
        assert_eq!(s.count, 5_000);
        assert_eq!(s.min, xs[0]);
        assert_eq!(s.max, *xs.last().unwrap());
        for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            // Exact rank-k order statistic (k = ceil(q·n), 1-indexed).
            let k = ((q * xs.len() as f64).ceil() as usize).max(1);
            let exact = xs[k - 1];
            assert!(got >= exact, "q={q}: {got} underestimates {exact}");
            assert!(
                got <= exact * (1.0 + Histogram::RELATIVE_ERROR_BOUND),
                "q={q}: {got} exceeds bound over {exact}"
            );
        }
    }

    /// Every field of a summary as bits, so `-0.0` and `0.0` differ.
    fn bits(s: Option<Summary>) -> Option<(u64, [u64; 6])> {
        s.map(|s| (s.count, [s.mean, s.min, s.p50, s.p95, s.p99, s.max].map(f64::to_bits)))
    }

    #[test]
    fn integer_sorted_summaries_keep_every_float_summary_bit() {
        let archetypes = [Archetype::PhotoPipeline, Archetype::SciSweep, Archetype::MlInference];
        let at = |id: u64, latency_us: u64, a: usize| JobResult {
            archetype: archetypes[a],
            arrival: SimTime::from_micros(id * 7),
            dispatched: SimTime::from_micros(id * 7),
            finish: SimTime::from_micros(id * 7 + latency_us),
            ..job(id, 0, 0, 0, false)
        };
        let mut x = 0x9e37_79b9_u64;
        let mut jobs = Vec::new();
        for id in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Few distinct latencies, so ties within and across
            // archetypes are everywhere, zero included.
            let latency_us = (x % 40) * 250_001;
            jobs.push(at(id, latency_us, (x >> 20) as usize % 3));
        }
        // A lone job of a fourth archetype: its own one-job summary.
        jobs.push(JobResult { archetype: Archetype::DocIndexing, ..at(9_999, 1_234_567, 0) });
        let float_summary = |jobs: &[JobResult]| {
            Summary::of(&jobs.iter().map(|j| j.latency().as_secs_f64()).collect::<Vec<_>>())
        };
        for jobs in [jobs.clone(), jobs[..1].to_vec(), vec![at(0, 0, 1)]] {
            let r = run(jobs.clone());
            assert_eq!(bits(r.latency_summary()), bits(float_summary(&jobs)));
            let (summary, breakdown) = r.metrics();
            assert_eq!(bits(summary), bits(float_summary(&jobs)));
            for b in &breakdown {
                let own: Vec<JobResult> =
                    jobs.iter().filter(|j| j.archetype == b.archetype).copied().collect();
                assert_eq!(bits(b.latency), bits(float_summary(&own)), "{:?}", b.archetype);
            }
        }
    }

    #[test]
    fn one_sort_metrics_match_per_call_summaries() {
        let sci = |j: JobResult| JobResult { archetype: Archetype::SciSweep, ..j };
        // Latencies 12, 7, 40, 7, 12, 9: the 7s and the 12s are tied
        // across archetypes.
        let jobs = vec![
            job(0, 0, 12, 20, false),
            job(1, 3, 10, 20, false),
            sci(job(2, 0, 40, 50, false)),
            sci(job(3, 1, 8, 50, false)),
            sci(job(4, 2, 14, 50, false)),
            job(5, 4, 13, 20, false),
        ];
        let r = run(jobs.clone());
        let (summary, breakdown) = r.metrics();
        assert_eq!(summary, r.latency_summary());
        assert_eq!(breakdown, r.by_archetype());
        assert_eq!(breakdown.len(), 2);
        for b in &breakdown {
            let own: Vec<f64> = jobs
                .iter()
                .filter(|j| j.archetype == b.archetype)
                .map(|j| j.latency().as_secs_f64())
                .collect();
            assert_eq!(b.latency, Summary::of(&own), "{:?}: exact Full quantiles", b.archetype);
        }
        let photo = breakdown.iter().find(|g| g.archetype == Archetype::PhotoPipeline).unwrap();
        assert_eq!(photo.latency.unwrap().count, 3);
    }
}
