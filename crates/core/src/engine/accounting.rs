//! Accounting: energy and byte counters, the per-site health ledger that
//! feeds the overload layer's EWMAs, per-job result assembly, and the
//! final run report.

use std::collections::BTreeMap;

use ntc_faults::{Admission, FailureCause, HealthConfig, SiteHealth};
use ntc_simcore::timeseries::TimeSeries;
use ntc_simcore::units::{DataSize, Energy, Money, SimDuration, SimTime};

use super::{JobRetention, Run};
use crate::environment::Environment;
use crate::policy::OffloadPolicy;
use crate::report::{JobResult, OverloadStats, RunAggregates, RunResult};
use crate::site::{Site, SiteRegistry};

/// The run's per-site health ledger: one [`SiteHealth`] per [`Site`],
/// indexed by [`Site::index`]. Empty — and never consulted — when the
/// policy's [`HealthConfig`] is fully disabled, so legacy configurations
/// replay bit-identically.
#[derive(Debug, Default)]
pub(crate) struct HealthMap {
    cfg: HealthConfig,
    sites: Vec<SiteHealth>,
}

impl HealthMap {
    /// Re-initialises for a run under `cfg`, reusing the vector's
    /// capacity. A disabled config leaves the map empty.
    pub(crate) fn reset(&mut self, cfg: HealthConfig) {
        self.cfg = cfg;
        self.sites.clear();
        if cfg.enabled() {
            self.sites.extend(Site::ALL.map(|s| SiteHealth::new(s.name(), cfg)));
        }
    }

    /// Whether any health mechanism is on for this run.
    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The run's health tunables.
    pub(crate) fn cfg(&self) -> &HealthConfig {
        &self.cfg
    }

    /// The health record of `site`.
    pub(crate) fn site(&self, site: Site) -> &SiteHealth {
        &self.sites[site.index()]
    }

    /// Mutable access to the health record of `site`.
    pub(crate) fn site_mut(&mut self, site: Site) -> &mut SiteHealth {
        &mut self.sites[site.index()]
    }

    /// The first position of `chain` at or past `from` whose site's
    /// breaker admits a request at `t`, or `None` when every breaker
    /// refuses. The scan stops at the first admitting site, so at most
    /// one HalfOpen probe slot is handed out per call. With breakers off
    /// every site admits: the answer is `from` itself, which every caller
    /// keeps on the chain.
    #[inline]
    pub(crate) fn first_admitting(
        &mut self,
        chain: &[Site],
        from: usize,
        t: SimTime,
    ) -> Option<usize> {
        if !self.cfg.breakers {
            return Some(from);
        }
        (from..chain.len()).find(|&i| self.site_mut(chain[i]).check(t) != Admission::Unavailable)
    }

    /// Breaker transitions per site over the run, keyed by site name.
    fn transitions_by_site(&self) -> BTreeMap<String, u32> {
        self.sites.iter().map(|h| (h.site().to_string(), h.transitions())).collect()
    }
}

/// Where settled outcomes go, by [`JobRetention`]: one slot per job, or
/// the streaming fold (run memory then stays O(1) in the job count).
#[derive(Debug)]
enum Outcomes {
    Full(Vec<Option<JobResult>>),
    Aggregates(RunAggregates),
}

/// The run's accumulating ledgers: per-job outcomes, the device-side
/// energy and traffic totals, and the overload layer's counters.
#[derive(Debug)]
pub(crate) struct Accounting {
    outcomes: Outcomes,
    /// Job completions (failed jobs included) per simulated hour.
    completions: TimeSeries,
    pub device_energy: Energy,
    pub bytes_up: DataSize,
    pub bytes_down: DataSize,
    /// Retries after a backoff, summed over jobs: each job counts its
    /// batch's largest per-component retry count.
    pub retries: u64,
    /// The overload layer's counters; `breaker_transitions` is filled in
    /// from the health ledger at assembly.
    pub overload: OverloadStats,
}

impl Default for Accounting {
    fn default() -> Self {
        Accounting {
            outcomes: Outcomes::Full(Vec::new()),
            completions: TimeSeries::new(SimDuration::from_hours(1)),
            device_energy: Energy::ZERO,
            bytes_up: DataSize::ZERO,
            bytes_down: DataSize::ZERO,
            retries: 0,
            overload: OverloadStats::default(),
        }
    }
}

impl Accounting {
    /// Re-initialises for a run over `jobs` jobs, reusing the previous
    /// `Full` run's slot buffer.
    pub(crate) fn reset(&mut self, jobs: usize, retention: JobRetention) {
        let previous = std::mem::replace(&mut self.outcomes, Outcomes::Full(Vec::new()));
        let outcomes = match (retention, previous) {
            (JobRetention::Full, Outcomes::Full(mut results)) => {
                results.clear();
                results.resize(jobs, None);
                Outcomes::Full(results)
            }
            (JobRetention::Full, _) => Outcomes::Full(vec![None; jobs]),
            (JobRetention::Aggregates, _) => Outcomes::Aggregates(RunAggregates::default()),
        };
        *self = Accounting { outcomes, ..Self::default() };
    }

    /// Bytes the run-sized ledgers reserve: a `Full` run's result slots
    /// and the health ledger. An `Aggregates` fold is O(1) in the jobs.
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self, health: &HealthMap) -> usize {
        let slots = match &self.outcomes {
            Outcomes::Full(results) => super::vec_bytes(results),
            Outcomes::Aggregates(_) => 0,
        };
        slots + super::vec_bytes(&health.sites)
    }

    /// Records one job's final outcome: into its result slot under
    /// `Full`, into the streaming fold under `Aggregates`.
    fn record(&mut self, ji: usize, r: JobResult) {
        self.completions.mark(r.finish);
        match &mut self.outcomes {
            Outcomes::Full(results) => results[ji] = Some(r),
            Outcomes::Aggregates(a) => a.record(&r),
        }
    }

    /// Closes the books: drains every site's bill and assembles the
    /// [`RunResult`], leaving the ledgers empty for the next run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        &mut self,
        policy: &OffloadPolicy,
        env: &Environment,
        horizon: SimDuration,
        horizon_end: SimTime,
        now: SimTime,
        sites: &mut SiteRegistry,
        health: &HealthMap,
    ) -> RunResult {
        // A `Full` run is counted here, once, in arrival order, which
        // fixes each archetype's float `hold_s` sum bit for bit.
        let (jobs, mut totals): (Vec<JobResult>, _) = match &mut self.outcomes {
            Outcomes::Full(results) => (results.drain(..).flatten().collect(), Default::default()),
            Outcomes::Aggregates(a) => (Vec::new(), std::mem::take(a)),
        };
        jobs.iter().for_each(|j| _ = totals.count(j));
        totals.total_retries = self.retries;
        totals.finalize();
        let aggregates = matches!(self.outcomes, Outcomes::Aggregates(_)).then(|| totals.clone());
        let completions_per_hour =
            std::mem::replace(&mut self.completions, TimeSeries::new(SimDuration::from_hours(1)));

        let end = now.max(horizon_end);
        let mut cloud_cost = Money::ZERO;
        let mut edge_cost = Money::ZERO;
        for site in Site::ALL {
            // Serverless bills are cloud cost; every other site's bill
            // is flat-rate infrastructure, reported separately. The
            // device bills nothing: its work is paid in battery, under
            // `device_energy`.
            let cost = sites.cost(site, end, horizon_end);
            if site.is_serverless() {
                cloud_cost += cost;
            } else {
                edge_cost += cost;
            }
        }

        RunResult {
            policy: policy.name(),
            jobs,
            cloud_cost,
            edge_cost,
            device_energy: self.device_energy,
            device_energy_cost: env.energy_cost(self.device_energy),
            bytes_up: self.bytes_up,
            bytes_down: self.bytes_down,
            completions_per_hour,
            horizon,
            overload: health.enabled().then(|| OverloadStats {
                breaker_transitions: health.transitions_by_site(),
                ..std::mem::take(&mut self.overload)
            }),
            aggregates,
            totals,
        }
    }
}

impl Run<'_> {
    /// Settles batch `bi` at `finish`: every member receives its
    /// [`JobResult`], failed with `cause` when one is given. A batch
    /// settles once; later calls are no-ops.
    pub(super) fn settle(&mut self, bi: usize, finish: SimTime, cause: Option<FailureCause>) {
        let states = &mut *self.states;
        if states.finished[bi] {
            return;
        }
        states.finished[bi] = true;
        states.failed[bi] = cause.is_some();
        let ctx = self.ctx;
        let tries = states.batch_tries(bi, ctx.deployment(bi).graph.ids());
        self.acct.retries += u64::from(tries.retries) * ctx.members(bi).len() as u64;
        // Every member was keyed on the batch's dispatch instant.
        let dispatched = ctx.batches[bi].dispatch_at;
        for &ji in ctx.members(bi) {
            let job = &ctx.jobs[ji as usize];
            self.acct.record(
                ji as usize,
                JobResult {
                    id: job.id,
                    archetype: job.archetype,
                    arrival: job.arrival,
                    dispatched,
                    finish,
                    deadline: job.deadline(),
                    failed: cause.is_some(),
                    attempts: tries.attempts,
                    backoff: tries.backoff,
                    fallbacks: u32::from(states.fallbacks[bi]),
                    cause,
                },
            );
        }
    }
}
