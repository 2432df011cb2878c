//! Property-based tests of the serverless platform's lifecycle and
//! billing invariants, and a differential test of its instance pool
//! against a linear-scan oracle.

use ntc_check::prelude::*;

use ntc_serverless::{
    BillingModel, ColdStartModel, FunctionConfig, FunctionId, InvocationOutcome, InvokeError,
    KeepAlive, PlatformConfig, ServerlessPlatform,
};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Cycles, DataSize, Money, SimDuration, SimTime};

fn no_jitter_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::default();
    cfg.cold_start.jitter_sigma = 0.0;
    cfg
}

/// The platform as it was before its instance pool became a pair of
/// heaps, kept as the oracle: each function's instances sit in a `Vec` in
/// creation order, and every reap, warm pick and queue pick scans it.
struct ScanPlatform {
    config: PlatformConfig,
    functions: Vec<ScanFunction>,
    rng: RngStream,
    scale_tokens: f64,
    scale_refill_from: SimTime,
}

struct ScanFunction {
    config: FunctionConfig,
    /// `(busy_until, provisioned)` per instance, in creation order.
    instances: Vec<(SimTime, bool)>,
    provisioned_target: u32,
    provisioned_accrue_from: SimTime,
    invocation_cost: Money,
    provisioned_cost: Money,
}

impl ScanPlatform {
    fn new(config: PlatformConfig, rng: RngStream) -> Self {
        let scale_tokens = f64::from(config.scale_burst);
        ScanPlatform {
            config,
            functions: Vec::new(),
            rng: rng.derive("serverless"),
            scale_tokens,
            scale_refill_from: SimTime::ZERO,
        }
    }

    fn register(&mut self, config: FunctionConfig) {
        self.functions.push(ScanFunction {
            config,
            instances: Vec::new(),
            provisioned_target: 0,
            provisioned_accrue_from: SimTime::ZERO,
            invocation_cost: Money::ZERO,
            provisioned_cost: Money::ZERO,
        });
    }

    fn accrue_provisioned(&mut self, f: usize, until: SimTime) {
        let state = &mut self.functions[f];
        if state.provisioned_target > 0 && until > state.provisioned_accrue_from {
            let held = until - state.provisioned_accrue_from;
            let per = self.config.billing.provisioned_cost(state.config.memory(), held);
            state.provisioned_cost += per.mul_f64(f64::from(state.provisioned_target));
        }
        state.provisioned_accrue_from = state.provisioned_accrue_from.max(until);
    }

    fn total_cost(&mut self, until: SimTime) -> Money {
        for f in 0..self.functions.len() {
            self.accrue_provisioned(f, until);
        }
        self.functions.iter().map(|f| f.invocation_cost + f.provisioned_cost).sum()
    }

    fn set_provisioned(&mut self, at: SimTime, f: usize, count: u32) {
        self.accrue_provisioned(f, at);
        let state = &mut self.functions[f];
        state.provisioned_target = count;
        let current = state.instances.iter().filter(|i| i.1).count() as u32;
        if count > current {
            for _ in current..count {
                state.instances.push((at, true));
            }
        } else {
            let mut to_remove = current - count;
            state.instances.retain(|i| {
                let drop = i.1 && to_remove > 0;
                to_remove -= u32::from(drop);
                !drop
            });
        }
    }

    fn invoke(
        &mut self,
        at: SimTime,
        f: usize,
        work: Cycles,
    ) -> Result<InvocationOutcome, InvokeError> {
        let ttl = self.config.keep_alive.idle_ttl();
        self.functions[f].instances.retain(|i| i.1 || i.0 + ttl >= at);
        let c = &self.functions[f].config;
        let (memory, timeout, limit, artifact) =
            (c.memory(), c.timeout(), c.concurrency_limit(), c.artifact_size());
        let raw_exec = self.config.cpu.effective_speed(memory).execution_time(work);
        let timed_out = raw_exec > timeout;
        let exec = if timed_out { timeout } else { raw_exec };

        let instances = &self.functions[f].instances;
        let warm =
            (0..instances.len()).filter(|&i| instances[i].0 <= at).min_by_key(|&i| instances[i].0);
        let earliest = (0..instances.len()).min_by_key(|&i| instances[i].0);
        let live = instances.len();
        let region_live: usize = self.functions.iter().map(|f| f.instances.len()).sum();

        let (start, cold_start, queue_wait, was_cold, slot) = if let Some(i) = warm {
            (at, SimDuration::ZERO, SimDuration::ZERO, false, i)
        } else if (live as u32) < limit
            && region_live < self.config.region_concurrency as usize
            && {
                let elapsed = at.saturating_duration_since(self.scale_refill_from);
                self.scale_tokens = (self.scale_tokens
                    + f64::from(self.config.scale_per_minute) * elapsed.as_secs_f64() / 60.0)
                    .min(f64::from(self.config.scale_burst));
                self.scale_refill_from = at;
                self.scale_tokens >= 1.0
            }
        {
            self.scale_tokens -= 1.0;
            let delay = self.config.cold_start.sample(artifact, &mut self.rng);
            self.functions[f].instances.push((at, false));
            (at + delay, delay, SimDuration::ZERO, true, live)
        } else {
            let i = earliest.ok_or(InvokeError::CapacityExhausted)?;
            let free_at = self.functions[f].instances[i].0;
            (free_at, SimDuration::ZERO, free_at - at, false, i)
        };

        let state = &mut self.functions[f];
        let finish = start + exec;
        state.instances[slot].0 = finish;
        let cost = self.config.billing.invocation_cost(memory, exec);
        state.invocation_cost += cost;
        Ok(InvocationOutcome {
            submitted: at,
            queue_wait,
            cold_start,
            exec,
            finish,
            cost,
            was_cold,
            timed_out,
        })
    }
}

/// One step of a differential run: `(kind, function, gap, size)`. Kinds
/// 0–7 invoke, 8–9 set the provisioned count to `size % 4`. Gaps come
/// from a small set that includes zero and "past the keep-alive", and
/// work from whole seconds at 2.5 GHz, so `busy_until` values tie often.
type Step = (u8, usize, u8, u64);

fn run_differential(
    cfg: PlatformConfig,
    limits: [u32; 3],
    seed: u64,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mut heap = ServerlessPlatform::new(cfg.clone(), RngStream::root(seed));
    let mut scan = ScanPlatform::new(cfg.clone(), RngStream::root(seed));
    let ids: Vec<FunctionId> = limits
        .iter()
        .map(|&limit| {
            let config = FunctionConfig::new(DataSize::from_mib(1769))
                .with_concurrency_limit(limit)
                .with_timeout(SimDuration::from_secs(3));
            scan.register(config.clone());
            heap.register(config)
        })
        .collect();
    let ttl = cfg.keep_alive.idle_ttl();
    let mut now = SimTime::ZERO;
    for (n, &(kind, f, gap, size)) in steps.iter().enumerate() {
        now += match gap % 4 {
            0 => SimDuration::ZERO,
            1 => SimDuration::from_secs(1),
            2 => SimDuration::from_secs(2),
            _ => ttl + SimDuration::from_secs(1),
        };
        let f = f % ids.len();
        if kind < 8 {
            let work = Cycles::from_mega(2_500 * (size % 5));
            let got = heap.invoke(now, ids[f], work);
            let want = scan.invoke(now, f, work);
            prop_assert_eq!(got, want, "invoke diverged at step {}", n);
        } else {
            let count = (size % 4) as u32;
            heap.set_provisioned(now, ids[f], count);
            scan.set_provisioned(now, f, count);
        }
        for (i, &id) in ids.iter().enumerate() {
            prop_assert_eq!(heap.live_instances(id), scan.functions[i].instances.len());
        }
    }
    let end = now + SimDuration::from_secs(600);
    prop_assert_eq!(heap.total_cost(end), scan.total_cost(end));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The heap-indexed instance pool makes the same choices as a linear
    /// scan over creation-ordered instances: identical outcomes, live
    /// counts and cost, under finite per-function and
    /// region-wide concurrency, a finite scale-out budget, provisioned
    /// capacity moving up and down, and a finite keep-alive.
    #[test]
    fn instance_pool_matches_linear_scan(
        limits in (1u32..6, 1u32..6, 1u32..6),
        region in 1u32..12,
        burst in 1u32..6,
        per_minute in 0u32..120,
        ttl_secs in 0u64..8,
        cold in 0u8..3,
        seed in 0u64..1_000,
        steps in prop::collection::vec((0u8..10, 0usize..3, 0u8..4, 0u64..20), 1..300),
    ) {
        let mut cfg = PlatformConfig {
            region_concurrency: region,
            scale_burst: burst,
            scale_per_minute: per_minute,
            keep_alive: KeepAlive::Fixed(SimDuration::from_secs(ttl_secs)),
            ..PlatformConfig::default()
        };
        // No cold-start delay puts every finish on the whole-second grid
        // that provisioned instances start on, so they tie most often.
        match cold {
            0 => cfg.cold_start = ColdStartModel::none(),
            1 => cfg.cold_start.jitter_sigma = 0.0,
            _ => {}
        }
        run_differential(cfg, [limits.0, limits.1, limits.2], seed, &steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Keep-alive semantics: a gap strictly longer than the TTL after an
    /// idle instance's last finish always causes a cold start; a gap
    /// within the TTL never does.
    #[test]
    fn keep_alive_boundary_is_exact(
        ttl_secs in 1u64..3_600,
        gap_secs in 1u64..7_200,
        work_mega in 1u64..5_000,
    ) {
        let mut cfg = no_jitter_config();
        cfg.keep_alive = KeepAlive::Fixed(SimDuration::from_secs(ttl_secs));
        let mut p = ServerlessPlatform::new(cfg, RngStream::root(1));
        let f = p.register(FunctionConfig::new(DataSize::from_mib(1024)));
        let first = p.invoke(SimTime::ZERO, f, Cycles::from_mega(work_mega)).unwrap();
        prop_assert!(first.was_cold);
        let at = first.finish + SimDuration::from_secs(gap_secs);
        let second = p.invoke(at, f, Cycles::from_mega(work_mega)).unwrap();
        prop_assert_eq!(second.was_cold, gap_secs > ttl_secs, "ttl={} gap={}", ttl_secs, gap_secs);
    }

    /// The platform never creates more instances than the per-function
    /// concurrency limit, no matter the burst size.
    #[test]
    fn concurrency_limit_is_respected(
        limit in 1u32..20,
        burst in 1usize..60,
    ) {
        let mut p = ServerlessPlatform::new(no_jitter_config(), RngStream::root(2));
        let f = p.register(
            FunctionConfig::new(DataSize::from_mib(1769)).with_concurrency_limit(limit),
        );
        let mut queued = 0;
        for _ in 0..burst {
            let out = p.invoke(SimTime::ZERO, f, Cycles::from_giga(25)).unwrap();
            queued += usize::from(!out.queue_wait.is_zero());
        }
        prop_assert!(p.live_instances(f) <= limit as usize);
        prop_assert_eq!(queued, burst.saturating_sub(limit as usize));
    }

    /// Total cost equals the sum of per-invocation costs plus provisioned
    /// accrual — no money appears or disappears.
    #[test]
    fn money_is_conserved(
        n in 1usize..40,
        gap_ms in 1u64..60_000,
        provisioned in 0u32..3,
        horizon_extra_secs in 0u64..3_600,
    ) {
        let mut p = ServerlessPlatform::new(no_jitter_config(), RngStream::root(3));
        let f = p.register(FunctionConfig::new(DataSize::from_mib(512)));
        p.set_provisioned(SimTime::ZERO, f, provisioned);
        let mut t = SimTime::ZERO;
        let mut invoice = Money::ZERO;
        for _ in 0..n {
            t += SimDuration::from_millis(gap_ms);
            invoice += p.invoke(t, f, Cycles::from_mega(200)).unwrap().cost;
        }
        let end = t + SimDuration::from_secs(horizon_extra_secs);
        let provisioned_cost = p.total_cost(end) - invoice;
        if provisioned == 0 {
            prop_assert_eq!(provisioned_cost, Money::ZERO);
        } else {
            let expected = BillingModel::aws_like()
                .provisioned_cost(DataSize::from_mib(512), end - SimTime::ZERO)
                .mul_f64(f64::from(provisioned));
            let diff = (provisioned_cost.as_nano_usd() - expected.as_nano_usd()).abs();
            prop_assert!(diff <= provisioned as i64 + 1, "accrual drift {diff}");
        }
    }

    /// Billed duration is always >= the raw duration and within one
    /// granule of it.
    #[test]
    fn billed_duration_bounds(raw_us in 0u64..100_000_000) {
        let b = BillingModel::aws_like();
        let raw = SimDuration::from_micros(raw_us);
        let billed = b.billed_duration(raw);
        prop_assert!(billed >= raw);
        prop_assert!(billed.as_micros() - raw.as_micros() < 1_000);
    }

    /// Cold-start sampling is always at least the placement time and
    /// grows with artifact size in expectation.
    #[test]
    fn cold_start_scales_with_artifact(mib in 1u64..2_000, seed in 0u64..1_000) {
        let m = ColdStartModel::lambda_like();
        let mut rng = RngStream::root(seed).derive("cs");
        let d = m.sample(DataSize::from_mib(mib), &mut rng);
        prop_assert!(d > SimDuration::ZERO);
        prop_assert!(m.mean(DataSize::from_mib(mib)) >= m.mean(DataSize::from_mib(1)));
    }
}
