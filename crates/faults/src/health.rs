//! Per-site adaptive health: circuit breakers, EWMA latency/failure-rate
//! tracking, queue-delay estimation and hedge-delay derivation.
//!
//! The retry/fallback machinery of this crate reacts to failures *after*
//! burning attempts on them. [`SiteHealth`] is the complementary
//! feed-forward half: a deterministic per-site circuit breaker
//! (Closed → Open on a consecutive-failure or failure-rate-EWMA
//! threshold → HalfOpen probe after a seeded cooldown → Closed on probe
//! success) plus the latency statistics overload-aware dispatch needs —
//! an EWMA service-time estimate for queue-delay prediction and a
//! p99-derived hedge delay for straggler detection.
//!
//! Everything is deterministic: the only randomness is the cooldown
//! jitter, drawn from a derived [`RngStream`] child keyed by the site
//! name and the breaker's open-count, so replays are bit-identical and
//! independent of what any other subsystem draws.
//!
//! The engine keeps one `SiteHealth` per site in a dense ledger in
//! fallback order, indexed by the site's position in that order — never
//! by string lookup on the hot path. The `site` name stored here exists
//! for the cooldown derivation keys (whose byte layout is part of the
//! reproducibility contract) and for the once-per-run transition report
//! stringified at report build.

use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{round_to_u64, SimDuration, SimTime};

/// Consecutive failures on one site that trip its breaker Open.
pub const FAILURE_THRESHOLD: u32 = 5;

/// Failure-rate EWMA level that trips the breaker even without a
/// consecutive run (flapping sites fail *often*, not *in a row*).
pub const ERROR_RATE_THRESHOLD: f64 = 0.5;

/// Smoothing factor of the failure-rate and latency EWMAs; higher weighs
/// recent observations more.
pub const EWMA_ALPHA: f64 = 0.2;

/// Observations required before the rate threshold, the queue-delay
/// estimate and the hedge delay bind (EWMAs are meaningless on two
/// samples).
pub const MIN_SAMPLES: u64 = 8;

/// Base Open → HalfOpen cooldown; the realised cooldown is jittered
/// uniformly in `[base, min(cap, base·2^opens)]` from a seeded stream, so
/// repeatedly-tripped sites back off longer.
pub const COOLDOWN_BASE: SimDuration = SimDuration::from_secs(30);

/// Upper bound on any single cooldown.
pub const COOLDOWN_CAP: SimDuration = SimDuration::from_mins(10);

/// Floor on the hedge delay (hedging below network jitter buys nothing
/// and doubles cost).
pub const HEDGE_MIN_DELAY: SimDuration = SimDuration::from_secs(2);

/// Standard-normal quantile the hedge delay adds to the latency EWMA:
/// `hedge = mean + q·std`, with 2.33 approximating p99.
pub const HEDGE_QUANTILE: f64 = 2.33;

/// Switches and sizes of the overload-aware health layer; its thresholds
/// are this module's constants.
///
/// The default ([`HealthConfig::disabled`]) switches every mechanism
/// off, so configurations that predate the health layer behave exactly
/// as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Per-site circuit breakers: skip sites whose breaker is Open
    /// instead of burning retries (and stalled waits) on them.
    pub breakers: bool,
    /// Admission control at dispatch: defer or shed batches whose
    /// queue-delay estimate exceeds their deadline slack.
    pub admission: bool,
    /// Hedged requests: duplicate an invocation that exceeds its
    /// p99-derived hedge delay onto the next healthy site.
    pub hedge: bool,
    /// Bounded per-site queue: in-flight invocations admitted before
    /// the admission controller treats the site as saturated.
    pub queue_bound: u32,
    /// How far a deferred batch's dispatch is pushed per deferral.
    pub defer_step: SimDuration,
}

impl HealthConfig {
    /// Every mechanism off: the engine behaves bit-identically to a
    /// build without the health layer.
    pub fn disabled() -> Self {
        HealthConfig {
            breakers: false,
            admission: false,
            hedge: false,
            queue_bound: 64,
            defer_step: SimDuration::from_mins(10),
        }
    }

    /// Whether any mechanism is on (off ⇒ the engine must not even
    /// track observations, preserving bit-identical legacy behaviour).
    pub fn enabled(&self) -> bool {
        self.breakers || self.admission || self.hedge
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Circuit-breaker state of one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are skipped until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is let through; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

/// What the breaker answers when asked to admit a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: send the request normally.
    Ready,
    /// HalfOpen and no probe outstanding: send the request *as the
    /// probe* — its outcome decides the breaker's fate.
    Probe,
    /// Open (or HalfOpen with a probe already in flight): skip this
    /// site.
    Unavailable,
}

/// Deterministic per-site health: breaker state machine plus latency and
/// failure-rate EWMAs.
///
/// Observations are fed by the caller (`record_success`,
/// `record_failure`, `record_cancelled`); admission questions are asked
/// via [`check`](SiteHealth::check). All state transitions happen inside
/// those calls, so a single-threaded event loop sees a pure function of
/// its own call sequence — replays are bit-identical.
#[derive(Debug, Clone)]
pub struct SiteHealth {
    cfg: HealthConfig,
    /// The site's stable name, baked into cooldown-jitter derivation
    /// keys.
    site: &'static str,
    state: BreakerState,
    consecutive_failures: u32,
    /// EWMA of the failure indicator (1 = failed attempt).
    failure_rate: f64,
    /// EWMA of observed invocation latency, microseconds.
    latency_us: f64,
    /// EWMA of squared deviation from the latency EWMA (for the
    /// p99-derived hedge delay).
    latency_var_us2: f64,
    samples: u64,
    /// When an Open breaker may admit its HalfOpen probe.
    open_until: SimTime,
    /// Times the breaker has opened (keys the cooldown jitter and backs
    /// the exponential cooldown growth).
    opens: u32,
    /// Total state transitions (Closed→Open, Open→HalfOpen,
    /// HalfOpen→Closed, HalfOpen→Open), reported per run.
    transitions: u32,
    /// Whether the HalfOpen probe slot is taken.
    probe_outstanding: bool,
    /// Invocations currently in flight (admission's bounded queue).
    in_flight: u32,
}

impl SiteHealth {
    /// Fresh health for the site named `site` under `cfg`: breaker
    /// Closed, no observations.
    pub fn new(site: &'static str, cfg: HealthConfig) -> Self {
        SiteHealth {
            cfg,
            site,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            failure_rate: 0.0,
            latency_us: 0.0,
            latency_var_us2: 0.0,
            samples: 0,
            open_until: SimTime::ZERO,
            opens: 0,
            transitions: 0,
            probe_outstanding: false,
            in_flight: 0,
        }
    }

    /// The site this health belongs to.
    pub fn site(&self) -> &'static str {
        self.site
    }

    /// Current breaker state (without the time-driven Open → HalfOpen
    /// promotion [`check`](Self::check) performs).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total breaker state transitions so far.
    pub fn transitions(&self) -> u32 {
        self.transitions
    }

    /// Times the breaker has tripped Open.
    pub fn opens(&self) -> u32 {
        self.opens
    }

    /// Observations recorded (successes + failures; cancellations are
    /// deliberately *not* observations).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current failure-rate EWMA in `[0, 1]`.
    pub fn failure_rate(&self) -> f64 {
        self.failure_rate
    }

    /// Invocations currently in flight on this site.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Asks the breaker whether a request may be sent at `at`. With
    /// breakers disabled the answer is always [`Admission::Ready`].
    /// Closed sites are never probed; an Open site promotes itself to
    /// HalfOpen once `at` reaches its cooldown end and hands out exactly
    /// one [`Admission::Probe`] slot.
    pub fn check(&mut self, at: SimTime) -> Admission {
        if !self.cfg.breakers {
            return Admission::Ready;
        }
        match self.state {
            BreakerState::Closed => Admission::Ready,
            BreakerState::Open if at >= self.open_until => {
                self.state = BreakerState::HalfOpen;
                self.transitions += 1;
                self.probe_outstanding = true;
                Admission::Probe
            }
            BreakerState::Open => Admission::Unavailable,
            BreakerState::HalfOpen if !self.probe_outstanding => {
                self.probe_outstanding = true;
                Admission::Probe
            }
            BreakerState::HalfOpen => Admission::Unavailable,
        }
    }

    /// Records a successful attempt observed to take `latency`. A
    /// HalfOpen probe success closes the breaker.
    pub fn record_success(&mut self, latency: SimDuration) {
        self.observe(false, latency.as_micros() as f64);
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            self.transitions += 1;
            self.probe_outstanding = false;
        }
    }

    /// Records a failed attempt at `at`. Trips the breaker when
    /// [`FAILURE_THRESHOLD`] failures come in a row or (past
    /// [`MIN_SAMPLES`]) the failure-rate EWMA reaches
    /// [`ERROR_RATE_THRESHOLD`]; a HalfOpen probe failure re-opens
    /// immediately. `rng` is the health layer's root stream — the
    /// cooldown draw derives its own child per `(site, open-count)`.
    pub fn record_failure(&mut self, at: SimTime, rng: &RngStream) {
        // Failures carry no useful service-time signal; feed the rate
        // EWMA only.
        self.observe(true, self.latency_us);
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let rate_tripped = self.samples >= MIN_SAMPLES && self.failure_rate >= ERROR_RATE_THRESHOLD;
        match self.state {
            BreakerState::HalfOpen => self.open(at, rng),
            BreakerState::Closed
                if self.consecutive_failures >= FAILURE_THRESHOLD || rate_tripped =>
            {
                self.open(at, rng);
            }
            _ => {}
        }
    }

    /// Records the deliberate cancellation of a hedge loser: **not** an
    /// observation. Neither the failure-rate EWMA, the latency EWMA nor
    /// the consecutive-failure run moves — a cancelled duplicate says
    /// nothing about the site's health. Only the probe slot is released
    /// if the cancelled request was the HalfOpen probe (the flag is read
    /// only while HalfOpen).
    pub fn record_cancelled(&mut self) {
        self.probe_outstanding = false;
    }

    /// Marks one invocation as entering this site's bounded queue.
    pub fn enter(&mut self) {
        self.in_flight = self.in_flight.saturating_add(1);
    }

    /// Marks one invocation as leaving this site's bounded queue.
    pub fn leave(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Whether the bounded per-site queue is at capacity.
    pub fn saturated(&self) -> bool {
        self.in_flight >= self.cfg.queue_bound.max(1)
    }

    /// Estimated queueing delay a new request would see: the latency
    /// EWMA times the queue occupancy ahead of it, divided by the
    /// site's concurrency (`width`). Zero until enough samples.
    pub fn queue_delay(&self, width: u32) -> SimDuration {
        if self.samples < MIN_SAMPLES {
            return SimDuration::ZERO;
        }
        let waves = f64::from(self.in_flight) / f64::from(width.max(1));
        SimDuration::from_micros(round_to_u64(self.latency_us * waves))
    }

    /// The p99-derived hedge delay: latency EWMA plus [`HEDGE_QUANTILE`]
    /// standard deviations, floored at [`HEDGE_MIN_DELAY`]. `None` until
    /// enough samples — hedging on guesswork duplicates everything.
    pub fn hedge_delay(&self) -> Option<SimDuration> {
        if !self.cfg.hedge || self.samples < MIN_SAMPLES {
            return None;
        }
        // The variance EWMA moves a fraction `EWMA_ALPHA` < 1 of the way
        // from a non-negative value to a square, so it never falls below 0.
        let p99 = self.latency_us + HEDGE_QUANTILE * self.latency_var_us2.sqrt();
        Some(SimDuration::from_micros(round_to_u64(p99)).max(HEDGE_MIN_DELAY))
    }

    fn observe(&mut self, failed: bool, latency_us: f64) {
        if self.samples == 0 {
            self.failure_rate = if failed { 1.0 } else { 0.0 };
            self.latency_us = latency_us;
            self.latency_var_us2 = 0.0;
        } else {
            self.failure_rate += EWMA_ALPHA * (if failed { 1.0 } else { 0.0 } - self.failure_rate);
            if !failed {
                let dev = latency_us - self.latency_us;
                self.latency_us += EWMA_ALPHA * dev;
                self.latency_var_us2 += EWMA_ALPHA * (dev * dev - self.latency_var_us2);
            }
        }
        self.samples += 1;
    }

    /// Trips the breaker Open at `at` with a seeded, exponentially
    /// growing cooldown: uniform in `[base, min(cap, base·2^opens)]`,
    /// drawn from the child stream `cooldown-{site}-{opens}` so the
    /// schedule replays bit-identically and independently of query
    /// order elsewhere.
    fn open(&mut self, at: SimTime, rng: &RngStream) {
        self.opens = self.opens.saturating_add(1);
        self.state = BreakerState::Open;
        self.transitions += 1;
        let (base, cap) = (COOLDOWN_BASE.as_micros(), COOLDOWN_CAP.as_micros());
        let hi = base.saturating_mul(2u64.saturating_pow(self.opens.min(40))).min(cap);
        let mut r = rng.derive(("cooldown-", self.site, "-", self.opens));
        self.open_until = at + SimDuration::from_micros(r.uniform_range(base, hi + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::root(7).derive("health")
    }

    fn cfg() -> HealthConfig {
        HealthConfig { breakers: true, admission: true, hedge: true, ..HealthConfig::disabled() }
    }

    fn tripped(cfg: HealthConfig) -> SiteHealth {
        let mut h = SiteHealth::new("edge", cfg);
        let r = rng();
        for _ in 0..FAILURE_THRESHOLD {
            h.record_failure(SimTime::from_secs(10), &r);
        }
        assert_eq!(h.state(), BreakerState::Open);
        h
    }

    #[test]
    fn disabled_config_always_admits_and_never_trips_admission() {
        let mut h = SiteHealth::new("cloud", HealthConfig::disabled());
        let r = rng();
        for _ in 0..100 {
            h.record_failure(SimTime::from_secs(1), &r);
        }
        // The state machine itself still trips (the engine simply never
        // consults it when breakers are off)…
        assert_eq!(h.state(), BreakerState::Open);
        // …but check() reports Ready because breakers are disabled.
        assert_eq!(h.check(SimTime::from_secs(2)), Admission::Ready);
        assert_eq!(h.hedge_delay(), None, "hedge disabled");
    }

    #[test]
    fn consecutive_failures_trip_the_breaker() {
        // Seven observations stay under MIN_SAMPLES, so the rate EWMA
        // cannot trip: only the consecutive run counts.
        let mut h = SiteHealth::new("edge", cfg());
        let r = rng();
        h.record_failure(SimTime::ZERO, &r);
        h.record_success(SimDuration::from_secs(1));
        for _ in 1..FAILURE_THRESHOLD {
            h.record_failure(SimTime::ZERO, &r);
        }
        assert_eq!(h.state(), BreakerState::Closed, "run broken by a success");
        h.record_failure(SimTime::ZERO, &r);
        assert_eq!(h.state(), BreakerState::Open, "fifth consecutive failure trips");
        assert_eq!((FAILURE_THRESHOLD, h.samples(), h.opens()), (5, 7, 1));
    }

    #[test]
    fn failure_rate_ewma_trips_without_a_consecutive_run() {
        let mut h = SiteHealth::new("edge", cfg());
        let r = rng();
        // Alternate failure/success: never 2 in a row, but the rate EWMA
        // (alpha 0.2) settles between 0.44 and 0.56 and sits at 0.67 on
        // the 7th observation, which is still under MIN_SAMPLES. The 9th,
        // a failure, lifts it to 0.63 and trips.
        for i in 0..20 {
            if i % 2 == 0 {
                h.record_failure(SimTime::from_secs(i), &r);
            } else {
                h.record_success(SimDuration::from_secs(1));
            }
            if h.state() == BreakerState::Open {
                assert_eq!((i, MIN_SAMPLES), (8, 8), "first failure past MIN_SAMPLES trips");
                assert!(h.failure_rate() >= ERROR_RATE_THRESHOLD);
                assert!((h.failure_rate() - 0.630_12).abs() < 1e-5, "{}", h.failure_rate());
                return;
            }
        }
        panic!("flapping site never tripped the rate threshold");
    }

    #[test]
    fn open_breaker_half_opens_after_cooldown_and_closes_on_probe_success() {
        let mut h = tripped(cfg());
        assert_eq!(h.check(SimTime::from_secs(11)), Admission::Unavailable);
        // Cooldown is jittered within [base, cap]; far future must admit.
        let later = SimTime::from_secs(10) + COOLDOWN_CAP;
        assert_eq!(h.check(later), Admission::Probe);
        assert_eq!(h.state(), BreakerState::HalfOpen);
        // Only one probe slot.
        assert_eq!(h.check(later), Admission::Unavailable);
        h.record_success(SimDuration::from_secs(1));
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.check(later), Admission::Ready);
    }

    #[test]
    fn probe_failure_reopens_with_longer_cooldown() {
        let mut h = tripped(cfg());
        let r = rng();
        let probe_at = SimTime::from_secs(10) + COOLDOWN_CAP;
        assert_eq!(h.check(probe_at), Admission::Probe);
        h.record_failure(probe_at, &r);
        assert_eq!(h.state(), BreakerState::Open);
        assert_eq!(h.opens(), 2);
        assert_eq!(h.check(probe_at), Admission::Unavailable, "fresh cooldown runs again");
    }

    /// The k-th open's cooldown is drawn from `[30 s, min(10 min,
    /// 30 s·2^k)]`: the window doubles per open until the cap binds.
    #[test]
    fn cooldowns_grow_per_open_up_to_the_cap() {
        let mut longest = [0_u64; 7];
        for seed in 0..64 {
            let r = RngStream::root(seed).derive("health");
            let mut h = SiteHealth::new("edge", cfg());
            let mut at = SimTime::from_secs(10);
            for _ in 0..FAILURE_THRESHOLD {
                h.record_failure(at, &r);
            }
            for (k, longest) in longest.iter_mut().enumerate() {
                let cooldown = (h.open_until - at).as_micros();
                let hi = (30_000_000_u64 << (k + 1)).min(600_000_000);
                assert!((30_000_000..=hi).contains(&cooldown), "open {}: {cooldown} us", k + 1);
                *longest = (*longest).max(cooldown);
                at = h.open_until;
                assert_eq!(h.check(at), Admission::Probe);
                h.record_failure(at, &r);
            }
        }
        let secs = longest.map(|us| us / 1_000_000);
        assert!(secs[0] >= 55 && secs[3] > 400 && secs[6] > 550, "{secs:?}");
        assert_eq!(
            (COOLDOWN_BASE, COOLDOWN_CAP),
            (SimDuration::from_secs(30), SimDuration::from_mins(10))
        );
    }

    #[test]
    fn cooldowns_are_deterministic_per_seed_and_site() {
        let trip = |site: &'static str, seed: u64| {
            let mut h = SiteHealth::new(site, cfg());
            let r = RngStream::root(seed).derive("health");
            for _ in 0..FAILURE_THRESHOLD {
                h.record_failure(SimTime::ZERO, &r);
            }
            h.open_until
        };
        assert_eq!(trip("edge", 1), trip("edge", 1), "same seed, same cooldown");
        assert_ne!(trip("edge", 1), trip("edge", 2), "different seeds jitter differently");
        assert_ne!(trip("edge", 1), trip("cloud", 1), "keyed per site");
    }

    #[test]
    fn cancellations_are_not_observations() {
        let mut h = SiteHealth::new("cloud", cfg());
        let r = rng();
        h.record_failure(SimTime::ZERO, &r);
        h.record_failure(SimTime::ZERO, &r);
        let (rate, samples, run) = (h.failure_rate(), h.samples(), h.consecutive_failures);
        h.record_cancelled();
        h.record_cancelled();
        assert_eq!(h.failure_rate(), rate, "cancellation must not move the rate EWMA");
        assert_eq!(h.samples(), samples);
        assert_eq!(h.consecutive_failures, run, "nor the consecutive-failure run");
        assert_eq!(h.state(), BreakerState::Closed, "two failures + cancels stay under 5");
    }

    #[test]
    fn queue_delay_scales_with_occupancy_and_needs_samples() {
        let mut h = SiteHealth::new("edge", cfg());
        h.enter();
        h.enter();
        assert_eq!(h.queue_delay(1), SimDuration::ZERO, "no samples, no estimate");
        for _ in 1..MIN_SAMPLES {
            h.record_success(SimDuration::from_secs(10));
        }
        assert_eq!(h.queue_delay(1), SimDuration::ZERO, "seven samples are still a guess");
        h.record_success(SimDuration::from_secs(10));
        let two_deep = h.queue_delay(1);
        assert!(two_deep >= SimDuration::from_secs(19), "2 in flight × ~10 s each: {two_deep}");
        assert!(h.queue_delay(2) < two_deep, "wider sites queue less");
        assert_eq!(h.queue_delay(0), h.queue_delay(1), "a zero-width site counts one slot");
        h.leave();
        assert!(h.queue_delay(1) < two_deep, "draining shortens the estimate");
        h.leave();
        h.leave();
        assert_eq!(h.in_flight(), 0, "leave saturates at zero");
    }

    #[test]
    fn saturation_tracks_the_bound() {
        let mut h = SiteHealth::new("edge", HealthConfig { queue_bound: 2, ..cfg() });
        assert!(!h.saturated());
        h.enter();
        h.enter();
        assert!(h.saturated());
        h.leave();
        assert!(!h.saturated());
        // A zero bound admits one invocation, as a bound of one does.
        let mut h = SiteHealth::new("edge", HealthConfig { queue_bound: 0, ..cfg() });
        assert!(!h.saturated());
        h.enter();
        assert!(h.saturated());
    }

    #[test]
    fn hedge_delay_is_p99_shaped_and_floored() {
        let mut h = SiteHealth::new("cloud", cfg());
        assert_eq!(h.hedge_delay(), None, "no samples, no hedging");
        // Tight latencies: p99 ≈ mean, so the floor binds.
        for _ in 0..16 {
            h.record_success(SimDuration::from_millis(100));
        }
        assert_eq!(h.hedge_delay(), Some(SimDuration::from_secs(2)));
        assert_eq!(HEDGE_MIN_DELAY, SimDuration::from_secs(2));
        // Wide latencies: mean + 2.33σ clears the floor.
        let mut w = SiteHealth::new("cloud", cfg());
        for i in 0..32 {
            w.record_success(SimDuration::from_secs(if i % 2 == 0 { 5 } else { 60 }));
        }
        let hd = w.hedge_delay().expect("enough samples");
        // Any mean of the samples is at most the largest, 60 s.
        assert!(hd > SimDuration::from_secs(60), "p99 sits above every sample: {hd}");
    }

    #[test]
    fn transitions_count_every_edge() {
        let mut h = tripped(cfg()); // Closed → Open
        assert_eq!(h.transitions(), 1);
        let probe_at = SimTime::from_secs(10) + COOLDOWN_CAP;
        assert_eq!(h.check(probe_at), Admission::Probe); // Open → HalfOpen
        assert_eq!(h.transitions(), 2);
        h.record_success(SimDuration::from_secs(1)); // HalfOpen → Closed
        assert_eq!(h.transitions(), 3);
    }

    /// Known answers for the `cooldown-{site}-{opens}` stream, recorded
    /// from the formatted labels this key spells: a respelled key fails
    /// here by name.
    #[test]
    fn cooldowns_draw_from_the_site_and_open_count_stream() {
        for (site, open_until) in [("edge", 45_504_336), ("cloud", 46_547_914)] {
            let mut h = SiteHealth::new(site, cfg());
            let r = rng();
            for _ in 0..FAILURE_THRESHOLD {
                h.record_failure(SimTime::from_secs(10), &r);
            }
            assert_eq!(h.opens(), 1);
            assert_eq!(h.open_until.as_micros(), open_until, "{site}");
        }
    }
}
