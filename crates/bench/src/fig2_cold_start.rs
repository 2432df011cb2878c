//! **Figure 2** — Cold-start impact vs arrival rate, under three warming
//! strategies.
//!
//! Drives the serverless platform directly with Poisson invocations of an
//! inference-sized function. Expectation (DESIGN.md §4): at sparse
//! arrival rates the cold-start tail dominates p99 under platform-only
//! keep-alive; warmers or provisioning recover the tail at bounded cost;
//! at dense rates the platform keep-alive suffices and everything
//! converges.

use crate::{f3, Report, Table};
use ntc_alloc::WarmStrategy;
use ntc_core::run_sweep;
use ntc_json::ToJson;
use ntc_serverless::{FunctionConfig, PlatformConfig, ServerlessPlatform};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::{Cycles, DataSize, SimDuration, SimTime};
use ntc_workloads::ArrivalProcess;

#[derive(Debug, ToJson)]
struct Point {
    rate_per_sec: f64,
    strategy: String,
    invocations: u64,
    cold_fraction: f64,
    p50_ms: f64,
    p99_ms: f64,
    cost_per_hour_usd: f64,
}

fn run_one(rate: f64, strategy: WarmStrategy, horizon: SimDuration, seed: u64) -> Point {
    let mut rng = RngStream::root(seed).derive("arrivals");
    let arrivals = ArrivalProcess::Poisson { rate_per_sec: rate }.generate(horizon, &mut rng);
    serve(rate, &arrivals, strategy, horizon, seed)
}

/// Serves `arrivals` (in time order) under `strategy`. A warmer's pings
/// are marked as pings where they join the stream, so an arrival at a
/// ping instant still counts.
fn serve(
    rate: f64,
    arrivals: &[SimTime],
    strategy: WarmStrategy,
    horizon: SimDuration,
    seed: u64,
) -> Point {
    let mut platform = ServerlessPlatform::new(PlatformConfig::default(), RngStream::root(seed));
    let f = platform.register(
        FunctionConfig::new(DataSize::from_mib(3072)).with_artifact_size(DataSize::from_mib(250)),
    );
    let work = Cycles::from_giga(8);

    // Each invocation and whether it is a ping: interleave warmer pings
    // (in time order) or provision capacity.
    let mut invocations: Vec<(SimTime, bool)> = arrivals.iter().map(|&at| (at, false)).collect();
    match strategy {
        WarmStrategy::Provisioned { count } => platform.set_provisioned(SimTime::ZERO, f, count),
        WarmStrategy::Warmer { period } => {
            let mut t = SimTime::ZERO + period;
            let end = SimTime::ZERO + horizon;
            while t < end {
                invocations.push((t, true));
                t += period;
            }
            invocations.sort_unstable();
        }
        WarmStrategy::PlatformOnly => {}
    }

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut cold = 0u64;
    let mut real = 0u64;
    for (at, ping) in invocations {
        let w = if ping { Cycles::new(1_000) } else { work };
        let out = platform.invoke(at, f, w).expect("in-order invocations");
        if !ping {
            real += 1;
            if out.was_cold {
                cold += 1;
            }
            latencies_ms.push(out.latency().as_micros() as f64 / 1e3);
        }
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| ntc_simcore::stats::quantile_sorted(&latencies_ms, p).unwrap_or(0.0);
    let cost = platform.total_cost(SimTime::ZERO + horizon).as_usd_f64();
    Point {
        rate_per_sec: rate,
        strategy: format!("{strategy}"),
        invocations: real,
        cold_fraction: if real == 0 { 0.0 } else { cold as f64 / real as f64 },
        p50_ms: q(0.50),
        p99_ms: q(0.99),
        cost_per_hour_usd: cost / (horizon.as_secs_f64() / 3600.0),
    }
}

/// Runs the experiment at `seed` on `threads` sweep workers.
pub fn run(seed: u64, threads: usize) -> Report {
    let horizon = SimDuration::from_hours(24);

    let rates = [0.001, 0.01, 0.1, 1.0];
    let strategies = [
        WarmStrategy::PlatformOnly,
        WarmStrategy::Warmer { period: SimDuration::from_mins(9) },
        WarmStrategy::Provisioned { count: 1 },
    ];

    let grid: Vec<(f64, WarmStrategy)> =
        rates.iter().flat_map(|&r| strategies.iter().map(move |&s| (r, s))).collect();
    let series: Vec<Point> =
        run_sweep(&grid, threads, |&(rate, s), _| run_one(rate, s, horizon, seed));
    let mut table =
        Table::new(["rate/s", "strategy", "invocations", "cold %", "p50 ms", "p99 ms", "$/hour"]);
    for p in &series {
        table.row([
            format!("{}", p.rate_per_sec),
            p.strategy.clone(),
            p.invocations.to_string(),
            f3(p.cold_fraction * 100.0),
            f3(p.p50_ms),
            f3(p.p99_ms),
            format!("{:.5}", p.cost_per_hour_usd),
        ]);
    }

    let mut out =
        format!("Figure 2 — cold-start tail vs arrival rate over {horizon} (seed {seed})\n\n");
    out.push_str(&table.render());
    outln!(out);
    let cold_pct = |rate: f64, strategy: &str| {
        let p = series.iter().find(|p| p.rate_per_sec == rate && p.strategy.starts_with(strategy));
        f3(p.expect("present").cold_fraction * 100.0)
    };
    outln!(
        out,
        "shape: sparse traffic is ~all-cold under platform-only ({}%), warmer removes it ({}%) | dense traffic is warm anyway ({}%)",
        cold_pct(0.001, "platform-only"),
        cold_pct(0.001, "warmer"),
        cold_pct(1.0, "platform-only"),
    );
    Report::new(out, &series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_arrival_on_a_ping_instant_is_served_and_counted() {
        let period = SimDuration::from_mins(9);
        let arrivals = [SimTime::ZERO + period, SimTime::ZERO + SimDuration::from_mins(20)];
        let warmer = WarmStrategy::Warmer { period };
        let p = serve(0.001, &arrivals, warmer, SimDuration::from_hours(1), 42);
        assert_eq!(p.invocations, 2);
        // The first arrival finds nothing warm; the 18-minute ping keeps
        // the second warm.
        assert_eq!(p.cold_fraction, 0.5);
        assert!(p.p50_ms > 1_000.0, "the p50 is a real invocation's, not a ping's");
    }
}
