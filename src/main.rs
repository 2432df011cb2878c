//! `ntc` — command-line front end of the ntc-offload framework.
//!
//! ```console
//! $ ntc archetypes
//! $ ntc simulate --archetype photo-pipeline --policy ntc --rate 0.02 --hours 4
//! $ ntc compare  --archetype report-rendering --rate 0.01 --hours 24
//! $ ntc plan     --archetype sci-sweep --policy ntc --rate 0.002
//! $ ntc experiments
//! $ ntc experiment fig3_memory_pareto --seed 42
//! ```
//!
//! Output goes through one locked stdout. A reader that closes the pipe
//! early (`ntc plan | head -1`) ends the command quietly, with status 0.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use ntc_bench::{Experiment, EXPERIMENTS};
use ntc_core::{deploy, Engine, Environment, JobRetention, NtcConfig, OffloadPolicy, RunScratch};
use ntc_simcore::rng::RngStream;
use ntc_simcore::units::SimDuration;
use ntc_workloads::{Archetype, StreamSpec};

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `--name value` pairs, refusing any flag outside `allowed`
    /// and any flag given twice.
    fn parse(raw: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut flags: Vec<(String, String)> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if !allowed.contains(&name) {
                let known: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
                return Err(format!("unknown flag '--{name}' (takes {})", known.join(", ")));
            }
            if flags.iter().any(|(n, _)| n == name) {
                return Err(format!("--{name} given twice"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: '{v}' is not a number")),
            None => Ok(default),
        }
    }

    /// `--rate`, in jobs per second: finite and non-negative, 0.02 if absent.
    fn rate(&self) -> Result<f64, String> {
        match self.f64_or("rate", 0.02)? {
            r if r.is_finite() && r >= 0.0 => Ok(r),
            r => Err(format!("--rate: '{r}' is not a finite, non-negative rate")),
        }
    }

    /// `--rate` for a run of `hours` hours, counted as at least one:
    /// refused when it expects more jobs, rate × hours × 3600, than the
    /// engine's `u32` job index holds.
    fn rate_for(&self, hours: u64) -> Result<f64, String> {
        let rate = self.rate()?;
        let hours = hours.max(1);
        let jobs = rate * hours as f64 * 3600.0;
        if jobs > f64::from(u32::MAX) {
            return Err(format!(
                "--rate {rate} over {hours} h expects {jobs:.3e} jobs; a run holds at most {}",
                u32::MAX
            ));
        }
        Ok(rate)
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: '{v}' is not an integer")),
            None => Ok(default),
        }
    }

    /// `--hours` and the horizon it spans, `default` hours if absent:
    /// rejected when the horizon's microsecond count overflows `u64`.
    fn horizon(&self, default: u64) -> Result<(u64, SimDuration), String> {
        const MICROS_PER_HOUR: u64 = 3_600_000_000;
        let hours = self.u64_or("hours", default)?;
        match hours.checked_mul(MICROS_PER_HOUR) {
            Some(micros) => Ok((hours, SimDuration::from_micros(micros))),
            None => Err(format!(
                "--hours: '{hours}' overflows the simulated clock (at most {} hours)",
                u64::MAX / MICROS_PER_HOUR
            )),
        }
    }
}

/// Why a subcommand stopped early.
#[derive(Debug)]
enum Failure {
    /// A bad command line, or a results file that could not be written:
    /// printed as `error: …`, status 1.
    Message(String),
    /// Writing the output failed.
    Io(io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Message(e)
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Io(e)
    }
}

fn parse_archetype(name: &str) -> Result<Archetype, String> {
    Archetype::all()
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| format!("unknown archetype '{name}' (see `ntc archetypes`)"))
}

fn parse_policy(name: &str) -> Result<OffloadPolicy, String> {
    match name {
        "local-only" => Ok(OffloadPolicy::LocalOnly),
        "edge-all" => Ok(OffloadPolicy::EdgeAll),
        "cloud-all" => Ok(OffloadPolicy::CloudAll),
        "ntc" => Ok(OffloadPolicy::ntc()),
        "ntc+offpeak" => Ok(OffloadPolicy::Ntc(NtcConfig { off_peak: true, ..Default::default() })),
        other => Err(format!(
            "unknown policy '{other}' (local-only | edge-all | cloud-all | ntc | ntc+offpeak)"
        )),
    }
}

fn print_run(
    out: &mut impl Write,
    policy: &OffloadPolicy,
    r: &ntc_core::RunResult,
) -> io::Result<()> {
    let s = r.latency_summary();
    let (p50, p95) = s.map(|s| (s.p50, s.p95)).unwrap_or((0.0, 0.0));
    writeln!(
        out,
        "{:<13} {:>6} jobs  p50 {:>9.2}s  p95 {:>9.2}s  miss {:>5.1}%  total ${:<9.4} UE {:>10}  up {}",
        policy.name(),
        r.jobs.len(),
        p50,
        p95,
        r.miss_rate() * 100.0,
        r.total_cost().as_usd_f64(),
        r.device_energy.to_string(),
        r.bytes_up,
    )
}

fn cmd_archetypes(out: &mut impl Write) -> Result<(), Failure> {
    writeln!(
        out,
        "{:<18} {:>10} {:>12} {:>8} {:>7}",
        "archetype", "components", "slack", "noise", "drift"
    )?;
    for a in Archetype::all() {
        writeln!(
            out,
            "{:<18} {:>10} {:>12} {:>8.2} {:>7.2}",
            a.name(),
            a.graph().len(),
            a.typical_slack().to_string(),
            a.demand_noise_sigma(),
            a.demand_drift(),
        )?;
    }
    Ok(())
}

fn cmd_simulate(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let archetype = parse_archetype(args.get("archetype").unwrap_or("photo-pipeline"))?;
    let policy = parse_policy(args.get("policy").unwrap_or("ntc"))?;
    let (hours, horizon) = args.horizon(4)?;
    let rate = args.rate_for(hours)?;
    let seed = args.u64_or("seed", 42)?;

    let engine = Engine::new(Environment::metro_reference(), seed);
    let specs = [StreamSpec::poisson(archetype, rate)];
    let r = engine.run(&policy, &specs, horizon);
    writeln!(out, "{archetype} at {rate}/s for {hours}h (seed {seed}):")?;
    print_run(out, &policy, &r)?;
    Ok(())
}

fn cmd_compare(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let archetype = parse_archetype(args.get("archetype").unwrap_or("photo-pipeline"))?;
    let (hours, horizon) = args.horizon(24)?;
    let rate = args.rate_for(hours)?;
    let seed = args.u64_or("seed", 42)?;

    let engine = Engine::new(Environment::metro_reference(), seed);
    let specs = [StreamSpec::poisson(archetype, rate)];
    // One scratch for all four policies: they share the seed's job
    // stream, which the scratch generates once.
    let mut scratch = RunScratch::new();
    writeln!(out, "{archetype} at {rate}/s for {hours}h (seed {seed}):")?;
    for policy in [
        OffloadPolicy::LocalOnly,
        OffloadPolicy::EdgeAll,
        OffloadPolicy::CloudAll,
        OffloadPolicy::ntc(),
    ] {
        let r =
            engine.run_retained(seed, &policy, &specs, horizon, &mut scratch, JobRetention::Full);
        print_run(out, &policy, &r)?;
    }
    Ok(())
}

fn cmd_plan(args: &Args, out: &mut impl Write) -> Result<(), Failure> {
    let archetype = parse_archetype(args.get("archetype").unwrap_or("photo-pipeline"))?;
    let policy = parse_policy(args.get("policy").unwrap_or("ntc"))?;
    // A plan is sized for an hour of traffic.
    let rate = args.rate_for(1)?;
    let seed = args.u64_or("seed", 42)?;

    let env = Environment::metro_reference();
    let rng = RngStream::root(seed).derive("engine");
    let d = deploy(&policy, archetype, &env, rate, archetype.typical_slack(), &rng);
    writeln!(out, "{} deployment of {archetype} (rate {rate}/s, seed {seed}):", policy.name())?;
    for (id, c) in d.graph.components() {
        let placement = if d.is_offloaded(id) {
            format!("{} @ {}", d.site_chain[0], d.memory[id.index()])
        } else {
            "device".into()
        };
        writeln!(
            out,
            "  {:<16} demand {:<12} -> {placement}",
            c.name(),
            d.demands[id.index()].to_string(),
        )?;
    }
    writeln!(out, "  dispatch: {}", d.dispatch)?;
    writeln!(out, "  warming:  {}", d.warm)?;
    writeln!(
        out,
        "  est. completion: {} (local fallback: {})",
        d.est_completion, d.fallback_local
    )?;
    let byte_cap = if d.max_batch_bytes.as_bytes() == u64::MAX {
        "unbounded".to_string()
    } else {
        d.max_batch_bytes.to_string()
    };
    let member_cap = if d.max_batch_members == u32::MAX {
        "unbounded".to_string()
    } else {
        d.max_batch_members.to_string()
    };
    writeln!(out, "  batch caps: {member_cap} members / {byte_cap}")?;
    Ok(())
}

/// `experiment`'s command line: the experiment, `--seed` (42 if absent)
/// and `--threads` (at least 1, [`ntc_core::default_threads`] if absent).
fn parse_experiment(rest: &[String]) -> Result<(&'static Experiment, u64, usize), String> {
    let (id, flags) = rest.split_first().ok_or("experiment needs an id (see `ntc experiments`)")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| format!("unknown experiment '{id}' (see `ntc experiments`)"))?;
    let args = Args::parse(flags, EXPERIMENT_FLAGS)?;
    let seed = args.u64_or("seed", 42)?;
    match args.u64_or("threads", ntc_core::default_threads() as u64)? {
        0 => Err("--threads: '0' is not a positive integer".into()),
        threads => Ok((experiment, seed, threads as usize)),
    }
}

/// Runs an experiment, prints its text and writes its series to
/// `results/<id>.json`.
fn cmd_experiment(rest: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let (experiment, seed, threads) = parse_experiment(rest)?;
    let report = (experiment.run)(seed, threads);
    out.write_all(report.text.as_bytes())?;
    let path = Path::new("results").join(format!("{}.json", experiment.id));
    fs::create_dir_all("results")
        .and_then(|()| fs::write(&path, &report.series))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    writeln!(out, "series written to {}", path.display())?;
    Ok(())
}

/// The flags each subcommand's usage line lists.
const SIMULATE_FLAGS: &[&str] = &["archetype", "policy", "rate", "hours", "seed"];
const COMPARE_FLAGS: &[&str] = &["archetype", "rate", "hours", "seed"];
const PLAN_FLAGS: &[&str] = &["archetype", "policy", "rate", "seed"];
const EXPERIMENT_FLAGS: &[&str] = &["seed", "threads"];

fn usage() -> &'static str {
    "ntc — computational offloading for non-time-critical applications

USAGE:
  ntc archetypes
  ntc simulate [--archetype A] [--policy P] [--rate R] [--hours H] [--seed S]
  ntc compare  [--archetype A] [--rate R] [--hours H] [--seed S]
  ntc plan     [--archetype A] [--policy P] [--rate R] [--seed S]
  ntc experiments
  ntc experiment <id> [--seed S] [--threads N]

POLICIES: local-only | edge-all | cloud-all | ntc | ntc+offpeak"
}

/// Runs subcommand `cmd` with arguments `rest`, writing to `out`.
fn run(cmd: &str, rest: &[String], out: &mut impl Write) -> Result<(), Failure> {
    match cmd {
        "archetypes" => cmd_archetypes(out)?,
        "simulate" => cmd_simulate(&Args::parse(rest, SIMULATE_FLAGS)?, out)?,
        "compare" => cmd_compare(&Args::parse(rest, COMPARE_FLAGS)?, out)?,
        "plan" => cmd_plan(&Args::parse(rest, PLAN_FLAGS)?, out)?,
        "experiments" => EXPERIMENTS.iter().try_for_each(|e| writeln!(out, "{}", e.id))?,
        "experiment" => cmd_experiment(rest, out)?,
        "help" | "--help" | "-h" => writeln!(out, "{}", usage())?,
        other => return Err(format!("unknown command '{other}'\n\n{}", usage()).into()),
    }
    Ok(out.flush()?)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match run(cmd, rest, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has all it wanted.
        Err(Failure::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Io(e)) => {
            eprintln!("error: writing output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_experiment, Args, SimDuration, COMPARE_FLAGS, PLAN_FLAGS, SIMULATE_FLAGS};

    fn args(raw: &[&str], allowed: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = raw.iter().map(|a| a.to_string()).collect();
        Args::parse(&raw, allowed)
    }

    fn rate(value: &str) -> Result<f64, String> {
        args(&["--rate", value], SIMULATE_FLAGS)?.rate()
    }

    fn horizon(value: &str) -> Result<(u64, SimDuration), String> {
        args(&["--hours", value], SIMULATE_FLAGS)?.horizon(4)
    }

    #[test]
    fn each_subcommand_refuses_flags_its_usage_does_not_list() {
        let takes = "(takes --archetype, --policy, --rate, --hours, --seed)";
        assert_eq!(
            args(&["--hour", "1"], SIMULATE_FLAGS).err(),
            Some(format!("unknown flag '--hour' {takes}"))
        );
        assert!(args(&["--policy", "cloud-all"], COMPARE_FLAGS).is_err());
        assert!(args(&["--hours", "1"], PLAN_FLAGS).is_err());
        assert!(args(&["--policy", "ntc", "--hours", "1"], SIMULATE_FLAGS).is_ok());
    }

    #[test]
    fn a_repeated_flag_is_refused() {
        assert_eq!(
            args(&["--rate", "0.01", "--rate", "5"], SIMULATE_FLAGS).err(),
            Some("--rate given twice".to_string())
        );
        assert!(args(&["--seed", "1", "--hours", "2", "--seed", "1"], COMPARE_FLAGS).is_err());
    }

    #[test]
    fn hours_reject_a_horizon_that_overflows_the_clock() {
        let overflow =
            "--hours: '5124095577' overflows the simulated clock (at most 5124095576 hours)";
        assert_eq!(horizon("5124095577"), Err(overflow.into()));
        assert!(horizon(&u64::MAX.to_string()).is_err());
        assert_eq!(horizon("-1"), Err("--hours: '-1' is not an integer".into()));
    }

    #[test]
    fn hours_accept_the_longest_horizon_and_default_when_absent() {
        let max = 5_124_095_576;
        assert_eq!(horizon("5124095576"), Ok((max, SimDuration::from_micros(max * 3_600_000_000))));
        assert_eq!(horizon("0"), Ok((0, SimDuration::ZERO)));
        assert_eq!(
            args(&[], COMPARE_FLAGS).unwrap().horizon(24),
            Ok((24, SimDuration::from_hours(24)))
        );
    }

    #[test]
    fn rate_rejects_negative_and_non_finite_values() {
        assert_eq!(rate("-1"), Err("--rate: '-1' is not a finite, non-negative rate".into()));
        assert_eq!(rate("nan"), Err("--rate: 'NaN' is not a finite, non-negative rate".into()));
        assert_eq!(rate("inf"), Err("--rate: 'inf' is not a finite, non-negative rate".into()));
        assert_eq!(rate("x"), Err("--rate: 'x' is not a number".into()));
    }

    #[test]
    fn rates_the_job_index_cannot_hold_are_refused() {
        let simulate = |raw: &[&str]| {
            let a = args(raw, SIMULATE_FLAGS)?;
            a.rate_for(a.horizon(4)?.0)
        };
        let plan = |raw: &[&str]| args(raw, PLAN_FLAGS)?.rate_for(1);
        assert_eq!(
            plan(&["--rate", "1e12"]),
            Err("--rate 1000000000000 over 1 h expects 3.600e15 jobs; a run holds at most 4294967295"
                .into())
        );
        assert!(simulate(&["--rate", "1e12", "--hours", "0"]).is_err());
        assert!(simulate(&["--hours", "5124095576"]).is_err(), "3.7e11 jobs at the default rate");
        assert!(simulate(&["--rate", "1e6", "--hours", "2"]).is_err());
        assert_eq!(simulate(&["--rate", "1e6", "--hours", "1"]), Ok(1e6));
        assert_eq!(simulate(&["--rate", "0.02", "--hours", "59652323"]), Ok(0.02));
        assert_eq!(plan(&[]), Ok(0.02));
    }

    #[test]
    fn rate_accepts_zero_and_defaults_when_absent() {
        assert_eq!(rate("0"), Ok(0.0));
        assert_eq!(args(&[], SIMULATE_FLAGS).unwrap().rate(), Ok(0.02));
    }

    fn experiment(raw: &[&str]) -> Result<(&'static str, u64, usize), String> {
        let raw: Vec<String> = raw.iter().map(|a| a.to_string()).collect();
        parse_experiment(&raw).map(|(e, seed, threads)| (e.id, seed, threads))
    }

    #[test]
    fn flags_parse_or_default() {
        let id = "fig3_memory_pareto";
        assert_eq!(experiment(&[id, "--seed", "7", "--threads", "3"]), Ok((id, 7, 3)));
        assert_eq!(experiment(&[id]), Ok((id, 42, ntc_core::default_threads())));
    }

    #[test]
    fn malformed_flags_are_rejected() {
        let takes = "(takes --seed, --threads)";
        for (raw, err) in [
            (&["--seed", "abc"][..], "--seed: 'abc' is not an integer".to_string()),
            (&["--seed"], "--seed needs a value".into()),
            (&["--threads", "0"], "--threads: '0' is not a positive integer".into()),
            (&["--threads", "x"], "--threads: 'x' is not an integer".into()),
            (&["--quick"], format!("unknown flag '--quick' {takes}")),
            (&["--smoke"], format!("unknown flag '--smoke' {takes}")),
            (&["--seeds", "7"], format!("unknown flag '--seeds' {takes}")),
            (&["--seed", "1", "--seed", "1"], "--seed given twice".into()),
        ] {
            let raw: Vec<&str> =
                std::iter::once("fig3_memory_pareto").chain(raw.iter().copied()).collect();
            assert_eq!(experiment(&raw), Err(err));
        }
        assert_eq!(
            experiment(&["no_such_id"]),
            Err("unknown experiment 'no_such_id' (see `ntc experiments`)".into())
        );
        assert!(experiment(&[]).is_err());
    }
}
