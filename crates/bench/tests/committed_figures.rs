//! The cheap experiments at seed 42 against their committed files: each
//! report must match `results/<id>.json` and, with the CLI's closing
//! `series written to …` line, `results/logs/<id>.txt`, byte for byte.
//! The rest are checked by CI's reproduce step.

use std::fs;
use std::path::Path;

use ntc_bench::EXPERIMENTS;

#[test]
fn cheap_figures_match_their_committed_files() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let read = |path: &Path| fs::read_to_string(path).expect("a committed results file");
    for id in [
        "fig1_latency_crossover",
        "fig2_cold_start",
        "fig3_memory_pareto",
        "tab2_partition_quality",
        "tab4_cicd_overhead",
    ] {
        let experiment = EXPERIMENTS.iter().find(|e| e.id == id).expect("a listed experiment");
        let report = (experiment.run)(42, 2);
        let json = format!("results/{id}.json");
        assert!(report.series == read(&results.join(format!("{id}.json"))), "{json} moved");
        let log = read(&results.join(format!("logs/{id}.txt")));
        assert_eq!(report.text + &format!("series written to {json}\n"), log, "{id}'s log moved");
    }
}
