//! # ntc-bench
//!
//! Experiment harness for the `ntc-offload` reproduction: one module per
//! table/figure of the reconstructed evaluation (see `DESIGN.md` §4), each
//! listed in [`EXPERIMENTS`] and run by `ntc experiment <id>`.
//! Host-time performance is measured by `perfbench/`, not here.
//!
//! Each module's `run(seed, threads)` returns a [`Report`]: the aligned
//! text table and shape line, and the raw series as JSON, which the CLI
//! writes to `results/<id>.json`. The thread count never changes the
//! numbers, only the wall-clock. Each experiment's records derive
//! `ntc_json::ToJson`, and the series is laid out as `serde_json`'s pretty
//! printer lays it out, so the committed files are the format's oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ntc_json::ToJson;

/// `println!` into the `String` an experiment gathers its text in.
macro_rules! outln {
    ($out:ident) => {
        $out.push('\n')
    };
    ($out:ident, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("a String takes any text")
    }};
}

/// What one experiment run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The text it prints: tables and shape lines.
    pub text: String,
    /// Its series as pretty JSON, the contents of `results/<id>.json`.
    pub series: String,
}

impl Report {
    fn new<T: ToJson + ?Sized>(text: String, series: &T) -> Self {
        Report { text, series: ntc_json::to_string_pretty(series) }
    }
}

/// One experiment: its id and its `run(seed, threads)`.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The module name, also the stem of its files under `results/`.
    pub id: &'static str,
    /// Runs it at a seed on a number of sweep workers.
    pub run: fn(u64, usize) -> Report,
}

pub mod fig10_overload;
pub mod fig11_scale;
pub mod fig1_latency_crossover;
pub mod fig2_cold_start;
pub mod fig3_memory_pareto;
pub mod fig4_deadline_batching;
pub mod fig5_scalability;
pub mod fig6_ablation;
pub mod fig7_offpeak_extension;
pub mod fig8_connectivity_extension;
pub mod fig9_fault_tolerance;
pub mod tab1_cost_comparison;
pub mod tab2_partition_quality;
pub mod tab3_demand_estimation;
pub mod tab4_cicd_overhead;
pub mod tab5_e2e_policies;

/// Every experiment, figures then tables.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "fig1_latency_crossover", run: fig1_latency_crossover::run },
    Experiment { id: "fig2_cold_start", run: fig2_cold_start::run },
    Experiment { id: "fig3_memory_pareto", run: fig3_memory_pareto::run },
    Experiment { id: "fig4_deadline_batching", run: fig4_deadline_batching::run },
    Experiment { id: "fig5_scalability", run: fig5_scalability::run },
    Experiment { id: "fig6_ablation", run: fig6_ablation::run },
    Experiment { id: "fig7_offpeak_extension", run: fig7_offpeak_extension::run },
    Experiment { id: "fig8_connectivity_extension", run: fig8_connectivity_extension::run },
    Experiment { id: "fig9_fault_tolerance", run: fig9_fault_tolerance::run },
    Experiment { id: "fig10_overload", run: fig10_overload::run },
    Experiment { id: "fig11_scale", run: fig11_scale::run },
    Experiment { id: "tab1_cost_comparison", run: tab1_cost_comparison::run },
    Experiment { id: "tab2_partition_quality", run: tab2_partition_quality::run },
    Experiment { id: "tab3_demand_estimation", run: tab3_demand_estimation::run },
    Experiment { id: "tab4_cicd_overhead", run: tab4_cicd_overhead::run },
    Experiment { id: "tab5_e2e_policies", run: tab5_e2e_policies::run },
];

/// A minimal aligned-column text table for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn every_experiment_module_is_listed_once() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("the crate's src directory")
            .map(|entry| entry.expect("a directory entry").file_name().into_string().unwrap())
            .filter_map(|name| name.strip_suffix(".rs").map(str::to_owned))
            .filter(|stem| stem != "lib")
            .collect();
        let mut ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_owned()).collect();
        files.sort();
        ids.sort();
        assert_eq!(ids, files);
    }
}
