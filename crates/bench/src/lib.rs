//! # ntc-bench
//!
//! Experiment harness for the `ntc-offload` reproduction: one binary per
//! table/figure of the reconstructed evaluation (see `DESIGN.md` §4).
//! Host-time performance is measured by `perfbench/`, not here.
//!
//! Every binary accepts `--seed <u64>` (default 42) and `--threads <n>`
//! (default `NTC_THREADS`, else all cores; thread count never changes the
//! numbers, only the wall-clock), exits with status 2 on a malformed
//! value or any other argument, prints an aligned text table and writes
//! the raw series as JSON under `results/` with [`write_json`]. Each
//! binary's records derive `ntc_json::ToJson`, and the output is laid out
//! as `serde_json`'s pretty printer lays it out, so the committed files
//! are the format's oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::str::FromStr;

use ntc_json::ToJson;

pub mod overload;
pub mod scale;

/// An argument list an experiment binary refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArgError {
    /// A `--seed` or `--threads` value that is not a number, zero
    /// threads, or missing (`None` when the flag ends the list).
    Value { flag: &'static str, value: Option<String> },
    /// An argument that is neither flag, e.g. a misspelt `--seeds`.
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Value { flag, value: Some(value) } => {
                write!(f, "invalid {flag} value `{value}`")
            }
            ArgError::Value { flag, value: None } => write!(f, "{flag} needs a value"),
            ArgError::Unknown(arg) => write!(f, "unknown argument `{arg}`"),
        }
    }
}

/// The next argument as `flag`'s value, parsed and checked by `valid`.
fn flag_value<'a, T: FromStr>(
    rest: &mut impl Iterator<Item = &'a String>,
    flag: &'static str,
    valid: fn(&T) -> bool,
) -> Result<T, ArgError> {
    let value = rest.next();
    value
        .and_then(|v| v.parse().ok())
        .filter(valid)
        .ok_or_else(|| ArgError::Value { flag, value: value.cloned() })
}

/// Parses the flags every experiment binary shares from `args` (program
/// name first): `--seed <u64>` (default 42) and `--threads <n >= 1>`
/// (`None` if absent). Any other argument is an error.
pub(crate) fn parse_args(args: &[String]) -> Result<(u64, Option<usize>), ArgError> {
    let (mut seed, mut threads) = (42, None);
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--seed" => seed = flag_value(&mut rest, "--seed", |_| true)?,
            "--threads" => threads = Some(flag_value(&mut rest, "--threads", |&n| n > 0)?),
            _ => return Err(ArgError::Unknown(arg.clone())),
        }
    }
    Ok((seed, threads))
}

/// [`parse_args`] over the process arguments; a refused argument list
/// ends the process with status 2 and a usage message.
fn process_args() -> (u64, Option<usize>) {
    let args: Vec<String> = std::env::args().collect();
    parse_args(&args).unwrap_or_else(|e| {
        let bin = args.first().map_or("experiment", String::as_str);
        eprintln!("error: {e}\nusage: {bin} [--seed <u64>] [--threads <n >= 1>]");
        std::process::exit(2)
    })
}

/// Parses `--seed <u64>` from the process arguments (default 42).
pub fn seed_from_args() -> u64 {
    process_args().0
}

/// Resolves the sweep worker-thread count: `--threads <n>` from the
/// process arguments, else `NTC_THREADS`, else
/// [`std::thread::available_parallelism`]. Thread count never changes the
/// numbers an experiment produces — only how fast they arrive.
pub fn threads_from_args() -> usize {
    process_args().1.unwrap_or_else(ntc_core::default_threads)
}

/// Writes `value` as pretty JSON ([`ntc_json::to_string_pretty`]) to
/// `results/<id>.json`, creating the directory as needed. Returns the path
/// written.
///
/// # Panics
///
/// Panics on I/O failure — an experiment that cannot record its results
/// should fail loudly.
pub fn write_json<T: ToJson + ?Sized>(id: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{id}.json"));
    fs::write(&path, ntc_json::to_string_pretty(value)).expect("write results file");
    path
}

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

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
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

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("bin").chain(list.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn flags_parse_or_default() {
        assert_eq!(parse_args(&args(&["--seed", "7", "--threads", "3"])), Ok((7, Some(3))));
        assert_eq!(parse_args(&args(&[])), Ok((42, None)));
    }

    #[test]
    fn malformed_flags_are_rejected() {
        let value =
            |flag, value: Option<&str>| ArgError::Value { flag, value: value.map(Into::into) };
        let unknown = |arg: &str| ArgError::Unknown(arg.into());
        for (list, err) in [
            (&["--seed", "abc"][..], value("--seed", Some("abc"))),
            (&["--seed"], value("--seed", None)),
            (&["--threads", "0"], value("--threads", Some("0"))),
            (&["--threads", "x"], value("--threads", Some("x"))),
            (&["--quick"], unknown("--quick")),
            (&["--smoke"], unknown("--smoke")),
            (&["--seeds", "7"], unknown("--seeds")),
        ] {
            assert_eq!(parse_args(&args(list)), Err(err));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
