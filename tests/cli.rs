//! The `ntc` binary writing into a pipe whose reader is already gone, as
//! under `ntc plan | head -1` once `head` has exited.

use std::io;
use std::process::{Command, Stdio};

#[test]
fn a_closed_pipe_ends_every_subcommand_quietly() {
    // A fresh working directory, so `experiment` never rewrites the
    // committed `results/`.
    let dir = std::env::temp_dir().join(format!("ntc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a working directory");
    for args in [
        &["archetypes"][..],
        &["plan"],
        &["simulate", "--hours", "1"],
        &["compare", "--hours", "1"],
        &["experiments"],
        &["experiment", "fig3_memory_pareto"],
    ] {
        let (reader, writer) = io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ntc"))
            .args(args)
            .current_dir(&dir)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("ntc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "ntc {args:?}: {}\n{stderr}", out.status);
        assert!(stderr.is_empty(), "ntc {args:?} wrote to stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("the working directory goes");
}
