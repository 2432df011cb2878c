//! The `ntc` binary writing into a pipe whose reader is already gone, as
//! under `ntc plan | head -1` once `head` has exited.

use std::io;
use std::process::{Command, Stdio};

#[test]
fn a_closed_pipe_ends_every_subcommand_quietly() {
    for args in [
        &["archetypes"][..],
        &["plan"],
        &["simulate", "--hours", "1"],
        &["compare", "--hours", "1"],
    ] {
        let (reader, writer) = io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ntc"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("ntc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "ntc {args:?}: {}\n{stderr}", out.status);
        assert!(stderr.is_empty(), "ntc {args:?} wrote to stderr:\n{stderr}");
    }
}
