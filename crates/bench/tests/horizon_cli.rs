//! The `experiments` binary refuses, before running anything, an
//! experiment whose `--hours` would read past the view trace's
//! evaluation horizon: a named error and exit code 1, never a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn hours_past_the_trace_horizon_exit_one_without_panicking() {
    for id in ["ablation", "faults", "stats", "fig4", "fig7", "online"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([id, "--runs", "1", "--hours", "101"])
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{id}: {stderr}");
        assert!(!stderr.contains("panicked"), "{id}: {stderr}");
        assert!(
            stderr.contains("101 evaluation hours requested"),
            "{id}: {stderr}"
        );
        assert!(!stderr.contains("[experiments] running"), "{id}: {stderr}");
    }
}

/// The banner reports the horizon an experiment really simulates: chaos
/// its own soak length (what its `[chaos] horizon` line then prints), and
/// an experiment that simulates no hours no `hours=` at all — nor does
/// the horizon check refuse it, whatever `--hours` says.
#[test]
fn banner_reports_the_hours_each_experiment_runs() {
    let mut chaos = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["chaos", "--seed", "7"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    let stderr = BufReader::new(chaos.stderr.take().expect("piped stderr"));
    // The two lines printed before the soak starts; the soak itself is
    // not needed, so the process is stopped after them.
    let head: Vec<String> = stderr.lines().take(2).map(|l| l.expect("utf-8")).collect();
    chaos.kill().expect("stop chaos");
    chaos.wait().expect("reap chaos");
    assert_eq!(
        head[0],
        "[experiments] running chaos (runs=3, hours=6, full=false)"
    );
    assert!(head[1].starts_with("[chaos] horizon 6h,"), "{}", head[1]);

    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--hours", "101"])
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("[experiments] running table1 (runs=3, full=false)\n"),
        "{stderr}"
    );
}
