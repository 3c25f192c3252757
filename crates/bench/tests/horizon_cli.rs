//! The `experiments` binary refuses, before running anything, an
//! experiment whose `--hours` would read past the view trace's
//! evaluation horizon: a named error and exit code 1, never a panic.

use std::process::Command;

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
