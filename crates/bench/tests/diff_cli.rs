//! End-to-end smoke test of the `experiments diff` subcommand through
//! the real binary: `trace` writes an observability snapshot next to its
//! Chrome trace, and diffing that snapshot against itself reports zero
//! deltas and exits 0 — the contract CI's base-vs-head trace diff rests
//! on.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn trace_writes_obs_snapshot_and_self_diff_exits_zero() {
    let dir = std::env::temp_dir().join("jcr_diff_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_out = dir.join("TRACE_SMOKE.json");
    let obs_out = dir.join("TRACE_SMOKE.obs.json");

    let out = experiments()
        .args([
            "trace",
            "--workers",
            "2",
            "--out",
            trace_out.to_str().unwrap(),
        ])
        .output()
        .expect("spawn experiments trace");
    assert!(out.status.success(), "trace exits 0");
    assert!(
        obs_out.exists(),
        "trace derives TRACE_SMOKE.obs.json from --out TRACE_SMOKE.json"
    );

    // Self-diff: zero deltas, exit 0, and the summary says so.
    let out = experiments()
        .args(["diff", obs_out.to_str().unwrap(), obs_out.to_str().unwrap()])
        .output()
        .expect("spawn experiments diff");
    assert!(out.status.success(), "self-diff exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("zero deltas"),
        "self-diff reports zero deltas: {stdout}"
    );

    // The artifact is a valid canonical snapshot (parse + re-render is
    // the identity), so uploads are diffable by later runs.
    let text = std::fs::read_to_string(&obs_out).unwrap();
    let wire = jcr_ctx::obs::wire::WireSnapshot::parse(&text).expect("valid snapshot");
    assert_eq!(wire.render(), text, "artifact is canonical");
    assert_eq!(
        wire.meta.get("kind").map(String::as_str),
        Some("jcr-trace-obs")
    );
    assert_eq!(wire.meta.get("workers").map(String::as_str), Some("2"));

    // Unknown phase: a named error and nonzero exit.
    let out = experiments()
        .args([
            "diff",
            obs_out.to_str().unwrap(),
            obs_out.to_str().unwrap(),
            "--phase",
            "no_such_phase",
        ])
        .output()
        .expect("spawn experiments diff --phase");
    assert!(!out.status.success(), "unknown phase exits nonzero");

    // Wrong arity: usage error, exit 2.
    let out = experiments()
        .args(["diff", obs_out.to_str().unwrap()])
        .output()
        .expect("spawn experiments diff with one path");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}
