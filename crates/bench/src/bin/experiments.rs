//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--runs N] [--hours N] [--seed N] [--workers N] [--full] [--out PATH]
//! experiments diff <a> <b> [--phase NAME] [--top N] [--workers-compare] [--out PATH]
//!
//!   ids: fig4 fig5 fig6 fig7 fig8 fig9 fig11 fig12 fig13 fig15 cases zipf convergence online ablation topology
//!        table1 table2 table3 table4 stats faults adversary chaos trace all
//! ```
//!
//! Run with `--release`; the quick defaults finish in minutes, `--full`
//! uses paper-scale sweeps.
//!
//! `trace` runs a seeded solve under span instrumentation and writes a
//! Chrome Trace Event file (`--out`, default `TRACE.json`, loadable at
//! <https://ui.perfetto.dev>), a collapsed-stack `.folded` profile, and
//! the canonical observability snapshot (`.obs.json`) beside it. Setting
//! `JCR_TRACE=path` overrides the default output path and appends
//! `trace` to any invocation that didn't request it.
//!
//! `diff` loads two such snapshots and prints the attributed delta
//! report — per-span self-time deltas ranked by contribution to the
//! wall-clock difference, counter deltas, and histogram shifts — so a
//! regression names its guilty span.

use jcr_bench::diff::{self, DiffOpts};
use jcr_bench::exp::{self, ExpConfig};
use jcr_bench::{profile, HorizonError};
use jcr_trace::videos::EVAL_HOURS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::default();
    let mut out: Option<String> = None;
    let mut diff_opts = DiffOpts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                cfg.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--runs needs a number"));
            }
            "--hours" => {
                cfg.hours = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--hours needs a number"));
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--workers" => {
                cfg.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a number"));
            }
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a path")),
                );
            }
            "--phase" => {
                diff_opts.phase = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| usage("--phase needs a span name")),
                );
            }
            "--top" => {
                diff_opts.top = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--top needs a number"));
            }
            "--workers-compare" => diff_opts.workers_compare = true,
            "--full" => cfg.full = true,
            "--help" | "-h" => usage(""),
            id if !id.starts_with('-') => ids.push(id.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    // `diff <a> <b>` is a standalone subcommand: the two positional
    // arguments are snapshot paths, not experiment ids.
    if ids.first().map(String::as_str) == Some("diff") {
        if ids.len() != 3 {
            usage("diff needs exactly two snapshot paths: experiments diff <a> <b>");
        }
        diff_opts.out = out.clone();
        if let Err(msg) = diff::run(&ids[1], &ids[2], &diff_opts) {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
        return;
    }
    let env_trace = std::env::var("JCR_TRACE").ok().filter(|p| !p.is_empty());
    if ids.is_empty() && env_trace.is_none() {
        usage("no experiment id given");
    }
    if ids.iter().any(|i| i == "all") {
        ids = [
            "table1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig11",
            "fig12",
            "fig13",
            "fig15",
            "cases",
            "zipf",
            "convergence",
            "online",
            "ablation",
            "sim",
            "gap",
            "table2",
            "table3",
            "table4",
            "stats",
            "faults",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    // JCR_TRACE=path: default trace output path, and an implicit `trace`
    // run appended to invocations that didn't ask for one.
    if let Some(path) = &env_trace {
        if !ids.iter().any(|i| i == "trace") {
            ids.push("trace".to_string());
        }
        eprintln!("[experiments] JCR_TRACE={path}: tracing to {path}");
    }
    // Refuse, before anything runs, an experiment that would read past
    // the view trace's evaluation horizon (it would panic mid-run). The
    // experiments that simulate no hours read no trace, and neither does
    // chaos, whose hours are synthetic.
    for id in ids.iter().filter(|id| id.as_str() != "chaos") {
        let Some(hours) = cfg.hours_run(id) else {
            continue;
        };
        if hours > EVAL_HOURS {
            let err = HorizonError {
                hours,
                limit: EVAL_HOURS,
            };
            eprintln!("error: {id}: {err}");
            std::process::exit(1);
        }
    }
    for id in &ids {
        let hours = cfg
            .hours_run(id)
            .map(|h| format!(", hours={h}"))
            .unwrap_or_default();
        eprintln!(
            "[experiments] running {id} (runs={}{hours}, full={})",
            cfg.runs, cfg.full
        );
        match id.as_str() {
            "fig4" => exp::fig4(cfg),
            "fig5" => exp::fig5(cfg),
            "fig6" => exp::fig6(cfg),
            "fig7" => exp::fig7(cfg),
            "fig8" => exp::fig8(cfg),
            "fig9" => exp::fig9(cfg),
            "fig11" => exp::fig11(cfg),
            "fig12" => exp::fig12(cfg),
            "fig13" => exp::fig13(cfg),
            "fig15" => exp::fig15(cfg),
            "cases" => exp::cases(cfg),
            "convergence" => exp::convergence(cfg),
            "online" => {
                if let Err(e) = exp::online(cfg) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            "ablation" => exp::ablation(cfg),
            "topology" => exp::topology(cfg),
            "sim" => exp::sim(cfg),
            "gap" => exp::gap(cfg),
            "zipf" => exp::zipf(cfg),
            "table1" => exp::table1(cfg),
            "table2" => exp::table2(cfg),
            "table3" => exp::table3(cfg),
            "table4" => exp::table4(cfg),
            "stats" => exp::stats(cfg),
            "faults" => exp::faults(cfg),
            "adversary" => {
                if let Err(msg) = jcr_bench::adversary::adversary(cfg) {
                    eprintln!("error: {msg}");
                    std::process::exit(1);
                }
            }
            "chaos" => {
                if let Err(msg) = jcr_bench::chaos::chaos(cfg) {
                    eprintln!("error: {msg}");
                    std::process::exit(1);
                }
            }
            "trace" => {
                let path = env_trace
                    .clone()
                    .or_else(|| out.clone())
                    .unwrap_or_else(|| "TRACE.json".to_string());
                if let Err(msg) = profile::trace_run(cfg, &path) {
                    eprintln!("error: {msg}");
                    std::process::exit(1);
                }
            }
            other => usage(&format!("unknown experiment {other}")),
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments <id>... [--runs N] [--hours N] [--seed N] [--workers N] [--full] \
         [--out PATH]\n\
       experiments diff <a> <b> [--phase NAME] [--top N] [--workers-compare] [--out PATH]\n\
         ids: fig4 fig5 fig6 fig7 fig8 fig9 fig11 fig12 fig13 fig15 cases zipf convergence online ablation topology \
         table1 table2 table3 table4 stats faults adversary chaos trace all\n\
         `adversary` fuzzes ≥ 200 seeded hostile instances (5 families) against every solver with \
         independent certificate verification; exits nonzero on any panic or unverified claim.\n\
         `chaos` kills/resumes the online loop at snapshot boundaries and replays corrupted, truncated,\n\
         stale, and foreign snapshots; exits nonzero unless resume is bit-identical with zero panics.\n\
         `diff` compares two obs snapshots (`TRACE.obs.json`, written by `trace` next to `--out`) and prints\n\
         span/counter/histogram deltas ranked by contribution to the wall-clock difference.\n\
         env: JCR_TRACE=path  write a Chrome trace (implies a trailing `trace` run)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
