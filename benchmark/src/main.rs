//! Command line of the end-to-end benchmark:
//!
//! ```text
//! jcr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a manifest line, then the result object as the last line of
//! standard output. Exits 1 when the outputs cannot be trusted (a
//! solution failed certification or a repetition disagreed), 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use jcr_benchmark::{one_line, run, Options, Size, Workload};

const USAGE: &str =
    "usage: jcr-benchmark --workload <paper_grid|online_100h|stress_solve|lp_free> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out_dir = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from(".bench_trace").join(workload.name())),
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("[benchmark] {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}", one_line(&report.manifest));
    println!("{}", one_line(&report.result_json()));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        for p in &report.problems {
            eprintln!("[benchmark] {p}");
        }
        ExitCode::from(1)
    }
}
