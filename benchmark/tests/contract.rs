//! The benchmark against its own contract, on reduced inputs: the metric
//! set matches `BENCHMARK.json` both ways, names are well formed, runs
//! repeat exactly, and traced layer self time covers the measured calls.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use jcr_bench::json::Json;
use jcr_benchmark::{run, Options, Report, Size, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to benchmark/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// One reduced run per workload and mode, shared by every test.
fn reports() -> &'static Vec<(Workload, bool, Report)> {
    static REPORTS: OnceLock<Vec<(Workload, bool, Report)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let mut out = Vec::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = Options {
                    workload,
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
                        .join("trace")
                        .join(workload.name()),
                    size: Size::Reduced,
                };
                let report = run(&opts).expect("reduced run succeeds");
                out.push((workload, trace, report));
            }
        }
        out
    })
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads = names(&doc, "workloads");
    let listed: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, listed);
    for (workload, trace, report) in reports() {
        let expected = names(&doc, if *trace { "per_layer" } else { "end_to_end" });
        let emitted: BTreeSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            emitted.len(),
            report.metrics.len(),
            "{workload:?} emits a metric twice"
        );
        assert_eq!(emitted, expected, "{workload:?} trace={trace}");
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }
}

#[test]
fn names_and_units_are_well_formed() {
    let doc = benchmark_json();
    let is_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in doc.get(key).and_then(Json::as_arr).expect("array") {
            let name = entry.get("name").and_then(Json::as_str).expect("name");
            assert!(is_name(name), "{name:?}");
            assert!(seen.insert(name.to_string()), "{name:?} is listed twice");
            if let Some(unit) = entry.get("unit").and_then(Json::as_str) {
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{name}: unit {unit:?}"
                );
            }
        }
    }
    for (_, _, report) in reports() {
        for m in &report.metrics {
            assert!(is_name(&m.name), "{:?}", m.name);
        }
    }
}

#[test]
fn repeated_runs_agree_exactly() {
    for pair in reports().chunks(2) {
        let [(workload, _, plain), (_, _, traced)] = pair else {
            unreachable!("one untraced and one traced run per workload")
        };
        assert!(plain.correct(), "{workload:?}: {:?}", plain.problems);
        assert!(traced.correct(), "{workload:?}: {:?}", traced.problems);
        assert_eq!(plain.failed, 0, "{workload:?}");
        assert_eq!(plain.input_checksum, traced.input_checksum, "{workload:?}");
        assert_eq!(
            plain.output_checksum, traced.output_checksum,
            "{workload:?}"
        );
        assert_eq!(plain.counters, traced.counters, "{workload:?}");
    }
}

#[test]
fn layer_self_time_covers_the_traced_calls() {
    for (workload, trace, report) in reports() {
        if !trace || *workload == Workload::Online100h {
            continue;
        }
        let coverage = report.layer_coverage.expect("traced runs report coverage");
        assert!(coverage >= 0.9, "{workload:?}: coverage {coverage}");
    }
}

#[test]
fn workloads_quote_their_recorded_input_checksums() {
    let recorded = Json::parse(jcr_benchmark::RECORDED).expect("recorded.json parses");
    for entry in benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("array")
    {
        let name = entry.get("name").and_then(Json::as_str).expect("name");
        let why = entry.get("why").and_then(Json::as_str).expect("why");
        let input = recorded
            .get(name)
            .and_then(|w| w.get("input"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("recorded.json has {name}'s input checksum"));
        assert!(
            why.ends_with(&format!("seed-0 inputs {input}")),
            "{name}: {why:?} does not quote {input}"
        );
    }
}

#[test]
fn result_object_has_exactly_the_contract_keys() {
    for (_, _, report) in reports() {
        let Json::Obj(map) = report.result_json() else {
            panic!("the result is an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(report.attempted >= 1);
    }
}
