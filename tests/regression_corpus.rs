//! Replays the committed regression corpus (`proptest-regressions/`) so
//! seeds that once exposed a bug run on every `cargo test` — a fixed
//! failure can never silently come back. See
//! `proptest-regressions/README.md` for the file formats and the
//! append-on-find workflow.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jcr::core::prelude::*;
use jcr::ctx::rng::{Rng, SeedableRng, StdRng};
use jcr::ctx::SolverContext;
use jcr::topo::Topology;
use jcr_bench::adversary;

/// Reads a corpus file, stripping `#` comments and blank lines.
fn corpus_lines(name: &str) -> Vec<String> {
    let path = format!("{}/proptest-regressions/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading corpus {path}: {e}"))
        .lines()
        .filter_map(|l| {
            let l = l.split('#').next().unwrap_or("").trim();
            (!l.is_empty()).then(|| l.to_string())
        })
        .collect()
}

/// Every `adversary.txt` entry replays panic-free with no unverified
/// claim (typed solver errors are acceptable — they are the contract).
#[test]
fn adversary_corpus_stays_fixed() {
    let lines = corpus_lines("adversary.txt");
    assert!(!lines.is_empty(), "adversary corpus must not be empty");
    for line in &lines {
        let (name, seed) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("corpus line {line:?}: want `<family> <seed>`"));
        let family = adversary::Family::by_name(name)
            .unwrap_or_else(|| panic!("corpus line {line:?}: unknown family {name:?}"));
        let seed: u64 = seed
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("corpus line {line:?}: bad seed: {e}"));
        match catch_unwind(AssertUnwindSafe(|| adversary::replay(family, seed))) {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => panic!("corpus {line}: unverified claim came back: {msg}"),
            Err(_) => panic!("corpus {line}: panic came back"),
        }
    }
}

/// Builds the same random edge-caching instance shape as
/// `tests/proptest_core.rs` from one corpus seed.
fn build_from_seed(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo_seed = rng.gen_range(0..200u64);
    let demand_seed = rng.gen_range(0..200u64);
    let n_items = rng.gen_range(2..10usize);
    let zeta = rng.gen_range(1.0..4.0f64);
    let alpha = rng.gen_range(0.2..1.5f64);
    let kappa: Option<f64> = if rng.gen_bool(0.5) {
        None
    } else {
        Some(rng.gen_range(0.02..0.2))
    };
    let topo = Topology::generate_custom(12, 16, 3, topo_seed).expect("shape is generator-valid");
    let mut b = InstanceBuilder::new(topo)
        .items(n_items)
        .cache_capacity(zeta)
        .zipf_demand(alpha, 500.0, demand_seed);
    b = match kappa {
        Some(fr) => b.link_capacity_fraction(fr),
        None => b.unlimited_links(),
    };
    b.build().expect("builder scenarios are feasible")
}

/// Every `core.txt` seed solves feasibly with verified certificates
/// through both Algorithm 1 and the alternating solver.
#[test]
fn core_corpus_stays_fixed() {
    let ctx = SolverContext::new();
    let lines = corpus_lines("core.txt");
    assert!(!lines.is_empty(), "core corpus must not be empty");
    for line in &lines {
        let seed: u64 = line
            .parse()
            .unwrap_or_else(|e| panic!("corpus line {line:?}: bad seed: {e}"));
        let inst = build_from_seed(seed);

        let sol = Algorithm1::new()
            .solve_with_context(&inst, &ctx)
            .unwrap_or_else(|e| panic!("seed {seed}: alg1 failed: {e}"));
        assert!(sol.placement.is_feasible(&inst), "seed {seed}");
        assert!(sol.routing.serves_all(&inst), "seed {seed}");
        let cert = certify_solution(&inst, &sol, false);
        assert!(
            cert.verified(),
            "seed {seed}: alg1 certificate: {}",
            cert.failure_summary()
        );

        let alt = Alternating {
            seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap_or_else(|e| panic!("seed {seed}: alternating failed: {e}"));
        assert!(
            alt.certificate.verified(),
            "seed {seed}: alternating certificate: {}",
            alt.certificate.failure_summary()
        );
    }
}
