//! LP-equivalence corpus: the committed reference objectives in
//! `tests/data/lp_equivalence.json` were recorded with the pre-refactor
//! *dense* basis-inverse simplex. The current solver (sparse LU with eta
//! updates and Devex pricing) must reproduce every outcome — the same
//! optimal/infeasible/unbounded classification, and objective values
//! equal to certificate tolerance — even though its pivot sequences are
//! completely different.
//!
//! The corpus spans the LP shapes the stack actually solves:
//!
//! * column-generation masters on the four paper topologies
//!   (Abovenet/Abvt/Tinet/Deltacom), tight-capacity multicommodity flow;
//! * the five adversarial instance families of `experiments adversary`
//!   (degenerate ties, zero-cost cycles, 1e±9 cost dynamic range,
//!   near-redundant capacities, hostile Zipf tails);
//! * placement-style maximization LPs (coverage `z ≤ Σ x` rows under
//!   knapsack capacity rows), the alternating step's LP shape;
//! * degenerate transportation grids and seeded random box LPs.
//!
//! CI runs this suite inside the `JCR_WORKERS={1,2,8}` determinism
//! matrix: every corpus value is bit-identical at any pool width (the
//! multicommodity solver's determinism contract), so the reference file
//! needs no per-width variants.
//!
//! Re-recording (only legitimate when the *reference semantics* change,
//! e.g. a new corpus entry — never to paper over a solver regression):
//!
//! ```text
//! JCR_RECORD_LP_EQUIVALENCE=1 cargo test --test lp_equivalence
//! ```

use jcr::ctx::json::Json;
use jcr::ctx::rng::{Rng, SeedableRng, StdRng};
use jcr::ctx::SolverContext;
use jcr::flow::multicommodity::{min_cost_multicommodity_with_context, Commodity};
use jcr::flow::FlowError;
use jcr::graph::{DiGraph, NodeId};
use jcr::lp::{LpError, Model, Sense};
use jcr::topo::{Topology, TopologyKind};
use jcr_bench::adversary::{build_case, FAMILIES};

/// One corpus entry: a named LP instance and its recorded outcome.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Solved to optimality with this objective value.
    Optimal(f64),
    /// No feasible point (solver-independent classification).
    Infeasible,
    /// Unbounded in the optimization direction.
    Unbounded,
    /// Any other typed error, keyed by a stable kind string.
    Error(String),
}

impl Outcome {
    fn to_json(&self) -> Json {
        match self {
            Outcome::Optimal(v) => Json::obj([
                ("outcome", Json::Str("optimal".into())),
                ("objective", Json::Num(*v)),
            ]),
            Outcome::Infeasible => Json::obj([("outcome", Json::Str("infeasible".into()))]),
            Outcome::Unbounded => Json::obj([("outcome", Json::Str("unbounded".into()))]),
            Outcome::Error(kind) => Json::obj([
                ("outcome", Json::Str("error".into())),
                ("kind", Json::Str(kind.clone())),
            ]),
        }
    }

    fn from_json(doc: &Json) -> Option<Outcome> {
        match doc.get("outcome")?.as_str()? {
            "optimal" => Some(Outcome::Optimal(doc.get("objective")?.as_f64()?)),
            "infeasible" => Some(Outcome::Infeasible),
            "unbounded" => Some(Outcome::Unbounded),
            "error" => Some(Outcome::Error(doc.get("kind")?.as_str()?.to_string())),
            _ => None,
        }
    }
}

fn lp_outcome(result: Result<jcr::lp::Solution, LpError>) -> Outcome {
    match result {
        Ok(sol) => Outcome::Optimal(sol.objective),
        Err(LpError::Infeasible) => Outcome::Infeasible,
        Err(LpError::Unbounded) => Outcome::Unbounded,
        Err(LpError::Numerical(_)) => Outcome::Error("numerical".into()),
        Err(LpError::NumericalBreakdown(_)) => Outcome::Error("breakdown".into()),
        Err(LpError::Budget(_)) => Outcome::Error("budget".into()),
    }
}

fn mcf_outcome(g: &DiGraph, cost: &[f64], cap: &[f64], commodities: &[Commodity]) -> Outcome {
    let ctx = SolverContext::new();
    match min_cost_multicommodity_with_context(g, cost, cap, commodities, &[], &ctx) {
        Ok((sol, _)) => Outcome::Optimal(sol.cost),
        Err(FlowError::Infeasible) => Outcome::Infeasible,
        Err(FlowError::Numerical(_)) => Outcome::Error("numerical".into()),
        Err(FlowError::NumericalBreakdown(_)) => Outcome::Error("breakdown".into()),
        Err(FlowError::Budget(_)) => Outcome::Error("budget".into()),
    }
}

/// Column-generation master on a paper topology: every edge node demands
/// flow from the origin under uniformly tight link capacities.
fn paper_topology_entry(kind: TopologyKind, seed: u64) -> (String, Outcome) {
    let topo = Topology::generate(kind, seed).expect("paper topology generates");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(17));
    let commodities: Vec<Commodity> = topo
        .edge_nodes
        .iter()
        .map(|&dest| Commodity {
            source: topo.origin,
            dest,
            demand: rng.gen_range(0.5..2.0),
        })
        .collect();
    let total: f64 = commodities.iter().map(|c| c.demand).sum();
    // Ample capacity on the origin's gateway links (all demand must leave
    // the origin), tight capacity in the core so the master has to split
    // flow and re-price.
    let mut cap = vec![total / 3.0; topo.graph.edge_count()];
    for (e, _) in topo.graph.out_pairs(topo.origin) {
        cap[e.index()] = total;
    }
    let name = format!("paper/{:?}/seed{}", kind, seed);
    (
        name,
        mcf_outcome(&topo.graph, &topo.cost, &cap, &commodities),
    )
}

/// Multicommodity LP derived from one adversarial fuzzer instance:
/// per-node aggregate demand routed from the origin under the instance's
/// own hostile link costs and capacities.
fn adversary_entry(family: jcr_bench::adversary::Family, seed: u64) -> (String, Outcome) {
    let name = format!("adversary/{}/seed{}", family.name(), seed);
    let inst = match build_case(family, seed) {
        Ok(inst) => inst,
        Err(_) => return (name, Outcome::Error("build".into())),
    };
    let origin = inst.origin.expect("fuzzer instances have an origin");
    // Aggregate request rates per node, in first-seen node order.
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut demand: Vec<f64> = Vec::new();
    for r in &inst.requests {
        match nodes.iter().position(|&v| v == r.node) {
            Some(i) => demand[i] += r.rate,
            None => {
                nodes.push(r.node);
                demand.push(r.rate);
            }
        }
    }
    // Scale the aggregate demand to fit under the origin's out-capacity
    // so a reasonable share of the hostile cases stays feasible; the
    // hostile *costs* (ties, zero cycles, 1e±9 range) are the point.
    let cap_out: f64 = inst
        .graph
        .out_pairs(origin)
        .map(|(e, _)| inst.link_cap[e.index()])
        .sum();
    let total: f64 = demand.iter().sum();
    let scale = if cap_out.is_finite() && total > 0.45 * cap_out {
        0.45 * cap_out / total
    } else {
        1.0
    };
    let commodities: Vec<Commodity> = nodes
        .iter()
        .zip(&demand)
        .map(|(&dest, &d)| Commodity {
            source: origin,
            dest,
            demand: d * scale,
        })
        .collect();
    (
        name,
        mcf_outcome(&inst.graph, &inst.link_cost, &inst.link_cap, &commodities),
    )
}

/// Placement-style LP: maximize Σ w_s·z_s with coverage rows
/// `z_s − Σ_{(v,i)∈S_s} x_{v,i} ≤ 0` and per-node knapsack rows
/// `Σ_i x_{v,i} ≤ c_v` — the exact shape of the alternating placement
/// step, at paper-ish dimensions.
fn placement_style_entry(seed: u64) -> (String, Outcome) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x517c_c1b7).wrapping_add(3));
    let n_nodes = 6usize;
    let n_items = 8usize;
    let n_segments = 40;
    let mut m = Model::new(Sense::Maximize);
    let x: Vec<Vec<jcr::lp::VarId>> = (0..n_nodes)
        .map(|_| (0..n_items).map(|_| m.add_var(0.0, 1.0, 0.0)).collect())
        .collect();
    for row in &x {
        let entries: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_row(f64::NEG_INFINITY, rng.gen_range(1.5..3.5), &entries);
    }
    for _ in 0..n_segments {
        let w = rng.gen_range(0.1..5.0);
        let z = m.add_var(0.0, 1.0, w);
        let item = rng.gen_range(0..n_items);
        let picks = rng.gen_range(1..4usize);
        let mut entries = vec![(z, 1.0)];
        for _ in 0..picks {
            let v = rng.gen_range(0..n_nodes);
            entries.push((x[v][item], -1.0));
        }
        m.add_row(f64::NEG_INFINITY, 0.0, &entries);
    }
    (
        format!("placement/seed{}", seed),
        lp_outcome(m.solve_with_context(&SolverContext::new())),
    )
}

/// Degenerate transportation grid with tied costs: every basis is
/// massively degenerate, the classic cycling playground.
fn transportation_entry(side: usize) -> (String, Outcome) {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<Vec<jcr::lp::VarId>> = (0..side)
        .map(|i| {
            (0..side)
                .map(|j| m.add_var(0.0, f64::INFINITY, ((i + j) % 3) as f64 + 1.0))
                .collect()
        })
        .collect();
    for row in &vars {
        let entries: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
        m.add_row(10.0, 10.0, &entries);
    }
    for j in 0..side {
        let entries: Vec<_> = vars.iter().map(|row| (row[j], 1.0)).collect();
        m.add_row(10.0, 10.0, &entries);
    }
    (
        format!("transport/{}x{}", side, side),
        lp_outcome(m.solve_with_context(&SolverContext::new())),
    )
}

/// Seeded random bounded-variable LP, always feasible at x = 0.
fn random_box_entry(seed: u64) -> (String, Outcome) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(6_364_136_223_846_793_005));
    let n = rng.gen_range(8..16);
    let rows = rng.gen_range(4..10);
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|_| m.add_var(0.0, rng.gen_range(0.5..4.0), rng.gen_range(-2.0..3.0)))
        .collect();
    for _ in 0..rows {
        let entries: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(0.0..2.0))).collect();
        m.add_row(f64::NEG_INFINITY, rng.gen_range(1.0..6.0), &entries);
    }
    (
        format!("randbox/seed{}", seed),
        lp_outcome(m.solve_with_context(&SolverContext::new())),
    )
}

/// Builds the whole corpus, in a fixed deterministic order.
fn corpus() -> Vec<(String, Outcome)> {
    let mut entries = Vec::new();
    for kind in [
        TopologyKind::Abovenet,
        TopologyKind::Abvt,
        TopologyKind::Tinet,
        TopologyKind::Deltacom,
    ] {
        for seed in [1, 2] {
            entries.push(paper_topology_entry(kind, seed));
        }
    }
    for &family in &FAMILIES {
        for seed in [3, 7] {
            entries.push(adversary_entry(family, seed));
        }
    }
    for seed in [5, 6, 7] {
        entries.push(placement_style_entry(seed));
    }
    for side in [4, 6] {
        entries.push(transportation_entry(side));
    }
    for seed in [11, 12, 13] {
        entries.push(random_box_entry(seed));
    }
    entries
}

fn data_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/lp_equivalence.json")
}

/// Objective agreement tolerance. Direct LP objectives agree to the
/// certificate's duality-gap scale; column-generation costs additionally
/// absorb the pricing-termination threshold, so multicommodity entries
/// get an order of magnitude more headroom.
fn tolerance(name: &str, reference: f64) -> f64 {
    let rel = if name.starts_with("paper/") || name.starts_with("adversary/") {
        1e-5
    } else {
        1e-6
    };
    rel * (1.0 + reference.abs())
}

#[test]
fn corpus_matches_committed_reference() {
    let fresh = corpus();
    let path = data_path();

    if std::env::var("JCR_RECORD_LP_EQUIVALENCE").is_ok() {
        let doc = Json::Arr(
            fresh
                .iter()
                .map(|(name, out)| {
                    let mut obj = out.to_json();
                    if let Json::Obj(map) = &mut obj {
                        map.insert("name".into(), Json::Str(name.clone()));
                    }
                    obj
                })
                .collect(),
        );
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, doc.render()).unwrap();
        eprintln!(
            "[lp_equivalence] recorded {} entries to {:?}",
            fresh.len(),
            path
        );
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing committed reference {path:?} ({e}); record it with \
             JCR_RECORD_LP_EQUIVALENCE=1 cargo test --test lp_equivalence"
        )
    });
    let doc = Json::parse(&text).expect("reference parses");
    let refs = doc.as_arr().expect("reference is an array");
    assert_eq!(
        refs.len(),
        fresh.len(),
        "corpus size changed: re-record the reference (and justify why)"
    );

    let mut failures = Vec::new();
    for ((name, got), reference) in fresh.iter().zip(refs) {
        let ref_name = reference.get("name").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(name, ref_name, "corpus order drifted from the reference");
        let want = Outcome::from_json(reference)
            .unwrap_or_else(|| panic!("malformed reference entry {name}"));
        match (&want, got) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                let tol = tolerance(name, *a);
                if (a - b).abs() > tol {
                    failures.push(format!(
                        "{name}: objective {b:.12e} != reference {a:.12e} (|Δ| = {:.3e} > {tol:.3e})",
                        (a - b).abs()
                    ));
                }
            }
            (a, b) if a == b => {}
            (a, b) => failures.push(format!("{name}: outcome {b:?} != reference {a:?}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus divergence(s) from the dense-simplex reference:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// The corpus itself must be deterministic — identical on repeated
/// construction within one process (seeded RNGs, no ambient state).
#[test]
fn corpus_construction_is_deterministic() {
    let a = corpus();
    let b = corpus();
    assert_eq!(a.len(), b.len());
    for ((na, oa), (nb, ob)) in a.iter().zip(&b) {
        assert_eq!(na, nb);
        match (oa, ob) {
            (Outcome::Optimal(x), Outcome::Optimal(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{na}: nondeterministic objective")
            }
            (x, y) => assert_eq!(x, y, "{na}"),
        }
    }
}
