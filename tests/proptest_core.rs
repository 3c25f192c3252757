//! Randomized property tests across the whole stack: random edge-caching
//! instances must yield feasible, fully-serving solutions from every
//! algorithm, with the structural cost relations the theory requires.
//! Cases come from the in-tree seeded PRNG, so every run is identical.

use jcr::core::prelude::*;
use jcr::core::{alg1, alg2, rnr};
use jcr::ctx::rng::{Rng, SeedableRng, StdRng};
use jcr::ctx::SolverContext;
use jcr::topo::Topology;

const CASES: u64 = 24;

#[derive(Debug, Clone)]
struct RandomInstance {
    topo_seed: u64,
    demand_seed: u64,
    n_items: usize,
    zeta: f64,
    alpha: f64,
    kappa_fraction: Option<f64>,
}

fn random_instance(rng: &mut StdRng) -> RandomInstance {
    RandomInstance {
        topo_seed: rng.gen_range(0..200u64),
        demand_seed: rng.gen_range(0..200u64),
        n_items: rng.gen_range(2..10usize),
        zeta: rng.gen_range(1.0..4.0),
        alpha: rng.gen_range(0.2..1.5),
        kappa_fraction: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(0.02..0.2))
        },
    }
}

fn build(ri: &RandomInstance) -> Instance {
    let topo = Topology::generate_custom(12, 16, 3, ri.topo_seed).unwrap();
    let mut b = InstanceBuilder::new(topo)
        .items(ri.n_items)
        .cache_capacity(ri.zeta)
        .zipf_demand(ri.alpha, 500.0, ri.demand_seed);
    b = match ri.kappa_fraction {
        Some(fr) => b.link_capacity_fraction(fr),
        None => b.unlimited_links(),
    };
    b.build().unwrap()
}

/// Algorithm 1 always yields a feasible solution at least as good as
/// origin-only serving, with RNR-consistent routing.
#[test]
fn alg1_invariants() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x636f_3031 + case);
        let ri = random_instance(&mut rng);
        let inst = build(&ri);
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        assert!(sol.placement.is_feasible(&inst), "case {case}");
        assert!(sol.routing.serves_all(&inst), "case {case}");
        assert!(
            sol.routing.sources_valid(&inst, &sol.placement),
            "case {case}"
        );
        let origin_only = rnr::rnr_cost(&inst, &Placement::empty(&inst)).unwrap();
        assert!(sol.cost(&inst) <= origin_only + 1e-6, "case {case}");
        // RNR of the final placement IS the routing Alg1 returns.
        let rnr_cost = rnr::rnr_cost(&inst, &sol.placement).unwrap();
        assert!((sol.cost(&inst) - rnr_cost).abs() < 1e-6, "case {case}");
        // Monotonicity of the saving objective: caching helped or tied.
        assert!(
            alg1::f_rnr(&inst, &sol.placement)
                >= alg1::f_rnr(&inst, &Placement::empty(&inst)) - 1e-9,
            "case {case}"
        );
    }
}

/// The alternating optimization stays feasible, serves everything, and
/// never ends above the origin-only cost.
#[test]
fn alternating_invariants() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x636f_3032 + case);
        let mut ri = random_instance(&mut rng);
        // Alternating needs capacities to be interesting but must stay
        // feasible: the builder's augmentation guarantees that.
        if ri.kappa_fraction.is_none() {
            ri.kappa_fraction = Some(0.05);
        }
        let inst = build(&ri);
        let result = Alternating {
            seed: ri.demand_seed,
            ..Alternating::default()
        }
        .solve_with_context(&inst, &ctx)
        .unwrap();
        let sol = &result.solution;
        assert!(sol.placement.is_feasible(&inst), "case {case}");
        assert!(sol.routing.serves_all(&inst), "case {case}");
        assert!(
            sol.routing.sources_valid(&inst, &sol.placement),
            "case {case}"
        );
        assert!(sol.routing.is_integral(), "case {case}");
        // History is non-increasing in cost and starts at the initial
        // solution.
        for w in result.history.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "case {case}");
        }
    }
}

/// Binary-cache Algorithm 2 obeys Theorem 4.7's cost bound for random
/// storers and K.
#[test]
fn alg2_invariants() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x636f_3033 + case);
        let mut ri = random_instance(&mut rng);
        let k = rng.gen_range(1..8u32);
        let storer_pick = rng.gen_range(0..3usize);
        ri.kappa_fraction = Some(ri.kappa_fraction.map_or(0.05, |f| f.max(0.03)));
        let inst = build(&ri);
        let cache_nodes = inst.cache_nodes();
        let storer = cache_nodes[storer_pick % cache_nodes.len()];
        let sol = alg2::solve_binary_caches_with_context(&inst, &[storer], k, &ctx).unwrap();
        assert!(sol.solution.routing.serves_all(&inst), "case {case}");
        // Paths are chosen optimally for the Eq. (11) rounded-down demands
        // (each within a factor 2^{1/K} of the original), so routing the
        // original demands costs at most 2^{1/K} × the splittable optimum.
        let bound = 2f64.powf(1.0 / k as f64) * sol.splittable_cost;
        assert!(
            sol.solution.cost(&inst) <= bound + 1e-6,
            "case {case}: cost {} vs 2^(1/{k})·splittable = {bound}",
            sol.solution.cost(&inst)
        );
        // The unconstrained RNR cost floors everything.
        let floor = alg2::rnr_binary(&inst, &[storer]).unwrap().cost(&inst);
        assert!(sol.solution.cost(&inst) + 1e-6 >= floor, "case {case}");
    }
}

/// Serialization round-trips preserve solver behaviour.
#[test]
fn serialization_round_trip() {
    let ctx = SolverContext::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x636f_3034 + case);
        let ri = random_instance(&mut rng);
        let inst = build(&ri);
        let back = jcr::core::serial::from_text(&jcr::core::serial::to_text(&inst)).unwrap();
        let a = Algorithm1::new()
            .solve_with_context(&inst, &ctx)
            .unwrap()
            .cost(&inst);
        let b = Algorithm1::new()
            .solve_with_context(&back, &ctx)
            .unwrap()
            .cost(&back);
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()), "case {case}");
    }
}
