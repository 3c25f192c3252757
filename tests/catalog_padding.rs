//! Catalog-padding invariance: appending items nobody requests must not
//! change any placement LP solver's work or answer. The placement LPs
//! (§4.3.1's LP (15), Algorithm 1's reduced LP, FC-FR (1) and its column
//! generation) create `x_{v,i}` for requested items only, so the padded
//! instance builds the very same LPs: the same six work counters, the same
//! cost bits, the same placement on the original items and exact zeros on
//! the padded ones. The one exception, the default alternating solver's
//! routing-step pivots, is explained where it is exempted.

use jcr::core::fcfr::{solve_fcfr_cg_with_context, solve_fcfr_with_context, FcfrSolution};
use jcr::core::prelude::*;
use jcr::ctx::{SolverContext, SolverStats};
use jcr::topo::{Topology, TopologyKind};

const ITEMS: usize = 6;
const PADDING: usize = 40;

/// Abovenet with 6 items and room for 2 per cache, so the capacity rows
/// can bind.
fn base() -> Instance {
    InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 4).unwrap())
        .items(ITEMS)
        .cache_capacity(2.0)
        .zipf_demand(0.9, 150.0, 5)
        .link_capacity_fraction(0.4)
        .build()
        .unwrap()
}

/// `inst` with `PADDING` unit-size, unrequested items appended.
fn padded(inst: &Instance) -> Instance {
    let mut item_size = inst.item_size.clone();
    item_size.resize(ITEMS + PADDING, 1.0);
    Instance::new(
        inst.graph.clone(),
        inst.link_cost.clone(),
        inst.link_cap.clone(),
        inst.cache_cap.clone(),
        item_size,
        inst.requests.clone(),
        inst.origin,
    )
    .unwrap()
}

fn counters(s: &SolverStats) -> [u64; 6] {
    [
        s.simplex_pivots,
        s.refactorizations,
        s.dijkstra_calls,
        s.cg_columns,
        s.decomposition_paths,
        s.rounding_passes,
    ]
}

type Solve = fn(&Instance, &SolverContext) -> Result<Solution, JcrError>;

/// Solves `inst` and its padded twin, each with a fresh context, and checks
/// the work counters (all six, or all but the pivot count when
/// `exact_pivots` is false), the cost bits and the placements.
fn assert_same_solution(name: &str, solve: Solve, exact_pivots: bool) {
    let inst = base();
    let wide = padded(&inst);
    let ctx = SolverContext::new();
    let sol = solve(&inst, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
    let wide_ctx = SolverContext::new();
    let wide_sol = solve(&wide, &wide_ctx).unwrap_or_else(|e| panic!("{name} padded: {e}"));

    let (mut got, mut want) = (counters(&wide_ctx.stats()), counters(&ctx.stats()));
    assert!(want[0] > 0, "{name}: no placement LP solved");
    if !exact_pivots {
        (got[0], want[0]) = (0, 0);
    }
    assert_eq!(got, want, "{name}: counters");
    assert_eq!(
        sol.cost(&inst).to_bits(),
        wide_sol.cost(&wide).to_bits(),
        "{name}: cost"
    );
    for v in inst.cache_nodes() {
        for i in 0..ITEMS {
            assert_eq!(
                sol.placement.has(v, i),
                wide_sol.placement.has(v, i),
                "{name}: placement of item {i} at {v:?}"
            );
        }
        for i in ITEMS..ITEMS + PADDING {
            assert!(
                !wide_sol.placement.has(v, i),
                "{name}: padded item {i} placed"
            );
        }
    }
}

#[test]
fn placement_solvers_ignore_unrequested_items() {
    let inst = base();
    let caches = inst.cache_nodes();
    assert!(!caches.is_empty());
    assert!(caches
        .iter()
        .all(|v| inst.cache_cap[v.index()] < ITEMS as f64));
    let solvers: [(&str, Solve, bool); 5] = [
        (
            "SP",
            |inst, ctx| ShortestPathPlacement.solve_with_context(inst, ctx),
            true,
        ),
        (
            "KSP",
            |inst, ctx| IoannidisYeh::k_shortest(3).solve_with_context(inst, ctx),
            true,
        ),
        (
            "Algorithm 1",
            |inst, ctx| Algorithm1::new().solve_with_context(inst, ctx),
            true,
        ),
        // Greedy routing solves no LP, so every pivot is a placement-LP
        // pivot.
        (
            "alternating, greedy routing",
            |inst, ctx| {
                Alternating {
                    routing: RoutingMethod::GreedySequential,
                    ..Alternating::new()
                }
                .solve_with_context(inst, ctx)
                .map(|a| a.solution)
            },
            true,
        ),
        // The default routing step's column-generation master prices its
        // artificial columns at a big-M that grows with the auxiliary
        // graph's node count, which holds one virtual source per catalog
        // item. Padding moves that master's pivots, not the placement LP's.
        (
            "alternating",
            |inst, ctx| {
                Alternating::new()
                    .solve_with_context(inst, ctx)
                    .map(|a| a.solution)
            },
            false,
        ),
    ];
    for (name, solve, exact_pivots) in solvers {
        assert_same_solution(name, solve, exact_pivots);
    }
}

fn assert_same_fcfr(
    name: &str,
    solve: fn(&Instance, &SolverContext) -> Result<FcfrSolution, JcrError>,
) {
    let inst = base();
    let wide = padded(&inst);
    let ctx = SolverContext::new();
    let sol = solve(&inst, &ctx).unwrap();
    let wide_ctx = SolverContext::new();
    let wide_sol = solve(&wide, &wide_ctx).unwrap();

    assert!(ctx.stats().simplex_pivots > 0, "{name}: no pivots");
    assert_eq!(
        counters(&ctx.stats()),
        counters(&wide_ctx.stats()),
        "{name}: counters"
    );
    assert_eq!(sol.cost.to_bits(), wide_sol.cost.to_bits(), "{name}: cost");
    assert_eq!(sol.x.len(), wide_sol.x.len());
    for (row, wide_row) in sol.x.iter().zip(&wide_sol.x) {
        assert_eq!(row.len(), ITEMS);
        assert_eq!(wide_row.len(), ITEMS + PADDING);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(row), bits(&wide_row[..ITEMS]), "{name}: x");
        assert!(
            wide_row[ITEMS..].iter().all(|&x| x.to_bits() == 0),
            "{name}: padded items must be exactly 0.0"
        );
    }
}

#[test]
fn fcfr_ignores_unrequested_items() {
    assert_same_fcfr("FC-FR", solve_fcfr_with_context);
    assert_same_fcfr("FC-FR CG", solve_fcfr_cg_with_context);
}
