//! The FemtoCaching special case of §4.1.4: pure requesters one hop from
//! pure caches (a bipartite helper network) plus a distant origin server.
//! Algorithm 1 must match the structure-specific guarantees: the
//! `(1 − 1/e)` bound of \[32\] (verified against brute force) and the
//! route-to-nearest-helper behaviour.

use jcr::core::alg1::{f_rnr, Algorithm1};
use jcr::core::instance::{Instance, Request};
use jcr::core::placement::Placement;
use jcr::ctx::SolverContext;
use jcr::graph::DiGraph;
use jcr::graph::NodeId;

/// Builds the bipartite helper network: `n_helpers` caches, `n_users`
/// requesters, every helper→user link of cost `w1`, origin→user of cost
/// `w0 > w1`.
fn femto_instance(
    n_helpers: usize,
    n_users: usize,
    n_items: usize,
    zeta: f64,
    w1: f64,
    w0: f64,
    coverage: impl Fn(usize, usize) -> bool,
) -> (Instance, Vec<NodeId>) {
    let mut g = DiGraph::new();
    let origin = g.add_node();
    let helpers: Vec<_> = (0..n_helpers).map(|_| g.add_node()).collect();
    let users: Vec<_> = (0..n_users).map(|_| g.add_node()).collect();
    let mut cost = Vec::new();
    for (hi, &h) in helpers.iter().enumerate() {
        for (ui, &u) in users.iter().enumerate() {
            if coverage(hi, ui) {
                g.add_edge(h, u);
                cost.push(w1);
            }
        }
    }
    for &u in &users {
        g.add_edge(origin, u);
        cost.push(w0);
    }
    let cap = vec![f64::INFINITY; g.edge_count()];
    let mut cache_cap = vec![0.0; g.node_count()];
    for &h in &helpers {
        cache_cap[h.index()] = zeta;
    }
    // Every user requests every item, with rank-decaying rates.
    let requests: Vec<Request> = users
        .iter()
        .enumerate()
        .flat_map(|(ui, &u)| {
            (0..n_items).map(move |i| Request {
                item: i,
                node: u,
                rate: 10.0 / (1.0 + i as f64) + ui as f64 * 0.1,
            })
        })
        .collect();
    let inst = Instance::new(
        g,
        cost,
        cap,
        cache_cap,
        vec![1.0; n_items],
        requests,
        Some(origin),
    )
    .unwrap();
    (inst, helpers)
}

fn brute_force_opt(inst: &Instance) -> f64 {
    let cache_nodes = inst.cache_nodes();
    let n_items = inst.num_items();
    let slots: Vec<(usize, usize)> = cache_nodes
        .iter()
        .enumerate()
        .flat_map(|(vi, _)| (0..n_items).map(move |i| (vi, i)))
        .collect();
    assert!(slots.len() <= 16, "brute force limit");
    let mut best = f64::NEG_INFINITY;
    'mask: for mask in 0u32..(1 << slots.len()) {
        let mut p = Placement::empty(inst);
        let mut used = vec![0.0; cache_nodes.len()];
        for (b, &(vi, i)) in slots.iter().enumerate() {
            if mask & (1 << b) != 0 {
                used[vi] += 1.0;
                if used[vi] > inst.cache_cap[cache_nodes[vi].index()] + 1e-9 {
                    continue 'mask;
                }
                p.set(cache_nodes[vi], i, true);
            }
        }
        best = best.max(f_rnr(inst, &p));
    }
    best
}

#[test]
fn achieves_femtocaching_guarantee() {
    let ctx = SolverContext::new();
    // 2 helpers × 4 items, overlapping coverage — the regime [32] studied.
    let (inst, _) = femto_instance(2, 3, 4, 2.0, 1.0, 30.0, |hi, ui| ui == hi || ui == hi + 1);
    let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
    let achieved = f_rnr(&inst, &sol.placement);
    let opt = brute_force_opt(&inst);
    let bound = (1.0 - 1.0 / std::f64::consts::E) * opt;
    assert!(
        achieved >= bound - 1e-6,
        "{achieved} < (1 − 1/e)·OPT = {bound}"
    );
}

#[test]
fn uncovered_users_fall_back_to_origin() {
    let ctx = SolverContext::new();
    // User 2 is covered by no helper: its requests must come from the
    // origin at cost w0.
    let (inst, _) = femto_instance(1, 3, 2, 1.0, 1.0, 25.0, |hi, ui| hi == ui);
    let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
    let origin = inst.origin.unwrap();
    for (req, flows) in inst.requests.iter().zip(&sol.routing.per_request) {
        if req.node.index() == inst.graph.node_count() - 1 {
            assert_eq!(flows[0].path.source(&inst.graph), Some(origin));
            assert!((flows[0].path.cost(&inst.link_cost) - 25.0).abs() < 1e-9);
        }
    }
}

#[test]
fn covered_users_prefer_helpers() {
    let ctx = SolverContext::new();
    // Full coverage with plenty of capacity: every request should be
    // served by a helper at cost w1, never the origin.
    let (inst, _) = femto_instance(2, 2, 2, 2.0, 1.5, 40.0, |_, _| true);
    let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
    for flows in &sol.routing.per_request {
        assert!((flows[0].path.cost(&inst.link_cost) - 1.5).abs() < 1e-9);
    }
    assert!(sol.cost(&inst) < 40.0 * inst.total_rate());
}

#[test]
fn popular_items_replicated_when_helpers_do_not_overlap() {
    let ctx = SolverContext::new();
    // Disjoint coverage: each helper serves its own user, so the most
    // popular items should be cached at *every* helper.
    let (inst, helpers) = femto_instance(3, 3, 5, 2.0, 1.0, 30.0, |hi, ui| hi == ui);
    let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
    for &h in &helpers {
        assert!(
            sol.placement.has(h, 0),
            "the most popular item must be cached at {h}"
        );
    }
}
