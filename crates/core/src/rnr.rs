//! Route-to-nearest-replica (RNR): the optimal routing under unlimited
//! link capacities (§4.1).

use jcr_graph::{DistanceOracle, NodeId, Path};

use crate::instance::{Instance, Request};
use crate::placement::Placement;
use crate::routing::Routing;

/// The least-cost replica of item `i` for requester `s` under `placement`
/// (the origin counts), together with its cost.
pub fn nearest_replica(
    inst: &Instance,
    placement: &Placement,
    item: usize,
    s: NodeId,
) -> Option<(NodeId, f64)> {
    closest(
        inst.all_pairs(),
        placement.holders(item).chain(inst.origin),
        s,
    )
}

/// The least-cost path serving `(item, s)` under `placement`, if any
/// replica is reachable.
pub fn nearest_replica_path(
    inst: &Instance,
    placement: &Placement,
    item: usize,
    s: NodeId,
) -> Option<Path> {
    let (v, _) = nearest_replica(inst, placement, item, s)?;
    inst.all_pairs().path(v, s)
}

/// The first of `replicas` at the least finite cost to `s`: a later
/// replica replaces the best only when strictly cheaper.
fn closest(
    ap: &DistanceOracle,
    replicas: impl Iterator<Item = NodeId>,
    s: NodeId,
) -> Option<(NodeId, f64)> {
    let mut best: Option<(NodeId, f64)> = None;
    for v in replicas {
        let d = ap.dist(v, s);
        if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((v, d));
        }
    }
    best
}

/// Every request with its [`nearest_replica`], in request order. Each
/// item's replica list — its holders in ascending node order, then the
/// origin — is read off `placement` once, not rescanned per request, and
/// the oracle is queried in the same order as per-request calls would.
pub(crate) fn nearest_replicas<'a>(
    inst: &'a Instance,
    placement: &Placement,
) -> impl Iterator<Item = (&'a Request, Option<(NodeId, f64)>)> + 'a {
    let ap = inst.all_pairs();
    let (start, holders) = placement.holders_by_item();
    inst.requests.iter().map(move |r| {
        let replicas = holders[start[r.item]..start[r.item + 1]].iter().copied();
        (r, closest(ap, replicas.chain(inst.origin), r.node))
    })
}

/// Routes every request to its nearest replica (single least-cost path).
///
/// Returns `None` if some request has no reachable replica (no origin and
/// nothing cached).
pub fn route_to_nearest_replica(inst: &Instance, placement: &Placement) -> Option<Routing> {
    let ap = inst.all_pairs();
    let paths = nearest_replicas(inst, placement)
        .map(|(r, best)| ap.path(best?.0, r.node))
        .collect::<Option<Vec<_>>>()?;
    Some(Routing::from_paths(inst, paths))
}

/// The RNR routing cost of a placement — the objective `C_RNR` of (2)
/// restricted to nodes that actually store content.
pub fn rnr_cost(inst: &Instance, placement: &Placement) -> Option<f64> {
    let mut cost = 0.0;
    for (r, best) in nearest_replicas(inst, placement) {
        cost += r.rate * best?.1;
    }
    Some(cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use jcr_topo::{Topology, TopologyKind};

    fn inst() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 9).unwrap())
            .items(4)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 50.0, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_placement_serves_from_origin() {
        let inst = inst();
        let p = Placement::empty(&inst);
        let routing = route_to_nearest_replica(&inst, &p).unwrap();
        assert!(routing.serves_all(&inst));
        let o = inst.origin.unwrap();
        for flows in &routing.per_request {
            assert_eq!(flows[0].path.source(&inst.graph), Some(o));
        }
    }

    #[test]
    fn caching_at_requester_gives_zero_cost() {
        let inst = inst();
        let mut p = Placement::empty(&inst);
        // Store every item at every edge node (ignore capacity for the test).
        for v in inst.cache_nodes() {
            for i in 0..inst.num_items() {
                p.set(v, i, true);
            }
        }
        let cost = rnr_cost(&inst, &p).unwrap();
        assert!(
            cost.abs() < 1e-9,
            "local hits should cost nothing, got {cost}"
        );
    }

    #[test]
    fn caching_strictly_reduces_cost() {
        let inst = inst();
        let empty_cost = rnr_cost(&inst, &Placement::empty(&inst)).unwrap();
        let mut p = Placement::empty(&inst);
        let v = inst.cache_nodes()[0];
        p.set(v, 0, true);
        let cached_cost = rnr_cost(&inst, &p).unwrap();
        assert!(cached_cost < empty_cost);
    }

    #[test]
    fn rnr_matches_routing_cost() {
        let inst = inst();
        let mut p = Placement::empty(&inst);
        p.set(inst.cache_nodes()[1], 2, true);
        let routing = route_to_nearest_replica(&inst, &p).unwrap();
        let direct = rnr_cost(&inst, &p).unwrap();
        assert!((routing.cost(&inst) - direct).abs() < 1e-9);
        assert!(routing.sources_valid(&inst, &p));
    }

    #[test]
    fn no_origin_no_replica_fails() {
        let inst0 = inst();
        let inst = Instance::new(
            inst0.graph.clone(),
            inst0.link_cost.clone(),
            inst0.link_cap.clone(),
            inst0.cache_cap.clone(),
            inst0.item_size.clone(),
            inst0.requests.clone(),
            None,
        )
        .unwrap();
        let p = Placement::empty(&inst);
        assert!(route_to_nearest_replica(&inst, &p).is_none());
        assert!(rnr_cost(&inst, &p).is_none());
    }

    /// The per-item replica lists give every request the replica, path
    /// and cost a per-request [`nearest_replica`] scan gives, bit for bit.
    /// Unit link costs make equal-distance replicas common, so the
    /// ascending-holders-then-origin tie order is exercised; some
    /// placements store items at the origin too, so it can appear twice.
    /// Dense and on-demand oracles are both covered.
    #[test]
    fn replica_lists_match_per_request_scans() {
        use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
        let base = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 5).unwrap())
            .items(70)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 50.0, 5)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0x0072_6e72);
        let mut ties = 0;
        for case in 0..24 {
            let inst = Instance::new(
                base.graph.clone(),
                vec![1.0; base.graph.edge_count()],
                base.link_cap.clone(),
                base.cache_cap.clone(),
                base.item_size.clone(),
                base.requests.clone(),
                base.origin,
            )
            .unwrap()
            .with_oracle_dense_max(if case % 2 == 0 { usize::MAX } else { 0 });
            let density = [0.0, 0.05, 0.2, 0.5][case % 4];
            let mut p = Placement::empty(&inst);
            for v in 0..inst.graph.node_count() {
                for i in 0..inst.num_items() {
                    if rng.gen_range(0.0..1.0) < density {
                        p.set(NodeId::new(v), i, true);
                    }
                }
            }
            if case % 3 == 0 {
                for i in 0..inst.num_items() {
                    p.set(inst.origin.unwrap(), i, true);
                }
            }

            let paths: Option<Vec<Path>> = inst
                .requests
                .iter()
                .map(|r| nearest_replica_path(&inst, &p, r.item, r.node))
                .collect();
            let want_routing = paths.map(|paths| Routing::from_paths(&inst, paths));
            let mut want_cost = 0.0;
            let w_max = inst.w_max();
            let mut want_f = Vec::new();
            for r in &inst.requests {
                let best = nearest_replica(&inst, &p, r.item, r.node);
                let d = best.unwrap().1;
                want_cost += r.rate * d;
                want_f.push(r.rate * (w_max - d));
                let at_best = p
                    .holders(r.item)
                    .chain(inst.origin)
                    .filter(|&v| inst.all_pairs().dist(v, r.node) == d)
                    .count();
                ties += usize::from(at_best > 1);
            }
            let want_f: f64 = want_f.into_iter().sum();

            assert_eq!(
                route_to_nearest_replica(&inst, &p),
                want_routing,
                "case {case}"
            );
            assert_eq!(
                rnr_cost(&inst, &p).map(f64::to_bits),
                Some(want_cost.to_bits()),
                "case {case}"
            );
            assert_eq!(
                crate::alg1::f_rnr(&inst, &p).to_bits(),
                want_f.to_bits(),
                "case {case}"
            );
        }
        assert!(ties > 100, "only {ties} requests had tied replicas");
    }
}
