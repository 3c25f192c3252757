//! Heterogeneous item sizes (§5): greedy content placement under the
//! per-node knapsack (*p*-independence) constraint of Lemma 5.1.
//!
//! Pipage rounding cannot swap fractions of different-sized items without
//! overflowing caches, but both cost-saving objectives remain monotone
//! submodular (Lemmas 4.1 and 5.3), so lazy greedy achieves a `1/(1+p)`
//! approximation with `p = ⌈b_max/b_min⌉` (Theorem 5.2). The same greedy
//! is also valid (with ratio 1/2) for equal-sized items, where the
//! knapsack degenerates to a partition matroid.

use jcr_graph::NodeId;
use jcr_submodular::constraint::Knapsack;
use jcr_submodular::greedy::lazy_greedy;
use jcr_submodular::Oracle;

use crate::instance::Instance;
use crate::placement::Placement;
use crate::placement_opt::{extract_segments, Segment};
use crate::routing::Routing;

/// Ground-set bookkeeping: element `vi * n_items + i` is "cache item `i`
/// at `cache_nodes[vi]`".
struct Ground {
    cache_nodes: Vec<NodeId>,
    n_items: usize,
}

impl Ground {
    fn new(inst: &Instance) -> Self {
        Ground {
            cache_nodes: inst.cache_nodes(),
            n_items: inst.num_items(),
        }
    }

    fn size(&self) -> usize {
        self.cache_nodes.len() * self.n_items
    }

    fn decode(&self, e: usize) -> (NodeId, usize) {
        (self.cache_nodes[e / self.n_items], e % self.n_items)
    }

    fn knapsack(&self, inst: &Instance) -> Knapsack {
        let group_of: Vec<usize> = (0..self.size()).map(|e| e / self.n_items).collect();
        let size: Vec<f64> = (0..self.size())
            .map(|e| inst.item_size[e % self.n_items])
            .collect();
        let capacity: Vec<f64> = self
            .cache_nodes
            .iter()
            .map(|&v| inst.cache_cap[v.index()])
            .collect();
        Knapsack::new(group_of, size, capacity)
    }

    fn placement(&self, selected: &[usize], inst: &Instance) -> Placement {
        let mut p = Placement::empty(inst);
        for &e in selected {
            let (v, i) = self.decode(e);
            p.set(v, i, true);
        }
        p
    }
}

/// Oracle for `F̃_RNR` (Lemma 4.1): the saving of serving each request
/// from its nearest replica instead of its current best source.
struct RnrOracle<'a> {
    inst: &'a Instance,
    ground: &'a Ground,
    /// Current least cost per request (starts at the origin's distance, or
    /// `w_max` when unreachable).
    best: Vec<f64>,
    /// Per item, the indices of its requests in ascending order (the order
    /// of `inst.requests`, which fixes the summation order of `gain`).
    requests_of: Vec<Vec<usize>>,
    value: f64,
}

impl<'a> RnrOracle<'a> {
    fn new(inst: &'a Instance, ground: &'a Ground) -> Self {
        let ap = inst.all_pairs();
        let w_max = inst.w_max();
        let best = inst
            .requests
            .iter()
            .map(|r| match inst.origin {
                Some(o) => {
                    let d = ap.dist(o, r.node);
                    if d.is_finite() {
                        d
                    } else {
                        w_max
                    }
                }
                None => w_max,
            })
            .collect();
        let mut requests_of = vec![Vec::new(); inst.num_items()];
        for (k, r) in inst.requests.iter().enumerate() {
            requests_of[r.item].push(k);
        }
        RnrOracle {
            inst,
            ground,
            best,
            requests_of,
            value: 0.0,
        }
    }
}

impl Oracle for RnrOracle<'_> {
    fn ground_size(&self) -> usize {
        self.ground.size()
    }

    fn gain(&self, element: usize) -> f64 {
        let (v, i) = self.ground.decode(element);
        let ap = self.inst.all_pairs();
        self.requests_of[i]
            .iter()
            .map(|&k| {
                let r = &self.inst.requests[k];
                let d = ap.dist(v, r.node);
                if d.is_finite() {
                    r.rate * (self.best[k] - d).max(0.0)
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn insert(&mut self, element: usize) {
        let (v, i) = self.ground.decode(element);
        let ap = self.inst.all_pairs();
        for &k in &self.requests_of[i] {
            let r = &self.inst.requests[k];
            let d = ap.dist(v, r.node);
            if d.is_finite() && d < self.best[k] {
                self.value += r.rate * (self.best[k] - d);
                self.best[k] = d;
            }
        }
    }

    fn value(&self) -> f64 {
        self.value
    }
}

/// Oracle for `F̃_{r,f}` (Lemma 5.3) over the segments of Eq. (14): a
/// weighted-coverage function (an element covers the segments of its item
/// whose prefix contains its node).
struct CoverOracle {
    /// Segment weights.
    weight: Vec<f64>,
    /// Segments covered by each element.
    covers: Vec<Vec<usize>>,
    covered: Vec<bool>,
    value: f64,
}

impl CoverOracle {
    fn new(inst: &Instance, ground: &Ground, segments: &[Segment]) -> Self {
        let mut node_pos = vec![None; inst.graph.node_count()];
        for (k, &v) in ground.cache_nodes.iter().enumerate() {
            node_pos[v.index()] = Some(k);
        }
        let mut weight = Vec::new();
        let mut covers = vec![Vec::new(); ground.size()];
        for seg in segments {
            if seg.saved_by_origin || seg.weight <= 0.0 {
                continue;
            }
            let s = weight.len();
            weight.push(seg.weight);
            for &v in &seg.prefix {
                if let Some(vi) = node_pos[v.index()] {
                    covers[vi * ground.n_items + seg.item].push(s);
                }
            }
        }
        let covered = vec![false; weight.len()];
        CoverOracle {
            weight,
            covers,
            covered,
            value: 0.0,
        }
    }
}

impl Oracle for CoverOracle {
    fn ground_size(&self) -> usize {
        self.covers.len()
    }

    fn gain(&self, element: usize) -> f64 {
        self.covers[element]
            .iter()
            .filter(|&&s| !self.covered[s])
            .map(|&s| self.weight[s])
            .sum()
    }

    fn insert(&mut self, element: usize) {
        for &s in &self.covers[element] {
            if !self.covered[s] {
                self.covered[s] = true;
                self.value += self.weight[s];
            }
        }
    }

    fn value(&self) -> f64 {
        self.value
    }
}

/// Greedy placement maximizing `F̃_RNR` under per-node knapsack
/// constraints — the unlimited-link-capacity case of §5.2.2
/// (`1/(1+p)`-approximate, Theorem 5.2).
pub fn greedy_placement_rnr(inst: &Instance) -> Placement {
    let ground = Ground::new(inst);
    let mut oracle = RnrOracle::new(inst, &ground);
    let mut constraint = ground.knapsack(inst);
    let result = lazy_greedy(&mut oracle, &mut constraint);
    ground.placement(&result.selected, inst)
}

/// Greedy placement maximizing `F̃_{r,f}` under per-node knapsack
/// constraints — the placement step of the general-case alternating
/// optimization for heterogeneous sizes (§5.2.3).
pub fn greedy_placement_given_routing(inst: &Instance, routing: &Routing) -> Placement {
    let ground = Ground::new(inst);
    let segments = extract_segments(inst, routing);
    let mut oracle = CoverOracle::new(inst, &ground, &segments);
    let mut constraint = ground.knapsack(inst);
    let result = lazy_greedy(&mut oracle, &mut constraint);
    ground.placement(&result.selected, inst)
}

/// The independence parameter `p = ⌈b_max/b_min⌉` of the instance
/// (Lemma 5.1); the greedy guarantee is `1/(1+p)`.
pub fn independence_parameter(inst: &Instance) -> usize {
    let b_max = inst.item_size.iter().copied().fold(0.0f64, f64::max);
    let b_min = inst.item_size.iter().copied().fold(f64::INFINITY, f64::min);
    (b_max / b_min).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::f_rnr;
    use crate::instance::InstanceBuilder;
    use crate::placement_opt::f_given_routing;
    use crate::rnr;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    fn file_level_inst(seed: u64) -> Instance {
        // Sizes in 100-MB units, like the paper's file-level simulation.
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
            .item_sizes(vec![4.5, 6.1, 7.5, 3.9, 8.5, 4.3, 1.6, 7.1, 1.6, 3.1])
            .cache_capacity(10.0)
            .zipf_demand(0.8, 100.0, seed)
            .build()
            .unwrap()
    }

    #[test]
    fn rnr_greedy_is_feasible_and_saves_cost() {
        let inst = file_level_inst(31);
        let p = greedy_placement_rnr(&inst);
        assert!(p.is_feasible(&inst));
        assert!(!p.is_empty());
        let empty_cost = rnr::rnr_cost(&inst, &Placement::empty(&inst)).unwrap();
        let greedy_cost = rnr::rnr_cost(&inst, &p).unwrap();
        assert!(greedy_cost < empty_cost);
    }

    #[test]
    fn routing_greedy_is_feasible_and_saves_cost() {
        let inst = file_level_inst(32);
        let routing = rnr::route_to_nearest_replica(&inst, &Placement::empty(&inst)).unwrap();
        let p = greedy_placement_given_routing(&inst, &routing);
        assert!(p.is_feasible(&inst));
        assert!(f_given_routing(&inst, &routing, &p) > 0.0);
    }

    #[test]
    fn cover_oracle_gain_matches_objective_delta() {
        // The oracle's marginal gains must agree with recomputing the
        // set-function value from scratch.
        let inst = file_level_inst(35);
        let routing = rnr::route_to_nearest_replica(&inst, &Placement::empty(&inst)).unwrap();
        let ground = Ground::new(&inst);
        let segments = extract_segments(&inst, &routing);
        let mut oracle = CoverOracle::new(&inst, &ground, &segments);
        let mut placement = Placement::empty(&inst);
        for e in [0usize, 3, 7, 11] {
            let e = e % ground.size();
            let before = f_given_routing(&inst, &routing, &placement);
            let gain = oracle.gain(e);
            let (v, i) = ground.decode(e);
            if placement.has(v, i) {
                continue;
            }
            oracle.insert(e);
            placement.set(v, i, true);
            let after = f_given_routing(&inst, &routing, &placement);
            assert!(
                (after - before - gain).abs() < 1e-6 * (1.0 + after.abs()),
                "element {e}: gain {gain} vs delta {}",
                after - before
            );
        }
    }

    /// The full-scan `F̃_RNR` oracle the per-item request index replaced:
    /// every call filters all requests by item.
    struct FilterRnrOracle<'a>(RnrOracle<'a>);

    impl Oracle for FilterRnrOracle<'_> {
        fn ground_size(&self) -> usize {
            self.0.ground_size()
        }

        fn gain(&self, element: usize) -> f64 {
            let o = &self.0;
            let (v, i) = o.ground.decode(element);
            let ap = o.inst.all_pairs();
            o.inst
                .requests
                .iter()
                .enumerate()
                .filter(|(_, r)| r.item == i)
                .map(|(k, r)| {
                    let d = ap.dist(v, r.node);
                    if d.is_finite() {
                        r.rate * (o.best[k] - d).max(0.0)
                    } else {
                        0.0
                    }
                })
                .sum()
        }

        fn insert(&mut self, element: usize) {
            let o = &mut self.0;
            let (v, i) = o.ground.decode(element);
            let ap = o.inst.all_pairs();
            for (k, r) in o.inst.requests.iter().enumerate() {
                if r.item == i {
                    let d = ap.dist(v, r.node);
                    if d.is_finite() && d < o.best[k] {
                        o.value += r.rate * (o.best[k] - d);
                        o.best[k] = d;
                    }
                }
            }
        }

        fn value(&self) -> f64 {
            self.0.value
        }
    }

    #[test]
    fn indexed_rnr_oracle_matches_the_full_scan_bit_for_bit() {
        use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_items = rng.gen_range(3..12);
            let sizes = (0..n_items).map(|_| rng.gen_range(1.0..5.0)).collect();
            let topo = Topology::generate_custom(12, 20, 4, seed).unwrap();
            let inst = InstanceBuilder::new(topo)
                .item_sizes(sizes)
                .cache_capacity(rng.gen_range(2.0..9.0))
                .zipf_demand(rng.gen_range(0.5..1.2), 100.0, seed)
                .build()
                .unwrap();
            let ground = Ground::new(&inst);
            let indexed = lazy_greedy(
                &mut RnrOracle::new(&inst, &ground),
                &mut ground.knapsack(&inst),
            );
            let full = lazy_greedy(
                &mut FilterRnrOracle(RnrOracle::new(&inst, &ground)),
                &mut ground.knapsack(&inst),
            );
            assert!(!indexed.selected.is_empty(), "seed {seed}");
            assert_eq!(indexed.selected, full.selected, "seed {seed}");
            assert_eq!(indexed.value.to_bits(), full.value.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn independence_parameter_matches_sizes() {
        let inst = file_level_inst(33);
        // 8.5 / 1.6 = 5.3 → p = 6.
        assert_eq!(independence_parameter(&inst), 6);
    }

    #[test]
    fn greedy_matches_alg1_objective_shape_on_homogeneous() {
        // On equal-sized items both RNR-placements chase the same
        // objective; greedy (1/2) should land within a factor of the LP
        // pipage result (1 − 1/e).
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 17).unwrap())
            .items(8)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 100.0, 17)
            .build()
            .unwrap();
        let greedy = greedy_placement_rnr(&inst);
        let alg1 = crate::alg1::Algorithm1::new()
            .place_with_context(&inst, &SolverContext::new())
            .unwrap();
        let fg = f_rnr(&inst, &greedy);
        let fa = f_rnr(&inst, &alg1);
        assert!(fg > 0.0 && fa > 0.0);
        assert!(fg >= 0.5 * fa, "greedy {fg} too far below alg1 {fa}");
    }

    #[test]
    fn half_approximation_against_brute_force() {
        // Tiny heterogeneous instance with brute-forced optimum.
        let inst = InstanceBuilder::new(Topology::generate_custom(8, 10, 2, 5).unwrap())
            .item_sizes(vec![2.0, 1.0, 3.0])
            .cache_capacity(3.0)
            .zipf_demand(1.0, 50.0, 5)
            .build()
            .unwrap();
        let p = greedy_placement_rnr(&inst);
        let achieved = f_rnr(&inst, &p) - baseline_f(&inst);
        let opt = brute_force(&inst) - baseline_f(&inst);
        let bound = opt / (1.0 + independence_parameter(&inst) as f64);
        assert!(
            achieved >= bound - 1e-6,
            "greedy {achieved} below 1/(1+p) bound {bound}"
        );
    }

    /// `F_RNR` of the empty placement (the origin's baseline saving).
    fn baseline_f(inst: &Instance) -> f64 {
        f_rnr(inst, &Placement::empty(inst))
    }

    fn brute_force(inst: &Instance) -> f64 {
        let ground = Ground::new(inst);
        let n = ground.size();
        assert!(n <= 16);
        let mut best = f64::NEG_INFINITY;
        'mask: for mask in 0u32..(1 << n) {
            let mut p = Placement::empty(inst);
            let mut used = vec![0.0; ground.cache_nodes.len()];
            for e in 0..n {
                if mask & (1 << e) != 0 {
                    let (v, i) = ground.decode(e);
                    used[e / ground.n_items] += inst.item_size[i];
                    if used[e / ground.n_items] > inst.cache_cap[v.index()] + 1e-9 {
                        continue 'mask;
                    }
                    p.set(v, i, true);
                }
            }
            best = best.max(f_rnr(inst, &p));
        }
        best
    }
}
