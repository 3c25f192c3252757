//! Content placement `x` and its feasibility/occupancy metrics.

use jcr_graph::NodeId;

use crate::instance::Instance;

/// An integral content placement: `x_{vi} ∈ {0, 1}` for every node and
/// item. The origin's implicit full copy is *not* part of the placement
/// (use [`Placement::has_with_origin`] where the origin counts as a
/// replica).
///
/// Stored as one flat row-major bitset (64 items per word): a
/// 1000-node × 10⁵-item stress placement is ~1.6 MB instead of the
/// ~100 MB (plus one allocation per node) of a `Vec<Vec<bool>>` matrix,
/// and per-node scans walk contiguous words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Row-major bit matrix: node `v`'s items live in words
    /// `[v * words_per_row, (v + 1) * words_per_row)`.
    bits: Vec<u64>,
    words_per_row: usize,
    n_nodes: usize,
    n_items: usize,
}

impl Placement {
    fn zeroed(n_nodes: usize, n_items: usize) -> Self {
        let words_per_row = n_items.div_ceil(64);
        Placement {
            bits: vec![0; n_nodes * words_per_row],
            words_per_row,
            n_nodes,
            n_items,
        }
    }

    /// An empty placement for the given instance.
    pub fn empty(inst: &Instance) -> Self {
        Placement::zeroed(inst.graph.node_count(), inst.num_items())
    }

    /// Builds a placement from a fractional/integral matrix
    /// `x[node][item]` by thresholding at 0.5.
    pub fn from_matrix(x: &[Vec<f64>]) -> Self {
        let n_items = x.first().map_or(0, Vec::len);
        let mut p = Placement::zeroed(x.len(), n_items);
        for (v, row) in x.iter().enumerate() {
            for (i, &val) in row.iter().enumerate() {
                if val >= 0.5 {
                    p.set(NodeId::new(v), i, true);
                }
            }
        }
        p
    }

    /// Whether node `v` stores item `i`.
    pub fn has(&self, v: NodeId, i: usize) -> bool {
        debug_assert!(i < self.n_items);
        let w = v.index() * self.words_per_row + i / 64;
        self.bits[w] >> (i % 64) & 1 == 1
    }

    /// Like [`Placement::has`], but the instance's origin always counts as
    /// storing everything.
    pub fn has_with_origin(&self, inst: &Instance, v: NodeId, i: usize) -> bool {
        inst.origin == Some(v) || self.has(v, i)
    }

    /// Stores (or evicts) item `i` at node `v`.
    pub fn set(&mut self, v: NodeId, i: usize, stored: bool) {
        debug_assert!(i < self.n_items);
        let w = v.index() * self.words_per_row + i / 64;
        if stored {
            self.bits[w] |= 1u64 << (i % 64);
        } else {
            self.bits[w] &= !(1u64 << (i % 64));
        }
    }

    /// The items stored at `v`, in increasing item order (word-skipping
    /// bit scan: empty regions of a sparse row cost one word test per 64
    /// items).
    pub fn items_at(&self, v: NodeId) -> impl Iterator<Item = usize> + '_ {
        let row = &self.bits[v.index() * self.words_per_row..(v.index() + 1) * self.words_per_row];
        row.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Nodes storing item `i` (excluding the implicit origin copy).
    pub fn holders(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        let (word, bit) = (i / 64, i % 64);
        (0..self.n_nodes)
            .filter(move |v| self.bits[v * self.words_per_row + word] >> bit & 1 == 1)
            .map(NodeId::new)
    }

    /// Every item's holders in ascending node order, in one buffer: item
    /// `i`'s are `nodes[start[i]..start[i + 1]]`, the order
    /// [`Placement::holders`] yields them in. Built with two passes over
    /// the set bits instead of one node scan per item.
    pub(crate) fn holders_by_item(&self) -> (Vec<usize>, Vec<NodeId>) {
        let mut start = vec![0; self.n_items + 1];
        for v in 0..self.n_nodes {
            for i in self.items_at(NodeId::new(v)) {
                start[i + 1] += 1;
            }
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut nodes = vec![NodeId::new(0); start[self.n_items]];
        for v in 0..self.n_nodes {
            for i in self.items_at(NodeId::new(v)) {
                nodes[next[i]] = NodeId::new(v);
                next[i] += 1;
            }
        }
        (start, nodes)
    }

    /// Size-weighted occupancy of node `v`'s cache.
    pub fn occupancy(&self, inst: &Instance, v: NodeId) -> f64 {
        self.items_at(v).map(|i| inst.item_size[i]).sum()
    }

    /// Maximum occupancy-to-capacity ratio over nodes with positive cache
    /// capacity — the paper's "maximum cache occupancy" metric (Fig. 5).
    pub fn max_occupancy_ratio(&self, inst: &Instance) -> f64 {
        inst.graph
            .nodes()
            .filter(|&v| inst.cache_cap[v.index()] > 0.0)
            .map(|v| self.occupancy(inst, v) / inst.cache_cap[v.index()])
            .fold(0.0, f64::max)
    }

    /// Whether every node's occupancy is within its cache capacity
    /// (constraint (1f) / (16)).
    pub fn is_feasible(&self, inst: &Instance) -> bool {
        inst.graph
            .nodes()
            .all(|v| self.occupancy(inst, v) <= inst.cache_cap[v.index()] + 1e-9)
    }

    /// Whether the placement's dimensions match `inst` (same node and
    /// item counts). A placement carried across re-optimization epochs
    /// may have been built for a different instance.
    pub fn dims_match(&self, inst: &Instance) -> bool {
        self.n_nodes == inst.graph.node_count() && self.n_items == inst.num_items()
    }

    /// Repairs the placement against `inst` so that every cache fits its
    /// capacity: overflowing nodes greedily evict their least valuable
    /// items (lowest locally requested rate per unit of size) until
    /// constraint (1f)/(16) holds. A dimension mismatch resets the
    /// placement to empty. Returns the number of evicted (node, item)
    /// pairs.
    ///
    /// This is the placement half of the carry-forward repair rung in the
    /// online loop's degradation ladder (see `jcr_core::repair`).
    pub fn repair(&mut self, inst: &Instance) -> usize {
        if !self.dims_match(inst) {
            let evicted = self.len();
            *self = Placement::empty(inst);
            return evicted;
        }
        let mut evicted = 0;
        for v in inst.graph.nodes() {
            let cap = inst.cache_cap[v.index()];
            if self.occupancy(inst, v) <= cap + 1e-9 {
                continue;
            }
            // Local demand for each stored item, as rate per unit size.
            let mut stored: Vec<(f64, usize)> = self
                .items_at(v)
                .map(|i| {
                    let rate: f64 = inst
                        .requests
                        .iter()
                        .filter(|r| r.node == v && r.item == i)
                        .map(|r| r.rate)
                        .sum();
                    (rate / inst.item_size[i].max(1e-12), i)
                })
                .collect();
            stored.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            for &(_, i) in &stored {
                if self.occupancy(inst, v) <= cap + 1e-9 {
                    break;
                }
                self.set(v, i, false);
                evicted += 1;
            }
        }
        evicted
    }

    /// The raw parts of the bitset — `(dims, words)` with
    /// `dims = (n_nodes, n_items)` — for snapshot serialization. The word
    /// layout is an implementation detail; pair only with
    /// [`Placement::from_raw_parts`].
    pub fn to_raw_parts(&self) -> ((usize, usize), &[u64]) {
        ((self.n_nodes, self.n_items), &self.bits)
    }

    /// Rebuilds a placement from [`Placement::to_raw_parts`] output.
    /// Returns `None` if the word count disagrees with the dimensions or
    /// a padding bit beyond `n_items` is set (a corrupt or foreign
    /// snapshot).
    pub fn from_raw_parts(n_nodes: usize, n_items: usize, words: &[u64]) -> Option<Self> {
        let words_per_row = n_items.div_ceil(64);
        if words.len() != n_nodes.checked_mul(words_per_row)? {
            return None;
        }
        let tail_bits = n_items % 64;
        if words_per_row > 0 && tail_bits != 0 {
            let pad_mask = !0u64 << tail_bits;
            for row in 0..n_nodes {
                if words[row * words_per_row + words_per_row - 1] & pad_mask != 0 {
                    return None;
                }
            }
        }
        Some(Placement {
            bits: words.to_vec(),
            words_per_row,
            n_nodes,
            n_items,
        })
    }

    /// Total number of stored (node, item) pairs.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether nothing is stored anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use jcr_topo::{Topology, TopologyKind};

    fn inst() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 2).unwrap())
            .items(4)
            .cache_capacity(2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn set_and_query() {
        let inst = inst();
        let mut p = Placement::empty(&inst);
        let v = inst.cache_nodes()[0];
        assert!(p.is_empty());
        p.set(v, 1, true);
        p.set(v, 3, true);
        assert!(p.has(v, 1));
        assert!(!p.has(v, 0));
        assert_eq!(p.items_at(v).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(p.holders(1).collect::<Vec<_>>(), vec![v]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn origin_counts_as_holder() {
        let inst = inst();
        let p = Placement::empty(&inst);
        let o = inst.origin.unwrap();
        assert!(p.has_with_origin(&inst, o, 2));
        assert!(!p.has(o, 2));
    }

    #[test]
    fn feasibility_and_occupancy() {
        let inst = inst();
        let v = inst.cache_nodes()[0];
        let mut p = Placement::empty(&inst);
        p.set(v, 0, true);
        p.set(v, 1, true);
        assert!(p.is_feasible(&inst));
        assert_eq!(p.occupancy(&inst, v), 2.0);
        assert!((p.max_occupancy_ratio(&inst) - 1.0).abs() < 1e-12);
        p.set(v, 2, true);
        assert!(!p.is_feasible(&inst));
        assert!(p.max_occupancy_ratio(&inst) > 1.0);
    }

    #[test]
    fn repair_evicts_least_demanded_first() {
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 2).unwrap())
            .items(4)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 100.0, 2)
            .build()
            .unwrap();
        let v = inst.cache_nodes()[0];
        let mut p = Placement::empty(&inst);
        for i in 0..inst.num_items() {
            p.set(v, i, true); // 4 unit items in a 2-unit cache
        }
        let evicted = p.repair(&inst);
        assert_eq!(evicted, 2);
        assert!(p.is_feasible(&inst));
        // Zipf demand decreases in the item index, so the heavy head
        // items survive.
        assert!(p.has(v, 0));
        assert!(!p.has(v, 3));
    }

    #[test]
    fn repair_resets_on_dimension_mismatch() {
        let small = inst();
        let big = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 2).unwrap())
            .items(9)
            .cache_capacity(2.0)
            .build()
            .unwrap();
        let mut p = Placement::empty(&big);
        p.set(big.cache_nodes()[0], 7, true);
        assert!(!p.dims_match(&small));
        let evicted = p.repair(&small);
        assert_eq!(evicted, 1);
        assert!(p.is_empty());
        assert!(p.dims_match(&small));
    }

    #[test]
    fn repair_is_a_noop_on_feasible_placements() {
        let inst = inst();
        let mut p = Placement::empty(&inst);
        p.set(inst.cache_nodes()[0], 1, true);
        let before = p.clone();
        assert_eq!(p.repair(&inst), 0);
        assert_eq!(p, before);
    }

    #[test]
    fn raw_parts_round_trip_and_reject_padding() {
        let inst = inst();
        let mut p = Placement::empty(&inst);
        let v = inst.cache_nodes()[0];
        p.set(v, 0, true);
        p.set(v, 3, true);
        let ((n_nodes, n_items), words) = p.to_raw_parts();
        let back = Placement::from_raw_parts(n_nodes, n_items, words).expect("round trip");
        assert_eq!(back, p);
        // Wrong word count.
        assert!(Placement::from_raw_parts(n_nodes, n_items, &words[1..]).is_none());
        // A set padding bit beyond n_items (4 items -> bits 4..64 are pad).
        let mut bad = words.to_vec();
        bad[v.index()] |= 1u64 << 17;
        assert!(Placement::from_raw_parts(n_nodes, n_items, &bad).is_none());
    }

    #[test]
    fn from_matrix_thresholds() {
        let x = vec![vec![0.9, 0.1], vec![0.5, 0.49]];
        let p = Placement::from_matrix(&x);
        assert!(p.has(NodeId::new(0), 0));
        assert!(!p.has(NodeId::new(0), 1));
        assert!(p.has(NodeId::new(1), 0));
        assert!(!p.has(NodeId::new(1), 1));
    }
}
