//! The problem model: network, catalog, caches, and demand.

use std::sync::OnceLock;

use jcr_ctx::rng::SeedableRng;
use jcr_ctx::rng::StdRng;

use jcr_graph::{DiGraph, DistanceOracle, NodeId, Path};
use jcr_topo::Topology;

use crate::error::JcrError;

/// One request type `(i, s)`: node `node` requests item `item` at rate
/// `rate` (requests per unit time, or bits per unit time under
/// heterogeneous sizes — §5.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Requested content item (index into the catalog).
    pub item: usize,
    /// Requesting node.
    pub node: NodeId,
    /// Arrival rate `λ_{(i,s)} > 0`.
    pub rate: f64,
}

/// A joint caching and routing instance — the data of optimization (1).
///
/// The optional `origin` node permanently stores the whole catalog at no
/// cache-capacity cost (the paper's origin server, §6); algorithms treat
/// it as an always-available source.
#[derive(Debug)]
pub struct Instance {
    /// The network.
    pub graph: DiGraph,
    /// Routing cost `w_uv ≥ 0` per directed edge.
    pub link_cost: Vec<f64>,
    /// Capacity `c_uv` per directed edge (`f64::INFINITY` = uncapacitated).
    pub link_cap: Vec<f64>,
    /// Cache capacity `c_v` per node, in item units (homogeneous sizes) or
    /// the same unit as `item_size` (heterogeneous).
    pub cache_cap: Vec<f64>,
    /// Item sizes `b_i` (all `1.0` for the homogeneous case).
    pub item_size: Vec<f64>,
    /// Request types with positive rate.
    pub requests: Vec<Request>,
    /// Origin server storing the entire catalog, if any.
    pub origin: Option<NodeId>,
    all_pairs: OnceLock<AllPairs>,
    /// Explicit node threshold for the distance oracle's eager fill
    /// (`None` = [`jcr_graph::oracle::DEFAULT_DENSE_MAX`]). See
    /// [`Instance::with_oracle_dense_max`].
    oracle_dense_max: Option<usize>,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            graph: self.graph.clone(),
            link_cost: self.link_cost.clone(),
            link_cap: self.link_cap.clone(),
            cache_cap: self.cache_cap.clone(),
            item_size: self.item_size.clone(),
            requests: self.requests.clone(),
            origin: self.origin,
            all_pairs: OnceLock::new(),
            oracle_dense_max: self.oracle_dense_max,
        }
    }
}

/// Cached all-pairs shortest-path structure (`w_{v→s}` and the paths).
///
/// Backed by a [`DistanceOracle`]: paper-scale instances fill every
/// source's row up front, while instances past the oracle's node
/// threshold fill only the rows asked for and never materialize the |V|²
/// matrix (see [`Instance::with_oracle_dense_max`]).
#[derive(Debug)]
pub struct AllPairs {
    oracle: DistanceOracle,
}

impl AllPairs {
    /// Least cost `w_{v→s}`; infinite if unreachable.
    pub fn dist(&self, v: NodeId, s: NodeId) -> f64 {
        self.oracle.dist(v, s)
    }

    /// A least-cost path `v → s`.
    pub fn path(&self, v: NodeId, s: NodeId) -> Option<Path> {
        self.oracle.path(v, s)
    }

    /// Maximum finite pairwise cost (computed lazily; rows not yet filled
    /// are streamed, not stored).
    pub fn max_cost(&self) -> f64 {
        self.oracle.max_cost()
    }

    /// The backing oracle, for callers that want row handles
    /// ([`DistanceOracle::row`]) or bulk priming
    /// ([`DistanceOracle::prime_rows_with_context`]).
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }
}

impl Instance {
    /// Creates an instance from raw parts.
    ///
    /// # Errors
    ///
    /// [`JcrError::InvalidInstance`] on mismatched lengths, negative
    /// costs/rates/capacities, or out-of-range indices.
    pub fn new(
        graph: DiGraph,
        link_cost: Vec<f64>,
        link_cap: Vec<f64>,
        cache_cap: Vec<f64>,
        item_size: Vec<f64>,
        requests: Vec<Request>,
        origin: Option<NodeId>,
    ) -> Result<Self, JcrError> {
        let inst = Instance {
            graph,
            link_cost,
            link_cap,
            cache_cap,
            item_size,
            requests,
            origin,
            all_pairs: OnceLock::new(),
            oracle_dense_max: None,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Forces the distance oracle's node threshold for this instance: `0`
    /// means every row is filled on demand (no |V|² table), `usize::MAX`
    /// fills every row at construction. Clears any cached all-pairs
    /// structure.
    pub fn with_oracle_dense_max(mut self, dense_max: usize) -> Self {
        self.oracle_dense_max = Some(dense_max);
        self.all_pairs = OnceLock::new();
        self
    }

    fn validate(&self) -> Result<(), JcrError> {
        let err = |msg: String| Err(JcrError::InvalidInstance(msg));
        if self.link_cost.len() != self.graph.edge_count()
            || self.link_cap.len() != self.graph.edge_count()
        {
            return err("one cost and capacity per edge required".into());
        }
        if self.cache_cap.len() != self.graph.node_count() {
            return err("one cache capacity per node required".into());
        }
        if self.link_cost.iter().any(|c| c.is_nan() || *c < 0.0) {
            return err("link costs must be non-negative".into());
        }
        if self.link_cap.iter().any(|c| c.is_nan() || *c < 0.0) {
            return err("link capacities must be non-negative".into());
        }
        if self.cache_cap.iter().any(|c| c.is_nan() || *c < 0.0) {
            return err("cache capacities must be non-negative".into());
        }
        if self.item_size.iter().any(|b| b.is_nan() || *b <= 0.0) {
            return err("item sizes must be positive".into());
        }
        for r in &self.requests {
            if r.item >= self.item_size.len() {
                return err(format!("request references unknown item {}", r.item));
            }
            if r.node.index() >= self.graph.node_count() {
                return err(format!("request references unknown node {:?}", r.node));
            }
            if r.rate.is_nan() || r.rate <= 0.0 {
                return err(format!("request rate must be positive, got {}", r.rate));
            }
        }
        if let Some(o) = self.origin {
            if o.index() >= self.graph.node_count() {
                return err("origin node out of range".into());
            }
        }
        Ok(())
    }

    /// Number of catalog items.
    pub fn num_items(&self) -> usize {
        self.item_size.len()
    }

    /// `requested[i]`: whether some request asks for item `i`. The
    /// placement LPs create `x_{v,i}` only for these items; an unrequested
    /// item's placement variable has zero cost and no row but its cache's
    /// capacity row, so it never changes the LP's optimum.
    pub(crate) fn requested_items(&self) -> Vec<bool> {
        let mut requested = vec![false; self.num_items()];
        for r in &self.requests {
            requested[r.item] = true;
        }
        requested
    }

    /// Whether all items have unit (equal) size.
    pub fn homogeneous(&self) -> bool {
        self.item_size.iter().all(|&b| (b - 1.0).abs() < 1e-12)
    }

    /// Total request rate `Σ λ`.
    pub fn total_rate(&self) -> f64 {
        self.requests.iter().map(|r| r.rate).sum()
    }

    /// Nodes with positive cache capacity (excludes the origin, which
    /// stores everything implicitly).
    pub fn cache_nodes(&self) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|v| self.cache_cap[v.index()] > 0.0 && Some(*v) != self.origin)
            .collect()
    }

    /// All-pairs least costs (computed once, cached) on one thread,
    /// recording nothing.
    pub fn all_pairs(&self) -> &AllPairs {
        self.all_pairs
            .get_or_init(|| self.compute_all_pairs(&jcr_ctx::SolverContext::new().with_workers(1)))
    }

    /// [`Instance::all_pairs`], fanning the per-source Dijkstra runs out
    /// over `ctx.workers()` threads on first use and recording one
    /// Dijkstra call per source. The cached result is bit-identical to
    /// the serial computation for any worker count; subsequent calls
    /// return the cache without touching `ctx`.
    pub fn all_pairs_with_context(&self, ctx: &jcr_ctx::SolverContext) -> &AllPairs {
        self.all_pairs.get_or_init(|| self.compute_all_pairs(ctx))
    }

    /// Seeds this instance's all-pairs cache by carrying forward the rows
    /// of a previous instance's oracle that the per-edge delta
    /// certificate proves still exact
    /// ([`DistanceOracle::carry_with_config`]): only rows touched by the
    /// hour's cost delta (killed or restored links, changed weights) are
    /// recomputed, and a sampled Dijkstra re-verification gates the
    /// carry. Carried rows are bit-identical to freshly computed ones, so
    /// downstream answers do not depend on whether this method was
    /// called.
    ///
    /// Returns the carry report, or `None` if the cache was already
    /// initialized (in which case nothing changes).
    pub fn adopt_all_pairs_from(
        &self,
        prev: &DistanceOracle,
        ctx: &jcr_ctx::SolverContext,
    ) -> Option<jcr_graph::CarryReport> {
        if self.all_pairs.get().is_some() {
            return None;
        }
        let mut report = None;
        self.all_pairs.get_or_init(|| {
            let (oracle, r) = DistanceOracle::carry_with_config(
                prev,
                &self.graph,
                &self.link_cost,
                self.oracle_dense_max(),
                ctx,
            );
            report = Some(r);
            AllPairs { oracle }
        });
        report
    }

    /// A clone of this instance's oracle, filled rows included, if the
    /// all-pairs cache has been computed — the handle an hourly driver
    /// stores so the *next* hour's instance can
    /// [`Instance::adopt_all_pairs_from`] it. `None` when no solve has
    /// touched the cache yet.
    pub fn cloned_oracle(&self) -> Option<DistanceOracle> {
        self.all_pairs.get().map(|ap| ap.oracle().clone())
    }

    fn oracle_dense_max(&self) -> usize {
        self.oracle_dense_max
            .unwrap_or(jcr_graph::oracle::DEFAULT_DENSE_MAX)
    }

    fn compute_all_pairs(&self, ctx: &jcr_ctx::SolverContext) -> AllPairs {
        let oracle =
            DistanceOracle::with_config(&self.graph, &self.link_cost, self.oracle_dense_max(), ctx);
        AllPairs { oracle }
    }

    /// The upper bound `w_max` on pairwise least costs used by Algorithm 1
    /// (strictly above every finite pairwise cost).
    pub fn w_max(&self) -> f64 {
        self.all_pairs().max_cost() * (1.0 + 1e-6) + 1.0
    }

    /// Whether every request can reach a node storing its item — at
    /// minimum the origin — so the instance is servable at all.
    pub fn origin_reaches_all(&self) -> bool {
        match self.origin {
            None => false,
            Some(o) => self
                .requests
                .iter()
                .all(|r| self.all_pairs().dist(o, r.node).is_finite()),
        }
    }
}

/// Builds the paper's edge-caching instance from a [`Topology`]: caches of
/// capacity ζ at the edge nodes, demand placed at the edge nodes, and the
/// origin storing everything.
///
/// # Examples
///
/// ```
/// use jcr_core::instance::InstanceBuilder;
/// use jcr_topo::{Topology, TopologyKind};
///
/// let topo = Topology::generate(TopologyKind::Abovenet, 1).unwrap();
/// let inst = InstanceBuilder::new(topo)
///     .items(10)
///     .cache_capacity(2.0)
///     .zipf_demand(0.8, 1000.0, 7)
///     .link_capacity_fraction(0.007)
///     .build()
///     .unwrap();
/// assert_eq!(inst.num_items(), 10);
/// assert!(inst.origin_reaches_all());
/// ```
#[derive(Clone, Debug)]
pub struct InstanceBuilder {
    topo: Topology,
    n_items: usize,
    item_size: Option<Vec<f64>>,
    cache_capacity: f64,
    /// rates[item][edge-node index]
    demand: DemandSpec,
    capacity: CapacitySpec,
}

#[derive(Clone, Debug)]
enum DemandSpec {
    Zipf { alpha: f64, total: f64, seed: u64 },
    Matrix(Vec<Vec<f64>>),
}

#[derive(Clone, Debug)]
enum CapacitySpec {
    Unlimited,
    Fraction(f64),
    Uniform(f64),
}

impl InstanceBuilder {
    /// Starts a builder over the given topology.
    pub fn new(topo: Topology) -> Self {
        InstanceBuilder {
            topo,
            n_items: 10,
            item_size: None,
            cache_capacity: 2.0,
            demand: DemandSpec::Zipf {
                alpha: 0.8,
                total: 1000.0,
                seed: 0,
            },
            capacity: CapacitySpec::Unlimited,
        }
    }

    /// Sets the catalog size (default 10, the paper's file-level default).
    pub fn items(mut self, n: usize) -> Self {
        self.n_items = n;
        self
    }

    /// Sets heterogeneous item sizes (same length as the catalog);
    /// omitting this keeps unit sizes.
    pub fn item_sizes(mut self, sizes: Vec<f64>) -> Self {
        self.n_items = sizes.len();
        self.item_size = Some(sizes);
        self
    }

    /// Sets the per-edge-node cache capacity ζ (default 2, the paper's
    /// file-level default; 12 for chunk level).
    pub fn cache_capacity(mut self, zeta: f64) -> Self {
        self.cache_capacity = zeta;
        self
    }

    /// Zipf demand: item popularity `∝ 1/rank^alpha`, total rate spread
    /// across edge nodes with seeded random shares.
    pub fn zipf_demand(mut self, alpha: f64, total_rate: f64, seed: u64) -> Self {
        self.demand = DemandSpec::Zipf {
            alpha,
            total: total_rate,
            seed,
        };
        self
    }

    /// Explicit demand matrix `rates[item][edge-node position]` (in the
    /// order of the topology's `edge_nodes`).
    pub fn demand_matrix(mut self, rates: Vec<Vec<f64>>) -> Self {
        self.demand = DemandSpec::Matrix(rates);
        self
    }

    /// Unlimited link capacities (§4.1's special case; the default).
    pub fn unlimited_links(mut self) -> Self {
        self.capacity = CapacitySpec::Unlimited;
        self
    }

    /// Uniform link capacity κ = `fraction` × total request rate, plus the
    /// paper's feasibility augmentation along origin→edge paths (§6;
    /// default fraction 0.007).
    pub fn link_capacity_fraction(mut self, fraction: f64) -> Self {
        self.capacity = CapacitySpec::Fraction(fraction);
        self
    }

    /// Uniform link capacity κ in absolute units, plus the feasibility
    /// augmentation.
    pub fn link_capacity(mut self, kappa: f64) -> Self {
        self.capacity = CapacitySpec::Uniform(kappa);
        self
    }

    /// Builds the instance.
    ///
    /// # Errors
    ///
    /// [`JcrError::InvalidInstance`] if the demand matrix shape mismatches
    /// the topology/catalog or any parameter is out of range.
    pub fn build(self) -> Result<Instance, JcrError> {
        let mut topo = self.topo;
        let n_edges = topo.edge_nodes.len();
        let rates: Vec<Vec<f64>> = match &self.demand {
            DemandSpec::Zipf { alpha, total, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed ^ 0x6465_6d61_6e64);
                jcr_trace::zipf::zipf_demand(self.n_items, n_edges, *alpha, *total, &mut rng)
            }
            DemandSpec::Matrix(m) => {
                if m.len() != self.n_items || m.iter().any(|row| row.len() != n_edges) {
                    return Err(JcrError::InvalidInstance(format!(
                        "demand matrix must be {} × {n_edges}",
                        self.n_items
                    )));
                }
                m.clone()
            }
        };
        let item_size = self
            .item_size
            .clone()
            .unwrap_or_else(|| vec![1.0; self.n_items]);

        // Demand-weighted per-edge-node totals (for augmentation), where
        // each request transfers `item_size` units per arrival.
        let mut per_edge_total = vec![0.0; n_edges];
        let mut requests = Vec::new();
        for (i, row) in rates.iter().enumerate() {
            for (k, &rate) in row.iter().enumerate() {
                if rate > 0.0 {
                    requests.push(Request {
                        item: i,
                        node: topo.edge_nodes[k],
                        rate,
                    });
                    per_edge_total[k] += rate * item_size[i];
                }
            }
        }

        match self.capacity {
            CapacitySpec::Unlimited => {
                topo.capacity = vec![f64::INFINITY; topo.graph.edge_count()];
            }
            CapacitySpec::Fraction(fr) => {
                let total: f64 = per_edge_total.iter().sum();
                topo.set_uniform_capacity(fr * total);
                topo.augment_origin_paths(&per_edge_total)
                    .map_err(|e| JcrError::InvalidInstance(e.to_string()))?;
            }
            CapacitySpec::Uniform(kappa) => {
                topo.set_uniform_capacity(kappa);
                topo.augment_origin_paths(&per_edge_total)
                    .map_err(|e| JcrError::InvalidInstance(e.to_string()))?;
            }
        }

        let mut cache_cap = vec![0.0; topo.graph.node_count()];
        for &v in &topo.edge_nodes {
            cache_cap[v.index()] = self.cache_capacity;
        }

        Instance::new(
            topo.graph,
            topo.cost,
            topo.capacity,
            cache_cap,
            item_size,
            requests,
            Some(topo.origin),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_topo::TopologyKind;

    fn topo() -> Topology {
        Topology::generate(TopologyKind::Abovenet, 2).unwrap()
    }

    #[test]
    fn builder_defaults() {
        let inst = InstanceBuilder::new(topo()).build().unwrap();
        assert_eq!(inst.num_items(), 10);
        assert!(inst.homogeneous());
        assert!(inst.total_rate() > 0.0);
        assert_eq!(inst.cache_nodes().len(), jcr_topo::DEFAULT_EDGE_NODES);
        assert!(inst.link_cap.iter().all(|c| c.is_infinite()));
        assert!(inst.origin_reaches_all());
    }

    #[test]
    fn capacity_fraction_augments_feasibility() {
        let inst = InstanceBuilder::new(topo())
            .link_capacity_fraction(0.007)
            .build()
            .unwrap();
        // Every request must be servable from the origin within capacities:
        // the augmentation guarantees at least one path with enough room.
        assert!(inst.link_cap.iter().all(|c| c.is_finite()));
        let kappa = 0.007 * inst.total_rate();
        assert!(inst.link_cap.iter().any(|&c| c > kappa + 1e-9));
    }

    #[test]
    fn demand_matrix_shape_checked() {
        let t = topo();
        let bad = InstanceBuilder::new(t.clone())
            .items(3)
            .demand_matrix(vec![vec![1.0; 2]; 3])
            .build();
        assert!(matches!(bad, Err(JcrError::InvalidInstance(_))));
        let n_edges = t.edge_nodes.len();
        let good = InstanceBuilder::new(t)
            .items(2)
            .demand_matrix(vec![vec![1.0; n_edges]; 2])
            .build()
            .unwrap();
        assert_eq!(good.requests.len(), 2 * n_edges);
    }

    #[test]
    fn zero_rate_requests_dropped() {
        let t = topo();
        let n_edges = t.edge_nodes.len();
        let mut m = vec![vec![1.0; n_edges]; 2];
        m[0][0] = 0.0;
        let inst = InstanceBuilder::new(t)
            .items(2)
            .demand_matrix(m)
            .build()
            .unwrap();
        assert_eq!(inst.requests.len(), 2 * n_edges - 1);
    }

    #[test]
    fn heterogeneous_sizes() {
        let inst = InstanceBuilder::new(topo())
            .item_sizes(vec![4.5, 1.5, 3.0])
            .cache_capacity(6.0)
            .build()
            .unwrap();
        assert!(!inst.homogeneous());
        assert_eq!(inst.num_items(), 3);
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let t = topo();
        let r = Instance::new(
            t.graph.clone(),
            t.cost.clone(),
            t.capacity.clone(),
            vec![0.0; t.graph.node_count()],
            vec![1.0],
            vec![Request {
                item: 0,
                node: t.edge_nodes[0],
                rate: -1.0,
            }],
            Some(t.origin),
        );
        assert!(matches!(r, Err(JcrError::InvalidInstance(_))));
    }

    #[test]
    fn all_pairs_distances_sane() {
        let inst = InstanceBuilder::new(topo()).build().unwrap();
        let ap = inst.all_pairs();
        let o = inst.origin.unwrap();
        for r in &inst.requests {
            let d = ap.dist(o, r.node);
            assert!(d.is_finite() && d >= 100.0, "origin link cost dominates");
        }
        assert!(inst.w_max() > ap.max_cost());
    }
}
