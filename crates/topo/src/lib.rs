//! ISP-like topology substrate for the cache-network evaluation.
//!
//! The paper evaluates on the Rocketfuel **Abovenet** topology (§6) and
//! the Topology-Zoo **Abvt / Tinet / Deltacom** topologies (Appendix D.4).
//! The raw datasets are not redistributable here, so this crate generates
//! seeded random topologies that match the published shapes — node/edge
//! counts, sparsity, a degree-1 origin gateway, low-degree edge nodes —
//! and applies the paper's cost model (origin links drawn from
//! `[100, 200]`, core links from `[1, 20]`). A plain edge-list loader
//! ([`Topology::from_edge_list`]) lets real datasets be plugged in
//! unchanged.
//!
//! # Examples
//!
//! ```
//! use jcr_topo::{Topology, TopologyKind};
//!
//! let topo = Topology::generate(TopologyKind::Abovenet, 1).expect("generation succeeds");
//! assert_eq!(topo.graph.node_count(), 23);
//! assert_eq!(topo.graph.degree(topo.origin), 2); // degree-1 gateway (1 in + 1 out)
//! assert!(!topo.edge_nodes.is_empty());
//! ```

use std::fmt;

use jcr_ctx::rng::StdRng;
use jcr_ctx::rng::{Rng, SeedableRng};

use jcr_graph::{shortest, DiGraph, NodeId};

/// The evaluation topologies of the paper, by published size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Rocketfuel Abovenet-like (§6): 23 nodes, 31 undirected links.
    Abovenet,
    /// Topology-Zoo Abvt-like (Table 5): 23 nodes, 31 links.
    Abvt,
    /// Topology-Zoo Tinet-like (Table 5): 53 nodes, 89 links.
    Tinet,
    /// Topology-Zoo Deltacom-like (Table 5): 113 nodes, 161 links.
    Deltacom,
    /// Synthetic stress family, an order of magnitude past the paper's
    /// largest evaluation topology: 1000 nodes, 10000 undirected links.
    /// Exercises the solver stack's flat-memory paths (CSR adjacency,
    /// on-demand distance rows) at a scale where a dense |V|² distance
    /// matrix is no longer acceptable.
    Stress,
}

impl TopologyKind {
    /// `(nodes, undirected links)` of the published topology (or the
    /// synthetic stress shape).
    pub fn size(self) -> (usize, usize) {
        match self {
            TopologyKind::Abovenet | TopologyKind::Abvt => (23, 31),
            TopologyKind::Tinet => (53, 89),
            TopologyKind::Deltacom => (113, 161),
            TopologyKind::Stress => (1000, 10_000),
        }
    }

    /// Number of designated edge (cache) nodes: the appendix-D setting
    /// for the paper topologies, scaled up for the stress family.
    pub fn edge_node_count(self) -> usize {
        match self {
            TopologyKind::Stress => 64,
            _ => DEFAULT_EDGE_NODES,
        }
    }

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Abovenet => "Abovenet",
            TopologyKind::Abvt => "Abvt",
            TopologyKind::Tinet => "Tinet",
            TopologyKind::Deltacom => "Deltacom",
            TopologyKind::Stress => "Stress",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Role of a node in the edge-caching scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// Gateway to the origin server, which permanently stores the catalog.
    Origin,
    /// Edge node: receives user requests and hosts a cache.
    Edge,
    /// Internal router: forwards only.
    Internal,
}

/// Largest node count the text formats accept ([`Topology::from_edge_list`]
/// and `jcr_core::serial::from_text`), checked before any per-node
/// allocation so a corrupt or hostile index fails cleanly instead of
/// overflowing or exhausting memory. It is far above any topology the
/// generators build (the Stress graph has 1000 nodes).
pub const MAX_NODES: usize = 1 << 20;

/// Errors from topology construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopoError {
    /// The requested `(nodes, links)` pair cannot form the required shape.
    InvalidShape(String),
    /// An edge-list file could not be parsed.
    Parse(String),
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::InvalidShape(msg) => write!(f, "invalid topology shape: {msg}"),
            TopoError::Parse(msg) => write!(f, "edge-list parse error: {msg}"),
        }
    }
}

impl std::error::Error for TopoError {}

/// A network topology with link costs, link capacities, and node roles.
///
/// Each undirected ISP link is modelled as two directed edges with
/// independently drawn costs (`w_uv` need not equal `w_vu`, §2.1).
/// Capacities default to `f64::INFINITY`; use
/// [`Topology::set_uniform_capacity`] and
/// [`Topology::augment_origin_paths`] to apply the paper's capacity model.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The directed graph (two directed edges per physical link).
    pub graph: DiGraph,
    /// Routing cost per directed edge.
    pub cost: Vec<f64>,
    /// Capacity per directed edge (items or bits per unit time).
    pub capacity: Vec<f64>,
    /// The origin gateway node (degree 1 in the generated topologies).
    pub origin: NodeId,
    /// Edge nodes hosting caches and receiving requests.
    pub edge_nodes: Vec<NodeId>,
}

/// Default number of edge nodes designated by the generators, matching the
/// appendix-D setup (origin = lowest degree, next lowest-degree nodes are
/// edges).
pub const DEFAULT_EDGE_NODES: usize = 6;

impl Topology {
    /// Generates a seeded topology of the given kind with
    /// [`TopologyKind::edge_node_count`] edge nodes ([`DEFAULT_EDGE_NODES`]
    /// for the paper topologies).
    ///
    /// # Errors
    ///
    /// Propagates [`TopoError::InvalidShape`] (cannot happen for the
    /// built-in kinds).
    pub fn generate(kind: TopologyKind, seed: u64) -> Result<Self, TopoError> {
        let (n, m) = kind.size();
        Self::generate_custom(n, m, kind.edge_node_count(), seed)
    }

    /// Generates a seeded random connected topology with `n` nodes, `m`
    /// undirected links, and `edge_count` edge nodes.
    ///
    /// Construction: a random spanning tree over nodes `1..n` plus
    /// degree-preferential extra links (creating hub/periphery structure as
    /// in real ISP maps), with node `0` attached as a degree-1 origin
    /// gateway. Origin link costs are drawn from `[100, 200]`, core link
    /// costs from `[1, 20]` (per direction), following §6.
    ///
    /// # Errors
    ///
    /// [`TopoError::InvalidShape`] if `m < n − 1` (cannot be connected),
    /// `m` exceeds the simple-graph maximum, `n < 3`, or
    /// `edge_count ≥ n − 1`.
    pub fn generate_custom(
        n: usize,
        m: usize,
        edge_count: usize,
        seed: u64,
    ) -> Result<Self, TopoError> {
        if n < 3 {
            return Err(TopoError::InvalidShape("need at least 3 nodes".into()));
        }
        if m < n - 1 {
            return Err(TopoError::InvalidShape(format!(
                "{m} links cannot connect {n} nodes"
            )));
        }
        // Node 0 is the origin with exactly one link; the rest form a
        // simple graph on n−1 nodes.
        let core = n - 1;
        if m - 1 > core * (core - 1) / 2 {
            return Err(TopoError::InvalidShape(format!(
                "{m} links exceed the simple-graph maximum for {n} nodes"
            )));
        }
        if edge_count >= n - 1 {
            return Err(TopoError::InvalidShape(format!(
                "{edge_count} edge nodes do not fit in {n} nodes"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a63_725f_746f_706f); // "jcr_topo"
        let mut graph = DiGraph::with_capacity(n, 2 * m);
        let nodes = graph.add_nodes(n);
        let origin = nodes[0];

        // Undirected adjacency bookkeeping for the core (nodes 1..n), as
        // one flat row-major bit-per-pair matrix (a stress-scale n keeps
        // this to a single n² allocation instead of n separate rows).
        let mut undirected: Vec<(usize, usize)> = Vec::with_capacity(m);
        let mut adj = vec![false; n * n];
        let mut degree = vec![0usize; n];
        let connect = |u: usize,
                       v: usize,
                       undirected: &mut Vec<(usize, usize)>,
                       adj: &mut Vec<bool>,
                       degree: &mut Vec<usize>| {
            undirected.push((u, v));
            adj[u * n + v] = true;
            adj[v * n + u] = true;
            degree[u] += 1;
            degree[v] += 1;
        };

        // Random spanning tree over the core.
        for i in 2..n {
            let j = rng.gen_range(1..i);
            connect(i, j, &mut undirected, &mut adj, &mut degree);
        }
        // Extra links with degree-preferential endpoints (hubs emerge).
        let extra = m - 1 - (n - 2);
        let mut placed = 0;
        let mut attempts = 0;
        while placed < extra {
            attempts += 1;
            if attempts > 100 * (extra + 1) * n {
                return Err(TopoError::InvalidShape(
                    "failed to place extra links (graph too dense)".into(),
                ));
            }
            let u = weighted_node(&mut rng, &degree, 1, n);
            let v = rng.gen_range(1..n);
            if u == v || adj[u * n + v] {
                continue;
            }
            connect(u, v, &mut undirected, &mut adj, &mut degree);
            placed += 1;
        }
        // Attach the origin to a well-connected core node.
        let hub = weighted_node(&mut rng, &degree, 1, n);
        connect(0, hub, &mut undirected, &mut adj, &mut degree);

        // Materialize directed edges with costs.
        let mut cost = Vec::with_capacity(2 * m);
        for &(u, v) in &undirected {
            let origin_link = u == 0 || v == 0;
            let range = if origin_link { 100.0..200.0 } else { 1.0..20.0 };
            graph.add_edge(nodes[u], nodes[v]);
            cost.push(rng.gen_range(range.clone()));
            graph.add_edge(nodes[v], nodes[u]);
            cost.push(rng.gen_range(range));
        }
        let capacity = vec![f64::INFINITY; graph.edge_count()];

        // Edge nodes: the lowest-degree core nodes (ties by id), excluding
        // the origin's attachment hub so edges sit away from the gateway.
        let mut candidates: Vec<usize> = (1..n).filter(|&v| v != hub).collect();
        candidates.sort_by_key(|&v| (degree[v], v));
        let edge_nodes: Vec<NodeId> = candidates
            .into_iter()
            .take(edge_count)
            .map(|v| nodes[v])
            .collect();

        debug_assert!(graph.is_weakly_connected());
        Ok(Topology {
            graph,
            cost,
            capacity,
            origin,
            edge_nodes,
        })
    }

    /// Parses a plain-text edge list.
    ///
    /// Format, one record per line (`#` comments allowed):
    ///
    /// ```text
    /// origin <node>
    /// edge <node>
    /// link <u> <v> <cost_uv> <cost_vu> [capacity]
    /// ```
    ///
    /// Nodes are dense indices starting at 0. Each `link` line creates two
    /// directed edges; costs are finite and non-negative, and capacity is
    /// non-negative and defaults to infinity.
    ///
    /// # Errors
    ///
    /// [`TopoError::Parse`] on malformed lines (a missing, unparsable or
    /// extra token, a negative or non-finite cost, a negative or NaN
    /// capacity), missing `origin`, or a node index of [`MAX_NODES`] or
    /// more.
    pub fn from_edge_list(text: &str) -> Result<Self, TopoError> {
        let mut links: Vec<(usize, usize, f64, f64, f64)> = Vec::new();
        let mut origin: Option<usize> = None;
        let mut edges_decl: Vec<usize> = Vec::new();
        let mut max_node = 0usize;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            // Empty lines are filtered above; an empty keyword can only
            // mean that invariant broke, and falls through to the
            // unknown-keyword parse error instead of panicking.
            let keyword = parts.next().unwrap_or_default();
            let mut next_usize = |what: &str| -> Result<usize, TopoError> {
                parts
                    .next()
                    .ok_or_else(|| {
                        TopoError::Parse(format!("line {}: missing {what}", lineno + 1))
                    })?
                    .parse()
                    .map_err(|_| TopoError::Parse(format!("line {}: bad {what}", lineno + 1)))
            };
            let bad = |what: &str| TopoError::Parse(format!("line {}: {what}", lineno + 1));
            match keyword {
                "origin" | "edge" => {
                    let node = next_usize("node")?;
                    if parts.next().is_some() {
                        return Err(bad("trailing tokens after the node"));
                    }
                    if keyword == "origin" {
                        origin = Some(node);
                    } else {
                        edges_decl.push(node);
                    }
                }
                "link" => {
                    let u = next_usize("u")?;
                    let v = next_usize("v")?;
                    let rest: Vec<f64> = parts
                        .map(|t| {
                            t.parse().map_err(|_| {
                                TopoError::Parse(format!("line {}: bad number", lineno + 1))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    if rest.len() < 2 || rest.len() > 3 {
                        return Err(TopoError::Parse(format!(
                            "line {}: expected cost_uv cost_vu [capacity]",
                            lineno + 1
                        )));
                    }
                    if !rest[..2].iter().all(|c| c.is_finite() && *c >= 0.0) {
                        return Err(bad("link costs must be finite and non-negative"));
                    }
                    let cap = rest.get(2).copied().unwrap_or(f64::INFINITY);
                    if cap.is_nan() || cap < 0.0 {
                        return Err(bad("link capacity must be non-negative"));
                    }
                    max_node = max_node.max(u).max(v);
                    links.push((u, v, rest[0], rest[1], cap));
                }
                other => {
                    return Err(TopoError::Parse(format!(
                        "line {}: unknown keyword {other:?}",
                        lineno + 1
                    )))
                }
            }
        }
        let origin =
            origin.ok_or_else(|| TopoError::Parse("missing `origin` declaration".into()))?;
        max_node = max_node
            .max(origin)
            .max(edges_decl.iter().copied().max().unwrap_or(0));
        if max_node >= MAX_NODES {
            return Err(TopoError::Parse(format!(
                "node {max_node} exceeds the format's limit of {MAX_NODES} nodes"
            )));
        }

        let mut graph = DiGraph::with_capacity(max_node + 1, 2 * links.len());
        let nodes = graph.add_nodes(max_node + 1);
        let mut cost = Vec::new();
        let mut capacity = Vec::new();
        for (u, v, cuv, cvu, cap) in links {
            graph.add_edge(nodes[u], nodes[v]);
            cost.push(cuv);
            capacity.push(cap);
            graph.add_edge(nodes[v], nodes[u]);
            cost.push(cvu);
            capacity.push(cap);
        }
        Ok(Topology {
            graph,
            cost,
            capacity,
            origin: nodes[origin],
            edge_nodes: edges_decl.into_iter().map(|v| nodes[v]).collect(),
        })
    }

    /// Role of a node.
    pub fn role(&self, v: NodeId) -> NodeRole {
        if v == self.origin {
            NodeRole::Origin
        } else if self.edge_nodes.contains(&v) {
            NodeRole::Edge
        } else {
            NodeRole::Internal
        }
    }

    /// Sets every link's capacity to `kappa` (the paper's default is 0.7 %
    /// of the total request rate).
    pub fn set_uniform_capacity(&mut self, kappa: f64) {
        for c in &mut self.capacity {
            *c = kappa;
        }
    }

    /// Augments capacities along a cycle-free origin→edge path per edge
    /// node by that node's total demand, so every request can fall back to
    /// the origin server (the paper's feasibility guarantee, §6).
    ///
    /// The paper specifies only "a cycle-free path", so the augmented path
    /// is a seeded random simple path (randomized DFS), which generally
    /// differs from the least-cost path — cost-greedy routings (e.g. the
    /// shortest-path baselines) can therefore still congest links the
    /// augmentation did not widen, exactly as in the paper's evaluation.
    ///
    /// `demand[k]` is the total request rate of `edge_nodes[k]`.
    ///
    /// # Errors
    ///
    /// [`TopoError::InvalidShape`] when an edge node is unreachable from
    /// the origin — possible for hand-written
    /// [`Topology::from_edge_list`] inputs, never for generated
    /// topologies.
    ///
    /// # Panics
    ///
    /// Panics if `demand.len() != edge_nodes.len()` (a caller bug, not a
    /// data error).
    pub fn augment_origin_paths(&mut self, demand: &[f64]) -> Result<(), TopoError> {
        assert_eq!(
            demand.len(),
            self.edge_nodes.len(),
            "one demand per edge node"
        );
        for (k, &e_node) in self.edge_nodes.iter().enumerate() {
            let path = self
                .random_simple_path(self.origin, e_node, k as u64)
                .ok_or_else(|| {
                    TopoError::InvalidShape(format!(
                        "edge node n{} unreachable from the origin",
                        e_node.index()
                    ))
                })?;
            for e in path {
                self.capacity[e.index()] += demand[k];
            }
        }
        Ok(())
    }

    /// A seeded random simple `src → dst` path (randomized DFS).
    fn random_simple_path(
        &self,
        src: NodeId,
        dst: NodeId,
        seed: u64,
    ) -> Option<Vec<jcr_graph::EdgeId>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6175_676d_656e_7421);
        let n = self.graph.node_count();
        let mut visited = vec![false; n];
        let mut parent: Vec<Option<jcr_graph::EdgeId>> = vec![None; n];
        let mut stack = vec![src];
        visited[src.index()] = true;
        while let Some(v) = stack.pop() {
            if v == dst {
                let mut edges = Vec::new();
                let mut cur = dst;
                while let Some(e) = parent[cur.index()] {
                    edges.push(e);
                    cur = self.graph.src(e);
                }
                edges.reverse();
                return Some(edges);
            }
            let mut out: Vec<jcr_graph::EdgeId> = self.graph.out_edges(v).to_vec();
            // Fisher–Yates shuffle for a random neighbour order.
            for i in (1..out.len()).rev() {
                let j = rng.gen_range(0..=i);
                out.swap(i, j);
            }
            for e in out {
                let w = self.graph.dst(e);
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    parent[w.index()] = Some(e);
                    stack.push(w);
                }
            }
        }
        None
    }

    /// Renders the topology in Graphviz DOT format, colouring the origin
    /// red, edge nodes blue, and internal nodes grey (mirroring the
    /// paper's Fig. 3 legend). Each physical link is drawn once with its
    /// two directed costs.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        // `fmt::Write` into a `String` is infallible; the expects below
        // document that invariant rather than a reachable failure.
        let mut out = String::from("graph topology {\n  layout=neato;\n  overlap=false;\n");
        for v in self.graph.nodes() {
            let (color, shape) = match self.role(v) {
                NodeRole::Origin => ("red", "doublecircle"),
                NodeRole::Edge => ("blue", "circle"),
                NodeRole::Internal => ("grey", "circle"),
            };
            writeln!(out, "  n{} [color={color}, shape={shape}];", v.index())
                .expect("write to string");
        }
        // Draw each undirected pair once; directed costs as the label.
        let mut seen = vec![false; self.graph.edge_count()];
        for e in self.graph.edges() {
            if seen[e.index()] {
                continue;
            }
            let (u, v) = self.graph.endpoints(e);
            let back = self.graph.find_edge(v, u);
            if let Some(b) = back {
                seen[b.index()] = true;
            }
            let label = match back {
                Some(b) => format!("{:.0}/{:.0}", self.cost[e.index()], self.cost[b.index()]),
                None => format!("{:.0}", self.cost[e.index()]),
            };
            writeln!(
                out,
                "  n{} -- n{} [label=\"{label}\"];",
                u.index(),
                v.index()
            )
            .expect("write to string");
        }
        out.push_str("}\n");
        out
    }

    /// Structural statistics: undirected degree distribution (per node,
    /// counting each physical link once), cost-weighted diameter over
    /// finite pairs, and mean origin→edge least cost — the quantities
    /// Appendix D.4 relates to performance ("higher cost or congestion if
    /// the size is larger or the edge nodes are more scattered").
    pub fn stats(&self) -> TopologyStats {
        let degrees: Vec<usize> = self
            .graph
            .nodes()
            .map(|v| self.graph.out_degree(v))
            .collect();
        // Stream one Dijkstra row at a time through a shared scratch: the
        // diameter needs only the running maximum, so even a stress-scale
        // topology never materializes the |V|² distance matrix here.
        let mut scratch = shortest::DijkstraScratch::new();
        let mut diameter = 0.0f64;
        let mut origin_edge_sum = 0.0f64;
        for v in self.graph.nodes() {
            shortest::dijkstra_filtered_into(
                &self.graph,
                v,
                &self.cost,
                |_| true,
                &[],
                &mut scratch,
            );
            for &d in scratch.dists() {
                if d.is_finite() {
                    diameter = diameter.max(d);
                }
            }
            if v == self.origin {
                origin_edge_sum = self
                    .edge_nodes
                    .iter()
                    .map(|&w| scratch.dist(w))
                    .filter(|d| d.is_finite())
                    .sum();
            }
        }
        let mean_origin_edge = if self.edge_nodes.is_empty() {
            0.0
        } else {
            origin_edge_sum / self.edge_nodes.len() as f64
        };
        TopologyStats {
            degrees,
            diameter,
            mean_origin_edge_cost: mean_origin_edge,
        }
    }

    /// Total demand-weighted least cost of serving everything from the
    /// origin (a simple upper-bound reference for experiments).
    pub fn origin_only_cost(&self, demand: &[f64]) -> f64 {
        let tree = shortest::dijkstra_filtered(&self.graph, self.origin, &self.cost, |_| true);
        self.edge_nodes
            .iter()
            .zip(demand)
            .map(|(&v, d)| tree.dist(v) * d)
            .sum()
    }
}

/// Structural statistics of a topology (see [`Topology::stats`]).
#[derive(Clone, Debug)]
pub struct TopologyStats {
    /// Out-degree per node (equals the undirected link count per node).
    pub degrees: Vec<usize>,
    /// Largest finite pairwise least cost.
    pub diameter: f64,
    /// Mean least cost from the origin to the edge nodes.
    pub mean_origin_edge_cost: f64,
}

impl TopologyStats {
    /// Maximum node degree.
    pub fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0)
    }

    /// Mean node degree.
    pub fn mean_degree(&self) -> f64 {
        if self.degrees.is_empty() {
            0.0
        } else {
            self.degrees.iter().sum::<usize>() as f64 / self.degrees.len() as f64
        }
    }
}

/// Samples a node index in `[lo, hi)` with probability proportional to
/// `degree + 1`.
fn weighted_node<R: Rng>(rng: &mut R, degree: &[usize], lo: usize, hi: usize) -> usize {
    let total: usize = degree[lo..hi].iter().map(|d| d + 1).sum();
    let mut pick = rng.gen_range(0..total);
    for (v, d) in degree.iter().enumerate().take(hi).skip(lo) {
        let w = d + 1;
        if pick < w {
            return v;
        }
        pick -= w;
    }
    hi - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_published_sizes() {
        for kind in [
            TopologyKind::Abovenet,
            TopologyKind::Abvt,
            TopologyKind::Tinet,
            TopologyKind::Deltacom,
        ] {
            let t = Topology::generate(kind, 7).unwrap();
            let (n, m) = kind.size();
            assert_eq!(t.graph.node_count(), n, "{kind}");
            assert_eq!(t.graph.edge_count(), 2 * m, "{kind}");
            assert!(t.graph.is_weakly_connected(), "{kind}");
            assert_eq!(t.graph.degree(t.origin), 2, "{kind} origin degree");
            assert_eq!(t.edge_nodes.len(), DEFAULT_EDGE_NODES);
            assert!(!t.edge_nodes.contains(&t.origin));
        }
    }

    #[test]
    fn stress_family_generates_at_scale() {
        let t = Topology::generate(TopologyKind::Stress, 9).unwrap();
        assert_eq!(t.graph.node_count(), 1000);
        assert_eq!(t.graph.edge_count(), 20_000);
        assert!(t.graph.is_weakly_connected());
        assert_eq!(t.edge_nodes.len(), 64);
        assert_eq!(t.graph.degree(t.origin), 2);
        assert!(!t.edge_nodes.contains(&t.origin));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Topology::generate(TopologyKind::Abovenet, 5).unwrap();
        let b = Topology::generate(TopologyKind::Abovenet, 5).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.edge_nodes, b.edge_nodes);
        let c = Topology::generate(TopologyKind::Abovenet, 6).unwrap();
        assert_ne!(a.cost, c.cost);
    }

    #[test]
    fn cost_model_matches_paper() {
        let t = Topology::generate(TopologyKind::Abovenet, 11).unwrap();
        for e in t.graph.edges() {
            let (u, v) = t.graph.endpoints(e);
            let c = t.cost[e.index()];
            if u == t.origin || v == t.origin {
                assert!((100.0..200.0).contains(&c), "origin link cost {c}");
            } else {
                assert!((1.0..20.0).contains(&c), "core link cost {c}");
            }
        }
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(matches!(
            Topology::generate_custom(2, 5, 1, 0),
            Err(TopoError::InvalidShape(_))
        ));
        assert!(matches!(
            Topology::generate_custom(10, 5, 3, 0),
            Err(TopoError::InvalidShape(_))
        ));
        assert!(matches!(
            Topology::generate_custom(5, 100, 2, 0),
            Err(TopoError::InvalidShape(_))
        ));
        assert!(matches!(
            Topology::generate_custom(5, 5, 4, 0),
            Err(TopoError::InvalidShape(_))
        ));
    }

    #[test]
    fn capacity_model() {
        let mut t = Topology::generate(TopologyKind::Abovenet, 3).unwrap();
        t.set_uniform_capacity(10.0);
        assert!(t.capacity.iter().all(|&c| c == 10.0));
        let demand = vec![5.0; t.edge_nodes.len()];
        t.augment_origin_paths(&demand).unwrap();
        // The origin's outgoing link carries every fallback path.
        let out = t.graph.out_edges(t.origin)[0];
        assert!(t.capacity[out.index()] >= 10.0 + 5.0 * t.edge_nodes.len() as f64 - 1e-9);
    }

    #[test]
    fn edge_list_round_trip() {
        let text = "\
# tiny triangle
origin 0
edge 2
link 0 1 100 150
link 1 2 5 6 2.5
";
        let t = Topology::from_edge_list(text).unwrap();
        assert_eq!(t.graph.node_count(), 3);
        assert_eq!(t.graph.edge_count(), 4);
        assert_eq!(t.origin.index(), 0);
        assert_eq!(t.edge_nodes.len(), 1);
        assert_eq!(t.cost, vec![100.0, 150.0, 5.0, 6.0]);
        assert_eq!(t.capacity[2], 2.5);
        assert!(t.capacity[0].is_infinite());
        assert_eq!(t.role(t.origin), NodeRole::Origin);
        assert_eq!(t.role(t.edge_nodes[0]), NodeRole::Edge);
        assert_eq!(t.role(NodeId::new(1)), NodeRole::Internal);
    }

    #[test]
    fn edge_list_errors() {
        assert!(matches!(
            Topology::from_edge_list("link 0 1 5 5"),
            Err(TopoError::Parse(_))
        ));
        assert!(matches!(
            Topology::from_edge_list("origin 0\nlink 0 1 5"),
            Err(TopoError::Parse(_))
        ));
        assert!(matches!(
            Topology::from_edge_list("origin 0\nfrobnicate 1"),
            Err(TopoError::Parse(_))
        ));
        // Hostile node indices: an overflowing `max_node + 1` and a
        // multi-gigabyte node allocation are errors, not panics.
        for bad in [
            "origin 18446744073709551615",
            "origin 0\nlink 0 18446744073709551615 1 1",
            "origin 4000000000",
            "origin 0\nedge 1048576",
        ] {
            assert!(
                matches!(Topology::from_edge_list(bad), Err(TopoError::Parse(_))),
                "{bad:?} was accepted"
            );
        }
        // Costs every shortest path relies on, capacities, and trailing
        // tokens; each error names its line.
        for (bad, line) in [
            ("origin 0 5\nlink 0 1 1 1", 1),
            ("origin 0\nedge 1 2\nlink 0 1 1 1", 2),
            ("origin 0\nlink 0 1 -1 1", 2),
            ("origin 0\nlink 0 1 1 nan", 2),
            ("origin 0\nlink 0 1 inf 1", 2),
            ("origin 0\nlink 0 1 1 -inf", 2),
            ("origin 0\nlink 0 1 1 1 -0.5", 2),
            ("origin 0\nlink 0 1 1 1 NaN", 2),
            ("origin 0\nlink 0 1 1 1 -inf", 2),
            ("origin 0\nlink 0 1 1 1 1 1", 2),
        ] {
            match Topology::from_edge_list(bad) {
                Err(TopoError::Parse(msg)) => {
                    assert!(msg.starts_with(&format!("line {line}:")), "{bad:?}: {msg}")
                }
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
        // The edge cases that stay valid: zero costs, an explicit infinite
        // capacity (the default) and a zero one.
        let t = Topology::from_edge_list("origin 0\nedge 1\nlink 0 1 0 0 inf\nlink 1 2 1 1 0")
            .expect("valid edge list");
        assert_eq!(t.cost, vec![0.0, 0.0, 1.0, 1.0]);
        assert_eq!(t.capacity, vec![f64::INFINITY, f64::INFINITY, 0.0, 0.0]);
    }

    #[test]
    fn stats_are_consistent() {
        let t = Topology::generate(TopologyKind::Abovenet, 4).unwrap();
        let stats = t.stats();
        assert_eq!(stats.degrees.len(), 23);
        // 31 undirected links → mean degree 2·31/23.
        assert!((stats.mean_degree() - 2.0 * 31.0 / 23.0).abs() < 1e-9);
        assert_eq!(stats.degrees[t.origin.index()], 1);
        assert!(
            stats.max_degree() >= 3,
            "preferential attachment creates hubs"
        );
        assert!(stats.diameter > 100.0, "origin link dominates the diameter");
        assert!(stats.mean_origin_edge_cost > 100.0);
        assert!(stats.mean_origin_edge_cost <= stats.diameter);
    }

    #[test]
    fn dot_export_shape() {
        let t = Topology::generate(TopologyKind::Abovenet, 4).unwrap();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph topology {"));
        assert!(dot.ends_with("}\n"));
        // One node statement per node, one edge statement per physical link.
        assert_eq!(dot.matches("shape=").count(), 23);
        assert_eq!(dot.matches(" -- ").count(), 31);
        assert_eq!(dot.matches("doublecircle").count(), 1);
    }

    #[test]
    fn origin_only_cost_is_positive() {
        let t = Topology::generate(TopologyKind::Tinet, 2).unwrap();
        let demand = vec![1.0; t.edge_nodes.len()];
        assert!(t.origin_only_cost(&demand) > 100.0);
    }
}
