//! All-pairs distances without the all-pairs matrix.
//!
//! Paper-scale topologies (23–113 nodes) afford a dense |V|² distance
//! table; a 1000-node stress instance does not — and the solvers never
//! need most of it, because RNR routing only ever asks for rows rooted at
//! replica holders and the origin. [`DistanceOracle`] serves both regimes
//! behind one API: below a configurable node-count threshold it stores
//! one flat row-major block (distance + parent-edge planes), above it it
//! computes rows on demand into an LRU-bounded cache whose buffers are
//! recycled arena-style on eviction.

use std::sync::{Arc, Mutex, OnceLock};

use jcr_ctx::SolverContext;

use crate::graph::{DiGraph, EdgeId, NodeId};
use crate::path::Path;
use crate::shortest::{dijkstra_filtered_into, dijkstra_into_with_context, DijkstraScratch};

/// Sentinel in parent planes: no parent edge (source or unreachable).
const NO_PARENT: u32 = u32::MAX;

/// Default node-count threshold above which the oracle switches from the
/// dense block to on-demand rows. Overridable per oracle via
/// [`DistanceOracle::with_dense_max`].
pub const DEFAULT_DENSE_MAX: usize = 600;

/// Default number of rows the on-demand cache retains.
/// Overridable via [`DistanceOracle::with_config`].
pub const DEFAULT_ROW_CAPACITY: usize = 128;

/// One shortest-path row: distances and parent edges from a single
/// source to every node, exactly what one Dijkstra run produces.
#[derive(Clone, Debug)]
pub struct RowData {
    dist: Vec<f64>,
    parent: Vec<u32>,
}

impl RowData {
    fn fill(&mut self, scratch: &DijkstraScratch, n: usize) {
        self.dist.clear();
        self.dist.extend_from_slice(&scratch.dists()[..n]);
        self.parent.clear();
        self.parent.extend((0..n).map(|v| {
            scratch
                .parent_edge(NodeId::new(v))
                .map_or(NO_PARENT, |e| e.index() as u32)
        }));
    }
}

/// A borrowed or shared view of one source's row. Dense rows borrow the
/// flat block; on-demand rows hand out an `Arc` so the cache can evict
/// without invalidating readers (fetch once, then read lock-free).
#[derive(Clone, Debug)]
pub enum Row<'a> {
    /// Slices of the dense row-major block.
    Dense {
        /// Distances from the row's source, indexed by node.
        dist: &'a [f64],
        /// Parent-edge plane (`NO_PARENT` = none).
        parent: &'a [u32],
    },
    /// A shared handle to an on-demand row.
    Cached(Arc<RowData>),
}

impl Row<'_> {
    /// Least cost from the row's source to `t` (`f64::INFINITY` if
    /// unreachable).
    pub fn dist(&self, t: NodeId) -> f64 {
        self.dists()[t.index()]
    }

    /// All distances from the row's source, indexed by node.
    pub fn dists(&self) -> &[f64] {
        match self {
            Row::Dense { dist, .. } => dist,
            Row::Cached(data) => &data.dist,
        }
    }

    fn parents(&self) -> &[u32] {
        match self {
            Row::Dense { parent, .. } => parent,
            Row::Cached(data) => &data.parent,
        }
    }

    /// Reconstructs the source-to-`t` path into `out` (cleared first).
    /// Returns `false`, leaving `out` empty, if `t` is unreachable.
    pub fn path_into(&self, g: &DiGraph, t: NodeId, out: &mut Vec<EdgeId>) -> bool {
        out.clear();
        if !self.dist(t).is_finite() {
            return false;
        }
        let parents = self.parents();
        let mut v = t;
        while parents[v.index()] != NO_PARENT {
            let e = EdgeId::new(parents[v.index()] as usize);
            out.push(e);
            v = g.src(e);
        }
        out.reverse();
        true
    }
}

/// The LRU row cache backing on-demand mode. Eviction recycles the
/// victim's buffers into a free list when no reader still holds the row,
/// so a steady-state cache performs no allocation at all.
#[derive(Debug, Default)]
struct RowCache {
    /// source index -> occupied slot, or `u32::MAX`.
    slot_of: Vec<u32>,
    /// slot -> source index currently stored there.
    src_of: Vec<u32>,
    rows: Vec<Arc<RowData>>,
    last_used: Vec<u64>,
    tick: u64,
    capacity: usize,
    rows_computed: u64,
    free: Vec<RowData>,
    scratch: DijkstraScratch,
}

impl RowCache {
    fn new(n: usize, capacity: usize) -> Self {
        RowCache {
            slot_of: vec![u32::MAX; n],
            src_of: Vec::new(),
            rows: Vec::new(),
            last_used: Vec::new(),
            tick: 0,
            capacity: capacity.max(1),
            rows_computed: 0,
            free: Vec::new(),
            scratch: DijkstraScratch::default(),
        }
    }

    fn lookup(&mut self, s: NodeId) -> Option<Arc<RowData>> {
        let slot = self.slot_of[s.index()];
        if slot == u32::MAX {
            return None;
        }
        self.tick += 1;
        self.last_used[slot as usize] = self.tick;
        Some(Arc::clone(&self.rows[slot as usize]))
    }

    /// Inserts a computed row, evicting the least-recently-used slot when
    /// the cache is full. Insertion order is the caller's responsibility —
    /// `prime` inserts in source order so the LRU state is deterministic
    /// regardless of how many workers computed the rows.
    fn insert(&mut self, s: NodeId, data: RowData) -> Arc<RowData> {
        self.tick += 1;
        let row = Arc::new(data);
        if self.rows.len() < self.capacity {
            let slot = self.rows.len() as u32;
            self.rows.push(Arc::clone(&row));
            self.src_of.push(s.index() as u32);
            self.last_used.push(self.tick);
            self.slot_of[s.index()] = slot;
            return row;
        }
        let victim = self
            .last_used
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .expect("capacity >= 1");
        let old_src = self.src_of[victim] as usize;
        self.slot_of[old_src] = u32::MAX;
        let old = std::mem::replace(&mut self.rows[victim], Arc::clone(&row));
        if let Some(buf) = Arc::into_inner(old) {
            self.free.push(buf);
        }
        self.src_of[victim] = s.index() as u32;
        self.last_used[victim] = self.tick;
        self.slot_of[s.index()] = victim as u32;
        row
    }

    fn take_buffer(&mut self) -> RowData {
        self.free.pop().unwrap_or(RowData {
            dist: Vec::new(),
            parent: Vec::new(),
        })
    }
}

/// What a carry-forward oracle construction did with the previous
/// oracle's rows (see [`DistanceOracle::carry_with_config`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarryReport {
    /// Rows whose delta certificate held and that were copied verbatim.
    pub rows_carried: usize,
    /// Candidate rows invalidated by the cost delta (recomputed lazily or
    /// eagerly depending on storage mode).
    pub rows_dropped: usize,
    /// Carried rows re-verified bitwise against a fresh Dijkstra.
    pub rows_verified: usize,
    /// Whether the previous oracle's graph was structurally identical;
    /// `false` means nothing was carried.
    pub compatible: bool,
    /// Whether the sampled re-verification found a mismatch (in which
    /// case every carried row was dropped and the build went cold).
    pub verify_failed: bool,
}

/// Default number of carried rows re-verified bitwise against a fresh
/// Dijkstra in [`DistanceOracle::carry_with_config`].
pub const DEFAULT_CARRY_VERIFY_SAMPLES: usize = 2;

/// Named counter: oracle rows carried across a cost delta.
pub const ROWS_CARRIED: &str = "graph.oracle.rows_carried";
/// Named counter: candidate rows invalidated by a cost delta.
pub const ROWS_DROPPED: &str = "graph.oracle.rows_dropped";

#[derive(Debug)]
enum Storage {
    /// Flat row-major `n × n` planes: `dist[s * n + t]`, `parent[s * n + t]`.
    Dense {
        dist: Vec<f64>,
        parent: Vec<u32>,
    },
    OnDemand(Mutex<RowCache>),
}

/// Shortest-path distances (and paths) between all node pairs, stored
/// densely for paper-scale graphs and computed on demand past a node
/// threshold.
///
/// The oracle owns its graph and cost vector, so rows computed lazily are
/// guaranteed to see the same inputs the dense block would have — and
/// both modes run the identical Dijkstra core, so on-demand rows are
/// bit-equal to their dense counterparts.
#[derive(Debug)]
pub struct DistanceOracle {
    graph: DiGraph,
    cost: Vec<f64>,
    storage: Storage,
    max_cost: OnceLock<f64>,
}

impl DistanceOracle {
    /// Builds an oracle for `graph` under `cost`, choosing dense or
    /// on-demand storage by the default threshold ([`DEFAULT_DENSE_MAX`]).
    pub fn new(graph: &DiGraph, cost: &[f64]) -> Self {
        Self::with_config(graph, cost, DEFAULT_DENSE_MAX, DEFAULT_ROW_CAPACITY, None)
    }

    /// [`DistanceOracle::new`] that fans the dense fill out over
    /// `ctx.workers()` threads and records the Dijkstra runs on `ctx`
    /// (on-demand mode defers all row work, so construction is O(n)).
    pub fn new_with_context(graph: &DiGraph, cost: &[f64], ctx: &SolverContext) -> Self {
        Self::with_config(
            graph,
            cost,
            DEFAULT_DENSE_MAX,
            DEFAULT_ROW_CAPACITY,
            Some(ctx),
        )
    }

    /// Builds with an explicit dense-mode node threshold.
    pub fn with_dense_max(graph: &DiGraph, cost: &[f64], dense_max: usize) -> Self {
        Self::with_config(graph, cost, dense_max, DEFAULT_ROW_CAPACITY, None)
    }

    /// Builds with explicit threshold and row-cache capacity and an
    /// optional context for the dense fill.
    pub fn with_config(
        graph: &DiGraph,
        cost: &[f64],
        dense_max: usize,
        row_capacity: usize,
        ctx: Option<&SolverContext>,
    ) -> Self {
        assert_eq!(cost.len(), graph.edge_count(), "cost slice length mismatch");
        let n = graph.node_count();
        let storage = if n <= dense_max {
            let (dist, parent) = match ctx {
                Some(ctx) => dense_fill_par(graph, cost, ctx),
                None => dense_fill(graph, cost),
            };
            Storage::Dense { dist, parent }
        } else {
            Storage::OnDemand(Mutex::new(RowCache::new(n, row_capacity)))
        };
        DistanceOracle {
            graph: graph.clone(),
            cost: cost.to_vec(),
            storage,
            max_cost: OnceLock::new(),
        }
    }

    /// The graph the oracle answers for.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The per-edge costs the oracle answers under.
    pub fn cost(&self) -> &[f64] {
        &self.cost
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Whether the oracle holds the full dense block (as opposed to the
    /// on-demand row cache).
    pub fn is_dense(&self) -> bool {
        matches!(self.storage, Storage::Dense { .. })
    }

    /// Number of on-demand rows computed so far (0 in dense mode — the
    /// block is filled at construction and never recomputed).
    pub fn rows_computed(&self) -> u64 {
        match &self.storage {
            Storage::Dense { .. } => 0,
            Storage::OnDemand(cache) => cache.lock().expect("row cache poisoned").rows_computed,
        }
    }

    /// Number of rows currently resident in the on-demand cache
    /// (`node_count` in dense mode).
    pub fn rows_resident(&self) -> usize {
        match &self.storage {
            Storage::Dense { .. } => self.graph.node_count(),
            Storage::OnDemand(cache) => cache.lock().expect("row cache poisoned").rows.len(),
        }
    }

    fn compute_row(&self, s: NodeId, cache: &mut RowCache) -> RowData {
        let n = self.graph.node_count();
        let mut data = cache.take_buffer();
        let mut scratch = std::mem::take(&mut cache.scratch);
        dijkstra_filtered_into(&self.graph, s, &self.cost, |_| true, &[], &mut scratch);
        data.fill(&scratch, n);
        cache.scratch = scratch;
        cache.rows_computed += 1;
        data
    }

    /// The row rooted at `s`: a borrowed slice pair in dense mode, a
    /// shared cache handle in on-demand mode (computed now if absent).
    ///
    /// Fetch the handle once per source and read it repeatedly — in
    /// on-demand mode every `row` call takes the cache lock.
    pub fn row(&self, s: NodeId) -> Row<'_> {
        match &self.storage {
            Storage::Dense { dist, parent } => {
                let n = self.graph.node_count();
                let lo = s.index() * n;
                Row::Dense {
                    dist: &dist[lo..lo + n],
                    parent: &parent[lo..lo + n],
                }
            }
            Storage::OnDemand(cache) => {
                let mut cache = cache.lock().expect("row cache poisoned");
                if let Some(row) = cache.lookup(s) {
                    return Row::Cached(row);
                }
                let data = self.compute_row(s, &mut cache);
                Row::Cached(cache.insert(s, data))
            }
        }
    }

    /// Least cost from `s` to `t` (`f64::INFINITY` if unreachable).
    pub fn dist(&self, s: NodeId, t: NodeId) -> f64 {
        self.row(s).dist(t)
    }

    /// A least-cost `s -> t` path, or `None` if unreachable.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        let mut edges = Vec::new();
        self.row(s)
            .path_into(&self.graph, t, &mut edges)
            .then(|| Path::new(edges))
    }

    /// Ensures the rows rooted at `sources` are resident, computing
    /// missing ones in parallel over `ctx.workers()` threads.
    ///
    /// Rows are inserted in `sources` order regardless of worker count,
    /// so the cache's LRU state (and therefore every later eviction
    /// decision) is deterministic. No-op in dense mode. Duplicate sources
    /// are primed once. If `sources` exceeds the cache capacity, only the
    /// last `capacity` of them stay resident — later `row` calls recompute
    /// the rest on demand.
    pub fn prime_rows_with_context(&self, sources: &[NodeId], ctx: &SolverContext) {
        let Storage::OnDemand(cache) = &self.storage else {
            return;
        };
        let missing: Vec<NodeId> = {
            let cache = cache.lock().expect("row cache poisoned");
            let mut seen = vec![false; self.graph.node_count()];
            sources
                .iter()
                .copied()
                .filter(|s| {
                    cache.slot_of[s.index()] == u32::MAX
                        && !std::mem::replace(&mut seen[s.index()], true)
                })
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let _s = ctx.span("graph.oracle.prime");
        let n = self.graph.node_count();
        let computed = jcr_ctx::par::par_map_init(
            ctx,
            &missing,
            DijkstraScratch::default,
            |scratch, wctx, _i, &s| {
                dijkstra_into_with_context(&self.graph, s, &self.cost, &[], scratch, wctx);
                let mut data = RowData {
                    dist: Vec::new(),
                    parent: Vec::new(),
                };
                data.fill(scratch, n);
                data
            },
        );
        let mut cache = cache.lock().expect("row cache poisoned");
        for (s, data) in missing.into_iter().zip(computed) {
            cache.rows_computed += 1;
            cache.insert(s, data);
        }
    }

    /// The largest finite pairwise distance, computed lazily on first use.
    ///
    /// Dense mode scans the resident block; on-demand mode streams one
    /// Dijkstra per source through a single scratch — it never stores the
    /// |V|² result, keeping peak memory O(|V|).
    pub fn max_cost(&self) -> f64 {
        *self.max_cost.get_or_init(|| match &self.storage {
            Storage::Dense { dist, .. } => dist
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .fold(0.0, f64::max),
            Storage::OnDemand(_) => {
                let mut scratch = DijkstraScratch::default();
                let mut max = 0.0f64;
                for s in self.graph.nodes() {
                    dijkstra_filtered_into(&self.graph, s, &self.cost, |_| true, &[], &mut scratch);
                    for &d in scratch.dists() {
                        if d.is_finite() && d > max {
                            max = d;
                        }
                    }
                }
                max
            }
        })
    }
}

impl DistanceOracle {
    /// Builds an oracle for `graph` under `cost`, carrying forward every
    /// row of `prev` that a per-edge delta certificate proves unchanged —
    /// dynamic-SSSP delta invalidation instead of a full sweep.
    ///
    /// A row rooted at `s` survives iff:
    ///
    /// * **(a)** no reachable node's parent edge *increased* in cost —
    ///   the tree's recorded distances are then still exact, and any
    ///   alternative path through an increased edge only got worse; and
    /// * **(b)** for every *decreased* edge `(u, v)`:
    ///   `dist(s,u) + c_new(u,v) > dist(s,v)` **strictly** (rows with
    ///   `dist(s,u) = ∞` pass vacuously: every `s → u` prefix uses only
    ///   non-decreased edges up to the first decreased one, so it cannot
    ///   have become finite). No decreased edge then offers an
    ///   equal-or-better path anywhere, so no distance changes — and
    ///   because the Dijkstra heap pops in deterministic `(dist, node)`
    ///   order and every dirty candidate for a surviving row is strictly
    ///   worse than the recorded optimum, the parent plane is unchanged
    ///   too: carried rows are **bit-identical** to freshly computed
    ///   ones. Equality is dropped conservatively — a tying edge could
    ///   flip the parent choice.
    ///
    /// The first `verify_samples` carried rows (in source order) are
    /// re-run from scratch and compared bitwise; any mismatch distrusts
    /// the whole carry and drops every carried row. Structural graph
    /// mismatch (node/edge counts or endpoints) carries nothing. Either
    /// way the result is a fully valid oracle — invalid rows are
    /// recomputed eagerly in dense mode and lazily in on-demand mode.
    pub fn carry_with_config(
        prev: &DistanceOracle,
        graph: &DiGraph,
        cost: &[f64],
        dense_max: usize,
        row_capacity: usize,
        verify_samples: usize,
        ctx: Option<&SolverContext>,
    ) -> (Self, CarryReport) {
        assert_eq!(cost.len(), graph.edge_count(), "cost slice length mismatch");
        let _s = ctx.map(|c| c.span("graph.oracle.carry"));
        let n = graph.node_count();
        let mut report = CarryReport {
            compatible: prev.graph.node_count() == n
                && prev.graph.edge_count() == graph.edge_count()
                && (0..graph.edge_count()).all(|e| {
                    prev.graph.endpoints(EdgeId::new(e)) == graph.endpoints(EdgeId::new(e))
                }),
            ..CarryReport::default()
        };
        if !report.compatible {
            let oracle = Self::with_config(graph, cost, dense_max, row_capacity, ctx);
            return (oracle, report);
        }
        let mut increased = vec![false; cost.len()];
        let mut decreased: Vec<EdgeId> = Vec::new();
        for e in 0..cost.len() {
            if cost[e] > prev.cost[e] {
                increased[e] = true;
            } else if cost[e] < prev.cost[e] {
                decreased.push(EdgeId::new(e));
            }
        }
        let row_valid = |dist: &[f64], parent: &[u32]| -> bool {
            for &p in parent.iter().take(n) {
                if p != NO_PARENT && increased[p as usize] {
                    return false;
                }
            }
            for &e in &decreased {
                let (u, v) = graph.endpoints(e);
                let du = dist[u.index()];
                if du.is_finite() && du + cost[e.index()] <= dist[v.index()] {
                    return false;
                }
            }
            true
        };
        // Candidate rows: every source in dense mode; resident cached
        // rows, visited in source order for LRU determinism, on demand.
        let candidates: Vec<(NodeId, RowData)> = match &prev.storage {
            Storage::Dense { dist, parent } => (0..n)
                .map(|s| {
                    let lo = s * n;
                    let data = RowData {
                        dist: dist[lo..lo + n].to_vec(),
                        parent: parent[lo..lo + n].to_vec(),
                    };
                    (NodeId::new(s), data)
                })
                .collect(),
            Storage::OnDemand(cache) => {
                let cache = cache.lock().expect("row cache poisoned");
                let mut srcs: Vec<u32> = cache.src_of.clone();
                srcs.sort_unstable();
                srcs.iter()
                    .map(|&s| {
                        let slot = cache.slot_of[s as usize] as usize;
                        (NodeId::new(s as usize), (*cache.rows[slot]).clone())
                    })
                    .collect()
            }
        };
        let mut carried: Vec<(NodeId, RowData)> = Vec::new();
        for (s, row) in candidates {
            if row_valid(&row.dist, &row.parent) {
                carried.push((s, row));
            } else {
                report.rows_dropped += 1;
            }
        }
        // The validation gate: a deterministic sample of carried rows is
        // recomputed from scratch and must match bitwise. One mismatch
        // means the certificate reasoning does not hold for this delta —
        // distrust everything carried and go cold.
        let mut scratch = DijkstraScratch::default();
        for (s, row) in carried.iter().take(verify_samples) {
            dijkstra_filtered_into(graph, *s, cost, |_| true, &[], &mut scratch);
            report.rows_verified += 1;
            let fresh_ok = (0..n).all(|v| {
                scratch.dists()[v].to_bits() == row.dist[v].to_bits()
                    && scratch
                        .parent_edge(NodeId::new(v))
                        .map_or(NO_PARENT, |e| e.index() as u32)
                        == row.parent[v]
            });
            if !fresh_ok {
                report.verify_failed = true;
                break;
            }
        }
        if report.verify_failed {
            report.rows_dropped += carried.len();
            carried.clear();
        }
        report.rows_carried = carried.len();
        if let Some(ctx) = ctx {
            ctx.obs()
                .add_counter(ROWS_CARRIED, report.rows_carried as u64);
            ctx.obs()
                .add_counter(ROWS_DROPPED, report.rows_dropped as u64);
        }
        let storage = if n <= dense_max {
            let mut have = vec![false; n];
            for (s, _) in &carried {
                have[s.index()] = true;
            }
            let missing: Vec<NodeId> = (0..n).filter(|&s| !have[s]).map(NodeId::new).collect();
            let computed: Vec<RowData> = match ctx {
                Some(ctx) if !missing.is_empty() => jcr_ctx::par::par_map_init(
                    ctx,
                    &missing,
                    DijkstraScratch::default,
                    |scratch, wctx, _i, &s| {
                        dijkstra_into_with_context(graph, s, cost, &[], scratch, wctx);
                        let mut data = RowData {
                            dist: Vec::new(),
                            parent: Vec::new(),
                        };
                        data.fill(scratch, n);
                        data
                    },
                ),
                _ => missing
                    .iter()
                    .map(|&s| {
                        dijkstra_filtered_into(graph, s, cost, |_| true, &[], &mut scratch);
                        let mut data = RowData {
                            dist: Vec::new(),
                            parent: Vec::new(),
                        };
                        data.fill(&scratch, n);
                        data
                    })
                    .collect(),
            };
            let mut dist = vec![f64::INFINITY; n * n];
            let mut parent = vec![NO_PARENT; n * n];
            for (s, row) in &carried {
                let lo = s.index() * n;
                dist[lo..lo + n].copy_from_slice(&row.dist);
                parent[lo..lo + n].copy_from_slice(&row.parent);
            }
            for (s, row) in missing.iter().zip(computed.iter()) {
                let lo = s.index() * n;
                dist[lo..lo + n].copy_from_slice(&row.dist);
                parent[lo..lo + n].copy_from_slice(&row.parent);
            }
            Storage::Dense { dist, parent }
        } else {
            let mut cache = RowCache::new(n, row_capacity);
            for (s, row) in carried {
                cache.insert(s, row);
            }
            Storage::OnDemand(Mutex::new(cache))
        };
        let oracle = DistanceOracle {
            graph: graph.clone(),
            cost: cost.to_vec(),
            storage,
            max_cost: OnceLock::new(),
        };
        (oracle, report)
    }
}

impl DistanceOracle {
    /// A clone that keeps the resident rows: dense clones copy the block
    /// (same as [`Clone`]), while on-demand clones share the currently
    /// cached rows (`Arc`-cheap) instead of starting cold. Rows are
    /// re-inserted in ascending source order so the clone's LRU state is
    /// deterministic regardless of the original's access history.
    ///
    /// This is the handle an hourly driver carries between hours so
    /// [`DistanceOracle::carry_with_config`] has rows to re-certify; the
    /// plain [`Clone`] stays cold on purpose (cached rows are derived
    /// state), so carry paths must use this instead.
    pub fn clone_resident(&self) -> Self {
        let storage = match &self.storage {
            Storage::Dense { dist, parent } => Storage::Dense {
                dist: dist.clone(),
                parent: parent.clone(),
            },
            Storage::OnDemand(cache) => {
                let cache = cache.lock().expect("row cache poisoned");
                let mut fresh = RowCache::new(self.graph.node_count(), cache.capacity);
                let mut resident: Vec<u32> = cache.src_of.clone();
                resident.sort_unstable();
                for s in resident {
                    if let Some(row) = cache
                        .slot_of
                        .get(s as usize)
                        .filter(|&&slot| slot != u32::MAX)
                        .map(|&slot| RowData::clone(&cache.rows[slot as usize]))
                    {
                        fresh.insert(NodeId::new(s as usize), row);
                    }
                }
                Storage::OnDemand(Mutex::new(fresh))
            }
        };
        DistanceOracle {
            graph: self.graph.clone(),
            cost: self.cost.clone(),
            storage,
            max_cost: self.max_cost.clone(),
        }
    }
}

impl Clone for DistanceOracle {
    /// Cloning an on-demand oracle starts with a cold cache (cached rows
    /// are derived state and recompute bit-identically); a dense clone
    /// copies the block.
    fn clone(&self) -> Self {
        let storage = match &self.storage {
            Storage::Dense { dist, parent } => Storage::Dense {
                dist: dist.clone(),
                parent: parent.clone(),
            },
            Storage::OnDemand(cache) => {
                let cache = cache.lock().expect("row cache poisoned");
                Storage::OnDemand(Mutex::new(RowCache::new(
                    self.graph.node_count(),
                    cache.capacity,
                )))
            }
        };
        DistanceOracle {
            graph: self.graph.clone(),
            cost: self.cost.clone(),
            storage,
            max_cost: self.max_cost.clone(),
        }
    }
}

fn dense_fill(g: &DiGraph, cost: &[f64]) -> (Vec<f64>, Vec<u32>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n * n];
    let mut parent = vec![NO_PARENT; n * n];
    let mut scratch = DijkstraScratch::default();
    for s in g.nodes() {
        dijkstra_filtered_into(g, s, cost, |_| true, &[], &mut scratch);
        let lo = s.index() * n;
        dist[lo..lo + n].copy_from_slice(&scratch.dists()[..n]);
        for v in 0..n {
            if let Some(e) = scratch.parent_edge(NodeId::new(v)) {
                parent[lo + v] = e.index() as u32;
            }
        }
    }
    (dist, parent)
}

fn dense_fill_par(g: &DiGraph, cost: &[f64], ctx: &SolverContext) -> (Vec<f64>, Vec<u32>) {
    let _s = ctx.span("graph.oracle.dense_fill");
    let n = g.node_count();
    let sources: Vec<NodeId> = g.nodes().collect();
    let rows = jcr_ctx::par::par_map_init(
        ctx,
        &sources,
        DijkstraScratch::default,
        |scratch, wctx, _i, &s| {
            dijkstra_into_with_context(g, s, cost, &[], scratch, wctx);
            let mut data = RowData {
                dist: Vec::new(),
                parent: Vec::new(),
            };
            data.fill(scratch, n);
            data
        },
    );
    let mut dist = vec![f64::INFINITY; n * n];
    let mut parent = vec![NO_PARENT; n * n];
    for (s, row) in rows.into_iter().enumerate() {
        let lo = s * n;
        dist[lo..lo + n].copy_from_slice(&row.dist);
        parent[lo..lo + n].copy_from_slice(&row.parent);
    }
    (dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> (DiGraph, Vec<f64>) {
        let mut g = DiGraph::new();
        let nodes = g.add_nodes(n);
        let mut cost = Vec::new();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n]);
            cost.push(1.0 + (i % 3) as f64);
            g.add_edge(nodes[(i + 1) % n], nodes[i]);
            cost.push(1.5 + (i % 2) as f64);
        }
        (g, cost)
    }

    #[test]
    fn dense_and_on_demand_agree_bitwise() {
        let (g, cost) = ring(12);
        let dense = DistanceOracle::with_config(&g, &cost, usize::MAX, 4, None);
        let lazy = DistanceOracle::with_config(&g, &cost, 0, 4, None);
        assert!(dense.is_dense());
        assert!(!lazy.is_dense());
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    dense.dist(s, t).to_bits(),
                    lazy.dist(s, t).to_bits(),
                    "row {s} col {t}"
                );
                assert_eq!(dense.path(s, t), lazy.path(s, t));
            }
        }
        assert_eq!(dense.max_cost().to_bits(), lazy.max_cost().to_bits());
    }

    #[test]
    fn lru_evicts_and_recomputes() {
        let (g, cost) = ring(10);
        let lazy = DistanceOracle::with_config(&g, &cost, 0, 2, None);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let c = NodeId::new(2);
        let first = lazy.dist(a, b);
        lazy.dist(b, c);
        assert_eq!(lazy.rows_computed(), 2);
        lazy.dist(a, c); // still cached, refreshes a's slot
        assert_eq!(lazy.rows_computed(), 2);
        lazy.dist(c, a); // evicts the LRU row (b's — a was just touched)
        assert_eq!(lazy.rows_computed(), 3);
        assert_eq!(lazy.rows_resident(), 2);
        assert_eq!(lazy.dist(a, b).to_bits(), first.to_bits());
        assert_eq!(lazy.rows_computed(), 3, "a still resident");
        lazy.dist(b, a);
        assert_eq!(lazy.rows_computed(), 4, "evicted row recomputed");
    }

    #[test]
    fn priming_is_deterministic_across_widths() {
        let (g, cost) = ring(16);
        let sources: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let mut reference: Option<Vec<u64>> = None;
        for workers in [1, 2, 8] {
            let ctx = SolverContext::new().with_workers(workers);
            let lazy = DistanceOracle::with_config(&g, &cost, 0, 8, None);
            lazy.prime_rows_with_context(&sources, &ctx);
            assert_eq!(lazy.rows_computed(), 8);
            let bits: Vec<u64> = sources
                .iter()
                .flat_map(|&s| {
                    lazy.row(s)
                        .dists()
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "workers = {workers}"),
            }
            // Priming already-resident rows is free.
            lazy.prime_rows_with_context(&sources, &ctx);
            assert_eq!(lazy.rows_computed(), 8);
        }
    }

    #[test]
    fn row_handles_survive_eviction() {
        let (g, cost) = ring(8);
        let lazy = DistanceOracle::with_config(&g, &cost, 0, 1, None);
        let row0 = lazy.row(NodeId::new(0));
        let d = row0.dist(NodeId::new(3));
        lazy.row(NodeId::new(5)); // evicts row 0 from the cache
        assert_eq!(row0.dist(NodeId::new(3)).to_bits(), d.to_bits());
    }

    #[test]
    fn dense_parallel_fill_matches_serial() {
        let (g, cost) = ring(9);
        let serial = DistanceOracle::with_config(&g, &cost, usize::MAX, 4, None);
        let ctx = SolverContext::new().with_workers(4);
        let par = DistanceOracle::with_config(&g, &cost, usize::MAX, 4, Some(&ctx));
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(serial.dist(s, t).to_bits(), par.dist(s, t).to_bits());
            }
        }
        assert_eq!(ctx.stats().dijkstra_calls, g.node_count() as u64);
    }

    #[test]
    fn carry_identical_costs_keeps_every_row() {
        let (g, cost) = ring(10);
        let prev = DistanceOracle::with_config(&g, &cost, usize::MAX, 4, None);
        let (next, report) =
            DistanceOracle::carry_with_config(&prev, &g, &cost, usize::MAX, 4, 2, None);
        assert!(report.compatible);
        assert!(!report.verify_failed);
        assert_eq!(report.rows_carried, 10);
        assert_eq!(report.rows_dropped, 0);
        assert_eq!(report.rows_verified, 2);
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(next.dist(s, t).to_bits(), prev.dist(s, t).to_bits());
            }
        }
    }

    #[test]
    fn carry_matches_fresh_bitwise_under_random_deltas() {
        // Kills (cost -> INF), restores (INF -> finite), halvings and
        // doublings, all at once: every carried answer must equal a
        // cold oracle's bit for bit — the empirical check behind the
        // delta certificate.
        let (g, base) = ring(14);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_u64 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut prev_cost = base.clone();
        let mut prev = DistanceOracle::with_config(&g, &prev_cost, usize::MAX, 4, None);
        let mut carried_total = 0usize;
        for trial in 0..24 {
            let mut cost = base.clone();
            for c in cost.iter_mut() {
                match next_u64() % 6 {
                    0 => *c *= 2.0,
                    1 => *c *= 0.5,
                    2 => *c = f64::INFINITY,
                    _ => {}
                }
            }
            let (carried, report) =
                DistanceOracle::carry_with_config(&prev, &g, &cost, usize::MAX, 4, 2, None);
            assert!(report.compatible, "trial {trial}");
            assert!(!report.verify_failed, "trial {trial}");
            carried_total += report.rows_carried;
            let fresh = DistanceOracle::with_config(&g, &cost, usize::MAX, 4, None);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        carried.dist(s, t).to_bits(),
                        fresh.dist(s, t).to_bits(),
                        "trial {trial} {s}->{t}"
                    );
                    assert_eq!(carried.path(s, t), fresh.path(s, t), "trial {trial}");
                }
            }
            prev = carried;
            prev_cost = cost;
        }
        let _ = prev_cost;
        assert!(carried_total > 0, "certificate never fired");
    }

    #[test]
    fn carry_on_demand_seeds_cache_without_recompute() {
        let (g, cost) = ring(12);
        let prev = DistanceOracle::with_config(&g, &cost, 0, 6, None);
        let warm: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        for &s in &warm {
            prev.row(s);
        }
        let (next, report) = DistanceOracle::carry_with_config(&prev, &g, &cost, 0, 6, 2, None);
        assert_eq!(report.rows_carried, 4);
        assert!(!next.is_dense());
        assert_eq!(next.rows_resident(), 4);
        for &s in &warm {
            for t in g.nodes() {
                assert_eq!(next.dist(s, t).to_bits(), prev.dist(s, t).to_bits());
            }
        }
        assert_eq!(next.rows_computed(), 0, "carried rows were not recomputed");
        next.row(NodeId::new(9));
        assert_eq!(next.rows_computed(), 1);
    }

    #[test]
    fn carry_structural_mismatch_goes_cold() {
        let (g, cost) = ring(8);
        let (h, hcost) = ring(9);
        let prev = DistanceOracle::with_config(&g, &cost, usize::MAX, 4, None);
        let (next, report) =
            DistanceOracle::carry_with_config(&prev, &h, &hcost, usize::MAX, 4, 2, None);
        assert!(!report.compatible);
        assert_eq!(report.rows_carried, 0);
        let fresh = DistanceOracle::with_config(&h, &hcost, usize::MAX, 4, None);
        for s in h.nodes() {
            for t in h.nodes() {
                assert_eq!(next.dist(s, t).to_bits(), fresh.dist(s, t).to_bits());
            }
        }
    }

    #[test]
    fn clone_resets_cache_but_answers_identically() {
        let (g, cost) = ring(6);
        let lazy = DistanceOracle::with_config(&g, &cost, 0, 4, None);
        let d = lazy.dist(NodeId::new(1), NodeId::new(4));
        let fork = lazy.clone();
        assert_eq!(fork.rows_computed(), 0);
        assert_eq!(
            fork.dist(NodeId::new(1), NodeId::new(4)).to_bits(),
            d.to_bits()
        );
    }
}
