//! Auxiliary-graph constructions (Lemma 4.5 and §4.3.2): virtual sources
//! connected by zero-cost, uncapacitated virtual links turn joint source
//! selection + routing into pure routing problems.

use jcr_graph::{DiGraph, NodeId, Path};

use crate::instance::Instance;
use crate::placement::Placement;

/// An auxiliary graph: the original network plus virtual source nodes.
///
/// Original edges keep their indices (`0..original_edges`), so a path in
/// the auxiliary graph maps back by dropping virtual edges.
#[derive(Clone, Debug)]
pub struct AuxiliaryGraph {
    /// The augmented graph.
    pub graph: DiGraph,
    /// Costs (original, then zeros for virtual links).
    pub cost: Vec<f64>,
    /// Capacities (original, then infinities for virtual links).
    pub cap: Vec<f64>,
    /// Number of original edges.
    pub original_edges: usize,
    /// The virtual source for each item (all equal for the single-source
    /// construction of Lemma 4.5).
    pub item_source: Vec<NodeId>,
}

impl AuxiliaryGraph {
    /// Lemma 4.5's construction: a single virtual source `v_s` connected
    /// to every node in `storers` (each storing the whole catalog) and to
    /// the instance's origin.
    pub fn single_source(inst: &Instance, storers: &[NodeId]) -> Self {
        let mut graph = inst.graph.clone();
        let mut cost = inst.link_cost.clone();
        let mut cap = inst.link_cap.clone();
        let original_edges = graph.edge_count();
        let vs = graph.add_node();
        let attach = |graph: &mut DiGraph, to: NodeId, cost: &mut Vec<f64>, cap: &mut Vec<f64>| {
            graph.add_edge(vs, to);
            cost.push(0.0);
            cap.push(f64::INFINITY);
        };
        for &v in storers {
            attach(&mut graph, v, &mut cost, &mut cap);
        }
        if let Some(o) = inst.origin {
            if !storers.contains(&o) {
                attach(&mut graph, o, &mut cost, &mut cap);
            }
        }
        AuxiliaryGraph {
            graph,
            cost,
            cap,
            original_edges,
            item_source: vec![vs; inst.num_items()],
        }
    }

    /// §4.3.2's construction `G^x`: one virtual source `v_i` per item,
    /// connected to every node storing `i` under `placement` and to the
    /// origin.
    pub fn per_item(inst: &Instance, placement: &Placement) -> Self {
        let mut graph = inst.graph.clone();
        let mut cost = inst.link_cost.clone();
        let mut cap = inst.link_cap.clone();
        let original_edges = graph.edge_count();
        let mut item_source = Vec::with_capacity(inst.num_items());
        for i in 0..inst.num_items() {
            let vi = graph.add_node();
            item_source.push(vi);
            for v in placement.holders(i) {
                graph.add_edge(vi, v);
                cost.push(0.0);
                cap.push(f64::INFINITY);
            }
            if let Some(o) = inst.origin {
                if !placement.has(o, i) {
                    graph.add_edge(vi, o);
                    cost.push(0.0);
                    cap.push(f64::INFINITY);
                }
            }
        }
        AuxiliaryGraph {
            graph,
            cost,
            cap,
            original_edges,
            item_source,
        }
    }

    /// Strips virtual edges from an auxiliary-graph path in place,
    /// returning the real path (whose source is the selected real content
    /// source) in the same buffer.
    pub fn strip_virtual(&self, path: Path) -> Path {
        let mut edges = path.into_edges();
        edges.retain(|e| e.index() < self.original_edges);
        Path::new(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use jcr_topo::{Topology, TopologyKind};

    fn inst() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 6).unwrap())
            .items(3)
            .cache_capacity(1.0)
            .zipf_demand(1.0, 10.0, 4)
            .build()
            .unwrap()
    }

    #[test]
    fn single_source_shape() {
        let inst = inst();
        let storers = vec![inst.cache_nodes()[0]];
        let aux = AuxiliaryGraph::single_source(&inst, &storers);
        // One new node; two virtual links (storer + origin).
        assert_eq!(aux.graph.node_count(), inst.graph.node_count() + 1);
        assert_eq!(aux.graph.edge_count(), inst.graph.edge_count() + 2);
        let vs = aux.item_source[0];
        assert!(aux.item_source.iter().all(|&v| v == vs));
        assert_eq!(aux.graph.out_degree(vs), 2);
        // Virtual links are free and uncapacitated.
        for e in aux.graph.out_edges(vs) {
            assert_eq!(aux.cost[e.index()], 0.0);
            assert!(aux.cap[e.index()].is_infinite());
        }
    }

    #[test]
    fn per_item_sources_reflect_placement() {
        let inst = inst();
        let mut p = Placement::empty(&inst);
        let v0 = inst.cache_nodes()[0];
        let v1 = inst.cache_nodes()[1];
        p.set(v0, 0, true);
        p.set(v1, 0, true);
        let aux = AuxiliaryGraph::per_item(&inst, &p);
        // Item 0: two storers + origin; items 1, 2: origin only.
        assert_eq!(aux.graph.out_degree(aux.item_source[0]), 3);
        assert_eq!(aux.graph.out_degree(aux.item_source[1]), 1);
        assert_eq!(aux.graph.out_degree(aux.item_source[2]), 1);
    }

    #[test]
    fn strip_virtual_recovers_real_path() {
        let inst = inst();
        let aux = AuxiliaryGraph::single_source(&inst, &[]);
        let vs = aux.item_source[0];
        let tree = jcr_graph::shortest::dijkstra_filtered(&aux.graph, vs, &aux.cost, |_| true);
        let req = inst.requests[0];
        let path = tree.path(&aux.graph, req.node).unwrap();
        let real = aux.strip_virtual(path.clone());
        assert_eq!(real.len(), path.len() - 1);
        assert!(real.is_valid(&inst.graph));
        assert_eq!(real.source(&inst.graph), Some(inst.origin.unwrap()));
        assert_eq!(real.target(&inst.graph), Some(req.node));
    }

    #[test]
    fn lemma_4_5_cost_equivalence() {
        // Routing cost via the auxiliary graph equals nearest-replica cost
        // in the original graph (uncapacitated case).
        let inst = inst();
        let storer = inst.cache_nodes()[2];
        let aux = AuxiliaryGraph::single_source(&inst, &[storer]);
        let vs = aux.item_source[0];
        let tree = jcr_graph::shortest::dijkstra_filtered(&aux.graph, vs, &aux.cost, |_| true);
        let ap = inst.all_pairs();
        let o = inst.origin.unwrap();
        for r in &inst.requests {
            let aux_dist = tree.dist(r.node);
            let direct = ap.dist(storer, r.node).min(ap.dist(o, r.node));
            assert!((aux_dist - direct).abs() < 1e-9);
        }
    }
}
