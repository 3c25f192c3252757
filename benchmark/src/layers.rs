//! Rolls a traced pass up by layer. Layers are named after the crates;
//! a span belongs to the layer its name prefix says, and a layer's time
//! is the self time (`SpanNode::self_nanos`) of its spans.

use std::collections::BTreeMap;

use jcr_ctx::obs::ObsSnapshot;

/// The layers a span can roll up into, in stack order.
pub const LAYERS: [&str; 6] = ["graph", "lp", "flow", "submodular", "core", "ctx"];

/// The layer of a span name, if any.
pub fn layer_of(span: &str) -> Option<&'static str> {
    let has = |prefixes: &[&str]| prefixes.iter().any(|p| span.starts_with(p));
    if has(&["graph."]) {
        Some("graph")
    } else if has(&["lp."]) {
        Some("lp")
    } else if has(&["cg.", "flow."]) {
        Some("flow")
    } else if span == "alg1.pipage" || has(&["submodular."]) {
        Some("submodular")
    } else if has(&["alt.", "alg1.", "online.", "bench."]) {
        Some("core")
    } else if has(&["pool."]) {
        Some("ctx")
    } else {
        None
    }
}

/// Self time per layer in nanoseconds, every layer present; spans of no
/// layer are summed under `"other"`.
pub fn self_nanos(snap: &ObsSnapshot) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    out.insert("other", 0);
    for node in snap.nodes.iter().filter(|n| !n.name.is_empty()) {
        *out.entry(layer_of(node.name).unwrap_or("other"))
            .or_default() += node.self_nanos();
    }
    out
}

/// Completed entries into spans named `name`, anywhere in the tree.
pub fn span_count(snap: &ObsSnapshot, name: &str) -> u64 {
    snap.nodes
        .iter()
        .filter(|n| n.name == name)
        .map(|n| n.count)
        .sum()
}

/// Total time inside spans named `name`, anywhere in the tree.
pub fn span_nanos(snap: &ObsSnapshot, name: &str) -> u64 {
    snap.nodes
        .iter()
        .filter(|n| n.name == name)
        .map(|n| n.total_nanos)
        .sum()
}

/// Sum of a histogram's observations (0 when never recorded).
pub fn histogram_sum(snap: &ObsSnapshot, name: &str) -> u128 {
    snap.histograms.get(name).map_or(0, |h| h.sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_ctx::SolverContext;

    #[test]
    fn prefixes_map_to_layers() {
        assert_eq!(layer_of("graph.dijkstra"), Some("graph"));
        assert_eq!(layer_of("lp.phase2"), Some("lp"));
        assert_eq!(layer_of("cg.pricing"), Some("flow"));
        assert_eq!(layer_of("flow.mincost"), Some("flow"));
        assert_eq!(layer_of("alg1.pipage"), Some("submodular"));
        assert_eq!(layer_of("alg1.lp"), Some("core"));
        assert_eq!(layer_of("bench.grid.chunk.alg1"), Some("core"));
        assert_eq!(layer_of("pool.chunk"), Some("ctx"));
        assert_eq!(layer_of("exp.evaluate"), None);
    }

    #[test]
    fn self_time_partitions_the_tree() {
        let ctx = SolverContext::new();
        {
            let _a = ctx.span("bench.x");
            let _b = ctx.span("lp.solve");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let snap = ctx.obs_snapshot();
        let by_layer = self_nanos(&snap);
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, snap.total_span_nanos());
        assert_eq!(span_count(&snap, "lp.solve"), 1);
        assert!(by_layer["lp"] > 0);
    }
}
