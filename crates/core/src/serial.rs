//! Plain-text (de)serialization of instances, so that exact experiment
//! inputs can be archived and replayed without any serde dependency.
//!
//! Format (one record per line, `#` comments allowed):
//!
//! ```text
//! jcr-instance v1
//! nodes <count>                  # at most MAX_NODES (2^20)
//! origin <node index>            # optional
//! item <size>                    # one per item, in item-id order
//! cache <node> <capacity>        # nodes with positive cache capacity
//! link <u> <v> <cost> <capacity> # capacity "inf" for uncapacitated
//! request <item> <node> <rate>
//! ```

use jcr_graph::{DiGraph, NodeId};

use crate::error::JcrError;
use crate::instance::{Instance, Request};

/// Serializes an instance to the plain-text format.
pub fn to_text(inst: &Instance) -> String {
    use std::fmt::Write;
    let mut out = String::from("jcr-instance v1\n");
    writeln!(out, "nodes {}", inst.graph.node_count()).expect("write to string");
    if let Some(o) = inst.origin {
        writeln!(out, "origin {}", o.index()).expect("write to string");
    }
    for size in &inst.item_size {
        writeln!(out, "item {size}").expect("write to string");
    }
    for v in inst.graph.nodes() {
        if inst.cache_cap[v.index()] > 0.0 {
            writeln!(out, "cache {} {}", v.index(), inst.cache_cap[v.index()])
                .expect("write to string");
        }
    }
    for e in inst.graph.edges() {
        let (u, v) = inst.graph.endpoints(e);
        let cap = inst.link_cap[e.index()];
        let cap_str = if cap.is_finite() {
            format!("{cap}")
        } else {
            "inf".to_string()
        };
        writeln!(
            out,
            "link {} {} {} {cap_str}",
            u.index(),
            v.index(),
            inst.link_cost[e.index()]
        )
        .expect("write to string");
    }
    for r in &inst.requests {
        writeln!(out, "request {} {} {}", r.item, r.node.index(), r.rate).expect("write to string");
    }
    out
}

/// Largest node count [`from_text`] accepts (shared with the edge-list
/// format).
pub use jcr_topo::MAX_NODES;

/// Parses an instance from the plain-text format.
///
/// Link order (and hence edge indices) is preserved, so routing results
/// recorded against the original instance stay meaningful.
///
/// # Errors
///
/// [`JcrError::InvalidInstance`] on malformed or inconsistent input.
pub fn from_text(text: &str) -> Result<Instance, JcrError> {
    let bad =
        |line: usize, msg: &str| JcrError::InvalidInstance(format!("line {}: {msg}", line + 1));
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());
    let (first_no, first) = lines
        .next()
        .ok_or_else(|| JcrError::InvalidInstance("empty input".into()))?;
    if first != "jcr-instance v1" {
        return Err(bad(first_no, "expected header `jcr-instance v1`"));
    }

    let mut n_nodes: Option<usize> = None;
    let mut origin: Option<usize> = None;
    let mut item_size: Vec<f64> = Vec::new();
    let mut caches: Vec<(usize, f64)> = Vec::new();
    let mut links: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut requests_raw: Vec<(usize, usize, f64)> = Vec::new();

    for (lineno, line) in lines {
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty");
        let mut field = |what: &'static str| {
            parts
                .next()
                .map(|tok| (tok, what))
                .ok_or_else(|| bad(lineno, &format!("missing {what}")))
        };
        let real = |(tok, what): (&str, &str)| -> Result<f64, JcrError> {
            if tok == "inf" {
                return Ok(f64::INFINITY);
            }
            tok.parse()
                .map_err(|_| bad(lineno, &format!("bad {what}: {tok:?}")))
        };
        // Counts, node indices and item ids are integers in `NodeId`'s
        // `u32` range; anything else (fractions, signs, `inf`, overflow)
        // is rejected rather than truncated by a cast.
        let index = |(tok, what): (&str, &str)| -> Result<usize, JcrError> {
            tok.parse::<u32>().map(|v| v as usize).map_err(|_| {
                bad(
                    lineno,
                    &format!(
                        "bad {what}: {tok:?}, expected an integer in 0..={}",
                        u32::MAX
                    ),
                )
            })
        };
        match keyword {
            "nodes" => n_nodes = Some(index(field("node count")?)?),
            "origin" => origin = Some(index(field("origin index")?)?),
            "item" => item_size.push(real(field("item size")?)?),
            "cache" => {
                let v = index(field("node")?)?;
                let cap = real(field("capacity")?)?;
                caches.push((v, cap));
            }
            "link" => {
                let u = index(field("u")?)?;
                let v = index(field("v")?)?;
                let cost = real(field("cost")?)?;
                let cap = real(field("capacity")?)?;
                links.push((u, v, cost, cap));
            }
            "request" => {
                let item = index(field("item")?)?;
                let node = index(field("node")?)?;
                let rate = real(field("rate")?)?;
                requests_raw.push((item, node, rate));
            }
            other => return Err(bad(lineno, &format!("unknown keyword {other:?}"))),
        }
    }

    let n = n_nodes.ok_or_else(|| JcrError::InvalidInstance("missing `nodes`".into()))?;
    if n > MAX_NODES {
        return Err(JcrError::InvalidInstance(format!(
            "node count {n} exceeds the format's limit of {MAX_NODES}"
        )));
    }
    let mut graph = DiGraph::with_capacity(n, links.len());
    let nodes = graph.add_nodes(n);
    let in_range = |v: usize| -> Result<NodeId, JcrError> {
        nodes
            .get(v)
            .copied()
            .ok_or_else(|| JcrError::InvalidInstance(format!("node {v} out of range")))
    };
    let mut link_cost = Vec::with_capacity(links.len());
    let mut link_cap = Vec::with_capacity(links.len());
    for (u, v, cost, cap) in links {
        graph.add_edge(in_range(u)?, in_range(v)?);
        link_cost.push(cost);
        link_cap.push(cap);
    }
    let mut cache_cap = vec![0.0; n];
    for (v, cap) in caches {
        in_range(v)?;
        cache_cap[v] = cap;
    }
    let requests = requests_raw
        .into_iter()
        .map(|(item, node, rate)| {
            Ok(Request {
                item,
                node: in_range(node)?,
                rate,
            })
        })
        .collect::<Result<Vec<_>, JcrError>>()?;
    let origin = origin.map(in_range).transpose()?;
    Instance::new(
        graph, link_cost, link_cap, cache_cap, item_size, requests, origin,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    fn sample() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 14).unwrap())
            .items(5)
            .cache_capacity(2.0)
            .zipf_demand(0.9, 150.0, 14)
            .link_capacity_fraction(0.05)
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let inst = sample();
        let text = to_text(&inst);
        let back = from_text(&text).unwrap();
        assert_eq!(back.graph.node_count(), inst.graph.node_count());
        assert_eq!(back.graph.edge_count(), inst.graph.edge_count());
        assert_eq!(back.origin, inst.origin);
        assert_eq!(back.item_size, inst.item_size);
        assert_eq!(back.cache_cap, inst.cache_cap);
        for e in inst.graph.edges() {
            assert_eq!(back.graph.endpoints(e), inst.graph.endpoints(e));
            assert_eq!(back.link_cost[e.index()], inst.link_cost[e.index()]);
            assert_eq!(back.link_cap[e.index()], inst.link_cap[e.index()]);
        }
        assert_eq!(back.requests.len(), inst.requests.len());
        for (a, b) in back.requests.iter().zip(&inst.requests) {
            assert_eq!(a.item, b.item);
            assert_eq!(a.node, b.node);
            assert_eq!(a.rate, b.rate);
        }
    }

    #[test]
    fn round_trip_preserves_solver_results() {
        let ctx = SolverContext::new();
        let inst = sample();
        let back = from_text(&to_text(&inst)).unwrap();
        let a = crate::alg1::Algorithm1::new()
            .solve_with_context(&inst, &ctx)
            .unwrap();
        let b = crate::alg1::Algorithm1::new()
            .solve_with_context(&back, &ctx)
            .unwrap();
        assert!((a.cost(&inst) - b.cost(&back)).abs() < 1e-9);
    }

    #[test]
    fn infinite_capacities_round_trip() {
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 3).unwrap())
            .items(2)
            .build()
            .unwrap();
        let back = from_text(&to_text(&inst)).unwrap();
        assert!(back.link_cap.iter().all(|c| c.is_infinite()));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_text("").is_err());
        assert!(from_text("not-a-header").is_err());
        assert!(from_text("jcr-instance v1\nfrobnicate 3").is_err());
        assert!(from_text("jcr-instance v1\nnodes 2\nlink 0 5 1 inf").is_err());
        assert!(from_text("jcr-instance v1\nlink 0 1 1 inf").is_err()); // missing nodes
        assert!(from_text("jcr-instance v1\nnodes 2\nlink 0 1 oops inf").is_err());
        // Integer fields: no float casts, no truncation, nothing past u32.
        for bad in [
            "jcr-instance v1\nnodes inf",
            "jcr-instance v1\nnodes 5000000000",
            "jcr-instance v1\nnodes 4000000000",
            "jcr-instance v1\nnodes 2.5",
            "jcr-instance v1\nnodes -3",
            "jcr-instance v1\nnodes 2\nlink 0 1.9 1 inf",
            "jcr-instance v1\nnodes 2\norigin 0.5",
            "jcr-instance v1\nnodes 2\nitem 1\nrequest 0.5 1 1",
        ] {
            assert!(
                matches!(from_text(bad), Err(JcrError::InvalidInstance(_))),
                "{bad:?} was accepted"
            );
        }
        let over = format!("jcr-instance v1\nnodes {}", MAX_NODES + 1);
        assert!(matches!(
            from_text(&over),
            Err(JcrError::InvalidInstance(_))
        ));
    }

    /// Feeds `check` every prefix of `text` and 4000 seeded single-bit
    /// flips of it.
    fn corruptions(text: &str, seed: u64, mut check: impl FnMut(&str)) {
        use jcr_ctx::rng::{Rng, SeedableRng, StdRng};

        for len in 0..text.len() {
            check(&text[..len]);
        }
        let bytes = text.as_bytes();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4000 {
            let mut corrupt = bytes.to_vec();
            corrupt[rng.gen_range(0..bytes.len())] ^= 1u8 << rng.gen_range(0..8u32);
            check(&String::from_utf8_lossy(&corrupt));
        }
    }

    /// `to_text` → `from_text` reproduces `inst`'s rendering.
    fn assert_round_trips(inst: &Instance) {
        let text = to_text(inst);
        let back = from_text(&text).unwrap_or_else(|e| panic!("{e} on {text:?}"));
        assert_eq!(to_text(&back), text);
    }

    /// The untrusted-text parsers — the instance format and the topology
    /// edge list — return `Ok` or `Err` on every truncation and bit flip,
    /// never a panic; whatever parses survives a text round trip.
    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let mut parsed = 0;
        corruptions(&to_text(&sample()), 5, |doc| {
            if let Ok(inst) = from_text(doc) {
                assert_round_trips(&inst);
                parsed += 1;
            }
        });
        assert!(parsed > 500, "only {parsed} instance texts parsed");
        let mut parsed = 0;
        let edges = "# a small mesh\norigin 0\nedge 3\nedge 4\nlink 0 1 100 150\n\
                     link 1 2 5.5 6 2.5\nlink 2 3 1e1 7\nlink 1 4 3 3 inf\nlink 3 4 0.25 8 12\n";
        corruptions(edges, 3, |doc| {
            let Ok(t) = Topology::from_edge_list(doc) else {
                return;
            };
            let n = t.graph.node_count();
            let requests = t.edge_nodes.iter().map(|&node| Request {
                item: 0,
                node,
                rate: 1.0,
            });
            let (cache, items) = (vec![1.0; n], vec![1.0]);
            let origin = Some(t.origin);
            let built = Instance::new(
                t.graph,
                t.cost,
                t.capacity,
                cache,
                items,
                requests.collect(),
                origin,
            );
            if let Ok(inst) = built {
                assert_round_trips(&inst);
                parsed += 1;
            }
        });
        assert!(parsed > 500, "only {parsed} edge lists built an instance");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
jcr-instance v1

# a tiny instance
nodes 2
origin 0
item 1
link 0 1 5 inf   # the only link
request 0 1 2.5
";
        let inst = from_text(text).unwrap();
        assert_eq!(inst.graph.node_count(), 2);
        assert_eq!(inst.requests.len(), 1);
        assert_eq!(inst.requests[0].rate, 2.5);
    }
}
