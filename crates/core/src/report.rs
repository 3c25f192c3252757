//! Human-readable solution reports: what an operator would inspect after
//! a re-optimization round.

use crate::instance::Instance;
use crate::routing::Solution;

/// A formatted multi-section report of a joint caching/routing solution.
///
/// # Examples
///
/// ```
/// use jcr_core::prelude::*;
/// use jcr_core::report;
/// use jcr_ctx::SolverContext;
/// use jcr_topo::{Topology, TopologyKind};
///
/// let topo = Topology::generate(TopologyKind::Abovenet, 1).unwrap();
/// let inst = InstanceBuilder::new(topo)
///     .items(6)
///     .cache_capacity(2.0)
///     .zipf_demand(0.8, 100.0, 3)
///     .build()
///     .unwrap();
/// let solution = Algorithm1::new()
///     .solve_with_context(&inst, &SolverContext::new())
///     .unwrap();
/// let text = report::solution_report(&inst, &solution);
/// assert!(text.contains("routing cost"));
/// ```
pub fn solution_report(inst: &Instance, solution: &Solution) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let cost = solution.cost(inst);
    let congestion = solution.congestion(inst);
    writeln!(out, "== joint caching/routing solution ==").expect("write to string");
    writeln!(
        out,
        "requests: {}   items: {}   total rate: {:.3}",
        inst.requests.len(),
        inst.num_items(),
        inst.total_rate()
    )
    .expect("write to string");
    writeln!(out, "routing cost: {cost:.3}").expect("write to string");
    if inst.link_cap.iter().any(|c| c.is_finite()) {
        writeln!(out, "congestion (max load/capacity): {congestion:.3}").expect("write to string");
    } else {
        writeln!(out, "congestion: n/a (uncapacitated links)").expect("write to string");
    }

    writeln!(out, "\n-- placement --").expect("write to string");
    for v in inst.cache_nodes() {
        let items: Vec<String> = solution
            .placement
            .items_at(v)
            .map(|i| i.to_string())
            .collect();
        writeln!(
            out,
            "  {v}: [{}]  ({:.2}/{:.2} used)",
            items.join(", "),
            solution.placement.occupancy(inst, v),
            inst.cache_cap[v.index()]
        )
        .expect("write to string");
    }

    // Top loaded links.
    let loads = solution.routing.link_loads(inst);
    let mut ranked: Vec<(usize, f64)> = loads
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, l)| *l > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    writeln!(out, "\n-- busiest links --").expect("write to string");
    for (e, load) in ranked.into_iter().take(5) {
        let edge = jcr_graph::EdgeId::new(e);
        let (u, v) = inst.graph.endpoints(edge);
        let cap = inst.link_cap[e];
        if cap.is_finite() {
            writeln!(
                out,
                "  {u} -> {v}: load {load:.2} / cap {cap:.2} ({:.0}%)",
                100.0 * load / cap
            )
            .expect("write to string");
        } else {
            writeln!(out, "  {u} -> {v}: load {load:.2} (uncapacitated)").expect("write to string");
        }
    }
    out
}

/// [`solution_report`] with a trailing "-- solver stats --" section: the
/// [`jcr_ctx::SolverStats`] snapshot of the [`jcr_ctx::SolverContext`] the
/// solution was computed under (simplex pivots, refactorizations, Dijkstra
/// calls, generated columns, decomposition paths, rounding passes, and
/// per-phase wall-clock).
pub fn solution_report_with_stats(
    inst: &Instance,
    solution: &Solution,
    stats: &jcr_ctx::SolverStats,
) -> String {
    use std::fmt::Write;
    let mut out = solution_report(inst, solution);
    writeln!(out, "\n-- solver stats --").expect("write to string");
    for line in stats.to_string().lines() {
        writeln!(out, "  {line}").expect("write to string");
    }
    out
}

/// A summary of an online run: realized cost and churn per hour plus the
/// degradation-ladder rung histogram ("how often did the anytime loop
/// have to fall back, and how far") and the total repair work. What an
/// operator would check after a faulty day.
pub fn online_report(outcomes: &[crate::online::HourOutcome]) -> String {
    use crate::online::Rung;
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "== online anytime run ({} hours) ==", outcomes.len()).expect("write to string");
    if outcomes.is_empty() {
        return out;
    }
    let n = outcomes.len() as f64;
    let cost: f64 = outcomes.iter().map(|o| o.realized_cost).sum::<f64>() / n;
    let churn: f64 = outcomes
        .iter()
        .map(|o| o.placement_churn as f64)
        .sum::<f64>()
        / n;
    writeln!(
        out,
        "mean realized cost: {cost:.3}   mean churn: {churn:.1}"
    )
    .expect("write to string");
    writeln!(out, "\n-- rung histogram --").expect("write to string");
    let mut hist = [0usize; Rung::ALL.len()];
    for o in outcomes {
        hist[o.rung.index()] += 1;
    }
    for (rung, count) in Rung::ALL.iter().zip(hist) {
        writeln!(out, "  {:>13}: {count}", rung.name()).expect("write to string");
    }
    let repaired: Vec<&crate::repair::RepairStats> =
        outcomes.iter().filter_map(|o| o.repair.as_ref()).collect();
    if !repaired.is_empty() {
        writeln!(
            out,
            "\n-- repair work ({} hours repaired) --",
            repaired.len()
        )
        .expect("write to string");
        writeln!(
            out,
            "  evicted: {}   dropped flows: {}   rerouted: {}",
            repaired.iter().map(|r| r.evicted).sum::<usize>(),
            repaired.iter().map(|r| r.dropped_flows).sum::<usize>(),
            repaired.iter().map(|r| r.rerouted).sum::<usize>(),
        )
        .expect("write to string");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::Algorithm1;
    use crate::instance::InstanceBuilder;
    use jcr_ctx::SolverContext;
    use jcr_topo::{Topology, TopologyKind};

    #[test]
    fn report_mentions_all_sections() {
        let ctx = SolverContext::new();
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 2).unwrap())
            .items(5)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 100.0, 2)
            .link_capacity_fraction(0.05)
            .build()
            .unwrap();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        let text = solution_report(&inst, &sol);
        assert!(text.contains("routing cost"));
        assert!(text.contains("-- placement --"));
        assert!(text.contains("-- busiest links --"));
        assert!(text.contains("congestion"));
        // One placement line per cache node.
        let placement_lines = text
            .lines()
            .skip_while(|l| !l.contains("-- placement --"))
            .take_while(|l| !l.contains("busiest"))
            .filter(|l| l.trim_start().starts_with('n'))
            .count();
        assert_eq!(placement_lines, inst.cache_nodes().len());
    }

    #[test]
    fn online_report_shows_rungs_and_repair_work() {
        use crate::alternating::Alternating;
        use crate::online::{AnytimeConfig, OnlineSimulator, Rung};
        use jcr_ctx::Budget;
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 4).unwrap())
            .items(6)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 200.0, 4)
            .link_capacity_fraction(0.1)
            .build()
            .unwrap();
        let truth: Vec<f64> = inst.requests.iter().map(|r| r.rate).collect();
        let mut sim = OnlineSimulator::new(Alternating::new());
        let mut outcomes = Vec::new();
        outcomes.push(
            sim.step_anytime(&inst, &truth, &AnytimeConfig::new())
                .unwrap(),
        );
        let starved = AnytimeConfig::new().with_budget(Budget::deadline(std::time::Duration::ZERO));
        outcomes.push(sim.step_anytime(&inst, &truth, &starved).unwrap());
        assert_eq!(outcomes[1].rung, Rung::CarryForward);
        let text = online_report(&outcomes);
        assert!(
            text.contains("== online anytime run (2 hours) =="),
            "{text}"
        );
        assert!(text.contains("-- rung histogram --"), "{text}");
        assert!(text.contains("carry-forward: 1"), "{text}");
        assert!(text.contains("repair work"), "{text}");
    }

    #[test]
    fn uncapacitated_report_says_so() {
        let ctx = SolverContext::new();
        let inst = InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 2).unwrap())
            .items(3)
            .build()
            .unwrap();
        let sol = Algorithm1::new().solve_with_context(&inst, &ctx).unwrap();
        let text = solution_report(&inst, &sol);
        assert!(text.contains("uncapacitated"));
    }
}
