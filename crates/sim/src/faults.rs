//! Deterministic seeded fault injection for online re-optimization.
//!
//! The online loop's degradation ladder (`jcr_core::online`) only earns
//! its keep under adversity: failed links, dead nodes, shrunken
//! capacities, demand spikes, and solver budgets that trip mid-solve.
//! [`FaultInjector`] manufactures exactly that, hour by hour, from a
//! pristine base instance:
//!
//! * every hour draws its faults from an RNG seeded by `(seed, hour)`
//!   alone — replaying an hour reproduces its faults bit for bit, and
//!   hours are independent (faults are memoryless, always applied to the
//!   *base* instance, never compounding);
//! * a link or node failure is only committed when the origin can still
//!   reach every requester over the surviving links, so the faulted
//!   instance stays servable and the ladder's carry-forward repair has a
//!   fighting chance (the acceptance criterion of the anytime mode);
//! * after structural faults, origin paths are re-augmented in the spirit
//!   of the paper's §6 capacity model: each requester's total demand is
//!   added to the finite capacities along its cheapest surviving path
//!   from the origin, so the origin fallback is never capacity-starved.
//!
//! The injector also perturbs the hour's *solver budget*
//! ([`FaultEvent::BudgetTrip`]) to exercise the incumbent and
//! carry-forward rungs, not just the topology-repair ones.

use std::fmt;
use std::time::Duration;

use jcr_core::instance::Instance;
use jcr_ctx::rng::{Rng, SeedableRng, StdRng};
use jcr_ctx::{Budget, Phase};
use jcr_graph::{shortest, EdgeId, NodeId};

/// Per-hour fault probabilities and magnitudes. All probabilities are
/// independent per fault class; `Default` disables everything (an
/// injector that never injects).
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Master seed; combined with the hour index per draw.
    pub seed: u64,
    /// Probability that the hour loses links.
    pub link_failure: f64,
    /// Most links lost in one hour (each candidate guarded for
    /// servability).
    pub max_link_failures: usize,
    /// Probability that the hour loses a whole (non-origin) node.
    pub node_failure: f64,
    /// Probability that every finite link capacity is scaled down.
    pub capacity_cut: f64,
    /// Scale factor of a capacity cut (e.g. `0.5` halves capacities).
    pub cut_factor: f64,
    /// Probability that a subset of requests spikes.
    pub demand_spike: f64,
    /// Rate multiplier for spiked requests.
    pub spike_factor: f64,
    /// Probability that the hour's solver budget is sabotaged (a zero
    /// deadline or a one-iteration alternating cap, 50/50).
    pub budget_trip: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            link_failure: 0.0,
            max_link_failures: 2,
            node_failure: 0.0,
            capacity_cut: 0.0,
            cut_factor: 0.5,
            demand_spike: 0.0,
            spike_factor: 3.0,
            budget_trip: 0.0,
        }
    }
}

impl FaultConfig {
    /// A config injecting every fault class with the same probability
    /// `rate` (the bench sweep's single knob).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            link_failure: rate,
            node_failure: rate,
            capacity_cut: rate,
            demand_spike: rate,
            budget_trip: rate,
            ..FaultConfig::default()
        }
    }
}

/// One injected fault, for logs and histograms.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Link `edge` failed (infinite cost, zero capacity).
    LinkFailed {
        /// The failed edge.
        edge: EdgeId,
    },
    /// Node `node` failed: all `links` incident edges went down.
    NodeFailed {
        /// The failed node.
        node: NodeId,
        /// How many incident edges were killed.
        links: usize,
    },
    /// Every finite link capacity was scaled by `factor`.
    CapacityCut {
        /// The scale factor applied.
        factor: f64,
    },
    /// `requests` request rates were scaled by `factor`.
    DemandSpike {
        /// How many requests spiked.
        requests: usize,
        /// The rate multiplier.
        factor: f64,
    },
    /// The hour's solver budget was sabotaged.
    BudgetTrip {
        /// `true` for a zero wall-clock deadline, `false` for a
        /// one-iteration alternating phase cap.
        zero_deadline: bool,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::LinkFailed { edge } => write!(f, "link {} failed", edge.index()),
            FaultEvent::NodeFailed { node, links } => {
                write!(f, "node {} failed ({links} links down)", node.index())
            }
            FaultEvent::CapacityCut { factor } => write!(f, "capacities cut to {factor}×"),
            FaultEvent::DemandSpike { requests, factor } => {
                write!(f, "{requests} requests spiked {factor}×")
            }
            FaultEvent::BudgetTrip { zero_deadline } => write!(
                f,
                "budget tripped ({})",
                if *zero_deadline {
                    "zero deadline"
                } else {
                    "alternating cap 1"
                }
            ),
        }
    }
}

/// The instance, fault log, and solver budget for one faulted hour.
#[derive(Debug)]
pub struct FaultedHour {
    /// The base instance with this hour's faults applied.
    pub instance: Instance,
    /// What was injected (empty on a quiet hour).
    pub events: Vec<FaultEvent>,
    /// The hour's solver budget (the base budget unless tripped).
    pub budget: Budget,
}

/// Deterministic fault injector (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// Creates an injector from a config.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The injector's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Produces hour `hour`'s faulted instance and budget from the
    /// pristine `base`. Deterministic in `(seed, hour, base)`.
    pub fn inject(&self, hour: usize, base: &Instance, base_budget: Budget) -> FaultedHour {
        let mut rng = self.hour_rng(hour);
        let cfg = &self.cfg;
        let mut events = Vec::new();

        let mut cost = base.link_cost.clone();
        let mut cap = base.link_cap.clone();
        let mut requests = base.requests.clone();
        let mut structural = false;

        // Link failures, each guarded for servability.
        if base.graph.edge_count() > 0 && rng.gen_bool(cfg.link_failure) {
            let n = rng.gen_range(1..=cfg.max_link_failures.max(1));
            for _ in 0..n {
                let e = EdgeId::new(rng.gen_range(0..base.graph.edge_count()));
                if cap[e.index()] > 0.0 && self.survivable(base, &cap, &[e]) {
                    kill_edge(&mut cost, &mut cap, e);
                    events.push(FaultEvent::LinkFailed { edge: e });
                    structural = true;
                }
            }
        }

        // A whole-node failure: all incident edges of a non-origin node.
        if rng.gen_bool(cfg.node_failure) {
            let v = NodeId::new(rng.gen_range(0..base.graph.node_count()));
            if base.origin != Some(v) {
                let incident: Vec<EdgeId> = base
                    .graph
                    .out_edges(v)
                    .iter()
                    .chain(base.graph.in_edges(v))
                    .copied()
                    .filter(|e| cap[e.index()] > 0.0)
                    .collect();
                if !incident.is_empty() && self.survivable(base, &cap, &incident) {
                    for &e in &incident {
                        kill_edge(&mut cost, &mut cap, e);
                    }
                    events.push(FaultEvent::NodeFailed {
                        node: v,
                        links: incident.len(),
                    });
                    structural = true;
                }
            }
        }

        // Capacity cut across every finite-capacity link.
        if rng.gen_bool(cfg.capacity_cut) {
            for c in cap.iter_mut().filter(|c| c.is_finite()) {
                *c *= cfg.cut_factor;
            }
            events.push(FaultEvent::CapacityCut {
                factor: cfg.cut_factor,
            });
            structural = true;
        }

        // Demand spike on a random subset of requests (the request set
        // and order never change, only rates).
        if !requests.is_empty() && rng.gen_bool(cfg.demand_spike) {
            let mut spiked = 0;
            for r in requests.iter_mut() {
                if rng.gen_bool(0.5) {
                    r.rate *= cfg.spike_factor;
                    spiked += 1;
                }
            }
            if spiked > 0 {
                events.push(FaultEvent::DemandSpike {
                    requests: spiked,
                    factor: cfg.spike_factor,
                });
                structural = true;
            }
        }

        // Keep the origin fallback viable (§6's capacity augmentation,
        // re-applied to the surviving topology and spiked demand).
        if structural {
            augment_origin_paths(base, &cost, &mut cap, &requests);
        }

        // Budget sabotage.
        let budget = if rng.gen_bool(cfg.budget_trip) {
            let zero_deadline = rng.gen_bool(0.5);
            events.push(FaultEvent::BudgetTrip { zero_deadline });
            if zero_deadline {
                Budget::deadline(Duration::ZERO)
            } else {
                Budget::unlimited().with_phase_cap(Phase::Alternating, 1)
            }
        } else {
            base_budget
        };

        let instance = Instance::new(
            base.graph.clone(),
            cost,
            cap,
            base.cache_cap.clone(),
            base.item_size.clone(),
            requests,
            base.origin,
        )
        .expect(
            "invariant: injection preserves shapes and non-negativity \
             (caps floor at 0, rates only scale up), so validation holds",
        );
        FaultedHour {
            instance,
            events,
            budget,
        }
    }

    /// The hour's RNG: a fresh stream per `(seed, hour)` pair.
    fn hour_rng(&self, hour: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (hour as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Whether the origin still reaches every requester when the edges in
    /// `kill` go down on top of the current `cap` state. Instances
    /// without an origin are never considered survivable (no fallback to
    /// protect).
    fn survivable(&self, base: &Instance, cap: &[f64], kill: &[EdgeId]) -> bool {
        let Some(origin) = base.origin else {
            return false;
        };
        let tree = shortest::dijkstra_filtered(&base.graph, origin, &base.link_cost, |e| {
            cap[e.index()] > 0.0 && !kill.contains(&e)
        });
        base.requests.iter().all(|r| tree.dist(r.node).is_finite())
    }
}

/// Fails one edge in place: infinite cost, zero capacity.
fn kill_edge(cost: &mut [f64], cap: &mut [f64], e: EdgeId) {
    cost[e.index()] = f64::INFINITY;
    cap[e.index()] = 0.0;
}

/// Re-applies the §6 origin-path augmentation on the faulted topology:
/// for each requester, its total demand is added to every finite capacity
/// along the cheapest surviving origin path, so serving everything from
/// the origin remains link-feasible.
fn augment_origin_paths(
    base: &Instance,
    cost: &[f64],
    cap: &mut [f64],
    requests: &[jcr_core::instance::Request],
) {
    let Some(origin) = base.origin else {
        return;
    };
    let tree = shortest::dijkstra_filtered(&base.graph, origin, cost, |e| cap[e.index()] > 0.0);
    let mut per_node_demand: Vec<f64> = vec![0.0; base.graph.node_count()];
    for r in requests {
        per_node_demand[r.node.index()] += r.rate;
    }
    for v in base.graph.nodes() {
        let demand = per_node_demand[v.index()];
        if demand <= 0.0 {
            continue;
        }
        if let Some(path) = tree.path(&base.graph, v) {
            for e in path.edges() {
                if cap[e.index()].is_finite() {
                    cap[e.index()] += demand;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcr_core::instance::InstanceBuilder;
    use jcr_topo::{Topology, TopologyKind};

    fn base() -> Instance {
        InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, 9).unwrap())
            .items(6)
            .cache_capacity(2.0)
            .zipf_demand(0.8, 300.0, 9)
            .link_capacity_fraction(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn default_config_is_a_noop() {
        let inst = base();
        let inj = FaultInjector::new(FaultConfig::default());
        for hour in 0..5 {
            let faulted = inj.inject(hour, &inst, Budget::unlimited());
            assert!(faulted.events.is_empty());
            assert_eq!(faulted.instance.link_cap, inst.link_cap);
            assert_eq!(faulted.instance.link_cost, inst.link_cost);
            assert_eq!(faulted.instance.requests, inst.requests);
        }
    }

    #[test]
    fn injection_is_deterministic_and_memoryless() {
        let inst = base();
        let inj = FaultInjector::new(FaultConfig::uniform(42, 0.8));
        let a = inj.inject(3, &inst, Budget::unlimited());
        let b = inj.inject(3, &inst, Budget::unlimited());
        assert_eq!(a.events, b.events);
        assert_eq!(a.instance.link_cap, b.instance.link_cap);
        assert_eq!(a.instance.link_cost, b.instance.link_cost);
        assert_eq!(a.instance.requests, b.instance.requests);
        // A different seed draws a different fault history over a window.
        let other = FaultInjector::new(FaultConfig::uniform(43, 0.8));
        let differs = (0..8).any(|h| {
            other.inject(h, &inst, Budget::unlimited()).events
                != inj.inject(h, &inst, Budget::unlimited()).events
        });
        assert!(differs, "seeds 42 and 43 injected identical histories");
    }

    #[test]
    fn faulted_instances_stay_servable() {
        let inst = base();
        let origin = inst.origin.unwrap();
        let inj = FaultInjector::new(FaultConfig::uniform(7, 0.9));
        let mut saw_fault = false;
        for hour in 0..12 {
            let faulted = inj.inject(hour, &inst, Budget::unlimited());
            saw_fault |= !faulted.events.is_empty();
            let fi = &faulted.instance;
            let tree = shortest::dijkstra_filtered(&fi.graph, origin, &fi.link_cost, |e| {
                fi.link_cap[e.index()] > 0.0
            });
            for r in &fi.requests {
                let path = tree
                    .path(&fi.graph, r.node)
                    .expect("requester cut off from origin");
                // The augmented origin path carries the full demand.
                for e in path.edges() {
                    assert!(
                        !fi.link_cap[e.index()].is_finite() || fi.link_cap[e.index()] >= r.rate
                    );
                }
            }
        }
        assert!(saw_fault, "rate 0.9 over 12 hours injected nothing");
    }

    #[test]
    fn budget_trips_replace_the_base_budget() {
        let inst = base();
        let cfg = FaultConfig {
            budget_trip: 1.0,
            ..FaultConfig::uniform(5, 0.0)
        };
        let inj = FaultInjector::new(cfg);
        let base_budget = Budget::deadline(Duration::from_secs(10));
        let mut saw_zero = false;
        let mut saw_cap = false;
        for hour in 0..16 {
            let faulted = inj.inject(hour, &inst, base_budget);
            match faulted.events.as_slice() {
                [FaultEvent::BudgetTrip {
                    zero_deadline: true,
                }] => {
                    saw_zero = true;
                    assert_eq!(faulted.budget.deadline_limit(), Some(Duration::ZERO));
                }
                [FaultEvent::BudgetTrip {
                    zero_deadline: false,
                }] => {
                    saw_cap = true;
                    assert_eq!(faulted.budget.phase_cap(Phase::Alternating), Some(1));
                }
                other => panic!("expected exactly one budget trip, got {other:?}"),
            }
        }
        assert!(saw_zero && saw_cap, "both trip flavors should appear");
    }
}
