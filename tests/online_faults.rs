//! End-to-end checks of the fault-tolerant anytime online loop: under
//! injected faults the [`OnlineSimulator::step_anytime`] ladder serves
//! every hour of a servable instance with a `validate_solution`-clean
//! decision tagged with its degradation rung, carried solutions are
//! repaired around failed links, and budget sabotage degrades to the
//! incumbent or carry-forward rungs instead of erroring.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use jcr::core::prelude::*;
use jcr::core::validate::validate_solution;
use jcr::ctx::{Budget, Counter, Phase, Probe};
use jcr::graph::EdgeId;
use jcr::sim::faults::{FaultConfig, FaultInjector};
use jcr::topo::{Topology, TopologyKind};

/// Records the `"rung"` events the anytime ladder emits as
/// `(hour, rung, status, detail)` tuples; counters and phase times are
/// ignored.
#[derive(Default)]
struct RungLog(RefCell<Vec<(String, String, String, String)>>);

impl Probe for RungLog {
    fn count(&self, _counter: Counter, _by: u64) {}

    fn phase_elapsed(&self, _phase: Phase, _nanos: u64) {}

    fn event(&self, name: &str, fields: &[(&str, &str)]) {
        if name == "rung" {
            let field = |key: &str| {
                let value = fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
                value.unwrap_or_default().to_string()
            };
            let entry = (
                field("hour"),
                field("rung"),
                field("status"),
                field("detail"),
            );
            self.0.borrow_mut().push(entry);
        }
    }
}

fn base_instance(seed: u64) -> Instance {
    InstanceBuilder::new(Topology::generate(TopologyKind::Abovenet, seed).unwrap())
        .items(6)
        .cache_capacity(2.0)
        .zipf_demand(0.8, 300.0, seed)
        .link_capacity_fraction(0.1)
        .build()
        .unwrap()
}

fn truth(inst: &Instance) -> Vec<f64> {
    inst.requests.iter().map(|r| r.rate).collect()
}

/// The most loaded link under `solution` whose removal keeps the origin
/// connected to every requester (the fault injector's survivability
/// guard).
fn expendable_loaded_link(base: &Instance, solution: &Solution) -> EdgeId {
    let loads = solution.routing.link_loads(base);
    let mut candidates: Vec<EdgeId> = base
        .graph
        .edges()
        .filter(|e| loads[e.index()] > 0.0)
        .collect();
    candidates.sort_by(|a, b| loads[b.index()].partial_cmp(&loads[a.index()]).unwrap());
    candidates
        .into_iter()
        .find(|&e| {
            let tree = jcr::graph::shortest::dijkstra_filtered(
                &base.graph,
                base.origin.unwrap(),
                &base.link_cost,
                |f| f != e && base.link_cap[f.index()] > 0.0,
            );
            base.requests.iter().all(|r| tree.dist(r.node).is_finite())
        })
        .expect("some loaded link is expendable")
}

/// `base` with `victim` failed (infinite cost, zero capacity) and four
/// times the capacity on every other finite link, so re-routed flows fit.
fn with_link_killed(base: &Instance, victim: EdgeId) -> Instance {
    let mut cost = base.link_cost.clone();
    let mut cap = base.link_cap.clone();
    cost[victim.index()] = f64::INFINITY;
    cap[victim.index()] = 0.0;
    for c in cap.iter_mut().filter(|c| c.is_finite()) {
        *c *= 4.0;
    }
    Instance::new(
        base.graph.clone(),
        cost,
        cap,
        base.cache_cap.clone(),
        base.item_size.clone(),
        base.requests.clone(),
        base.origin,
    )
    .unwrap()
}

/// The acceptance criterion of the anytime mode: with every fault class
/// firing aggressively, the loop never errors — each hour yields a
/// validate-clean outcome tagged with its rung — and the rung
/// transitions stream through the probe as `"rung"` events.
#[test]
fn ladder_serves_every_hour_under_heavy_faults() {
    let base = base_instance(17);
    let injector = FaultInjector::new(FaultConfig::uniform(99, 0.6));
    let log = Rc::new(RungLog::default());
    let probe: Rc<dyn Probe> = log.clone();
    let cfg_budget = Budget::deadline(Duration::from_secs(30));

    let mut sim = OnlineSimulator::new(Alternating::new());
    let mut faults_seen = 0;
    let mut rungs = Vec::new();
    for hour in 0..8 {
        let faulted = injector.inject(hour, &base, cfg_budget);
        faults_seen += faulted.events.len();
        let cfg = AnytimeConfig::new()
            .with_budget(faulted.budget)
            .with_probe(Rc::clone(&probe));
        let outcome = sim
            .step_anytime(&faulted.instance, &truth(&faulted.instance), &cfg)
            .unwrap_or_else(|e| panic!("hour {hour} not served: {e} ({:?})", faulted.events));
        let violations = validate_solution(&faulted.instance, &outcome.solution);
        assert!(violations.is_empty(), "hour {hour}: {violations:?}");
        rungs.push(outcome.rung);
    }
    assert_eq!(sim.hour(), 8);
    assert!(faults_seen > 0, "rate 0.6 over 8 hours injected nothing");

    // Every served hour announced its rung through the probe.
    let events = log.0.borrow();
    for (hour, rung) in rungs.iter().enumerate() {
        let want = (hour.to_string(), rung.to_string(), "served".to_string());
        let found = events
            .iter()
            .any(|(h, r, s, _)| (h, r, s) == (&want.0, &want.1, &want.2));
        assert!(found, "missing {want:?} in {events:?}");
    }
}

/// Failing a loaded-but-expendable link and denying any re-solve time
/// forces the carry-forward rung, whose repair must drop the dead-link
/// flows and re-route around them.
#[test]
fn link_failure_forces_repair_on_carry_forward() {
    let base = base_instance(23);
    let mut sim = OnlineSimulator::new(Alternating::new());
    let first = sim.step(&base, &truth(&base)).unwrap();

    let victim = expendable_loaded_link(&base, &first.solution);
    let faulted = with_link_killed(&base, victim);

    let cfg = AnytimeConfig::new().with_budget(Budget::deadline(Duration::ZERO));
    let outcome = sim.step_anytime(&faulted, &truth(&faulted), &cfg).unwrap();
    assert_eq!(outcome.rung, Rung::CarryForward);
    let stats = outcome.repair.expect("carry-forward always repairs");
    assert!(stats.changed(), "{stats:?}");
    assert!(validate_solution(&faulted, &outcome.solution).is_empty());
    let new_loads = outcome.solution.routing.link_loads(&faulted);
    assert_eq!(new_loads[victim.index()], 0.0, "dead link still loaded");
}

/// Counts the Dijkstra calls mirrored to it; everything else is ignored.
#[derive(Default)]
struct DijkstraCount(Cell<u64>);

impl Probe for DijkstraCount {
    fn count(&self, counter: Counter, by: u64) {
        if counter == Counter::DijkstraCalls {
            self.0.set(self.0.get() + by);
        }
    }

    fn phase_elapsed(&self, _phase: Phase, _nanos: u64) {}
}

/// Steps `carried` through one anytime hour on `inst` alongside a twin
/// restored from its snapshot, and asserts both serve it alike: the same
/// rung, solution, cost bits and churn, and the same number of Dijkstra
/// calls. Each steps its own clone of `inst` (a clone starts with no
/// distance oracle), so nothing passes between them through the
/// instance. Returns the serving rung.
fn step_alongside_restored(carried: &mut OnlineSimulator, inst: &Instance) -> Rung {
    let state = SolverState::from_bytes(&carried.snapshot().to_bytes()).unwrap();
    let (mut restored, _) = OnlineSimulator::restore(Alternating::new(), &state);
    let hour = carried.hour();
    let [a, b] = [carried, &mut restored].map(|sim| {
        let inst = inst.clone();
        let calls = Rc::new(DijkstraCount::default());
        let probe: Rc<dyn Probe> = calls.clone();
        let cfg = AnytimeConfig::new().with_probe(probe);
        let o = sim.step_anytime(&inst, &truth(&inst), &cfg).unwrap();
        let costs = [o.decided_cost, o.realized_cost, o.realized_congestion].map(f64::to_bits);
        (o.rung, o.solution, costs, o.placement_churn, calls.0.get())
    });
    assert_eq!(a, b, "hour {hour}: carried vs restored");
    a.0
}

/// A link dies, stays dead, then comes back: each hour is served exactly
/// as by a simulator restored from the snapshot taken just before it.
#[test]
fn killed_link_hour_is_served_as_by_a_restored_simulator() {
    let base = base_instance(23);
    let mut carried = OnlineSimulator::new(Alternating::new());
    let first = carried.step(&base, &truth(&base)).unwrap();
    let victim = expendable_loaded_link(&base, &first.solution);
    let killed = with_link_killed(&base, victim);
    for inst in [&killed, &killed, &base] {
        assert_eq!(step_alongside_restored(&mut carried, inst), Rung::Full);
    }
}

/// The online loop carries no state its snapshot does not hold: on an
/// unchanged instance, a simulator restored after each hour does the
/// same work as the one that carried on, Dijkstra calls included.
#[test]
fn restored_simulator_does_the_same_work_as_the_carried_one() {
    let base = base_instance(29);
    let mut carried = OnlineSimulator::new(Alternating::new());
    for _ in 0..4 {
        assert_eq!(step_alongside_restored(&mut carried, &base), Rung::Full);
    }
}

/// A one-iteration alternating cap trips the full solve mid-flight; the
/// ladder serves the interrupted solve's incumbent (rung 2) instead of
/// failing the hour.
#[test]
fn budget_trip_falls_back_to_the_incumbent() {
    let base = base_instance(31);
    let mut sim = OnlineSimulator::new(Alternating::new());
    let cfg =
        AnytimeConfig::new().with_budget(Budget::unlimited().with_phase_cap(Phase::Alternating, 1));
    let outcome = sim.step_anytime(&base, &truth(&base), &cfg).unwrap();
    assert_eq!(outcome.rung, Rung::Incumbent);
    assert!(validate_solution(&base, &outcome.solution).is_empty());
}

/// Repeated zero-budget hours keep carrying the first hour's solution
/// forward; state stays consistent and every hour validates clean.
#[test]
fn repeated_failures_keep_carrying_forward() {
    let base = base_instance(41);
    let rates = truth(&base);
    let mut sim = OnlineSimulator::new(Alternating::new());
    let first = sim.step(&base, &rates).unwrap();
    let cfg = AnytimeConfig::new().with_budget(Budget::deadline(Duration::ZERO));
    for hour in 1..4 {
        let outcome = sim.step_anytime(&base, &rates, &cfg).unwrap();
        assert_eq!(outcome.rung, Rung::CarryForward, "hour {hour}");
        assert!(validate_solution(&base, &outcome.solution).is_empty());
        // The carried solution was already clean for this instance, so
        // repair passes it through and churn stays zero.
        assert_eq!(outcome.placement_churn, 0, "hour {hour}");
        assert_eq!(outcome.solution.placement, first.solution.placement);
        assert_eq!(sim.hour(), hour + 1);
    }
}

/// Satellite coverage for the compound-fault hour: a whole-node failure
/// (every incident link dead) *and* a capacity cut land in the same
/// hour. `Placement::repair` must evict down to the slashed cache
/// capacities, and the full `repair_solution` pass must also route
/// around the dead node — the repaired solution validates clean against
/// the compound-faulted instance.
#[test]
fn repair_survives_node_failure_and_capacity_cut_in_one_hour() {
    use jcr::sim::faults::FaultEvent;

    let base = base_instance(23);
    let rates = truth(&base);

    // Hour 0: a clean solve whose solution we then carry into the fault.
    let mut sim = OnlineSimulator::new(Alternating::new());
    let carried = sim.step(&base, &rates).unwrap();
    assert!(!carried.solution.placement.is_empty());

    // Deterministically fire exactly the two fault classes under test.
    let mut fcfg = FaultConfig::uniform(23, 0.0);
    fcfg.node_failure = 1.0;
    fcfg.capacity_cut = 1.0;
    fcfg.cut_factor = 0.4;
    let injector = FaultInjector::new(fcfg);
    let (faulted, dead_node) = (1..32)
        .find_map(|hour| {
            let f = injector.inject(hour, &base, Budget::unlimited());
            let dead = f.events.iter().find_map(|e| match e {
                FaultEvent::NodeFailed { node, .. } => Some(*node),
                _ => None,
            })?;
            let cut = f
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::CapacityCut { .. }));
            cut.then_some((f, dead))
        })
        .expect("some hour fires a survivable node failure plus a capacity cut");

    // Compound the link-level faults with a cache-capacity cut so the
    // placement half of the repair has real work to do.
    let cache_cap: Vec<f64> = faulted.instance.cache_cap.iter().map(|c| c * 0.5).collect();
    let compound = Instance::new(
        faulted.instance.graph.clone(),
        faulted.instance.link_cost.clone(),
        faulted.instance.link_cap.clone(),
        cache_cap,
        faulted.instance.item_size.clone(),
        faulted.instance.requests.clone(),
        faulted.instance.origin,
    )
    .unwrap();

    // The carried placement overflows the halved caches; repair must
    // evict (not reset: dimensions still match) back to feasibility.
    let mut placement = carried.solution.placement.clone();
    assert!(!placement.is_feasible(&compound));
    let evicted = placement.repair(&compound);
    assert!(evicted > 0, "halved caches force evictions");
    assert!(placement.is_feasible(&compound));
    assert!(
        !placement.is_empty(),
        "dims match, so repair evicts rather than resets"
    );

    // The full carry-forward repair: placement trimmed *and* routing
    // steered off the dead node's links, clean against the compound
    // instance.
    let (repaired, stats) = repair_solution(&compound, &carried.solution);
    assert!(stats.evicted > 0 || stats.rerouted > 0);
    assert!(
        validate_solution(&compound, &repaired).is_empty(),
        "repair under node failure + capacity cut must validate clean"
    );
    let loads = repaired.routing.link_loads(&compound);
    for e in compound
        .graph
        .out_edges(dead_node)
        .iter()
        .chain(compound.graph.in_edges(dead_node))
    {
        assert_eq!(loads[e.index()], 0.0, "no flow may cross the failed node");
    }

    // And the online ladder serves the compound hour end to end.
    let outcome = sim
        .step_anytime(&compound, &truth(&compound), &AnytimeConfig::new())
        .unwrap();
    assert!(validate_solution(&compound, &outcome.solution).is_empty());
}

/// `base` with every link capacity zeroed: nothing can be routed, so no
/// rung — carry-forward's repair included — can serve it.
fn with_all_links_zero(base: &Instance) -> Instance {
    Instance::new(
        base.graph.clone(),
        base.link_cost.clone(),
        vec![0.0; base.graph.edge_count()],
        base.cache_cap.clone(),
        base.item_size.clone(),
        base.requests.clone(),
        base.origin,
    )
    .unwrap()
}

/// Steps `sim` through one anytime hour under `budget` and renders what
/// the ladder did: one line per `"rung"` event (`hour rung status:
/// detail`), then the outcome (`=> rung repair cost-bits`, the repair as
/// `evicted/dropped/rerouted/passes`) or the error.
fn ladder_trace(
    sim: &mut OnlineSimulator,
    inst: &Instance,
    budget: Budget,
    log: &Rc<RungLog>,
) -> Vec<String> {
    let probe: Rc<dyn Probe> = log.clone();
    let cfg = AnytimeConfig::new().with_budget(budget).with_probe(probe);
    let result = sim.step_anytime(inst, &truth(inst), &cfg);
    let mut lines: Vec<String> = log
        .0
        .borrow_mut()
        .drain(..)
        .map(|(hour, rung, status, detail)| format!("{hour} {rung} {status}: {detail}"))
        .collect();
    lines.push(match result {
        Ok(o) => {
            let repair = o.repair.map_or("-".to_string(), |r| {
                format!(
                    "{}/{}/{}/{}",
                    r.evicted, r.dropped_flows, r.rerouted, r.passes
                )
            });
            format!("=> {} {repair} {:016x}", o.rung, o.decided_cost.to_bits())
        }
        Err(e) => format!("=> error: {e}"),
    });
    lines
}

/// Pins the ladder's whole event stream and every hour's outcome — which
/// rung served, what repair it took, the decided cost's bits — across the
/// cases that exercise each rung's irregular reporting: zero-deadline
/// hours cold and warm, per-phase iteration caps, fault-injected hours at
/// an unlimited base budget (so every budget trip is deterministic) and
/// an unservable hour cold and warm. Everything here is independent of
/// wall time: a zero deadline trips at the first check, and no other
/// budget has a deadline.
#[test]
fn ladder_event_stream_is_pinned() {
    let log = Rc::new(RungLog::default());
    let mut got: Vec<String> = Vec::new();
    let zero = Budget::deadline(Duration::ZERO);

    // Zero-deadline hours: cold (origin-only carry-forward), then warm
    // around one unlimited hour.
    let base = base_instance(7);
    let mut sim = OnlineSimulator::new(Alternating::new());
    for budget in [zero, Budget::unlimited(), zero] {
        got.extend(ladder_trace(&mut sim, &base, budget, &log));
    }

    // Iteration caps on the simplex, the alternating loop and column
    // generation, warm and cold: the first serves a repair-polished
    // incumbent, the alternating cap a clean one, and the one-pivot and
    // one-round caps none at all.
    let base = base_instance(31);
    let caps = [
        (Phase::Simplex, 100),
        (Phase::Alternating, 1),
        (Phase::Simplex, 1),
        (Phase::ColumnGeneration, 1),
    ];
    let mut sim = OnlineSimulator::new(Alternating::new());
    for (phase, cap) in caps {
        let budget = Budget::unlimited().with_phase_cap(phase, cap);
        got.extend(ladder_trace(&mut sim, &base, budget, &log));
    }
    let mut sim = OnlineSimulator::new(Alternating::new());
    let budget = Budget::unlimited().with_phase_cap(Phase::ColumnGeneration, 1);
    got.extend(ladder_trace(&mut sim, &base, budget, &log));

    // Every fault class at rate 0.6 over an unlimited base budget.
    let base = base_instance(17);
    let injector = FaultInjector::new(FaultConfig::uniform(99, 0.6));
    let mut sim = OnlineSimulator::new(Alternating::new());
    for hour in 0..8 {
        let faulted = injector.inject(hour, &base, Budget::unlimited());
        got.extend(ladder_trace(
            &mut sim,
            &faulted.instance,
            faulted.budget,
            &log,
        ));
    }

    // An unservable hour, cold and then warm (with carried state, the
    // cold-restore rung runs too).
    let base = base_instance(23);
    let dead = with_all_links_zero(&base);
    let mut sim = OnlineSimulator::new(Alternating::new());
    for inst in [&dead, &base, &dead] {
        got.extend(ladder_trace(&mut sim, inst, Budget::unlimited(), &log));
    }

    assert_eq!(got, PINNED_LADDER, "{got:#?}");
}

/// What [`ladder_event_stream_is_pinned`] must see, line for line.
const PINNED_LADDER: &[&str] = &[
    "0 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "0 incumbent failed: no incumbent to fall back on",
    "0 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "0 carry-forward served: ",
    "=> carry-forward 0/5/5/1 40e44d9576d9129e",
    "1 full served: ",
    "=> full - 40cb0ad52ab080ca",
    "2 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "2 incumbent failed: no incumbent to fall back on",
    "2 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "2 carry-forward served: ",
    "=> carry-forward 0/0/0/0 40cb0ad52ab080ca",
    "0 full failed: solver budget exceeded in phase simplex (with incumbent)",
    "0 incumbent served: after repair polish",
    "=> incumbent 0/1/1/1 40f0b227ea9775c7",
    "1 full failed: solver budget exceeded in phase alternating (with incumbent)",
    "1 incumbent served: ",
    "=> incumbent - 40cdd83c74f69c68",
    "2 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "2 incumbent failed: no incumbent to fall back on",
    "2 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "2 carry-forward served: ",
    "=> carry-forward 0/0/0/0 40cdd83c74f69c68",
    "3 full failed: solver budget exceeded in phase column-generation (no incumbent)",
    "3 incumbent failed: no incumbent to fall back on",
    "3 routing-only failed: solver budget exceeded in phase column-generation (no incumbent)",
    "3 carry-forward served: ",
    "=> carry-forward 0/0/0/0 40cdd83c74f69c68",
    "0 full failed: solver budget exceeded in phase column-generation (no incumbent)",
    "0 incumbent failed: no incumbent to fall back on",
    "0 routing-only failed: solver budget exceeded in phase column-generation (no incumbent)",
    "0 carry-forward served: ",
    "=> carry-forward 0/20/20/1 40f0b6b4e0d3ca62",
    "0 full served: ",
    "=> full - 40cda899511d48bd",
    "1 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "1 incumbent failed: no incumbent to fall back on",
    "1 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "1 carry-forward served: ",
    "=> carry-forward 0/0/0/0 40cda899511d48bd",
    "2 full served: after repair polish",
    "=> full 0/3/3/1 40e3a726c46320e6",
    "3 full served: ",
    "=> full - 40cda899511d48bd",
    "4 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "4 incumbent failed: no incumbent to fall back on",
    "4 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "4 carry-forward served: ",
    "=> carry-forward 0/0/0/0 40cda899511d48bd",
    "5 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "5 incumbent failed: no incumbent to fall back on",
    "5 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "5 carry-forward served: ",
    "=> carry-forward 0/0/0/0 40cda899511d48bd",
    "6 full served: ",
    "=> full - 40e09f0c82d8d037",
    "7 full failed: solver budget exceeded in phase simplex (no incumbent)",
    "7 incumbent failed: no incumbent to fall back on",
    "7 routing-only failed: solver budget exceeded in phase simplex (no incumbent)",
    "7 carry-forward served: ",
    "=> carry-forward 0/21/21/1 40de541c7835eed9",
    "0 full failed: no feasible joint caching/routing solution",
    "0 routing-only failed: no feasible joint caching/routing solution",
    "0 carry-forward failed: no repairable candidate",
    "=> error: no feasible joint caching/routing solution",
    "0 full served: ",
    "=> full - 40c4bcd98ab14fe2",
    "1 full failed: no feasible joint caching/routing solution",
    "1 cold-restore failed: no feasible joint caching/routing solution",
    "1 routing-only failed: no feasible joint caching/routing solution",
    "1 carry-forward failed: no repairable candidate",
    "=> error: no feasible joint caching/routing solution",
];
