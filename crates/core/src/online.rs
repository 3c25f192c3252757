//! Hourly online re-optimization (§6's evaluation protocol): each hour,
//! re-solve joint caching and routing against the *forecast* demand —
//! warm-started from the previous hour's placement — and account the
//! realized cost/congestion under the *true* demand.
//!
//! The paper runs this loop with GPR forecasts ("the network provider
//! adjusts caching and routing decisions on an hourly basis based on the
//! predicted demand"); this module packages it as a reusable driver and
//! additionally reports cache churn (how many items move per hour), the
//! operational cost a provider would watch.
//!
//! # The anytime degradation ladder
//!
//! A production control loop cannot afford to skip an hour because the
//! solver ran out of time or the instance turned hostile (failed links,
//! demand spikes). [`OnlineSimulator::step_anytime`] therefore runs each
//! hour under the hour's wall-clock budget (via
//! [`SolverContext`]) and, on failure, walks an
//! explicit ladder of increasingly cheap fallbacks:
//!
//! 1. [`Rung::Full`] — the full alternating re-solve, warm-started from
//!    every piece of carried state (placement, LP basis, column pool,
//!    carried oracle rows);
//! 2. [`Rung::ColdRestore`] — when the full solve *with carried state*
//!    failed for a reason other than the budget, retry once from scratch
//!    with every carried component dropped (a restored-but-poisoned
//!    snapshot component must degrade to cold, never wedge the hour);
//! 3. [`Rung::Incumbent`] — on [`JcrError::BudgetExceeded`], the
//!    validated best incumbent the interrupted solve produced;
//! 4. [`Rung::RetryHalved`] — one retry with halved iteration caps under
//!    the remaining budget;
//! 5. [`Rung::RoutingOnly`] — re-route over the carried placement without
//!    touching the caches;
//! 6. [`Rung::CarryForward`] — repair the previous hour's solution
//!    against the current instance ([`crate::repair`]) and serve from it.
//!
//! Every candidate is checked with [`validate_solution`] before it is
//! served; the rung that produced the served solution is recorded in
//! [`HourOutcome::rung`] and streamed as a structured `"rung"` event
//! through the configured [`Probe`].
//!
//! # Crash recovery
//!
//! [`OnlineSimulator::snapshot`] captures the carried state as a
//! [`SolverState`] and [`OnlineSimulator::restore`] rebuilds a simulator
//! from one, independently validating each component (placement bitset,
//! routing, LP basis, column pool) and degrading whatever fails to cold
//! — reported per component in [`RestoreReport`], never an error. Carried
//! distance-oracle rows are *not* part of the snapshot: they are re-
//! derived (and re-verified) from each hour's instance, and carried rows
//! are bit-identical to fresh ones, so a resumed run replays the exact
//! bits of an uninterrupted one.

use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use jcr_ctx::{Budget, Phase, Probe, SolverContext};
use jcr_graph::{DistanceOracle, EdgeId, NodeId, Path};

use crate::alternating::{Alternating, Warm};
use crate::error::JcrError;
use crate::instance::Instance;
use crate::placement::Placement;
use crate::repair::{repair_solution, RepairStats};
use crate::rnr;
use crate::routing::{Routing, Solution};
use crate::state::{ColumnRecord, FlowRecord, SolverState};
use crate::validate::validate_solution;

/// The degradation-ladder rung that served an hour (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Full alternating re-solve succeeded.
    Full,
    /// The full solve failed with carried state; a from-scratch re-solve
    /// with every carried component dropped served instead.
    ColdRestore,
    /// Budget tripped; the interrupted solve's best incumbent served.
    Incumbent,
    /// A retry with halved iteration caps served.
    RetryHalved,
    /// Routing-only re-solve over the carried placement served.
    RoutingOnly,
    /// The previous hour's solution served after repair.
    CarryForward,
}

impl Rung {
    /// All rungs, in ladder order.
    pub const ALL: [Rung; 6] = [
        Rung::Full,
        Rung::ColdRestore,
        Rung::Incumbent,
        Rung::RetryHalved,
        Rung::RoutingOnly,
        Rung::CarryForward,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Full => "full",
            Rung::ColdRestore => "cold-restore",
            Rung::Incumbent => "incumbent",
            Rung::RetryHalved => "retry-halved",
            Rung::RoutingOnly => "routing-only",
            Rung::CarryForward => "carry-forward",
        }
    }

    /// Position in [`Rung::ALL`] (for histogram indexing).
    pub fn index(self) -> usize {
        match self {
            Rung::Full => 0,
            Rung::ColdRestore => 1,
            Rung::Incumbent => 2,
            Rung::RetryHalved => 3,
            Rung::RoutingOnly => 4,
            Rung::CarryForward => 5,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for [`OnlineSimulator::step_anytime`].
#[derive(Default)]
pub struct AnytimeConfig {
    /// The hour's solver budget. The wall-clock deadline, if any, spans
    /// the *whole* ladder: later rungs run under whatever remains.
    pub budget: Budget,
    /// Structured-event sink: rung transitions are emitted as `"rung"`
    /// events, and every per-rung [`SolverContext`] mirrors its counters
    /// and phase timings here (one `Rc` may back every rung's context).
    pub probe: Option<Rc<dyn Probe>>,
}

impl fmt::Debug for AnytimeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnytimeConfig")
            .field("budget", &self.budget)
            .field("probe", &self.probe.is_some())
            .finish()
    }
}

impl AnytimeConfig {
    /// An unlimited budget and no probe.
    pub fn new() -> Self {
        AnytimeConfig::default()
    }

    /// Sets the hour budget (builder style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the structured-event probe (builder style).
    pub fn with_probe(mut self, probe: Rc<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self
    }
}

/// Outcome of one online step.
#[derive(Clone, Debug)]
pub struct HourOutcome {
    /// Cost of the decision under the demand it was optimized for.
    pub decided_cost: f64,
    /// Cost realized under the true demand.
    pub realized_cost: f64,
    /// Congestion realized under the true demand.
    pub realized_congestion: f64,
    /// Items inserted plus evicted relative to the previous hour's
    /// placement (cache churn).
    pub placement_churn: usize,
    /// The degradation-ladder rung that produced the solution
    /// ([`Rung::Full`] when the regular solve succeeded).
    pub rung: Rung,
    /// Repair work performed on the served candidate: always present for
    /// [`Rung::CarryForward`], and on earlier rungs whenever the
    /// candidate needed a repair polish (e.g. a slight link overload from
    /// the bicriteria rounding) to pass validation.
    pub repair: Option<RepairStats>,
    /// Independent certificate of the served solution
    /// ([`certify_solution`](crate::certify::certify_solution); link
    /// capacities recorded but not gated — the rounding is bicriteria).
    /// Serving is gated on [`validate_solution`] instead, so an outcome
    /// can carry a non-verified certificate only via the raw
    /// [`OnlineSimulator::step`] path.
    pub certificate: jcr_ctx::cert::Certificate,
    /// The decision itself.
    pub solution: Solution,
}

/// The hour-by-hour re-optimization driver.
#[derive(Clone, Debug)]
pub struct OnlineSimulator {
    solver: Alternating,
    /// Warm-start each hour from the previous placement (vs from empty
    /// caches).
    pub warm_start: bool,
    previous: Option<Solution>,
    /// Warm-start state of the last committed hour, threaded into the
    /// next hour's solve ([`Alternating::solve_warm`]): the simplex basis
    /// of its last placement LP and its active CG columns. Best effort: an
    /// hour whose LP shape drifted (topology delta, different segment
    /// structure) falls back to a cold solve on its own, and stale columns
    /// (endpoints moved, edges gone) are revalidated and dropped per hour
    /// by the flow layer. Only [`OnlineSimulator::commit`] updates this,
    /// so a failed hour keeps the last good state and retries
    /// bit-identically.
    warm: Warm,
    /// Clone (filled rows included) of the last committed hour's distance
    /// oracle, offered to the next hour's instance via
    /// [`Instance::adopt_all_pairs_from`]. Speed-only state: carried rows
    /// are bit-identical to fresh ones, so it is not snapshotted.
    prev_oracle: Option<DistanceOracle>,
    /// A placement restored from a snapshot whose routing component was
    /// degraded: still usable to warm-start the next hour even though no
    /// full previous [`Solution`] exists. Cleared by the first commit.
    seed_placement: Option<Placement>,
    /// Dimensions of the instance the carried state was committed
    /// against (nodes, items, edges, requests) — recorded into snapshots
    /// so the restore gate can bounds-check every component.
    dims: Option<(u32, u32, u32, u32)>,
    hour: usize,
}

/// Fate of one snapshot component at restore time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentStatus {
    /// Decoded, validated, and carried into the simulator.
    Restored,
    /// Present in the snapshot but failed validation; the simulator runs
    /// cold for this component (the reason says why).
    Degraded(&'static str),
    /// Not present in the snapshot.
    Absent,
}

impl ComponentStatus {
    /// Whether the component made it into the simulator.
    pub fn restored(self) -> bool {
        self == ComponentStatus::Restored
    }
}

/// Per-component outcome of [`OnlineSimulator::restore`]. Degradation is
/// deliberate: a snapshot with a corrupt basis still restores its
/// placement, and vice versa — the ladder absorbs whatever is missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestoreReport {
    /// The committed placement bitset.
    pub placement: ComponentStatus,
    /// The served routing (degrades independently of the placement).
    pub routing: ComponentStatus,
    /// The simplex warm-start basis.
    pub basis: ComponentStatus,
    /// The carried CG column pool.
    pub columns: ComponentStatus,
}

impl OnlineSimulator {
    /// Creates a driver around an [`Alternating`] configuration.
    pub fn new(solver: Alternating) -> Self {
        OnlineSimulator {
            solver,
            warm_start: true,
            previous: None,
            warm: Warm::default(),
            prev_oracle: None,
            seed_placement: None,
            dims: None,
            hour: 0,
        }
    }

    /// Number of steps executed so far.
    pub fn hour(&self) -> usize {
        self.hour
    }

    /// Executes one hour: optimize against `decision_inst` (built from the
    /// forecast demand), then evaluate against `true_rates` (aligned with
    /// `decision_inst.requests`, as produced by flooring the demand matrix
    /// — see the bench harness).
    ///
    /// # Errors
    ///
    /// Propagates solver failures. A failed hour leaves the simulator
    /// untouched — same hour counter, same per-hour seed perturbation,
    /// same carried solution — so retrying it reproduces the unfailed
    /// step bit for bit.
    pub fn step(
        &mut self,
        decision_inst: &Instance,
        true_rates: &[f64],
    ) -> Result<HourOutcome, JcrError> {
        let ctx = SolverContext::new();
        self.offer_oracle(decision_inst, &ctx);
        let solver = self.hour_solver();
        let initial = self.initial_placement(decision_inst);
        let (result, warm) = solver.solve_warm(decision_inst, initial, &self.warm, &ctx)?;
        Ok(self.commit(
            decision_inst,
            true_rates,
            result.solution,
            Rung::Full,
            None,
            warm,
        ))
    }

    /// Executes one hour with the fault-tolerant anytime ladder (see the
    /// module docs): never gives an hour up while any rung can produce a
    /// [`validate_solution`]-clean decision.
    ///
    /// # Errors
    ///
    /// Only when every rung fails — which requires the instance itself to
    /// be unservable (e.g. a requester unreachable from every replica and
    /// the origin). As with [`OnlineSimulator::step`], a failed hour
    /// leaves the simulator untouched.
    pub fn step_anytime(
        &mut self,
        decision_inst: &Instance,
        true_rates: &[f64],
        cfg: &AnytimeConfig,
    ) -> Result<HourOutcome, JcrError> {
        let started = Instant::now();
        let hour = self.hour.to_string();
        let emit = |rung: Rung, status: &str, detail: &str| {
            if let Some(p) = &cfg.probe {
                p.event(
                    "rung",
                    &[
                        ("hour", hour.as_str()),
                        ("rung", rung.name()),
                        ("status", status),
                        ("detail", detail),
                    ],
                );
            }
        };
        let solver = self.hour_solver();
        let initial = self.initial_placement(decision_inst);
        let mut last_err = JcrError::Infeasible;

        // Rung 1: full re-solve under the hour budget, warm-started from
        // every piece of carried state.
        let ctx = rung_context(cfg, cfg.budget);
        self.offer_oracle(decision_inst, &ctx);
        let attempt = {
            let _s = ctx.span("online.rung.full");
            solver.solve_warm(decision_inst, initial.clone(), &self.warm, &ctx)
        };
        let mut full_incumbent = None;
        let mut budget_tripped = false;
        match attempt {
            Ok((result, warm)) => {
                if let Some((solution, repair)) = accept(decision_inst, result.solution) {
                    emit(Rung::Full, "served", polish_note(&repair));
                    return Ok(self.commit(
                        decision_inst,
                        true_rates,
                        solution,
                        Rung::Full,
                        repair,
                        warm,
                    ));
                }
                emit(Rung::Full, "failed", "candidate failed validation");
            }
            Err(e) => {
                emit(Rung::Full, "failed", &e.to_string());
                budget_tripped = matches!(e, JcrError::BudgetExceeded { .. });
                full_incumbent = e.clone().into_incumbent();
                last_err = e;
            }
        }

        // Rung 2: the full solve failed *with* carried state for a reason
        // other than the budget — suspect the carried state (a restored
        // snapshot component may be subtly poisoned despite validating)
        // and retry once completely cold. Skipped when there was nothing
        // carried (the solve was already cold) or the budget tripped (a
        // second full solve would waste what remains of the hour).
        if !budget_tripped && self.carrying_state() {
            let budget = remaining_budget(&cfg.budget, started.elapsed());
            let ctx = rung_context(cfg, budget);
            let attempt = {
                let _s = ctx.span("online.rung.cold-restore");
                solver.solve_warm(
                    decision_inst,
                    Placement::empty(decision_inst),
                    &Warm::default(),
                    &ctx,
                )
            };
            match attempt {
                Ok((result, warm)) => {
                    if let Some((solution, repair)) = accept(decision_inst, result.solution) {
                        emit(Rung::ColdRestore, "served", polish_note(&repair));
                        return Ok(self.commit(
                            decision_inst,
                            true_rates,
                            solution,
                            Rung::ColdRestore,
                            repair,
                            warm,
                        ));
                    }
                    emit(Rung::ColdRestore, "failed", "candidate failed validation");
                }
                Err(e) => {
                    emit(Rung::ColdRestore, "failed", &e.to_string());
                    last_err = e;
                }
            }
        }

        // Rung 3: the interrupted full solve's validated incumbent.
        if let Some(incumbent) = full_incumbent {
            if let Some((solution, repair)) = accept(decision_inst, *incumbent) {
                emit(Rung::Incumbent, "served", polish_note(&repair));
                return Ok(self.commit(
                    decision_inst,
                    true_rates,
                    solution,
                    Rung::Incumbent,
                    repair,
                    Warm::default(),
                ));
            }
            emit(Rung::Incumbent, "failed", "incumbent failed validation");
        } else if budget_tripped {
            emit(Rung::Incumbent, "failed", "no incumbent to fall back on");
        }

        // Rung 4: one retry with halved iteration caps, on what remains
        // of the hour budget.
        let mut halved = solver.clone();
        halved.max_iters = (halved.max_iters / 2).max(1);
        halved.rounding_draws = (halved.rounding_draws / 2).max(1);
        let budget = halve_caps(remaining_budget(&cfg.budget, started.elapsed()));
        let ctx = rung_context(cfg, budget);
        let attempt = {
            let _s = ctx.span("online.rung.retry-halved");
            halved.solve_warm(decision_inst, initial.clone(), &self.warm, &ctx)
        };
        match attempt {
            Ok((result, warm)) => {
                if let Some((solution, repair)) = accept(decision_inst, result.solution) {
                    emit(Rung::RetryHalved, "served", polish_note(&repair));
                    return Ok(self.commit(
                        decision_inst,
                        true_rates,
                        solution,
                        Rung::RetryHalved,
                        repair,
                        warm,
                    ));
                }
                emit(Rung::RetryHalved, "failed", "candidate failed validation");
            }
            Err(e) => {
                emit(Rung::RetryHalved, "failed", &e.to_string());
                if let Some(incumbent) = e.clone().into_incumbent() {
                    if let Some((solution, repair)) = accept(decision_inst, *incumbent) {
                        emit(Rung::RetryHalved, "served", "interrupted retry's incumbent");
                        return Ok(self.commit(
                            decision_inst,
                            true_rates,
                            solution,
                            Rung::RetryHalved,
                            repair,
                            Warm::default(),
                        ));
                    }
                }
                last_err = e;
            }
        }

        // Rung 5: keep the carried placement, only re-route.
        let budget = remaining_budget(&cfg.budget, started.elapsed());
        let ctx = rung_context(cfg, budget);
        let attempt = {
            let _s = ctx.span("online.rung.routing-only");
            solver.route_given_placement_with_context(decision_inst, &initial, &ctx)
        };
        match attempt {
            Ok(routing) => {
                let candidate = Solution {
                    placement: initial.clone(),
                    routing,
                };
                if let Some((solution, repair)) = accept(decision_inst, candidate) {
                    emit(Rung::RoutingOnly, "served", polish_note(&repair));
                    return Ok(self.commit(
                        decision_inst,
                        true_rates,
                        solution,
                        Rung::RoutingOnly,
                        repair,
                        Warm::default(),
                    ));
                }
                emit(Rung::RoutingOnly, "failed", "candidate failed validation");
            }
            Err(e) => {
                emit(Rung::RoutingOnly, "failed", &e.to_string());
                last_err = e;
            }
        }

        // Rung 6: carry the previous hour's solution, repaired against
        // the current instance. With no previous hour (or when its repair
        // fails), fall back to an origin-only solution. Repair is
        // budget-free by design: this rung must always produce an answer.
        let mut candidates: Vec<Solution> = Vec::new();
        if let Some(prev) = &self.previous {
            candidates.push(prev.clone());
        }
        if let Some(routing) =
            rnr::route_to_nearest_replica(decision_inst, &Placement::empty(decision_inst))
        {
            candidates.push(Solution {
                placement: Placement::empty(decision_inst),
                routing,
            });
        }
        for base in candidates {
            let (repaired, stats) = repair_solution(decision_inst, &base);
            if validate_solution(decision_inst, &repaired).is_empty() {
                emit(Rung::CarryForward, "served", "");
                return Ok(self.commit(
                    decision_inst,
                    true_rates,
                    repaired,
                    Rung::CarryForward,
                    Some(stats),
                    Warm::default(),
                ));
            }
        }
        emit(Rung::CarryForward, "failed", "no repairable candidate");
        Err(last_err)
    }

    /// The solution carried into the next hour, if any step succeeded.
    pub fn current_solution(&self) -> Option<&Solution> {
        self.previous.as_ref()
    }

    /// The placement carried into the next hour, if any step succeeded.
    pub fn current_placement(&self) -> Option<&Placement> {
        self.previous.as_ref().map(|s| &s.placement)
    }

    /// Captures the carried state as a [`SolverState`] snapshot. Taken at
    /// an hour boundary (after a step returned), restoring it resumes the
    /// run bit-identically: everything that can change the bits of future
    /// decisions is included, and the speed-only carried oracle rows —
    /// which are bit-identical to freshly computed ones — are not.
    pub fn snapshot(&self) -> SolverState {
        let (n_nodes, n_items, n_edges, n_requests) = self.dims.unwrap_or_default();
        let placement = self
            .previous
            .as_ref()
            .map(|s| &s.placement)
            .or(self.seed_placement.as_ref())
            .map(|p| p.to_raw_parts().1.to_vec());
        let routing = self.previous.as_ref().map(|s| {
            s.routing
                .per_request
                .iter()
                .map(|flows| {
                    flows
                        .iter()
                        .map(|pf| FlowRecord {
                            amount_bits: pf.amount.to_bits(),
                            edges: pf.path.edges().iter().map(|e| e.index() as u32).collect(),
                        })
                        .collect()
                })
                .collect()
        });
        SolverState {
            hour: self.hour as u64,
            n_nodes,
            n_items,
            n_edges,
            n_requests,
            placement,
            routing,
            basis: self.warm.basis.as_ref().map(jcr_lp::Basis::to_bytes),
            columns: self
                .warm
                .columns
                .iter()
                .map(|(k, nodes)| ColumnRecord {
                    commodity: *k as u32,
                    nodes: nodes.iter().map(|v| v.index() as u32).collect(),
                })
                .collect(),
        }
    }

    /// Rebuilds a simulator from a decoded snapshot, independently
    /// validating every component and degrading whatever fails to cold
    /// (see [`RestoreReport`]); restore itself never errors. The deeper
    /// semantic checks run where the context to perform them exists: the
    /// LP re-factorizes the basis on first use and falls back cold if it
    /// is singular or mis-shaped, carried columns are re-priced against
    /// each hour's auxiliary graph and stale ones dropped, and carried
    /// oracle rows are delta-checked and sample-verified per hour.
    pub fn restore(solver: Alternating, state: &SolverState) -> (OnlineSimulator, RestoreReport) {
        let mut sim = OnlineSimulator::new(solver);
        sim.hour = state.hour as usize;
        if state.n_nodes > 0 {
            sim.dims = Some((
                state.n_nodes,
                state.n_items,
                state.n_edges,
                state.n_requests,
            ));
        }
        let mut report = RestoreReport {
            placement: ComponentStatus::Absent,
            routing: ComponentStatus::Absent,
            basis: ComponentStatus::Absent,
            columns: ComponentStatus::Absent,
        };

        let placement = state.placement.as_deref().and_then(|words| {
            let decoded =
                Placement::from_raw_parts(state.n_nodes as usize, state.n_items as usize, words);
            report.placement = match decoded {
                Some(_) => ComponentStatus::Restored,
                None => ComponentStatus::Degraded("placement words do not fit the dimensions"),
            };
            decoded
        });
        let routing = state.routing.as_ref().and_then(|per_request| {
            let decoded = decode_routing(per_request, state.n_requests, state.n_edges);
            report.routing = match decoded {
                Some(_) => ComponentStatus::Restored,
                None => ComponentStatus::Degraded("routing references out-of-range edges"),
            };
            decoded
        });
        match (placement, routing) {
            (Some(p), Some(r)) => {
                sim.previous = Some(Solution {
                    placement: p,
                    routing: r,
                });
            }
            (Some(p), None) => sim.seed_placement = Some(p),
            (None, Some(_)) => {
                // A routing without its placement cannot be served or
                // repaired; degrade it alongside.
                report.routing = ComponentStatus::Degraded("placement unavailable");
            }
            (None, None) => {}
        }

        sim.warm.basis = state.basis.as_deref().and_then(|bytes| {
            let decoded = jcr_lp::Basis::from_bytes(bytes);
            report.basis = match decoded {
                Some(_) => ComponentStatus::Restored,
                None => ComponentStatus::Degraded("basis bytes malformed"),
            };
            decoded
        });

        if !state.columns.is_empty() {
            let max_node = state.n_nodes as usize + state.n_items as usize;
            let mut dropped = false;
            for col in &state.columns {
                let in_range = (col.commodity as usize) < state.n_requests as usize
                    && col.nodes.len() >= 2
                    && col.nodes.iter().all(|&v| (v as usize) < max_node);
                if in_range {
                    sim.warm.columns.push((
                        col.commodity as usize,
                        col.nodes.iter().map(|&v| NodeId::new(v as usize)).collect(),
                    ));
                } else {
                    dropped = true;
                }
            }
            report.columns = if dropped {
                ComponentStatus::Degraded("column references out-of-range nodes")
            } else {
                ComponentStatus::Restored
            };
        }

        (sim, report)
    }

    /// The hour's solver: the configured one with the seed perturbed by
    /// the hour index, so every hour makes fresh randomized-rounding
    /// draws. Pure in `self` — a failed hour repeats identically.
    fn hour_solver(&self) -> Alternating {
        let mut solver = self.solver.clone();
        solver.seed = self.solver.seed.wrapping_add(self.hour as u64);
        solver
    }

    /// The warm-start placement for the current hour: the carried
    /// placement when enabled, dimension-compatible, and feasible. A
    /// snapshot-restored placement whose routing was degraded
    /// (`seed_placement`) fills in when no full previous solution exists.
    fn initial_placement(&self, decision_inst: &Instance) -> Placement {
        if !self.warm_start {
            return Placement::empty(decision_inst);
        }
        self.previous
            .as_ref()
            .map(|s| &s.placement)
            .or(self.seed_placement.as_ref())
            .filter(|p| p.dims_match(decision_inst) && p.is_feasible(decision_inst))
            .cloned()
            .unwrap_or_else(|| Placement::empty(decision_inst))
    }

    /// Whether any carried component would warm-start the next solve —
    /// the precondition for attempting [`Rung::ColdRestore`].
    fn carrying_state(&self) -> bool {
        self.previous.is_some()
            || self.seed_placement.is_some()
            || self.warm.basis.is_some()
            || !self.warm.columns.is_empty()
    }

    /// Offers the previous hour's oracle rows to this hour's instance
    /// (delta invalidation + sampled re-verification; see
    /// [`Instance::adopt_all_pairs_from`]). Speed-only: adopted rows are
    /// bit-identical to fresh ones. No-op when nothing is carried or the
    /// instance already computed its all-pairs cache.
    fn offer_oracle(&self, decision_inst: &Instance, ctx: &SolverContext) {
        if let Some(oracle) = &self.prev_oracle {
            decision_inst.adopt_all_pairs_from(oracle, ctx);
        }
    }

    /// Commits a served hour: computes the outcome metrics and only then
    /// advances the carried state. All mutation of `self` funnels through
    /// here, so failure paths cannot leave the simulator inconsistent.
    /// `warm.basis` replaces the carried LP basis when the serving rung
    /// produced one; rungs that solved no placement LP pass
    /// [`Warm::default`] and keep the last good basis (still restorable
    /// next hour). `warm.columns` is the hour's active CG columns (empty
    /// for rungs that ran no column generation — the next hour then
    /// starts unseeded, which is exactly what an uninterrupted run would
    /// do after the same rung).
    fn commit(
        &mut self,
        decision_inst: &Instance,
        true_rates: &[f64],
        solution: Solution,
        rung: Rung,
        repair: Option<RepairStats>,
        warm: Warm,
    ) -> HourOutcome {
        let decided_cost = solution.cost(decision_inst);
        let (realized_cost, realized_congestion) =
            solution.evaluate_under(decision_inst, true_rates);
        let placement_churn = match &self.previous {
            Some(prev) if prev.placement.dims_match(decision_inst) => {
                churn(&prev.placement, &solution.placement, decision_inst)
            }
            _ => solution.placement.len(),
        };
        let certificate = crate::certify::certify_solution(decision_inst, &solution, false);
        if warm.basis.is_some() {
            self.warm.basis = warm.basis;
        }
        self.warm.columns = warm.columns;
        if let Some(oracle) = decision_inst.cloned_oracle() {
            self.prev_oracle = Some(oracle);
        }
        self.seed_placement = None;
        self.dims = Some((
            decision_inst.graph.node_count() as u32,
            decision_inst.num_items() as u32,
            decision_inst.graph.edge_count() as u32,
            decision_inst.requests.len() as u32,
        ));
        self.previous = Some(solution.clone());
        self.hour += 1;
        HourOutcome {
            decided_cost,
            realized_cost,
            realized_congestion,
            placement_churn,
            rung,
            repair,
            certificate,
            solution,
        }
    }
}

/// Decodes a snapshot's routing section into a [`Routing`], or `None`
/// when any record is out of range for the snapshot's own dimensions
/// (wrong request count, edge index ≥ `n_edges`, non-finite or negative
/// flow amount).
fn decode_routing(
    per_request: &[Vec<FlowRecord>],
    n_requests: u32,
    n_edges: u32,
) -> Option<Routing> {
    if per_request.len() != n_requests as usize {
        return None;
    }
    let mut out = Vec::with_capacity(per_request.len());
    for flows in per_request {
        let mut decoded = Vec::with_capacity(flows.len());
        for flow in flows {
            let amount = f64::from_bits(flow.amount_bits);
            if !amount.is_finite() || amount < 0.0 {
                return None;
            }
            if flow.edges.iter().any(|&e| e >= n_edges) {
                return None;
            }
            decoded.push(jcr_flow::PathFlow {
                path: Path::new(
                    flow.edges
                        .iter()
                        .map(|&e| EdgeId::new(e as usize))
                        .collect(),
                ),
                amount,
            });
        }
        out.push(decoded);
    }
    Some(Routing { per_request: out })
}

/// Accepts a rung's candidate if it validates, polishing it with one
/// repair pass when it does not (the alternating solver's randomized
/// rounding is bicriteria, so a legitimate solve can overload links
/// slightly). `None` when even the repaired candidate fails validation.
fn accept(inst: &Instance, solution: Solution) -> Option<(Solution, Option<RepairStats>)> {
    if validate_solution(inst, &solution).is_empty() {
        return Some((solution, None));
    }
    let (repaired, stats) = repair_solution(inst, &solution);
    if validate_solution(inst, &repaired).is_empty() {
        return Some((repaired, Some(stats)));
    }
    None
}

/// Probe detail string for an accepted candidate.
fn polish_note(repair: &Option<RepairStats>) -> &'static str {
    if repair.is_some() {
        "after repair polish"
    } else {
        ""
    }
}

/// A context for one ladder rung, mirroring into the configured probe.
fn rung_context(cfg: &AnytimeConfig, budget: Budget) -> SolverContext {
    let ctx = SolverContext::with_budget(budget);
    match &cfg.probe {
        Some(p) => ctx.with_probe(Box::new(Rc::clone(p))),
        None => ctx,
    }
}

/// `budget` with its deadline shrunk by the time already spent (phase
/// caps are kept — they are per-context and reset with each rung).
fn remaining_budget(budget: &Budget, elapsed: Duration) -> Budget {
    match budget.deadline_limit() {
        Some(limit) => budget.with_deadline(limit.saturating_sub(elapsed)),
        None => *budget,
    }
}

/// `budget` with every phase iteration cap halved (minimum 1).
fn halve_caps(budget: Budget) -> Budget {
    let mut out = budget;
    for phase in Phase::ALL {
        if let Some(cap) = budget.phase_cap(phase) {
            out = out.with_phase_cap(phase, (cap / 2).max(1));
        }
    }
    out
}

/// Symmetric-difference size between two placements.
fn churn(a: &Placement, b: &Placement, inst: &Instance) -> usize {
    let mut changes = 0;
    for v in inst.graph.nodes() {
        for i in 0..inst.num_items() {
            if a.has(v, i) != b.has(v, i) {
                changes += 1;
            }
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use jcr_topo::{Topology, TopologyKind};

    fn hourly_instance(scale: f64, seed: u64) -> Instance {
        let topo = Topology::generate(TopologyKind::Abovenet, 5).unwrap();
        let n_edges = topo.edge_nodes.len();
        // Deterministic demand matrix scaled per hour.
        let rates: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..n_edges)
                    .map(|k| scale * (1.0 + ((i * 7 + k * 3 + seed as usize) % 5) as f64))
                    .collect()
            })
            .collect();
        InstanceBuilder::new(topo)
            .items(6)
            .cache_capacity(2.0)
            .demand_matrix(rates)
            .link_capacity_fraction(0.05)
            .build()
            .unwrap()
    }

    /// The same instance with every link capacity zeroed: nothing can be
    /// routed, so any solve fails with [`JcrError::Infeasible`].
    fn unroutable(inst: &Instance) -> Instance {
        Instance::new(
            inst.graph.clone(),
            inst.link_cost.clone(),
            vec![0.0; inst.graph.edge_count()],
            inst.cache_cap.clone(),
            inst.item_size.clone(),
            inst.requests.clone(),
            inst.origin,
        )
        .unwrap()
    }

    #[test]
    fn steps_accumulate_and_report() {
        let mut sim = OnlineSimulator::new(Alternating::new());
        for hour in 0..3 {
            let decision = hourly_instance(100.0 + 10.0 * hour as f64, hour);
            let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate * 1.1).collect();
            let outcome = sim.step(&decision, &truth).unwrap();
            assert!(outcome.decided_cost > 0.0);
            // Truth is a uniform 1.1× scaling of the decision demand.
            assert!(
                (outcome.realized_cost - 1.1 * outcome.decided_cost).abs()
                    < 1e-6 * outcome.decided_cost
            );
            assert!(outcome.solution.placement.is_feasible(&decision));
            assert_eq!(outcome.rung, Rung::Full);
        }
        assert_eq!(sim.hour(), 3);
        assert!(sim.current_placement().is_some());
    }

    #[test]
    fn warm_start_reduces_churn_on_stable_demand() {
        // Identical demand every hour: after the first hour the placement
        // should stabilize (zero or near-zero churn) with warm starts.
        let mut sim = OnlineSimulator::new(Alternating::new());
        let decision = hourly_instance(100.0, 1);
        let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate).collect();
        let first = sim.step(&decision, &truth).unwrap();
        assert!(first.placement_churn > 0, "first hour fills the caches");
        let second = sim.step(&decision, &truth).unwrap();
        assert!(
            second.placement_churn <= first.placement_churn,
            "stable demand must not increase churn"
        );
        // The realized cost must not degrade from warm starting.
        assert!(second.realized_cost <= first.realized_cost + 1e-6);
    }

    #[test]
    fn cold_start_still_works() {
        let mut sim = OnlineSimulator::new(Alternating::new());
        sim.warm_start = false;
        let decision = hourly_instance(100.0, 2);
        let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate).collect();
        let a = sim.step(&decision, &truth).unwrap();
        let b = sim.step(&decision, &truth).unwrap();
        assert!(a.realized_cost > 0.0 && b.realized_cost > 0.0);
    }

    #[test]
    fn failed_hour_leaves_state_untouched_and_retries_bit_identically() {
        let good0 = hourly_instance(100.0, 3);
        let good1 = hourly_instance(120.0, 4);
        let truth0: Vec<f64> = good0.requests.iter().map(|r| r.rate).collect();
        let truth1: Vec<f64> = good1.requests.iter().map(|r| r.rate).collect();
        let bad = unroutable(&good1);

        // Simulator A fails hour 1 once, then retries it.
        let mut a = OnlineSimulator::new(Alternating::new());
        let a0 = a.step(&good0, &truth0).unwrap();
        let before = (a.hour(), a.current_solution().cloned());
        a.step(&bad, &truth1).expect_err("unroutable instance");
        assert_eq!(a.hour(), before.0, "failed hour advanced the clock");
        assert_eq!(
            a.current_solution().cloned(),
            before.1,
            "failed hour mutated the carried solution"
        );
        let a1 = a.step(&good1, &truth1).unwrap();

        // Simulator B never sees the failure.
        let mut b = OnlineSimulator::new(Alternating::new());
        let b0 = b.step(&good0, &truth0).unwrap();
        let b1 = b.step(&good1, &truth1).unwrap();

        assert_eq!(a0.solution, b0.solution);
        assert_eq!(
            a1.solution, b1.solution,
            "retried hour is not bit-identical to the unfailed one"
        );
        assert_eq!(a1.decided_cost.to_bits(), b1.decided_cost.to_bits());
        assert_eq!(a1.placement_churn, b1.placement_churn);
    }

    #[test]
    fn step_anytime_matches_step_when_unconstrained() {
        let decision = hourly_instance(100.0, 6);
        let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate).collect();
        let mut plain = OnlineSimulator::new(Alternating::new());
        let mut anytime = OnlineSimulator::new(Alternating::new());
        let p = plain.step(&decision, &truth).unwrap();
        let q = anytime
            .step_anytime(&decision, &truth, &AnytimeConfig::new())
            .unwrap();
        assert_eq!(q.rung, Rung::Full);
        assert!(validate_solution(&decision, &q.solution).is_empty());
        // The anytime path only diverges from the plain one when the
        // bicriteria rounding needed a repair polish to validate.
        if validate_solution(&decision, &p.solution).is_empty() {
            assert!(q.repair.is_none());
            assert_eq!(p.solution, q.solution);
            assert_eq!(p.decided_cost.to_bits(), q.decided_cost.to_bits());
        } else {
            assert!(q.repair.is_some());
        }
    }

    #[test]
    fn zero_deadline_carries_forward_and_repairs() {
        let decision = hourly_instance(100.0, 7);
        let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate).collect();
        let mut sim = OnlineSimulator::new(Alternating::new());
        // No previous hour: the ladder bottoms out at a repaired
        // origin-only solution.
        let cfg = AnytimeConfig::new().with_budget(Budget::deadline(Duration::ZERO));
        let outcome = sim.step_anytime(&decision, &truth, &cfg).unwrap();
        assert_eq!(outcome.rung, Rung::CarryForward);
        assert!(outcome.repair.is_some());
        assert!(validate_solution(&decision, &outcome.solution).is_empty());
        assert_eq!(sim.hour(), 1);

        // With a previous hour, the carried solution is repaired instead.
        let mut warm = OnlineSimulator::new(Alternating::new());
        warm.step(&decision, &truth).unwrap();
        let outcome = warm.step_anytime(&decision, &truth, &cfg).unwrap();
        assert_eq!(outcome.rung, Rung::CarryForward);
        assert!(validate_solution(&decision, &outcome.solution).is_empty());
    }

    #[test]
    fn ladder_metadata_is_consistent() {
        assert_eq!(Rung::ALL.len(), 6);
        for (i, rung) in Rung::ALL.iter().enumerate() {
            assert_eq!(rung.index(), i);
            assert!(!rung.name().is_empty());
        }
        assert_eq!(Rung::ColdRestore.name(), "cold-restore");
    }

    #[test]
    fn snapshot_resumes_bit_identically_through_the_wire_format() {
        // Run three hours, snapshotting after hour 2; a simulator
        // restored from the serialized snapshot must replay hour 3
        // bit-for-bit, including across fault-like demand changes.
        let hours: Vec<Instance> = (0..4)
            .map(|h| hourly_instance(100.0 + 15.0 * h as f64, h))
            .collect();
        let truths: Vec<Vec<f64>> = hours
            .iter()
            .map(|inst| inst.requests.iter().map(|r| r.rate * 1.05).collect())
            .collect();

        let mut uninterrupted = OnlineSimulator::new(Alternating::new());
        let mut killed = OnlineSimulator::new(Alternating::new());
        for h in 0..2 {
            uninterrupted.step(&hours[h], &truths[h]).unwrap();
            killed.step(&hours[h], &truths[h]).unwrap();
        }
        let bytes = killed.snapshot().to_bytes();
        drop(killed); // the "crash"

        let state = SolverState::from_bytes(&bytes).unwrap();
        let (mut resumed, report) = OnlineSimulator::restore(Alternating::new(), &state);
        assert!(report.placement.restored());
        assert!(report.routing.restored());
        assert_eq!(resumed.hour(), 2);
        assert_eq!(
            resumed.current_solution(),
            uninterrupted.current_solution(),
            "restored carried solution differs"
        );

        for h in 2..4 {
            let a = uninterrupted.step(&hours[h], &truths[h]).unwrap();
            let b = resumed.step(&hours[h], &truths[h]).unwrap();
            assert_eq!(a.solution, b.solution, "hour {h} diverged after resume");
            assert_eq!(a.decided_cost.to_bits(), b.decided_cost.to_bits());
            assert_eq!(a.realized_cost.to_bits(), b.realized_cost.to_bits());
            assert_eq!(a.placement_churn, b.placement_churn);
            assert_eq!(a.rung, b.rung);
        }
    }

    #[test]
    fn restore_degrades_corrupt_components_independently() {
        let decision = hourly_instance(100.0, 11);
        let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate).collect();
        let mut sim = OnlineSimulator::new(Alternating::new());
        sim.step(&decision, &truth).unwrap();
        let good = sim.snapshot();

        // Placement words that do not fit the dimensions.
        let mut state = good.clone();
        state.placement.as_mut().unwrap().pop();
        let (restored, report) = OnlineSimulator::restore(Alternating::new(), &state);
        assert!(matches!(report.placement, ComponentStatus::Degraded(_)));
        // Without a placement, the routing degrades alongside.
        assert!(matches!(report.routing, ComponentStatus::Degraded(_)));
        assert!(restored.current_solution().is_none());

        // Routing referencing an out-of-range edge: the placement still
        // restores (as a warm-start seed), the solution does not.
        let mut state = good.clone();
        state.routing.as_mut().unwrap()[0].push(FlowRecord {
            amount_bits: 1.0f64.to_bits(),
            edges: vec![state.n_edges + 7],
        });
        let (restored, report) = OnlineSimulator::restore(Alternating::new(), &state);
        assert!(report.placement.restored());
        assert!(matches!(report.routing, ComponentStatus::Degraded(_)));
        assert!(restored.current_solution().is_none());
        assert!(restored.seed_placement.is_some());

        // Garbage basis bytes.
        let mut state = good.clone();
        state.basis = Some(vec![0xFF; 5]);
        let (restored, report) = OnlineSimulator::restore(Alternating::new(), &state);
        assert!(matches!(report.basis, ComponentStatus::Degraded(_)));
        assert!(restored.warm.basis.is_none());

        // A column referencing a node beyond the auxiliary graph.
        let mut state = good.clone();
        state.columns.push(crate::state::ColumnRecord {
            commodity: 0,
            nodes: vec![0, state.n_nodes + state.n_items + 9],
        });
        let (restored, report) = OnlineSimulator::restore(Alternating::new(), &state);
        assert!(matches!(report.columns, ComponentStatus::Degraded(_)));

        // Every degraded restore must still serve the next hour (via the
        // anytime ladder, which repair-polishes bicriteria overloads).
        let mut degraded = restored;
        let outcome = degraded
            .step_anytime(&decision, &truth, &AnytimeConfig::new())
            .unwrap();
        assert!(validate_solution(&decision, &outcome.solution).is_empty());
    }

    #[test]
    fn fresh_simulator_snapshot_is_empty_but_loadable() {
        let sim = OnlineSimulator::new(Alternating::new());
        let state = sim.snapshot();
        assert_eq!(state.hour, 0);
        assert!(state.placement.is_none());
        let bytes = state.to_bytes();
        let back = SolverState::from_bytes(&bytes).unwrap();
        let (restored, report) = OnlineSimulator::restore(Alternating::new(), &back);
        assert_eq!(restored.hour(), 0);
        assert_eq!(report.placement, ComponentStatus::Absent);
        assert_eq!(report.basis, ComponentStatus::Absent);
        assert_eq!(report.columns, ComponentStatus::Absent);
    }

    #[test]
    fn unservable_instance_still_errors() {
        // Acceptance criterion scoping: the ladder only guarantees
        // service for servable instances. All-zero link capacities defeat
        // every rung — including repair — and must surface an error, not
        // a bogus outcome.
        let decision = hourly_instance(100.0, 8);
        let truth: Vec<f64> = decision.requests.iter().map(|r| r.rate).collect();
        let bad = unroutable(&decision);
        let mut sim = OnlineSimulator::new(Alternating::new());
        let err = sim.step_anytime(&bad, &truth, &AnytimeConfig::new());
        assert!(err.is_err(), "{err:?}");
        assert_eq!(sim.hour(), 0);
    }
}
