//! `experiments chaos` — deterministic kill/restart/corrupt harness for
//! the crash-recoverable online loop.
//!
//! The contract, checked end to end:
//!
//! * **zero panics** — every unit runs under `catch_unwind`; a caught
//!   panic is a counted violation, never an abort;
//! * **zero unverified `Ok` claims** — every served hour is re-checked
//!   with [`validate_solution`] and its independent certificate;
//! * **bit-identical resume** — a run killed after any hour and resumed
//!   from its snapshot replays the remaining hours with byte-for-byte
//!   identical snapshots and outcome signatures. This holds at any
//!   `JCR_WORKERS` because the solver's parallel fan-outs merge in run
//!   order (the CI matrix pins 1, 2, and 8).
//!
//! Four phases:
//!
//! 1. **Baseline** — `H` uninterrupted faulted hours
//!    ([`FaultInjector`] at rate 0.25: link/node kills, capacity cuts,
//!    demand spikes), recording a snapshot and an outcome signature per
//!    hour boundary. Budgets are unlimited on purpose: wall-clock
//!    deadlines make rung selection timing-dependent, which would break
//!    the bit-identity half of the contract (the `faults` experiment
//!    covers budget sabotage instead).
//! 2. **Kill/resume** — for each kill point, decode the boundary
//!    snapshot through the wire format, [`OnlineSimulator::restore`],
//!    and replay to the horizon; every component of a pristine snapshot
//!    must restore (not degrade) and every replayed hour must match the
//!    baseline bit for bit.
//! 3. **Corruption battery** — sampled single-bit flips and truncations
//!    of a mid-run snapshot must all fail decoding with a typed
//!    [`StateError`]; decodable-but-semantically-corrupt states (dropped
//!    placement word, out-of-range routing edge, garbage basis,
//!    out-of-range column) must degrade exactly the poisoned component
//!    and still serve the remaining hours.
//! 4. **Stale/foreign restores** — an hour-1 snapshot fed the last
//!    hour's instance, and a snapshot restored against a different
//!    topology (every dimension check trips), must both serve cold.
//!
//! Any violation dumps the offending snapshot (bytes + debug JSON) under
//! `chaos_failures/` and the run exits nonzero.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jcr_core::prelude::*;
use jcr_core::state::{fnv1a, ColumnRecord, SolverState};
use jcr_core::validate::validate_solution;
use jcr_ctx::Budget;
use jcr_sim::faults::{FaultConfig, FaultInjector};
use jcr_topo::{Topology, TopologyKind};

use crate::exp::ExpConfig;
use crate::print_table;

/// Fault rate driven through every chaos hour.
const FAULT_RATE: f64 = 0.25;

/// Demand-scale perturbation mirrored from the online tests: big enough
/// that consecutive hours genuinely differ, deterministic in the hour.
fn hour_instance(seed: u64, hour: usize) -> Instance {
    let topo = Topology::generate(TopologyKind::Abovenet, 5).expect("known topology generates");
    let n_edges = topo.edge_nodes.len();
    let scale = 90.0 + 10.0 * (hour % 4) as f64;
    let rates: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            (0..n_edges)
                .map(|k| scale * (1.0 + ((i * 7 + k * 3 + hour + seed as usize) % 5) as f64))
                .collect()
        })
        .collect();
    InstanceBuilder::new(topo)
        .items(6)
        .cache_capacity(2.0)
        .demand_matrix(rates)
        .link_capacity_fraction(0.05)
        .build()
        .expect("chaos base instance builds")
}

/// A small foreign topology for the cross-dimension restore probe.
fn foreign_instance(seed: u64) -> Instance {
    let topo = Topology::generate(TopologyKind::Abovenet, 3).expect("known topology generates");
    let n_edges = topo.edge_nodes.len();
    let rates: Vec<Vec<f64>> = (0..4)
        .map(|i| {
            (0..n_edges)
                .map(|k| 80.0 * (1.0 + ((i * 5 + k * 3 + seed as usize) % 3) as f64))
                .collect()
        })
        .collect();
    InstanceBuilder::new(topo)
        .items(4)
        .cache_capacity(2.0)
        .demand_matrix(rates)
        .link_capacity_fraction(0.05)
        .build()
        .expect("foreign instance builds")
}

/// The injector whose faults every phase replays identically. Budget
/// sabotage is disabled: rung selection under a wall-clock deadline is
/// timing-dependent, and this harness's contract is bit-identity.
fn injector(seed: u64) -> FaultInjector {
    let mut cfg = FaultConfig::uniform(seed.wrapping_mul(6_700_417).wrapping_add(17), FAULT_RATE);
    cfg.budget_trip = 0.0;
    FaultInjector::new(cfg)
}

/// Deterministic signature of an hour's outcome: the serving rung, both
/// cost bit patterns, the churn, and the snapshot the hour committed.
fn outcome_sig(outcome: &HourOutcome, snap: &[u8]) -> u64 {
    let mut bytes = Vec::with_capacity(snap.len() + 40);
    bytes.extend_from_slice(&(outcome.rung.index() as u64).to_le_bytes());
    bytes.extend_from_slice(&outcome.decided_cost.to_bits().to_le_bytes());
    bytes.extend_from_slice(&outcome.realized_cost.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(outcome.placement_churn as u64).to_le_bytes());
    bytes.extend_from_slice(snap);
    fnv1a(&bytes)
}

/// One served-and-recorded hour.
struct HourRecord {
    sig: u64,
    snap: Vec<u8>,
}

/// Tallies of every contract check the run performed.
#[derive(Default)]
struct Tally {
    hours_served: usize,
    resume_points: usize,
    hours_compared: usize,
    flips: usize,
    truncations: usize,
    semantic_cases: usize,
    stale_restores: usize,
    panics: usize,
    violations: usize,
}

/// Serves hours `from..to` on `sim`, checking the serving contract for
/// each and recording the hour boundary. Returns an error message on the
/// first contract violation.
fn serve_span(
    sim: &mut OnlineSimulator,
    inj: &FaultInjector,
    seed: u64,
    from: usize,
    to: usize,
    mut record: impl FnMut(usize, HourRecord),
) -> Result<(), String> {
    for h in from..to {
        let base = hour_instance(seed, h);
        let faulted = inj.inject(h, &base, Budget::unlimited());
        let truth: Vec<f64> = faulted.instance.requests.iter().map(|r| r.rate).collect();
        let outcome = sim
            .step_anytime(&faulted.instance, &truth, &AnytimeConfig::new())
            .map_err(|e| format!("hour {h}: ladder failed to serve: {e}"))?;
        if !outcome.certificate.verified() {
            return Err(format!("hour {h}: served with an unverified certificate"));
        }
        let violations = validate_solution(&faulted.instance, &outcome.solution);
        if !violations.is_empty() {
            return Err(format!(
                "hour {h}: served solution fails re-validation: {:?}",
                violations[0]
            ));
        }
        let snap = sim.snapshot().to_bytes();
        record(
            h,
            HourRecord {
                sig: outcome_sig(&outcome, &snap),
                snap,
            },
        );
    }
    Ok(())
}

/// Runs a unit under `catch_unwind`, converting a panic or a returned
/// error into a recorded violation (the chaos contract is *zero* panics,
/// even on garbage input).
fn guarded(
    tally: &mut Tally,
    failures: &mut Vec<String>,
    label: &str,
    unit: impl FnOnce() -> Result<(), String>,
) -> bool {
    match catch_unwind(AssertUnwindSafe(unit)) {
        Ok(Ok(())) => true,
        Ok(Err(msg)) => {
            tally.violations += 1;
            eprintln!("[chaos] VIOLATION in {label}: {msg}");
            failures.push(format!("{label}: {msg}"));
            false
        }
        Err(payload) => {
            tally.panics += 1;
            tally.violations += 1;
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            eprintln!("[chaos] PANIC in {label}: {msg}");
            failures.push(format!("{label}: panic: {msg}"));
            false
        }
    }
}

/// Writes the snapshot that witnessed a violation (bytes plus lossless
/// debug JSON) under `chaos_failures/` for offline replay.
fn dump_failure(label: &str, bytes: &[u8]) {
    let dir = std::path::Path::new("chaos_failures");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let _ = std::fs::write(dir.join(format!("{label}.snap")), bytes);
    if let Ok(state) = SolverState::from_bytes(bytes) {
        let _ = std::fs::write(dir.join(format!("{label}.json")), state.to_debug_json());
    }
}

/// Entry point for `experiments chaos`.
///
/// # Errors
///
/// Returns the joined list of contract violations (panics, unverified
/// serves, resume divergence, corruption that decoded or escalated).
pub fn chaos(cfg: ExpConfig) -> Result<(), String> {
    // Inner per-hour solves size their pools from the context default, so
    // honor --workers by pinning the environment knob up front.
    if cfg.workers > 0 {
        std::env::set_var("JCR_WORKERS", cfg.workers.to_string());
    }
    let horizon = cfg.chaos_hours();
    let seed = cfg.seed;
    eprintln!(
        "[chaos] horizon {horizon}h, fault rate {FAULT_RATE}, seed {seed} \
         (budgets unlimited: bit-identity contract)"
    );

    // Silence the default panic hook: a caught panic is a counted
    // contract violation, not console noise mid-table.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut tally = Tally::default();
    let mut failures: Vec<String> = Vec::new();

    // Phase 1: uninterrupted baseline.
    let mut records: Vec<HourRecord> = Vec::with_capacity(horizon);
    let baseline_ok = guarded(&mut tally, &mut failures, "baseline", || {
        let inj = injector(seed);
        let mut sim = OnlineSimulator::new(Alternating::new());
        serve_span(&mut sim, &inj, seed, 0, horizon, |_, rec| records.push(rec))
    });
    tally.hours_served += records.len();
    if !baseline_ok || records.len() != horizon {
        std::panic::set_hook(prev_hook);
        return Err(format!(
            "baseline run failed before the horizon ({} of {horizon} hours served); \
             cannot exercise resume",
            records.len()
        ));
    }

    // Phase 2: kill after hour k-1, resume from its snapshot, replay to
    // the horizon; every replayed hour must match the baseline bit for
    // bit, and no component of a pristine snapshot may degrade.
    let kill_points: Vec<usize> = if cfg.full {
        (1..horizon).collect()
    } else {
        let mut ks = vec![1, horizon / 2, horizon - 1];
        ks.dedup();
        ks
    };
    for &k in &kill_points {
        tally.resume_points += 1;
        let boundary = &records[k - 1];
        let mut replayed: Vec<(usize, HourRecord)> = Vec::new();
        let ok = guarded(&mut tally, &mut failures, &format!("resume@{k}"), || {
            let state = SolverState::from_bytes(&boundary.snap)
                .map_err(|e| format!("resume@{k}: pristine snapshot failed to decode: {e}"))?;
            let (mut sim, report) = OnlineSimulator::restore(Alternating::new(), &state);
            for (name, status) in [
                ("placement", report.placement),
                ("routing", report.routing),
                ("basis", report.basis),
                ("columns", report.columns),
            ] {
                if let ComponentStatus::Degraded(why) = status {
                    return Err(format!(
                        "resume@{k}: pristine snapshot degraded {name}: {why}"
                    ));
                }
            }
            let inj = injector(seed);
            serve_span(&mut sim, &inj, seed, k, horizon, |h, rec| {
                replayed.push((h, rec));
            })
        });
        if !ok {
            dump_failure(&format!("resume_at_{k}"), &boundary.snap);
            continue;
        }
        for (h, rec) in &replayed {
            tally.hours_compared += 1;
            let base = &records[*h];
            if rec.sig != base.sig || rec.snap != base.snap {
                dump_failure(&format!("diverged_h{h}_resume_at_{k}"), &rec.snap);
                dump_failure(&format!("baseline_h{h}"), &base.snap);
                let msg = format!(
                    "resume@{k}: hour {h} diverged from baseline \
                     (sig {:#018x} vs {:#018x}, snapshots {})",
                    rec.sig,
                    base.sig,
                    if rec.snap == base.snap {
                        "identical"
                    } else {
                        "differ"
                    }
                );
                eprintln!("[chaos] VIOLATION: {msg}");
                tally.violations += 1;
                failures.push(msg);
            }
        }
    }

    // Phase 3a: bit flips — every sampled single-bit corruption must be
    // rejected by the codec with a typed error, never a panic.
    let mid = &records[horizon / 2 - 1].snap;
    let byte_stride = (mid.len() / 96).max(1);
    let mut detected_flips = 0usize;
    for i in (0..mid.len()).step_by(byte_stride) {
        tally.flips += 1;
        let ok = guarded(&mut tally, &mut failures, &format!("bitflip@{i}"), || {
            let mut bad = mid.clone();
            bad[i] ^= 1u8 << (i * 7 % 8);
            match SolverState::from_bytes(&bad) {
                Err(_) => Ok(()),
                Ok(_) => Err(format!(
                    "bit flip at byte {i} decoded Ok (checksum failed to detect it)"
                )),
            }
        });
        if ok {
            detected_flips += 1;
        } else {
            dump_failure(&format!("undetected_flip_{i}"), mid);
        }
    }

    // Phase 3b: truncations — every sampled prefix must be rejected.
    let len_stride = (mid.len() / 41).max(1);
    let mut detected_truncs = 0usize;
    for l in (0..mid.len()).step_by(len_stride) {
        tally.truncations += 1;
        let ok = guarded(&mut tally, &mut failures, &format!("truncate@{l}"), || {
            match SolverState::from_bytes(&mid[..l]) {
                Err(_) => Ok(()),
                Ok(_) => Err(format!("truncation to {l} bytes decoded Ok")),
            }
        });
        if ok {
            detected_truncs += 1;
        }
    }

    // Phase 3c: semantically corrupt but well-framed snapshots — the
    // restore gate must degrade exactly the poisoned component and the
    // resumed simulator must still serve the remaining hours.
    let pristine = SolverState::from_bytes(mid).map_err(|e| format!("mid snapshot: {e}"))?;
    let semantic_cases: Vec<(&str, SolverState)> = vec![
        ("placement", {
            let mut s = pristine.clone();
            if let Some(words) = &mut s.placement {
                words.pop();
            }
            s
        }),
        ("routing", {
            let mut s = pristine.clone();
            if let Some(routing) = &mut s.routing {
                if let Some(flow) = routing.iter_mut().flatten().next() {
                    flow.edges.push(s.n_edges + 999);
                }
            }
            s
        }),
        ("basis", {
            let mut s = pristine.clone();
            s.basis = Some(vec![0xFF; 16]);
            s
        }),
        ("columns", {
            let mut s = pristine.clone();
            s.columns.push(ColumnRecord {
                commodity: 0,
                nodes: vec![0, s.n_nodes + s.n_items + 5],
            });
            s
        }),
    ];
    let resume_hour = horizon / 2;
    for (component, state) in &semantic_cases {
        tally.semantic_cases += 1;
        let ok = guarded(
            &mut tally,
            &mut failures,
            &format!("semantic:{component}"),
            || {
                let (mut sim, report) = OnlineSimulator::restore(Alternating::new(), state);
                let status = match *component {
                    "placement" => report.placement,
                    "routing" => report.routing,
                    "basis" => report.basis,
                    _ => report.columns,
                };
                if !matches!(status, ComponentStatus::Degraded(_)) {
                    return Err(format!(
                        "corrupt {component} was not degraded at restore (status {status:?})"
                    ));
                }
                let inj = injector(seed);
                serve_span(&mut sim, &inj, seed, resume_hour, horizon, |_, _| {})
            },
        );
        if !ok {
            dump_failure(&format!("semantic_{component}"), &state.to_bytes());
        }
    }

    // Phase 4: stale-epoch and foreign-topology restores must serve cold
    // rather than trip on carried state.
    tally.stale_restores += 1;
    let stale_ok = guarded(&mut tally, &mut failures, "stale-epoch", || {
        let state = SolverState::from_bytes(&records[0].snap)
            .map_err(|e| format!("stale snapshot: {e}"))?;
        let (mut sim, _) = OnlineSimulator::restore(Alternating::new(), &state);
        // Feed the *last* hour's faulted instance to an hour-1 snapshot.
        serve_span(
            &mut sim,
            &injector(seed),
            seed,
            horizon - 1,
            horizon,
            |_, _| {},
        )
    });
    if !stale_ok {
        dump_failure("stale_epoch", &records[0].snap);
    }
    tally.stale_restores += 1;
    let foreign_ok = guarded(&mut tally, &mut failures, "foreign-topology", || {
        let state = SolverState::from_bytes(mid).map_err(|e| format!("mid snapshot: {e}"))?;
        let (mut sim, _) = OnlineSimulator::restore(Alternating::new(), &state);
        let inst = foreign_instance(seed);
        let truth: Vec<f64> = inst.requests.iter().map(|r| r.rate).collect();
        let outcome = sim
            .step_anytime(&inst, &truth, &AnytimeConfig::new())
            .map_err(|e| format!("foreign-topology restore failed to serve: {e}"))?;
        if !outcome.certificate.verified() {
            return Err("foreign-topology hour served unverified".into());
        }
        if !validate_solution(&inst, &outcome.solution).is_empty() {
            return Err("foreign-topology hour fails re-validation".into());
        }
        Ok(())
    });
    if !foreign_ok {
        dump_failure("foreign_topology", mid);
    }

    std::panic::set_hook(prev_hook);

    let header: Vec<String> = ["check", "exercised", "clean"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let resumes_clean = kill_points.len()
        - failures
            .iter()
            .filter(|f| f.starts_with("resume@"))
            .map(|f| f.split(':').next().unwrap_or(""))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
    let rows = vec![
        vec![
            "baseline hours served + certified".to_string(),
            tally.hours_served.to_string(),
            tally.hours_served.to_string(),
        ],
        vec![
            "kill/resume points (bit-identical replay)".to_string(),
            tally.resume_points.to_string(),
            resumes_clean.to_string(),
        ],
        vec![
            "replayed hours compared".to_string(),
            tally.hours_compared.to_string(),
            tally.hours_compared.to_string(),
        ],
        vec![
            "single-bit flips rejected".to_string(),
            tally.flips.to_string(),
            detected_flips.to_string(),
        ],
        vec![
            "truncations rejected".to_string(),
            tally.truncations.to_string(),
            detected_truncs.to_string(),
        ],
        vec![
            "semantic corruptions degraded + served".to_string(),
            tally.semantic_cases.to_string(),
            (tally.semantic_cases - failures.iter().filter(|f| f.contains("semantic")).count())
                .to_string(),
        ],
        vec![
            "stale/foreign restores served cold".to_string(),
            tally.stale_restores.to_string(),
            ((stale_ok as usize) + (foreign_ok as usize)).to_string(),
        ],
        vec![
            "panics".to_string(),
            "-".to_string(),
            tally.panics.to_string(),
        ],
    ];
    print_table(
        "Chaos harness — kill/resume bit-identity and corruption containment",
        &header,
        &rows,
    );

    if tally.violations == 0 && failures.is_empty() {
        eprintln!(
            "[chaos] contract holds: zero panics, zero unverified serves, resume bit-identical"
        );
        Ok(())
    } else {
        Err(format!(
            "{} contract violation(s), {} panic(s); failing snapshots in chaos_failures/",
            tally.violations.max(failures.len()),
            tally.panics
        ))
    }
}
