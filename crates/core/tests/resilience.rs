//! Integration tests for the fault-tolerant execution layer: run
//! budgets (deadline and trial), degraded-but-valid outcomes, and the
//! deterministic recovery ladder.

use dscts_core::{
    AnnealConfig, AnnealedSizingPass, CtsError, DsCts, OptSchedule, RecoveryPolicy, Relaxation,
    RunBudget,
};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{Layer, Technology};
use std::time::{Duration, Instant};

fn design() -> dscts_netlist::Design {
    BenchmarkSpec::c4_riscv32i().generate()
}

/// Two tight 8-sink clusters ~68 µm apart with the clock root at their
/// centroid: the binding DP edges are the two long *interior* trunk
/// spans, not the (near-zero-length) top net. On those edges the
/// extended buffered-nTSV patterns have strictly more feasible room
/// than the base alphabet — the buffer's output half runs on the
/// low-capacitance back side — so a max load in the window below makes
/// the base set infeasible while `PatternSet::Extended` synthesizes.
fn two_cluster_design() -> dscts_netlist::Design {
    use dscts_geom::Point;
    let mut d = design();
    let cx = (d.core.xlo + d.core.xhi) / 2;
    let cy = (d.core.ylo + d.core.yhi) / 2;
    let half = 34_165;
    d.sinks.truncate(16);
    for (i, s) in d.sinks.iter_mut().enumerate() {
        let side = if i < 8 { -1 } else { 1 };
        let j = (i % 8) as i64;
        s.pos = Point::new(cx + side * half + (j % 4) * 200, cy + (j / 4) * 200);
        s.cap_ff = 0.1;
    }
    d.clock_root = Point::new(cx, cy);
    d
}

/// A max load inside the base-infeasible / extended-feasible window of
/// [`two_cluster_design`] (empirically ~[4.0, 4.2] fF).
fn window_tech() -> Technology {
    Technology::builder()
        .layer(Layer::new("MF", 0.024222, 0.12918))
        .layer(Layer::new("MB", 0.000384, 0.116264))
        .max_load_ff(4.1)
        .build()
        .unwrap()
}

/// A schedule whose optimize stage dominates the run, so budgets that
/// expire mid-run land inside it (the degraded-outcome regime).
fn heavy_schedule(moves: usize) -> OptSchedule {
    OptSchedule::new().with(AnnealedSizingPass::new(AnnealConfig {
        moves,
        ..AnnealConfig::default()
    }))
}

#[test]
fn zero_deadline_cancels_before_any_tree_exists() {
    // An already-expired deadline trips the very first stage-boundary
    // check: no partial tree to salvage, so the run reports Cancelled.
    let err = DsCts::new(Technology::asap7())
        .budget(RunBudget::new().with_deadline(Duration::ZERO))
        .try_run(&design())
        .expect_err("expired budget must cancel");
    assert_eq!(err, CtsError::Cancelled { stage: "route" });
}

#[test]
fn trial_budget_truncates_optimization_into_a_degraded_outcome() {
    // Route and insertion record no trials, so a tiny trial budget
    // always survives to the optimize stage — then trips inside the
    // anneal loop. The run must still complete: valid tree, full
    // metrics, degraded flag raised.
    let d = design();
    let o = DsCts::new(Technology::asap7())
        .schedule(heavy_schedule(50_000))
        .budget(RunBudget::new().with_max_trials(10))
        .try_run(&d)
        .expect("budget truncation must not fail the run");
    assert!(o.degraded, "truncated schedule must flag the outcome");
    let report = o.optimization.as_ref().expect("optimize stage ran");
    assert!(report.truncated);
    assert_eq!(o.tree.validate_sides(), Ok(()));
    assert_eq!(o.metrics.arrivals.len(), d.sinks.len());
    // The degraded tree was still fully evaluated.
    let batch = o
        .tree
        .evaluate(&Technology::asap7(), dscts_core::EvalModel::Elmore);
    assert_eq!(o.metrics, batch);
}

#[test]
fn generous_budget_is_bit_identical_to_unbudgeted() {
    // A budget that never fires must not perturb a single bit: the
    // token checks are pure reads on the accept/reject paths.
    let d = design();
    let plain = DsCts::new(Technology::asap7()).run(&d);
    let budgeted = DsCts::new(Technology::asap7())
        .budget(
            RunBudget::new()
                .with_deadline(Duration::from_secs(3600))
                .with_max_trials(u64::MAX),
        )
        .try_run(&d)
        .expect("generous budget");
    assert!(!budgeted.degraded);
    assert_eq!(budgeted.tree, plain.tree);
    assert_eq!(budgeted.metrics, plain.metrics);
    assert_eq!(budgeted.root_candidates, plain.root_candidates);
}

#[test]
fn mid_run_deadline_yields_a_partial_outcome_in_time() {
    // The anneal is far longer than any deadline set here, so the run
    // cannot complete on its own. The deadline is 3x a timed run of the
    // same design without an optimize stage, so it expires inside
    // optimize: the run must come back degraded-but-valid, and must not
    // blow far past the deadline (the anneal loop polls the token every
    // move).
    let d = design();
    let base_start = Instant::now();
    let base = DsCts::new(Technology::asap7())
        .schedule(OptSchedule::new())
        .run(&d);
    let deadline = base_start.elapsed() * 3;
    let start = Instant::now();
    let o = DsCts::new(Technology::asap7())
        .schedule(heavy_schedule(10_000_000))
        .budget(RunBudget::new().with_deadline(deadline))
        .try_run(&d)
        .expect("mid-optimize deadline degrades, not fails");
    let elapsed = start.elapsed();
    assert!(o.degraded, "deadline inside optimize must degrade");
    assert_eq!(o.tree.validate_sides(), Ok(()));
    assert_eq!(o.metrics.arrivals.len(), base.metrics.arrivals.len());
    // Generous bound (CI machines wobble): the deadline plus the final
    // evaluation and the in-flight move.
    assert!(
        elapsed < deadline * 2,
        "budgeted {elapsed:?} vs deadline {deadline:?}"
    );
}

#[test]
fn recovery_ladder_rescues_a_widened_pattern_set() {
    // The two-cluster design inside the max-load window: the base
    // alphabet has no feasible pattern for the long interior spans, the
    // first ladder rung widens to Extended and the run completes —
    // recording the rung it took and the error that forced it.
    let d = two_cluster_design();
    let pipe = DsCts::new(window_tech()).lc(8);
    let plain = pipe.try_run(&d).expect_err("base alphabet infeasible");
    assert!(
        matches!(plain, CtsError::NoFeasiblePattern { .. }),
        "unexpected error: {plain}"
    );
    let recovered = pipe
        .clone()
        .recovery(RecoveryPolicy::default())
        .try_run(&d)
        .expect("ladder must rescue the run");
    assert_eq!(recovered.recovery.len(), 1, "one rung suffices");
    let step = &recovered.recovery[0];
    assert_eq!(step.relaxation, Relaxation::WidenPatternSet);
    assert_eq!(step.error, plain);
    assert_eq!(recovered.tree.validate_sides(), Ok(()));
    // The rescue is exactly the explicitly-widened run, bit for bit.
    let explicit = pipe
        .clone()
        .patterns(dscts_core::PatternSet::Extended)
        .try_run(&d)
        .expect("extended alphabet feasible");
    assert_eq!(recovered.tree, explicit.tree);
    assert_eq!(recovered.metrics, explicit.metrics);
    assert!(explicit.recovery.is_empty(), "no policy, no rungs");
}

#[test]
fn recovery_is_deterministic_per_seed() {
    let d = two_cluster_design();
    let run = || {
        DsCts::new(window_tech())
            .lc(8)
            .recovery(RecoveryPolicy::default())
            .try_run(&d)
            .expect("recoverable")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.tree, b.tree);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.recovery, b.recovery);
}

#[test]
fn recovery_ladder_exhausts_on_unsatisfiable_designs() {
    // A max load below a single sink's capacitance: no relaxation can
    // help, so the ladder runs dry and reports the *last* error —
    // deterministically.
    let tech = Technology::builder()
        .layer(Layer::new("MF", 0.024222, 0.12918))
        .layer(Layer::new("MB", 0.000384, 0.116264))
        .max_load_ff(0.5)
        .build()
        .unwrap();
    let mut spec = BenchmarkSpec::c4_riscv32i();
    spec.num_ffs = 16;
    let d = spec.generate();
    let run = || {
        DsCts::new(tech.clone())
            .recovery(RecoveryPolicy::default())
            .try_run(&d)
            .expect_err("unsatisfiable stays unsatisfiable")
    };
    let (a, b) = (run(), run());
    assert!(
        matches!(
            a,
            CtsError::NoFeasiblePattern { .. } | CtsError::NoRootCandidate
        ),
        "unexpected error: {a}"
    );
    assert_eq!(a, b, "exhausted ladder must be deterministic");
}
