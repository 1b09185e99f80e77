//! `dse-sweep`: one client, each op a batched Fig. 12 fanout sweep of one
//! re-seeded C1–C5 design. Each design is routed once per sweep and the
//! DP runs once per mode class, so the DP dominates.

use crate::check::{check_presets, check_tree};
use crate::stats::Quality;
use crate::trace::Trace;
use crate::{
    closed_loop, mix, overhead, peak_rss_mib, repeated_setup, set_quality, span_layers, Args,
    Layers, Outcome,
};
use dscts_cluster::DualHierarchy;
use dscts_core::dse::{MetricsPoint, SweepEngine, SweepOutcome};
use dscts_core::mcmm::CornerReport;
use dscts_core::{mode_vector, DsCts, ModeRule};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::{CornerSet, Technology};
use std::time::Instant;

/// Re-seeded C1–C5 passes generated in set-up, one per pass of the op
/// floor; longer runs cycle through them again, and every repeat must
/// reproduce the first sweep of its design.
const PASSES: usize = 20;
/// Twenty passes over C1–C5.
const MIN_OPS: usize = PASSES * 5;
/// Passes whose first sweeps the untraced run replays class by class; a
/// replay costs about two sweeps, so replaying all would double the run.
/// The traced run replays every op.
const REPLAYED_PASSES: usize = 2;

/// The Fig. 12 threshold grid: 20, 30, …, 1000.
fn grid() -> Vec<u32> {
    (20..=1000).step_by(10).collect()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let pipe = DsCts::new(Technology::asap7());
    let engine = SweepEngine::new(&pipe);
    let grid = grid();

    let (designs, setup_s) = repeated_setup(|| {
        let mut designs = Vec::with_capacity(PASSES * 5);
        for pass in 0..PASSES {
            for (c, preset) in BenchmarkSpec::all().into_iter().enumerate() {
                let spec = BenchmarkSpec {
                    seed: mix(args.seed, (pass * 5 + c) as u64),
                    ..preset
                };
                designs.push(trace.time("netlist", None, None, || spec.generate()).0);
            }
        }
        designs
    });
    out.metrics.set("setup_s", setup_s);
    let pool = designs.len();

    let mut reference: Vec<Option<Vec<MetricsPoint>>> = vec![None; pool];
    let mut errors = Vec::new();
    // Checks a sweep's shape and its determinism; the first sweeps of the
    // first passes are also replayed class by class, outside the timed
    // window.
    let mut verify = |i: usize, sweep: &SweepOutcome, errors: &mut Vec<String>| {
        let thresholds: Vec<u32> = sweep.points.iter().map(|p| p.threshold).collect();
        let covered: usize = sweep.classes.iter().map(|c| c.thresholds.len()).sum();
        if thresholds != grid || covered != grid.len() {
            errors.push(format!(
                "op {i}: sweep does not cover the threshold grid once"
            ));
        }
        match &reference[i % pool] {
            Some(want) if *want != sweep.points => errors.push(format!(
                "op {i}: design {} changed output on repeat",
                i % pool
            )),
            Some(_) => {}
            None => {
                if i < REPLAYED_PASSES * 5 {
                    let mut scratch = Trace::new();
                    let replayed = replay(&pipe, &designs[i], sweep, &mut scratch, i, None);
                    errors.extend(replayed.err().map(|e| format!("op {i}: {e}")));
                }
                reference[i % pool] = Some(sweep.points.clone());
            }
        }
    };

    match engine.try_sweep(&designs[0], grid.iter().copied()) {
        Ok(sweep) => verify(0, &sweep, &mut errors),
        Err(e) => eprintln!("warm-up op failed: {e}"),
    }

    let mut quality = Vec::new();
    let mut failed = 0;
    let timed = closed_loop(args.seconds, MIN_OPS, |i| {
        let design = &designs[i % pool];
        let t0 = Instant::now();
        let result = engine.try_sweep(design, grid.iter().copied());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let c0 = Instant::now();
        match result {
            Ok(sweep) => {
                verify(i, &sweep, &mut errors);
                if i < MIN_OPS {
                    let points = sweep.points.iter().enumerate();
                    quality.extend(points.map(|(k, p)| (i * grid.len() + k, point_quality(p))));
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("op {i} failed: {e}");
            }
        }
        (ms, c0.elapsed().as_secs_f64())
    });
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    timed.report(&mut out.metrics);
    out.attempted = timed.op_ms.len();
    out.failed = failed;
    out.metrics.set(
        "ok_frac",
        (out.attempted - failed) as f64 / out.attempted as f64,
    );
    set_quality(&mut out, &quality);

    if args.trace {
        let mut layer = Layers::default();
        let (mut classes, mut per_class_ms, mut thresholds_per_class) = (0, 0.0, 0.0);
        let traced = closed_loop(args.seconds, MIN_OPS, |i| {
            let design = &designs[i % pool];
            let (result, op) = trace.time("op", Some(i), None, || {
                engine.try_sweep(design, grid.iter().copied())
            });
            let ms = trace.spans()[op].ms();
            match result {
                Ok(sweep) => {
                    verify(i, &sweep, &mut errors);
                    let n = sweep.classes.len();
                    classes += n;
                    per_class_ms += ms / n as f64;
                    thresholds_per_class += grid.len() as f64 / n as f64;
                    // Outside the op span: the route and clustering the
                    // sweep did once, then every class replayed layer by
                    // layer.
                    let sinks = design.sink_positions();
                    trace.time("cluster", Some(i), None, || {
                        DualHierarchy::build(&sinks, 3000, 30, 7)
                    });
                    let replayed = replay(&pipe, design, &sweep, &mut trace, i, Some(&mut layer));
                    errors.extend(replayed.err().map(|e| format!("traced op {i}: {e}")));
                }
                Err(e) => eprintln!("traced op {i} failed: {e}"),
            }
            (ms, 0.0)
        });
        let ops = traced.op_ms.len();
        span_layers(&trace, ops, &mut out.metrics);
        layer.report(&mut out.metrics, ops);
        let m = &mut out.metrics;
        m.set("dse.busy_ms", traced.op_ms.iter().sum::<f64>() / ops as f64);
        m.set("dse.classes", classes as f64 / ops as f64);
        m.set(
            "dse.thresholds_per_class",
            thresholds_per_class / ops as f64,
        );
        m.set("dse.ms_per_class", per_class_ms / ops as f64);
        overhead(m, &timed, &traced);
        out.trace = Some(trace);
    }

    errors.extend(check_presets(&pipe));
    errors.into_iter().for_each(|e| out.fail(e));
    out
}

fn point_quality(p: &MetricsPoint) -> Quality {
    Quality {
        latency_ps: p.latency_ps,
        skew_ps: p.skew_ps,
        wirelength_mm: p.wirelength_nm as f64 * 1e-6,
        buffers: f64::from(p.buffers),
        ntsvs: f64::from(p.ntsvs),
    }
}

/// Re-derives every class of `sweep` through the staged calls — one
/// route, then per class `mode_vector` + `insert_with_modes` +
/// `optimize_tree` + `evaluate_tree` + corner sign-off — checking each
/// tree's invariants and that its metrics equal the sweep's points
/// bit for bit. Spans go to `trace`; counters to `layer` when given.
fn replay(
    pipe: &DsCts,
    design: &Design,
    sweep: &SweepOutcome,
    trace: &mut Trace,
    i: usize,
    mut layer: Option<&mut Layers>,
) -> Result<(), String> {
    let op = Some(i);
    let (topo, _) = trace.time("route", op, None, || pipe.route(design));
    let topo = topo.map_err(|e| format!("replay route: {e}"))?;
    if let Some(l) = layer.as_deref_mut() {
        l.stars += topo.stars.len();
        l.trunk_nodes += topo.nodes.len();
    }
    let corners = CornerSet::asap7_pvt(pipe.technology());
    let now = trace.now_ms();
    let root = trace.record("replay", op, None, now, now);
    let mut result = Ok(());
    for class in &sweep.classes {
        let threshold = class.thresholds[0];
        let modes = mode_vector(&topo, ModeRule::FanoutThreshold(threshold));
        let (inserted, _) = trace.time("dp", op, Some(root), || {
            pipe.insert_with_modes(topo.clone(), &modes)
        });
        let (mut tree, dp) = inserted.map_err(|e| format!("replay class {threshold}: {e}"))?;
        let (report, _) = trace.time("opt", op, Some(root), || pipe.optimize_tree(&mut tree));
        let (m, _) = trace.time("eval", op, Some(root), || pipe.evaluate_tree(&tree));
        let (signoff, _) = trace.time("mcmm", op, Some(root), || {
            CornerReport::try_evaluate(&tree, &corners, pipe.delay_model())
        });
        if let Some(l) = layer.as_deref_mut() {
            l.stored_candidates += dp.stored_candidates;
            for pass in report.iter().flat_map(|r| &r.passes) {
                l.trials += pass.attempted;
                l.accepted += pass.accepted;
            }
            if signoff.is_err() && i < MIN_OPS {
                l.infeasible += 1;
            }
        }
        let replayed = MetricsPoint {
            threshold,
            latency_ps: m.latency_ps,
            skew_ps: m.skew_ps,
            buffers: m.buffers,
            ntsvs: m.ntsvs,
            wirelength_nm: m.wirelength_nm,
        };
        let swept = sweep.points.iter().find(|p| p.threshold == threshold);
        if swept != Some(&replayed) {
            result = Err(format!(
                "class at threshold {threshold} replays to different metrics"
            ));
        }
        if let Err(e) = check_tree(&tree, &m, design.sinks.len()) {
            result = Err(format!("class at threshold {threshold}: {e}"));
        }
    }
    trace.close(root);
    result
}
