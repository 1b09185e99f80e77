//! `route-scale`: one client, each op a full default-pipeline run on a
//! 25k-sink design. Routing (k-means and DME) is most of every op.

use crate::check::{check_presets, check_tree};
use crate::stats::Quality;
use crate::trace::Trace;
use crate::{
    closed_loop, mix, overhead, peak_rss_mib, repeated_setup, set_quality, span_layers, Args,
    Layers, Outcome,
};
use dscts_cluster::DualHierarchy;
use dscts_core::mcmm::CornerReport;
use dscts_core::{CtsError, DsCts, TreeMetrics};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::{CornerSet, Technology};
use std::time::Instant;

const SINKS: usize = 25_000;
/// Distinct designs generated in set-up; ops cycle through them, and every
/// repeat must reproduce the first run of its design bit for bit.
const POOL: usize = 32;
/// At least 100 ops, so p90 has ten samples beyond it.
const MIN_OPS: usize = 100;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let pipe = DsCts::new(Technology::asap7());

    let (designs, setup_s) = repeated_setup(|| {
        (0..POOL as u64)
            .map(|k| {
                let spec = BenchmarkSpec::scaled(SINKS, mix(args.seed, k));
                trace.time("netlist", None, None, || spec.generate()).0
            })
            .collect::<Vec<Design>>()
    });
    out.metrics.set("setup_s", setup_s);

    // The first run of each pool design is the reference its repeats, and
    // the traced replays, must match.
    let mut reference: Vec<Option<TreeMetrics>> = vec![None; POOL];
    let mut verify = |i: usize, m: &TreeMetrics, errors: &mut Vec<String>| {
        let slot = &mut reference[i % POOL];
        match slot {
            Some(want) if want != m => errors.push(format!(
                "op {i}: design {} changed output on repeat",
                i % POOL
            )),
            Some(_) => {}
            None => *slot = Some(m.clone()),
        }
    };

    let mut errors = Vec::new();
    match pipe.try_run(&designs[0]) {
        Ok(o) => verify(0, &o.metrics, &mut errors),
        Err(e) => eprintln!("warm-up op failed: {e}"),
    }

    let mut quality = Vec::with_capacity(MIN_OPS);
    let mut failed = 0;
    let timed = closed_loop(args.seconds, MIN_OPS, |i| {
        let design = &designs[i % POOL];
        let t0 = Instant::now();
        let result = pipe.try_run(design);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let c0 = Instant::now();
        match result {
            Ok(o) => {
                if let Err(e) = check_tree(&o.tree, &o.metrics, design.sinks.len()) {
                    errors.push(format!("op {i}: {e}"));
                }
                verify(i, &o.metrics, &mut errors);
                if i < MIN_OPS {
                    quality.push((i, Quality::of(&o.metrics)));
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
        let corners = CornerSet::asap7_pvt(pipe.technology());
        let mut layer = Layers::default();
        let traced = closed_loop(args.seconds, MIN_OPS, |i| {
            let design = &designs[i % POOL];
            let now = trace.now_ms();
            let op = trace.record("op", Some(i), None, now, now);
            let staged = staged_run(&pipe, design, &mut trace, i, op, &mut layer);
            trace.close(op);
            let ms = trace.spans()[op].ms();
            // Outside the op span: one more clustering of the same sinks,
            // for the cluster share, and corner sign-off of the tree.
            let sinks = design.sink_positions();
            trace.time("cluster", Some(i), None, || {
                DualHierarchy::build(&sinks, 3000, 30, 7)
            });
            match staged {
                Ok((tree, m)) => {
                    if let Err(e) = check_tree(&tree, &m, design.sinks.len()) {
                        errors.push(format!("traced op {i}: {e}"));
                    }
                    verify(i, &m, &mut errors);
                    let (signoff, _) = trace.time("mcmm", Some(i), None, || {
                        CornerReport::try_evaluate(&tree, &corners, pipe.delay_model())
                    });
                    if signoff.is_err() && i < MIN_OPS {
                        layer.infeasible += 1;
                    }
                }
                Err(e) => eprintln!("traced op {i} failed: {e}"),
            }
            (ms, 0.0)
        });
        span_layers(&trace, traced.op_ms.len(), &mut out.metrics);
        layer.report(&mut out.metrics, traced.op_ms.len());
        overhead(&mut out.metrics, &timed, &traced);
        out.trace = Some(trace);
    }

    errors.extend(check_presets(&pipe));
    errors.into_iter().for_each(|e| out.fail(e));
    out
}

/// The staged path `route → insert → optimize_tree → evaluate_tree`, one
/// span per layer under the op span.
fn staged_run(
    pipe: &DsCts,
    design: &Design,
    trace: &mut Trace,
    i: usize,
    op: usize,
    layer: &mut Layers,
) -> Result<(dscts_core::SynthesizedTree, TreeMetrics), CtsError> {
    let (topo, _) = trace.time("route", Some(i), Some(op), || pipe.route(design));
    let topo = topo?;
    layer.stars += topo.stars.len();
    layer.trunk_nodes += topo.nodes.len();
    let (inserted, _) = trace.time("dp", Some(i), Some(op), || pipe.insert(topo));
    let (mut tree, dp) = inserted?;
    layer.stored_candidates += dp.stored_candidates;
    let (report, _) = trace.time("opt", Some(i), Some(op), || pipe.optimize_tree(&mut tree));
    for pass in report.iter().flat_map(|r| &r.passes) {
        layer.trials += pass.attempted;
        layer.accepted += pass.accepted;
    }
    let (m, _) = trace.time("eval", Some(i), Some(op), || pipe.evaluate_tree(&tree));
    Ok((tree, m))
}
