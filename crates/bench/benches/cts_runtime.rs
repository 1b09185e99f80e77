//! Criterion benchmarks for the runtime (RT) columns of Table III:
//! our full flow versus the conventional OpenROAD-like + \[2\] flow, per
//! design. The paper reports a 6.9x geometric-mean speed-up of `Ours` over
//! `OpenROAD + [2]`; here both substrates are ours, so the comparison
//! isolates the algorithmic cost of concurrent insertion versus
//! synthesize-then-flip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dscts_bench::{
    c2_sizing_workload, fig12_thresholds, forced_refine_config, run_schedule, sizing_workload,
};
use dscts_core::baseline::{flip_backside, FlipMethod, HTreeCts};
use dscts_core::dse;
use dscts_core::mcmm::MultiCornerEval;
use dscts_core::opt::{AnnealConfig, AnnealedSizingPass, OptSchedule};
use dscts_core::sizing::{SizingConfig, SizingPass};
use dscts_core::skew::EndpointRefinePass;
use dscts_core::{DsCts, EvalModel};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::{CornerSet, Technology};
use std::hint::black_box;

fn bench_flows(c: &mut Criterion) {
    let tech = Technology::asap7();
    // C4 and C5 keep bench wall-time reasonable; table3 reports wall-clock
    // for all five designs.
    let designs = [
        ("C4_riscv32i", BenchmarkSpec::c4_riscv32i().generate()),
        ("C5_aes", BenchmarkSpec::c5_aes().generate()),
    ];

    let mut group = c.benchmark_group("cts_runtime");
    group.sample_size(10);
    for (id, design) in &designs {
        group.bench_with_input(BenchmarkId::new("ours_full_flow", id), design, |b, d| {
            let pipe = DsCts::new(tech.clone());
            b.iter(|| black_box(pipe.run(d).metrics.latency_ps));
        });
        group.bench_with_input(
            BenchmarkId::new("openroad_like_plus_flip2", id),
            design,
            |b, d| {
                b.iter(|| {
                    let tree = HTreeCts::default().synthesize(d, &tech);
                    let flipped = flip_backside(&tree, &tech, FlipMethod::Latency);
                    black_box(
                        flipped
                            .tree
                            .evaluate(&tech, dscts_core::EvalModel::Elmore)
                            .latency_ps,
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("our_bct_front_only", id),
            design,
            |b, d| {
                let pipe = DsCts::new(tech.clone()).single_side(true);
                b.iter(|| black_box(pipe.run(d).metrics.latency_ps));
            },
        );
    }
    group.finish();
}

/// Post-CTS optimization micro-benches on the shared C2-sized workload
/// (14 338 sinks): the greedy sizing and forced refinement passes over
/// the single nominal corner. Each iteration starts from a fresh clone of
/// the routed + DP-assigned tree, so the numbers isolate the
/// optimization passes themselves.
fn bench_opt_passes(c: &mut Criterion) {
    let (tree, tech) = c2_sizing_workload();
    let nominal = CornerSet::nominal_only(&tech);
    let sizing = OptSchedule::new().with(SizingPass::new(SizingConfig::default()));
    let refine = OptSchedule::new().with(EndpointRefinePass::new(forced_refine_config()));

    let mut group = c.benchmark_group("opt_passes");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("sizing", "C2"), &tree, |b, t| {
        b.iter(|| {
            let mut t = t.clone();
            let rep = run_schedule(&sizing, &mut t, &nominal, EvalModel::Elmore);
            black_box(rep.after.skew_ps)
        });
    });
    group.bench_with_input(BenchmarkId::new("refine", "C2"), &tree, |b, t| {
        b.iter(|| {
            let mut t = t.clone();
            let rep = run_schedule(&refine, &mut t, &nominal, EvalModel::Elmore);
            black_box(rep.after.skew_ps)
        });
    });
    group.finish();
}

/// The pass-manager layer itself on the same C2-sized workload: sizing
/// then refinement as two one-pass schedules (two evaluators built)
/// versus one two-pass schedule (one shared evaluator — same arithmetic,
/// so it should be at least as fast), plus the annealed sizing pass at a
/// bench-sized move budget over one corner (C2, C1) and over the ASAP7
/// SS/TT/FF set (C1: C2's DP tree overloads a buffer at SS).
fn bench_opt_schedule(c: &mut Criterion) {
    let (tree, tech) = c2_sizing_workload();
    let nominal = CornerSet::nominal_only(&tech);
    let (c1_tree, c1_tech) = sizing_workload(&BenchmarkSpec::c1_jpeg());
    let c1_nominal = CornerSet::nominal_only(&c1_tech);
    let c1_pvt = CornerSet::asap7_pvt(&c1_tech);
    let sizing = OptSchedule::new().with(SizingPass::new(SizingConfig::default()));
    let refine = OptSchedule::new().with(EndpointRefinePass::new(forced_refine_config()));

    let mut group = c.benchmark_group("opt_schedule");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("two_schedules_sizing_then_refine", "C2"),
        &tree,
        |b, t| {
            b.iter(|| {
                let mut t = t.clone();
                let _ = run_schedule(&sizing, &mut t, &nominal, EvalModel::Elmore);
                let rep = run_schedule(&refine, &mut t, &nominal, EvalModel::Elmore);
                black_box(rep.after.skew_ps)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("pass_manager_sizing_then_refine", "C2"),
        &tree,
        |b, t| {
            let schedule = OptSchedule::new()
                .with(SizingPass::new(SizingConfig::default()))
                .with(EndpointRefinePass::new(forced_refine_config()));
            b.iter(|| {
                let mut t = t.clone();
                let rep = run_schedule(&schedule, &mut t, &nominal, EvalModel::Elmore);
                black_box(rep.after.skew_ps)
            });
        },
    );
    let anneal = OptSchedule::new()
        .seed(7)
        .with(AnnealedSizingPass::new(AnnealConfig {
            moves: 1_000,
            ..AnnealConfig::default()
        }));
    let arms = [
        ("C2", &tree, &nominal),
        ("C1", &c1_tree, &c1_nominal),
        ("C1x3", &c1_tree, &c1_pvt),
    ];
    for (id, tree, corners) in arms {
        group.bench_with_input(
            BenchmarkId::new("annealed_sizing_1k_moves", id),
            tree,
            |b, t| {
                b.iter(|| {
                    let mut t = t.clone();
                    let rep = run_schedule(&anneal, &mut t, corners, EvalModel::Elmore);
                    black_box(rep.after.skew_ps)
                });
            },
        );
    }
    group.finish();
}
/// DSE threshold sweeps, naive (one full pipeline per threshold) versus
/// the batched [`dse::SweepEngine`] (route once, one DP per
/// mode-equivalence class). C4 over a coarsened Fig. 12 grid keeps the
/// naive arm affordable; the `baseline --pr3` snapshot records the full
/// 99-threshold C3 sweep.
fn bench_dse_sweep(c: &mut Criterion) {
    let tech = Technology::asap7();
    let design = BenchmarkSpec::c4_riscv32i().generate();
    let base = DsCts::new(tech);
    let thresholds = fig12_thresholds(50);
    let id = format!("C4x{}", thresholds.len());

    let mut group = c.benchmark_group("dse_sweep");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("naive", &id), &design, |b, d| {
        b.iter(|| black_box(dse::sweep_fanout_naive(&base, d, thresholds.iter().copied()).len()));
    });
    group.bench_with_input(BenchmarkId::new("batched", &id), &design, |b, d| {
        b.iter(|| black_box(dse::sweep_fanout(&base, d, thresholds.iter().copied()).len()));
    });
    group.finish();
}

/// MCMM fan-out evaluation on the C4 workload with the three-corner
/// ASAP7 SS/TT/FF set: the marginal cost of keeping K corners signed
/// off per trial move. `fanout_mutation` pays K dirty ancestor paths +
/// subtrees through the resident `MultiCornerEval`; `k_full_evaluates`
/// is what a non-incremental MCMM loop would pay — K from-scratch
/// `evaluate()` calls after the same knob write.
fn bench_mcmm_eval(c: &mut Criterion) {
    let (tree, tech) = sizing_workload(&BenchmarkSpec::c4_riscv32i());
    let corners = CornerSet::asap7_pvt(&tech);
    // The edge a sizing move would touch: the last buffer above a leaf
    // star, whose dirty region is a path + small subtree (a root-side
    // buffer would re-time the whole tree and measure construction, not
    // the dirty-path win).
    let edge = {
        let mut v = tree.topo.stars[0].node;
        loop {
            if tree.patterns[v as usize].is_some_and(|p| p.buffers() > 0) {
                break v as usize;
            }
            v = tree.topo.nodes[v as usize]
                .parent
                .expect("buffered ancestor");
        }
    };

    let mut group = c.benchmark_group("mcmm_eval");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("fanout_mutation", "C4x3"),
        &tree,
        |b, t| {
            let mut t = t.clone();
            let mut mc =
                MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore).expect("feasible");
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let ok = mc.set_buffer_scale(edge, if flip { 2.0 } else { 1.0 });
                assert!(ok, "scale toggle stays feasible");
                mc.commit();
                black_box(mc.worst_latency_skew_ps())
            });
        },
    );
    // Same toggle with the corner fan-out forced onto the rayon path:
    // each of the K=3 per-corner repairs runs on its own thread, journals
    // into per-corner scratch, and merges in corner order (bit-identical
    // to the serial arm). On a single-core container the shim degrades to
    // the serial loop, so expect parity there and a speed-up at ≥2 cores.
    group.bench_with_input(
        BenchmarkId::new("fanout_mutation_parallel", "C4x3"),
        &tree,
        |b, t| {
            let mut t = t.clone();
            let mut mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore)
                .expect("feasible")
                .with_parallel(Some(true));
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let ok = mc.set_buffer_scale(edge, if flip { 2.0 } else { 1.0 });
                assert!(ok, "scale toggle stays feasible");
                mc.commit();
                black_box(mc.worst_latency_skew_ps())
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("k_full_evaluates", "C4x3"),
        &tree,
        |b, t| {
            let mut t = t.clone();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                t.buffer_scales[edge] = if flip { 2.0 } else { 1.0 };
                let mut worst = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for corner_tech in corners.techs() {
                    let m = t.evaluate(corner_tech, EvalModel::Elmore);
                    worst.0 = worst.0.max(m.latency_ps);
                    worst.1 = worst.1.max(m.skew_ps);
                }
                black_box(worst)
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_flows,
    bench_opt_passes,
    bench_opt_schedule,
    bench_dse_sweep,
    bench_mcmm_eval
);
criterion_main!(benches);
