//! Micro-benchmark of the post-CTS optimization passes.
//!
//! Times the greedy sizing pass, the forced end-point refinement pass and
//! the annealed sizing pass in isolation on the shared C2-sized workload
//! (14 338 sinks, see [`dscts_bench::c2_sizing_workload`]), printing
//! wall-clock per pass. The routed + DP-assigned tree is built once; each
//! timed pass starts from a fresh clone, so the numbers isolate the
//! optimization loops themselves — the workloads the resident evaluator
//! accelerates.
//!
//! The annealed pass additionally runs on the C1 workload twice per delay
//! model: over the single nominal corner (K = 1) and fanned out over the
//! ASAP7 SS/TT/FF set (K = 3, worst-corner objective). (C2's DP tree
//! overloads a buffer at the SS corner, so the corner pair uses C1.)
//! Both arms go through the one evaluator, so a per-move dispatch or
//! bookkeeping cost shows up in the K = 1 arms.
//!
//! Run with `cargo run --release -p dscts-bench --bin opt_micro`.

use dscts_bench::{c2_sizing_workload, forced_refine_config, run_schedule, sizing_workload};
use dscts_core::opt::{AnnealedSizingPass, OptSchedule, ScheduleReport};
use dscts_core::sizing::{SizingConfig, SizingPass};
use dscts_core::{EndpointRefinePass, EvalModel, SynthesizedTree};
use dscts_netlist::BenchmarkSpec;
use dscts_tech::CornerSet;
use std::time::Instant;

/// Runs `schedule` on a fresh clone of `tree`, returning wall-clock
/// milliseconds (building the corner states included, as in the
/// pipeline) and the report.
fn timed(
    schedule: &OptSchedule,
    tree: &SynthesizedTree,
    corners: &CornerSet,
    model: EvalModel,
) -> (f64, ScheduleReport) {
    let mut t = tree.clone();
    let t0 = Instant::now();
    let rep = run_schedule(schedule, &mut t, corners, model);
    (t0.elapsed().as_secs_f64() * 1e3, rep)
}

fn main() {
    let t0 = Instant::now();
    let (tree, tech) = c2_sizing_workload();
    println!(
        "setup (route + DP, {} sinks, {} trunk nodes): {:.1} ms",
        tree.topo.sink_pos.len(),
        tree.topo.nodes.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    let nominal = CornerSet::nominal_only(&tech);
    let (c1_tree, c1_tech) = sizing_workload(&BenchmarkSpec::c1_jpeg());
    let c1_nominal = CornerSet::nominal_only(&c1_tech);
    let c1_pvt = CornerSet::asap7_pvt(&c1_tech);

    for model in [EvalModel::Elmore, EvalModel::Nldm] {
        let sizing = OptSchedule::new().with(SizingPass::new(SizingConfig::default()));
        let (ms, rep) = timed(&sizing, &tree, &nominal, model);
        println!(
            "sizing [{model:?}]: {ms:.1} ms ({} resized, skew {:.3} -> {:.3} ps)",
            rep.passes[0].accepted, rep.before.skew_ps, rep.after.skew_ps
        );

        let refine = OptSchedule::new().with(EndpointRefinePass::new(forced_refine_config()));
        let (ms, rep) = timed(&refine, &tree, &nominal, model);
        println!(
            "refine [{model:?}]: {ms:.1} ms ({} buffers added, skew {:.3} -> {:.3} ps)",
            rep.passes[0].accepted, rep.before.skew_ps, rep.after.skew_ps
        );

        let anneal = OptSchedule::new()
            .seed(7)
            .with(AnnealedSizingPass::default());
        let arms = [
            ("C2 K=1", &tree, &nominal),
            ("C1 K=1", &c1_tree, &c1_nominal),
            ("C1 K=3", &c1_tree, &c1_pvt),
        ];
        for (arm, tree, corners) in arms {
            let (ms, rep) = timed(&anneal, tree, corners, model);
            println!(
                "annealed-sizing {arm} [{model:?}]: {ms:.1} ms ({}/{} moves accepted, skew {:.3} -> {:.3} ps, latency {:.3} -> {:.3} ps)",
                rep.passes[0].accepted,
                rep.passes[0].attempted,
                rep.before.skew_ps,
                rep.after.skew_ps,
                rep.before.latency_ps,
                rep.after.latency_ps
            );
        }
    }
}
