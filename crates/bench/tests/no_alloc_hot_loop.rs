//! The sizing micro-bench hot loop must not touch the heap per move.
//!
//! The resident evaluator owns grow-only scratch (the journal vector, the
//! arrival DFS stack, per-corner repair buffers), so after a short
//! warm-up a steady-state mutate → commit cycle should run entirely out
//! of retained capacity — at one corner and at the three-corner ASAP7
//! PVT set on the serial fan-out path. A counting global allocator makes that a hard
//! assertion instead of a profiler anecdote.
//!
//! This file holds exactly one `#[test]`: the counter is process-global,
//! and a concurrently running sibling test would charge its allocations
//! to the measured window.
//!
//! The test also pins the telemetry layer's no-collector contract: a
//! collector is installed and uninstalled *before* the evaluator is
//! built, so every pre-resolved metric handle lands on its `None`
//! branch and the measured windows prove the disabled instrumentation
//! costs zero allocations per move.

use dscts_bench::sizing_workload;
use dscts_core::mcmm::MultiCornerEval;
use dscts_core::EvalModel;
use dscts_netlist::BenchmarkSpec;
use dscts_tech::CornerSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Passes everything through to the system allocator, counting calls
/// that hand out fresh memory (alloc and growing reallocs).
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_MOVES: usize = 16;
const MEASURED_MOVES: usize = 256;

#[test]
fn steady_state_sizing_moves_do_not_allocate() {
    // Install-then-uninstall a telemetry collector up front: the hot
    // loops below must behave exactly as if it never existed (handles
    // resolved after the drop are `None`, entry points are one relaxed
    // atomic load), which this test's zero-allocation windows enforce.
    {
        let collector = std::sync::Arc::new(dscts_core::telemetry::Telemetry::new());
        let guard = dscts_core::telemetry::install(std::sync::Arc::clone(&collector));
        drop(guard);
        assert!(!dscts_core::telemetry::enabled());
        std::hint::black_box(collector);
    }

    let (tree, tech) = sizing_workload(&BenchmarkSpec::c4_riscv32i());
    let edge = (1..tree.topo.nodes.len())
        .find(|&i| tree.patterns[i].is_some_and(|p| p.buffers() > 0))
        .expect("latency-greedy workload has buffered edges");

    // K = 1 is the `opt_passes` / sizing micro-bench path; K = 3 on the
    // serial fan-out is the `mcmm_eval` criterion loop. (The parallel
    // path spawns scoped threads, which allocate by design; it is gated
    // to huge trees.)
    for corners in [CornerSet::nominal_only(&tech), CornerSet::asap7_pvt(&tech)] {
        let k = corners.len();
        let mut t = tree.clone();
        let mut mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore)
            .expect("feasible in every corner")
            .with_parallel(Some(false));
        let mut flip = false;
        let toggle = |mc: &mut MultiCornerEval, flip: &mut bool| {
            *flip = !*flip;
            assert!(mc.set_buffer_scale(edge, if *flip { 2.0 } else { 1.0 }));
            mc.commit();
            std::hint::black_box(mc.latency_skew_ps());
        };
        for _ in 0..WARMUP_MOVES {
            toggle(&mut mc, &mut flip);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..MEASURED_MOVES {
            toggle(&mut mc, &mut flip);
        }
        let grew = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            grew, 0,
            "K={k} evaluator hot loop allocated {grew} times over {MEASURED_MOVES} moves"
        );
    }
}
