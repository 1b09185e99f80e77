//! Shared harness utilities for the experiment regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the experiment index):
//!
//! | binary      | artifact  | what it reproduces                          |
//! |-------------|-----------|---------------------------------------------|
//! | `table3`    | Table III | main comparison across C1–C5 and all flows  |
//! | `fig8`      | Fig. 8    | adaptive scale factor t(N)                   |
//! | `fig10`     | Fig. 10   | MOES effectiveness on C3 (root clouds)       |
//! | `fig11`     | Fig. 11   | skew-refinement ablation                     |
//! | `fig12`     | Fig. 12   | DSE Pareto comparison on C3                  |
//! | `ablations` | —         | design-choice ablations (pruning, patterns…) |
//!
//! Binaries print human-readable tables and write CSV series under
//! `results/`.
//!
//! # Scaling methodology
//!
//! The scaling tier (`baseline --scaling`, snapshot `BENCH_pr6.json`)
//! measures the full default pipeline on the reproducible
//! `BenchmarkSpec::scaled(n_sinks, seed)` fixtures at 100k, 250k and 1M
//! sinks. For every stage it records two numbers:
//!
//! * **wall clock** — the per-stage timings from
//!   [`dscts_core::Outcome::stages`], gated in-process so no stage grows
//!   worse than O(n log n) between the smallest and largest fixture;
//! * **peak RSS** — the process high-water resident-set mark from
//!   [`rss::peak_rss_bytes`], sampled after each stage. The probe reads
//!   `VmHWM` from `/proc/self/status`, so the column is **Linux-only**:
//!   on other platforms it degrades to `null` in the snapshot and the
//!   tables print `n/a`. Because `VmHWM` is process-wide and monotone,
//!   per-stage values identify which stage first pushed the process to a
//!   given footprint, not each stage's isolated allocation.
//!
//! CI runs the quick subset (100k sinks) and diffs runtimes against the
//! committed snapshot via `baseline --check BENCH_pr6.json`.

use dscts_core::opt::{OptSchedule, PassManager, ScheduleReport};
use dscts_core::skew::SkewConfig;
use dscts_core::{
    run_dp, DpConfig, EvalModel, HierarchicalRouter, MoesWeights, RobustObjective, SynthesizedTree,
};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_tech::{CornerSet, Technology};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Peak-RSS measurement for the scaling tier — re-exported from the core
/// crate so bench binaries and external harnesses reach it as
/// `dscts_bench::rss::peak_rss_bytes()`. See the crate-level "Scaling
/// methodology" notes for what the number means and the Linux-only
/// caveat.
pub use dscts_core::rss;

/// Generates all five Table II designs (order C1..C5). Generation is
/// per-design deterministic and independent, so it fans out across
/// threads; the collect preserves C1..C5 order.
pub fn all_designs() -> Vec<Design> {
    let specs = BenchmarkSpec::all();
    specs.par_iter().map(|s| s.generate()).collect()
}

/// The design ids as used in the paper.
pub const DESIGN_IDS: [&str; 5] = ["C1", "C2", "C3", "C4", "C5"];

/// A post-CTS optimization workload: the given design routed and
/// DP-assigned with latency-greedy MOES weights, which leaves skew on the
/// table so the sizing and refinement passes do real work. Shared by the
/// `opt_micro` bin, the `opt_passes`/`opt_schedule` criterion groups and
/// the `baseline --pr4` greedy-vs-annealed snapshot so they all measure
/// the *same* workloads.
pub fn sizing_workload(spec: &BenchmarkSpec) -> (SynthesizedTree, Technology) {
    let tech = Technology::asap7();
    let design = spec.generate();
    let cfg = DpConfig {
        moes: MoesWeights {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            delta: 0.0,
        },
        ..DpConfig::default()
    };
    let mut topo = HierarchicalRouter::new().route(&design, &tech);
    topo.subdivide(40_000);
    let res = run_dp(&topo, &tech, &cfg);
    (SynthesizedTree::new(topo, res.assignment), tech)
}

/// [`sizing_workload`] on C2 (14 338 sinks), the micro-bench default.
pub fn c2_sizing_workload() -> (SynthesizedTree, Technology) {
    sizing_workload(&BenchmarkSpec::c2_swerv_wrapper())
}

/// The Fig. 12 fanout-threshold grid (20..=1000) at the given step. The
/// paper's sweep uses step 10 (99 configurations); `fig12 --quick` and the
/// criterion benches coarsen it. Shared by `fig12`, the `baseline --pr3`
/// snapshot and the `dse_sweep` criterion group so they all measure the
/// same workload.
pub fn fig12_thresholds(step: usize) -> Vec<u32> {
    (20..=1000).step_by(step).collect()
}

/// Refinement config that always fires (zero trigger, several rounds):
/// the forced-pass setting the optimization micro-benches time.
pub fn forced_refine_config() -> SkewConfig {
    SkewConfig {
        trigger_percent: 0.0,
        max_rounds: 8,
        ..SkewConfig::default()
    }
}

/// Runs `schedule` over `tree` on `corners` (objective
/// [`RobustObjective::WorstCorner`], no budget) — every optimization
/// bench arm, single-corner ([`CornerSet::nominal_only`]) or robust.
///
/// # Panics
///
/// Panics if the tree is electrically infeasible under a corner; the
/// bench workloads are DP trees, feasible at nominal and at the ASAP7
/// PVT corners.
pub fn run_schedule(
    schedule: &OptSchedule,
    tree: &mut SynthesizedTree,
    corners: &CornerSet,
    model: EvalModel,
) -> ScheduleReport {
    PassManager::new(schedule)
        .run(tree, corners, model, RobustObjective::WorstCorner, None)
        .unwrap_or_else(|e| panic!("bench workload infeasible: {e}"))
}

/// Returns (creating if needed) the `results/` output directory.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file under `results/`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut text = header.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write csv");
    path
}

/// A fixed-width text table for terminal output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity");
        self.rows.push(row);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &width, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * ncol;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &width, &mut out);
        }
        out
    }
}

/// Geometric mean of positive ratios (the paper's "Ratio" row style).
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (log_sum / n as f64).exp()
}

/// Formats picoseconds / counts / 1e6-nm consistently with the paper.
pub fn fmt_ps(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats wirelength as `×10^6` nm.
pub fn fmt_wl(nm: i64) -> String {
    format!("{:.3}", nm as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["a", "bb"]);
        t.row(["1", "22"]);
        let s = t.render();
        assert!(s.contains("a"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn all_designs_match_table2() {
        let d = all_designs();
        assert_eq!(d.len(), 5);
        assert_eq!(d[0].sink_count(), 4380);
        assert_eq!(d[1].sink_count(), 14338);
    }
}
