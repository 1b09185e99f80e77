//! The repository's benchmark: one workload per process.
//!
//! ```text
//! ctsperf --workload <route-scale|dse-sweep|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit, checks every output, and ends with
//! one JSON result line. See `README.md` for what each workload measures.

mod check;
mod dse_sweep;
mod report;
mod route_scale;
mod service_mix;
mod stats;
mod trace;

use report::{result_line, Metrics, END_TO_END, PER_LAYER};
use stats::Quality;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// Set-up runs in this many batches per run; `setup_s` is the median of
/// the batch means.
const SETUP_BATCHES: usize = 5;
/// Set-ups per batch. One set-up lasts 0.1–0.2 s, shorter than the fast
/// and slow phases of a shared host, so single set-up times are bimodal;
/// the mean of a batch spans more of those phases.
const SETUP_PER_BATCH: usize = 4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Output-check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Span recorder of the traced loop, when tracing.
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// Latency samples of one timed loop.
pub struct Timed {
    /// Per-op latency (ms), in op-index order.
    pub op_ms: Vec<f64>,
    /// Wall clock of the loop, minus the benchmark's own checks (s).
    pub wall_s: f64,
}

impl Timed {
    /// Throughput and latency metrics of this loop.
    pub fn report(&self, m: &mut Metrics) {
        m.set("ops_per_s", self.op_ms.len() as f64 / self.wall_s);
        m.set("op_ms_p50", self.p50());
        m.set(
            "op_ms_p90",
            stats::percentile(&self.op_ms, 0.9).unwrap_or(f64::NAN),
        );
    }

    pub fn p50(&self) -> f64 {
        stats::percentile(&self.op_ms, 0.5).unwrap_or(f64::NAN)
    }
}

/// Closed loop with one client: runs `op(i)` for `i = 0, 1, …` until
/// `seconds` have passed and at least `min_ops` ops ran. `op` returns its
/// own latency (ms) and the seconds it spent checking outputs, which the
/// loop's wall clock leaves out.
pub fn closed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut(usize) -> (f64, f64)) -> Timed {
    let start = Instant::now();
    let mut op_ms = Vec::new();
    let mut checking_s = 0.0;
    while op_ms.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let (ms, check_s) = op(op_ms.len());
        op_ms.push(ms);
        checking_s += check_s;
    }
    Timed {
        op_ms,
        wall_s: start.elapsed().as_secs_f64() - checking_s,
    }
}

/// Runs `setup` [`SETUP_BATCHES`] × [`SETUP_PER_BATCH`] times, keeps the
/// last state, and returns it with the median batch-mean set-up time in
/// seconds. Dropping the previous state is not timed.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_BATCHES * SETUP_PER_BATCH);
    let mut state = None;
    for _ in 0..SETUP_BATCHES * SETUP_PER_BATCH {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    let means: Vec<f64> = times
        .chunks(SETUP_PER_BATCH)
        .map(|batch| batch.iter().sum::<f64>() / batch.len() as f64)
        .collect();
    let ms: Vec<String> = means.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    println!("set-up batch means (ms): {}", ms.join(" "));
    (
        state.expect("set-up ran at least once"),
        stats::median(&means),
    )
}

/// Design-generation seed `k` of a workload seed (SplitMix64 finalizer).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process high-water RSS in MiB.
pub fn peak_rss_mib() -> f64 {
    dscts_core::rss::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

/// Mean over `ops` of each op's summed duration of spans named `name`.
pub fn mean_ms_per_op(trace: &Trace, name: &str, ops: usize) -> f64 {
    let total: f64 = trace
        .spans()
        .iter()
        .filter(|s| s.name == name && s.op_id.is_some())
        .map(|s| s.ms())
        .sum();
    total / ops.max(1) as f64
}

/// Counters gathered from the staged calls' return values.
#[derive(Default)]
pub struct Layers {
    pub stars: usize,
    pub trunk_nodes: usize,
    pub stored_candidates: usize,
    pub trials: usize,
    pub accepted: usize,
    pub infeasible: usize,
}

impl Layers {
    pub fn report(&self, m: &mut Metrics, ops: usize) {
        let per_op = |x: usize| x as f64 / ops.max(1) as f64;
        m.set("route.stars", per_op(self.stars));
        m.set("route.trunk_nodes", per_op(self.trunk_nodes));
        m.set("dp.stored_candidates", per_op(self.stored_candidates));
        m.set("opt.trials", per_op(self.trials));
        let ratio = if self.trials == 0 {
            0.0
        } else {
            self.accepted as f64 / self.trials as f64
        };
        m.set("opt.accept_ratio", ratio);
        m.set("mcmm.infeasible", self.infeasible as f64);
    }
}

pub fn set_quality(out: &mut Outcome, quality: &[(usize, Quality)]) {
    if quality.is_empty() {
        return;
    }
    let q = stats::quality_geomean(quality);
    out.metrics.set("latency_ps", q.latency_ps);
    out.metrics.set("skew_ps", q.skew_ps);
    out.metrics.set("wirelength_mm", q.wirelength_mm);
    out.metrics.set("buffers", q.buffers);
    out.metrics.set("ntsvs", q.ntsvs);
}

/// Per-layer time metrics from the trace: each layer's mean time per op,
/// call counts per op, and the mean set-up time per generated design.
pub fn span_layers(trace: &Trace, ops: usize, m: &mut Metrics) {
    let gen: Vec<f64> = trace
        .spans()
        .iter()
        .filter(|s| s.name == "netlist")
        .map(|s| s.ms())
        .collect();
    m.set(
        "netlist.gen_ms",
        gen.iter().sum::<f64>() / gen.len().max(1) as f64,
    );
    for (span, metric) in [
        ("cluster", "cluster.busy_ms"),
        ("route", "route.busy_ms"),
        ("dp", "dp.busy_ms"),
        ("opt", "opt.busy_ms"),
        ("eval", "eval.busy_ms"),
        ("mcmm", "mcmm.busy_ms"),
    ] {
        m.set(metric, mean_ms_per_op(trace, span, ops));
    }
    let get = |name| m.get(name).unwrap_or(0.0);
    let (cluster, route, op) = (
        get("cluster.busy_ms"),
        get("route.busy_ms"),
        mean_ms_per_op(trace, "op", ops),
    );
    m.set("route.self_ms", route - cluster);
    m.set("cluster.share", if op > 0.0 { cluster / op } else { 0.0 });
    let calls = |name: &str| {
        let n = trace
            .spans()
            .iter()
            .filter(|s| s.name == name && s.op_id.is_some())
            .count();
        n as f64 / ops.max(1) as f64
    };
    m.set("dp.calls", calls("dp"));
    m.set("eval.calls", calls("eval"));
}

/// The tracing-overhead row: traced minus untraced median op latency.
pub fn overhead(m: &mut Metrics, untraced: &Timed, traced: &Timed) {
    m.set("trace.op_ms_p50", traced.p50());
    m.set("trace.overhead_ms", traced.p50() - untraced.p50());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Inner parallelism is fixed per workload before any thread starts:
    // the single-client workloads use every core, the service gets its
    // concurrency from its worker pool instead.
    let inner_threads = match args.workload.as_str() {
        "route-scale" | "dse-sweep" => nproc,
        "service-mix" => 1,
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    std::env::set_var("RAYON_NUM_THREADS", inner_threads.to_string());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} RAYON_NUM_THREADS {inner_threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let out = match args.workload.as_str() {
        "route-scale" => route_scale::run(&args),
        "dse-sweep" => dse_sweep::run(&args),
        _ => service_mix::run(&args, nproc),
    };

    println!("end-to-end (tracing off):");
    out.metrics.print_table(END_TO_END);
    println!("  latency samples: {} ops", out.attempted);
    if let Some(trace) = &out.trace {
        println!("per-layer (traced run):");
        out.metrics.print_table(PER_LAYER);
        println!(
            "spans: {:<26} {:>8} {:>12} {:>12}",
            "name", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, self_ms)) in trace.table() {
            println!("       {name:<26} {count:>8} {total:>12.3} {self_ms:>12.3}");
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics, args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
