//! `service-mix`: closed-loop clients against `CtsService`, jobs cycling
//! through Score, SweepPoint, Sizing and CornerSignoff on the C1–C5
//! presets. Routing happens only at registration, in set-up.

use crate::check::{check_expected, check_metrics, check_tree, expected_presets, Expected};
use crate::report::Metrics;
use crate::stats::{median, percentile, Quality};
use crate::trace::Trace;
use crate::{mix, overhead, peak_rss_mib, repeated_setup, set_quality, span_layers, Args, Layers};
use crate::{Outcome, Timed};
use dscts_cluster::DualHierarchy;
use dscts_core::mcmm::CornerReport;
use dscts_core::{mode_vector, CtsError, DsCts, ModeRule, RecoveryPolicy, StageTiming};
use dscts_netlist::{BenchmarkSpec, Design};
use dscts_service::{
    job_pipeline, CtsService, DesignKey, DrainMode, JobKind, JobOutcome, JobRequest, JobResponse,
    ServiceConfig,
};
use dscts_tech::{CornerSet, Technology};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// At least 1000 jobs: fifty rounds of the twenty kind × design pairs.
const MIN_OPS: usize = 1000;
/// Closed-loop clients, capped at the core count so no more jobs are
/// outstanding than there are cores.
const CLIENTS: usize = 2;
const KINDS: [JobKind; 4] = [
    JobKind::Score,
    JobKind::SweepPoint { threshold: 24 },
    JobKind::Sizing { moves: 2000 },
    JobKind::CornerSignoff,
];

/// A started service with C1–C5 registered; shut down when dropped.
struct Running {
    service: Option<CtsService>,
    designs: Vec<Design>,
    keys: Vec<DesignKey>,
}

impl Running {
    fn service(&self) -> &CtsService {
        self.service.as_ref().expect("service runs until drop")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(s) = self.service.take() {
            s.shutdown(DrainMode::Graceful);
        }
    }
}

/// What a traced loop keeps of each completed job.
struct JobSpan {
    j: usize,
    kind: JobKind,
    submitted: Instant,
    done: Instant,
    queue_wait_s: f64,
    wall_s: f64,
    attempts: usize,
    stages: Vec<StageTiming>,
}

/// What the clients of one loop gathered. Jobs are checked as they
/// complete and only summaries are kept, so the benchmark's own memory
/// barely grows with the run's length.
struct Tally {
    /// (job index, latency ms) of every job.
    op_ms: Vec<(usize, f64)>,
    failed: usize,
    /// Quality of the completed jobs among the first [`MIN_OPS`].
    quality: Vec<(usize, Quality)>,
    /// Per plan pair: its first completed outcome and that outcome's
    /// fingerprint, which every repeat must match.
    first: Vec<Option<(JobOutcome, u64)>>,
    errors: Vec<String>,
    /// Recovery rungs over all jobs, and over the first [`MIN_OPS`].
    retries: usize,
    window_retries: usize,
    /// Sign-off attempts rejected as infeasible, first [`MIN_OPS`] jobs.
    window_infeasible: usize,
    /// Per-job spans, in traced loops only.
    spans: Option<Vec<JobSpan>>,
}

pub fn run(args: &Args, nproc: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let tech = Technology::asap7();
    let base = DsCts::new(tech.clone());
    // The service exactly as the `loadtest` bin configures it, with one
    // worker per core.
    let cfg = ServiceConfig {
        workers: nproc,
        queue_capacity: 96,
        max_outstanding_per_tenant: 48,
        default_deadline: None,
        quarantine_threshold: u32::MAX,
        retry: Some(RecoveryPolicy::new()),
        signoff_corners: Some(CornerSet::asap7_pvt(&tech)),
    };
    let clients = CLIENTS.min(nproc);

    let mut register_ms = Vec::new();
    let mut errors = Vec::new();
    let (running, setup_s) = repeated_setup(|| {
        let designs: Vec<Design> = BenchmarkSpec::all()
            .iter()
            .map(|spec| trace.time("netlist", None, None, || spec.generate()).0)
            .collect();
        let service = CtsService::start(base.clone(), cfg.clone());
        let t0 = Instant::now();
        let mut keys = Vec::with_capacity(designs.len());
        for d in &designs {
            match service.register_design(d) {
                Ok((key, _)) => keys.push(key),
                Err(e) => errors.push(format!("registering {}: {e}", d.name)),
            }
        }
        register_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        Running {
            service: Some(service),
            designs,
            keys,
        }
    });
    out.metrics.set("setup_s", setup_s);
    let expected = expected_presets().unwrap_or_else(|e| {
        errors.push(e);
        Vec::new()
    });
    if !errors.is_empty() {
        errors.into_iter().for_each(|e| out.fail(e));
        return out;
    }

    // Round-robin over kinds and designs at once: with four kinds and five
    // designs, twenty consecutive jobs run every pair once. The seed picks
    // the pair the cycle starts at; job j runs pair `plan[j % 20]`.
    let pairs = KINDS.len() * running.designs.len();
    let offset = (mix(args.seed, 0) % pairs as u64) as usize;
    let plan: Vec<(JobKind, usize)> = (offset..offset + pairs)
        .map(|k| (KINDS[k % KINDS.len()], k % running.designs.len()))
        .collect();
    let run_loop = |clients, seconds, min_ops, traced| {
        client_loop(
            &running, &plan, &expected, clients, seconds, min_ops, traced,
        )
    };

    let (_, warm_up) = run_loop(1, 0.0, 1, false);
    let (timed, tally) = run_loop(clients, args.seconds, MIN_OPS, false);
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    timed.report(&mut out.metrics);
    out.attempted = tally.op_ms.len();
    out.failed = tally.failed;
    let completed = out.attempted - out.failed;
    out.metrics
        .set("ok_frac", completed as f64 / out.attempted as f64);
    set_quality(&mut out, &tally.quality);

    // The first job of each pair is replayed through the staged calls,
    // tree invariants included.
    let mut layer = Layers::default();
    for (slot, first) in tally.first.iter().enumerate() {
        let (kind, d) = plan[slot];
        let pair = format!("{} on C{}", kind.label(), d + 1);
        match first {
            Some((o, _)) => {
                if let Err(e) = replay(&base, &running.designs[d], kind, o, &mut layer) {
                    errors.push(format!("{pair}: {e}"));
                }
            }
            None => errors.push(format!("{pair} never completed")),
        }
    }

    let mut loops = vec![warm_up, tally];
    if args.trace {
        let (traced, tally) = run_loop(clients, args.seconds, MIN_OPS, true);
        let spans = tally.spans.as_deref().unwrap_or_default();
        job_spans(&mut trace, spans);
        // Registration routed and clustered each design once; repeat
        // both, outside any job, to split set-up by layer.
        let (mut stars, mut trunk_nodes) = (0, 0);
        for d in &running.designs {
            if let (Ok(topo), _) = trace.time("route", None, None, || base.route(d)) {
                stars += topo.stars.len();
                trunk_nodes += topo.nodes.len();
            }
            let sinks = d.sink_positions();
            trace.time("cluster", None, None, || {
                DualHierarchy::build(&sinks, 3000, 30, 7)
            });
        }
        let m = &mut out.metrics;
        span_layers(&trace, spans.len(), m);
        service_layers(m, spans, &traced, nproc);
        // Every pair runs equally often, so means over the replayed pairs
        // are means per job.
        layer.infeasible = tally.window_infeasible;
        layer.report(m, plan.len());
        // Routing is per registered design, not per job: totals per set-up.
        let register = median(&register_ms);
        let route = setup_ms(&trace, "route");
        let cluster = setup_ms(&trace, "cluster");
        m.set("route.busy_ms", route);
        m.set("route.self_ms", route - cluster);
        m.set("route.stars", stars as f64);
        m.set("route.trunk_nodes", trunk_nodes as f64);
        m.set("cluster.busy_ms", cluster);
        m.set("cluster.share", cluster / register);
        m.set("service.register_ms", register);
        m.set("service.retries", tally.window_retries as f64);
        m.set("service.rejected", rejected(running.service()) as f64);
        overhead(m, &timed, &traced);
        out.trace = Some(trace);
        loops.push(tally);
    }

    // Every loop must reproduce the outputs of the others, and the
    // service's own retry count must equal the rungs the clients saw.
    for slot in 0..plan.len() {
        let mut prints = loops
            .iter()
            .filter_map(|l| l.first[slot].as_ref().map(|f| f.1));
        if let Some(want) = prints.next() {
            if prints.any(|p| p != want) {
                errors.push(format!("pair {slot} changed output between loops"));
            }
        }
    }
    let stats = running.service().stats();
    let retries: usize = loops.iter().map(|l| l.retries).sum();
    let terminal = stats.completed + stats.failed + stats.cancelled;
    if stats.retries != retries as u64 || terminal != stats.accepted {
        errors.push(format!(
            "service stats {stats:?} disagree with the {retries} retries the clients saw"
        ));
    }
    errors.extend(loops.into_iter().flat_map(|l| l.errors));
    errors.into_iter().for_each(|e| out.fail(e));
    out
}

/// Closed loop with `clients` threads, each submitting its next job only
/// after `wait` returned the last one, until `seconds` have passed and at
/// least `min_ops` jobs ran. Latency runs from `submit` to `wait`
/// returning; each client checks its job after that, off the clock.
fn client_loop(
    running: &Running,
    plan: &[(JobKind, usize)],
    expected: &[Expected],
    clients: usize,
    seconds: f64,
    min_ops: usize,
    traced: bool,
) -> (Timed, Tally) {
    let tally = Mutex::new(Tally {
        op_ms: Vec::new(),
        failed: 0,
        quality: Vec::new(),
        first: vec![None; plan.len()],
        errors: Vec::new(),
        retries: 0,
        window_retries: 0,
        window_infeasible: 0,
        spans: traced.then(Vec::new),
    });
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (next, tally) = (&next, &tally);
            s.spawn(move || {
                while next.load(Ordering::SeqCst) < min_ops
                    || start.elapsed().as_secs_f64() < seconds
                {
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    let slot = j % plan.len();
                    let (kind, design) = plan[slot];
                    let submitted = Instant::now();
                    let response = running
                        .service()
                        .submit(JobRequest {
                            tenant: format!("client-{c}"),
                            design: running.keys[design],
                            kind,
                            deadline: None,
                        })
                        .map(|ticket| ticket.wait());
                    let done = Instant::now();
                    let ms = (done - submitted).as_secs_f64() * 1e3;
                    let o = match response {
                        Ok(Some(JobResponse::Completed(o))) => o,
                        other => {
                            // A typed failure is a failed op, counted in
                            // ok_frac, not a wrong output.
                            eprintln!("job {j} ({}) failed: {other:?}", kind.label());
                            let mut t = tally.lock().expect("no client panics holding the tally");
                            t.op_ms.push((j, ms));
                            t.failed += 1;
                            continue;
                        }
                    };
                    let pair = format!("job {j} ({} on C{})", kind.label(), design + 1);
                    let mut problems = Vec::new();
                    let sinks = running.designs[design].sinks.len();
                    if let Err(e) = check_metrics(&o.metrics, sinks) {
                        problems.push(format!("{pair}: {e}"));
                    }
                    if kind == JobKind::Score {
                        if let Err(e) = check_expected(&o.metrics, &expected[design]) {
                            problems.push(format!("{pair}: {e}"));
                        }
                    }
                    let print = fingerprint(&o);
                    let mut t = tally.lock().expect("no client panics holding the tally");
                    t.op_ms.push((j, ms));
                    t.errors.extend(problems);
                    t.retries += o.recovery.len();
                    if j < MIN_OPS {
                        t.quality.push((j, Quality::of(&o.metrics)));
                        t.window_retries += o.recovery.len();
                        if kind == JobKind::CornerSignoff {
                            t.window_infeasible += o
                                .recovery
                                .iter()
                                .filter(|s| matches!(s.error, CtsError::NoFeasiblePattern { .. }))
                                .count();
                        }
                    }
                    if let Some(spans) = &mut t.spans {
                        spans.push(JobSpan {
                            j,
                            kind,
                            submitted,
                            done,
                            queue_wait_s: o.queue_wait_s,
                            wall_s: o.wall_s,
                            attempts: 1 + o.recovery.len(),
                            stages: o.stages.clone(),
                        });
                    }
                    match &t.first[slot] {
                        Some((_, want)) if *want != print => {
                            t.errors.push(format!("{pair} changed output on repeat"))
                        }
                        Some(_) => {}
                        None => t.first[slot] = Some((o, print)),
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tally = tally
        .into_inner()
        .expect("no client panics holding the tally");
    tally.op_ms.sort_by_key(|&(j, _)| j);
    let op_ms = tally.op_ms.iter().map(|&(_, ms)| ms).collect();
    (Timed { op_ms, wall_s }, tally)
}

/// A hash of everything a repeat of the same job must reproduce, down to
/// the bits of every arrival time.
fn fingerprint(o: &JobOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    let m = &o.metrics;
    let scalars = [
        m.latency_ps,
        m.skew_ps,
        m.switched_cap_ff,
        m.max_sink_slew_ps,
    ];
    for x in scalars.iter().chain(&m.arrivals) {
        h.write_u64(x.to_bits());
    }
    let counts = (m.buffers, m.ntsvs, m.wirelength_nm, m.trunk_wirelength_nm);
    (counts, m.cell_area_nm2).hash(&mut h);
    if let Some(r) = &o.robust {
        for x in [r.worst_latency_ps, r.worst_skew_ps, r.arrival_spread_ps] {
            h.write_u64(x.to_bits());
        }
        (r.worst_latency_corner, r.worst_skew_corner).hash(&mut h);
    }
    (o.degraded, o.trials, format!("{:?}", o.recovery)).hash(&mut h);
    h.finish()
}

/// Job spans from what each client measured and each outcome reports:
/// `job` (submit → response) holds `queue_wait` then `exec`, and `exec`
/// holds the winning attempt's stage rows as layer spans.
fn job_spans(trace: &mut Trace, jobs: &[JobSpan]) {
    for job in jobs {
        let (start, end) = (trace.at_ms(job.submitted), trace.at_ms(job.done));
        let op = Some(job.j);
        let root = trace.record("job", op, None, start, end);
        let queued = start + job.queue_wait_s * 1e3;
        trace.record("queue_wait", op, Some(root), start, queued);
        let exec = trace.record("exec", op, Some(root), queued, queued + job.wall_s * 1e3);
        let mut at = queued;
        for stage in &job.stages {
            let layer = match stage.name.as_ref() {
                "insertion" => "dp",
                "optimize" => "opt",
                "evaluate" => "eval",
                "signoff" => "mcmm",
                _ => continue, // `opt:<pass>` rows repeat the optimize row
            };
            trace.record(layer, op, Some(exec), at, at + stage.seconds * 1e3);
            at += stage.seconds * 1e3;
        }
    }
}

/// `service.*` latency and load metrics of the traced loop.
fn service_layers(m: &mut Metrics, jobs: &[JobSpan], loop_: &Timed, workers: usize) {
    let ms = |f: &dyn Fn(&JobSpan) -> f64, kind: Option<&str>| -> Vec<f64> {
        jobs.iter()
            .filter(|j| kind.is_none_or(|k| j.kind.label() == k))
            .map(|j| f(j) * 1e3)
            .collect()
    };
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    let queue_wait = ms(&|j| j.queue_wait_s, None);
    m.set("service.queue_wait_ms_p50", p(&queue_wait, 0.5));
    let exec = ms(&|j| j.wall_s, None);
    m.set("service.exec_ms_p50", p(&exec, 0.5));
    m.set("service.exec_ms_p90", p(&exec, 0.9));
    for (kind, name) in [
        ("score", "service.exec_ms_p50.score"),
        ("sweep", "service.exec_ms_p50.sweep"),
        ("sizing", "service.exec_ms_p50.sizing"),
        ("signoff", "service.exec_ms_p50.signoff"),
    ] {
        m.set(name, p(&ms(&|j| j.wall_s, Some(kind)), 0.5));
    }
    let busy_s = exec.iter().sum::<f64>() / 1e3;
    m.set(
        "service.busy_frac",
        busy_s / (workers as f64 * loop_.wall_s),
    );
    // Every attempt, retries included, runs the DP and evaluates.
    let attempts: usize = jobs.iter().map(|j| j.attempts).sum();
    let per_job = attempts as f64 / jobs.len().max(1) as f64;
    m.set("dp.calls", per_job);
    m.set("eval.calls", per_job);
}

fn rejected(service: &CtsService) -> u64 {
    let s = service.stats();
    s.rejected_queue_full
        + s.rejected_backpressure
        + s.rejected_quarantined
        + s.rejected_shutdown
        + s.rejected_other
}

/// Total ms of the set-up spans (no op id) named `name`.
fn setup_ms(trace: &Trace, name: &str) -> f64 {
    trace
        .spans()
        .iter()
        .filter(|s| s.name == name && s.op_id.is_none())
        .map(|s| s.ms())
        .sum()
}

/// Re-derives a job through the staged calls under the job's pipeline,
/// relaxed by the rungs the service recorded, and checks the tree's
/// invariants and that its metrics equal the service's bit for bit.
fn replay(
    base: &DsCts,
    design: &Design,
    kind: JobKind,
    got: &JobOutcome,
    layer: &mut Layers,
) -> Result<(), String> {
    let pipe = got
        .recovery
        .iter()
        .fold(job_pipeline(base, &kind), |p, step| {
            p.with_relaxation(step.relaxation)
        });
    let topo = pipe.route(design).map_err(|e| e.to_string())?;
    let (mut tree, dp) = match kind {
        JobKind::SweepPoint { threshold } => {
            let modes = mode_vector(&topo, ModeRule::FanoutThreshold(threshold));
            pipe.insert_with_modes(topo, &modes)
        }
        _ => pipe.insert(topo),
    }
    .map_err(|e| e.to_string())?;
    let report = pipe.optimize_tree(&mut tree);
    let metrics = pipe.evaluate_tree(&tree);
    check_tree(&tree, &metrics, design.sinks.len())?;
    let robust = match kind {
        JobKind::CornerSignoff => {
            let corners = CornerSet::asap7_pvt(pipe.technology());
            Some(
                CornerReport::try_evaluate(&tree, &corners, pipe.delay_model())
                    .map_err(|e| e.to_string())?
                    .robust,
            )
        }
        _ => None,
    };
    if metrics != got.metrics || robust != got.robust {
        return Err("the staged replay differs from the service result".into());
    }
    layer.stored_candidates += dp.stored_candidates;
    for pass in report.iter().flat_map(|r| &r.passes) {
        layer.trials += pass.attempted;
        layer.accepted += pass.accepted;
    }
    Ok(())
}
