//! The BVC end-to-end benchmark.
//!
//! One invocation runs one workload in its own process.  Untraced
//! (`--trace 0`) it repeats a fixed, seed-generated instance list through
//! the public entry point `BvcSession::run` for `--seconds` and reports the
//! end-to-end metrics; traced (`--trace 1`) it alternates untraced passes
//! with passes under a counting tracer, adds timed probes of each layer and
//! a `BvcService` probe, and reports the per-layer metrics.  Either way every
//! instance's verdict is checked, and every pass, traced or not, must yield
//! the same decision digests.
//!
//! See `README.md` for the workloads, the metric table and which layer
//! metric should move which end-to-end metric.

pub mod check;
pub mod layers;
pub mod stats;
pub mod workload;

use check::{decision_digest, instance_ok, service_line_ok};
use layers::{run_probes, CountingTracer, EventCounts};
use stats::{median, peak_rss_mb, tail};
use workload::Workload;

use bvc_core::BvcSession;
use bvc_geometry::set_gamma_workers;
use bvc_service::{BvcService, MemorySink, ServiceStats};
use bvc_trace::GammaPath;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("decisions_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("checked_ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 22] = [
    ("broadcast.eig_probe_ms", "ms"),
    ("broadcast.rb_probe_us", "us"),
    ("net.msgs_per_decision", "count"),
    ("net.steps_per_decision", "count"),
    ("net.sync_probe_us_per_msg", "us"),
    ("net.async_probe_us_per_step", "us"),
    ("zi.build_probe_ms", "ms"),
    ("gamma.queries_per_decision", "count"),
    ("gamma.hit_ratio", "ratio"),
    ("gamma.hit_probe_us", "us"),
    ("gamma.cross_instance_hit_ratio", "ratio"),
    ("gamma.path.probe-hit", "count"),
    ("gamma.path.active-set-lp", "count"),
    ("gamma.path.naive-fallback", "count"),
    ("gamma.path.stream-scan", "count"),
    ("gamma.engine_probe_us", "us"),
    ("lp.solves_per_decision", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.reuse_ratio", "ratio"),
    ("service.worker_utilization", "ratio"),
    ("service.queue_depth_mean", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Passes an untraced run makes at least, so every instance gets a second
/// chance at the host's fast phase.
const MIN_PASSES: usize = 2;

/// Seed of the warm-up list.  It is the same for every `--seed`, so set-up
/// does the same work in every run.
const WARMUP_SEED: u64 = 0x5741_524D;

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the instance list.
    pub seed: u64,
    /// How long the measured phase repeats the instance list.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every verdict held and every digest and count cross-check matched.
    pub correct: bool,
    /// Instances run and checked (warm-up excluded).
    pub attempted: usize,
    /// Instances whose check failed.
    pub failed: usize,
    /// `(name, unit, value)`, in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Everything a pass over an admitted instance list yields.
#[derive(Debug, Default)]
struct Pass {
    /// Wall time of each instance, ms.
    times_ms: Vec<f64>,
    /// Instances whose check held.
    ok: usize,
    /// Per-instance decision digests, in list order.
    digests: Vec<u64>,
    /// Messages delivered, summed over instances.
    messages: u64,
    /// Executor rounds or delivery steps, summed over instances.
    steps: u64,
    /// Γ queries through the public cache counters.
    gamma_queries: u64,
    /// The subset of `gamma_queries` answered from the cache.
    gamma_hits: u64,
}

impl Pass {
    fn len(&self) -> usize {
        self.digests.len()
    }

    fn total_s(&self) -> f64 {
        self.times_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs an admitted list to completion and checks every instance.  Only
/// `BvcSession::run` is inside the timed interval.
fn run_pass(sessions: Vec<BvcSession>, workload: Workload) -> Pass {
    let tolerance = workload.shape().agreement_tolerance();
    let mut pass = Pass::default();
    for session in sessions {
        let cache = session.gamma_cache().clone();
        let before = cache.counters();
        let start = Instant::now();
        let report = session.run();
        pass.times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        pass.ok += usize::from(instance_ok(&report, tolerance));
        pass.digests.push(decision_digest(report.decisions()));
        pass.messages += report.stats().messages_delivered as u64;
        pass.steps += report.stats().steps as u64;
        let used = cache.counters().since(&before);
        pass.gamma_queries += used.queries();
        pass.gamma_hits += used.hits;
    }
    pass
}

/// Runs an admitted list under a counting tracer.
fn run_traced(sessions: Vec<BvcSession>, workload: Workload) -> (Pass, EventCounts) {
    let (handle, counts) = CountingTracer::handle();
    let pass = {
        let _scope = bvc_trace::install(handle, 0);
        run_pass(sessions, workload)
    };
    let counts = counts
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (pass, counts)
}

fn admit(workload: Workload, seed: u64, count: usize) -> Result<Vec<BvcSession>, String> {
    workload
        .admit(seed, count)
        .map_err(|e| format!("admission refused a generated instance: {e}"))
}

/// One set-up: generate and admit the measured list, then warm the program
/// on a separate list.  Returns the list and whether every warm-up verdict
/// held.
fn setup(workload: Workload, seed: u64) -> Result<(Vec<BvcSession>, bool), String> {
    let admitted = admit(workload, seed, workload.pass_size())?;
    let warm_count = workload.warmup_count();
    let warm = run_pass(admit(workload, WARMUP_SEED, warm_count)?, workload);
    Ok((admitted, warm.ok == warm_count))
}

/// Whether another pass of the measured phase fits: always below `min`
/// passes, else only if a pass of the mean length so far ends before
/// `budget`.
fn another_pass_fits(started: Instant, passes: usize, min: usize, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    passes < min || elapsed + elapsed / passes.max(1) as u32 <= budget
}

/// Instances re-run under the tracer in an end-to-end run, to compare their
/// digests with the timed run's.
fn digest_check_count(workload: Workload) -> usize {
    match workload {
        Workload::RestrictedLemma1 => 1,
        _ => 20,
    }
}

fn match_word(matched: bool) -> &'static str {
    if matched {
        "match"
    } else {
        "MISMATCH"
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// A message when an instance list cannot be admitted or the service probe
/// fails — neither happens on the generated workloads.
pub fn run(options: Options) -> Result<Outcome, String> {
    // Results are identical at every worker count; pinning it keeps the
    // timings independent of `BVC_GAMMA_WORKERS` and the host's cores.
    set_gamma_workers(1);
    let workload = options.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut notes = vec![format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} pass={} instances",
        workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        workload.pass_size(),
    )];
    let mut outcome = if options.trace {
        per_layer(options, &mut notes)?
    } else {
        end_to_end(options, &mut notes)?
    };
    outcome.notes = notes;
    Ok(outcome)
}

fn end_to_end(options: Options, notes: &mut Vec<String>) -> Result<Outcome, String> {
    let workload = options.workload;
    let per_pass = workload.pass_size();
    // Every pass gets its own set-up and repeats the same list (a session's
    // Γ cache must not carry over) until the run's seconds are spent.  Set-up
    // and instances alike count at their fastest: the host alternates
    // between speeds for seconds at a time, and repetitions spread over the
    // run let each one meet the faster phase.
    let budget = Duration::from_secs(options.seconds);
    let started = Instant::now();
    let mut setup_s = Vec::new();
    let mut runs = Vec::new();
    let mut warm_ok = true;
    while another_pass_fits(started, runs.len(), MIN_PASSES, budget) {
        let start = Instant::now();
        let (list, ok) = setup(workload, options.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        warm_ok &= ok;
        runs.push(run_pass(list, workload));
    }
    let passes = runs.len();
    let repeatable = runs.iter().all(|run| run.digests == runs[0].digests);
    let checked = digest_check_count(workload).min(per_pass);
    let (traced, _) = run_traced(admit(workload, options.seed, checked)?, workload);
    let digests_match = traced.digests[..] == runs[0].digests[..checked];

    let best_ms: Vec<f64> = (0..per_pass)
        .map(|i| {
            runs.iter()
                .map(|run| run.times_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    notes.push(match tail(&best_ms) {
        Some((p, v)) => format!("instance_ms_tail: p{p} {v} ms over {per_pass} samples"),
        None => {
            format!("instance_ms_tail: omitted, {per_pass} samples cannot put ten beyond a tail")
        }
    });
    let pass_s: Vec<String> = runs
        .iter()
        .map(|run| format!("{:.3}", run.total_s()))
        .collect();
    notes.push(format!(
        "passes={passes} x {per_pass} instances, seconds per pass [{}]; set-up seconds [{}]; \
         digests across passes: {}; vs {checked} traced instances: {}",
        pass_s.join(", "),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        match_word(repeatable),
        match_word(digests_match),
    ));
    let timed: usize = runs.iter().map(Pass::len).sum();
    let timed_ok: usize = runs.iter().map(|run| run.ok).sum();
    let attempted = timed + traced.len();
    let ok = timed_ok + traced.ok;
    Ok(Outcome {
        correct: ok == attempted && repeatable && digests_match && warm_ok,
        attempted,
        failed: attempted - ok,
        metrics: with_units(
            &END_TO_END,
            &[
                per_pass as f64 * 1e3 / best_ms.iter().sum::<f64>(),
                median(&best_ms),
                timed_ok as f64 / timed as f64,
                setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                peak_rss_mb(),
            ],
        ),
        notes: Vec::new(),
    })
}

/// Runs the service probe and checks its verdict lines.
fn service_probe(workload: Workload, seed: u64) -> Result<(ServiceStats, bool), String> {
    let service = BvcService::new(workload.service_probe_config(seed))
        .map_err(|e| format!("service admission refused the probe stream: {e}"))?;
    let mut sink = MemorySink::new();
    let stats = service
        .run(&mut sink)
        .map_err(|e| format!("service probe failed: {e}"))?;
    let tolerance = workload.shape().agreement_tolerance();
    let lines = sink.lines();
    let ok = stats.violated == 0
        && lines.len() == stats.instances
        && lines
            .iter()
            .enumerate()
            .all(|(k, line)| service_line_ok(line, k, tolerance));
    Ok((stats, ok))
}

fn per_layer(options: Options, notes: &mut Vec<String>) -> Result<Outcome, String> {
    let workload = options.workload;
    let per_pass = workload.pass_size();
    let (list, warm_ok) = setup(workload, options.seed)?;
    // Untraced and traced passes over the same list alternate for the run's
    // seconds: counts come from the first traced pass, the tracing overhead
    // is the median traced-over-untraced ratio of the pairs.
    let budget = Duration::from_secs(options.seconds);
    let started = Instant::now();
    let plain = run_pass(list, workload);
    let (traced, events) = run_traced(admit(workload, options.seed, per_pass)?, workload);
    let mut overheads = vec![traced.total_s() / plain.total_s()];
    let mut digests_match = traced.digests == plain.digests;
    let mut attempted = plain.len() + traced.len();
    let mut ok = plain.ok + traced.ok;
    while another_pass_fits(started, overheads.len(), 1, budget) {
        let again = run_pass(admit(workload, options.seed, per_pass)?, workload);
        let (again_traced, _) = run_traced(admit(workload, options.seed, per_pass)?, workload);
        digests_match &= again.digests == plain.digests && again_traced.digests == plain.digests;
        overheads.push(again_traced.total_s() / again.total_s());
        attempted += again.len() + again_traced.len();
        ok += again.ok + again_traced.ok;
    }
    // The trace and the public counters see the same Γ queries.
    let counters_match = events.gamma_queries == traced.gamma_queries;
    let (service, service_ok) = service_probe(workload, options.seed)?;
    notes.push(format!(
        "{} untraced/traced pass pairs; digests: {}; trace vs counters Γ queries: {} vs {}; \
         service probe over {} instances: {}",
        overheads.len(),
        match_word(digests_match),
        events.gamma_queries,
        traced.gamma_queries,
        service.instances,
        if service_ok { "ok" } else { "FAILED" },
    ));

    let shape = workload.shape();
    let gamma_shape = events
        .busiest_shape()
        .unwrap_or((shape.n, shape.f, shape.d));
    notes.push(format!("gamma probe shape (|Y|, f, d) = {gamma_shape:?}"));
    let probes = run_probes(&shape, gamma_shape, options.seed);

    let decisions = traced.len() as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let per_decision = |path: GammaPath| events.path(path) as f64 / decisions;
    let values = [
        probes.eig_ms,
        probes.rb_us,
        traced.messages as f64 / decisions,
        traced.steps as f64 / decisions,
        probes.sync_us_per_msg,
        probes.async_us_per_step,
        probes.zi_ms,
        traced.gamma_queries as f64 / decisions,
        ratio(traced.gamma_hits, traced.gamma_queries),
        probes.gamma_hit_us,
        service.cache.cross_instance_hit_rate(),
        per_decision(GammaPath::ProbeHit),
        per_decision(GammaPath::ActiveSetLp),
        per_decision(GammaPath::NaiveFallback),
        per_decision(GammaPath::StreamScan),
        probes.gamma_engine_us,
        events.simplex_solves as f64 / decisions,
        ratio(events.simplex_pivots, events.simplex_solves),
        ratio(events.simplex_reused, events.simplex_solves),
        service.workers.iter().map(|w| w.utilization).sum::<f64>() / service.workers.len() as f64,
        service.queue.mean_depth,
        median(&overheads),
    ];
    attempted += service.instances;
    ok += if service_ok { service.instances } else { 0 };
    Ok(Outcome {
        correct: ok == attempted && digests_match && counters_match && warm_ok,
        attempted,
        failed: attempted - ok,
        metrics: with_units(&PER_LAYER, &values),
        notes: Vec::new(),
    })
}

fn with_units(
    table: &[(&'static str, &'static str)],
    values: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    assert!(values.iter().all(|v| v.is_finite()), "metrics are finite");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| (name, unit, value))
        .collect()
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
