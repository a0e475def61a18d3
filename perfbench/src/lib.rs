//! End-to-end and per-layer benchmark of the Pieri stack.
//!
//! Three closed-loop workloads, each a fixed seeded operation list:
//!
//! * `cold-tree-222` — fresh generic (2,2,2) instances, each solved
//!   in-process with `Poset::build`, `solve_tree_parallel_prepared` and
//!   `certify_roots`;
//! * `warm-place-http` — one kept-alive client asking an in-process
//!   server for all 8 dynamic (q = 1) feedback laws of the satellite
//!   plant at seeded poles, certified;
//! * `static-place-http` — `nproc` clients saturating the engine's
//!   workers with certified static (q = 0) placements.
//!
//! Every answer is checked: exactly `d(m,p,q)` distinct solutions, all
//! certified, residuals under [`RESIDUAL_TOL`]. The benchmark only
//! calls the crates' public functions and reads what they return;
//! `WORKLOADS.md` beside this crate explains each workload and metric.

mod cold;
mod http;
mod spans;
mod stats;
mod sysinfo;

use minijson::{object, Value};
use pieri_linalg::CMat;
use pieri_num::Complex64;
use pieri_tracker::{Homotopy, HomotopyScratch};
use spans::Recorder;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Largest accepted residual: intersection conditions for raw Pieri
/// solves, closed-loop characteristic residual for placements.
pub const RESIDUAL_TOL: f64 = 1e-8;

/// True when `x` is under [`RESIDUAL_TOL`] (false for NaN).
pub(crate) fn within_tol(x: f64) -> bool {
    x < RESIDUAL_TOL
}

/// True when a solution the program marked certified is at most the
/// program's own bound off: `CertifyPolicy::full().pole_residual_tol`
/// (1e-6), above which the control layer downgrades a law to `Suspect`
/// (false for NaN). A certified solution further off contradicts its
/// certificate; one between [`RESIDUAL_TOL`] and this bound keeps the
/// program's promise but misses the benchmark's, so its op fails.
pub(crate) fn within_certified_bound(x: f64) -> bool {
    x <= pieri_certify::CertifyPolicy::full().pole_residual_tol
}

/// Distinct solutions must lie further apart than this (max norm of
/// their coefficient difference); closer ones are two paths that ended
/// on the same root.
pub const DISTINCT_TOL: f64 = 1e-5;

/// Fewest timed operations in a run, so that the nearest-rank p90
/// rests on at least ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Set-ups per run, each followed by its share of the timed ops, so the
/// set-ups sample the host across the run as the ops do; `setup_s` is
/// their median.
pub const SETUPS: usize = 5;

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process cold (2,2,2) Pieri-tree solves.
    ColdTree222,
    /// Dynamic (q = 1) placements over HTTP, one client.
    WarmPlaceHttp,
    /// Static (q = 0) placements over HTTP, `nproc` clients.
    StaticPlaceHttp,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdTree222,
        Workload::WarmPlaceHttp,
        Workload::StaticPlaceHttp,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTree222 => "cold-tree-222",
            Workload::WarmPlaceHttp => "warm-place-http",
            Workload::StaticPlaceHttp => "static-place-http",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per second of `--seconds` on a 2-core host while the
    /// host runs at its usual, not its fastest, speed; sizes the fixed
    /// op list of a run.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::ColdTree222 => 3.0,
            Workload::WarmPlaceHttp => 20.0,
            Workload::StaticPlaceHttp => 500.0,
        }
    }

    /// Length of the op list for a run of about `seconds` seconds.
    pub fn ops_for(self, seconds: u64) -> usize {
        ((seconds as f64 * self.nominal_rate()) as usize).max(MIN_OPS)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the operation list (inputs are a function of it).
    pub seed: u64,
    /// Nominal run length; sizes `ops` and caps the timed phase.
    pub seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Timed operations.
    pub ops: usize,
}

impl Config {
    /// The standard run: ops sized from `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            ops: workload.ops_for(seconds),
        }
    }

    /// Wall-clock budget of the timed phase: a slow host stops early
    /// rather than overrun, and reports the ops it attempted.
    fn time_cap(&self) -> Duration {
        Duration::from_secs((2 * self.seconds).clamp(60, 120))
    }

    /// The timed ops that follow set-up `k`.
    pub(crate) fn chunk(&self, k: usize) -> std::ops::Range<usize> {
        self.ops * k / SETUPS..self.ops * (k + 1) / SETUPS
    }
}

/// End-to-end metrics (timed runs), `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("goodput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), `(name, unit)`. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("linalg.eval_jac_us", "us"),
    ("linalg.calls_per_op", "count"),
    ("tracker.steps_per_op", "count"),
    ("tracker.newton_iters_per_op", "count"),
    ("tracker.failed_paths", "count"),
    ("tracker.retracked_paths", "count"),
    ("tracker.path_ms_p50", "ms"),
    ("tracker.path_ms_p90", "ms"),
    ("tracker.share", "ratio"),
    ("core.poset_build_us", "us"),
    ("core.jobs_per_op", "count"),
    ("parallel.efficiency", "ratio"),
    ("parallel.speedup", "ratio"),
    ("parallel.busy_inflation", "ratio"),
    ("parallel.messages_per_op", "count"),
    ("parallel.idle_parks_per_op", "count"),
    ("parallel.reactivations_per_op", "count"),
    ("parallel.peak_queue", "count"),
    ("certify.certified_share", "ratio"),
    ("certify.refined_per_op", "count"),
    ("certify.ms_per_op", "ms"),
    ("control.other_ms_per_op", "ms"),
    ("service.engine.queue_wait_ms_p50", "ms"),
    ("service.engine.queue_wait_ms_p90", "ms"),
    ("service.engine.solve_ms_p50", "ms"),
    ("service.engine.rejected", "count"),
    ("service.engine.shed", "count"),
    ("service.http.overhead_ms_p50", "ms"),
    ("service.http.overhead_ms_p90", "ms"),
    ("service.http.healthz_us", "us"),
    ("service.wire.encode_us", "us"),
    ("service.wire.decode_us", "us"),
    ("service.wire.bytes_per_op", "bytes"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.cache.bundle_build_ms", "ms"),
    ("process.cpu_ms_per_op", "ms"),
    ("process.cores_busy", "ratio"),
    ("process.steal_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Counts that must repeat exactly for a given seed and op list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Accepted tracker steps over the timed ops.
    pub tracker_steps: u64,
    /// Newton iterations (timed ops over HTTP; the replayed trees for
    /// `cold-tree-222`, traced runs only).
    pub newton_iters: u64,
    /// Pieri-tree jobs over the timed ops (0 over HTTP).
    pub tree_jobs: u64,
    /// Certified roots over the timed ops.
    pub certified_roots: u64,
}

/// How one answer fared against the output checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Exactly d(m,p,q) distinct certified solutions under the
    /// tolerance.
    Good,
    /// An incomplete or inexact answer: fewer solutions with the rest
    /// counted as failed or diverged paths, two solutions that coincide
    /// (paths that ended on the same root), certificates the program
    /// marked suspect, a residual over [`RESIDUAL_TOL`] but within the
    /// program's own bound, or an error status. Not goodput.
    Failed(String),
    /// An answer that contradicts itself or its verification: solutions
    /// missing without being accounted for, or a solution marked
    /// certified whose residual or closed-loop check exceeds the
    /// program's own bound (see [`within_certified_bound`]).
    Wrong(String),
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: usize,
    /// Attempted operations that did not return a complete, certified
    /// answer ([`Outcome::Failed`] or [`Outcome::Wrong`]).
    pub failed: usize,
    /// Wrong answers, warm-ups and traced-run replays included; any
    /// makes the run incorrect.
    pub wrong: usize,
    /// Descriptions of the first few failed or wrong answers.
    pub errors: Vec<String>,
    /// Hash of every timed op's solution coefficients, in op order.
    pub digest: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Exact counts for the self-test.
    pub counts: ExactCounts,
    /// Run metadata.
    pub meta: Vec<(&'static str, Value)>,
    /// Recorded spans (traced runs).
    pub spans: Option<Value>,
}

impl Report {
    /// True when ops ran and no answer was wrong.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// Keeps the first few descriptions of failed or wrong answers, and
    /// of service probes that did not answer.
    fn note(&mut self, what: String) {
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Records a wrong answer outside the timed ops (warm-up, replay,
    /// codec round trip).
    pub(crate) fn wrong_answer(&mut self, what: String) {
        self.wrong += 1;
        self.note(format!("wrong: {what}"));
    }

    /// Accounts one answer: `timed` ones count towards `failed`.
    pub(crate) fn outcome(&mut self, what: &str, outcome: Outcome, timed: bool) {
        match outcome {
            Outcome::Good => {}
            Outcome::Failed(e) => {
                self.failed += usize::from(timed);
                self.note(format!("failed: {what}: {e}"));
            }
            Outcome::Wrong(e) => {
                self.failed += usize::from(timed);
                self.wrong_answer(format!("{what}: {e}"));
            }
        }
    }

    /// The result object: end-to-end metrics for timed runs, per-layer
    /// metrics for traced ones, each with its unit.
    pub fn result_json(&self, trace: bool) -> Value {
        let (names, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name.to_string(),
                    object([("value", Value::Number(v)), ("unit", Value::from(unit))]),
                )
            })
            .collect();
        object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// The line printed before the result: workload, digest, metadata,
    /// failed checks and (in traced runs) the end-to-end figures too.
    pub fn meta_json(&self, cfg: &Config) -> Value {
        let mut fields = vec![
            ("workload".to_string(), Value::from(cfg.workload.name())),
            ("seed".to_string(), Value::Number(cfg.seed as f64)),
            ("trace".to_string(), Value::Bool(cfg.trace)),
            (
                "digest".to_string(),
                Value::from(format!("{:016x}", self.digest)),
            ),
        ];
        fields.extend(self.meta.iter().map(|(k, v)| (k.to_string(), v.clone())));
        let counts = &self.counts;
        fields.push((
            "exact_counts".to_string(),
            object([
                ("tracker_steps", Value::Number(counts.tracker_steps as f64)),
                ("newton_iters", Value::Number(counts.newton_iters as f64)),
                ("tree_jobs", Value::Number(counts.tree_jobs as f64)),
                (
                    "certified_roots",
                    Value::Number(counts.certified_roots as f64),
                ),
            ]),
        ));
        if cfg.trace {
            let e2e = self
                .end_to_end
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Number(*v)))
                .collect();
            fields.push(("end_to_end".to_string(), Value::Object(e2e)));
        }
        fields.push(("wrong".to_string(), Value::from(self.wrong)));
        fields.push((
            "errors".to_string(),
            Value::Array(
                self.errors
                    .iter()
                    .map(|e| Value::from(e.as_str()))
                    .collect(),
            ),
        ));
        Value::Object(vec![("perfbench".to_string(), Value::Object(fields))])
    }
}

/// Runs one workload. `started` is when the process began; the first
/// set-up is timed from it.
pub fn run(cfg: &Config, started: Instant) -> Report {
    match cfg.workload {
        Workload::ColdTree222 => cold::run(cfg, started),
        Workload::WarmPlaceHttp | Workload::StaticPlaceHttp => http::run(cfg, started),
    }
}

/// Tracing overhead of a traced run, in percent: odd ops ran with the
/// recorder on, even ops without. Ops are different inputs, so each
/// latency (ms, op order) is first divided by the op's exact tracker
/// step count; ops without steps (error statuses) are left out.
pub(crate) fn trace_overhead_pct(latencies: &[f64], steps: &[u64]) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (i, (&l, &n)) in latencies.iter().zip(steps).enumerate() {
        if n > 0 {
            if i % 2 == 1 { &mut on } else { &mut off }.push(l / n as f64);
        }
    }
    100.0 * (stats::median(&mut on) / stats::median(&mut off) - 1.0)
}

/// Derives the seed of item `i` of stream `stream` from the run seed
/// (SplitMix64), kept below 2⁵³ so it survives the JSON wire format.
pub(crate) fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}

/// Wall, CPU and steal time of one stretch of timed ops.
pub(crate) struct Phase {
    start: Instant,
    cpu: f64,
    steal: f64,
    /// Wall time of the timed ops before this stretch.
    before: Duration,
}

/// What the timed stretches measured, summed.
#[derive(Default)]
pub(crate) struct PhaseTimes {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Phase {
    /// Starts a stretch that follows the stretches summed in `before`.
    pub fn start(before: &PhaseTimes) -> Phase {
        Phase {
            cpu: sysinfo::cpu_seconds(),
            steal: sysinfo::steal_seconds(),
            before: Duration::from_secs_f64(before.wall_s),
            start: Instant::now(),
        }
    }

    /// True once the timed ops, this stretch included, have used up
    /// the run's wall-clock budget.
    pub fn over(&self, cfg: &Config) -> bool {
        self.before + self.start.elapsed() > cfg.time_cap()
    }

    /// Adds this stretch to `times`.
    pub fn finish(self, times: &mut PhaseTimes) {
        times.wall_s += self.start.elapsed().as_secs_f64();
        times.cpu_s += sysinfo::cpu_seconds() - self.cpu;
        times.steal_s += sysinfo::steal_seconds() - self.steal;
    }
}

/// The threads a workload runs: who solves (`"tree_workers"` or
/// `"engine_workers"`, with their count) and how many client threads
/// generate load.
pub(crate) struct Threads {
    pub solvers: (&'static str, usize),
    pub clients: usize,
}

/// Fills the end-to-end metrics and the shared metadata and process
/// metrics from the timed phase: per-op latencies (ms, op order), ops
/// that passed, set-up durations (s) and the summed phase times.
pub(crate) fn finish_report(
    report: &mut Report,
    cfg: &Config,
    latencies: &[f64],
    ok: usize,
    setups: &[f64],
    phase: &PhaseTimes,
    threads: Threads,
) {
    let mut lat = latencies.to_vec();
    let e2e = &mut report.end_to_end;
    e2e.insert("goodput_per_s", ok as f64 / phase.wall_s);
    e2e.insert("latency_p50_ms", stats::percentile(&mut lat, 0.5));
    e2e.insert("latency_p90_ms", stats::percentile(&mut lat, 0.9));
    e2e.insert("setup_s", stats::median(&mut setups.to_vec()));
    e2e.insert("peak_rss_mb", sysinfo::peak_rss_mb());

    let ops = latencies.len().max(1) as f64;
    let layer = &mut report.per_layer;
    layer.insert("process.cpu_ms_per_op", phase.cpu_s * 1e3 / ops);
    layer.insert("process.cores_busy", phase.cpu_s / phase.wall_s);
    layer.insert("process.steal_s", phase.steal_s);

    report.meta.extend([
        ("ops", Value::from(latencies.len())),
        ("seconds", Value::Number(cfg.seconds as f64)),
        (
            "samples_beyond_p90",
            Value::from(stats::beyond(latencies.len(), 0.9)),
        ),
        (
            "setups_s",
            Value::Array(setups.iter().copied().map(Value::Number).collect()),
        ),
        ("wall_s", Value::Number(phase.wall_s)),
        ("cpu_s", Value::Number(phase.cpu_s)),
        ("steal_s", Value::Number(phase.steal_s)),
        ("nproc", Value::from(sysinfo::nproc())),
        ("pool_threads", Value::from(rayon::current_num_threads())),
        (threads.solvers.0, Value::from(threads.solvers.1)),
        ("client_threads", Value::from(threads.clients)),
        ("rustc", Value::from(env!("PERFBENCH_RUSTC"))),
        ("build", pieri_service::wire::build_info_json()),
    ]);
}

/// Median µs of single fused `eval_and_jacobian` calls at `points`,
/// over several rounds.
pub(crate) fn time_eval_jac<H: Homotopy>(
    h: &H,
    points: &[(Vec<Complex64>, f64)],
    rec: &Recorder,
) -> f64 {
    const ROUNDS: usize = 20;
    let n = h.dim();
    let mut fx = vec![Complex64::ZERO; n];
    let mut jac = CMat::zeros(n, n);
    let mut scratch = HomotopyScratch::new();
    let mut samples = Vec::with_capacity(ROUNDS * points.len());
    for _ in 0..ROUNDS {
        for (i, (x, t)) in points.iter().enumerate() {
            let t0 = Instant::now();
            h.eval_and_jacobian(black_box(x), *t, &mut fx, &mut jac, &mut scratch);
            let t1 = Instant::now();
            black_box((&fx, &jac));
            rec.record("eval_and_jacobian", i, None, t0, t1);
            samples.push((t1 - t0).as_secs_f64() * 1e6);
        }
    }
    stats::median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certified_residuals_between_the_tolerances_fail_without_being_wrong() {
        assert!(within_tol(1e-9) && within_certified_bound(1e-9));
        // Over the benchmark's tolerance, within the program's bound:
        // a failed op, not a contradiction.
        assert!(!within_tol(5e-7) && within_certified_bound(5e-7));
        assert!(!within_certified_bound(2e-6));
        assert!(!within_tol(f64::NAN) && !within_certified_bound(f64::NAN));
    }
}
