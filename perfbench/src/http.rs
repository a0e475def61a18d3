//! `warm-place-http` and `static-place-http`: pole placement through
//! the real HTTP client against a server running in this process.
//!
//! Each set-up starts an engine (`nproc` workers) and server, connects
//! the clients, pays the shape's cold bundle build and warms the shape;
//! that service then serves the set-up's share of the op list. The
//! timed ops are a closed loop: each client sends its next request when
//! the previous answer arrived, drawing op indices from a shared counter
//! so the op list is fixed whatever the interleaving.

use crate::spans::Recorder;
use crate::stats::{self, Digest};
use crate::{
    derive_seed, finish_report, trace_overhead_pct, within_certified_bound, within_tol, Config,
    Outcome, Phase, PhaseTimes, Report, Threads, Workload, DISTINCT_TOL, SETUPS,
};
use pieri_control::{
    conjugate_pole_set, satellite_plant, solve_dynamic_state_space_with_start,
    verify_closed_loop_ss, StateSpace, SATELLITE_OMEGA,
};
use pieri_core::{root_count, InstanceHomotopy, PMap, Shape, StartBundle};
use pieri_linalg::CMat;
use pieri_num::{seeded_rng, Complex64};
use pieri_service::{wire, Client, Engine, EngineConfig, JobError, JobRequest, JobResult, Server};
use pieri_tracker::TrackSettings;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Seed streams: timed ops, warm-ups, the in-process bundle. The
/// warm-ups ignore the run seed, so every set-up does the same work.
const OPS: u64 = 11;
const WARMUP: u64 = 12;
const BUNDLE: u64 = 13;

/// Answers kept for the traced-run replays and codec timings.
const KEPT: usize = 40;
/// Kept-alive `/healthz` probes in a traced run.
const HEALTH_PROBES: usize = 200;
/// Timed codec rounds over the kept bodies in a traced run.
const CODEC_ROUNDS: usize = 20;

/// The workload's shape of traffic.
struct Plan {
    q: usize,
    clients: usize,
    /// Warm-up requests per client in each set-up.
    warmups: usize,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::WarmPlaceHttp => Plan {
            q: 1,
            clients: 1,
            warmups: 12,
        },
        _ => Plan {
            q: 0,
            clients: crate::sysinfo::nproc(),
            warmups: 96,
        },
    }
}

/// One placement request: the satellite plant with a seeded
/// self-conjugate set of stable poles, drawn as `loadgen` draws them.
struct Placement {
    plant: StateSpace,
    poles: Vec<Complex64>,
    request: JobRequest,
}

fn placement(seed: u64, stream: u64, i: usize, q: usize) -> Placement {
    let op_seed = derive_seed(seed, stream, i as u64);
    let mut rng = seeded_rng(op_seed);
    let plant = satellite_plant(SATELLITE_OMEGA);
    let poles = conjugate_pole_set(plant.dim() + q, &mut rng);
    let request = JobRequest::PlacePoles {
        a: plant.a.clone(),
        b: plant.b.clone(),
        c: plant.c.clone(),
        q,
        poles: poles.clone(),
        seed: op_seed,
        certify: true,
    };
    Placement {
        plant,
        poles,
        request,
    }
}

/// The output checks: a 200 with exactly d(m,p,q) distinct solutions,
/// each certified, the server's residual under the tolerance, and each
/// compensator re-verified here from the wire data alone (closed-loop
/// poles against the requested ones). Two coinciding laws are two
/// paths that ended on one solution: an incomplete answer, so the op
/// fails. A certified law is a wrong answer only when it misses the
/// poles by more than the program's own bound.
fn check(p: &Placement, d: usize, res: &JobResult) -> Outcome {
    let n = res.coeffs.len();
    if res.solutions != n
        || res.compensators.len() != n
        || res.certificates.len() != n
        || res.expected != d as u128
        || n + res.improper + res.failed != d
    {
        return Outcome::Wrong(format!(
            "{n} solutions, {} compensators, {} certificates, {} improper and {} failed \
             paths for d = {d}",
            res.compensators.len(),
            res.certificates.len(),
            res.improper,
            res.failed
        ));
    }
    let mut laws = Vec::with_capacity(n);
    let mut worst: f64 = 0.0;
    for (comp, cert) in res.compensators.iter().zip(&res.certificates) {
        let coeffs: Vec<CMat> = comp
            .u_coeffs
            .iter()
            .zip(&comp.v_coeffs)
            .map(|(u, v)| u.vstack(v))
            .collect();
        let map = PMap::from_coeff_matrices(coeffs);
        let (_, err) = verify_closed_loop_ss(&p.plant, &map, &p.poles);
        if cert.is_certified() && !within_certified_bound(err) {
            return Outcome::Wrong(format!(
                "certified law misses the poles by {err:.2e}, beyond the program's own bound"
            ));
        }
        worst = worst.max(err);
        laws.push(map);
    }
    if n < d {
        return Outcome::Failed(format!(
            "{n} of {d} solutions ({} improper, {} failed paths)",
            res.improper, res.failed
        ));
    }
    let distance = laws
        .iter()
        .enumerate()
        .flat_map(|(i, a)| laws[..i].iter().map(move |b| a.dist(b)))
        .fold(f64::INFINITY, f64::min);
    if distance <= DISTINCT_TOL {
        return Outcome::Failed(format!("two of {n} laws coincide: {distance:.2e} apart"));
    }
    let certified = res.certificates.iter().filter(|c| c.is_certified()).count();
    if certified < d {
        let why = res.certificates.iter().find(|c| !c.is_certified());
        return Outcome::Failed(format!("{certified} of {d} certified: {why:?}"));
    }
    if !within_tol(worst) || !within_tol(res.max_residual) {
        return Outcome::Failed(format!(
            "closed-loop residual {worst:.2e} (server: {:.2e}) over the tolerance",
            res.max_residual
        ));
    }
    Outcome::Good
}

/// What one timed request leaves for the percentiles, the digest and
/// the tracing overhead: one slot per op, in op order.
struct OpSample {
    latency_ms: f64,
    queue_ms: f64,
    solve_ms: f64,
    steps: u64,
    digest: u64,
}

/// What the client threads add up: running totals of the per-op
/// counts, the answers that were not good, and the first [`KEPT`]
/// answers for the traced-run extras.
#[derive(Default)]
struct Tally {
    track_ms: f64,
    newton_iters: u64,
    failed_paths: u64,
    retracked: u64,
    certified: u64,
    refined: u64,
    bad: Vec<(usize, Outcome)>,
    kept: Vec<(usize, JobRequest, JobResult)>,
}

impl Tally {
    /// Checks and counts timed op `i`; returns its sample.
    fn add(
        &mut self,
        i: usize,
        p: Placement,
        d: usize,
        latency: Duration,
        answer: Result<JobResult, JobError>,
    ) -> OpSample {
        let outcome = match &answer {
            Ok(res) => check(&p, d, res),
            Err(e) => Outcome::Failed(format!("{}: {e}", e.kind())),
        };
        if outcome != Outcome::Good {
            self.bad.push((i, outcome));
        }
        let answered = answer.is_ok();
        // An error status returned no figures: they all count as zero.
        let res = answer.unwrap_or_default();
        let t = &res.track;
        self.track_ms += t.total_time.as_secs_f64() * 1e3;
        self.newton_iters += t.total_newton_iters as u64;
        self.failed_paths += t.failed as u64;
        self.retracked += t.retracked as u64;
        self.certified += res.certificates.iter().filter(|c| c.is_certified()).count() as u64;
        self.refined += res.certificates.iter().filter(|c| c.refined).count() as u64;
        let sample = OpSample {
            latency_ms: latency.as_secs_f64() * 1e3,
            queue_ms: res.queue_wait.as_secs_f64() * 1e3,
            solve_ms: res.solve_time.as_secs_f64() * 1e3,
            steps: t.total_steps as u64,
            digest: Digest::of(&res.coeffs),
        };
        if answered && i < KEPT {
            self.kept.push((i, p.request, res));
        }
        sample
    }

    fn merge(&mut self, other: Tally) {
        self.track_ms += other.track_ms;
        self.newton_iters += other.newton_iters;
        self.failed_paths += other.failed_paths;
        self.retracked += other.retracked;
        self.certified += other.certified;
        self.refined += other.refined;
        self.bad.extend(other.bad);
        self.kept.extend(other.kept);
    }
}

/// A running engine and server with connected clients.
struct Service {
    server: Server,
    clients: Vec<Client>,
    bundle_build_ms: f64,
}

impl Service {
    fn stop(self) {
        let engine = Arc::clone(self.server.engine());
        self.server.shutdown();
        engine.shutdown();
    }

    /// `/v1/stats` counters, by path (`"cache.hits"`).
    fn stat(&self, path: &str) -> f64 {
        let Ok((200, body)) = self.clients[0].get("/v1/stats") else {
            return f64::NAN;
        };
        path.split('.')
            .try_fold(&body, |v, key| v.get(key))
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    }
}

/// Starts engine and server, connects the clients, builds the shape's
/// bundle with one cold request and warms it up.
fn set_up(plan: &Plan, k: usize, report: &mut Report) -> Service {
    let d = root_count(2, 2, plan.q) as usize;
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: crate::sysinfo::nproc(),
        ..EngineConfig::default()
    }));
    let server = Server::start("127.0.0.1:0", engine).expect("bind an ephemeral local port");
    let clients: Vec<Client> = (0..plan.clients)
        .map(|_| Client::new(server.addr()).expect("resolve the server address"))
        .collect();
    // A probe is no answer: a service that is not up shows in the ops.
    for client in &clients {
        if !client.health() {
            report.note(format!("set-up {k}: /healthz did not answer 200"));
        }
    }
    let mut bundle_build_ms = 0.0;
    for (c, client) in clients.iter().enumerate() {
        for w in 0..plan.warmups {
            let i = (k * plan.clients + c) * plan.warmups + w;
            let p = placement(0, WARMUP, i, plan.q);
            let outcome = match client.solve(&p.request) {
                Ok(res) => {
                    if !res.cache_hit {
                        bundle_build_ms += res.bundle_build.as_secs_f64() * 1e3;
                    }
                    check(&p, d, &res)
                }
                Err(e) => Outcome::Failed(format!("{}: {e}", e.kind())),
            };
            report.outcome(&format!("set-up {k} warm-up {i}"), outcome, false);
        }
    }
    Service {
        server,
        clients,
        bundle_build_ms,
    }
}

/// Runs the workload: each set-up starts a fresh service, which then
/// serves that set-up's share of the timed ops.
pub fn run(cfg: &Config, started: Instant) -> Report {
    let mut report = Report::default();
    let plan = plan(cfg.workload);
    let d = root_count(2, 2, plan.q) as usize;
    let rec = Recorder::default();

    let slots: Vec<OnceLock<OpSample>> = (0..cfg.ops).map(|_| OnceLock::new()).collect();
    let mut tally = Tally::default();
    let (mut setups, mut bundle_ms) = (Vec::new(), Vec::new());
    let (mut rejected, mut shed, mut hits, mut misses) = (0.0, 0.0, 0.0, 0.0);
    let mut times = PhaseTimes::default();
    let mut service = None;
    for k in 0..SETUPS {
        if let Some(old) = service.take() {
            Service::stop(old);
        }
        let t0 = if k == 0 { started } else { Instant::now() };
        let s = set_up(&plan, k, &mut report);
        setups.push(t0.elapsed().as_secs_f64());
        bundle_ms.push(s.bundle_build_ms);
        let (rejected0, shed0) = (s.stat("rejected"), s.stat("shed"));

        let chunk = cfg.chunk(k);
        let next = AtomicUsize::new(chunk.start);
        let phase = Phase::start(&times);
        let tallies: Vec<Tally> = std::thread::scope(|scope| {
            let workers: Vec<_> = s
                .clients
                .iter()
                .map(|client| {
                    let (next, slots, rec, phase) = (&next, &slots, &rec, &phase);
                    let end = chunk.end;
                    scope.spawn(move || {
                        let mut mine = Tally::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= end || phase.over(cfg) {
                                return mine;
                            }
                            let p = placement(cfg.seed, OPS, i, plan.q);
                            let t0 = Instant::now();
                            let answer = client.solve(&p.request);
                            let t1 = Instant::now();
                            if cfg.trace && i % 2 == 1 {
                                trace_op(rec, i, t0, t1, answer.as_ref().ok());
                            }
                            let sample = mine.add(i, p, d, t1 - t0, answer);
                            let _ = slots[i].set(sample);
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let over = phase.over(cfg);
        phase.finish(&mut times);
        tallies.into_iter().for_each(|t| tally.merge(t));
        rejected += s.stat("rejected") - rejected0;
        shed += s.stat("shed") - shed0;
        hits += s.stat("cache.hits");
        misses += s.stat("cache.misses");
        service = Some(s);
        if over {
            break;
        }
    }
    let service = service.expect("at least one set-up ran");

    let samples: Vec<OpSample> = slots.into_iter().filter_map(OnceLock::into_inner).collect();
    let mut digest = Digest::default();
    samples.iter().for_each(|s| digest.word(s.digest));
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let mut bad = std::mem::take(&mut tally.bad);
    bad.sort_by_key(|(i, _)| *i);
    let ok = samples.len() - bad.len();
    for (i, outcome) in bad {
        report.outcome(&format!("op {i}"), outcome, true);
    }
    report.attempted = samples.len();
    report.digest = digest.value();
    finish_report(
        &mut report,
        cfg,
        &latencies,
        ok,
        &setups,
        &times,
        Threads {
            solvers: ("engine_workers", crate::sysinfo::nproc()),
            clients: plan.clients,
        },
    );
    layer_metrics(&mut report, &samples, &tally, d);
    let layer = &mut report.per_layer;
    layer.insert("service.engine.rejected", rejected);
    layer.insert("service.engine.shed", shed);
    layer.insert("service.cache.hits", hits);
    layer.insert("service.cache.misses", misses);
    layer.insert(
        "service.cache.bundle_build_ms",
        stats::median(&mut bundle_ms),
    );

    if cfg.trace {
        let steps: Vec<u64> = samples.iter().map(|s| s.steps).collect();
        let overhead = trace_overhead_pct(&latencies, &steps);
        report.per_layer.insert("trace.overhead_pct", overhead);
        tally.kept.sort_by_key(|(i, ..)| *i);
        traced_extras(cfg, &plan, &service, &tally.kept, &rec, &mut report);
        report.spans = Some(rec.to_json());
    }
    Service::stop(service);
    report
}

/// Spans of one traced request: the client call, with the engine's
/// reported queue wait and execution (and the tracker's share of it)
/// as children between the transport legs.
fn trace_op(rec: &Recorder, op: usize, t0: Instant, t1: Instant, res: Option<&JobResult>) {
    let root = rec.record("Client::solve", op, None, t0, t1);
    let Some(res) = res else { return };
    let server = res.queue_wait + res.solve_time;
    let transport = (t1 - t0).saturating_sub(server) / 2;
    rec.child("engine.queue_wait", root, transport, res.queue_wait);
    let solve = rec.child(
        "engine.solve",
        root,
        transport + res.queue_wait,
        res.solve_time,
    );
    rec.child("track", solve, Duration::ZERO, res.track.total_time);
    rec.count("track.steps", res.track.total_steps as f64);
    rec.count("track.newton_iters", res.track.total_newton_iters as f64);
    rec.count("track.paths", res.track.total() as f64);
}

/// Per-layer metrics computed from what the program returned.
fn layer_metrics(report: &mut Report, samples: &[OpSample], tally: &Tally, d: usize) {
    let ops = samples.len().max(1) as f64;
    let collect = |f: fn(&OpSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let mut queue = collect(|s| s.queue_ms);
    let mut solve = collect(|s| s.solve_ms);
    let mut overhead = collect(|s| s.latency_ms - s.queue_ms - s.solve_ms);
    let solve_ms: f64 = solve.iter().sum();
    let latency_ms: f64 = samples.iter().map(|s| s.latency_ms).sum();

    let counts = &mut report.counts;
    counts.tracker_steps = samples.iter().map(|s| s.steps).sum();
    counts.newton_iters = tally.newton_iters;
    counts.certified_roots = tally.certified;
    let layer = &mut report.per_layer;
    layer.insert("tracker.steps_per_op", counts.tracker_steps as f64 / ops);
    layer.insert(
        "tracker.newton_iters_per_op",
        counts.newton_iters as f64 / ops,
    );
    layer.insert("linalg.calls_per_op", counts.newton_iters as f64 / ops);
    layer.insert("tracker.failed_paths", tally.failed_paths as f64);
    layer.insert("tracker.retracked_paths", tally.retracked as f64);
    layer.insert("tracker.share", tally.track_ms / latency_ms);
    layer.insert(
        "certify.certified_share",
        counts.certified_roots as f64 / (ops * d as f64),
    );
    layer.insert("certify.refined_per_op", tally.refined as f64 / ops);
    layer.insert("control.other_ms_per_op", (solve_ms - tally.track_ms) / ops);
    layer.insert(
        "service.engine.queue_wait_ms_p50",
        stats::percentile(&mut queue, 0.5),
    );
    layer.insert(
        "service.engine.queue_wait_ms_p90",
        stats::percentile(&mut queue, 0.9),
    );
    layer.insert("service.engine.solve_ms_p50", stats::median(&mut solve));
    layer.insert(
        "service.http.overhead_ms_p50",
        stats::percentile(&mut overhead, 0.5),
    );
    layer.insert(
        "service.http.overhead_ms_p90",
        stats::percentile(&mut overhead, 0.9),
    );
}

/// Traced-run extras, after the timed phase: in-process `Engine::run`
/// replays (bitwise equal to the HTTP answers), the wire codec on the
/// workload's own bodies, kept-alive `/healthz`, and timed
/// `eval_and_jacobian` calls on the workload's continuation homotopy.
fn traced_extras(
    cfg: &Config,
    plan: &Plan,
    service: &Service,
    kept: &[(usize, JobRequest, JobResult)],
    rec: &Recorder,
    report: &mut Report,
) {
    // The wire carries no per-path times; in-process replays of the
    // same requests on the same engine return them.
    let engine = service.server.engine();
    let mut path_ms = Vec::new();
    for &(i, ref req, ref http) in kept {
        let t0 = Instant::now();
        let local = engine.run(req.clone());
        rec.record("Engine::run", i, None, t0, Instant::now());
        if let Ok(local) = &local {
            path_ms.extend(local.track.path_times.iter().map(|s| s * 1e3));
        }
        match local {
            Ok(local) if Digest::of(&local.coeffs) == Digest::of(&http.coeffs) => {}
            Ok(_) => report.wrong_answer(format!("op {i}: in-process answer differs from HTTP")),
            Err(e) => report.wrong_answer(format!("op {i}: in-process replay failed: {e}")),
        }
    }

    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for round in 0..CODEC_ROUNDS {
        for &(i, ref req, ref res) in kept {
            let t0 = Instant::now();
            let req_body = wire::request_to_json(black_box(req)).serialize();
            let res_body = wire::result_to_json(black_box(res)).serialize();
            let t1 = Instant::now();
            let req_back = minijson::parse(&req_body).map(|v| wire::request_from_json(&v));
            let res_back = minijson::parse(&res_body).map(|v| wire::result_from_json(&v));
            let t2 = Instant::now();
            if round == 0 && !matches!((&req_back, &res_back), (Ok(Ok(_)), Ok(Ok(_)))) {
                report.wrong_answer(format!("op {i}: wire bodies did not decode"));
            }
            drop(black_box((req_back, res_back)));
            rec.record("wire.encode", i, None, t0, t1);
            rec.record("wire.decode", i, None, t1, t2);
            enc.push((t1 - t0).as_secs_f64() * 1e6);
            dec.push((t2 - t1).as_secs_f64() * 1e6);
            if round == 0 {
                bytes += req_body.len() + res_body.len();
            }
        }
    }

    let client = &service.clients[0];
    let (mut health, mut down) = (Vec::with_capacity(HEALTH_PROBES), 0);
    for i in 0..HEALTH_PROBES {
        let t0 = Instant::now();
        let up = client.health();
        let t1 = Instant::now();
        rec.record("Client::health", i, None, t0, t1);
        down += usize::from(!up);
        health.push((t1 - t0).as_secs_f64() * 1e6);
    }
    if down > 0 {
        report.note(format!(
            "{down} of {HEALTH_PROBES} kept-alive /healthz probes did not answer 200"
        ));
    }

    // The continuation homotopy of op 0, from an in-process bundle of
    // the same shape: sampled at the start points and at the tracked
    // end points.
    let settings = TrackSettings::default();
    let shape = Shape::new(2, 2, plan.q);
    let bundle = StartBundle::build(
        shape,
        &mut seeded_rng(derive_seed(cfg.seed, BUNDLE, 0)),
        &settings,
    );
    let p = placement(cfg.seed, OPS, 0, plan.q);
    let JobRequest::PlacePoles { seed, .. } = p.request else {
        unreachable!("placements are PlacePoles requests")
    };
    let (_, cont, target) = solve_dynamic_state_space_with_start(
        &p.plant,
        plan.q,
        &p.poles,
        &mut seeded_rng(seed),
        &bundle,
        &settings,
    );
    let homotopy = InstanceHomotopy::new(bundle.problem(), &target);
    let points: Vec<(Vec<Complex64>, f64)> = bundle
        .coeffs()
        .iter()
        .map(|x| (x.clone(), 0.0))
        .chain(cont.coeffs.iter().map(|x| (x.clone(), 1.0)))
        .collect();
    let eval_us = crate::time_eval_jac(&homotopy, &points, rec);

    let n = kept.len().max(1) as f64;
    let layer = &mut report.per_layer;
    layer.insert("service.wire.encode_us", stats::median(&mut enc));
    layer.insert("service.wire.decode_us", stats::median(&mut dec));
    layer.insert("service.wire.bytes_per_op", bytes as f64 / n);
    layer.insert("service.http.healthz_us", stats::median(&mut health));
    layer.insert("linalg.eval_jac_us", eval_us);
    layer.insert("tracker.path_ms_p50", stats::percentile(&mut path_ms, 0.5));
    layer.insert("tracker.path_ms_p90", stats::percentile(&mut path_ms, 0.9));
}
