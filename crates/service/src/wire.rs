//! JSON wire codec for jobs, results and diagnostics.
//!
//! Conventions (also documented in the README's endpoint table):
//!
//! * complex number — two-element array `[re, im]`;
//! * matrix — array of rows, each row an array of complex numbers;
//! * matrix polynomial — array of coefficient matrices `[M₀, M₁, …]`;
//! * durations — milliseconds as JSON numbers;
//! * seeds — JSON numbers, restricted to integers below 2⁵³ (the exactly
//!   representable range of an IEEE double);
//! * errors — `{"error": {"kind": "...", "message": "..."}}` with the
//!   stable kind tags of [`JobError::kind`].
//!
//! Every decoder validates shape (rectangularity, finite numbers) and
//! returns [`WireError`] — malformed bytes can never panic the server.

use crate::cache::CacheStats;
use crate::engine::{CertifyCounters, EngineStats};
use crate::job::{CompensatorAnswer, JobError, JobRequest, JobResult};
use minijson::{object, JsonError, Value};
use pieri_certify::{Certificate, Verdict};
use pieri_linalg::CMat;
use pieri_num::Complex64;
use pieri_tracker::TrackStats;
use std::fmt;
use std::time::Duration;

/// A wire-format violation (parse error or schema mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError(e.to_string())
    }
}

impl From<WireError> for JobError {
    fn from(e: WireError) -> Self {
        JobError::InvalidRequest(e.0)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    v.get(key)
        .ok_or_else(|| WireError(format!("missing field {key:?}")))
}

fn num(v: &Value, what: &str) -> Result<f64, WireError> {
    v.as_f64()
        .ok_or_else(|| WireError(format!("{what} must be a number")))
}

fn uint(v: &Value, what: &str) -> Result<usize, WireError> {
    v.as_usize()
        .ok_or_else(|| WireError(format!("{what} must be a non-negative integer")))
}

fn seed(v: &Value, what: &str) -> Result<u64, WireError> {
    v.as_u64()
        .ok_or_else(|| WireError(format!("{what} must be an integer below 2^53")))
}

/// Optional boolean: absent decodes as `false` (the wire's `certify`
/// flag predates some clients), present must be a boolean.
fn opt_bool(v: &Value, key: &str) -> Result<bool, WireError> {
    match v.get(key) {
        None => Ok(false),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| WireError(format!("{key} must be a boolean"))),
    }
}

/// Optional counter: absent decodes as `0` — the certification fields
/// postdate the PR-3/PR-4 wire format, and a new client must keep
/// decoding an old server's responses during a rolling upgrade.
fn opt_uint(v: &Value, key: &str) -> Result<usize, WireError> {
    match v.get(key) {
        None => Ok(0),
        Some(n) => uint(n, key),
    }
}

// ---- complex / matrix / polynomial ------------------------------------

/// `z → [re, im]`.
pub fn complex_to_json(z: Complex64) -> Value {
    Value::Array(vec![Value::Number(z.re), Value::Number(z.im)])
}

/// `[re, im] → z`, finite components required.
pub fn complex_from_json(v: &Value) -> Result<Complex64, WireError> {
    let items = v
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| WireError("complex number must be a [re, im] pair".into()))?;
    let re = num(&items[0], "re")?;
    let im = num(&items[1], "im")?;
    if !re.is_finite() || !im.is_finite() {
        return Err(WireError("complex components must be finite".into()));
    }
    Ok(Complex64::new(re, im))
}

/// Matrix → array of rows of `[re, im]` pairs.
pub fn mat_to_json(m: &CMat) -> Value {
    Value::Array(
        (0..m.rows())
            .map(|i| Value::Array((0..m.cols()).map(|j| complex_to_json(m[(i, j)])).collect()))
            .collect(),
    )
}

/// Array of rows → matrix; rejects empty or ragged input.
pub fn mat_from_json(v: &Value) -> Result<CMat, WireError> {
    let rows = v
        .as_array()
        .ok_or_else(|| WireError("matrix must be an array of rows".into()))?;
    if rows.is_empty() {
        return Err(WireError("matrix must have at least one row".into()));
    }
    let mut data: Vec<Vec<Complex64>> = Vec::with_capacity(rows.len());
    let mut width = None;
    for (i, row) in rows.iter().enumerate() {
        let entries = row
            .as_array()
            .ok_or_else(|| WireError(format!("matrix row {i} must be an array")))?;
        match width {
            None => {
                if entries.is_empty() {
                    return Err(WireError("matrix rows must be non-empty".into()));
                }
                width = Some(entries.len());
            }
            Some(w) if w != entries.len() => {
                return Err(WireError(format!(
                    "ragged matrix: row {i} has {} entries, expected {w}",
                    entries.len()
                )))
            }
            Some(_) => {}
        }
        data.push(
            entries
                .iter()
                .map(complex_from_json)
                .collect::<Result<_, _>>()?,
        );
    }
    Ok(CMat::from_rows(&data))
}

fn matpoly_to_json(coeffs: &[CMat]) -> Value {
    Value::Array(coeffs.iter().map(mat_to_json).collect())
}

fn matpoly_from_json(v: &Value, what: &str) -> Result<Vec<CMat>, WireError> {
    let items = v
        .as_array()
        .ok_or_else(|| WireError(format!("{what} must be an array of matrices")))?;
    items.iter().map(mat_from_json).collect()
}

pub(crate) fn complex_vec_to_json(zs: &[Complex64]) -> Value {
    Value::Array(zs.iter().map(|&z| complex_to_json(z)).collect())
}

pub(crate) fn complex_vec_from_json(v: &Value, what: &str) -> Result<Vec<Complex64>, WireError> {
    let items = v
        .as_array()
        .ok_or_else(|| WireError(format!("{what} must be an array")))?;
    items.iter().map(complex_from_json).collect()
}

fn duration_ms(d: Duration) -> Value {
    Value::Number(d.as_secs_f64() * 1e3)
}

/// Residuals can legitimately be `+∞` (e.g. a degree-degenerate
/// verification); JSON has no non-finite numbers, so those encode as
/// `null` and decode back to `+∞`.
fn residual_to_json(x: f64) -> Value {
    if x.is_finite() {
        Value::Number(x)
    } else {
        Value::Null
    }
}

fn residual_from_json(v: &Value, what: &str) -> Result<f64, WireError> {
    if v.is_null() {
        Ok(f64::INFINITY)
    } else {
        num(v, what)
    }
}

fn ms_duration(v: &Value, what: &str) -> Result<Duration, WireError> {
    let ms = num(v, what)?;
    if !(0.0..=1e15).contains(&ms) {
        return Err(WireError(format!("{what} out of range")));
    }
    Ok(Duration::from_secs_f64(ms / 1e3))
}

// ---- requests ----------------------------------------------------------

/// Encodes a request as its tagged JSON object.
pub fn request_to_json(req: &JobRequest) -> Value {
    match req {
        JobRequest::SolvePieri {
            m,
            p,
            q,
            seed,
            certify,
        } => object([
            ("type", Value::from("solve_pieri")),
            ("m", Value::from(*m)),
            ("p", Value::from(*p)),
            ("q", Value::from(*q)),
            ("seed", Value::Number(*seed as f64)),
            ("certify", Value::Bool(*certify)),
        ]),
        JobRequest::PlacePoles {
            a,
            b,
            c,
            q,
            poles,
            seed,
            certify,
        } => object([
            ("type", Value::from("place_poles")),
            ("a", mat_to_json(a)),
            ("b", mat_to_json(b)),
            ("c", mat_to_json(c)),
            ("q", Value::from(*q)),
            ("poles", complex_vec_to_json(poles)),
            ("seed", Value::Number(*seed as f64)),
            ("certify", Value::Bool(*certify)),
        ]),
    }
}

/// Decodes a tagged request object.
pub fn request_from_json(v: &Value) -> Result<JobRequest, WireError> {
    match field(v, "type")?.as_str() {
        Some("solve_pieri") => Ok(JobRequest::SolvePieri {
            m: uint(field(v, "m")?, "m")?,
            p: uint(field(v, "p")?, "p")?,
            q: uint(field(v, "q")?, "q")?,
            seed: seed(field(v, "seed")?, "seed")?,
            certify: opt_bool(v, "certify")?,
        }),
        Some("place_poles") => Ok(JobRequest::PlacePoles {
            a: mat_from_json(field(v, "a")?)?,
            b: mat_from_json(field(v, "b")?)?,
            c: mat_from_json(field(v, "c")?)?,
            q: uint(field(v, "q")?, "q")?,
            poles: complex_vec_from_json(field(v, "poles")?, "poles")?,
            seed: seed(field(v, "seed")?, "seed")?,
            certify: opt_bool(v, "certify")?,
        }),
        Some(other) => Err(WireError(format!("unknown job type {other:?}"))),
        None => Err(WireError("type must be a string".into())),
    }
}

// ---- results -----------------------------------------------------------

fn track_to_json(t: &TrackStats) -> Value {
    object([
        ("converged", Value::from(t.converged)),
        ("diverged", Value::from(t.diverged)),
        ("failed", Value::from(t.failed)),
        ("total_steps", Value::from(t.total_steps)),
        ("total_newton_iters", Value::from(t.total_newton_iters)),
        ("retracked", Value::from(t.retracked)),
        ("retrack_attempts", Value::from(t.retrack_attempts)),
        ("total_ms", duration_ms(t.total_time)),
        ("max_path_ms", duration_ms(t.max_path_time)),
    ])
}

fn track_from_json(v: &Value) -> Result<TrackStats, WireError> {
    Ok(TrackStats {
        converged: uint(field(v, "converged")?, "converged")?,
        diverged: uint(field(v, "diverged")?, "diverged")?,
        failed: uint(field(v, "failed")?, "failed")?,
        retracked: opt_uint(v, "retracked")?,
        retrack_attempts: opt_uint(v, "retrack_attempts")?,
        total_steps: uint(field(v, "total_steps")?, "total_steps")?,
        total_newton_iters: uint(field(v, "total_newton_iters")?, "total_newton_iters")?,
        total_time: ms_duration(field(v, "total_ms")?, "total_ms")?,
        max_path_time: ms_duration(field(v, "max_path_ms")?, "max_path_ms")?,
        // Per-path times are not shipped over the wire (unbounded size);
        // the aggregate fields above are the service-level diagnostics.
        path_times: Vec::new(),
    })
}

fn compensator_to_json(c: &CompensatorAnswer) -> Value {
    object([
        ("u", matpoly_to_json(&c.u_coeffs)),
        ("v", matpoly_to_json(&c.v_coeffs)),
        ("residual", residual_to_json(c.residual)),
        ("proper", Value::from(c.proper)),
    ])
}

fn compensator_from_json(v: &Value) -> Result<CompensatorAnswer, WireError> {
    Ok(CompensatorAnswer {
        u_coeffs: matpoly_from_json(field(v, "u")?, "u")?,
        v_coeffs: matpoly_from_json(field(v, "v")?, "v")?,
        residual: residual_from_json(field(v, "residual")?, "residual")?,
        proper: field(v, "proper")?
            .as_bool()
            .ok_or_else(|| WireError("proper must be a boolean".into()))?,
    })
}

/// Encodes one solution certificate: the verdict tag, the α-theory
/// estimates (non-finite estimates encode as `null`), the refinement
/// record and, for pole placement, the closed-loop pole residual.
pub fn certificate_to_json(c: &Certificate) -> Value {
    let reason = match &c.verdict {
        Verdict::Certified { .. } => Value::Null,
        Verdict::Suspect { reason, .. } | Verdict::Failed { reason } => {
            Value::String(reason.clone())
        }
    };
    object([
        ("verdict", Value::from(c.verdict.kind())),
        ("residual", residual_to_json(c.residual())),
        ("alpha", residual_to_json(c.alpha)),
        ("beta", residual_to_json(c.beta)),
        ("gamma", residual_to_json(c.gamma)),
        ("refined", Value::Bool(c.refined)),
        ("refine_iters", Value::from(c.refine_iters)),
        ("reason", reason),
        (
            "pole_residual",
            match c.pole_residual {
                Some(r) => residual_to_json(r),
                None => Value::Null,
            },
        ),
    ])
}

/// Decodes a certificate block (the client side).
pub fn certificate_from_json(v: &Value) -> Result<Certificate, WireError> {
    let residual = residual_from_json(field(v, "residual")?, "residual")?;
    let reason = field(v, "reason")?.as_str().unwrap_or_default().to_string();
    let alpha = residual_from_json(field(v, "alpha")?, "alpha")?;
    let verdict = match field(v, "verdict")?.as_str() {
        Some("certified") => Verdict::Certified {
            residual,
            newton_contraction: alpha,
        },
        Some("suspect") => Verdict::Suspect { residual, reason },
        Some("failed") => Verdict::Failed { reason },
        _ => return Err(WireError("verdict must be certified/suspect/failed".into())),
    };
    // `pole_residual` is nullable-null vs present-number; a null means
    // "not a pole-placement job".
    let pole_residual = {
        let pr = field(v, "pole_residual")?;
        if pr.is_null() {
            None
        } else {
            Some(num(pr, "pole_residual")?)
        }
    };
    Ok(Certificate {
        verdict,
        alpha,
        beta: residual_from_json(field(v, "beta")?, "beta")?,
        gamma: residual_from_json(field(v, "gamma")?, "gamma")?,
        refined: field(v, "refined")?
            .as_bool()
            .ok_or_else(|| WireError("refined must be a boolean".into()))?,
        refine_iters: uint(field(v, "refine_iters")?, "refine_iters")?,
        pole_residual,
    })
}

/// Encodes a finished job.
pub fn result_to_json(r: &JobResult) -> Value {
    object([
        ("solutions", Value::from(r.solutions)),
        ("expected", Value::Number(r.expected as f64)),
        ("improper", Value::from(r.improper)),
        ("failed", Value::from(r.failed)),
        (
            "coeffs",
            Value::Array(r.coeffs.iter().map(|x| complex_vec_to_json(x)).collect()),
        ),
        (
            "compensators",
            Value::Array(r.compensators.iter().map(compensator_to_json).collect()),
        ),
        (
            "certificates",
            Value::Array(r.certificates.iter().map(certificate_to_json).collect()),
        ),
        ("max_residual", residual_to_json(r.max_residual)),
        ("cache_hit", Value::from(r.cache_hit)),
        ("bundle_build_ms", duration_ms(r.bundle_build)),
        ("queue_wait_ms", duration_ms(r.queue_wait)),
        ("solve_ms", duration_ms(r.solve_time)),
        ("track", track_to_json(&r.track)),
    ])
}

/// Decodes a finished job (the client side).
pub fn result_from_json(v: &Value) -> Result<JobResult, WireError> {
    let coeffs = field(v, "coeffs")?
        .as_array()
        .ok_or_else(|| WireError("coeffs must be an array".into()))?
        .iter()
        .map(|x| complex_vec_from_json(x, "coeffs entry"))
        .collect::<Result<_, _>>()?;
    let compensators = field(v, "compensators")?
        .as_array()
        .ok_or_else(|| WireError("compensators must be an array".into()))?
        .iter()
        .map(compensator_from_json)
        .collect::<Result<_, _>>()?;
    // Absent on pre-certification servers: decode as "no certificates".
    let certificates = match v.get("certificates") {
        None => Vec::new(),
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| WireError("certificates must be an array".into()))?
            .iter()
            .map(certificate_from_json)
            .collect::<Result<_, _>>()?,
    };
    let expected = num(field(v, "expected")?, "expected")?;
    if !(0.0..=2f64.powi(53)).contains(&expected) || expected.fract() != 0.0 {
        return Err(WireError("expected must be a non-negative integer".into()));
    }
    Ok(JobResult {
        solutions: uint(field(v, "solutions")?, "solutions")?,
        expected: expected as u128,
        improper: uint(field(v, "improper")?, "improper")?,
        failed: uint(field(v, "failed")?, "failed")?,
        coeffs,
        compensators,
        certificates,
        max_residual: residual_from_json(field(v, "max_residual")?, "max_residual")?,
        cache_hit: field(v, "cache_hit")?
            .as_bool()
            .ok_or_else(|| WireError("cache_hit must be a boolean".into()))?,
        bundle_build: ms_duration(field(v, "bundle_build_ms")?, "bundle_build_ms")?,
        queue_wait: ms_duration(field(v, "queue_wait_ms")?, "queue_wait_ms")?,
        solve_time: ms_duration(field(v, "solve_ms")?, "solve_ms")?,
        track: track_from_json(field(v, "track")?)?,
    })
}

// ---- errors & stats ----------------------------------------------------

/// Encodes a job error as the wire's error envelope.
pub fn error_to_json(e: &JobError) -> Value {
    object([(
        "error",
        object([
            ("kind", Value::from(e.kind())),
            ("message", Value::from(e.message())),
        ]),
    )])
}

/// Decodes an error envelope back into a [`JobError`] (client side).
/// Unknown kinds map to [`JobError::Internal`].
pub fn error_from_json(v: &Value) -> Result<JobError, WireError> {
    let err = field(v, "error")?;
    let kind = field(err, "kind")?
        .as_str()
        .ok_or_else(|| WireError("error.kind must be a string".into()))?;
    let message = field(err, "message")?
        .as_str()
        .unwrap_or_default()
        .to_string();
    Ok(match kind {
        "invalid_request" => JobError::InvalidRequest(message),
        "too_large" => JobError::TooLarge { detail: message },
        "queue_full" => JobError::QueueFull,
        "deadline_exceeded" => JobError::DeadlineExceeded { detail: message },
        "shutting_down" => JobError::ShuttingDown,
        "start_system" => JobError::StartSystem(message),
        "uncertified" => JobError::Uncertified { detail: message },
        _ => JobError::Internal(message),
    })
}

/// The build block shared by `/healthz` and `/v1/stats`: crate
/// version and the git hash baked in at build time (`PIERI_GIT_HASH`,
/// `"unknown"` when the build ran outside the repo).
pub fn build_info_json() -> Value {
    object([
        ("version", Value::from(env!("CARGO_PKG_VERSION"))),
        (
            "git_hash",
            Value::from(option_env!("PIERI_GIT_HASH").unwrap_or("unknown")),
        ),
    ])
}

/// Encodes the `/healthz` payload: liveness plus enough build identity
/// to tell *what* is alive (version, git hash, uptime).
pub fn health_to_json(uptime: Duration) -> Value {
    object([
        ("ok", Value::Bool(true)),
        ("uptime_secs", Value::Number(uptime.as_secs() as f64)),
        ("build", build_info_json()),
    ])
}

/// Encodes the `/v1/trace/<id>` payload: the recorded span tree of one
/// request, ordered as recorded (start order within each thread), and
/// how many spans the store's per-trace caps dropped.
pub fn trace_to_json(trace_id: u64, trace: &pieri_trace::TraceSpans) -> Value {
    object([
        ("trace_id", Value::from(format!("{trace_id:016x}"))),
        ("dropped", Value::Number(trace.dropped as f64)),
        (
            "spans",
            Value::Array(
                trace
                    .spans
                    .iter()
                    .map(|s| {
                        object([
                            ("name", Value::from(s.name)),
                            ("cat", Value::from(s.cat)),
                            ("tid", Value::from(s.tid as usize)),
                            ("start_us", Value::Number(s.start_us as f64)),
                            ("dur_us", Value::Number(s.dur_us as f64)),
                            ("depth", Value::from(s.depth as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes the `/v1/stats` payload.
pub fn stats_to_json(s: &EngineStats, resident: &[(pieri_core::Shape, usize, Duration)]) -> Value {
    object([
        ("workers", Value::from(s.workers)),
        ("queue_len", Value::from(s.queue_len)),
        ("queue_capacity", Value::from(s.queue_capacity)),
        ("submitted", Value::from(s.submitted)),
        ("completed", Value::from(s.completed)),
        ("rejected", Value::from(s.rejected)),
        ("shed", Value::from(s.shed)),
        ("deadline_expired", Value::from(s.deadline_expired)),
        ("workers_restarted", Value::from(s.workers_restarted)),
        ("jobs_recovered", Value::from(s.jobs_recovered)),
        ("uptime_secs", Value::Number(s.uptime.as_secs() as f64)),
        ("build", build_info_json()),
        ("certify", certify_counters_to_json(&s.certify)),
        ("cache", cache_stats_to_json(&s.cache, resident)),
    ])
}

fn certify_counters_to_json(c: &CertifyCounters) -> Value {
    object([
        ("certified", Value::from(c.certified)),
        ("refined", Value::from(c.refined)),
        ("retracked", Value::from(c.retracked)),
        ("failed", Value::from(c.failed)),
    ])
}

fn cache_stats_to_json(c: &CacheStats, resident: &[(pieri_core::Shape, usize, Duration)]) -> Value {
    object([
        ("hits", Value::from(c.hits)),
        ("misses", Value::from(c.misses)),
        ("shapes", Value::from(c.shapes)),
        ("evictions", Value::from(c.evictions)),
        ("resident_bytes", Value::from(c.resident_bytes)),
        ("restored", Value::from(c.restored)),
        ("store_recovered", Value::from(c.store_recovered)),
        (
            "resident",
            Value::Array(
                resident
                    .iter()
                    .map(|(shape, roots, build)| {
                        object([
                            ("m", Value::from(shape.m())),
                            ("p", Value::from(shape.p())),
                            ("q", Value::from(shape.q())),
                            ("roots", Value::from(*roots)),
                            ("build_ms", duration_ms(*build)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::seeded_rng;

    #[test]
    fn request_round_trips() {
        let sat = pieri_control::satellite_plant(1.0);
        let mut rng = seeded_rng(5);
        let reqs = [
            JobRequest::SolvePieri {
                m: 2,
                p: 2,
                q: 1,
                seed: 1234,
                certify: true,
            },
            JobRequest::PlacePoles {
                a: sat.a.clone(),
                b: sat.b.clone(),
                c: sat.c.clone(),
                q: 1,
                poles: pieri_control::conjugate_pole_set(5, &mut rng),
                seed: 42,
                certify: false,
            },
        ];
        for req in &reqs {
            let json = request_to_json(req);
            let text = json.serialize();
            let back = request_from_json(&minijson::parse(&text).unwrap()).unwrap();
            match (req, &back) {
                (
                    JobRequest::SolvePieri {
                        m,
                        p,
                        q,
                        seed,
                        certify,
                    },
                    JobRequest::SolvePieri {
                        m: m2,
                        p: p2,
                        q: q2,
                        seed: s2,
                        certify: c2,
                    },
                ) => {
                    assert_eq!((m, p, q, seed, certify), (m2, p2, q2, s2, c2));
                }
                (
                    JobRequest::PlacePoles { a, poles, seed, .. },
                    JobRequest::PlacePoles {
                        a: a2,
                        poles: p2,
                        seed: s2,
                        ..
                    },
                ) => {
                    assert_eq!(seed, s2);
                    assert_eq!(poles, p2, "poles survive bitwise");
                    for i in 0..a.rows() {
                        for j in 0..a.cols() {
                            assert_eq!(a[(i, j)], a2[(i, j)], "A[{i},{j}] bitwise");
                        }
                    }
                }
                _ => panic!("request kind changed in flight"),
            }
        }
    }

    #[test]
    fn malformed_matrices_are_wire_errors() {
        for text in [
            r#"{"type":"place_poles","a":[[1]],"b":[],"c":[],"q":0,"poles":[],"seed":1}"#,
            r#"{"type":"place_poles","a":[[[0,0],[1,1]],[[2,2]]],"b":[[[0,0]]],"c":[[[0,0]]],"q":0,"poles":[],"seed":1}"#,
            r#"{"type":"solve_pieri","m":2,"p":2,"q":0,"seed":-3}"#,
            r#"{"type":"warp"}"#,
        ] {
            let v = minijson::parse(text).unwrap();
            assert!(request_from_json(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn pre_certification_results_still_decode() {
        // A PR-3/PR-4 server response: no `certificates`, no
        // `retracked`/`retrack_attempts` in the track block. A new
        // client must decode it with empty/zero defaults (rolling
        // upgrades, recorded payloads).
        let text = r#"{"solutions":1,"expected":1,"improper":0,"failed":0,
            "coeffs":[[[1.0,0.0]]],"compensators":[],
            "max_residual":1e-9,"cache_hit":true,"bundle_build_ms":0,
            "queue_wait_ms":1,"solve_ms":2,
            "track":{"converged":1,"diverged":0,"failed":0,
                     "total_steps":10,"total_newton_iters":20,
                     "total_ms":2,"max_path_ms":2}}"#;
        let back = result_from_json(&minijson::parse(text).unwrap()).unwrap();
        assert_eq!(back.solutions, 1);
        assert!(back.certificates.is_empty());
        assert_eq!(back.track.retracked, 0);
        assert_eq!(back.track.retrack_attempts, 0);
    }

    #[test]
    fn error_envelope_round_trips() {
        for e in [
            JobError::InvalidRequest("bad".into()),
            JobError::TooLarge {
                detail: "d too big".into(),
            },
            JobError::QueueFull,
            JobError::ShuttingDown,
            JobError::StartSystem("lost roots".into()),
            JobError::Internal("panic".into()),
        ] {
            let v = minijson::parse(&error_to_json(&e).serialize()).unwrap();
            let back = error_from_json(&v).unwrap();
            assert_eq!(back.kind(), e.kind());
            // Messages must be hop-stable: no kind-prefix stacking on
            // decode/re-encode round trips.
            assert_eq!(back.message(), e.message());
        }
    }
}
