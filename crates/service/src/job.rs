//! Typed job requests, results and structured errors.
//!
//! This is the service's trust boundary: everything a client can send is
//! validated here *before* it reaches the numeric layers, whose
//! preconditions are enforced with panics (they are programming errors
//! there, input errors here). No panic crosses a job boundary — the
//! engine additionally wraps execution in `catch_unwind` as a backstop,
//! surfacing anything that slips through as [`JobError::Internal`].

use pieri_certify::Certificate;
use pieri_core::root_count;
use pieri_linalg::CMat;
use pieri_num::Complex64;
use pieri_tracker::TrackStats;
use std::fmt;
use std::time::Duration;

/// Largest admissible root count `d(m,p,q)`. Together with
/// [`MAX_CONDITIONS`] this bounds the combinatorial size of a job, so one
/// request cannot monopolise the server (d(m,p,q) grows exponentially).
const MAX_ROOTS: u128 = 2_000;
/// Largest admissible number of interpolation conditions
/// `n = mp + q(m+p)`.
const MAX_CONDITIONS: usize = 24;

/// A pole-placement or raw-Pieri job.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// Solve a generic random Pieri instance of shape `(m, p, q)` seeded
    /// by `seed` — the paper's Table III/IV workload, useful for warming
    /// a shape and for benchmarking.
    SolvePieri {
        /// Number of inputs.
        m: usize,
        /// Number of outputs.
        p: usize,
        /// Compensator degree.
        q: usize,
        /// Instance seed (same seed → same instance → same answer).
        seed: u64,
        /// Request a-posteriori certification: re-track failed paths,
        /// certify every solution and double-double-refine it; any
        /// uncertifiable solution fails the job with a structured
        /// [`JobError::Uncertified`] instead of silently shipping.
        certify: bool,
    },
    /// Place the closed-loop poles of the state-space plant
    /// `ẋ = Ax + Bu, y = Cx` with a degree-`q` compensator: all
    /// `d(m,p,q)` feedback laws placing `n° + q` prescribed poles.
    PlacePoles {
        /// State matrix (`n° × n°`).
        a: CMat,
        /// Input matrix (`n° × m`).
        b: CMat,
        /// Output matrix (`p × n°`).
        c: CMat,
        /// Compensator degree (0 = static output feedback).
        q: usize,
        /// The `n° + q` prescribed closed-loop poles.
        poles: Vec<Complex64>,
        /// Seed for the request's randomisation (coordinate rotation,
        /// gamma, padding conditions) — same seed, same compensators.
        seed: u64,
        /// Request a-posteriori certification (see
        /// [`JobRequest::SolvePieri::certify`]); for pole placement the
        /// certificate additionally carries the closed-loop pole
        /// residual against the requested poles.
        certify: bool,
    },
}

impl JobRequest {
    /// The shape `(m, p, q)` this job resolves to, unvalidated.
    pub fn shape_dims(&self) -> (usize, usize, usize) {
        match self {
            JobRequest::SolvePieri { m, p, q, .. } => (*m, *p, *q),
            JobRequest::PlacePoles { b, c, q, .. } => (b.cols(), c.rows(), *q),
        }
    }

    /// Whether the request asked for certification.
    pub fn certify(&self) -> bool {
        match self {
            JobRequest::SolvePieri { certify, .. } | JobRequest::PlacePoles { certify, .. } => {
                *certify
            }
        }
    }

    /// Full validation, including the admission limits (at most 24
    /// conditions `n = mp + q(m+p)` and 2 000 roots `d(m,p,q)`);
    /// everything the solvers would panic on must be caught here.
    pub fn validate(&self) -> Result<(), JobError> {
        let (m, p, q) = self.shape_dims();
        if m == 0 || p == 0 {
            return Err(JobError::InvalidRequest(
                "need at least one input (m ≥ 1) and one output (p ≥ 1)".into(),
            ));
        }
        // The wire format carries seeds as IEEE doubles, exact only
        // below 2⁵³. Rejecting larger seeds everywhere (not just at
        // decode) keeps the in-process and HTTP paths answering
        // identically and makes silent rounding impossible: any seed
        // ≥ 2⁵³ errors rather than running with a perturbed value.
        let seed = match self {
            JobRequest::SolvePieri { seed, .. } | JobRequest::PlacePoles { seed, .. } => *seed,
        };
        if seed >= (1 << 53) {
            return Err(JobError::InvalidRequest(
                "seed must be below 2^53 (exact in the JSON wire format)".into(),
            ));
        }
        // Bound each dimension before any arithmetic: the wire accepts
        // integers up to 2⁵³, so `m*p` could otherwise wrap in release
        // builds and sail past the limits. Since `n ≥ m`, `n ≥ p` and
        // `n ≥ 2q` (with m, p ≥ 1), any dimension beyond
        // `MAX_CONDITIONS` already implies an oversized job — and after
        // this check the exact `n` below cannot overflow.
        if m > MAX_CONDITIONS || p > MAX_CONDITIONS || q > MAX_CONDITIONS {
            return Err(JobError::TooLarge {
                detail: format!(
                    "dimensions ({m},{p},{q}) exceed the condition limit {MAX_CONDITIONS}"
                ),
            });
        }
        let n = m * p + q * (m + p);
        if n > MAX_CONDITIONS {
            return Err(JobError::TooLarge {
                detail: format!(
                    "n = mp + q(m+p) = {n} conditions exceeds the limit {MAX_CONDITIONS}"
                ),
            });
        }
        let roots = root_count(m, p, q);
        if roots > MAX_ROOTS {
            return Err(JobError::TooLarge {
                detail: format!("d({m},{p},{q}) = {roots} roots exceeds the limit {MAX_ROOTS}"),
            });
        }
        if let JobRequest::PlacePoles {
            a, b, c, q, poles, ..
        } = self
        {
            if !a.is_square() {
                return Err(JobError::InvalidRequest(format!(
                    "A must be square, got {}×{}",
                    a.rows(),
                    a.cols()
                )));
            }
            let dim = a.rows();
            if b.rows() != dim || c.cols() != dim {
                return Err(JobError::InvalidRequest(format!(
                    "B must be {dim}×m and C p×{dim} to match A, got B {}×{} and C {}×{}",
                    b.rows(),
                    b.cols(),
                    c.rows(),
                    c.cols()
                )));
            }
            let placed = dim + q;
            if poles.len() != placed {
                return Err(JobError::InvalidRequest(format!(
                    "prescribe exactly n° + q = {placed} poles, got {}",
                    poles.len()
                )));
            }
            if placed > n {
                return Err(JobError::InvalidRequest(format!(
                    "plant degree {dim} too large for a degree-{q} compensator \
                     (n° + q = {placed} > n = {n})"
                )));
            }
            if poles.iter().any(|s| !s.is_finite()) {
                return Err(JobError::InvalidRequest(
                    "prescribed poles must be finite".into(),
                ));
            }
            if !a.is_finite() || !b.is_finite() || !c.is_finite() {
                return Err(JobError::InvalidRequest(
                    "plant matrices must be finite".into(),
                ));
            }
            // A prescribed pole equal to an open-loop pole makes the
            // resolvent `(sI − A)⁻¹` singular — the curve evaluation
            // would panic deep in the numeric layer. Same factorisation,
            // same tolerance, caught here as a client error instead.
            for (i, &s) in poles.iter().enumerate() {
                let si_a = CMat::from_fn(dim, dim, |r, c2| {
                    let d = if r == c2 { s } else { Complex64::ZERO };
                    d - a[(r, c2)]
                });
                if pieri_linalg::Lu::factor(&si_a).is_err() {
                    return Err(JobError::InvalidRequest(format!(
                        "pole {i} ({s}) coincides with an open-loop pole of the plant"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// One compensator of a `PlacePoles` answer: the matrix-fraction blocks
/// `K(s) = V(s)·U(s)⁻¹` as coefficient matrices, plus derived checks.
#[derive(Debug, Clone)]
pub struct CompensatorAnswer {
    /// Denominator coefficients `U₀..U_q` (each `p × p`).
    pub u_coeffs: Vec<CMat>,
    /// Numerator coefficients `V₀..V_q` (each `m × p`).
    pub v_coeffs: Vec<CMat>,
    /// Worst relative residual of the closed-loop characteristic
    /// polynomial over the prescribed poles (certifies the placement).
    pub residual: f64,
    /// True when the compensator is proper at `s = 0` (a static gain
    /// exists for `q = 0` solutions).
    pub proper: bool,
}

/// The result of a completed job.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Number of solutions delivered.
    pub solutions: usize,
    /// The enumerative count `d(m,p,q)` (solutions ≤ expected; the gap
    /// is `improper + failed`).
    pub expected: u128,
    /// Continuation paths that honestly diverged (solutions at infinity,
    /// e.g. improper feedback laws — structural, not numerical).
    pub improper: usize,
    /// Paths that failed numerically.
    pub failed: usize,
    /// Root-pattern coefficient vectors of the solutions (raw Pieri
    /// answer; what the determinism tests compare bitwise).
    pub coeffs: Vec<Vec<Complex64>>,
    /// Compensators (empty for `SolvePieri` jobs).
    pub compensators: Vec<CompensatorAnswer>,
    /// One certificate per shipped solution (in `coeffs` order), present
    /// when the request asked for certification; empty otherwise.
    pub certificates: Vec<Certificate>,
    /// Largest verification residual over all solutions: intersection-
    /// condition residual for `SolvePieri`, closed-loop characteristic
    /// residual for `PlacePoles`.
    pub max_residual: f64,
    /// Whether the shape-level work came from the cache.
    pub cache_hit: bool,
    /// Time the shape-level work (poset + generic tree solve) took
    /// *within this job* — zero on a cache hit; that is the measured
    /// saving.
    pub bundle_build: Duration,
    /// Time from submission to the start of execution.
    pub queue_wait: Duration,
    /// Execution time (continuation + extraction + verification).
    pub solve_time: Duration,
    /// Path-tracking statistics of the continuation stage
    /// ([`TrackStats`] re-used from the tracker crate).
    pub track: TrackStats,
}

/// Structured job failure — the only error type that crosses the
/// service boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The request is malformed (shape mismatch, wrong pole count, …).
    InvalidRequest(String),
    /// The request is well-formed but exceeds the admission limits.
    TooLarge {
        /// Which limit, and by how much.
        detail: String,
    },
    /// The bounded queue is full — back-pressure; retry later.
    QueueFull,
    /// The request's deadline lapsed before an answer could be
    /// produced: shed at admission, expired while queued, or cancelled
    /// between continuation paths mid-execution. No partial result is
    /// ever shipped under this error.
    DeadlineExceeded {
        /// Where in the pipeline the deadline fired.
        detail: String,
    },
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// The shape-level generic solve lost roots (a numerics bug worth a
    /// report, not a client error).
    StartSystem(String),
    /// The request asked for certification and at least one path stayed
    /// numerically failed after bounded re-tracking, or a shipped
    /// solution failed its Newton certificate. The job's answer is not
    /// trustworthy and is withheld.
    Uncertified {
        /// What failed certification, with counts.
        detail: String,
    },
    /// A panic or other defect inside the solver, caught at the
    /// boundary.
    Internal(String),
}

impl JobError {
    /// Stable machine-readable kind tag (the wire format's `kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::InvalidRequest(_) => "invalid_request",
            JobError::TooLarge { .. } => "too_large",
            JobError::QueueFull => "queue_full",
            JobError::DeadlineExceeded { .. } => "deadline_exceeded",
            JobError::ShuttingDown => "shutting_down",
            JobError::StartSystem(_) => "start_system",
            JobError::Uncertified { .. } => "uncertified",
            JobError::Internal(_) => "internal",
        }
    }

    /// The payload without the kind prefix `Display` adds — what the
    /// wire encodes as `message`, so a decode/re-encode hop does not
    /// stack prefixes ("invalid request: invalid request: …").
    pub fn message(&self) -> String {
        match self {
            JobError::InvalidRequest(msg)
            | JobError::StartSystem(msg)
            | JobError::Internal(msg) => msg.clone(),
            JobError::TooLarge { detail }
            | JobError::Uncertified { detail }
            | JobError::DeadlineExceeded { detail } => detail.clone(),
            JobError::QueueFull => "job queue is full, retry later".into(),
            JobError::ShuttingDown => "service is shutting down".into(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            JobError::TooLarge { detail } => write!(f, "job too large: {detail}"),
            JobError::QueueFull => write!(f, "job queue is full, retry later"),
            JobError::DeadlineExceeded { detail } => write!(f, "deadline exceeded: {detail}"),
            JobError::ShuttingDown => write!(f, "service is shutting down"),
            JobError::StartSystem(msg) => write!(f, "start-system build failed: {msg}"),
            JobError::Uncertified { detail } => write!(f, "certification failed: {detail}"),
            JobError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::seeded_rng;

    fn satellite_request(q: usize, n_poles: usize) -> JobRequest {
        let ss = pieri_control::satellite_plant(1.0);
        let mut rng = seeded_rng(1);
        JobRequest::PlacePoles {
            a: ss.a.clone(),
            b: ss.b.clone(),
            c: ss.c.clone(),
            q,
            poles: pieri_control::conjugate_pole_set(n_poles, &mut rng),
            seed: 7,
            certify: false,
        }
    }

    #[test]
    fn valid_requests_pass() {
        assert_eq!(satellite_request(1, 5).validate(), Ok(()));
        let solve = JobRequest::SolvePieri {
            m: 2,
            p: 2,
            q: 1,
            seed: 3,
            certify: false,
        };
        assert_eq!(solve.validate(), Ok(()));
    }

    #[test]
    fn wrong_pole_count_is_invalid_not_panic() {
        let err = satellite_request(1, 4).validate().unwrap_err();
        assert_eq!(err.kind(), "invalid_request");
    }

    #[test]
    fn zero_io_dimensions_rejected() {
        let req = JobRequest::SolvePieri {
            m: 0,
            p: 2,
            q: 0,
            seed: 0,
            certify: false,
        };
        assert_eq!(req.validate().unwrap_err().kind(), "invalid_request");
    }

    #[test]
    fn oversized_seed_rejected_everywhere_not_just_on_the_wire() {
        let req = JobRequest::SolvePieri {
            m: 2,
            p: 2,
            q: 0,
            seed: 1 << 53,
            certify: false,
        };
        assert_eq!(req.validate().unwrap_err().kind(), "invalid_request");
    }

    #[test]
    fn pole_on_open_loop_spectrum_is_a_client_error_not_a_panic() {
        // The satellite's open-loop spectrum contains 0 and ±iω.
        let ss = pieri_control::satellite_plant(1.0);
        let mut rng = seeded_rng(2);
        let mut poles = pieri_control::conjugate_pole_set(4, &mut rng);
        poles[0] = Complex64::ZERO;
        let req = JobRequest::PlacePoles {
            a: ss.a.clone(),
            b: ss.b.clone(),
            c: ss.c.clone(),
            q: 0,
            poles,
            seed: 1,
            certify: false,
        };
        let err = req.validate().unwrap_err();
        assert_eq!(err.kind(), "invalid_request");
        assert!(err.to_string().contains("open-loop"), "{err}");
    }

    #[test]
    fn admission_limits_enforced() {
        let req = JobRequest::SolvePieri {
            m: 4,
            p: 4,
            q: 2,
            seed: 0,
            certify: false,
        };
        let err = req.validate().unwrap_err();
        assert_eq!(err.kind(), "too_large");
    }

    #[test]
    fn non_square_a_rejected() {
        let req = JobRequest::PlacePoles {
            a: CMat::zeros(2, 3),
            b: CMat::zeros(2, 1),
            c: CMat::zeros(1, 2),
            q: 0,
            poles: vec![],
            seed: 0,
            certify: false,
        };
        assert_eq!(req.validate().unwrap_err().kind(), "invalid_request");
    }

    #[test]
    fn non_finite_data_rejected() {
        let mut a = CMat::zeros(1, 1);
        a[(0, 0)] = Complex64::new(f64::NAN, 0.0);
        let req = JobRequest::PlacePoles {
            a,
            b: CMat::zeros(1, 1),
            c: CMat::zeros(1, 1),
            q: 0,
            poles: vec![Complex64::ONE],
            seed: 0,
            certify: false,
        };
        assert_eq!(req.validate().unwrap_err().kind(), "invalid_request");
    }
}
