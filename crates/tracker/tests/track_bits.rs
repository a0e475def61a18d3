//! Bit pin of the tracker's own output on small univariate homotopies.
//!
//! FNV-1a hashes over each path's status (with `at_t`), accepted and
//! rejected steps, Newton iterations, attempts and the bits of its
//! endpoint and residual. The paths: `x² − 1` deformed to `x² − 4`, to
//! a degree-5 target with known roots, and to the deficient target
//! `x − 1` (one path converges, the other diverges), each tracked as is
//! and through a wrapper that claims regular endpoints (no endgame),
//! under the tracker's one predictor (Runge–Kutta); and the path of
//! `(x − 1)²` that stays on the double root, with re-tracking on.
//!
//! A change that must keep every output bit (moving a continuation
//! parameter, restructuring the step control) keeps the constants; any
//! changed step, verdict or floating-point operation moves them.
//! `golden_outputs.rs` pins only certified Pieri and instance paths.

use pieri_linalg::CMat;
use pieri_num::{random_gamma, seeded_rng, Complex64};
use pieri_poly::{Poly, PolySystem, UniPoly};
use pieri_tracker::{
    track_path_with, Homotopy, LinearHomotopy, PathResult, PathStatus, TrackSettings,
    TrackWorkspace,
};

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: [u8; 8]) {
        for byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn count(&mut self, n: usize) {
        self.bytes((n as u64).to_le_bytes());
    }

    fn real(&mut self, x: f64) {
        self.bytes(x.to_bits().to_le_bytes());
    }

    fn path(&mut self, r: &PathResult) {
        match r.status {
            PathStatus::Converged => self.count(0),
            PathStatus::Diverged { at_t } => {
                self.count(1);
                self.real(at_t);
            }
            PathStatus::Failed { at_t } => {
                self.count(2);
                self.real(at_t);
            }
        }
        self.count(r.steps);
        self.count(r.rejections);
        self.count(r.newton_iters);
        self.count(r.attempts);
        for z in &r.x {
            self.real(z.re);
            self.real(z.im);
        }
        self.real(r.residual);
    }
}

/// Forwards every evaluation to the wrapped homotopy and claims regular
/// endpoints, so its paths skip the endgame.
struct Regular(LinearHomotopy);

impl Homotopy for Regular {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        self.0.eval(x, t, out);
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        self.0.jacobian_x(x, t, out);
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        self.0.dt(x, t, out);
    }

    fn regular_endpoints(&self) -> bool {
        true
    }
}

fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

/// The univariate system with coefficients `coeffs` (constant first).
fn univar(coeffs: &[Complex64]) -> PolySystem {
    let x = Poly::var(1, 0);
    let mut p = Poly::zero(1);
    for (k, &ck) in coeffs.iter().enumerate() {
        p = p.add(&x.pow(k as u32).scale(ck));
    }
    PolySystem::new(vec![p])
}

/// `x^d − 1` and its roots of unity.
fn unity_start(d: usize) -> (PolySystem, Vec<Vec<Complex64>>) {
    let mut coeffs = vec![Complex64::ZERO; d + 1];
    coeffs[0] = c(-1.0, 0.0);
    coeffs[d] = Complex64::ONE;
    let roots = (0..d)
        .map(|k| {
            vec![Complex64::from_polar(
                1.0,
                std::f64::consts::TAU * k as f64 / d as f64,
            )]
        })
        .collect();
    (univar(&coeffs), roots)
}

/// The three pinned homotopies and their start solutions.
fn homotopies() -> Vec<(LinearHomotopy, Vec<Vec<Complex64>>)> {
    let quadratic = {
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-4.0, 0.0), Complex64::ZERO, Complex64::ONE]);
        let gamma = random_gamma(&mut seeded_rng(100));
        (LinearHomotopy::new(g, f, gamma), starts)
    };
    let degree_five = {
        let roots = [
            c(1.0, 0.5),
            c(-0.5, 1.5),
            c(0.25, -0.75),
            c(-1.5, -0.25),
            c(2.0, 0.0),
        ];
        let f = univar(UniPoly::from_roots(&roots).coeffs());
        let (g, starts) = unity_start(5);
        let gamma = random_gamma(&mut seeded_rng(101));
        (LinearHomotopy::new(g, f, gamma), starts)
    };
    let deficient = {
        let (g, starts) = unity_start(2);
        let f = univar(&[c(-1.0, 0.0), Complex64::ONE]);
        let gamma = random_gamma(&mut seeded_rng(102));
        (LinearHomotopy::new(g, f, gamma), starts)
    };
    vec![quadratic, degree_five, deficient]
}

#[test]
fn paths_are_bit_identical_under_every_predictor() {
    let settings = TrackSettings::default();
    let mut ws = TrackWorkspace::new();
    let mut hash = Fnv::new();
    for (h, starts) in homotopies() {
        for s in &starts {
            hash.path(&track_path_with(&h, s, &settings, &mut ws));
        }
        let h = Regular(h);
        for s in &starts {
            hash.path(&track_path_with(&h, s, &settings, &mut ws));
        }
    }
    assert_eq!(hash.0, 5_019_999_670_298_575_435, "path bits moved");
}

#[test]
fn retracked_path_is_bit_identical() {
    // (x − 1)² from the start root 1: the path stays on the double root,
    // which Newton cannot polish, so every attempt ends failed.
    let (g, starts) = unity_start(2);
    let f = univar(&[Complex64::ONE, c(-2.0, 0.0), Complex64::ONE]);
    let h = LinearHomotopy::new(g, f, random_gamma(&mut seeded_rng(100)));
    let settings = TrackSettings { retrack: true };
    let r = track_path_with(&h, &starts[0], &settings, &mut TrackWorkspace::new());
    assert!(matches!(r.status, PathStatus::Failed { .. }), "{r:?}");
    assert_eq!(r.attempts, 3);
    let mut hash = Fnv::new();
    hash.path(&r);
    assert_eq!(
        hash.0, 2_191_117_874_706_635_030,
        "re-tracked path bits moved"
    );
}
