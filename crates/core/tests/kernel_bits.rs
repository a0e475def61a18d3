//! Bit pin of the determinantal condition kernels.
//!
//! FNV-1a hashes over the `f64` bits of the reference (`eval`,
//! `jacobian_x`, `dt`) and fused (`eval_and_jacobian`,
//! `jacobian_and_dt`) outputs of the three systems built on the
//! intersection conditions `det [X(s_i) | L_i] = 0`: the Pieri homotopy
//! at the first pattern of every poset level, the instance continuation
//! between two generic instances, and the target system certification
//! evaluates. Every system is evaluated at a generic point and at the
//! same point with one coefficient exactly zero (the `∂H/∂t` kernels
//! skip zero coefficients).
//!
//! A change that must keep every output bit (a refactor of the kernels,
//! a hoisted invariant) keeps all three constants; any reordered
//! floating-point operation changes them. Unlike `fused_kernels.rs`,
//! which bounds fused-vs-reference differences, this test notices a
//! change that moves both sides together.

use pieri_core::{InstanceHomotopy, PieriHomotopy, PieriProblem, Poset, Shape};
use pieri_linalg::CMat;
use pieri_num::{random_complex, seeded_rng, Complex64};
use pieri_tracker::{Homotopy, TrackWorkspace};

const SHAPES: [(usize, usize, usize); 6] = [
    (2, 2, 0),
    (2, 2, 1),
    (3, 2, 1),
    (2, 1, 2),
    (3, 3, 0),
    (2, 2, 2),
];

const TS: [f64; 5] = [0.0, 0.3, 0.77, 0.999, 1.0];

/// FNV-1a over the IEEE-754 bits of real and imaginary parts, in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, zs: &[Complex64]) {
        for z in zs {
            for part in [z.re, z.im] {
                for byte in part.to_bits().to_le_bytes() {
                    self.0 ^= u64::from(byte);
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
}

/// The generic point of dimension `k` and the same point with its last
/// coefficient set to exactly zero.
fn points(k: usize, rng: &mut impl rand::Rng) -> [Vec<Complex64>; 2] {
    let x: Vec<Complex64> = (0..k).map(|_| random_complex(rng)).collect();
    let mut zeroed = x.clone();
    zeroed[k - 1] = Complex64::ZERO;
    [x, zeroed]
}

/// Feeds every output of `h` at `(x, t)`: reference `eval`,
/// `jacobian_x` and (with `with_dt`) `dt`, then fused
/// `eval_and_jacobian` and `jacobian_and_dt` through one workspace.
fn feed_outputs<H: Homotopy>(
    hash: &mut Fnv,
    h: &H,
    x: &[Complex64],
    t: f64,
    with_dt: bool,
    ws: &mut TrackWorkspace,
) {
    let k = h.dim();
    let mut fx = vec![Complex64::ZERO; k];
    let mut jac = CMat::zeros(k, k);
    let mut ht = vec![Complex64::ZERO; k];
    h.eval(x, t, &mut fx);
    hash.feed(&fx);
    h.jacobian_x(x, t, &mut jac);
    hash.feed(jac.as_slice());
    if with_dt {
        h.dt(x, t, &mut ht);
        hash.feed(&ht);
    }
    ws.ensure(k);
    let (wfx, wjac, scratch) = ws.eval_buffers();
    h.eval_and_jacobian(x, t, wfx, wjac, scratch);
    hash.feed(wfx);
    hash.feed(wjac.as_slice());
    h.jacobian_and_dt(x, t, &mut jac, &mut ht, scratch);
    hash.feed(jac.as_slice());
    if with_dt {
        hash.feed(&ht);
    }
}

#[test]
fn pieri_homotopy_outputs_are_bit_identical() {
    let mut hash = Fnv::new();
    let mut ws = TrackWorkspace::new();
    for (i, &(m, p, q)) in SHAPES.iter().enumerate() {
        let mut rng = seeded_rng(2200 + i as u64);
        let shape = Shape::new(m, p, q);
        let problem = PieriProblem::random(shape.clone(), &mut rng);
        let poset = Poset::build(&shape);
        for level in 1..=shape.conditions() {
            let pattern = poset.level(level).first().expect("non-empty level");
            let h = PieriHomotopy::new(&problem, pattern);
            for x in points(h.dim(), &mut rng) {
                for t in TS {
                    feed_outputs(&mut hash, &h, &x, t, true, &mut ws);
                }
            }
        }
    }
    assert_eq!(
        hash.0, 8_770_679_907_990_891_384,
        "Pieri homotopy kernel bits moved"
    );
}

#[test]
fn instance_homotopy_outputs_are_bit_identical() {
    let mut hash = Fnv::new();
    let mut ws = TrackWorkspace::new();
    for (i, &(m, p, q)) in SHAPES.iter().enumerate() {
        let mut rng = seeded_rng(2210 + i as u64);
        let shape = Shape::new(m, p, q);
        let start = PieriProblem::random(shape.clone(), &mut rng);
        let goal = PieriProblem::random(shape, &mut rng);
        let h = InstanceHomotopy::new(&start, &goal);
        for x in points(h.dim(), &mut rng) {
            for t in TS {
                feed_outputs(&mut hash, &h, &x, t, true, &mut ws);
            }
        }
    }
    assert_eq!(
        hash.0, 11_418_102_199_742_210_193,
        "instance homotopy kernel bits moved"
    );
}

/// Certification evaluates the target at `t = 1` and never reads
/// `∂H/∂t`, so only the residual and Jacobian outputs are pinned (the
/// constant predates the fixed-condition target, when certification ran
/// the start == target instance continuation at `t = 1`; its residuals
/// and Jacobians are the same bits).
#[test]
fn certification_target_outputs_are_bit_identical() {
    let mut hash = Fnv::new();
    let mut ws = TrackWorkspace::new();
    for (i, &(m, p, q)) in SHAPES.iter().enumerate() {
        let mut rng = seeded_rng(2220 + i as u64);
        let problem = PieriProblem::random(Shape::new(m, p, q), &mut rng);
        let h = InstanceHomotopy::target(&problem);
        for x in points(h.dim(), &mut rng) {
            feed_outputs(&mut hash, &h, &x, 1.0, false, &mut ws);
        }
    }
    assert_eq!(
        hash.0, 6_430_618_126_720_703_851,
        "certification target kernel bits moved"
    );
}
