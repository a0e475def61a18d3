//! Golden outputs: FNV-1a hashes of the coefficient bits of three seeded,
//! certified solves.
//!
//! A change that must keep every answer bit-identical (a kernel that
//! skips unused work, a refactor of the solve surface) keeps all three
//! hashes. Any reordered floating-point operation, changed step sequence
//! or different root order changes them. The constants were recorded
//! before the cofactor-only tangent kernel and the corrector's exit at
//! convergence landed, and that change kept them. The tree and dynamic
//! constants were re-recorded when Pieri paths stopped running the
//! geometric endgame (`Homotopy::regular_endpoints`): that moves a few
//! root bits by ulps, which survive double-double refinement. The static
//! constant kept its value. The dynamic constant was re-recorded again
//! when instance paths that approach `t = 1` analytically began to leave
//! the endgame early, which returned it to its earlier value; the tree
//! and static constants kept theirs.

use pieri::certify::{Certificate, CertifyPolicy};
use pieri::control::{
    conjugate_pole_set, satellite_plant, solve_dynamic_state_space_certified,
    solve_static_state_space_certified, SATELLITE_OMEGA,
};
use pieri::num::{seeded_rng, Complex64};
use pieri::parallel::solve_tree_parallel_certified;
use pieri::schubert::{root_count, PieriProblem, Poset, Shape, StartBundle};
use pieri::tracker::TrackSettings;

/// FNV-1a over the IEEE-754 bits of every real and imaginary part, in
/// solution order.
fn fnv1a(coeffs: &[Vec<Complex64>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for z in coeffs.iter().flatten() {
        for part in [z.re, z.im] {
            for byte in part.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        }
    }
    h
}

fn assert_all_certified(certificates: &[Certificate], d: usize) {
    assert_eq!(certificates.len(), d);
    for cert in certificates {
        assert!(cert.is_certified(), "{cert:?}");
    }
}

#[test]
fn certified_tree_solve_222_is_bit_identical() {
    let mut rng = seeded_rng(1401);
    let problem = PieriProblem::random(Shape::new(2, 2, 2), &mut rng);
    let poset = Poset::build(problem.shape());
    let (solution, _) = solve_tree_parallel_certified(
        &problem,
        &poset,
        &TrackSettings::default(),
        2,
        &CertifyPolicy::full(),
    );
    assert_eq!(solution.failures, 0);
    assert_all_certified(&solution.certificates, root_count(2, 2, 2) as usize);
    assert_eq!(fnv1a(&solution.coeffs), 1_475_171_442_246_623_665);
}

/// Places `n° + q` seeded poles on the satellite plant from a
/// fixed-seed start bundle, certified; returns the solution hash.
fn satellite_placement_hash(q: usize, bundle_seed: u64, pole_seed: u64) -> u64 {
    let settings = TrackSettings::default();
    let policy = CertifyPolicy::full();
    let sat = satellite_plant(SATELLITE_OMEGA);
    let shape = Shape::new(2, 2, q);
    let bundle = StartBundle::build(shape, &mut seeded_rng(bundle_seed), &settings);
    let mut rng = seeded_rng(pole_seed);
    let poles = conjugate_pole_set(sat.dim() + q, &mut rng);
    let cont = if q == 0 {
        solve_static_state_space_certified(&sat, &poles, &mut rng, &bundle, &settings, &policy).1
    } else {
        solve_dynamic_state_space_certified(&sat, q, &poles, &mut rng, &bundle, &settings, &policy)
            .1
    };
    assert_eq!(cont.failed, 0);
    assert_all_certified(&cont.certificates, root_count(2, 2, q) as usize);
    fnv1a(&cont.coeffs)
}

#[test]
fn certified_static_satellite_placement_is_bit_identical() {
    assert_eq!(
        satellite_placement_hash(0, 1402, 1403),
        8_321_507_982_081_231_120
    );
}

#[test]
fn certified_dynamic_satellite_placement_is_bit_identical() {
    assert_eq!(
        satellite_placement_hash(1, 1404, 1405),
        12_927_035_086_748_883_597
    );
}
