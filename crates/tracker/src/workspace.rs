//! Reusable per-worker scratch for the predictor–corrector loop.
//!
//! Tracking one path evaluates the homotopy and factors its Jacobian
//! thousands of times; allocating the buffers for every call dominated
//! profiles before the fused kernels landed. A [`TrackWorkspace`] owns
//! every buffer the tracker needs — residual and update vectors, the
//! Jacobian and its LU storage, the predictor's Runge–Kutta stages, the
//! path state vectors — plus an opaque [`HomotopyScratch`] slot that a
//! homotopy implementation fills with whatever *it* needs (condition
//! matrices, cofactor storage, weight tables). Thread one workspace per
//! worker through [`crate::track_path_with`] and steady-state tracking
//! performs no heap allocation.

use pieri_linalg::{CMat, Lu};
use pieri_num::Complex64;
use std::any::Any;

/// Opaque homotopy-owned scratch living inside a [`TrackWorkspace`].
///
/// The tracker cannot know what buffers a particular [`crate::Homotopy`]
/// implementation wants to reuse across fused evaluations, so it lends
/// this slot to every fused call; the homotopy lazily installs its own
/// scratch type on first use (one allocation per worker, ever) and
/// downcasts it back on later calls. A workspace that migrates between
/// homotopy *types* simply reinstalls — correctness never depends on the
/// slot's contents, only speed does.
#[derive(Debug, Default)]
pub struct HomotopyScratch {
    slot: Option<Box<dyn Any + Send>>,
}

impl HomotopyScratch {
    /// An empty slot.
    pub fn new() -> Self {
        HomotopyScratch::default()
    }

    /// Returns the installed scratch of type `T`, installing `make()`
    /// when the slot is empty or holds a different type.
    pub fn get_or_insert_with<T: Any + Send>(&mut self, make: impl FnOnce() -> T) -> &mut T {
        let stale = match &self.slot {
            Some(b) => !b.is::<T>(),
            None => true,
        };
        if stale {
            self.slot = Some(Box::new(make()));
        }
        self.slot
            .as_mut()
            .expect("slot just filled")
            .downcast_mut::<T>()
            .expect("type checked above")
    }
}

/// Reusable buffers for tracking paths of one (or many) homotopies.
///
/// Create one per worker thread with [`TrackWorkspace::new`] and pass it
/// to [`crate::track_path_with`] / [`crate::newton_correct_with`]; the
/// buffers grow to the largest dimension seen and are reused across
/// paths, patterns and homotopies. All fields are crate-private — the
/// workspace is a capability, not a data structure.
#[derive(Debug)]
pub struct TrackWorkspace {
    dim: usize,
    /// Residual `H(x, t)`.
    pub(crate) fx: Vec<Complex64>,
    /// Right-hand side / solution of the Newton and Davidenko solves.
    pub(crate) rhs: Vec<Complex64>,
    /// `∂H/∂t` for the tangent system.
    pub(crate) ht: Vec<Complex64>,
    /// Jacobian `∂H/∂x`.
    pub(crate) jac: CMat,
    /// Reusable LU storage for the Newton/tangent solves.
    pub(crate) lu: Lu,
    /// The predictor's Runge–Kutta stages `k1..k4` and its midpoint.
    pub(crate) stages: [Vec<Complex64>; 5],
    /// Path state: current point, predicted point, and the endgame's
    /// previous iterate.
    pub(crate) state_x: Vec<Complex64>,
    pub(crate) state_pred: Vec<Complex64>,
    pub(crate) state_before: Vec<Complex64>,
    /// Endgame norm history (capacity retained across paths).
    pub(crate) endgame_norms: Vec<f64>,
    /// Homotopy-owned scratch for the fused kernels.
    pub(crate) scratch: HomotopyScratch,
}

impl Default for TrackWorkspace {
    fn default() -> Self {
        TrackWorkspace::new()
    }
}

impl TrackWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        TrackWorkspace {
            dim: usize::MAX,
            fx: Vec::new(),
            rhs: Vec::new(),
            ht: Vec::new(),
            jac: CMat::zeros(0, 0),
            lu: Lu::default(),
            stages: Default::default(),
            state_x: Vec::new(),
            state_pred: Vec::new(),
            state_before: Vec::new(),
            endgame_norms: Vec::new(),
            scratch: HomotopyScratch::new(),
        }
    }

    /// Grows every buffer to dimension `n` (no-op when already there).
    pub fn ensure(&mut self, n: usize) {
        if self.dim == n {
            return;
        }
        self.dim = n;
        let vectors = [&mut self.fx, &mut self.rhs, &mut self.ht];
        for buf in vectors.into_iter().chain(&mut self.stages) {
            buf.clear();
            buf.resize(n, Complex64::ZERO);
        }
        if (self.jac.rows(), self.jac.cols()) != (n, n) {
            self.jac = CMat::zeros(n, n);
        }
    }

    /// The fused-evaluation buffers `(fx, jac, scratch)` — the triple a
    /// [`crate::Homotopy::eval_and_jacobian`] call needs. Exposed for
    /// benches and tests that drive the fused kernels directly.
    pub fn eval_buffers(&mut self) -> (&mut [Complex64], &mut CMat, &mut HomotopyScratch) {
        (&mut self.fx, &mut self.jac, &mut self.scratch)
    }
}
