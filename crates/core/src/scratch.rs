//! Per-worker scratch of the fused condition kernels.

use pieri_linalg::{CMat, DetCofactor};
use pieri_num::Complex64;

/// Reusable buffers for evaluating one determinantal condition at a
/// time: the `n × n` condition matrix, its cofactor matrix, the fused
/// det+cofactor engine, and the homogenisation-weight buffers of the
/// moving condition currently being built (a fixed condition keeps its
/// weights). Every [`crate::ConditionSystem`] (the Pieri homotopy, the
/// instance homotopy and the certification target) installs one into
/// the tracker's [`pieri_tracker::HomotopyScratch`] slot on its first
/// fused call; a worker's one slot serves all three.
pub(crate) struct CondScratch {
    pub cond: CMat,
    pub cof: CMat,
    pub engine: DetCofactor,
    pub slot_w: Vec<Complex64>,
    pub top_w: Vec<Complex64>,
}

impl CondScratch {
    pub fn new() -> Self {
        CondScratch {
            cond: CMat::zeros(0, 0),
            cof: CMat::zeros(0, 0),
            engine: DetCofactor::new(),
            slot_w: Vec::new(),
            top_w: Vec::new(),
        }
    }

    /// Grows the buffers for condition-matrix size `n`, rank `k` and `p`
    /// columns (no-op when already sized — workspaces migrate between
    /// patterns of different ranks and between shapes).
    pub fn ensure(&mut self, n: usize, k: usize, p: usize) {
        if (self.cond.rows(), self.cond.cols()) != (n, n) {
            self.cond = CMat::zeros(n, n);
            self.cof = CMat::zeros(n, n);
        }
        if self.slot_w.len() != k {
            self.slot_w.clear();
            self.slot_w.resize(k, Complex64::ZERO);
        }
        if self.top_w.len() != p {
            self.top_w.clear();
            self.top_w.resize(p, Complex64::ZERO);
        }
    }
}
