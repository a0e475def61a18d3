//! Localization patterns: the bottom-pivot combinatorics of the Pieri
//! homotopy (Fig. 3 of the paper).

use std::fmt;

/// The fixed problem dimensions `(m, p, q)` and everything derived from
/// them.
///
/// * `m` — number of inputs (codimension of the given planes),
/// * `p` — number of outputs (dimension of the solution planes),
/// * `q` — McMillan degree of the compensator (degree of the maps),
/// * `n = mp + q(m+p)` — number of intersection conditions = dimension of
///   the solution variety = number of unknowns of a fully general map.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    m: usize,
    p: usize,
    q: usize,
    /// Per-column caps on the bottom pivots (concatenated row indices).
    caps: Vec<usize>,
}

impl Shape {
    /// Creates the shape for a machine with `m` inputs, `p` outputs and a
    /// degree-`q` compensator.
    ///
    /// # Panics
    /// Panics when `m == 0` or `p == 0`.
    pub fn new(m: usize, p: usize, q: usize) -> Self {
        assert!(m >= 1 && p >= 1, "need m ≥ 1 and p ≥ 1");
        let big_n = m + p;
        // q = a·p + r with 0 ≤ r < p: the first p−r columns are capped at
        // (a+1)(m+p) concatenated rows, the remaining r at (a+2)(m+p).
        let a = q / p;
        let r = q % p;
        let caps = (0..p)
            .map(|j| {
                if j < p - r {
                    (a + 1) * big_n
                } else {
                    (a + 2) * big_n
                }
            })
            .collect();
        Shape { m, p, q, caps }
    }

    /// Number of inputs.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of outputs.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Compensator degree.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Ambient dimension `m + p`.
    pub fn big_n(&self) -> usize {
        self.m + self.p
    }

    /// Number of intersection conditions `n = mp + q(m+p)`.
    pub fn conditions(&self) -> usize {
        self.m * self.p + self.q * (self.m + self.p)
    }

    /// Cap on the bottom pivot of (0-indexed) column `j`.
    pub fn cap(&self, j: usize) -> usize {
        self.caps[j]
    }

    /// Rows of the concatenated coefficient matrix (the largest cap).
    pub fn concat_rows(&self) -> usize {
        *self.caps.last().expect("p ≥ 1")
    }

    /// The trivial localization pattern `b = (1, 2, …, p)` — zero
    /// conditions satisfied, the unique minimal poset element.
    pub fn trivial(&self) -> Pattern {
        Pattern {
            shape: self.clone(),
            pivots: (1..=self.p).collect(),
        }
    }

    /// The root localization pattern: the unique valid pattern of full
    /// rank `n` (all conditions satisfied).
    ///
    /// Computed greedily from the last column down and verified; the
    /// construction panics if the greedy pattern were ever not of full
    /// rank, which would indicate an inconsistent shape.
    pub fn root(&self) -> Pattern {
        let p = self.p;
        let big_n = self.big_n();
        let mut pivots = vec![0usize; p];
        // Maximise the last pivot, then each previous one; finally clamp
        // the spread constraint b_p − b_1 < m+p by lowering the top end.
        // Iterate to a fixed point (at most p rounds).
        pivots[p - 1] = self.caps[p - 1];
        loop {
            for j in (0..p - 1).rev() {
                pivots[j] = self.caps[j].min(pivots[j + 1] - 1);
            }
            if pivots[p - 1] - pivots[0] < big_n {
                break;
            }
            pivots[p - 1] -= 1;
        }
        let pat = Pattern {
            shape: self.clone(),
            pivots,
        };
        assert!(pat.is_valid(), "greedy root pattern must be valid");
        assert_eq!(
            pat.rank(),
            self.conditions(),
            "root pattern rank must equal the number of conditions"
        );
        pat
    }
}

/// A localization pattern with fixed top pivots `[1..p]`, identified by
/// its bottom pivots on the concatenated `(q+1)(m+p) × p` coefficient
/// matrix.
///
/// Column `j` (1-indexed) of a map fitting the pattern has free
/// coefficients exactly in concatenated rows `j..=b_j`, with the top entry
/// (row `j`) normalised to 1 — so the pattern has `rank = Σ (b_j − j)`
/// unknowns, equal to the number of intersection conditions its solutions
/// satisfy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    shape: Shape,
    /// 1-indexed bottom pivots, strictly increasing.
    pivots: Vec<usize>,
}

impl Pattern {
    /// Builds a pattern from bottom pivots, validating it.
    ///
    /// Returns `None` when the pivots violate the pattern rules.
    pub fn new(shape: &Shape, pivots: Vec<usize>) -> Option<Pattern> {
        let pat = Pattern {
            shape: shape.clone(),
            pivots,
        };
        pat.is_valid().then_some(pat)
    }

    /// The shape this pattern belongs to.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Bottom pivots (1-indexed concatenated rows), strictly increasing.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Checks the three validity rules from the paper:
    /// column caps, strictly increasing pivots (with `b_j ≥ j` from the
    /// fixed top pivots), and pairwise differences `< m+p`.
    pub fn is_valid(&self) -> bool {
        let p = self.shape.p;
        if self.pivots.len() != p {
            return false;
        }
        for j in 0..p {
            let b = self.pivots[j];
            if b < j + 1 || b > self.shape.cap(j) {
                return false;
            }
            if j > 0 && self.pivots[j - 1] >= b {
                return false;
            }
        }
        // Pairwise differences < m+p ⟺ spread < m+p for sorted pivots.
        self.pivots[p - 1] - self.pivots[0] < self.shape.big_n()
    }

    /// Rank `Σ (b_j − j)` — the number of intersection conditions a map
    /// fitting this pattern satisfies, and its number of unknowns.
    pub fn rank(&self) -> usize {
        self.pivots
            .iter()
            .enumerate()
            .map(|(j, &b)| b - (j + 1))
            .sum()
    }

    /// Degree of column `j` (0-indexed): the block of the concatenated
    /// matrix holding its bottom pivot.
    pub fn col_degree(&self, j: usize) -> usize {
        (self.pivots[j] - 1) / self.shape.big_n()
    }

    /// Residue of the bottom pivot of column `j` within its block —
    /// the physical row (1-indexed, in `1..=m+p`) of the leading
    /// coefficient. Validity guarantees these are pairwise distinct.
    pub fn pivot_residue(&self, j: usize) -> usize {
        (self.pivots[j] - 1) % self.shape.big_n() + 1
    }

    /// All *bottom children*: patterns obtained by decrementing one bottom
    /// pivot (one condition fewer). Start solutions of the Pieri homotopy
    /// at this pattern embed the children's solutions.
    pub fn children(&self) -> Vec<Pattern> {
        let mut out = Vec::new();
        for j in 0..self.pivots.len() {
            if self.pivots[j] == 1 {
                continue;
            }
            let mut pv = self.pivots.clone();
            pv[j] -= 1;
            if let Some(pat) = Pattern::new(&self.shape, pv) {
                out.push(pat);
            }
        }
        out
    }

    /// All valid *parents*: patterns obtained by incrementing one bottom
    /// pivot (one condition more). The Pieri tree grows along these edges.
    pub fn parents(&self) -> Vec<Pattern> {
        let mut out = Vec::new();
        for j in 0..self.pivots.len() {
            let mut pv = self.pivots.clone();
            pv[j] += 1;
            if let Some(pat) = Pattern::new(&self.shape, pv) {
                out.push(pat);
            }
        }
        out
    }

    /// Index of the column whose pivot differs by one from `child`, when
    /// `child` is a bottom child of `self`.
    pub fn child_column(&self, child: &Pattern) -> Option<usize> {
        if self.shape != child.shape {
            return None;
        }
        let mut found = None;
        for j in 0..self.pivots.len() {
            match self.pivots[j] as i64 - child.pivots[j] as i64 {
                0 => {}
                1 if found.is_none() => found = Some(j),
                _ => return None,
            }
        }
        found
    }

    /// The shorthand notation of the paper, e.g. `[4 7]`.
    pub fn shorthand(&self) -> String {
        let inner: Vec<String> = self.pivots.iter().map(|b| b.to_string()).collect();
        format!("[{}]", inner.join(" "))
    }

    /// Renders the concatenated form of Fig. 3: a `(q+1)(m+p) × p` grid of
    /// `*` (free coefficient), `1` (normalised top pivot) and `.` (zero).
    pub fn concatenated_form(&self) -> String {
        let rows = self.shape.concat_rows();
        let p = self.shape.p;
        let mut s = String::new();
        for r in 1..=rows {
            for j in 0..p {
                let ch = if r == j + 1 {
                    '1'
                } else if r > j + 1 && r <= self.pivots[j] {
                    '*'
                } else {
                    '.'
                };
                s.push(ch);
                if j + 1 < p {
                    s.push(' ');
                }
            }
            s.push('\n');
        }
        s
    }

    /// Renders the standard (degree-by-degree) form of Fig. 3: one
    /// `(m+p) × p` grid per degree `0..=q`, entries like `*·s^d`.
    pub fn standard_form(&self) -> String {
        let big_n = self.shape.big_n();
        let p = self.shape.p;
        let mut s = String::new();
        for d in 0..=self.shape.q {
            s.push_str(&format!("degree {d} coefficients:\n"));
            for i in 1..=big_n {
                let r = d * big_n + i;
                for j in 0..p {
                    let ch = if r == j + 1 {
                        '1'
                    } else if r > j + 1 && r <= self.pivots[j] {
                        '*'
                    } else {
                        '.'
                    };
                    s.push(ch);
                    if j + 1 < p {
                        s.push(' ');
                    }
                }
                s.push('\n');
            }
        }
        s
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.shorthand())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_dimensions_match_paper() {
        // n = mp + q(m+p).
        let s = Shape::new(2, 2, 1);
        assert_eq!(s.conditions(), 8);
        assert_eq!(s.big_n(), 4);
        let s = Shape::new(3, 2, 1);
        assert_eq!(s.conditions(), 11);
        let s = Shape::new(4, 4, 0);
        assert_eq!(s.conditions(), 16);
    }

    #[test]
    fn caps_follow_the_definition() {
        // (2,2,1): q = 0·2 + 1 → first column cap 4, second cap 8 (Fig 3).
        let s = Shape::new(2, 2, 1);
        assert_eq!(s.cap(0), 4);
        assert_eq!(s.cap(1), 8);
        // (2,2,2): q = 1·2 + 0 → both columns cap 8.
        let s = Shape::new(2, 2, 2);
        assert_eq!(s.cap(0), 8);
        assert_eq!(s.cap(1), 8);
        // q = 0: all caps m+p.
        let s = Shape::new(3, 3, 0);
        assert_eq!((s.cap(0), s.cap(1), s.cap(2)), (6, 6, 6));
    }

    #[test]
    fn roots_match_hand_computed_patterns() {
        // Fig 3/5: root of (2,2,1) is [4 7].
        assert_eq!(Shape::new(2, 2, 1).root().pivots(), &[4, 7]);
        // (3,2,1): [5 9] (rank 11).
        assert_eq!(Shape::new(3, 2, 1).root().pivots(), &[5, 9]);
        // q = 0 root is [m+1 … m+p].
        assert_eq!(Shape::new(3, 3, 0).root().pivots(), &[4, 5, 6]);
        assert_eq!(Shape::new(4, 3, 0).root().pivots(), &[5, 6, 7]);
        // (3,3,1): caps (6,6,12), spread < 6 → [5 6 10], rank 15.
        assert_eq!(Shape::new(3, 3, 1).root().pivots(), &[5, 6, 10]);
    }

    #[test]
    fn root_and_trivial_ranks() {
        for &(m, p, q) in &[
            (2, 2, 0),
            (2, 2, 1),
            (3, 2, 1),
            (3, 3, 1),
            (2, 3, 1),
            (4, 4, 0),
        ] {
            let s = Shape::new(m, p, q);
            assert_eq!(s.trivial().rank(), 0, "({m},{p},{q})");
            assert_eq!(s.root().rank(), s.conditions(), "({m},{p},{q})");
            assert!(s.trivial().is_valid());
        }
    }

    #[test]
    fn validity_rules() {
        let s = Shape::new(2, 2, 1);
        // Spread must be < m+p = 4: [1 5] invalid, [4 7] valid.
        assert!(Pattern::new(&s, vec![1, 5]).is_none());
        assert!(Pattern::new(&s, vec![4, 7]).is_some());
        // Caps: b_1 ≤ 4.
        assert!(Pattern::new(&s, vec![5, 7]).is_none());
        // Strictly increasing.
        assert!(Pattern::new(&s, vec![3, 3]).is_none());
        // b_j ≥ j.
        assert!(Pattern::new(&s, vec![1, 1]).is_none());
    }

    #[test]
    fn children_and_parents_are_inverse() {
        let s = Shape::new(2, 2, 1);
        let root = s.root();
        for ch in root.children() {
            assert_eq!(ch.rank() + 1, root.rank());
            assert!(ch.parents().contains(&root));
            assert!(root.child_column(&ch).is_some());
        }
        let trivial = s.trivial();
        assert!(trivial.children().is_empty());
        for par in trivial.parents() {
            assert_eq!(par.rank(), 1);
            assert!(par.children().contains(&trivial));
        }
    }

    #[test]
    fn child_column_identifies_decrement() {
        let s = Shape::new(2, 2, 1);
        let pat = Pattern::new(&s, vec![3, 6]).unwrap();
        let child = Pattern::new(&s, vec![3, 5]).unwrap();
        assert_eq!(pat.child_column(&child), Some(1));
        let not_child = Pattern::new(&s, vec![2, 5]).unwrap();
        assert_eq!(pat.child_column(&not_child), None);
        assert_eq!(pat.child_column(&pat), None);
    }

    #[test]
    fn pivot_residues_distinct_for_valid_patterns() {
        let s = Shape::new(2, 2, 2);
        // Enumerate some valid patterns and check the residue claim that
        // the special plane construction relies on.
        for b1 in 1..=8 {
            for b2 in (b1 + 1)..=8 {
                if let Some(pat) = Pattern::new(&s, vec![b1, b2]) {
                    assert_ne!(pat.pivot_residue(0), pat.pivot_residue(1), "pattern {pat}");
                }
            }
        }
    }

    #[test]
    fn fig3_concatenated_form() {
        // Fig 3 of the paper: (2,2,1), root [4 7]: first column stars in
        // rows 1..4, second column rows 2..7, 10 nonzero entries.
        let s = Shape::new(2, 2, 1);
        let root = s.root();
        let text = root.concatenated_form();
        let stars = text.matches('*').count();
        let ones = text.matches('1').count();
        assert_eq!(ones, 2);
        assert_eq!(stars + ones, 10, "n + p nonzero coefficients");
        assert_eq!(text.lines().count(), 8);
    }

    #[test]
    fn shorthand_format() {
        let s = Shape::new(2, 2, 1);
        assert_eq!(s.root().shorthand(), "[4 7]");
        assert_eq!(s.trivial().shorthand(), "[1 2]");
    }

    #[test]
    fn col_degrees() {
        let s = Shape::new(2, 2, 1);
        let root = s.root(); // [4 7]
        assert_eq!(root.col_degree(0), 0); // pivot 4 in block 0
        assert_eq!(root.col_degree(1), 1); // pivot 7 in block 1
        assert_eq!(root.pivot_residue(0), 4);
        assert_eq!(root.pivot_residue(1), 3);
    }
}
