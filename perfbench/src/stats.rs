//! Order statistics and the output digest.

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// sample with at least `pct` of the samples at or below it. Zero for an
/// empty slice.
pub fn percentile(samples: &mut [f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (pct * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// How many of `n` samples lie strictly beyond their nearest-rank
/// `pct` percentile (the support a tail percentile rests on).
pub fn beyond(n: usize, pct: f64) -> usize {
    n - ((pct * n as f64).ceil() as usize).min(n)
}

/// Median (nearest-rank p50).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// 64-bit FNV-1a over 64-bit words: the digest of solution coefficient
/// bits. Not cryptographic; it only has to change when a bit changes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest, byte by byte.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest of one answer: every coefficient's real and imaginary
    /// bits, in order.
    pub fn of(coeffs: &[Vec<pieri_num::Complex64>]) -> u64 {
        let mut d = Digest::default();
        d.word(coeffs.len() as u64);
        for z in coeffs.iter().flatten() {
            d.word(z.re.to_bits());
            d.word(z.im.to_bits());
        }
        d.value()
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(109, 0.9), 10);
        assert_eq!(percentile(&mut [], 0.9), 0.0);
        assert_eq!(percentile(&mut [3.0], 0.9), 3.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.word(1.0f64.to_bits());
        b.word(f64::from_bits(1.0f64.to_bits() ^ 1).to_bits());
        assert_ne!(a.value(), b.value());
    }
}
