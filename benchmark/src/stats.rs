//! Sample reduction: best-of-N per sample, percentiles across samples.
//!
//! On a small shared machine the *median* of a short wall-clock window
//! drifts with the neighbours' load while the *minimum* over interleaved
//! repeats of fixed work does not (README, "Why best-of-N"). So every timed
//! sample keeps its minimum over the repeats, and percentiles are taken
//! across samples (queries), never across repeats.

/// Linearly interpolated percentile, `p` in `[0, 100]`. `NaN` when empty,
/// so a metric that lost its samples cannot pass for a measurement.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The 50th [`percentile`].
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Smallest value; `NaN` when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One slot per sample (query), each holding the minimum over its repeats.
#[derive(Debug, Clone)]
pub struct BestOf {
    mins: Vec<f64>,
    seen: Vec<u32>,
}

impl BestOf {
    /// `n` empty slots.
    pub fn new(n: usize) -> Self {
        BestOf {
            mins: vec![f64::INFINITY; n],
            seen: vec![0; n],
        }
    }

    /// Records one repeat of sample `i`.
    pub fn observe(&mut self, i: usize, value: f64) {
        self.mins[i] = self.mins[i].min(value);
        self.seen[i] += 1;
    }

    /// Repeats of the most-observed sample.
    pub fn repeats(&self) -> u32 {
        self.seen.iter().copied().max().unwrap_or(0)
    }

    /// The per-sample minima, observed slots only.
    pub fn mins(&self) -> Vec<f64> {
        let observed = self.mins.iter().zip(&self.seen).filter(|(_, &n)| n > 0);
        observed.map(|(&v, _)| v).collect()
    }

    /// Percentile across the per-sample minima.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.mins(), p)
    }

    /// `"<samples>x<repeats>"`, printed next to every metric.
    pub fn count(&self) -> String {
        format!("{}x{}", self.mins().len(), self.repeats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert!((percentile(&xs, 95.0) - 95.05).abs() < 1e-9);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn min_and_mean() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(min(&[]).is_nan());
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn best_of_keeps_minimum_per_slot() {
        let mut b = BestOf::new(3);
        for (round, base) in [10.0, 7.0, 9.0].into_iter().enumerate() {
            for i in 0..3 {
                // Slot 2 is only observed in the first round.
                if i < 2 || round == 0 {
                    b.observe(i, base + i as f64);
                }
            }
        }
        assert_eq!(b.mins(), vec![7.0, 8.0, 12.0]);
        assert_eq!(b.repeats(), 3);
        assert_eq!(b.percentile(50.0), 8.0);
        assert_eq!(b.count(), "3x3");
    }

    #[test]
    fn unobserved_slots_are_dropped() {
        let mut b = BestOf::new(4);
        b.observe(1, 2.0);
        assert_eq!(b.mins(), vec![2.0]);
        assert_eq!(b.count(), "1x1");
    }
}
