//! TwoPatterns: unlike the other stand-ins, this dataset was *synthetic in
//! the original archive* (Geurts 2001), so we can regenerate it faithfully.
//! Each series is standard-normal noise with two step patterns embedded at
//! random non-overlapping positions; the class (1..=4) is the ordered pair of
//! pattern types: UD, DU, UU, DD — up-step or down-step.

use super::helpers::gaussian;
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy)]
enum Step {
    Up,
    Down,
}

/// Writes a step pattern over `xs[start..start+plen]`: first half low/high,
/// second half high/low, with amplitude 5 (dominating the unit noise, as in
/// the original construction).
fn embed(xs: &mut [f64], start: usize, plen: usize, step: Step) {
    let (first, second) = match step {
        Step::Up => (-5.0, 5.0),
        Step::Down => (5.0, -5.0),
    };
    let half = plen / 2;
    for (off, x) in xs[start..start + plen].iter_mut().enumerate() {
        *x = if off < half { first } else { second };
    }
}

/// Generates the TwoPatterns dataset (paper shape: 4000 × 128, 4 classes).
pub fn two_patterns(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7307_5555);
    let combos = [
        (Step::Up, Step::Down),   // class 1: UD
        (Step::Down, Step::Up),   // class 2: DU
        (Step::Up, Step::Up),     // class 3: UU
        (Step::Down, Step::Down), // class 4: DD
    ];
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let class = i % 4;
        let (a, b) = combos[class];
        let mut values: Vec<f64> = (0..len).map(|_| gaussian(&mut rng)).collect();
        // Pattern length ~ len/8 as in the original generator (16 for n=128).
        let plen = (len / 8).max(4);
        // Two non-overlapping positions: first in the left region, second in
        // the right region, with a random gap.
        let left_max = len / 2 - plen;
        let p1 = rng.gen_range(0..=left_max.max(1) - 1);
        let right_min = len / 2;
        let right_max = len - plen;
        let p2 = rng.gen_range(right_min..=right_max);
        embed(&mut values, p1, plen, a);
        embed(&mut values, p2, plen, b);
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, class as i32 + 1)
                .expect("generator output is always finite"),
        );
    }
    Dataset::new("TwoPattern", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_balanced_classes() {
        let d = two_patterns(40, 128, 1);
        for c in 1..=4 {
            assert_eq!(
                d.series().iter().filter(|t| t.label() == Some(c)).count(),
                10
            );
        }
    }

    #[test]
    fn patterns_dominate_noise() {
        let d = two_patterns(8, 128, 1);
        for ts in d.series() {
            // Embedded ±5 steps must be visible above ~N(0,1) noise.
            assert!(ts.max() > 4.0);
            assert!(ts.min() < -4.0);
        }
    }

    #[test]
    fn class1_is_up_then_down() {
        let d = two_patterns(4, 128, 9);
        let ts = d.get(0).unwrap(); // class 1 = UD
        let vals = ts.values();
        // Find the left pattern: the first index where |v| >= 4.5.
        let start = vals.iter().position(|v| v.abs() >= 4.5).unwrap();
        assert!(start < 64, "first pattern in left half");
        // Up-step: low then high.
        assert!(vals[start] < 0.0);
    }

    #[test]
    fn patterns_do_not_overlap() {
        // The left pattern ends before len/2; the right starts at/after len/2.
        let d = two_patterns(40, 64, 3);
        for ts in d.series() {
            let vals = ts.values();
            let plen = 64 / 8;
            let first = vals.iter().position(|v| v.abs() >= 4.5).unwrap();
            assert!(first + plen <= 32 + plen, "left pattern near left half");
        }
    }
}
