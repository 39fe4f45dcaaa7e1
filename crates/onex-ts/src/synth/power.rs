//! ItalyPowerDemand stand-in: 24-sample daily electrical demand profiles with
//! two classes (October–March vs April–September). Winter days show a
//! pronounced evening peak on top of the morning peak; summer days are
//! flatter with a mid-day plateau. Both classes share the overnight trough,
//! giving substantial cross-class overlap at small subsequence lengths — the
//! property that makes ItalyPower the dataset with the most ONEX groups per
//! subsequence in Table 4.

use super::helpers::{add_noise, bump, gaussian, smooth};
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates an ItalyPower-like dataset of `n_series` daily profiles of
/// `len` samples (the real dataset has hourly sampling, len = 24).
pub fn italy_power(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x17A1_9000);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let winter = i % 2 == 0;
        let label = if winter { 1 } else { 2 };
        let jitter = 0.06 * gaussian(&mut rng);
        // Per-day level and amplitude variation: real demand curves shift
        // with weather and weekday — this intra-class spread is what keeps
        // value-space and shape-space (z-normalized) matching distinct.
        let level = 0.10 * gaussian(&mut rng);
        let amp = 1.0 + 0.15 * gaussian(&mut rng);
        let scale = len as f64 / 24.0;
        let mut values = Vec::with_capacity(len);
        for h in 0..len {
            let t = h as f64 / scale; // position in "hours" 0..24
                                      // Overnight base load shared by both classes.
            let mut v = 0.25 + level + amp * 0.05 * (std::f64::consts::TAU * t / 24.0).sin();
            // Morning ramp-up around 8h.
            v += amp * bump(t, 8.0 + jitter, 2.2, 0.45);
            if winter {
                // Winter evening peak around 19h (lighting + heating).
                v += amp * bump(t, 19.0 + jitter, 2.0, 0.55);
            } else {
                // Summer mid-day plateau (cooling) with a weaker evening rise.
                v += amp * bump(t, 13.5 + jitter, 3.5, 0.35);
                v += amp * bump(t, 20.0 + jitter, 2.5, 0.20);
            }
            v += 0.04 * rng.gen::<f64>();
            values.push(v);
        }
        let mut values = smooth(&values, 1);
        add_noise(&mut values, 0.015, &mut rng);
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, label).expect("generator output is always finite"),
        );
    }
    Dataset::new("ItalyPower", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_balanced_classes() {
        let d = italy_power(20, 24, 3);
        let c1 = d.series().iter().filter(|t| t.label() == Some(1)).count();
        assert_eq!(c1, 10);
    }

    #[test]
    fn winter_evening_peak_exceeds_summer() {
        let d = italy_power(40, 24, 5);
        let avg_at = |label: i32, hour: usize| {
            let (sum, cnt) = d
                .series()
                .iter()
                .filter(|t| t.label() == Some(label))
                .fold((0.0, 0usize), |(s, c), t| (s + t.values()[hour], c + 1));
            sum / cnt as f64
        };
        // 19h evening peak is a winter signature.
        assert!(avg_at(1, 19) > avg_at(2, 19));
    }
}
