//! ECG stand-in: single-heartbeat windows modelled as the classical sum of
//! P/Q/R/S/T waves (Gaussian components at their canonical offsets within the
//! cardiac cycle). Class 1 is a normal beat; class 2 an abnormal beat with a
//! depressed, widened T wave and elevated ST segment — mimicking the
//! normal/myocardial-infarction split of the UCR ECG dataset.

use super::helpers::{add_noise, bump, gaussian};
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One beat sampled at `len` points over the window `[0, 1)` of the cycle.
fn beat(len: usize, abnormal: bool, rng: &mut SmallRng) -> Vec<f64> {
    // Per-beat timing, amplitude and baseline variability (real ECGs have
    // substantial baseline wander and gain differences between leads).
    let dt = 0.015 * gaussian(rng);
    let amp = 1.0 + 0.15 * gaussian(rng);
    let baseline = 0.12 * gaussian(rng);
    let mut values = Vec::with_capacity(len);
    for i in 0..len {
        let t = i as f64 / len as f64 + dt;
        // P wave, QRS complex, T wave at canonical cycle fractions.
        let mut v = baseline + bump(t, 0.18, 0.025, 0.18 * amp); // P
        v += bump(t, 0.38, 0.012, -0.22 * amp); // Q
        v += bump(t, 0.42, 0.014, 1.4 * amp); // R
        v += bump(t, 0.46, 0.012, -0.30 * amp); // S
        if abnormal {
            // ST elevation and a flattened, widened, slightly inverted T.
            v += 0.12
                * amp
                * ((t - 0.48).max(0.0) * 8.0).min(1.0)
                * (1.0 - ((t - 0.75) * 6.0).clamp(0.0, 1.0));
            v += bump(t, 0.70, 0.07, -0.15 * amp); // inverted T
        } else {
            v += bump(t, 0.68, 0.045, 0.35 * amp); // normal T
        }
        v += 0.01 * rng.gen::<f64>(); // baseline wander
        values.push(v);
    }
    add_noise(&mut values, 0.02, rng);
    values
}

/// Generates an ECG-like dataset (paper shape: 200 × 97).
pub fn ecg(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0EC6_0000);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        // Roughly 2:1 normal:abnormal, as in the archive's ECG200.
        let abnormal = i % 3 == 2;
        let label = if abnormal { 2 } else { 1 };
        let values = beat(len, abnormal, &mut rng);
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, label).expect("generator output is always finite"),
        );
    }
    Dataset::new("ECG", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_peak_dominates() {
        let d = ecg(10, 97, 9);
        for ts in d.series() {
            let (argmax, _) =
                ts.values()
                    .iter()
                    .enumerate()
                    .fold((0, f64::NEG_INFINITY), |(ai, av), (i, &v)| {
                        if v > av {
                            (i, v)
                        } else {
                            (ai, av)
                        }
                    });
            // R peak at ~0.42 of the window
            let frac = argmax as f64 / ts.len() as f64;
            assert!((frac - 0.42).abs() < 0.08, "R peak at {frac}");
        }
    }

    #[test]
    fn class_mix_is_two_to_one() {
        let d = ecg(30, 64, 2);
        let abnormal = d.series().iter().filter(|t| t.label() == Some(2)).count();
        assert_eq!(abnormal, 10);
    }
}
