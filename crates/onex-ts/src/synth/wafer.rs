//! Wafer stand-in: in-line semiconductor process-control traces. Normal
//! wafers follow a canonical recipe — ramp to a plateau, hold, short
//! transition, second plateau, ramp down. Abnormal wafers (the minority
//! class) inject a mid-hold excursion spike and a shifted second plateau,
//! matching the archive's normal/abnormal split.

use super::helpers::{add_noise, gaussian, smooth};
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Piecewise recipe evaluated at fraction `t ∈ [0,1]` of the trace.
fn recipe(t: f64, abnormal: bool, spike_at: f64) -> f64 {
    let mut v = if t < 0.1 {
        t / 0.1 // ramp up
    } else if t < 0.45 {
        1.0 // first hold
    } else if t < 0.55 {
        1.0 - 0.5 * (t - 0.45) / 0.1 // transition
    } else if t < 0.9 {
        0.5 // second hold
    } else {
        0.5 * (1.0 - (t - 0.9) / 0.1) // ramp down
    };
    if abnormal {
        // Excursion spike during the first hold and a depressed second hold.
        let d = (t - spike_at) / 0.02;
        v += 0.8 * (-0.5 * d * d).exp();
        if (0.55..0.9).contains(&t) {
            v -= 0.15;
        }
    }
    v
}

/// Generates a Wafer-like dataset (paper shape: 1000 × 152, ~10% abnormal).
pub fn wafer(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3AFE_2222);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let abnormal = i % 10 == 9;
        let label = if abnormal { -1 } else { 1 };
        let spike_at = 0.2 + 0.2 * rng.gen::<f64>();
        let stretch = 1.0 + 0.03 * gaussian(&mut rng);
        // Tool-to-tool gain and offset drift between runs.
        let gain = 1.0 + 0.10 * gaussian(&mut rng);
        let offset = 0.08 * gaussian(&mut rng);
        let mut values = Vec::with_capacity(len);
        for s in 0..len {
            let t = (s as f64 / (len - 1) as f64 * stretch).clamp(0.0, 1.0);
            values.push(gain * recipe(t, abnormal, spike_at) + offset);
        }
        let mut values = smooth(&values, 1);
        add_noise(&mut values, 0.02, &mut rng);
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, label).expect("generator output is always finite"),
        );
    }
    Dataset::new("Wafer", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninety_percent_normal() {
        let d = wafer(100, 152, 6);
        let normal = d.series().iter().filter(|t| t.label() == Some(1)).count();
        assert_eq!(normal, 90);
    }

    #[test]
    fn normal_trace_has_two_plateaus() {
        let d = wafer(10, 152, 6);
        let ts = d.get(0).unwrap(); // normal
        let at = |frac: f64| ts.values()[(frac * 151.0) as usize];
        // Gain/offset vary per wafer (±~0.1/±0.08), so allow wider bands;
        // the plateau *structure* (high hold, then half-level hold) is what
        // must survive.
        assert!(
            (at(0.3) - 1.0).abs() < 0.35,
            "first hold ~1.0, got {}",
            at(0.3)
        );
        assert!(
            (at(0.7) - 0.5).abs() < 0.3,
            "second hold ~0.5, got {}",
            at(0.7)
        );
        assert!(at(0.3) - at(0.7) > 0.2, "first hold above second");
        assert!(at(0.01) < at(0.3) - 0.3, "starts low");
    }

    #[test]
    fn abnormal_trace_has_excursion() {
        let d = wafer(100, 152, 6);
        let abnormal = d
            .series()
            .iter()
            .find(|t| t.label() == Some(-1))
            .expect("has abnormal");
        // Excursion pushes above the nominal plateau of 1.0 (+noise).
        assert!(abnormal.max() > 1.3);
    }
}
