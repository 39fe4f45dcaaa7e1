//! FaceAll stand-in: face outlines mapped to pseudo-periodic 1-D contours
//! (the real dataset traces head profiles as a distance-from-centroid signal).
//! Each of 14 "subjects" (classes) is a fixed mixture of low-frequency
//! harmonics — the brow/nose/chin landmarks — with per-instance amplitude and
//! phase jitter.

use super::helpers::{add_noise, gaussian};
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 14;

/// Generates a Face-like dataset (paper shape: 560 × 131, 14 classes).
pub fn face(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut class_rng = SmallRng::seed_from_u64(seed ^ 0xFACE_0000);
    // Per-class harmonic signatures: amplitudes and phases of 5 harmonics.
    let signatures: Vec<[(f64, f64); 5]> = (0..CLASSES)
        .map(|_| {
            let mut sig = [(0.0, 0.0); 5];
            for (h, slot) in sig.iter_mut().enumerate() {
                let amp = 0.8 / (h as f64 + 1.0) * (0.5 + class_rng.gen::<f64>());
                let phase = class_rng.gen::<f64>() * std::f64::consts::TAU;
                *slot = (amp, phase);
            }
            sig
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACE_1111);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let class = i % CLASSES;
        let sig = &signatures[class];
        // Per-instance expression/pose variation: amplitude, phase and a
        // level offset (head size / distance from camera).
        let amp_jit = 1.0 + 0.15 * gaussian(&mut rng);
        let phase_jit = 0.10 * gaussian(&mut rng);
        let offset = 0.15 * gaussian(&mut rng);
        let mut values = Vec::with_capacity(len);
        for s in 0..len {
            let t = s as f64 / len as f64 * std::f64::consts::TAU;
            let mut v = offset;
            for (h, &(amp, phase)) in sig.iter().enumerate() {
                v += amp * amp_jit * ((h as f64 + 1.0) * t + phase + phase_jit).sin();
            }
            values.push(v);
        }
        add_noise(&mut values, 0.03, &mut rng);
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, class as i32 + 1)
                .expect("generator output is always finite"),
        );
    }
    Dataset::new("Face", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_classes_round_robin() {
        let d = face(28, 131, 4);
        for c in 1..=14 {
            assert_eq!(
                d.series().iter().filter(|t| t.label() == Some(c)).count(),
                2
            );
        }
    }

    #[test]
    fn same_class_instances_are_close() {
        let d = face(28, 64, 8);
        let a = d.get(0).unwrap(); // class 1
        let b = d.get(14).unwrap(); // class 1 again
        let c = d.get(1).unwrap(); // class 2
        let dist = |x: &crate::TimeSeries, y: &crate::TimeSeries| -> f64 {
            x.values()
                .iter()
                .zip(y.values())
                .map(|(p, q)| (p - q) * (p - q))
                .sum()
        };
        assert!(dist(a, b) < dist(a, c));
    }
}
