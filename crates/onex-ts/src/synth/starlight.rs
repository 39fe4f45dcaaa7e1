//! StarLightCurves stand-in: folded brightness curves of variable stars.
//! Three classes mirror the real dataset's Cepheid / RR Lyrae / eclipsing-
//! binary split: a smooth asymmetric single hump, a sharp-rise slow-decay
//! sawtooth hump, and a flat curve with two eclipse dips. Used by the
//! scalability experiment (Fig. 3), which subsets N ∈ 1000..=5000 series of
//! length 100.

use super::helpers::{add_noise, bump, gaussian, smooth};
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a StarLightCurves-like dataset.
pub fn star_light_curves(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57A6_6666);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let class = i % 3;
        let phase = 0.04 * gaussian(&mut rng);
        let amp = 1.0 + 0.2 * gaussian(&mut rng);
        let offset = 0.10 * gaussian(&mut rng);
        let mut values = Vec::with_capacity(len);
        for s in 0..len {
            let t = s as f64 / len as f64 + phase;
            let v = offset
                + match class {
                    // Cepheid: smooth asymmetric hump.
                    0 => amp * (bump(t, 0.35, 0.12, 1.0) + bump(t, 0.55, 0.2, 0.4)),
                    // RR Lyrae: fast rise, slow exponential decay.
                    1 => {
                        let tt = t.rem_euclid(1.0);
                        if tt < 0.15 {
                            amp * tt / 0.15
                        } else {
                            amp * (-(tt - 0.15) * 3.0).exp()
                        }
                    }
                    // Eclipsing binary: flat with primary and secondary dips.
                    _ => amp * (0.9 - bump(t, 0.3, 0.04, 0.7) - bump(t, 0.75, 0.04, 0.35)),
                };
            values.push(v);
        }
        let mut values = smooth(&values, 1);
        add_noise(&mut values, 0.02, &mut rng);
        // Occasional photometric outlier, as in real light curves.
        if rng.gen::<f64>() < 0.1 {
            let at = rng.gen_range(0..len);
            values[at] += 0.3 * gaussian(&mut rng);
        }
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, class as i32 + 1)
                .expect("generator output is always finite"),
        );
    }
    Dataset::new("StarLightCurves", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_classes() {
        let d = star_light_curves(9, 100, 2);
        for c in 1..=3 {
            assert_eq!(
                d.series().iter().filter(|t| t.label() == Some(c)).count(),
                3
            );
        }
    }

    #[test]
    fn eclipsing_binary_has_dip() {
        let d = star_light_curves(9, 100, 2);
        let eb = d
            .series()
            .iter()
            .find(|t| t.label() == Some(3))
            .expect("class 3 exists");
        // Primary eclipse near phase 0.3 drops well below the plateau
        // between the eclipses. Window minima/maxima rather than fixed
        // indices: the per-series phase jitter shifts the dip a few samples.
        let eclipse = eb.values()[20..45]
            .iter()
            .fold(f64::INFINITY, |a, &v| a.min(v));
        let plateau = eb.values()[45..70]
            .iter()
            .fold(f64::NEG_INFINITY, |a, &v| a.max(v));
        assert!(
            eclipse < plateau - 0.3,
            "eclipse {eclipse} not below plateau {plateau}"
        );
    }

    #[test]
    fn rr_lyrae_rises_fast() {
        let d = star_light_curves(9, 200, 7);
        let rr = d
            .series()
            .iter()
            .find(|t| t.label() == Some(2))
            .expect("class 2 exists");
        // Peak should occur in the first quarter of the phase.
        let argmax = rr
            .values()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(argmax < 70, "peak at {argmax}");
    }
}
