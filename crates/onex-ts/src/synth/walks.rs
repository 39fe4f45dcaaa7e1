//! Generic generators used in unit tests, examples and ablations: random
//! walks (the classical hard case for similarity search — little intra-class
//! structure) and labelled sine mixtures (the easy case).

use super::helpers::gaussian;
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `n_series` independent Gaussian random walks of `len` steps.
pub fn random_walk(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3A1C_7777);
    let mut series = Vec::with_capacity(n_series);
    for _ in 0..n_series {
        let mut v = 0.0;
        let values: Vec<f64> = (0..len)
            .map(|_| {
                v += 0.1 * gaussian(&mut rng);
                v
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(TimeSeries::with_label(values, 0).expect("finite"));
    }
    Dataset::new("RandomWalk", series)
}

/// Sine mixtures in `classes` frequency classes with phase jitter; an easy,
/// highly-clusterable workload for smoke tests.
pub fn sine_mix(n_series: usize, len: usize, classes: usize, seed: u64) -> Dataset {
    let classes = classes.max(1);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51E8_8888);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let class = i % classes;
        let freq = (class + 1) as f64;
        let phase = 0.1 * gaussian(&mut rng);
        let values: Vec<f64> = (0..len)
            .map(|s| {
                let t = s as f64 / len as f64;
                (std::f64::consts::TAU * freq * t + phase).sin() + 0.02 * gaussian(&mut rng)
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(TimeSeries::with_label(values, class as i32 + 1).expect("finite"));
    }
    Dataset::new("SineMix", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_shape() {
        let d = random_walk(5, 50, 1);
        assert_eq!(d.len(), 5);
        assert!(d.series().iter().all(|t| t.len() == 50));
    }

    #[test]
    fn sine_mix_classes() {
        let d = sine_mix(10, 32, 2, 1);
        assert_eq!(
            d.series().iter().filter(|t| t.label() == Some(1)).count(),
            5
        );
    }

    #[test]
    fn sine_mix_single_class_floor() {
        let d = sine_mix(3, 16, 0, 1);
        assert!(d.series().iter().all(|t| t.label() == Some(1)));
    }
}
