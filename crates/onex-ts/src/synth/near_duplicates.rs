//! Dense clusters of near-identical subsequences — the symbolic-index
//! stress case.
//!
//! Every series is a tiny perturbation of one of a handful of smooth
//! cluster prototypes, so whole clusters land on the *same* SAX word: the
//! word buckets are maximally skewed (a few huge buckets, most empty) and
//! a symbolic index earns nothing from exact-word lookups alone — it must
//! descend to its envelope bounds to separate candidates. The grouping
//! layer, by contrast, loves this workload (few groups, many members).

use super::helpers::gaussian;
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Number of prototype clusters the series collapse onto.
const CLUSTERS: usize = 4;

/// `n_series` near-duplicates of `CLUSTERS` smooth prototypes of `len`
/// samples: series `i` is prototype `i % CLUSTERS` plus sub-percent noise
/// and a hair of phase jitter. Per-series seeding keeps generation
/// prefix-stable (series `i` is identical at any `n_series > i`).
pub fn near_duplicates(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let cluster = i % CLUSTERS;
        let mut rng =
            SmallRng::seed_from_u64(seed ^ 0xDED0_99AA ^ (i as u64).wrapping_mul(0x9E37_79B9));
        let freq = (cluster + 1) as f64;
        let tilt = 0.3 * cluster as f64;
        let phase = 0.01 * gaussian(&mut rng);
        let values: Vec<f64> = (0..len)
            .map(|s| {
                let t = s as f64 / len.max(1) as f64;
                (std::f64::consts::TAU * freq * t + phase).sin()
                    + 0.4 * (std::f64::consts::TAU * (freq + 2.0) * t).cos()
                    + tilt * t
                    + 0.005 * gaussian(&mut rng)
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(TimeSeries::with_label(values, cluster as i32 + 1).expect("finite"));
    }
    Dataset::new("NearDuplicates", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clusters_are_near_identical_and_prefix_stable() {
        let d = near_duplicates(12, 32, 7);
        assert_eq!(d.len(), 12);
        // Same-cluster series differ by far less than cross-cluster ones.
        let dist = |a: usize, b: usize| -> f64 {
            d.get(a)
                .unwrap()
                .values()
                .iter()
                .zip(d.get(b).unwrap().values())
                .map(|(x, y)| (x - y) * (x - y))
                .sum()
        };
        assert!(dist(0, 4) < 0.05, "within-cluster {}", dist(0, 4));
        assert!(dist(0, 1) > 1.0, "between-cluster {}", dist(0, 1));
        // Prefix stability: a longer run reproduces the shorter one.
        let longer = near_duplicates(20, 32, 7);
        assert_eq!(d.series(), &longer.series()[..12]);
        // Determinism and seed sensitivity.
        assert_eq!(d, near_duplicates(12, 32, 7));
        assert_ne!(d, near_duplicates(12, 32, 8));
    }
}
