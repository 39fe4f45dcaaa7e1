//! The benchmark's own ground truth: a naive banded DTW and an exhaustive
//! exact-length scan. Deliberately independent of `onex-dist` — same
//! definition, separate code — so the oracle cannot move when the engine's
//! kernels do. Only the unit test below looks at `onex::dist::dtw`.

use onex::Dataset;

/// Sakoe-Chiba half-width for a `ratio` band over an `n × m` matrix: at
/// least `|n − m|` (the corner stays reachable) and at least 1.
fn band(n: usize, m: usize, ratio: f64) -> usize {
    let r = (ratio * n.max(m) as f64).ceil() as usize;
    r.max(n.abs_diff(m)).max(1)
}

/// Raw DTW (paper Def. 3: square root of the minimal sum of squared point
/// distances) under a `ratio` band. Full matrix, no abandoning, no reuse.
pub fn dtw(x: &[f64], y: &[f64], ratio: f64) -> f64 {
    let (n, m) = (x.len(), y.len());
    if n == 0 || m == 0 {
        return if n == m { 0.0 } else { f64::INFINITY };
    }
    let r = band(n, m, ratio);
    let w = m + 1;
    let mut cost = vec![f64::INFINITY; (n + 1) * w];
    cost[0] = 0.0;
    for i in 1..=n {
        for j in i.saturating_sub(r).max(1)..=(i + r).min(m) {
            let d = x[i - 1] - y[j - 1];
            let (up, left, diag) = (
                cost[(i - 1) * w + j],
                cost[i * w + j - 1],
                cost[(i - 1) * w + j - 1],
            );
            cost[i * w + j] = d * d + up.min(left).min(diag);
        }
    }
    cost[n * w + m].sqrt()
}

/// Def. 6 normalisation: `DTW / 2n`, `n` the longer length.
pub fn normalized(raw: f64, n: usize, m: usize) -> f64 {
    raw / (2.0 * n.max(m) as f64)
}

/// Raw DTW from `q` to every subsequence of exactly `q.len()` samples,
/// ascending, truncated to the `k` nearest.
pub fn nearest_same_length(data: &Dataset, q: &[f64], ratio: f64, k: usize) -> Vec<f64> {
    let mut all: Vec<f64> = Vec::new();
    for ts in data.series() {
        for window in ts.values().windows(q.len()) {
            all.push(dtw(q, window, ratio));
        }
    }
    all.sort_by(f64::total_cmp);
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SplitMix64;
    use onex::{TimeSeries, Window};

    #[test]
    fn matches_engine_kernel_on_random_pairs() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..1000 {
            let n = 2 + rng.below(60);
            // Mostly equal lengths (what the benchmark compares), some not.
            let m = if rng.below(4) == 0 {
                2 + rng.below(60)
            } else {
                n
            };
            let x: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
            let y: Vec<f64> = (0..m).map(|_| rng.unit()).collect();
            let ours = dtw(&x, &y, 0.1);
            let theirs = onex::dist::dtw(&x, &y, Window::Ratio(0.1));
            assert!((ours - theirs).abs() <= 1e-9, "{n}x{m}: {ours} vs {theirs}");
        }
    }

    #[test]
    fn scan_finds_the_verbatim_window() {
        let series = |off: f64| {
            let v: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7 + off).sin()).collect();
            TimeSeries::new(v).unwrap()
        };
        let data = Dataset::new("t", vec![series(0.0), series(1.3)]);
        let q = data.series()[1].values()[3..11].to_vec();
        let near = nearest_same_length(&data, &q, 0.1, 3);
        assert_eq!(near.len(), 3);
        assert_eq!(near[0], 0.0);
        assert!(near[1] <= near[2]);
        assert_eq!(normalized(4.0, 8, 8), 0.25);
    }
}
