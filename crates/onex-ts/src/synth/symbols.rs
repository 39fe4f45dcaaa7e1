//! Symbols stand-in: the real dataset records pen-tip trajectories of people
//! drawing six symbols. We reproduce the morphology with class-specific
//! control polygons interpolated by Catmull–Rom splines — long, very smooth
//! series (paper shape 995 × 398) whose smoothness is what lets ONEX cover
//! them with few representatives relative to the 78.6M subsequences.

use super::helpers::{add_noise, gaussian};
use crate::{Dataset, TimeSeries};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 6;
const CONTROL_POINTS: usize = 9;

/// Catmull–Rom interpolation of `points` evaluated at `len` samples.
fn catmull_rom(points: &[f64], len: usize) -> Vec<f64> {
    let segs = points.len() - 1;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let x = i as f64 / (len - 1) as f64 * segs as f64;
        let seg = (x.floor() as usize).min(segs - 1);
        let t = x - seg as f64;
        let p0 = points[seg.saturating_sub(1)];
        let p1 = points[seg];
        let p2 = points[seg + 1];
        let p3 = points[(seg + 2).min(points.len() - 1)];
        // Standard Catmull–Rom basis (tension 0.5).
        let v = 0.5
            * ((2.0 * p1)
                + (-p0 + p2) * t
                + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t * t
                + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t * t * t);
        out.push(v);
    }
    out
}

/// Generates a Symbols-like dataset (paper shape: 995 × 398, 6 classes).
pub fn symbols(n_series: usize, len: usize, seed: u64) -> Dataset {
    let mut class_rng = SmallRng::seed_from_u64(seed ^ 0x5717_3333);
    let prototypes: Vec<Vec<f64>> = (0..CLASSES)
        .map(|_| {
            (0..CONTROL_POINTS)
                .map(|_| class_rng.gen::<f64>() * 2.0 - 1.0)
                .collect()
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5717_4444);
    let mut series = Vec::with_capacity(n_series);
    for i in 0..n_series {
        let class = i % CLASSES;
        // Jitter the control polygon (same symbol, different hand) plus
        // per-writer pen scale and paper offset.
        let scale = 1.0 + 0.15 * gaussian(&mut rng);
        let offset = 0.12 * gaussian(&mut rng);
        let controls: Vec<f64> = prototypes[class]
            .iter()
            .map(|&p| scale * (p + 0.12 * gaussian(&mut rng)) + offset)
            .collect();
        let mut values = catmull_rom(&controls, len);
        add_noise(&mut values, 0.01, &mut rng);
        #[expect(
            clippy::expect_used,
            reason = "generator values are finite by construction"
        )]
        series.push(
            TimeSeries::with_label(values, class as i32 + 1)
                .expect("generator output is always finite"),
        );
    }
    Dataset::new("Symbols", series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spline_passes_near_control_points() {
        let pts = vec![0.0, 1.0, -1.0, 0.5, 0.0];
        let curve = catmull_rom(&pts, 41);
        // At segment boundaries the spline interpolates the control points.
        assert!((curve[0] - 0.0).abs() < 1e-9);
        assert!((curve[10] - 1.0).abs() < 1e-9);
        assert!((curve[20] - (-1.0)).abs() < 1e-9);
        assert!((curve[40] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn six_classes() {
        let d = symbols(24, 100, 5);
        for c in 1..=6 {
            assert_eq!(
                d.series().iter().filter(|t| t.label() == Some(c)).count(),
                4
            );
        }
    }

    #[test]
    fn series_are_smooth() {
        // Mean absolute first difference should be small relative to range.
        let d = symbols(6, 398, 5);
        for ts in d.series() {
            let diffs: f64 = ts
                .values()
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .sum::<f64>()
                / (ts.len() - 1) as f64;
            let range = ts.max() - ts.min();
            assert!(diffs < 0.15 * range, "roughness {diffs} vs range {range}");
        }
    }
}
