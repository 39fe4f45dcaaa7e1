//! Piecewise Aggregate Approximation (Keogh & Pazzani 2000; Yi & Faloutsos
//! 2000) — the paper's "PAA" baseline, plus the **PAA lower bounds** the
//! ONEX sketch tier is built on.
//!
//! PAA reduces an `n`-sample sequence to `m` segment means. The baseline of
//! the paper ("Scaling up dynamic time warping for datamining applications")
//! then runs DTW *on the reduced series* — "Piecewise DTW" / [`pdtw`] — which
//! is `⌈n/m⌉²`-times cheaper but approximate: the paper's Table 3 shows PAA
//! accuracy between Trillion's and ONEX's, at orders-of-magnitude slower
//! query times than either (it still scans the whole dataset).
//!
//! Beyond the baseline, PAA admits *exact* lower bounds at O(m) cost
//! (Keogh's "Exact indexing of dynamic time warping" line of work):
//!
//! * [`lb_paa`] / [`lb_paa_sq`] — `√(Σ_j n_j (x̄_j − ȳ_j)²) ≤ ED(x, y)`:
//!   within each segment the squared-difference mean dominates the squared
//!   difference of means (Jensen, `t ↦ t²` convex), so the weighted sketch
//!   distance never exceeds the full ED.
//! * [`lb_paa_env_sq`] — the same Jensen step applied to LB_Keogh: with
//!   `Û_j = max` of the upper envelope over segment `j` and `L̂_j = min` of
//!   the lower ([`paa_envelope_into`]), `Σ_j n_j · contrib(x̄_j; Û_j, L̂_j)`
//!   lower-bounds `LB_Keogh(x, env)²` (the widened per-segment band only
//!   loosens each contribution, and contrib is convex in `x`), which in
//!   turn lower-bounds banded DTW whenever the envelope radius covers the
//!   band. This is the ONEX cascade's tier 0: an O(m) sketch test in front
//!   of every O(n) tier.
//!
//! The allocation-free sketch builders ([`paa_into`], [`paa_segment_weights`])
//! share the exact accumulation order of [`paa`], so sketches computed
//! incrementally by the group store and sketches recomputed from scratch
//! are bit-identical.

use serde::{Deserialize, Serialize};

use crate::kernels::{weighted_keogh_sq_sum, weighted_sq_diff};
use crate::{dtw::DtwBuffer, Window};

/// A PAA-reduced sequence: segment means plus the original length (needed to
/// rescale distances back to raw-sequence units).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Paa {
    /// Segment means.
    pub segments: Vec<f64>,
    /// Original (pre-reduction) length.
    pub original_len: usize,
}

impl Paa {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the reduction holds no segments (empty input).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Reconstructs an approximation of the original sequence by repeating
    /// each segment mean over its span.
    pub fn reconstruct(&self) -> Vec<f64> {
        let n = self.original_len;
        let m = self.segments.len();
        if m == 0 || n == 0 {
            return Vec::new();
        }
        (0..n).map(|i| self.segments[i * m / n]).collect()
    }
}

/// Reduces `x` to `m` segments of (near-)equal width. When `n` is not a
/// multiple of `m`, the general "frames" formulation is used: sample `i`
/// belongs to segment `⌊i·m/n⌋`, so segments differ in width by at most one.
/// `m` is clamped to `1..=n`.
pub fn paa(x: &[f64], m: usize) -> Paa {
    let n = x.len();
    if n == 0 {
        return Paa {
            segments: Vec::new(),
            original_len: 0,
        };
    }
    let m = m.clamp(1, n);
    let mut sums = vec![0.0; m];
    let mut counts = vec![0usize; m];
    for (i, &v) in x.iter().enumerate() {
        let s = i * m / n;
        sums[s] += v;
        counts[s] += 1;
    }
    let segments = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| s / c as f64)
        .collect();
    Paa {
        segments,
        original_len: n,
    }
}

/// Writes the `m`-segment PAA sketch of `x` into `out` without allocating
/// (the buffer is cleared and refilled to exactly `m` values). `m` must
/// already be clamped to `1..=x.len()` — the store clamps once per length —
/// and the segment-mean arithmetic matches [`paa`] exactly (ascending
/// per-segment accumulation, one division per segment), so incremental and
/// from-scratch sketches agree bit-for-bit.
///
/// # Panics
/// Panics when `m` is 0 or exceeds `x.len()`.
pub fn paa_into(x: &[f64], m: usize, out: &mut Vec<f64>) {
    out.clear();
    paa_extend(x, m, out);
}

/// [`paa_into`] that **appends** the `m` sketch values instead of clearing
/// first — the shape the columnar group store wants when growing a flat
/// member-sketch plane one subsequence at a time.
///
/// # Panics
/// Panics when `m` is 0 or exceeds `x.len()`.
pub fn paa_extend(x: &[f64], m: usize, out: &mut Vec<f64>) {
    let n = x.len();
    assert!(m >= 1 && m <= n, "PAA width {m} outside 1..={n}");
    out.reserve(m);
    // Segment j covers samples i with ⌊i·m/n⌋ = j, i.e. i ∈ [⌈j·n/m⌉,
    // ⌈(j+1)·n/m⌉) — contiguous runs, summed in ascending order exactly
    // like the scatter loop of `paa`.
    for j in 0..m {
        let lo = (j * n).div_ceil(m);
        let hi = ((j + 1) * n).div_ceil(m);
        let mut sum = 0.0;
        for &v in &x[lo..hi] {
            sum += v;
        }
        out.push(sum / (hi - lo) as f64);
    }
}

/// The per-segment sample counts of an `(n, m)` PAA reduction, as `f64`
/// weights ready for the weighted sketch kernels. Counts differ by at most
/// one (the frames formulation of [`paa`]).
///
/// # Panics
/// Panics when `m` is 0 or exceeds `n`.
pub fn paa_segment_weights(n: usize, m: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(m);
    paa_segment_weights_into(n, m, &mut out);
    out
}

/// [`paa_segment_weights`] into a caller-owned buffer (cleared and refilled
/// to exactly `m` values), for per-query scratch that must not allocate.
///
/// # Panics
/// Panics when `m` is 0 or exceeds `n`.
pub fn paa_segment_weights_into(n: usize, m: usize, out: &mut Vec<f64>) {
    assert!(m >= 1 && m <= n, "PAA width {m} outside 1..={n}");
    out.clear();
    out.extend((0..m).map(|j| (((j + 1) * n).div_ceil(m) - (j * n).div_ceil(m)) as f64));
}

/// Reduces an envelope to `m` segments *conservatively*: `out_hi[j]` is the
/// **max** of the upper plane over segment `j`, `out_lo[j]` the **min** of
/// the lower plane — the widest band any sample of the segment sees, so
/// every per-sample LB_Keogh contribution still dominates its segment's
/// sketch contribution. Buffers are cleared and refilled to `m` values.
///
/// # Panics
/// Panics on mismatched plane lengths or `m` outside `1..=len`.
pub fn paa_envelope_into(
    upper: &[f64],
    lower: &[f64],
    m: usize,
    out_hi: &mut Vec<f64>,
    out_lo: &mut Vec<f64>,
) {
    let n = upper.len();
    assert_eq!(n, lower.len(), "envelope planes must match");
    assert!(m >= 1 && m <= n, "PAA width {m} outside 1..={n}");
    out_hi.clear();
    out_lo.clear();
    out_hi.reserve(m);
    out_lo.reserve(m);
    for j in 0..m {
        let lo = (j * n).div_ceil(m);
        let hi = ((j + 1) * n).div_ceil(m);
        let seg_hi = upper[lo..hi]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let seg_lo = lower[lo..hi].iter().copied().fold(f64::INFINITY, f64::min);
        out_hi.push(seg_hi);
        out_lo.push(seg_lo);
    }
}

/// Squared LB_PAA: `Σ_j w_j (x̄_j − ȳ_j)² ≤ ED²(x, y)` for sketches of the
/// same `(n, m)` reduction with `w` its [`paa_segment_weights`]. O(m).
///
/// # Panics
/// Panics on mismatched sketch widths.
#[inline]
pub fn lb_paa_sq(x_sketch: &[f64], y_sketch: &[f64], weights: &[f64]) -> f64 {
    weighted_sq_diff(x_sketch, y_sketch, weights)
}

/// LB_PAA in distance units: `√(lb_paa_sq) ≤ ED(x, y)`.
///
/// # Panics
/// Panics on mismatched sketch widths.
#[inline]
pub fn lb_paa(x_sketch: &[f64], y_sketch: &[f64], weights: &[f64]) -> f64 {
    lb_paa_sq(x_sketch, y_sketch, weights).sqrt()
}

/// Squared LB_PAA over a PAA'd envelope:
/// `Σ_j w_j · contrib(x̄_j; Û_j, L̂_j) ≤ LB_Keogh(x, env)² ≤ DTW_banded²`
/// for a sketch and a [`paa_envelope_into`]-reduced envelope of the same
/// `(n, m)` reduction (and an envelope at least as wide as the DTW band).
/// O(m) — the ONEX cascade's tier-0 test.
///
/// # Panics
/// Panics on mismatched sketch widths.
#[inline]
pub fn lb_paa_env_sq(
    x_sketch: &[f64],
    env_hi_sketch: &[f64],
    env_lo_sketch: &[f64],
    weights: &[f64],
) -> f64 {
    weighted_keogh_sq_sum(x_sketch, env_hi_sketch, env_lo_sketch, weights)
}

/// Piecewise DTW: DTW between the two PAA reductions, scaled back to
/// raw-sequence units by `√w` with `w` the mean segment width (each reduced
/// cell stands for ~`w` raw cells of similar cost, and costs add in squared
/// space). This is the Keogh & Pazzani approximation — *not* a lower bound —
/// exactly as the paper uses it as an approximate competitor.
pub fn pdtw(a: &Paa, b: &Paa, window: Window) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let w_a = a.original_len as f64 / a.len() as f64;
    let w_b = b.original_len as f64 / b.len() as f64;
    let w = 0.5 * (w_a + w_b);
    let mut buf = DtwBuffer::new();
    buf.dist(&a.segments, &b.segments, window) * w.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw;

    #[test]
    fn exact_division_means() {
        let x = [1.0, 3.0, 5.0, 7.0];
        let p = paa(&x, 2);
        assert_eq!(p.segments, vec![2.0, 6.0]);
        assert_eq!(p.original_len, 4);
    }

    #[test]
    fn uneven_division_spreads_samples() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let p = paa(&x, 2);
        // segment of sample i is ⌊i·2/5⌋ -> [0,0,0,1,1]
        assert_eq!(p.segments, vec![2.0, 4.5]);
    }

    #[test]
    fn m_clamping() {
        let x = [1.0, 2.0];
        assert_eq!(paa(&x, 10).segments, vec![1.0, 2.0]);
        assert_eq!(paa(&x, 0).segments, vec![1.5]);
        assert!(paa(&[], 4).is_empty());
    }

    #[test]
    fn identity_reduction_preserves_sequence() {
        let x = [0.5, 1.5, -0.5];
        let p = paa(&x, 3);
        assert_eq!(p.segments, x.to_vec());
        assert_eq!(p.reconstruct(), x.to_vec());
    }

    #[test]
    fn reconstruction_has_original_length() {
        let x: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let p = paa(&x, 4);
        let rec = p.reconstruct();
        assert_eq!(rec.len(), 17);
        // piecewise-constant: first segment's mean repeated over its span
        assert_eq!(rec[0], rec[1]);
    }

    #[test]
    fn pdtw_zero_for_identical_and_scales() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let p = paa(&x, 8);
        assert_eq!(pdtw(&p, &p, Window::Unconstrained), 0.0);
    }

    #[test]
    fn pdtw_approximates_dtw() {
        // On smooth series the approximation should land within a factor of
        // ~2 of true DTW (it is not a bound, just close).
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2 + 0.7).sin()).collect();
        let exact = dtw(&x, &y, Window::Unconstrained);
        let approx = pdtw(&paa(&x, 16), &paa(&y, 16), Window::Unconstrained);
        assert!(
            approx > 0.25 * exact && approx < 4.0 * exact,
            "approx {approx} vs exact {exact}"
        );
    }

    #[test]
    fn paa_into_bit_identical_to_paa_for_all_shapes() {
        for n in 1..=40usize {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 31) % 13) as f64 * 0.17 - 1.0)
                .collect();
            for m in 1..=n {
                let reference = paa(&x, m);
                let mut out = Vec::new();
                paa_into(&x, m, &mut out);
                assert_eq!(out, reference.segments, "n={n} m={m}");
                let weights = paa_segment_weights(n, m);
                assert_eq!(weights.len(), m);
                let total: f64 = weights.iter().sum();
                assert_eq!(total, n as f64, "weights cover every sample");
            }
        }
    }

    #[test]
    fn lb_paa_bounds_ed() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64 * 0.4).sin() * 1.5).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64 * 0.3 + 1.0).cos()).collect();
        for m in [1usize, 4, 16, 37] {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            paa_into(&x, m, &mut xs);
            paa_into(&y, m, &mut ys);
            let w = paa_segment_weights(37, m);
            let lb = lb_paa(&xs, &ys, &w);
            let exact = crate::ed(&x, &y);
            assert!(lb <= exact + 1e-9, "m={m}: lb {lb} > ed {exact}");
        }
        // Full-width sketches are the sequence itself: the bound is tight.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        paa_into(&x, 37, &mut xs);
        paa_into(&y, 37, &mut ys);
        let w = paa_segment_weights(37, 37);
        assert!((lb_paa(&xs, &ys, &w) - crate::ed(&x, &y)).abs() < 1e-9);
    }

    #[test]
    fn lb_paa_env_bounds_lb_keogh_and_banded_dtw() {
        use crate::{lb_keogh, Envelope};
        let x: Vec<f64> = (0..29).map(|i| (i as f64 * 0.7).sin() * 2.0).collect();
        let y: Vec<f64> = (0..29).map(|i| (i as f64 * 0.6).cos()).collect();
        for r in [1usize, 3, 8] {
            let env = Envelope::build(&y, r);
            for m in [1usize, 4, 8, 29] {
                let mut xs = Vec::new();
                paa_into(&x, m, &mut xs);
                let mut hi = Vec::new();
                let mut lo = Vec::new();
                paa_envelope_into(&env.upper, &env.lower, m, &mut hi, &mut lo);
                let lb0 = lb_paa_env_sq(&xs, &hi, &lo, &paa_segment_weights(29, m)).sqrt();
                let lb2 = lb_keogh(&x, &env);
                let d = crate::dtw(&x, &y, Window::Band(r));
                assert!(lb0 <= lb2 + 1e-9, "r={r} m={m}: tier0 {lb0} > keogh {lb2}");
                assert!(lb0 <= d + 1e-9, "r={r} m={m}: tier0 {lb0} > dtw {d}");
            }
        }
    }

    #[test]
    fn paa_envelope_sandwiches_segment_means() {
        use crate::Envelope;
        let y: Vec<f64> = (0..23).map(|i| ((i * 7) % 11) as f64 * 0.2).collect();
        let env = Envelope::build(&y, 2);
        let mut hi = Vec::new();
        let mut lo = Vec::new();
        paa_envelope_into(&env.upper, &env.lower, 6, &mut hi, &mut lo);
        let mut ys = Vec::new();
        paa_into(&y, 6, &mut ys);
        for j in 0..6 {
            assert!(lo[j] <= ys[j] && ys[j] <= hi[j], "segment {j}");
        }
    }

    #[test]
    fn pdtw_empty_conventions() {
        let e = paa(&[], 4);
        let p = paa(&[1.0, 2.0], 2);
        assert_eq!(pdtw(&e, &e, Window::Unconstrained), 0.0);
        assert_eq!(pdtw(&e, &p, Window::Unconstrained), f64::INFINITY);
    }
}
