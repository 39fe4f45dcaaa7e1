//! Dynamic Time Warping under the paper's conventions.
//!
//! Def. 3 defines the weight of a warping path `P` as `w(P) = √(Σ_t w²_{it,jt})`
//! and `DTW(X, Y) = min_P w(P)`. Because `√` is monotone, the minimizing path
//! is found by the classical dynamic program over *squared* point distances;
//! the distance is the square root of the DP value. Def. 6 normalizes by the
//! maximum path length: `DTW̄ = DTW / 2n` with `n` the longer series.
//!
//! Three execution strategies share the recurrence:
//! * [`dtw`] — O(n·r) time for band half-width `r`, O(r) row space (two
//!   rolling rows in band coordinates, see [`DtwBuffer`]),
//! * [`dtw_early_abandon`] — row-minimum abandoning against a caller cutoff
//!   (the "early abandoning of DTW" optimization of §5.3 / the UCR suite),
//!   on the same rolling rows,
//! * [`dtw_with_path`] — full matrix + backtracking when the alignment itself
//!   is needed (visualization, diagnostics),
//! * [`DtwLanes`] — up to [`LANES`] same-shape early-abandoning DTWs in
//!   lockstep, each bit-identical to [`DtwBuffer`]'s.
//!
//! Reusable buffers ([`DtwBuffer`]) keep the query processor allocation-free
//! across candidate evaluations.

use crate::Window;

/// Reusable scratch space for rolling-row DTW evaluations.
///
/// The ONEX query processor evaluates DTW against many representatives per
/// query; owning one buffer per processor avoids three heap allocations per
/// candidate (see the perf-book guidance on reusing workhorse collections).
///
/// Rows are stored in **band coordinates**: row `i` holds the cells of
/// columns `j = i−r … i+r` at `k = j − (i−r)`, so every row is the same
/// `w = 2r+1` cells plus one `∞` sentinel, whatever the candidate length.
/// The cell above `(i, j)` is then `prev[k+1]`, the diagonal one `prev[k]`,
/// and the one to the left is the value the loop just produced.
#[derive(Debug, Default, Clone)]
pub struct DtwBuffer {
    prev: Vec<f64>,
    curr: Vec<f64>,
    /// `y` with `r` leading and `n + r − m` trailing `∞`: row `i` reads its
    /// `w` column values as one contiguous window, and a column outside
    /// the matrix costs `(xᵢ − ∞)² = ∞` without a branch.
    y_pad: Vec<f64>,
}

/// The smaller of two DP values as a single `minsd`. `f64::min` pays for
/// NaN handling the DP never needs: every cell is `d² + best`, so finite
/// and non-negative or `+∞`, never NaN and never `−0` — on which the two
/// agree bit for bit.
#[inline(always)]
fn min2(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The larger of two non-NaN values as a single `maxsd`.
#[inline(always)]
fn max2(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

impl DtwBuffer {
    /// Creates an empty buffer; rows grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// DTW distance between `x` and `y` under `window`.
    ///
    /// Returns 0 when both inputs are empty and ∞ when exactly one is (no
    /// warping path exists).
    // dist_full returns None only when a row exceeds the cutoff, which an
    // infinite cutoff can never trigger.
    #[expect(clippy::expect_used, reason = "infallible, see above")]
    pub fn dist(&mut self, x: &[f64], y: &[f64], window: Window) -> f64 {
        self.dist_full(x, y, window, f64::INFINITY, None)
            .expect("infinite cutoff never abandons")
    }

    /// Early-abandoning DTW: returns `None` as soon as every cell of a row
    /// exceeds `cutoff` (no path through that row can beat it), otherwise the
    /// exact distance — which may itself exceed `cutoff` if only the final
    /// value does.
    pub fn dist_early_abandon(
        &mut self,
        x: &[f64],
        y: &[f64],
        window: Window,
        cutoff: f64,
    ) -> Option<f64> {
        self.dist_full(x, y, window, cutoff, None)
    }

    /// Early-abandoning DTW augmented with a per-row *suffix* lower bound in
    /// squared space: `suffix_sq[i]` must lower-bound the squared cost
    /// contributed by rows `i..n` of `x` (e.g. [`crate::lb_keogh_cumulative`]
    /// shifted by one). Abandons row `i` (1-based) when
    /// `row_min + suffix_sq[i] > cutoff²` — the UCR suite's cascading use of
    /// LB_Keogh inside DTW.
    ///
    /// # Panics
    /// Panics if `suffix_sq.len() < x.len() + 1`.
    pub fn dist_early_abandon_with_suffix(
        &mut self,
        x: &[f64],
        y: &[f64],
        window: Window,
        cutoff: f64,
        suffix_sq: &[f64],
    ) -> Option<f64> {
        assert!(
            suffix_sq.len() > x.len(),
            "suffix bound must cover every row"
        );
        self.dist_full(x, y, window, cutoff, Some(suffix_sq))
    }

    /// The one rolling-row kernel. Every cell is the same
    /// `d² + min(up, diag, left)` the textbook recurrence computes, over
    /// the same in-band neighbours (anything outside the band or the
    /// matrix reads as `∞`), so values, abandon decisions and the result
    /// are bit-identical to the `(m+1)`-wide formulation kept as
    /// `reference_dist` under `cfg(test)`.
    fn dist_full(
        &mut self,
        x: &[f64],
        y: &[f64],
        window: Window,
        cutoff: f64,
        suffix_sq: Option<&[f64]>,
    ) -> Option<f64> {
        let n = x.len();
        let m = y.len();
        if n == 0 || m == 0 {
            return Some(if n == m { 0.0 } else { f64::INFINITY });
        }
        // |n − m| ≤ r ≤ max(n, m): the corner stays reachable and the
        // row width below cannot overflow.
        let r = window.resolve(n, m);
        let w = 2 * r + 1;
        let cutoff_sq = if cutoff.is_finite() {
            cutoff * cutoff
        } else {
            f64::INFINITY
        };
        self.y_pad.clear();
        self.y_pad.resize(r, f64::INFINITY);
        self.y_pad.extend_from_slice(y);
        self.y_pad.resize(n + 2 * r, f64::INFINITY);
        for row in [&mut self.prev, &mut self.curr] {
            row.clear();
            row.resize(w + 1, f64::INFINITY);
        }
        // Row 0 is the origin cell alone, at column 0 = band slot r.
        self.prev[r] = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            // Sliced once per row to exactly the extents the loop indexes,
            // so the loop body carries no bounds checks. `curr[w]` is never
            // written: it is the ∞ the next row reads above its last cell.
            let ys = &self.y_pad[i..i + w];
            let prev = &self.prev[..w + 1];
            let curr = &mut self.curr[..w];
            let mut left = f64::INFINITY;
            let mut row_min = f64::INFINITY;
            for k in 0..w {
                let d = xi - ys[k];
                left = d * d + min2(min2(prev[k + 1], prev[k]), left);
                curr[k] = left;
                row_min = min2(row_min, left);
            }
            let rest = suffix_sq.map_or(0.0, |s| s[i + 1]);
            if row_min + rest > cutoff_sq {
                return None;
            }
            std::mem::swap(&mut self.prev, &mut self.curr);
        }
        // Cell (n, m) sits at band slot m − (n − r).
        Some(self.prev[m + r - n].sqrt())
    }
}

/// How many DTWs [`DtwLanes`] runs in lockstep.
pub const LANES: usize = 8;

/// One DP cell (or one input sample) of every lane.
type Cells = [f64; LANES];

/// One DTW of a [`DtwLanes`] batch: the arguments of
/// [`DtwBuffer::dist_early_abandon`] (`suffix_sq: None`) or of
/// [`DtwBuffer::dist_early_abandon_with_suffix`].
#[derive(Debug, Clone, Copy)]
pub struct Lane<'a> {
    /// The sequence whose samples index the DP rows.
    pub x: &'a [f64],
    /// The sequence whose samples index the DP columns.
    pub y: &'a [f64],
    /// Optional per-row suffix lower bound in squared space, at least
    /// `x.len() + 1` long.
    pub suffix_sq: Option<&'a [f64]>,
}

/// Up to [`LANES`] same-shape early-abandoning DTWs in lockstep.
///
/// [`DtwBuffer`]'s rolling-row loop is one dependency chain per row — each
/// cell's `left` feeds the next — so a single DTW waits on the latency of
/// an add and two compares per cell. Here every DP cell is a `[f64; 8]`
/// holding the same cell of eight independent DTWs: the chain is the same
/// length, but each link does eight lanes' work, which the compiler lowers
/// to packed SSE2 arithmetic on baseline x86-64 (no `std::arch`, no
/// target flags).
///
/// Each lane performs exactly [`DtwBuffer`]'s per-cell operations in the
/// same order and its own row-abandon test (`row_min + suffix > cutoff²`,
/// with suffix `0` for a lane without one), so every lane's value and its
/// `None` decision are bit-identical to the scalar kernel's on the same
/// arguments. Lanes never interact; the batch stops early only once every
/// lane has abandoned.
#[derive(Debug, Default, Clone)]
pub struct DtwLanes {
    prev: Vec<Cells>,
    curr: Vec<Cells>,
    x: Vec<Cells>,
    /// Every lane's `y`, padded with `∞` exactly like [`DtwBuffer`]'s.
    y_pad: Vec<Cells>,
    /// Every lane's suffix bound, `0` for a lane without one.
    suffix: Vec<Cells>,
}

impl DtwLanes {
    /// Creates an empty batch kernel; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs every lane of `lanes` under `window` against one `cutoff`;
    /// entry `l` of the result is lane `l`'s
    /// [`DtwBuffer::dist_early_abandon`] (or `_with_suffix`) result, bit for
    /// bit, and the entries past `lanes.len()` are `None`.
    ///
    /// # Panics
    /// Panics if `lanes` holds more than [`LANES`] entries or a suffix is
    /// shorter than `x.len() + 1`. Every lane must share `x.len()` and
    /// `y.len()` (checked by a debug assertion).
    pub fn dist_early_abandon(
        &mut self,
        lanes: &[Lane<'_>],
        window: Window,
        cutoff: f64,
    ) -> [Option<f64>; LANES] {
        let mut out = [None; LANES];
        assert!(lanes.len() <= LANES, "at most {LANES} lanes per batch");
        let Some(first) = lanes.first() else {
            return out;
        };
        let (n, m) = (first.x.len(), first.y.len());
        debug_assert!(
            lanes.iter().all(|l| l.x.len() == n && l.y.len() == m),
            "every lane of a batch must share its shape"
        );
        if n == 0 || m == 0 {
            let d = if n == m { 0.0 } else { f64::INFINITY };
            out[..lanes.len()].fill(Some(d));
            return out;
        }
        let r = window.resolve(n, m);
        let w = 2 * r + 1;
        let cutoff_sq = if cutoff.is_finite() {
            cutoff * cutoff
        } else {
            f64::INFINITY
        };
        // Unused lanes compute on `0` against `∞` padding: finite-or-∞
        // values that are never read back.
        self.x.clear();
        self.x.resize(n, [0.0; LANES]);
        self.y_pad.clear();
        self.y_pad.resize(n + 2 * r, [f64::INFINITY; LANES]);
        self.suffix.clear();
        self.suffix.resize(n + 1, [0.0; LANES]);
        // A lane abandons at the first row whose `row_min + suffix` exceeds
        // `cutoff²`, i.e. exactly when the largest such sum over its rows
        // does: `worst` tracks that maximum, and an unused lane starts at
        // `∞` so that it never holds the batch open.
        let mut worst = [f64::INFINITY; LANES];
        for (l, lane) in lanes.iter().enumerate() {
            worst[l] = 0.0;
            for (cell, &v) in self.x.iter_mut().zip(lane.x) {
                cell[l] = v;
            }
            for (cell, &v) in self.y_pad[r..].iter_mut().zip(lane.y) {
                cell[l] = v;
            }
            if let Some(s) = lane.suffix_sq {
                assert!(s.len() > n, "suffix bound must cover every row");
                for (cell, &v) in self.suffix.iter_mut().zip(s) {
                    cell[l] = v;
                }
            }
        }
        for row in [&mut self.prev, &mut self.curr] {
            row.clear();
            row.resize(w + 1, [f64::INFINITY; LANES]);
        }
        self.prev[r] = [0.0; LANES];
        for i in 0..n {
            let xi = self.x[i];
            let ys = &self.y_pad[i..i + w];
            let prev = &self.prev[..w + 1];
            let curr = &mut self.curr[..w];
            let mut left = [f64::INFINITY; LANES];
            let mut row_min = [f64::INFINITY; LANES];
            // The cell above this one is the diagonal of the next.
            let mut diag = prev[0];
            for k in 0..w {
                let (yk, up) = (ys[k], prev[k + 1]);
                for l in 0..LANES {
                    let d = xi[l] - yk[l];
                    left[l] = d * d + min2(min2(up[l], diag[l]), left[l]);
                    row_min[l] = min2(row_min[l], left[l]);
                }
                curr[k] = left;
                diag = up;
            }
            let rest = self.suffix[i + 1];
            let mut fewest = f64::INFINITY;
            for l in 0..LANES {
                worst[l] = max2(worst[l], row_min[l] + rest[l]);
                fewest = min2(fewest, worst[l]);
            }
            if fewest > cutoff_sq {
                return out;
            }
            std::mem::swap(&mut self.prev, &mut self.curr);
        }
        let end = self.prev[m + r - n];
        for l in 0..lanes.len() {
            if worst[l] <= cutoff_sq {
                out[l] = Some(end[l].sqrt());
            }
        }
        out
    }
}

/// DTW distance (paper Def. 3). Convenience wrapper over [`DtwBuffer`].
pub fn dtw(x: &[f64], y: &[f64], window: Window) -> f64 {
    DtwBuffer::new().dist(x, y, window)
}

/// Normalized DTW `DTW/2n`, `n = max(len x, len y)` (paper Def. 6). Both
/// inputs empty → 0.
pub fn dtw_normalized(x: &[f64], y: &[f64], window: Window) -> f64 {
    let n = x.len().max(y.len());
    if n == 0 {
        return 0.0;
    }
    dtw(x, y, window) / (2.0 * n as f64)
}

/// Early-abandoning DTW; see [`DtwBuffer::dist_early_abandon`].
pub fn dtw_early_abandon(x: &[f64], y: &[f64], window: Window, cutoff: f64) -> Option<f64> {
    DtwBuffer::new().dist_early_abandon(x, y, window, cutoff)
}

/// DTW with warping-path extraction. O(n·m) space: only for diagnostics and
/// visualization, not the query hot path. The path runs from `(0, 0)` to
/// `(n−1, m−1)` in 0-based sample indices.
pub fn dtw_with_path(x: &[f64], y: &[f64], window: Window) -> (f64, Vec<(usize, usize)>) {
    let n = x.len();
    let m = y.len();
    if n == 0 || m == 0 {
        return (if n == m { 0.0 } else { f64::INFINITY }, Vec::new());
    }
    let r = window.resolve(n, m);
    let width = m + 1;
    let mut cost = vec![f64::INFINITY; (n + 1) * width];
    cost[0] = 0.0;
    for i in 1..=n {
        let jlo = i.saturating_sub(r).max(1);
        let jhi = (i + r).min(m);
        for j in jlo..=jhi {
            let d = x[i - 1] - y[j - 1];
            let best = cost[(i - 1) * width + j]
                .min(cost[i * width + j - 1])
                .min(cost[(i - 1) * width + j - 1]);
            cost[i * width + j] = d * d + best;
        }
    }
    // Backtrack, preferring the diagonal on ties (shortest path).
    let mut path = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        path.push((i - 1, j - 1));
        let diag = cost[(i - 1) * width + j - 1];
        let up = cost[(i - 1) * width + j];
        let left = cost[i * width + j - 1];
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    path.reverse();
    (cost[n * width + m].sqrt(), path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    const UNC: Window = Window::Unconstrained;

    /// The kernel this module shipped before the band-coordinate one —
    /// rows `m + 1` wide in matrix coordinates, NaN-aware `f64::min`, a
    /// branching row minimum — kept verbatim as the differential oracle.
    fn reference_dist(
        x: &[f64],
        y: &[f64],
        window: Window,
        cutoff: f64,
        suffix_sq: Option<&[f64]>,
    ) -> Option<f64> {
        let n = x.len();
        let m = y.len();
        if n == 0 && m == 0 {
            return Some(0.0);
        }
        if n == 0 || m == 0 {
            return Some(f64::INFINITY);
        }
        let r = window.resolve(n, m);
        let cutoff_sq = if cutoff.is_finite() {
            cutoff * cutoff
        } else {
            f64::INFINITY
        };
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut curr = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;
        for i in 1..=n {
            let jlo = i.saturating_sub(r).max(1);
            let jhi = (i + r).min(m);
            // The band shifts by at most one cell per row; clearing its two
            // fringe cells keeps stale values from leaking into the min().
            curr[jlo - 1] = f64::INFINITY;
            if jhi < m {
                curr[jhi + 1] = f64::INFINITY;
            }
            let xi = x[i - 1];
            let mut row_min = f64::INFINITY;
            for j in jlo..=jhi {
                let d = xi - y[j - 1];
                let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
                let cell = d * d + best;
                curr[j] = cell;
                if cell < row_min {
                    row_min = cell;
                }
            }
            let rest = suffix_sq.map_or(0.0, |s| s[i]);
            if row_min + rest > cutoff_sq {
                return None;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        Some(prev[m].sqrt())
    }

    fn bits(d: Option<f64>) -> Option<u64> {
        d.map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One buffer, reused across both orientations of the pair, every
        /// `Window` variant and every cutoff, must agree with the reference
        /// on abandon-or-not and on every bit of a returned distance.
        #[test]
        fn kernel_is_bit_identical_to_reference(
            n in 1..=48usize, m in 1..=48usize, equal in any::<bool>(), seed in any::<u64>(),
        ) {
            let m = if equal { n } else { m };
            let mut rng = SmallRng::seed_from_u64(seed);
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let y: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let full = n.max(m);
            let windows = [
                UNC,
                Window::Band(0),
                Window::Band(rng.gen_range(1..=full)),
                Window::Band(full + rng.gen_range(0..8usize)),
                Window::Band(usize::MAX),
                Window::Ratio(0.1),
                Window::Ratio(rng.gen_range(0.0..1.0)),
            ];
            let mut buf = DtwBuffer::new();
            for (a, b) in [(&x, &y), (&y, &x)] {
                for window in windows {
                    let exact = reference_dist(a, b, window, f64::INFINITY, None)
                        .expect("infinite cutoff never abandons");
                    prop_assert_eq!(buf.dist(a, b, window).to_bits(), exact.to_bits());
                    prop_assert_eq!(dtw_with_path(a, b, window).0.to_bits(), exact.to_bits());
                    // Any non-increasing array is a legal input; scaled so
                    // that the suffix term decides some of the abandons.
                    let mut suffix = vec![0.0; a.len() + 1];
                    for i in (0..a.len()).rev() {
                        suffix[i] = suffix[i + 1] + rng.gen_range(0.0..0.1) * exact * exact;
                    }
                    let cutoffs = [
                        f64::INFINITY,
                        exact,
                        0.7 * exact,
                        1.3 * exact,
                        rng.gen_range(0.0..1.0) * exact,
                    ];
                    for cutoff in cutoffs {
                        let (got, want) = (
                            bits(buf.dist_early_abandon(a, b, window, cutoff)),
                            bits(reference_dist(a, b, window, cutoff, None)),
                        );
                        prop_assert!(got == want, "{:?} cutoff {}: {:?} vs {:?}", window, cutoff, got, want);
                        let (got, want) = (
                            bits(buf.dist_early_abandon_with_suffix(a, b, window, cutoff, &suffix)),
                            bits(reference_dist(a, b, window, cutoff, Some(&suffix))),
                        );
                        prop_assert!(got == want, "{:?} cutoff {} + suffix: {:?} vs {:?}", window, cutoff, got, want);
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_handle_empty_and_short_batches() {
        let mut lanes = DtwLanes::new();
        assert_eq!(lanes.dist_early_abandon(&[], UNC, 1.0), [None; LANES]);
        let empty = Lane {
            x: &[],
            y: &[],
            suffix_sq: None,
        };
        let got = lanes.dist_early_abandon(&[empty, empty], UNC, 1.0);
        assert_eq!(got[..3], [Some(0.0), Some(0.0), None]);
        let one = Lane {
            x: &[1.0],
            y: &[],
            suffix_sq: None,
        };
        assert_eq!(
            lanes.dist_early_abandon(&[one], UNC, 1.0)[0],
            Some(f64::INFINITY)
        );
        let pair = Lane {
            x: &[1.0],
            y: &[4.0],
            suffix_sq: None,
        };
        assert_eq!(lanes.dist_early_abandon(&[pair], UNC, 5.0)[0], Some(3.0));
        assert_eq!(lanes.dist_early_abandon(&[pair], UNC, 2.0)[0], None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "share its shape")]
    fn lanes_reject_a_mixed_shape_batch() {
        let a = Lane {
            x: &[1.0, 2.0],
            y: &[1.0, 2.0],
            suffix_sq: None,
        };
        let b = Lane { y: &[1.0], ..a };
        DtwLanes::new().dist_early_abandon(&[a, b], UNC, f64::INFINITY);
    }

    #[test]
    fn oversized_windows_equal_unconstrained() {
        // Band(usize::MAX) used to overflow `i + r`: a panic in debug
        // builds, a wrapped band and an ∞ distance in release.
        let x: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).sin()).collect();
        for m in [5, 9] {
            let y: Vec<f64> = (0..m).map(|i| (i as f64 * 0.9).cos()).collect();
            let full = dtw(&x, &y, UNC);
            assert!(full.is_finite());
            for window in [
                Window::Band(usize::MAX),
                Window::Band(usize::MAX / 2),
                Window::Ratio(f64::INFINITY),
            ] {
                assert_eq!(dtw(&x, &y, window).to_bits(), full.to_bits(), "{window:?}");
                assert_eq!(dtw(&y, &x, window).to_bits(), full.to_bits(), "{window:?}");
                let (d, path) = dtw_with_path(&x, &y, window);
                assert_eq!(d.to_bits(), full.to_bits(), "{window:?}");
                assert_eq!(path, dtw_with_path(&x, &y, UNC).1, "{window:?}");
            }
            assert_eq!(
                dtw(&x, &y, Window::Ratio(f64::NAN)).to_bits(),
                dtw(&x, &y, Window::Band(0)).to_bits()
            );
        }
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw(&x, &x, UNC), 0.0);
        assert_eq!(dtw_normalized(&x, &x, UNC), 0.0);
    }

    #[test]
    fn single_points() {
        assert_eq!(dtw(&[1.0], &[4.0], UNC), 3.0);
    }

    #[test]
    fn known_small_example() {
        // x=[0,0], y=[0,1]: best path aligns (1,1),(2,2) -> 0² + 1² = 1.
        assert_eq!(dtw(&[0.0, 0.0], &[0.0, 1.0], UNC), 1.0);
        // Time-shifted pattern: DTW warps it away, ED cannot.
        let x = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
        let y = [0.0, 1.0, 2.0, 1.0, 0.0, 0.0];
        assert_eq!(dtw(&x, &y, UNC), 0.0);
        assert!(ed(&x, &y) > 0.0);
    }

    #[test]
    fn dtw_never_exceeds_ed_on_equal_lengths() {
        // The diagonal is itself a warping path, so DTW ≤ ED always.
        let x = [0.3, 1.7, -0.2, 0.9, 2.2, -1.0];
        let y = [1.3, 0.7, 0.2, -0.9, 1.2, 1.0];
        assert!(dtw(&x, &y, UNC) <= ed(&x, &y) + 1e-12);
    }

    #[test]
    fn symmetry() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [3.0, 1.0, 0.0];
        let a = dtw(&x, &y, UNC);
        let b = dtw(&y, &x, UNC);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn different_lengths_are_supported() {
        let x = [0.0, 1.0, 2.0, 1.0, 0.0];
        let y = [0.0, 2.0, 0.0];
        let d = dtw(&x, &y, UNC);
        assert!(d.is_finite());
        // one-to-many alignment of the shoulder points costs the two 1.0s
        assert!((d - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn banded_equals_unconstrained_when_band_covers() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.4 + 0.5).cos()).collect();
        let full = dtw(&x, &y, UNC);
        assert_eq!(dtw(&x, &y, Window::Band(20)), full);
        assert_eq!(dtw(&x, &y, Window::Ratio(1.0)), full);
    }

    #[test]
    fn tighter_band_never_decreases_distance() {
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64 * 0.35).sin()).collect();
        let mut last = 0.0;
        for r in (1..=30).rev() {
            let d = dtw(&x, &y, Window::Band(r));
            assert!(d + 1e-12 >= last, "band {r}: {d} < {last}");
            last = d;
        }
    }

    #[test]
    fn banded_different_lengths_reaches_corner() {
        let x = vec![0.0; 50];
        let y = vec![0.0; 10];
        // Band(1) must be widened to |n-m|=40 internally.
        assert_eq!(dtw(&x, &y, Window::Band(1)), 0.0);
    }

    #[test]
    fn early_abandon_agrees_with_exact() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).sin()).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).cos()).collect();
        let exact = dtw(&x, &y, UNC);
        assert_eq!(dtw_early_abandon(&x, &y, UNC, exact + 1.0), Some(exact));
        // A cutoff below the true distance may abandon or may return the
        // exact value (if no full row exceeds it); either is correct, but a
        // returned value must be the true distance.
        if let Some(d) = dtw_early_abandon(&x, &y, UNC, exact * 0.5) {
            assert!((d - exact).abs() < 1e-12);
        }
    }

    #[test]
    fn early_abandon_fires_on_distant_sequences() {
        let x = vec![0.0; 128];
        let y = vec![100.0; 128];
        assert_eq!(dtw_early_abandon(&x, &y, UNC, 1.0), None);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(dtw(&[], &[], UNC), 0.0);
        assert_eq!(dtw(&[1.0], &[], UNC), f64::INFINITY);
        assert_eq!(dtw_normalized(&[], &[], UNC), 0.0);
    }

    #[test]
    fn normalized_divides_by_twice_longer_length() {
        let x = [0.0, 0.0, 0.0, 0.0];
        let y = [2.0, 2.0];
        let raw = dtw(&x, &y, UNC);
        assert!((dtw_normalized(&x, &y, UNC) - raw / 8.0).abs() < 1e-12);
    }

    #[test]
    fn path_endpoints_and_monotonicity() {
        let x = [0.0, 1.0, 2.0, 3.0, 2.0];
        let y = [0.0, 2.0, 3.0, 2.0];
        let (d, path) = dtw_with_path(&x, &y, UNC);
        assert!((d - dtw(&x, &y, UNC)).abs() < 1e-12);
        assert_eq!(*path.first().unwrap(), (0, 0));
        assert_eq!(*path.last().unwrap(), (4, 3));
        for w in path.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            assert!(i1 >= i0 && j1 >= j0);
            assert!(i1 - i0 <= 1 && j1 - j0 <= 1);
            assert!(i1 + j1 > i0 + j0);
        }
    }

    #[test]
    fn path_weight_equals_distance() {
        let x = [0.1, 0.9, 0.4, 0.7, 0.2, 0.95];
        let y = [0.15, 0.8, 0.5, 0.6, 0.1, 1.0];
        let (d, path) = dtw_with_path(&x, &y, UNC);
        let weight: f64 = path
            .iter()
            .map(|&(i, j)| {
                let w = x[i] - y[j];
                w * w
            })
            .sum::<f64>()
            .sqrt();
        assert!((weight - d).abs() < 1e-9);
    }

    #[test]
    fn buffer_reuse_is_consistent() {
        let mut buf = DtwBuffer::new();
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 2.0, 2.0];
        let first = buf.dist(&x, &y, UNC);
        // Reuse across different shapes must not leak state.
        let _ = buf.dist(&[1.0; 10], &[2.0; 7], UNC);
        let again = buf.dist(&x, &y, UNC);
        assert_eq!(first, again);
    }

    #[test]
    fn banded_path_respects_band() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4 + 1.0).sin()).collect();
        let r = 3;
        let (d, path) = dtw_with_path(&x, &y, Window::Band(r));
        assert!((d - dtw(&x, &y, Window::Band(r))).abs() < 1e-12);
        for &(i, j) in &path {
            assert!(i.abs_diff(j) <= r, "cell ({i},{j}) outside band {r}");
        }
    }

    #[test]
    fn path_length_bounds_hold() {
        // Paper: path length T satisfies max(n,m) ≤ T ≤ n+m−1.
        let x = [0.0, 0.5, 1.0, 0.5, 0.0, -0.5];
        let y = [0.0, 1.0, 0.0];
        let (_, path) = dtw_with_path(&x, &y, UNC);
        assert!(path.len() >= 6 && path.len() <= 8, "T={}", path.len());
    }
}
