use serde::{Deserialize, Serialize};

/// A warping-window constraint for the DTW family.
///
/// The paper's theoretical results (Lemmas 1–2) are stated for unconstrained
/// DTW; the UCR-suite optimizations it adopts in §5.3 assume a Sakoe-Chiba
/// band. Every kernel in this crate is parameterized so experiments can state
/// and vary the setting explicitly; every experiment of `onex-bench` uses the
/// [`Default`] band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Window {
    /// No constraint: any monotone path through the matrix.
    Unconstrained,
    /// Sakoe-Chiba band of absolute half-width `r` cells.
    Band(usize),
    /// Sakoe-Chiba band with half-width `⌈f · max(n, m)⌉` (e.g. `Ratio(0.1)`
    /// is the classic "10% window").
    Ratio(f64),
}

impl Window {
    /// Resolves the constraint to an absolute half-width for an `n × m`
    /// matrix. The band is widened to at least `|n − m|` so that the corner
    /// cell `(n, m)` is always reachable, and to at least 1 so the
    /// degenerate `Band(0)`/`Ratio(0)` settings still admit the diagonal;
    /// it is capped at `max(n, m)` — what `Unconstrained` resolves to, and
    /// already the whole matrix — so that no caller's `i + r` can overflow
    /// on a `Band(usize::MAX)` and the kernels, the envelope radius and the
    /// cascade's radius comparisons all see one value.
    pub fn resolve(&self, n: usize, m: usize) -> usize {
        let floor = n.abs_diff(m).max(1);
        let full = n.max(m);
        let r = match *self {
            Window::Unconstrained => full,
            Window::Band(r) => r,
            // NaN casts to 0, like `Band(0)`.
            Window::Ratio(f) => (f.clamp(0.0, 1.0) * full as f64).ceil() as usize,
        };
        r.max(floor).min(full)
    }

    /// True when the resolved band covers the whole matrix.
    pub fn is_unconstrained_for(&self, n: usize, m: usize) -> bool {
        self.resolve(n, m) >= n.max(m)
    }
}

impl Default for Window {
    /// The repository-wide experimental default: the classic 10%
    /// Sakoe-Chiba band.
    fn default() -> Self {
        Window::Ratio(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_covers_matrix() {
        assert_eq!(Window::Unconstrained.resolve(10, 10), 10);
        assert!(Window::Unconstrained.is_unconstrained_for(10, 7));
    }

    #[test]
    fn band_resolves_with_length_difference_floor() {
        assert_eq!(Window::Band(3).resolve(10, 10), 3);
        // |n-m| = 5 > r = 3: widen so the corner is reachable.
        assert_eq!(Window::Band(3).resolve(10, 5), 5);
        // Band(0) still admits the diagonal.
        assert_eq!(Window::Band(0).resolve(8, 8), 1);
        // A band wider than the matrix is the whole matrix.
        assert_eq!(Window::Band(usize::MAX).resolve(10, 7), 10);
    }

    #[test]
    fn ratio_scales_with_longer_length() {
        assert_eq!(Window::Ratio(0.1).resolve(100, 100), 10);
        assert_eq!(Window::Ratio(0.1).resolve(100, 50), 50); // |n-m| floor
        assert_eq!(Window::Ratio(1.0).resolve(30, 30), 30);
        // clamp negative / >1 ratios
        assert_eq!(Window::Ratio(-0.5).resolve(10, 10), 1);
        assert_eq!(Window::Ratio(2.0).resolve(10, 10), 10);
    }
}
