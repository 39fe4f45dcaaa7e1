//! Warping envelopes: for a sequence `Y` and band half-width `r`, the
//! envelope is `U_i = max(y_{i−r}..y_{i+r})`, `L_i = min(y_{i−r}..y_{i+r})`.
//! LB_Keogh compares a candidate against an envelope instead of running DTW.
//!
//! The ONEX base stores one envelope per group representative (§4.3: *"an
//! array containing the envelopes around each representative using
//! LB(Keogh)"*), and the Trillion baseline builds one around each query.
//! Construction is O(n) via Lemire's streaming min/max (monotonic deques),
//! not the naive O(n·r) sweep.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Upper/lower warping envelope of a sequence. The default is the envelope
/// of the empty sequence.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Point-wise upper envelope `U`.
    pub upper: Vec<f64>,
    /// Point-wise lower envelope `L`.
    pub lower: Vec<f64>,
    /// The band half-width the envelope was built for.
    pub radius: usize,
}

/// A borrowed view of an envelope: upper/lower planes plus the radius they
/// were built for. This is what the lower-bound kernels actually consume,
/// so callers that store envelopes *columnar* (e.g. the ONEX group store's
/// per-length lo/hi slabs) can hand out plane slices without materializing
/// an owned [`Envelope`]. `&Envelope` converts via `From`, so existing
/// call sites keep working unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeRef<'a> {
    /// Point-wise upper envelope `U`.
    pub upper: &'a [f64],
    /// Point-wise lower envelope `L`.
    pub lower: &'a [f64],
    /// The band half-width the envelope was built for.
    pub radius: usize,
}

impl EnvelopeRef<'_> {
    /// Envelope length.
    #[inline]
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// True for a view over an empty sequence.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }
}

impl<'a> From<&'a Envelope> for EnvelopeRef<'a> {
    #[inline]
    fn from(env: &'a Envelope) -> Self {
        EnvelopeRef {
            upper: &env.upper,
            lower: &env.lower,
            radius: env.radius,
        }
    }
}

/// The streaming min/max state of [`Envelope::rebuild`], owned by the
/// caller so that repeated rebuilds reuse its storage.
#[derive(Debug, Default, Clone)]
pub struct EnvelopeScratch {
    max_q: VecDeque<usize>,
    min_q: VecDeque<usize>,
}

impl Envelope {
    /// A borrowed [`EnvelopeRef`] over this envelope.
    #[inline]
    pub fn view(&self) -> EnvelopeRef<'_> {
        self.into()
    }

    /// Builds the envelope of `y` for band half-width `r` in O(n).
    pub fn build(y: &[f64], r: usize) -> Self {
        let mut env = Envelope {
            upper: Vec::with_capacity(y.len()),
            lower: Vec::with_capacity(y.len()),
            radius: r,
        };
        env.rebuild(y, r, &mut EnvelopeScratch::default());
        env
    }

    /// [`Envelope::build`] in place: overwrites this envelope with the one
    /// of `y` at half-width `r`, reusing its planes and the caller's
    /// `scratch`, so a per-query envelope costs no allocation once both
    /// have grown to the longest query seen.
    pub fn rebuild(&mut self, y: &[f64], r: usize, scratch: &mut EnvelopeScratch) {
        let n = y.len();
        self.radius = r;
        self.upper.clear();
        self.lower.clear();
        // Monotonic deques over the sliding window [i-r, i+r].
        let EnvelopeScratch { max_q, min_q } = scratch;
        max_q.clear();
        min_q.clear();
        // Window end index (exclusive) we have pushed so far.
        let mut pushed = 0;
        for i in 0..n {
            // Saturating: a radius near usize::MAX (e.g. from hostile
            // snapshot input) must degrade to the global min/max envelope,
            // not overflow.
            let hi = i.saturating_add(r).saturating_add(1).min(n);
            while pushed < hi {
                while let Some(&b) = max_q.back() {
                    if y[b] <= y[pushed] {
                        max_q.pop_back();
                    } else {
                        break;
                    }
                }
                max_q.push_back(pushed);
                while let Some(&b) = min_q.back() {
                    if y[b] >= y[pushed] {
                        min_q.pop_back();
                    } else {
                        break;
                    }
                }
                min_q.push_back(pushed);
                pushed += 1;
            }
            let lo = i.saturating_sub(r);
            while let Some(&f) = max_q.front() {
                if f < lo {
                    max_q.pop_front();
                } else {
                    break;
                }
            }
            while let Some(&f) = min_q.front() {
                if f < lo {
                    min_q.pop_front();
                } else {
                    break;
                }
            }
            // Index i itself was pushed this iteration and survives the
            // eviction passes, so both deques hold at least one element.
            #[expect(clippy::expect_used, reason = "infallible, see above")]
            let max_at = *max_q.front().expect("window never empty");
            #[expect(clippy::expect_used, reason = "infallible, see above")]
            let min_at = *min_q.front().expect("window never empty");
            self.upper.push(y[max_at]);
            self.lower.push(y[min_at]);
        }
    }

    /// Envelope length.
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// True when built over an empty sequence.
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }

    /// Approximate heap footprint in bytes (for the index-size statistics of
    /// the paper's Table 4).
    pub fn size_bytes(&self) -> usize {
        (self.upper.capacity() + self.lower.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Naive O(n·r) envelope used to cross-check the streaming construction.
#[cfg(test)]
pub fn naive_envelope(y: &[f64], r: usize) -> (Vec<f64>, Vec<f64>) {
    let n = y.len();
    let mut upper = Vec::with_capacity(n);
    let mut lower = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(r);
        let hi = (i + r + 1).min(n);
        let slice = &y[lo..hi];
        upper.push(slice.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        lower.push(slice.iter().copied().fold(f64::INFINITY, f64::min));
    }
    (upper, lower)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_bounds_the_sequence() {
        let y = [0.0, 3.0, -1.0, 2.0, 0.5];
        let env = Envelope::build(&y, 1);
        for (i, &v) in y.iter().enumerate() {
            assert!(env.lower[i] <= v && v <= env.upper[i]);
        }
    }

    #[test]
    fn matches_naive_for_many_radii() {
        let y: Vec<f64> = (0..50)
            .map(|i| ((i * 37) % 17) as f64 * 0.3 - 2.0)
            .collect();
        for r in [0usize, 1, 2, 5, 10, 49, 100] {
            let env = Envelope::build(&y, r);
            let (u, l) = naive_envelope(&y, r);
            assert_eq!(env.upper, u, "upper r={r}");
            assert_eq!(env.lower, l, "lower r={r}");
        }
    }

    #[test]
    fn zero_radius_is_identity() {
        let y = [1.0, -2.0, 3.0];
        let env = Envelope::build(&y, 0);
        assert_eq!(env.upper, y.to_vec());
        assert_eq!(env.lower, y.to_vec());
    }

    #[test]
    fn full_radius_is_global_min_max() {
        let y = [1.0, -2.0, 3.0, 0.0];
        let env = Envelope::build(&y, 10);
        assert!(env.upper.iter().all(|&u| u == 3.0));
        assert!(env.lower.iter().all(|&l| l == -2.0));
        // Absurd radii (hostile snapshot input) must not overflow — same
        // global envelope, no panic.
        let huge = Envelope::build(&y, usize::MAX);
        assert_eq!(huge.upper, env.upper);
        assert_eq!(huge.lower, env.lower);
    }

    #[test]
    fn empty_sequence() {
        let env = Envelope::build(&[], 3);
        assert!(env.is_empty());
        assert_eq!(env.len(), 0);
    }

    #[test]
    fn size_accounting_nonzero() {
        let env = Envelope::build(&[0.0; 8], 1);
        assert!(env.size_bytes() >= 2 * 8 * 8);
    }
}
