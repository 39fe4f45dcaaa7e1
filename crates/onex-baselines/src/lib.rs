//! # onex-baselines — the paper's comparison systems (§6.1)
//!
//! * [`BruteForce`] — **Standard DTW**: the exact method that compares the
//!   query with every candidate subsequence. In `naive` mode every DTW runs
//!   to completion (the cost profile the paper times); with `naive = false`
//!   early abandoning against the best-so-far is enabled, which changes
//!   nothing about the *result* — this fast-exact mode is what the accuracy
//!   experiments use as their oracle.
//! * [`PaaSearch`] — **PAA** (Keogh & Pazzani 2000): approximate search that
//!   reduces every candidate by Piecewise Aggregate Approximation and ranks
//!   by DTW over the reductions (PDTW). Still scans every candidate, so it
//!   is faster than brute force only by ~(reduction factor)².
//! * [`Trillion`] — the UCR suite (Rakthanmanon et al. 2012): *exact*
//!   best-match search restricted to windows of the **same length as the
//!   query**, with the full optimization cascade — LB_Kim, LB_Keogh in both
//!   roles, reordered early abandoning, and early-abandoning DTW with the
//!   LB_Keogh suffix bound. Its same-length restriction is exactly why its
//!   accuracy drops on the paper's any-length workload (Table 3).
//! * [`Spring`] — Sakurai et al. 2007 (the paper's reference \[26\]):
//!   subsequence matching under DTW with free start points — one O(n·m)
//!   pass per stream finds the best window of *any* length. Exact over the
//!   any-length space, used both as a timing baseline ("many orders of
//!   magnitude" claim) and as an independent oracle cross-check.
//!
//! All three operate on the same min-max-normalized data as ONEX (the paper
//! normalizes per dataset before any comparison) so distances and accuracies
//! are directly comparable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

mod brute;
mod paa_search;
mod spring;
mod trillion;

pub use brute::BruteForce;
pub use paa_search::PaaSearch;
pub use spring::{Spring, SpringHit};
pub use trillion::Trillion;

use onex_ts::SubseqRef;

/// A match returned by a baseline system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineMatch {
    /// The matched subsequence.
    pub subseq: SubseqRef,
    /// Raw DTW between query and match (always the *true* DTW, recomputed
    /// for approximate systems so results are comparable).
    pub raw_dtw: f64,
    /// Normalized DTW `DTW/2n` (paper Def. 6), `n = max(query len, match
    /// len)` — the cross-length-comparable score.
    pub dist: f64,
}

impl BaselineMatch {
    pub(crate) fn new(subseq: SubseqRef, raw_dtw: f64, query_len: usize) -> Self {
        let n = query_len.max(subseq.len as usize) as f64;
        BaselineMatch {
            subseq,
            raw_dtw,
            dist: raw_dtw / (2.0 * n),
        }
    }
}
