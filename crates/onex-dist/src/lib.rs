//! # onex-dist — similarity distance kernels for ONEX
//!
//! Implements every distance the paper defines or leans on, with the exact
//! conventions of its Definitions 2–6:
//!
//! * [`ed()`](ed::ed) — Euclidean distance (Def. 2), its normalized form `ED/√n`
//!   (Def. 5), squared and early-abandoning variants used in the ONEX-base
//!   construction hot loop.
//! * [`dtw()`](dtw::dtw) — Dynamic Time Warping with the paper's *path-weight* objective
//!   (Def. 3: the weight of a warping path is `√(Σ w²)` and DTW is the
//!   minimum weight), its normalized form `DTW/2n` (Def. 6), Sakoe-Chiba
//!   banded and early-abandoning variants, and warping-path extraction.
//! * [`envelope`] — upper/lower warping envelopes (Lemire's O(n) streaming
//!   min/max), the ingredient of LB_Keogh.
//! * [`lb`] — the cascading lower bounds of the UCR suite: LB_Kim(FL) and
//!   LB_Keogh in both query/data roles, plus the cumulative variant that
//!   powers reordered early abandoning.
//! * [`paa()`](paa::paa) — Piecewise Aggregate Approximation and PDTW (Keogh & Pazzani
//!   2000), the paper's "PAA" baseline — plus the exact O(m) PAA lower
//!   bounds ([`paa::lb_paa`] on ED, [`paa::lb_paa_env_sq`] on LB_Keogh and
//!   therefore banded DTW) behind the ONEX cascade's sketch tier.
//! * [`kernels`] — the shared `chunks_exact(4)`-blocked inner loops
//!   (autovectorization-friendly) the hot kernels above are built on.
//! * [`lcss`] / [`erp`] — the related-work elastic measures (LCSS,
//!   Edit distance with Real Penalty), provided for the extension surface.
//!
//! ## Windows
//!
//! Every DTW-family kernel takes a [`Window`]: `Unconstrained` (the paper's
//! theory), an absolute Sakoe-Chiba band, or a length-relative band. For
//! sequences of different lengths the effective band is widened to at least
//! `|n − m|`, without which no monotone path exists.
//!
//! The band is also capped at `max(n, m)`, which already covers the whole
//! matrix, so an absurd `Band(usize::MAX)` is `Unconstrained` and not an
//! overflow.
//!
//! ## The DTW kernel
//!
//! Every DTW on the query path — engine and baselines alike — is one
//! rolling-row loop, [`DtwBuffer`]. It stores row `i` in *band coordinates*:
//! the cells of columns `i−r … i+r` sit at slots `0 … 2r`, so a row is
//! `2r+1` cells wide whatever the candidate length, the cell above is the
//! previous row's slot `k+1`, the diagonal one its slot `k`, and the one to
//! the left is still in a register. Columns that fall off the matrix at
//! the two corners are fed from an `∞`-padded copy of the candidate, where
//! `(xᵢ − ∞)²` is `∞` without a branch, and the three-way minimum is two
//! compare-and-selects (one `minsd` each) instead of the NaN-aware
//! `f64::min`. The result is **bit-identical** to the textbook
//! `(m+1)`-wide formulation: each in-band cell is the same
//! `d² + min(up, diag, left)` over the same neighbours (out-of-band and
//! out-of-matrix ones read as `∞` in both), `min` of values that are finite
//! and non-negative or `+∞` does not depend on operand order or on NaN
//! rules, and the early-abandon test reads the same row minimum — so
//! answers, abandon decisions and every work counter built on them are
//! unchanged. A differential property test pins this against the previous
//! loop, kept under `cfg(test)`.
//!
//! One DTW is latency-bound: each cell's `left` feeds the next, so a row
//! waits on an add and two compares per cell. Where many DTWs of one shape
//! run against one cutoff — the members a verified range query checks —
//! [`DtwLanes`] runs up to [`LANES`] of them in lockstep. Every DP cell is
//! a `[f64; 8]` holding the same cell of eight independent DTWs, so each
//! link of the chain does eight lanes' work, and the compiler lowers the
//! lane loop to packed SSE2 on baseline x86-64 — safe Rust, no
//! `std::arch`, no target flags. Each lane does exactly [`DtwBuffer`]'s
//! per-cell operations in the same order, with its own row-abandon test
//! and optional suffix bound, so its value and its `None` are bit-identical
//! to the scalar kernel's; a differential property test pins that over
//! 1–8 live lanes, equal and unequal lengths, every window kind, finite and
//! infinite cutoffs, and batches mixing lanes with and without a suffix.
//! All lanes of a batch must share both lengths (a debug assertion).
//!
//! Inputs are expected to be finite (guaranteed by `onex-ts` validation);
//! kernels are panic-free for any finite input, including empty slices where
//! a distance is meaningful.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod dtw;
pub mod ed;
pub mod envelope;
pub mod erp;
pub mod kernels;
pub mod lb;
pub mod lcss;
pub mod lp;
pub mod paa;
mod window;

pub use dtw::{
    dtw, dtw_early_abandon, dtw_normalized, dtw_with_path, DtwBuffer, DtwLanes, Lane, LANES,
};
pub use ed::{ed, ed_early_abandon_sq, ed_normalized, ed_sq};
pub use envelope::{Envelope, EnvelopeRef, EnvelopeScratch};
pub use lb::{
    lb_keogh, lb_keogh_cumulative, lb_keogh_cumulative_into, lb_keogh_sq_abandon, lb_kim_fl,
};
pub use paa::{
    lb_paa, lb_paa_env_sq, lb_paa_sq, paa, paa_envelope_into, paa_extend, paa_into,
    paa_segment_weights, paa_segment_weights_into, pdtw, Paa,
};
pub use window::Window;
