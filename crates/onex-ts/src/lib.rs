//! # onex-ts — time-series substrate for ONEX
//!
//! This crate provides the data layer every other ONEX crate builds on:
//!
//! * [`TimeSeries`] — an immutable, validated sequence of `f64` samples with an
//!   optional class label (UCR datasets are labelled).
//! * [`Dataset`] — a collection of series with zero-copy subsequence views
//!   ([`SubseqRef`]) and configurable decomposition into "all subsequences of
//!   all lengths" ([`Decomposition`]), the input domain of the ONEX base.
//! * [`normalize`] — the dataset-level min-max normalization the paper applies
//!   before any comparison (§6.1), plus per-series z-normalization used by the
//!   UCR-suite literature.
//! * [`ucr`] — a loader for the UCR Time Series Archive file format, so real
//!   archive files can be swapped in for the bundled generators.
//! * [`synth`] — class-structured synthetic generators standing in for the six
//!   UCR datasets of the paper's evaluation plus StarLightCurves (shapes and
//!   morphologies documented per generator).
//! * [`stats`] — summary statistics used by the experiment harness.
//!
//! All randomness is driven by caller-supplied seeds (`rand::SmallRng`) so that
//! every experiment in the reproduction is deterministic.

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

mod dataset;
mod error;
mod series;

pub mod normalize;
pub mod stats;
pub mod synth;
pub mod ucr;

pub use dataset::{Dataset, Decomposition, SubseqIter, SubseqRef};
pub use error::TsError;
pub use series::TimeSeries;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TsError>;
