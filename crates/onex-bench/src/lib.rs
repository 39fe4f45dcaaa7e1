//! # onex-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) via the
//! `repro` binary (`cargo run -p onex-bench --release --bin repro -- all`).
//! Wall-clock claims go through the standalone `benchmark/` package instead
//! (see `benchmark/README.md`). The work contract — every `QueryStats`
//! counter of the §6.2 query mix on three datasets — is the tier-1 test
//! `tests/work_counters.rs`, compared exactly with `tests/work_counters.txt`.
//!
//! The harness runs the *same code paths* as the paper at a configurable
//! fraction of the original dataset sizes (`--scale`, default 0.05): the
//! synthetic stand-ins (`onex_ts::synth`) keep each dataset's shape and
//! morphology, so the comparative results — which system wins, by roughly
//! what factor, where the curves bend — are preserved even though absolute
//! wall-clock numbers differ from the authors' 2016 testbed. Every
//! experiment prints the paper's reference values next to the measured ones.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;

pub use harness::{accuracy_from_errors, make_queries, mean, Query};
