//! # onex-core — the ONEX system
//!
//! The paper's primary contribution: a one-time preprocessing step that
//! encodes similarity relationships between *all* subsequences of a dataset
//! into a compact knowledge base (the **ONEX base**), plus an online query
//! processor that runs time-warped (DTW) retrieval against the base instead
//! of the raw data.
//!
//! ## Offline (§3–4)
//!
//! * [`build::build_base`] / [`OnexBase::build`] — Algorithm 1: decompose
//!   every series into subsequences of every length, randomize, and grow
//!   **similarity groups** per length under the normalized-ED invariant
//!   `ED̄(member, representative) ≤ ST/2` (Def. 8). The representative is the
//!   point-wise mean of the group (Def. 7).
//! * [`index`] — the per-length critical thresholds, from a merge cascade
//!   over the Inter-Representative Distances `Dc` (Def. 10), computed on
//!   demand. The paper's GTI (§4.3) stores `Dc` per length; here a length's
//!   groups are its slab, found through the store's directory.
//! * [`store::GroupStore`] / [`store::LengthSlab`] — the paper's LSI made
//!   **columnar**: per length, all representatives packed row-major in one
//!   contiguous slab (stride = length), envelope lo/hi planes and running
//!   sums in parallel slabs, member lists in parallel arrays.
//!   [`group::Group`] is a lightweight view over one slab row: members
//!   sorted by ED to the representative, the representative itself, and
//!   its LB_Keogh envelope.
//! * [`spspace::SpSpace`] — the Similarity Parameter Space (§4.2): per-length
//!   and global `ST_half` / `ST_final` values and the Strict/Medium/Loose
//!   similarity degrees.
//!
//! ## Online (§5)
//!
//! * [`engine::Explorer`] — **the unified query engine and lifecycle
//!   owner**: every query class through one typed [`engine::QueryRequest`]
//!   → [`engine::QueryResponse`] pair, thread-safe over an epoch-stamped
//!   hot-swappable base, with per-query budgets and uniform
//!   [`engine::QueryStats`] (including the answering epoch) on every
//!   response. Class I (similarity) runs with every §5.3 optimization;
//!   Class II (seasonal) and Class III (threshold recommendation) read the
//!   precomputed LSI/SP-Space. Construction goes through
//!   [`engine::ExplorerBuilder`]; [`engine::Explorer::pin`] gives
//!   multi-query read consistency across maintenance swaps. It is the one
//!   public way to query, mutate and persist a base.
//! * [`refine`] — Algorithm 2.C: adapt the base to a *different* similarity
//!   threshold by splitting or cascade-merging groups, without re-scanning
//!   the raw subsequence space. Served live by
//!   [`engine::Explorer::refine_to`].
//!
//! ## Extensions beyond the paper's core
//!
//! * [`maintain`] — incremental insertion and removal of series in an
//!   existing base (sketched in the paper's tech report), served live by
//!   [`engine::Explorer::append_series`] /
//!   [`engine::Explorer::remove_series`] with atomic epoch hot-swap.
//! * [`snapshot`] — a versioned binary snapshot of the base (pure `bytes`,
//!   no external format dependency); v2 adds an epoch stamp and a CRC-32
//!   integrity footer, and v1 snapshots still load.
//! * [`symindex`] — the symbolic word index above the cascade: SAX words
//!   over the PAA sketch planes, a coarse-to-fine prefix hierarchy for
//!   certified group skips and interactive drill-down navigation. **Index
//!   proposes, cascade disposes** — results stay byte-identical with the
//!   index on or off.
//! * [`wal`] + [`fault`] — the fault-tolerance layer: a CRC-framed
//!   write-ahead journal makes maintenance between snapshots crash-safe
//!   (sidecar log, replayed by [`engine::Explorer::load`]), snapshot
//!   writes are atomic (temp file → fsync → rename), and a deterministic
//!   chaos harness ([`fault`], armed via `ONEX_FAULTS`) injects crashes at
//!   every durability and isolation boundary to prove recovery.

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

mod base;
mod config;
mod crc;
mod error;

pub mod build;
pub mod classify;
pub mod engine;
pub mod fault;
pub mod group;
pub mod index;
pub mod maintain;
pub mod pool;
pub mod query;
pub mod refine;
pub mod snapshot;
pub mod spspace;
mod stats;
pub mod store;
pub mod symindex;
pub mod wal;

pub use base::{BaseStats, OnexBase};
pub use config::{BuildMode, ClusterStrategy, OnexConfig};
pub use engine::{
    Explorer, ExplorerBuilder, PinnedExplorer, QueryOptions, QueryRequest, QueryResponse,
    QueryResult, QueryStats, SeasonalScope,
};
pub use error::{IoError, OnexError};
pub use group::{Group, GroupId};
pub use query::{Match, MatchMode, SeasonalResult};
pub use spspace::{SimilarityDegree, SpSpace, ThresholdRange};
pub use store::{GroupStore, LengthFootprint, LengthSlab, StoreFootprint};
pub use symindex::{NavNode, ProbeOutcome, SymIndex, WordSpec};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OnexError>;
