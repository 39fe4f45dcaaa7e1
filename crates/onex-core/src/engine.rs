//! The unified ONEX query engine: one typed request/response surface for
//! all three of the paper's interactive query classes, over a shared,
//! thread-safe base — plus the full dataset lifecycle around it:
//! **build → serve → mutate → persist**.
//!
//! The paper's point is *interactive* exploration: Class I (similarity),
//! Class II (seasonal) and Class III (threshold-recommendation) queries
//! answered online against one precomputed [`OnexBase`]. An [`Explorer`]
//! owns the base, takes every query as a [`QueryRequest`], and answers
//! with a [`QueryResponse`] that always carries uniform [`QueryStats`] —
//! so a service can meter, trace, and budget every query class the same
//! way. Construction goes through [`ExplorerBuilder`] (from a dataset, a
//! snapshot file, or a UCR/CSV file).
//!
//! ## Concurrency and epochs
//!
//! `Explorer` is `Send + Sync` and all methods take `&self`: clone the
//! explorer (cheap — clones share the same live base) or share one
//! instance across any number of threads. Per-query scratch (DTW rows,
//! the query's envelope and sketches, the index mask) is one thread-local
//! search context, so concurrent queries neither contend nor allocate to
//! set up or to evaluate a candidate.
//!
//! The base itself is held behind an epoch-stamped slot. Every query
//! *pins* the current `(base, epoch)` pair — an `Arc` clone under a lock
//! held only for that pointer copy — and then evaluates entirely
//! lock-free. Maintenance ([`Explorer::append_series`],
//! [`Explorer::remove_series`], [`Explorer::refine_to`]) constructs the
//! successor base **off-line** and atomically hot-swaps it, bumping the
//! epoch: in-flight queries finish on the base they pinned, new queries
//! see the new one, and no reader ever blocks on a writer (writers
//! serialize among themselves). [`QueryStats::epoch`] reports which
//! generation answered; [`Explorer::pin`] hands out a [`PinnedExplorer`]
//! for multi-query read consistency across swaps.
//!
//! ## Budgets
//!
//! [`QueryOptions`] carries a per-query warping-window override, a time
//! budget, a cap on DTW evaluations, and pruning/exploration toggles.
//! Budgeted searches have *anytime* semantics: when the budget expires the
//! best answer found so far is returned and [`QueryStats::truncated`] is
//! set.
//!
//! ```
//! use onex_core::engine::{Explorer, QueryOptions, QueryRequest};
//! use onex_core::{MatchMode, OnexBase, OnexConfig};
//! use onex_ts::synth;
//!
//! let data = synth::sine_mix(10, 24, 2, 7);
//! let explorer = Explorer::build(&data, OnexConfig::default()).unwrap();
//! let q = explorer.base().dataset().series()[0].values()[2..14].to_vec();
//!
//! // Class I: best time-warped match.
//! let resp = explorer
//!     .query(QueryRequest::best_match(q, MatchMode::Any))
//!     .unwrap();
//! let best = resp.result.best_match().unwrap();
//! assert!(best.dist < 0.1);
//! assert!(resp.stats.dtw_evals > 0);
//!
//! // Class III: what thresholds mean on this dataset.
//! let resp = explorer
//!     .query(QueryRequest::Recommend {
//!         degree: None,
//!         len: None,
//!         options: QueryOptions::default(),
//!     })
//!     .unwrap();
//! assert_eq!(resp.result.recommendations().unwrap().len(), 3);
//! ```

use crate::config::check_st;
use crate::query::similarity::{self, SearchCtx, SearchParams};
use crate::query::{recommend_impl, seasonal_all_impl, seasonal_for_series_impl};
pub use crate::stats::QueryStats;
use crate::symindex::NavNode;
use crate::{fault, maintain, refine, snapshot, wal};
use crate::{
    GroupId, IoError, Match, MatchMode, OnexBase, OnexConfig, OnexError, Result, SeasonalResult,
};
use crate::{SimilarityDegree, ThresholdRange};
use onex_dist::Window;
use onex_ts::{Dataset, Decomposition, TimeSeries};
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread search scratch — DTW rows, query envelope and sketch,
    /// suffix array, index mask: queries from `&self` set up and run
    /// allocation-free without any cross-thread state.
    static SCRATCH: RefCell<SearchCtx> = RefCell::new(SearchCtx::default());
}

/// Work-stealing fan-out over scoped threads: runs `work(i)` for every
/// `i in 0..n` across up to `threads` workers, returning index-aligned
/// results. `threads <= 1` runs sequentially on the caller's thread.
/// Drives [`QueryRequest::Batch`].
fn fan_out<R, FW>(n: usize, threads: usize, work: FW) -> Vec<R>
where
    R: Send,
    FW: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(&work).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                loop {
                    // ordering: Relaxed — a pure work-stealing ticket: the
                    // counter guards no other memory; result slots are
                    // synchronized by their own mutexes and scope join.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = work(i);
                    // Each slot is written exactly once; a poisoned lock
                    // (sibling worker panicked mid-store) still holds
                    // either None or a complete result, so recover.
                    *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(
            // thread::scope re-raises any worker panic before we get here,
            // so every index was claimed by fetch_add and filled.
            #[expect(clippy::expect_used, reason = "infallible, see above")]
            |slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every slot filled")
            },
        )
        .collect()
}

/// Per-query knobs shared by every [`QueryRequest`] variant.
///
/// `Default` reproduces the base's build-time behaviour exactly (no
/// overrides, pruning on, no budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Similarity-threshold override for the qualifying test (`WHERE
    /// Sim <= ST`); `None` uses the base's build-time `ST`.
    pub st: Option<f64>,
    /// DTW warping-window override; `None` uses the base's window.
    pub window: Option<Window>,
    /// Wall-clock budget for this query. When it expires the best answer
    /// found so far is returned with [`QueryStats::truncated`] set.
    pub time_budget: Option<Duration>,
    /// Cap on total DTW evaluations (representatives + members), same
    /// anytime semantics as `time_budget`.
    pub max_dtw_evals: Option<usize>,
    /// Apply lower-bound pruning at all (default `true`; turning it off
    /// changes work done, never answers). This is the master switch; see
    /// `cascade` for the per-tier pipeline it enables.
    pub lb_pruning: bool,
    /// Run every DTW candidate — representative *and* member — through the
    /// full cascaded pipeline: the O(w) PAA sketch bound (tier 0) →
    /// LB_Kim → query-envelope LB_Keogh (reordered, squared,
    /// early-abandoning) → candidate-envelope LB_Keogh → suffix-seeded
    /// early-abandoned DTW (default `true`).
    /// With `cascade: false` (and `lb_pruning` on) only the pre-cascade
    /// representative-level LB_Kim + envelope check runs — the ablation
    /// point isolating the member-level tiers. Results are identical
    /// either way.
    pub cascade: bool,
    /// Consult the per-length symbolic word index for certified group
    /// skips ahead of each rep scan (default `true`). The index only
    /// *proposes*: every skip is certified equivalent to a tier-0 sketch
    /// prune, so answers — and the cascade counters — are byte-identical
    /// with the toggle off; only the `index_*` counters and wall-clock
    /// change.
    pub symindex: bool,
    /// Override the base's `explore_top_groups` (how many best groups to
    /// descend into per length).
    pub explore_top_groups: Option<usize>,
    /// Override the base's `exhaustive_group_search` toggle.
    pub exhaustive_group_search: Option<bool>,
    /// Override the base's `stop_at_first_qualifying` toggle (§5.3 early
    /// stop across lengths).
    pub stop_at_first_qualifying: Option<bool>,
    /// Override the resolved intra-query worker count
    /// ([`OnexConfig::query_threads`]): `Some(1)` pins this query to the
    /// exact sequential scan, `Some(n)` fans its per-length scans over `n`
    /// scoped workers, `None` uses the config's resolution (explicit value,
    /// then `ONEX_QUERY_THREADS`, then available parallelism). Results are
    /// byte-identical at any value; see the crate's threading-model notes.
    pub query_threads: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            st: None,
            window: None,
            time_budget: None,
            max_dtw_evals: None,
            lb_pruning: true,
            cascade: true,
            symindex: true,
            explore_top_groups: None,
            exhaustive_group_search: None,
            stop_at_first_qualifying: None,
            query_threads: None,
        }
    }
}

impl QueryOptions {
    /// Options with a similarity-threshold override.
    pub fn with_st(st: f64) -> Self {
        QueryOptions {
            st: Some(st),
            ..Default::default()
        }
    }

    /// Options with a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        QueryOptions {
            time_budget: Some(budget),
            ..Default::default()
        }
    }

    /// Resolves these options against a base's configuration into concrete
    /// search parameters. An `st` override gets the same check as
    /// [`OnexConfig::st`].
    fn resolve(&self, config: &OnexConfig) -> Result<SearchParams> {
        if let Some(st) = self.st {
            check_st(st)?;
        }
        let defaults = SearchParams::from_config(config, self.st);
        Ok(SearchParams {
            window: self.window.unwrap_or(defaults.window),
            lb_pruning: self.lb_pruning,
            cascade: self.cascade,
            symindex: self.symindex,
            deadline: self.time_budget.map(|b| Instant::now() + b),
            max_dtw_evals: self.max_dtw_evals,
            explore_top_groups: self
                .explore_top_groups
                .unwrap_or(defaults.explore_top_groups),
            exhaustive_group_search: self
                .exhaustive_group_search
                .unwrap_or(defaults.exhaustive_group_search),
            stop_at_first_qualifying: self
                .stop_at_first_qualifying
                .unwrap_or(defaults.stop_at_first_qualifying),
            query_threads: self
                .query_threads
                .map(|n| n.max(1))
                .unwrap_or(defaults.query_threads),
            ..defaults
        })
    }
}

/// Which series a Class II (seasonal) query inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeasonalScope {
    /// Data-driven: recurring groups across the whole dataset.
    All,
    /// User-driven: recurring groups within one series.
    Series(usize),
}

/// A typed query — every class the paper defines, plus batch composition.
#[derive(Debug, Clone)]
pub enum QueryRequest {
    /// Class I: single best time-warped match.
    BestMatch {
        /// Query values (in the base's normalized space).
        values: Vec<f64>,
        /// Length clause.
        mode: MatchMode,
        /// Shared per-query knobs.
        options: QueryOptions,
    },
    /// Class I: the `k` most similar subsequences.
    TopK {
        /// Query values (in the base's normalized space).
        values: Vec<f64>,
        /// Length clause.
        mode: MatchMode,
        /// How many matches to return.
        k: usize,
        /// Shared per-query knobs.
        options: QueryOptions,
    },
    /// Class I range form: everything within the similarity threshold.
    WithinThreshold {
        /// Query values (in the base's normalized space).
        values: Vec<f64>,
        /// Length clause.
        mode: MatchMode,
        /// Verify each member's true DTW (vs. the certified fast path).
        verify: bool,
        /// Shared per-query knobs (`options.st` is the threshold).
        options: QueryOptions,
    },
    /// Class II: recurring similarity patterns.
    Seasonal {
        /// Whole dataset or one series.
        scope: SeasonalScope,
        /// Subsequence length to inspect.
        len: usize,
        /// Minimum members (data-driven) or recurrences (user-driven) for a
        /// group to count as a pattern.
        min_recurrence: usize,
        /// Shared per-query knobs (none currently apply — accepted for
        /// surface uniformity).
        options: QueryOptions,
    },
    /// Class III: similarity-threshold recommendations.
    Recommend {
        /// Strict/Medium/Loose, or `None` for all three.
        degree: Option<SimilarityDegree>,
        /// Per-length recommendation, or `None` for global.
        len: Option<usize>,
        /// Shared per-query knobs (none currently apply — accepted for
        /// surface uniformity).
        options: QueryOptions,
    },
    /// Several requests answered as one unit, fanned out across a bounded
    /// worker pool over one pinned epoch (every child sees the same base).
    ///
    /// When the pool runs more than one worker, each child whose
    /// [`QueryOptions::query_threads`] is `None` is pinned to a sequential
    /// intra-query scan: batch-level parallelism *replaces* intra-query
    /// parallelism, so the total thread count stays bounded by the pool
    /// and every child's work counters are the deterministic sequential
    /// ones. An explicit `query_threads` on a child is honoured as given.
    ///
    /// The batch response's aggregate [`QueryStats`] is well-defined under
    /// concurrency:
    /// * every counter is the field-wise **sum** over successful children,
    ///   accumulated in request order (failures contribute nothing);
    /// * `elapsed` is the batch's own wall-clock time, **not** a sum —
    ///   each child carries its own `elapsed`;
    /// * `epoch` is the single pinned epoch all children ran against;
    /// * `truncated` is the **OR** over children (any budgeted child that
    ///   truncated marks the batch).
    Batch {
        /// The requests; the response preserves order.
        requests: Vec<QueryRequest>,
        /// Worker threads, clamped to the batch size. `0` = auto (the
        /// machine's available parallelism), `1` = sequential.
        threads: usize,
    },
}

impl QueryRequest {
    /// Pins this request's intra-query scan to the exact sequential path
    /// unless the caller set [`QueryOptions::query_threads`] explicitly.
    /// Applied to every child of a concurrent [`QueryRequest::Batch`]:
    /// batch-level parallelism replaces intra-query parallelism, keeping
    /// the total thread count bounded by the batch pool and each child's
    /// work counters deterministic. Nested batches inherit the rule.
    fn pin_sequential_scan(&mut self) {
        match self {
            QueryRequest::BestMatch { options, .. }
            | QueryRequest::TopK { options, .. }
            | QueryRequest::WithinThreshold { options, .. }
            | QueryRequest::Seasonal { options, .. }
            | QueryRequest::Recommend { options, .. } => {
                if options.query_threads.is_none() {
                    options.query_threads = Some(1);
                }
            }
            QueryRequest::Batch { requests, .. } => {
                for r in requests {
                    r.pin_sequential_scan();
                }
            }
        }
    }

    /// A best-match request with default options.
    pub fn best_match(values: Vec<f64>, mode: MatchMode) -> Self {
        QueryRequest::BestMatch {
            values,
            mode,
            options: QueryOptions::default(),
        }
    }

    /// A top-`k` request with default options.
    pub fn top_k(values: Vec<f64>, mode: MatchMode, k: usize) -> Self {
        QueryRequest::TopK {
            values,
            mode,
            k,
            options: QueryOptions::default(),
        }
    }

    /// A data-driven seasonal request with default options.
    pub fn seasonal_all(len: usize, min_members: usize) -> Self {
        QueryRequest::Seasonal {
            scope: SeasonalScope::All,
            len,
            min_recurrence: min_members,
            options: QueryOptions::default(),
        }
    }

    /// A user-driven seasonal request with default options.
    pub fn seasonal_for_series(series: usize, len: usize, min_recurrence: usize) -> Self {
        QueryRequest::Seasonal {
            scope: SeasonalScope::Series(series),
            len,
            min_recurrence,
            options: QueryOptions::default(),
        }
    }

    /// A recommendation request with default options.
    pub fn recommend(degree: Option<SimilarityDegree>, len: Option<usize>) -> Self {
        QueryRequest::Recommend {
            degree,
            len,
            options: QueryOptions::default(),
        }
    }
}

/// One bucket of the symbolic word index's coarse-to-fine hierarchy, as
/// returned by [`Explorer::navigate`] / [`PinnedExplorer::navigate`]: the
/// bucket itself (level, symbol ranges, child count) plus the global ids
/// of the groups under it. Owned — valid across maintenance hot-swaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NavView {
    /// The bucket reached by the navigation path.
    pub node: NavNode,
    /// Global ids of every group under the bucket, in word order.
    pub groups: Vec<GroupId>,
}

/// The payload of a [`QueryResponse`], one variant per request class.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// Answer to [`QueryRequest::BestMatch`].
    BestMatch(Match),
    /// Answer to [`QueryRequest::TopK`] (ascending by the ranking metric).
    TopK(Vec<Match>),
    /// Answer to [`QueryRequest::WithinThreshold`] (ascending by distance).
    WithinThreshold(Vec<Match>),
    /// Answer to [`QueryRequest::Seasonal`].
    Seasonal(Vec<SeasonalResult>),
    /// Answer to [`QueryRequest::Recommend`].
    Recommend(Vec<ThresholdRange>),
    /// Answers to [`QueryRequest::Batch`], index-aligned with the request;
    /// per-query failures don't fail the batch.
    Batch(Vec<Result<QueryResponse>>),
}

impl QueryResult {
    /// The single best match, when this is a `BestMatch` response.
    pub fn best_match(&self) -> Option<&Match> {
        match self {
            QueryResult::BestMatch(m) => Some(m),
            _ => None,
        }
    }

    /// The ranked matches, when this is a `TopK` or `WithinThreshold`
    /// response.
    pub fn matches(&self) -> Option<&[Match]> {
        match self {
            QueryResult::TopK(ms) | QueryResult::WithinThreshold(ms) => Some(ms),
            _ => None,
        }
    }

    /// The seasonal clusters, when this is a `Seasonal` response.
    pub fn seasonal(&self) -> Option<&[SeasonalResult]> {
        match self {
            QueryResult::Seasonal(s) => Some(s),
            _ => None,
        }
    }

    /// The recommended ranges, when this is a `Recommend` response.
    pub fn recommendations(&self) -> Option<&[ThresholdRange]> {
        match self {
            QueryResult::Recommend(r) => Some(r),
            _ => None,
        }
    }

    /// The per-request responses, when this is a `Batch` response.
    pub fn batch(&self) -> Option<&[Result<QueryResponse>]> {
        match self {
            QueryResult::Batch(b) => Some(b),
            _ => None,
        }
    }
}

/// A typed answer: the payload plus uniform instrumentation.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The answer payload.
    pub result: QueryResult,
    /// Uniform instrumentation, populated on every response.
    pub stats: QueryStats,
}

/// The live `(base, epoch)` pair. Readers copy both under the slot lock
/// (an `Arc` clone — a pointer and a refcount bump); writers replace both
/// under the same lock. The lock is never held across query evaluation or
/// successor construction.
#[derive(Debug)]
struct Slot {
    base: Arc<OnexBase>,
    epoch: u64,
}

/// The unified, thread-safe ONEX query engine — and the owner of the
/// dataset lifecycle around it.
///
/// Cloning is cheap and clones *share* the live base: a maintenance
/// hot-swap through any clone is immediately visible to all of them. Every
/// method takes `&self`, so one explorer (or clones of it) serves
/// concurrent callers directly while [`Explorer::append_series`],
/// [`Explorer::remove_series`] and [`Explorer::refine_to`] evolve the base
/// underneath them. See the [module docs](self) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Explorer {
    slot: Arc<Mutex<Slot>>,
    /// Serializes maintenance operations (held across successor
    /// construction so concurrent writers can't lose each other's updates);
    /// never touched by the query path.
    writer: Arc<Mutex<()>>,
    /// Queries currently in flight through [`Explorer::query`] and its
    /// convenience wrappers — the admission-control gauge behind
    /// [`OnexConfig::max_inflight`]. Shared by clones, untouched (and
    /// zero-cost) when shedding is disabled.
    inflight: Arc<AtomicUsize>,
    /// The attached write-ahead journal, if any (see
    /// [`Explorer::attach_wal`]). Appends happen under the `writer` lock,
    /// so this mutex is uncontended; it exists so clones share the writer.
    wal: Arc<Mutex<Option<wal::WalWriter>>>,
}

/// RAII decrement for the in-flight gauge: admission is released when the
/// query returns, on every path including errors.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        // ordering: Relaxed — the gauge is a saturating counter consulted
        // only for shedding decisions; no data is published through it.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Admission control: reserves one in-flight slot, or sheds with
/// [`OnexError::Overloaded`] when `max` are already running. `max == 0`
/// disables shedding entirely — no atomic traffic at all.
fn admit(gauge: &AtomicUsize, max: usize) -> Result<Option<InflightGuard<'_>>> {
    if max == 0 {
        return Ok(None);
    }
    // ordering: Relaxed — see InflightGuard::drop; the reserve/undo pair
    // only needs atomicity of the counter itself.
    let prior = gauge.fetch_add(1, Ordering::Relaxed);
    if prior >= max {
        // ordering: Relaxed — undoing our own reservation.
        gauge.fetch_sub(1, Ordering::Relaxed);
        return Err(OnexError::Overloaded { max_inflight: max });
    }
    Ok(Some(InflightGuard(gauge)))
}

impl Explorer {
    /// Wraps an already-shared base at epoch 0.
    pub fn new(base: Arc<OnexBase>) -> Self {
        Self::with_epoch(base, 0)
    }

    /// Wraps an owned base at epoch 0.
    pub fn from_base(base: OnexBase) -> Self {
        Self::new(Arc::new(base))
    }

    /// Builds a base from raw data and wraps it (convenience for
    /// [`OnexBase::build`] + [`Explorer::from_base`]; see
    /// [`ExplorerBuilder`] for the full construction surface).
    pub fn build(dataset: &Dataset, config: OnexConfig) -> Result<Self> {
        Ok(Self::from_base(OnexBase::build(dataset, config)?))
    }

    /// A builder over every construction path: config knobs plus
    /// build-from-dataset / from-snapshot / from-CSV terminals.
    pub fn builder() -> ExplorerBuilder {
        ExplorerBuilder::new()
    }

    fn with_epoch(base: Arc<OnexBase>, epoch: u64) -> Self {
        Explorer {
            slot: Arc::new(Mutex::new(Slot { base, epoch })),
            writer: Arc::new(Mutex::new(())),
            inflight: Arc::new(AtomicUsize::new(0)),
            wal: Arc::new(Mutex::new(None)),
        }
    }

    /// A snapshot of the current base. The returned [`Arc`] stays valid
    /// (and unchanged) for as long as the caller holds it, even across
    /// maintenance hot-swaps; re-call to observe the newest generation. For
    /// several queries that must all see one generation, use
    /// [`Explorer::pin`].
    pub fn base(&self) -> Arc<OnexBase> {
        self.pin_parts().0
    }

    /// A clone of the current inner [`Arc`] (alias of [`Explorer::base`],
    /// kept for source compatibility).
    pub fn base_arc(&self) -> Arc<OnexBase> {
        self.base()
    }

    /// The current maintenance epoch: 0 at construction (or the epoch
    /// recorded in the snapshot for [`Explorer::load`]), +1 per hot-swap.
    pub fn epoch(&self) -> u64 {
        self.pin_parts().1
    }

    /// Pins the current `(base, epoch)` into a session handle: every query
    /// issued through the returned [`PinnedExplorer`] is answered by this
    /// exact generation, regardless of concurrent maintenance.
    pub fn pin(&self) -> PinnedExplorer {
        let (base, epoch) = self.pin_parts();
        PinnedExplorer { base, epoch }
    }

    fn pin_parts(&self) -> (Arc<OnexBase>, u64) {
        // The slot only ever holds a fully-built (base, epoch) pair and the
        // swap is a plain assignment, so a panic elsewhere cannot leave it
        // half-updated: recover from poisoning instead of cascading.
        let slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        (Arc::clone(&slot.base), slot.epoch)
    }

    /// Installs a successor base, bumping the epoch; returns the new epoch.
    fn install(&self, next: OnexBase) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        slot.base = Arc::new(next);
        slot.epoch += 1;
        slot.epoch
    }

    // ---- live maintenance ----

    /// Journals a successful maintenance op to the attached WAL (if any),
    /// then fires the `hot-swap` fault point. Called under the writer
    /// lock, after the successor is built and validated but **before**
    /// [`Explorer::install`] — the write-ahead ordering: an op is durable
    /// before it is served, and a crash between the two replays it on
    /// load. On any error the install is skipped and the live base is
    /// untouched.
    fn journal(&self, op: &wal::WalOp, next_epoch: u64) -> Result<()> {
        let mut wal = self.wal.lock().unwrap_or_else(|p| p.into_inner());
        let Some(writer) = wal.as_mut() else {
            return Ok(());
        };
        writer.append(op, next_epoch)?;
        if fault::probe(fault::HOT_SWAP, 0).is_some() {
            // Simulated crash after the journal fsync and before the
            // epoch swap: the op is durable but was never served.
            return Err(OnexError::Io(IoError::new(
                "installing op journaled in wal",
                writer.path(),
                format_args!("injected fault before hot-swap to epoch {next_epoch}"),
            )));
        }
        Ok(())
    }

    /// Appends a series (raw units if the base was built from raw data),
    /// returning its index in the dataset. The successor base is
    /// constructed off-line — only the new series' subsequences are
    /// re-assigned, against the existing representatives — and then
    /// atomically hot-swapped: queries in flight finish on the old base,
    /// queries issued afterwards see the new series. With a WAL attached
    /// ([`Explorer::attach_wal`]) the op is journaled before the swap.
    ///
    /// The cost follows the touched-set rule: only the groups the new
    /// subsequences join or seed (plus, in [`crate::BuildMode::Strict`],
    /// those the repair evicts from or re-inserts into) are re-finalized;
    /// every other group is copied from the live base.
    pub fn append_series(&self, series: TimeSeries) -> Result<usize> {
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let (current, epoch) = self.pin_parts();
        let op = wal::WalOp::Append(series.clone());
        let (next, index) = maintain::append_series_impl(current.to_predecessor(), series)?;
        // Deep self-check of the successor before it goes live — debug
        // builds only; see OnexBase::validate_invariants for the catalog.
        #[cfg(debug_assertions)]
        next.validate_invariants()?;
        self.journal(&op, epoch + 1)?;
        self.install(next);
        Ok(index)
    }

    /// Removes the series at `index`, returning it. The inverse of
    /// [`Explorer::append_series`]: the series' subsequences leave their
    /// groups, emptied groups are retired, shrunk groups re-elect their
    /// representative, and surviving references are remapped — then the
    /// successor is atomically hot-swapped. Note that series indices above
    /// `index` shift down by one, exactly as in `Vec::remove`. With a WAL
    /// attached the op is journaled before the swap.
    ///
    /// The cost follows the touched-set rule: only the groups that shrank
    /// are re-finalized (and Strict-repaired); untouched groups are copied
    /// from the live base.
    pub fn remove_series(&self, index: usize) -> Result<TimeSeries> {
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let (current, epoch) = self.pin_parts();
        let (next, removed) = maintain::remove_series_impl(current.to_predecessor(), index)?;
        // Deep self-check of the successor before it goes live (debug only).
        #[cfg(debug_assertions)]
        next.validate_invariants()?;
        self.journal(&wal::WalOp::Remove(index), epoch + 1)?;
        self.install(next);
        Ok(removed)
    }

    /// Re-thresholds the base to `st_prime` (the paper's Algorithm 2.C:
    /// groups split under a tighter threshold, cascade-merge under a looser
    /// one — no raw-data re-clustering), then atomically hot-swaps the
    /// refined base. Returns the new epoch. With a WAL attached the op is
    /// journaled before the swap.
    pub fn refine_to(&self, st_prime: f64) -> Result<u64> {
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let (current, epoch) = self.pin_parts();
        let next = refine::refine_impl(&current, st_prime)?;
        // Deep self-check of the successor before it goes live (debug only).
        #[cfg(debug_assertions)]
        next.validate_invariants()?;
        self.journal(&wal::WalOp::Refine(st_prime), epoch + 1)?;
        Ok(self.install(next))
    }

    // ---- observability ----

    /// Detailed per-length memory accounting of the live base's columnar
    /// group store: slab bytes per plane (representatives, envelopes,
    /// sums), member bytes, and heap-allocation counts. The coarse totals
    /// are also on [`crate::BaseStats`] via `base().stats()`.
    pub fn footprint(&self) -> crate::StoreFootprint {
        self.base().footprint()
    }

    /// Drills into the symbolic word index at `len`: `path` picks a child
    /// bucket at each level starting from the root (`&[]` is the root
    /// itself). Returns `None` when the length is not indexed or the path
    /// walks off the hierarchy. See [`PinnedExplorer::navigate`].
    pub fn navigate(&self, len: usize, path: &[usize]) -> Option<NavView> {
        self.pin().navigate(len, path)
    }

    // ---- persistence ----

    /// Attaches a write-ahead journal at `path` (conventionally
    /// [`crate::wal::sidecar_path`] of the snapshot): from now on every
    /// maintenance op is appended and fsynced there **before** its
    /// hot-swap, so ops between snapshots survive a crash and are replayed
    /// by [`Explorer::load`]. If the file already holds records they are
    /// *not* replayed here (attach is for journaling, load is for
    /// recovery) — any torn tail is truncated and appends resume after the
    /// intact prefix.
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let resume_len = match std::fs::read(path) {
            Ok(bytes) => wal::decode_log(&bytes)?.valid_len as u64,
            Err(_) => 0,
        };
        let writer = wal::WalWriter::open(path, resume_len)?;
        let mut wal = self.wal.lock().unwrap_or_else(|p| p.into_inner());
        *wal = Some(writer);
        Ok(())
    }

    /// Detaches the write-ahead journal, if one is attached; subsequent
    /// maintenance ops are no longer journaled. The file is left intact.
    pub fn detach_wal(&self) {
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let mut wal = self.wal.lock().unwrap_or_else(|p| p.into_inner());
        *wal = None;
    }

    /// Writes the current base to `path` as a v5 snapshot: checksummed
    /// (CRC-32 footer) and stamped with the current epoch, so
    /// [`Explorer::load`] resumes the generation count. The write is
    /// atomic (temp file → fsync → rename): a crash mid-save leaves the
    /// previous snapshot intact. If the attached WAL is the sidecar of
    /// `path`, a successful save checkpoints it: every journaled op is now
    /// folded into the snapshot, so the journal is reset to empty. (A
    /// crash between the rename and the reset is safe — replay skips
    /// records at or below the snapshot's epoch.)
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let _writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let (base, epoch) = self.pin_parts();
        snapshot::write_snapshot(&base, epoch, path)?;
        let mut wal = self.wal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(writer) = wal.as_mut() {
            if writer.path() == wal::sidecar_path(path) {
                writer.reset()?;
            }
        }
        Ok(())
    }

    /// Loads a snapshot (any version, v1 through v5) from `path`,
    /// restoring the recorded epoch (0 for v1 snapshots, which predate
    /// epochs). If a WAL sidecar ([`crate::wal::sidecar_path`]) exists
    /// next to the snapshot, every journaled maintenance op past the
    /// snapshot's epoch is **replayed** (a torn final record — the
    /// signature of an append interrupted by a crash — is dropped), the
    /// recovered base is re-validated, and the journal stays attached so
    /// further ops keep journaling.
    #[expect(clippy::print_stderr, reason = "logs a dropped torn WAL tail")]
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let (base, epoch) = snapshot::read_snapshot(path)?;
        let sidecar = wal::sidecar_path(path);
        if !sidecar.exists() {
            return Ok(Self::with_epoch(Arc::new(base), epoch));
        }
        let recovery = wal::replay(&sidecar, base, epoch)?;
        if recovery.torn_bytes > 0 {
            eprintln!(
                "warning: wal {}: dropped {} byte(s) of torn tail (crash-interrupted \
                 append); {} op(s) replayed",
                sidecar.display(),
                recovery.torn_bytes,
                recovery.applied
            );
        }
        let explorer = Self::with_epoch(Arc::new(recovery.base), recovery.epoch);
        let writer = wal::WalWriter::open(&sidecar, recovery.valid_len)?;
        {
            let mut wal = explorer.wal.lock().unwrap_or_else(|p| p.into_inner());
            *wal = Some(writer);
        }
        Ok(explorer)
    }

    // ---- queries ----
    //
    // Every query method pins the current generation and delegates to the
    // identical [`PinnedExplorer`] surface, so the two stay in lockstep by
    // construction.

    /// Answers any request. This is the single entry point every query
    /// class goes through; the typed convenience methods below are thin
    /// wrappers. The whole request — including every child of a
    /// [`QueryRequest::Batch`] — is answered on one pinned base.
    ///
    /// With [`OnexConfig::max_inflight`] set, this method (and every
    /// wrapper) passes admission control first: when that many queries are
    /// already running through this explorer or its clones, the call is
    /// shed immediately with [`OnexError::Overloaded`] instead of queueing
    /// — the serving tier decides whether to retry or fail over. Pinned
    /// sessions ([`Explorer::pin`]) bypass the gauge: a pin is an explicit
    /// reservation.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.query(request)
    }

    /// Class I convenience: single best match. Borrows the query — no
    /// per-call allocation beyond what the search itself needs.
    pub fn best_match(
        &self,
        values: &[f64],
        mode: MatchMode,
        options: QueryOptions,
    ) -> Result<Match> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.best_match(values, mode, options)
    }

    /// Class I convenience: top-`k` matches. Borrows the query.
    pub fn top_k(
        &self,
        values: &[f64],
        mode: MatchMode,
        k: usize,
        options: QueryOptions,
    ) -> Result<Vec<Match>> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.top_k(values, mode, k, options)
    }

    /// Class I convenience: range query. Borrows the query.
    pub fn within_threshold(
        &self,
        values: &[f64],
        mode: MatchMode,
        verify: bool,
        options: QueryOptions,
    ) -> Result<Vec<Match>> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.within_threshold(values, mode, verify, options)
    }

    /// Class II convenience: data-driven seasonal patterns.
    pub fn seasonal_all(&self, len: usize, min_members: usize) -> Result<Vec<SeasonalResult>> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.seasonal_all(len, min_members)
    }

    /// Class II convenience: seasonal patterns within one series.
    pub fn seasonal_for_series(
        &self,
        series: usize,
        len: usize,
        min_recurrence: usize,
    ) -> Result<Vec<SeasonalResult>> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.seasonal_for_series(series, len, min_recurrence)
    }

    /// Class III convenience: threshold recommendations.
    pub fn recommend(
        &self,
        degree: Option<SimilarityDegree>,
        len: Option<usize>,
    ) -> Result<Vec<ThresholdRange>> {
        let pinned = self.pin();
        let _admit = admit(&self.inflight, pinned.base().config().max_inflight)?;
        pinned.recommend(degree, len)
    }
}

/// A pinned `(base, epoch)` session handle from [`Explorer::pin`].
///
/// Every query through this handle is answered by the generation that was
/// live at pin time — maintenance hot-swaps on the originating explorer
/// don't affect it, giving a multi-query session read consistency (and
/// keeping the old base alive until the last pin drops). Cloning shares
/// the pin.
#[derive(Debug, Clone)]
pub struct PinnedExplorer {
    base: Arc<OnexBase>,
    epoch: u64,
}

impl PinnedExplorer {
    /// The pinned base.
    pub fn base(&self) -> &OnexBase {
        &self.base
    }

    /// A clone of the pinned [`Arc`].
    pub fn base_arc(&self) -> Arc<OnexBase> {
        Arc::clone(&self.base)
    }

    /// The epoch this handle pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Answers any request against the pinned generation.
    pub fn query(&self, request: QueryRequest) -> Result<QueryResponse> {
        exec(&self.base, self.epoch, request)
    }

    /// Class I convenience: single best match, on the pinned generation.
    /// Borrows the query — no per-call allocation beyond what the search
    /// itself needs.
    pub fn best_match(
        &self,
        values: &[f64],
        mode: MatchMode,
        options: QueryOptions,
    ) -> Result<Match> {
        run_search(
            &self.base,
            self.epoch,
            Instant::now(),
            &options,
            |base, p, ctx| similarity::best_match(base, values, mode, p, ctx),
        )
        .map(|(m, _)| m)
    }

    /// Class I convenience: top-`k` matches, on the pinned generation.
    pub fn top_k(
        &self,
        values: &[f64],
        mode: MatchMode,
        k: usize,
        options: QueryOptions,
    ) -> Result<Vec<Match>> {
        run_search(
            &self.base,
            self.epoch,
            Instant::now(),
            &options,
            |base, p, ctx| similarity::top_k(base, values, mode, k, p, ctx),
        )
        .map(|(ms, _)| ms)
    }

    /// Class I convenience: range query, on the pinned generation.
    pub fn within_threshold(
        &self,
        values: &[f64],
        mode: MatchMode,
        verify: bool,
        options: QueryOptions,
    ) -> Result<Vec<Match>> {
        run_search(
            &self.base,
            self.epoch,
            Instant::now(),
            &options,
            |base, p, ctx| similarity::within_threshold(base, values, mode, verify, p, ctx),
        )
        .map(|(ms, _)| ms)
    }

    /// Class II convenience: data-driven seasonal patterns.
    pub fn seasonal_all(&self, len: usize, min_members: usize) -> Result<Vec<SeasonalResult>> {
        seasonal_all_impl(&self.base, len, min_members)
    }

    /// Class II convenience: seasonal patterns within one series.
    pub fn seasonal_for_series(
        &self,
        series: usize,
        len: usize,
        min_recurrence: usize,
    ) -> Result<Vec<SeasonalResult>> {
        seasonal_for_series_impl(&self.base, series, len, min_recurrence)
    }

    /// Class III convenience: threshold recommendations.
    pub fn recommend(
        &self,
        degree: Option<SimilarityDegree>,
        len: Option<usize>,
    ) -> Result<Vec<ThresholdRange>> {
        recommend_impl(&self.base, degree, len)
    }

    /// Coarse-to-fine drill-down into the symbolic word index at `len`
    /// (the interactive exploration surface over the same hierarchy the
    /// query path probes): `path` selects a child bucket at each level
    /// starting from the root — `&[]` is the root, `&[2]` its third
    /// child, `&[2, 0]` that bucket's first child, and so on. Returns the
    /// reached bucket's symbol ranges and the groups under it, or `None`
    /// when the length is not indexed or the path walks off the
    /// hierarchy.
    pub fn navigate(&self, len: usize, path: &[usize]) -> Option<NavView> {
        let sym = self.base.sym_index(len)?;
        let (first, _) = self.base.store().slab_for_len(len)?;
        let mut node = sym.root();
        for &i in path {
            node = sym.child(&node, i)?;
        }
        let groups = sym
            .node_groups(&node)
            .iter()
            .map(|&local| first + local)
            .collect();
        Some(NavView { node, groups })
    }
}

// ---- execution core (shared by Explorer and PinnedExplorer) ----

/// Answers one request against a fixed `(base, epoch)`.
fn exec(base: &OnexBase, epoch: u64, request: QueryRequest) -> Result<QueryResponse> {
    let started = Instant::now();
    match request {
        QueryRequest::BestMatch {
            values,
            mode,
            options,
        } => run_search(base, epoch, started, &options, |base, p, ctx| {
            similarity::best_match(base, &values, mode, p, ctx)
        })
        .map(|(m, stats)| QueryResponse {
            result: QueryResult::BestMatch(m),
            stats,
        }),
        QueryRequest::TopK {
            values,
            mode,
            k,
            options,
        } => run_search(base, epoch, started, &options, |base, p, ctx| {
            similarity::top_k(base, &values, mode, k, p, ctx)
        })
        .map(|(ms, stats)| QueryResponse {
            result: QueryResult::TopK(ms),
            stats,
        }),
        QueryRequest::WithinThreshold {
            values,
            mode,
            verify,
            options,
        } => run_search(base, epoch, started, &options, |base, p, ctx| {
            similarity::within_threshold(base, &values, mode, verify, p, ctx)
        })
        .map(|(ms, stats)| QueryResponse {
            result: QueryResult::WithinThreshold(ms),
            stats,
        }),
        QueryRequest::Seasonal {
            scope,
            len,
            min_recurrence,
            options: _,
        } => {
            let result = match scope {
                SeasonalScope::All => seasonal_all_impl(base, len, min_recurrence)?,
                SeasonalScope::Series(series) => {
                    seasonal_for_series_impl(base, series, len, min_recurrence)?
                }
            };
            Ok(QueryResponse {
                result: QueryResult::Seasonal(result),
                stats: QueryStats {
                    elapsed: started.elapsed(),
                    epoch,
                    ..QueryStats::default()
                },
            })
        }
        QueryRequest::Recommend {
            degree,
            len,
            options: _,
        } => {
            let ranges = recommend_impl(base, degree, len)?;
            Ok(QueryResponse {
                result: QueryResult::Recommend(ranges),
                stats: QueryStats {
                    elapsed: started.elapsed(),
                    epoch,
                    ..QueryStats::default()
                },
            })
        }
        QueryRequest::Batch { requests, threads } => {
            run_batch(base, epoch, started, requests, threads)
        }
    }
}

/// Runs one Class I search with thread-local scratch, returning its
/// payload with uniform stats. No lock is held anywhere on this path.
fn run_search<T>(
    base: &OnexBase,
    epoch: u64,
    started: Instant,
    options: &QueryOptions,
    body: impl FnOnce(&OnexBase, &SearchParams, &mut SearchCtx) -> Result<T>,
) -> Result<(T, QueryStats)> {
    let params = options.resolve(base.config())?;
    SCRATCH.with(|cell| {
        // Taken out rather than borrowed: a body that panics mid-scan
        // leaves a fresh context behind, not half-updated scratch.
        let mut ctx = cell.take();
        // Reset here, not only inside the search: a request rejected before
        // it starts must not be stamped with the previous query's counters.
        ctx.begin();
        let outcome = body(base, &params, &mut ctx);
        let stats = QueryStats {
            elapsed: started.elapsed(),
            epoch,
            ..ctx.stats
        };
        cell.replace(ctx);
        outcome.map(|result| (result, stats))
    })
}

/// Fans a batch out across scoped worker threads, every child on the same
/// pinned base. Results are index-aligned with the requests; each failure
/// stays in its slot. See [`QueryRequest::Batch`] for the pool-sizing and
/// stats-aggregation contract.
fn run_batch(
    base: &OnexBase,
    epoch: u64,
    started: Instant,
    mut requests: Vec<QueryRequest>,
    threads: usize,
) -> Result<QueryResponse> {
    let n = requests.len();
    // `0` = auto: size the pool to the machine (fan_out clamps to `n`).
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    } else {
        threads
    };
    if threads.min(n) > 1 {
        // Concurrent batch: children default to sequential intra-query
        // scans so batch-level parallelism replaces — not multiplies —
        // intra-query parallelism (see the variant docs).
        for r in &mut requests {
            r.pin_sequential_scan();
        }
    }
    // Requests are handed to workers by index; the Mutex<Option<_>>
    // wrapper lets each be taken by value exactly once.
    let requests: Vec<Mutex<Option<QueryRequest>>> =
        requests.into_iter().map(|r| Mutex::new(Some(r))).collect();
    let responses: Vec<Result<QueryResponse>> = fan_out(n, threads, |i| {
        // fetch_add hands each index to exactly one worker.
        #[expect(clippy::expect_used, reason = "infallible, see above")]
        let request = requests[i]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("each request taken once");
        exec(base, epoch, request)
    });
    let mut stats = QueryStats {
        epoch,
        ..QueryStats::default()
    };
    for r in responses.iter().flatten() {
        stats.absorb(&r.stats);
    }
    stats.elapsed = started.elapsed();
    Ok(QueryResponse {
        result: QueryResult::Batch(responses),
        stats,
    })
}

/// Builder over every [`Explorer`] construction path, replacing the
/// scattered entry points (`OnexBase::build` + `from_base`,
/// `build_prenormalized`, snapshot loading, UCR/CSV loading) with one
/// fluent surface:
///
/// ```
/// use onex_core::engine::ExplorerBuilder;
/// use onex_ts::synth;
///
/// let data = synth::sine_mix(8, 24, 2, 7);
/// let explorer = ExplorerBuilder::new()
///     .st(0.25)
///     .threads(2)
///     .build(&data)
///     .unwrap();
/// assert_eq!(explorer.base().config().st, 0.25);
/// assert_eq!(explorer.epoch(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExplorerBuilder {
    config: OnexConfig,
    prenormalized: bool,
}

impl ExplorerBuilder {
    /// A builder with the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole configuration (targeted setters below override
    /// individual fields afterwards).
    pub fn config(mut self, config: OnexConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the similarity threshold `ST`.
    pub fn st(mut self, st: f64) -> Self {
        self.config.st = st;
        self
    }

    /// Sets the DTW warping window.
    pub fn window(mut self, window: Window) -> Self {
        self.config.window = window;
        self
    }

    /// Sets which subsequences the base covers.
    pub fn decomposition(mut self, decomposition: Decomposition) -> Self {
        self.config.decomposition = decomposition;
        self
    }

    /// Sets the construction worker-thread count (lengths build
    /// independently; results are identical at any thread count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the construction randomization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Declares the input data already normalized into `[0, 1]`: min-max
    /// normalization is skipped and queries are taken verbatim. Default
    /// `false` (data is normalized and the parameters retained for
    /// `OnexBase::normalize_query`).
    pub fn prenormalized(mut self, prenormalized: bool) -> Self {
        self.prenormalized = prenormalized;
        self
    }

    /// Builds the base from a dataset and wraps it at epoch 0.
    pub fn build(&self, dataset: &Dataset) -> Result<Explorer> {
        let base = if self.prenormalized {
            OnexBase::build_prenormalized(dataset.clone(), self.config)?
        } else {
            OnexBase::build(dataset, self.config)?
        };
        Ok(Explorer::from_base(base))
    }

    /// Loads a snapshot (any version) instead of building: the configuration
    /// recorded in the snapshot wins over the builder's knobs (they
    /// configure *construction*, which a snapshot already did), and the
    /// recorded epoch is restored.
    pub fn from_snapshot(&self, path: impl AsRef<Path>) -> Result<Explorer> {
        Explorer::load(path)
    }

    /// Loads a UCR-format text file (one series per line: class label then
    /// samples, comma- or whitespace-separated) and builds from it with the
    /// builder's configuration.
    pub fn from_csv(&self, path: impl AsRef<Path>) -> Result<Explorer> {
        let dataset = onex_ts::ucr::load_ucr_file(path)?;
        self.build(&dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnexError;
    use onex_ts::synth;

    fn explorer() -> Explorer {
        let d = synth::sine_mix(8, 24, 2, 11);
        Explorer::build(&d, OnexConfig::default()).unwrap()
    }

    #[test]
    fn explorer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Explorer>();
        assert_send_sync::<PinnedExplorer>();
        assert_send_sync::<ExplorerBuilder>();
        assert_send_sync::<QueryRequest>();
        assert_send_sync::<QueryResponse>();
    }

    #[test]
    fn admission_control_sheds_at_the_inflight_ceiling() {
        let d = synth::sine_mix(8, 24, 2, 11);
        let config = OnexConfig {
            max_inflight: 2,
            ..OnexConfig::default()
        };
        let e = Explorer::build(&d, config).unwrap();
        let q = e.base().dataset().series()[0].values()[2..14].to_vec();
        // Under the ceiling: admitted normally.
        assert!(e
            .query(QueryRequest::best_match(q.clone(), MatchMode::Any))
            .is_ok());
        // Park two phantom queries on the gauge: the next call is shed with
        // the typed overload error instead of queueing.
        // ordering: Relaxed — test-only gauge manipulation, single thread.
        e.inflight.fetch_add(2, Ordering::Relaxed);
        let err = e
            .query(QueryRequest::best_match(q.clone(), MatchMode::Any))
            .unwrap_err();
        assert_eq!(err, OnexError::Overloaded { max_inflight: 2 });
        assert!(err.to_string().contains("2 queries already in flight"));
        // Pinned sessions bypass admission — a pin is a reservation.
        assert!(e
            .pin()
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .is_ok());
        // Slots free again: admitted, and the shed attempt left no residue.
        // ordering: Relaxed — test-only gauge manipulation, single thread.
        e.inflight.fetch_sub(2, Ordering::Relaxed);
        assert!(e.query(QueryRequest::best_match(q, MatchMode::Any)).is_ok());
        // ordering: Relaxed — test-only gauge read, single thread.
        assert_eq!(e.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn epoch_is_stamped_on_every_class_and_bumped_by_maintenance() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[2..14].to_vec();
        assert_eq!(e.epoch(), 0);
        let resp = e
            .query(QueryRequest::best_match(q.clone(), MatchMode::Any))
            .unwrap();
        assert_eq!(resp.stats.epoch, 0);
        assert_eq!(
            e.query(QueryRequest::seasonal_all(8, 2))
                .unwrap()
                .stats
                .epoch,
            0
        );

        let new_epoch = e.refine_to(0.3).unwrap();
        assert_eq!(new_epoch, 1);
        assert_eq!(e.epoch(), 1);
        assert_eq!(e.base().config().st, 0.3);
        let resp = e
            .query(QueryRequest::best_match(q, MatchMode::Any))
            .unwrap();
        assert_eq!(resp.stats.epoch, 1);

        // Clones share the live slot: a swap through one is visible in the
        // other.
        let clone = e.clone();
        let extra =
            onex_ts::TimeSeries::new((0..12).map(|i| (i as f64 * 0.4).sin()).collect()).unwrap();
        let idx = clone.append_series(extra).unwrap();
        assert_eq!(e.epoch(), 2);
        assert_eq!(e.base().dataset().len(), idx + 1);
    }

    #[test]
    fn append_then_remove_round_trips_through_the_explorer() {
        let e = explorer();
        let before = e.base().stats();
        let extra = onex_ts::TimeSeries::new(vec![
            5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0, 5.0, 0.0,
        ])
        .unwrap();
        let idx = e.append_series(extra).unwrap();
        // The appended series is immediately queryable.
        let base = e.base();
        let q: Vec<f64> = base.dataset().get(idx).unwrap().values()[0..6].to_vec();
        let m = e
            .best_match(&q, MatchMode::Exact(6), QueryOptions::default())
            .unwrap();
        assert_eq!(m.subseq.series as usize, idx);
        // Removing it restores the original coverage.
        let removed = e.remove_series(idx).unwrap();
        assert_eq!(removed.len(), 12);
        assert_eq!(e.base().stats().subsequences, before.subsequences);
        assert_eq!(e.epoch(), 2);
    }

    #[test]
    fn pin_keeps_its_generation_across_swaps() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[2..14].to_vec();
        let pinned = e.pin();
        assert_eq!(pinned.epoch(), 0);
        let before = pinned
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();

        e.refine_to(0.5).unwrap();
        // The pinned handle still answers on the old generation…
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.base().config().st, 0.2);
        let after = pinned
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();
        assert_eq!(before, after);
        assert_eq!(
            pinned
                .query(QueryRequest::best_match(q, MatchMode::Any))
                .unwrap()
                .stats
                .epoch,
            0
        );
        // …while the explorer has moved on.
        assert_eq!(e.epoch(), 1);
        assert_eq!(e.base().config().st, 0.5);
    }

    #[test]
    fn builder_covers_dataset_snapshot_and_csv_paths() {
        let d = synth::sine_mix(6, 16, 2, 13);
        let built = ExplorerBuilder::new()
            .st(0.25)
            .seed(9)
            .threads(2)
            .build(&d)
            .unwrap();
        assert_eq!(built.base().config().st, 0.25);
        assert!(built.base().normalizer().is_some());

        // prenormalized skips min-max
        let pre = ExplorerBuilder::new()
            .prenormalized(true)
            .build(&d)
            .unwrap();
        assert!(pre.base().normalizer().is_none());

        // snapshot round trip through the builder
        let dir = std::env::temp_dir().join(format!("onex_builder_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("builder.onex");
        built.refine_to(0.3).unwrap();
        built.save(&snap).unwrap();
        let reloaded = ExplorerBuilder::new().from_snapshot(&snap).unwrap();
        assert_eq!(reloaded.epoch(), 1, "epoch survives the snapshot");
        assert_eq!(*reloaded.base(), *built.base());

        // CSV (UCR format) ingestion
        let csv = dir.join("builder.csv");
        std::fs::write(
            &csv,
            "1,0.1,0.2,0.3,0.4,0.5,0.6\n2,0.9,0.8,0.7,0.6,0.5,0.4\n",
        )
        .unwrap();
        let from_csv = ExplorerBuilder::new().st(0.3).from_csv(&csv).unwrap();
        assert_eq!(from_csv.base().dataset().len(), 2);
        assert_eq!(from_csv.base().config().st, 0.3);
        assert!(ExplorerBuilder::new()
            .from_csv(dir.join("missing.csv"))
            .is_err());
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn writers_serialize_and_epochs_stay_monotone() {
        let e = explorer();
        std::thread::scope(|s| {
            for t in 0..4 {
                let e = e.clone();
                s.spawn(move || {
                    let extra = onex_ts::TimeSeries::new(
                        (0..12).map(|i| ((i + t) as f64 * 0.3).sin()).collect(),
                    )
                    .unwrap();
                    e.append_series(extra).unwrap();
                });
            }
        });
        assert_eq!(e.epoch(), 4);
        assert_eq!(e.base().dataset().len(), 12);
    }

    #[test]
    fn every_class_populates_stats() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[2..14].to_vec();

        let best = e
            .query(QueryRequest::best_match(q.clone(), MatchMode::Any))
            .unwrap();
        assert!(best.result.best_match().is_some());
        assert!(best.stats.dtw_evals > 0);
        assert!(best.stats.groups_visited > 0);
        assert!(best.stats.lengths_visited > 0);

        let topk = e
            .query(QueryRequest::top_k(q.clone(), MatchMode::Exact(12), 3))
            .unwrap();
        assert!(!topk.result.matches().unwrap().is_empty());
        assert!(topk.stats.members_examined > 0);

        let seasonal = e.query(QueryRequest::seasonal_all(8, 2)).unwrap();
        assert!(seasonal.result.seasonal().is_some());
        assert_eq!(seasonal.stats.dtw_evals, 0, "Class II reads the LSI only");

        let rec = e.query(QueryRequest::recommend(None, None)).unwrap();
        assert_eq!(rec.result.recommendations().unwrap().len(), 3);
    }

    #[test]
    fn oversized_k_and_top_mean_all_and_bad_st_overrides_are_rejected() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[2..14].to_vec();
        let base = e.base();
        let subseqs = base.dataset().subseq_count(&base.config().decomposition);
        let groups = base.store().slabs().iter().map(|s| s.group_count()).max();
        let top = |n| QueryOptions {
            explore_top_groups: Some(n),
            ..QueryOptions::default()
        };
        let opts = QueryOptions::default();
        for mode in [MatchMode::Any, MatchMode::Exact(12)] {
            // A `k` past the subsequence count keeps every candidate.
            assert_eq!(
                e.top_k(&q, mode, usize::MAX, opts).unwrap(),
                e.top_k(&q, mode, subseqs, opts).unwrap()
            );
            // A `top` past the group count descends into every group.
            let all = top(groups.unwrap());
            assert_eq!(
                e.best_match(&q, mode, top(usize::MAX)).unwrap(),
                e.best_match(&q, mode, all).unwrap()
            );
            assert_eq!(
                e.top_k(&q, mode, 5, top(usize::MAX)).unwrap(),
                e.top_k(&q, mode, 5, all).unwrap()
            );
        }
        // The `st` override gets the check `OnexConfig::st` has.
        for st in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let opts = QueryOptions::with_st(st);
            let errs = [
                e.best_match(&q, MatchMode::Any, opts).unwrap_err(),
                e.top_k(&q, MatchMode::Any, 3, opts).unwrap_err(),
                e.within_threshold(&q, MatchMode::Any, true, opts)
                    .unwrap_err(),
            ];
            for err in errs {
                assert!(
                    matches!(err, OnexError::InvalidThreshold(x) if x.to_bits() == st.to_bits()),
                    "st {st}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn batch_preserves_order_and_isolates_errors() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[0..10].to_vec();
        let reqs = vec![
            QueryRequest::best_match(q.clone(), MatchMode::Any),
            QueryRequest::best_match(vec![], MatchMode::Any), // invalid
            QueryRequest::recommend(None, None),
            QueryRequest::best_match(q.clone(), MatchMode::Exact(999)), // unknown length
            QueryRequest::seasonal_all(8, 2),
        ];
        let resp = e
            .query(QueryRequest::Batch {
                requests: reqs,
                threads: 3,
            })
            .unwrap();
        let batch = resp.result.batch().unwrap();
        assert_eq!(batch.len(), 5);
        assert!(batch[0].as_ref().unwrap().result.best_match().is_some());
        assert!(matches!(
            batch[1].as_ref().unwrap_err(),
            OnexError::QueryTooShort { .. }
        ));
        assert!(batch[2]
            .as_ref()
            .unwrap()
            .result
            .recommendations()
            .is_some());
        assert!(matches!(
            batch[3].as_ref().unwrap_err(),
            OnexError::NoGroupsForLength(999)
        ));
        assert!(batch[4].as_ref().unwrap().result.seasonal().is_some());
        // Roll-up covers the successful children.
        assert!(resp.stats.dtw_evals > 0);
    }

    #[test]
    fn batch_parallel_equals_sequential() {
        let e = explorer();
        let mk = |i: usize| {
            let s = i % e.base().dataset().len();
            let vals = e.base().dataset().series()[s].values()[i..i + 10].to_vec();
            QueryRequest::best_match(vals, MatchMode::Any)
        };
        let reqs: Vec<QueryRequest> = (0..8).map(mk).collect();
        let seq = e
            .query(QueryRequest::Batch {
                requests: reqs.clone(),
                threads: 1,
            })
            .unwrap();
        let par = e
            .query(QueryRequest::Batch {
                requests: reqs,
                threads: 4,
            })
            .unwrap();
        let (seq, par) = (seq.result.batch().unwrap(), par.result.batch().unwrap());
        for (s, p) in seq.iter().zip(par) {
            assert_eq!(
                s.as_ref().unwrap().result.best_match().unwrap(),
                p.as_ref().unwrap().result.best_match().unwrap()
            );
        }
    }

    #[test]
    fn empty_batch() {
        let e = explorer();
        let resp = e
            .query(QueryRequest::Batch {
                requests: Vec::new(),
                threads: 4,
            })
            .unwrap();
        assert!(resp.result.batch().unwrap().is_empty());
        assert_eq!(resp.stats.dtw_evals, 0);
    }

    #[test]
    fn thread_count_clamps() {
        // A pool wider than the batch is clamped to it: every child still
        // answers, in request order.
        let e = explorer();
        let queries: Vec<Vec<f64>> = (0..3)
            .map(|i| e.base().dataset().series()[i].values()[i..i + 10].to_vec())
            .collect();
        let resp = e
            .query(QueryRequest::Batch {
                requests: queries
                    .iter()
                    .map(|q| QueryRequest::best_match(q.clone(), MatchMode::Any))
                    .collect(),
                threads: 64,
            })
            .unwrap();
        let children = resp.result.batch().unwrap();
        assert_eq!(children.len(), 3);
        for (q, child) in queries.iter().zip(children) {
            let direct = e
                .best_match(q, MatchMode::Any, QueryOptions::default())
                .unwrap();
            let got = child.as_ref().unwrap().result.best_match().unwrap();
            assert_eq!(*got, direct);
        }
    }

    #[test]
    fn batch_stats_aggregation_rule_is_pinned() {
        // Pins the aggregation contract documented on QueryRequest::Batch:
        // counters are the field-wise sum over successful children in
        // request order, elapsed is the batch's own wall clock, epoch is
        // the pinned epoch, truncated ORs over children.
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[0..10].to_vec();
        let reqs = vec![
            QueryRequest::best_match(q.clone(), MatchMode::Any),
            QueryRequest::best_match(vec![], MatchMode::Any), // fails — contributes nothing
            QueryRequest::top_k(q.clone(), MatchMode::Any, 3),
        ];
        let resp = e
            .query(QueryRequest::Batch {
                requests: reqs,
                threads: 0, // auto pool sizing
            })
            .unwrap();
        let children = resp.result.batch().unwrap();
        assert_eq!(children.len(), 3);
        let mut expected = QueryStats {
            epoch: e.epoch(),
            ..QueryStats::default()
        };
        for child in children.iter().flatten() {
            assert_eq!(
                child.stats.epoch,
                e.epoch(),
                "children share the pinned epoch"
            );
            expected.absorb(&child.stats);
        }
        expected.elapsed = resp.stats.elapsed; // wall clock, never a sum
        assert_eq!(resp.stats, expected);
        assert!(!resp.stats.truncated);
        assert!(resp.stats.dtw_evals > 0);
    }

    #[test]
    fn concurrent_batch_children_run_deterministic_sequential_scans() {
        // A concurrent batch pins each child (without an explicit
        // query_threads) to the sequential scan, so child counters equal a
        // direct sequential query's counters exactly.
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[0..10].to_vec();
        let direct = e
            .query(QueryRequest::BestMatch {
                values: q.clone(),
                mode: MatchMode::Any,
                options: QueryOptions {
                    query_threads: Some(1),
                    ..Default::default()
                },
            })
            .unwrap();
        let reqs: Vec<QueryRequest> = (0..4)
            .map(|_| QueryRequest::best_match(q.clone(), MatchMode::Any))
            .collect();
        let resp = e
            .query(QueryRequest::Batch {
                requests: reqs,
                threads: 4,
            })
            .unwrap();
        for child in resp.result.batch().unwrap() {
            let child = child.as_ref().unwrap();
            assert_eq!(
                child.result.best_match().unwrap(),
                direct.result.best_match().unwrap()
            );
            let mut want = direct.stats;
            want.elapsed = child.stats.elapsed;
            assert_eq!(child.stats, want, "pinned children count like sequential");
        }
    }

    #[test]
    fn window_override_changes_the_metric() {
        let e = explorer();
        let q = e.base().dataset().series()[1].values()[0..12].to_vec();
        let narrow = e
            .best_match(
                &q,
                MatchMode::Exact(12),
                QueryOptions {
                    window: Some(Window::Band(1)),
                    ..Default::default()
                },
            )
            .unwrap();
        let wide = e
            .best_match(
                &q,
                MatchMode::Exact(12),
                QueryOptions {
                    window: Some(Window::Unconstrained),
                    ..Default::default()
                },
            )
            .unwrap();
        // A tighter band can only raise (or keep) the optimal distance.
        assert!(narrow.raw_dtw + 1e-12 >= wide.raw_dtw);
    }

    #[test]
    fn best_match_answers_when_every_dtw_overflows() {
        // A finite query so large that every DTW is +∞ used to make
        // best-match report `EmptyBase` (any length) or
        // `NoGroupsForLength(12)` (a length the base has) while top-k
        // answered. Best-match now answers as top-k does.
        let d = synth::sine_mix(8, 24, 2, 42);
        let e = Explorer::build(&d, OnexConfig::default()).unwrap();
        let q = vec![1e308; 12];
        let opts = QueryOptions::default();
        for mode in [MatchMode::Any, MatchMode::Exact(12)] {
            let best = e.best_match(&q, mode, opts).unwrap();
            let top = e.top_k(&q, mode, 1, opts).unwrap();
            assert_eq!(top.len(), 1, "{mode:?}");
            assert_eq!(best.raw_dtw, f64::INFINITY, "{mode:?}");
            assert_eq!(best.dist, top[0].dist, "{mode:?}");
        }
        let exact = e.best_match(&q, MatchMode::Exact(12), opts).unwrap();
        assert_eq!(exact.subseq.len, 12);
    }

    #[test]
    fn oversized_band_answers_as_unconstrained() {
        // `Band(usize::MAX)` used to overflow `i + r` inside the kernel: a
        // panic in this (debug) build, ∞ for every pair in release.
        let huge = Window::Band(usize::MAX);
        let d = synth::sine_mix(8, 24, 2, 11);
        let built = |window| ExplorerBuilder::new().window(window).build(&d).unwrap();
        let (e_huge, e_unc) = (built(huge), built(Window::Unconstrained));
        let e = explorer();
        let q = e.base().dataset().series()[1].values()[3..15].to_vec();
        let with = |window| QueryOptions {
            window: Some(window),
            query_threads: Some(1),
            ..Default::default()
        };
        let requests = |options: QueryOptions| {
            [
                QueryRequest::BestMatch {
                    values: q.clone(),
                    mode: MatchMode::Any,
                    options,
                },
                QueryRequest::TopK {
                    values: q.clone(),
                    mode: MatchMode::Exact(12),
                    k: 5,
                    options,
                },
                QueryRequest::WithinThreshold {
                    values: q.clone(),
                    mode: MatchMode::Exact(12),
                    verify: true,
                    options,
                },
            ]
        };
        let same = |got: QueryResponse, want: QueryResponse| {
            assert_eq!(format!("{:?}", got.result), format!("{:?}", want.result));
            assert_eq!(
                QueryStats {
                    elapsed: want.stats.elapsed,
                    ..got.stats
                },
                want.stats
            );
        };
        for (a, b) in requests(with(huge))
            .into_iter()
            .zip(requests(with(Window::Unconstrained)))
        {
            same(e.query(a).unwrap(), e.query(b).unwrap());
        }
        for req in requests(QueryOptions {
            query_threads: Some(1),
            ..Default::default()
        }) {
            let got = e_huge.query(req.clone()).unwrap();
            assert!(got.stats.dtw_evals > 0);
            same(got, e_unc.query(req).unwrap());
        }
    }

    #[test]
    fn time_budget_truncates_gracefully() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[0..12].to_vec();
        let resp = e.query(QueryRequest::BestMatch {
            values: q,
            mode: MatchMode::Any,
            options: QueryOptions {
                time_budget: Some(Duration::ZERO),
                ..Default::default()
            },
        });
        // Either nothing was found in zero time (a *budget* error, not a
        // misleading empty-base one) or a truncated best-effort answer came
        // back; never a panic, and stats say so.
        match resp {
            Ok(r) => assert!(r.stats.truncated),
            Err(e) => assert_eq!(e, OnexError::BudgetExhausted),
        }
    }

    #[test]
    fn max_dtw_evals_bounds_work() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[0..12].to_vec();
        let unbounded = e
            .query(QueryRequest::best_match(q.clone(), MatchMode::Any))
            .unwrap();
        let capped = e.query(QueryRequest::BestMatch {
            values: q,
            mode: MatchMode::Any,
            options: QueryOptions {
                max_dtw_evals: Some(3),
                ..Default::default()
            },
        });
        match capped {
            Ok(r) => {
                assert!(r.stats.truncated);
                assert!(r.stats.dtw_evals <= 4, "{:?}", r.stats);
                assert!(r.stats.dtw_evals < unbounded.stats.dtw_evals);
            }
            Err(e) => assert_eq!(e, OnexError::BudgetExhausted),
        }
    }

    #[test]
    fn navigate_drills_into_the_symbolic_index() {
        let e = explorer();
        let len = 12;
        let root = e.navigate(len, &[]).unwrap();
        let total = e.base().slab(len).unwrap().group_count();
        assert_eq!(root.node.level, 0);
        assert_eq!(root.groups.len(), total);
        // Children partition the parent's groups; drilling one level
        // narrows the bucket without losing anyone overall.
        if root.node.child_count > 0 {
            let mut covered = 0;
            for i in 0..root.node.child_count {
                let child = e.navigate(len, &[i]).unwrap();
                assert!(child.node.level > root.node.level);
                covered += child.groups.len();
            }
            assert_eq!(covered, total);
            assert!(e.navigate(len, &[root.node.child_count]).is_none());
        }
        // Unindexed lengths and paths off the hierarchy return None.
        assert!(e.navigate(999, &[]).is_none());
        assert!(e.navigate(len, &[usize::MAX]).is_none());
        // The view is owned: still valid after a maintenance hot-swap.
        e.refine_to(0.3).unwrap();
        assert_eq!(root.groups.len(), total);
    }

    #[test]
    fn symindex_counters_flow_through_engine_stats() {
        let d = synth::face(24, 32, 5);
        let e = Explorer::build(&d, OnexConfig::default()).unwrap();
        let q = e.base().dataset().series()[0].values()[4..24].to_vec();
        let on = e
            .query(QueryRequest::WithinThreshold {
                values: q.clone(),
                mode: MatchMode::Exact(20),
                verify: true,
                options: QueryOptions::default(),
            })
            .unwrap();
        assert!(on.stats.index_probes > 0, "{:?}", on.stats);
        let off = e
            .query(QueryRequest::WithinThreshold {
                values: q,
                mode: MatchMode::Exact(20),
                verify: true,
                options: QueryOptions {
                    symindex: false,
                    ..Default::default()
                },
            })
            .unwrap();
        assert_eq!(off.stats.index_probes, 0);
        assert_eq!(off.stats.index_fallbacks, 0);
        assert_eq!(off.stats.groups_skipped_by_index, 0);
        // Index on or off, the answers and cascade counters agree.
        assert_eq!(on.result.matches().unwrap(), off.result.matches().unwrap());
        assert_eq!(on.stats.dtw_evals, off.stats.dtw_evals);
        assert_eq!(on.stats.lb_prunes, off.stats.lb_prunes);
        assert_eq!(on.stats.pruned_paa, off.stats.pruned_paa);
    }

    #[test]
    fn shared_across_threads() {
        let e = explorer();
        let q = e.base().dataset().series()[0].values()[2..14].to_vec();
        let expected = e
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let got = e
                        .best_match(&q, MatchMode::Any, QueryOptions::default())
                        .unwrap();
                    assert_eq!(got, expected);
                });
            }
        });
    }
}
