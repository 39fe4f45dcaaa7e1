//! # ONEX — Online Exploration of Time Series
//!
//! A Rust reproduction of *"Interactive Time Series Exploration Powered by
//! the Marriage of Similarity Distances"* (Neamtu et al., VLDB 2016).
//!
//! ONEX answers **time-warped similarity queries interactively** by pairing
//! two distances: the cheap Euclidean distance clusters all subsequences of
//! a dataset into compact *similarity groups* offline, and the robust (but
//! expensive) Dynamic Time Warping distance then explores only the group
//! **representatives** online. A proven ED↔DTW triangle inequality
//! guarantees that what holds for a representative extends to its group.
//!
//! ## Quick start
//!
//! All three of the paper's query classes are answered by one engine, the
//! [`Explorer`]: build a base once, then issue typed requests from any
//! number of threads.
//!
//! ```
//! use onex::{Explorer, MatchMode, OnexConfig, QueryOptions, QueryRequest};
//! use onex::ts::synth;
//!
//! // A dataset (here: synthetic; see `onex::ts::ucr` for UCR archive files).
//! let data = synth::sine_mix(20, 32, 2, 42);
//!
//! // One-time preprocessing: build the ONEX base (normalizes + clusters)
//! // and wrap it in the thread-safe engine.
//! let explorer = Explorer::build(&data, OnexConfig::default()).unwrap();
//!
//! // Class I: best time-warped match for a sample sequence.
//! let query = explorer.base().dataset().series()[0].values()[4..20].to_vec();
//! let resp = explorer
//!     .query(QueryRequest::best_match(query.clone(), MatchMode::Any))
//!     .unwrap();
//! let best = resp.result.best_match().unwrap();
//! println!(
//!     "best match: {:?} at normalized DTW {:.4}  ({} DTW evals, {:?})",
//!     best.subseq, best.dist, resp.stats.dtw_evals, resp.stats.elapsed
//! );
//! assert!(best.dist < 0.05);
//!
//! // Class II: recurring (seasonal) patterns of length 16.
//! let seasonal = explorer.seasonal_all(16, 2).unwrap();
//! assert!(!seasonal.is_empty());
//!
//! // Class III: what "strict / medium / loose" similarity means here.
//! let ranges = explorer.recommend(None, None).unwrap();
//! assert_eq!(ranges.len(), 3);
//!
//! // Typed convenience methods skip the request enum when you want the
//! // payload directly; options carry per-query budgets and overrides.
//! let top = explorer
//!     .top_k(&query, MatchMode::Exact(16), 3, QueryOptions::default())
//!     .unwrap();
//! assert!(top.len() <= 3);
//! ```
//!
//! The explorer is `Send + Sync`: share one instance (or cheap clones of
//! it) across threads, no locking required. Per-query [`QueryOptions`]
//! carry a warping-window override, a wall-clock budget, a DTW-evaluation
//! cap, and pruning toggles; every [`QueryResponse`] reports uniform
//! [`QueryStats`], including the **epoch** of the base generation that
//! answered.
//!
//! ## Lifecycle: build → serve → mutate → persist
//!
//! The explorer owns the whole dataset lifecycle. Construction goes
//! through [`ExplorerBuilder`] (from a dataset, a snapshot file, or a
//! UCR/CSV file); the base then evolves *while serving*:
//!
//! ```
//! use onex::{ExplorerBuilder, MatchMode, QueryOptions, TimeSeries};
//! use onex::ts::synth;
//!
//! let data = synth::sine_mix(12, 24, 2, 42);
//! let explorer = ExplorerBuilder::new().st(0.2).threads(2).build(&data).unwrap();
//!
//! // Live maintenance: the successor base is built off-line and atomically
//! // hot-swapped — queries in flight finish on the generation they pinned.
//! let novel = TimeSeries::new((0..24).map(|i| (i as f64 * 0.5).sin()).collect()).unwrap();
//! let idx = explorer.append_series(novel).unwrap();      // epoch 0 → 1
//! explorer.refine_to(0.3).unwrap();                      // epoch 1 → 2
//! assert_eq!(explorer.epoch(), 2);
//!
//! // A pinned session keeps one generation for multi-query consistency.
//! let session = explorer.pin();
//! explorer.remove_series(idx).unwrap();                  // epoch 2 → 3
//! assert_eq!(session.epoch(), 2);                        // unaffected
//! assert_eq!(explorer.epoch(), 3);
//!
//! // Persistence: checksummed snapshot v5 carrying the epoch.
//! let path = std::env::temp_dir().join(format!("onex-doc-lifecycle-{}.onex", std::process::id()));
//! explorer.save(&path).unwrap();
//! let reloaded = onex::Explorer::load(&path).unwrap();
//! assert_eq!(reloaded.epoch(), 3);
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! ## Architecture: the columnar group store
//!
//! The base's groups live in a **struct-of-arrays** store
//! ([`core::store::GroupStore`]): one [`core::store::LengthSlab`] per
//! indexed length, holding
//!
//! * every representative of that length packed **row-major in one
//!   contiguous `Vec<f64>`** (stride = the length),
//! * the LB_Keogh envelope lower/upper planes in two parallel slabs,
//! * the running point-wise member sums in another,
//! * **PAA sketch planes** (width `w = min(paa_width, len)`, default 16 —
//!   see below): every representative's sketch, the representative
//!   envelopes reduced conservatively per segment, and one flat
//!   member-sketch plane per group, index-aligned with the member list,
//! * **symbolic word planes** (SAX words over the sketch planes, alphabet
//!   [`OnexConfig::sax_alphabet`], default 4): one packed word per
//!   representative and per member, feeding the symbolic index below,
//! * and per-group metadata (ED-sorted member lists, envelope radii,
//!   finalized flags) in parallel arrays indexed by local position.
//!
//! The query hot path — the per-length representative scan and the
//! sketch/envelope tiers of the lower-bound cascade — therefore walks
//! linear, cache-resident memory instead of chasing a heap pointer per
//! group, and the whole store costs a handful of allocations per *length*
//! rather than ~5 per *group*. The scan loops themselves run through the
//! blocked, autovectorization-friendly kernels of `onex_dist::kernels`.
//! [`core::Group`] survives as a two-word view over one slab row;
//! construction, refinement and maintenance mutate the slabs — sketch
//! planes included, incrementally, never by recompute — in place. The
//! footprint is observable: [`Explorer::footprint`] (and `base().stats()`)
//! report per-length slab bytes, sketch bytes, member bytes and
//! allocation counts, and the `interactive_cli` example prints them via
//! its `mem` command.
//!
//! The `paa_width` knob ([`OnexConfig::paa_width`]) is **accuracy-
//! neutral**: every sketch test is a proven lower bound applied with a
//! strictly-greater prune, so any width returns byte-identical results —
//! it only trades sketch memory against how much O(len) tier work the
//! O(w) tier skips.
//!
//! On top of the word planes sits the **symbolic word index**
//! ([`core::SymIndex`], one per length): representatives and members are
//! discretized into SAX words over Gaussian breakpoints, bucketed in an
//! inverted map, and organized into an iSAX-style coarse-to-fine prefix
//! hierarchy (browsable via [`Explorer::navigate`]). At query time the
//! index probes each bucket with an exact per-bucket tier-0 bound; buckets
//! it can *certify* as hopeless are skipped before the per-representative
//! scan even starts, and whenever coverage cannot be certified the engine
//! falls back to the full slab scan. The contract is **"index proposes,
//! cascade disposes"**: the index only ever narrows which candidates the
//! exact cascade examines, never what it decides, so results stay
//! byte-identical with the index on or off. It is maintained
//! incrementally through append/remove/refine and verified against a
//! from-scratch rebuild by the lifecycle tests.
//!
//! **A departure from §4.3: the GTI stores no `Dc`.** The paper's Global
//! Time Index keeps, per length, the dense rep × rep matrix of
//! Inter-Representative Distances `Dc` (Def. 10), and §5.3 visits a
//! length's representatives median-out by their `Dc` row sums. This engine
//! keeps neither. Every representative scan walks the length's slab in
//! order, and the critical thresholds of the SP-Space (§4.2), the one
//! remaining reader of `Dc`, are computed on the first
//! [`OnexBase::sp_space`](core::OnexBase::sp_space) read with each entry
//! taken on the fly ([`core::index`]). On the benchmark's sparse-twopat
//! workload (68 k subsequences in 22 k groups) the matrices took 112.5 MB,
//! 2.2× the whole group store, and a load built them twice. Slab order
//! gives every answer of the answer golden unchanged and lowered
//! `dtw_evals` in all 18 best-match and top-k cells of the work golden
//! that use lower bounds: ItalyPower best-match 168 → 158, ECG best-match
//! 316 → 264, ECG top-10 1,504 → 1,452, NearDuplicates best-match
//! 229 → 212. `repro table4` prints the bytes the paper's matrix would
//! take (Σ g² · 8 over lengths) next to the base's own footprint, so its
//! MB column still compares with the paper's index sizes.
//!
//! ## Snapshot versions
//!
//! Snapshots are hand-rolled little-endian binary (module
//! [`core::snapshot`]); indexes and envelopes are rebuilt on load. Five
//! versions exist on disk:
//!
//! | version | layout | integrity | written by | read by |
//! |---------|--------|-----------|------------|---------|
//! | v1 | per-group records | structural checks only | `snapshot::encode_v1` (compat tests / downgrade feeds) | every revision |
//! | v2 | per-group records + epoch | CRC-32 footer | `snapshot::encode_v2_with_epoch` (downgrade feeds; was the default before the columnar store) | every revision since the columnar store |
//! | v3 | **columnar**: per length, member counts / radii / member entries as bulk arrays, then the rep and sum slabs as contiguous `f64` blocks, + epoch | CRC-32 footer | `snapshot::encode_v3_with_epoch` (downgrade feeds; was the default before the sketch planes) | this revision and the previous one |
//! | v4 | v3 + the **PAA sketch planes** as bulk blocks per length (sketch width, rep sketch slab, PAA'd envelope lo/hi slabs, flat member-sketch planes) and the `paa_width` knob in the config header | CRC-32 footer | `snapshot::encode_v4_with_epoch` (downgrade feeds; was the default before the word planes) | this revision and the previous one |
//! | v5 | v4 + the **symbolic word planes** as bulk blocks per length (rep word slab, flat member-word planes) and the `sax_alphabet` knob in the config header | CRC-32 footer | [`Explorer::save`] and `snapshot::encode` (the default) | this revision |
//!
//! Both load paths ([`Explorer::load`],
//! [`ExplorerBuilder::from_snapshot`]) accept any version; loading v1–v4 recomputes the missing sketch and/or word
//! planes from the decoded groups (bit-identical to the
//! incrementally-maintained ones);
//! corrupt v2+ files (truncation, bit rot) are rejected as
//! [`OnexError::SnapshotCorrupt`] before any structural parsing, and so
//! is a checksum-valid file whose config fails [`OnexConfig::validate`]
//! (a zero stride, a non-finite or non-positive threshold).
//!
//! ## Threading model
//!
//! The engine layers three independent kinds of parallelism over one
//! invariant — **results are byte-identical at any thread count**:
//!
//! * **Serving.** [`Explorer`] is `Send + Sync` and answers from
//!   `&self`. Each query begins by *pinning* the current generation:
//!   one brief lock clones the `(Arc<base>, epoch)` pair, after which
//!   the entire scan reads immutable columnar data with no further
//!   synchronization — maintenance hot-swaps ([`Explorer::append_series`],
//!   [`Explorer::refine_to`], …) build a successor base off-line and swap
//!   the slot, so queries in flight simply finish on the generation they
//!   pinned. Every [`QueryStats`] reports which epoch answered.
//! * **Batch fan-out.** [`QueryRequest::Batch`] schedules whole queries
//!   over a bounded work-stealing pool (`threads: 0` sizes it to the
//!   machine) against one pinned epoch. Children of a concurrent batch
//!   default to sequential intra-query scans — batch parallelism
//!   *replaces* intra-query parallelism rather than multiplying it — and
//!   the aggregate stats follow a pinned rule: counters are field-wise
//!   sums in request order, `elapsed` is the batch's wall clock, and
//!   `truncated` ORs over children.
//! * **Intra-query striping.** [`OnexConfig::query_threads`] (or the
//!   per-query [`QueryOptions`] override; `ONEX_QUERY_THREADS` and the
//!   machine's parallelism fill in the `0 = auto` default) fans the
//!   per-length group and member scans of a *single* query across scoped
//!   workers. Worker `w` owns stripe positions `w, w+W, w+2W, …` of the
//!   deterministic scan order, carries its own scratch context, and
//!   shares only a **monotone-decreasing cutoff** — an `AtomicU64` over
//!   non-negative `f64` bits, lowered exclusively to exact DTW values via
//!   `fetch_min`.
//!
//! The soundness argument for the shared cutoff is short: every prune in
//! the cascade tests *strictly greater than* the cutoff, and the cutoff
//! is at every instant an upper bound on the final k-th-best key — so a
//! worker reading a stale (larger) value prunes *less*, never more, and
//! no candidate belonging to the answer can be discarded under any
//! scheduling. Survivors carry exact DTW values (early abandonment never
//! returns an approximation), and per-worker finalists merge by
//! `(distance, deterministic scan rank)` — never arrival order — which
//! reproduces the sequential result bit for bit. Queries carrying an
//! anytime budget (`time_budget` / `max_dtw_evals`) always run the
//! sequential path, keeping their truncation point deterministic too.
//! Only the *work counters* are scheduling-dependent above one worker
//! (each worker's tier counts depend on how fast the cutoff tightened);
//! they are summed per worker — never shared — so the totals stay exactly
//! conserved, and the fixed-cutoff range scan's counters equal the
//! sequential scan's exactly. The equivalence suite pins all of this at
//! `query_threads ∈ {1, 2, 4, 8}`, and CI runs the whole test suite under
//! `ONEX_QUERY_THREADS=1` and `=4`.
//!
//! ## Failure model & durability
//!
//! The engine's robustness contract has two halves — nothing on disk is
//! ever half-applied, and nothing at runtime fails wider than one query:
//!
//! * **Durability.** [`Explorer::save`] writes snapshots atomically
//!   (temp file → fsync → rename → directory fsync), so a crash mid-save
//!   leaves the previous snapshot intact, never a torn file. Between
//!   snapshots, an attached **write-ahead log**
//!   ([`Explorer::attach_wal`], module [`core::wal`]) journals every
//!   maintenance op (append / remove / refine) as a CRC-framed record
//!   and fsyncs *before* the epoch hot-swap: an op either fails before
//!   it is visible or survives a crash. [`Explorer::load`] replays the
//!   sidecar journal on top of the snapshot — a torn final record
//!   (crash mid-append) is dropped with a warning, never fatal; damage
//!   anywhere else is rejected as [`core::OnexError::SnapshotCorrupt`];
//!   every recovered base must pass the deep invariant validator before
//!   it serves. Saving checkpoints the journal back to empty, and
//!   replay is idempotent (records at or below the snapshot's epoch are
//!   skipped), so a crash at any point of the save-then-reset sequence
//!   recovers exactly. Snapshot footers and WAL frames share one CRC-32
//!   (IEEE polynomial, slicing-by-16 in safe code, ≈ 1.9 GB/s on a
//!   2-vCPU x86-64 Xeon); it computes the same value as the bytewise loop
//!   earlier revisions ran, so files of every version keep their bytes.
//! * **Isolation & degradation.** A panic in an intra-query worker is
//!   contained: the scan discards all partial state, re-runs
//!   sequentially, returns the byte-identical answer, and raises the
//!   [`QueryStats::degraded`] flag (the answer is still exact — only
//!   the parallel fast path was lost). Under overload, admission
//!   control (`max_inflight`) sheds excess queries immediately with a
//!   typed [`OnexError::Overloaded`] instead of queueing unboundedly,
//!   and per-query deadlines (`time_budget`) bound tail latency with a
//!   deterministic truncation point.
//! * **Chaos coverage.** Module [`core::fault`] registers a named fault
//!   point at every one of these boundaries (snapshot write, WAL
//!   append, worker spawn, hot-swap), armed deterministically via the
//!   `ONEX_FAULTS` environment variable (e.g.
//!   `ONEX_FAULTS="seed=7,wal-append@2:torn"`) or programmatically —
//!   zero-cost when unset. `repro chaos --seed 7` drives every point
//!   through crash-and-recover and asserts validated, byte-identical
//!   recovery; CI runs it under a debug-assertions build next to the
//!   seeded crash-recovery test suite.
//!
//! The serving-robustness knobs in one place:
//!
//! | knob | where | default | effect |
//! |------|-------|---------|--------|
//! | `max_inflight` | [`OnexConfig`] | 0 (off) | shed queries beyond N in flight with [`OnexError::Overloaded`] |
//! | `time_budget` | [`QueryOptions`] | none | wall-clock deadline; truncates deterministically, sets `stats.truncated` |
//! | `max_dtw_evals` | [`QueryOptions`] | none | work-budget twin of `time_budget` |
//! | `query_threads` | [`OnexConfig`] / [`QueryOptions`] | 0 (auto) | intra-query workers; panic in one degrades to sequential, sets `stats.degraded` |
//! | `ONEX_FAULTS` | environment | unset | arm deterministic fault injection (chaos harness) |
//!
//! `ONEX_FAULTS` and `ONEX_QUERY_THREADS` are hardened against
//! operational typos: a malformed value logs a warning and falls back to
//! the safe default (disabled / auto) rather than half-applying.
//!
//! ## Performance
//!
//! The Class I hot path runs **every** DTW candidate — representative
//! *and* group member, across best-match, top-k, and verified range
//! queries — through a cascaded lower-bound pipeline (the UCR-suite
//! cascade the paper adopts in §5.3, applied engine-wide, fronted by a
//! dimensionality-reduced sketch tier). In front of the cascade, the
//! symbolic word index (see above) skips whole certified-hopeless word
//! buckets before the per-representative scan begins:
//!
//! | tier | bound | cost | prune counter |
//! |------|-------|------|---------------|
//! | 0 | **PAA sketch** — the candidate's precomputed sketch against the query's PAA'd envelope; for representatives additionally the query's sketch against the stored PAA'd envelope (`lb_paa_env_sq ≤ LB_Keogh² ≤ banded DTW²`); skipped at the degenerate `w == len`, guard-banded against ulp-level cutoff ties | O(w) | `pruned_paa` |
//! | 1 | **LB_Kim** — first/last cells, valid for any pair of lengths | O(1) | `pruned_kim` |
//! | 2 | **Query-envelope LB_Keogh** — the candidate against the query's envelope, squared space, contribution-ordered early abandoning; envelope, order, sketch and PAA'd envelope built lazily once per `(query, resolved band radius)` | O(n) | `pruned_keogh_eq` |
//! | 3 | **Candidate-envelope LB_Keogh** — the query against the stored representative envelope, where one exists | O(n) | `pruned_keogh_ec` |
//! | 4 | **Early-abandoned DTW**, seeded with the query-envelope suffix bound so hopeless evaluations stop mid-matrix | O(n·r) | — (`early_abandons`) |
//!
//! Every prune tests strictly-greater against the running cutoff, so
//! answers are byte-identical with the pipeline on or off — proven by
//! equivalence tests and property tests over random bases (including the
//! tier-0 ≤ LB_Keogh ≤ banded-DTW soundness chain in `onex-dist`); only
//! the work changes. Two [`QueryOptions`] knobs expose the ablation
//! points: `lb_pruning: false` disables every lower bound, and
//! `cascade: false` keeps only the pre-cascade representative-level
//! check (a third, `symindex: false`, turns the word-index front-end
//! off). Each [`QueryStats`] reports what the pipeline did: `dtw_evals`,
//! the per-tier kills (`pruned_paa`, `pruned_kim`, `pruned_keogh_eq`,
//! `pruned_keogh_ec`), `early_abandons`, `members_lb_pruned`,
//! `lb_keogh_evals`, and the index front-end counters (`index_probes`,
//! `index_candidates`, `index_fallbacks`, `groups_skipped_by_index`). The
//! same sketch bound accelerates the *offline* side: the construction
//! assigner prefilters its ED scan with `lb_paa_sq` against a live
//! mean-sketch slab.
//!
//! Tier 4 is one rolling-row kernel ([`dist::DtwBuffer`]) shared by the
//! engine and the baselines: rows live in *band coordinates* — `2r+1`
//! cells whatever the candidate length, neighbours at fixed offsets, `∞`
//! padding instead of corner branches, one `minsd` per minimum — and each
//! thread keeps its whole search context, so neither setting up a query
//! nor evaluating a candidate allocates. It is bit-identical to the
//! textbook formulation (the `onex-dist` crate docs say why, a
//! differential property test pins it), so every counter below is
//! unchanged by it.
//!
//! **Work** is an exact tier-1 contract: the `onex-bench` test
//! `work_counters.rs` runs the §6.2 query mix (best-match exact and
//! any-length, top-10, verified range) under the full cascade, the
//! representative-only bound and no bounds on three synthetic datasets,
//! with `query_threads: 1` so the counters are machine-independent, and
//! compares every [`QueryStats`] counter, one per line, with the checked-in
//! `crates/onex-bench/tests/work_counters.txt`. "Same work" is that test
//! passing; a change that moves work on purpose re-blesses the file with
//! the command the failing test prints,
//!
//! ```sh
//! cp target/tmp/work_counters.actual crates/onex-bench/tests/work_counters.txt
//! ```
//!
//! and the move is a reviewable text diff. **Answers** are the same kind of
//! contract: its sibling `answers.rs` writes, for the same queries under
//! default options, every best-match and top-k answer (subsequence, group
//! and the bits of both distances), each range answer's count and set hash,
//! and the bits of every SP-Space threshold, into `answers.txt`.
//!
//! **Wall-clock** is the repo benchmark's: `BENCHMARK.json` declares the
//! command, three workloads (a 1.24 M-subsequence base, a 22 k-group
//! base, the paper's ItalyPower shape), eleven end-to-end metrics —
//! build, best-match p50/p95, top-k, range, accuracy, save, load, append,
//! snapshot bytes, peak RSS — with the bound each may worsen by, and
//! 74 per-layer metrics; `benchmark/README.md` documents the
//! timing rule, the checks behind `failed_ops`, and the first readings.
//! Every latency, throughput or memory statement about this engine
//! quotes those names, measured on parent and change with that package:
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml               # all workloads
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --trace    # per-layer run
//! ```
//!
//! ## Correctness tooling
//!
//! Two audit layers guard the invariants the result-equivalence story
//! rests on — one static, one at runtime:
//!
//! **Static: the compiler's lint set.** `cargo clippy --all-targets --
//! -D warnings` (a CI step) enforces the source rules, each where the
//! compiler sees it:
//!
//! | rule | enforced by |
//! |------|-------------|
//! | no panics in library code | `#![cfg_attr(not(test), deny(clippy::{unwrap_used, expect_used, panic, todo, unimplemented, unreachable}))]` in the `lib.rs` of `onex-core`, `onex-dist` and `onex-ts` |
//! | ordered containers only | root `clippy.toml` `disallowed-types`: `std::collections::HashMap` and `HashSet` |
//! | f64 end to end | `clippy::float_cmp` in the same deny list; `f32` in `disallowed-types` |
//! | no `unsafe` | `#![forbid(unsafe_code)]` in every library crate and this facade |
//! | no stdout/stderr from libraries | `clippy::{print_stdout, print_stderr}` in the same deny list, plus `onex-baselines` |
//! | every waiver justified | `#[expect(<lint>, reason = "…")]` at the waived site; `clippy::allow_attributes_without_reason` makes every `#[allow]` state its reason too |
//! | every I/O error names its path | a type: [`OnexError::Io`] holds a [`core::IoError`], whose only constructor takes the path |
//! | every counter summed, named and recorded | a type: the counter block — one macro emits [`QueryStats`], its names, its roll-up and the iterator the golden work file is written from |
//!
//! Two conventions are checked in review, not by a tool: every atomic
//! `Ordering::` use carries an `// ordering:` comment saying why that
//! ordering suffices, and every symbolic-index skip carries a `// sound:`
//! argument for why dropping the candidate cannot change results.
//!
//! **Runtime: the deep invariant validator.**
//! [`OnexBase::validate_invariants`](core::OnexBase::validate_invariants)
//! audits a live base bottom-up: slab strides and plane lengths, member
//! references resolving in the dataset, running sums against
//! re-accumulation, and — bit-exactly — frozen representatives
//! (`rep = sum · (1/n)`), member ED order, envelope planes, every PAA
//! sketch, the group-id directory, the symbolic index, and the membership
//! partition against the decomposition.
//! It runs automatically after every snapshot decode (a CRC-valid but
//! logically corrupt file is rejected as
//! [`OnexError::SnapshotCorrupt`]), after every maintenance hot-swap in
//! debug builds, after every step of the randomized lifecycle property
//! test, and across all evaluation datasets via:
//!
//! ```sh
//! cargo run -p onex-bench --release --bin repro -- audit
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`ts`] | time-series substrate: datasets, subsequences, normalization, UCR loader, synthetic generators |
//! | [`dist`] | distance kernels: ED, DTW, LB_Kim/LB_Keogh, PAA/PDTW, LCSS, ERP, Lp |
//! | [`core`] | the ONEX base, the `Explorer` engine, indexes, refinement, maintenance, classification, snapshots |
//! | [`baselines`] | Standard DTW, PAA search, Trillion (UCR suite), SPRING |
//!
//! The most common types are re-exported at the crate root. The `repro`
//! binary in `onex-bench` regenerates every table and figure of the paper's
//! evaluation, printing the paper's reference values next to the measured
//! ones.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub use onex_baselines as baselines;
pub use onex_core as core;
pub use onex_dist as dist;
pub use onex_ts as ts;

pub use onex_baselines::{BaselineMatch, BruteForce, PaaSearch, Spring, Trillion};
pub use onex_core::{
    BuildMode, Explorer, ExplorerBuilder, Match, MatchMode, OnexBase, OnexConfig, OnexError,
    PinnedExplorer, QueryOptions, QueryRequest, QueryResponse, QueryResult, QueryStats,
    SeasonalScope, SimilarityDegree, SpSpace, ThresholdRange,
};
pub use onex_dist::Window;
pub use onex_ts::{Dataset, Decomposition, SubseqRef, TimeSeries, TsError};
