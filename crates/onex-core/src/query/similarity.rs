//! Class I similarity queries (Algorithm 2.A): given a sample sequence,
//! return the most similar subsequence(s) in the dataset — exact-length or
//! any-length — by exploring the R-Space instead of the raw data.
//!
//! The three-step process of §5.2: (1) GTI lookup of the candidate lengths,
//! (2) best-matching-representative search over each length's groups (DTW
//! against representatives only, with LB pruning and early abandoning, in
//! median-sum order), (3) best-match search *inside* the selected group,
//! walking the ED-sorted member list outward from the predicted position.
//!
//! The search core is a set of free functions over [`SearchParams`] (what
//! to do) and a [`SearchCtx`] (per-call scratch: the DTW buffer, the
//! query-side envelope state and the instrumentation counters). Nothing is
//! borrowed mutably from the base, so any number of threads can search one
//! base concurrently, each with its own context — this is what
//! [`crate::engine::Explorer`] builds on.
//!
//! ## The cascaded lower-bound pipeline
//!
//! Every DTW candidate — representative *and* group member — runs through
//! [`cascade_eval`], the UCR-suite filter cascade ported from the trillion
//! baseline, fronted by a dimensionality-reduced **sketch tier**:
//! (0) the O(w) PAA sketch bound, where the sketch genuinely reduces
//! (`w < len`): the candidate's precomputed sketch (member or
//! representative) against the PAA'd envelope of the query, plus, for a
//! representative, the query's sketch against the representative's
//! *stored* PAA'd envelope (each
//! `lb_paa_env_sq ≤ LB_Keogh² ≤ banded DTW²`); then (1) O(1) LB_Kim,
//! (2) LB_Keogh of the
//! candidate against the *query's* envelope in squared space with
//! contribution-ordered early abandoning, (3) LB_Keogh of the query
//! against the *candidate's* stored envelope where one exists (group
//! representatives), (4) early-abandoned DTW seeded with the
//! query-envelope suffix bound. The query's envelope, contribution order,
//! PAA sketch and PAA'd envelope are built lazily once per `(query,
//! resolved radius)` in a [`SearchCtx`]-owned cache, so the per-candidate
//! cost of tier 0 is O(w), of tiers 2 and 4 O(n), all with zero
//! allocation. Tiers 0 and 2–4 require equal lengths (LB_Keogh is
//! undefined otherwise) and only fire when the running cutoff is finite;
//! every prune uses a strictly-greater test (tier 0 additionally
//! guard-banded by [`PAA_TIER0_MARGIN`]), so a pruned candidate can never
//! be (or tie into) the true answer — the cascade changes work done,
//! never results.

use super::par::{fan_stripes, plan_workers, SharedCutoff, SharedTopK};
use super::validate_query;

/// Guard band for the tier-0 sketch prune, mirroring the construction
/// assigner's `PAA_PREFILTER_MARGIN`: the sketch bound is computed with a
/// different floating-point association (blocked weighted sum) than the
/// DTW-family values the cutoff comes from, so where its mathematical
/// slack is small an exact-tie candidate could be overshot by a few ulps.
/// Pruning only beyond `cutoff² × (1 + margin)` makes the tier provably
/// conservative — accumulated rounding is ~n·ε ≈ 1e-13 — while giving up
/// only boundary-noise prunes.
const PAA_TIER0_MARGIN: f64 = 1e-9;
use crate::index::LengthIndex;
use crate::store::LengthSlab;
use crate::symindex::SymIndex;
use crate::{GroupId, OnexBase, OnexConfig, OnexError, QueryStats, Result};
use onex_dist::{
    lb_keogh, lb_keogh_cumulative_into, lb_keogh_sq_abandon, lb_kim_fl, lb_paa_env_sq,
    paa_envelope_into, paa_into, paa_segment_weights_into, DtwBuffer, Envelope, EnvelopeRef,
    EnvelopeScratch, Window,
};
use onex_ts::SubseqRef;
use std::time::Instant;

/// Which lengths a similarity query searches (the paper's `MATCH` clause).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMode {
    /// `MATCH = Exact(L)`: only subsequences of length `L`.
    Exact(usize),
    /// `MATCH = Any`: all decomposed lengths, ranked by normalized DTW.
    Any,
}

/// A retrieved match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The matched subsequence.
    pub subseq: SubseqRef,
    /// Normalized DTW `DTW/2n` (Def. 6) between query and match — the
    /// cross-length-comparable score.
    pub dist: f64,
    /// Raw DTW between query and match.
    pub raw_dtw: f64,
    /// The group the match came from.
    pub group: GroupId,
    /// Normalized DTW between the query and that group's representative.
    pub rep_dist: f64,
}

/// Everything that *configures* one search: the base's build-time knobs,
/// optionally overridden per query by [`crate::engine::QueryOptions`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SearchParams {
    /// Similarity threshold for the qualifying-representative test.
    pub st: f64,
    /// DTW warping window.
    pub window: Window,
    /// Apply lower-bound pruning (the master switch): `false` disables
    /// every LB tier and evaluates candidates with plain early-abandoned
    /// DTW — the reference for the equivalence tests and ablations.
    pub lb_pruning: bool,
    /// Apply the full per-candidate cascade (query-envelope LB_Keogh with
    /// contribution-ordered abandoning, squared-space candidate-envelope
    /// LB_Keogh, suffix-seeded DTW abandoning) on top of `lb_pruning`.
    /// `false` falls back to LB_Kim plus the plain representative-envelope
    /// check only. Ignored when `lb_pruning` is off.
    pub cascade: bool,
    /// Sketch width of the base's stored PAA planes (the cascade's tier-0
    /// stride; resolved per length as `min(paa_width, len)`).
    pub paa_width: usize,
    /// Consult the per-length symbolic word index for certified group
    /// skips ahead of the rep scan. The index only proposes: every skip
    /// is certified equivalent to a tier-0 prune, so results — and the
    /// cascade counters — are identical with the toggle off; only the
    /// `index_*` counters and work done change.
    pub symindex: bool,
    /// Absolute deadline; the search returns its best-so-far once passed.
    pub deadline: Option<Instant>,
    /// Cap on total DTW evaluations (representatives + members).
    pub max_dtw_evals: Option<usize>,
    /// How many best-matching groups to descend into per length.
    pub explore_top_groups: usize,
    /// Intra-group walk patience (consecutive non-improving probes).
    pub walk_patience: usize,
    /// Evaluate every member of the selected group.
    pub exhaustive_group_search: bool,
    /// Stop the any-length search at the first qualifying representative.
    pub stop_at_first_qualifying: bool,
    /// Rank any-length candidates by normalized (vs raw) DTW.
    pub rank_normalized: bool,
    /// Resolved intra-query worker count (≥ 1) for the striped per-length
    /// scans; `1` is the exact sequential path. Accuracy-neutral — see
    /// [`crate::query::par`] for the soundness argument.
    pub query_threads: usize,
}

impl SearchParams {
    /// Parameters exactly matching the base's build-time configuration,
    /// with an optional `st` override.
    pub fn from_config(config: &OnexConfig, st: Option<f64>) -> Self {
        SearchParams {
            st: st.unwrap_or(config.st),
            window: config.window,
            lb_pruning: true,
            cascade: true,
            paa_width: config.paa_width,
            symindex: true,
            deadline: None,
            max_dtw_evals: None,
            explore_top_groups: config.explore_top_groups,
            walk_patience: config.walk_patience,
            exhaustive_group_search: config.exhaustive_group_search,
            stop_at_first_qualifying: config.stop_at_first_qualifying,
            rank_normalized: config.rank_normalized,
            query_threads: config.resolved_query_threads(),
        }
    }

    /// Whether this search carries an anytime budget (deadline or DTW
    /// cap); budgeted searches always run the sequential scan so the
    /// truncation point stays deterministic.
    fn budgeted(&self) -> bool {
        self.deadline.is_some() || self.max_dtw_evals.is_some()
    }
}

/// Lazily built, per-query envelope state for the cascade's query-side
/// tiers: the query's LB_Keogh envelope, the UCR-suite contribution order
/// (indices sorted by |deviation from the query mean|, largest first),
/// and the tier-0 sketch state — the query's PAA sketch, its PAA'd
/// envelope, and the segment weights. The query-side tiers only fire for
/// candidates of the query's own length, so one search resolves exactly
/// one band radius and a single slot suffices; the build cost amortizes
/// across every group and member evaluated at that length. The slot
/// rebuilds defensively if a different radius is ever requested — always
/// in place, so once its buffers have grown to the longest query a thread
/// has seen, setting up a query allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct QueryEnvelopeCache {
    /// Whether `entry` describes the query in flight.
    live: bool,
    entry: QueryEnvelope,
    scratch: EnvelopeScratch,
}

#[derive(Debug, Default)]
struct QueryEnvelope {
    env: Envelope,
    order: Vec<usize>,
    /// The query's PAA sketch, width `min(paa_width, q.len())`.
    paa: Vec<f64>,
    /// Segment-max of the query envelope's upper plane (tier 0, members).
    paa_env_hi: Vec<f64>,
    /// Segment-min of the query envelope's lower plane (tier 0, members).
    paa_env_lo: Vec<f64>,
    /// Per-segment sample counts as tier-0 kernel weights.
    weights: Vec<f64>,
}

impl QueryEnvelopeCache {
    /// Invalidates the previous query's entry, keeping its buffers.
    fn begin(&mut self) {
        self.live = false;
    }

    /// The entry for `radius`, building it on first request. `paa_width`
    /// is the base's configured sketch width (clamped here to the query
    /// length, matching the slab-side clamp for equal-length candidates).
    fn entry(&mut self, q: &[f64], radius: usize, paa_width: usize) -> &QueryEnvelope {
        if !self.live || self.entry.env.radius != radius {
            let QueryEnvelope {
                env,
                order,
                paa,
                paa_env_hi,
                paa_env_lo,
                weights,
            } = &mut self.entry;
            env.rebuild(q, radius, &mut self.scratch);
            let mean = q.iter().sum::<f64>() / q.len().max(1) as f64;
            order.clear();
            order.extend(0..q.len());
            order.sort_unstable_by(|&a, &b| {
                let da = (q[a] - mean).abs();
                let db = (q[b] - mean).abs();
                db.total_cmp(&da)
            });
            let w = paa_width.clamp(1, q.len().max(1));
            paa_into(q, w, paa);
            paa_envelope_into(&env.upper, &env.lower, w, paa_env_hi, paa_env_lo);
            paa_segment_weights_into(q.len().max(1), w, weights);
            self.live = true;
        }
        &self.entry
    }
}

/// Per-call scratch state: every buffer a search needs (so a thread's
/// repeated queries allocate nothing to set up) and the counters for the
/// query in flight. One context per thread of execution — the engine keeps
/// its own in a thread-local — and contexts are never shared.
#[derive(Debug, Default)]
pub(crate) struct SearchCtx {
    /// DTW scratch rows, reused across evaluations.
    pub buf: DtwBuffer,
    /// Counters and the `truncated` / `degraded` flags for the current
    /// query; `elapsed` and `epoch` are left for the engine to stamp.
    pub stats: QueryStats,
    /// Query envelope + contribution order, built lazily per query.
    pub qenv: QueryEnvelopeCache,
    /// Scratch for the per-candidate LB_Keogh suffix array.
    pub suffix: Vec<f64>,
    /// Per-group certified-skip mask from the symbolic index (scratch,
    /// valid only for the length scan that filled it).
    pub skip: Vec<bool>,
    /// Scratch for the index probe's per-segment proxy sketch.
    pub proxy: Vec<f64>,
}

impl SearchCtx {
    /// Resets per-query state (the buffers are retained).
    pub fn begin(&mut self) {
        self.stats = QueryStats::default();
        self.qenv.begin();
    }

    /// Checks the time/evaluation budget, latching `stats.truncated` once
    /// exceeded. Called before each DTW evaluation; with no budget
    /// configured this is two branch-predictable compares.
    fn out_of_budget(&mut self, p: &SearchParams) -> bool {
        if self.stats.truncated {
            return true;
        }
        if let Some(cap) = p.max_dtw_evals {
            if self.stats.dtw_evals >= cap {
                self.stats.truncated = true;
                return true;
            }
        }
        if let Some(deadline) = p.deadline {
            if Instant::now() >= deadline {
                self.stats.truncated = true;
                return true;
            }
        }
        false
    }
}

/// Gate for the symbolic-index fast path over one length's rep scan: the
/// index may only *propose* skips where its certified bound provably
/// reproduces a tier-0 prune, which requires the whole tier-0 context to
/// be live — cascade pruning on, equal lengths, a genuinely reducing
/// sketch whose width matches the index's bucket envelopes, and a fully
/// finalized slab (non-finalized groups have zeroed sketch rows the
/// envelopes would misdescribe). Returns the index when every structural
/// condition holds; the remaining condition — a finite cutoff — is
/// per-scan and checked at engagement time.
fn symindex_applicable<'s>(
    sym: Option<&'s SymIndex>,
    q: &[f64],
    slab: &LengthSlab,
    p: &SearchParams,
) -> Option<&'s SymIndex> {
    let sym = sym?;
    let w = p.paa_width.clamp(1, q.len().max(1));
    (p.symindex
        && p.lb_pruning
        && p.cascade
        && q.len() == slab.subseq_len()
        && w < q.len()
        && w == slab.paa_width()
        && sym.width() == w
        && sym.subseq_len() == q.len()
        && sym.all_finalized())
    .then_some(sym)
}

/// Probes the symbolic index at `cutoff` and fills `ctx.skip` with the
/// certified-skip mask, folding the probe counts into the query stats.
/// `cutoff` must be finite; `limit_sq` is exactly tier 0's pruning limit,
/// so a marked group is one tier 0 would provably prune right now.
fn mark_index_skips(sym: &SymIndex, q: &[f64], cutoff: f64, p: &SearchParams, ctx: &mut SearchCtx) {
    let radius = p.window.resolve(q.len(), q.len());
    let SearchCtx {
        ref mut stats,
        ref mut qenv,
        ref mut skip,
        ref mut proxy,
        ..
    } = *ctx;
    let entry = qenv.entry(q, radius, p.paa_width);
    let limit_sq = cutoff * cutoff * (1.0 + PAA_TIER0_MARGIN);
    let out = sym.mark_skips(
        &entry.paa_env_hi,
        &entry.paa_env_lo,
        &entry.weights,
        limit_sq,
        skip,
        proxy,
    );
    stats.index_probes += out.probes;
    stats.index_candidates += out.candidates;
}

/// Charges one index-certified group skip to the counters exactly as the
/// tier-0 prune it replaces (plus the index's own attribution counter), so
/// the per-query statistics are bit-identical with the index on or off.
fn charge_index_skip(stats: &mut QueryStats) {
    stats.groups_visited += 1;
    stats.lb_prunes += 1;
    stats.pruned_paa += 1;
    stats.groups_skipped_by_index += 1;
}

/// Best-representative search result for one length.
struct RepChoice {
    group: GroupId,
    /// Local position within the length's slab.
    local: usize,
    /// Raw DTW between query and the representative.
    raw: f64,
}

/// Which counters a [`cascade_eval`] charges its work to: all work goes
/// into `dtw_evals` / `lb_prunes`, member work also into `members_*`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Candidate {
    /// A group representative (stores an envelope, enabling tier 3).
    Rep,
    /// A group member (no stored envelope).
    Member,
}

impl Candidate {
    /// Charges one lower-bound prune (the caller bumps its tier's counter).
    fn charge_prune(self, stats: &mut QueryStats) {
        stats.lb_prunes += 1;
        if self == Candidate::Member {
            stats.members_lb_pruned += 1;
        }
    }

    /// Charges one DTW evaluation, full or early-abandoned.
    fn charge_dtw(self, stats: &mut QueryStats) {
        stats.dtw_evals += 1;
        if self == Candidate::Member {
            stats.members_examined += 1;
        }
    }
}

/// Evaluates one candidate through the cascaded lower-bound pipeline:
///
/// 0. **PAA sketch bound** (O(w), equal lengths, `cascade` only, skipped
///    at the degenerate `w == len` where it cannot beat tier 2): the
///    candidate's precomputed sketch (`cand_paa` — members and
///    representatives alike) against the query's PAA'd envelope, and for
///    representatives additionally the query's sketch against the stored
///    PAA'd envelope (`cand_paa_env`, when at least as wide as the band)
///    — each `≤ LB_Keogh ≤ banded DTW`, guard-banded by
///    [`PAA_TIER0_MARGIN`],
/// 1. **LB_Kim** (O(1), any lengths),
/// 2. **query-envelope LB_Keogh** — candidate against the cached query
///    envelope, squared space, contribution-ordered early abandoning
///    (equal lengths, `cascade` only),
/// 3. **candidate-envelope LB_Keogh** — query against `cand_env` when one
///    is stored and at least as wide as the band,
/// 4. **DTW**, early-abandoned against `cutoff` and (under `cascade`)
///    additionally seeded with the query-envelope suffix bound.
///
/// Returns `Some(exact raw DTW)` when the candidate survives; `None` when
/// a bound proved `DTW > cutoff` or the DTW itself was abandoned. All
/// prune tests are strictly-greater, so with any `cutoff` that the caller
/// only ever *lowers* to accepted distances, a pruned candidate can never
/// be the true answer nor displace a tie. With `lb_pruning` off (or an
/// infinite cutoff) this degrades to plain early-abandoned DTW.
///
/// With `cascade` off, members get **no** lower bounds at all — only the
/// pre-cascade engine's representative-level LB_Kim + plain envelope
/// check remains — so the `cascade: false` ablation point measures the
/// pre-cascade engine's lower-bound configuration. (The intra-group
/// walk's patience signal is strict-improvement at every pruning level —
/// see [`best_in_group`] — which is the one deliberate heuristic change
/// from the pre-cascade engine; it is what makes the walk's trajectory
/// independent of pruning.)
#[allow(clippy::too_many_arguments, reason = "one operand per scan input")]
fn cascade_eval(
    q: &[f64],
    cand: &[f64],
    cand_env: Option<EnvelopeRef<'_>>,
    cand_paa: Option<&[f64]>,
    cand_paa_env: Option<EnvelopeRef<'_>>,
    cutoff: f64,
    p: &SearchParams,
    ctx: &mut SearchCtx,
    kind: Candidate,
) -> Option<f64> {
    let SearchCtx {
        ref mut buf,
        ref mut stats,
        ref mut qenv,
        ref mut suffix,
        ..
    } = *ctx;
    let lb_active = p.lb_pruning && cutoff.is_finite() && (p.cascade || kind == Candidate::Rep);
    let equal_len = cand.len() == q.len();
    let radius = p.window.resolve(q.len(), cand.len());
    let mut q_entry: Option<&QueryEnvelope> = None;
    // Tier 4 only pays for the suffix array when tier 2 proved it can
    // contribute: a candidate fully inside the query envelope has an
    // all-zero suffix, which can never tighten the in-matrix abandon.
    let mut suffix_useful = false;
    if lb_active {
        // Tier 0: the O(w) PAA sketch bound, in front of the whole
        // cascade — but only where the sketch genuinely reduces
        // (`w < len`; at `w == len` it would be a full-length,
        // non-abandoning duplicate of tier 2 with zero Jensen slack).
        // Every candidate with a stored sketch (`cand_paa`: members *and*
        // representatives) tests it against the query's PAA'd envelope —
        // valid at any stored-envelope radius, since the query envelope
        // is built at the resolved band. Representatives additionally
        // test the query's sketch against their *stored* PAA'd envelope
        // (`cand_paa_env`, valid only when at least as wide as the band,
        // like tier 3) — two independent O(w) bounds on the same DTW.
        // Prunes are guard-banded like the construction prefilter
        // (`PAA_TIER0_MARGIN`): the bound is computed with a different
        // float association than the DTW it stands in for, and the margin
        // makes an ulp-level overshoot at an exact tie provably unable to
        // drop a qualifying candidate. The width checks skip a test
        // rather than panic if a caller ever hands sketches of a
        // different reduction.
        let sketch_reduces = p.paa_width.clamp(1, q.len().max(1)) < q.len();
        if p.cascade
            && equal_len
            && sketch_reduces
            && (cand_paa.is_some() || cand_paa_env.is_some())
        {
            let entry = qenv.entry(q, radius, p.paa_width);
            let limit_sq = cutoff * cutoff * (1.0 + PAA_TIER0_MARGIN);
            let vs_query_env = cand_paa
                .filter(|cp| cp.len() == entry.paa_env_hi.len())
                .map(|cp| lb_paa_env_sq(cp, &entry.paa_env_hi, &entry.paa_env_lo, &entry.weights));
            let pruned = match vs_query_env {
                Some(lb0_sq) if lb0_sq > limit_sq => true,
                _ => cand_paa_env
                    .filter(|e| e.radius >= radius && e.len() == entry.paa.len())
                    .map(|e| lb_paa_env_sq(&entry.paa, e.upper, e.lower, &entry.weights))
                    .is_some_and(|lb0_sq| lb0_sq > limit_sq),
            };
            if pruned {
                stats.pruned_paa += 1;
                kind.charge_prune(stats);
                return None;
            }
        }
        // Tier 1: LB_Kim.
        if lb_kim_fl(q, cand) > cutoff {
            stats.pruned_kim += 1;
            kind.charge_prune(stats);
            return None;
        }
        let cutoff_sq = cutoff * cutoff;
        // Tier 2: candidate vs the query's envelope (reordered, squared,
        // early-abandoning). Built at most once per (query, radius).
        if p.cascade && equal_len {
            let entry = qenv.entry(q, radius, p.paa_width);
            stats.lb_keogh_evals += 1;
            match lb_keogh_sq_abandon(cand, &entry.env, Some(&entry.order), cutoff_sq) {
                Some(eq_sq) if eq_sq <= cutoff_sq => suffix_useful = eq_sq > 0.0,
                _ => {
                    stats.pruned_keogh_eq += 1;
                    kind.charge_prune(stats);
                    return None;
                }
            }
            q_entry = Some(entry);
        }
        // Tier 3: query vs the candidate's stored envelope, valid when it
        // is at least as wide as the band.
        if let Some(env) = cand_env {
            if equal_len && env.radius >= radius {
                stats.lb_keogh_evals += 1;
                let pruned = if p.cascade {
                    !matches!(
                        lb_keogh_sq_abandon(q, env, q_entry.map(|e| e.order.as_slice()), cutoff_sq),
                        Some(ec_sq) if ec_sq <= cutoff_sq
                    )
                } else {
                    lb_keogh(q, env) > cutoff
                };
                if pruned {
                    stats.pruned_keogh_ec += 1;
                    kind.charge_prune(stats);
                    return None;
                }
            }
        }
    }
    // Tier 4: DTW. With the query envelope at hand, its suffix sums let
    // the kernel abandon rows that provably cannot beat the cutoff even
    // before the remaining point costs accrue. Argument order is flipped
    // there (candidate rows against the query) because the suffix bounds
    // the candidate's contributions; DTW's DP is transpose-symmetric, so
    // the value is bit-identical either way.
    kind.charge_dtw(stats);
    let d = match q_entry {
        Some(entry) if suffix_useful => {
            lb_keogh_cumulative_into(cand, &entry.env, suffix);
            buf.dist_early_abandon_with_suffix(cand, q, p.window, cutoff, suffix)
        }
        _ => buf.dist_early_abandon(q, cand, p.window, cutoff),
    };
    if d.is_none() {
        stats.early_abandons += 1;
    }
    d
}

/// Finds the best match for a (normalized) query sequence.
pub(crate) fn best_match(
    base: &OnexBase,
    q: &[f64],
    mode: MatchMode,
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Result<Match> {
    validate_query(q)?;
    base.ensure_nonempty()?;
    ctx.begin();
    match mode {
        MatchMode::Exact(len) => best_match_at_length(base, q, len, None, p, ctx),
        MatchMode::Any => best_match_any(base, q, p, ctx),
    }
}

/// Top-`k` most similar subsequences. Within the selected group(s) every
/// member is evaluated (no walk cut-off) so the ranking is complete for
/// the explored groups; the paper's `getKSim` likewise reads the selected
/// group's LSI.
pub(crate) fn top_k(
    base: &OnexBase,
    q: &[f64],
    mode: MatchMode,
    k: usize,
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Result<Vec<Match>> {
    validate_query(q)?;
    base.ensure_nonempty()?;
    ctx.begin();
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut all: Vec<Match> = Vec::new();
    // The k smallest ranking keys seen so far, ascending. Once full, the
    // worst key becomes the member cutoff for the cascade: a member whose
    // lower bound strictly exceeds it cannot enter the final top-k (ties
    // are never pruned, preserving the subseq tie-break), so the truncated
    // ranking is identical to the unpruned scan's.
    let mut topk_keys: Vec<f64> = Vec::new();
    for len in length_schedule(base, q.len(), mode) {
        let Some(idx) = base.length_index(len) else {
            if matches!(mode, MatchMode::Exact(_)) {
                return Err(OnexError::NoGroupsForLength(len));
            }
            continue;
        };
        let slab = base.slab(len).ok_or(OnexError::NoGroupsForLength(len))?;
        ctx.stats.lengths_visited += 1;
        let sym = base.sym_index(len);
        let choices = best_reps(q, idx, slab, sym, p.explore_top_groups.max(1), p, ctx);
        let scale = 2.0 * q.len().max(len) as f64;
        let qualified = choices.iter().any(|c| c.raw / scale <= p.st / 2.0);
        let units: usize = choices.iter().map(|c| slab.members(c.local).len()).sum();
        // Room for the keys this length can still add: never more than `k`
        // in all, nor than it has members, so an oversized `k` means "all".
        topk_keys.reserve_exact(units.min(k - topk_keys.len()));
        let workers = plan_workers(p.query_threads, p.budgeted(), units);
        let striped_ok = workers > 1
            && topk_members_striped(
                base,
                q,
                slab,
                &choices,
                k,
                scale,
                &mut topk_keys,
                &mut all,
                p,
                ctx,
                workers,
            );
        if !striped_ok {
            for c in &choices {
                let norm = c.raw / scale;
                for (mi, &(r, _)) in slab.members(c.local).iter().enumerate() {
                    if ctx.out_of_budget(p) {
                        break;
                    }
                    let vals = base.dataset().subseq_unchecked(r);
                    // The k-th-best cutoff (and with it any member-level
                    // pruning or abandoning) belongs to the cascade; without
                    // it the member scan is the pre-cascade full evaluation.
                    let cutoff = if !(p.lb_pruning && p.cascade) || topk_keys.len() < k {
                        f64::INFINITY
                    } else if p.rank_normalized {
                        topk_keys[k - 1] * scale
                    } else {
                        topk_keys[k - 1]
                    };
                    let Some(raw) = cascade_eval(
                        q,
                        vals,
                        None,
                        Some(slab.member_paa_row(c.local, mi)),
                        None,
                        cutoff,
                        p,
                        ctx,
                        Candidate::Member,
                    ) else {
                        continue;
                    };
                    let dist = raw / scale;
                    let key = if p.rank_normalized { dist } else { raw };
                    let pos = topk_keys.partition_point(|&x| x <= key);
                    if pos < k {
                        if topk_keys.len() == k {
                            topk_keys.pop();
                        }
                        topk_keys.insert(pos, key);
                    }
                    all.push(Match {
                        subseq: r,
                        dist,
                        raw_dtw: raw,
                        group: c.group,
                        rep_dist: norm,
                    });
                }
            }
        }
        if ctx.stats.truncated {
            break;
        }
        if matches!(mode, MatchMode::Any)
            && qualified
            && p.stop_at_first_qualifying
            && all.len() >= k
        {
            break;
        }
    }
    if p.rank_normalized {
        all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.subseq.cmp(&b.subseq)));
    } else {
        all.sort_by(|a, b| {
            a.raw_dtw
                .total_cmp(&b.raw_dtw)
                .then(a.subseq.cmp(&b.subseq))
        });
    }
    all.truncate(k);
    if all.is_empty() {
        return Err(if ctx.stats.truncated {
            OnexError::BudgetExhausted
        } else {
            OnexError::EmptyBase
        });
    }
    Ok(all)
}

/// Range query — the paper's Q1 with `WHERE Sim <= ST` instead of `min`:
/// every subsequence whose normalized DTW to the query is within `st`.
///
/// Candidate groups are found by the Lemma-2 certificate: a
/// representative within `ST/2` (normalized DTW) guarantees *all* its
/// members are within `ST`. With `verify = false` the certified members
/// are returned as-is — no member-level DTW at all, the paper's fast
/// path, sound under the theory's unconstrained window. **On that
/// certified path every member's [`Match::dist`] and [`Match::raw_dtw`]
/// are rep-derived**: they carry the *representative's* normalized/raw
/// DTW to the query (equal to [`Match::rep_dist`] in normalized form),
/// because the member itself was never evaluated. With `verify = true`
/// each member's true DTW is computed (through the lower-bound cascade,
/// with `st` as the cutoff) and filtered to `≤ st`, which also finds
/// members of *uncertified* boundary groups (reps in `(ST/2, ST·1.5]`)
/// that still qualify individually — and then `raw_dtw` is the member's
/// own.
pub(crate) fn within_threshold(
    base: &OnexBase,
    q: &[f64],
    mode: MatchMode,
    verify: bool,
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Result<Vec<Match>> {
    validate_query(q)?;
    base.ensure_nonempty()?;
    ctx.begin();
    let st = p.st;
    if let MatchMode::Exact(len) = mode {
        if base.length_index(len).is_none() {
            return Err(OnexError::NoGroupsForLength(len));
        }
    }
    let mut out = Vec::new();
    'lengths: for len in length_schedule(base, q.len(), mode) {
        let Some(idx) = base.length_index(len) else {
            continue;
        };
        let slab = base.slab(len).ok_or(OnexError::NoGroupsForLength(len))?;
        ctx.stats.lengths_visited += 1;
        let norm = 2.0 * q.len().max(len) as f64;
        // Reps beyond 1.5·ST can contain no qualifying member even
        // under verification (member ≤ ST and Lemma-2-style bounds
        // keep everything near the rep), so bound the scan there.
        let scan_limit = if verify { st * 1.5 } else { st / 2.0 };
        // The rep cutoff is fixed for the whole length, so the symbolic
        // index (where applicable) can mark its certified skips up front.
        let scan_cutoff = scan_limit * norm;
        let masked = match symindex_applicable(base.sym_index(len), q, slab, p) {
            Some(sym) if scan_cutoff.is_finite() => {
                mark_index_skips(sym, q, scan_cutoff, p, ctx);
                true
            }
            _ => false,
        };
        if p.symindex && !masked {
            ctx.stats.index_fallbacks += 1;
        }
        // Every cutoff in this scan is fixed for the whole length (no
        // running best to share), so the striped path is not just
        // result-identical but *counter*-identical to the sequential one:
        // each group's evaluation sees exactly the same cutoffs either way.
        let workers = plan_workers(p.query_threads, p.budgeted(), idx.group_count());
        if workers > 1
            && range_scan_striped(
                base, q, slab, idx, verify, st, norm, scan_limit, masked, &mut out, p, ctx, workers,
            )
        {
            continue;
        }
        for local in idx.median_out_order() {
            if ctx.out_of_budget(p) {
                break 'lengths;
            }
            if masked && ctx.skip[local] {
                // sound: certified by the bucket bound at exactly this
                // scan's cutoff — tier 0 would prune this rep with the
                // same strictly-greater test (see SymIndex::mark_skips),
                // so no member of the group can be certified or survive
                // verification; charge the identical counters and skip.
                charge_index_skip(&mut ctx.stats);
                continue;
            }
            let gid = idx.group_ids[local];
            ctx.stats.groups_visited += 1;
            let Some(raw) = cascade_eval(
                q,
                slab.rep_row(local),
                slab.envelope_ref(local),
                slab.is_finalized(local).then(|| slab.paa_rep_row(local)),
                slab.paa_envelope_ref(local),
                scan_limit * norm,
                p,
                ctx,
                Candidate::Rep,
            ) else {
                continue;
            };
            let rep_norm = raw / norm;
            if rep_norm <= st / 2.0 && !verify {
                // Certified: every member qualifies (Lemma 2). `dist` and
                // `raw_dtw` are the representative's — see the fn docs.
                for &(r, _) in slab.members(local) {
                    out.push(Match {
                        subseq: r,
                        dist: rep_norm,
                        raw_dtw: raw,
                        group: gid,
                        rep_dist: rep_norm,
                    });
                }
            } else if rep_norm <= scan_limit && verify {
                for (idx, &(r, _)) in slab.members(local).iter().enumerate() {
                    if ctx.out_of_budget(p) {
                        break 'lengths;
                    }
                    let vals = base.dataset().subseq_unchecked(r);
                    let Some(member_raw) = cascade_eval(
                        q,
                        vals,
                        None,
                        Some(slab.member_paa_row(local, idx)),
                        None,
                        st * norm,
                        p,
                        ctx,
                        Candidate::Member,
                    ) else {
                        continue;
                    };
                    let d = member_raw / norm;
                    if d <= st {
                        out.push(Match {
                            subseq: r,
                            dist: d,
                            raw_dtw: member_raw,
                            group: gid,
                            rep_dist: rep_norm,
                        });
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.subseq.cmp(&b.subseq)));
    Ok(out)
}

/// The striped-parallel group scan of [`within_threshold`] for one
/// length. Unlike the best-match and top-k scans there is no evolving
/// cutoff here — the rep scan bound (`scan_limit·norm`) and the member
/// verification bound (`st·norm`) are fixed for the whole length, and the
/// certified-skip mask (when engaged) was marked up front at that same
/// fixed bound — so each group's evaluation is completely independent and
/// the striped scan reproduces the sequential scan's matches *and*
/// counters exactly at any worker count. Matches are appended in worker
/// order; the caller's total-order sort on `(dist, subseq)` erases the
/// difference from the sequential append order.
///
/// Returns `false` — with `ctx.stats.degraded` latched, no matches
/// appended and no counters charged — when a worker panicked; the caller
/// must then run the sequential twin for this length, which reproduces the
/// striped scan's would-be answer exactly.
#[allow(clippy::too_many_arguments, reason = "one operand per scan input")]
fn range_scan_striped(
    base: &OnexBase,
    q: &[f64],
    slab: &LengthSlab,
    idx: &LengthIndex,
    verify: bool,
    st: f64,
    norm: f64,
    scan_limit: f64,
    masked: bool,
    out: &mut Vec<Match>,
    p: &SearchParams,
    ctx: &mut SearchCtx,
    workers: usize,
) -> bool {
    let order: Vec<usize> = idx.median_out_order().collect();
    let order = order.as_slice();
    // The mask was filled in the caller's context; lend it to the workers
    // read-only and put it back afterwards (it is per-length scratch).
    let skip = std::mem::take(&mut ctx.skip);
    let skip_ref = skip.as_slice();
    let results = fan_stripes(workers, |w| {
        let mut wctx = SearchCtx::default();
        let mut local_out: Vec<Match> = Vec::new();
        for &local in order.iter().skip(w).step_by(workers) {
            if masked && skip_ref[local] {
                // sound: identical to the sequential scan — the mask was
                // certified at exactly this scan's fixed cutoff, so tier 0
                // would prune this rep with the same strictly-greater
                // test; no member of the group can be certified or survive
                // verification.
                charge_index_skip(&mut wctx.stats);
                continue;
            }
            let gid = idx.group_ids[local];
            wctx.stats.groups_visited += 1;
            let Some(raw) = cascade_eval(
                q,
                slab.rep_row(local),
                slab.envelope_ref(local),
                slab.is_finalized(local).then(|| slab.paa_rep_row(local)),
                slab.paa_envelope_ref(local),
                scan_limit * norm,
                p,
                &mut wctx,
                Candidate::Rep,
            ) else {
                continue;
            };
            let rep_norm = raw / norm;
            if rep_norm <= st / 2.0 && !verify {
                // Certified: every member qualifies (Lemma 2); `dist` and
                // `raw_dtw` are the representative's, as in the sequential
                // scan.
                for &(r, _) in slab.members(local) {
                    local_out.push(Match {
                        subseq: r,
                        dist: rep_norm,
                        raw_dtw: raw,
                        group: gid,
                        rep_dist: rep_norm,
                    });
                }
            } else if rep_norm <= scan_limit && verify {
                for (mi, &(r, _)) in slab.members(local).iter().enumerate() {
                    let vals = base.dataset().subseq_unchecked(r);
                    let Some(member_raw) = cascade_eval(
                        q,
                        vals,
                        None,
                        Some(slab.member_paa_row(local, mi)),
                        None,
                        st * norm,
                        p,
                        &mut wctx,
                        Candidate::Member,
                    ) else {
                        continue;
                    };
                    let d = member_raw / norm;
                    if d <= st {
                        local_out.push(Match {
                            subseq: r,
                            dist: d,
                            raw_dtw: member_raw,
                            group: gid,
                            rep_dist: rep_norm,
                        });
                    }
                }
            }
        }
        (local_out, wctx)
    });
    ctx.skip = skip;
    let Some(results) = results else {
        // A worker panicked: every partial result is discarded and the
        // caller re-runs this length sequentially.
        ctx.stats.degraded = true;
        return false;
    };
    for (local_out, wctx) in results {
        out.extend(local_out);
        ctx.stats.absorb(&wctx.stats);
    }
    true
}

fn best_match_at_length(
    base: &OnexBase,
    q: &[f64],
    len: usize,
    cutoff_raw: Option<f64>,
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Result<Match> {
    let idx = base
        .length_index(len)
        .ok_or(OnexError::NoGroupsForLength(len))?;
    let slab = base.slab(len).ok_or(OnexError::NoGroupsForLength(len))?;
    ctx.stats.lengths_visited += 1;
    let top = p.explore_top_groups.max(1);
    let choices = best_reps(q, idx, slab, base.sym_index(len), top, p, ctx);
    let mut best: Option<Match> = None;
    let mut cutoff = cutoff_raw.unwrap_or(f64::INFINITY);
    for c in &choices {
        let rep_norm = c.raw / (2.0 * q.len().max(len) as f64);
        if let Some((r, raw)) = best_in_group(base, q, slab, c.local, c.raw, cutoff, p, ctx) {
            // A group best always beats the cutoff, except the +∞ one kept
            // when every DTW overflowed; the first such is the answer.
            if best.is_none() || raw < cutoff {
                cutoff = raw;
                best = Some(Match {
                    subseq: r,
                    dist: raw / (2.0 * q.len().max(len) as f64),
                    raw_dtw: raw,
                    group: c.group,
                    rep_dist: rep_norm,
                });
            }
        }
    }
    best.ok_or(if ctx.stats.truncated {
        OnexError::BudgetExhausted
    } else {
        OnexError::NoGroupsForLength(len)
    })
}

/// The lengths one query visits: a single exact length or the §5.3
/// any-length order ([`OnexBase::lengths_query_order`]: query length
/// first, then decreasing to the smallest, then increasing above) —
/// allocation-free in both cases.
enum LengthSchedule<I> {
    One(std::iter::Once<usize>),
    Ordered(I),
}

impl<I: Iterator<Item = usize>> Iterator for LengthSchedule<I> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            LengthSchedule::One(it) => it.next(),
            LengthSchedule::Ordered(it) => it.next(),
        }
    }
}

fn length_schedule(
    base: &OnexBase,
    qlen: usize,
    mode: MatchMode,
) -> LengthSchedule<impl Iterator<Item = usize> + '_> {
    match mode {
        MatchMode::Exact(len) => LengthSchedule::One(std::iter::once(len)),
        MatchMode::Any => LengthSchedule::Ordered(base.lengths_query_order(qlen)),
    }
}

fn best_match_any(
    base: &OnexBase,
    q: &[f64],
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Result<Match> {
    let rank_normalized = p.rank_normalized;
    let mut best: Option<Match> = None;
    for len in base.lengths_query_order(q.len()) {
        if ctx.out_of_budget(p) {
            break;
        }
        // Carry the best-so-far across lengths as a raw-DTW cutoff for
        // early abandoning. Under raw ranking it transfers directly;
        // under normalized ranking it is rescaled by this length's
        // normalization factor.
        let cutoff_raw = best.as_ref().map(|b| {
            if rank_normalized {
                b.dist * 2.0 * q.len().max(len) as f64
            } else {
                b.raw_dtw
            }
        });
        let found = match best_match_at_length(base, q, len, cutoff_raw, p, ctx) {
            Ok(m) => m,
            Err(OnexError::NoGroupsForLength(_)) => continue,
            // Budget ran out inside this length: keep the best-so-far from
            // earlier lengths (anytime semantics); the final ok_or reports
            // exhaustion only when nothing was found at all.
            Err(OnexError::BudgetExhausted) => break,
            Err(e) => return Err(e),
        };
        let better = best.as_ref().is_none_or(|b| {
            if rank_normalized {
                found.dist < b.dist
            } else {
                found.raw_dtw < b.raw_dtw
            }
        });
        if better {
            best = Some(found);
        }
        // §5.3: stop extending the length search once a representative
        // within ST/2 has been found at some length.
        if p.stop_at_first_qualifying {
            if let Some(b) = &best {
                if b.rep_dist <= p.st / 2.0 {
                    break;
                }
            }
        }
    }
    best.ok_or(if ctx.stats.truncated {
        OnexError::BudgetExhausted
    } else {
        OnexError::EmptyBase
    })
}

/// Best `top` representatives of a length by raw DTW to the query, in
/// median-sum order, each run through the full [`cascade_eval`] pipeline
/// against the running `top`-th-best cutoff. The representative vectors
/// and envelope planes are read straight off the length's columnar slab —
/// contiguous rows, no per-group pointer chase.
fn best_reps(
    q: &[f64],
    idx: &LengthIndex,
    slab: &LengthSlab,
    sym: Option<&SymIndex>,
    top: usize,
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Vec<RepChoice> {
    let workers = plan_workers(p.query_threads, p.budgeted(), idx.group_count());
    if workers > 1 {
        if let Some(kept) = best_reps_striped(q, idx, slab, sym, top, p, ctx, workers) {
            return kept;
        }
        // A worker panicked: fall through to the sequential scan below,
        // which recomputes the choice set from scratch.
    }
    // At most `top + 1` choices, and never more than there are groups: an
    // oversized `top` means "all".
    let mut kept: Vec<RepChoice> = Vec::with_capacity(top.min(idx.group_count()) + 1);
    let mut cutoff = f64::INFINITY;
    let sym = symindex_applicable(sym, q, slab, p);
    let mut masked = false;
    for local in idx.median_out_order() {
        if ctx.out_of_budget(p) {
            break;
        }
        // Engage the index once, at the first finite cutoff. The mask is
        // *not* recomputed as the cutoff tightens: a group certified at
        // cutoff `C` has its tier-0 bound above `C²·(1+margin)`, which
        // only grows relative to any later `C' ≤ C` — tier 0 would still
        // prune it with the same strictly-greater test, so a stale mask
        // stays sound (it merely skips fewer groups than a fresh one).
        if !masked && cutoff.is_finite() {
            if let Some(sym) = sym {
                mark_index_skips(sym, q, cutoff, p, ctx);
                masked = true;
            }
        }
        if masked && ctx.skip[local] {
            // sound: the mask only marks groups whose bucket bound — a
            // bit-for-bit lower bound on the group's own tier-0 bound,
            // see SymIndex::mark_skips — exceeded tier 0's pruning limit
            // at a cutoff no tighter than the current one. Tier 0 would
            // prune this rep right here; charge the identical counters
            // and move on without touching the kept set or the cutoff.
            charge_index_skip(&mut ctx.stats);
            continue;
        }
        let gid = idx.group_ids[local];
        let rep = slab.rep_row(local);
        ctx.stats.groups_visited += 1;
        let Some(raw) = cascade_eval(
            q,
            rep,
            slab.envelope_ref(local),
            slab.is_finalized(local).then(|| slab.paa_rep_row(local)),
            slab.paa_envelope_ref(local),
            cutoff,
            p,
            ctx,
            Candidate::Rep,
        ) else {
            continue;
        };
        if raw >= cutoff && kept.len() >= top {
            continue;
        }
        kept.push(RepChoice {
            group: gid,
            local,
            raw,
        });
        kept.sort_by(|a, b| a.raw.total_cmp(&b.raw));
        kept.truncate(top);
        if let [.., last] = kept.as_slice() {
            if kept.len() == top {
                cutoff = last.raw;
            }
        }
    }
    if p.symindex && !masked {
        ctx.stats.index_fallbacks += 1;
    }
    kept
}

/// The striped-parallel twin of [`best_reps`]: worker `w` of `W` scans
/// median-sum-order positions `w, w+W, …` with its own [`SearchCtx`],
/// keeping its local `top` best and publishing its `top`-th-best raw DTW
/// to a [`SharedCutoff`] so every worker prunes against (an upper bound
/// on) the global `top`-th best. The final choices are the canonical
/// `top` smallest by `(raw, median-sum rank)` over all survivors —
/// exactly the set and order the sequential scan's stable
/// insert-sort-truncate loop produces, because (a) the shared cutoff is
/// always ≥ the final `top`-th-best raw, so no true finalist is ever
/// pruned, (b) survivors carry exact DTW values, and (c) the sequential
/// loop's arrival order *is* the median-sum rank. Each worker engages the
/// symbolic index independently at its first finite cutoff (the mask
/// stays sound for any tighter cutoff, as in the sequential scan);
/// per-worker counters are merged by [`QueryStats::absorb`].
///
/// Returns `None` — with `ctx.stats.degraded` latched, no counters
/// charged — when a worker panicked; the caller must then run the
/// sequential twin.
#[allow(clippy::too_many_arguments, reason = "one operand per scan input")]
fn best_reps_striped(
    q: &[f64],
    idx: &LengthIndex,
    slab: &LengthSlab,
    sym: Option<&SymIndex>,
    top: usize,
    p: &SearchParams,
    ctx: &mut SearchCtx,
    workers: usize,
) -> Option<Vec<RepChoice>> {
    let order: Vec<usize> = idx.median_out_order().collect();
    let order = order.as_slice();
    let sym = symindex_applicable(sym, q, slab, p);
    let shared = SharedCutoff::new(f64::INFINITY);
    let shared = &shared;
    let results = fan_stripes(workers, |w| {
        let mut wctx = SearchCtx::default();
        // Local finalists as (raw, global median-sum rank, choice).
        let mut kept: Vec<(f64, usize, RepChoice)> = Vec::with_capacity(top.min(order.len()) + 1);
        let mut masked = false;
        for rank in (w..order.len()).step_by(workers) {
            let local = order[rank];
            let cutoff = shared.get();
            if !masked && cutoff.is_finite() {
                if let Some(sym) = sym {
                    mark_index_skips(sym, q, cutoff, p, &mut wctx);
                    masked = true;
                }
            }
            if masked && wctx.skip[local] {
                // sound: same argument as the sequential scan — the mask
                // was certified at a cutoff no tighter than the shared
                // cutoff ever gets again (it is monotone decreasing), so
                // tier 0 would still prune this rep with its
                // strictly-greater test; its raw DTW provably exceeds the
                // final top-th best and it can be neither finalist nor tie.
                charge_index_skip(&mut wctx.stats);
                continue;
            }
            let gid = idx.group_ids[local];
            wctx.stats.groups_visited += 1;
            let Some(raw) = cascade_eval(
                q,
                slab.rep_row(local),
                slab.envelope_ref(local),
                slab.is_finalized(local).then(|| slab.paa_rep_row(local)),
                slab.paa_envelope_ref(local),
                cutoff,
                p,
                &mut wctx,
                Candidate::Rep,
            ) else {
                continue;
            };
            kept.push((
                raw,
                rank,
                RepChoice {
                    group: gid,
                    local,
                    raw,
                },
            ));
            kept.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            kept.truncate(top);
            if kept.len() == top {
                // Each worker's local top-th best is an upper bound on the
                // global one (its stripe alone already holds `top`
                // candidates at or below it), so the shared minimum over
                // workers is too — lowering the cutoff to it never prunes
                // a true finalist.
                shared.lower_to(kept[top - 1].0);
            }
        }
        (kept, wctx, masked)
    });
    let results = match results {
        Some(results) => results,
        None => {
            // A worker panicked: discard every partial finalist and fall
            // back to the sequential scan.
            ctx.stats.degraded = true;
            return None;
        }
    };
    let mut merged: Vec<(f64, usize, RepChoice)> = Vec::new();
    let mut any_masked = false;
    for (kept, wctx, masked) in results {
        merged.extend(kept);
        ctx.stats.absorb(&wctx.stats);
        any_masked |= masked;
    }
    if p.symindex && !any_masked {
        ctx.stats.index_fallbacks += 1;
    }
    merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    merged.truncate(top);
    Some(merged.into_iter().map(|(_, _, c)| c).collect())
}

/// The striped-parallel member scan of [`top_k`] for one length: the
/// `(choice, member)` pairs of all chosen groups are flattened into one
/// unit list and striped across workers, each with its own [`SearchCtx`].
/// The running k-th-best ranking key lives in a [`SharedTopK`] — workers
/// read its cached k-th key as the cascade cutoff (`+∞` until `k`
/// survivors exist, exactly the sequential rule) and admit survivors'
/// keys under its lock. Because ties with the k-th key are never pruned
/// and survivors carry exact values, the survivor set is a superset of
/// every member that can appear in the final ranking; the caller's
/// total-order sort on `(key, subseq)` plus `truncate(k)` then yields the
/// sequential result bit for bit. Survivors are appended to `all` in
/// worker order and per-worker counters merged by field-wise sum.
///
/// Returns `false` — with `ctx.stats.degraded` latched, `topk_keys`
/// restored to its pre-call state, nothing appended to `all` and no
/// counters charged — when a worker panicked; the caller must then run the
/// sequential twin for this length.
#[allow(clippy::too_many_arguments, reason = "one operand per scan input")]
fn topk_members_striped(
    base: &OnexBase,
    q: &[f64],
    slab: &LengthSlab,
    choices: &[RepChoice],
    k: usize,
    scale: f64,
    topk_keys: &mut Vec<f64>,
    all: &mut Vec<Match>,
    p: &SearchParams,
    ctx: &mut SearchCtx,
    workers: usize,
) -> bool {
    let mut units: Vec<(usize, usize)> = Vec::new();
    for (ci, c) in choices.iter().enumerate() {
        for mi in 0..slab.members(c.local).len() {
            units.push((ci, mi));
        }
    }
    let units = units.as_slice();
    // Keep a pristine copy of the carried keys: if a worker panics, the
    // shared set may hold a partial admixture of this length's keys and
    // must be thrown away wholesale before the sequential re-scan.
    let saved_keys = topk_keys.clone();
    // Carry the keys accumulated at earlier lengths into the shared set so
    // the cross-length cutoff semantics match the sequential scan.
    let shared = SharedTopK::new(std::mem::take(topk_keys), k);
    let results = fan_stripes(workers, |w| {
        let mut wctx = SearchCtx::default();
        let mut local: Vec<Match> = Vec::new();
        for &(ci, mi) in units.iter().skip(w).step_by(workers) {
            let c = &choices[ci];
            let (r, _) = slab.members(c.local)[mi];
            let vals = base.dataset().subseq_unchecked(r);
            let cutoff = if !(p.lb_pruning && p.cascade) {
                f64::INFINITY
            } else if p.rank_normalized {
                shared.kth() * scale
            } else {
                shared.kth()
            };
            let Some(raw) = cascade_eval(
                q,
                vals,
                None,
                Some(slab.member_paa_row(c.local, mi)),
                None,
                cutoff,
                p,
                &mut wctx,
                Candidate::Member,
            ) else {
                continue;
            };
            let dist = raw / scale;
            let key = if p.rank_normalized { dist } else { raw };
            shared.offer(key);
            local.push(Match {
                subseq: r,
                dist,
                raw_dtw: raw,
                group: c.group,
                rep_dist: c.raw / scale,
            });
        }
        (local, wctx)
    });
    let Some(results) = results else {
        // A worker panicked: restore the carried keys exactly as they
        // were and let the caller re-run this length sequentially.
        *topk_keys = saved_keys;
        ctx.stats.degraded = true;
        return false;
    };
    for (local, wctx) in results {
        all.extend(local);
        ctx.stats.absorb(&wctx.stats);
    }
    *topk_keys = shared.into_keys();
    true
}

/// Best member inside a group (§5.3, third optimization): members are
/// sorted by raw ED to the representative; start at the member whose ED
/// is closest to the query↔representative DTW and walk outward
/// alternately, running each member through the [`cascade_eval`] pipeline
/// against the best so far and stopping a direction after `walk_patience`
/// consecutive non-improvements (an LB-pruned member is provably
/// non-improving, so pruning never changes the walk's trajectory).
/// `exhaustive_group_search` evaluates every member.
#[allow(clippy::too_many_arguments, reason = "one operand per scan input")]
fn best_in_group(
    base: &OnexBase,
    q: &[f64],
    slab: &LengthSlab,
    local: usize,
    rep_raw_dtw: f64,
    initial_cutoff: f64,
    p: &SearchParams,
    ctx: &mut SearchCtx,
) -> Option<(SubseqRef, f64)> {
    let members = slab.members(local);
    if members.is_empty() {
        return None;
    }
    let mut best: Option<(SubseqRef, f64)> = None;
    let mut cutoff = initial_cutoff;
    let probe = |ctx: &mut SearchCtx,
                 i: usize,
                 best: &mut Option<(SubseqRef, f64)>,
                 cutoff: &mut f64|
     -> bool {
        if ctx.out_of_budget(p) {
            return false;
        }
        let (r, _) = members[i];
        let vals = base.dataset().subseq_unchecked(r);
        // A probe "improves" only on a strict beat of the running cutoff.
        // This is deliberately the *only* signal: LB-pruned, abandoned,
        // and completed-but-not-better evaluations all report false, so
        // the patience counters — and with them the walk's trajectory —
        // are identical whether or not pruning is enabled (a pruned
        // member has DTW > cutoff, provably not an improvement). A
        // candidate at or above the carried-in cutoff is never recorded:
        // the caller discards such group bests anyway. Note this is a
        // (slight, deliberate) heuristic change from the pre-cascade
        // engine, which reset patience on a group's first *completed*
        // member even at or above the carried cutoff — a signal a pruned
        // evaluation cannot reproduce, so it had to go for pruning to be
        // trajectory-neutral. The walk was always a patience-bounded
        // heuristic; which members it probes is not part of any contract.
        match cascade_eval(
            q,
            vals,
            None,
            Some(slab.member_paa_row(local, i)),
            None,
            *cutoff,
            p,
            ctx,
            Candidate::Member,
        ) {
            Some(raw) if raw < *cutoff => {
                *best = Some((r, raw));
                *cutoff = raw;
                true
            }
            // Under an infinite cutoff only a +∞ DTW gets here: a finite
            // query of such magnitude that every DTW overflows. Keep the
            // first so the search answers as top-k does rather than finding
            // nothing; it is no improvement, so the walk is unchanged.
            Some(raw) if best.is_none() && cutoff.is_infinite() => {
                *best = Some((r, raw));
                false
            }
            _ => false,
        }
    };

    if p.exhaustive_group_search {
        for i in 0..members.len() {
            probe(ctx, i, &mut best, &mut cutoff);
        }
        return best;
    }

    // Binary-search the ED-sorted member array for the position whose ED
    // to the representative is closest to DTW(q, rep).
    let start = match members.binary_search_by(|&(_, d)| d.total_cmp(&rep_raw_dtw)) {
        Ok(i) => i,
        Err(i) => {
            if i == 0 {
                0
            } else if i >= members.len() {
                members.len() - 1
            } else {
                // pick the closer neighbour
                let below = rep_raw_dtw - members[i - 1].1;
                let above = members[i].1 - rep_raw_dtw;
                if below <= above {
                    i - 1
                } else {
                    i
                }
            }
        }
    };
    probe(ctx, start, &mut best, &mut cutoff);
    let patience = p.walk_patience.max(1);
    let (mut left, mut right) = (start, start);
    let mut left_bad = 0usize;
    let mut right_bad = 0usize;
    let mut go_left = true;
    loop {
        if ctx.stats.truncated {
            break;
        }
        let can_left = left > 0 && left_bad < patience;
        let can_right = right + 1 < members.len() && right_bad < patience;
        if !can_left && !can_right {
            break;
        }
        let take_left = match (can_left, can_right) {
            (true, true) => go_left,
            (true, false) => true,
            _ => false,
        };
        go_left = !go_left;
        if take_left {
            left -= 1;
            if probe(ctx, left, &mut best, &mut cutoff) {
                left_bad = 0;
            } else {
                left_bad += 1;
            }
        } else {
            right += 1;
            if probe(ctx, right, &mut best, &mut cutoff) {
                right_bad = 0;
            } else {
                right_bad += 1;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OnexBase, OnexConfig};
    use onex_dist::{dtw_normalized, Window};
    use onex_ts::{synth, Dataset, TimeSeries};

    /// The search core over one base with the base's own parameters (plus an
    /// optional `st` override) and one reusable context, whose `stats` hold
    /// the counters of the latest query.
    struct Searcher<'a> {
        base: &'a OnexBase,
        ctx: SearchCtx,
    }

    impl<'a> Searcher<'a> {
        fn new(base: &'a OnexBase) -> Self {
            Searcher {
                base,
                ctx: SearchCtx::default(),
            }
        }

        fn params(&self, st: Option<f64>) -> SearchParams {
            SearchParams::from_config(self.base.config(), st)
        }

        fn best_match(&mut self, q: &[f64], mode: MatchMode, st: Option<f64>) -> Result<Match> {
            let p = self.params(st);
            best_match(self.base, q, mode, &p, &mut self.ctx)
        }

        fn top_k(
            &mut self,
            q: &[f64],
            mode: MatchMode,
            k: usize,
            st: Option<f64>,
        ) -> Result<Vec<Match>> {
            let p = self.params(st);
            top_k(self.base, q, mode, k, &p, &mut self.ctx)
        }

        fn within_threshold(
            &mut self,
            q: &[f64],
            mode: MatchMode,
            st: Option<f64>,
            verify: bool,
        ) -> Result<Vec<Match>> {
            let p = self.params(st);
            within_threshold(self.base, q, mode, verify, &p, &mut self.ctx)
        }
    }

    fn base() -> OnexBase {
        let d = synth::sine_mix(8, 24, 2, 11);
        OnexBase::build(&d, OnexConfig::default()).unwrap()
    }

    #[test]
    fn finds_exact_in_dataset_subsequence() {
        let b = base();
        // Take a subsequence that is literally in the dataset; the best
        // match at its own length must have distance 0 (itself) or at worst
        // the group-guarantee bound.
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[3..15].to_vec();
        let mut proc = Searcher::new(&b);
        let m = proc.best_match(&q, MatchMode::Exact(12), None).unwrap();
        assert_eq!(m.subseq.len, 12);
        // The query itself lives in some group of length 12; its own group's
        // representative is within ST/2, so the retrieved distance is small.
        assert!(m.dist <= b.config().st, "dist {}", m.dist);
        assert!(proc.ctx.stats.groups_visited > 0);
    }

    #[test]
    fn self_query_returns_zero_distance_with_exhaustive_search() {
        let d = synth::sine_mix(6, 16, 2, 3);
        let cfg = OnexConfig {
            exhaustive_group_search: true,
            ..OnexConfig::default()
        };
        let b = OnexBase::build(&d, cfg).unwrap();
        let q: Vec<f64> = b.dataset().get(2).unwrap().values()[1..9].to_vec();
        let mut proc = Searcher::new(&b);
        let m = proc.best_match(&q, MatchMode::Exact(8), None).unwrap();
        // The query is a member of some group; exhaustive search inside the
        // best group finds either itself (0) or something at least as close
        // to the rep — distance must be tiny.
        assert!(m.raw_dtw <= 1e-9, "raw {}", m.raw_dtw);
    }

    #[test]
    fn any_length_query_returns_best_normalized() {
        let b = base();
        let q: Vec<f64> = b.dataset().get(1).unwrap().values()[0..10].to_vec();
        let mut proc = Searcher::new(&b);
        let m = proc.best_match(&q, MatchMode::Any, None).unwrap();
        assert!(m.dist.is_finite());
        // verify the reported normalized distance is consistent
        let vals = b.dataset().subseq(m.subseq).unwrap();
        let expect = dtw_normalized(&q, vals, b.config().window);
        assert!((m.dist - expect).abs() < 1e-9);
    }

    #[test]
    fn exact_mode_rejects_unknown_length() {
        let b = base();
        let mut proc = Searcher::new(&b);
        let err = proc
            .best_match(&[0.1, 0.2], MatchMode::Exact(999), None)
            .unwrap_err();
        assert_eq!(err, OnexError::NoGroupsForLength(999));
    }

    #[test]
    fn invalid_queries_rejected() {
        let b = base();
        let mut proc = Searcher::new(&b);
        assert!(proc.best_match(&[], MatchMode::Any, None).is_err());
        assert!(proc
            .best_match(&[f64::NAN, 0.0], MatchMode::Any, None)
            .is_err());
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let b = base();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[0..12].to_vec();
        let mut proc = Searcher::new(&b);
        let ms = proc.top_k(&q, MatchMode::Exact(12), 5, None).unwrap();
        assert!(!ms.is_empty() && ms.len() <= 5);
        for w in ms.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(
            proc.top_k(&q, MatchMode::Exact(12), 0, None).unwrap(),
            vec![]
        );
    }

    #[test]
    fn walk_finds_planted_best_match() {
        // Hand-crafted dataset: many flat series at distinct levels plus one
        // series containing the query pattern. The planted pattern must be
        // retrieved even though its group has several members.
        let mut series: Vec<TimeSeries> = (0..6)
            .map(|i| TimeSeries::new(vec![0.1 * i as f64; 12]).unwrap())
            .collect();
        series.push(
            TimeSeries::new(vec![
                0.0, 0.1, 0.4, 0.9, 1.0, 0.9, 0.4, 0.1, 0.0, 0.0, 0.0, 0.0,
            ])
            .unwrap(),
        );
        let d = Dataset::new("planted", series);
        let cfg = OnexConfig {
            window: Window::Unconstrained,
            ..OnexConfig::default()
        };
        let b = OnexBase::build_prenormalized(d, cfg).unwrap();
        let q = vec![0.0, 0.1, 0.4, 0.9, 1.0, 0.9, 0.4, 0.1];
        let mut proc = Searcher::new(&b);
        let m = proc.best_match(&q, MatchMode::Exact(8), None).unwrap();
        assert_eq!(m.subseq.series, 6, "must come from the planted series");
        assert!(m.raw_dtw < 0.2, "raw {}", m.raw_dtw);
    }

    #[test]
    fn range_query_verified_results_are_within_threshold() {
        let d = synth::sine_mix(8, 20, 2, 13);
        let cfg = OnexConfig {
            window: Window::Unconstrained,
            ..OnexConfig::default()
        };
        let b = OnexBase::build(&d, cfg).unwrap();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[2..12].to_vec();
        let mut proc = Searcher::new(&b);
        let st = 0.05;
        let verified = proc
            .within_threshold(&q, MatchMode::Exact(10), Some(st), true)
            .unwrap();
        assert!(!verified.is_empty(), "self-similar data yields matches");
        for m in &verified {
            assert!(m.dist <= st + 1e-9);
            // reported distances are true DTW̄
            let vals = b.dataset().subseq(m.subseq).unwrap();
            let expect = dtw_normalized(&q, vals, Window::Unconstrained);
            assert!((m.dist - expect).abs() < 1e-9);
        }
        // sorted ascending
        for w in verified.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn range_query_certified_set_honours_lemma2() {
        // Unverified (certified) members must actually lie within ST of the
        // query — the Lemma 2 guarantee made executable.
        let d = synth::sine_mix(6, 16, 2, 29);
        let cfg = OnexConfig {
            window: Window::Unconstrained,
            ..OnexConfig::default()
        };
        let b = OnexBase::build(&d, cfg).unwrap();
        let q: Vec<f64> = b.dataset().get(1).unwrap().values()[0..8].to_vec();
        let mut proc = Searcher::new(&b);
        let st = b.config().st;
        let certified = proc
            .within_threshold(&q, MatchMode::Exact(8), Some(st), false)
            .unwrap();
        for m in &certified {
            let vals = b.dataset().subseq(m.subseq).unwrap();
            let true_dist = dtw_normalized(&q, vals, Window::Unconstrained);
            assert!(
                true_dist <= st + 1e-9,
                "certified member at DTW̄ {true_dist} > ST {st}"
            );
        }
        // verification can only widen the result set (boundary groups) while
        // keeping every returned distance within ST.
        let verified = proc
            .within_threshold(&q, MatchMode::Exact(8), Some(st), true)
            .unwrap();
        assert!(verified.len() >= certified.len());
    }

    #[test]
    fn range_query_any_length_spans_lengths() {
        let b = base();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[0..10].to_vec();
        let mut proc = Searcher::new(&b);
        let ms = proc
            .within_threshold(&q, MatchMode::Any, Some(0.2), true)
            .unwrap();
        let lengths: std::collections::BTreeSet<u32> = ms.iter().map(|m| m.subseq.len).collect();
        assert!(lengths.len() > 1, "expected matches across lengths");
    }

    #[test]
    fn query_stats_reflect_pruning_work() {
        // On a workload with many representatives, the LB cascade must
        // prune some of them and the stats must account for the work done.
        let d = synth::face(24, 32, 5);
        let b = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[4..20].to_vec();
        let mut proc = Searcher::new(&b);
        let _ = proc.best_match(&q, MatchMode::Exact(16), None).unwrap();
        let s = proc.ctx.stats;
        assert!(s.groups_visited > 0);
        assert_eq!(s.lengths_visited, 1);
        // Every visited representative was either evaluated or pruned (or
        // neither, once the budget ran out): rep work is what the merged
        // counters hold beyond the member work.
        let rep_evals = s.dtw_evals - s.members_examined;
        let rep_prunes = s.lb_prunes - s.members_lb_pruned;
        assert!(rep_evals + rep_prunes <= s.groups_visited, "{s:?}");
        assert!(s.members_examined >= 1);
        // stats reset between queries
        let _ = proc.best_match(&q, MatchMode::Exact(16), None).unwrap();
        assert_eq!(proc.ctx.stats.lengths_visited, 1);
    }

    #[test]
    fn st_override_changes_qualification_not_best_match() {
        // The per-query ST only affects the qualifying/stop logic; the best
        // match itself is a min and must be identical.
        let b = base();
        let q: Vec<f64> = b.dataset().get(2).unwrap().values()[1..13].to_vec();
        let mut proc = Searcher::new(&b);
        let a = proc.best_match(&q, MatchMode::Exact(12), None).unwrap();
        let c = proc
            .best_match(&q, MatchMode::Exact(12), Some(0.9))
            .unwrap();
        assert_eq!(a.subseq, c.subseq);
        assert_eq!(a.raw_dtw, c.raw_dtw);
    }

    #[test]
    fn length_order_matches_paper_strategy() {
        let b = base();
        let order: Vec<usize> = b.lengths_query_order(10).collect();
        // starts at query length, descends to min, then ascends above
        assert_eq!(order[0], 10);
        let min_pos = order.iter().position(|&l| l == 2).unwrap();
        assert!(order[..=min_pos].windows(2).all(|w| w[0] > w[1]));
        assert!(order[min_pos + 1..].windows(2).all(|w| w[0] < w[1]));
        assert_eq!(order.len(), b.indexed_lengths().count());
    }

    #[test]
    fn lb_pruning_toggle_preserves_result() {
        // Disabling the LB cascade changes work done, never the answer.
        let d = synth::face(16, 32, 9);
        let b = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let q: Vec<f64> = b.dataset().get(1).unwrap().values()[2..18].to_vec();
        let mut with = SearchCtx::default();
        let mut without = SearchCtx::default();
        // Pinned sequential: the rep-evaluation comparison below is a
        // cross-run counter identity, which only the sequential scan
        // guarantees (the shared parallel cutoff tightens with timing).
        let p_on = SearchParams {
            query_threads: 1,
            ..SearchParams::from_config(b.config(), None)
        };
        let p_off = SearchParams {
            lb_pruning: false,
            ..p_on
        };
        let m_on = best_match(&b, &q, MatchMode::Exact(16), &p_on, &mut with).unwrap();
        let m_off = best_match(&b, &q, MatchMode::Exact(16), &p_off, &mut without).unwrap();
        assert_eq!(m_on, m_off);
        assert_eq!(without.stats.lb_prunes, 0);
        let rep_evals = |s: &QueryStats| s.dtw_evals - s.members_examined;
        assert!(rep_evals(&without.stats) >= rep_evals(&with.stats));
    }

    #[test]
    fn cascade_toggle_preserves_results_and_reduces_work() {
        // The three pruning levels — full cascade, representative-only LB,
        // no LB at all — must return identical answers for every Class I
        // query form, while total DTW evaluations are monotone in how much
        // of the pipeline is enabled.
        let d = synth::face(24, 32, 5);
        let b = OnexBase::build(&d, OnexConfig::default()).unwrap();
        // Pinned sequential: cross-run eval-count monotonicity is only
        // guaranteed by the deterministic sequential scan.
        let p_full = SearchParams {
            query_threads: 1,
            ..SearchParams::from_config(b.config(), None)
        };
        let p_rep_only = SearchParams {
            cascade: false,
            ..p_full
        };
        let p_off = SearchParams {
            lb_pruning: false,
            ..p_full
        };
        for (sid, lo, hi) in [(0usize, 4usize, 20usize), (5, 0, 16), (11, 8, 24)] {
            let q: Vec<f64> = b.dataset().get(sid).unwrap().values()[lo..hi].to_vec();
            for mode in [MatchMode::Exact(q.len()), MatchMode::Any] {
                let mut evals = Vec::new();
                let mut results = Vec::new();
                for p in [&p_full, &p_rep_only, &p_off] {
                    let mut ctx = SearchCtx::default();
                    results.push((
                        best_match(&b, &q, mode, p, &mut ctx).unwrap(),
                        top_k(&b, &q, mode, 5, p, &mut ctx).unwrap(),
                        within_threshold(&b, &q, mode, true, p, &mut ctx).unwrap(),
                    ));
                    let mut ctx = SearchCtx::default();
                    let _ = best_match(&b, &q, mode, p, &mut ctx).unwrap();
                    evals.push(ctx.stats.dtw_evals);
                }
                assert_eq!(results[0], results[1], "cascade vs rep-only, {mode:?}");
                assert_eq!(results[0], results[2], "cascade vs unpruned, {mode:?}");
                assert!(
                    evals[0] <= evals[1] && evals[1] <= evals[2],
                    "evals not monotone in pruning level: {evals:?}"
                );
            }
        }
    }

    #[test]
    fn cascade_tier_counters_are_consistent_and_fire() {
        let d = synth::face(24, 32, 5);
        let b = OnexBase::build(&d, OnexConfig::default()).unwrap();
        // Longer than the default paa_width so the sketch genuinely
        // reduces and tier 0 is active (it skips at w == len).
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[4..24].to_vec();
        let p = SearchParams::from_config(b.config(), None);
        let mut ctx = SearchCtx::default();
        let _ = top_k(&b, &q, MatchMode::Exact(20), 3, &p, &mut ctx).unwrap();
        let s = ctx.stats;
        // Per-tier counts always account exactly for the aggregate prunes.
        assert_eq!(
            s.lb_prunes,
            s.pruned_paa + s.pruned_kim + s.pruned_keogh_eq + s.pruned_keogh_ec,
            "{s:?}"
        );
        assert!(s.members_lb_pruned <= s.lb_prunes, "{s:?}");
        // On this workload the pipeline does real work at both levels,
        // including the sketch tier in front of everything O(n).
        assert!(s.lb_keogh_evals > 0, "{s:?}");
        assert!(s.lb_prunes > 0, "{s:?}");
        assert!(s.pruned_paa > 0, "tier 0 must fire on this workload: {s:?}");
        assert!(s.early_abandons <= s.dtw_evals);
        // And disabling LB zeroes every cascade counter.
        let mut off = SearchCtx::default();
        let p_off = SearchParams {
            lb_pruning: false,
            ..p
        };
        let _ = top_k(&b, &q, MatchMode::Exact(20), 3, &p_off, &mut off).unwrap();
        let s = off.stats;
        assert_eq!(s.lb_prunes, 0);
        assert_eq!(s.lb_keogh_evals, 0);
        assert_eq!(
            s.pruned_paa + s.pruned_kim + s.pruned_keogh_eq + s.pruned_keogh_ec,
            0
        );
    }

    #[test]
    fn symindex_toggle_preserves_results_and_counters() {
        // The symbolic index only proposes skips that tier 0 would have
        // pruned anyway, so every query class must return identical
        // results AND identical cascade counters with the index on or
        // off — only the index's own counters may differ.
        let d = synth::face(24, 32, 5);
        let b = OnexBase::build(&d, OnexConfig::default()).unwrap();
        // Pinned sequential: the on/off cascade-counter equality below is a
        // cross-run identity only the sequential scan guarantees.
        let p_on = SearchParams {
            query_threads: 1,
            ..SearchParams::from_config(b.config(), None)
        };
        let p_off = SearchParams {
            symindex: false,
            ..p_on
        };
        let mut any_skips = false;
        for (sid, lo, hi) in [(0usize, 4usize, 24usize), (5, 0, 20), (11, 8, 28)] {
            let q: Vec<f64> = b.dataset().get(sid).unwrap().values()[lo..hi].to_vec();
            for mode in [MatchMode::Exact(q.len()), MatchMode::Any] {
                for op in 0..4usize {
                    let mut on = SearchCtx::default();
                    let mut off = SearchCtx::default();
                    match op {
                        0 => assert_eq!(
                            best_match(&b, &q, mode, &p_on, &mut on).unwrap(),
                            best_match(&b, &q, mode, &p_off, &mut off).unwrap(),
                            "best_match, {mode:?}"
                        ),
                        1 => assert_eq!(
                            top_k(&b, &q, mode, 5, &p_on, &mut on).unwrap(),
                            top_k(&b, &q, mode, 5, &p_off, &mut off).unwrap(),
                            "top_k, {mode:?}"
                        ),
                        2 => assert_eq!(
                            within_threshold(&b, &q, mode, true, &p_on, &mut on).unwrap(),
                            within_threshold(&b, &q, mode, true, &p_off, &mut off).unwrap(),
                            "range verified, {mode:?}"
                        ),
                        _ => assert_eq!(
                            within_threshold(&b, &q, mode, false, &p_on, &mut on).unwrap(),
                            within_threshold(&b, &q, mode, false, &p_off, &mut off).unwrap(),
                            "range certified, {mode:?}"
                        ),
                    }
                    let mut s = on.stats;
                    any_skips |= s.groups_skipped_by_index > 0;
                    s.index_probes = 0;
                    s.index_candidates = 0;
                    s.index_fallbacks = 0;
                    s.groups_skipped_by_index = 0;
                    assert_eq!(s, off.stats, "cascade counters, op {op}, {mode:?}");
                    assert_eq!(off.stats.groups_skipped_by_index, 0);
                    assert_eq!(off.stats.index_probes, 0);
                    assert_eq!(off.stats.index_fallbacks, 0);
                }
            }
        }
        assert!(any_skips, "the index must certify skips on this workload");
    }

    #[test]
    fn certified_range_query_reports_rep_derived_distances() {
        // Regression pin for the certified (verify = false) fast path:
        // each member's `dist`/`raw_dtw` are the *representative's* DTW to
        // the query (the member itself is never evaluated — Lemma 2
        // certifies it), so `dist == rep_dist` exactly and `raw_dtw`
        // recomputes as DTW(q, representative), not DTW(q, member).
        let d = synth::sine_mix(6, 16, 2, 29);
        let cfg = OnexConfig {
            window: Window::Unconstrained,
            ..OnexConfig::default()
        };
        let b = OnexBase::build(&d, cfg).unwrap();
        let q: Vec<f64> = b.dataset().get(1).unwrap().values()[0..8].to_vec();
        let mut proc = Searcher::new(&b);
        let certified = proc
            .within_threshold(&q, MatchMode::Exact(8), None, false)
            .unwrap();
        assert!(!certified.is_empty(), "self-similar data certifies groups");
        for m in &certified {
            assert_eq!(m.dist, m.rep_dist, "certified dist is the rep's");
            let rep = b.group(m.group).representative();
            let rep_raw = onex_dist::dtw(&q, rep, Window::Unconstrained);
            assert!(
                (m.raw_dtw - rep_raw).abs() < 1e-9,
                "certified raw_dtw {} must be the rep's raw DTW {}",
                m.raw_dtw,
                rep_raw
            );
        }
    }

    #[test]
    fn max_dtw_cap_truncates_but_returns() {
        let b = base();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[0..12].to_vec();
        let p = SearchParams {
            max_dtw_evals: Some(2),
            ..SearchParams::from_config(b.config(), None)
        };
        let mut ctx = SearchCtx::default();
        let m = best_match(&b, &q, MatchMode::Exact(12), &p, &mut ctx);
        assert!(
            ctx.stats.truncated,
            "a 2-eval budget must truncate this search"
        );
        // Anytime semantics: whatever was found within budget is returned.
        if let Ok(m) = m {
            assert!(m.dist.is_finite());
        }
        assert!(ctx.stats.dtw_evals <= 3, "{:?}", ctx.stats);
    }

    #[test]
    fn expired_deadline_latches_truncated() {
        let b = base();
        let q: Vec<f64> = b.dataset().get(0).unwrap().values()[0..12].to_vec();
        let p = SearchParams {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..SearchParams::from_config(b.config(), None)
        };
        let mut ctx = SearchCtx::default();
        let _ = best_match(&b, &q, MatchMode::Exact(12), &p, &mut ctx);
        assert!(ctx.stats.truncated);
    }
}
