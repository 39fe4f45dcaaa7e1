//! The **ONEX base**: the compact knowledge base produced by the offline
//! step (§4) — the columnar group store, the symbolic index and the
//! SP-Space, computed on first read — plus the normalized dataset they
//! index.

use crate::build::{def8_violation, strict_limit, Assigner};
use crate::index::critical_thresholds;
use crate::maintain::Predecessor;
use crate::store::{GroupStore, LengthSlab, StoreFootprint};
use crate::symindex::SymIndex;
use crate::{BuildMode, Group, GroupId, OnexConfig, OnexError, Result, SpSpace};
use onex_ts::normalize::{min_max, MinMaxParams};
use onex_ts::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Summary statistics of a base — the quantities of the paper's Table 4 and
/// Figs. 5–6, plus the columnar-store accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaseStats {
    /// Total number of representatives (= groups) across all lengths.
    pub representatives: usize,
    /// Total number of subsequences covered (members across all groups).
    pub subsequences: usize,
    /// Number of distinct lengths indexed.
    pub lengths: usize,
    /// GTI footprint in bytes: the store's flat directory from group id to
    /// length and slab position. §4.3's `Dc` matrices are not stored; see
    /// [`crate::index`].
    pub gti_bytes: usize,
    /// LSI footprint in bytes: the per-length slabs (member lists,
    /// representative/envelope/sum/sketch/word planes) and the slab table.
    pub lsi_bytes: usize,
    /// Bytes held in the contiguous per-length f64 slabs (representatives,
    /// envelope planes, running sums) — the cache-resident scan surface.
    pub slab_bytes: usize,
    /// Bytes held in the PAA sketch planes (representative/envelope sketch
    /// slabs plus per-group member sketch planes) — the cascade's tier-0
    /// scan surface.
    pub sketch_bytes: usize,
    /// Bytes held in the symbolic layer: the per-slab SAX word planes plus
    /// the per-length [`crate::symindex::SymIndex`] probe structures
    /// (sorted order, prefix hierarchy, bucket envelopes).
    pub symindex_bytes: usize,
    /// Heap allocations backing the group store. The columnar layout pays
    /// a handful per *length*; the old array-of-structs layout paid ~5 per
    /// *group*.
    pub store_allocations: usize,
}

impl BaseStats {
    /// Total index footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.gti_bytes + self.lsi_bytes
    }

    /// Total index footprint in MB (as Table 4 reports it).
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Cardinality reduction factor: subsequences per representative.
    pub fn reduction_factor(&self) -> f64 {
        if self.representatives == 0 {
            0.0
        } else {
            self.subsequences as f64 / self.representatives as f64
        }
    }
}

/// The membership partition at one length: the slab's member refs are
/// exactly the refs [`Dataset::subseqs_of_len`] yields, none lost,
/// duplicated or invented. Every ref that iterator can yield has a slot,
/// its series' offset plus `start / start_stride`. So "every member is such
/// a ref, no slot is marked twice, and the marked count is the total" is
/// equality of the two sorted lists, in one pass and without a sort.
fn check_partition(dataset: &Dataset, start_stride: usize, slab: &LengthSlab) -> Result<()> {
    let len = slab.subseq_len();
    let viol = |msg: String| OnexError::InvariantViolation(format!("length {len}: {msg}"));
    if start_stride == 0 {
        return Err(viol("start stride 0".into()));
    }
    let mut offsets = Vec::with_capacity(dataset.len());
    let mut total = 0usize;
    for ts in dataset.series() {
        offsets.push(total);
        if ts.len() >= len {
            total += (ts.len() - len) / start_stride + 1;
        }
    }
    let mut seen = vec![false; total];
    let mut marked = 0usize;
    for local in 0..slab.group_count() {
        for &(r, _) in slab.members(local) {
            let (series, start) = (r.series as usize, r.start as usize);
            let yielded = r.len as usize == len
                && start % start_stride == 0
                && dataset
                    .series()
                    .get(series)
                    .is_some_and(|ts| start + len <= ts.len());
            if !yielded {
                return Err(viol(format!(
                    "member ({}, {}, {}) is not a subsequence the decomposition yields",
                    r.series, r.start, r.len
                )));
            }
            if std::mem::replace(&mut seen[offsets[series] + start / start_stride], true) {
                return Err(viol(format!(
                    "member ({}, {}, {}) is held twice",
                    r.series, r.start, r.len
                )));
            }
            marked += 1;
        }
    }
    if marked != total {
        return Err(viol(format!(
            "groups hold {marked} members but the dataset decomposes into {total} subsequences"
        )));
    }
    Ok(())
}

/// The SP-Space of a base, filled on first read: the whole space, and
/// each length's `(ST_half, ST_final)` on its own, index-aligned with the
/// store's slabs, so a one-length recommendation runs one merge cascade.
/// Equality ignores it: it is a pure function of the slabs and `st`, so
/// two bases that compare equal otherwise hold the same SP-Space whether
/// or not either has computed it.
#[derive(Debug, Clone, Default)]
struct SpMemo(OnceLock<SpSpace>, Vec<OnceLock<(f64, f64)>>);

impl PartialEq for SpMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The ONEX base: normalized dataset + columnar group store + indexes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnexBase {
    dataset: Dataset,
    norm: Option<MinMaxParams>,
    config: OnexConfig,
    store: GroupStore,
    sym: BTreeMap<usize, SymIndex>,
    sp: SpMemo,
}

impl OnexBase {
    /// Builds a base from *raw* data: min-max normalizes the dataset (§6.1)
    /// and runs Algorithm 1 over the normalized copy. The normalization
    /// parameters are retained so raw query sequences can be projected with
    /// [`OnexBase::normalize_query`].
    pub fn build(dataset: &Dataset, config: OnexConfig) -> Result<Self> {
        config.validate()?;
        let (normalized, params) = min_max(dataset)?;
        let mut base = Self::build_prenormalized(normalized, config)?;
        base.norm = Some(params);
        Ok(base)
    }

    /// Builds a base over data that is *already* normalized (values expected
    /// in `[0, 1]`, though nothing enforces it — the threshold semantics
    /// simply assume it).
    pub fn build_prenormalized(dataset: Dataset, config: OnexConfig) -> Result<Self> {
        config.validate()?;
        let slabs = crate::build::build_base(&dataset, &config);
        Ok(Self::assemble(dataset, None, config, slabs))
    }

    /// Assembles a base from per-length slabs (shared by construction,
    /// refinement, snapshot decoding and maintenance). Empty slabs are
    /// dropped; group ids are assigned contiguously in ascending-length,
    /// local order.
    pub(crate) fn assemble(
        dataset: Dataset,
        norm: Option<MinMaxParams>,
        config: OnexConfig,
        slabs: Vec<LengthSlab>,
    ) -> Self {
        let store = GroupStore::from_slabs(slabs);
        let sym = store
            .slabs()
            .iter()
            .map(|slab| (slab.subseq_len(), SymIndex::build(slab)))
            .collect();
        let per_length = store.slabs().iter().map(|_| OnceLock::new()).collect();
        OnexBase {
            dataset,
            norm,
            config,
            store,
            sym,
            sp: SpMemo(OnceLock::new(), per_length),
        }
    }

    /// The (normalized) dataset the base indexes.
    #[inline]
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The construction configuration.
    #[inline]
    pub fn config(&self) -> &OnexConfig {
        &self.config
    }

    /// Normalization parameters, when the base was built from raw data.
    #[inline]
    pub fn normalizer(&self) -> Option<&MinMaxParams> {
        self.norm.as_ref()
    }

    /// Projects a raw query sequence into the base's normalized value space
    /// (identity when the base was built over pre-normalized data).
    pub fn normalize_query(&self, raw: &[f64]) -> Vec<f64> {
        match &self.norm {
            Some(p) => p.apply_seq(raw),
            None => raw.to_vec(),
        }
    }

    /// The columnar group store.
    #[inline]
    pub fn store(&self) -> &GroupStore {
        &self.store
    }

    /// The group slab for one subsequence length — the contiguous scan
    /// surface the query hot loops walk. [`GroupStore::slab_for_len`] also
    /// gives the id of its first group.
    #[inline]
    pub fn slab(&self, len: usize) -> Option<&LengthSlab> {
        self.store.slab_for_len(len).map(|(_, slab)| slab)
    }

    /// Views of all groups, in [`GroupId`] order.
    pub fn groups(&self) -> impl Iterator<Item = Group<'_>> {
        self.store.groups()
    }

    /// One group by id.
    #[inline]
    pub fn group(&self, id: GroupId) -> Group<'_> {
        self.store.group(id)
    }

    /// The symbolic word index for a length — the coarse-to-fine SAX
    /// hierarchy over that slab's sketch planes.
    #[inline]
    pub fn sym_index(&self, len: usize) -> Option<&SymIndex> {
        self.sym.get(&len)
    }

    /// All indexed lengths, ascending.
    pub fn indexed_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.store.slabs().iter().map(LengthSlab::subseq_len)
    }

    /// Indexed lengths in the §5.3 any-length search order for a query of
    /// `qlen` samples: the query length (when indexed) first, then
    /// decreasing to the smallest, then increasing above the query length.
    /// Walks the slab table directly — no allocation on the query path.
    pub fn lengths_query_order(&self, qlen: usize) -> impl Iterator<Item = usize> + '_ {
        let slabs = self.store.slabs();
        let split = slabs.partition_point(|slab| slab.subseq_len() <= qlen);
        slabs[..split]
            .iter()
            .rev()
            .chain(&slabs[split..])
            .map(LengthSlab::subseq_len)
    }

    /// The Similarity Parameter Space (§4.2), computed on the first call
    /// (one merge cascade per length, see [`crate::index`]) and kept for
    /// the base's lifetime.
    pub fn sp_space(&self) -> &SpSpace {
        self.sp.0.get_or_init(|| {
            SpSpace::new(
                (0..self.store.slabs().len())
                    .map(|si| self.thresholds_at(si))
                    .collect(),
            )
        })
    }

    /// One length's `(ST_half, ST_final)` — [`SpSpace::local`] without
    /// the other lengths' merge cascades: computed on the first call for
    /// this length and kept, like the whole space. `None` when the length
    /// is not indexed.
    pub fn sp_local(&self, len: usize) -> Option<(f64, f64)> {
        let si = self
            .store
            .slabs()
            .binary_search_by_key(&len, LengthSlab::subseq_len)
            .ok()?;
        Some(self.thresholds_at(si).1)
    }

    /// The length and memoised critical thresholds of slab `si`.
    fn thresholds_at(&self, si: usize) -> (usize, (f64, f64)) {
        let slab = &self.store.slabs()[si];
        let pair = *self.sp.1[si].get_or_init(|| critical_thresholds(slab, self.config.st));
        (slab.subseq_len(), pair)
    }

    /// Validates that the base is non-empty, returning [`OnexError::EmptyBase`]
    /// otherwise — query entry points call this.
    pub fn ensure_nonempty(&self) -> Result<()> {
        if self.store.group_count() == 0 {
            Err(OnexError::EmptyBase)
        } else {
            Ok(())
        }
    }

    /// Deep structural audit of the whole base — the runtime half of the
    /// correctness tooling (the static half is the compiler's lint set; see
    /// the `onex` crate docs).
    ///
    /// Where the snapshot CRC detects *transport* corruption, this detects
    /// *logic* corruption: state that is internally decodable but violates
    /// the invariants the query path assumes. It validates, from the bottom
    /// up:
    ///
    /// * the store's slab table and directory
    ///   ([`crate::store::GroupStore::validate_table`]);
    /// * every [`LengthSlab`] — plane strides, member resolution, running
    ///   sums, and bit-exact recomputes of representatives, member EDs,
    ///   envelopes and every PAA sketch plane (see [`LengthSlab::validate`]
    ///   for the catalog);
    /// * the symbolic index map covers exactly the slab lengths, each
    ///   [`SymIndex`] rebuilt from its slab's word planes and compared
    ///   bit-exactly (word spec, sorted order, prefix hierarchy, bucket
    ///   envelopes), and each slab's word plane recomputed word-by-word
    ///   from the sketch planes (see [`LengthSlab::validate`]);
    /// * every group of an assembled base is finalized;
    /// * in [`BuildMode::Strict`], Def. 8: every member of a multi-member
    ///   group lies within the raw limit `√L · ST/2` of its representative;
    /// * each slab's sketch width is `clamp(config.paa_width, 1, len)`;
    /// * **membership partition**: the member references at each length are
    ///   exactly the dataset's decomposed subsequences of that length — no
    ///   subsequence lost, duplicated, or invented.
    ///
    /// Callable from tests and the `repro audit` subcommand; snapshot
    /// loading runs every check but Def. 8 after the CRC check and then
    /// repairs Def. 8 instead (see [`crate::snapshot`]), and the
    /// maintenance paths re-run it in debug builds. Cost is roughly a base
    /// rebuild, spread over the `config.threads` workers one length per task
    /// — use it at trust boundaries, not on the per-query path. When several
    /// lengths fail, the error names the smallest of them, at any worker
    /// count.
    ///
    /// [`LengthSlab::validate`]: crate::store::LengthSlab::validate
    pub fn validate_invariants(&self) -> Result<()> {
        self.audit(true)
    }

    /// Every check of [`OnexBase::validate_invariants`] except Def. 8 —
    /// what snapshot loading audits before [`OnexBase::close_def8`].
    pub(crate) fn validate_structure(&self) -> Result<()> {
        self.audit(false)
    }

    /// The deep audit: the slab table and the symbolic-index map, then one
    /// task per length on the [`crate::pool`] (`config.threads` workers),
    /// then the total cover. With `def8`, each length's task ends with the
    /// Def. 8 check of a Strict base. When several lengths fail, the error
    /// is the smallest failing length's, at any worker count.
    fn audit(&self, def8: bool) -> Result<()> {
        let viol = |msg: String| OnexError::InvariantViolation(msg);
        self.store.validate_table()?;
        let slabs = self.store.slabs();
        let slab_lens: Vec<usize> = slabs.iter().map(LengthSlab::subseq_len).collect();
        let sym_lens: Vec<usize> = self.sym.keys().copied().collect();
        if slab_lens != sym_lens {
            return Err(viol(format!(
                "symbolic-index lengths {sym_lens:?} disagree with slab lengths {slab_lens:?}"
            )));
        }
        let expected = self.dataset.subseq_count(&self.config.decomposition);
        let workers = crate::pool::length_workers(self.config.threads, slabs.len(), expected);
        let verdicts = crate::pool::per_length(
            slabs.iter().collect(),
            workers,
            |slab| self.audit_length(slab, def8),
            |verdict| verdict,
        );
        verdicts.into_iter().collect::<Result<()>>()?;
        let covered: usize = slabs.iter().map(LengthSlab::total_members).sum();
        if covered != expected {
            return Err(viol(format!(
                "store covers {covered} subsequences but the decomposition yields {expected}"
            )));
        }
        Ok(())
    }

    /// One length's share of [`OnexBase::audit`].
    fn audit_length(&self, slab: &LengthSlab, def8: bool) -> Result<()> {
        let viol = |msg: String| OnexError::InvariantViolation(msg);
        let len = slab.subseq_len();
        slab.validate(&self.dataset)?;
        let want_w = self.config.paa_width.clamp(1, len.max(1));
        if slab.paa_width() != want_w {
            return Err(viol(format!(
                "slab len {len}: sketch width {} but config resolves to {want_w}",
                slab.paa_width()
            )));
        }
        if slab.word_spec().alphabet() != self.config.sax_alphabet {
            return Err(viol(format!(
                "slab len {len}: word alphabet {} but config says {}",
                slab.word_spec().alphabet(),
                self.config.sax_alphabet
            )));
        }
        for local in 0..slab.group_count() {
            if !slab.is_finalized(local) {
                return Err(viol(format!(
                    "length {len}: group {local} of an assembled base is not finalized"
                )));
            }
        }
        self.sym[&len].validate(slab)?;
        check_partition(&self.dataset, self.config.decomposition.start_stride, slab)?;
        if def8 && self.config.build_mode == BuildMode::Strict {
            if let Some((local, r, d)) = def8_violation(slab, self.config.st) {
                return Err(viol(format!(
                    "length {len}: group {local} member {r:?} lies at raw ED {d} from its \
                     representative, beyond the Strict limit {}",
                    strict_limit(len, self.config.st)
                )));
            }
        }
        Ok(())
    }

    /// Base statistics (Table 4 / Figs. 5–6 quantities plus store
    /// accounting).
    pub fn stats(&self) -> BaseStats {
        let fp = self.store.footprint();
        BaseStats {
            representatives: self.store.group_count(),
            subsequences: fp.per_length.iter().map(|l| l.members).sum(),
            lengths: fp.per_length.len(),
            gti_bytes: fp.directory_bytes,
            lsi_bytes: fp.total_bytes() - fp.directory_bytes,
            slab_bytes: fp.slab_bytes(),
            sketch_bytes: fp.sketch_bytes(),
            symindex_bytes: fp.word_bytes()
                + self.sym.values().map(SymIndex::size_bytes).sum::<usize>(),
            store_allocations: fp.allocations(),
        }
    }

    /// The predecessor maintenance builds a successor from, leaving this
    /// (live, shared) base intact: copies of the dataset and the slabs.
    pub(crate) fn to_predecessor(&self) -> Predecessor {
        Predecessor {
            dataset: self.dataset.clone(),
            norm: self.norm,
            config: self.config,
            slabs: self.store.slabs().to_vec(),
        }
    }

    /// The predecessor maintenance builds a successor from, consuming this
    /// base (journal replay): nothing is copied.
    pub(crate) fn into_predecessor(self) -> Predecessor {
        Predecessor {
            dataset: self.dataset,
            norm: self.norm,
            config: self.config,
            slabs: self.store.into_slabs(),
        }
    }

    /// This base with every length whose groups break Def. 8 in
    /// [`BuildMode::Strict`] closed through the Strict repair, as
    /// construction closes a length; any other base comes back as it is.
    /// This version builds no such base, but earlier versions saved them
    /// (their refine merges skipped the repair, and its last round did not
    /// re-check the groups it shrank), and maintenance relies on Def. 8
    /// holding on input. Snapshot loading runs it after the structural
    /// audit, so those snapshots still load.
    pub(crate) fn close_def8(self) -> Self {
        let (st, strict) = (self.config.st, self.config.build_mode == BuildMode::Strict);
        let broken = |slab: &LengthSlab| def8_violation(slab, st).is_some();
        if !strict || !self.store.slabs().iter().any(broken) {
            return self;
        }
        let OnexBase {
            dataset,
            norm,
            config,
            store,
            ..
        } = self;
        let slabs = store
            .into_slabs()
            .into_iter()
            .map(|slab| {
                if broken(&slab) {
                    Assigner::with_slab(st, slab).finish(&dataset, &config)
                } else {
                    slab
                }
            })
            .collect();
        Self::assemble(dataset, norm, config, slabs)
    }

    /// Detailed per-length memory accounting of the columnar store: slab
    /// bytes per plane, member bytes, and allocation counts, one entry per
    /// indexed length.
    pub fn footprint(&self) -> StoreFootprint {
        self.store.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_ts::synth;

    fn small_base() -> OnexBase {
        let d = synth::sine_mix(6, 16, 2, 3);
        OnexBase::build(&d, OnexConfig::default()).unwrap()
    }

    #[test]
    fn build_normalizes_and_indexes_every_length() {
        let base = small_base();
        assert!(base.normalizer().is_some());
        // lengths 2..=16
        let lengths: Vec<usize> = base.indexed_lengths().collect();
        assert_eq!(lengths, (2..=16).collect::<Vec<_>>());
        // normalized data in [0,1]
        assert!(base.dataset().global_min() >= 0.0);
        assert!(base.dataset().global_max() <= 1.0);
        base.ensure_nonempty().unwrap();
    }

    #[test]
    fn stats_account_for_every_subsequence() {
        let base = small_base();
        let stats = base.stats();
        assert_eq!(
            stats.subsequences,
            base.dataset().subseq_count(&base.config().decomposition)
        );
        assert!(stats.representatives > 0);
        assert!(stats.representatives <= stats.subsequences);
        assert!(stats.gti_bytes > 0 && stats.lsi_bytes > 0);
        assert!(stats.total_mb() > 0.0);
        assert!(stats.reduction_factor() >= 1.0);
        // columnar accounting: slabs and sketches are subsets of the LSI
        // bytes, and the whole store costs a handful of allocations per
        // length plus one per member list and one per sketch plane.
        assert!(stats.slab_bytes > 0 && stats.slab_bytes <= stats.lsi_bytes);
        assert!(stats.sketch_bytes > 0 && stats.sketch_bytes <= stats.lsi_bytes);
        assert!(stats.slab_bytes + stats.sketch_bytes <= stats.lsi_bytes);
        assert!(stats.symindex_bytes > 0);
        assert!(stats.store_allocations >= 15 * stats.lengths);
        assert!(stats.store_allocations <= 15 * stats.lengths + 3 * stats.representatives + 2);
    }

    #[test]
    fn footprint_covers_every_indexed_length() {
        let base = small_base();
        let fp = base.footprint();
        assert_eq!(fp.per_length.len(), base.indexed_lengths().count());
        for (entry, len) in fp.per_length.iter().zip(base.indexed_lengths()) {
            assert_eq!(entry.len, len);
            assert!(entry.groups > 0);
            // each rep row is len f64s; the slab holds groups of them
            assert!(entry.rep_slab_bytes >= entry.groups * len * 8);
            assert!(entry.envelope_slab_bytes >= 2 * entry.groups * len * 8);
        }
        assert_eq!(fp.groups(), base.stats().representatives);
        assert_eq!(fp.total_bytes(), base.stats().total_bytes());
    }

    #[test]
    fn group_ids_are_consistent_with_length_indexes() {
        let base = small_base();
        let mut next: GroupId = 0;
        for len in base.indexed_lengths() {
            let (first, slab) = base.store().slab_for_len(len).unwrap();
            assert_eq!(first, next, "ids ascend contiguously across lengths");
            next += slab.group_count() as GroupId;
            for id in first..next {
                assert_eq!(base.group(id).len_of_members(), len);
            }
        }
        assert_eq!(next as usize, base.stats().representatives);
    }

    #[test]
    fn slab_lookup_matches_length_index() {
        let base = small_base();
        for len in base.indexed_lengths() {
            let (first, slab) = base.store().slab_for_len(len).unwrap();
            assert_eq!(base.slab(len), Some(slab));
            assert_eq!(slab.subseq_len(), len);
            // id-addressed view and slab rows agree
            for local in 0..slab.group_count() {
                let gid = first + local as GroupId;
                assert_eq!(base.group(gid).representative(), slab.rep_row(local));
            }
        }
        assert!(base.slab(999).is_none());
    }

    /// Reading the SP-Space fills a memo that equality does not see: a
    /// base that answered a recommendation equals its untouched clone, and
    /// both hold the thresholds a fresh computation gives.
    #[test]
    fn sp_memo_is_invisible_to_equality() {
        let base = small_base();
        let untouched = base.clone();
        crate::query::recommend_impl(&base, None, None).unwrap();
        assert!(base.sp.0.get().is_some() && untouched.sp.0.get().is_none());
        assert!(base == untouched);
        assert_eq!(base.sp_space(), untouched.sp_space());
        let filled = base.clone();
        assert_eq!(filled.sp_space(), small_base().sp_space());
    }

    /// Construction and the deep audit fan out one length per task, yet
    /// the base — slabs, snapshot bytes, SP-Space bits and audit verdict —
    /// is the same at every thread count. With two lengths corrupted, every
    /// count reports the smaller one, exactly as the sequential audit does.
    #[test]
    fn same_base_at_any_thread_count() {
        let d = synth::sine_mix(8, 24, 3, 11);
        let at = |threads: usize| {
            OnexBase::build(
                &d,
                OnexConfig {
                    threads,
                    ..OnexConfig::default()
                },
            )
            .unwrap()
        };
        let sp_bits = |b: &OnexBase| -> Vec<u64> {
            let sp = b.sp_space();
            let mut bits = vec![sp.global_half().to_bits(), sp.global_final().to_bits()];
            for len in b.indexed_lengths() {
                let (h, f) = sp.local(len).unwrap();
                bits.extend([h.to_bits(), f.to_bits()]);
            }
            bits
        };
        // Two lengths broken the same way: a non-finalized extra group
        // holding a subsequence its length already covers.
        let corrupted = |b: OnexBase| {
            let mut slabs = b.store.slabs().to_vec();
            for slab in slabs
                .iter_mut()
                .filter(|s| [17, 9].contains(&s.subseq_len()))
            {
                let r = slab.members(0)[0].0;
                slab.seed(r, b.dataset.subseq_unchecked(r));
            }
            OnexBase::assemble(b.dataset, b.norm, b.config, slabs)
        };
        let one = at(1);
        let want_err = corrupted(one.clone()).validate_invariants().unwrap_err();
        assert!(want_err.to_string().contains("length 9:"), "{want_err}");
        for threads in [1, 2, 4] {
            let b = at(threads);
            assert_eq!(b.config.threads, threads);
            assert_eq!(b.store.slabs(), one.store.slabs(), "{threads} threads");
            assert_eq!(b.stats(), one.stats(), "{threads} threads");
            assert_eq!(
                crate::snapshot::encode(&b),
                crate::snapshot::encode(&one),
                "{threads} threads"
            );
            assert_eq!(sp_bits(&b), sp_bits(&one), "{threads} threads");
            b.validate_invariants().unwrap();
            let err = corrupted(b).validate_invariants().unwrap_err();
            assert_eq!(err.to_string(), want_err.to_string(), "{threads} threads");
        }
    }

    #[test]
    fn fresh_base_passes_deep_validation() {
        small_base().validate_invariants().unwrap();
    }

    #[test]
    fn validation_names_the_broken_invariant() {
        // Corrupt a base by pairing its store with a dataset missing a
        // series: member references stop resolving, which the validator —
        // not the type system, not the CRC — must catch.
        let base = small_base();
        let mut series: Vec<onex_ts::TimeSeries> = (0..base.dataset().len() - 1)
            .map(|i| base.dataset().get(i).unwrap().clone())
            .collect();
        series.pop();
        let OnexBase {
            norm,
            config,
            store,
            ..
        } = base;
        let broken = OnexBase {
            dataset: Dataset::new("truncated", series),
            norm,
            config,
            store,
            sym: BTreeMap::new(),
            sp: SpMemo::default(),
        };
        let err = broken.validate_invariants().unwrap_err();
        assert!(matches!(err, OnexError::InvariantViolation(_)), "{err}");
        assert!(err.to_string().contains("invariant violation"), "{err}");
    }

    /// One length-`len` slab holding a singleton group per ref (values read
    /// from `built_on`), assembled over `dataset`. Store and symbolic index
    /// are consistent with the slab, so only the refs can be wrong.
    fn singleton_base(
        dataset: &Dataset,
        built_on: &Dataset,
        config: OnexConfig,
        len: usize,
        refs: &[onex_ts::SubseqRef],
    ) -> OnexBase {
        let mut slab = LengthSlab::new(len, config.paa_width.clamp(1, len), config.sax_alphabet);
        for &r in refs {
            let local = slab.seed(r, built_on.subseq(r).unwrap());
            slab.finalize(local, built_on, 1);
        }
        OnexBase::assemble(dataset.clone(), None, config, vec![slab])
    }

    #[test]
    fn membership_partition_rejects_every_broken_cover() {
        let len = 4;
        let config = OnexConfig {
            decomposition: onex_ts::Decomposition {
                min_len: len,
                max_len: Some(len),
                len_stride: 1,
                start_stride: 2,
            },
            ..OnexConfig::default()
        };
        let d = synth::sine_mix(3, 10, 2, 5);
        let refs: Vec<onex_ts::SubseqRef> = d.subseqs_of_len(len, &config.decomposition).collect();
        singleton_base(&d, &d, config, len, &refs)
            .validate_invariants()
            .unwrap();

        let series: Vec<onex_ts::TimeSeries> = d.series().to_vec();
        let short_first = {
            let mut s = series.clone();
            let vals = s[0].values()[..s[0].len() - 1].to_vec();
            s[0] = onex_ts::TimeSeries::new(vals).unwrap();
            Dataset::new("short-first", s)
        };
        let fewer_series = Dataset::new("fewer-series", series[..series.len() - 1].to_vec());
        let duplicated = [&refs[..], &refs[..1]].concat();
        let dropped = refs[..refs.len() - 1].to_vec();
        let dup_for_another = {
            let mut r = refs.clone();
            r[1] = r[0];
            r
        };
        let off_stride = {
            let mut r = refs.clone();
            r[1].start += 1;
            r
        };
        let cases: [(&str, &Dataset, &[onex_ts::SubseqRef]); 6] = [
            ("duplicated member", &d, &duplicated),
            ("duplicate for another", &d, &dup_for_another),
            ("dropped member", &d, &dropped),
            ("start off the stride", &d, &off_stride),
            ("ref past its series' end", &short_first, &refs),
            ("series out of range", &fewer_series, &refs),
        ];
        for (what, dataset, refs) in cases {
            let base = singleton_base(dataset, &d, config, len, refs);
            // Through the whole audit (the store's resolve check fires first
            // on the last two), then the partition check on its own.
            let whole = base.validate_invariants().unwrap_err();
            let alone = check_partition(dataset, 2, &base.store().slabs()[0]).unwrap_err();
            for err in [whole, alone] {
                let msg = err.to_string();
                assert!(
                    matches!(err, OnexError::InvariantViolation(_)),
                    "{what}: {msg}"
                );
                assert!(
                    msg.contains(&format!("len {len}")) || msg.contains(&format!("length {len}")),
                    "{what}: the error does not name length {len}: {msg}"
                );
            }
        }
    }

    #[test]
    fn validation_checks_def8_in_strict_mode_only() {
        // Paper mode admits against the running mean, so members drift
        // past ST/2 of the final representative; the same groups labelled
        // Strict break Def. 8.
        let d = synth::random_walk(6, 24, 5);
        let paper = OnexConfig {
            build_mode: BuildMode::Paper,
            ..OnexConfig::with_st(0.1)
        };
        let mut base = OnexBase::build(&d, paper).unwrap();
        base.validate_invariants().unwrap();
        base.config.build_mode = BuildMode::Strict;
        let err = base.validate_invariants().unwrap_err();
        assert!(err.to_string().contains("beyond the Strict limit"), "{err}");
    }

    #[test]
    fn normalize_query_round_trip() {
        let base = small_base();
        let raw = vec![0.0, 0.5, 1.0];
        let q = base.normalize_query(&raw);
        assert_eq!(q.len(), 3);
        let p = base.normalizer().unwrap();
        assert!((p.invert(q[1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let d = synth::sine_mix(4, 8, 2, 1);
        assert!(OnexBase::build(&d, OnexConfig::with_st(-1.0)).is_err());
    }

    #[test]
    fn empty_dataset_fails_normalization() {
        let d = Dataset::new("empty", vec![]);
        assert!(OnexBase::build(&d, OnexConfig::default()).is_err());
    }

    #[test]
    fn prenormalized_skips_normalization() {
        let d = synth::sine_mix(4, 8, 2, 1);
        let base = OnexBase::build_prenormalized(d, OnexConfig::default()).unwrap();
        assert!(base.normalizer().is_none());
        // query normalization becomes identity
        assert_eq!(base.normalize_query(&[1.0, 2.0]), vec![1.0, 2.0]);
    }
}
