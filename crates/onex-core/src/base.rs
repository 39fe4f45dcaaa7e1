//! The **ONEX base**: the compact knowledge base produced by the offline
//! step (§4) — the columnar group store, the per-length GTI entries, and
//! the SP-Space — plus the normalized dataset they index.

use crate::build::{def8_violation, strict_limit, Assigner};
use crate::index::{LengthIndex, Reuse};
use crate::maintain::Predecessor;
use crate::store::{GroupStore, LengthSlab, StoreFootprint};
use crate::symindex::SymIndex;
use crate::{BuildMode, Group, GroupId, OnexConfig, OnexError, Result, SpSpace};
use onex_ts::normalize::{min_max, MinMaxParams};
use onex_ts::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    /// GTI footprint in bytes (group-id vectors, `Dc` matrices, sum arrays,
    /// thresholds).
    pub gti_bytes: usize,
    /// LSI footprint in bytes (member lists, representative/envelope/sum
    /// slabs).
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

/// Slabs for [`OnexBase::assemble`] with no predecessor base to reuse from.
pub(crate) fn without_reuse(slabs: Vec<LengthSlab>) -> Vec<(LengthSlab, Option<Reuse<'static>>)> {
    slabs.into_iter().map(|slab| (slab, None)).collect()
}

/// The ONEX base: normalized dataset + columnar group store + indexes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnexBase {
    dataset: Dataset,
    norm: Option<MinMaxParams>,
    config: OnexConfig,
    store: GroupStore,
    lengths: BTreeMap<usize, LengthIndex>,
    sym: BTreeMap<usize, SymIndex>,
    sp: SpSpace,
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
        Ok(Self::assemble(dataset, None, config, without_reuse(slabs)))
    }

    /// Assembles a base from per-length slabs (shared by construction,
    /// refinement, snapshot decoding and maintenance), each with what its
    /// GTI entry may reuse from a predecessor base (see
    /// [`LengthIndex::build_reusing`]). Empty slabs are dropped; group ids
    /// are assigned contiguously in ascending-length, local order.
    pub(crate) fn assemble(
        dataset: Dataset,
        norm: Option<MinMaxParams>,
        config: OnexConfig,
        mut slabs: Vec<(LengthSlab, Option<Reuse<'_>>)>,
    ) -> Self {
        slabs.retain(|(slab, _)| !slab.is_empty());
        slabs.sort_by_key(|(slab, _)| slab.subseq_len());
        let (slabs, reuse): (Vec<LengthSlab>, Vec<Option<Reuse<'_>>>) = slabs.into_iter().unzip();
        let store = GroupStore::from_slabs(slabs);
        let mut lengths = BTreeMap::new();
        let mut sym = BTreeMap::new();
        let mut local = BTreeMap::new();
        let mut first_id: GroupId = 0;
        for (slab, reuse) in store.slabs().iter().zip(reuse) {
            let len = slab.subseq_len();
            let ids: Vec<GroupId> = (0..slab.group_count())
                .map(|i| first_id + i as GroupId)
                .collect();
            first_id += slab.group_count() as GroupId;
            let idx = LengthIndex::build_reusing(len, ids, slab, config.st, reuse);
            local.insert(len, (idx.st_half, idx.st_final));
            lengths.insert(len, idx);
            sym.insert(len, SymIndex::build(slab));
        }
        OnexBase {
            dataset,
            norm,
            config,
            store,
            lengths,
            sym,
            sp: SpSpace::new(local),
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
    /// surface the query hot loops walk.
    #[inline]
    pub fn slab(&self, len: usize) -> Option<&LengthSlab> {
        self.store.slab_for_len(len)
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

    /// The GTI entry for a length.
    #[inline]
    pub fn length_index(&self, len: usize) -> Option<&LengthIndex> {
        self.lengths.get(&len)
    }

    /// The symbolic word index for a length — the coarse-to-fine SAX
    /// hierarchy over that slab's sketch planes.
    #[inline]
    pub fn sym_index(&self, len: usize) -> Option<&SymIndex> {
        self.sym.get(&len)
    }

    /// All indexed lengths, ascending.
    pub fn indexed_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.lengths.keys().copied()
    }

    /// Indexed lengths in the §5.3 any-length search order for a query of
    /// `qlen` samples: the query length (when indexed) first, then
    /// decreasing to the smallest, then increasing above the query length.
    /// Walks the length index directly — no allocation on the query path.
    pub fn lengths_query_order(&self, qlen: usize) -> impl Iterator<Item = usize> + '_ {
        use std::ops::Bound;
        self.lengths
            .range(..=qlen)
            .rev()
            .chain(
                self.lengths
                    .range((Bound::Excluded(qlen), Bound::Unbounded)),
            )
            .map(|(&len, _)| len)
    }

    /// All GTI entries, ascending by length.
    pub fn length_indexes(&self) -> impl Iterator<Item = &LengthIndex> {
        self.lengths.values()
    }

    /// The Similarity Parameter Space (§4.2).
    #[inline]
    pub fn sp_space(&self) -> &SpSpace {
        &self.sp
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
    /// correctness tooling (the static half is the `onex-audit` lint pass).
    ///
    /// Where the snapshot CRC detects *transport* corruption, this detects
    /// *logic* corruption: state that is internally decodable but violates
    /// the invariants the query path assumes. It validates, from the bottom
    /// up:
    ///
    /// * every [`LengthSlab`] via [`crate::store::GroupStore::validate`] —
    ///   plane strides, member resolution, running sums, and bit-exact
    ///   recomputes of representatives, member EDs, envelopes and every PAA
    ///   sketch plane (see [`LengthSlab::validate`] for the catalog);
    /// * the store directory is the contiguous ascending-length walk;
    /// * the GTI map covers exactly the slab lengths, each entry rebuilt
    ///   and compared bit-exactly (`Dc`, sum order, critical thresholds);
    /// * the symbolic index map covers exactly the slab lengths, each
    ///   [`SymIndex`] rebuilt from its slab's word planes and compared
    ///   bit-exactly (word spec, sorted order, prefix hierarchy, bucket
    ///   envelopes), and each slab's word plane recomputed word-by-word
    ///   from the sketch planes (see [`LengthSlab::validate`]);
    /// * group ids ascend contiguously across lengths in slab order;
    /// * every group of an assembled base is finalized;
    /// * in [`BuildMode::Strict`], Def. 8: every member of a multi-member
    ///   group lies within the raw limit `√L · ST/2` of its representative;
    /// * each slab's sketch width is `clamp(config.paa_width, 1, len)`;
    /// * the SP-Space's per-length and global thresholds equal the GTI's;
    /// * **membership partition**: the member references at each length are
    ///   exactly the dataset's decomposed subsequences of that length — no
    ///   subsequence lost, duplicated, or invented.
    ///
    /// Callable from tests and the `repro audit` subcommand; snapshot
    /// loading runs every check but Def. 8 after the CRC check and then
    /// repairs Def. 8 instead (see [`crate::snapshot`]), and the
    /// maintenance paths re-run it in debug builds. Cost is roughly a base rebuild — use it
    /// at trust boundaries, not on the per-query path.
    ///
    /// [`LengthSlab::validate`]: crate::store::LengthSlab::validate
    pub fn validate_invariants(&self) -> Result<()> {
        self.validate_structure()?;
        if self.config.build_mode == BuildMode::Strict {
            for slab in self.store.slabs() {
                if let Some((local, r, d)) = def8_violation(slab, self.config.st) {
                    return Err(OnexError::InvariantViolation(format!(
                        "length {}: group {local} member {r:?} lies at raw ED {d} from its \
                         representative, beyond the Strict limit {}",
                        slab.subseq_len(),
                        strict_limit(slab.subseq_len(), self.config.st)
                    )));
                }
            }
        }
        Ok(())
    }

    /// Every check of [`OnexBase::validate_invariants`] except Def. 8 —
    /// what snapshot loading audits before [`OnexBase::close_def8`].
    pub(crate) fn validate_structure(&self) -> Result<()> {
        let viol = |msg: String| OnexError::InvariantViolation(msg);
        self.store.validate(&self.dataset)?;
        let slab_lens: Vec<usize> = self
            .store
            .slabs()
            .iter()
            .map(LengthSlab::subseq_len)
            .collect();
        let idx_lens: Vec<usize> = self.lengths.keys().copied().collect();
        if slab_lens != idx_lens {
            return Err(viol(format!(
                "GTI lengths {idx_lens:?} disagree with slab lengths {slab_lens:?}"
            )));
        }
        let sym_lens: Vec<usize> = self.sym.keys().copied().collect();
        if slab_lens != sym_lens {
            return Err(viol(format!(
                "symbolic-index lengths {sym_lens:?} disagree with slab lengths {slab_lens:?}"
            )));
        }
        let mut first_id: GroupId = 0;
        for slab in self.store.slabs() {
            let len = slab.subseq_len();
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
            let idx = &self.lengths[&len];
            for (k, &id) in idx.group_ids.iter().enumerate() {
                if id != first_id + k as GroupId {
                    return Err(viol(format!(
                        "length {len}: group id {id} at position {k} breaks the contiguous walk"
                    )));
                }
            }
            first_id += slab.group_count() as GroupId;
            for local in 0..slab.group_count() {
                if !slab.is_finalized(local) {
                    return Err(viol(format!(
                        "length {len}: group {local} of an assembled base is not finalized"
                    )));
                }
            }
            idx.validate(slab, self.config.st)?;
            self.sym[&len].validate(slab)?;
            match self.sp.local(len) {
                Some((h, f))
                    if h.to_bits() == idx.st_half.to_bits()
                        && f.to_bits() == idx.st_final.to_bits() => {}
                other => {
                    return Err(viol(format!(
                        "length {len}: SP-Space holds {other:?} but the GTI says ({}, {})",
                        idx.st_half, idx.st_final
                    )))
                }
            }
            let mut have: Vec<onex_ts::SubseqRef> = (0..slab.group_count())
                .flat_map(|local| slab.members(local).iter().map(|&(r, _)| r))
                .collect();
            have.sort_unstable();
            let mut want: Vec<onex_ts::SubseqRef> = self
                .dataset
                .subseqs_of_len(len, &self.config.decomposition)
                .collect();
            want.sort_unstable();
            if have != want {
                return Err(viol(format!(
                    "length {len}: groups hold {} members but the dataset decomposes into {} \
                     subsequences (or the sets differ)",
                    have.len(),
                    want.len()
                )));
            }
        }
        let covered: usize = self
            .store
            .slabs()
            .iter()
            .map(LengthSlab::total_members)
            .sum();
        let expected = self.dataset.subseq_count(&self.config.decomposition);
        if covered != expected {
            return Err(viol(format!(
                "store covers {covered} subsequences but the decomposition yields {expected}"
            )));
        }
        let half = self
            .lengths
            .values()
            .map(|i| i.st_half)
            .fold(0.0f64, f64::max);
        let fin = self
            .lengths
            .values()
            .map(|i| i.st_final)
            .fold(0.0f64, f64::max);
        if self.sp.global_half().to_bits() != half.to_bits()
            || self.sp.global_final().to_bits() != fin.to_bits()
        {
            return Err(viol(format!(
                "global SP-Space ({}, {}) disagrees with per-length maxima ({half}, {fin})",
                self.sp.global_half(),
                self.sp.global_final()
            )));
        }
        Ok(())
    }

    /// Base statistics (Table 4 / Figs. 5–6 quantities plus store
    /// accounting).
    pub fn stats(&self) -> BaseStats {
        let fp = self.store.footprint();
        let gti_bytes = self.lengths.values().map(LengthIndex::size_bytes).sum();
        BaseStats {
            representatives: self.store.group_count(),
            subsequences: fp.per_length.iter().map(|l| l.members).sum(),
            lengths: self.lengths.len(),
            gti_bytes,
            lsi_bytes: fp.total_bytes(),
            slab_bytes: fp.slab_bytes(),
            sketch_bytes: fp.sketch_bytes(),
            symindex_bytes: fp.word_bytes()
                + self.sym.values().map(SymIndex::size_bytes).sum::<usize>(),
            store_allocations: fp.allocations(),
        }
    }

    /// The predecessor maintenance builds a successor from, leaving this
    /// (live, shared) base intact: copies of the dataset and the slabs, the
    /// GTI borrowed.
    pub(crate) fn to_predecessor(&self) -> Predecessor<'_> {
        Predecessor {
            dataset: self.dataset.clone(),
            norm: self.norm,
            config: self.config,
            slabs: self.store.slabs().to_vec(),
            gti: self.lengths.iter().map(|(&len, idx)| (len, idx)).collect(),
        }
    }

    /// The predecessor maintenance builds a successor from, consuming this
    /// base (journal replay): nothing is copied, and the GTI is freed up
    /// front, so the successor's is computed from scratch. Building it next
    /// to the old one instead costs more peak memory than the copied rows
    /// save time: peak RSS rose from 533 to 571–574 MB (about 7 %) on the
    /// benchmark's sparse-twopat workload (68 k subsequences, 22 k groups).
    pub(crate) fn into_predecessor(self) -> Predecessor<'static> {
        Predecessor {
            dataset: self.dataset,
            norm: self.norm,
            config: self.config,
            slabs: self.store.into_slabs(),
            gti: BTreeMap::new(),
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
                    Assigner::with_slab(st, slab).finish(&dataset, &config).0
                } else {
                    slab
                }
            })
            .collect();
        Self::assemble(dataset, norm, config, without_reuse(slabs))
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
        assert_eq!(fp.total_bytes(), base.stats().lsi_bytes);
    }

    #[test]
    fn group_ids_are_consistent_with_length_indexes() {
        let base = small_base();
        for idx in base.length_indexes() {
            for &id in &idx.group_ids {
                assert_eq!(base.group(id).len_of_members(), idx.len);
            }
        }
    }

    #[test]
    fn slab_lookup_matches_length_index() {
        let base = small_base();
        for idx in base.length_indexes() {
            let slab = base.slab(idx.len).expect("indexed length has a slab");
            assert_eq!(slab.group_count(), idx.group_count());
            assert_eq!(slab.subseq_len(), idx.len);
            // id-addressed view and slab rows agree
            for (local, &gid) in idx.group_ids.iter().enumerate() {
                assert_eq!(base.group(gid).representative(), slab.rep_row(local));
            }
        }
        assert!(base.slab(999).is_none());
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
            lengths,
            ..
        } = base;
        let sp = SpSpace::new(
            lengths
                .iter()
                .map(|(&len, idx)| (len, (idx.st_half, idx.st_final)))
                .collect(),
        );
        let broken = OnexBase {
            dataset: Dataset::new("truncated", series),
            norm,
            config,
            store,
            lengths,
            sym: BTreeMap::new(),
            sp,
        };
        let err = broken.validate_invariants().unwrap_err();
        assert!(matches!(err, OnexError::InvariantViolation(_)), "{err}");
        assert!(err.to_string().contains("invariant violation"), "{err}");
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
