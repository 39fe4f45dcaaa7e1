//! Incremental maintenance of an existing base (the paper defers this to its
//! tech report; the natural construction is implemented here): appending a
//! new series re-runs the Algorithm-1 assignment *only for the new series'
//! subsequences*, against the existing representatives — no re-clustering of
//! the data already indexed. Removing a series is the inverse: its
//! subsequences are dropped from their groups, emptied groups are retired,
//! shrunk groups re-elect their representative (the point-wise mean of the
//! survivors).
//!
//! Both cost what they change — the **touched-set rule**. Only groups whose
//! membership changed (joined, seeded, shrunk, evicted from or re-inserted
//! into) are Strict-repaired and re-finalized; every other group keeps its
//! representative bit for bit. A live base is read by reference: only its
//! dataset and slabs are copied. The successor is bit-identical to
//! re-checking and re-finalizing every group of every touched length, which
//! the differential tests below keep as their reference. It starts with an
//! empty SP-Space memo, so a predecessor's thresholds never carry over.
//!
//! The public surface is [`crate::engine::Explorer::append_series`] /
//! [`crate::engine::Explorer::remove_series`], which run these constructions
//! off-line and atomically hot-swap the successor base under an epoch.
//!
//! Normalization caveat: when the base was built from raw data, an appended
//! series is projected with the *original* min-max parameters, and removing
//! a series keeps them. Values outside the original range normalize outside
//! `[0, 1]`; this mirrors streaming practice (re-normalizing would
//! invalidate every stored distance) and is documented behaviour.

use crate::build::Assigner;
use crate::store::LengthSlab;
use crate::{OnexBase, OnexConfig, Result};
use onex_ts::normalize::MinMaxParams;
use onex_ts::{Dataset, SubseqRef, TimeSeries};
use std::collections::{BTreeMap, BTreeSet};

/// What maintenance builds a successor from: the predecessor's dataset and
/// slabs, owned because they are mutated into the successor's.
/// [`OnexBase::to_predecessor`] copies them from a base that stays live;
/// [`OnexBase::into_predecessor`] consumes a base and copies nothing.
pub(crate) struct Predecessor {
    pub(crate) dataset: Dataset,
    pub(crate) norm: Option<MinMaxParams>,
    pub(crate) config: OnexConfig,
    /// Ascending by length.
    pub(crate) slabs: Vec<LengthSlab>,
}

/// Appends a series (raw units if the base was built from raw data) and
/// returns the successor base together with the new series' index: the
/// construction behind [`crate::engine::Explorer::append_series`] and WAL
/// replay.
///
/// Appending into an *empty* base (every series removed) is allowed and
/// repopulates it: each length starts from an empty assigner, so the base
/// is never locked into the empty state.
pub(crate) fn append_series_impl(
    prev: Predecessor,
    series: TimeSeries,
) -> Result<(OnexBase, usize)> {
    let Predecessor {
        mut dataset,
        norm,
        config,
        slabs,
    } = prev;
    let series = project(norm.as_ref(), series)?;
    let new_index = dataset.push(series);

    // Assign the new series' subsequences length by length. Lengths the base
    // has never seen (the new series may be longer than any existing one)
    // start from an empty slab; lengths the series is too short for pass
    // through unchanged.
    let new_len = dataset.get(new_index)?.len();
    let touched: BTreeSet<usize> = config.decomposition.lengths_for(new_len).collect();
    let mut existing: BTreeMap<usize, LengthSlab> =
        slabs.into_iter().map(|s| (s.subseq_len(), s)).collect();
    let all_lengths: BTreeSet<usize> = existing
        .keys()
        .copied()
        .chain(touched.iter().copied())
        .collect();

    let mut out = Vec::with_capacity(all_lengths.len());
    for len in all_lengths {
        let slab = existing.remove(&len);
        if !touched.contains(&len) {
            out.extend(slab);
            continue;
        }
        let mut asg = match slab {
            Some(slab) => Assigner::reopen(config.st, slab),
            None => Assigner::new(len, config.st, config.paa_width, config.sax_alphabet),
        };
        for start in (0..=new_len - len).step_by(config.decomposition.start_stride) {
            asg.assign(
                &dataset,
                SubseqRef::new(new_index as u32, start as u32, len as u32),
            );
        }
        out.push(asg.finish(&dataset, &config));
    }
    Ok((OnexBase::assemble(dataset, norm, config, out), new_index))
}

/// Projects `series` into the base's value space.
fn project(norm: Option<&MinMaxParams>, series: TimeSeries) -> Result<TimeSeries> {
    let Some(p) = norm else {
        return Ok(series);
    };
    let values: Vec<f64> = series.values().iter().map(|&v| p.apply(v)).collect();
    Ok(match series.label() {
        Some(l) => TimeSeries::with_label(values, l)?,
        None => TimeSeries::new(values)?,
    })
}

/// Removes the series at `index` and returns the updated base together with
/// the removed series: the inverse of [`append_series_impl`]. The series'
/// subsequences are dropped from their groups (running sum rows corrected),
/// groups left empty are retired, shrunk groups re-elect their
/// representative, and every surviving member reference is remapped past the
/// removed slot. Each length keeps its untouched groups first, compacted in
/// their old order, and moves its shrunk groups to the end. Only the shrunk
/// groups are re-finalized (and, in [`crate::BuildMode::Strict`],
/// re-repaired — members evicted during the repair re-insert among the
/// shrunk groups of that length); untouched groups pass through finalized,
/// and lengths that only the removed series reached disappear from the
/// index entirely.
///
/// Removing the last series yields an empty base: structurally valid, and
/// repopulatable via [`append_series_impl`], but every query against it
/// reports [`crate::OnexError::EmptyBase`].
pub(crate) fn remove_series_impl(
    prev: Predecessor,
    index: usize,
) -> Result<(OnexBase, TimeSeries)> {
    let Predecessor {
        mut dataset,
        norm,
        config,
        slabs,
    } = prev;
    // Validate before touching any group state.
    dataset.get(index)?;
    let series = index as u32;

    // Drop the series' members while the dataset still resolves them,
    // retiring groups that emptied and splitting each length into
    // untouched groups (still finalized, in their old order) and shrunk
    // ones.
    let mut per_length = Vec::with_capacity(slabs.len());
    for mut slab in slabs {
        let len = slab.subseq_len();
        let (mut untouched, mut shrunk) = (
            LengthSlab::new(len, config.paa_width, config.sax_alphabet),
            LengthSlab::new(len, config.paa_width, config.sax_alphabet),
        );
        for local in 0..slab.group_count() {
            let dropped = slab.drop_series_members(local, &dataset, series);
            if slab.member_count(local) == 0 {
                continue; // retired
            }
            if dropped > 0 {
                slab.move_group_into(local, &mut shrunk);
            } else {
                slab.move_group_into(local, &mut untouched);
            }
        }
        per_length.push((untouched, shrunk));
    }

    let removed = dataset.remove(index)?;

    let mut out = Vec::with_capacity(per_length.len());
    for (mut slab, mut shrunk) in per_length {
        // Remap surviving references past the removed slot. The remap is
        // monotone, so finalized (untouched) groups stay correctly ordered.
        slab.remap_series_down(series);
        shrunk.remap_series_down(series);
        if !shrunk.is_empty() {
            // Shrunk groups: means moved, so re-repair (Strict) and
            // re-finalize through the append path's `finish` — every one
            // of them counts as changed.
            slab.extend_from(Assigner::with_slab(config.st, shrunk).finish(&dataset, &config));
        }
        // An emptied length (the removed series was the only one this
        // long) is dropped by `assemble`.
        out.push(slab);
    }
    Ok((OnexBase::assemble(dataset, norm, config, out), removed))
}

/// The whole-base append and remove the touched-set paths replaced, kept as
/// the reference of the differential tests: every group of every touched
/// length is Strict-checked on every repair round and re-finalized.
#[cfg(test)]
mod whole_base {
    use super::*;

    pub(super) fn append(base: &OnexBase, series: TimeSeries) -> Result<(OnexBase, usize)> {
        let config = *base.config();
        let mut dataset = base.dataset().clone();
        let new_index = dataset.push(project(base.normalizer(), series)?);
        let new_len = dataset.get(new_index)?.len();
        let touched: BTreeSet<usize> = config.decomposition.lengths_for(new_len).collect();
        let all_lengths: BTreeSet<usize> = base
            .indexed_lengths()
            .chain(touched.iter().copied())
            .collect();
        let mut slabs = Vec::new();
        for len in all_lengths {
            let existing = base
                .slab(len)
                .cloned()
                .unwrap_or_else(|| LengthSlab::new(len, config.paa_width, config.sax_alphabet));
            if !touched.contains(&len) {
                slabs.push(existing);
                continue;
            }
            let mut asg = Assigner::with_slab(config.st, existing);
            for start in (0..=new_len - len).step_by(config.decomposition.start_stride) {
                asg.assign(
                    &dataset,
                    SubseqRef::new(new_index as u32, start as u32, len as u32),
                );
            }
            slabs.push(asg.finish_every_group(&dataset, &config));
        }
        let norm = base.normalizer().copied();
        let next = OnexBase::assemble(dataset, norm, config, slabs);
        Ok((next, new_index))
    }

    pub(super) fn remove(base: &OnexBase, index: usize) -> Result<(OnexBase, TimeSeries)> {
        let config = *base.config();
        let mut dataset = base.dataset().clone();
        dataset.get(index)?;
        let series = index as u32;
        let mut split = Vec::new();
        for slab in base.store().slabs() {
            let len = slab.subseq_len();
            let mut slab = slab.clone();
            let (mut untouched, mut shrunk) = (
                LengthSlab::new(len, config.paa_width, config.sax_alphabet),
                LengthSlab::new(len, config.paa_width, config.sax_alphabet),
            );
            for local in 0..slab.group_count() {
                let dropped = slab.drop_series_members(local, &dataset, series);
                if slab.member_count(local) == 0 {
                    continue;
                }
                let dst = if dropped > 0 {
                    &mut shrunk
                } else {
                    &mut untouched
                };
                slab.move_group_into(local, dst);
            }
            split.push((untouched, shrunk));
        }
        let removed = dataset.remove(index)?;
        let mut slabs = Vec::new();
        for (mut slab, mut shrunk) in split {
            slab.remap_series_down(series);
            shrunk.remap_series_down(series);
            if !shrunk.is_empty() {
                let asg = Assigner::with_slab(config.st, shrunk);
                slab.extend_from(asg.finish_every_group(&dataset, &config));
            }
            slabs.push(slab);
        }
        let norm = base.normalizer().copied();
        let next = OnexBase::assemble(dataset, norm, config, slabs);
        Ok((next, removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Explorer, QueryOptions};
    use crate::{BuildMode, MatchMode, OnexConfig, OnexError};
    use onex_ts::synth;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// The bits of a base's global and per-length SP-Space thresholds.
    fn sp_bits(base: &OnexBase) -> Vec<(usize, u64, u64)> {
        let sp = base.sp_space();
        let pair = |(h, f): (f64, f64)| (h.to_bits(), f.to_bits());
        let global = pair((sp.global_half(), sp.global_final()));
        let mut bits = vec![(0, global.0, global.1)];
        for len in base.indexed_lengths() {
            let (h, f) = pair(sp.local(len).unwrap());
            bits.push((len, h, f));
        }
        bits
    }

    /// One maintenance op, run through the touched-set path — from a
    /// borrowed and from a consumed predecessor — and the whole-base
    /// reference: the successors must be equal and valid. With `read_sp`
    /// the predecessor's and the successors' SP-Space memos are filled
    /// before the comparison and the reference's is not; either way every
    /// successor's thresholds equal the reference's bit for bit, so no
    /// memo leaks into equality or across the op.
    fn step(
        base: &OnexBase,
        op: &Op,
        read_sp: bool,
    ) -> std::result::Result<OnexBase, TestCaseError> {
        if read_sp {
            base.sp_space();
        }
        let (next, consumed, reference) = match op {
            Op::Append(series) => {
                let (next, i) = append_series_impl(base.to_predecessor(), series.clone()).unwrap();
                let consumed = base.clone().into_predecessor();
                let (consumed, _) = append_series_impl(consumed, series.clone()).unwrap();
                let (reference, j) = whole_base::append(base, series.clone()).unwrap();
                prop_assert_eq!(i, j);
                (next, consumed, reference)
            }
            Op::Remove(index) => {
                let (next, a) = remove_series_impl(base.to_predecessor(), *index).unwrap();
                let consumed = base.clone().into_predecessor();
                let (consumed, _) = remove_series_impl(consumed, *index).unwrap();
                let (reference, b) = whole_base::remove(base, *index).unwrap();
                prop_assert_eq!(a, b);
                (next, consumed, reference)
            }
        };
        if read_sp {
            next.sp_space();
            consumed.sp_space();
        }
        prop_assert!(next == reference, "{op:?}: touched-set successor differs");
        prop_assert!(
            consumed == reference,
            "{op:?}: consumed-predecessor successor differs"
        );
        prop_assert_eq!(sp_bits(&next), sp_bits(&reference));
        prop_assert_eq!(sp_bits(&consumed), sp_bits(&reference));
        if let Err(e) = next.validate_invariants() {
            prop_assert!(false, "{op:?}: {e}");
        }
        Ok(next)
    }

    #[derive(Debug)]
    enum Op {
        Append(TimeSeries),
        Remove(usize),
    }

    fn walk(len: usize, seed: u64) -> TimeSeries {
        let mut x = 0.0f64;
        let mut s = seed;
        let values = (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x += (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                x
            })
            .collect();
        TimeSeries::new(values).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random append/remove sequences — appended series up to twice as
        /// long as any stored one, both build modes — then removal down to
        /// an empty base and an append into it: after every op the
        /// touched-set successor equals the whole-base reference, SP-Space
        /// included, whether or not the predecessor's was read.
        #[test]
        fn touched_set_maintenance_matches_whole_base(
            (n, len, seed) in (2..5usize, 6..12usize, any::<u64>()),
            st in 0.05..0.4f64,
            strict in any::<bool>(),
            ops in prop::collection::vec((any::<bool>(), 0..8usize, 4..24usize, any::<u64>()), 1..7),
        ) {
            let data = onex_ts::Dataset::new(
                "walks",
                (0..n).map(|i| walk(len, seed ^ i as u64)).collect(),
            );
            let config = OnexConfig {
                st,
                build_mode: if strict { BuildMode::Strict } else { BuildMode::Paper },
                seed,
                threads: 1,
                ..OnexConfig::default()
            };
            let mut base = OnexBase::build(&data, config).unwrap();
            for (append, pick, new_len, series_seed) in ops {
                let op = match base.dataset().len() {
                    live if append || live == 0 => Op::Append(walk(new_len, series_seed)),
                    live => Op::Remove(pick % live),
                };
                base = step(&base, &op, series_seed % 2 == 1)?;
            }
            while !base.dataset().is_empty() {
                base = step(&base, &Op::Remove(base.dataset().len() - 1), seed % 2 == 1)?;
            }
            step(&base, &Op::Append(walk(len, seed)), seed % 3 == 0)?;
        }
    }

    #[test]
    fn appended_series_is_queryable() {
        let d = synth::sine_mix(5, 12, 2, 7);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let before = base.stats();
        // a brand-new, distinctive series (raw units)
        let novel = TimeSeries::new(vec![
            10.0, 0.0, 10.0, 0.0, 10.0, 0.0, 10.0, 0.0, 10.0, 0.0, 10.0, 0.0,
        ])
        .unwrap();
        let (base, idx) = append_series_impl(base.to_predecessor(), novel).unwrap();
        assert_eq!(idx, 5);
        let after = base.stats();
        assert_eq!(
            after.subsequences,
            before.subsequences + 12 * 11 / 2,
            "new series contributes n(n−1)/2 subsequences"
        );
        // query with a normalized slice of the new series finds it
        let q: Vec<f64> = base.dataset().get(5).unwrap().values()[0..6].to_vec();
        let explorer = Explorer::from_base(base);
        let m = explorer
            .best_match(&q, MatchMode::Exact(6), QueryOptions::default())
            .unwrap();
        assert_eq!(m.subseq.series, 5);
    }

    #[test]
    fn longer_series_creates_new_lengths() {
        let d = synth::sine_mix(4, 8, 2, 7);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        assert_eq!(base.indexed_lengths().max().unwrap(), 8);
        let long = TimeSeries::new((0..12).map(|i| i as f64 * 0.1).collect()).unwrap();
        let (base, _) = append_series_impl(base.to_predecessor(), long).unwrap();
        assert_eq!(base.indexed_lengths().max().unwrap(), 12);
        base.slab(12).expect("new length indexed");
    }

    #[test]
    fn strict_invariant_survives_maintenance() {
        let d = synth::sine_mix(5, 10, 2, 9);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let extra = TimeSeries::new((0..10).map(|i| (i as f64 * 0.7).sin()).collect()).unwrap();
        let (base, _) = append_series_impl(base.to_predecessor(), extra).unwrap();
        let st = base.config().st;
        for g in base.groups() {
            for &(m, _) in g.members() {
                let d = onex_dist::ed_normalized(
                    base.dataset().subseq_unchecked(m),
                    g.representative(),
                );
                assert!(d <= st / 2.0 + 1e-9);
            }
        }
    }

    #[test]
    fn remove_undoes_append_coverage() {
        let d = synth::sine_mix(5, 12, 2, 7);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let before = base.stats();
        let novel = TimeSeries::new(vec![
            9.0, 0.0, 9.0, 0.0, 9.0, 0.0, 9.0, 0.0, 9.0, 0.0, 9.0, 0.0,
        ])
        .unwrap();
        let (base, idx) = append_series_impl(base.to_predecessor(), novel).unwrap();
        let (base, removed) = remove_series_impl(base.to_predecessor(), idx).unwrap();
        assert_eq!(removed.len(), 12);
        let after = base.stats();
        assert_eq!(after.subsequences, before.subsequences);
        assert_eq!(base.dataset().len(), 5);
        // Every surviving member resolves and respects the Strict invariant.
        for g in base.groups() {
            for &(m, _) in g.members() {
                assert!((m.series as usize) < base.dataset().len());
                let dist = onex_dist::ed_normalized(
                    base.dataset().subseq_unchecked(m),
                    g.representative(),
                );
                assert!(dist <= base.config().st / 2.0 + 1e-9);
            }
        }
    }

    #[test]
    fn remove_retires_lengths_only_the_removed_series_had() {
        let d = synth::sine_mix(4, 8, 2, 7);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let long = TimeSeries::new((0..12).map(|i| i as f64 * 0.1).collect()).unwrap();
        let (base, idx) = append_series_impl(base.to_predecessor(), long).unwrap();
        assert_eq!(base.indexed_lengths().max().unwrap(), 12);
        let (base, _) = remove_series_impl(base.to_predecessor(), idx).unwrap();
        assert_eq!(base.indexed_lengths().max().unwrap(), 8);
        assert!(base.slab(12).is_none());
    }

    #[test]
    fn remove_middle_series_remaps_references() {
        let d = synth::sine_mix(5, 10, 2, 11);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let kept: Vec<Vec<f64>> = [0usize, 1, 3, 4]
            .iter()
            .map(|&i| base.dataset().get(i).unwrap().values().to_vec())
            .collect();
        let (base, _) = remove_series_impl(base.to_predecessor(), 2).unwrap();
        assert_eq!(base.dataset().len(), 4);
        for (i, values) in kept.iter().enumerate() {
            assert_eq!(base.dataset().get(i).unwrap().values(), &values[..]);
        }
        // Queries still resolve against the remapped references.
        let q: Vec<f64> = base.dataset().get(3).unwrap().values()[0..6].to_vec();
        let m = Explorer::from_base(base)
            .best_match(&q, MatchMode::Exact(6), QueryOptions::default())
            .unwrap();
        assert!(m.dist.is_finite());
    }

    #[test]
    fn remove_rejects_bad_index_and_emptied_base_can_be_repopulated() {
        let d = synth::sine_mix(2, 8, 2, 3);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        assert!(remove_series_impl(base.to_predecessor(), 2).is_err());
        let (base, _) = remove_series_impl(base.to_predecessor(), 1).unwrap();
        let (base, _) = remove_series_impl(base.to_predecessor(), 0).unwrap();
        assert!(base.dataset().is_empty());
        assert_eq!(base.ensure_nonempty(), Err(OnexError::EmptyBase));
        // Emptying is not a dead end: appending starts fresh groups.
        let fresh = TimeSeries::new((0..8).map(|i| (i as f64 * 0.5).sin()).collect()).unwrap();
        let (base, idx) = append_series_impl(base.to_predecessor(), fresh).unwrap();
        assert_eq!(idx, 0);
        base.ensure_nonempty().unwrap();
        assert_eq!(base.stats().subsequences, 8 * 7 / 2);
        let q: Vec<f64> = base.dataset().get(0).unwrap().values()[0..4].to_vec();
        let m = Explorer::from_base(base)
            .best_match(&q, MatchMode::Exact(4), QueryOptions::default())
            .unwrap();
        assert_eq!(m.subseq.series, 0);
    }

    #[test]
    fn remove_leaves_untouched_groups_finalized_in_place() {
        // Groups with no member from the removed series must pass through
        // byte-identically (same members, same representative, same order
        // of stored EDs) — only shrunk groups are re-finalized.
        let d = synth::sine_mix(6, 12, 2, 19);
        let base = OnexBase::build(&d, OnexConfig::default()).unwrap();
        let removed_series = 4u32;
        // Snapshot the untouched groups' state (with the monotone remap
        // applied by hand) before the removal.
        let remap = |r: SubseqRef| {
            let mut r = r;
            if r.series > removed_series {
                r.series -= 1;
            }
            r
        };
        type GroupState = (Vec<(SubseqRef, f64)>, Vec<f64>);
        let before: Vec<GroupState> = base
            .groups()
            .filter(|g| g.members().iter().all(|&(r, _)| r.series != removed_series))
            .map(|g| {
                (
                    g.members().iter().map(|&(r, d)| (remap(r), d)).collect(),
                    g.representative().to_vec(),
                )
            })
            .collect();
        let (after, _) =
            remove_series_impl(base.to_predecessor(), removed_series as usize).unwrap();
        for (members, rep) in before {
            let survived = after
                .groups()
                .any(|g| g.members() == &members[..] && g.representative() == &rep[..]);
            assert!(survived, "untouched group must survive unchanged");
        }
    }
}
