//! Property-based tests for the ONEX base: the Def. 8 invariants, the
//! retrieval guarantee they imply, refinement consistency, and snapshot
//! round-tripping, all over randomized datasets.

use onex_core::engine::{Explorer, QueryOptions};
use onex_core::{snapshot, BuildMode, MatchMode, OnexBase, OnexConfig};
use onex_dist::{dtw_normalized, ed_normalized, paa_envelope_into, paa_into};
use onex_ts::{Dataset, Decomposition, TimeSeries};
use proptest::prelude::*;

/// Recomputes every PAA sketch of `base` from scratch — member sketches
/// from the dataset values, representative sketches from the frozen rep
/// rows, PAA'd envelopes from the stored envelope planes — and asserts
/// bit-equality with the incrementally-maintained planes.
fn assert_sketches_match_recompute(base: &OnexBase) {
    for slab in base.store().slabs() {
        let w = slab.paa_width();
        let mut fresh = Vec::new();
        for local in 0..slab.group_count() {
            for (idx, &(r, _)) in slab.members(local).iter().enumerate() {
                paa_into(base.dataset().subseq_unchecked(r), w, &mut fresh);
                assert_eq!(
                    slab.member_paa_row(local, idx),
                    &fresh[..],
                    "member sketch drifted: len {} group {local} member {idx}",
                    slab.subseq_len()
                );
            }
            if slab.is_finalized(local) {
                paa_into(slab.rep_row(local), w, &mut fresh);
                assert_eq!(
                    slab.paa_rep_row(local),
                    &fresh[..],
                    "rep sketch drifted: len {} group {local}",
                    slab.subseq_len()
                );
                let env = slab.envelope_ref(local).expect("finalized");
                let (mut hi, mut lo) = (Vec::new(), Vec::new());
                paa_envelope_into(env.upper, env.lower, w, &mut hi, &mut lo);
                let penv = slab.paa_envelope_ref(local).expect("finalized");
                assert_eq!(penv.upper, &hi[..], "paa env hi drifted");
                assert_eq!(penv.lower, &lo[..], "paa env lo drifted");
            }
        }
    }
}

/// A random dataset of 2–6 series, lengths 6–14, values in [0, 1].
fn dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(0.0..1.0f64, 6..=14), 2..=6).prop_map(|rows| {
        let series = rows
            .into_iter()
            .map(|v| TimeSeries::new(v).expect("finite"))
            .collect();
        Dataset::new("prop", series)
    })
}

fn config(st: f64, seed: u64) -> OnexConfig {
    OnexConfig {
        st,
        seed,
        ..OnexConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn base_partitions_all_subsequences(d in dataset(), seed in any::<u64>()) {
        let cfg = config(0.2, seed);
        let base = OnexBase::build_prenormalized(d.clone(), cfg).unwrap();
        let covered: usize = base.groups().map(|g| g.member_count()).sum();
        prop_assert_eq!(covered, d.subseq_count(&Decomposition::full()));
    }

    #[test]
    fn strict_mode_def8_invariant(d in dataset(), st in 0.05..0.6f64, seed in any::<u64>()) {
        let base = OnexBase::build_prenormalized(d, config(st, seed)).unwrap();
        for g in base.groups() {
            for &(m, stored_ed) in g.members() {
                let vals = base.dataset().subseq_unchecked(m);
                let dist = ed_normalized(vals, g.representative());
                prop_assert!(dist <= st / 2.0 + 1e-9, "ED̄ {} > ST/2 {}", dist, st / 2.0);
                // stored raw ED matches recomputation
                let raw = onex_dist::ed(vals, g.representative());
                prop_assert!((stored_ed - raw).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn lemma2_retrieval_guarantee(d in dataset(), seed in any::<u64>()) {
        // For any query q and any length: if the best representative is
        // within ST/2 (normalized DTW), every member of its group is within
        // ST (normalized DTW) of q — the paper's core retrieval guarantee.
        let st = 0.3;
        let cfg = OnexConfig {
            window: onex_dist::Window::Unconstrained,
            ..config(st, seed)
        };
        let base = OnexBase::build_prenormalized(d, cfg).unwrap();
        let q: Vec<f64> = base.dataset().get(0).unwrap().values()[..6].to_vec();
        for len in base.indexed_lengths().take(4) {
            let (first, slab) = base.store().slab_for_len(len).unwrap();
            for gid in (first..).take(slab.group_count().min(4)) {
                let g = base.group(gid);
                let rep_d = dtw_normalized(&q, g.representative(), onex_dist::Window::Unconstrained);
                if rep_d <= st / 2.0 {
                    for &(m, _) in g.members() {
                        let vals = base.dataset().subseq_unchecked(m);
                        let d = dtw_normalized(&q, vals, onex_dist::Window::Unconstrained);
                        prop_assert!(d <= st + 1e-9, "member at DTW̄ {} > ST {}", d, st);
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trip(d in dataset(), seed in any::<u64>()) {
        let base = OnexBase::build_prenormalized(d, config(0.25, seed)).unwrap();
        let restored = snapshot::decode(&snapshot::encode(&base)).unwrap();
        prop_assert_eq!(&base, &restored);
    }

    #[test]
    fn refine_preserves_membership_totals(d in dataset(), seed in any::<u64>(),
                                          st in 0.15..0.4f64, delta in -0.1..0.3f64) {
        let base = OnexBase::build_prenormalized(d, config(st, seed)).unwrap();
        let st_prime = (st + delta).max(0.02);
        let explorer = Explorer::from_base(base.clone());
        explorer.refine_to(st_prime).unwrap();
        let refined = explorer.base();
        prop_assert_eq!(explorer.epoch(), 1);
        prop_assert_eq!(base.stats().subsequences, refined.stats().subsequences);
        if st_prime < st {
            prop_assert!(refined.stats().representatives >= base.stats().representatives);
        } else if st_prime > st {
            prop_assert!(refined.stats().representatives <= base.stats().representatives);
        }
    }

    #[test]
    fn query_never_panics_and_reports_consistent_distance(
        d in dataset(), seed in any::<u64>(), qlen in 2..8usize,
    ) {
        let base = OnexBase::build_prenormalized(d, config(0.2, seed)).unwrap();
        let src = base.dataset().get(0).unwrap();
        prop_assume!(src.len() >= qlen);
        let q: Vec<f64> = src.values()[..qlen].to_vec();
        let explorer = Explorer::from_base(base.clone());
        let m = explorer
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();
        let vals = base.dataset().subseq(m.subseq).unwrap();
        let expect = dtw_normalized(&q, vals, base.config().window);
        prop_assert!((m.dist - expect).abs() < 1e-9);
    }

    #[test]
    fn paper_mode_builds_and_queries(d in dataset(), seed in any::<u64>()) {
        let cfg = OnexConfig {
            build_mode: BuildMode::Paper,
            ..config(0.2, seed)
        };
        let base = OnexBase::build_prenormalized(d, cfg).unwrap();
        let q: Vec<f64> = base.dataset().get(0).unwrap().values()[..4].to_vec();
        let explorer = Explorer::from_base(base);
        prop_assert!(explorer
            .best_match(&q, MatchMode::Exact(4), QueryOptions::default())
            .is_ok());
    }

    #[test]
    fn snapshot_decoding_never_panics_on_corruption(
        d in dataset(), seed in any::<u64>(),
        cut in 0..4096usize, flip in 0..4096usize, bit in 0..8u8,
    ) {
        // Fuzz the v2 decoder: any truncation or single-bit flip must be
        // *rejected* (the CRC-32 footer catches what structural validation
        // can't) — and must never panic.
        let base = OnexBase::build_prenormalized(d, config(0.3, seed)).unwrap();
        let bytes = snapshot::encode(&base);
        let cut = cut % bytes.len(); // strictly shorter than the full snapshot
        prop_assert!(snapshot::decode(&bytes[..cut]).is_err(), "truncation at {} accepted", cut);
        let mut mutated = bytes.to_vec();
        let at = flip % mutated.len();
        mutated[at] ^= 1 << bit;
        prop_assert!(snapshot::decode(&mutated).is_err(), "bit flip at {} accepted", at);
    }

    #[test]
    fn v1_snapshot_corruption_never_panics(
        d in dataset(), seed in any::<u64>(),
        cut in 0..4096usize, flip in 0..4096usize, bit in 0..8u8,
    ) {
        // The legacy format has no checksum, so corruption may decode —
        // but must produce Ok or Err(SnapshotCorrupt), never panic.
        let base = OnexBase::build_prenormalized(d, config(0.3, seed)).unwrap();
        let bytes = snapshot::encode_v1(&base);
        let cut = cut % (bytes.len() + 1);
        let _ = snapshot::decode(&bytes[..cut]);
        let mut mutated = bytes.to_vec();
        let at = flip % mutated.len();
        mutated[at] ^= 1 << bit;
        let _ = snapshot::decode(&mutated);
    }

    #[test]
    fn snapshot_round_trip_reproduces_query_results(
        d in dataset(), seed in any::<u64>(), epoch in any::<u64>(), qlen in 2..6usize,
    ) {
        // decode(encode(base)) must answer queries identically to the
        // original — for both format versions — and v2 must carry the
        // epoch through.
        let base = OnexBase::build_prenormalized(d, config(0.25, seed)).unwrap();
        let src = base.dataset().get(0).unwrap();
        prop_assume!(src.len() >= qlen);
        let q: Vec<f64> = src.values()[..qlen].to_vec();
        let expected = Explorer::from_base(base.clone())
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();

        let (v2, restored_epoch) =
            snapshot::decode_with_epoch(&snapshot::encode_with_epoch(&base, epoch)).unwrap();
        prop_assert_eq!(restored_epoch, epoch);
        let got = Explorer::from_base(v2)
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();
        prop_assert_eq!(&got, &expected);

        let v1 = snapshot::decode(&snapshot::encode_v1(&base)).unwrap();
        let got = Explorer::from_base(v1)
            .best_match(&q, MatchMode::Any, QueryOptions::default())
            .unwrap();
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn cascade_byte_identical_to_unpruned_on_random_bases(
        d in dataset(), seed in any::<u64>(), qlen in 2..8usize,
    ) {
        // Soundness of the cascaded lower-bound pipeline, stated as the
        // user-visible contract: best-match, top-k and range results with
        // the cascade enabled are byte-identical to a fully unpruned
        // search, on arbitrary random bases and queries.
        let base = OnexBase::build_prenormalized(d, config(0.2, seed)).unwrap();
        let src = base.dataset().get(0).unwrap();
        prop_assume!(src.len() >= qlen);
        let q: Vec<f64> = src.values()[..qlen].to_vec();
        let explorer = Explorer::from_base(base);
        let unpruned = QueryOptions { lb_pruning: false, ..QueryOptions::default() };
        for mode in [MatchMode::Any, MatchMode::Exact(qlen)] {
            let on = explorer.best_match(&q, mode, QueryOptions::default());
            let off = explorer.best_match(&q, mode, unpruned);
            prop_assert_eq!(&on, &off);
            let t_on = explorer.top_k(&q, mode, 4, QueryOptions::default()).unwrap();
            let t_off = explorer.top_k(&q, mode, 4, unpruned).unwrap();
            prop_assert_eq!(&t_on, &t_off);
            for verify in [false, true] {
                let w_on = explorer
                    .within_threshold(&q, mode, verify, QueryOptions::default())
                    .unwrap();
                let w_off = explorer.within_threshold(&q, mode, verify, unpruned).unwrap();
                prop_assert_eq!(&w_on, &w_off);
            }
        }
    }

    #[test]
    fn range_query_results_respect_threshold(d in dataset(), seed in any::<u64>()) {
        let cfg = OnexConfig {
            window: onex_dist::Window::Unconstrained,
            ..config(0.25, seed)
        };
        let base = OnexBase::build_prenormalized(d, cfg).unwrap();
        let q: Vec<f64> = base.dataset().get(0).unwrap().values()[..5].to_vec();
        let explorer = Explorer::from_base(base.clone());
        let st = 0.15;
        let hits = explorer
            .within_threshold(&q, MatchMode::Any, true, QueryOptions::with_st(st))
            .unwrap();
        for m in &hits {
            prop_assert!(m.dist <= st + 1e-9);
            let vals = base.dataset().subseq(m.subseq).unwrap();
            let expect = dtw_normalized(&q, vals, onex_dist::Window::Unconstrained);
            prop_assert!((m.dist - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn kmeans_strategy_partitions(d in dataset(), seed in any::<u64>()) {
        let cfg = OnexConfig {
            cluster: onex_core::ClusterStrategy::KMeansRefined { iters: 2 },
            ..config(0.2, seed)
        };
        let base = OnexBase::build_prenormalized(d.clone(), cfg).unwrap();
        let covered: usize = base.groups().map(|g| g.member_count()).sum();
        prop_assert_eq!(covered, d.subseq_count(&Decomposition::full()));
    }

    #[test]
    fn incremental_sketches_equal_recompute_after_random_lifecycle(
        d in dataset(), seed in any::<u64>(),
        ops in prop::collection::vec(0u8..4, 1..6),
        extra in prop::collection::vec(0.0..1.0f64, 6..=12),
        st_delta in -0.1..0.25f64,
    ) {
        // The store maintains its sketch planes *incrementally* — member
        // sketches are computed once and carried through sorts, merges,
        // splits, evictions and moves; rep/envelope sketches rebuild only
        // on re-finalization. After an arbitrary append / remove / refine
        // sequence every plane must still equal a from-scratch recompute,
        // bit for bit — and the *whole* deep invariant catalog
        // (OnexBase::validate_invariants: strides, sums, rep freezes,
        // ED order, envelopes, the group-id directory, membership
        // partition) must hold after every step.
        let base = OnexBase::build_prenormalized(d, config(0.2, seed)).unwrap();
        assert_sketches_match_recompute(&base);
        base.validate_invariants().unwrap();
        let explorer = Explorer::from_base(base);
        for (i, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    let shifted: Vec<f64> =
                        extra.iter().map(|v| (v + 0.07 * i as f64).fract()).collect();
                    explorer
                        .append_series(TimeSeries::new(shifted).unwrap())
                        .unwrap();
                }
                1 => {
                    let n = explorer.base().dataset().len();
                    if n > 2 {
                        explorer.remove_series((seed as usize + i) % n).unwrap();
                    }
                }
                2 => {
                    explorer.refine_to((0.2 + st_delta).max(0.02)).unwrap();
                }
                _ => {
                    explorer.refine_to(0.2).unwrap();
                }
            }
            assert_sketches_match_recompute(&explorer.base());
            explorer.base().validate_invariants().unwrap();
        }
    }

    #[test]
    fn sp_space_ordering(d in dataset(), seed in any::<u64>()) {
        let base = OnexBase::build_prenormalized(d, config(0.2, seed)).unwrap();
        let sp = base.sp_space();
        prop_assert!(sp.global_half() <= sp.global_final() + 1e-12);
        for len in base.indexed_lengths() {
            let (h, f) = sp.local(len).unwrap();
            prop_assert!(h <= f + 1e-12);
            prop_assert!(h >= base.config().st - 1e-12);
        }
    }
}
