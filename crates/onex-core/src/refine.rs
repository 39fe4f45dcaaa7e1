//! Algorithm 2.C: adapting a base to a *different* similarity threshold
//! `ST'` without re-scanning the raw subsequence space (§5.2).
//!
//! * `ST' = ST` — the precomputed groups are reused as-is.
//! * `ST' < ST` — every group still contains only similar sequences but may
//!   be too coarse: each group is **split** by re-running the Algorithm-1
//!   methodology over *its own members* with the tighter threshold.
//! * `ST' > ST` — groups whose representatives are close enough may
//!   **merge**: pairs with `ST' − ST ≥ Dc` are merged in random order with
//!   cascading re-checks (a merge changes the representative, which can
//!   enable further merges), exactly as §5.2 case 3.2a describes. Pairs with
//!   `Dc > ST'` can never merge and are kept as-is (case 3.1). A merged
//!   group can hold members farther than `ST'/2` from its new mean; in
//!   [`crate::BuildMode::Strict`] the construction's repair then evicts and
//!   re-inserts them, so Def. 8 holds at `ST'` as it does after a build.
//!   (Earlier versions skipped that repair; snapshot loading repairs the
//!   bases they saved, see [`crate::OnexBase`]'s `close_def8`.)
//!
//! Both directions mutate the per-length [`LengthSlab`]s in place (splits
//! rebuild a fresh slab per source group; merges combine sum rows and
//! member lists, then compact). The result is a fresh [`OnexBase`] whose
//! `config.st` is `ST'` and whose indexes (Dc, sum order, SP-Space) are
//! rebuilt over the refined slabs.

use crate::build::Assigner;
use crate::store::LengthSlab;
use crate::{OnexBase, OnexError, Result};
use onex_dist::ed_normalized;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Refines `base` to the new threshold `st_prime`, reusing the precomputed
/// grouping (split or cascade-merge) instead of rebuilding from raw data —
/// the refinement behind [`crate::engine::Explorer::refine_to`] and WAL
/// replay. Deterministic for a given base: the merge order is seeded from
/// `config.seed ^ st_prime.to_bits()`.
pub(crate) fn refine_impl(base: &OnexBase, st_prime: f64) -> Result<OnexBase> {
    if !st_prime.is_finite() || st_prime <= 0.0 {
        return Err(OnexError::InvalidThreshold(st_prime));
    }
    base.ensure_nonempty()?;
    let st = base.config().st;
    if (st_prime - st).abs() < f64::EPSILON {
        return Ok(base.clone());
    }

    let mut new_config = *base.config();
    new_config.st = st_prime;
    let dataset = base.dataset().clone();
    let mut rng = SmallRng::seed_from_u64(base.config().seed ^ st_prime.to_bits());

    // Per-length slabs, cloned out of the store (ascending by length, the
    // same order the old per-length map iterated), each closed like
    // construction closes a length: Strict repair, then finalization.
    let out: Vec<LengthSlab> = base
        .store()
        .slabs()
        .iter()
        .cloned()
        .map(|slab| {
            if st_prime < st {
                split_groups(&dataset, slab, &new_config)
            } else {
                // A merge moves means, so in Strict mode members it carried
                // beyond `√L · ST'/2` are evicted and re-inserted. Groups no
                // merge touched keep their finalization, and Def. 8 at
                // `ST < ST'`, so they pass through.
                let merged = merge_groups(slab, st, st_prime, &mut rng);
                Assigner::reopen(st_prime, merged)
                    .finish(&dataset, &new_config)
                    .0
            }
        })
        .collect();
    Ok(OnexBase::assemble(
        dataset,
        base.normalizer().copied(),
        new_config,
        crate::base::without_reuse(out),
    ))
}

/// `ST' < ST`: split each group by re-clustering its members at the tighter
/// threshold (members of different old groups never mix — the paper splits
/// *within* precomputed groups).
fn split_groups(
    dataset: &onex_ts::Dataset,
    slab: LengthSlab,
    config: &crate::OnexConfig,
) -> LengthSlab {
    let len = slab.subseq_len();
    let mut out = LengthSlab::new(len, config.paa_width, config.sax_alphabet);
    for local in 0..slab.group_count() {
        let mut asg = Assigner::new(len, config.st, config.paa_width, config.sax_alphabet);
        for &(r, _) in slab.members(local) {
            asg.assign(dataset, r);
        }
        out.extend_from(asg.finish(dataset, config).0);
    }
    out
}

/// `ST' > ST`: cascading merges of qualifying pairs in random order,
/// in place over the slab's sum rows and member lists.
fn merge_groups(mut slab: LengthSlab, st: f64, st_prime: f64, rng: &mut SmallRng) -> LengthSlab {
    let margin = st_prime - st;
    let g = slab.group_count();
    let mut alive = vec![true; g];
    let mut means: Vec<Option<Vec<f64>>> = (0..g)
        .map(|local| {
            let mut m = Vec::new();
            slab.mean_into(local, &mut m);
            Some(m)
        })
        .collect();
    loop {
        // All currently-qualifying pairs (case 3.2a: ST' − ST ≥ Dc).
        let live: Vec<usize> = (0..g).filter(|&i| alive[i]).collect();
        let mut candidates = Vec::new();
        for (ai, &i) in live.iter().enumerate() {
            for &j in &live[ai + 1..] {
                // `means[x]` is Some for every alive group (loop
                // invariant: merging clears `alive` and `means` together).
                let (Some(mi), Some(mj)) = (means[i].as_ref(), means[j].as_ref()) else {
                    continue;
                };
                if ed_normalized(mi, mj) <= margin {
                    candidates.push((i, j));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // "We randomly choose a pair of qualifying groups and perform the
        // merge", then cascade (§5.2 case 3.2a).
        let (i, j) = candidates[rng.gen_range(0..candidates.len())];
        slab.absorb(i, j);
        alive[j] = false;
        means[j] = None;
        let mut m = Vec::new();
        slab.mean_into(i, &mut m);
        means[i] = Some(m);
    }
    slab.retain_groups(|local| alive[local]);
    slab
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{def8_violation, strict_limit};
    use crate::engine::{Explorer, QueryOptions};
    use crate::{BuildMode, MatchMode, OnexConfig};
    use onex_dist::ed_normalized;
    use onex_ts::synth;

    fn base(st: f64) -> OnexBase {
        let d = synth::sine_mix(6, 16, 2, 21);
        OnexBase::build(&d, OnexConfig::with_st(st)).unwrap()
    }

    #[test]
    fn same_threshold_returns_equal_base() {
        let b = base(0.2);
        let r = refine_impl(&b, 0.2).unwrap();
        assert_eq!(b, r);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let b = base(0.2);
        assert!(refine_impl(&b, 0.0).is_err());
        assert!(refine_impl(&b, f64::NAN).is_err());
    }

    #[test]
    fn splitting_preserves_membership_and_tightens_invariant() {
        let b = base(0.4);
        let r = refine_impl(&b, 0.1).unwrap();
        assert_eq!(r.config().st, 0.1);
        // same total membership
        assert_eq!(b.stats().subsequences, r.stats().subsequences);
        // at least as many groups
        assert!(r.stats().representatives >= b.stats().representatives);
        // tightened invariant holds (Strict mode)
        for g in r.groups() {
            for &(m, _) in g.members() {
                let d = ed_normalized(r.dataset().subseq_unchecked(m), g.representative());
                assert!(d <= 0.05 + 1e-9, "ED̄ {d} > ST'/2");
            }
        }
    }

    #[test]
    fn merging_reduces_group_count() {
        let b = base(0.1);
        let r = refine_impl(&b, 0.6).unwrap();
        assert_eq!(r.config().st, 0.6);
        assert_eq!(b.stats().subsequences, r.stats().subsequences);
        assert!(
            r.stats().representatives <= b.stats().representatives,
            "merge should not increase groups"
        );
        // far-apart groups (Dc > ST'−ST) must survive: check that at least
        // one length still has > 1 group unless everything was truly close.
        // (sine_mix has two well-separated classes, so expect > 1 group at
        // moderate lengths.)
        let any_multi = r.length_indexes().any(|idx| idx.group_count() > 1);
        assert!(
            any_multi,
            "distinct classes should not all merge at ST'=0.6"
        );
    }

    /// Merging as earlier versions refined: no Strict repair after the
    /// merges, every group finalized as it stands.
    fn merged_without_repair(base: &OnexBase, st_prime: f64) -> OnexBase {
        let mut config = *base.config();
        config.st = st_prime;
        let mut rng = SmallRng::seed_from_u64(config.seed ^ st_prime.to_bits());
        let slabs = base
            .store()
            .slabs()
            .iter()
            .cloned()
            .map(|slab| {
                let mut slab = merge_groups(slab, base.config().st, st_prime, &mut rng);
                let radius = config.window.resolve(slab.subseq_len(), slab.subseq_len());
                for local in 0..slab.group_count() {
                    slab.finalize(local, base.dataset(), radius);
                }
                slab
            })
            .collect();
        OnexBase::assemble(
            base.dataset().clone(),
            base.normalizer().copied(),
            config,
            crate::base::without_reuse(slabs),
        )
    }

    /// Def. 8 recomputed from the data: every member of a multi-member
    /// group lies within `√L · ST/2` of its representative.
    fn assert_def8(base: &OnexBase) {
        let st = base.config().st;
        for g in base.groups().filter(|g| g.member_count() > 1) {
            let limit = strict_limit(g.len_of_members(), st);
            for &(m, _) in g.members() {
                let d = onex_dist::ed(base.dataset().subseq_unchecked(m), g.representative());
                assert!(d <= limit, "{m:?} at raw ED {d}, limit {limit}");
            }
        }
    }

    #[test]
    fn strict_merge_keeps_every_member_within_the_new_limit() {
        let b = base(0.1);
        // Without the repair these merges carry members past `ST'/2`.
        assert!(merged_without_repair(&b, 0.6)
            .validate_invariants()
            .is_err());
        let r = refine_impl(&b, 0.6).unwrap();
        assert_def8(&r);
        r.validate_invariants().unwrap();
    }

    #[test]
    fn merge_close_matches_every_group_reference() {
        // Reopening the merged slab checks and re-finalizes only the merged
        // groups; re-checking and re-finalizing every group gives the same
        // slab, in both build modes.
        let d = synth::sine_mix(6, 16, 2, 21);
        for mode in [BuildMode::Strict, BuildMode::Paper] {
            let cfg = OnexConfig {
                build_mode: mode,
                ..OnexConfig::with_st(0.1)
            };
            let b = OnexBase::build(&d, cfg).unwrap();
            for st_prime in [0.25, 0.6] {
                let new_cfg = OnexConfig {
                    st: st_prime,
                    ..cfg
                };
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ st_prime.to_bits());
                for slab in b.store().slabs() {
                    let merged = merge_groups(slab.clone(), 0.1, st_prime, &mut rng);
                    let every = Assigner::with_slab(st_prime, merged.clone())
                        .finish_every_group(b.dataset(), &new_cfg);
                    let (touched, _) =
                        Assigner::reopen(st_prime, merged).finish(b.dataset(), &new_cfg);
                    assert_eq!(
                        touched,
                        every,
                        "{mode:?} ST' {st_prime} len {}",
                        slab.subseq_len()
                    );
                }
            }
        }
    }

    #[test]
    fn unrepaired_strict_merge_from_an_earlier_version_loads_repaired() {
        let b = base(0.1);
        let saved = merged_without_repair(&b, 0.6);
        let loaded = crate::snapshot::decode(&crate::snapshot::encode(&saved)).unwrap();
        loaded.validate_invariants().unwrap();
        assert_def8(&loaded);
        assert_eq!(loaded.stats().subsequences, saved.stats().subsequences);
        // Only the lengths that break Def. 8 are repaired.
        let (before, after) = (saved.store().slabs(), loaded.store().slabs());
        assert_eq!(before.len(), after.len());
        let mut repaired = 0;
        for (s, l) in before.iter().zip(after) {
            if def8_violation(s, 0.6).is_some() {
                repaired += 1;
            } else {
                assert_eq!(s, l, "length {}", s.subseq_len());
            }
        }
        assert!(repaired > 0);
    }

    #[test]
    fn refined_base_answers_queries() {
        let b = base(0.2);
        let r = refine_impl(&b, 0.35).unwrap();
        let q: Vec<f64> = r.dataset().get(0).unwrap().values()[0..8].to_vec();
        let explorer = Explorer::from_base(r);
        let m = explorer
            .best_match(&q, MatchMode::Exact(8), QueryOptions::default())
            .unwrap();
        assert!(m.dist.is_finite());
    }

    #[test]
    fn split_then_requery_is_consistent() {
        // The split base must still cover every subsequence, so an exact
        // self-query with exhaustive search returns distance ~0.
        let d = synth::sine_mix(5, 12, 2, 33);
        let cfg = OnexConfig {
            exhaustive_group_search: true,
            ..OnexConfig::with_st(0.4)
        };
        let b = OnexBase::build(&d, cfg).unwrap();
        let r = refine_impl(&b, 0.2).unwrap();
        let q: Vec<f64> = r.dataset().get(1).unwrap().values()[2..8].to_vec();
        let explorer = Explorer::from_base(r);
        let m = explorer
            .best_match(&q, MatchMode::Exact(6), QueryOptions::default())
            .unwrap();
        assert!(m.raw_dtw <= 1e-9, "raw {}", m.raw_dtw);
    }
}
