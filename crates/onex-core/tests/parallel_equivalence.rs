//! Cross-thread-count equivalence for the intra-query parallel scans:
//! query *results* must be byte-identical at every `query_threads`
//! setting (the shared-cutoff + deterministic-merge guarantee), per-tier
//! work counters must stay exactly conserved (summed per worker, never
//! lost to a race), and the within-threshold scan's counters — whose
//! cutoffs are fixed up front — must equal the sequential scan's exactly.

use std::sync::OnceLock;

use onex_core::engine::{Explorer, QueryOptions, QueryRequest, QueryResponse, QueryStats};
use onex_core::{MatchMode, OnexConfig};
use onex_ts::synth;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn opts(threads: usize) -> QueryOptions {
    QueryOptions {
        query_threads: Some(threads),
        ..Default::default()
    }
}

/// A base wide enough that the striped scans genuinely engage: the plan
/// only fans out when some length offers at least two full stripes of
/// groups, so the test asserts that floor rather than silently comparing
/// sequential against sequential.
fn wide_explorer() -> &'static Explorer {
    static EXP: OnceLock<Explorer> = OnceLock::new();
    EXP.get_or_init(|| {
        let d = synth::random_walk(48, 24, 0xBEEF);
        let cfg = OnexConfig {
            st: 0.08,
            paa_width: 8,
            ..Default::default()
        };
        let e = Explorer::build(&d, cfg).unwrap();
        let widest = e
            .base()
            .indexed_lengths()
            .filter_map(|len| e.base().slab(len).map(|s| s.group_count()))
            .max()
            .unwrap();
        assert!(
            widest >= 16,
            "test base too narrow to engage striping: widest length has {widest} groups"
        );
        e
    })
}

/// The conservation identities every response must satisfy at any thread
/// count: counters are per-worker sums, so nothing is ever lost or
/// double-counted even when the absolute values are scheduling-dependent.
fn assert_counters_conserved(s: &QueryStats) {
    assert_eq!(
        s.lb_prunes,
        s.pruned_paa + s.pruned_kim + s.pruned_keogh_eq + s.pruned_keogh_ec,
        "per-tier prunes must sum to the aggregate: {s:?}"
    );
    assert!(s.early_abandons <= s.dtw_evals, "{s:?}");
    assert!(!s.truncated, "unbudgeted queries never truncate: {s:?}");
}

fn run(e: &Explorer, req: QueryRequest) -> QueryResponse {
    e.query(req).unwrap()
}

#[test]
fn results_are_byte_identical_across_thread_counts() {
    let e = wide_explorer();
    let base = e.base();
    for (sid, lo, hi) in [(0usize, 0usize, 24usize), (7, 4, 16), (23, 2, 22)] {
        let q = base.dataset().series()[sid].values()[lo..hi].to_vec();
        for mode in [MatchMode::Exact(q.len()), MatchMode::Any] {
            let best_seq = run(
                e,
                QueryRequest::BestMatch {
                    values: q.clone(),
                    mode,
                    options: opts(1),
                },
            );
            let top_seq = run(
                e,
                QueryRequest::TopK {
                    values: q.clone(),
                    mode,
                    k: 8,
                    options: opts(1),
                },
            );
            let range_seq = run(
                e,
                QueryRequest::WithinThreshold {
                    values: q.clone(),
                    mode,
                    verify: true,
                    options: opts(1),
                },
            );
            let certified_seq = run(
                e,
                QueryRequest::WithinThreshold {
                    values: q.clone(),
                    mode,
                    verify: false,
                    options: opts(1),
                },
            );
            for s in [&best_seq, &top_seq, &range_seq, &certified_seq] {
                assert_counters_conserved(&s.stats);
            }
            for &t in &THREADS[1..] {
                let best = run(
                    e,
                    QueryRequest::BestMatch {
                        values: q.clone(),
                        mode,
                        options: opts(t),
                    },
                );
                assert_eq!(
                    best_seq.result.best_match().unwrap(),
                    best.result.best_match().unwrap(),
                    "best_match diverged at {t} threads, {mode:?}"
                );
                assert_counters_conserved(&best.stats);

                let top = run(
                    e,
                    QueryRequest::TopK {
                        values: q.clone(),
                        mode,
                        k: 8,
                        options: opts(t),
                    },
                );
                assert_eq!(
                    top_seq.result.matches().unwrap(),
                    top.result.matches().unwrap(),
                    "top_k diverged at {t} threads, {mode:?}"
                );
                assert_counters_conserved(&top.stats);

                for (reference, verify) in [(&range_seq, true), (&certified_seq, false)] {
                    let range = run(
                        e,
                        QueryRequest::WithinThreshold {
                            values: q.clone(),
                            mode,
                            verify,
                            options: opts(t),
                        },
                    );
                    assert_eq!(
                        reference.result.matches().unwrap(),
                        range.result.matches().unwrap(),
                        "within_threshold(verify={verify}) diverged at {t} threads, {mode:?}"
                    );
                    // The range scan's cutoffs are fixed before the fan-out,
                    // so its counters — not just its answers — are exactly
                    // the sequential scan's at any worker count.
                    let mut want = reference.stats;
                    want.elapsed = range.stats.elapsed;
                    assert_eq!(
                        want, range.stats,
                        "within_threshold(verify={verify}) counters drifted at {t} threads, {mode:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn budgeted_queries_stay_deterministic_at_any_thread_count() {
    // An anytime budget forces the sequential path (the truncation point
    // must not depend on scheduling), so budgeted responses — answers and
    // counters both — are identical at every thread setting.
    let e = wide_explorer();
    let q = e.base().dataset().series()[3].values()[0..20].to_vec();
    let budgeted = |threads: usize| QueryOptions {
        max_dtw_evals: Some(200),
        ..opts(threads)
    };
    let seq = run(
        e,
        QueryRequest::BestMatch {
            values: q.clone(),
            mode: MatchMode::Any,
            options: budgeted(1),
        },
    );
    for &t in &THREADS[1..] {
        let par = run(
            e,
            QueryRequest::BestMatch {
                values: q.clone(),
                mode: MatchMode::Any,
                options: budgeted(t),
            },
        );
        assert_eq!(
            seq.result.best_match().unwrap(),
            par.result.best_match().unwrap()
        );
        let mut want = seq.stats;
        want.elapsed = par.stats.elapsed;
        assert_eq!(want, par.stats, "budgeted counters must be sequential");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized equivalence sweep: arbitrary in-range queries, every
    /// Class I form, threads 1 vs 4 — responses must agree exactly.
    #[test]
    fn random_queries_agree_across_thread_counts(
        q in proptest::collection::vec(0.0f64..1.0, 8..24),
        k in 1usize..10,
    ) {
        let e = wide_explorer();
        for mode in [MatchMode::Exact(q.len()), MatchMode::Any] {
            let b1 = run(e, QueryRequest::BestMatch { values: q.clone(), mode, options: opts(1) });
            let b4 = run(e, QueryRequest::BestMatch { values: q.clone(), mode, options: opts(4) });
            prop_assert_eq!(b1.result.best_match().unwrap(), b4.result.best_match().unwrap());

            let t1 = run(e, QueryRequest::TopK { values: q.clone(), mode, k, options: opts(1) });
            let t4 = run(e, QueryRequest::TopK { values: q.clone(), mode, k, options: opts(4) });
            prop_assert_eq!(t1.result.matches().unwrap(), t4.result.matches().unwrap());

            for verify in [true, false] {
                let r1 = run(e, QueryRequest::WithinThreshold {
                    values: q.clone(), mode, verify, options: opts(1),
                });
                let r4 = run(e, QueryRequest::WithinThreshold {
                    values: q.clone(), mode, verify, options: opts(4),
                });
                prop_assert_eq!(r1.result.matches().unwrap(), r4.result.matches().unwrap());
                let mut want = r1.stats;
                want.elapsed = r4.stats.elapsed;
                prop_assert_eq!(want, r4.stats);
            }
        }
    }
}
