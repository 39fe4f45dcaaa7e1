//! The unified-engine contract, tested from the outside through the
//! public `onex` facade:
//!
//! 1. **Pruning is invisible** — every Class I query form returns
//!    byte-identical answers with the lower-bound cascade on, reduced to
//!    the representative-level bound, or off, while the cascade does
//!    strictly less DTW work.
//! 2. **Concurrency** — one shared `Arc<OnexBase>` must serve queries from
//!    many threads simultaneously, each answer identical to the
//!    single-threaded one, and a `Batch` request mixes every class over
//!    one shared base.

use onex::ts::synth;
use onex::{Explorer, MatchMode, OnexBase, OnexConfig, QueryOptions, QueryRequest};
use std::sync::Arc;

fn base() -> OnexBase {
    let d = synth::sine_mix(10, 24, 2, 2024);
    OnexBase::build(&d, OnexConfig::default()).unwrap()
}

/// A spread of in-dataset queries across series, offsets, and lengths.
fn queries(base: &OnexBase) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for (sid, lo, hi) in [
        (0usize, 0usize, 12usize),
        (1, 3, 9),
        (2, 5, 21),
        (3, 0, 24),
        (4, 8, 16),
        (5, 2, 20),
        (6, 0, 6),
        (7, 10, 22),
        (8, 1, 17),
        (9, 4, 12),
    ] {
        out.push(base.dataset().series()[sid].values()[lo..hi].to_vec());
    }
    out
}

#[test]
fn cascade_results_byte_identical_to_unpruned_search() {
    // The cascaded lower-bound pipeline (LB_Kim → query-envelope LB_Keogh
    // → candidate-envelope LB_Keogh → suffix-abandoned DTW) changes work
    // done, never answers: every Class I query form must return results
    // byte-identical to a search with all pruning disabled, and the
    // intermediate "representative-only LB" ablation point must agree too.
    let b = base();
    let explorer = Explorer::new(Arc::new(b.clone()));
    let unpruned = QueryOptions {
        lb_pruning: false,
        ..QueryOptions::default()
    };
    let rep_only = QueryOptions {
        cascade: false,
        ..QueryOptions::default()
    };
    for q in queries(&b) {
        for mode in [MatchMode::Any, MatchMode::Exact(q.len())] {
            let on = explorer
                .best_match(&q, mode, QueryOptions::default())
                .unwrap();
            assert_eq!(on, explorer.best_match(&q, mode, unpruned).unwrap());
            assert_eq!(on, explorer.best_match(&q, mode, rep_only).unwrap());
            for k in [1usize, 3, 10] {
                let tk = explorer
                    .top_k(&q, mode, k, QueryOptions::default())
                    .unwrap();
                assert_eq!(tk, explorer.top_k(&q, mode, k, unpruned).unwrap(), "k={k}");
                assert_eq!(tk, explorer.top_k(&q, mode, k, rep_only).unwrap(), "k={k}");
            }
            for verify in [false, true] {
                let wt = explorer
                    .within_threshold(&q, mode, verify, QueryOptions::default())
                    .unwrap();
                assert_eq!(
                    wt,
                    explorer
                        .within_threshold(&q, mode, verify, unpruned)
                        .unwrap(),
                    "verify={verify}"
                );
            }
        }
    }
}

#[test]
fn cascade_reduces_dtw_evaluations() {
    // The point of the pipeline: fewer DTW evaluations for the same
    // answers. Summed over a spread of queries, the cascade must do
    // strictly less DTW work than the unpruned search, and per-tier prune
    // counters must account exactly for the total.
    let b = base();
    let explorer = Explorer::new(Arc::new(b.clone()));
    let unpruned = QueryOptions {
        lb_pruning: false,
        ..QueryOptions::default()
    };
    let mut evals_on = 0usize;
    let mut evals_off = 0usize;
    for q in queries(&b) {
        for (opts, evals) in [
            (QueryOptions::default(), &mut evals_on),
            (unpruned, &mut evals_off),
        ] {
            let resp = explorer
                .query(QueryRequest::TopK {
                    values: q.clone(),
                    mode: MatchMode::Exact(q.len()),
                    k: 3,
                    options: opts,
                })
                .unwrap();
            *evals += resp.stats.dtw_evals;
            assert_eq!(
                resp.stats.lb_prunes,
                resp.stats.pruned_paa
                    + resp.stats.pruned_kim
                    + resp.stats.pruned_keogh_eq
                    + resp.stats.pruned_keogh_ec
            );
        }
    }
    assert!(
        evals_on < evals_off,
        "cascade must cut DTW work: {evals_on} vs {evals_off}"
    );
}

#[test]
fn concurrent_queries_from_many_threads_over_one_shared_base() {
    const THREADS: usize = 6;
    let b = base();
    let shared = Arc::new(b);
    let explorer = Explorer::new(Arc::clone(&shared));
    let qs = queries(&shared);

    // Ground truth, single-threaded.
    let expected: Vec<_> = qs
        .iter()
        .map(|q| {
            (
                explorer
                    .best_match(q, MatchMode::Any, QueryOptions::default())
                    .unwrap(),
                explorer
                    .top_k(q, MatchMode::Exact(q.len()), 3, QueryOptions::default())
                    .unwrap(),
            )
        })
        .collect();
    let seasonal_expected = explorer.seasonal_all(8, 2).unwrap();
    let recommend_expected = explorer.recommend(None, None).unwrap();

    // Hammer the same explorer from THREADS threads at once; every thread
    // issues every query class, interleaved, and must see identical
    // answers.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let explorer = explorer.clone();
            let qs = &qs;
            let expected = &expected;
            let seasonal_expected = &seasonal_expected;
            let recommend_expected = &recommend_expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for i in 0..qs.len() {
                        // Stagger the order per thread so threads are
                        // genuinely interleaved, not lockstepped.
                        let i = (i + t + round) % qs.len();
                        let q = &qs[i];
                        let got = explorer
                            .best_match(q, MatchMode::Any, QueryOptions::default())
                            .unwrap();
                        assert_eq!(got, expected[i].0, "thread {t} query {i}");
                        let got = explorer
                            .top_k(q, MatchMode::Exact(q.len()), 3, QueryOptions::default())
                            .unwrap();
                        assert_eq!(got, expected[i].1, "thread {t} query {i}");
                    }
                    assert_eq!(&explorer.seasonal_all(8, 2).unwrap(), seasonal_expected);
                    assert_eq!(&explorer.recommend(None, None).unwrap(), recommend_expected);
                }
            });
        }
    });

    // The base is still shared (explorer clones + our handle).
    assert!(Arc::strong_count(&shared) >= 2);
}

#[test]
fn concurrent_mixed_request_batch() {
    // The Batch variant itself runs on worker threads over one shared
    // base, mixing all three classes.
    let b = base();
    let explorer = Explorer::new(Arc::new(b));
    let mut requests = Vec::new();
    for q in queries(&explorer.base()) {
        requests.push(QueryRequest::best_match(q, MatchMode::Any));
    }
    requests.push(QueryRequest::seasonal_all(8, 2));
    requests.push(QueryRequest::recommend(None, None));
    let n = requests.len();
    let resp = explorer
        .query(QueryRequest::Batch {
            requests,
            threads: 4,
        })
        .unwrap();
    let batch = resp.result.batch().unwrap();
    assert_eq!(batch.len(), n);
    assert!(batch.iter().all(|r| r.is_ok()));
    assert!(resp.stats.dtw_evals > 0);
    assert!(resp.stats.elapsed > std::time::Duration::ZERO);
}
