//! The engine keeps one search context per thread — DTW rows, query
//! envelope, contribution order, sketches, suffix array, index mask — and
//! reuses it for every query that thread answers. Whatever a thread
//! answered before (another length, a rejected request, a search cut short
//! by its budget) must leave no trace: each response and each counter has
//! to equal what a thread with fresh scratch returns for the same request.

use onex_core::engine::{Explorer, QueryOptions, QueryRequest, QueryResponse};
use onex_core::{MatchMode, OnexConfig, Result};
use onex_ts::synth;
use std::time::Duration;

/// A, B (another length and class), two rejected requests, a truncated
/// search, then A again.
fn script(e: &Explorer, cascade: bool) -> Vec<QueryRequest> {
    let base = e.base();
    let series = base.dataset().series();
    let a = series[1].values()[2..14].to_vec();
    let b = series[5].values()[0..20].to_vec();
    let options = QueryOptions {
        cascade,
        query_threads: Some(1),
        ..Default::default()
    };
    let ask_a = QueryRequest::BestMatch {
        values: a.clone(),
        mode: MatchMode::Any,
        options,
    };
    vec![
        ask_a.clone(),
        QueryRequest::WithinThreshold {
            values: b.clone(),
            mode: MatchMode::Exact(20),
            verify: true,
            options,
        },
        QueryRequest::BestMatch {
            values: Vec::new(),
            mode: MatchMode::Any,
            options,
        },
        QueryRequest::TopK {
            values: vec![0.5, f64::NAN, 0.25, 0.75],
            mode: MatchMode::Any,
            k: 3,
            options,
        },
        QueryRequest::TopK {
            values: b,
            mode: MatchMode::Any,
            k: 4,
            options: QueryOptions {
                max_dtw_evals: Some(8),
                ..options
            },
        },
        ask_a,
    ]
}

/// Everything a caller can observe, `elapsed` aside.
fn observed(outcome: Result<QueryResponse>) -> String {
    format!(
        "{:?}",
        outcome.map(|mut r| {
            r.stats.elapsed = Duration::ZERO;
            r
        })
    )
}

#[test]
fn a_reused_thread_answers_like_a_fresh_one() {
    let d = synth::sine_mix(10, 32, 3, 17);
    let e = Explorer::build(&d, OnexConfig::default()).unwrap();
    for cascade in [true, false] {
        let requests = script(&e, cascade);
        let reused: Vec<String> = requests
            .iter()
            .map(|r| observed(e.query(r.clone())))
            .collect();
        assert!(reused[2].starts_with("Err") && reused[3].starts_with("Err"));
        assert!(
            reused[4].contains("truncated: true") || reused[4] == "Err(BudgetExhausted)",
            "{}",
            reused[4]
        );
        assert_eq!(reused[0], reused[5], "cascade {cascade}: A drifted");
        for (i, request) in requests.into_iter().enumerate() {
            let fresh = std::thread::scope(|s| {
                s.spawn(|| observed(e.query(request)))
                    .join()
                    .expect("fresh query thread")
            });
            assert_eq!(reused[i], fresh, "cascade {cascade}: step {i}");
        }
    }
}
