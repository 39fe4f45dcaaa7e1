//! The answer contract, exact: what every query of the work golden's
//! (dataset, query class) cells answers under default `QueryOptions`,
//! compared line for line with the checked-in `answers.txt`, plus each
//! dataset's SP-Space thresholds.
//!
//! * best match: the subsequence `(series, start, len)`, its group and the
//!   `f64` bits of `raw_dtw` and `dist`;
//! * top-k: the same line for every ranked match;
//! * range: the match count and an FNV-1a 64 hash of the sorted
//!   `(series, start, len)` set (hand-rolled, because `DefaultHasher`'s
//!   output is not stable across Rust releases);
//! * SP-Space: the bits of the global `(ST_half, ST_final)` and of every
//!   length's pair.
//!
//! A second test checks the range class against an oracle rather than a
//! file: an exhaustive DTW scan of every same-length subsequence.
//!
//! "Same answers" is the golden test passing; a change that moves an answer on
//! purpose re-blesses the file with the `cp` the failure prints, so the
//! move is a reviewable text diff. The setup and the comparison are shared
//! with the work golden (`work_counters.rs`); see the `common` module.

mod common;

use common::{assert_golden, request, workloads, CLASSES};
use onex_core::{Match, QueryOptions, QueryResult};
use std::fmt::Write as _;

fn match_line(m: &Match) -> String {
    let r = m.subseq;
    format!(
        "({}, {}, {}) group {} raw {:016x} dist {:016x}",
        r.series,
        r.start,
        r.len,
        m.group,
        m.raw_dtw.to_bits(),
        m.dist.to_bits()
    )
}

/// FNV-1a 64 over the little-endian `(series, start, len)` of each match,
/// in sorted order.
fn set_hash(matches: &[Match]) -> u64 {
    let mut refs: Vec<_> = matches.iter().map(|m| m.subseq).collect();
    refs.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in refs {
        for word in [r.series, r.start, r.len] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn render() -> String {
    let mut out = String::new();
    for w in workloads() {
        let name = w.name;
        for class in CLASSES {
            for (i, q) in w.queries.iter().enumerate() {
                let resp = w
                    .explorer
                    .query(request(class, q, QueryOptions::default()))
                    .expect("benchmark query answers");
                match &resp.result {
                    QueryResult::BestMatch(m) => {
                        writeln!(out, "{name} {class} q{i} {}", match_line(m)).unwrap();
                    }
                    QueryResult::TopK(ms) => {
                        for (rank, m) in ms.iter().enumerate() {
                            writeln!(out, "{name} {class} q{i} #{rank} {}", match_line(m)).unwrap();
                        }
                    }
                    QueryResult::WithinThreshold(ms) => {
                        writeln!(
                            out,
                            "{name} {class} q{i} count {} fnv {:016x}",
                            ms.len(),
                            set_hash(ms)
                        )
                        .unwrap();
                    }
                    other => panic!("{class} answered {other:?}"),
                }
            }
        }
        let base = w.explorer.base();
        let sp = base.sp_space();
        let bits =
            |(h, f): (f64, f64)| format!("half {:016x} final {:016x}", h.to_bits(), f.to_bits());
        writeln!(
            out,
            "{name} sp global {}",
            bits((sp.global_half(), sp.global_final()))
        )
        .unwrap();
        for len in base.indexed_lengths() {
            let local = sp.local(len).expect("every indexed length has thresholds");
            writeln!(out, "{name} sp len {len} {}", bits(local)).unwrap();
        }
    }
    out
}

#[test]
fn answers_match_the_golden_file() {
    assert_golden("answers", "answers", &render());
}

/// Verified range against an exhaustive scan: for every query of the
/// golden mix, `WithinThreshold { verify: true, Exact(len) }` returns
/// exactly the subsequences of the query's length whose banded DTW to it
/// is within ST (Def. 6), each with the `f64` bits of that DTW. The scan
/// is plain `onex_dist::dtw` over the dataset, so it shares no pruning,
/// certificate or batching with the engine.
#[test]
fn verified_range_equals_an_exhaustive_scan() {
    for w in workloads() {
        let base = w.explorer.base();
        let config = base.config();
        for (i, q) in w.queries.iter().enumerate() {
            let len = q.values.len();
            let norm = 2.0 * len as f64;
            let mut want: Vec<_> = base
                .dataset()
                .subseqs_of_len(len, &config.decomposition)
                .filter_map(|r| {
                    let raw = onex_dist::dtw(
                        &q.values,
                        base.dataset().subseq_unchecked(r),
                        config.window,
                    );
                    (raw / norm <= config.st).then_some((r, raw.to_bits()))
                })
                .collect();
            want.sort_unstable();
            let resp = w
                .explorer
                .query(request("range_verified_exact", q, QueryOptions::default()))
                .expect("range query answers");
            let QueryResult::WithinThreshold(ms) = &resp.result else {
                panic!("range answered {:?}", resp.result);
            };
            let mut got: Vec<_> = ms.iter().map(|m| (m.subseq, m.raw_dtw.to_bits())).collect();
            got.sort_unstable();
            assert_eq!(got.len(), want.len(), "{} q{i}: match count", w.name);
            assert!(
                got == want,
                "{} q{i}: first difference at {:?}",
                w.name,
                got.iter().zip(&want).find(|(g, w)| g != w)
            );
        }
    }
}
