//! The work contract, exact: every `QueryStats` counter of every
//! (dataset, query class, pruning variant) cell, summed over the §6.2 query
//! mix, compared line for line with the checked-in `work_counters.txt`.
//! The lines come from iterating the counter block itself, so a counter
//! added to the block shows up here (and fails the comparison until the
//! file is re-blessed) without touching this test.
//!
//! The counters are deterministic for a fixed scale and seed, so "same work"
//! is this test passing and "moved work" is a reviewable diff of the text
//! file in the change that moves it. On a mismatch the fresh text is written
//! next to the test binaries and the failure names the first differing line
//! and the `cp` that re-blesses it.
//!
//! The setup is `repro`'s experiment configuration ([`Ctx::config`]: ST 0.2,
//! the 10 % band, sketch width 8, one query thread) at scale 0.25, seed 7.
//! `query_threads` is pinned through the config, which takes precedence
//! over `ONEX_QUERY_THREADS`, so the file holds under any thread override.

use onex_bench::experiments::Ctx;
use onex_bench::{make_queries, Query};
use onex_core::{Explorer, MatchMode, QueryOptions, QueryRequest, QueryStats};
use onex_ts::synth::PaperDataset;
use std::fmt::Write as _;

const DATASETS: [PaperDataset; 3] = [
    PaperDataset::ItalyPower,
    PaperDataset::Ecg,
    PaperDataset::NearDuplicates,
];

const CLASSES: [&str; 4] = [
    "best_match_exact",
    "best_match_any",
    "top_k_10_exact",
    "range_verified_exact",
];

/// The three pruning variants: the default full cascade, the pre-cascade
/// rep-only bounds, and no lower bounds at all.
fn variants() -> [(&'static str, QueryOptions); 3] {
    [
        ("cascade", QueryOptions::default()),
        (
            "rep_only",
            QueryOptions {
                cascade: false,
                ..QueryOptions::default()
            },
        ),
        (
            "unpruned",
            QueryOptions {
                lb_pruning: false,
                ..QueryOptions::default()
            },
        ),
    ]
}

fn request(class: &str, q: &Query, options: QueryOptions) -> QueryRequest {
    let values = q.values.clone();
    let exact = MatchMode::Exact(values.len());
    match class {
        "best_match_exact" => QueryRequest::BestMatch {
            values,
            mode: exact,
            options,
        },
        "best_match_any" => QueryRequest::BestMatch {
            values,
            mode: MatchMode::Any,
            options,
        },
        "top_k_10_exact" => QueryRequest::TopK {
            values,
            mode: exact,
            k: 10,
            options,
        },
        "range_verified_exact" => QueryRequest::WithinThreshold {
            values,
            mode: exact,
            verify: true,
            options,
        },
        other => panic!("unknown query class {other}"),
    }
}

/// Renders the whole work record: the shape of each dataset's base, then
/// one line per (dataset, class, variant, counter).
fn render() -> String {
    let ctx = Ctx {
        scale: 0.25,
        seed: 7,
        ..Ctx::default()
    };
    let (n_in, n_out) = ctx.query_mix();
    let mut out = String::new();
    for ds in DATASETS {
        let data = ds.generate_scaled(ctx.scale, ctx.seed);
        let base = onex_core::OnexBase::build(&data, ctx.config()).expect("base builds");
        let explorer = Explorer::from_base(base);
        let base = explorer.base();
        let queries = make_queries(ds, &base, n_in, n_out, ctx.seed);
        let shape = base.stats();
        let name = ds.name();
        writeln!(out, "{name} series {}", base.dataset().len()).unwrap();
        writeln!(out, "{name} subsequences {}", shape.subsequences).unwrap();
        writeln!(out, "{name} representatives {}", shape.representatives).unwrap();
        for class in CLASSES {
            for (variant, options) in variants() {
                let mut sum = QueryStats::default();
                for q in &queries {
                    let resp = explorer
                        .query(request(class, q, options))
                        .expect("benchmark query answers");
                    sum.absorb(&resp.stats);
                }
                writeln!(out, "{name} {class} {variant} queries {}", queries.len()).unwrap();
                for (counter, value) in sum.counters() {
                    writeln!(out, "{name} {class} {variant} {counter} {value}").unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn work_counters_match_the_golden_file() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_counters.txt");
    let actual = render();
    let golden = std::fs::read_to_string(golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }
    let actual_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/work_counters.actual");
    std::fs::write(actual_path, &actual).expect("write the fresh work record");
    let mut golden_lines = golden.lines();
    let first_diff = actual
        .lines()
        .enumerate()
        .find_map(|(i, line)| {
            let want = golden_lines.next();
            (want != Some(line)).then(|| {
                format!(
                    "line {}: golden {:?}, now {line:?}",
                    i + 1,
                    want.unwrap_or("<end of file>")
                )
            })
        })
        .unwrap_or_else(|| {
            format!(
                "golden has extra lines from {:?}",
                golden_lines.next().unwrap_or("")
            )
        });
    panic!(
        "work counters moved — {first_diff}\n\
         if the move is intended, re-bless with:\n  cp {actual_path} {golden_path}"
    );
}
