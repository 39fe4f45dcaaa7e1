//! The setup the two exact goldens share (`work_counters.rs` pins what the
//! engine does, `answers.rs` what it answers): the same datasets, query
//! classes and §6.2 query mix, built with `repro`'s experiment
//! configuration ([`Ctx::config`]: ST 0.2, the 10 % band, sketch width 8,
//! one query thread) at scale 0.25, seed 7, and the same exact comparison
//! against a checked-in text file.
//!
//! `query_threads` is pinned through the config, which takes precedence
//! over `ONEX_QUERY_THREADS`, so both files hold under any thread override.

use onex_bench::experiments::Ctx;
use onex_bench::{make_queries, Query};
use onex_core::{Explorer, MatchMode, QueryOptions, QueryRequest};
use onex_ts::synth::PaperDataset;

const DATASETS: [PaperDataset; 3] = [
    PaperDataset::ItalyPower,
    PaperDataset::Ecg,
    PaperDataset::NearDuplicates,
];

/// The query classes, in file order.
pub const CLASSES: [&str; 4] = [
    "best_match_exact",
    "best_match_any",
    "top_k_10_exact",
    "range_verified_exact",
];

/// One dataset's base behind an explorer, with its query mix.
pub struct Workload {
    pub name: &'static str,
    pub explorer: Explorer,
    pub queries: Vec<Query>,
}

/// Every dataset's workload, in file order, built on demand.
pub fn workloads() -> impl Iterator<Item = Workload> {
    let ctx = Ctx {
        scale: 0.25,
        seed: 7,
        ..Ctx::default()
    };
    let (n_in, n_out) = ctx.query_mix();
    DATASETS.into_iter().map(move |ds| {
        let data = ds.generate_scaled(ctx.scale, ctx.seed);
        let base = onex_core::OnexBase::build(&data, ctx.config()).expect("base builds");
        let explorer = Explorer::from_base(base);
        let queries = make_queries(ds, &explorer.base(), n_in, n_out, ctx.seed);
        Workload {
            name: ds.name(),
            explorer,
            queries,
        }
    })
}

/// The request one query class makes of query `q`.
pub fn request(class: &str, q: &Query, options: QueryOptions) -> QueryRequest {
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

/// Compares `actual` with the checked-in `tests/<file>.txt`, exactly. On a
/// mismatch the fresh text is written next to the test binaries and the
/// failure names the first differing line and the `cp` that re-blesses it.
pub fn assert_golden(file: &str, what: &str, actual: &str) {
    let golden_path = format!("{}/tests/{file}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }
    let actual_path = format!("{}/{file}.actual", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&actual_path, actual).expect("write the fresh record");
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
        "{what} moved — {first_diff}\n\
         if the move is intended, re-bless with:\n  cp {actual_path} {golden_path}"
    );
}
