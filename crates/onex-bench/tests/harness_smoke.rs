//! Smoke tests for the experiment harness: the cheap experiments run end to
//! end at minuscule scale without panicking (the expensive ones — fig2,
//! fig3, table23, ablation — are covered by the recorded `repro` runs; they
//! include the naive Standard DTW scan, too slow for a unit test).

use onex_bench::experiments::{fig4, fig56, perf, table1, table4, Ctx};

fn tiny() -> Ctx {
    Ctx {
        scale: 0.01,
        seed: 3,
        runs: 1,
        threads: 2,
        csv_dir: Some(std::env::temp_dir().join("onex_smoke_csv")),
        json_out: None,
        check_against: None,
    }
}

#[test]
fn table1_runs() {
    table1::run(&tiny());
}

#[test]
fn table4_runs() {
    table4::run(&tiny());
}

#[test]
fn fig4_runs() {
    fig4::run(&tiny());
}

#[test]
fn fig56_runs() {
    fig56::run(&tiny());
}

#[test]
fn perf_baseline_emits_parseable_json_and_self_checks() {
    // The perf experiment must write a baseline the bundled JSON reader
    // can parse, and a fresh run checked against its own output must pass
    // (counters are deterministic for a fixed scale/seed).
    let dir = std::env::temp_dir().join("onex_smoke_perf");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let mut ctx = tiny();
    ctx.json_out = Some(path.clone());
    assert!(perf::run(&ctx), "perf run with --json must succeed");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = onex_bench::json::Json::parse(&text).unwrap();
    assert_eq!(doc.get("version").and_then(|v| v.as_f64()), Some(3.0));
    assert!(!doc.get("datasets").unwrap().as_arr().unwrap().is_empty());

    // Counter coverage: every `QueryStats` counter is a key of every cell,
    // so a new pruning tier cannot escape the baseline.
    let counters = query_stats_counters();
    let mut cells = 0;
    for ds in doc.get("datasets").unwrap().as_arr().unwrap() {
        for class in ds.get("classes").unwrap().as_arr().unwrap() {
            for cell in class.get("variants").unwrap().as_arr().unwrap() {
                cells += 1;
                let missing = missing_counters(cell, &counters);
                assert!(missing.is_empty(), "perf cell lacks {missing:?}");
            }
        }
    }
    assert!(cells > 0);

    ctx.json_out = None;
    ctx.check_against = Some(path);
    assert!(perf::run(&ctx), "self-check must never regress");
}

/// The counter names of `QueryStats`, taken from the struct itself via its
/// `Debug` form; the non-counter fields are left out.
fn query_stats_counters() -> Vec<String> {
    let debug = format!("{:?}", onex_core::QueryStats::default());
    let counters: Vec<String> = debug
        .trim_start_matches("QueryStats {")
        .trim_end_matches('}')
        .split(',')
        .filter_map(|field| field.split_once(':').map(|(name, _)| name.trim()))
        .filter(|name| !["elapsed", "truncated", "degraded", "epoch"].contains(name))
        .map(str::to_string)
        .collect();
    assert!(counters.iter().any(|c| c == "dtw_evals"), "{debug}");
    counters
}

/// The counters that a perf cell has no key for.
fn missing_counters<'a>(cell: &onex_bench::json::Json, counters: &'a [String]) -> Vec<&'a str> {
    counters
        .iter()
        .map(String::as_str)
        .filter(|name| cell.get(name).is_none())
        .collect()
}

#[test]
fn counter_coverage_reports_missing_keys() {
    use onex_bench::json::Json;
    let counters = query_stats_counters();
    assert!(counters.len() >= 2, "{counters:?}");

    // A cell with every counter passes.
    let full = Json::obj(
        counters
            .iter()
            .map(|c| (c.as_str(), Json::num(0)))
            .collect(),
    );
    assert!(missing_counters(&full, &counters).is_empty());

    // A cell that drops one counter is reported by exactly that name.
    let dropped = counters.iter().find(|c| c.as_str() != "dtw_evals").unwrap();
    let partial = Json::obj(
        counters
            .iter()
            .filter(|c| *c != dropped)
            .map(|c| (c.as_str(), Json::num(0)))
            .collect(),
    );
    assert_eq!(
        missing_counters(&partial, &counters),
        vec![dropped.as_str()]
    );
}

#[test]
fn paper_reference_tables_are_consistent() {
    // The hard-coded paper values must keep their internal relationships:
    // ONEX-S faster than Trillion (Table 1), ONEX more accurate (Tables 2–3).
    for (onex_s, trillion) in onex_bench::experiments::table1::PAPER {
        assert!(onex_s < trillion);
    }
    for (onex_s, trillion) in onex_bench::experiments::table23::PAPER_T2 {
        assert!(onex_s > trillion);
    }
    for (onex, trillion, _paa) in onex_bench::experiments::table23::PAPER_T3 {
        assert!(onex > trillion);
    }
    for (reps, subseqs, mb) in onex_bench::experiments::table4::PAPER {
        assert!(reps < subseqs);
        assert!(mb > 0.0);
    }
}
