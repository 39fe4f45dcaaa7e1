//! Smoke tests for the experiment harness: the cheap experiments run end to
//! end at minuscule scale without panicking (the expensive ones — fig2,
//! fig3, table23, ablation — are covered by the recorded `repro` runs; they
//! include the naive Standard DTW scan, too slow for a unit test).

use onex_bench::experiments::{fig4, fig56, table1, table4, Ctx};

fn tiny() -> Ctx {
    Ctx {
        scale: 0.01,
        seed: 3,
        runs: 1,
        threads: 2,
        csv_dir: Some(std::env::temp_dir().join("onex_smoke_csv")),
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
