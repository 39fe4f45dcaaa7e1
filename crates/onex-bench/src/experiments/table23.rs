//! **Tables 2 & 3** — solution accuracy against the brute-force exact
//! answer (§6.2: error = system's solution distance − exact distance, both
//! as normalized DTW to the query; accuracy = (1 − avg error)·100).
//!
//! * Table 2: solutions restricted to the query's length — ONEX-S vs
//!   Trillion. Paper: ONEX-S 97–99% vs Trillion 72–97% (+12.6% on average).
//! * Table 3: any-length solutions — ONEX vs Trillion vs PAA. Paper: ONEX
//!   98–99.8%, ahead of Trillion by ~19.5% and PAA by ~2%. Trillion's drop
//!   comes from its same-length restriction: for queries not in the dataset
//!   the true optimum often lives at a different length.

use super::Ctx;
use crate::harness::{self, accuracy_from_errors, build_timed, make_queries};
use onex_baselines::{BruteForce, PaaSearch, Trillion};
use onex_core::{Explorer, MatchMode, QueryOptions};
use onex_ts::synth::PaperDataset;
use onex_ts::Decomposition;

/// Paper Table 2: (ONEX-S, Trillion) accuracy %.
pub const PAPER_T2: [(f64, f64); 6] = [
    (97.77, 82.97),
    (99.48, 74.58),
    (97.82, 71.87),
    (97.87, 87.67),
    (97.20, 96.99),
    (99.20, 88.04),
];

/// Paper Table 3: (ONEX, Trillion, PAA) accuracy %.
pub const PAPER_T3: [(f64, f64, f64); 6] = [
    (99.47, 82.97, 92.99),
    (99.81, 74.58, 96.36),
    (98.74, 71.87, 96.55),
    (99.48, 87.67, 99.21),
    (98.28, 96.99, 99.65),
    (98.54, 88.05, 99.25),
];

/// Runs both accuracy tables.
pub fn run(ctx: &Ctx) {
    let mut t2_rows = Vec::new();
    let mut t3_rows = Vec::new();

    for ds in PaperDataset::EVALUATION {
        let data = ds.generate_scaled(ctx.scale, ctx.seed);
        let (base, _) = build_timed(&data, ctx.config());
        let explorer = Explorer::from_base(base);
        let base = explorer.base();
        let (n_in, n_out) = ctx.query_mix();
        let queries = make_queries(ds, &base, n_in, n_out, ctx.seed);
        let window = base.config().window;

        let mut trillion = Trillion::new(base.dataset(), window);
        let mut paa = PaaSearch::new(base.dataset(), window, Decomposition::full(), 4);
        let mut oracle = BruteForce::oracle(base.dataset(), window);

        let (mut e_onex_s, mut e_trillion_same) = (Vec::new(), Vec::new());
        let (mut e_onex, mut e_trillion_any, mut e_paa) = (Vec::new(), Vec::new(), Vec::new());
        for q in &queries {
            let len = q.values.len();
            // The §6.2 oracle is always "the exact solution as provided by
            // the brute force Standard DTW" — the any-length optimum — for
            // both tables (Standard DTW is not length-restricted). The
            // error is the difference between "the DTW between the solution
            // and the query" (paper wording: raw DTW, the cross-length
            // ranking metric across lengths) and the exact solution's,
            // clamped to [0, 1] since accuracy cannot go negative.
            let exact = oracle.best_match_any(&q.values).expect("non-empty");
            let err = |raw: f64| (raw - exact.raw_dtw).clamp(0.0, 1.0);

            // Table 2: systems restricted to the query's length, scored
            // against the global optimum.
            if let Ok(m) =
                explorer.best_match(&q.values, MatchMode::Exact(len), QueryOptions::default())
            {
                e_onex_s.push(err(m.raw_dtw));
            }
            let t_match = trillion.best_match(&q.values);
            if let Some(t) = t_match {
                e_trillion_same.push(err(t.raw_dtw));
            }

            // Table 3: any-length systems against the same oracle.
            if let Ok(m) = explorer.best_match(&q.values, MatchMode::Any, QueryOptions::default()) {
                e_onex.push(err(m.raw_dtw));
            }
            if let Some(t) = t_match {
                e_trillion_any.push(err(t.raw_dtw));
            }
            if let Some(p) = paa.best_match_any(&q.values) {
                e_paa.push(err(p.raw_dtw));
            }
        }
        t2_rows.push((
            ds.name(),
            accuracy_from_errors(&e_onex_s),
            accuracy_from_errors(&e_trillion_same),
        ));
        t3_rows.push((
            ds.name(),
            accuracy_from_errors(&e_onex),
            accuracy_from_errors(&e_trillion_any),
            accuracy_from_errors(&e_paa),
        ));
    }

    println!(
        "\n== Table 2: same-length accuracy %, ONEX-S vs Trillion (scale {}) ==\n",
        ctx.scale
    );
    let widths = [12, 9, 10, 14, 15];
    let mut table = harness::Table::new(
        "table2_same_length_accuracy",
        &[
            "dataset",
            "ONEX-S",
            "Trillion",
            "paper ONEX-S",
            "paper Trillion",
        ],
        &widths,
    );
    for (i, (name, o, t)) in t2_rows.iter().enumerate() {
        let (po, pt) = PAPER_T2[i];
        table.row(vec![
            name.to_string(),
            format!("{o:.2}"),
            format!("{t:.2}"),
            format!("{po:.2}"),
            format!("{pt:.2}"),
        ]);
    }
    table.finish(ctx.csv());
    let d2: Vec<f64> = t2_rows.iter().map(|r| r.1 - r.2).collect();
    println!(
        "\nmeasured: ONEX-S more accurate by {:.1} points on average (paper: ~12.6).",
        harness::mean(&d2)
    );

    println!(
        "\n== Table 3: any-length accuracy %, ONEX vs Trillion vs PAA (scale {}) ==\n",
        ctx.scale
    );
    let widths = [12, 9, 10, 8, 12, 15, 11];
    let mut table = harness::Table::new(
        "table3_any_length_accuracy",
        &[
            "dataset",
            "ONEX",
            "Trillion",
            "PAA",
            "paper ONEX",
            "paper Trillion",
            "paper PAA",
        ],
        &widths,
    );
    for (i, (name, o, t, p)) in t3_rows.iter().enumerate() {
        let (po, pt, pp) = PAPER_T3[i];
        table.row(vec![
            name.to_string(),
            format!("{o:.2}"),
            format!("{t:.2}"),
            format!("{p:.2}"),
            format!("{po:.2}"),
            format!("{pt:.2}"),
            format!("{pp:.2}"),
        ]);
    }
    table.finish(ctx.csv());
    let d3: Vec<f64> = t3_rows.iter().map(|r| r.1 - r.2).collect();
    let dp: Vec<f64> = t3_rows.iter().map(|r| r.1 - r.3).collect();
    println!(
        "\nmeasured: ONEX ahead of Trillion by {:.1} points and of PAA by {:.1} (paper: ~19.5 / ~2).",
        harness::mean(&d3),
        harness::mean(&dp)
    );
}
