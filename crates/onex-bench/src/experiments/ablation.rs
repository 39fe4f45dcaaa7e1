//! **Ablations** — the engine's design choices, measured
//! individually on one mid-sized workload (ECG-like). Not a paper
//! table/figure; this quantifies the §5.3 optimizations and our
//! under-specification resolutions.
//!
//! Variants:
//! * intra-group walk (paper §5.3) vs exhaustive group scan,
//! * exploring 1 vs 3 best groups per length,
//! * `Strict` vs `Paper` group-invariant enforcement,
//! * stop-at-first-qualifying length search on/off,
//! * the engine's cascaded lower-bound pipeline, per tier (LB_Kim /
//!   query-side LB_Keogh / candidate-side LB_Keogh / suffix abandon),
//! * Trillion with vs without its lower-bound cascade,
//! * DTW warping-window width.

use super::Ctx;
use crate::harness::{self, accuracy_from_errors, build_timed, fmt_secs, make_queries};
use onex_baselines::{BruteForce, Trillion};
use onex_core::{
    BuildMode, ClusterStrategy, Explorer, MatchMode, OnexConfig, QueryOptions, QueryRequest,
};
use onex_dist::Window;
use onex_ts::synth::PaperDataset;

fn eval_variant(name: &str, ctx: &Ctx, config: OnexConfig, table: &mut harness::Table) {
    let ds = PaperDataset::Ecg;
    let data = ds.generate_scaled(ctx.scale, ctx.seed);
    let (base, build_time) = build_timed(&data, config);
    let explorer = Explorer::from_base(base);
    let base = explorer.base();
    let (n_in, n_out) = ctx.query_mix();
    let queries = make_queries(ds, &base, n_in, n_out, ctx.seed);
    let mut oracle = BruteForce::oracle(base.dataset(), base.config().window);
    let mut times = Vec::new();
    let mut errors = Vec::new();
    for q in &queries {
        let exact = oracle.best_match_any(&q.values).expect("non-empty");
        times.push(harness::time_avg(ctx.runs, || {
            let _ = explorer.best_match(&q.values, MatchMode::Any, QueryOptions::default());
        }));
        if let Ok(m) = explorer.best_match(&q.values, MatchMode::Any, QueryOptions::default()) {
            errors.push((m.raw_dtw - exact.raw_dtw).clamp(0.0, 1.0));
        }
    }
    table.row(vec![
        name.to_string(),
        fmt_secs(harness::mean(&times)),
        format!("{:.2}", accuracy_from_errors(&errors)),
        fmt_secs(build_time.as_secs_f64()),
        format!("{}", base.stats().representatives),
    ]);
}

/// Runs all ablations.
pub fn run(ctx: &Ctx) {
    println!(
        "\n== Ablations (ECG-like workload, scale {}) ==\n",
        ctx.scale
    );
    let widths = [26, 11, 11, 11, 8];
    let mut table = harness::Table::new(
        "ablation",
        &["variant", "query time", "accuracy %", "build", "reps"],
        &widths,
    );
    let base_cfg = ctx.config();
    eval_variant("default", ctx, base_cfg, &mut table);
    eval_variant(
        "exhaustive group scan",
        ctx,
        OnexConfig {
            exhaustive_group_search: true,
            ..base_cfg
        },
        &mut table,
    );
    eval_variant(
        "explore top-3 groups",
        ctx,
        OnexConfig {
            explore_top_groups: 3,
            ..base_cfg
        },
        &mut table,
    );
    eval_variant(
        "paper-mode build",
        ctx,
        OnexConfig {
            build_mode: BuildMode::Paper,
            ..base_cfg
        },
        &mut table,
    );
    eval_variant(
        "no stop-at-qualifying",
        ctx,
        OnexConfig {
            stop_at_first_qualifying: false,
            ..base_cfg
        },
        &mut table,
    );
    eval_variant(
        "k-means refined (3 it)",
        ctx,
        OnexConfig {
            cluster: ClusterStrategy::KMeansRefined { iters: 3 },
            ..base_cfg
        },
        &mut table,
    );
    eval_variant(
        "rank by normalized DTW",
        ctx,
        OnexConfig {
            rank_normalized: true,
            ..base_cfg
        },
        &mut table,
    );
    for (name, w) in [
        ("window: unconstrained", Window::Unconstrained),
        ("window: 5% band", Window::Ratio(0.05)),
        ("window: 20% band", Window::Ratio(0.2)),
    ] {
        eval_variant(
            name,
            ctx,
            OnexConfig {
                window: w,
                ..base_cfg
            },
            &mut table,
        );
    }
    table.finish(ctx.csv());

    // The engine's cascaded lower-bound pipeline, tier by tier: how many
    // DTW candidates each filter kills (Kim / query-side Keogh /
    // candidate-side Keogh) and how many surviving DTWs the suffix bound
    // abandons, for identical answers at every level.
    println!("\nEngine LB cascade (best-match any-length, counters summed over queries):");
    let ds = PaperDataset::Ecg;
    let data = ds.generate_scaled(ctx.scale, ctx.seed);
    let (base, _) = build_timed(&data, base_cfg);
    let explorer = Explorer::from_base(base);
    let base = explorer.base();
    let (n_in, n_out) = ctx.query_mix();
    let queries = make_queries(ds, &base, n_in, n_out, ctx.seed);
    let widths = [14, 10, 8, 9, 9, 15, 14, 11];
    let mut cascade_table = harness::Table::new(
        "ablation_lb_cascade",
        &[
            "variant",
            "dtw evals",
            "kim",
            "keogh_eq",
            "keogh_ec",
            "suffix-abandon",
            "member prunes",
            "query time",
        ],
        &widths,
    );
    for (name, options) in [
        ("full cascade", QueryOptions::default()),
        (
            "rep-only LB",
            QueryOptions {
                cascade: false,
                ..QueryOptions::default()
            },
        ),
        (
            "no LB",
            QueryOptions {
                lb_pruning: false,
                ..QueryOptions::default()
            },
        ),
    ] {
        let mut sum = onex_core::QueryStats::default();
        let mut times = Vec::new();
        for q in &queries {
            let resp = explorer
                .query(QueryRequest::BestMatch {
                    values: q.values.clone(),
                    mode: MatchMode::Any,
                    options,
                })
                .expect("ablation query answers");
            sum.absorb(&resp.stats);
            times.push(harness::time_avg(ctx.runs, || {
                let _ = explorer.best_match(&q.values, MatchMode::Any, options);
            }));
        }
        cascade_table.row(vec![
            name.to_string(),
            format!("{}", sum.dtw_evals),
            format!("{}", sum.pruned_kim),
            format!("{}", sum.pruned_keogh_eq),
            format!("{}", sum.pruned_keogh_ec),
            format!("{}", sum.early_abandons),
            format!("{}", sum.members_lb_pruned),
            fmt_secs(harness::mean(&times)),
        ]);
    }
    cascade_table.finish(ctx.csv());

    // Trillion's lower-bound cascade.
    println!("\nTrillion lower-bound cascade:");
    for use_lb in [true, false] {
        let mut trillion = Trillion::new(base.dataset(), base_cfg.window);
        trillion.use_lower_bounds = use_lb;
        let mut times = Vec::new();
        for q in &queries {
            times.push(harness::time_avg(ctx.runs, || {
                let _ = trillion.best_match(&q.values);
            }));
        }
        println!(
            "  LBs {}: {} per query  (last-query stats: {:?})",
            if use_lb { "on " } else { "off" },
            fmt_secs(harness::mean(&times)),
            trillion.stats
        );
    }
}
