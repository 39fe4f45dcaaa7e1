//! **Perf baseline** — the machine-readable *work* record of the query
//! engine: per-query-class DTW-evaluation and prune-rate counters on the
//! synthetic datasets, emitted as JSON so future changes have a trajectory
//! to compare against (`BENCH_pr10.json` is the current checked-in
//! baseline, recorded with `query_threads` pinned to 1; the older
//! `BENCH_pr*.json` files are the records of earlier engine generations,
//! kept as that trajectory) and CI can fail on counter regressions.
//!
//! The work counters are recorded under `query_threads = 1` (see
//! [`Ctx::config`]): only the sequential scan's counters are a
//! machine-independent contract. Wall-clock is **not** this experiment's
//! business: every latency, throughput and multi-client number is measured
//! and gated by the repo benchmark (`BENCHMARK.json`, `benchmark/`); the
//! per-cell latency columns printed and recorded here are for a human
//! reading the table, and no check reads them.
//!
//! Three variants per class isolate the lower-bound pipeline:
//! `cascade` (the default full pipeline, symbolic index + sketch tier
//! included), `rep_only` (LB_Kim + the plain representative-envelope
//! check, the pre-cascade engine), and `unpruned` (no lower bounds at
//! all). Counters are exact and deterministic for a given
//! `--scale`/`--seed`, which is what makes the CI check stable on shared
//! runners. Each dataset block also records the
//! parameters the engine actually *resolved* for it — the Sakoe-Chiba
//! band radius per query length and the clamped sketch width — so a
//! baseline is self-describing rather than an echo of the CLI flags.

use super::Ctx;
use crate::harness::{self, build_timed, fmt_secs, make_queries, Query};
use crate::json::Json;
use onex_core::{Explorer, MatchMode, QueryOptions, QueryRequest, QueryStats};
use onex_ts::synth::PaperDataset;
use std::path::Path;

/// The datasets the baseline records: small + mid-sized keeps the CI
/// smoke fast while still exercising multi-length bases, and
/// `NearDuplicates` stresses the symbolic index's worst case (whole
/// clusters collapsing onto one SAX word).
const DATASETS: [PaperDataset; 3] = [
    PaperDataset::ItalyPower,
    PaperDataset::Ecg,
    PaperDataset::NearDuplicates,
];

/// Maximum allowed growth in `cascade`-variant DTW evaluations and member
/// evaluations (best-match and top-k classes) relative to the checked-in
/// baseline before the CI check fails.
const REGRESSION_FACTOR: f64 = 2.0;

/// Minimum fraction of the baseline's tier-0 (PAA sketch) prune rate a
/// fresh run must retain: the O(w) tier fronting the cascade is a perf
/// contract, and silently losing it would re-expose every member to the
/// O(len) tiers without changing any result-level counter.
const PAA_RATE_FLOOR: f64 = 0.5;

/// The query classes the `--check-against` gate compares. Best-match was
/// the original gate; top-k joined once its k-th-best cutoff pruning
/// became part of the contract worth defending.
const GATED_CLASSES: [&str; 3] = ["best_match_exact", "best_match_any", "top_k_10_exact"];

/// One (class, variant) cell: counters summed over all queries (via
/// [`QueryStats::absorb`], the same roll-up the batch path uses), plus the
/// informational average and p50 latency.
#[derive(Default, Clone, Copy)]
struct Cell {
    queries: usize,
    avg_latency_s: f64,
    p50_latency_s: f64,
    stats: QueryStats,
}

impl Cell {
    fn absorb(&mut self, stats: &QueryStats) {
        self.queries += 1;
        self.stats.absorb(stats);
    }

    /// Fraction of DTW candidates killed before the kernel ran.
    fn prune_rate(&self) -> f64 {
        let total = self.stats.dtw_evals + self.stats.lb_prunes;
        if total == 0 {
            0.0
        } else {
            self.stats.lb_prunes as f64 / total as f64
        }
    }

    /// Fraction of DTW candidates killed by the O(w) sketch tier alone.
    fn paa_prune_rate(&self) -> f64 {
        let total = self.stats.dtw_evals + self.stats.lb_prunes;
        if total == 0 {
            0.0
        } else {
            self.stats.pruned_paa as f64 / total as f64
        }
    }

    fn into_json(self, variant: &str) -> Json {
        Json::obj(vec![
            ("variant", Json::str(variant)),
            ("queries", Json::num(self.queries)),
            (
                "avg_latency_us",
                Json::Num((self.avg_latency_s * 1e6 * 100.0).round() / 100.0),
            ),
            (
                "p50_latency_us",
                Json::Num((self.p50_latency_s * 1e6 * 100.0).round() / 100.0),
            ),
            ("dtw_evals", Json::num(self.stats.dtw_evals)),
            ("groups_visited", Json::num(self.stats.groups_visited)),
            ("lengths_visited", Json::num(self.stats.lengths_visited)),
            ("members_examined", Json::num(self.stats.members_examined)),
            ("lb_prunes", Json::num(self.stats.lb_prunes)),
            ("members_lb_pruned", Json::num(self.stats.members_lb_pruned)),
            ("lb_keogh_evals", Json::num(self.stats.lb_keogh_evals)),
            ("early_abandons", Json::num(self.stats.early_abandons)),
            ("pruned_paa", Json::num(self.stats.pruned_paa)),
            ("pruned_kim", Json::num(self.stats.pruned_kim)),
            ("pruned_keogh_eq", Json::num(self.stats.pruned_keogh_eq)),
            ("pruned_keogh_ec", Json::num(self.stats.pruned_keogh_ec)),
            ("index_probes", Json::num(self.stats.index_probes)),
            ("index_candidates", Json::num(self.stats.index_candidates)),
            ("index_fallbacks", Json::num(self.stats.index_fallbacks)),
            (
                "groups_skipped_by_index",
                Json::num(self.stats.groups_skipped_by_index),
            ),
            (
                "prune_rate",
                Json::Num((self.prune_rate() * 1e4).round() / 1e4),
            ),
            (
                "paa_prune_rate",
                Json::Num((self.paa_prune_rate() * 1e4).round() / 1e4),
            ),
        ])
    }
}

/// The three pruning variants, in baseline order.
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
    let exact = MatchMode::Exact(q.values.len());
    match class {
        "best_match_exact" => QueryRequest::BestMatch {
            values: q.values.clone(),
            mode: exact,
            options,
        },
        "best_match_any" => QueryRequest::BestMatch {
            values: q.values.clone(),
            mode: MatchMode::Any,
            options,
        },
        "top_k_10_exact" => QueryRequest::TopK {
            values: q.values.clone(),
            mode: exact,
            k: 10,
            options,
        },
        "range_verified_exact" => QueryRequest::WithinThreshold {
            values: q.values.clone(),
            mode: exact,
            verify: true,
            options,
        },
        other => unreachable!("unknown query class {other}"),
    }
}

const CLASSES: [&str; 4] = [
    "best_match_exact",
    "best_match_any",
    "top_k_10_exact",
    "range_verified_exact",
];

fn measure_dataset(ds: PaperDataset, ctx: &Ctx) -> Json {
    let data = ds.generate_scaled(ctx.scale, ctx.seed);
    let (base, build_time) = build_timed(&data, ctx.config());
    let explorer = Explorer::from_base(base);
    let base = explorer.base();
    let (n_in, n_out) = ctx.query_mix();
    let queries = make_queries(ds, &base, n_in, n_out, ctx.seed);
    let stats = base.stats();
    println!(
        "\n  {} (scale {}): {} series, {} subsequences, {} reps  (build {})",
        ds.name(),
        ctx.scale,
        base.dataset().len(),
        stats.subsequences,
        stats.representatives,
        fmt_secs(build_time.as_secs_f64())
    );
    let widths = [22, 9, 11, 10, 9, 9, 9, 9, 9, 9, 9];
    let mut table = harness::Table::new(
        &format!("perf_{}", ds.name()),
        &[
            "class/variant",
            "latency",
            "dtw evals",
            "prune %",
            "idx_skip",
            "paa",
            "kim",
            "keogh_eq",
            "keogh_ec",
            "suffix",
            "lb_keogh",
        ],
        &widths,
    );
    let mut class_objs = Vec::new();
    for class in CLASSES {
        let mut variant_objs = Vec::new();
        for (variant, options) in variants() {
            let mut cell = Cell::default();
            let mut latencies = Vec::new();
            for q in &queries {
                let req = request(class, q, options);
                let resp = explorer.query(req).expect("benchmark query answers");
                cell.absorb(&resp.stats);
                latencies.push(harness::time_avg(ctx.runs, || {
                    let _ = explorer.query(request(class, q, options));
                }));
            }
            cell.avg_latency_s = harness::mean(&latencies);
            cell.p50_latency_s = harness::p50(&latencies);
            table.row(vec![
                format!("{class}/{variant}"),
                fmt_secs(cell.avg_latency_s),
                format!("{}", cell.stats.dtw_evals),
                format!("{:.1}", cell.prune_rate() * 100.0),
                format!("{}", cell.stats.groups_skipped_by_index),
                format!("{}", cell.stats.pruned_paa),
                format!("{}", cell.stats.pruned_kim),
                format!("{}", cell.stats.pruned_keogh_eq),
                format!("{}", cell.stats.pruned_keogh_ec),
                format!("{}", cell.stats.early_abandons),
                format!("{}", cell.stats.lb_keogh_evals),
            ]);
            variant_objs.push(cell.into_json(variant));
        }
        class_objs.push(Json::obj(vec![
            ("class", Json::str(class)),
            ("variants", Json::Arr(variant_objs)),
        ]));
    }
    table.finish(ctx.csv());
    // The parameters the engine actually *resolved* for this dataset —
    // not the CLI-level config echo. Each distinct query length gets its
    // concrete Sakoe-Chiba band radius (`Window::resolve(len, len)`, the
    // radius every stored envelope at that length was built with) and its
    // clamped sketch width, so the baseline pins what the counters were
    // measured under even if the resolution rules ever change.
    let config = base.config();
    let mut qlens: Vec<usize> = queries.iter().map(|q| q.values.len()).collect();
    qlens.sort_unstable();
    qlens.dedup();
    let resolved: Vec<Json> = qlens
        .into_iter()
        .map(|len| {
            Json::obj(vec![
                ("len", Json::num(len)),
                ("band_radius", Json::num(config.window.resolve(len, len))),
                ("paa_width", Json::num(config.paa_width.clamp(1, len))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("name", Json::str(ds.name())),
        ("series", Json::num(base.dataset().len())),
        ("subsequences", Json::num(stats.subsequences)),
        ("representatives", Json::num(stats.representatives)),
        ("window", Json::Str(format!("{:?}", config.window))),
        ("st", Json::Num(config.st)),
        ("paa_width", Json::num(config.paa_width)),
        ("resolved_query_params", Json::Arr(resolved)),
        ("classes", Json::Arr(class_objs)),
    ])
}

/// Runs the perf baseline; writes JSON to `ctx.json_out` when set and, when
/// `ctx.check_against` names a checked-in baseline, compares against it.
/// Returns `false` when the regression check fails.
pub fn run(ctx: &Ctx) -> bool {
    println!("\n== Perf baseline (counters are exact and gated; latency informational) ==");
    let mut datasets = Vec::new();
    for ds in DATASETS {
        datasets.push(measure_dataset(ds, ctx));
    }
    let config = ctx.config();
    let doc = Json::obj(vec![
        ("version", Json::num(3)),
        ("scale", Json::Num(ctx.scale)),
        ("seed", Json::num(ctx.seed as usize)),
        ("runs", Json::num(ctx.runs)),
        ("window", Json::Str(format!("{:?}", config.window))),
        ("st", Json::Num(config.st)),
        ("datasets", Json::Arr(datasets)),
    ]);
    if let Some(path) = &ctx.json_out {
        match std::fs::write(path, doc.render()) {
            Ok(()) => println!("\n(json written to {})", path.display()),
            Err(e) => {
                eprintln!("json: cannot write {}: {e}", path.display());
                return false;
            }
        }
    }
    if let Some(baseline) = &ctx.check_against {
        return check_against(&doc, baseline);
    }
    true
}

/// Looks up `datasets[name].classes[class].variants[variant]` in a
/// baseline document.
fn find_cell<'a>(doc: &'a Json, name: &str, class: &str, variant: &str) -> Option<&'a Json> {
    let ds = doc
        .get("datasets")?
        .as_arr()?
        .iter()
        .find(|d| d.get("name").and_then(Json::as_str) == Some(name))?;
    let cl = ds
        .get("classes")?
        .as_arr()?
        .iter()
        .find(|c| c.get("class").and_then(Json::as_str) == Some(class))?;
    cl.get("variants")?
        .as_arr()?
        .iter()
        .find(|v| v.get("variant").and_then(Json::as_str) == Some(variant))
}

/// One gated quantity comparison: `fresh ≤ factor × baseline`.
fn gate_leq(label: &str, fresh: f64, baseline: f64, factor: f64) -> bool {
    let ratio = if baseline > 0.0 {
        fresh / baseline
    } else if fresh == 0.0 {
        1.0
    } else {
        f64::INFINITY
    };
    let ok = ratio <= factor;
    println!(
        "    {label}: {fresh} vs {baseline} ({ratio:.2}x) {}",
        if ok { "ok" } else { "FAIL" }
    );
    ok
}

/// The CI regression gate over every [`GATED_CLASSES`] entry under the
/// default cascade: DTW evaluations and member evaluations must not
/// exceed [`REGRESSION_FACTOR`] × the checked-in baseline and the tier-0
/// (PAA sketch) prune rate must retain at least [`PAA_RATE_FLOOR`] of the
/// baseline's. On top of the comparisons,
/// the fresh run itself must show `groups_skipped_by_index > 0` on every
/// dataset — proof the symbolic index engaged rather than silently
/// degrading to a full-scan no-op. Every gate is a counter: exact and
/// immune to shared-runner noise. Fields absent from an older baseline
/// are skipped with a notice; sections of it this experiment no longer
/// writes (latency gates, `serving`, `cores`) are not read.
fn check_against(fresh: &Json, baseline_path: &Path) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf check: cannot read {}: {e}", baseline_path.display());
            return false;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "perf check: {} is not valid JSON: {e}",
                baseline_path.display()
            );
            return false;
        }
    };
    for key in ["scale", "seed"] {
        let (f, b) = (
            fresh.get(key).and_then(Json::as_f64),
            baseline.get(key).and_then(Json::as_f64),
        );
        if f != b {
            eprintln!("perf check: {key} mismatch (fresh {f:?} vs baseline {b:?}); rerun with the baseline's flags");
            return false;
        }
    }
    let mut ok = true;
    let mut compared = 0;
    println!("\nperf check against {}:", baseline_path.display());
    for ds in DATASETS {
        for class in GATED_CLASSES.iter() {
            let fresh_cell = find_cell(fresh, ds.name(), class, "cascade");
            let base_cell = find_cell(&baseline, ds.name(), class, "cascade");
            let (Some(fresh_cell), Some(base_cell)) = (fresh_cell, base_cell) else {
                eprintln!("  {}/{class}: missing from baseline — skipped", ds.name());
                continue;
            };
            let field = |cell: &Json, key: &str| cell.get(key).and_then(Json::as_f64);
            let (Some(fresh_evals), Some(base_evals)) = (
                field(fresh_cell, "dtw_evals"),
                field(base_cell, "dtw_evals"),
            ) else {
                eprintln!("  {}/{class}: missing dtw_evals — skipped", ds.name());
                continue;
            };
            compared += 1;
            println!("  {}/{class}:", ds.name());
            ok &= gate_leq("dtw_evals", fresh_evals, base_evals, REGRESSION_FACTOR);
            // Member evaluations: the quantity the sketch tier protects.
            match (
                field(fresh_cell, "members_examined"),
                field(base_cell, "members_examined"),
            ) {
                (Some(f), Some(b)) => ok &= gate_leq("members_examined", f, b, REGRESSION_FACTOR),
                _ => println!("    members_examined: not in baseline — skipped"),
            }
            // Tier-0 prune rate: must not silently erode.
            match (
                field(fresh_cell, "paa_prune_rate"),
                field(base_cell, "paa_prune_rate"),
            ) {
                (Some(f), Some(b)) => {
                    let floor = b * PAA_RATE_FLOOR;
                    let good = f >= floor;
                    println!(
                        "    paa_prune_rate: {f:.4} vs {b:.4} (floor {floor:.4}) {}",
                        if good { "ok" } else { "FAIL" }
                    );
                    ok &= good;
                }
                _ => println!("    paa_prune_rate: not in baseline — skipped"),
            }
        }
    }
    // Index engagement: every dataset's cascade cells, summed over all
    // query classes, must certify at least one group skip in the fresh
    // run — a zero means the symbolic index never fired and the cascade
    // silently absorbed its work.
    println!("  index engagement (fresh run, cascade, all classes):");
    for ds in DATASETS {
        let skipped: f64 = CLASSES
            .iter()
            .filter_map(|class| find_cell(fresh, ds.name(), class, "cascade"))
            .filter_map(|cell| cell.get("groups_skipped_by_index").and_then(Json::as_f64))
            .sum();
        let good = skipped > 0.0;
        println!(
            "    {}: groups_skipped_by_index = {skipped} {}",
            ds.name(),
            if good { "ok" } else { "FAIL" }
        );
        ok &= good;
    }
    if compared == 0 {
        eprintln!("perf check: nothing compared — baseline format mismatch?");
        return false;
    }
    if !ok {
        eprintln!(
            "perf check FAILED: gated counters regressed beyond {REGRESSION_FACTOR}x, the \
             tier-0 prune rate fell below {PAA_RATE_FLOOR} of baseline, or the symbolic index \
             certified zero skips on some dataset"
        );
    }
    ok
}
