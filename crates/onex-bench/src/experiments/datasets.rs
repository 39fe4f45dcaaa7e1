//! **Dataset statistics** — the table the paper defers to its Tech Report
//! ("Statistics of our datasets can be found in our Tech Report"): per
//! dataset, the number of series, series length, class count and total
//! subsequence count, for both the paper's full shapes and the scaled
//! stand-ins actually used by the harness.

use super::Ctx;
use crate::harness;
use onex_ts::stats::DatasetStats;
use onex_ts::synth::PaperDataset;
use onex_ts::Decomposition;

/// Prints the statistics table.
pub fn run(ctx: &Ctx) {
    println!(
        "\n== Dataset statistics (paper full shapes vs scale {}) ==\n",
        ctx.scale
    );
    let widths = [12, 12, 12, 9, 14, 14];
    let mut table = harness::Table::new(
        "dataset_stats",
        &[
            "dataset",
            "N (full)",
            "len (full)",
            "classes",
            "subseqs(full)",
            "subseqs(scaled)",
        ],
        &widths,
    );
    for ds in PaperDataset::EVALUATION {
        let (full_n, full_len) = ds.shape();
        let scaled = ds.generate_scaled(ctx.scale, ctx.seed);
        let s = DatasetStats::compute(&scaled, &Decomposition::full());
        let full_subseqs = full_n * full_len * (full_len - 1) / 2;
        table.row(vec![
            ds.name().to_string(),
            format!("{full_n}"),
            format!("{full_len}"),
            format!("{}", s.n_classes),
            format!("{full_subseqs}"),
            format!("{}", s.total_subsequences),
        ]);
    }
    table.finish(ctx.csv());
    println!("\n(classes and morphology are preserved by the scaled stand-ins)");
}
