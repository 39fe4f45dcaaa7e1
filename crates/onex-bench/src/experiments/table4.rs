//! **Table 4** — the compactness of the ONEX base at ST = 0.2: number of
//! representatives, total number of subsequences covered, and index size in
//! MB, per dataset.
//!
//! Paper values (full-scale datasets): ItalyPower 1228 reps / 18,492
//! subseqs / 1.14 MB … Symbols 3424 / 78,607,985 / 1210.32 MB. At reduced
//! scale the *reduction factor* (subsequences per representative) is the
//! shape to compare.
//!
//! "MB" is the base's own footprint ([`onex_core::BaseStats::total_mb`]).
//! The paper's index sizes also hold the dense `Dc` matrix of §4.3, which
//! this engine does not store (see [`onex_core::index`]); "paper Dc MB" is
//! what that matrix would take for the measured groups, Σ over lengths of
//! g² · 8 bytes, so the two columns together compare with the paper's.

use super::Ctx;
use crate::harness::{self, build_timed};
use onex_core::index::paper_dc_bytes;
use onex_ts::synth::PaperDataset;

/// Paper Table 4: (representatives, subsequences, MB).
pub const PAPER: [(usize, usize, f64); 6] = [
    (1228, 18_492, 1.14),
    (3532, 931_200, 21.53),
    (4896, 4_768_400, 86.75),
    (3489, 11_476_000, 183.02),
    (3424, 78_607_985, 1210.32),
    (3961, 33_024_000, 513.41),
];

/// Runs the experiment and prints measured vs paper values.
pub fn run(ctx: &Ctx) {
    println!(
        "\n== Table 4: ONEX base compactness at ST = 0.2 (scale {}) ==\n",
        ctx.scale
    );
    let widths = [12, 8, 12, 9, 13, 11, 12, 14, 11];
    let mut table = harness::Table::new(
        "table4_compactness",
        &[
            "dataset",
            "reps",
            "subseqs",
            "MB",
            "paper Dc MB",
            "reduction",
            "paper reps",
            "paper subseqs",
            "paper MB",
        ],
        &widths,
    );
    for (i, ds) in PaperDataset::EVALUATION.into_iter().enumerate() {
        let data = ds.generate_scaled(ctx.scale, ctx.seed);
        let (base, _) = build_timed(&data, ctx.config());
        let s = base.stats();
        let dc_bytes: usize = base
            .footprint()
            .per_length
            .iter()
            .map(|l| paper_dc_bytes(l.groups))
            .sum();
        let (pr, ps, pm) = PAPER[i];
        table.row(vec![
            ds.name().to_string(),
            format!("{}", s.representatives),
            format!("{}", s.subsequences),
            format!("{:.2}", s.total_mb()),
            format!("{:.2}", dc_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.0}×", s.reduction_factor()),
            format!("{pr}"),
            format!("{ps}"),
            format!("{pm:.2}"),
        ]);
    }
    table.finish(ctx.csv());
    println!("\n(paper columns are full-scale; compare the reduction factors, not absolutes.)");
}
