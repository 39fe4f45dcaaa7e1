//! One module per paper table/figure of §6, plus the ablation, audit, chaos
//! and perf runs.

pub mod ablation;
pub mod audit;
pub mod chaos;
pub mod datasets;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig56;
pub mod fig78;
pub mod perf;
pub mod table1;
pub mod table23;
pub mod table4;

use onex_core::OnexConfig;
use onex_dist::Window;

/// Shared experiment context (CLI flags of the `repro` binary).
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Fraction of the paper's dataset sizes (1.0 = full shapes; the paper's
    /// Symbols at full scale holds 78.6M subsequences — hours of
    /// construction — so default is 0.05).
    pub scale: f64,
    /// RNG seed for generators and query selection.
    pub seed: u64,
    /// Runs per query for timing averages (the paper uses 5).
    pub runs: usize,
    /// Construction threads.
    pub threads: usize,
    /// When set, every experiment table is also written as
    /// `<dir>/<table>.csv` for plotting.
    pub csv_dir: Option<std::path::PathBuf>,
    /// When set, the `perf` experiment writes its machine-readable
    /// baseline (counters + latency per query class) to this file.
    pub json_out: Option<std::path::PathBuf>,
    /// When set, the `perf` experiment compares its fresh counters to
    /// this checked-in baseline and fails on a >2x best-match DTW-eval
    /// regression (the CI perf smoke).
    pub check_against: Option<std::path::PathBuf>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: 0.05,
            seed: 7,
            runs: 5,
            threads: 4,
            csv_dir: None,
            json_out: None,
            check_against: None,
        }
    }
}

impl Ctx {
    /// The CSV sink, if configured.
    pub fn csv(&self) -> Option<&std::path::Path> {
        self.csv_dir.as_deref()
    }
}

impl Ctx {
    /// The experiment-wide ONEX configuration: ST = 0.2 (the paper's §6.3
    /// choice) and the 10% Sakoe-Chiba window, the default band.
    /// `paa_width` is 8 rather than the default 16: the synthetic paper
    /// datasets have short series (subsequence lengths mostly ≤ 24), and
    /// the sketch tier deliberately skips lengths it cannot reduce — a
    /// width of 8 keeps the tier active across the benchmark's length
    /// spread, which is what the tier-0 prune-rate gate measures. The
    /// knob is accuracy-neutral, so every counter stays comparable across
    /// widths; the resolved per-length widths are recorded in the
    /// baseline.
    /// `query_threads` is pinned to 1: the baseline's work counters are a
    /// machine-independent contract, and only the sequential scan keeps
    /// them exactly reproducible (the parallel scan's counters depend on
    /// how fast the shared cutoff tightened). What threads buy is measured
    /// by the repo benchmark's `par.*` and `engine.client_scaling_x`.
    pub fn config(&self) -> OnexConfig {
        OnexConfig {
            st: 0.2,
            window: Window::Ratio(0.1),
            paa_width: 8,
            threads: self.threads,
            seed: self.seed,
            query_threads: 1,
            ..OnexConfig::default()
        }
    }

    /// Queries per dataset: the paper's 20 (10 in-dataset + 10 out).
    pub fn query_mix(&self) -> (usize, usize) {
        (10, 10)
    }
}
