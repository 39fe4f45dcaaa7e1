//! One module per paper table/figure of §6, plus the ablation, audit and
//! chaos runs.

pub mod ablation;
pub mod audit;
pub mod chaos;
pub mod datasets;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig56;
pub mod fig78;
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
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            scale: 0.05,
            seed: 7,
            runs: 5,
            threads: 4,
            csv_dir: None,
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
    /// width of 8 keeps the tier active across the experiments' length
    /// spread. The knob is accuracy-neutral but moves the tier counters,
    /// so the golden work file (`tests/work_counters.txt`) is recorded at
    /// this width.
    /// `query_threads` is pinned to 1: the golden work counters are a
    /// machine-independent contract, and only the sequential scan keeps
    /// them exactly reproducible (the parallel scan's counters depend on
    /// how fast the shared cutoff tightened). Pinned in the config, it
    /// also beats an `ONEX_QUERY_THREADS` override. What threads buy is
    /// measured by the repo benchmark's `par.*` and
    /// `engine.client_scaling_x`.
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
