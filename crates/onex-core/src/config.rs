use crate::{OnexError, Result};
use onex_dist::Window;
use onex_ts::Decomposition;
use serde::{Deserialize, Serialize};

/// Which clustering algorithm forms the similarity groups.
///
/// The paper's Algorithm 1 is a single greedy online pass; its tech-report
/// discusses alternative clustering methods. [`ClusterStrategy::KMeansRefined`]
/// runs Lloyd iterations (point-wise-mean centroids under ED — exactly the
/// paper's representative definition) *after* the greedy pass, then
/// re-enforces the Def. 8 radius invariant, trading construction time for
/// tighter groups (fewer representatives at equal ST).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterStrategy {
    /// The paper's Algorithm 1: one greedy online pass (default).
    OnlineGreedy,
    /// Greedy pass followed by this many Lloyd refinement iterations and a
    /// final invariant-enforcement pass.
    KMeansRefined {
        /// Lloyd iterations to run (each is one full reassignment sweep).
        iters: usize,
    },
}

/// How strictly the builder enforces the Def. 8 group invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BuildMode {
    /// Faithful Algorithm 1: members are admitted against the representative
    /// *at admission time*; the representative then drifts as later members
    /// shift the mean, so a few early members can end up slightly outside
    /// `ST/2` of the final representative. This is what the paper runs.
    Paper,
    /// After the first pass, members violating `ED̄(member, rep) ≤ ST/2`
    /// against the *final* representative are evicted and re-inserted
    /// (bounded number of rounds; stragglers become singleton groups). The
    /// Def. 8 invariant — and therefore Lemma 1/2 — holds exactly. Default.
    Strict,
}

/// Configuration of an ONEX base and its query processor.
///
/// Defaults follow the paper's experimental choices: `ST = 0.2` (§6.3 finds
/// ~0.2 balances accuracy/time/size on most datasets) and the full
/// decomposition. The DTW window defaults to the classic 10% Sakoe-Chiba
/// band used by the UCR-suite line of work the paper builds on; pass
/// [`Window::Unconstrained`] for the paper's unconstrained-DTW theory setting
/// (every `onex-bench` experiment runs with the 10% band).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnexConfig {
    /// Similarity threshold `ST` (on normalized distances; data is expected
    /// min-max normalized into [0, 1]).
    pub st: f64,
    /// DTW warping window used by online queries.
    pub window: Window,
    /// Which subsequences the base covers.
    pub decomposition: Decomposition,
    /// Group-invariant enforcement (see [`BuildMode`]).
    pub build_mode: BuildMode,
    /// Clustering algorithm (see [`ClusterStrategy`]).
    pub cluster: ClusterStrategy,
    /// Intra-group best-match walk: number of consecutive non-improving
    /// probes (per direction) before the walk stops (§5.3, third
    /// optimization). Ignored when `exhaustive_group_search` is set.
    pub walk_patience: usize,
    /// Evaluate DTW against *every* member of the selected group instead of
    /// walking outward from the predicted position. Slower, maximum
    /// accuracy; used by ablations.
    pub exhaustive_group_search: bool,
    /// Any-length search order optimization (§5.3, first bullet): stop
    /// visiting further lengths once some length produced a representative
    /// with `DTW̄(q, rep) ≤ ST/2`.
    pub stop_at_first_qualifying: bool,
    /// How many best-matching groups to descend into per length (the paper
    /// explores exactly 1; raising this is an accuracy/time ablation knob).
    pub explore_top_groups: usize,
    /// Cross-length ranking metric for `MATCH = Any` queries. `false`
    /// (default) ranks candidates by **raw** DTW (Def. 3), under which the
    /// optimum lies near the query's length — this is what makes the §5.3
    /// query-length-first search order with early stopping both fast and
    /// accurate, and matches the paper's reported behaviour. `true` ranks
    /// by the Def. 6 normalized DTW `DTW/2n`, which systematically favours
    /// long matches (the per-point cost grows like √n while the divisor
    /// grows like n); with it, accurate any-length search must visit every
    /// length, so the early stop saves nothing and the paper's search order
    /// loses its point.
    pub rank_normalized: bool,
    /// Width (segment count) of the precomputed PAA sketches the store
    /// keeps for every representative, member and representative envelope —
    /// the cascade's O(w) tier-0 prune and the construction assigner's ED
    /// prefilter. Clamped per length to `min(paa_width, len)`.
    /// **Accuracy-neutral**: every sketch test is a proven lower bound used
    /// with strictly-greater pruning, so any width returns byte-identical
    /// query results — the knob only trades sketch memory (`2·w`-per-group
    /// planes plus `w` per member) against how much O(len) tier work the
    /// O(w) tier skips. Default 16.
    pub paa_width: usize,
    /// Alphabet size of the SAX words the symbolic index
    /// ([`crate::symindex`]) derives from the PAA sketch planes — how many
    /// Gaussian-breakpoint bins each sketch segment is discretized into.
    /// Must lie in `2..=64`. **Accuracy-neutral** like `paa_width`: the
    /// index only *proposes* candidates and certifies skips through the same
    /// strictly-greater tier-0 bound the cascade already applies, so any
    /// alphabet returns byte-identical query results — the knob trades word
    /// resolution (finer buckets, more discriminating skips) against
    /// hierarchy depth. Default 4.
    pub sax_alphabet: usize,
    /// Seed for the construction-time randomization (RANDOMIZE-IN-PLACE and
    /// first-representative selection).
    pub seed: u64,
    /// Worker threads for construction; lengths are built independently.
    /// `1` = sequential.
    pub threads: usize,
    /// Worker threads for the per-length group/member scans of a *single*
    /// query (the intra-query fan-out in the similarity cascade). `1` runs
    /// the exact sequential scan; `0` (default) resolves automatically: the
    /// `ONEX_QUERY_THREADS` environment variable when set to a positive
    /// integer, otherwise [`std::thread::available_parallelism`].
    /// **Accuracy-neutral**: the parallel scan keeps every prune strictly
    /// greater than a shared cutoff and merges per-worker finalists in
    /// deterministic index order, so query *results* are byte-identical at
    /// any value — only the work counters (how much each tier pruned) may
    /// differ above 1, because the shared cutoff tightens with
    /// scheduling-dependent timing. Runtime-only: snapshots do not persist
    /// this knob and always load with the auto setting.
    pub query_threads: usize,
    /// Admission-control ceiling on concurrently executing queries per
    /// [`crate::Explorer`]. `0` (default) disables shedding. When positive,
    /// a query arriving while `max_inflight` queries are already executing
    /// is rejected immediately with [`crate::OnexError::Overloaded`] instead
    /// of queueing unboundedly — overload degrades to fast typed errors,
    /// never to unbounded latency. Runtime-only: snapshots do not persist
    /// this knob.
    pub max_inflight: usize,
}

impl Default for OnexConfig {
    fn default() -> Self {
        OnexConfig {
            st: 0.2,
            window: Window::Ratio(0.1),
            decomposition: Decomposition::full(),
            build_mode: BuildMode::Strict,
            cluster: ClusterStrategy::OnlineGreedy,
            walk_patience: 8,
            exhaustive_group_search: false,
            stop_at_first_qualifying: true,
            explore_top_groups: 1,
            rank_normalized: false,
            paa_width: 16,
            sax_alphabet: 4,
            seed: 0xA11CE,
            threads: 1,
            query_threads: 0,
            max_inflight: 0,
        }
    }
}

impl OnexConfig {
    /// A config with the given similarity threshold and defaults elsewhere.
    pub fn with_st(st: f64) -> Self {
        OnexConfig {
            st,
            ..Default::default()
        }
    }

    /// The effective intra-query worker count for this configuration:
    /// `query_threads` itself when positive, otherwise the
    /// `ONEX_QUERY_THREADS` environment override (read once per process),
    /// otherwise the machine's available parallelism. Always ≥ 1.
    pub fn resolved_query_threads(&self) -> usize {
        resolve_query_threads(self.query_threads, env_query_threads())
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        check_st(self.st)?;
        self.decomposition.validate()?;
        if self.explore_top_groups == 0 {
            return Err(OnexError::InvalidRefinement(
                "explore_top_groups must be ≥ 1".to_string(),
            ));
        }
        if self.paa_width == 0 {
            return Err(OnexError::InvalidRefinement(
                "paa_width must be ≥ 1".to_string(),
            ));
        }
        if !(2..=64).contains(&self.sax_alphabet) {
            return Err(OnexError::InvalidRefinement(
                "sax_alphabet must be in 2..=64".to_string(),
            ));
        }
        Ok(())
    }
}

/// A similarity threshold must be finite and > 0, wherever it is given.
pub(crate) fn check_st(st: f64) -> Result<()> {
    if !st.is_finite() || st <= 0.0 {
        return Err(OnexError::InvalidThreshold(st));
    }
    Ok(())
}

/// The `ONEX_QUERY_THREADS` override, parsed once per process. Malformed or
/// non-positive values fall back to the config default (auto falls through
/// to the machine's parallelism) with a warning on stderr rather than being
/// silently accepted or erroring: the variable is an operational convenience
/// for CI matrices, not part of the config contract, but a typo'd value in a
/// serving deployment must be diagnosable from the logs.
#[expect(clippy::print_stderr, reason = "logs a malformed ONEX_QUERY_THREADS")]
fn env_query_threads() -> Option<usize> {
    static CACHE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| match std::env::var("ONEX_QUERY_THREADS") {
        Ok(raw) => {
            let (parsed, warning) = parse_env_query_threads(&raw);
            if let Some(msg) = warning {
                eprintln!("warning: {msg}");
            }
            parsed
        }
        Err(_) => None,
    })
}

/// Pure parse rule for the `ONEX_QUERY_THREADS` value: `Some(n)` for a
/// positive integer, otherwise `None` plus a warning message describing the
/// rejected value. Split out so the malformed-value fallback is
/// unit-testable without mutating the process environment.
pub(crate) fn parse_env_query_threads(raw: &str) -> (Option<usize>, Option<String>) {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => (Some(n), None),
        _ => (
            None,
            Some(format!(
                "ONEX_QUERY_THREADS={raw:?} is not a positive integer; \
                 falling back to the configured default"
            )),
        ),
    }
}

/// Pure resolution rule for [`OnexConfig::resolved_query_threads`], split
/// out so the precedence (explicit config > env override > machine
/// parallelism) is unit-testable without mutating the process environment.
fn resolve_query_threads(configured: usize, env_override: Option<usize>) -> usize {
    if configured > 0 {
        return configured;
    }
    env_override.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_choices() {
        let c = OnexConfig::default();
        c.validate().unwrap();
        assert_eq!(c.st, 0.2);
        assert_eq!(c.build_mode, BuildMode::Strict);
    }

    #[test]
    fn rejects_bad_threshold() {
        assert!(OnexConfig::with_st(0.0).validate().is_err());
        assert!(OnexConfig::with_st(-1.0).validate().is_err());
        assert!(OnexConfig::with_st(f64::NAN).validate().is_err());
        assert!(OnexConfig::with_st(0.5).validate().is_ok());
    }

    #[test]
    fn rejects_zero_top_groups() {
        let c = OnexConfig {
            explore_top_groups: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_paa_width() {
        let c = OnexConfig {
            paa_width: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        assert_eq!(OnexConfig::default().paa_width, 16);
    }

    #[test]
    fn rejects_out_of_range_sax_alphabet() {
        for bad in [0usize, 1, 65, 1000] {
            let c = OnexConfig {
                sax_alphabet: bad,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "alphabet {bad} must be rejected");
        }
        for ok in [2usize, 4, 16, 64] {
            let c = OnexConfig {
                sax_alphabet: ok,
                ..Default::default()
            };
            assert!(c.validate().is_ok(), "alphabet {ok} must be accepted");
        }
        assert_eq!(OnexConfig::default().sax_alphabet, 4);
    }

    #[test]
    fn query_threads_resolution_precedence() {
        // Explicit config value wins over any env override.
        assert_eq!(resolve_query_threads(3, Some(8)), 3);
        assert_eq!(resolve_query_threads(1, Some(8)), 1);
        // Auto (0) takes the env override when present…
        assert_eq!(resolve_query_threads(0, Some(4)), 4);
        // …and the machine's parallelism otherwise (always ≥ 1).
        assert!(resolve_query_threads(0, None) >= 1);
        // The default config resolves to something usable.
        assert!(OnexConfig::default().resolved_query_threads() >= 1);
        assert_eq!(OnexConfig::default().query_threads, 0);
    }

    #[test]
    fn malformed_query_threads_env_warns_and_falls_back() {
        // Well-formed positive integers parse cleanly, whitespace tolerated.
        assert_eq!(parse_env_query_threads("4"), (Some(4), None));
        assert_eq!(parse_env_query_threads(" 8 "), (Some(8), None));
        // Malformed or non-positive values fall back to the config default
        // (None feeds resolve_query_threads's auto path) and carry a
        // warning naming the rejected value — never silent acceptance.
        for bad in ["0", "-2", "four", "4.5", "", "  ", "1e3"] {
            let (parsed, warning) = parse_env_query_threads(bad);
            assert_eq!(parsed, None, "value {bad:?} must be rejected");
            let msg = warning.expect("malformed value must produce a warning");
            assert!(msg.contains("ONEX_QUERY_THREADS"), "warning names the var");
            assert!(msg.contains(bad.trim()), "warning quotes the value");
        }
        // Fallback composes with resolution: auto path still engages.
        let (parsed, _) = parse_env_query_threads("not-a-number");
        assert!(resolve_query_threads(0, parsed) >= 1);
    }

    #[test]
    fn max_inflight_defaults_to_unlimited() {
        let c = OnexConfig::default();
        assert_eq!(c.max_inflight, 0);
        c.validate().unwrap();
        // Any ceiling is a valid configuration.
        let c = OnexConfig {
            max_inflight: 2,
            ..Default::default()
        };
        c.validate().unwrap();
    }
}
