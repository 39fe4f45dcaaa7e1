//! The counter block: every work counter a query reports, declared once.
//!
//! [`QueryStats`] is both the per-query scratch the search core counts into
//! and the uniform instrumentation every [`crate::QueryResponse`] carries.
//! The one macro invocation below emits the struct, the counter names
//! ([`QueryStats::COUNTERS`]), the name/value iterator
//! ([`QueryStats::counters`]) and the roll-up rule ([`QueryStats::absorb`]),
//! so a counter added here is summed, listed and recorded everywhere —
//! including the golden work file the tier-1 tests compare against — with
//! no second list to keep in sync.

use std::time::Duration;

macro_rules! counter_block {
    ($($(#[doc = $doc:literal])* $name:ident,)*) => {
        /// Uniform per-response instrumentation: the same counters for every
        /// query class, so a serving layer can meter them identically.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct QueryStats {
            $($(#[doc = $doc])* pub $name: usize,)*
            /// Wall-clock time spent answering.
            pub elapsed: Duration,
            /// Whether a time/evaluation budget stopped the search early (the
            /// result is then the best found within budget).
            pub truncated: bool,
            /// Whether the parallel scan degraded to its sequential twin
            /// because a query worker panicked. The answer is still exact and
            /// byte-identical to a normal run (the panicked scan's partial
            /// state is discarded wholesale and the whole scan re-runs
            /// sequentially) — this flag only records that the fast path was
            /// lost, so a serving tier can alert.
            pub degraded: bool,
            /// Generation of the base that answered: starts at 0 and is bumped
            /// by every maintenance hot-swap
            /// ([`crate::Explorer::append_series`],
            /// [`crate::Explorer::remove_series`],
            /// [`crate::Explorer::refine_to`]). All children of one
            /// [`crate::QueryRequest::Batch`] share an epoch — the whole
            /// batch is answered on a single pinned base.
            pub epoch: u64,
        }

        impl QueryStats {
            /// The counter names, in block order.
            pub const COUNTERS: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Every counter as a `(name, value)` pair, in block order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, usize)> {
                [$((stringify!($name), self.$name)),*].into_iter()
            }

            /// Merges another response's counters into this one (batch
            /// roll-up, striped-scan worker merge, and the golden work
            /// record's per-cell sums). This is the batch aggregation rule
            /// documented on [`crate::QueryRequest::Batch`]: every counter is
            /// summed, `truncated` and `degraded` OR in, and
            /// `elapsed`/`epoch` are deliberately untouched — the batch
            /// response reports its own wall-clock time and pinned epoch, and
            /// each child carries its own.
            pub fn absorb(&mut self, other: &QueryStats) {
                $(self.$name += other.$name;)*
                self.truncated |= other.truncated;
                self.degraded |= other.degraded;
            }
        }
    };
}

counter_block! {
    /// Total DTW evaluations (against representatives and members).
    dtw_evals,
    /// Candidates (representatives + members) skipped by the lower-bound
    /// cascade; always the sum of the four per-tier counters below.
    lb_prunes,
    /// Similarity groups visited (representatives considered).
    groups_visited,
    /// Group members evaluated with DTW.
    members_examined,
    /// Group members killed by the cascade before any DTW work.
    members_lb_pruned,
    /// LB_Keogh evaluations (query-envelope + candidate-envelope tiers),
    /// whether or not they pruned.
    lb_keogh_evals,
    /// DTW evaluations abandoned early (cutoff or suffix bound); these
    /// still count inside `dtw_evals`.
    early_abandons,
    /// Candidates killed by cascade tier 0, the O(w) PAA sketch bound
    /// (member sketch vs the query's PAA'd envelope; query sketch vs the
    /// representative's stored PAA'd envelope).
    pruned_paa,
    /// Candidates killed by cascade tier 1, LB_Kim.
    pruned_kim,
    /// Candidates killed by tier 2, LB_Keogh against the query envelope.
    pruned_keogh_eq,
    /// Candidates killed by tier 3, LB_Keogh against the candidate's own
    /// stored envelope.
    pruned_keogh_ec,
    /// Distinct lengths visited.
    lengths_visited,
    /// Symbolic-index bucket bounds evaluated (hierarchy nodes probed).
    index_probes,
    /// Groups the symbolic index left as candidates at probe time.
    index_candidates,
    /// Per-length rep scans where the symbolic index could not engage and
    /// the full slab scan ran instead.
    index_fallbacks,
    /// Groups skipped wholesale by a certified index bucket bound; each
    /// is also counted inside `groups_visited`, `lb_prunes` and
    /// `pruned_paa` exactly as the tier-0 prune it stands in for.
    groups_skipped_by_index,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_values_and_absorb_cover_the_same_block() {
        let a = QueryStats {
            dtw_evals: 3,
            groups_skipped_by_index: 2,
            truncated: true,
            epoch: 9,
            ..QueryStats::default()
        };
        let names: Vec<&str> = a.counters().map(|(name, _)| name).collect();
        assert_eq!(names, QueryStats::COUNTERS);
        assert_eq!(names.first(), Some(&"dtw_evals"));
        let mut sum = QueryStats::default();
        sum.absorb(&a);
        sum.absorb(&a);
        let doubled: Vec<usize> = a.counters().map(|(_, v)| 2 * v).collect();
        assert_eq!(sum.counters().map(|(_, v)| v).collect::<Vec<_>>(), doubled);
        assert!(sum.truncated && !sum.degraded);
        assert_eq!(sum.epoch, 0, "absorb leaves the epoch alone");
    }
}
