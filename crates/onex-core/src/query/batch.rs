//! Legacy parallel batch querying, kept as a deprecated shim over the
//! unified engine: [`crate::engine::QueryRequest::Batch`] fans any mix of
//! query classes out across threads with the same index-aligned,
//! error-isolating semantics, and additionally rolls uniform
//! [`crate::engine::QueryStats`] up into the batch response.

use super::similarity::{self, SearchCtx, SearchParams};
use super::{Match, MatchMode};
use crate::engine::fan_out;
use crate::{OnexBase, Result};

/// One query of a batch.
#[deprecated(
    since = "0.2.0",
    note = "use engine::QueryRequest (Batch variant) — it composes every query class, not just best-match"
)]
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// Query values (normalized space).
    pub values: Vec<f64>,
    /// Length mode.
    pub mode: MatchMode,
    /// Per-query similarity-threshold override (`None` = the base's ST).
    pub st: Option<f64>,
}

#[allow(deprecated, reason = "part of the deprecated shim surface")]
impl BatchQuery {
    /// Convenience constructor for an any-length query with default ST.
    pub fn any(values: Vec<f64>) -> Self {
        BatchQuery {
            values,
            mode: MatchMode::Any,
            st: None,
        }
    }

    /// Convenience constructor for an exact-length query with default ST.
    pub fn exact(values: Vec<f64>) -> Self {
        let mode = MatchMode::Exact(values.len());
        BatchQuery {
            values,
            mode,
            st: None,
        }
    }
}

/// Answers every query, fanning out across `threads` workers (1 =
/// sequential). The output is index-aligned with the input and identical to
/// running the queries one by one.
#[deprecated(
    since = "0.2.0",
    note = "use Explorer::query with QueryRequest::Batch — same fan-out, all query classes, uniform stats"
)]
#[allow(deprecated, reason = "part of the deprecated shim surface")]
pub fn best_match_batch(
    base: &OnexBase,
    queries: &[BatchQuery],
    threads: usize,
) -> Vec<Result<Match>> {
    // Runs the engine's search core directly over the borrowed base (the
    // `Arc`-holding `Explorer` would require cloning the whole base here),
    // through the engine's shared fan-out with a per-worker `SearchCtx`.
    fan_out(queries.len(), threads, SearchCtx::default, |ctx, i| {
        let q = &queries[i];
        let p = SearchParams::from_config(base.config(), q.st);
        similarity::best_match(base, &q.values, q.mode, &p, ctx)
    })
}

#[cfg(test)]
#[allow(deprecated, reason = "tests the deprecated shim")]
mod tests {
    use super::*;
    use crate::{OnexConfig, OnexError};
    use onex_ts::synth;

    fn base() -> OnexBase {
        let d = synth::sine_mix(8, 20, 2, 61);
        OnexBase::build(&d, OnexConfig::default()).unwrap()
    }

    fn queries(base: &OnexBase) -> Vec<BatchQuery> {
        (0..8)
            .map(|i| {
                let sid = i % base.dataset().len();
                let values = base.dataset().series()[sid].values()[i..i + 10].to_vec();
                if i % 2 == 0 {
                    BatchQuery::any(values)
                } else {
                    BatchQuery::exact(values)
                }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let b = base();
        let qs = queries(&b);
        let seq = best_match_batch(&b, &qs, 1);
        let par = best_match_batch(&b, &qs, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.as_ref().unwrap(), p.as_ref().unwrap());
        }
    }

    #[test]
    fn per_query_errors_are_isolated() {
        let b = base();
        let mut qs = queries(&b);
        qs.push(BatchQuery {
            values: vec![],
            mode: MatchMode::Any,
            st: None,
        });
        qs.push(BatchQuery {
            values: vec![0.5; 4],
            mode: MatchMode::Exact(999),
            st: None,
        });
        let out = best_match_batch(&b, &qs, 3);
        assert!(out[..8].iter().all(Result::is_ok));
        assert!(matches!(out[8], Err(OnexError::QueryTooShort { .. })));
        assert!(matches!(out[9], Err(OnexError::NoGroupsForLength(999))));
    }

    #[test]
    fn empty_batch() {
        let b = base();
        assert!(best_match_batch(&b, &[], 4).is_empty());
    }

    #[test]
    fn thread_count_clamps() {
        let b = base();
        let qs = queries(&b);
        // more threads than queries is fine
        let out = best_match_batch(&b, &qs, 64);
        assert_eq!(out.len(), qs.len());
    }
}
