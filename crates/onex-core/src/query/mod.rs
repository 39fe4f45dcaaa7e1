//! The ONEX online query processor (paper §5).
//!
//! The unified entry point is [`crate::engine::Explorer`], which answers
//! every query class through one typed request/response API from `&self`.
//! This module holds the search core (the `similarity` submodule) and the legacy
//! per-class entry points, kept as thin deprecated shims over the same
//! internals:
//!
//! * [`SimilarityQuery`] — Class I: best-match / top-k retrieval for a
//!   sample sequence, exact-length or any-length (Algorithm 2.A), applying
//!   the §5.3 optimizations: length-ordered search, median-sum
//!   representative ordering, LB_Kim/LB_Keogh pruning, early-abandoning DTW,
//!   and the ED-ordered intra-group walk.
//! * [`seasonal_all`] / [`seasonal_for_series`] — Class II: recurring-similarity
//!   queries (Algorithm 2.B).
//! * [`recommend`] — Class III: similarity-threshold recommendations.

mod batch;
pub(crate) mod par;
mod recommend;
mod seasonal;
pub(crate) mod similarity;

#[allow(deprecated, reason = "part of the deprecated shim surface")]
pub use batch::{best_match_batch, BatchQuery};
#[allow(deprecated, reason = "part of the deprecated shim surface")]
pub use recommend::recommend;
pub use seasonal::SeasonalResult;
#[allow(deprecated, reason = "part of the deprecated shim surface")]
pub use seasonal::{seasonal_all, seasonal_for_series};
#[allow(deprecated, reason = "part of the deprecated shim surface")]
pub use similarity::SimilarityQuery;
pub use similarity::{Match, MatchMode, QueryStats};

pub(crate) use recommend::recommend_impl;
pub(crate) use seasonal::{seasonal_all_impl, seasonal_for_series_impl};

use crate::{OnexError, Result};

/// The shortest query any processor accepts. A length-1 "sequence" has no
/// shape to warp, and no base can index below this either:
/// `Decomposition::validate` (enforced by every `OnexBase` constructor via
/// `OnexConfig::validate`) rejects `min_len < 2`.
pub(crate) const MIN_QUERY_LEN: usize = 2;

/// Validates a query sequence: at least [`MIN_QUERY_LEN`] samples, all
/// finite.
pub(crate) fn validate_query(q: &[f64]) -> Result<()> {
    if q.len() < MIN_QUERY_LEN {
        return Err(OnexError::QueryTooShort {
            len: q.len(),
            min_len: MIN_QUERY_LEN,
        });
    }
    for (index, &v) in q.iter().enumerate() {
        if !v.is_finite() {
            return Err(OnexError::NonFiniteQuery { index });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_empty_and_nan() {
        assert!(validate_query(&[]).is_err());
        assert!(validate_query(&[1.0, f64::NAN]).is_err());
        assert!(validate_query(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn validation_enforces_min_len_consistently() {
        // Regression: the reported minimum and the enforced minimum must
        // agree — length-1 queries used to pass validation while the error
        // for empty input claimed `min_len: 2`.
        let err = validate_query(&[1.0]).unwrap_err();
        assert_eq!(
            err,
            OnexError::QueryTooShort {
                len: 1,
                min_len: MIN_QUERY_LEN
            }
        );
        let err = validate_query(&[]).unwrap_err();
        assert_eq!(
            err,
            OnexError::QueryTooShort {
                len: 0,
                min_len: MIN_QUERY_LEN
            }
        );
    }
}
