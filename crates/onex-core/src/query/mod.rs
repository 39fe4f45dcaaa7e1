//! The ONEX online query processor (paper §5): the search core behind
//! [`crate::engine::Explorer`], which is the one public way to issue a
//! query.
//!
//! * `similarity` — Class I: best-match, top-k and range retrieval for a
//!   sample sequence, exact-length or any-length (Algorithm 2.A), with the
//!   §5.3 optimizations: length-ordered search, the cascaded lower bounds,
//!   early-abandoning DTW, and the ED-ordered intra-group walk. It counts its work into
//!   [`crate::QueryStats`].
//! * `par` — the intra-query striping those scans fan out over.
//! * `seasonal` — Class II: recurring-similarity queries (Algorithm 2.B).
//! * `recommend` — Class III: similarity-threshold recommendations.

pub(crate) mod par;
mod recommend;
mod seasonal;
pub(crate) mod similarity;

pub use seasonal::SeasonalResult;
pub use similarity::{Match, MatchMode};

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
