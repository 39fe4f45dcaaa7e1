//! Class III queries (§5.1, Q3): similarity-threshold recommendations.
//!
//! Translates the analyst's "strict / medium / loose" intuition into
//! concrete threshold ranges read off the SP-Space — per length
//! (`MATCH = Exact(L)`) or globally (`MATCH = Any`). With no degree given
//! (`simDegree = NULL`) all three ranges are returned, so the analyst can
//! see exactly where changing ST will start changing their results.
//!
//! Issue these via [`crate::engine::Explorer`] with
//! [`crate::engine::QueryRequest::Recommend`].

use crate::{OnexBase, Result, SimilarityDegree, ThresholdRange};

/// Answers a Class III query. `len = None` corresponds to `MATCH = Any`
/// (global recommendations); `degree = None` to `simDegree = NULL`.
///
/// Returns one range per requested degree (three for `None`), each an
/// interval of thresholds that realize that similarity strength.
pub(crate) fn recommend_impl(
    base: &OnexBase,
    degree: Option<SimilarityDegree>,
    len: Option<usize>,
) -> Result<Vec<ThresholdRange>> {
    base.ensure_nonempty()?;
    // One length reads only its own merge cascade; `Any` reads them all.
    let (half, fin) = match len {
        Some(l) => base
            .sp_local(l)
            .ok_or(crate::OnexError::NoGroupsForLength(l))?,
        None => {
            let sp = base.sp_space();
            (sp.global_half(), sp.global_final())
        }
    };
    let degrees = match degree {
        Some(d) => vec![d],
        None => vec![
            SimilarityDegree::Strict,
            SimilarityDegree::Medium,
            SimilarityDegree::Loose,
        ],
    };
    Ok(degrees
        .into_iter()
        .map(|d| ThresholdRange::between(d, half, fin))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OnexBase, OnexConfig};
    use onex_ts::synth;

    fn base() -> OnexBase {
        let d = synth::sine_mix(6, 16, 2, 4);
        OnexBase::build(&d, OnexConfig::default()).unwrap()
    }

    #[test]
    fn strict_range_starts_at_zero() {
        let b = base();
        let r = recommend_impl(&b, Some(SimilarityDegree::Strict), None).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].lower, 0.0);
        assert!(r[0].upper.unwrap() > 0.0);
    }

    #[test]
    fn null_degree_returns_all_three_contiguously() {
        let b = base();
        let rs = recommend_impl(&b, None, Some(8)).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].upper.unwrap(), rs[1].lower);
        assert_eq!(rs[1].upper.unwrap(), rs[2].lower);
        assert_eq!(rs[2].upper, None);
    }

    #[test]
    fn local_recommendation_uses_length_thresholds() {
        let b = base();
        let local = recommend_impl(&b, Some(SimilarityDegree::Strict), Some(4)).unwrap();
        let (half, _) = b.sp_space().local(4).unwrap();
        assert_eq!(local[0].upper, Some(half));
    }

    #[test]
    fn unknown_length_is_an_error() {
        let b = base();
        assert!(recommend_impl(&b, None, Some(400)).is_err());
    }
}
