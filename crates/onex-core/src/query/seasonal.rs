//! Class II seasonal-similarity queries (Algorithm 2.B): surface *recurring*
//! similarity rather than a single best match.
//!
//! * **User-driven** (`SeasonalScope::Series`): given a sample series and a
//!   length, return the groups of that length restricted to the sample's own
//!   subsequences — a group contributing ≥ 2 of them is a pattern that
//!   recurs within the series (e.g. "all 30-day windows of the Apple stock
//!   with similar prices").
//! * **Data-driven** (`SeasonalScope::All`): given only a length, return every
//!   group of that length with at least `min_members` members — the clusters
//!   of mutually similar subsequences across the whole dataset.
//!
//! Both run straight off the precomputed LSI: no distance computation at
//! query time, which is why the paper reports near-constant response times
//! (Fig. 4). Issue these via [`crate::engine::Explorer`] with
//! [`crate::engine::QueryRequest::Seasonal`].

use crate::{GroupId, OnexBase, OnexError, Result};
use onex_ts::SubseqRef;

/// One seasonal-similarity cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalResult {
    /// The group realizing the pattern.
    pub group: GroupId,
    /// The qualifying member subsequences (all of the requested length).
    pub members: Vec<SubseqRef>,
}

/// User-driven seasonal similarity: groups of length `len` restricted to
/// subsequences of `series`, keeping groups that contribute at least
/// `min_recurrence` of them (2 = "recurring", the natural default; 1 returns
/// every group the series participates in).
pub(crate) fn seasonal_for_series_impl(
    base: &OnexBase,
    series: usize,
    len: usize,
    min_recurrence: usize,
) -> Result<Vec<SeasonalResult>> {
    base.ensure_nonempty()?;
    if series >= base.dataset().len() {
        return Err(OnexError::UnknownSeries(series));
    }
    let (first, slab) = base
        .store()
        .slab_for_len(len)
        .ok_or(OnexError::NoGroupsForLength(len))?;
    let min_recurrence = min_recurrence.max(1);
    let mut out = Vec::new();
    for gid in first..first + slab.group_count() as GroupId {
        let members: Vec<SubseqRef> = base
            .group(gid)
            .members()
            .iter()
            .map(|&(r, _)| r)
            .filter(|r| r.series as usize == series)
            .collect();
        if members.len() >= min_recurrence {
            out.push(SeasonalResult {
                group: gid,
                members,
            });
        }
    }
    Ok(out)
}

/// Data-driven seasonal similarity: every group of length `len` with at
/// least `min_members` members (≥ 2 filters out the non-recurring
/// singletons).
pub(crate) fn seasonal_all_impl(
    base: &OnexBase,
    len: usize,
    min_members: usize,
) -> Result<Vec<SeasonalResult>> {
    base.ensure_nonempty()?;
    let (first, slab) = base
        .store()
        .slab_for_len(len)
        .ok_or(OnexError::NoGroupsForLength(len))?;
    let min_members = min_members.max(1);
    let mut out = Vec::new();
    for gid in first..first + slab.group_count() as GroupId {
        let group = base.group(gid);
        if group.member_count() >= min_members {
            out.push(SeasonalResult {
                group: gid,
                members: group.members().iter().map(|&(r, _)| r).collect(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OnexBase, OnexConfig};
    use onex_ts::{Dataset, TimeSeries};

    /// A series with an obvious recurring motif (two identical bumps) plus a
    /// flat distractor series.
    fn seasonal_base() -> OnexBase {
        let motif = vec![0.0, 0.8, 0.0, 0.1, 0.05, 0.1, 0.0, 0.8, 0.0, 0.1, 0.05, 0.1];
        let d = Dataset::new(
            "seasonal",
            vec![
                TimeSeries::new(motif).unwrap(),
                TimeSeries::new(vec![0.5; 12]).unwrap(),
            ],
        );
        OnexBase::build_prenormalized(d, OnexConfig::with_st(0.2)).unwrap()
    }

    #[test]
    fn user_driven_finds_recurring_motif() {
        let b = seasonal_base();
        // length-3 windows: [0.0,0.8,0.0] occurs at starts 0 and 6.
        let res = seasonal_for_series_impl(&b, 0, 3, 2).unwrap();
        let bump_group = res
            .iter()
            .find(|r| r.members.iter().any(|m| m.start == 0 && m.series == 0));
        let bump = bump_group.expect("recurring bump group exists");
        assert!(bump.members.iter().any(|m| m.start == 6));
        // every returned member is from series 0 at the right length
        for r in &res {
            assert!(r.members.len() >= 2);
            for m in &r.members {
                assert_eq!(m.series, 0);
                assert_eq!(m.len, 3);
            }
        }
    }

    #[test]
    fn min_recurrence_one_returns_all_participations() {
        let b = seasonal_base();
        let all = seasonal_for_series_impl(&b, 0, 3, 1).unwrap();
        let total: usize = all.iter().map(|r| r.members.len()).sum();
        // series 0 has 10 subsequences of length 3
        assert_eq!(total, 10);
    }

    #[test]
    fn data_driven_returns_groups_of_length() {
        let b = seasonal_base();
        let res = seasonal_all_impl(&b, 3, 2).unwrap();
        assert!(!res.is_empty());
        for r in &res {
            assert!(r.members.len() >= 2);
            for m in &r.members {
                assert_eq!(m.len, 3);
            }
        }
        // with min_members = 1 we get every group; counts cover all subseqs
        let every = seasonal_all_impl(&b, 3, 1).unwrap();
        let total: usize = every.iter().map(|r| r.members.len()).sum();
        assert_eq!(total, 10 + 10); // both series contribute 10 windows
    }

    #[test]
    fn unknown_series_and_length_are_rejected() {
        let b = seasonal_base();
        assert_eq!(
            seasonal_for_series_impl(&b, 99, 3, 2).unwrap_err(),
            OnexError::UnknownSeries(99)
        );
        assert_eq!(
            seasonal_for_series_impl(&b, 0, 500, 2).unwrap_err(),
            OnexError::NoGroupsForLength(500)
        );
        assert_eq!(
            seasonal_all_impl(&b, 500, 2).unwrap_err(),
            OnexError::NoGroupsForLength(500)
        );
    }
}
