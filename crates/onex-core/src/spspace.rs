//! The Similarity Parameter Space (paper §4.2): critical threshold values at
//! which the precomputed grouping changes materially, used to translate an
//! analyst's intuition of "strict / medium / loose similarity" into concrete
//! threshold ranges (the Class III queries of §5.1).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The similarity-degree vocabulary of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimilarityDegree {
    /// `ST ≤ ST_half`: results change meaningfully as ST varies.
    Strict,
    /// `ST ∈ [ST_half, ST_final]`: about half the groups have merged.
    Medium,
    /// `ST ≥ ST_final`: all groups of the length have merged; results no
    /// longer tighten.
    Loose,
}

/// A recommended threshold interval. `upper = None` means unbounded above
/// (the Loose degree admits any sufficiently large threshold).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRange {
    /// The degree this range realizes.
    pub degree: SimilarityDegree,
    /// Inclusive lower end.
    pub lower: f64,
    /// Inclusive upper end; `None` = unbounded.
    pub upper: Option<f64>,
}

/// Per-length and global critical thresholds.
///
/// `ST_half(i)` / `ST_final(i)` mark where half / all groups of length `i`
/// merge; the global values take the maximum over lengths (Fig. 1), so that
/// "all groups merged" holds for *every* length at the global `ST_final`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpSpace {
    local: BTreeMap<usize, (f64, f64)>,
    global_half: f64,
    global_final: f64,
}

impl SpSpace {
    /// Assembles the space from per-length `(ST_half, ST_final)` pairs.
    pub fn new(local: BTreeMap<usize, (f64, f64)>) -> Self {
        let global_half = local.values().map(|&(h, _)| h).fold(0.0f64, f64::max);
        let global_final = local.values().map(|&(_, f)| f).fold(0.0f64, f64::max);
        SpSpace {
            local,
            global_half,
            global_final,
        }
    }

    /// Local critical thresholds for one length, if that length exists.
    pub fn local(&self, len: usize) -> Option<(f64, f64)> {
        self.local.get(&len).copied()
    }

    /// Global `ST_half` (max of the local values).
    pub fn global_half(&self) -> f64 {
        self.global_half
    }

    /// Global `ST_final`.
    pub fn global_final(&self) -> f64 {
        self.global_final
    }

    /// Classifies a threshold for a given length (`None` = globally).
    pub fn classify(&self, st: f64, len: Option<usize>) -> SimilarityDegree {
        let (half, fin) = match len {
            Some(l) => self
                .local(l)
                .unwrap_or((self.global_half, self.global_final)),
            None => (self.global_half, self.global_final),
        };
        if st < half {
            SimilarityDegree::Strict
        } else if st < fin {
            SimilarityDegree::Medium
        } else {
            SimilarityDegree::Loose
        }
    }

    /// The threshold range realizing a degree for a length (`None` = global)
    /// — the answer to a Class III query with an explicit degree.
    pub fn range_for(&self, degree: SimilarityDegree, len: Option<usize>) -> ThresholdRange {
        let (half, fin) = match len {
            Some(l) => self
                .local(l)
                .unwrap_or((self.global_half, self.global_final)),
            None => (self.global_half, self.global_final),
        };
        ThresholdRange::between(degree, half, fin)
    }

    /// All three ranges (a Class III query with `simDegree = NULL`).
    pub fn all_ranges(&self, len: Option<usize>) -> [ThresholdRange; 3] {
        [
            self.range_for(SimilarityDegree::Strict, len),
            self.range_for(SimilarityDegree::Medium, len),
            self.range_for(SimilarityDegree::Loose, len),
        ]
    }
}

impl ThresholdRange {
    /// The range realizing `degree` between the critical thresholds
    /// `half` (`ST_half`) and `fin` (`ST_final`).
    pub fn between(degree: SimilarityDegree, half: f64, fin: f64) -> Self {
        match degree {
            SimilarityDegree::Strict => ThresholdRange {
                degree,
                lower: 0.0,
                upper: Some(half),
            },
            SimilarityDegree::Medium => ThresholdRange {
                degree,
                lower: half,
                upper: Some(fin),
            },
            SimilarityDegree::Loose => ThresholdRange {
                degree,
                lower: fin,
                upper: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SpSpace {
        let mut local = BTreeMap::new();
        local.insert(8, (0.5, 0.78)); // the paper's Fig. 1 example values
        local.insert(16, (0.6, 0.7));
        local.insert(32, (0.3, 0.5));
        SpSpace::new(local)
    }

    #[test]
    fn global_values_take_the_max() {
        let s = space();
        assert_eq!(s.global_half(), 0.6);
        assert_eq!(s.global_final(), 0.78);
    }

    #[test]
    fn classification_per_length() {
        let s = space();
        assert_eq!(s.classify(0.2, Some(8)), SimilarityDegree::Strict);
        assert_eq!(s.classify(0.6, Some(8)), SimilarityDegree::Medium);
        assert_eq!(s.classify(0.9, Some(8)), SimilarityDegree::Loose);
        // unknown length falls back to global
        assert_eq!(s.classify(0.65, Some(999)), SimilarityDegree::Medium);
        assert_eq!(s.classify(0.65, None), SimilarityDegree::Medium);
    }

    #[test]
    fn ranges_partition_the_axis() {
        let s = space();
        let [strict, medium, loose] = s.all_ranges(Some(8));
        assert_eq!(strict.lower, 0.0);
        assert_eq!(strict.upper, Some(0.5));
        assert_eq!(medium.lower, 0.5);
        assert_eq!(medium.upper, Some(0.78));
        assert_eq!(loose.lower, 0.78);
        assert_eq!(loose.upper, None);
    }

    #[test]
    fn fig1_example_strict_recommendation() {
        // Paper: "for 'Strict' similarity the recommended values are in the
        // range [0, 0.6]" where 0.6 is the *global* ST_half.
        let s = space();
        let r = s.range_for(SimilarityDegree::Strict, None);
        assert_eq!(r.lower, 0.0);
        assert_eq!(r.upper, Some(0.6));
    }

    #[test]
    fn empty_space_is_degenerate_but_safe() {
        let s = SpSpace::new(BTreeMap::new());
        assert_eq!(s.global_half(), 0.0);
        assert_eq!(s.classify(0.1, None), SimilarityDegree::Loose);
    }
}
