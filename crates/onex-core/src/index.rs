//! The per-length entry of the paper's **Global Time Index** (GTI, §4.3):
//! the group-id vector for the length, the pairwise Inter-Representative
//! Distance matrix `Dc` (Def. 10), the representative list sorted by its
//! row-sum of `Dc` (driving the §5.3 median-sum search optimization), and
//! the per-length critical thresholds `ST_half`/`ST_final` (§4.2).
//!
//! `Dc` is quadratic in the group count. The paper stores it densely (its
//! Table 4 index sizes are dominated by exactly this array); we do the same
//! up to [`DC_DENSE_LIMIT`] groups per length and beyond that keep only the
//! derived quantities (sum order, critical thresholds), estimated from a
//! fixed-size sample of representatives — group counts that large mean the
//! threshold is far below the dataset's intrinsic spread and exact merge
//! cascades over a multi-gigabyte matrix would be pointless.
//!
//! Maintenance builds a successor entry from its predecessor: `Dc` rows of
//! unchanged representatives are copied, only changed or new rows are
//! computed, and the result is bit-identical to a from-scratch
//! [`LengthIndex::build`].

use crate::store::LengthSlab;
use crate::GroupId;
use onex_dist::ed_normalized;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Largest group count per length for which the dense `Dc` matrix is
/// materialized (2048² × 8 B = 32 MB).
pub const DC_DENSE_LIMIT: usize = 2048;

/// Sample size used to estimate row sums and merge thresholds when the
/// dense matrix is not materialized.
const SPARSE_SAMPLE: usize = 256;

/// Index entry for all groups of one subsequence length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LengthIndex {
    /// The subsequence length this entry covers.
    pub len: usize,
    /// Global ids (into the base's flat group table) of this length's groups.
    pub group_ids: Vec<GroupId>,
    /// Flattened `g × g` matrix of normalized-ED distances between
    /// representatives (`Dc`), row-major; empty when `g > DC_DENSE_LIMIT`.
    dc: Vec<f64>,
    /// Local group positions ordered ascending by their `Dc` row sum
    /// (the paper's `S_i(k, sum_k)` array).
    sum_order: Vec<u32>,
    /// Threshold at which half of this length's groups have merged (§4.2).
    pub st_half: f64,
    /// Threshold at which all of this length's groups have merged.
    pub st_final: f64,
}

/// What a successor slab may take from its predecessor's GTI entry at the
/// same length: the entry itself and, for each group position of the new
/// slab, the old position whose representative it kept bit for bit (`None`
/// for a new or re-elected representative).
pub(crate) struct Reuse<'a> {
    pub(crate) prev: &'a LengthIndex,
    pub(crate) from: Vec<Option<u32>>,
}

impl Reuse<'_> {
    /// No representative of a `g`-group successor changed or moved.
    fn keeps_every_position(&self, g: usize) -> bool {
        self.prev.group_count() == g
            && self
                .from
                .iter()
                .enumerate()
                .all(|(i, &o)| o == Some(i as u32))
    }
}

impl LengthIndex {
    /// Builds the entry from this length's group slab (the representatives
    /// are read straight off the contiguous rep slab). `st` is the base's
    /// construction threshold (critical thresholds are `ST + merge-distance`).
    pub fn build(len: usize, group_ids: Vec<GroupId>, slab: &LengthSlab, st: f64) -> Self {
        Self::build_reusing(len, group_ids, slab, st, None)
    }

    /// [`LengthIndex::build`], taking what `reuse` says is still valid from
    /// the predecessor entry. A length with no changed or moved
    /// representative keeps its `Dc`, sum order and thresholds as they are
    /// (only the ids may shift). Otherwise the dense `Dc` copies the rows of
    /// unchanged representatives and computes the rest (see [`dense_dc`]);
    /// row sums, their order and the MST then run on the full new matrix.
    /// The sampled path (`g > DC_DENSE_LIMIT`) reuses nothing.
    pub(crate) fn build_reusing(
        len: usize,
        group_ids: Vec<GroupId>,
        slab: &LengthSlab,
        st: f64,
        reuse: Option<Reuse<'_>>,
    ) -> Self {
        debug_assert_eq!(group_ids.len(), slab.group_count());
        let g = slab.group_count();
        let reuse = match reuse {
            Some(r) if r.keeps_every_position(g) => {
                return LengthIndex {
                    group_ids,
                    ..r.prev.clone()
                };
            }
            Some(r) if r.prev.dc_is_dense() => Some(r),
            _ => None,
        };
        let dense = g <= DC_DENSE_LIMIT;

        let mut dc = Vec::new();
        let mut sums: Vec<(u32, f64)>;
        let (st_half, st_final);
        if dense {
            let row_sums;
            (dc, row_sums) = dense_dc(slab, reuse.as_ref());
            sums = (0..g as u32).zip(row_sums).collect();
            let (h, f) = critical_thresholds(|i, j| dc[i * g + j], g, st);
            st_half = h;
            st_final = f;
        } else {
            // Sampled estimates: each row sum against a fixed random subset,
            // scaled up; thresholds from the MST over the subset.
            let mut rng = SmallRng::seed_from_u64(0x5A3D ^ (len as u64) ^ (g as u64));
            let sample: Vec<usize> = (0..SPARSE_SAMPLE).map(|_| rng.gen_range(0..g)).collect();
            let scale = g as f64 / sample.len() as f64;
            sums = (0..g)
                .map(|i| {
                    let s: f64 = sample
                        .iter()
                        .map(|&j| ed_normalized(slab.rep_row(i), slab.rep_row(j)))
                        .sum();
                    (i as u32, s * scale)
                })
                .collect();
            let m = sample.len();
            let (h, f) = critical_thresholds(
                |a, b| ed_normalized(slab.rep_row(sample[a]), slab.rep_row(sample[b])),
                m,
                st,
            );
            st_half = h;
            st_final = f;
        }
        sums.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let sum_order = sums.into_iter().map(|(i, _)| i).collect();

        LengthIndex {
            len,
            group_ids,
            dc,
            sum_order,
            st_half,
            st_final,
        }
    }

    /// Number of groups at this length.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_ids.len()
    }

    /// True when the dense `Dc` matrix is materialized.
    #[inline]
    pub fn dc_is_dense(&self) -> bool {
        !self.dc.is_empty()
    }

    /// Inter-representative distance between local group positions `i`, `j`,
    /// when the dense matrix is stored (`None` above [`DC_DENSE_LIMIT`]).
    #[inline]
    pub fn dc(&self, i: usize, j: usize) -> Option<f64> {
        if self.dc.is_empty() {
            None
        } else {
            Some(self.dc[i * self.group_count() + j])
        }
    }

    /// Local group positions in **median-out** order: starting from the
    /// representative whose `Dc` row sum is the median, then alternating
    /// nearer/farther neighbours in the sorted sum array until both ends are
    /// exhausted (§5.3, second optimization).
    pub fn median_out_order(&self) -> MedianOut<'_> {
        let g = self.sum_order.len();
        let start = g / 2;
        MedianOut {
            order: &self.sum_order,
            left: start,
            right: start,
            take_left: false,
            emitted_start: false,
        }
    }

    /// Deep audit of this GTI entry against its slab: since
    /// [`LengthIndex::build`] is deterministic for a given `(slab, st)` —
    /// the sparse path seeds its sampling RNG from `(len, g)` — the whole
    /// entry (dense `Dc` matrix, sum order, critical thresholds) must
    /// reproduce **bit-exactly** from a rebuild. Field-by-field comparison
    /// so the violation message names what drifted. `group_ids` are checked
    /// by the caller ([`crate::OnexBase::validate_invariants`]), which owns
    /// the cross-length contiguity invariant.
    pub(crate) fn validate(&self, slab: &LengthSlab, st: f64) -> crate::Result<()> {
        let viol = |msg: String| {
            crate::OnexError::InvariantViolation(format!("length index {}: {msg}", self.len))
        };
        if self.len != slab.subseq_len() {
            return Err(viol(format!("covers slab of length {}", slab.subseq_len())));
        }
        if self.group_ids.len() != slab.group_count() {
            return Err(viol(format!(
                "{} group ids for {} slab groups",
                self.group_ids.len(),
                slab.group_count()
            )));
        }
        let fresh = LengthIndex::build(self.len, self.group_ids.clone(), slab, st);
        if self.dc.len() != fresh.dc.len()
            || self
                .dc
                .iter()
                .zip(&fresh.dc)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(viol("Dc matrix differs from rebuild".into()));
        }
        if self.sum_order != fresh.sum_order {
            return Err(viol("sum order differs from rebuild".into()));
        }
        if self.st_half.to_bits() != fresh.st_half.to_bits()
            || self.st_final.to_bits() != fresh.st_final.to_bits()
        {
            return Err(viol(format!(
                "critical thresholds ({}, {}) differ from rebuilt ({}, {})",
                self.st_half, self.st_final, fresh.st_half, fresh.st_final
            )));
        }
        if self.st_half.total_cmp(&self.st_final).is_gt() {
            return Err(viol(format!(
                "ST_half {} exceeds ST_final {}",
                self.st_half, self.st_final
            )));
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes: id vector + `Dc` matrix + sum
    /// array + the two thresholds.
    pub fn size_bytes(&self) -> usize {
        self.group_ids.capacity() * std::mem::size_of::<GroupId>()
            + self.dc.capacity() * std::mem::size_of::<f64>()
            + self.sum_order.capacity() * std::mem::size_of::<u32>()
            + 2 * std::mem::size_of::<f64>()
    }
}

/// The dense `Dc` matrix of `slab`'s representatives, filled row by row,
/// and its row sums (each taken, left to right, as soon as its row is
/// complete). A changed or new row is computed in full with
/// `ed_normalized` (each changed × changed pair once, mirrored). An
/// unchanged row copies the runs of its old row whose columns still line
/// up, then patches its changed columns from their rows. With nothing to
/// reuse every row is changed and this is the plain upper-triangle fill.
/// Each entry is a pure function of two representative rows, and
/// `ed_normalized` is symmetric bit for bit (`(x−y)² = (y−x)²` in IEEE), so
/// the matrix is bit-identical to a from-scratch fill whatever was reused.
fn dense_dc(slab: &LengthSlab, reuse: Option<&Reuse<'_>>) -> (Vec<f64>, Vec<f64>) {
    let g = slab.group_count();
    let from = |i: usize| reuse.and_then(|r| r.from[i]);
    let mut dc = vec![0.0; g * g];
    let mut sums = vec![0.0; g];
    for i in (0..g).filter(|&i| from(i).is_none()) {
        for j in (0..g).filter(|&j| j != i) {
            dc[i * g + j] = if j < i && from(j).is_none() {
                dc[j * g + i]
            } else {
                ed_normalized(slab.rep_row(i), slab.rep_row(j))
            };
        }
        sums[i] = dc[i * g..(i + 1) * g].iter().sum();
    }
    let Some(Reuse { prev, from }) = reuse else {
        return (dc, sums);
    };
    // Maximal column runs (new start, old start, length) whose old
    // positions are consecutive, and the changed columns.
    let mut runs: Vec<(usize, usize, usize)> = Vec::new();
    let mut changed = Vec::new();
    for (j, &o) in from.iter().enumerate() {
        match (o, runs.last_mut()) {
            (None, _) => changed.push(j),
            (Some(o), Some((s, os, n))) if *s + *n == j && *os + *n == o as usize => *n += 1,
            (Some(o), _) => runs.push((j, o as usize, 1)),
        }
    }
    let go = prev.group_count();
    for (i, &o) in from.iter().enumerate() {
        let Some(oi) = o else { continue };
        let old_row = &prev.dc[oi as usize * go..(oi as usize + 1) * go];
        for &(s, os, n) in &runs {
            dc[i * g + s..i * g + s + n].copy_from_slice(&old_row[os..os + n]);
        }
        for &j in &changed {
            dc[i * g + j] = dc[j * g + i];
        }
        sums[i] = dc[i * g..(i + 1) * g].iter().sum();
    }
    (dc, sums)
}

/// Critical thresholds via the single-linkage merge cascade: groups merge
/// when `ST' − ST ≥ Dc` (§5.2 case 3.2a), and since a merge can enable the
/// next, the cascade is single-linkage agglomeration, so the k-th merge
/// happens at the k-th smallest MST edge weight of the complete `Dc` graph.
/// Half the groups have merged after `⌊g/2⌋` merges; all after `g − 1`.
fn critical_thresholds(dist: impl Fn(usize, usize) -> f64, g: usize, st: f64) -> (f64, f64) {
    if g <= 1 {
        return (st, st);
    }
    let mut edges = mst_edge_weights(&dist, g);
    edges.sort_by(f64::total_cmp);
    let half_idx = (g / 2).saturating_sub(1).min(edges.len() - 1);
    let st_half = st + edges[half_idx];
    let st_final = st + edges[edges.len() - 1];
    (st_half, st_final)
}

/// Prim's algorithm over the complete graph with the given distance oracle;
/// returns the `g − 1` MST edge weights in the order the vertices join.
/// O(g²) time, O(g) memory, one sweep per vertex over the vertices not yet
/// in the tree, kept in ascending order: each sweep relaxes `best[j]`
/// against the vertex added last and picks the next vertex in the same pass
/// (the first sweep sets `best[j] = dist(0, j)` outright); on a tie the
/// lower index wins.
fn mst_edge_weights(dist: &impl Fn(usize, usize) -> f64, g: usize) -> Vec<f64> {
    // `rest[k]` is a vertex outside the tree and `best[k]` its distance to
    // the tree.
    let mut rest: Vec<usize> = (1..g).collect();
    let mut best = vec![f64::INFINITY; g - 1];
    let mut last = 0;
    let mut weights = Vec::with_capacity(g - 1);
    while !rest.is_empty() {
        let first = weights.is_empty();
        let mut pick = 0;
        let mut w = f64::INFINITY;
        for (k, (&j, b)) in rest.iter().zip(best.iter_mut()).enumerate() {
            let d = dist(last, j);
            if first || d < *b {
                *b = d;
            }
            // total_cmp keeps the selection well-defined even if a caller
            // ever feeds non-finite distances.
            if k == 0 || b.total_cmp(&w).is_lt() {
                pick = k;
                w = *b;
            }
        }
        last = rest.remove(pick);
        best.remove(pick);
        weights.push(w);
    }
    weights
}

/// Iterator over local group positions in median-out order.
pub struct MedianOut<'a> {
    order: &'a [u32],
    left: usize,
    right: usize,
    take_left: bool,
    emitted_start: bool,
}

impl Iterator for MedianOut<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.order.is_empty() {
            return None;
        }
        if !self.emitted_start {
            self.emitted_start = true;
            return Some(self.order[self.left] as usize);
        }
        // Alternate: left (smaller sums) then right (larger sums), falling
        // back to whichever side still has entries.
        let can_left = self.left > 0;
        let can_right = self.right + 1 < self.order.len();
        let go_left = match (can_left, can_right) {
            (true, true) => self.take_left,
            (true, false) => true,
            (false, true) => false,
            (false, false) => return None,
        };
        self.take_left = !self.take_left;
        if go_left {
            self.left -= 1;
            Some(self.order[self.left] as usize)
        } else {
            self.right += 1;
            Some(self.order[self.right] as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_ts::{Dataset, SubseqRef, TimeSeries};

    /// Builds a slab of finalized single-member groups with the given
    /// representative values (each rep is its own member).
    fn groups_from(reps: &[Vec<f64>]) -> (Dataset, LengthSlab) {
        let series: Vec<TimeSeries> = reps
            .iter()
            .map(|r| TimeSeries::new(r.clone()).unwrap())
            .collect();
        let d = Dataset::new("idx", series);
        let mut slab = LengthSlab::new(reps[0].len(), 16, 4);
        for (i, r) in reps.iter().enumerate() {
            let rf = SubseqRef::new(i as u32, 0, r.len() as u32);
            let local = slab.seed(rf, d.subseq_unchecked(rf));
            slab.finalize(local, &d, 1);
        }
        (d, slab)
    }

    #[test]
    fn dc_matrix_is_symmetric_with_zero_diagonal() {
        let (_d, slab) = groups_from(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, 0.5]]);
        let idx = LengthIndex::build(2, vec![0, 1, 2], &slab, 0.2);
        assert!(idx.dc_is_dense());
        for i in 0..3 {
            assert_eq!(idx.dc(i, i), Some(0.0));
            for j in 0..3 {
                assert_eq!(idx.dc(i, j), idx.dc(j, i));
            }
        }
        // normalized ED between [0,0] and [1,1] is 1.0
        assert!((idx.dc(0, 1).unwrap() - 1.0).abs() < 1e-12);
        assert!((idx.dc(0, 2).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn critical_thresholds_from_merge_cascade() {
        // Reps at 0.0, 0.1, 1.0 (constant sequences): MST edges 0.1 and 0.9.
        let (_d, slab) = groups_from(&[vec![0.0, 0.0], vec![0.1, 0.1], vec![1.0, 1.0]]);
        let idx = LengthIndex::build(2, vec![0, 1, 2], &slab, 0.2);
        // g=3: half merged after 1 merge -> ST + 0.1; all after 2 -> ST + 0.9.
        assert!((idx.st_half - 0.3).abs() < 1e-9, "st_half {}", idx.st_half);
        assert!(
            (idx.st_final - 1.1).abs() < 1e-9,
            "st_final {}",
            idx.st_final
        );
        assert!(idx.st_half <= idx.st_final);
    }

    #[test]
    fn single_group_thresholds_collapse_to_st() {
        let (_d, slab) = groups_from(&[vec![0.0, 0.0]]);
        let idx = LengthIndex::build(2, vec![0], &slab, 0.25);
        assert_eq!(idx.st_half, 0.25);
        assert_eq!(idx.st_final, 0.25);
    }

    #[test]
    fn median_out_visits_every_group_once() {
        let (_d, slab) = groups_from(&[
            vec![0.0, 0.0],
            vec![0.2, 0.2],
            vec![0.4, 0.4],
            vec![0.9, 0.9],
            vec![1.0, 1.0],
        ]);
        let idx = LengthIndex::build(2, (0..5).collect(), &slab, 0.2);
        let visited: Vec<usize> = idx.median_out_order().collect();
        assert_eq!(visited.len(), 5);
        let mut sorted = visited.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn median_out_starts_at_median_sum() {
        let (_d, slab) = groups_from(&[
            vec![0.0, 0.0],
            vec![0.2, 0.2],
            vec![0.4, 0.4],
            vec![0.9, 0.9],
            vec![1.0, 1.0],
        ]);
        let idx = LengthIndex::build(2, (0..5).collect(), &slab, 0.2);
        let first = idx.median_out_order().next().unwrap();
        let sums: Vec<f64> = (0..5)
            .map(|i| (0..5).map(|j| idx.dc(i, j).unwrap()).sum::<f64>())
            .collect();
        let min = sums
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let max = sums
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_ne!(first, min);
        assert_ne!(first, max);
    }

    #[test]
    fn median_out_empty_and_singleton() {
        let (_d, slab) = groups_from(&[vec![0.0, 0.0]]);
        let idx = LengthIndex::build(2, vec![0], &slab, 0.2);
        assert_eq!(idx.median_out_order().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn sparse_mode_above_dense_limit() {
        // Force the sparse path with a tiny synthetic: monkey-ish test via
        // many distinct constant reps. Building 2049 single-member groups is
        // cheap at length 2.
        let n = DC_DENSE_LIMIT + 1;
        let reps: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = i as f64 / n as f64;
                vec![v, v]
            })
            .collect();
        let (_d, slab) = groups_from(&reps);
        let idx = LengthIndex::build(2, (0..n as u32).collect(), &slab, 0.2);
        assert!(!idx.dc_is_dense());
        assert_eq!(idx.dc(0, 1), None);
        // derived quantities still usable
        assert_eq!(idx.median_out_order().count(), n);
        assert!(idx.st_half <= idx.st_final);
        assert!(idx.st_half >= 0.2);
        // sparse index is small even for large g
        assert!(idx.size_bytes() < n * 64);
    }

    #[test]
    fn size_accounting() {
        let (_d, slab) = groups_from(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let idx = LengthIndex::build(2, vec![0, 1], &slab, 0.2);
        assert!(idx.size_bytes() >= 4 * 8);
    }

    fn assert_bits_eq(a: &LengthIndex, b: &LengthIndex, what: &str) {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.dc), bits(&b.dc), "{what}: Dc");
        assert_eq!(a.sum_order, b.sum_order, "{what}: sum order");
        assert_eq!(a.st_half.to_bits(), b.st_half.to_bits(), "{what}: ST_half");
        assert_eq!(
            a.st_final.to_bits(),
            b.st_final.to_bits(),
            "{what}: ST_final"
        );
        assert_eq!(a.group_ids, b.group_ids, "{what}: ids");
    }

    /// `build_reusing` on a successor slab equals `build` bit for bit, for
    /// random keep-masks over random predecessors: kept representatives
    /// retired, permuted or in place, plus new ones, and the all-unchanged
    /// identity.
    #[test]
    fn reuse_constructor_matches_build_bit_for_bit() {
        fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..=i));
            }
        }
        let mut rng = SmallRng::seed_from_u64(26);
        let rep = |rng: &mut SmallRng, len: usize| -> Vec<f64> {
            (0..len).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        for case in 0..200 {
            let len = rng.gen_range(2..9);
            let g_old = rng.gen_range(1..24);
            let old: Vec<Vec<f64>> = (0..g_old).map(|_| rep(&mut rng, len)).collect();
            let (_d, old_slab) = groups_from(&old);
            let prev = LengthIndex::build(len, (0..g_old as u32).collect(), &old_slab, 0.2);

            // Kept old positions (a random subset, or all), optionally
            // permuted, then new representatives, optionally interleaved.
            let mut kept: Vec<usize> = match case % 4 {
                0 => (0..g_old).collect(),
                _ => (0..g_old)
                    .filter(|_| rng.gen_range(0.0..1.0) < 0.7)
                    .collect(),
            };
            if case % 3 == 1 {
                shuffle(&mut kept, &mut rng);
            }
            let fresh = if case % 8 == 0 {
                0
            } else {
                rng.gen_range(0..6)
            };
            let mut layout: Vec<Option<usize>> = kept.into_iter().map(Some).collect();
            layout.extend((0..fresh).map(|_| None));
            if case % 5 == 2 {
                shuffle(&mut layout, &mut rng);
            }
            if layout.is_empty() {
                continue;
            }
            let reps: Vec<Vec<f64>> = layout
                .iter()
                .map(|o| o.map_or_else(|| rep(&mut rng, len), |o| old[o].clone()))
                .collect();
            let (_d, slab) = groups_from(&reps);
            let g = reps.len();
            let ids: Vec<GroupId> = (7..7 + g as u32).collect();
            let from = layout.iter().map(|o| o.map(|o| o as u32)).collect();
            let reused = LengthIndex::build_reusing(
                len,
                ids.clone(),
                &slab,
                0.2,
                Some(Reuse { prev: &prev, from }),
            );
            let fresh_idx = LengthIndex::build(len, ids, &slab, 0.2);
            assert_bits_eq(&reused, &fresh_idx, &format!("case {case}"));
        }
    }

    /// The identity reuse keeps the predecessor's entry outright — also on
    /// the sampled path, which is a pure function of the same reps.
    #[test]
    fn all_unchanged_length_keeps_its_entry() {
        let reps: Vec<Vec<f64>> = (0..DC_DENSE_LIMIT + 3)
            .map(|i| {
                let v = (i * 7919 % 1000) as f64 / 1000.0;
                vec![v, 1.0 - v]
            })
            .collect();
        let (_d, slab) = groups_from(&reps);
        let g = reps.len();
        let prev = LengthIndex::build(2, (0..g as u32).collect(), &slab, 0.2);
        let shifted: Vec<GroupId> = (5..5 + g as u32).collect();
        let from = (0..g as u32).map(Some).collect();
        let kept = LengthIndex::build_reusing(
            2,
            shifted.clone(),
            &slab,
            0.2,
            Some(Reuse { prev: &prev, from }),
        );
        assert_bits_eq(
            &kept,
            &LengthIndex::build(2, shifted, &slab, 0.2),
            "sampled",
        );
    }

    /// The two-sweep Prim loop the fused one replaced, kept as its
    /// reference.
    fn mst_two_sweep(dist: &impl Fn(usize, usize) -> f64, g: usize) -> Vec<f64> {
        let mut in_tree = vec![false; g];
        let mut best = vec![f64::INFINITY; g];
        in_tree[0] = true;
        for (j, b) in best.iter_mut().enumerate().skip(1) {
            *b = dist(0, j);
        }
        let mut weights = Vec::with_capacity(g - 1);
        for _ in 1..g {
            let mut next = usize::MAX;
            let mut w = f64::INFINITY;
            for j in 0..g {
                if !in_tree[j] && (next == usize::MAX || best[j].total_cmp(&w).is_lt()) {
                    next = j;
                    w = best[j];
                }
            }
            in_tree[next] = true;
            weights.push(w);
            for j in 0..g {
                if !in_tree[j] {
                    let d = dist(next, j);
                    if d < best[j] {
                        best[j] = d;
                    }
                }
            }
        }
        weights
    }

    #[test]
    fn fused_prim_matches_two_sweep_including_ties() {
        let mut rng = SmallRng::seed_from_u64(4);
        for case in 0..300 {
            let g = rng.gen_range(2..40);
            // Few distinct weights force exact ties (and equal-weight
            // vertices competing for the same pick); some cases add
            // infinite edges.
            let levels = if case % 2 == 0 { 3 } else { 1000 };
            let mut m = vec![0.0; g * g];
            for i in 0..g {
                for j in i + 1..g {
                    let mut w = rng.gen_range(1..=levels) as f64 / 4.0;
                    if case % 7 == 3 && rng.gen_range(0..5) == 0 {
                        w = f64::INFINITY;
                    }
                    m[i * g + j] = w;
                    m[j * g + i] = w;
                }
            }
            let dist = |i: usize, j: usize| m[i * g + j];
            let fused: Vec<u64> = mst_edge_weights(&dist, g)
                .iter()
                .map(|w| w.to_bits())
                .collect();
            let two: Vec<u64> = mst_two_sweep(&dist, g)
                .iter()
                .map(|w| w.to_bits())
                .collect();
            assert_eq!(fused, two, "case {case} (g = {g})");
        }
    }
}
