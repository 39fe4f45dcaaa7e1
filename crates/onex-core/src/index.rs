//! The per-length critical thresholds `ST_half` / `ST_final` (§4.2), from
//! the Inter-Representative Distances `Dc` of the paper's Global Time Index
//! (Def. 10, §4.3).
//!
//! The paper stores `Dc` as a dense rep × rep matrix per length and orders
//! the §5.3 representative scan by its row sums. This engine stores
//! neither: the scans visit representatives in slab order, and the only
//! reader of `Dc` left is the merge cascade below, which asks for each
//! entry once, computed on the fly from two representative rows. The base
//! runs it on the first read of its SP-Space ([`crate::OnexBase::sp_space`]).
//!
//! Up to [`DC_DENSE_LIMIT`] groups per length the cascade is exact; above it
//! the thresholds are estimated from a fixed-size seeded sample of
//! representatives. Group counts that large mean the threshold is far below
//! the dataset's intrinsic spread, and an exact quadratic cascade would buy
//! nothing.

use crate::store::LengthSlab;
use onex_dist::ed_normalized;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Largest group count per length for which the critical thresholds come
/// from the exact merge cascade over every representative.
pub const DC_DENSE_LIMIT: usize = 2048;

/// Sample size of the estimated cascade above [`DC_DENSE_LIMIT`].
const SPARSE_SAMPLE: usize = 256;

/// Bytes §4.3's dense `Dc` matrix takes for a length of `group_count`
/// groups: one `f64` per ordered pair of representatives.
pub fn paper_dc_bytes(group_count: usize) -> usize {
    group_count * group_count * std::mem::size_of::<f64>()
}

/// `(ST_half, ST_final)` of one length's groups, for the construction
/// threshold `st`. `Dc(i, j)` is `ed_normalized(rep_i, rep_j)`, which is
/// symmetric bit for bit (`(x−y)² = (y−x)²` in IEEE), so computing an entry
/// on demand gives exactly the value a stored matrix would hold. The
/// sampled path seeds its RNG from `(len, g)`, so both paths are pure
/// functions of the slab and `st`.
pub(crate) fn critical_thresholds(slab: &LengthSlab, st: f64) -> (f64, f64) {
    let g = slab.group_count();
    let dc = |i: usize, j: usize| ed_normalized(slab.rep_row(i), slab.rep_row(j));
    if g <= DC_DENSE_LIMIT {
        return merge_cascade(dc, g, st);
    }
    let len = slab.subseq_len();
    let mut rng = SmallRng::seed_from_u64(0x5A3D ^ (len as u64) ^ (g as u64));
    let sample: Vec<usize> = (0..SPARSE_SAMPLE).map(|_| rng.gen_range(0..g)).collect();
    merge_cascade(|a, b| dc(sample[a], sample[b]), sample.len(), st)
}

/// Critical thresholds via the single-linkage merge cascade: groups merge
/// when `ST' − ST ≥ Dc` (§5.2 case 3.2a), and since a merge can enable the
/// next, the cascade is single-linkage agglomeration, so the k-th merge
/// happens at the k-th smallest MST edge weight of the complete `Dc` graph.
/// Half the groups have merged after `⌊g/2⌋` merges; all after `g − 1`.
fn merge_cascade(dist: impl Fn(usize, usize) -> f64, g: usize, st: f64) -> (f64, f64) {
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

    /// Thresholds of `reps` as single-member groups at ST 0.2.
    fn thresholds(reps: &[Vec<f64>]) -> (f64, f64) {
        critical_thresholds(&groups_from(reps).1, 0.2)
    }

    /// The `Dc` entries the cascade reads on demand are the matrix §4.3
    /// stores: symmetric bit for bit, with a zero diagonal.
    #[test]
    fn dc_matrix_is_symmetric_with_zero_diagonal() {
        let (_d, slab) = groups_from(&[vec![0.0, 0.3], vec![1.0, 0.9], vec![0.5, 0.1]]);
        let dc = |i: usize, j: usize| ed_normalized(slab.rep_row(i), slab.rep_row(j));
        for i in 0..3 {
            assert_eq!(dc(i, i).to_bits(), 0);
            for j in 0..3 {
                assert_eq!(dc(i, j).to_bits(), dc(j, i).to_bits());
            }
        }
        let (_d, slab) = groups_from(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, 0.5]]);
        let dc = |i: usize, j: usize| ed_normalized(slab.rep_row(i), slab.rep_row(j));
        // normalized ED between [0,0] and [1,1] is 1.0
        assert!((dc(0, 1) - 1.0).abs() < 1e-12);
        assert!((dc(0, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn critical_thresholds_from_merge_cascade() {
        // Reps at 0.0, 0.1, 1.0 (constant sequences): MST edges 0.1 and 0.9.
        let (st_half, st_final) = thresholds(&[vec![0.0, 0.0], vec![0.1, 0.1], vec![1.0, 1.0]]);
        // g=3: half merged after 1 merge -> ST + 0.1; all after 2 -> ST + 0.9.
        assert!((st_half - 0.3).abs() < 1e-9, "st_half {st_half}");
        assert!((st_final - 1.1).abs() < 1e-9, "st_final {st_final}");
        assert!(st_half <= st_final);
    }

    #[test]
    fn single_group_thresholds_collapse_to_st() {
        let (_d, slab) = groups_from(&[vec![0.0, 0.0]]);
        assert_eq!(critical_thresholds(&slab, 0.25), (0.25, 0.25));
    }

    /// Above the dense limit the thresholds come from the seeded sample.
    /// Its values are pinned to the bits the stored-matrix design computed,
    /// so the estimate is the same function of the slab it always was.
    #[test]
    fn sparse_mode_above_dense_limit() {
        // 2049 single-member groups of distinct constant reps are cheap at
        // length 2.
        let n = DC_DENSE_LIMIT + 1;
        let reps: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = i as f64 / n as f64;
                vec![v, v]
            })
            .collect();
        let (st_half, st_final) = thresholds(&reps);
        assert_eq!(
            st_half.to_bits(),
            0x3fc9_e98f_9ad9_71a0,
            "ST_half {st_half}"
        );
        assert_eq!(
            st_final.to_bits(),
            0x3fcc_4943_a458_41c2,
            "ST_final {st_final}"
        );
        assert!(0.2 <= st_half && st_half <= st_final);
    }

    #[test]
    fn size_accounting() {
        assert_eq!(paper_dc_bytes(0), 0);
        assert_eq!(paper_dc_bytes(2), 4 * 8);
        assert_eq!(paper_dc_bytes(DC_DENSE_LIMIT), 32 << 20);
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
