//! ONEX base construction — the paper's Algorithm 1, writing straight into
//! the columnar per-length store.
//!
//! For every subsequence length, subsequences are visited in randomized
//! order (RANDOMIZE-IN-PLACE, i.e. Fisher–Yates); each is assigned to the
//! *closest* existing representative of its length provided the raw ED is
//! within `√L · ST/2` (the raw-space equivalent of `ED̄ ≤ ST/2`), otherwise
//! it seeds a new group and becomes its first representative.
//! Representatives are running point-wise means, updated incrementally —
//! and kept in a single flat slab (stride = length), so the assignment hot
//! loop scans one contiguous block of memory instead of chasing a `Vec`
//! pointer per candidate group.
//!
//! Lengths are independent, so construction fans out across the
//! [`crate::pool`] workers, one length per task, on every core of a base
//! large enough to pay for them; results are identical at any thread count
//! because each length's shuffle is seeded independently.

use crate::store::LengthSlab;
use crate::{BuildMode, OnexConfig};
use onex_dist::{ed_early_abandon_sq, lb_paa_sq, paa_into};
use onex_ts::{Dataset, SubseqRef};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum Strict-mode eviction/re-insertion rounds before stragglers are
/// forced into singleton groups.
const STRICT_ROUNDS: usize = 4;

/// Guard band for the assigner's LB_PAA prefilter: prune only when the
/// sketch bound exceeds `cutoff × (1 + margin)`. The bound is mathematically
/// ≤ the ED the scan keys on, but it is *computed* with a different
/// floating-point association (blocked weighted sum vs the sequential ED
/// fold), so at an exact tie — where the Jensen slack is zero — it could
/// overshoot the cutoff by a few ulps and flip a near-tie group assignment.
/// A relative margin orders of magnitude above any accumulated rounding
/// (~n·ε ≈ 1e-13 for the longest subsequences) makes the prefilter provably
/// conservative: it can only skip work, never change which group wins, so
/// the built base stays bit-identical to the unfiltered scan's.
const PAA_PREFILTER_MARGIN: f64 = 1e-9;

/// The raw-space admission threshold `√L · ST/2` of Def. 8 at length
/// `len` — what the assigner admits and the Strict repair evicts against.
pub(crate) fn strict_limit(len: usize, st: f64) -> f64 {
    (len as f64).sqrt() * st / 2.0
}

/// The first Def. 8 violation in a finalized `slab` at threshold `st`, as
/// `(group, member, raw ED)`: a member of a multi-member group whose stored
/// raw ED to its representative exceeds [`strict_limit`]. The stored ED is
/// the raw ED to the mean, so this is exactly the test the Strict repair
/// evicts on; a singleton is never evicted, so it cannot violate.
pub(crate) fn def8_violation(slab: &LengthSlab, st: f64) -> Option<(usize, SubseqRef, f64)> {
    let limit = strict_limit(slab.subseq_len(), st);
    (0..slab.group_count())
        .filter(|&local| slab.member_count(local) > 1)
        .find_map(|local| {
            let members = slab.members(local);
            let &(r, d) = members.iter().find(|&&(_, d)| d > limit)?;
            Some((local, r, d))
        })
}

/// Incremental assignment state for one length: the group slab under
/// construction plus the *live* means, kept in a parallel flat slab so the
/// ED hot loop walks contiguous rows — and the means' PAA sketches in a
/// second flat slab, so an O(w) LB_PAA prefilter can skip the O(len) ED
/// for candidates that provably cannot join a group.
///
/// It also keeps the **touched set**: the groups whose membership changed
/// since the slab was handed in (joined, seeded, evicted from or
/// re-inserted into). Only those can have moved means, so only those are
/// Strict-checked and re-finalized; every other group passes through bit
/// for bit. Construction and refinement splits hand in slabs whose every
/// group counts as changed ([`Assigner::with_slab`]); appends and refinement
/// merges reopen a slab in which only the unfinalized groups count as
/// changed ([`Assigner::reopen`]).
pub(crate) struct Assigner {
    pub(crate) slab: LengthSlab,
    /// Live means, row-major with the same stride/order as the slab.
    means: Vec<f64>,
    /// PAA sketches of the live means, row-major with stride `paa_w`.
    /// Always recomputed *from the mean row* after a mean moves (never
    /// updated incrementally in sketch space), so each row is exactly
    /// `PAA(mean)` and `LB_PAA(candidate, mean) ≤ ED(candidate, mean)`
    /// holds — the prefilter can only skip work, never change assignment.
    means_paa: Vec<f64>,
    /// Sketch scratch for the candidate of the current [`Assigner::assign`].
    cand_paa: Vec<f64>,
    /// Sketch scratch for mean-row recomputes.
    row_paa: Vec<f64>,
    len: usize,
    /// Sketch width (the slab's `min(paa_width, len)`).
    paa_w: usize,
    /// Raw-space admission threshold `√L · ST/2`.
    limit_raw: f64,
    /// Per group: membership changed since the slab was handed in.
    changed: Vec<bool>,
}

impl Assigner {
    pub(crate) fn new(len: usize, st: f64, paa_width: usize, sax_alphabet: usize) -> Self {
        Self::with_slab(st, LengthSlab::new(len, paa_width, sax_alphabet))
    }

    /// Seeds the assigner with an existing slab whose every group counts as
    /// changed (refinement splits, Lloyd rounds, the shrunk groups of a
    /// removal, a snapshot length that breaks Def. 8).
    pub(crate) fn with_slab(st: f64, slab: LengthSlab) -> Self {
        let g = slab.group_count();
        Self::resume(st, slab, vec![true; g])
    }

    /// Reopens a slab whose unfinalized groups are the changed ones: none
    /// for an append, which resumes a finalized slab, and the merged groups
    /// after refinement merges. The finalized groups must satisfy Def. 8 at
    /// `st` (an append keeps `ST`; a merge raises it), so those the
    /// assignment never reaches pass through [`Assigner::finish`] untouched.
    pub(crate) fn reopen(st: f64, slab: LengthSlab) -> Self {
        let changed = (0..slab.group_count())
            .map(|local| !slab.is_finalized(local))
            .collect();
        Self::resume(st, slab, changed)
    }

    fn resume(st: f64, slab: LengthSlab, changed: Vec<bool>) -> Self {
        let len = slab.subseq_len();
        let paa_w = slab.paa_width();
        let mut asg = Assigner {
            slab,
            means: Vec::new(),
            means_paa: Vec::new(),
            cand_paa: Vec::new(),
            row_paa: Vec::new(),
            len,
            paa_w,
            limit_raw: strict_limit(len, st),
            changed,
        };
        asg.rebuild_means();
        asg
    }

    /// Closes the length — shared by construction, append and removal: the
    /// Strict repair (in [`BuildMode::Strict`]), then finalization of every
    /// changed group. An unchanged group is already finalized over the same
    /// sums and members, and [`LengthSlab::finalize`] would reproduce it bit
    /// for bit.
    pub(crate) fn finish(mut self, dataset: &Dataset, config: &OnexConfig) -> LengthSlab {
        if config.build_mode == BuildMode::Strict {
            self.enforce_invariant(dataset);
        }
        let radius = config.window.resolve(self.len, self.len);
        for (local, &changed) in self.changed.iter().enumerate() {
            if changed {
                self.slab.finalize(local, dataset, radius);
            }
        }
        self.slab
    }

    /// Assigns one subsequence: joins the closest qualifying group or seeds
    /// a new one (Algorithm 1, lines 12–20). Returns the group index.
    ///
    /// When the sketch genuinely reduces (`w < len`), each existing group
    /// is first tested with the O(w) LB_PAA bound — guard-banded by
    /// [`PAA_PREFILTER_MARGIN`] — against the running cutoff; only
    /// survivors pay the O(len) early-abandoning ED. The prefilter can
    /// only skip work, never change which group wins, so the built base is
    /// identical to the unfiltered scan's. (At `w == len` the sketch *is*
    /// the sequence — zero reduction, zero slack — so the prefilter is
    /// skipped outright.)
    pub(crate) fn assign(&mut self, dataset: &Dataset, r: SubseqRef) -> usize {
        let values = dataset.subseq_unchecked(r);
        paa_into(values, self.paa_w, &mut self.cand_paa);
        let weights = self.slab.paa_weights();
        let prefilter = self.paa_w < self.len;
        let limit_sq = self.limit_raw * self.limit_raw;
        let mut best: Option<(usize, f64)> = None;
        let mut cutoff = limit_sq;
        for (k, (mean, mean_paa)) in self
            .means
            .chunks_exact(self.len)
            .zip(self.means_paa.chunks_exact(self.paa_w))
            .enumerate()
        {
            if prefilter
                && lb_paa_sq(&self.cand_paa, mean_paa, weights)
                    > cutoff * (1.0 + PAA_PREFILTER_MARGIN)
            {
                continue;
            }
            if let Some(d_sq) = ed_early_abandon_sq(values, mean, cutoff) {
                if d_sq <= cutoff {
                    best = Some((k, d_sq));
                    cutoff = d_sq;
                }
            }
        }
        match best {
            Some((k, _)) => {
                self.slab.push_member(k, r, values);
                // Incremental mean update: m += (x − m)/n.
                let n = self.slab.member_count(k) as f64;
                let row = &mut self.means[k * self.len..(k + 1) * self.len];
                for (m, &v) in row.iter_mut().zip(values) {
                    *m += (v - *m) / n;
                }
                // Re-sketch the moved mean from its row (see `means_paa`).
                paa_into(row, self.paa_w, &mut self.row_paa);
                self.means_paa[k * self.paa_w..(k + 1) * self.paa_w].copy_from_slice(&self.row_paa);
                self.changed[k] = true;
                k
            }
            None => {
                let k = self.slab.seed(r, values);
                self.means.extend_from_slice(values);
                // A singleton's mean is the candidate itself, so its
                // sketch is the candidate's — bit-identical to a recompute.
                self.means_paa.extend_from_slice(&self.cand_paa);
                self.changed.push(true);
                k
            }
        }
    }

    /// Strict-mode repair over the touched set: evict members outside the
    /// limit of their group's mean and re-insert them, for up to
    /// [`STRICT_ROUNDS`] rounds; subsequences still evicted in the last
    /// round become singleton groups, and the groups they left are
    /// re-checked (evict-only) until none evicts, so the Def. 8 invariant
    /// holds unconditionally on return.
    ///
    /// Each round checks only the groups that changed since their last
    /// check: the touched set on the first round, then the groups that
    /// evicted or received a re-insertion. Any other group's mean is
    /// bit-identical to the one it last passed against (or, on the first
    /// round, to the one it held on input, where Def. 8 already held), so it
    /// cannot evict — the repair does exactly what a check of every group
    /// would.
    fn enforce_invariant(&mut self, dataset: &Dataset) {
        let mut check: Vec<usize> = (0..self.changed.len())
            .filter(|&local| self.changed[local])
            .collect();
        for round in 0..STRICT_ROUNDS {
            let (mut evicted, mut moved) = self.evict_pass(&check, dataset);
            if evicted.is_empty() {
                return;
            }
            if round + 1 == STRICT_ROUNDS {
                // Final round: isolate stragglers instead of re-inserting,
                // then re-check the groups they left — their means moved.
                while !evicted.is_empty() {
                    for r in evicted {
                        self.isolate(dataset, r);
                    }
                    (evicted, moved) = self.evict_pass(&moved, dataset);
                }
                return;
            }
            check = moved;
            for r in evicted {
                check.push(self.assign(dataset, r));
            }
            check.sort_unstable();
            check.dedup();
        }
    }

    /// One eviction pass over `groups` (ascending): returns the evicted
    /// subsequences in group order and the groups that lost members. Every
    /// checked group's live mean is then reset from its sums — eviction
    /// moved some, incremental joins drifted others.
    fn evict_pass(&mut self, groups: &[usize], dataset: &Dataset) -> (Vec<SubseqRef>, Vec<usize>) {
        let (mut evicted, mut moved) = (Vec::new(), Vec::new());
        for &local in groups {
            let out = self.slab.evict_outside(local, dataset, self.limit_raw);
            if !out.is_empty() {
                moved.push(local);
                evicted.extend(out);
            }
        }
        for &local in groups {
            self.refresh_mean(local);
        }
        (evicted, moved)
    }

    /// Seeds `r` as a singleton group (the Strict repair's last resort).
    fn isolate(&mut self, dataset: &Dataset, r: SubseqRef) {
        let values = dataset.subseq_unchecked(r);
        self.slab.seed(r, values);
        self.means.extend_from_slice(values);
        paa_into(values, self.paa_w, &mut self.row_paa);
        self.means_paa.extend_from_slice(&self.row_paa);
        self.changed.push(true);
    }

    /// Builds the mean slab (and its sketch slab) from the group sums of a
    /// slab handed in.
    fn rebuild_means(&mut self) {
        let g = self.slab.group_count();
        self.means.resize(g * self.len, 0.0);
        self.means_paa.resize(g * self.paa_w, 0.0);
        for local in 0..g {
            self.refresh_mean(local);
        }
    }

    /// Resets group `local`'s live mean and its sketch from the group sum.
    fn refresh_mean(&mut self, local: usize) {
        let row = &mut self.means[local * self.len..(local + 1) * self.len];
        self.slab.write_mean(local, row);
        paa_into(row, self.paa_w, &mut self.row_paa);
        self.means_paa[local * self.paa_w..(local + 1) * self.paa_w].copy_from_slice(&self.row_paa);
    }

    /// The whole-length [`Assigner::finish`] the touched set replaced, kept
    /// as the reference the differential tests compare against: every
    /// repair round checks every group (with the same final-round re-check)
    /// and every group is re-finalized.
    #[cfg(test)]
    pub(crate) fn finish_every_group(
        mut self,
        dataset: &Dataset,
        config: &OnexConfig,
    ) -> LengthSlab {
        if config.build_mode == BuildMode::Strict {
            let every = |asg: &Self| (0..asg.slab.group_count()).collect::<Vec<_>>();
            for round in 0..STRICT_ROUNDS {
                let (mut evicted, _) = self.evict_pass(&every(&self), dataset);
                if evicted.is_empty() {
                    break;
                }
                if round + 1 == STRICT_ROUNDS {
                    while !evicted.is_empty() {
                        for r in evicted {
                            self.isolate(dataset, r);
                        }
                        (evicted, _) = self.evict_pass(&every(&self), dataset);
                    }
                    break;
                }
                for r in evicted {
                    self.assign(dataset, r);
                }
            }
        }
        let radius = config.window.resolve(self.len, self.len);
        for local in 0..self.slab.group_count() {
            self.slab.finalize(local, dataset, radius);
        }
        self.slab
    }
}

/// Builds the similarity-group slab for a single length.
pub fn build_length_groups(dataset: &Dataset, len: usize, config: &OnexConfig) -> LengthSlab {
    // Collect and shuffle the subsequences of this length (Algorithm 1,
    // lines 3–4). The seed mixes in the length so every length gets an
    // independent, thread-schedule-free permutation.
    let mut refs: Vec<SubseqRef> = dataset.subseqs_of_len(len, &config.decomposition).collect();
    let mut rng =
        SmallRng::seed_from_u64(config.seed ^ (len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Fisher–Yates (the textbook RANDOMIZE-IN-PLACE the paper cites).
    for i in (1..refs.len()).rev() {
        let j = rng.gen_range(0..=i);
        refs.swap(i, j);
    }

    let mut asg = Assigner::new(len, config.st, config.paa_width, config.sax_alphabet);
    for &r in &refs {
        asg.assign(dataset, r);
    }
    if let crate::ClusterStrategy::KMeansRefined { iters } = config.cluster {
        lloyd_refine(dataset, len, config, &refs, &mut asg, iters);
    }
    asg.finish(dataset, config)
}

/// Lloyd refinement over the greedy groups (tech-report's alternative
/// clustering): each iteration reassigns every subsequence to its *nearest*
/// current mean (no radius test — the Strict pass afterwards restores the
/// Def. 8 invariant), then rebuilds means; empty groups are dropped.
fn lloyd_refine(
    dataset: &Dataset,
    len: usize,
    config: &OnexConfig,
    refs: &[SubseqRef],
    asg: &mut Assigner,
    iters: usize,
) {
    for _ in 0..iters {
        // Snapshot the current means as fixed centroids.
        let g = asg.slab.group_count();
        if g == 0 {
            return;
        }
        let mut centroids = Vec::with_capacity(g * len);
        let mut row = Vec::new();
        for local in 0..g {
            asg.slab.mean_into(local, &mut row);
            centroids.extend_from_slice(&row);
        }
        // Reassign all members to the nearest centroid.
        let mut buckets: Vec<Vec<SubseqRef>> = vec![Vec::new(); g];
        for &r in refs {
            let values = dataset.subseq_unchecked(r);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (k, c) in centroids.chunks_exact(len).enumerate() {
                if let Some(d) = onex_dist::ed_early_abandon_sq(values, c, best_d) {
                    if d < best_d {
                        best_d = d;
                        best = k;
                    }
                }
            }
            buckets[best].push(r);
        }
        // Rebuild the slab from the buckets (dropping empties).
        let mut slab = LengthSlab::new(len, config.paa_width, config.sax_alphabet);
        for bucket in buckets {
            let mut members = bucket.into_iter();
            let Some(first) = members.next() else {
                continue;
            };
            let local = slab.seed(first, dataset.subseq_unchecked(first));
            for r in members {
                slab.push_member(local, r, dataset.subseq_unchecked(r));
            }
        }
        *asg = Assigner::with_slab(config.st, slab);
    }
}

/// Builds the per-length slabs for every decomposed length, sorted by
/// length, on the [`crate::pool`] (`config.threads` workers, `0` = one per
/// [`crate::pool::GRAIN`] subsequences, at most one per core). Each
/// finished slab is cloned onto the caller's thread, so the base's memory
/// does not pin the workers' arenas. The slabs are the same at any thread
/// count.
pub fn build_base(dataset: &Dataset, config: &OnexConfig) -> Vec<LengthSlab> {
    let lengths = dataset.decomposed_lengths(&config.decomposition);
    let subsequences = dataset.subseq_count(&config.decomposition);
    let workers = crate::pool::length_workers(config.threads, lengths.len(), subsequences);
    crate::pool::per_length(
        lengths,
        workers,
        |len| build_length_groups(dataset, len, config),
        |slab| slab.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_dist::ed_normalized;
    use onex_ts::{synth, Decomposition};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The touched-set repair equals the every-group reference on
        /// random groupings of 2-D points that break Def. 8 all over
        /// (long eviction chains, the last round included), and again when
        /// the repaired slab is extended with further points.
        #[test]
        fn touched_set_repair_matches_every_group_reference(
            points in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 10..90),
            groups in 1..10usize,
            split in 0.5..0.95f64,
            st in 0.05..0.5f64,
        ) {
            let d = Dataset::new(
                "points",
                points
                    .iter()
                    .map(|&(x, y)| onex_ts::TimeSeries::new(vec![x, y]).unwrap())
                    .collect(),
            );
            let r = |i: usize| SubseqRef::new(i as u32, 0, 2);
            let initial = ((points.len() as f64 * split) as usize).max(1);
            let mut slab = LengthSlab::new(2, 2, 4);
            for i in 0..initial {
                let k = i % groups;
                if k < slab.group_count() {
                    slab.push_member(k, r(i), d.subseq_unchecked(r(i)));
                } else {
                    slab.seed(r(i), d.subseq_unchecked(r(i)));
                }
            }
            let cfg = config(st);
            let repaired = Assigner::with_slab(st, slab.clone()).finish(&d, &cfg);
            let reference = Assigner::with_slab(st, slab).finish_every_group(&d, &cfg);
            prop_assert!(repaired == reference, "from scratch");

            let mut touched = Assigner::reopen(st, repaired.clone());
            let mut every = Assigner::with_slab(st, repaired);
            for i in initial..points.len() {
                touched.assign(&d, r(i));
                every.assign(&d, r(i));
            }
            let extended = touched.finish(&d, &cfg);
            prop_assert!(extended == every.finish_every_group(&d, &cfg), "extending");
        }
    }

    fn config(st: f64) -> OnexConfig {
        OnexConfig {
            st,
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn every_subsequence_lands_in_exactly_one_group() {
        let d = synth::sine_mix(6, 16, 2, 1);
        let cfg = config(0.2);
        let built = build_base(&d, &cfg);
        let total: usize = built.iter().map(LengthSlab::total_members).sum();
        assert_eq!(total, d.subseq_count(&cfg.decomposition));
        // no duplicates across groups of the same length
        for slab in &built {
            let mut seen = std::collections::BTreeSet::new();
            for local in 0..slab.group_count() {
                for &(r, _) in slab.members(local) {
                    assert!(seen.insert(r), "duplicate member {r:?}");
                    assert_eq!(r.len as usize, slab.subseq_len());
                }
            }
        }
    }

    #[test]
    fn strict_mode_upholds_def8_invariant() {
        let d = synth::random_walk(5, 20, 3);
        let cfg = config(0.15);
        for slab in build_base(&d, &cfg) {
            for local in 0..slab.group_count() {
                for &(r, _) in slab.members(local) {
                    let dist = ed_normalized(d.subseq_unchecked(r), slab.rep_row(local));
                    assert!(
                        dist <= cfg.st / 2.0 + 1e-9,
                        "len {} member {:?}: ED̄ {} > ST/2 {}",
                        slab.subseq_len(),
                        r,
                        dist,
                        cfg.st / 2.0
                    );
                }
            }
        }
    }

    /// An eviction chain that uses up every repair round, on one-sample
    /// subsequences with limit 1 (ST = 2): each round's evictee joins the
    /// next group and pushes one of its members out. In the last round
    /// group H evicts -0.6, which moves H's mean to 0.8675, so -0.3 (which
    /// passed against the old mean 0.574) now lies 1.1675 from it. The
    /// repair must re-check H and isolate -0.3 too.
    #[test]
    fn strict_repair_rechecks_groups_its_last_round_shrank() {
        let groups: [&[f64]; 4] = [
            &[-0.3, -0.6, 1.2, 1.2], // H: receives 1.37 in round 2
            &[1.37, 2.87],           // receives 3.1 in round 1, evicts 1.37
            &[3.1, 4.6],             // receives 4.84 in round 0, evicts 3.1
            &[4.84, 6.5, 6.5],       // evicts 4.84 in round 0
        ];
        let values: Vec<f64> = groups.iter().flat_map(|g| g.iter().copied()).collect();
        let d = Dataset::new(
            "chain",
            values
                .iter()
                .map(|&v| onex_ts::TimeSeries::new(vec![v]).unwrap())
                .collect(),
        );
        let mut slab = LengthSlab::new(1, 1, 4);
        let mut series = 0u32;
        for g in groups {
            let mut local = None;
            for _ in g {
                let r = SubseqRef::new(series, 0, 1);
                match local {
                    None => local = Some(slab.seed(r, d.subseq_unchecked(r))),
                    Some(k) => slab.push_member(k, r, d.subseq_unchecked(r)),
                }
                series += 1;
            }
        }
        let mut asg = Assigner::with_slab(2.0, slab);
        asg.enforce_invariant(&d);
        let slab = asg.slab;
        let mut mean = Vec::new();
        for local in (0..slab.group_count()).filter(|&l| slab.member_count(l) > 1) {
            slab.mean_into(local, &mut mean);
            for &(r, _) in slab.members(local) {
                let dist = onex_dist::ed(d.subseq_unchecked(r), &mean);
                assert!(dist <= 1.0, "{r:?} at raw ED {dist} from {mean:?}");
            }
        }
        // -0.6 and -0.3 end up alone.
        assert_eq!(slab.group_count(), 6);
    }

    #[test]
    fn paper_mode_admits_against_running_mean() {
        // Paper mode still produces a full partition; invariant may drift
        // slightly but every member was admitted within the limit at the time.
        let d = synth::random_walk(4, 16, 7);
        let cfg = OnexConfig {
            build_mode: BuildMode::Paper,
            ..config(0.15)
        };
        let built = build_base(&d, &cfg);
        let total: usize = built.iter().map(LengthSlab::total_members).sum();
        assert_eq!(total, d.subseq_count(&cfg.decomposition));
    }

    #[test]
    fn looser_threshold_gives_fewer_or_equal_groups() {
        let d = synth::sine_mix(8, 24, 2, 5);
        let tight: usize = build_base(&d, &config(0.05))
            .iter()
            .map(LengthSlab::group_count)
            .sum();
        let loose: usize = build_base(&d, &config(0.8))
            .iter()
            .map(LengthSlab::group_count)
            .sum();
        assert!(
            loose <= tight,
            "loose ST produced {loose} groups, tight {tight}"
        );
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let d = synth::sine_mix(6, 20, 2, 9);
        let seq_cfg = config(0.2);
        let par_cfg = OnexConfig {
            threads: 4,
            ..seq_cfg
        };
        let a = build_base(&d, &seq_cfg);
        let b = build_base(&d, &par_cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.subseq_len(), y.subseq_len());
            assert_eq!(x, y, "length {}", x.subseq_len());
        }
    }

    #[test]
    fn single_length_decomposition() {
        let d = synth::sine_mix(4, 12, 2, 2);
        let cfg = OnexConfig {
            decomposition: Decomposition::single_length(8),
            ..config(0.2)
        };
        let built = build_base(&d, &cfg);
        assert_eq!(built.len(), 1);
        assert_eq!(built[0].subseq_len(), 8);
        assert_eq!(built[0].total_members(), 4 * (12 - 8 + 1));
    }

    #[test]
    fn kmeans_refinement_keeps_partition_and_invariant() {
        let d = synth::sine_mix(6, 16, 2, 17);
        let cfg = OnexConfig {
            cluster: crate::ClusterStrategy::KMeansRefined { iters: 3 },
            ..config(0.2)
        };
        let built = build_base(&d, &cfg);
        let total: usize = built.iter().map(LengthSlab::total_members).sum();
        assert_eq!(total, d.subseq_count(&cfg.decomposition));
        // Strict mode still enforces Def. 8 after refinement.
        for slab in &built {
            for local in 0..slab.group_count() {
                for &(r, _) in slab.members(local) {
                    let dist = ed_normalized(d.subseq_unchecked(r), slab.rep_row(local));
                    assert!(dist <= cfg.st / 2.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn kmeans_refinement_does_not_increase_group_count_on_clean_data() {
        // Lloyd consolidates the greedy pass's order-dependent fragments on
        // well-clustered data.
        let d = synth::sine_mix(8, 20, 2, 23);
        let greedy: usize = build_base(&d, &config(0.3))
            .iter()
            .map(LengthSlab::group_count)
            .sum();
        let cfg = OnexConfig {
            cluster: crate::ClusterStrategy::KMeansRefined { iters: 3 },
            ..config(0.3)
        };
        let refined: usize = build_base(&d, &cfg)
            .iter()
            .map(LengthSlab::group_count)
            .sum();
        assert!(
            refined <= greedy + greedy / 10,
            "refined {refined} vs greedy {greedy}"
        );
    }

    #[test]
    fn group_count_grows_sublinearly_in_data() {
        // The paper's §4.1 probabilistic argument: expected groups ≈ O(√n),
        // under its equal-likelihood assumption — i.e. on data with
        // intra-class redundancy (uncorrelated random walks are the
        // degenerate case where every subsequence founds its own group and
        // growth is linear). Quadrupling a redundant dataset must grow the
        // representative count much slower than the subsequence count.
        let small = synth::sine_mix(4, 16, 2, 3);
        let large = synth::sine_mix(16, 16, 2, 3);
        let cfg = config(0.2);
        let g_small: usize = build_base(&small, &cfg)
            .iter()
            .map(LengthSlab::group_count)
            .sum();
        let g_large: usize = build_base(&large, &cfg)
            .iter()
            .map(LengthSlab::group_count)
            .sum();
        let data_ratio = large.subseq_count(&cfg.decomposition) as f64
            / small.subseq_count(&cfg.decomposition) as f64;
        let group_ratio = g_large as f64 / g_small as f64;
        assert!(
            group_ratio < 0.75 * data_ratio,
            "groups grew {group_ratio:.2}× for {data_ratio:.2}× more data"
        );
    }

    #[test]
    fn identical_subsequences_share_a_group() {
        // Two identical flat series: every subsequence of a given length is
        // identical, so each length should produce exactly one group (modulo
        // value: all values equal 0.3/0.31 — within ST/2 for ST=0.2).
        let d = onex_ts::Dataset::new(
            "flat",
            vec![
                onex_ts::TimeSeries::new(vec![0.3; 10]).unwrap(),
                onex_ts::TimeSeries::new(vec![0.31; 10]).unwrap(),
            ],
        );
        for slab in build_base(&d, &config(0.2)) {
            assert_eq!(slab.group_count(), 1, "length {}", slab.subseq_len());
        }
    }
}
