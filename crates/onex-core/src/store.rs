//! The **columnar group store**: struct-of-arrays storage for every
//! similarity group of one subsequence length, plus the cross-length
//! directory that resolves a flat [`GroupId`].
//!
//! The query hot path (the per-length representative scan and the LB_Keogh
//! envelope tiers in front of every DTW) used to chase a pointer per group:
//! each `Group` owned its own `rep: Vec<f64>`, `sum: Vec<f64>` and envelope
//! vectors, scattering thousands of small heap allocations across the
//! address space. A [`LengthSlab`] packs all of a length's representatives
//! **row-major in one contiguous `Vec<f64>`** (stride = the subsequence
//! length), the envelope lower/upper planes in two parallel slabs, the
//! running point-wise sums in another, and the per-group metadata (member
//! lists, envelope radii, finalized flags) in parallel arrays indexed by
//! the group's *local* position. Tier scans become linear walks over
//! contiguous memory — cache-resident, prefetchable, and consumed by the
//! blocked SIMD-friendly kernels in `onex_dist::kernels`.
//!
//! ## The PAA sketch planes
//!
//! Parallel to the full-resolution slabs, every slab keeps **fixed-width
//! PAA sketches** (width `w = min(config.paa_width, len)`, see
//! [`crate::OnexConfig::paa_width`]):
//!
//! * `paa_reps` — the sketch of each frozen representative (stride `w`),
//! * `paa_env_lo` / `paa_env_hi` — the representative envelope reduced
//!   conservatively per segment (min of the lower plane, max of the upper
//!   — [`onex_dist::paa_envelope_into`]), the candidate side of the
//!   cascade's O(w) tier-0 bound,
//! * one flat member-sketch plane per group (stride `w`, indexed exactly
//!   like the member list), the member side of tier 0.
//!
//! The planes are maintained **incrementally**: member sketches are
//! computed once when a subsequence first enters a group and then carried
//! through every sort, merge, split, eviction and move; representative and
//! envelope sketches are rebuilt only when [`LengthSlab::finalize`]
//! re-elects the representative. A from-scratch recompute is always
//! bit-identical (property-tested), because the sketch builders share the
//! reference reduction's arithmetic.
//!
//! [`crate::Group`] survives as a lightweight **view** over one slab row
//! (see [`crate::group`]); construction, refinement and maintenance mutate
//! the slabs in place through the methods here, with arithmetic kept in
//! the exact order of the previous per-group implementation so results
//! stay byte-identical.

use onex_dist::kernels::{add_assign, sub_assign};
use onex_dist::{paa_envelope_into, paa_extend, paa_into, paa_segment_weights};
use onex_dist::{Envelope, EnvelopeRef};
use onex_ts::{Dataset, SubseqRef};
use serde::{Deserialize, Serialize};

use crate::group::{Group, GroupId};
use crate::symindex::WordSpec;
use crate::{OnexError, Result};

/// All similarity groups of one subsequence length, stored columnar.
///
/// Rows (one per group, addressed by the group's local position) live in
/// four `f64` slabs of stride [`LengthSlab::subseq_len`]:
///
/// * `reps` — the frozen representative (zeros until finalized),
/// * `env_lo` / `env_hi` — the representative's LB_Keogh envelope planes,
/// * `sums` — the running point-wise member sum (construction state),
///
/// plus three sketch slabs of stride [`LengthSlab::paa_width`]
/// (`paa_reps`, `paa_env_lo`, `paa_env_hi`) and one flat member-sketch
/// plane per group. Per-group metadata sits in parallel arrays: the member
/// list (the LSI's ED-sorted `(ref, ED)` pairs), the envelope radius, and
/// the finalized flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LengthSlab {
    /// Subsequence length shared by every member (the slab stride).
    len: usize,
    /// Sketch width: `min(config.paa_width, len)`, ≥ 1 (the sketch stride).
    paa_w: usize,
    /// Per-segment sample counts of the `(len, paa_w)` reduction, as `f64`
    /// weights for the tier-0 kernels.
    paa_weights: Vec<f64>,
    /// Representative rows, row-major; a row is all zeros until its group
    /// is finalized.
    reps: Vec<f64>,
    /// Lower envelope plane rows (zeros until finalized).
    env_lo: Vec<f64>,
    /// Upper envelope plane rows (zeros until finalized).
    env_hi: Vec<f64>,
    /// Running point-wise sum rows.
    sums: Vec<f64>,
    /// Representative sketch rows, stride `paa_w` (zeros until finalized).
    paa_reps: Vec<f64>,
    /// Segment-min of the lower envelope plane, stride `paa_w` (zeros until
    /// finalized).
    paa_env_lo: Vec<f64>,
    /// Segment-max of the upper envelope plane, stride `paa_w` (zeros until
    /// finalized).
    paa_env_hi: Vec<f64>,
    /// Envelope band half-width per group (meaningful once finalized).
    env_radius: Vec<u32>,
    /// Member lists: after finalization, pairs of (subsequence, raw ED to
    /// the representative) sorted ascending by ED.
    members: Vec<Vec<(SubseqRef, f64)>>,
    /// Member sketch planes, one flat `Vec` per group with stride `paa_w`,
    /// index-aligned with `members`.
    member_paa: Vec<Vec<f64>>,
    /// How SAX words are derived from the sketch planes (alphabet
    /// breakpoints, packed segment count) — see [`crate::symindex`].
    word_spec: WordSpec,
    /// Packed SAX word of each representative sketch (0 until finalized) —
    /// the storage tier of the symbolic index, maintained through every
    /// mutation exactly like `paa_reps`.
    rep_words: Vec<u64>,
    /// Packed member words, one `Vec` per group, index-aligned with the
    /// member list (and therefore with `member_paa`).
    member_words: Vec<Vec<u64>>,
    /// Whether the group's representative/envelope rows are frozen.
    finalized: Vec<bool>,
}

impl LengthSlab {
    /// An empty slab for groups of length `len` with sketches of width
    /// `min(paa_width, len)` (at least 1) and SAX words over a
    /// `sax_alphabet`-symbol alphabet.
    pub fn new(len: usize, paa_width: usize, sax_alphabet: usize) -> Self {
        let paa_w = paa_width.clamp(1, len.max(1));
        LengthSlab {
            len,
            paa_w,
            paa_weights: paa_segment_weights(len.max(1), paa_w),
            reps: Vec::new(),
            env_lo: Vec::new(),
            env_hi: Vec::new(),
            sums: Vec::new(),
            paa_reps: Vec::new(),
            paa_env_lo: Vec::new(),
            paa_env_hi: Vec::new(),
            env_radius: Vec::new(),
            members: Vec::new(),
            member_paa: Vec::new(),
            word_spec: WordSpec::new(sax_alphabet, paa_w),
            rep_words: Vec::new(),
            member_words: Vec::new(),
            finalized: Vec::new(),
        }
    }

    /// The subsequence length every group in this slab covers (= stride).
    #[inline]
    pub fn subseq_len(&self) -> usize {
        self.len
    }

    /// The resolved sketch width `min(config.paa_width, len)` — the stride
    /// of the sketch planes.
    #[inline]
    pub fn paa_width(&self) -> usize {
        self.paa_w
    }

    /// Per-segment sample counts of this slab's `(len, paa_width)`
    /// reduction, as the `f64` weights the tier-0 kernels consume.
    #[inline]
    pub fn paa_weights(&self) -> &[f64] {
        &self.paa_weights
    }

    /// Number of groups in the slab.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.members.len()
    }

    /// True when the slab holds no groups.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    #[inline]
    fn row(&self, local: usize) -> std::ops::Range<usize> {
        local * self.len..(local + 1) * self.len
    }

    /// The sketch-plane row of group `local` (stride `paa_w`).
    #[inline]
    fn prow(&self, local: usize) -> std::ops::Range<usize> {
        local * self.paa_w..(local + 1) * self.paa_w
    }

    /// Seeds a new group with its first member, which doubles as the
    /// initial representative (Algorithm 1, lines 7–10). Returns the new
    /// group's local position.
    pub fn seed(&mut self, r: SubseqRef, values: &[f64]) -> usize {
        debug_assert_eq!(values.len(), self.len);
        self.sums.extend_from_slice(values);
        self.reps.resize(self.reps.len() + self.len, 0.0);
        self.env_lo.resize(self.env_lo.len() + self.len, 0.0);
        self.env_hi.resize(self.env_hi.len() + self.len, 0.0);
        self.paa_reps.resize(self.paa_reps.len() + self.paa_w, 0.0);
        self.paa_env_lo
            .resize(self.paa_env_lo.len() + self.paa_w, 0.0);
        self.paa_env_hi
            .resize(self.paa_env_hi.len() + self.paa_w, 0.0);
        self.env_radius.push(0);
        self.members.push(vec![(r, 0.0)]);
        let mut plane = Vec::with_capacity(self.paa_w);
        paa_extend(values, self.paa_w, &mut plane);
        let word = self.word_spec.word_of(&plane);
        self.member_paa.push(plane);
        self.rep_words.push(0);
        self.member_words.push(vec![word]);
        self.finalized.push(false);
        self.members.len() - 1
    }

    /// Adds a member to group `local`, updating its running sum row
    /// (Algorithm 1, lines 16–17) and appending the member's sketch to the
    /// group's sketch plane.
    pub fn push_member(&mut self, local: usize, r: SubseqRef, values: &[f64]) {
        debug_assert_eq!(values.len(), self.len);
        let row = self.row(local);
        add_assign(&mut self.sums[row], values);
        self.members[local].push((r, 0.0));
        paa_extend(values, self.paa_w, &mut self.member_paa[local]);
        let start = self.member_paa[local].len() - self.paa_w;
        let word = self.word_spec.word_of(&self.member_paa[local][start..]);
        self.member_words[local].push(word);
    }

    /// The current mean of group `local` (the live representative during
    /// construction), written into `out` to avoid allocation in hot loops.
    pub fn mean_into(&self, local: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.len, 0.0);
        self.write_mean(local, out);
    }

    /// [`LengthSlab::mean_into`] over a row the caller already sized to
    /// [`LengthSlab::subseq_len`].
    pub(crate) fn write_mean(&self, local: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.len);
        let inv = 1.0 / self.members[local].len() as f64;
        for (m, s) in out.iter_mut().zip(&self.sums[self.row(local)]) {
            *m = s * inv;
        }
    }

    /// The frozen representative row of group `local` — the raw slab row,
    /// regardless of finalization (zeros when not yet finalized). The
    /// [`Group`] view adds the "empty until finalized" semantics.
    #[inline]
    pub fn rep_row(&self, local: usize) -> &[f64] {
        &self.reps[self.row(local)]
    }

    /// The whole representative slab, row-major with stride
    /// [`LengthSlab::subseq_len`] — the contiguous scan surface the
    /// rep-scan benchmarks and the blocked kernels walk.
    #[inline]
    pub fn rep_slab(&self) -> &[f64] {
        &self.reps
    }

    /// The representative sketch row of group `local` (zeros until
    /// finalized), stride [`LengthSlab::paa_width`].
    #[inline]
    pub fn paa_rep_row(&self, local: usize) -> &[f64] {
        &self.paa_reps[self.prow(local)]
    }

    /// The whole representative sketch slab, row-major with stride
    /// [`LengthSlab::paa_width`].
    #[inline]
    pub fn paa_rep_slab(&self) -> &[f64] {
        &self.paa_reps
    }

    /// How this slab discretizes sketches into SAX words — shared with the
    /// per-length [`crate::symindex::SymIndex`] built over the slab.
    #[inline]
    pub fn word_spec(&self) -> &WordSpec {
        &self.word_spec
    }

    /// The packed SAX word of group `local`'s representative sketch (0
    /// until finalized).
    #[inline]
    pub fn rep_word(&self, local: usize) -> u64 {
        self.rep_words[local]
    }

    /// The whole representative word plane, one packed word per group
    /// (snapshot support).
    #[inline]
    pub(crate) fn rep_words_slab(&self) -> &[u64] {
        &self.rep_words
    }

    /// The packed SAX words of group `local`'s members, index-aligned with
    /// the member list (snapshot support).
    #[inline]
    pub(crate) fn member_words(&self, local: usize) -> &[u64] {
        &self.member_words[local]
    }

    /// The member sketch of member `idx` of group `local` (index-aligned
    /// with [`LengthSlab::members`]), stride [`LengthSlab::paa_width`].
    #[inline]
    pub fn member_paa_row(&self, local: usize, idx: usize) -> &[f64] {
        &self.member_paa[local][idx * self.paa_w..(idx + 1) * self.paa_w]
    }

    /// The whole flat member-sketch plane of group `local` (stride
    /// [`LengthSlab::paa_width`], index-aligned with the member list).
    #[inline]
    pub(crate) fn member_paa_plane(&self, local: usize) -> &[f64] {
        &self.member_paa[local]
    }

    /// The whole lower PAA'd-envelope slab, row-major with stride
    /// [`LengthSlab::paa_width`] (snapshot support).
    #[inline]
    pub(crate) fn paa_env_lo_slab(&self) -> &[f64] {
        &self.paa_env_lo
    }

    /// The whole upper PAA'd-envelope slab, row-major with stride
    /// [`LengthSlab::paa_width`] (snapshot support).
    #[inline]
    pub(crate) fn paa_env_hi_slab(&self) -> &[f64] {
        &self.paa_env_hi
    }

    /// The running point-wise sum row of group `local`.
    #[inline]
    pub fn sum_row(&self, local: usize) -> &[f64] {
        &self.sums[self.row(local)]
    }

    /// The representative envelope of group `local` as a borrowed view
    /// over the lo/hi planes, available once finalized.
    #[inline]
    pub fn envelope_ref(&self, local: usize) -> Option<EnvelopeRef<'_>> {
        if self.finalized[local] {
            let row = self.row(local);
            Some(EnvelopeRef {
                upper: &self.env_hi[row.clone()],
                lower: &self.env_lo[row],
                radius: self.env_radius[local] as usize,
            })
        } else {
            None
        }
    }

    /// The representative's **PAA'd** envelope (segment-max upper /
    /// segment-min lower, width [`LengthSlab::paa_width`]) as a borrowed
    /// view, available once finalized — the candidate side of the
    /// cascade's tier-0 bound. The radius is the stored envelope's.
    #[inline]
    pub fn paa_envelope_ref(&self, local: usize) -> Option<EnvelopeRef<'_>> {
        if self.finalized[local] {
            let prow = self.prow(local);
            Some(EnvelopeRef {
                upper: &self.paa_env_hi[prow.clone()],
                lower: &self.paa_env_lo[prow],
                radius: self.env_radius[local] as usize,
            })
        } else {
            None
        }
    }

    /// Members of group `local` with their raw ED to the final
    /// representative, sorted ascending (the LSI's `EDk` array). Zero
    /// placeholders before finalization.
    #[inline]
    pub fn members(&self, local: usize) -> &[(SubseqRef, f64)] {
        &self.members[local]
    }

    /// Member count of group `local`.
    #[inline]
    pub fn member_count(&self, local: usize) -> usize {
        self.members[local].len()
    }

    /// Whether group `local` is finalized.
    #[inline]
    pub fn is_finalized(&self, local: usize) -> bool {
        self.finalized[local]
    }

    /// Maximum raw ED of any member of group `local` to its final
    /// representative (0 for a singleton).
    pub fn max_member_ed(&self, local: usize) -> f64 {
        self.members[local].last().map_or(0.0, |&(_, d)| d)
    }

    /// Total members across every group of the slab.
    pub fn total_members(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Clears the frozen representative, envelope and sketch rows of group
    /// `local` (after a membership mutation; the caller must re-finalize).
    fn clear_finalization(&mut self, local: usize) {
        let row = self.row(local);
        self.reps[row.clone()].fill(0.0);
        self.env_lo[row.clone()].fill(0.0);
        self.env_hi[row].fill(0.0);
        let prow = self.prow(local);
        self.paa_reps[prow.clone()].fill(0.0);
        self.paa_env_lo[prow.clone()].fill(0.0);
        self.paa_env_hi[prow].fill(0.0);
        self.env_radius[local] = 0;
        self.rep_words[local] = 0;
        self.finalized[local] = false;
    }

    /// Freezes group `local`'s representative at its current mean, computes
    /// and sorts member EDs (co-permuting the member sketch plane), and
    /// builds the envelope rows plus the representative/envelope sketch
    /// rows with the given radius.
    pub fn finalize(&mut self, local: usize, dataset: &Dataset, envelope_radius: usize) {
        let mut rep = Vec::new();
        self.mean_into(local, &mut rep);
        for (r, d) in self.members[local].iter_mut() {
            *d = onex_dist::ed(dataset.subseq_unchecked(*r), &rep);
        }
        // Sort members by (ED, ref) through an index permutation so the
        // sketch plane follows without recomputing a single sketch. The
        // key is unique per entry (refs are distinct), so this reorders
        // exactly like the previous direct sort.
        let n = self.members[local].len();
        let w = self.paa_w;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        {
            let ms = &self.members[local];
            perm.sort_unstable_by(|&a, &b| {
                let (ra, da) = ms[a as usize];
                let (rb, db) = ms[b as usize];
                da.total_cmp(&db).then(ra.cmp(&rb))
            });
        }
        let ms = &self.members[local];
        let plane = &self.member_paa[local];
        let words = &self.member_words[local];
        let mut sorted_members = Vec::with_capacity(n);
        let mut sorted_plane = Vec::with_capacity(n * w);
        let mut sorted_words = Vec::with_capacity(n);
        for &i in &perm {
            let i = i as usize;
            sorted_members.push(ms[i]);
            sorted_plane.extend_from_slice(&plane[i * w..(i + 1) * w]);
            sorted_words.push(words[i]);
        }
        self.members[local] = sorted_members;
        self.member_paa[local] = sorted_plane;
        self.member_words[local] = sorted_words;

        let env = Envelope::build(&rep, envelope_radius);
        let row = self.row(local);
        self.env_lo[row.clone()].copy_from_slice(&env.lower);
        self.env_hi[row.clone()].copy_from_slice(&env.upper);
        self.reps[row].copy_from_slice(&rep);
        let mut sketch = Vec::with_capacity(w);
        paa_into(&rep, w, &mut sketch);
        let prow = self.prow(local);
        self.paa_reps[prow.clone()].copy_from_slice(&sketch);
        let (mut hi, mut lo) = (Vec::with_capacity(w), Vec::with_capacity(w));
        paa_envelope_into(&env.upper, &env.lower, w, &mut hi, &mut lo);
        self.paa_env_hi[prow.clone()].copy_from_slice(&hi);
        self.paa_env_lo[prow].copy_from_slice(&lo);
        self.rep_words[local] = self.word_spec.word_of(&sketch);
        self.env_radius[local] = envelope_radius as u32;
        self.finalized[local] = true;
    }

    /// Removes and returns members of group `local` whose raw ED to the
    /// *current mean* exceeds `limit_raw` — the eviction step of
    /// [`crate::BuildMode::Strict`]. The sketch plane mirrors every
    /// `swap_remove`.
    pub fn evict_outside(
        &mut self,
        local: usize,
        dataset: &Dataset,
        limit_raw: f64,
    ) -> Vec<SubseqRef> {
        let mut mean = Vec::new();
        self.mean_into(local, &mut mean);
        let mut evicted = Vec::new();
        let mut i = 0;
        while i < self.members[local].len() {
            let (r, _) = self.members[local][i];
            let d = onex_dist::ed(dataset.subseq_unchecked(r), &mean);
            if d > limit_raw && self.members[local].len() > 1 {
                self.members[local].swap_remove(i);
                Self::swap_remove_sketch(&mut self.member_paa[local], i, self.paa_w);
                self.member_words[local].swap_remove(i);
                let vals = dataset.subseq_unchecked(r);
                let row = self.row(local);
                sub_assign(&mut self.sums[row], vals);
                evicted.push(r);
                // mean changed; recompute for subsequent checks
                self.mean_into(local, &mut mean);
            } else {
                i += 1;
            }
        }
        evicted
    }

    /// Mirrors `Vec::swap_remove(i)` on a flat sketch plane of stride `w`:
    /// the last `w`-block overwrites block `i`, then the plane shrinks.
    fn swap_remove_sketch(plane: &mut Vec<f64>, i: usize, w: usize) {
        let last = plane.len() / w - 1;
        if i != last {
            plane.copy_within(last * w..(last + 1) * w, i * w);
        }
        plane.truncate(last * w);
    }

    /// Removes every member of group `local` belonging to `series`,
    /// subtracting its values from the running sum (resolved against the
    /// dataset *before* the series is removed from it). Returns how many
    /// members were dropped; when any were, the frozen representative and
    /// envelope rows are cleared and the caller must re-finalize (or retire
    /// the group if it is now empty). Member order — and the index-aligned
    /// sketch plane — is preserved.
    pub(crate) fn drop_series_members(
        &mut self,
        local: usize,
        dataset: &Dataset,
        series: u32,
    ) -> usize {
        let w = self.paa_w;
        let row = self.row(local);
        let sums = &mut self.sums[row];
        let members = &mut self.members[local];
        let plane = &mut self.member_paa[local];
        let words = &mut self.member_words[local];
        let before = members.len();
        let mut write = 0usize;
        for read in 0..before {
            let (r, d) = members[read];
            if r.series == series {
                sub_assign(sums, dataset.subseq_unchecked(r));
            } else {
                if write != read {
                    members[write] = (r, d);
                    plane.copy_within(read * w..(read + 1) * w, write * w);
                    words[write] = words[read];
                }
                write += 1;
            }
        }
        members.truncate(write);
        plane.truncate(write * w);
        words.truncate(write);
        let dropped = before - write;
        if dropped > 0 {
            self.clear_finalization(local);
        }
        dropped
    }

    /// Shifts every member reference above a removed series index down by
    /// one, across all groups. The remap is monotone, so the LSI's
    /// ED-then-ref ordering is preserved and finalized groups stay
    /// finalized (sketches reference values, which do not change).
    pub(crate) fn remap_series_down(&mut self, removed: u32) {
        for group in self.members.iter_mut() {
            for (r, _) in group.iter_mut() {
                if r.series > removed {
                    r.series -= 1;
                }
            }
        }
    }

    /// Merges group `src` into group `dst` *within this slab* (Algorithm
    /// 2.C cascading merges): sums, members and sketch planes combine,
    /// `dst` loses its finalization and must be re-finalized, and `src` is
    /// left empty for the caller to retire (e.g. via
    /// [`LengthSlab::retain_groups`]).
    pub fn absorb(&mut self, dst: usize, src: usize) {
        debug_assert_ne!(dst, src);
        let src_row = self.row(src);
        let dst_row = self.row(dst);
        for i in 0..self.len {
            self.sums[dst_row.start + i] += self.sums[src_row.start + i];
        }
        let moved = std::mem::take(&mut self.members[src]);
        self.members[dst].extend(moved);
        let moved = std::mem::take(&mut self.member_paa[src]);
        self.member_paa[dst].extend(moved);
        let moved = std::mem::take(&mut self.member_words[src]);
        self.member_words[dst].extend(moved);
        self.clear_finalization(dst);
        self.clear_finalization(src);
    }

    /// Keeps only the groups whose local position satisfies `keep`,
    /// compacting every slab and metadata array in place while preserving
    /// relative order (so surviving groups keep their scan order).
    pub fn retain_groups(&mut self, keep: impl Fn(usize) -> bool) {
        let mut write = 0usize;
        for read in 0..self.group_count() {
            if !keep(read) {
                continue;
            }
            if write != read {
                let (r_row, w_row) = (self.row(read), self.row(write));
                self.sums.copy_within(r_row.clone(), w_row.start);
                self.reps.copy_within(r_row.clone(), w_row.start);
                self.env_lo.copy_within(r_row.clone(), w_row.start);
                self.env_hi.copy_within(r_row, w_row.start);
                let (r_prow, w_prow) = (self.prow(read), self.prow(write));
                self.paa_reps.copy_within(r_prow.clone(), w_prow.start);
                self.paa_env_lo.copy_within(r_prow.clone(), w_prow.start);
                self.paa_env_hi.copy_within(r_prow, w_prow.start);
                self.env_radius[write] = self.env_radius[read];
                self.members[write] = std::mem::take(&mut self.members[read]);
                self.member_paa[write] = std::mem::take(&mut self.member_paa[read]);
                self.rep_words[write] = self.rep_words[read];
                self.member_words[write] = std::mem::take(&mut self.member_words[read]);
                self.finalized[write] = self.finalized[read];
            }
            write += 1;
        }
        self.truncate_groups(write);
    }

    fn truncate_groups(&mut self, n: usize) {
        self.sums.truncate(n * self.len);
        self.reps.truncate(n * self.len);
        self.env_lo.truncate(n * self.len);
        self.env_hi.truncate(n * self.len);
        self.paa_reps.truncate(n * self.paa_w);
        self.paa_env_lo.truncate(n * self.paa_w);
        self.paa_env_hi.truncate(n * self.paa_w);
        self.env_radius.truncate(n);
        self.members.truncate(n);
        self.member_paa.truncate(n);
        self.rep_words.truncate(n);
        self.member_words.truncate(n);
        self.finalized.truncate(n);
    }

    /// Moves group `local` (rows + metadata + sketches) into `dst`, leaving
    /// this slab's copy empty-membered. Used by the remove-series
    /// maintenance path to split a length into untouched/shrunk slabs while
    /// preserving group order.
    pub(crate) fn move_group_into(&mut self, local: usize, dst: &mut LengthSlab) {
        debug_assert_eq!(self.len, dst.len);
        debug_assert_eq!(self.paa_w, dst.paa_w);
        let row = self.row(local);
        dst.sums.extend_from_slice(&self.sums[row.clone()]);
        dst.reps.extend_from_slice(&self.reps[row.clone()]);
        dst.env_lo.extend_from_slice(&self.env_lo[row.clone()]);
        dst.env_hi.extend_from_slice(&self.env_hi[row]);
        let prow = self.prow(local);
        dst.paa_reps.extend_from_slice(&self.paa_reps[prow.clone()]);
        dst.paa_env_lo
            .extend_from_slice(&self.paa_env_lo[prow.clone()]);
        dst.paa_env_hi.extend_from_slice(&self.paa_env_hi[prow]);
        debug_assert_eq!(self.word_spec.alphabet(), dst.word_spec.alphabet());
        dst.env_radius.push(self.env_radius[local]);
        dst.members.push(std::mem::take(&mut self.members[local]));
        dst.member_paa
            .push(std::mem::take(&mut self.member_paa[local]));
        dst.rep_words.push(self.rep_words[local]);
        dst.member_words
            .push(std::mem::take(&mut self.member_words[local]));
        dst.finalized.push(self.finalized[local]);
    }

    /// Appends every group of `other` (same length) after this slab's,
    /// preserving order — the concatenation step of refinement splits and
    /// the shrunk-group maintenance path.
    pub(crate) fn extend_from(&mut self, mut other: LengthSlab) {
        debug_assert_eq!(self.len, other.len);
        for local in 0..other.group_count() {
            other.move_group_into(local, self);
        }
    }

    /// Appends a *finalized* group reassembled from snapshot parts: the
    /// members must already be ED-sorted and the representative frozen;
    /// the envelope rows and every sketch are rebuilt from the
    /// representative and the dataset (pre-v4 snapshots carry no sketch
    /// planes).
    pub(crate) fn push_from_parts(
        &mut self,
        dataset: &Dataset,
        members: Vec<(SubseqRef, f64)>,
        rep: Vec<f64>,
        sum: Vec<f64>,
        envelope_radius: usize,
    ) {
        debug_assert_eq!(rep.len(), self.len);
        debug_assert_eq!(sum.len(), self.len);
        let w = self.paa_w;
        let env = Envelope::build(&rep, envelope_radius);
        self.sums.extend_from_slice(&sum);
        let sketch_start = self.paa_reps.len();
        paa_extend(&rep, w, &mut self.paa_reps);
        self.rep_words
            .push(self.word_spec.word_of(&self.paa_reps[sketch_start..]));
        let (mut hi, mut lo) = (Vec::with_capacity(w), Vec::with_capacity(w));
        paa_envelope_into(&env.upper, &env.lower, w, &mut hi, &mut lo);
        self.paa_env_hi.extend_from_slice(&hi);
        self.paa_env_lo.extend_from_slice(&lo);
        self.reps.extend_from_slice(&rep);
        self.env_lo.extend_from_slice(&env.lower);
        self.env_hi.extend_from_slice(&env.upper);
        let mut plane = Vec::with_capacity(members.len() * w);
        for &(r, _) in &members {
            paa_extend(dataset.subseq_unchecked(r), w, &mut plane);
        }
        self.member_words.push(
            plane
                .chunks_exact(w)
                .map(|c| self.word_spec.word_of(c))
                .collect(),
        );
        self.env_radius.push(envelope_radius as u32);
        self.members.push(members);
        self.member_paa.push(plane);
        self.finalized.push(true);
    }

    /// Reassembles a whole *finalized* slab from bulk snapshot parts,
    /// taking ownership of the already-contiguous representative and sum
    /// blocks (the v3 columnar payload) — no per-group row copying. Member
    /// lists must be ED-sorted; the envelope planes and every PAA sketch
    /// are rebuilt from the representative rows and the dataset.
    #[allow(clippy::too_many_arguments, reason = "one per snapshot plane")]
    pub(crate) fn from_bulk_parts(
        dataset: &Dataset,
        len: usize,
        paa_width: usize,
        sax_alphabet: usize,
        members: Vec<Vec<(SubseqRef, f64)>>,
        radii: Vec<usize>,
        reps: Vec<f64>,
        sums: Vec<f64>,
    ) -> Self {
        let g = members.len();
        debug_assert_eq!(reps.len(), g * len);
        let w = paa_width.clamp(1, len.max(1));
        // Recompute the sketch planes this pre-v4 payload lacks, then
        // assemble through the same constructor the v4 path uses — one
        // field-install sequence to keep correct.
        let mut paa_reps = Vec::with_capacity(g * w);
        let mut paa_env_lo = Vec::with_capacity(g * w);
        let mut paa_env_hi = Vec::with_capacity(g * w);
        let (mut hi, mut lo) = (Vec::with_capacity(w), Vec::with_capacity(w));
        for (local, &radius) in radii.iter().enumerate() {
            let row = local * len..(local + 1) * len;
            let env = Envelope::build(&reps[row.clone()], radius);
            paa_extend(&reps[row], w, &mut paa_reps);
            paa_envelope_into(&env.upper, &env.lower, w, &mut hi, &mut lo);
            paa_env_hi.extend_from_slice(&hi);
            paa_env_lo.extend_from_slice(&lo);
        }
        let member_paa = members
            .iter()
            .map(|list| {
                let mut plane = Vec::with_capacity(list.len() * w);
                for &(r, _) in list {
                    paa_extend(dataset.subseq_unchecked(r), w, &mut plane);
                }
                plane
            })
            .collect();
        Self::from_bulk_parts_with_sketches(
            len,
            paa_width,
            sax_alphabet,
            members,
            radii,
            reps,
            sums,
            paa_reps,
            paa_env_lo,
            paa_env_hi,
            member_paa,
        )
    }

    /// Reassembles a *finalized* slab from bulk v4 snapshot parts,
    /// installing the persisted sketch planes directly — only the
    /// full-resolution envelope planes are rebuilt (they are not stored in
    /// any snapshot version). Sizes must already be validated by the
    /// decoder.
    #[allow(clippy::too_many_arguments, reason = "one per snapshot plane")]
    pub(crate) fn from_bulk_parts_with_sketches(
        len: usize,
        paa_width: usize,
        sax_alphabet: usize,
        members: Vec<Vec<(SubseqRef, f64)>>,
        radii: Vec<usize>,
        reps: Vec<f64>,
        sums: Vec<f64>,
        paa_reps: Vec<f64>,
        paa_env_lo: Vec<f64>,
        paa_env_hi: Vec<f64>,
        member_paa: Vec<Vec<f64>>,
    ) -> Self {
        let g = members.len();
        debug_assert_eq!(radii.len(), g);
        debug_assert_eq!(reps.len(), g * len);
        debug_assert_eq!(sums.len(), g * len);
        let mut slab = LengthSlab::new(len, paa_width, sax_alphabet);
        let w = slab.paa_w;
        debug_assert_eq!(paa_reps.len(), g * w);
        debug_assert_eq!(paa_env_lo.len(), g * w);
        debug_assert_eq!(paa_env_hi.len(), g * w);
        let mut env_lo = vec![0.0; g * len];
        let mut env_hi = vec![0.0; g * len];
        for (local, &radius) in radii.iter().enumerate() {
            let row = local * len..(local + 1) * len;
            let env = Envelope::build(&reps[row.clone()], radius);
            env_lo[row.clone()].copy_from_slice(&env.lower);
            env_hi[row].copy_from_slice(&env.upper);
        }
        slab.reps = reps;
        slab.env_lo = env_lo;
        slab.env_hi = env_hi;
        slab.sums = sums;
        slab.paa_reps = paa_reps;
        slab.paa_env_lo = paa_env_lo;
        slab.paa_env_hi = paa_env_hi;
        slab.env_radius = radii.into_iter().map(|r| r as u32).collect();
        slab.rep_words = slab
            .paa_reps
            .chunks_exact(w)
            .map(|c| slab.word_spec.word_of(c))
            .collect();
        slab.member_words = member_paa
            .iter()
            .map(|plane| {
                plane
                    .chunks_exact(w)
                    .map(|c| slab.word_spec.word_of(c))
                    .collect()
            })
            .collect();
        slab.member_paa = member_paa;
        slab.members = members;
        slab.finalized = vec![true; g];
        slab
    }

    /// Overwrites the word planes with decoded snapshot blocks (the v5
    /// payload). Shapes must already match the member lists; content is
    /// re-verified bit-exactly by [`LengthSlab::validate`], so a tampered
    /// block fails the post-decode validation rather than silently
    /// installing.
    pub(crate) fn install_words(&mut self, rep_words: Vec<u64>, member_words: Vec<Vec<u64>>) {
        debug_assert_eq!(rep_words.len(), self.group_count());
        debug_assert_eq!(member_words.len(), self.group_count());
        self.rep_words = rep_words;
        self.member_words = member_words;
    }

    /// The envelope radius recorded for group `local` (0 until finalized).
    #[inline]
    pub(crate) fn env_radius(&self, local: usize) -> usize {
        self.env_radius[local] as usize
    }

    /// Memory accounting for this slab (Table 4 quantities plus the
    /// allocation counts the columnar layout is about).
    pub fn footprint(&self) -> LengthFootprint {
        const F64: usize = std::mem::size_of::<f64>();
        let member_bytes: usize = self
            .members
            .iter()
            .map(|m| m.capacity() * std::mem::size_of::<(SubseqRef, f64)>())
            .sum();
        let member_sketch_bytes: usize = self.member_paa.iter().map(|p| p.capacity() * F64).sum();
        const U64: usize = std::mem::size_of::<u64>();
        let word_bytes = self.word_spec.size_bytes()
            + self.rep_words.capacity() * U64
            + self
                .member_words
                .iter()
                .map(|w| w.capacity() * U64)
                .sum::<usize>()
            + self.member_words.capacity() * std::mem::size_of::<Vec<u64>>();
        LengthFootprint {
            len: self.len,
            paa_width: self.paa_w,
            groups: self.group_count(),
            members: self.total_members(),
            rep_slab_bytes: self.reps.capacity() * F64,
            envelope_slab_bytes: (self.env_lo.capacity() + self.env_hi.capacity()) * F64,
            sum_slab_bytes: self.sums.capacity() * F64,
            sketch_bytes: (self.paa_reps.capacity()
                + self.paa_env_lo.capacity()
                + self.paa_env_hi.capacity()
                + self.paa_weights.capacity())
                * F64
                + member_sketch_bytes
                + self.member_paa.capacity() * std::mem::size_of::<Vec<f64>>(),
            member_bytes: member_bytes
                + self.members.capacity() * std::mem::size_of::<Vec<(SubseqRef, f64)>>()
                + self.env_radius.capacity() * std::mem::size_of::<u32>()
                + self.finalized.capacity(),
            word_bytes,
            // The seven fixed f64 slabs + the weights vector +
            // radius/finalized/member-list/member-sketch arrays + the three
            // word-plane vectors (breakpoints, rep words, member-word
            // table), plus one heap allocation per non-empty member list,
            // sketch plane and member-word list. (The pre-columnar layout
            // paid ~5 allocations *per group*.)
            allocations: 15
                + self.members.iter().filter(|m| m.capacity() > 0).count()
                + self.member_paa.iter().filter(|p| p.capacity() > 0).count()
                + self
                    .member_words
                    .iter()
                    .filter(|w| w.capacity() > 0)
                    .count(),
        }
    }
}

/// Per-length memory footprint of the columnar store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LengthFootprint {
    /// The subsequence length.
    pub len: usize,
    /// The resolved sketch width at this length.
    pub paa_width: usize,
    /// Groups (= representatives) at this length.
    pub groups: usize,
    /// Members across those groups.
    pub members: usize,
    /// Bytes of the contiguous representative slab.
    pub rep_slab_bytes: usize,
    /// Bytes of the two contiguous envelope plane slabs.
    pub envelope_slab_bytes: usize,
    /// Bytes of the contiguous running-sum slab.
    pub sum_slab_bytes: usize,
    /// Bytes of the PAA sketch planes: representative/envelope sketch
    /// slabs, segment weights, and the per-group member sketch planes.
    pub sketch_bytes: usize,
    /// Bytes of the member lists and per-group metadata arrays.
    pub member_bytes: usize,
    /// Bytes of the symbolic word planes: alphabet breakpoints, the
    /// representative word plane, and the per-group member word lists.
    pub word_bytes: usize,
    /// Heap allocations backing this length's store.
    pub allocations: usize,
}

impl LengthFootprint {
    /// Bytes held in the contiguous full-resolution f64 slabs (reps +
    /// envelopes + sums; sketches are accounted separately in
    /// [`LengthFootprint::sketch_bytes`]).
    pub fn slab_bytes(&self) -> usize {
        self.rep_slab_bytes + self.envelope_slab_bytes + self.sum_slab_bytes
    }

    /// Total bytes at this length (slabs + sketches + word planes + member
    /// lists + metadata).
    pub fn total_bytes(&self) -> usize {
        self.slab_bytes() + self.sketch_bytes + self.word_bytes + self.member_bytes
    }
}

/// Whole-store memory footprint: one [`LengthFootprint`] per indexed
/// length, plus totals. Returned by [`crate::OnexBase::footprint`] and
/// [`crate::engine::Explorer::footprint`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreFootprint {
    /// Per-length accounting, ascending by length.
    pub per_length: Vec<LengthFootprint>,
    /// Bytes of the store-level structures: the flat `GroupId → (slab,
    /// local)` directory plus the slab table itself.
    pub directory_bytes: usize,
}

impl StoreFootprint {
    /// Total bytes in the contiguous full-resolution f64 slabs.
    pub fn slab_bytes(&self) -> usize {
        self.per_length
            .iter()
            .map(LengthFootprint::slab_bytes)
            .sum()
    }

    /// Total bytes in the PAA sketch planes across all lengths.
    pub fn sketch_bytes(&self) -> usize {
        self.per_length.iter().map(|l| l.sketch_bytes).sum()
    }

    /// Total bytes in the symbolic word planes across all lengths.
    pub fn word_bytes(&self) -> usize {
        self.per_length.iter().map(|l| l.word_bytes).sum()
    }

    /// Total bytes across slabs, sketches, member lists, metadata and the
    /// store-level directory.
    pub fn total_bytes(&self) -> usize {
        self.per_length
            .iter()
            .map(LengthFootprint::total_bytes)
            .sum::<usize>()
            + self.directory_bytes
    }

    /// Total heap allocations backing the store, including the directory
    /// and slab-table vectors.
    pub fn allocations(&self) -> usize {
        self.per_length.iter().map(|l| l.allocations).sum::<usize>() + 2
    }

    /// Total groups across all lengths.
    pub fn groups(&self) -> usize {
        self.per_length.iter().map(|l| l.groups).sum()
    }
}

/// The cross-length store: one [`LengthSlab`] per indexed length (ascending
/// by length) plus the flat directory resolving a [`GroupId`] to its
/// `(slab, local)` coordinates. Group ids are assigned contiguously per
/// length in slab order, exactly as the pre-columnar flat group table did.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GroupStore {
    slabs: Vec<LengthSlab>,
    /// `GroupId -> (slab position, local position)`.
    dir: Vec<(u32, u32)>,
}

impl GroupStore {
    /// Builds the store from per-length slabs, assigning [`GroupId`]s in
    /// ascending-length, local order. Input slabs are sorted by length;
    /// empty slabs are dropped.
    pub(crate) fn from_slabs(mut slabs: Vec<LengthSlab>) -> Self {
        slabs.retain(|s| !s.is_empty());
        slabs.sort_by_key(LengthSlab::subseq_len);
        let mut dir = Vec::new();
        for (si, slab) in slabs.iter().enumerate() {
            for local in 0..slab.group_count() {
                dir.push((si as u32, local as u32));
            }
        }
        GroupStore { slabs, dir }
    }

    /// The slabs, ascending by length.
    #[inline]
    pub fn slabs(&self) -> &[LengthSlab] {
        &self.slabs
    }

    /// The slab covering subsequence length `len`, when one exists, with
    /// the [`GroupId`] of its first group: its groups hold the ids
    /// `first..first + group_count`, in local order.
    pub fn slab_for_len(&self, len: usize) -> Option<(GroupId, &LengthSlab)> {
        let si = self
            .slabs
            .binary_search_by_key(&len, LengthSlab::subseq_len)
            .ok()?;
        let first = self.dir.partition_point(|&(s, _)| (s as usize) < si);
        Some((first as GroupId, &self.slabs[si]))
    }

    /// Total groups across every length.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.dir.len()
    }

    /// The `(slab position, local position)` coordinates of a group.
    #[inline]
    pub(crate) fn locate(&self, id: GroupId) -> (usize, usize) {
        let (si, local) = self.dir[id as usize];
        (si as usize, local as usize)
    }

    /// A view of one group by flat id.
    #[inline]
    pub fn group(&self, id: GroupId) -> Group<'_> {
        let (si, local) = self.locate(id);
        Group::new(&self.slabs[si], local)
    }

    /// Views of every group, in [`GroupId`] order.
    pub fn groups(&self) -> impl Iterator<Item = Group<'_>> {
        self.slabs
            .iter()
            .flat_map(|slab| (0..slab.group_count()).map(move |local| Group::new(slab, local)))
    }

    /// Consumes the store into its per-length slabs, ascending by length.
    pub(crate) fn into_slabs(self) -> Vec<LengthSlab> {
        self.slabs
    }

    /// Per-length memory accounting for the whole store, plus the
    /// store-level directory and slab table.
    pub fn footprint(&self) -> StoreFootprint {
        StoreFootprint {
            per_length: self.slabs.iter().map(LengthSlab::footprint).collect(),
            directory_bytes: self.dir.capacity() * std::mem::size_of::<(u32, u32)>()
                + self.slabs.capacity() * std::mem::size_of::<LengthSlab>(),
        }
    }
}

/// `true` when both slices hold exactly the same f64 bit patterns — the
/// equality the deep validator uses everywhere a from-scratch recompute is
/// guaranteed to reproduce stored values exactly (NaN-safe, `-0.0`-strict,
/// unlike `==`).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `true` when every value is bit-pattern `+0.0` — the state `seed` /
/// `clear_finalization` leave non-finalized rows in.
fn bits_zero(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.to_bits() == 0)
}

impl LengthSlab {
    /// Deep structural audit of this slab against the dataset it indexes
    /// (see [`crate::OnexBase::validate_invariants`] for the full catalog).
    /// Checks, per group:
    ///
    /// * plane strides and lengths (`g·len` f64 slabs, `g·paa_w` sketch
    ///   slabs, `g` metadata arrays, `n·paa_w` member sketch planes);
    /// * every member reference resolves in the dataset at this slab's
    ///   length, with a finite non-negative stored ED;
    /// * member sketches equal a from-scratch [`onex_dist::paa_into`]
    ///   recompute **bit-exactly** (they are computed once on insert and
    ///   carried through every sort/merge/move — drift means a carry bug);
    /// * running sums match a re-accumulation over the members within a
    ///   relative `1e-9` tolerance per point (bit-exactness is impossible
    ///   here: float addition is order-sensitive and the original insertion
    ///   order is lost once members are ED-sorted);
    /// * finalized groups: the representative row equals `sum · (1/n)`
    ///   bit-exactly (how [`LengthSlab::finalize`] froze it), member EDs
    ///   equal [`fn@onex_dist::ed`] against that row bit-exactly and ascend
    ///   strictly by `(ED, ref)`, the envelope planes equal
    ///   [`Envelope::build`] at the stored radius bit-exactly with
    ///   `lo ≤ rep ≤ hi` pointwise, and all three PAA sketch rows equal
    ///   their reference reductions bit-exactly;
    /// * non-finalized groups: representative/envelope/sketch rows are
    ///   all-zero bits and the radius is 0.
    pub fn validate(&self, dataset: &Dataset) -> Result<()> {
        let viol =
            |msg: String| OnexError::InvariantViolation(format!("slab len {}: {msg}", self.len));
        if self.len == 0 {
            return Err(viol("zero subsequence length".into()));
        }
        let (len, w, g) = (self.len, self.paa_w, self.group_count());
        if w == 0 || w > len {
            return Err(viol(format!("paa width {w} outside 1..={len}")));
        }
        if !bits_eq(&self.paa_weights, &paa_segment_weights(len, w)) {
            return Err(viol("paa segment weights differ from recompute".into()));
        }
        for (name, plane, stride) in [
            ("reps", &self.reps, len),
            ("env_lo", &self.env_lo, len),
            ("env_hi", &self.env_hi, len),
            ("sums", &self.sums, len),
            ("paa_reps", &self.paa_reps, w),
            ("paa_env_lo", &self.paa_env_lo, w),
            ("paa_env_hi", &self.paa_env_hi, w),
        ] {
            if plane.len() != g * stride {
                return Err(viol(format!(
                    "{name} plane holds {} f64s, want {g} rows of stride {stride}",
                    plane.len()
                )));
            }
        }
        if self.env_radius.len() != g
            || self.member_paa.len() != g
            || self.rep_words.len() != g
            || self.member_words.len() != g
            || self.finalized.len() != g
        {
            return Err(viol("metadata arrays disagree on group count".into()));
        }
        {
            let fresh_spec = WordSpec::new(self.word_spec.alphabet(), w);
            if self.word_spec.segs() != fresh_spec.segs()
                || self.word_spec.bits() != fresh_spec.bits()
                || !bits_eq(self.word_spec.breakpoints(), fresh_spec.breakpoints())
            {
                return Err(viol("word spec differs from recompute".into()));
            }
        }
        let mut sketch = Vec::with_capacity(w);
        let mut fresh_sum = vec![0.0f64; len];
        for local in 0..g {
            let gviol = |msg: String| viol(format!("group {local}: {msg}"));
            let members = &self.members[local];
            let n = members.len();
            if n == 0 {
                return Err(gviol("empty member list".into()));
            }
            if self.member_paa[local].len() != n * w {
                return Err(gviol(format!(
                    "member sketch plane holds {} f64s, want {n}·{w}",
                    self.member_paa[local].len()
                )));
            }
            if self.member_words[local].len() != n {
                return Err(gviol(format!(
                    "member word list holds {} words, want {n}",
                    self.member_words[local].len()
                )));
            }
            fresh_sum.fill(0.0);
            for (idx, &(r, d)) in members.iter().enumerate() {
                if r.len as usize != len {
                    return Err(gviol(format!("member {idx} has length {}", r.len)));
                }
                let vals = dataset.subseq(r).map_err(|e| {
                    gviol(format!(
                        "member {idx} ({}, {}, {}) does not resolve: {e}",
                        r.series, r.start, r.len
                    ))
                })?;
                if !d.is_finite() || d < 0.0 {
                    return Err(gviol(format!("member {idx} stored ED {d} not finite ≥ 0")));
                }
                paa_into(vals, w, &mut sketch);
                if !bits_eq(&sketch, self.member_paa_row(local, idx)) {
                    return Err(gviol(format!("member {idx} sketch differs from recompute")));
                }
                if self.member_words[local][idx] != self.word_spec.word_of(&sketch) {
                    return Err(gviol(format!("member {idx} word differs from recompute")));
                }
                for (s, v) in fresh_sum.iter_mut().zip(vals) {
                    *s += v;
                }
            }
            let sums = self.sum_row(local);
            for (i, (&s, &f)) in sums.iter().zip(&fresh_sum).enumerate() {
                if !s.is_finite() || (s - f).abs() > 1e-9 * (1.0 + f.abs()) {
                    return Err(gviol(format!("sum[{i}] = {s} but members re-sum to {f}")));
                }
            }
            if self.finalized[local] {
                self.validate_finalized(dataset, local, &mut sketch)
                    .map_err(&gviol)?;
            } else {
                let row = self.row(local);
                let prow = self.prow(local);
                if !bits_zero(&self.reps[row.clone()])
                    || !bits_zero(&self.env_lo[row.clone()])
                    || !bits_zero(&self.env_hi[row])
                    || !bits_zero(&self.paa_reps[prow.clone()])
                    || !bits_zero(&self.paa_env_lo[prow.clone()])
                    || !bits_zero(&self.paa_env_hi[prow])
                {
                    return Err(gviol("non-finalized rows are not all-zero".into()));
                }
                if self.env_radius[local] != 0 {
                    return Err(gviol("non-finalized group has a nonzero radius".into()));
                }
                if self.rep_words[local] != 0 {
                    return Err(gviol("non-finalized group has a nonzero rep word".into()));
                }
            }
        }
        Ok(())
    }

    /// The finalized-group half of [`LengthSlab::validate`]: representative
    /// freeze, member ED order, envelope planes and all sketch rows, each
    /// checked bit-exactly against a from-scratch recompute.
    fn validate_finalized(
        &self,
        dataset: &Dataset,
        local: usize,
        sketch: &mut Vec<f64>,
    ) -> std::result::Result<(), String> {
        let members = &self.members[local];
        let rep = self.rep_row(local);
        let sums = self.sum_row(local);
        let inv = 1.0 / members.len() as f64;
        for (i, (&r, &s)) in rep.iter().zip(sums).enumerate() {
            if r.to_bits() != (s * inv).to_bits() {
                return Err(format!("rep[{i}] = {r} but sum·(1/n) = {}", s * inv));
            }
        }
        let mut prev: Option<(SubseqRef, f64)> = None;
        for (idx, &(r, d)) in members.iter().enumerate() {
            let fresh = onex_dist::ed(dataset.subseq_unchecked(r), rep);
            if d.to_bits() != fresh.to_bits() {
                return Err(format!("member {idx} ED {d} but recompute gives {fresh}"));
            }
            if let Some((pr, pd)) = prev {
                if pd.total_cmp(&d).then(pr.cmp(&r)).is_ge() {
                    return Err(format!("members not strictly (ED, ref)-sorted at {idx}"));
                }
            }
            prev = Some((r, d));
        }
        let radius = self.env_radius[local] as usize;
        let env = Envelope::build(rep, radius);
        let row = self.row(local);
        if !bits_eq(&env.lower, &self.env_lo[row.clone()])
            || !bits_eq(&env.upper, &self.env_hi[row])
        {
            return Err(format!(
                "envelope planes differ from rebuild at radius {radius}"
            ));
        }
        for (i, ((&lo, &r), &hi)) in env.lower.iter().zip(rep).zip(&env.upper).enumerate() {
            if !(lo <= r && r <= hi) {
                return Err(format!("envelope order lo ≤ rep ≤ hi broken at {i}"));
            }
        }
        let w = self.paa_w;
        let prow = self.prow(local);
        paa_into(rep, w, sketch);
        if !bits_eq(sketch, &self.paa_reps[prow.clone()]) {
            return Err("representative sketch differs from recompute".into());
        }
        let (mut hi, mut lo) = (Vec::with_capacity(w), Vec::with_capacity(w));
        paa_envelope_into(&env.upper, &env.lower, w, &mut hi, &mut lo);
        if !bits_eq(&hi, &self.paa_env_hi[prow.clone()]) || !bits_eq(&lo, &self.paa_env_lo[prow]) {
            return Err("envelope sketch differs from recompute".into());
        }
        if self.rep_words[local] != self.word_spec.word_of(sketch) {
            return Err("representative word differs from recompute".into());
        }
        Ok(())
    }
}

impl GroupStore {
    /// Structural audit of the slab table: no slab is empty, lengths
    /// strictly ascend, and the flat [`GroupId`] directory is exactly the
    /// contiguous ascending-length/local walk `GroupStore::from_slabs`
    /// assigns. Each slab's own audit is [`LengthSlab::validate`], which
    /// [`crate::OnexBase::validate_invariants`] runs one length per task.
    pub fn validate_table(&self) -> Result<()> {
        let viol = |msg: String| OnexError::InvariantViolation(format!("store: {msg}"));
        let mut prev_len = 0usize;
        let mut want_dir = Vec::with_capacity(self.dir.len());
        for (si, slab) in self.slabs.iter().enumerate() {
            if slab.is_empty() {
                return Err(viol(format!(
                    "slab {si} (len {}) is empty",
                    slab.subseq_len()
                )));
            }
            if si > 0 && slab.subseq_len() <= prev_len {
                return Err(viol(format!(
                    "slab lengths not strictly ascending at {si} ({} after {prev_len})",
                    slab.subseq_len()
                )));
            }
            prev_len = slab.subseq_len();
            for local in 0..slab.group_count() {
                want_dir.push((si as u32, local as u32));
            }
        }
        if self.dir != want_dir {
            return Err(viol(format!(
                "directory holds {} entries and diverges from the contiguous walk of {} groups",
                self.dir.len(),
                want_dir.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_ts::TimeSeries;

    /// Sketch width used by the unit tests (wider than the test lengths, so
    /// sketches degenerate to the full rows — easy to reason about).
    const W: usize = 16;

    fn dataset() -> Dataset {
        Dataset::new(
            "g",
            vec![
                TimeSeries::new(vec![0.0, 0.0, 0.0, 0.0]).unwrap(),
                TimeSeries::new(vec![1.0, 1.0, 1.0, 1.0]).unwrap(),
                TimeSeries::new(vec![0.5, 0.5, 0.5, 0.5]).unwrap(),
            ],
        )
    }

    /// Recomputes every sketch of `slab` from scratch and asserts
    /// bit-equality with the incrementally-maintained planes.
    fn assert_sketches_consistent(slab: &LengthSlab, dataset: &Dataset) {
        let w = slab.paa_width();
        for local in 0..slab.group_count() {
            for (idx, &(r, _)) in slab.members(local).iter().enumerate() {
                let mut fresh = Vec::new();
                paa_into(dataset.subseq_unchecked(r), w, &mut fresh);
                assert_eq!(
                    slab.member_paa_row(local, idx),
                    &fresh[..],
                    "member sketch {local}/{idx}"
                );
                assert_eq!(
                    slab.member_words(local)[idx],
                    slab.word_spec().word_of(&fresh),
                    "member word {local}/{idx}"
                );
            }
            if slab.is_finalized(local) {
                let mut fresh = Vec::new();
                paa_into(slab.rep_row(local), w, &mut fresh);
                assert_eq!(slab.paa_rep_row(local), &fresh[..], "rep sketch {local}");
                assert_eq!(
                    slab.rep_word(local),
                    slab.word_spec().word_of(&fresh),
                    "rep word {local}"
                );
                let env = slab.envelope_ref(local).unwrap();
                let (mut hi, mut lo) = (Vec::new(), Vec::new());
                paa_envelope_into(env.upper, env.lower, w, &mut hi, &mut lo);
                let penv = slab.paa_envelope_ref(local).unwrap();
                assert_eq!(penv.upper, &hi[..], "paa env hi {local}");
                assert_eq!(penv.lower, &lo[..], "paa env lo {local}");
                assert_eq!(penv.radius, env.radius);
            }
        }
    }

    #[test]
    fn seed_and_incremental_mean() {
        let d = dataset();
        let r0 = SubseqRef::new(0, 0, 4);
        let r1 = SubseqRef::new(1, 0, 4);
        let mut slab = LengthSlab::new(4, W, 4);
        assert_eq!(slab.paa_width(), 4, "width clamps to the length");
        let g = slab.seed(r0, d.subseq_unchecked(r0));
        assert_eq!(slab.member_count(g), 1);
        slab.push_member(g, r1, d.subseq_unchecked(r1));
        let mut mean = Vec::new();
        slab.mean_into(g, &mut mean);
        assert_eq!(mean, vec![0.5, 0.5, 0.5, 0.5]);
        assert_sketches_consistent(&slab, &d);
    }

    #[test]
    fn finalize_sorts_members_by_ed_and_freezes_rows() {
        let d = dataset();
        let r0 = SubseqRef::new(0, 0, 4); // zeros: ED 1.0 to mean [0.5..]
        let r1 = SubseqRef::new(1, 0, 4); // ones: ED 1.0
        let r2 = SubseqRef::new(2, 0, 4); // halves: ED 0
        let mut slab = LengthSlab::new(4, W, 4);
        let g = slab.seed(r0, d.subseq_unchecked(r0));
        slab.push_member(g, r1, d.subseq_unchecked(r1));
        slab.push_member(g, r2, d.subseq_unchecked(r2));
        assert!(slab.envelope_ref(g).is_none());
        assert!(slab.paa_envelope_ref(g).is_none());
        slab.finalize(g, &d, 1);
        assert_eq!(slab.rep_row(g), &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(slab.members(g)[0].0, r2);
        assert_eq!(slab.members(g)[0].1, 0.0);
        assert!((slab.max_member_ed(g) - 1.0).abs() < 1e-12);
        let env = slab.envelope_ref(g).expect("finalized");
        assert_eq!(env.radius, 1);
        assert_eq!(env.len(), 4);
        // The sort co-permuted the sketch plane: member 0 is now r2 (halves).
        assert_eq!(slab.member_paa_row(g, 0), &[0.5, 0.5, 0.5, 0.5]);
        assert_sketches_consistent(&slab, &d);
    }

    #[test]
    fn eviction_restores_invariant() {
        let d = dataset();
        let r0 = SubseqRef::new(2, 0, 4); // halves
        let r1 = SubseqRef::new(1, 0, 4); // ones — far away
        let mut slab = LengthSlab::new(4, W, 4);
        let g = slab.seed(r0, d.subseq_unchecked(r0));
        slab.push_member(g, r1, d.subseq_unchecked(r1));
        // mean is 0.75; ones are at raw ED 0.5, halves at 0.5.
        let evicted = slab.evict_outside(g, &d, 0.4);
        assert_eq!(evicted.len(), 1);
        assert_eq!(slab.member_count(g), 1);
        let mut mean = Vec::new();
        slab.mean_into(g, &mut mean);
        let (r, _) = slab.members(g)[0];
        assert!(onex_dist::ed(d.subseq_unchecked(r), &mean) <= 0.4);
        // eviction never empties a group
        let evicted = slab.evict_outside(g, &d, 0.0);
        assert!(evicted.is_empty());
        assert_eq!(slab.member_count(g), 1);
        assert_sketches_consistent(&slab, &d);
    }

    #[test]
    fn absorb_merges_rows_and_members() {
        let d = dataset();
        let r0 = SubseqRef::new(0, 0, 4);
        let r1 = SubseqRef::new(1, 0, 4);
        let mut slab = LengthSlab::new(4, W, 4);
        let a = slab.seed(r0, d.subseq_unchecked(r0));
        let b = slab.seed(r1, d.subseq_unchecked(r1));
        slab.finalize(a, &d, 1);
        slab.absorb(a, b);
        assert_eq!(slab.member_count(a), 2);
        assert_eq!(slab.member_count(b), 0);
        assert!(slab.envelope_ref(a).is_none(), "finalization cleared");
        assert!(slab.paa_envelope_ref(a).is_none(), "sketch cleared too");
        let mut mean = Vec::new();
        slab.mean_into(a, &mut mean);
        assert_eq!(mean, vec![0.5, 0.5, 0.5, 0.5]);
        slab.retain_groups(|local| local == a);
        assert_eq!(slab.group_count(), 1);
        slab.finalize(0, &d, 1);
        assert_eq!(slab.rep_row(0), &[0.5, 0.5, 0.5, 0.5]);
        assert_sketches_consistent(&slab, &d);
    }

    #[test]
    fn drop_series_members_updates_sum_and_clears_finalization() {
        let d = dataset();
        let r0 = SubseqRef::new(0, 0, 4); // zeros
        let r1 = SubseqRef::new(1, 0, 4); // ones
        let r2 = SubseqRef::new(2, 0, 4); // halves
        let mut slab = LengthSlab::new(4, W, 4);
        let g = slab.seed(r0, d.subseq_unchecked(r0));
        slab.push_member(g, r1, d.subseq_unchecked(r1));
        slab.push_member(g, r2, d.subseq_unchecked(r2));
        slab.finalize(g, &d, 1);
        assert_eq!(slab.drop_series_members(g, &d, 1), 1);
        assert_eq!(slab.member_count(g), 2);
        assert!(slab.envelope_ref(g).is_none());
        let mut mean = Vec::new();
        slab.mean_into(g, &mut mean);
        assert_eq!(mean, vec![0.25, 0.25, 0.25, 0.25]);
        assert_sketches_consistent(&slab, &d);
        // dropping a series with no members is a no-op that keeps state
        slab.finalize(g, &d, 1);
        assert_eq!(slab.drop_series_members(g, &d, 1), 0);
        assert!(slab.envelope_ref(g).is_some());
        // dropping everything empties the group (caller retires it)
        assert_eq!(slab.drop_series_members(g, &d, 0), 1);
        assert_eq!(slab.drop_series_members(g, &d, 2), 1);
        assert_eq!(slab.member_count(g), 0);
    }

    #[test]
    fn remap_series_down_shifts_only_later_series() {
        let d = dataset();
        let r0 = SubseqRef::new(0, 0, 4);
        let r2 = SubseqRef::new(2, 0, 4);
        let mut slab = LengthSlab::new(4, W, 4);
        let g = slab.seed(r0, d.subseq_unchecked(r0));
        slab.push_member(g, r2, d.subseq_unchecked(r2));
        slab.remap_series_down(1);
        assert_eq!(slab.members(g)[0].0.series, 0);
        assert_eq!(slab.members(g)[1].0.series, 1);
    }

    #[test]
    fn retain_groups_compacts_in_order() {
        let d = dataset();
        let mut slab = LengthSlab::new(4, W, 4);
        for s in 0..3u32 {
            let r = SubseqRef::new(s, 0, 4);
            let g = slab.seed(r, d.subseq_unchecked(r));
            slab.finalize(g, &d, 1);
        }
        let rep2 = slab.rep_row(2).to_vec();
        let paa2 = slab.paa_rep_row(2).to_vec();
        slab.retain_groups(|local| local != 1);
        assert_eq!(slab.group_count(), 2);
        assert_eq!(slab.members(0)[0].0.series, 0);
        assert_eq!(slab.members(1)[0].0.series, 2);
        assert_eq!(slab.rep_row(1), &rep2[..]);
        assert_eq!(slab.paa_rep_row(1), &paa2[..]);
        assert!(slab.is_finalized(1));
        assert_sketches_consistent(&slab, &d);
    }

    #[test]
    fn move_and_extend_preserve_rows() {
        let d = dataset();
        let mut slab = LengthSlab::new(4, W, 4);
        for s in 0..3u32 {
            let r = SubseqRef::new(s, 0, 4);
            let g = slab.seed(r, d.subseq_unchecked(r));
            slab.finalize(g, &d, 1);
        }
        let mut a = LengthSlab::new(4, W, 4);
        let mut b = LengthSlab::new(4, W, 4);
        slab.move_group_into(0, &mut a);
        slab.move_group_into(1, &mut b);
        slab.move_group_into(2, &mut a);
        assert_eq!(a.group_count(), 2);
        assert_eq!(a.members(1)[0].0.series, 2);
        assert!(a.is_finalized(0) && a.is_finalized(1));
        a.extend_from(b);
        assert_eq!(a.group_count(), 3);
        assert_eq!(a.members(2)[0].0.series, 1);
        assert_eq!(a.rep_row(2), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a.paa_rep_row(2), &[1.0, 1.0, 1.0, 1.0]);
        assert_sketches_consistent(&a, &d);
    }

    #[test]
    fn store_directory_resolves_flat_ids() {
        let d = dataset();
        let mut s4 = LengthSlab::new(4, W, 4);
        let mut s2 = LengthSlab::new(2, W, 4);
        for s in 0..2u32 {
            let r = SubseqRef::new(s, 0, 4);
            let g = s4.seed(r, d.subseq_unchecked(r));
            s4.finalize(g, &d, 1);
            let r = SubseqRef::new(s, 0, 2);
            let g = s2.seed(r, d.subseq_unchecked(r));
            s2.finalize(g, &d, 1);
        }
        // out-of-order input: the store sorts by length
        let store = GroupStore::from_slabs(vec![s4, s2]);
        assert_eq!(store.group_count(), 4);
        assert_eq!(store.slabs()[0].subseq_len(), 2);
        assert_eq!(store.group(0).len_of_members(), 2);
        assert_eq!(store.group(2).len_of_members(), 4);
        assert_eq!(store.groups().count(), 4);
        assert_eq!(store.slab_for_len(2).map(|(first, _)| first), Some(0));
        assert_eq!(store.slab_for_len(4).map(|(first, _)| first), Some(2));
        assert!(store.slab_for_len(3).is_none());
    }

    #[test]
    fn footprint_accounts_slabs_and_allocations() {
        let d = dataset();
        let mut slab = LengthSlab::new(4, W, 4);
        for s in 0..3u32 {
            let r = SubseqRef::new(s, 0, 4);
            let g = slab.seed(r, d.subseq_unchecked(r));
            slab.finalize(g, &d, 1);
        }
        let f = slab.footprint();
        assert_eq!(f.len, 4);
        assert_eq!(f.paa_width, 4);
        assert_eq!(f.groups, 3);
        assert_eq!(f.members, 3);
        assert!(f.rep_slab_bytes >= 3 * 4 * 8);
        assert!(f.envelope_slab_bytes >= 2 * 3 * 4 * 8);
        // 3 rep/envelope sketch rows + weights + 3 member sketch planes
        assert!(f.sketch_bytes >= (3 * 3 * 4 + 4 + 3 * 4) * 8);
        assert!(f.slab_bytes() >= f.rep_slab_bytes + f.sum_slab_bytes);
        assert!(f.total_bytes() >= f.slab_bytes() + f.sketch_bytes + f.word_bytes);
        // 3 rep words + 3 singleton member-word lists + the breakpoints
        assert!(f.word_bytes >= 3 * 8 + 3 * 8 + 3 * 8);
        // 15 columnar arrays + 3 member lists + 3 member sketch planes +
        // 3 member word lists — still far below the ~5/group of the old
        // array-of-structs layout once groups number thousands.
        assert_eq!(f.allocations, 24);
        let store = GroupStore::from_slabs(vec![slab]);
        let total = store.footprint();
        assert_eq!(total.groups(), 3);
        // slab allocations + the store-level directory and slab table
        assert_eq!(total.allocations(), 26);
        assert!(total.directory_bytes >= 3 * 8);
        assert!(total.total_bytes() >= total.slab_bytes() + total.directory_bytes);
        assert_eq!(total.sketch_bytes(), f.sketch_bytes);
        assert_eq!(total.word_bytes(), f.word_bytes);
    }

    #[test]
    fn paa_envelope_ref_bounds_the_stored_envelope() {
        // On a non-trivial length the PAA'd envelope must sandwich the
        // stored one segment-wise: Û_j ≥ every U_i, L̂_j ≤ every L_i.
        let series = TimeSeries::new((0..12).map(|i| (i as f64 * 0.8).sin()).collect()).unwrap();
        let d = Dataset::new("wide", vec![series]);
        let mut slab = LengthSlab::new(12, 4, 4);
        let r = SubseqRef::new(0, 0, 12);
        let g = slab.seed(r, d.subseq_unchecked(r));
        slab.finalize(g, &d, 2);
        assert_eq!(slab.paa_width(), 4);
        let env = slab.envelope_ref(g).unwrap();
        let penv = slab.paa_envelope_ref(g).unwrap();
        for (i, (&u, &l)) in env.upper.iter().zip(env.lower).enumerate() {
            let j = i * 4 / 12;
            assert!(penv.upper[j] >= u - 1e-15, "i={i}");
            assert!(penv.lower[j] <= l + 1e-15, "i={i}");
        }
    }
}
