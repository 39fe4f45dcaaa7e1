//! The three workloads and their seeded inputs. A workload's corpus is
//! fixed — it *is* the workload: the regime its `why` names (group count,
//! members per group, bytes per subsequence) must hold on every run, and
//! under the engine's dataset-wide min-max normalisation one extreme value
//! of a reseeded corpus moves every group (sparse-twopat: ± 6 % snapshot
//! bytes, ± 15 % RSS from seed to seed). `--seed` drives what is asked of
//! it: which slices become queries and which series the recovery check
//! journals.
//! The engine always runs `OnexConfig::default()` with one scan worker per
//! query.

use onex::ts::synth::PaperDataset;
use onex::{Dataset, OnexBase, TimeSeries};

/// Queries per pass: enough that their p50 moves with the seed by 2–5 %;
/// across 240 it moves by 5–12 % (README, "Where the noise is").
pub const QUERIES: usize = 960;
/// The first `RANGE_QUERIES` queries are also asked as range queries. A
/// prefix is balanced between in-dataset and held-out slices; a stride need
/// not be (every multiple of 15 below 240 has four set bits).
pub const RANGE_QUERIES: usize = 16;
/// Queries checked against the oracle. They come from the corpus seed, not
/// from `--seed`: `accuracy_pct` is gated to 0.001 points, and a sample
/// that moved with the seed would move it by fifty times that.
pub const ORACLE_QUERIES: usize = 24;
/// Held-out series the out-of-dataset queries are sliced from (four slices
/// each).
pub const HELD_OUT: usize = 120;
/// Held-out series to append (and remove again). The lifecycle reps time
/// the first — one series costs up to a fifth more than another, so a
/// seeded pick would move `append_ms` by that much; the recovery check
/// journals several, from where the seed says.
pub const APPEND_POOL: usize = 12;
/// `k` of the top-k class.
pub const TOP_K: usize = 10;
/// Generator seed of every workload's corpus and of its oracle queries.
pub const CORPUS_SEED: u64 = 7;

/// One workload: a dataset shape, how many rounds measure it and how often
/// a round pays for a lifecycle rep. Names are permanent — later claims
/// quote them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: PaperDataset,
    pub series: usize,
    pub len: usize,
    /// Series count under `--quick`.
    pub quick_series: usize,
    /// Rounds of a run: fixed, so that every sample is a best-of-the-same-N
    /// on the parent and on the change, however fast either is.
    pub rounds: usize,
    /// A lifecycle rep (build, save, load, append, remove) runs on every
    /// `lifecycle_every`-th round.
    pub lifecycle_every: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "dense-star",
        why: "1.24 M subsequences in few large groups: member scans, DTW kernels, base clone and snapshot size dominate",
        dataset: PaperDataset::StarLightCurves,
        series: 250,
        len: 100,
        quick_series: 12,
        rounds: 10,
        lifecycle_every: 2,
    },
    Spec {
        name: "sparse-twopat",
        why: "68 k subsequences in 22 k tiny groups: rep scan, symbolic index and per-group overhead dominate, member scans idle",
        dataset: PaperDataset::TwoPattern,
        series: 60,
        len: 48,
        quick_series: 12,
        rounds: 30,
        lifecycle_every: 3,
    },
    Spec {
        name: "tiny-italy",
        why: "the paper's ItalyPower shape, all in cache: fixed per-query cost dominates, scan optimisations should not show",
        dataset: PaperDataset::ItalyPower,
        series: 67,
        len: 24,
        quick_series: 20,
        rounds: 300,
        lifecycle_every: 3,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// SplitMix64 — the benchmark's only randomness, owned here so the inputs
/// cannot change when a vendored crate does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything generated before the engine sees any of it.
pub struct Inputs {
    /// The series the base is built from.
    pub data: Dataset,
    /// Same generator stream, never in the base: sliced into queries.
    pub held_out: Vec<TimeSeries>,
    /// Same stream again: appended and removed by the lifecycle reps.
    pub appends: Vec<TimeSeries>,
}

/// One generator stream of `n + 132` series: the generators are sequential,
/// so the first `n` are exactly the dataset a shorter call would return and
/// the tail comes from the same classes without appearing in the base.
pub fn generate(spec: &Spec, quick: bool) -> Inputs {
    let n = if quick {
        spec.quick_series
    } else {
        spec.series
    };
    let all = spec
        .dataset
        .generate_with_shape(n + HELD_OUT + APPEND_POOL, spec.len, CORPUS_SEED);
    let series = all.series();
    Inputs {
        data: Dataset::new(spec.name, series[..n].to_vec()),
        held_out: series[n..n + HELD_OUT].to_vec(),
        appends: series[n + HELD_OUT..].to_vec(),
    }
}

/// One benchmark query, in the base's normalized space.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub values: Vec<f64>,
    /// Sliced verbatim from the base (else from a held-out series).
    pub in_dataset: bool,
}

/// Whether query `i` is an in-dataset slice: the Thue–Morse sequence
/// (parity of the set bits of `i`). Unlike any short period it stays
/// balanced on every prefix the benchmark takes — the first 16, the first
/// 24 — since any aligned pair holds one of each; 960 queries split 480/480.
fn in_dataset(i: usize) -> bool {
    i.count_ones().is_multiple_of(2)
}

/// The first `count` queries for `seed`. Query `i` depends on `(seed, i)`
/// only, so a shorter set is a prefix of a longer one. Lengths cover
/// `[max(6, len/4), len]` evenly for every prefix (golden-ratio sequence).
pub fn make_queries(
    base: &OnexBase,
    held_out: &[TimeSeries],
    seed: u64,
    count: usize,
) -> Vec<Query> {
    let data = base.dataset();
    let max_len = data.min_series_len();
    let min_len = (max_len / 4).max(6).min(max_len);
    let mut next_held_out = 0;
    (0..count)
        .map(|i| {
            let mut rng =
                SplitMix64::new(seed ^ (i as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            let frac = ((i as f64 + 0.5) * 0.618_033_988_749_894_9).fract();
            let len = min_len + (frac * (max_len - min_len + 1) as f64) as usize;
            if in_dataset(i) {
                let ts = &data.series()[rng.below(data.len())];
                let start = rng.below(ts.len() - len + 1);
                Query {
                    values: ts.values()[start..start + len].to_vec(),
                    in_dataset: true,
                }
            } else {
                let ts = &held_out[next_held_out % held_out.len()];
                next_held_out += 1;
                let start = rng.below(ts.len() - len + 1);
                Query {
                    values: base.normalize_query(&ts.values()[start..start + len]),
                    in_dataset: false,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex::OnexConfig;

    fn small() -> (Inputs, OnexBase) {
        let inputs = generate(&SPECS[2], true);
        let base = OnexBase::build(&inputs.data, OnexConfig::default()).unwrap();
        (inputs, base)
    }

    #[test]
    fn specs_are_named_once() {
        assert!(spec("dense-star").is_some() && spec("nope").is_none());
        assert_eq!(
            SPECS[0].series * SPECS[0].len * (SPECS[0].len - 1) / 2,
            1_237_500
        );
    }

    #[test]
    fn inputs_are_a_prefix_of_one_stream() {
        let (inputs, _) = small();
        assert_eq!(inputs.data.len(), SPECS[2].quick_series);
        assert_eq!(inputs.held_out.len(), HELD_OUT);
        assert_eq!(inputs.appends.len(), APPEND_POOL);
        let shorter = SPECS[2]
            .dataset
            .generate_with_shape(SPECS[2].quick_series, 24, CORPUS_SEED);
        assert_eq!(inputs.data.series(), shorter.series());
    }

    #[test]
    fn queries_are_seed_deterministic_and_prefix_stable() {
        let (inputs, base) = small();
        let a = make_queries(&base, &inputs.held_out, 9, QUERIES);
        assert_eq!(a, make_queries(&base, &inputs.held_out, 9, QUERIES));
        assert_ne!(a, make_queries(&base, &inputs.held_out, 10, QUERIES));
        assert_eq!(a[..50], make_queries(&base, &inputs.held_out, 9, 50)[..]);
    }

    #[test]
    fn queries_split_evenly_and_cover_the_length_range() {
        let (inputs, base) = small();
        let qs = make_queries(&base, &inputs.held_out, 9, QUERIES);
        assert_eq!(qs.iter().filter(|q| q.in_dataset).count(), QUERIES / 2);
        let lens: Vec<usize> = qs.iter().map(|q| q.values.len()).collect();
        assert_eq!(*lens.iter().min().unwrap(), 6);
        assert_eq!(*lens.iter().max().unwrap(), 24);
        // So do the prefixes the range pass and the oracle take.
        for prefix in [RANGE_QUERIES, ORACLE_QUERIES] {
            let inside = qs[..prefix].iter().filter(|q| q.in_dataset).count();
            assert_eq!(inside, prefix / 2);
        }
        // In-dataset queries occur verbatim.
        let q = qs.iter().find(|q| q.in_dataset).unwrap();
        let found = base
            .dataset()
            .series()
            .iter()
            .any(|ts| ts.values().windows(q.values.len()).any(|w| w == q.values));
        assert!(found);
    }
}
