//! The lifecycle contract, tested from the outside:
//!
//! 1. **Live maintenance under load** — one shared `Explorer` serves
//!    queries from many reader threads nonstop while a writer appends
//!    series and re-thresholds the base. No reader ever errors, every
//!    reader observes a monotone epoch sequence, and queries issued after
//!    the swaps see the appended data.
//! 2. **Snapshot compatibility** — every legacy format (v1 through v4)
//!    still loads equivalent to the current v5 through `Explorer::load`,
//!    epochs survive where the format carries them, and the persisted
//!    symbolic word index always matches a from-scratch rebuild bit for bit.
//! 3. **Hostile files** — truncated, bit-flipped and re-sealed snapshots and
//!    damaged WAL sidecars are rejected with typed errors, never panics. The
//!    snapshot sweep covers every byte of the header and the tail and an
//!    even spread in between, so it stays a few seconds in a debug build.

use onex::core::snapshot;
use onex::ts::synth;
use onex::{
    Explorer, ExplorerBuilder, MatchMode, OnexBase, OnexConfig, QueryOptions, QueryRequest,
    TimeSeries,
};
use std::sync::atomic::{AtomicBool, Ordering};

fn base() -> OnexBase {
    let d = synth::sine_mix(8, 24, 2, 4242);
    OnexBase::build(&d, OnexConfig::default()).unwrap()
}

/// Per-process scratch dir so concurrent test runs on one machine don't
/// clobber each other's snapshot files.
fn test_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("onex_lifecycle_test_{}", std::process::id()))
}

/// A distinctive raw-unit series no sine_mix class resembles: a square wave
/// far outside the original value range, phase-shifted per `i` so appended
/// copies differ.
fn novel_series(i: usize) -> TimeSeries {
    TimeSeries::new(
        (0..24)
            .map(|t| {
                if (t + i) % 4 < 2 {
                    40.0 + i as f64
                } else {
                    -40.0
                }
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn readers_never_block_or_fail_while_writer_appends_and_refines() {
    const READERS: usize = 5;
    const WRITER_OPS: usize = 4;
    let explorer = Explorer::from_base(base());
    let queries: Vec<Vec<f64>> = (0..4)
        .map(|s| explorer.base().dataset().series()[s].values()[s..s + 12].to_vec())
        .collect();
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer: interleave appends and refinements, each an off-line
        // construction followed by an atomic hot-swap. The flag is set via
        // a drop guard so the reader loops terminate (and the test fails
        // cleanly) even if the writer panics.
        scope.spawn(|| {
            struct Done<'a>(&'a AtomicBool);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let _done = Done(&writer_done);
            for i in 0..WRITER_OPS {
                let idx = explorer.append_series(novel_series(i)).unwrap();
                assert_eq!(idx, 8 + i);
                let st = if i % 2 == 0 { 0.25 } else { 0.2 };
                explorer.refine_to(st).unwrap();
            }
        });

        // Readers: hammer every query class until the writer finishes,
        // asserting success and per-reader epoch monotonicity throughout.
        for t in 0..READERS {
            let explorer = explorer.clone();
            let queries = &queries;
            let writer_done = &writer_done;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut rounds = 0usize;
                while !writer_done.load(Ordering::Acquire) || rounds < 3 {
                    let q = &queries[(t + rounds) % queries.len()];
                    let resp = explorer
                        .query(QueryRequest::best_match(q.clone(), MatchMode::Any))
                        .unwrap_or_else(|e| panic!("reader {t} round {rounds} failed: {e}"));
                    assert!(
                        resp.stats.epoch >= last_epoch,
                        "reader {t} saw epoch go backwards: {} after {}",
                        resp.stats.epoch,
                        last_epoch
                    );
                    last_epoch = resp.stats.epoch;
                    // Mix in the other classes (answered off the same pin).
                    explorer.seasonal_all(8, 2).unwrap();
                    explorer.recommend(None, None).unwrap();
                    rounds += 1;
                }
            });
        }
    });

    // Every writer op landed: 2 swaps per iteration.
    assert_eq!(explorer.epoch(), 2 * WRITER_OPS as u64);
    let final_base = explorer.base();
    assert_eq!(final_base.dataset().len(), 8 + WRITER_OPS);
    assert_eq!(final_base.config().st, 0.2);

    // Post-swap queries see the appended series: an exact slice of the last
    // appended series matches itself (distance ~0) in the new generation.
    let q: Vec<f64> = final_base.dataset().series()[8 + WRITER_OPS - 1].values()[0..12].to_vec();
    let m = explorer
        .best_match(&q, MatchMode::Exact(12), QueryOptions::default())
        .unwrap();
    assert!(
        m.dist < 1e-9,
        "appended series must self-match, got {}",
        m.dist
    );
    assert!(
        m.subseq.series as usize >= 8,
        "match must come from appended data, got series {}",
        m.subseq.series
    );
}

#[test]
fn v1_snapshot_written_before_this_revision_still_loads() {
    let b = base();
    // Byte-for-byte what a pre-v2 revision wrote.
    let dir = test_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pre-v2.onex");
    std::fs::write(&path, snapshot::encode_v1(&b)).unwrap();

    // Loads through both entry points, at epoch 0.
    let explorer = Explorer::load(&path).unwrap();
    assert_eq!(explorer.epoch(), 0);
    assert_eq!(*explorer.base(), b);
    let via_builder = ExplorerBuilder::new().from_snapshot(&path).unwrap();
    assert_eq!(*via_builder.base(), b);
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_load_resumes_epoch_and_answers_identically() {
    let explorer = Explorer::from_base(base());
    explorer.refine_to(0.3).unwrap();
    explorer.append_series(novel_series(0)).unwrap();
    let q: Vec<f64> = explorer.base().dataset().series()[2].values()[3..15].to_vec();
    let expected = explorer
        .best_match(&q, MatchMode::Any, QueryOptions::default())
        .unwrap();

    let dir = test_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.onex");
    explorer.save(&path).unwrap();
    let reloaded = Explorer::load(&path).unwrap();
    assert_eq!(reloaded.epoch(), 2, "epoch must survive the snapshot");
    let got = reloaded
        .best_match(&q, MatchMode::Any, QueryOptions::default())
        .unwrap();
    assert_eq!(got, expected);
    // Maintenance on the reloaded explorer continues the numbering.
    reloaded.refine_to(0.25).unwrap();
    assert_eq!(reloaded.epoch(), 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_snapshot_is_rejected_with_a_clear_error() {
    let explorer = Explorer::from_base(base());
    let dir = test_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.onex");
    explorer.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let err = Explorer::load(&path).unwrap_err();
    assert!(
        matches!(err, onex::OnexError::SnapshotCorrupt(_)),
        "expected SnapshotCorrupt, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn remove_series_shrinks_the_live_base() {
    let explorer = Explorer::from_base(base());
    let total_before = explorer.base().stats().subsequences;
    let removed = explorer.remove_series(3).unwrap();
    assert_eq!(removed.len(), 24);
    let after = explorer.base();
    assert_eq!(after.dataset().len(), 7);
    assert_eq!(
        after.stats().subsequences,
        total_before - 24 * 23 / 2,
        "removed series takes its n(n−1)/2 subsequences with it"
    );
    // Remaining series still answer; indices above the removed one shifted.
    let q: Vec<f64> = after.dataset().series()[5].values()[0..10].to_vec();
    let m = explorer
        .best_match(&q, MatchMode::Exact(10), QueryOptions::default())
        .unwrap();
    assert!(m.dist.is_finite());
    assert!(explorer.remove_series(7).is_err(), "index now out of range");
}

// ---- snapshot v5 (columnar payload + sketch planes + word planes) ----

/// Queries used to compare two bases for answer equivalence.
fn probe_queries(b: &onex::OnexBase) -> Vec<Vec<f64>> {
    (0..b.dataset().len().min(3))
        .map(|s| {
            let vals = b.dataset().series()[s].values();
            vals[..vals.len().min(10)].to_vec()
        })
        .collect()
}

/// Asserts two bases answer best-match, top-k and range queries
/// identically.
fn assert_query_equivalent(a: &onex::OnexBase, b: &onex::OnexBase) {
    let (ea, eb) = (
        Explorer::from_base(a.clone()),
        Explorer::from_base(b.clone()),
    );
    for q in probe_queries(a) {
        for mode in [MatchMode::Any, MatchMode::Exact(q.len())] {
            assert_eq!(
                ea.best_match(&q, mode, QueryOptions::default()).unwrap(),
                eb.best_match(&q, mode, QueryOptions::default()).unwrap(),
            );
            assert_eq!(
                ea.top_k(&q, mode, 5, QueryOptions::default()).unwrap(),
                eb.top_k(&q, mode, 5, QueryOptions::default()).unwrap(),
            );
            assert_eq!(
                ea.within_threshold(&q, mode, true, QueryOptions::default())
                    .unwrap(),
                eb.within_threshold(&q, mode, true, QueryOptions::default())
                    .unwrap(),
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

    /// v5 snapshots round-trip over random bases: the decoded base is
    /// structurally equal (including every sketch and word plane),
    /// carries the epoch, answers every Class I query form identically,
    /// and its incrementally-maintained symbolic index matches a
    /// from-scratch rebuild bit for bit.
    #[test]
    fn v5_round_trip_is_query_equivalent_over_random_bases(
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0..1.0f64, 8..=13), 2..=4),
        seed in proptest::prelude::any::<u64>(),
        epoch in proptest::prelude::any::<u64>(),
    ) {
        let series: Vec<TimeSeries> =
            rows.into_iter().map(|v| TimeSeries::new(v).unwrap()).collect();
        let d = onex::Dataset::new("v5prop", series);
        let cfg = OnexConfig { seed, ..OnexConfig::default() };
        let b = OnexBase::build_prenormalized(d, cfg).unwrap();
        let bytes = snapshot::encode_with_epoch(&b, epoch);
        let (r, got_epoch) = snapshot::decode_with_epoch(&bytes).unwrap();
        proptest::prop_assert_eq!(&b, &r);
        proptest::prop_assert_eq!(got_epoch, epoch);
        assert_query_equivalent(&b, &r);
        assert_symindex_matches_rebuild(&r);
    }
}

/// Asserts every length's symbolic index equals a from-scratch
/// [`onex::core::SymIndex::build`] over the live slab — the incremental
/// maintenance paths and the builder must agree bit for bit.
fn assert_symindex_matches_rebuild(b: &onex::OnexBase) {
    for slab in b.store().slabs() {
        let len = slab.subseq_len();
        let sym = b
            .sym_index(len)
            .unwrap_or_else(|| panic!("length {len} has no symbolic index"));
        assert_eq!(
            *sym,
            onex::core::SymIndex::build(slab),
            "length {len}: incremental index != from-scratch rebuild"
        );
    }
}

#[test]
fn lifecycle_mutations_keep_the_symbolic_index_equal_to_a_rebuild() {
    let explorer = Explorer::from_base(base());
    assert_symindex_matches_rebuild(&explorer.base());
    explorer.append_series(novel_series(0)).unwrap();
    assert_symindex_matches_rebuild(&explorer.base());
    explorer.refine_to(0.3).unwrap();
    assert_symindex_matches_rebuild(&explorer.base());
    explorer.remove_series(2).unwrap();
    assert_symindex_matches_rebuild(&explorer.base());
    explorer.refine_to(0.2).unwrap();
    assert_symindex_matches_rebuild(&explorer.base());
}

/// The IEEE CRC-32 state after feeding `data` into `state` (start from
/// `!0`, finish with `!state`); written out bit by bit here so the test
/// does not lean on the codec's own table.
fn crc32_feed(mut state: u32, data: &[u8]) -> u32 {
    for &byte in data {
        state ^= u32::from(byte);
        for _ in 0..8 {
            state = if state & 1 != 0 {
                0xEDB8_8320 ^ (state >> 1)
            } else {
                state >> 1
            };
        }
    }
    state
}

/// The byte offsets a corruption sweep over an `n`-byte snapshot visits,
/// ascending: every byte of the first 64 (magic, version, epoch, config
/// header) and of the last 128 (the word planes and the CRC footer), plus
/// 256 evenly spaced offsets through the columnar payload between them.
fn sweep_offsets(n: usize) -> Vec<usize> {
    let mut at: Vec<usize> = (0..64.min(n))
        .chain(n.saturating_sub(128)..n)
        .chain((0..256).map(|i| i * n / 256))
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

#[test]
fn v5_truncation_and_bit_flips_are_rejected_not_panics() {
    let b = base();
    let bytes = snapshot::encode_with_epoch(&b, 4).to_vec();
    assert_eq!(bytes[4], 5, "current snapshots are v5");
    let corrupt = |what: &str, at: usize, buf: &[u8]| {
        let err = snapshot::decode(buf).unwrap_err();
        assert!(
            matches!(err, onex::OnexError::SnapshotCorrupt(_)),
            "{what} at byte {at} must be SnapshotCorrupt, got {err:?}"
        );
    };
    let body_len = bytes.len() - 4;
    let mut crc = (!0u32, 0usize); // running CRC state over bytes[..crc.1]
    for at in sweep_offsets(bytes.len()) {
        // Truncation: the CRC check rejects it before any parsing.
        corrupt("truncation", at, &bytes[..at]);
        // The same cut re-sealed with a valid CRC, so the columnar parser
        // itself meets the truncated payload and must refuse it cleanly.
        if at < body_len {
            crc = (crc32_feed(crc.0, &bytes[crc.1..at]), at);
            let mut sealed = bytes[..at].to_vec();
            sealed.extend_from_slice(&(!crc.0).to_le_bytes());
            corrupt("re-sealed truncation", at, &sealed);
        }
        // A bit flip anywhere — header, epoch, payload or the CRC itself.
        let mut flipped = bytes.clone();
        flipped[at] ^= 1 << (at % 8);
        corrupt("bit flip", at, &flipped);
    }
    // The re-sealing matches the codec: sealing the whole body reproduces
    // the file, which decodes.
    let sealed_crc = !crc32_feed(crc.0, &bytes[crc.1..body_len]);
    assert_eq!(bytes[body_len..], sealed_crc.to_le_bytes());
    assert!(snapshot::decode(&bytes).is_ok());
}

// ---- WAL hostile inputs & typed IO errors ----

/// Sets up a saved snapshot with an attached sidecar WAL holding `ops`
/// successful appends, returning `(dir, snapshot path, wal path)`. The
/// explorer is dropped (simulated crash) so the files are the only state.
fn snapshot_with_wal(tag: &str, ops: usize) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = test_dir().join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("base.onex");
    let e = Explorer::from_base(base());
    e.save(&snap).unwrap();
    e.attach_wal(onex::core::wal::sidecar_path(&snap)).unwrap();
    for i in 0..ops {
        e.append_series(novel_series(i)).unwrap();
    }
    drop(e);
    (snap.clone(), onex::core::wal::sidecar_path(&snap))
}

/// The reference state after `ops` appends, built without any journaling.
fn reference_after(ops: usize) -> Explorer {
    let e = Explorer::from_base(base());
    for i in 0..ops {
        e.append_series(novel_series(i)).unwrap();
    }
    e
}

#[test]
fn wal_torn_tail_is_dropped_and_the_intact_prefix_replays() {
    let (snap, wal_path) = snapshot_with_wal("torn", 2);
    let bytes = std::fs::read(&wal_path).unwrap();
    // Locate the first record's frame: header (5 bytes), then
    // [len u32][payload][crc u32].
    let len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let first_end = 5 + 4 + len + 4;
    assert!(first_end < bytes.len(), "fixture needs two records");
    // Tear the log at three points inside the second record: right after
    // the first record, mid-payload, and one byte short of complete.
    for cut in [first_end, first_end + 7, bytes.len() - 1] {
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        let recovered = Explorer::load(&snap).unwrap();
        recovered.base().validate_invariants().unwrap();
        assert_eq!(recovered.epoch(), 1, "cut at {cut}: one op must replay");
        assert_eq!(
            *recovered.base(),
            *reference_after(1).base(),
            "cut at {cut}"
        );
    }
    std::fs::remove_dir_all(snap.parent().unwrap()).ok();
}

#[test]
fn wal_mid_record_bit_flip_is_corruption_not_silent_replay() {
    let (snap, wal_path) = snapshot_with_wal("bitflip", 2);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    // Flip one payload bit of the FIRST record (damage before the final
    // record cannot come from a torn append — it is disk damage).
    bytes[5 + 4 + 3] ^= 0x08;
    std::fs::write(&wal_path, &bytes).unwrap();
    let err = Explorer::load(&snap).unwrap_err();
    assert!(
        matches!(err, onex::OnexError::SnapshotCorrupt(_)),
        "expected SnapshotCorrupt, got {err:?}"
    );
    std::fs::remove_dir_all(snap.parent().unwrap()).ok();
}

#[test]
fn wal_records_at_or_below_the_snapshot_epoch_are_skipped() {
    let (snap, wal_path) = snapshot_with_wal("dup", 2);
    // Re-checkpoint: load (replays both ops to epoch 2), save the
    // snapshot — then put the OLD journal back, so every record it holds
    // is already covered by the snapshot.
    let stale_wal = std::fs::read(&wal_path).unwrap();
    let live = {
        let e = Explorer::load(&snap).unwrap();
        assert_eq!(e.epoch(), 2);
        e.save(&snap).unwrap();
        e.base()
    };
    std::fs::write(&wal_path, &stale_wal).unwrap();
    // Duplicate-epoch replay: both records are ≤ the snapshot's epoch and
    // must be skipped idempotently, not re-applied.
    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(recovered.epoch(), 2);
    assert_eq!(*recovered.base(), *live, "stale records must not re-apply");
    std::fs::remove_dir_all(snap.parent().unwrap()).ok();
}

#[test]
fn empty_and_header_only_wal_sidecars_recover_as_no_ops() {
    let (snap, wal_path) = snapshot_with_wal("empty", 0);
    // Header-only log (what attach_wal leaves before any op).
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 5);
    let e = Explorer::load(&snap).unwrap();
    assert_eq!(e.epoch(), 0);
    assert_eq!(*e.base(), base());
    drop(e);
    // Zero-byte log (crash before the header landed): recovered as empty.
    std::fs::write(&wal_path, []).unwrap();
    let e = Explorer::load(&snap).unwrap();
    assert_eq!(e.epoch(), 0);
    assert_eq!(*e.base(), base());
    std::fs::remove_dir_all(snap.parent().unwrap()).ok();
}

#[test]
fn loading_a_directory_or_empty_snapshot_is_a_typed_io_error_with_the_path() {
    let dir = test_dir().join("typed-io");
    std::fs::create_dir_all(&dir).unwrap();
    // A directory path.
    let err = Explorer::load(&dir).unwrap_err();
    match &err {
        onex::OnexError::Io(e) => {
            assert!(e.to_string().contains("directory"), "{e}");
            assert_eq!(e.path(), dir);
        }
        other => panic!("expected Io, got {other:?}"),
    }
    // A zero-length file.
    let empty = dir.join("empty.onex");
    std::fs::write(&empty, []).unwrap();
    let err = Explorer::load(&empty).unwrap_err();
    match &err {
        onex::OnexError::Io(e) => {
            assert!(e.to_string().contains("empty"), "{e}");
            assert_eq!(e.path(), empty);
        }
        other => panic!("expected Io, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_through_v4_snapshots_load_equivalent_to_v5() {
    let b = base();
    let dir = test_dir();
    std::fs::create_dir_all(&dir).unwrap();

    // Byte-for-byte what the four previous revisions wrote.
    let p_v1 = dir.join("cross-v1.onex");
    let p_v2 = dir.join("cross-v2.onex");
    let p_v3 = dir.join("cross-v3.onex");
    let p_v4 = dir.join("cross-v4.onex");
    let p_v5 = dir.join("cross-v5.onex");
    std::fs::write(&p_v1, snapshot::encode_v1(&b)).unwrap();
    std::fs::write(&p_v2, snapshot::encode_v2_with_epoch(&b, 6)).unwrap();
    std::fs::write(&p_v3, snapshot::encode_v3_with_epoch(&b, 8)).unwrap();
    std::fs::write(&p_v4, snapshot::encode_v4_with_epoch(&b, 9)).unwrap();
    Explorer::from_base(b.clone()).save(&p_v5).unwrap();
    assert_eq!(std::fs::read(&p_v4).unwrap()[4], 4, "legacy writer is v4");
    assert_eq!(std::fs::read(&p_v5).unwrap()[4], 5, "current writer is v5");

    let from_v1 = Explorer::load(&p_v1).unwrap();
    let from_v2 = Explorer::load(&p_v2).unwrap();
    let from_v3 = Explorer::load(&p_v3).unwrap();
    let from_v4 = Explorer::load(&p_v4).unwrap();
    let from_v5 = Explorer::load(&p_v5).unwrap();

    // v1 predates epochs; v2 through v4 carry one just like v5.
    assert_eq!(from_v1.epoch(), 0);
    assert_eq!(from_v2.epoch(), 6);
    assert_eq!(from_v3.epoch(), 8);
    assert_eq!(from_v4.epoch(), 9);
    assert_eq!(from_v5.epoch(), 0);

    // All five decode to the same base — structurally (legacy loads
    // recompute the sketch and word planes bit-identically, so the
    // rebuilt symbolic index matches the persisted one) and
    // behaviourally.
    assert_eq!(*from_v1.base(), *from_v5.base(), "v1 → v5 load equivalence");
    assert_eq!(*from_v2.base(), *from_v5.base(), "v2 → v5 load equivalence");
    assert_eq!(*from_v3.base(), *from_v5.base(), "v3 → v5 load equivalence");
    assert_eq!(*from_v4.base(), *from_v5.base(), "v4 → v5 load equivalence");
    assert_eq!(*from_v5.base(), b);
    assert_query_equivalent(&from_v1.base(), &from_v5.base());
    assert_query_equivalent(&from_v4.base(), &from_v5.base());
    assert_symindex_matches_rebuild(&from_v4.base());
    assert_symindex_matches_rebuild(&from_v5.base());

    for p in [p_v1, p_v2, p_v3, p_v4, p_v5] {
        std::fs::remove_file(&p).ok();
    }
}
