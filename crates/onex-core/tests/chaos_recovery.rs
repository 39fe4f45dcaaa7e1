//! Seeded crash-recovery suite over every registered fault point: arm a
//! deterministic fault (`onex_core::fault`), drive the engine into it,
//! simulate the crash (drop the explorer without cleanup), and assert the
//! reloaded state passes `validate_invariants` and answers the
//! equivalence query set **byte-identically** to a reference that never
//! crashed. Worker-spawn faults additionally assert the query completes
//! with correct results and the `degraded` stat flag.
//!
//! The fault registry is process-global, so every armed scenario runs
//! under one serialization lock — cargo's parallel test threads must not
//! interleave armed plans.

use std::path::PathBuf;
use std::sync::Mutex;

use onex_core::engine::{Explorer, QueryOptions};
use onex_core::{fault, wal, MatchMode, OnexConfig, OnexError};
use onex_ts::{synth, TimeSeries};

/// Serializes armed scenarios: the fault plan and its hit counters are
/// process-global state.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn config() -> OnexConfig {
    OnexConfig {
        st: 0.2,
        paa_width: 8,
        ..OnexConfig::default()
    }
}

fn explorer() -> Explorer {
    let d = synth::sine_mix(8, 24, 2, 4242);
    Explorer::build(&d, config()).unwrap()
}

fn novel_series(i: usize) -> TimeSeries {
    let amp = 2.0 + i as f64;
    TimeSeries::new(
        (0..24)
            .map(|t| if t % 2 == 0 { amp } else { -amp })
            .collect(),
    )
    .unwrap()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("onex-chaos-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The equivalence query set: every class I shape over both length modes,
/// byte-compared between two explorers.
fn assert_query_equivalent(a: &Explorer, b: &Explorer) {
    let q: Vec<f64> = a.base().dataset().series()[0].values()[3..17].to_vec();
    for mode in [MatchMode::Any, MatchMode::Exact(14)] {
        let ma = a.best_match(&q, mode, QueryOptions::default()).unwrap();
        let mb = b.best_match(&q, mode, QueryOptions::default()).unwrap();
        assert_eq!(ma, mb, "best_match diverged ({mode:?})");
        let ta = a.top_k(&q, mode, 5, QueryOptions::default()).unwrap();
        let tb = b.top_k(&q, mode, 5, QueryOptions::default()).unwrap();
        assert_eq!(ta, tb, "top_k diverged ({mode:?})");
        let wa = a
            .within_threshold(&q, mode, true, QueryOptions::default())
            .unwrap();
        let wb = b
            .within_threshold(&q, mode, true, QueryOptions::default())
            .unwrap();
        assert_eq!(wa, wb, "within_threshold diverged ({mode:?})");
    }
}

#[test]
fn torn_snapshot_write_leaves_the_previous_snapshot_intact() {
    let _guard = locked();
    fault::disarm();
    let dir = test_dir("snapshot-write");
    let snap = dir.join("base.onex");
    let e = explorer();
    e.save(&snap).unwrap();

    // Mutate, then crash mid-save: the temp file tears, the rename never
    // happens, and the destination still holds the epoch-0 snapshot.
    e.append_series(novel_series(0)).unwrap();
    fault::arm("seed=7,snapshot-write@1:torn").unwrap();
    let err = e.save(&snap).unwrap_err();
    assert!(matches!(err, OnexError::Io(_)), "{err:?}");
    fault::disarm();

    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(
        recovered.epoch(),
        0,
        "the old snapshot must survive the crash"
    );
    assert_query_equivalent(&recovered, &explorer());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_append_fails_the_op_and_recovery_drops_the_tail() {
    let _guard = locked();
    fault::disarm();
    let dir = test_dir("wal-append");
    let snap = dir.join("base.onex");
    let e = explorer();
    e.save(&snap).unwrap();
    e.attach_wal(wal::sidecar_path(&snap)).unwrap();

    // One journaled op succeeds; the second tears mid-append and must
    // fail without installing.
    e.append_series(novel_series(0)).unwrap();
    fault::arm("seed=7,wal-append@1:torn").unwrap();
    let err = e.append_series(novel_series(1)).unwrap_err();
    assert!(matches!(err, OnexError::Io(_)), "{err:?}");
    fault::disarm();
    assert_eq!(e.epoch(), 1, "the torn op must not install");

    // Simulated crash: drop the explorer, reload from disk. Recovery
    // drops the torn record and replays exactly the successful op.
    let reference = {
        let r = explorer();
        r.append_series(novel_series(0)).unwrap();
        r
    };
    drop(e);
    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(recovered.epoch(), 1);
    assert_eq!(*recovered.base(), *reference.base());
    assert_query_equivalent(&recovered, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_append_fail_before_write_leaves_a_clean_log() {
    let _guard = locked();
    fault::disarm();
    let dir = test_dir("wal-fail");
    let snap = dir.join("base.onex");
    let e = explorer();
    e.save(&snap).unwrap();
    e.attach_wal(wal::sidecar_path(&snap)).unwrap();

    fault::arm("wal-append@1").unwrap();
    assert!(matches!(
        e.append_series(novel_series(0)).unwrap_err(),
        OnexError::Io(_)
    ));
    fault::disarm();

    // The log holds no record of the failed op, and the shed op can be
    // retried successfully on the same writer.
    e.append_series(novel_series(0)).unwrap();
    drop(e);
    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(recovered.epoch(), 1);
    let reference = {
        let r = explorer();
        r.append_series(novel_series(0)).unwrap();
        r
    };
    assert_eq!(*recovered.base(), *reference.base());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_crash_replays_the_journaled_op_on_load() {
    let _guard = locked();
    fault::disarm();
    let dir = test_dir("hot-swap");
    let snap = dir.join("base.onex");
    let e = explorer();
    e.save(&snap).unwrap();
    e.attach_wal(wal::sidecar_path(&snap)).unwrap();

    // Crash between the WAL fsync and the epoch swap: the op is durable
    // but was never served ("WAL wins").
    fault::arm("hot-swap@1").unwrap();
    let err = e.refine_to(0.3).unwrap_err();
    assert!(matches!(err, OnexError::Io(_)), "{err:?}");
    fault::disarm();
    assert_eq!(e.epoch(), 0, "the crashed op must not be visible live");

    drop(e);
    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(
        recovered.epoch(),
        1,
        "recovery must replay the journaled op"
    );
    assert_eq!(recovered.base().config().st, 0.3);
    let reference = {
        let r = explorer();
        r.refine_to(0.3).unwrap();
        r
    };
    assert_eq!(*recovered.base(), *reference.base());
    assert_query_equivalent(&recovered, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn successful_ops_survive_a_crash_and_replay_in_order() {
    let _guard = locked();
    fault::disarm();
    let dir = test_dir("replay-order");
    let snap = dir.join("base.onex");
    let e = explorer();
    e.save(&snap).unwrap();
    e.attach_wal(wal::sidecar_path(&snap)).unwrap();

    e.append_series(novel_series(0)).unwrap();
    e.append_series(novel_series(1)).unwrap();
    e.refine_to(0.15).unwrap();
    let idx = e.base().dataset().len() - 1;
    e.remove_series(idx).unwrap();
    let live = e.base();
    drop(e);

    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(recovered.epoch(), 4);
    assert_eq!(
        *recovered.base(),
        *live,
        "replay must rebuild the live state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_resets_the_wal_and_reload_stays_identical() {
    let _guard = locked();
    fault::disarm();
    let dir = test_dir("checkpoint");
    let snap = dir.join("base.onex");
    let e = explorer();
    e.save(&snap).unwrap();
    e.attach_wal(wal::sidecar_path(&snap)).unwrap();

    e.append_series(novel_series(0)).unwrap();
    e.refine_to(0.25).unwrap();
    // Checkpoint: the snapshot now covers both ops, so the journal resets
    // to a header-only file.
    e.save(&snap).unwrap();
    let wal_len = std::fs::metadata(wal::sidecar_path(&snap)).unwrap().len();
    assert_eq!(wal_len, 5, "a checkpointed journal is header-only");
    // One more op after the checkpoint journals on the fresh log.
    e.append_series(novel_series(1)).unwrap();
    let live = e.base();
    drop(e);

    let recovered = Explorer::load(&snap).unwrap();
    recovered.base().validate_invariants().unwrap();
    assert_eq!(recovered.epoch(), 3);
    assert_eq!(*recovered.base(), *live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_worker_panic_degrades_to_exact_sequential_results() {
    let _guard = locked();
    fault::disarm();
    // A panicking worker prints through the default hook; keep the test
    // output clean — panics are expected here.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // A base wide enough that the striped scans genuinely engage (same
    // floor the parallel-equivalence suite asserts).
    let d = synth::random_walk(48, 24, 0xBEEF);
    let cfg = OnexConfig {
        st: 0.08,
        paa_width: 8,
        ..OnexConfig::default()
    };
    let e = Explorer::build(&d, cfg).unwrap();
    let widest = e
        .base()
        .indexed_lengths()
        .filter_map(|len| e.base().slab(len).map(|s| s.group_count()))
        .max()
        .unwrap();
    assert!(widest >= 16, "base too narrow to engage striping: {widest}");
    let q: Vec<f64> = e.base().dataset().series()[0].values()[2..22].to_vec();
    let par = QueryOptions {
        query_threads: Some(4),
        ..QueryOptions::default()
    };
    let seq = QueryOptions {
        query_threads: Some(1),
        ..QueryOptions::default()
    };

    // Every class I shape: the first worker spawned after arming panics;
    // the scan must discard its partial state, re-run sequentially, and
    // return the sequential answer exactly.
    fault::arm("worker-spawn@1").unwrap();
    let got = e.best_match(&q, MatchMode::Any, par).unwrap();
    fault::disarm();
    let want = e.best_match(&q, MatchMode::Any, seq).unwrap();
    assert_eq!(got, want, "best_match must survive a worker panic exactly");

    fault::arm("worker-spawn@1").unwrap();
    let got = e.top_k(&q, MatchMode::Any, 5, par).unwrap();
    fault::disarm();
    let want = e.top_k(&q, MatchMode::Any, 5, seq).unwrap();
    assert_eq!(got, want, "top_k must survive a worker panic exactly");

    fault::arm("worker-spawn@1").unwrap();
    let got = e.within_threshold(&q, MatchMode::Any, true, par).unwrap();
    fault::disarm();
    let want = e.within_threshold(&q, MatchMode::Any, true, seq).unwrap();
    assert_eq!(got, want, "within_threshold must survive a worker panic");

    // The degraded flag itself, through the stats-bearing query surface.
    let req = || onex_core::engine::QueryRequest::TopK {
        values: q.clone(),
        mode: MatchMode::Any,
        k: 5,
        options: par,
    };
    fault::arm("worker-spawn@1").unwrap();
    let resp = e.query(req()).unwrap();
    fault::disarm();
    assert!(
        resp.stats.degraded,
        "a lost worker must be visible in stats"
    );
    // And a clean run does not set it.
    let resp = e.query(req()).unwrap();
    assert!(!resp.stats.degraded);

    std::panic::set_hook(prev);
}
