//! **Seeded chaos harness** — drives the engine into every registered
//! fault point ([`onex_core::fault::POINTS`]), simulates the crash, and
//! verifies the recovery contract end to end:
//!
//! * `snapshot-write` — a write torn mid-temp-file must leave the
//!   previous snapshot loadable and byte-identical;
//! * `wal-append` — a torn journal append must fail the op without
//!   installing, and recovery must drop the torn tail and replay exactly
//!   the committed prefix (the fail-before-write mode must additionally
//!   leave a clean, retryable log);
//! * `hot-swap` — a crash between the WAL fsync and the epoch swap must
//!   replay the journaled-but-never-served op on load ("WAL wins");
//! * `worker-spawn` — an injected worker panic must degrade the query to
//!   the sequential scan, return byte-identical results, and raise the
//!   `degraded` stat flag.
//!
//! Every recovered base must pass `validate_invariants` and answer the
//! equivalence query set byte-identically to a reference that never
//! crashed. Faults are seeded from `--seed`, so a failure reproduces bit
//! for bit. Exits non-zero on the first broken contract — the `repro
//! chaos` CI leg runs this under a debug-assertions build.

use super::Ctx;
use crate::harness::{self, fmt_secs};
use onex_core::engine::{Explorer, QueryOptions, QueryRequest};
use onex_core::{fault, wal, MatchMode, OnexConfig, OnexError};
use onex_ts::{synth, TimeSeries};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One chaos scenario: drive the engine into a fault and check recovery.
type Scenario = fn(&Ctx, &Path) -> Result<(), String>;

/// Runs every chaos scenario; returns `false` when any recovery contract
/// is broken (the caller turns that into a non-zero exit).
pub fn run(ctx: &Ctx) -> bool {
    println!("\n== Seeded chaos harness (seed {}) ==\n", ctx.seed);
    // Injected worker panics print through the default hook; the scenario
    // expects them, so keep the harness output readable.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let widths = [14, 46, 10];
    let mut table = harness::Table::new("chaos", &["fault point", "contract", "result"], &widths);
    let dir = scratch_dir(ctx.seed);
    let scenarios: [(&str, &str, Scenario); 5] = [
        (
            fault::SNAPSHOT_WRITE,
            "torn write leaves the previous snapshot intact",
            torn_snapshot_write,
        ),
        (
            fault::WAL_APPEND,
            "torn append fails the op; recovery drops the tail",
            torn_wal_append,
        ),
        (
            fault::WAL_APPEND,
            "failed append leaves a clean, retryable log",
            failed_wal_append,
        ),
        (
            fault::HOT_SWAP,
            "crash before the swap replays the op on load",
            hot_swap_crash,
        ),
        (
            fault::WORKER_SPAWN,
            "worker panic degrades to exact sequential results",
            worker_panic,
        ),
    ];

    let mut ok = true;
    for (point, contract, scenario) in scenarios {
        fault::disarm();
        let t0 = Instant::now();
        let result = scenario(ctx, &dir);
        fault::disarm();
        let cell = match &result {
            Ok(()) => fmt_secs(t0.elapsed().as_secs_f64()),
            Err(msg) => {
                eprintln!("chaos failure [{point} / {contract}]: {msg}");
                ok = false;
                "FAIL".to_string()
            }
        };
        table.row(vec![point.to_string(), contract.to_string(), cell]);
    }
    table.finish(ctx.csv());
    std::fs::remove_dir_all(&dir).ok();
    std::panic::set_hook(prev_hook);

    if ok {
        println!("\nchaos: every fault point recovers to a validated, byte-identical base");
    } else {
        println!("\nchaos: RECOVERY CONTRACT VIOLATIONS FOUND (see messages above)");
    }
    ok
}

/// Scratch directory for snapshots and journals; removed after the run.
fn scratch_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("onex-chaos-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// The chaos base: small enough to rebuild per scenario, rich enough that
/// maintenance genuinely reshapes groups.
fn explorer() -> Result<Explorer, String> {
    let data = synth::sine_mix(8, 24, 2, 4242);
    let config = OnexConfig {
        st: 0.2,
        paa_width: 8,
        ..OnexConfig::default()
    };
    Explorer::build(&data, config).map_err(|e| format!("build: {e}"))
}

/// A series outside the training distribution, distinct per `i`.
fn novel_series(i: usize) -> Result<TimeSeries, String> {
    let amp = 2.0 + i as f64;
    TimeSeries::new(
        (0..24)
            .map(|t| if t % 2 == 0 { amp } else { -amp })
            .collect(),
    )
    .map_err(|e| format!("novel series: {e}"))
}

/// Arms `<point>@1[:torn]` under the harness seed.
fn arm(ctx: &Ctx, point: &str, torn: bool) -> Result<(), String> {
    let mode = if torn { ":torn" } else { "" };
    fault::arm(&format!("seed={},{point}@1{mode}", ctx.seed))
}

/// The injected fault must surface as a typed IO error.
fn expect_io(result: Result<(), OnexError>, op: &str) -> Result<(), String> {
    match result {
        Err(OnexError::Io(_)) => Ok(()),
        Err(e) => Err(format!("{op}: expected an IO error, got {e}")),
        Ok(()) => Err(format!("{op}: the injected fault did not surface")),
    }
}

/// Recovery contract: the reloaded base validates, sits at `epoch`, and
/// answers the equivalence query set byte-identically to `reference`.
fn check_recovery(snap: &Path, reference: &Explorer, epoch: u64) -> Result<(), String> {
    let recovered = Explorer::load(snap).map_err(|e| format!("reload: {e}"))?;
    recovered
        .base()
        .validate_invariants()
        .map_err(|e| format!("post-recovery invariants: {e}"))?;
    if recovered.epoch() != epoch {
        return Err(format!(
            "recovered to epoch {}, expected {epoch}",
            recovered.epoch()
        ));
    }
    if *recovered.base() != *reference.base() {
        return Err("recovered base differs from the never-crashed reference".to_string());
    }
    query_equivalent(&recovered, reference)
}

/// Byte-compares every class I shape over both length modes.
fn query_equivalent(a: &Explorer, b: &Explorer) -> Result<(), String> {
    let q: Vec<f64> = a.base().dataset().series()[0].values()[3..17].to_vec();
    let opts = QueryOptions::default;
    for mode in [MatchMode::Any, MatchMode::Exact(14)] {
        let (ma, mb) = (
            a.best_match(&q, mode, opts()).map_err(|e| e.to_string())?,
            b.best_match(&q, mode, opts()).map_err(|e| e.to_string())?,
        );
        if ma != mb {
            return Err(format!("best_match diverged ({mode:?})"));
        }
        let (ta, tb) = (
            a.top_k(&q, mode, 5, opts()).map_err(|e| e.to_string())?,
            b.top_k(&q, mode, 5, opts()).map_err(|e| e.to_string())?,
        );
        if ta != tb {
            return Err(format!("top_k diverged ({mode:?})"));
        }
        let (wa, wb) = (
            a.within_threshold(&q, mode, true, opts())
                .map_err(|e| e.to_string())?,
            b.within_threshold(&q, mode, true, opts())
                .map_err(|e| e.to_string())?,
        );
        if wa != wb {
            return Err(format!("within_threshold diverged ({mode:?})"));
        }
    }
    Ok(())
}

fn torn_snapshot_write(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let snap = dir.join("snapshot-write.onex");
    let e = explorer()?;
    e.save(&snap).map_err(|x| format!("first save: {x}"))?;
    e.append_series(novel_series(0)?)
        .map_err(|x| format!("append: {x}"))?;
    arm(ctx, fault::SNAPSHOT_WRITE, true)?;
    let torn = e.save(&snap).map(drop);
    fault::disarm();
    expect_io(torn, "torn save")?;
    // The rename never happened: the epoch-0 snapshot must still load.
    check_recovery(&snap, &explorer()?, 0)
}

fn torn_wal_append(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let snap = dir.join("wal-torn.onex");
    let e = explorer()?;
    e.save(&snap).map_err(|x| format!("save: {x}"))?;
    e.attach_wal(wal::sidecar_path(&snap))
        .map_err(|x| format!("attach_wal: {x}"))?;
    e.append_series(novel_series(0)?)
        .map_err(|x| format!("committed append: {x}"))?;
    arm(ctx, fault::WAL_APPEND, true)?;
    let torn = e.append_series(novel_series(1)?).map(drop);
    fault::disarm();
    expect_io(torn, "torn append")?;
    if e.epoch() != 1 {
        return Err(format!("torn op installed anyway (epoch {})", e.epoch()));
    }
    drop(e); // simulated crash
    let reference = explorer()?;
    reference
        .append_series(novel_series(0)?)
        .map_err(|x| format!("reference append: {x}"))?;
    check_recovery(&snap, &reference, 1)
}

fn failed_wal_append(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let snap = dir.join("wal-fail.onex");
    let e = explorer()?;
    e.save(&snap).map_err(|x| format!("save: {x}"))?;
    e.attach_wal(wal::sidecar_path(&snap))
        .map_err(|x| format!("attach_wal: {x}"))?;
    arm(ctx, fault::WAL_APPEND, false)?;
    let failed = e.append_series(novel_series(0)?).map(drop);
    fault::disarm();
    expect_io(failed, "failed append")?;
    // The log holds no record of the failed op; the same op retries
    // cleanly on the same writer.
    e.append_series(novel_series(0)?)
        .map_err(|x| format!("retry: {x}"))?;
    drop(e); // simulated crash
    let reference = explorer()?;
    reference
        .append_series(novel_series(0)?)
        .map_err(|x| format!("reference append: {x}"))?;
    check_recovery(&snap, &reference, 1)
}

fn hot_swap_crash(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let snap = dir.join("hot-swap.onex");
    let e = explorer()?;
    e.save(&snap).map_err(|x| format!("save: {x}"))?;
    e.attach_wal(wal::sidecar_path(&snap))
        .map_err(|x| format!("attach_wal: {x}"))?;
    arm(ctx, fault::HOT_SWAP, false)?;
    let crashed = e.refine_to(0.3).map(drop);
    fault::disarm();
    expect_io(crashed, "hot-swap crash")?;
    if e.epoch() != 0 {
        return Err(format!("crashed op visible live (epoch {})", e.epoch()));
    }
    drop(e); // simulated crash
    let reference = explorer()?;
    reference
        .refine_to(0.3)
        .map_err(|x| format!("reference refine: {x}"))?;
    check_recovery(&snap, &reference, 1)
}

fn worker_panic(ctx: &Ctx, _dir: &Path) -> Result<(), String> {
    // A base wide enough that the striped scans genuinely engage (the
    // parallel-equivalence suite's floor).
    let data = synth::random_walk(48, 24, 0xBEEF);
    let config = OnexConfig {
        st: 0.08,
        paa_width: 8,
        ..OnexConfig::default()
    };
    let e = Explorer::build(&data, config).map_err(|x| format!("build: {x}"))?;
    let widest = e
        .base()
        .indexed_lengths()
        .filter_map(|len| e.base().slab(len).map(|s| s.group_count()))
        .max()
        .unwrap_or(0);
    if widest < 16 {
        return Err(format!("base too narrow to engage striping: {widest}"));
    }
    let q: Vec<f64> = e.base().dataset().series()[0].values()[2..22].to_vec();
    let par = QueryOptions {
        query_threads: Some(4),
        ..QueryOptions::default()
    };
    let req = QueryRequest::TopK {
        values: q,
        mode: MatchMode::Any,
        k: 5,
        options: par,
    };

    // Sequential reference, then the same query with the first spawned
    // worker panicking: results must match exactly and the degradation
    // must be visible in the stats.
    let want = e
        .query(req.clone())
        .map_err(|x| format!("clean query: {x}"))?;
    if want.stats.degraded {
        return Err("clean run reported degraded".to_string());
    }
    arm(ctx, fault::WORKER_SPAWN, false)?;
    let got = e.query(req);
    fault::disarm();
    let got = got.map_err(|x| format!("degraded query: {x}"))?;
    if !got.stats.degraded {
        return Err("a lost worker must be visible in stats".to_string());
    }
    if got.result.matches() != want.result.matches() {
        return Err("degraded query diverged from the sequential answer".to_string());
    }
    Ok(())
}
