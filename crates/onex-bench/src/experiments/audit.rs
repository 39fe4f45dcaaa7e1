//! **Deep invariant audit** — the runtime half of the correctness tooling
//! (the static half is the rustc/clippy lint set). Builds each evaluation
//! dataset at the harness scale and drives the base through the trust
//! boundaries where logic corruption could hide from the snapshot CRC:
//!
//! 1. a fresh build must pass [`OnexBase::validate_invariants`] — slab
//!    strides, member resolution, bit-exact representative / ED / envelope
//!    / sketch recomputes, the group-id directory, and the membership
//!    partition against the decomposition;
//! 2. a snapshot round trip must decode *and* re-validate (every decode
//!    path runs the validator after the CRC);
//! 3. a maintenance cycle (append → refine → remove) must leave every
//!    hot-swapped successor valid.
//!
//! Exits non-zero on the first violation, printing the offending invariant
//! — the `repro audit` CI job runs this next to the static pass.

use super::Ctx;
use crate::harness::{self, build_timed, fmt_secs};
use onex_core::engine::Explorer;
use onex_core::{snapshot, OnexBase};
use onex_ts::synth::PaperDataset;
use onex_ts::TimeSeries;
use std::time::Instant;

/// Runs the audit over every evaluation dataset; returns `false` when any
/// invariant fails (the caller turns that into a non-zero exit).
pub fn run(ctx: &Ctx) -> bool {
    println!("\n== Deep invariant audit (scale {}) ==\n", ctx.scale);
    let widths = [12, 9, 8, 11, 11, 11];
    let mut table = harness::Table::new(
        "audit",
        &[
            "dataset",
            "groups",
            "members",
            "build",
            "round-trip",
            "lifecycle",
        ],
        &widths,
    );
    let mut ok = true;
    for ds in PaperDataset::EVALUATION {
        let data = ds.generate_scaled(ctx.scale, ctx.seed);
        let (base, _) = build_timed(&data, ctx.config());
        let stats = base.stats();
        let build = check(ds.name(), "fresh build", || base.validate_invariants());
        let round_trip = check(ds.name(), "snapshot round trip", || {
            snapshot::decode(&snapshot::encode(&base)).map(drop)
        });
        let lifecycle = check(ds.name(), "maintenance cycle", || lifecycle_audit(&base));
        ok &= build.is_some() && round_trip.is_some() && lifecycle.is_some();
        table.row(vec![
            ds.name().to_string(),
            format!("{}", stats.representatives),
            format!("{}", stats.subsequences),
            build.unwrap_or_else(|| "FAIL".into()),
            round_trip.unwrap_or_else(|| "FAIL".into()),
            lifecycle.unwrap_or_else(|| "FAIL".into()),
        ]);
    }
    table.finish(ctx.csv());
    if ok {
        println!("\naudit: every invariant holds across builds, snapshots and maintenance");
    } else {
        println!("\naudit: INVARIANT VIOLATIONS FOUND (see messages above)");
    }
    ok
}

/// Appends a synthetic series, refines to a looser threshold and back, and
/// removes the appended series — validating the live base after each
/// hot-swap (release builds skip the engine's debug-only hook, so the
/// audit calls the validator explicitly).
fn lifecycle_audit(base: &OnexBase) -> onex_core::Result<()> {
    let explorer = Explorer::from_base(base.clone());
    let probe: Vec<f64> = (0..12).map(|i| (i as f64 * 0.37).fract()).collect();
    let appended = explorer.append_series(TimeSeries::new(probe)?)?;
    explorer.base().validate_invariants()?;
    let st = base.config().st;
    explorer.refine_to(st * 1.5)?;
    explorer.base().validate_invariants()?;
    explorer.refine_to(st)?;
    explorer.base().validate_invariants()?;
    explorer.remove_series(appended)?;
    explorer.base().validate_invariants()?;
    Ok(())
}

/// Times one audit step, printing the violation when it fails; `Some` holds
/// the formatted duration for the table.
fn check<T>(dataset: &str, step: &str, f: impl FnOnce() -> onex_core::Result<T>) -> Option<String> {
    let t0 = Instant::now();
    match f() {
        Ok(_) => Some(fmt_secs(t0.elapsed().as_secs_f64())),
        Err(e) => {
            eprintln!("audit failure [{dataset} / {step}]: {e}");
            None
        }
    }
}
