//! Deterministic fault injection for the chaos harness.
//!
//! A **fault point** is a named site on a durability or isolation boundary
//! — snapshot temp-file write, WAL record append, query worker spawn,
//! maintenance hot-swap — where the engine asks this module whether to
//! simulate a failure before proceeding. Faults are armed either
//! programmatically ([`arm`]) or through the `ONEX_FAULTS` environment
//! variable (read once per process), and fire **deterministically**: a
//! trigger names a point and the 1-based hit count at which it fires, so
//! the same spec and seed reproduce the same crash bit for bit.
//!
//! ## Spec grammar
//!
//! Comma-separated entries, each either a seed or a trigger:
//!
//! ```text
//! ONEX_FAULTS="seed=7,wal-append@2:torn,worker-spawn@1"
//! ```
//!
//! * `seed=<u64>` — seeds the torn-write length derivation (default 0).
//! * `<point>@<nth>` — the `nth` hit of `point` fails before any bytes
//!   are written (mode `fail`, the default).
//! * `<point>@<nth>:torn` — the `nth` hit writes a seeded strict prefix
//!   of the payload and then fails, simulating a crash mid-write.
//!
//! Points: `snapshot-write`, `wal-append`, `worker-spawn`, `hot-swap`
//! ([`POINTS`]). A malformed `ONEX_FAULTS` value is **ignored with a
//! warning on stderr** — fault injection stays disabled rather than
//! half-armed (the operational-env hardening contract, mirroring
//! `ONEX_QUERY_THREADS`).
//!
//! ## Cost when disabled
//!
//! Nothing is armed by default. Every probe first checks one relaxed
//! atomic flag; with no spec armed that is the entire cost, and no state
//! beyond the flag is ever touched — the robustness layer is work- and
//! result-neutral in production.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fault point: the atomic snapshot writer, before/while writing the temp
/// file (the rename never happens, so the previous snapshot survives).
pub const SNAPSHOT_WRITE: &str = "snapshot-write";
/// Fault point: the WAL writer, before/while appending one record (a torn
/// append leaves a truncated final record for recovery to drop).
pub const WAL_APPEND: &str = "wal-append";
/// Fault point: intra-query worker spawn — a firing trigger panics the
/// worker, exercising the catch-and-retry degradation path.
pub const WORKER_SPAWN: &str = "worker-spawn";
/// Fault point: maintenance install, after the WAL append and before the
/// epoch hot-swap (the journaled op is durable but was never served).
/// Probed only while a WAL is attached: without one there is no journaled
/// op to recover.
pub const HOT_SWAP: &str = "hot-swap";

/// Every registered fault point, in probe order. The chaos harness
/// iterates this list so a new point cannot silently escape coverage.
pub const POINTS: [&str; 4] = [SNAPSHOT_WRITE, WAL_APPEND, WORKER_SPAWN, HOT_SWAP];

/// What a firing trigger does at an IO fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Fail before any bytes are written.
    Fail,
    /// Write a seeded strict prefix of the payload, then fail.
    Torn,
}

/// One armed trigger: fire `action` on the `nth` (1-based) hit of `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Trigger {
    point: usize,
    nth: u64,
    action: Action,
}

/// A parsed `ONEX_FAULTS` spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Plan {
    seed: u64,
    triggers: Vec<Trigger>,
}

/// Armed plan plus per-point hit counters.
#[derive(Debug)]
struct ArmedState {
    plan: Plan,
    hits: [u64; POINTS.len()],
}

/// Fast-path switch: `false` means no plan is armed and probes return
/// immediately without touching [`STATE`].
static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ArmedState>> = Mutex::new(None);
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// The injection a probe decided on (see [`probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injection {
    /// Fail before any bytes are written.
    Fail,
    /// Write exactly `keep` bytes of the payload, then fail.
    Torn {
        /// Seeded strict-prefix length, `<` the payload length.
        keep: usize,
    },
}

/// Whether any fault plan is armed. Reads `ONEX_FAULTS` on first call;
/// afterwards this is a single relaxed atomic load.
#[expect(clippy::print_stderr, reason = "logs a malformed ONEX_FAULTS")]
pub fn armed() -> bool {
    ENV_INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("ONEX_FAULTS") {
            match parse_spec(&spec) {
                Ok(plan) => install(plan),
                Err(msg) => eprintln!(
                    "warning: ONEX_FAULTS={spec:?} is malformed ({msg}); \
                     fault injection stays disabled"
                ),
            }
        }
    });
    // ordering: Relaxed — the flag is a standalone on/off hint; the armed
    // plan itself is read under the STATE mutex, which provides the edge.
    ENABLED.load(Ordering::Relaxed)
}

/// Arms `spec` programmatically (same grammar as `ONEX_FAULTS`), resetting
/// all hit counters. Returns the parse error for a malformed spec and
/// leaves the previous state untouched.
pub fn arm(spec: &str) -> std::result::Result<(), String> {
    let plan = parse_spec(spec)?;
    install(plan);
    Ok(())
}

/// Disarms fault injection entirely and clears all hit counters.
pub fn disarm() {
    let mut state = STATE.lock().unwrap_or_else(|p| p.into_inner());
    *state = None;
    // ordering: Relaxed — see `armed`.
    ENABLED.store(false, Ordering::Relaxed);
}

fn install(plan: Plan) {
    let mut state = STATE.lock().unwrap_or_else(|p| p.into_inner());
    *state = Some(ArmedState {
        plan,
        hits: [0; POINTS.len()],
    });
    // ordering: Relaxed — see `armed`.
    ENABLED.store(true, Ordering::Relaxed);
}

/// Records one hit of `point` and returns the injection to perform, if a
/// trigger fires on this hit. `payload_len` is the number of bytes the
/// caller is about to write (0 at non-IO points); a torn injection keeps a
/// seeded strict prefix of it. Zero-cost when nothing is armed.
pub(crate) fn probe(point: &str, payload_len: usize) -> Option<Injection> {
    if !armed() {
        return None;
    }
    let idx = POINTS.iter().position(|&p| p == point)?;
    let mut state = STATE.lock().unwrap_or_else(|p| p.into_inner());
    let armed_state = state.as_mut()?;
    armed_state.hits[idx] += 1;
    let hit = armed_state.hits[idx];
    let trigger = armed_state
        .plan
        .triggers
        .iter()
        .find(|t| t.point == idx && t.nth == hit)?;
    match trigger.action {
        Action::Fail => Some(Injection::Fail),
        Action::Torn => Some(Injection::Torn {
            keep: torn_keep(armed_state.plan.seed, hit, payload_len),
        }),
    }
}

/// Panics the calling query worker if a `worker-spawn` trigger fires —
/// the injection the catch-and-retry degradation path is tested against.
// This panic exists to prove the worker-isolation path contains it.
#[expect(clippy::panic, reason = "deliberate chaos injection")]
pub(crate) fn maybe_panic_worker() {
    if probe(WORKER_SPAWN, 0).is_some() {
        panic!("injected fault: {WORKER_SPAWN}");
    }
}

/// Deterministic torn-write prefix length: a SplitMix64 mix of the seed
/// and hit count, reduced to a strict prefix of `payload_len` (always at
/// least one byte short, so a torn write is genuinely torn).
fn torn_keep(seed: u64, hit: u64, payload_len: usize) -> usize {
    if payload_len == 0 {
        return 0;
    }
    let mut z = seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % payload_len as u64) as usize
}

/// Parses a fault spec (see the module docs for the grammar). Pure, so the
/// malformed-value fallback is unit-testable without touching the process
/// environment or the armed state.
pub(crate) fn parse_spec(spec: &str) -> std::result::Result<Plan, String> {
    let mut plan = Plan::default();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        if let Some(seed) = entry.strip_prefix("seed=") {
            plan.seed = seed
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("seed {:?} is not a u64", seed.trim()))?;
            continue;
        }
        let (point_name, rest) = entry
            .split_once('@')
            .ok_or_else(|| format!("entry {entry:?} is neither seed=<u64> nor <point>@<nth>"))?;
        let point = POINTS
            .iter()
            .position(|&p| p == point_name.trim())
            .ok_or_else(|| {
                format!(
                    "unknown fault point {:?} (known: {})",
                    point_name.trim(),
                    POINTS.join(", ")
                )
            })?;
        let (nth_str, action) = match rest.split_once(':') {
            None => (rest, Action::Fail),
            Some((n, "fail")) => (n, Action::Fail),
            Some((n, "torn")) => (n, Action::Torn),
            Some((_, mode)) => return Err(format!("unknown fault mode {mode:?} (fail|torn)")),
        };
        let nth = nth_str
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("hit count {:?} is not a u64", nth_str.trim()))?;
        if nth == 0 {
            return Err("hit counts are 1-based; @0 never fires".to_string());
        }
        plan.triggers.push(Trigger { point, nth, action });
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_seeds_triggers_and_modes() {
        let plan =
            parse_spec("seed=42, wal-append@2:torn, worker-spawn@1, hot-swap@3:fail").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.triggers.len(), 3);
        assert_eq!(plan.triggers[0].action, Action::Torn);
        assert_eq!(plan.triggers[0].nth, 2);
        assert_eq!(plan.triggers[1].action, Action::Fail);
        assert_eq!(POINTS[plan.triggers[2].point], HOT_SWAP);
        // The empty spec arms nothing but is well-formed.
        assert_eq!(parse_spec("").unwrap(), Plan::default());
    }

    #[test]
    fn malformed_specs_are_rejected_with_a_reason() {
        for (bad, needle) in [
            ("snapshot-write", "neither seed"),
            ("made-up-point@1", "unknown fault point"),
            ("wal-append@zero", "not a u64"),
            ("wal-append@0", "1-based"),
            ("wal-append@1:maybe", "unknown fault mode"),
            ("seed=minus-one", "not a u64"),
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert!(
                err.contains(needle),
                "spec {bad:?}: error {err:?} must mention {needle:?}"
            );
        }
    }

    #[test]
    fn torn_keep_is_deterministic_and_strictly_partial() {
        for seed in [0u64, 7, 0xDEAD] {
            for hit in 1..=5u64 {
                for len in [1usize, 2, 100, 4096] {
                    let a = torn_keep(seed, hit, len);
                    assert_eq!(a, torn_keep(seed, hit, len), "deterministic");
                    assert!(a < len, "a torn write keeps a strict prefix");
                }
            }
        }
        assert_eq!(torn_keep(7, 1, 0), 0);
    }
}
