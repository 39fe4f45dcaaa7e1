//! Intra-query parallelism primitives: scoped worker stripes over one
//! length's group/member scan, plus the shared monotone cutoff that keeps
//! pruning strong across workers.
//!
//! ## Soundness
//!
//! Every prune in the cascade is *strictly greater than* a cutoff, and the
//! shared cutoff only ever decreases toward the true answer (it is lowered
//! exclusively to exact DTW values of evaluated candidates, so at any
//! instant it is an upper bound on the final k-th-best key). A worker that
//! reads a stale — i.e. larger — cutoff therefore prunes *less*, never
//! more: no candidate that belongs in the final answer can be discarded,
//! regardless of scheduling. Survivors carry their exact DTW (early
//! abandonment only returns `None`, never an approximate value), so a
//! deterministic merge of per-worker finalists by `(key, stable rank)`
//! reproduces the sequential scan's answer bit for bit at any worker
//! count. Only the *work* counters (which tier pruned how much) depend on
//! how quickly the cutoff tightened, and those are summed per-worker —
//! never shared — so the aggregate is exact, merely scheduling-dependent
//! above one worker.
//!
//! ## Determinism of the partition
//!
//! Worker `w` of `W` owns stripe positions `w, w + W, w + 2W, …` of the
//! scan order — a pure function of `(units, W)` — and results are merged
//! in worker order, so the only scheduling-dependent quantity in the whole
//! scheme is the cutoff each evaluation happened to see.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Minimum stripe length per worker: scans smaller than
/// `2 × PAR_MIN_STRIPE` units stay sequential, so thread-spawn latency is
/// only paid where a stripe amortizes it. Purely a planning knob — the
/// engaged worker count is a deterministic function of the unit count, and
/// results are byte-identical at any value.
pub(crate) const PAR_MIN_STRIPE: usize = 8;

/// The worker count for a scan of `units` independent units under `p`:
/// `1` (the exact sequential path) unless intra-query parallelism is
/// enabled, the query carries no anytime budget (a deadline or DTW cap
/// makes the truncation point scheduling-dependent, which would break the
/// determinism guarantee — budgeted queries always run sequentially), and
/// every worker gets a stripe of at least [`PAR_MIN_STRIPE`] units.
pub(crate) fn plan_workers(query_threads: usize, budgeted: bool, units: usize) -> usize {
    if query_threads <= 1 || budgeted {
        return 1;
    }
    let w = query_threads.min(units / PAR_MIN_STRIPE);
    if w >= 2 {
        w
    } else {
        1
    }
}

/// Runs `run(w)` for each worker `w in 0..workers` on the
/// [`crate::pool`] and returns the results **in worker order** — the
/// deterministic merge order every striped scan relies on.
///
/// A panic in any worker is **contained**: the pool re-raises it on this
/// thread once every worker has stopped, it is caught here, the payload is
/// dropped, and the call returns `None` with no partial results. Callers
/// must then discard all shared scan state and fall back to the sequential
/// twin — re-running only the dead worker's stripe is unsound, because its
/// surviving siblings already pushed keys into shared structures and a
/// re-run would admit them twice. The sequential re-scan reproduces the
/// answer bit for bit (see the module soundness notes), so a panic costs
/// the fast path, never correctness — and can never poison the `Explorer`.
pub(crate) fn fan_stripes<R, F>(workers: usize, run: F) -> Option<Vec<R>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let stripe = |w: usize| {
        crate::fault::maybe_panic_worker();
        run(w)
    };
    // Unwind-safe in effect: on a panic every caller discards the shared
    // scan state the stripes touched (see above).
    let stripes = std::panic::AssertUnwindSafe(|| {
        crate::pool::per_length((0..workers).collect(), workers, stripe, |r| r)
    });
    std::panic::catch_unwind(stripes).ok()
}

/// A monotone-decreasing cutoff shared across workers, stored as the bit
/// pattern of a **non-negative** `f64` in an `AtomicU64`. For non-negative
/// IEEE-754 doubles (`+∞` included) the bit patterns order exactly like
/// the values, so `fetch_min` on bits is `min` on distances — no CAS loop,
/// no lock. Callers must only ever lower it to exact distances of
/// evaluated candidates (see the module docs for why that keeps every
/// strictly-greater prune sound).
pub(crate) struct SharedCutoff(AtomicU64);

impl SharedCutoff {
    pub(crate) fn new(init: f64) -> Self {
        debug_assert!(
            init >= 0.0,
            "cutoff bits only order for non-negative values"
        );
        SharedCutoff(AtomicU64::new(init.to_bits()))
    }

    /// The current cutoff. A stale (too large) read weakens pruning but
    /// never correctness.
    #[inline]
    pub(crate) fn get(&self) -> f64 {
        // ordering: Relaxed — the cutoff is a monotone pruning hint with
        // no associated data: readers tolerate arbitrarily stale values
        // (they just prune less), so no acquire edge is needed.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the cutoff to `v` if `v` is smaller. `v` must be a
    /// non-negative exact distance.
    #[inline]
    pub(crate) fn lower_to(&self, v: f64) {
        debug_assert!(v >= 0.0, "cutoff bits only order for non-negative values");
        // ordering: Relaxed — publishes a standalone monotone value, not a
        // flag guarding other writes; `fetch_min` keeps concurrent lowers
        // from racing backwards, and staleness is harmless (see `get`).
        self.0.fetch_min(v.to_bits(), Ordering::Relaxed);
    }
}

/// The shared top-k ranking-key set for a striped member scan: the mutex
/// holds the at-most-`k` smallest keys seen (ascending, exactly the
/// sequential scan's `topk_keys`), and the atomic caches the k-th best as
/// a cheap read-side cutoff so the hot path takes the lock only when a
/// candidate actually survived the cascade.
pub(crate) struct SharedTopK {
    keys: Mutex<Vec<f64>>,
    k: usize,
    kth: SharedCutoff,
}

impl SharedTopK {
    /// Seeds the set with keys carried over from earlier lengths (the
    /// any-length scan accumulates across lengths).
    pub(crate) fn new(keys: Vec<f64>, k: usize) -> Self {
        let kth = if keys.len() == k && k > 0 {
            keys[k - 1]
        } else {
            f64::INFINITY
        };
        SharedTopK {
            keys: Mutex::new(keys),
            k,
            kth: SharedCutoff::new(kth),
        }
    }

    /// The current k-th-best key, `+∞` until `k` candidates have been
    /// admitted — identical to the sequential rule that no member-level
    /// cutoff exists until the ranking is full.
    #[inline]
    pub(crate) fn kth(&self) -> f64 {
        self.kth.get()
    }

    /// Admits a survivor's ranking key, mirroring the sequential
    /// insert-then-truncate exactly: ties with the current k-th key are
    /// not admitted (`partition_point` with `<=`), so the key set never
    /// depends on arrival order.
    pub(crate) fn offer(&self, key: f64) {
        let mut keys = self.keys.lock().unwrap_or_else(|p| p.into_inner());
        let pos = keys.partition_point(|&x| x <= key);
        if pos < self.k {
            if keys.len() == self.k {
                keys.pop();
            }
            keys.insert(pos, key);
            if keys.len() == self.k {
                // Serialized by the mutex; fetch_min only defends the
                // cache's monotonicity invariant in depth.
                self.kth.lower_to(keys[self.k - 1]);
            }
        }
    }

    /// Returns the final key set (for carrying into the next length).
    pub(crate) fn into_keys(self) -> Vec<f64> {
        self.keys.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_workers_is_deterministic_and_gated() {
        // Sequential when disabled, budgeted, or too small.
        assert_eq!(plan_workers(1, false, 1_000), 1);
        assert_eq!(plan_workers(8, true, 1_000), 1);
        assert_eq!(plan_workers(8, false, PAR_MIN_STRIPE * 2 - 1), 1);
        // Engages once every worker gets a full stripe, capped by the knob.
        assert_eq!(plan_workers(8, false, PAR_MIN_STRIPE * 2), 2);
        assert_eq!(plan_workers(2, false, 1_000), 2);
        assert_eq!(plan_workers(8, false, PAR_MIN_STRIPE * 4), 4);
    }

    #[test]
    fn shared_cutoff_is_monotone_min() {
        let c = SharedCutoff::new(f64::INFINITY);
        assert!(c.get().is_infinite());
        c.lower_to(5.0);
        assert_eq!(c.get(), 5.0_f64);
        c.lower_to(7.0); // raising is a no-op
        assert_eq!(c.get(), 5.0_f64);
        c.lower_to(0.0);
        assert_eq!(c.get(), 0.0_f64);
    }

    #[test]
    fn fan_stripes_returns_worker_order() {
        let got = fan_stripes(4, |w| w * 10);
        assert_eq!(got, Some(vec![0, 10, 20, 30]));
    }

    #[test]
    fn fan_stripes_contains_a_panicking_worker() {
        // Silence the panicking worker's default backtrace print.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = fan_stripes(4, |w| {
            assert!(w != 2, "injected worker panic");
            w
        });
        std::panic::set_hook(prev);
        // No partial results escape, and the caller thread survives to
        // run the sequential fallback.
        assert_eq!(got, None);
    }

    #[test]
    fn shared_topk_matches_sequential_insertion() {
        let shared = SharedTopK::new(Vec::new(), 3);
        assert!(shared.kth().is_infinite());
        for key in [5.0, 3.0, 9.0, 4.0, 4.0, 1.0] {
            shared.offer(key);
        }
        // Sequential reference: keep the 3 smallest, ties never displace.
        assert_eq!(shared.kth(), 4.0_f64);
        assert_eq!(shared.into_keys(), vec![1.0, 3.0, 4.0]);
    }

    #[test]
    fn shared_topk_seeds_from_carried_keys() {
        let shared = SharedTopK::new(vec![1.0, 2.0], 2);
        assert_eq!(shared.kth(), 2.0_f64);
        shared.offer(1.5);
        assert_eq!(shared.kth(), 1.5_f64);
        assert_eq!(shared.into_keys(), vec![1.0, 1.5]);
    }
}
