//! The one worker pool: a scoped, work-stealing map over independent tasks
//! — one per subsequence length for construction and the load audit, one
//! per request for [`crate::engine::QueryRequest::Batch`].
//!
//! ## Where a worker's memory ends up
//!
//! glibc gives every thread that allocates its own malloc arena, and a
//! freed block goes back to the arena it came from. A slab built on a
//! worker and kept by the base pins that worker's arena: once a rebuild
//! frees it, the memory sits in an arena the caller's later allocations
//! (a snapshot decode, say) cannot reuse. On the benchmark's dense-star
//! corpus (1.24 M subsequences, 2 vCPUs, release build), a process that
//! builds, builds again, drops the second base, saves and loads peaked at
//! 526 MB on one thread and at 702–705 MB with two workers whose slabs
//! stayed where they were built. Inside the benchmark, dense-star's
//! `peak_rss_mb` read 864–874 MB at two such workers, against 718–719 MB
//! on one thread (+21 %).
//!
//! So `per_length` hands each finished result to the caller at once,
//! over a bounded channel, and the caller keeps `home(result)` — for a
//! slab, a clone, which re-allocates it on the caller's thread. The
//! worker's copy is freed straight away and its arena reuses the memory
//! for the next task. With that hand-off the same process peaked at
//! 534–535 MB (+1.5 %), building in 0.54–0.70 s against 1.00–1.22 s on one
//! thread; the clone costs about 0.05 s of that. Inside the benchmark,
//! `peak_rss_mb` read 729–730 MB. Any future fan-out whose
//! workers allocate memory the base keeps must hand it over the same way,
//! and be judged by `peak_rss_mb` pairs, not by time alone.
//!
//! A small base still pays a fixed cost for a thread and its arena, so
//! [`GRAIN`] keeps it on the caller's thread.

use std::sync::{mpsc, Mutex};

/// Subsequences per worker when the worker count is automatic
/// (`OnexConfig::threads == 0`): a per-length pass over `s` subsequences
/// runs on `min(cores, s / GRAIN)` workers, so a base below `2 · GRAIN`
/// subsequences is built and audited on the caller's thread alone.
///
/// Picked from a sweep on a 2-vCPU host (release build, the benchmark's
/// corpora; dense-star's shape cut to fewer series). Each process builds,
/// builds again, drops the second base, saves and loads three times; each
/// cell is the range over two or three processes of the best build, the
/// best load (decode and audit) and the process's `VmHWM`, at one → two
/// workers, hand-off on:
///
/// | corpus | subsequences | build s | load s | `VmHWM` MB |
/// |---|---|---|---|---|
/// | tiny-italy | 18 k | 0.008–0.011 → 0.006–0.017 | 0.005–0.007 → 0.005–0.008 | 9.7 → 12.7–13.4 |
/// | sparse-twopat | 68 k | 0.21–0.28 → 0.13–0.24 | 0.12–0.13 → 0.09–0.12 | 157 → 152–157 |
/// | dense-star, 20 series | 99 k | 0.070–0.096 → 0.051–0.055 | 0.05–0.06 → 0.04–0.05 | 56.6 → 71.2–71.5 |
/// | dense-star, 25 series | 124 k | 0.11–0.13 → 0.06–0.12 | 0.07–0.08 → 0.06 | 84.6 → 84.8–86.1 |
/// | dense-star, 30 series | 149 k | 0.10–0.13 → 0.08–0.11 | 0.06–0.08 → 0.06–0.08 | 97.3 → 97.6–99.3 |
/// | dense-star, 40 series | 198 k | 0.13–0.19 → 0.08–0.10 | 0.08–0.11 → 0.07–0.09 | 122.3 → 123.5–124.0 |
/// | dense-star, 80 series | 396 k | 0.26–0.38 → 0.14–0.19 | 0.19–0.22 → 0.15–0.17 | 176.0 → 176.9–177.3 |
/// | dense-star, 150 series | 743 k | 0.42–0.56 → 0.27–0.31 | 0.30–0.39 → 0.26–0.31 | 317.5 → 321.2–321.9 |
/// | dense-star, 250 series | 1.24 M | 1.00–1.22 → 0.54–0.70 | 0.59–0.66 → 0.49–0.54 | 526.2 → 533.9–534.8 |
///
/// From 124 k subsequences on, two workers cost at most 2 % of peak memory
/// and save up to half the build; below 100 k they save milliseconds and
/// cost up to a quarter of it (a thread's stack and arena against a small
/// heap). Sparse-twopat stays sequential: the probe above shows no rise,
/// but inside the benchmark (seeds 1–3, alternated) two workers took its
/// `peak_rss_mb` from 201–210 to 211–214 MB, against a 5 % bound, while
/// `setup_s` fell from 0.19–0.29 to 0.14–0.15 s.
pub const GRAIN: usize = 60_000;

/// The most workers an explicit thread count starts, per core: honours
/// deliberate oversubscription (four workers on two cores, say) while a
/// count of thousands still starts a handful of threads.
const MAX_PER_CORE: usize = 4;

/// The machine's available parallelism, at least 1.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many workers a pass of `items` tasks runs on. An explicit `threads`
/// is honoured up to `MAX_PER_CORE · cores`; `0` (auto) takes `auto`, at
/// most `cores`. Never more workers than tasks, never fewer than one.
/// A pure function, so that any input can be checked without starting a
/// thread.
pub(crate) fn resolve_workers(threads: usize, auto: usize, items: usize, cores: usize) -> usize {
    let cores = cores.max(1);
    let wanted = if threads > 0 {
        threads.min(cores.saturating_mul(MAX_PER_CORE))
    } else {
        auto.min(cores)
    };
    wanted.min(items).max(1)
}

/// Workers for a per-length pass over `lengths` lengths that hold
/// `subsequences` subsequences in all, under `OnexConfig::threads`: auto
/// grants one worker per [`GRAIN`] subsequences.
pub(crate) fn length_workers(threads: usize, lengths: usize, subsequences: usize) -> usize {
    resolve_workers(threads, subsequences / GRAIN, lengths, cores())
}

/// Runs `work` on every item across `workers` scoped threads and returns
/// the results in item order. Workers take the next unclaimed item as they
/// free up, so one long task does not hold back the rest. With one worker
/// (or one item) everything runs on the caller's thread and `home` is not
/// applied.
///
/// Otherwise every result crosses to the caller as soon as it is done, and
/// the caller keeps `home(result)`: pass a clone for results that allocate
/// memory the caller keeps, so that memory lives in the caller's arena and
/// the worker reuses its own (see the module docs); pass the identity for
/// results that do not.
///
/// A panic in a task re-raises on the caller once every worker has
/// stopped; the other workers finish the items they can claim first.
pub(crate) fn per_length<T, R, W, H>(items: Vec<T>, workers: usize, work: W, mut home: H) -> Vec<R>
where
    T: Send,
    R: Send,
    W: Fn(T) -> R + Sync,
    H: FnMut(R) -> R,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(work).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<(usize, R)>(workers);
        for _ in 0..workers {
            let (tx, queue, work) = (tx.clone(), &queue, &work);
            scope.spawn(move || loop {
                // A sibling that panicked inside `work` held no lock, and
                // `next` cannot panic, so a poisoned queue is still whole.
                let claimed = queue.lock().unwrap_or_else(|p| p.into_inner()).next();
                let Some((i, item)) = claimed else { break };
                if tx.send((i, work(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(home(result));
        }
    });
    // The scope re-raised any worker's panic above, so every item was
    // claimed, finished and received: no slot is empty.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_counts_are_clamped_to_items_and_cores() {
        // Honoured as given when there is room.
        assert_eq!(resolve_workers(4, 0, 100, 2), 4);
        assert_eq!(resolve_workers(1, 9, 100, 64), 1);
        // Never more workers than items.
        assert_eq!(resolve_workers(4, 0, 3, 2), 3);
        assert_eq!(resolve_workers(10_000, 0, 1, 2), 1);
        // Thousands of threads asked for, a handful started: a 10 k-sample
        // series decomposes into 9,999 lengths.
        assert_eq!(resolve_workers(10_000, 0, 9_999, 2), 2 * MAX_PER_CORE);
        assert_eq!(resolve_workers(usize::MAX, 0, usize::MAX, 1), MAX_PER_CORE);
        assert_eq!(
            resolve_workers(usize::MAX, 0, usize::MAX, usize::MAX),
            usize::MAX
        );
    }

    #[test]
    fn auto_is_capped_by_cores_and_grain() {
        assert_eq!(resolve_workers(0, 0, 100, 8), 1);
        assert_eq!(resolve_workers(0, 5, 100, 2), 2);
        assert_eq!(resolve_workers(0, usize::MAX, usize::MAX, 16), 16);
        assert_eq!(resolve_workers(0, 5, 3, 16), 3);
        assert_eq!(resolve_workers(0, 5, 0, 16), 1);
        assert_eq!(resolve_workers(0, 5, 100, 0), 1);
        // The benchmark's corpora at two cores: tiny-italy (18.5 k
        // subsequences) and sparse-twopat (68 k) stay on the caller,
        // dense-star (1.24 M over 99 lengths) takes both cores.
        let auto = |subseqs: usize, lengths: usize| resolve_workers(0, subseqs / GRAIN, lengths, 2);
        assert_eq!(auto(18_492, 23), 1);
        assert_eq!(auto(67_680, 47), 1);
        assert_eq!(auto(1_237_500, 99), 2);
    }

    #[test]
    fn results_come_back_in_item_order_at_any_worker_count() {
        // The first item finishes last, so arrival order is not item order.
        let work = |i: usize| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i * i
        };
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 4] {
            let mut homed = 0;
            let got = per_length((0..37).collect(), workers, work, |r| {
                homed += 1;
                r
            });
            assert_eq!(got, want, "{workers} workers");
            assert_eq!(homed, if workers == 1 { 0 } else { 37 });
        }
        let none: Vec<usize> = per_length(Vec::new(), 4, |i: usize| i, |r| r);
        assert!(none.is_empty());
    }

    #[test]
    fn a_panicking_task_reraises_on_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            per_length(
                (0..8).collect(),
                2,
                |i: usize| {
                    assert_ne!(i, 5, "task 5 fails");
                    i
                },
                |r| r,
            )
        });
        assert!(outcome.is_err());
    }
}
