//! The per-layer metrics of a traced run: one probe per layer (the repo's
//! modules), each inside its own span. Counts come from `QueryStats` at one
//! worker and repeat exactly; timings are best-of-repeats and
//! informational — nothing here is gated.

use crate::json::Metric;
use crate::oracle;
use crate::run::{
    drain, engine_config, matches, one_worker, request, timed, Bench, Class, Kind, Samples, Tally,
    BAND_RATIO, DTW_TOLERANCE,
};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{SplitMix64, TOP_K};
use onex::baselines::{BruteForce, PaaSearch, Trillion};
use onex::core::snapshot::{decode_with_epoch, encode_with_epoch};
use onex::core::BaseStats;
use onex::dist::{self, Envelope};
use onex::{Decomposition, Explorer, OnexBase, QueryOptions, QueryRequest, QueryStats, Window};
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;

/// Repeats of a probe's query passes and maintenance ops.
const REPEATS: usize = 3;
/// Length of the fixed inputs the kernels and the canary run on.
const KERNEL_LEN: usize = 128;
/// DTW evaluations per canary sample.
const CANARY_DTWS: usize = 200;
/// Bytes the canary copies.
const CANARY_COPY: usize = 64 << 20;

/// What the recovery check handed over for the `wal` layer.
pub struct Recovery {
    pub recover_s: f64,
    pub wal_bytes: u64,
    pub ops: usize,
}

fn fixed_input(seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..KERNEL_LEN).map(|_| rng.unit()).collect()
}

/// Best-of-5 seconds per call of `f`, `calls` calls per batch.
fn per_call<T>(calls: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut batch = || timed(|| (0..calls).for_each(|_| drop(black_box(f())))).0;
    (0..5).map(|_| batch()).fold(f64::INFINITY, f64::min) / calls as f64
}

/// Smallest of `REPEATS` timings of `f`.
fn best_of(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPEATS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// The `machine.*` canary, once per traced round: a benchmark-owned DTW
/// loop and a 64 MiB copy. A median well above the minimum (× 1.3) marks a
/// noisy run; end-to-end numbers are never divided by it.
pub fn canary(s: &mut Samples) {
    let (x, y) = (fixed_input(1), fixed_input(2));
    let dtws = || -> f64 {
        let one = |_| oracle::dtw(black_box(&x), &y, BAND_RATIO);
        (0..CANARY_DTWS).map(one).sum()
    };
    s.calib_dtw.push(timed(|| black_box(dtws())).0);
    if s.memcpy_buf.is_empty() {
        s.memcpy_buf = vec![1u8; 2 * CANARY_COPY];
    }
    let (src, dst) = s.memcpy_buf.split_at_mut(CANARY_COPY);
    let copy = || black_box(dst).copy_from_slice(black_box(src));
    s.memcpy.push(timed(copy).0);
}

/// Cells a banded DTW fills for two `n`-point inputs at half-width `r`.
fn band_cells(n: usize, r: usize) -> usize {
    let row = |i: usize| (i + r).min(n) - i.saturating_sub(r).max(1) + 1;
    (1..=n).map(row).sum()
}

/// p50 latencies (seconds) of one query pass under other options and under
/// the defaults, measured in alternation so that machine drift between the
/// rounds and the probe cannot pass for a difference.
struct Paired {
    alt: f64,
    default: f64,
    /// `"<queries>x<repeats>"` of either side.
    count: String,
}

/// What every probe needs: the run, its failure tally, the tracer and the
/// metrics so far.
struct Probe<'a> {
    b: &'a Bench<'a>,
    tally: &'a mut Tally,
    tr: &'a mut Tracer,
    out: Vec<Metric>,
}

impl Probe<'_> {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, n: impl ToString) {
        self.out.push(Metric::new(name, value, unit, n));
    }

    /// Runs `f` inside a span named `span`.
    fn layer(&mut self, span: &'static str, f: impl FnOnce(&mut Self)) {
        let open = self.tr.enter(span);
        f(self);
        self.tr.exit(open);
    }

    /// `REPEATS` alternating passes of `like`'s first queries (see
    /// [`Class::variant`]) under `options` and under the defaults. The answers must stay byte-identical to
    /// `like`'s: the engine's promise for every pruning, index and
    /// threading knob.
    fn paired(&mut self, like: &Class, span: &'static str, options: QueryOptions) -> Paired {
        let mut alt = like.variant(span, options);
        let mut default = like.variant("engine.query.default", one_worker());
        for _ in 0..REPEATS {
            default.pass(&self.b.first, self.tr, self.tally);
            alt.pass(&self.b.first, self.tr, self.tally);
        }
        Paired {
            alt: alt.best.percentile(50.0),
            default: default.best.percentile(50.0),
            count: alt.best.count(),
        }
    }

    /// Pushes `paired`'s `alt` p50 as `name`, in µs.
    fn ablation(&mut self, name: &'static str, like: &Class, span: &'static str, o: QueryOptions) {
        let p = self.paired(like, span, o);
        let n = format!("{}; default {:.3} alongside", p.count, p.default * 1e6);
        self.push(name, p.alt * 1e6, "us", n);
    }
}

fn build_and_store(p: &mut Probe, base: &OnexBase, build: &[f64], base_rss_mb: f64) {
    let (subseqs, groups) = (p.b.subsequences as f64, p.b.groups as f64);
    p.push(
        "build.subseq_per_s",
        subseqs / stats::min(build),
        "1/s",
        build.len(),
    );
    p.push("build.groups", groups, "count", 1);
    p.push("build.members_per_group", subseqs / groups, "count", 1);
    let footprint = p.b.first.footprint();
    let clone_s = best_of(|| timed(|| OnexBase::clone(base)).0);
    p.push("store.base_rss_mb", base_rss_mb, "MB", 1);
    p.push(
        "store.footprint_bytes_per_subseq",
        footprint.total_bytes() as f64 / subseqs,
        "B",
        1,
    );
    p.push(
        "store.allocations",
        footprint.allocations() as f64,
        "count",
        1,
    );
    p.push("store.clone_ms", clone_s * 1e3, "ms", REPEATS);
}

/// Direct kernel calls on fixed 128-point inputs.
fn dist_kernels(p: &mut Probe) {
    let (x, y) = (fixed_input(1), fixed_input(2));
    let window = Window::Ratio(BAND_RATIO);
    let r = window.resolve(KERNEL_LEN, KERNEL_LEN);
    let env = Envelope::build(&y, r);
    let per_elem = 1e9 / KERNEL_LEN as f64;
    let ed = per_call(20_000, || dist::ed(black_box(&x), black_box(&y)));
    let keogh = per_call(20_000, || dist::lb_keogh(black_box(&x), &env));
    let paa = per_call(20_000, || dist::paa(black_box(&x), 16));
    let envelope = per_call(5_000, || Envelope::build(black_box(&y), r));
    let dtw = per_call(1_000, || dist::dtw(black_box(&x), black_box(&y), window));
    p.push("dist.ed_ns_per_elem", ed * per_elem, "ns", "5x20000");
    p.push(
        "dist.lb_keogh_ns_per_elem",
        keogh * per_elem,
        "ns",
        "5x20000",
    );
    p.push("dist.paa_ns_per_elem", paa * per_elem, "ns", "5x20000");
    p.push(
        "dist.envelope_ns_per_elem",
        envelope * per_elem,
        "ns",
        "5x5000",
    );
    p.push(
        "dist.dtw_ns_per_cell",
        dtw * 1e9 / band_cells(KERNEL_LEN, r) as f64,
        "ns",
        "5x1000",
    );
}

/// Exact work counters per query, then the ablations `QueryOptions` allows
/// from outside.
fn cascade(p: &mut Probe, best: &Class, top_k: &Class, range: &Class) {
    let (bm, tk, rg) = (best.counters, top_k.counters, range.counters);
    let (n, n_range) = (best.len() as f64, range.len() as f64);
    let per_query = [
        ("cascade.best_match.dtw_evals_per_q", bm.dtw_evals, n),
        (
            "cascade.best_match.groups_visited_per_q",
            bm.groups_visited,
            n,
        ),
        ("cascade.best_match.pruned_paa_per_q", bm.pruned_paa, n),
        ("cascade.best_match.pruned_kim_per_q", bm.pruned_kim, n),
        (
            "cascade.best_match.pruned_keogh_eq_per_q",
            bm.pruned_keogh_eq,
            n,
        ),
        (
            "cascade.best_match.pruned_keogh_ec_per_q",
            bm.pruned_keogh_ec,
            n,
        ),
        (
            "cascade.best_match.early_abandons_per_q",
            bm.early_abandons,
            n,
        ),
        ("cascade.top_k.dtw_evals_per_q", tk.dtw_evals, n),
        (
            "cascade.top_k.members_examined_per_q",
            tk.members_examined,
            n,
        ),
        (
            "cascade.top_k.members_lb_pruned_per_q",
            tk.members_lb_pruned,
            n,
        ),
        ("cascade.top_k.pruned_paa_per_q", tk.pruned_paa, n),
        ("cascade.top_k.pruned_kim_per_q", tk.pruned_kim, n),
        ("cascade.top_k.pruned_keogh_eq_per_q", tk.pruned_keogh_eq, n),
        ("cascade.top_k.early_abandons_per_q", tk.early_abandons, n),
        ("cascade.range.dtw_evals_per_q", rg.dtw_evals, n_range),
        (
            "cascade.range.lb_keogh_evals_per_q",
            rg.lb_keogh_evals,
            n_range,
        ),
    ];
    for (name, count, queries) in per_query {
        p.push(name, count as f64 / queries, "count", queries);
    }
    let prune_rate =
        |c: &QueryStats| 100.0 * c.lb_prunes as f64 / (c.lb_prunes + c.dtw_evals).max(1) as f64;
    p.push("cascade.best_match.prune_rate_pct", prune_rate(&bm), "%", n);
    p.push("cascade.top_k.prune_rate_pct", prune_rate(&tk), "%", n);

    let no_cascade = QueryOptions {
        cascade: false,
        ..one_worker()
    };
    let unpruned = QueryOptions {
        lb_pruning: false,
        ..one_worker()
    };
    let on = "engine.query.cascade_off";
    p.ablation("cascade.off.best_match_p50_us", best, on, no_cascade);
    p.ablation("cascade.off.top_k_p50_us", top_k, on, no_cascade);
    let on = "engine.query.unpruned";
    p.ablation("cascade.unpruned.best_match_p50_us", best, on, unpruned);
    p.ablation("cascade.unpruned.top_k_p50_us", top_k, on, unpruned);
}

fn symindex(p: &mut Probe, best: &Class, base_stats: &BaseStats) {
    let (c, n) = (best.counters, best.len() as f64);
    let pct = |part: usize, whole: usize| 100.0 * part as f64 / whole.max(1) as f64;
    let skipped = pct(c.groups_skipped_by_index, c.groups_visited);
    p.push("symindex.groups_skipped_pct", skipped, "%", n);
    p.push(
        "symindex.fallback_pct",
        pct(c.index_fallbacks, c.lengths_visited),
        "%",
        n,
    );
    p.push(
        "symindex.probes_per_q",
        c.index_probes as f64 / n,
        "count",
        n,
    );
    let bytes = base_stats.symindex_bytes as f64 / p.b.subsequences as f64;
    p.push("symindex.bytes_per_subseq", bytes, "B", 1);
    let no_index = QueryOptions {
        symindex: false,
        ..one_worker()
    };
    p.ablation(
        "symindex.off.best_match_p50_us",
        best,
        "engine.query.symindex_off",
        no_index,
    );
}

/// The same passes striped over every core.
fn par(p: &mut Probe, best: &Class, range: &Class, nproc: usize) {
    let striped = QueryOptions {
        query_threads: Some(nproc),
        ..QueryOptions::default()
    };
    let workers = format!("{nproc} workers vs 1");
    let r = p.paired(range, "engine.query.striped", striped);
    p.push("par.range_speedup_x", r.default / r.alt, "x", &workers);
    let bm = p.paired(best, "engine.query.striped", striped);
    p.push(
        "par.best_match_overhead_us",
        (bm.alt - bm.default) * 1e6,
        "us",
        &workers,
    );
}

/// The all-pairs loop: every in-dataset query as one `Batch`.
fn batch(p: &mut Probe, nproc: usize) {
    let in_dataset = p.b.queries.iter().filter(|q| q.in_dataset);
    let requests: Vec<QueryRequest> = in_dataset
        .map(|q| request(Kind::Best, q, one_worker()))
        .collect();
    let qps = |p: &mut Probe, threads: usize| {
        let secs = best_of(|| {
            let batch = QueryRequest::Batch {
                requests: requests.clone(),
                threads,
            };
            let (secs, response) = timed(|| p.b.first.query(batch));
            let children = response.as_ref().ok().and_then(|r| r.result.batch());
            let answered = children.is_some_and(|c| c.iter().all(Result::is_ok));
            p.tally
                .check(answered, || format!("batch at {threads} thread(s)"));
            secs
        });
        requests.len() as f64 / secs
    };
    let (t1, tn) = (qps(p, 1), qps(p, nproc));
    p.push(
        "batch.allpairs_qps_t1",
        t1,
        "1/s",
        format!("{}x{REPEATS}", requests.len()),
    );
    p.push(
        "batch.allpairs_qps_tN",
        tn,
        "1/s",
        format!("{nproc} threads"),
    );
}

/// Wall seconds `clients` closed-loop clients take to drain one round's
/// query passes through one ticket counter.
fn drained(p: &mut Probe, passes: &[&Class], clients: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let (secs, tallies) = timed(|| {
        std::thread::scope(|scope| {
            let client = || scope.spawn(|| drain(passes, &p.b.first, &next));
            let clients: Vec<_> = (0..clients).map(|_| client()).collect();
            let join =
                |c: std::thread::ScopedJoinHandle<Tally>| c.join().expect("a client panicked");
            clients.into_iter().map(join).collect::<Vec<Tally>>()
        })
    });
    tallies.iter().for_each(|t| p.tally.add(t));
    secs
}

/// What a request costs before any scan starts, and what a second client
/// costs the first.
fn engine(p: &mut Probe, passes: &[&Class], nproc: usize) {
    let clients = nproc.min(2);
    let (mut alone, mut together) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPEATS {
        alone = alone.min(drained(p, passes, 1));
        together = together.min(drained(p, passes, clients));
    }
    let requests: usize = passes.iter().map(|c| c.len()).sum();
    let n = format!("{requests}x{REPEATS}, {clients} clients vs 1, alternated");
    p.push("engine.client_scaling_x", alone / together, "x", n);

    let first = &p.b.first;
    let dispatch = per_call(2_000, || first.query(QueryRequest::recommend(None, None)));
    let pin = per_call(100_000, || first.pin());
    let seasonal = QueryRequest::seasonal_all(p.b.spec.len / 2, 2);
    let seasonal = per_call(1, || first.query(seasonal.clone()));
    p.push("engine.dispatch_ns", dispatch * 1e9, "ns", "5x2000");
    p.push("engine.pin_ns", pin * 1e9, "ns", "5x100000");
    p.push("engine.seasonal_us", seasonal * 1e6, "us", "5x1");
}

fn snapshot(p: &mut Probe, base: &OnexBase, save: &[f64], snapshot_bytes: u64) {
    let encodes = (0..REPEATS).map(|_| timed(|| encode_with_epoch(base, 0)));
    let (encode_s, bytes) = encodes
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("REPEATS > 0");
    // Not `==`: `query_threads` is not persisted and the byte counts follow
    // Vec capacities.
    let shape = |s: BaseStats| (s.representatives, s.subsequences, s.lengths);
    let decode_s = best_of(|| {
        let (secs, decoded) = timed(|| decode_with_epoch(&bytes));
        let same =
            decoded.is_ok_and(|(d, epoch)| epoch == 0 && shape(d.stats()) == shape(base.stats()));
        p.tally.check(same, || "decoded base differs".into());
        secs
    });
    let validate_s = best_of(|| {
        let (secs, valid) = timed(|| base.validate_invariants());
        p.tally
            .check(valid.is_ok(), || format!("validate_invariants: {valid:?}"));
        secs
    });
    p.push("snapshot.encode_s", encode_s, "s", REPEATS);
    p.push(
        "snapshot.write_s",
        stats::min(save) - encode_s,
        "s",
        save.len(),
    );
    p.push("snapshot.decode_s", decode_s, "s", REPEATS);
    p.push("snapshot.validate_s", validate_s, "s", REPEATS);
    p.push("snapshot.bytes", snapshot_bytes as f64, "B", 1);
    // Every save goes to the checkout's disk; this is the slowest of them,
    // where `save_s` is the fastest.
    let slowest = save.iter().copied().fold(f64::NAN, f64::max);
    p.push("snapshot.disk_save_s", slowest, "s", save.len());
}

/// The same append with and without a journal, in alternation, then one
/// refinement each way from the built ST — tightening first would leave a
/// split base whose re-merge is a different, far slower operation
/// (sparse-twopat: 0.3 s from ST 0.2, 94 s from 0.15).
fn maintain(p: &mut Probe, wal: &Recovery, load: &[f64], remove: &[f64]) {
    let build = || Explorer::build(&p.b.inputs.data, engine_config()).expect("the base builds");
    let scratch = build();
    let journal = p.b.scratch.snapshot().with_extension("probe.wal");
    let series = &p.b.inputs.appends[0];
    let (mut plain_s, mut journaled_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPEATS {
        for journaled in [false, true] {
            let attached = if journaled {
                scratch.attach_wal(&journal)
            } else {
                Ok(())
            };
            let open = p.tr.enter("maintain.append_series");
            let (secs, index) = timed(|| scratch.append_series(series.clone()));
            p.tr.exit(open);
            let best = if journaled {
                &mut journaled_s
            } else {
                &mut plain_s
            };
            *best = best.min(secs);
            let removed = index.and_then(|i| scratch.remove_series(i));
            scratch.detach_wal();
            let ok = attached.is_ok() && removed.is_ok();
            p.tally.check(ok, || {
                format!("append/remove, journal {journaled}: {removed:?}")
            });
        }
    }
    let open = p.tr.enter("refine.refine_to");
    let (tighten_s, tightened) = timed(|| scratch.refine_to(0.15));
    p.tr.exit(open);
    drop(scratch);
    let scratch = build();
    let open = p.tr.enter("refine.refine_to");
    let (loosen_s, loosened) = timed(|| scratch.refine_to(0.25));
    p.tr.exit(open);
    let ok = tightened.is_ok() && loosened.is_ok();
    p.tally
        .check(ok, || format!("refine_to: {tightened:?} {loosened:?}"));

    let alternated = format!("{REPEATS} alternated with {REPEATS}");
    p.push(
        "wal.append_overhead_ms",
        (journaled_s - plain_s) * 1e3,
        "ms",
        alternated,
    );
    p.push(
        "wal.bytes_per_op",
        wal.wal_bytes as f64 / wal.ops as f64,
        "B",
        wal.ops,
    );
    let replay_s = (wal.recover_s - stats::min(load)) / wal.ops as f64;
    p.push("wal.replay_ms_per_op", replay_s * 1e3, "ms", wal.ops);
    p.push("wal.recover_s", wal.recover_s, "s", 1);
    p.push("maintain.append_nowal_ms", plain_s * 1e3, "ms", REPEATS);
    p.push(
        "maintain.remove_ms",
        stats::min(remove) * 1e3,
        "ms",
        remove.len(),
    );
    p.push("refine.tighten_ms", tighten_s * 1e3, "ms", 1);
    p.push("refine.loosen_ms", loosen_s * 1e3, "ms", 1);
}

/// The paper's comparators on the oracle queries, exact length.
fn baselines(p: &mut Probe, base: &OnexBase, nearest: &[Vec<f64>]) {
    let (data, window) = (base.dataset(), Window::Ratio(BAND_RATIO));
    let mut brute = BruteForce::new(data, window, Decomposition::full(), true);
    let mut trillion = Trillion::new(data, window);
    let mut paa = PaaSearch::new(data, window, Decomposition::full(), 4);
    let (mut brute_s, mut trillion_s, mut paa_s) = (0.0, 0.0, 0.0);
    for (q, near) in p.b.oracle_queries.iter().zip(nearest) {
        let (secs, found) = timed(|| brute.best_match_same_length(&q.values));
        brute_s += secs;
        let agrees = found.is_some_and(|m| (m.raw_dtw - near[0]).abs() <= DTW_TOLERANCE);
        p.tally.check(agrees, || {
            format!("brute force {found:?} vs oracle {}", near[0])
        });
        trillion_s += timed(|| black_box(trillion.best_match(&q.values))).0;
        paa_s += timed(|| black_box(paa.best_match_same_length(&q.values))).0;
    }
    let mut engine =
        p.b.oracle_class("engine.query.best_match_exact", Kind::BestExact);
    for _ in 0..REPEATS {
        engine.pass(&p.b.first, p.tr, p.tally);
    }
    let n = nearest.len() as f64;
    let engine_s = stats::mean(&engine.best.mins());
    p.push("baselines.brute_ms_per_q", brute_s / n * 1e3, "ms", n);
    p.push("baselines.trillion_ms_per_q", trillion_s / n * 1e3, "ms", n);
    p.push("baselines.paa_ms_per_q", paa_s / n * 1e3, "ms", n);
    p.push(
        "baselines.speedup_vs_trillion_x",
        trillion_s / n / engine_s,
        "x",
        n,
    );
    p.push(
        "baselines.speedup_vs_brute_x",
        brute_s / n / engine_s,
        "x",
        n,
    );
}

fn quality(p: &mut Probe, nearest: &[Vec<f64>], pairs: &[(f64, f64)]) {
    let relative = |&(engine, optimum): &(f64, f64)| {
        if engine > 0.0 {
            (engine - optimum) / engine
        } else {
            0.0
        }
    };
    let rel: Vec<f64> = pairs.iter().map(relative).collect();
    let hits = pairs.iter().filter(|(e, o)| e - o <= DTW_TOLERANCE).count();
    let mut recalled = 0;
    for (q, near) in p.b.oracle_queries.iter().zip(nearest) {
        let response = p.b.first.query(request(Kind::TopK, q, one_worker()));
        let kth = near.last().copied().unwrap_or(f64::INFINITY);
        let within = |r: &onex::QueryResponse| {
            let near_enough = |m: &&onex::Match| m.raw_dtw <= kth + DTW_TOLERANCE;
            matches(&r.result).iter().filter(near_enough).count()
        };
        recalled += response.as_ref().map_or(0, within);
    }
    let n = pairs.len() as f64;
    p.push("quality.rel_error_pct", stats::mean(&rel) * 100.0, "%", n);
    p.push("quality.exact_hit_pct", hits as f64 / n * 100.0, "%", n);
    let recall = recalled as f64 / (n * TOP_K as f64);
    p.push("quality.top_k_recall_pct", recall * 100.0, "%", n);
}

/// The best-match pass with the spans on and off, in alternation.
fn trace_overhead(p: &mut Probe, best: &Class) {
    let mut traced = best.variant("engine.query.best_match", one_worker());
    let mut untraced = best.variant("", one_worker());
    for _ in 0..REPEATS {
        traced.pass(&p.b.first, p.tr, p.tally);
        p.tr.on = false;
        untraced.pass(&p.b.first, p.tr, p.tally);
        p.tr.on = true;
    }
    let (on, off) = (traced.best.percentile(50.0), untraced.best.percentile(50.0));
    let n = format!("{} alternated", traced.best.count());
    p.push("trace.overhead_pct", (on - off) / off * 100.0, "%", n);
}

/// Measures every layer; returns the per-layer metrics in `BENCHMARK.json`
/// order (`trace.spans` is appended by the caller once the root closes).
pub fn measure(
    b: &Bench,
    s: &mut Samples,
    tr: &mut Tracer,
    nearest: &[Vec<f64>],
    pairs: &[(f64, f64)],
    base_rss_mb: f64,
    wal: Recovery,
) -> Vec<Metric> {
    let (best, top_k, range) = (&s.best, &s.top_k, &s.range);
    let base = b.first.base();
    let base_stats = base.stats();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut p = Probe {
        b,
        tally: &mut s.tally,
        tr,
        out: Vec::new(),
    };
    p.layer("store.clone", |p| {
        build_and_store(p, &base, &s.build, base_rss_mb)
    });
    p.layer("dist.kernels", dist_kernels);
    p.layer("cascade.ablations", |p| cascade(p, best, top_k, range));
    p.layer("symindex.off", |p| symindex(p, best, &base_stats));
    p.layer("par.striped", |p| par(p, best, range, nproc));
    p.layer("batch.allpairs", |p| batch(p, nproc));
    p.layer("engine.dispatch", |p| {
        engine(p, &[best, top_k, range], nproc)
    });
    p.layer("snapshot.codec", |p| {
        snapshot(p, &base, &s.save, s.snapshot_bytes)
    });
    p.layer("maintain.scratch", |p| {
        maintain(p, &wal, &s.load, &s.remove)
    });
    p.layer("baselines.search", |p| baselines(p, &base, nearest));
    p.layer("quality.recall", |p| quality(p, nearest, pairs));
    p.layer("trace.overhead", |p| trace_overhead(p, best));

    let (dtw, copy) = (&s.calib_dtw, &s.memcpy);
    p.push(
        "machine.calib_dtw_min_ms",
        stats::min(dtw) * 1e3,
        "ms",
        dtw.len(),
    );
    p.push(
        "machine.calib_dtw_med_ms",
        stats::median(dtw) * 1e3,
        "ms",
        dtw.len(),
    );
    let gb_per_s = CANARY_COPY as f64 / stats::min(copy) / 1e9;
    p.push("machine.memcpy_gb_per_s", gb_per_s, "GB/s", copy.len());
    p.out
}
