//! One workload, one process: set-up, oracle, interleaved rounds, checks,
//! and the end-to-end metrics. The traced run (`--trace 1`) goes through
//! the same code with spans switched on and [`crate::layers`] appended.
//!
//! Timing rule: a round is best-match pass → top-k pass → range pass, plus
//! one lifecycle rep (build, save, load + first answer, journaled append,
//! remove) on every `lifecycle_every`-th round. The workload fixes the
//! number of rounds; `--seconds` only caps them. Every sample keeps the
//! minimum over its repeats; percentiles are then taken across the queries.

use crate::json::Metric;
use crate::stats::{self, BestOf};
use crate::trace::{self, Tracer};
use crate::workload::{
    self, Inputs, Query, Spec, CORPUS_SEED, ORACLE_QUERIES, QUERIES, RANGE_QUERIES, TOP_K,
};
use crate::{layers, oracle};
use onex::core::wal::sidecar_path;
use onex::{
    Explorer, Match, MatchMode, OnexConfig, QueryOptions, QueryRequest, QueryResponse, QueryResult,
    QueryStats, TimeSeries,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The one band the engine default and the oracle share: `Window::Ratio(0.1)`.
pub const BAND_RATIO: f64 = 0.1;
/// Tolerance when the engine's DTW meets the oracle's recomputation.
pub const DTW_TOLERANCE: f64 = 1e-9;
/// Rounds of a traced run: spans are kept in memory and the counters repeat
/// exactly, so more rounds would only add spans.
const TRACED_ROUNDS: usize = 3;
/// Rounds under `--quick`.
const QUICK_ROUNDS: usize = 2;
/// Queries a probe of the traced run compares two settings on: the first
/// 240 of a pass. Both settings run alongside on the same queries, so the
/// comparison does not need the pass's full sample.
const PROBE_QUERIES: usize = 240;
/// Maintenance ops journaled, then replayed, by the recovery check: enough
/// for an append, an append and a remove; a traced run journals more so
/// that `wal.replay_ms_per_op` averages over them.
const JOURNALED_OPS: usize = 3;
const TRACED_JOURNALED_OPS: usize = 8;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Upper cap on the rounds' wall time; a run that hits it says so.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The fixed engine set-up: defaults, one scan worker per query (striping
/// is measured as a layer, never end to end — README, "Fixed set-up").
pub fn engine_config() -> OnexConfig {
    OnexConfig {
        query_threads: 1,
        ..OnexConfig::default()
    }
}

/// Per-query options. A loaded snapshot forgets `query_threads`, so every
/// request pins it.
pub fn one_worker() -> QueryOptions {
    QueryOptions {
        query_threads: Some(1),
        ..QueryOptions::default()
    }
}

/// Operations attempted and failed — an engine error or a failed check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED: {}", what());
            }
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// A field of `/proc/self/status` in MB (`VmRSS`, `VmHWM`); `NaN` off Linux.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with(field));
    let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch directory for the snapshot and its journal, inside the checkout
/// (the benchmark writes nowhere else) and removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Self {
        let dir = crate::out_dir().join(format!("scratch-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// The one snapshot file every lifecycle rep rewrites.
    pub fn snapshot(&self) -> PathBuf {
        self.0.join("base.onex")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The Class I request shapes the benchmark issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `BestMatch`, `MatchMode::Any`.
    Best,
    /// `BestMatch`, `Exact(len)` — what the oracle can verify.
    BestExact,
    /// `TopK`, k = 10, `Exact(len)`.
    TopK,
    /// `WithinThreshold`, `verify: true`, `Exact(len)`, the base's ST.
    Range,
}

pub fn request(kind: Kind, q: &Query, options: QueryOptions) -> QueryRequest {
    let (values, exact) = (q.values.clone(), MatchMode::Exact(q.values.len()));
    match kind {
        Kind::Best => QueryRequest::BestMatch {
            values,
            mode: MatchMode::Any,
            options,
        },
        Kind::BestExact => QueryRequest::BestMatch {
            values,
            mode: exact,
            options,
        },
        Kind::TopK => QueryRequest::TopK {
            values,
            mode: exact,
            k: TOP_K,
            options,
        },
        Kind::Range => QueryRequest::WithinThreshold {
            values,
            mode: exact,
            verify: true,
            options,
        },
    }
}

pub fn matches(result: &QueryResult) -> &[Match] {
    match result {
        QueryResult::BestMatch(m) => std::slice::from_ref(m),
        QueryResult::TopK(ms) | QueryResult::WithinThreshold(ms) => ms,
        _ => &[],
    }
}

/// FNV-1a over every match's identity and distance bits: two answers with
/// the same fingerprint are byte-identical.
pub fn fingerprint(result: &QueryResult) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for m in matches(result) {
        eat(((m.subseq.series as u64) << 32) | m.subseq.start as u64);
        eat(m.subseq.len as u64);
        eat(m.dist.to_bits());
        eat(m.raw_dtw.to_bits());
    }
    h
}

/// Structural checks every answer must pass, whatever the data.
fn well_formed(kind: Kind, result: &QueryResult, qlen: usize, st: f64) -> bool {
    let ms = matches(result);
    let sane = ms.iter().all(|m| m.dist.is_finite() && m.dist >= 0.0);
    let sorted = ms.windows(2).all(|w| w[0].dist <= w[1].dist);
    let same_len = ms.iter().all(|m| m.subseq.len as usize == qlen);
    sane && match kind {
        Kind::Best => ms.len() == 1,
        Kind::BestExact => ms.len() == 1 && same_len,
        // The engine descends into the best group only, so a small group
        // yields fewer than k — never none, never more.
        Kind::TopK => (1..=TOP_K).contains(&ms.len()) && sorted && same_len,
        Kind::Range => sorted && same_len && ms.iter().all(|m| m.dist <= st),
    }
}

/// One pass's worth of requests: the answers the warm-up fixed and the
/// best-of-rounds latency per request.
pub struct Class {
    span: &'static str,
    kind: Kind,
    queries: Vec<Query>,
    pub requests: Vec<QueryRequest>,
    st: f64,
    expected: Vec<u64>,
    pub best: BestOf,
    /// Work counters summed over one pass (exact at one worker).
    pub counters: QueryStats,
}

impl Class {
    /// `queries` asked as `kind` under `options`; `st` is the base's.
    pub fn new(
        span: &'static str,
        kind: Kind,
        queries: Vec<Query>,
        st: f64,
        options: QueryOptions,
    ) -> Self {
        Class {
            span,
            kind,
            requests: queries.iter().map(|q| request(kind, q, options)).collect(),
            st,
            expected: Vec::new(),
            best: BestOf::new(queries.len()),
            counters: QueryStats::default(),
            queries,
        }
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The first `PROBE_QUERIES` of the same queries under other options,
    /// expecting the answers this class got in its warm-up.
    pub fn variant(&self, span: &'static str, options: QueryOptions) -> Class {
        let n = self.len().min(PROBE_QUERIES);
        let queries = self.queries[..n].to_vec();
        let mut class = Class::new(span, self.kind, queries, self.st, options);
        class.expected = self.expected[..n].to_vec();
        class
    }

    /// Checks answer `i`: an `Ok`, well formed, and — once the warm-up has
    /// fixed it — byte-identical to the first answer.
    fn verify(&self, i: usize, response: &onex::core::Result<QueryResponse>, tally: &mut Tally) {
        let print = response.as_ref().map(|r| fingerprint(&r.result));
        let ok = response.as_ref().is_ok_and(|r| {
            well_formed(self.kind, &r.result, self.queries[i].values.len(), self.st)
                && self.expected.get(i).is_none_or(|&e| Ok(e) == print)
        });
        tally.check(ok, || format!("{} #{i}: {print:?}", self.span));
    }

    /// The untimed first pass: fixes the expected answers and the counters.
    pub fn warm_up(&mut self, ex: &Explorer, tally: &mut Tally) {
        for i in 0..self.len() {
            let response = ex.query(self.requests[i].clone());
            self.verify(i, &response, tally);
            self.expected
                .push(response.as_ref().map_or(0, |r| fingerprint(&r.result)));
            if let Ok(r) = &response {
                self.counters.absorb(&r.stats);
            }
        }
    }

    /// One timed pass over every request: one client, closed loop.
    pub fn pass(&mut self, ex: &Explorer, tr: &mut Tracer, tally: &mut Tally) {
        for i in 0..self.len() {
            let req = self.requests[i].clone();
            let open = tr.enter(self.span);
            let (secs, response) = timed(|| ex.query(req));
            tr.exit(open);
            self.best.observe(i, secs);
            self.verify(i, &response, tally);
        }
    }

    /// The fingerprint of `ex`'s answer to every request (`None`: an error).
    pub fn answers(&self, ex: &Explorer) -> Vec<Option<u64>> {
        let ask = |r: &QueryRequest| ex.query(r.clone()).ok().map(|r| fingerprint(&r.result));
        self.requests.iter().map(ask).collect()
    }

    /// Whether `other` answers every request exactly as the warm-up's
    /// explorer did.
    pub fn same_answers(&self, other: &Explorer) -> bool {
        let expected = self.expected.iter().map(|&e| Some(e));
        self.answers(other).into_iter().eq(expected)
    }
}

/// One closed-loop client: answers whatever request of `classes` (in
/// order) the shared ticket counter hands out next, until none is left.
pub fn drain(classes: &[&Class], ex: &Explorer, next: &AtomicUsize) -> Tally {
    let mut tally = Tally::default();
    loop {
        // Relaxed: the counter only hands out indices; it publishes nothing.
        let mut i = next.fetch_add(1, Ordering::Relaxed);
        let mut rest = classes.iter();
        let class = loop {
            match rest.next() {
                Some(class) if i < class.len() => break class,
                Some(class) => i -= class.len(),
                None => return tally,
            }
        };
        let response = ex.query(class.requests[i].clone());
        class.verify(i, &response, &mut tally);
    }
}

/// What a run sets up once and never changes.
pub struct Bench<'a> {
    pub spec: &'a Spec,
    pub opts: Options,
    pub inputs: Inputs,
    /// The 960 queries `--seed` picked.
    pub queries: Vec<Query>,
    /// The 24 the oracle checks, the same for every seed.
    pub oracle_queries: Vec<Query>,
    /// The never-mutated explorer every query pass hits.
    pub first: Explorer,
    pub st: f64,
    pub subsequences: usize,
    pub groups: usize,
    pub scratch: Scratch,
}

impl Bench<'_> {
    /// The `i`-th series of the append pool, counted cyclically from where
    /// the seed says.
    pub fn append_series(&self, i: usize) -> &TimeSeries {
        let pool = &self.inputs.appends;
        &pool[(self.opts.seed as usize).wrapping_add(i) % pool.len()]
    }

    /// The first `count` of the seeded queries, asked as `kind`.
    fn class(&self, span: &'static str, count: usize, kind: Kind) -> Class {
        let queries = self.queries[..count].to_vec();
        Class::new(span, kind, queries, self.st, one_worker())
    }

    /// The oracle queries, asked as `kind`.
    pub fn oracle_class(&self, span: &'static str, kind: Kind) -> Class {
        let queries = self.oracle_queries.clone();
        Class::new(span, kind, queries, self.st, one_worker())
    }
}

/// Everything the rounds measure.
pub struct Samples {
    pub tally: Tally,
    pub best: Class,
    pub top_k: Class,
    pub range: Class,
    pub build: Vec<f64>,
    pub save: Vec<f64>,
    pub load: Vec<f64>,
    pub append: Vec<f64>,
    pub remove: Vec<f64>,
    pub snapshot_bytes: u64,
    pub rounds: usize,
    /// `machine.*` canary samples (traced runs only).
    pub calib_dtw: Vec<f64>,
    pub memcpy: Vec<f64>,
    pub memcpy_buf: Vec<u8>,
}

/// One lifecycle rep. The second explorer lives only inside it, so the
/// query passes never see a mutated base.
fn lifecycle(b: &Bench, s: &mut Samples, tr: &mut Tracer) {
    let snap = b.scratch.snapshot();
    let (secs, built) = tr.span("engine.build", |_| {
        timed(|| Explorer::build(&b.inputs.data, engine_config()))
    });
    s.tally.check(built.is_ok(), || {
        format!("rebuild: {:?}", built.as_ref().err())
    });
    s.build.push(secs);
    drop(built);

    // Unlink the previous snapshot first: the VM hands freed pages back to
    // its host within seconds, and a page-cache page that has to be faulted
    // in again costs ~50 µs. The save then reuses the pages just freed, and
    // times the engine, not the hypervisor (README, "Where the noise is").
    let _ = std::fs::remove_file(&snap);
    let (secs, saved) = tr.span("snapshot.save", |_| timed(|| b.first.save(&snap)));
    s.tally.check(saved.is_ok(), || format!("save: {saved:?}"));
    s.save.push(secs);
    s.snapshot_bytes = std::fs::metadata(&snap).map_or(0, |m| m.len());

    let first_query = s.best.requests[0].clone();
    let (secs, second) = tr.span("snapshot.load", |_| {
        timed(|| {
            let second = Explorer::load(&snap)?;
            second.query(first_query).map(|_| second)
        })
    });
    s.tally.check(second.is_ok(), || {
        format!("load: {:?}", second.as_ref().err())
    });
    let Ok(second) = second else { return };
    s.load.push(secs);

    let attached = second.attach_wal(sidecar_path(&snap));
    s.tally
        .check(attached.is_ok(), || format!("attach_wal: {attached:?}"));
    // The same series on every rep and every seed, so that its best-of-reps
    // converges on one number.
    let series = &b.inputs.appends[0];
    let (epoch, n) = (second.pin().epoch(), series.len());
    let (secs, index) = tr.span("maintain.append_series", |_| {
        timed(|| second.append_series(series.clone()))
    });
    s.append.push(secs);
    let after = second.pin();
    let stored = index
        .as_ref()
        .ok()
        .and_then(|&i| after.base().dataset().series().get(i));
    let ok = stored.is_some_and(|ts| ts.values() == after.base().normalize_query(series.values()))
        && after.epoch() == epoch + 1
        && after.base().stats().subsequences == b.subsequences + n * (n - 1) / 2;
    s.tally.check(ok, || {
        format!("append_series: {index:?}, epoch {}", after.epoch())
    });
    drop(after);

    if let Ok(index) = index {
        let (secs, removed) = tr.span("maintain.remove_series", |_| {
            timed(|| second.remove_series(index))
        });
        s.remove.push(secs);
        let ok = removed.is_ok()
            && second.pin().epoch() == epoch + 2
            && second.base().stats().subsequences == b.subsequences;
        s.tally.check(ok, || {
            format!("remove_series: {:?}", removed.as_ref().err())
        });
    }
    drop(second);
    // (A few hundred bytes: no TRIM worth the name.)
    let _ = std::fs::remove_file(sidecar_path(&snap));
}

/// `rounds` rounds, fewer only when `--seconds` runs out first.
fn rounds(b: &Bench, s: &mut Samples, tr: &mut Tracer, rounds: usize) {
    let started = Instant::now();
    while s.rounds < rounds {
        if s.rounds > 0 && started.elapsed().as_secs_f64() >= b.opts.seconds {
            println!(
                "warning: --seconds {} spent after {} of {rounds} rounds: every best-of-N of this run has a smaller N",
                b.opts.seconds, s.rounds
            );
            break;
        }
        let round = tr.enter("round");
        tr.span("phase.best_match", |tr| {
            s.best.pass(&b.first, tr, &mut s.tally)
        });
        tr.span("phase.top_k", |tr| s.top_k.pass(&b.first, tr, &mut s.tally));
        tr.span("phase.range", |tr| s.range.pass(&b.first, tr, &mut s.tally));
        if s.rounds.is_multiple_of(b.spec.lifecycle_every) {
            tr.span("phase.lifecycle", |tr| lifecycle(b, s, tr));
        }
        if tr.on {
            tr.span("phase.machine", |_| layers::canary(s));
        }
        tr.exit(round);
        s.rounds += 1;
    }
    println!(
        "rounds: {} of {rounds} in {:.1} s (cap {} s)",
        s.rounds,
        started.elapsed().as_secs_f64(),
        b.opts.seconds
    );
}

/// Paper §6.2 accuracy and the oracle checks, on the oracle queries asked as
/// `BestMatch Exact(len)`: the engine's `raw_dtw` must equal the oracle's
/// recomputation for the subsequence it returned and cannot beat the
/// optimum. Returns the per-query `(d_engine, d_optimum)` on normalized DTW.
fn against_oracle(b: &Bench, nearest: &[Vec<f64>], tally: &mut Tally) -> Vec<(f64, f64)> {
    let base = b.first.base();
    let mut pairs = Vec::new();
    for (q, near) in b.oracle_queries.iter().zip(nearest) {
        let response = b.first.query(request(Kind::BestExact, q, one_worker()));
        let found = response
            .as_ref()
            .ok()
            .and_then(|r| r.result.best_match().copied());
        let ok = found.is_some_and(|m| {
            let values = base.dataset().subseq(m.subseq);
            let recomputed = values.map(|v| oracle::dtw(&q.values, v, BAND_RATIO));
            recomputed.is_ok_and(|d| (d - m.raw_dtw).abs() <= DTW_TOLERANCE)
                && m.raw_dtw >= near[0] - DTW_TOLERANCE
        });
        tally.check(ok, || {
            format!("oracle: engine {found:?}, optimum {}", near[0])
        });
        if let Some(m) = found {
            let n = q.values.len();
            pairs.push((
                oracle::normalized(m.raw_dtw, n, n),
                oracle::normalized(near[0], n, n),
            ));
        }
    }
    pairs
}

/// Durability checks, once per run, on the snapshot the last lifecycle rep
/// left behind. The explorer loaded from it must answer byte-identically to
/// the one that saved it; after `ops` journaled maintenance ops, an
/// explorer recovered from snapshot + journal must report the epoch and the
/// answers of the one that executed them live. Returns the recovery's
/// seconds and the journal's bytes for the `wal` layer.
fn check_recovery(
    b: &Bench,
    probe: &Class,
    ops: usize,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> (f64, u64) {
    let snap = b.scratch.snapshot();
    let live = match Explorer::load(&snap) {
        Ok(live) => live,
        Err(e) => {
            tally.check(false, || format!("load: {e}"));
            return (f64::NAN, 0);
        }
    };
    tally.check(probe.same_answers(&live), || {
        "loaded snapshot answers differ".into()
    });

    let attached = live.attach_wal(sidecar_path(&snap));
    tally.check(attached.is_ok(), || format!("attach_wal: {attached:?}"));
    for op in 0..ops {
        // append, append, remove the older of the two, …
        let done = if op % 3 == 2 {
            live.remove_series(b.inputs.data.len()).map(|_| ())
        } else {
            live.append_series(b.append_series(op).clone()).map(|_| ())
        };
        tally.check(done.is_ok(), || format!("journaled op {op}: {done:?}"));
    }
    let wal_bytes = std::fs::metadata(sidecar_path(&snap)).map_or(0, |m| m.len());
    let (recover_s, recovered) = tr.span("wal.recover", |_| timed(|| Explorer::load(&snap)));
    let ok = recovered.as_ref().is_ok_and(|r| {
        let (theirs, ours) = (probe.answers(r), probe.answers(&live));
        r.pin().epoch() == live.pin().epoch() && theirs == ours && !ours.contains(&None)
    });
    tally.check(ok, || {
        format!("recovered explorer differs: {:?}", recovered.as_ref().err())
    });
    (recover_s, wal_bytes)
}

/// The eleven end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(b: &Bench, s: &Samples, pairs: &[(f64, f64)]) -> Vec<Metric> {
    let errors: Vec<f64> = pairs
        .iter()
        .map(|(engine, optimum)| engine - optimum)
        .collect();
    vec![
        Metric::new("setup_s", stats::min(&s.build), "s", s.build.len()),
        Metric::new(
            "best_match_p50_us",
            s.best.best.percentile(50.0) * 1e6,
            "us",
            s.best.best.count(),
        ),
        Metric::new(
            "best_match_p95_us",
            s.best.best.percentile(95.0) * 1e6,
            "us",
            s.best.best.count(),
        ),
        Metric::new(
            "top_k_p50_us",
            s.top_k.best.percentile(50.0) * 1e6,
            "us",
            s.top_k.best.count(),
        ),
        Metric::new(
            "range_p50_ms",
            s.range.best.percentile(50.0) * 1e3,
            "ms",
            s.range.best.count(),
        ),
        Metric::new(
            "accuracy_pct",
            (1.0 - stats::mean(&errors)) * 100.0,
            "%",
            errors.len(),
        ),
        Metric::new("save_s", stats::min(&s.save), "s", s.save.len()),
        Metric::new("load_s", stats::min(&s.load), "s", s.load.len()),
        Metric::new(
            "append_ms",
            stats::min(&s.append) * 1e3,
            "ms",
            s.append.len(),
        ),
        Metric::new(
            "snapshot_bytes_per_subseq",
            s.snapshot_bytes as f64 / b.subsequences as f64,
            "B",
            b.subsequences,
        ),
        Metric::new("peak_rss_mb", status_mb("VmHWM"), "MB", 1),
    ]
}

/// Runs one workload.
pub fn run(spec: &Spec, opts: Options) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let root = tr.enter("workload");

    let inputs = tr.span("bench.generate", |_| workload::generate(spec, opts.quick));
    let rss_before = status_mb("VmRSS");
    let (first_build_s, first) = tr.span("engine.build", |_| {
        timed(|| {
            Explorer::build(&inputs.data, engine_config()).expect("the workload's base builds")
        })
    });
    let base_rss_mb = status_mb("VmRSS") - rss_before;
    let base = first.base();
    let base_stats = base.stats();
    let (queries, oracle_queries) = tr.span("bench.generate", |_| {
        let make = |seed, count| workload::make_queries(&base, &inputs.held_out, seed, count);
        (make(opts.seed, QUERIES), make(CORPUS_SEED, ORACLE_QUERIES))
    });
    let b = Bench {
        spec,
        opts,
        inputs,
        queries,
        oracle_queries,
        st: base.config().st,
        subsequences: base_stats.subsequences,
        groups: base_stats.representatives,
        first,
        scratch: Scratch::new(spec.name),
    };
    println!(
        "workload {} ({}): {} series x {} -> {} subsequences in {} groups; seed {}, scratch in {}",
        spec.name,
        spec.why,
        b.inputs.data.len(),
        spec.len,
        b.subsequences,
        b.groups,
        opts.seed,
        crate::out_dir().display()
    );

    let nearest: Vec<Vec<f64>> = tr.span("bench.oracle", |_| {
        let scan =
            |q: &Query| oracle::nearest_same_length(base.dataset(), &q.values, BAND_RATIO, TOP_K);
        b.oracle_queries.iter().map(scan).collect()
    });
    drop(base);

    let mut s = Samples {
        tally: Tally::default(),
        best: b.class("engine.query.best_match", QUERIES, Kind::Best),
        top_k: b.class("engine.query.top_k", QUERIES, Kind::TopK),
        range: b.class("engine.query.range", RANGE_QUERIES, Kind::Range),
        build: vec![first_build_s],
        save: Vec::new(),
        load: Vec::new(),
        append: Vec::new(),
        remove: Vec::new(),
        snapshot_bytes: 0,
        rounds: 0,
        calib_dtw: Vec::new(),
        memcpy: Vec::new(),
        memcpy_buf: Vec::new(),
    };
    let mut probe = b.oracle_class("bench.check", Kind::TopK);
    let pairs = tr.span("bench.check", |_| {
        for class in [&mut s.best, &mut s.top_k, &mut s.range, &mut probe] {
            class.warm_up(&b.first, &mut s.tally);
        }
        against_oracle(&b, &nearest, &mut s.tally)
    });

    let planned = match (opts.quick, opts.trace) {
        (true, _) => QUICK_ROUNDS,
        (false, true) => TRACED_ROUNDS,
        (false, false) => spec.rounds,
    };
    rounds(&b, &mut s, &mut tr, planned);
    let ops = if opts.trace {
        TRACED_JOURNALED_OPS
    } else {
        JOURNALED_OPS
    };
    let (recover_s, wal_bytes) = tr.span("bench.check", |tr| {
        check_recovery(&b, &probe, ops, &mut s.tally, tr)
    });

    let end_to_end = end_to_end(&b, &s, &pairs);
    let mut per_layer = if opts.trace {
        let wal = layers::Recovery {
            recover_s,
            wal_bytes,
            ops,
        };
        layers::measure(&b, &mut s, &mut tr, &nearest, &pairs, base_rss_mb, wal)
    } else {
        Vec::new()
    };
    tr.exit(root);
    if opts.trace {
        per_layer.push(Metric::new(
            "trace.spans",
            tr.spans().len() as f64,
            "count",
            1,
        ));
        let path = crate::out_dir().join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, tr.to_json(spec.name)).expect("write the span file");
        println!("trace: {} spans -> {}", tr.spans().len(), path.display());
        println!(
            "trace: named spans cover {:.1}% of the workload's wall time; self time by span:",
            trace::coverage(tr.spans()) * 100.0
        );
        for (name, ns, count) in trace::self_time_by_name(tr.spans()) {
            println!(
                "  {name:<28} {:>10.3} ms  {count:>6} spans",
                ns as f64 / 1e6
            );
        }
    }
    Outcome {
        attempted: s.tally.attempted,
        failed: s.tally.failed,
        end_to_end,
        per_layer,
    }
}
