//! Shared experiment machinery: query selection (the §6.2 methodology),
//! accuracy computation, timing, and table formatting.

use onex_core::{OnexBase, OnexConfig};
use onex_ts::synth::PaperDataset;
use onex_ts::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One benchmark query.
#[derive(Debug, Clone)]
pub struct Query {
    /// The (normalized-space) query values.
    pub values: Vec<f64>,
    /// Whether the sequence exists verbatim in the dataset.
    pub in_dataset: bool,
}

/// The §6.2 query methodology: `n_in` subsequences of spread-out lengths
/// "promoted" to queries from the dataset itself, plus `n_out` queries
/// sliced from **held-out** series of the *same generator stream*: the
/// generators are deterministic and sequential, so generating `N + n_out`
/// series with the dataset's seed reproduces the dataset as a prefix, and
/// the tail series come from the same classes/prototypes without appearing
/// in the data — the harness analogue of Fu et al.'s "take the query out of
/// the dataset".
///
/// `seed` must be the seed the dataset was generated with. In-dataset
/// queries are slices of the (normalized) dataset; out-of-dataset queries
/// are projected with `base`'s normalization parameters.
pub fn make_queries(
    ds: PaperDataset,
    base: &OnexBase,
    n_in: usize,
    n_out: usize,
    seed: u64,
) -> Vec<Query> {
    let data = base.dataset();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBE9C);
    let mut queries = Vec::with_capacity(n_in + n_out);
    let max_len = data.max_series_len();
    let min_len = 4.min(max_len).max(2);
    let spread = |i: usize, n: usize| -> usize {
        if n <= 1 {
            return max_len.max(min_len) / 2;
        }
        let f = i as f64 / (n - 1) as f64;
        (min_len as f64 + f * (max_len - min_len) as f64).round() as usize
    };
    for i in 0..n_in {
        let len = spread(i, n_in).clamp(2, max_len);
        // pick a series long enough
        let candidates: Vec<usize> = (0..data.len())
            .filter(|&s| data.series()[s].len() >= len)
            .collect();
        let sid = candidates[rng.gen_range(0..candidates.len())];
        let ts = &data.series()[sid];
        let start = rng.gen_range(0..=ts.len() - len);
        queries.push(Query {
            values: ts.values()[start..start + len].to_vec(),
            in_dataset: true,
        });
    }
    if n_out > 0 {
        // Held-out tail: same stream, indices beyond the dataset.
        let extended = ds.generate_with_shape(data.len() + n_out, max_len, seed);
        let fresh = &extended.series()[data.len()..];
        for (i, ts) in fresh.iter().enumerate() {
            let len = spread(i, n_out).clamp(2, ts.len());
            let start = rng.gen_range(0..=ts.len() - len);
            let raw: Vec<f64> = ts.values()[start..start + len].to_vec();
            queries.push(Query {
                values: base.normalize_query(&raw),
                in_dataset: false,
            });
        }
    }
    queries
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The paper's accuracy metric (§6.2): per-query error is the difference
/// between the system's solution distance (normalized DTW to the query) and
/// the exact brute-force solution distance; accuracy is
/// `(1 − avg(error)) · 100`.
pub fn accuracy_from_errors(errors: &[f64]) -> f64 {
    (1.0 - mean(errors)) * 100.0
}

/// Builds a base and returns it with the wall-clock construction time.
pub fn build_timed(data: &Dataset, config: OnexConfig) -> (OnexBase, Duration) {
    let t0 = Instant::now();
    let base = OnexBase::build(data, config).expect("base construction");
    (base, t0.elapsed())
}

/// Times `f` averaged over `runs` executions (≥ 1), returning seconds.
pub fn time_avg<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let runs = runs.max(1);
    let t0 = Instant::now();
    for _ in 0..runs {
        f();
    }
    t0.elapsed().as_secs_f64() / runs as f64
}

/// Formats seconds compactly for tables (µs/ms/s autoscale).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}s", s)
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str], widths: &[usize]) {
    row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// An experiment table that streams rows to stdout as they are produced
/// (experiments can take minutes; progressive output matters) and, when a
/// CSV directory is configured, also lands them in `<dir>/<name>.csv` for
/// plotting.
pub struct Table {
    name: String,
    widths: Vec<usize>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates the table and prints its header immediately.
    pub fn new(name: &str, columns: &[&str], widths: &[usize]) -> Self {
        header(columns, widths);
        Table {
            name: name.to_string(),
            widths: widths.to_vec(),
            header: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Prints and records one row.
    pub fn row(&mut self, cells: Vec<String>) {
        row(&cells, &self.widths);
        self.rows.push(cells);
    }

    /// Writes the accumulated table as CSV into `dir` (no-op for `None`).
    /// Cell text is sanitized for CSV (commas/quotes escaped, the `×`/µ
    /// table decorations kept — they are valid UTF-8 CSV).
    pub fn finish(self, dir: Option<&std::path::Path>) {
        let Some(dir) = dir else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("csv: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.csv", self.name));
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("csv: cannot write {}: {e}", path.display());
        } else {
            println!("(csv written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_core::OnexConfig;

    #[test]
    fn query_methodology_mix() {
        let ds = PaperDataset::ItalyPower;
        let data = ds.generate_with_shape(10, 24, 3);
        let base = OnexBase::build(&data, OnexConfig::default()).unwrap();
        let qs = make_queries(ds, &base, 5, 5, 7);
        assert_eq!(qs.len(), 10);
        assert_eq!(qs.iter().filter(|q| q.in_dataset).count(), 5);
        // lengths spread from small to large
        let lens: Vec<usize> = qs.iter().map(|q| q.values.len()).collect();
        assert!(lens.iter().min().unwrap() < lens.iter().max().unwrap());
        // in-dataset queries truly occur in the dataset
        let q0 = &qs[0];
        let found = base.dataset().series().iter().any(|ts| {
            ts.values()
                .windows(q0.values.len())
                .any(|w| w == q0.values.as_slice())
        });
        assert!(found, "in-dataset query must exist verbatim");
    }

    #[test]
    fn accuracy_metric() {
        assert_eq!(accuracy_from_errors(&[0.0, 0.0]), 100.0);
        assert!((accuracy_from_errors(&[0.1, 0.3]) - 80.0).abs() < 1e-9);
        assert_eq!(accuracy_from_errors(&[]), 100.0);
    }

    #[test]
    fn formatting() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
