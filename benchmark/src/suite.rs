//! Printing one run, running all workloads (one process each), and
//! `--repeat-check`: does the same code agree with itself within the
//! bounds `BENCHMARK.json` fixes?

use crate::json;
use crate::run::{Options, Outcome};
use crate::stats;
use crate::workload::SPECS;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`: the cap a
/// run's fixed rounds stay under on the machine this was sized on.
pub const RUN_SECONDS: f64 = 45.0;

/// An end-to-end metric as `BENCHMARK.json` gates it.
pub struct Gate {
    pub name: &'static str,
    pub lower_is_better: bool,
    /// Share of the first median the second may be worse by.
    pub bound: f64,
    /// Derived from the inputs alone: identical whenever the seed is.
    pub exact: bool,
}

const fn gate(name: &'static str, lower_is_better: bool, bound: f64, exact: bool) -> Gate {
    Gate {
        name,
        lower_is_better,
        bound,
        exact,
    }
}

/// Kept equal to `BENCHMARK.json` by a test below.
pub const END_TO_END: [Gate; 11] = [
    gate("setup_s", true, 0.15, false),
    gate("best_match_p50_us", true, 0.25, false),
    gate("best_match_p95_us", true, 0.25, false),
    gate("top_k_p50_us", true, 0.25, false),
    gate("range_p50_ms", true, 0.15, false),
    gate("accuracy_pct", false, 0.00001, true),
    gate("save_s", true, 0.15, false),
    gate("load_s", true, 0.15, false),
    gate("append_ms", true, 0.15, false),
    gate("snapshot_bytes_per_subseq", true, 0.001, true),
    gate("peak_rss_mb", true, 0.05, false),
];

/// Prints every metric by name with unit and sample count, then the
/// driver's result object as the last line: the end-to-end metrics of an
/// untraced run, the per-layer metrics of a traced one.
pub fn report(outcome: &Outcome, traced: bool) {
    let line = |kind: &str, m: &json::Metric| {
        println!(
            "{kind} {:<42} {:>16} {:<5} n={}",
            m.name,
            json::number(m.value),
            m.unit,
            m.samples
        );
    };
    if traced {
        println!("end-to-end readings of the traced rounds (informational; the gated numbers come from --trace 0):");
        outcome.end_to_end.iter().for_each(|m| line("traced", m));
        outcome.per_layer.iter().for_each(|m| line("metric", m));
    } else {
        outcome.end_to_end.iter().for_each(|m| line("metric", m));
    }
    println!("ops {} failed_ops {}", outcome.attempted, outcome.failed);
    let metrics = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        json::result_line(outcome.attempted, outcome.failed, metrics)
    );
}

/// What the parent keeps of one child run.
struct ChildRun {
    /// `metric` lines: name → (value, unit).
    metrics: BTreeMap<String, (f64, String)>,
    clean: bool,
}

/// Runs one workload in a process of its own (peak RSS is per process),
/// echoing its output.
fn run_child(workload: &str, options: Options) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .args(options.quick.then_some("--quick"))
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the workload process");
    let mut run = ChildRun {
        metrics: BTreeMap::new(),
        clean: false,
    };
    let stdout = child.stdout.take().expect("piped stdout");
    for text in BufReader::new(stdout).lines().map_while(Result::ok) {
        let fields: Vec<&str> = text.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value, unit, ..] => {
                let value = value.parse().unwrap_or(f64::NAN);
                run.metrics
                    .insert(name.to_string(), (value, unit.to_string()));
            }
            ["ops", _, "failed_ops", failed] => run.clean = *failed == "0",
            _ => {}
        }
        if !text.starts_with('{') {
            println!("{text}");
        }
    }
    let status = child.wait().expect("wait for the workload process");
    run.clean &= status.success();
    run
}

/// Runs the three workloads and prints one table.
pub fn all(options: Options) -> ExitCode {
    let started = std::time::Instant::now();
    let runs: Vec<ChildRun> = SPECS
        .iter()
        .map(|spec| run_child(spec.name, options))
        .collect();
    println!(
        "\n{:<44} {:>16} {:>16} {:>16}",
        "", SPECS[0].name, SPECS[1].name, SPECS[2].name
    );
    for (name, (_, unit)) in &runs[0].metrics {
        let cell = |r: &ChildRun| {
            r.metrics
                .get(name)
                .map_or("-".to_string(), |(v, _)| format!("{v:.4}"))
        };
        println!(
            "{:<44} {:>16} {:>16} {:>16}",
            format!("{name} [{unit}]"),
            cell(&runs[0]),
            cell(&runs[1]),
            cell(&runs[2])
        );
    }
    let clean = runs.iter().all(|r| r.clean);
    println!(
        "\n{} workloads in {:.1} s; failed_ops = 0 everywhere: {clean}",
        runs.len(),
        started.elapsed().as_secs_f64()
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the acceptance check's definition of spread).
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut x = xs.to_vec();
    x.sort_by(f64::total_cmp);
    let at = |i: usize| {
        let j = (i * (x.len() + 1) / 4).clamp(1, x.len() - 1);
        let delta = (i * (x.len() + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `--repeat-check`: two alternating sets of `sets_of` suite runs (seeds
/// `seed..seed + sets_of` in both). For every workload × end-to-end metric
/// the two medians must agree within the bound, each set's interquartile
/// spread across its seeds must stay within it (4+ runs), and exact metrics
/// must be identical seed by seed.
pub fn repeat_check(options: Options, sets_of: usize) -> ExitCode {
    let mut sets: [Vec<Vec<ChildRun>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..sets_of {
        for set in &mut sets {
            let options = Options {
                seed: options.seed + i as u64,
                trace: false,
                ..options
            };
            set.push(
                SPECS
                    .iter()
                    .map(|spec| run_child(spec.name, options))
                    .collect(),
            );
        }
    }
    println!(
        "\nrepeat-check: 2 sets x {sets_of} runs, seeds {}..{}\n{:<14} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}",
        options.seed,
        options.seed + sets_of as u64,
        "workload", "metric", "median A", "median B", "worse %", "spread %", "bound %", ""
    );
    let mut failures = 0;
    for (w, spec) in SPECS.iter().enumerate() {
        for g in &END_TO_END {
            let values = |set: &[Vec<ChildRun>]| -> Vec<f64> {
                set.iter()
                    .map(|run| run[w].metrics.get(g.name).map_or(f64::NAN, |m| m.0))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            // How much worse the second set reads than the first; the same
            // code ran both, so either sign counts.
            let gap = if g.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                (q3 - q1) / stats::median(xs)
            };
            let spread = if sets_of >= 4 {
                spread(&a).max(spread(&b))
            } else {
                0.0
            };
            let pass = if g.exact {
                a == b
            } else {
                gap.abs() <= g.bound && spread <= g.bound
            };
            failures += usize::from(!pass);
            println!(
                "{:<14} {:<26} {:>12.4} {:>12.4} {:>+8.2} {:>8.2} {:>8.3} {:>7}",
                spec.name,
                g.name,
                ma,
                mb,
                gap * 100.0,
                spread * 100.0,
                g.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    let clean = sets.iter().flatten().flatten().all(|r| r.clean);
    println!("repeat-check: {failures} FAIL, failed_ops = 0 everywhere: {clean}");
    if failures == 0 && clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
    }

    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    /// The string value of `key` in a one-line JSON object.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        rest.split('"').next()
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` declares, gated ones
    /// (they carry a bound) or per-layer ones.
    fn declared(gated: bool) -> Vec<(String, String)> {
        let lines = DECLARED
            .lines()
            .filter(|l| l.contains("\"better\"") && l.contains("\"bound\"") == gated);
        lines
            .map(|l| {
                (
                    field(l, "name").unwrap().to_string(),
                    field(l, "unit").unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn gates_match_benchmark_json() {
        for g in &END_TO_END {
            let better = if g.lower_is_better { "lower" } else { "higher" };
            let line = DECLARED
                .lines()
                .find(|l| field(l, "name") == Some(g.name))
                .expect(g.name);
            assert_eq!(field(line, "better"), Some(better), "{line}");
            assert!(
                line.contains(&format!("\"bound\": {}}}", g.bound)),
                "{line}"
            );
        }
        for spec in &SPECS {
            let line = DECLARED
                .lines()
                .find(|l| field(l, "name") == Some(spec.name))
                .expect(spec.name);
            assert_eq!(field(line, "why"), Some(spec.why));
        }
        assert!(DECLARED.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    #[test]
    fn a_quick_traced_run_reports_exactly_the_declared_metrics() {
        let options = Options {
            seed: 7,
            seconds: RUN_SECONDS,
            trace: true,
            quick: true,
        };
        let outcome = crate::run::run(&SPECS[2], options);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 1000);
        let reported = |ms: &[json::Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(reported(&outcome.end_to_end), declared(true));
        assert_eq!(reported(&outcome.per_layer), declared(false));
        for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        let spans =
            std::fs::read_to_string(crate::out_dir().join("trace-tiny-italy.json")).unwrap();
        assert!(spans.contains("\"name\": \"engine.query.best_match\""));
    }
}
