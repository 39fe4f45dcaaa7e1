//! The repo benchmark behind `BENCHMARK.json` — see `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints the driver's result object as the
//! last line. Without `--workload` it runs all three, one process each.

mod json;
mod layers;
mod oracle;
mod run;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where span files and scratch snapshots go: `benchmark/out/`, inside the
/// checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "\
usage: onex-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--quick]
       onex-benchmark --repeat-check [--sets-of <n>] [--seconds <s>]

  --workload <name>  dense-star | sparse-twopat | tiny-italy; without it, all three run, one process each
  --seed <n>         picks the query slices and the series the recovery check journals; the corpus is fixed (default 7)
  --seconds <s>      cap on the rounds' wall time; each workload fixes its round count (default: run_seconds of BENCHMARK.json)
  --trace [0|1]      1: record spans, write out/trace-<workload>.json, report the per-layer metrics
  --quick            smoke run: small bases, 2 rounds, every check on
  --repeat-check     two alternating sets of runs; fails unless both agree within every bound
  --sets-of <n>      runs per set, one seed each (default 3; 10 mirrors the acceptance check)";

struct Args {
    workload: Option<String>,
    options: run::Options,
    repeat_check: bool,
    sets_of: usize,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        options: run::Options {
            seed: 7,
            seconds: suite::RUN_SECONDS,
            trace: false,
            quick: false,
        },
        repeat_check: false,
        sets_of: 3,
    };
    let mut argv = argv.by_ref().peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.options.seconds = s;
            }
            "--sets-of" => {
                args.sets_of = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets-of: {e}"))?;
                if args.sets_of == 0 {
                    return Err("--sets-of must be at least 1".into());
                }
            }
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                let explicit = argv.next_if(|v| v == "0" || v == "1");
                args.options.trace = explicit.is_none_or(|v| v == "1");
            }
            "--quick" => args.options.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match workload::spec(name) {
            Some(spec) => {
                suite::report(&run::run(&spec, args.options), args.options.trace);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown workload {name}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None if args.repeat_check => suite::repeat_check(args.options, args.sets_of),
        None => suite::all(args.options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parsed("--workload tiny-italy --seed 3 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("tiny-italy"));
        assert_eq!(
            (a.options.seed, a.options.seconds, a.options.trace),
            (3, 12.0, true)
        );
        let a = parsed("--trace 0 --quick").unwrap();
        assert!(!a.options.trace && a.options.quick && a.workload.is_none());
        assert!(parsed("--trace --quick").unwrap().options.trace);
        assert_eq!(parsed("--repeat-check --sets-of 10").unwrap().sets_of, 10);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in ["--nope", "--seed", "--seed x", "--seconds 0", "--sets-of 0"] {
            assert!(parsed(bad).is_err(), "{bad}");
        }
    }
}
