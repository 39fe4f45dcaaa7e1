//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run -p onex-bench --release --bin repro -- all
//! cargo run -p onex-bench --release --bin repro -- fig2 --scale 0.1 --runs 5
//! ```
//!
//! Experiments: fig2 fig3 fig4 fig56 fig78 table1 table23 table4 ablation
//! audit chaos datasets all
//!
//! `chaos` runs the seeded fault-injection suite (`--seed` drives the
//! torn-write prefixes): every registered fault point is fired, the crash
//! simulated, and the recovered base checked for validated invariants and
//! byte-identical answers — the CI chaos leg runs it under a
//! debug-assertions build.
//! Flags: `--scale <f64>` (default 0.05), `--seed <u64>`, `--runs <usize>`,
//! `--threads <usize>`, `--csv <dir>` (also write each table as CSV).
//!
//! The exact work counters are not an experiment here: they are the tier-1
//! test `crates/onex-bench/tests/work_counters.rs`, and wall-clock belongs
//! to `BENCHMARK.json`.

use onex_bench::experiments::{self, Ctx};

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--scale f] [--seed n] [--runs n] [--threads n] [--csv dir]\n\
         experiments: fig2 fig3 fig4 fig56 fig78 table1 table23 table4 ablation audit chaos datasets all"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let exp = args[0].clone();
    let mut ctx = Ctx::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).unwrap_or_else(|| usage());
        match flag {
            "--scale" => ctx.scale = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| usage()),
            "--runs" => ctx.runs = value.parse().unwrap_or_else(|_| usage()),
            "--threads" => ctx.threads = value.parse().unwrap_or_else(|_| usage()),
            "--csv" => ctx.csv_dir = Some(value.into()),
            _ => usage(),
        }
        i += 2;
    }
    if !(ctx.scale > 0.0 && ctx.scale <= 1.0) {
        eprintln!("--scale must be in (0, 1]");
        std::process::exit(2);
    }

    println!(
        "ONEX reproduction harness — scale {}, seed {}, {} runs/query, {} threads",
        ctx.scale, ctx.seed, ctx.runs, ctx.threads
    );
    let t0 = std::time::Instant::now();
    let mut ok = true;
    match exp.as_str() {
        "fig2" => experiments::fig2::run(&ctx),
        "fig3" => experiments::fig3::run(&ctx),
        "fig4" => experiments::fig4::run(&ctx),
        "fig56" | "fig5" | "fig6" => experiments::fig56::run(&ctx),
        "fig78" | "fig7" | "fig8" => experiments::fig78::run(&ctx),
        "table1" => experiments::table1::run(&ctx),
        "table23" | "table2" | "table3" => experiments::table23::run(&ctx),
        "table4" => experiments::table4::run(&ctx),
        "ablation" => experiments::ablation::run(&ctx),
        "audit" => ok = experiments::audit::run(&ctx),
        "chaos" => ok = experiments::chaos::run(&ctx),
        "datasets" => experiments::datasets::run(&ctx),
        "all" => {
            experiments::datasets::run(&ctx);
            experiments::fig2::run(&ctx);
            experiments::table1::run(&ctx);
            experiments::table23::run(&ctx);
            experiments::fig3::run(&ctx);
            experiments::fig4::run(&ctx);
            experiments::fig56::run(&ctx);
            experiments::table4::run(&ctx);
            experiments::fig78::run(&ctx);
            experiments::ablation::run(&ctx);
        }
        _ => usage(),
    }
    println!("\ntotal harness time: {:?}", t0.elapsed());
    if !ok {
        std::process::exit(1);
    }
}
