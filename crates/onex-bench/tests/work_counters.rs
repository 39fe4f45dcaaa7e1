//! The work contract, exact: every `QueryStats` counter of every
//! (dataset, query class, pruning variant) cell, summed over the §6.2 query
//! mix, compared line for line with the checked-in `work_counters.txt`.
//! The lines come from iterating the counter block itself, so a counter
//! added to the block shows up here (and fails the comparison until the
//! file is re-blessed) without touching this test.
//!
//! The counters are deterministic for a fixed scale and seed, so "same work"
//! is this test passing and "moved work" is a reviewable diff of the text
//! file in the change that moves it. The setup and the comparison are
//! shared with the answer golden (`answers.rs`); see the `common` module.

mod common;

use common::{assert_golden, request, workloads, CLASSES};
use onex_core::{QueryOptions, QueryStats};
use std::fmt::Write as _;

/// The three pruning variants: the default full cascade, the pre-cascade
/// rep-only bounds, and no lower bounds at all.
fn variants() -> [(&'static str, QueryOptions); 3] {
    [
        ("cascade", QueryOptions::default()),
        (
            "rep_only",
            QueryOptions {
                cascade: false,
                ..QueryOptions::default()
            },
        ),
        (
            "unpruned",
            QueryOptions {
                lb_pruning: false,
                ..QueryOptions::default()
            },
        ),
    ]
}

/// Renders the whole work record: the shape of each dataset's base, then
/// one line per (dataset, class, variant, counter).
fn render() -> String {
    let mut out = String::new();
    for w in workloads() {
        let base = w.explorer.base();
        let shape = base.stats();
        let name = w.name;
        writeln!(out, "{name} series {}", base.dataset().len()).unwrap();
        writeln!(out, "{name} subsequences {}", shape.subsequences).unwrap();
        writeln!(out, "{name} representatives {}", shape.representatives).unwrap();
        for class in CLASSES {
            for (variant, options) in variants() {
                let mut sum = QueryStats::default();
                for q in &w.queries {
                    let resp = w
                        .explorer
                        .query(request(class, q, options))
                        .expect("benchmark query answers");
                    sum.absorb(&resp.stats);
                }
                writeln!(out, "{name} {class} {variant} queries {}", w.queries.len()).unwrap();
                for (counter, value) in sum.counters() {
                    writeln!(out, "{name} {class} {variant} {counter} {value}").unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn work_counters_match_the_golden_file() {
    assert_golden("work_counters", "work counters", &render());
}
