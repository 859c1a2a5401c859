//! Two traced runs with the same seed must report identical counts:
//! engine probes and derivations, cache hit and miss counts, removal
//! counts. Times may differ; every count and every ratio of counts may not.
//!
//! The traced runs evaluate the full workloads, so run this with
//! `cargo test --release` (debug builds skip it).

use datalog_perfbench::{run, Outcome};
use std::collections::BTreeMap;

fn counts(outcome: &Outcome) -> BTreeMap<String, f64> {
    outcome
        .metrics
        .iter()
        .filter(|m| m.unit != "ms" && !m.name.starts_with("trace."))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

/// Two traced runs with one seed; `required` names counts the first run
/// must report.
fn assert_repeats(workload: &str, required: &[&str]) {
    let first = run(workload, 7, 1, true).expect("known workload");
    let second = run(workload, 7, 1, true).expect("known workload");
    assert!(first.correct, "{:?}", first.errors);
    assert!(second.correct, "{:?}", second.errors);
    for name in required {
        assert!(
            first.get(name).is_some(),
            "{workload} did not report {name}"
        );
    }
    let (a, b) = (counts(&first), counts(&second));
    assert!(!a.is_empty(), "{workload} reported no counts");
    assert_eq!(a, b, "{workload} counts differ between identical seeds");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full workloads: run with cargo test --release"
)]
fn eval_fixpoint_counts_repeat() {
    assert_repeats("eval-fixpoint", &["engine.bloated.probes"]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full workloads: run with cargo test --release"
)]
fn service_mixed_counts_repeat() {
    assert_repeats(
        "service-mixed",
        &[
            "service.query.hits",
            "service.query.misses",
            "engine.incremental.atoms_removed",
        ],
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full workloads: run with cargo test --release"
)]
fn optimize_corpus_counts_repeat() {
    assert_repeats("optimize-corpus", &["core.atoms_removed"]);
}
