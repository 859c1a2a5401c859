//! Seeded end-to-end and per-layer benchmark of the Datalog engine, the
//! materialized-view service and the optimizer.
//!
//! Three workloads, each calling only the public entry points users reach
//! (the CLI's library calls and the service's TCP protocol):
//!
//! * [`eval_fixpoint`] — the engine fixpoint of a bloated program and of its
//!   §VII-minimized form;
//! * [`service_mixed`] — the TCP daemon under a closed-loop writer and an
//!   open-loop reader;
//! * [`optimize_corpus`] — lint plus optimize over a seeded corpus.
//!
//! An untraced run measures the end-to-end metrics for `--seconds`, each
//! time scaled to a reference host speed by a kernel timed between ops
//! ([`host`]); a traced run does a fixed amount of work, records spans
//! around each call into a layer, and reports per-layer metrics whose
//! counts repeat exactly for the same seed.

pub mod counters;
pub mod eval_fixpoint;
pub mod host;
pub mod optimize_corpus;
pub mod report;
pub mod sample;
pub mod service_mixed;
pub mod trace;

pub use host::HostSpeed;
pub use report::{Metric, Outcome};

/// How far the per-layer times of a traced run may miss the untraced
/// end-to-end time of the same ops (`trace.layer_sum_error`, a share of
/// the untraced time). Beyond it the traced run fails.
pub const LAYER_SUM_TOLERANCE: f64 = 0.25;

/// Record `trace.layer_sum_error` for ops whose traced layer times sum to
/// `layers_ms` and whose untraced end-to-end times sum to `untraced_ms`,
/// and fail the run when it exceeds [`LAYER_SUM_TOLERANCE`].
pub fn check_layer_sum(out: &mut Outcome, layers_ms: f64, untraced_ms: f64, samples: usize) {
    let error = (layers_ms - untraced_ms).abs() / untraced_ms;
    out.metric("trace.layer_sum_error", error, "ratio", samples);
    // A NaN error (no untraced time) fails too.
    if error.is_nan() || error > LAYER_SUM_TOLERANCE {
        out.fail(format!(
            "layer times sum to {layers_ms:.1} ms, the untraced ops take {untraced_ms:.1} ms: \
             off by {error:.3}, over the tolerance {LAYER_SUM_TOLERANCE}"
        ));
    }
}

/// Set-ups per untraced run of the single-threaded workloads; `setup_s`
/// is the median of their scaled times.
pub const SETUP_REPS: usize = 5;

/// Run `setup` `reps` times back to back before the timed part of a run,
/// passing each value but the last to `discard`, and report `setup_s`. The
/// reference kernel is timed before each set-up and after the last, so
/// each set-up's time scales like any op's.
pub fn set_up<T>(
    out: &mut Outcome,
    host: &mut HostSpeed,
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(value) = last.take() {
            discard(value);
        }
        host.mark();
        let start = std::time::Instant::now();
        last = Some(setup());
        times.push((start, start.elapsed().as_secs_f64()));
    }
    host.mark();
    out.metric("setup_s", host.scaled(&times).median(), "s", reps);
    out.note("raw.setup_s", host::raw(&times).median(), "s", reps);
    last.expect("at least one set-up")
}

/// Report the host's median slowdown against the reference over the run.
pub fn report_host(out: &mut Outcome, host: &HostSpeed) {
    out.note("host.slowdown", host.slowdown(), "x", host.marks());
}

pub const WORKLOADS: [&str; 3] = ["eval-fixpoint", "service-mixed", "optimize-corpus"];

/// Run one workload. `seconds` bounds the untraced run; the traced run does
/// fixed work so that its counts repeat.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    Ok(match (workload, trace) {
        ("eval-fixpoint", false) => eval_fixpoint::run(seed, seconds),
        ("eval-fixpoint", true) => eval_fixpoint::run_traced(seed),
        ("service-mixed", false) => service_mixed::run(seed, seconds),
        ("service-mixed", true) => service_mixed::run_traced(seed),
        ("optimize-corpus", false) => optimize_corpus::run(seed, seconds),
        ("optimize-corpus", true) => optimize_corpus::run_traced(seed),
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// Metric names and units declared in `BENCHMARK.json`: the end-to-end
/// list, or the per-layer list when `trace` is set.
pub fn declared_metrics(trace: bool) -> Vec<(String, String)> {
    let spec = datalog_json::Value::parse(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    let key = if trace { "per_layer" } else { "end_to_end" };
    spec.get(key)
        .and_then(datalog_json::Value::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(datalog_json::Value::as_str)
                    .expect("metric has name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}
