//! `optimize-corpus`: what `datalog lint` plus `datalog optimize` run, per
//! program of a seeded corpus. The service's install gate runs the same
//! lint.
//!
//! Each program is a base (the transitive-closure variants and
//! same-generation) with `generate::inject` redundancy planted
//! `MIN_INJECTIONS..=MAX_INJECTIONS` times. Compiling one program is
//! parse → `analyze_program` → `optimize` (Fig. 2 plus §X–XI). `core`
//! containment/chase and `analysis` dominate; the engine runs only the many
//! tiny fixpoints over frozen bodies, so its per-context fixed cost matters
//! here and almost nowhere else.

use crate::host::HostSpeed;
use crate::report::Outcome;
use crate::sample::{ms, Samples};
use crate::trace::Tracer;
use datalog_analysis::{analyze_program, LintConfig};
use datalog_ast::{parse_program, Database, Program};
use datalog_engine::{naive, seminaive};
use datalog_generate::{inject, same_generation, transitive_closure, TcVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const CORPUS: usize = 1000;
pub const MIN_INJECTIONS: usize = 1;
pub const MAX_INJECTIONS: usize = 3;
/// The `datalog optimize` default.
pub const FUEL: u64 = 10_000;
/// Each program's check EDB: this many tuples per base predicate over a
/// domain of this many constants.
pub const EDB_TUPLES: usize = 6;
pub const EDB_DOMAIN: i64 = 8;
/// Passes over the corpus in the traced run. Each pass compiles every
/// program traced and untraced back to back, the two taking turns to go
/// first, so the pair sees the same host speed and neither always runs on
/// caches the other warmed.
const TRACED_PASSES: usize = 2;

pub struct Entry {
    pub source: String,
    pub edb: Database,
    pub reference: Database,
}

fn bases() -> Vec<Program> {
    vec![
        transitive_closure(TcVariant::Doubling),
        transitive_closure(TcVariant::LeftLinear),
        transitive_closure(TcVariant::RightLinear),
        transitive_closure(TcVariant::GuardedDoubling),
        same_generation(),
    ]
}

/// Draw the corpus, its small EDBs, and the naive reference fixpoints of
/// the programs as drawn.
pub fn setup(seed: u64) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_7270);
    let bases = bases();
    let counts = MAX_INJECTIONS - MIN_INJECTIONS + 1;
    (0..CORPUS)
        .map(|k| {
            // Every (base, injection count) cell gets the same share of the
            // corpus; the seed draws where the redundancy is planted.
            let base = &bases[k % bases.len()];
            let count = MIN_INJECTIONS + (k / bases.len()) % counts;
            let (program, _) = inject(base, count, rng.gen());
            let edb = datalog_generate::random_db(
                &[("a", 2), ("up", 2), ("flat", 2), ("down", 2)],
                EDB_TUPLES,
                EDB_DOMAIN,
                rng.gen(),
            );
            let reference = naive::evaluate(&program, &edb);
            Entry {
                source: crate::eval_fixpoint::portable_source(&program),
                edb,
                reference,
            }
        })
        .collect()
}

/// Parse, lint and optimize one program, as `datalog lint` plus
/// `datalog optimize` do.
fn compile(source: &str) -> Program {
    let program = parse_program(source).expect("generated program parses");
    black_box(analyze_program(&program, &LintConfig::default()));
    datalog_optimizer::optimize(&program, FUEL)
        .expect("positive program optimizes")
        .0
}

/// The optimized program must have its input's fixpoint on the small EDB.
fn check(out: &mut Outcome, k: usize, entry: &Entry, optimized: &Program) {
    if seminaive::evaluate(optimized, &entry.edb) != entry.reference {
        out.failed += 1;
        out.fail(format!(
            "program {k}: optimized fixpoint differs from the input's"
        ));
    }
}

/// Peak RSS in MB over one compile pass of the corpus, measured right after
/// the corpus is first drawn, so the allocator holds nothing from other
/// set-ups. Measured after the set-ups instead, the peak read 21 or 24 MB
/// from run to run, by what the allocator kept from the discarded ones.
fn fresh_peak_rss_mb(seed: u64) -> f64 {
    let corpus = setup(seed);
    crate::sample::reset_peak_rss();
    for entry in &corpus {
        black_box(compile(&entry.source));
    }
    crate::sample::peak_rss_mb()
}

/// How often the reference kernel is timed between programs.
const MARK_EVERY: Duration = Duration::from_millis(250);

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let peak_rss_mb = fresh_peak_rss_mb(seed);
    let mut host = HostSpeed::new(MARK_EVERY);
    let corpus = crate::set_up(&mut out, &mut host, crate::SETUP_REPS, || setup(seed), drop);

    // Per-program (start, time) over every pass.
    let mut compile_ms: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); corpus.len()];
    let mut optimize_ms: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); corpus.len()];
    let mut first: Vec<Option<Program>> = vec![None; corpus.len()];
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes = 0;
    // Finish the first pass whatever the deadline, so every output is
    // checked; later passes run whole, so every program is timed alike.
    while passes == 0 || Instant::now() < deadline {
        passes += 1;
        for (k, entry) in corpus.iter().enumerate() {
            host.tick();
            let start = Instant::now();
            let program = parse_program(&entry.source).expect("generated program parses");
            black_box(analyze_program(&program, &LintConfig::default()));
            let t_opt = Instant::now();
            let result = datalog_optimizer::optimize(&program, FUEL);
            let end = Instant::now();
            out.attempted += 1;
            let Ok((optimized, _, _)) = result else {
                out.failed += 1;
                out.fail(format!("program {k}: optimize refused"));
                continue;
            };
            compile_ms[k].push((start, ms(end - start)));
            optimize_ms[k].push((start, ms(end - t_opt)));
            match &first[k] {
                None => {
                    check(&mut out, k, entry, &optimized);
                    first[k] = Some(optimized);
                }
                Some(earlier) if *earlier != optimized => {
                    out.failed += 1;
                    out.fail(format!("program {k}: optimize is not deterministic"));
                }
                Some(_) => {}
            }
        }
    }
    host.mark();
    // Each program's median over the passes, then quantiles over programs.
    let per_program = |times: &[Vec<(Instant, f64)>], scaled: bool| {
        let mut s = Samples::default();
        for t in times.iter().filter(|t| !t.is_empty()) {
            let mut one = if scaled {
                host.scaled(t)
            } else {
                crate::host::raw(t)
            };
            s.push(one.median());
        }
        s
    };
    let mut compile = per_program(&compile_ms, true);
    let mut optimize = per_program(&optimize_ms, true);
    let n = compile.len();
    out.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
    out.metric("main_ms", compile.median(), "ms", n);
    out.metric("second_ms", optimize.median(), "ms", n);
    out.note("compile_ms_p50", compile.median(), "ms", n);
    out.note("compile_ms_p95", compile.quantile(0.95), "ms", n);
    out.note("optimize_ms_p50", optimize.median(), "ms", n);
    out.note("optimize_ms_p95", optimize.quantile(0.95), "ms", n);
    out.note(
        "raw.compile_ms_p50",
        per_program(&compile_ms, false).median(),
        "ms",
        n,
    );
    out.note(
        "raw.optimize_ms_p50",
        per_program(&optimize_ms, false).median(),
        "ms",
        n,
    );
    out.note("passes", passes as f64, "count", 1);
    crate::report_host(&mut out, &host);
    out
}

pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tracer = Tracer::default();
    let corpus = setup(seed);
    let (mut parse, mut lint, mut optimize) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let (mut layer_total, mut untraced_total) = (0.0, 0.0);
    let mut totals = [0usize; 5];
    for pass in 0..TRACED_PASSES {
        for (k, entry) in corpus.iter().enumerate() {
            let op = (pass * corpus.len() + k) as u64;
            let time_untraced = || {
                let start = Instant::now();
                black_box(compile(&entry.source));
                ms(start.elapsed())
            };
            let untraced_first = (k + pass) % 2 == 0;
            let mut u = if untraced_first { time_untraced() } else { 0.0 };
            let root = tracer.begin("compile", op);
            let (program, t_parse) = tracer.span("ast.parse", op, || {
                parse_program(&entry.source).expect("generated program parses")
            });
            let (report, t_lint) = tracer.span("analysis.lint", op, || {
                analyze_program(&program, &LintConfig::default())
            });
            let (result, t_opt) = tracer.span("core.optimize", op, || {
                datalog_optimizer::optimize(&program, FUEL)
            });
            let total = tracer.end(root);
            if !untraced_first {
                u = time_untraced();
            }
            untraced.push(u);
            untraced_total += u;
            black_box(report);
            traced.push(total);
            layer_total += t_parse + t_lint + t_opt;
            out.attempted += 1;
            let Ok((optimized, removal, applied)) = result else {
                out.failed += 1;
                out.fail(format!("program {k}: optimize refused"));
                continue;
            };
            parse.push(t_parse);
            lint.push(t_lint);
            optimize.push(t_opt);
            if pass == 0 {
                check(&mut out, k, entry, &optimized);
                totals[0] += program.total_width();
                totals[1] += optimized.total_width();
                totals[2] += removal.atoms.len();
                totals[3] += removal.rules.len();
                totals[4] += applied.len();
            }
        }
    }
    let n = lint.len();
    out.metric("ast.parse_ms", parse.median(), "ms", n);
    out.metric("analysis.lint_ms_p50", lint.median(), "ms", n);
    out.metric("analysis.lint_ms_p95", lint.quantile(0.95), "ms", n);
    out.metric("core.optimize_ms_p50", optimize.median(), "ms", n);
    out.metric("core.optimize_ms_p95", optimize.quantile(0.95), "ms", n);
    let names = [
        "core.body_atoms_before",
        "core.body_atoms_after",
        "core.atoms_removed",
        "core.rules_removed",
        "core.tgd_rewrites",
    ];
    for (name, total) in names.iter().zip(totals) {
        out.metric(name, total as f64, "count", corpus.len());
    }
    out.metric(
        "core.removed_per_atom",
        (totals[0] - totals[1]) as f64 / totals[0] as f64,
        "ratio",
        corpus.len(),
    );
    out.metric(
        "trace.overhead_ms",
        traced.median() - untraced.median(),
        "ms",
        traced.len().min(untraced.len()),
    );
    crate::check_layer_sum(&mut out, layer_total, untraced_total, n);
    out.tracer = Some(tracer);
    out
}
