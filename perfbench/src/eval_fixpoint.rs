//! `eval-fixpoint`: what `datalog eval` runs.
//!
//! A sequential `seminaive::evaluate_with_stats` of a redundancy-bloated
//! transitive closure, alternating with the same call on its §VII-minimized
//! form, over one seeded graph EDB. The engine fixpoint does nearly all the
//! work: the bloated bodies take the 3+-atom pipeline tier, the minimized
//! ones the 2-atom hash join. Service, DRed and the optimizer are absent
//! from the timed loop.
//!
//! Inputs. The program is `bloated_tc(6, 99)`. Its generator seed is fixed
//! because other draws differ in cost by four orders of magnitude (0.8 ms
//! to 6.9 s on a 16-node cycle), so a per-run draw would measure the draw.
//! The workload seed draws the graph: a 96-node directed cycle whose node
//! labels and edge order are seeded, so every seed does the same join work
//! over different constants and a different storage layout. Program and
//! graph reach the engine as text through the parser, as with the CLI.

use crate::counters::{self, Counters};
use crate::host::HostSpeed;
use crate::report::Outcome;
use crate::sample::{ms, shuffle, Samples};
use crate::trace::Tracer;
use datalog_ast::{parse_database, parse_program, Database, Program};
use datalog_engine::{naive, seminaive, EvalContext, EvalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const PROGRAM_SEED: u64 = 99;
pub const INJECTIONS: usize = 6;
pub const NODES: usize = 96;
/// Fixpoint pairs in the traced run, traced and untraced in turn.
const TRACED_PAIRS: usize = 12;
/// `EvalContext::new` calls timed per program in the traced run.
const CONTEXT_REPS: usize = 5;

/// Render a generated program in the surface syntax. Generated fresh
/// variables are named like `w$123`; the grammar has no `$` and reads a
/// lowercase initial as a constant, so the prefix is uppercased.
pub fn portable_source(program: &Program) -> String {
    let src = program.to_string();
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        if chars.peek() == Some(&'$') {
            chars.next();
            out.extend(c.to_uppercase());
            out.push('_');
        } else {
            out.push(c);
        }
    }
    out
}

/// The seeded graph as fact text: a directed cycle over `NODES` distinct
/// random labels, edges listed in seeded order.
pub fn graph_source(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6576_616c);
    let mut labels: Vec<i64> = Vec::with_capacity(NODES);
    let mut seen = std::collections::BTreeSet::new();
    while labels.len() < NODES {
        let l = rng.gen_range(0..1_000_000i64);
        if seen.insert(l) {
            labels.push(l);
        }
    }
    let mut edges: Vec<(i64, i64)> = (0..NODES)
        .map(|i| (labels[i], labels[(i + 1) % NODES]))
        .collect();
    shuffle(&mut edges, &mut rng);
    edges
        .iter()
        .map(|(x, y)| format!("a({x}, {y}).\n"))
        .collect()
}

pub struct Setup {
    pub program: Program,
    pub minimized: Program,
    pub edb: Database,
    pub reference: Database,
    pub parse_ms: f64,
}

/// Generate and parse the inputs and minimize the program; also returns
/// the parse time in ms.
fn inputs(seed: u64) -> (Program, Program, Database, f64) {
    let program_src = portable_source(&datalog_generate::bloated_tc(INJECTIONS, PROGRAM_SEED));
    let edb_src = graph_source(seed);
    let start = Instant::now();
    let program = parse_program(&program_src).expect("generated program parses");
    let edb = parse_database(&edb_src).expect("generated facts parse");
    let parse_ms = ms(start.elapsed());
    let (minimized, _) =
        datalog_optimizer::minimize_program(&program).expect("bloated TC is positive");
    (program, minimized, edb, parse_ms)
}

/// Generate and parse the inputs, minimize the program, and compute the
/// reference fixpoint with the naive evaluator.
pub fn setup(seed: u64) -> Setup {
    let (program, minimized, edb, parse_ms) = inputs(seed);
    let reference = naive::evaluate(&program, &edb);
    Setup {
        program,
        minimized,
        edb,
        reference,
        parse_ms,
    }
}

fn check(out: &mut Outcome, which: &str, got: &Database, reference: &Database) {
    if got != reference {
        out.failed += 1;
        out.fail(format!(
            "{which} fixpoint has {} atoms, the naive reference {}",
            got.len(),
            reference.len()
        ));
    }
}

/// Peak RSS in MB while each program is evaluated once, measured before
/// anything else runs in the process, so the allocator is as fresh as in a
/// `datalog eval` process. Measured after set-up instead, the peak was what
/// the allocator kept resident from set-up's naive reference evaluation,
/// 129 or 152 MB from run to run.
fn fresh_peak_rss_mb(seed: u64) -> f64 {
    let (program, minimized, edb, _) = inputs(seed);
    crate::sample::reset_peak_rss();
    for p in [&program, &minimized] {
        black_box(seminaive::evaluate_with_stats(p, &edb));
    }
    crate::sample::peak_rss_mb()
}

/// How often the reference kernel is timed between fixpoints.
const MARK_EVERY: Duration = Duration::from_millis(250);

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let peak_rss_mb = fresh_peak_rss_mb(seed);
    let mut host = HostSpeed::new(MARK_EVERY);
    let s = crate::set_up(&mut out, &mut host, crate::SETUP_REPS, || setup(seed), drop);

    let (mut bloated, mut minimized) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        for (program, samples, which) in [
            (&s.program, &mut bloated, "bloated"),
            (&s.minimized, &mut minimized, "minimized"),
        ] {
            host.tick();
            let start = Instant::now();
            let (db, stats) = seminaive::evaluate_with_stats(black_box(program), &s.edb);
            samples.push((start, ms(start.elapsed())));
            black_box(stats);
            out.attempted += 1;
            check(&mut out, which, &db, &s.reference);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    host.mark();

    let (nb, nm) = (bloated.len(), minimized.len());
    out.metric("peak_rss_mb", peak_rss_mb, "MB", 1);
    let (mut b, mut m) = (host.scaled(&bloated), host.scaled(&minimized));
    out.metric("main_ms", b.median(), "ms", nb);
    out.metric("second_ms", m.median(), "ms", nm);
    out.note("bloated_fixpoint_ms", b.median(), "ms", nb);
    out.note("bloated_fixpoint_ms_p90", b.quantile(0.9), "ms", nb);
    out.note("minimized_fixpoint_ms", m.median(), "ms", nm);
    out.note("minimized_fixpoint_ms_p90", m.quantile(0.9), "ms", nm);
    out.note(
        "minimization_speedup",
        b.median() / m.median(),
        "x",
        nb.min(nm),
    );
    let (mut rb, mut rm) = (crate::host::raw(&bloated), crate::host::raw(&minimized));
    out.note("raw.bloated_fixpoint_ms", rb.median(), "ms", nb);
    out.note("raw.bloated_fixpoint_ms_min", rb.quantile(0.0), "ms", nb);
    out.note("raw.minimized_fixpoint_ms", rm.median(), "ms", nm);
    out.note("raw.minimized_fixpoint_ms_min", rm.quantile(0.0), "ms", nm);
    crate::report_host(&mut out, &host);
    out
}

pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tracer = Tracer::default();
    let s = setup(seed);
    out.metric("ast.parse_ms", s.parse_ms, "ms", 1);
    let atoms = s.reference.len() as f64;
    let dict_bytes: usize = s
        .reference
        .predicates()
        .flat_map(|p| s.reference.relations_of(p))
        .map(|r| r.dict_bytes())
        .sum();
    out.metric(
        "ast.bytes_per_atom",
        (s.reference.arena_bytes() + dict_bytes) as f64 / atoms,
        "B/atom",
        s.reference.len(),
    );

    let mut traced_pairs = Samples::default();
    let mut untraced_pairs = Samples::default();
    let (mut layer_total, mut untraced_total) = (0.0, 0.0);
    let mut per_program: Vec<(Samples, Option<Counters>)> =
        vec![(Samples::default(), None), (Samples::default(), None)];
    for pair in 0..TRACED_PAIRS {
        let traced = pair % 2 == 0;
        let start = Instant::now();
        for (k, (program, which)) in [(&s.program, "bloated"), (&s.minimized, "minimized")]
            .into_iter()
            .enumerate()
        {
            let op = (pair * 2 + k) as u64;
            let (db, stats) = if traced {
                let root = tracer.begin(format!("eval.{which}"), op);
                let (res, engine_ms) = tracer.span(format!("engine.{which}.fixpoint"), op, || {
                    seminaive::evaluate_with_stats(program, &s.edb)
                });
                tracer.end(root);
                layer_total += engine_ms;
                per_program[k].0.push(engine_ms);
                res
            } else {
                let start = Instant::now();
                let res = seminaive::evaluate_with_stats(program, &s.edb);
                untraced_total += ms(start.elapsed());
                res
            };
            out.attempted += 1;
            check(&mut out, which, &db, &s.reference);
            let counters = counters::of(stats);
            match &per_program[k].1 {
                None => per_program[k].1 = Some(counters),
                Some(first) if *first != counters => out.fail(format!(
                    "{which} counters differ between identical evaluations"
                )),
                Some(_) => {}
            }
        }
        let pair_ms = ms(start.elapsed());
        if traced {
            traced_pairs.push(pair_ms);
        } else {
            untraced_pairs.push(pair_ms);
        }
    }

    for (k, (program, which)) in [(&s.program, "bloated"), (&s.minimized, "minimized")]
        .into_iter()
        .enumerate()
    {
        let mut context_new = Samples::default();
        for rep in 0..CONTEXT_REPS {
            let input = s.edb.clone();
            let (cx, t) = tracer.span(format!("engine.{which}.context_new"), rep as u64, || {
                EvalContext::new(program, input, EvalOptions::sequential())
            });
            black_box(cx);
            context_new.push(t);
        }
        let (samples, counters) = &mut per_program[k];
        let c = counters.take().unwrap_or_default();
        let n = samples.len();
        out.metric(
            &format!("engine.{which}.fixpoint_ms"),
            samples.median(),
            "ms",
            n,
        );
        out.metric(
            &format!("engine.{which}.context_new_ms"),
            context_new.median(),
            "ms",
            context_new.len(),
        );
        for (name, value) in &c {
            out.metric(&format!("engine.{which}.{name}"), *value, "count", 1);
        }
        let g = |name: &str| counters::get(&c, name);
        out.metric(
            &format!("engine.{which}.derivations_per_match"),
            counters::ratio(g("derivations"), g("matches")),
            "ratio",
            1,
        );
        out.metric(
            &format!("engine.{which}.matches_per_probe"),
            counters::ratio(g("matches"), g("probes")),
            "ratio",
            1,
        );
        out.metric(
            &format!("engine.{which}.batch_reuse_ratio"),
            counters::ratio(g("batch_reuse_hits"), g("pipelined_tasks")),
            "ratio",
            1,
        );
    }
    out.metric(
        "trace.overhead_ms",
        traced_pairs.median() - untraced_pairs.median(),
        "ms",
        traced_pairs.len().min(untraced_pairs.len()),
    );
    crate::check_layer_sum(&mut out, layer_total, untraced_total, TRACED_PAIRS);
    out.tracer = Some(tracer);
    out
}
