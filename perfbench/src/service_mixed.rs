//! `service-mixed`: the TCP daemon under one closed-loop writer and one
//! open-loop reader.
//!
//! Set-up binds the daemon on loopback (worker threads = min(nproc, 2)),
//! installs a redundant transitive closure with optimize-on-install, loads
//! `CHAINS` disjoint chains of `CHAIN_LEN` edges as one batch, and warms the
//! query plans. The daemon runs on a thread of this process through the
//! same `Server::bind`/`run` calls `datalog serve` makes; the benchmark
//! speaks to it only over TCP.
//!
//! * Writer: one connection, closed loop. The seeded stream visits every
//!   base edge once per block, in a seeded order: it removes the edge, and
//!   the next write restores it. Insert and remove have equal delta size,
//!   and the data size stays steady.
//! * Reader: one connection, open loop at `READ_RATE` requests per second,
//!   pipelined (a sender thread keeps the schedule, a receiver thread reads
//!   the answers), each latency timed from the request's due time. 90% are
//!   Zipf-skewed point queries `g(c, X)`, 7% `g(X, c)`, 3% full scans. The
//!   rate is about a quarter of what one closed-loop reader gets through
//!   beside the writer ([`read_capacity`]); the shares and the exponent are
//!   arbitrary.
//!
//! The traced run replays a fixed prefix of the same seeded stream in one
//! deterministic interleaving (`REPLAY_READS_PER_WRITE` reads after each
//! write); see [`run_traced`] for its depths.

use crate::counters::{self, json_path, Counters};
use crate::host::HostSpeed;
use crate::report::Outcome;
use crate::sample::{ms, shuffle, Samples};
use crate::trace::Tracer;
use datalog_ast::{parse_atom, parse_database, parse_program, Database, GroundAtom, Program};
use datalog_engine::query::Strategy;
use datalog_engine::{naive, Materialized, PlanCache};
use datalog_json::Value;
use datalog_service::{Client, Registry, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const CHAINS: usize = 2;
pub const CHAIN_LEN: usize = 48;
pub const READ_RATE: f64 = 100.0;
const SHARE_POINT: f64 = 0.90;
const SHARE_REVERSE: f64 = 0.07;
const ZIPF_S: f64 = 1.0;
const VIEW: &str = "tc";
/// Right-linear transitive closure with planted redundancy: a widened atom
/// in each rule and a composed rule, all removed by optimize-on-install.
pub const PROGRAM: &str = "g(X, Z) :- a(X, Z), a(X, W).\n\
                           g(X, Z) :- g(X, Y), a(Y, Z), a(Y, V).\n\
                           g(X, Z) :- a(X, Y), a(Y, Z).\n";
pub const REPLAY_WRITES: usize = 96;
pub const REPLAY_READS_PER_WRITE: usize = 4;

const EDGES: usize = CHAINS * CHAIN_LEN;
const NODES_PER_CHAIN: usize = CHAIN_LEN + 1;

/// The base EDB: seeded node labels for `CHAINS` chains.
pub struct Base {
    labels: Vec<i64>,
}

impl Base {
    pub fn new(seed: u64) -> Base {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276);
        let mut seen = std::collections::BTreeSet::new();
        let mut labels = Vec::new();
        while labels.len() < CHAINS * NODES_PER_CHAIN {
            let l = rng.gen_range(0..1_000_000i64);
            if seen.insert(l) {
                labels.push(l);
            }
        }
        Base { labels }
    }

    fn label(&self, node: usize) -> i64 {
        self.labels[node]
    }

    /// Edge `e` runs from position `e % CHAIN_LEN` of chain
    /// `e / CHAIN_LEN` to the next position.
    fn edge_fact(&self, e: usize) -> String {
        let (c, p) = (e / CHAIN_LEN, e % CHAIN_LEN);
        let from = c * NODES_PER_CHAIN + p;
        format!("a({}, {}).", self.label(from), self.label(from + 1))
    }

    pub fn all_facts(&self) -> String {
        (0..EDGES)
            .map(|e| self.edge_fact(e))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The base facts with edge `missing` removed.
    fn database(&self, missing: Option<usize>) -> Database {
        let text: String = (0..EDGES)
            .filter(|&e| Some(e) != missing)
            .map(|e| self.edge_fact(e))
            .collect::<Vec<_>>()
            .join(" ");
        parse_database(&text).expect("generated facts parse")
    }
}

/// Fixpoint size (`g` plus `a` atoms) with edge `missing` removed. On a
/// chain, removing the edge after position `p` cuts the `(p+1)(L-p)`
/// pairs that cross it.
fn expected_atoms(missing: Option<usize>) -> u64 {
    let l = CHAIN_LEN as u64;
    let full = CHAINS as u64 * (l * (l + 1) / 2 + l);
    match missing {
        None => full,
        Some(e) => {
            let p = (e % CHAIN_LEN) as u64;
            full - (p + 1) * (l - p) - 1
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOp {
    Remove(usize),
    Restore(usize),
}

/// The writer's seeded stream: blocks of all edges in seeded order, each
/// removal followed by its restore.
pub struct Writes {
    rng: StdRng,
    block: Vec<usize>,
    next: usize,
    pending: Option<usize>,
}

impl Writes {
    pub fn new(seed: u64) -> Writes {
        Writes {
            rng: StdRng::seed_from_u64(seed ^ 0x7772_6974),
            block: Vec::new(),
            next: 0,
            pending: None,
        }
    }
}

impl Iterator for Writes {
    type Item = WriteOp;

    fn next(&mut self) -> Option<WriteOp> {
        if let Some(e) = self.pending.take() {
            return Some(WriteOp::Restore(e));
        }
        if self.next == self.block.len() {
            self.block = (0..EDGES).collect();
            shuffle(&mut self.block, &mut self.rng);
            self.next = 0;
        }
        let e = self.block[self.next];
        self.next += 1;
        self.pending = Some(e);
        Some(WriteOp::Remove(e))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    Point,
    Reverse,
    Scan,
}

/// The reader's seeded stream: query kind by share, the constant by a Zipf
/// law over node ranks. Ranks step through chain positions with a fixed
/// stride, so the popular constants spread over short and long answer
/// sets alike for every seed; the seed picks each rank's chain, and the
/// draws.
pub struct Reads {
    rng: StdRng,
    rank_to_node: Vec<usize>,
    cdf: Vec<f64>,
}

/// Coprime with `NODES_PER_CHAIN`, so the ranks visit every position.
const RANK_STRIDE: usize = 19;

impl Reads {
    pub fn new(seed: u64) -> Reads {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_6164);
        let n = CHAINS * NODES_PER_CHAIN;
        let mut free: Vec<Vec<usize>> = vec![(0..CHAINS).collect(); NODES_PER_CHAIN];
        let rank_to_node: Vec<usize> = (0..n)
            .map(|rank| {
                let position = (rank * RANK_STRIDE) % NODES_PER_CHAIN;
                let chains = &mut free[position];
                let chain = chains.swap_remove(rng.gen_range(0..chains.len()));
                chain * NODES_PER_CHAIN + position
            })
            .collect();
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Reads {
            rng,
            rank_to_node,
            cdf,
        }
    }
}

impl Iterator for Reads {
    type Item = (ReadKind, usize);

    fn next(&mut self) -> Option<(ReadKind, usize)> {
        let u: f64 = self.rng.gen();
        let kind = if u < SHARE_POINT {
            ReadKind::Point
        } else if u < SHARE_POINT + SHARE_REVERSE {
            ReadKind::Reverse
        } else {
            ReadKind::Scan
        };
        let z: f64 = self.rng.gen();
        let rank = self.cdf.partition_point(|&c| c < z).min(self.cdf.len() - 1);
        Some((kind, self.rank_to_node[rank]))
    }
}

/// Answers `g(c, X)` / `g(X, c)` must have with edge `missing` removed.
fn expected_count(kind: ReadKind, node: usize, missing: Option<usize>) -> u64 {
    let l = CHAIN_LEN as u64;
    let (c, i) = (node / NODES_PER_CHAIN, (node % NODES_PER_CHAIN) as u64);
    let cut = missing
        .filter(|e| e / CHAIN_LEN == c)
        .map(|e| (e % CHAIN_LEN) as u64);
    match kind {
        // Reachable from position i: i+1..=L, stopping at a cut at p >= i.
        ReadKind::Point => match cut {
            Some(p) if p >= i => p - i,
            _ => l - i,
        },
        // Reaching position i: 0..i, starting after a cut at p < i.
        ReadKind::Reverse => match cut {
            Some(p) if p < i => i - p - 1,
            _ => i,
        },
        ReadKind::Scan => {
            let full = CHAINS as u64 * l * (l + 1) / 2;
            match missing {
                None => full,
                Some(e) => {
                    let p = (e % CHAIN_LEN) as u64;
                    full - (p + 1) * (l - p)
                }
            }
        }
    }
}

fn request(pairs: Vec<(&str, Value)>) -> String {
    Value::object(pairs).to_compact()
}

fn install_line() -> String {
    request(vec![
        ("op", "install".into()),
        ("program", VIEW.into()),
        ("rules", PROGRAM.into()),
    ])
}

fn write_line(base: &Base, op: WriteOp) -> String {
    let (name, e) = match op {
        WriteOp::Remove(e) => ("remove", e),
        WriteOp::Restore(e) => ("insert", e),
    };
    request(vec![
        ("op", name.into()),
        ("program", VIEW.into()),
        ("facts", base.edge_fact(e).into()),
    ])
}

fn load_line(base: &Base) -> String {
    request(vec![
        ("op", "insert".into()),
        ("program", VIEW.into()),
        ("facts", base.all_facts().into()),
    ])
}

fn query_atom(base: &Base, kind: ReadKind, node: usize) -> String {
    let c = base.label(node);
    match kind {
        ReadKind::Point => format!("g({c}, X)"),
        ReadKind::Reverse => format!("g(X, {c})"),
        ReadKind::Scan => "g(X, Y)".to_string(),
    }
}

fn query_line(atom: &str) -> String {
    request(vec![
        ("op", "query".into()),
        ("program", VIEW.into()),
        ("atom", atom.into()),
    ])
}

fn scan_line(atom: &str) -> String {
    request(vec![
        ("op", "query".into()),
        ("program", VIEW.into()),
        ("atom", atom.into()),
        ("strategy", "scan".into()),
    ])
}

const SHUTDOWN: &str = "{\"op\":\"shutdown\"}";

/// The parts of a response the benchmark checks.
#[derive(Clone, Debug, PartialEq)]
struct Reply {
    ok: bool,
    cache: String,
    count: Option<u64>,
    db_atoms: Option<u64>,
}

fn parse_reply(line: &str) -> Reply {
    let v = Value::parse(line).unwrap_or(Value::Null);
    Reply {
        ok: v.get("ok").and_then(Value::as_bool) == Some(true),
        cache: v
            .get("cache")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        count: v.get("count").and_then(Value::as_u64),
        db_atoms: v.get("db_atoms").and_then(Value::as_u64),
    }
}

/// The `cache` field of a successful reply, found without parsing the
/// whole (possibly large) answer list. Responses are compact JSON that
/// start with `"ok"`.
fn quick_cache_status(line: &str) -> Option<&str> {
    if !line.starts_with("{\"ok\":true") {
        return None;
    }
    let key = "\"cache\":\"";
    let at = line.find(key)? + key.len();
    let len = line[at..].find('"')?;
    Some(&line[at..at + len])
}

struct Daemon {
    addr: String,
    handle: JoinHandle<std::io::Result<()>>,
}

fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn start_daemon() -> Daemon {
    let config = ServerConfig {
        threads: worker_threads(),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

fn stop_daemon(daemon: Daemon, client: &mut Client) {
    let _ = client.request_line(SHUTDOWN);
    match daemon.handle.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => panic!("daemon failed: {e}"),
        Err(_) => panic!("daemon thread panicked"),
    }
}

/// Queries sent during set-up so the magic-set plans of both adornments
/// exist before timing.
fn warm_queries(base: &Base) -> Vec<String> {
    vec![
        query_atom(base, ReadKind::Point, 0),
        query_atom(base, ReadKind::Reverse, NODES_PER_CHAIN - 1),
    ]
}

/// Bind, install, load the base and warm the plans. Any refusal here is a
/// broken program, not a measurement, so it panics.
fn setup_daemon(base: &Base) -> (Daemon, Client) {
    let daemon = start_daemon();
    let mut client = Client::connect(&daemon.addr).expect("connect to daemon");
    let install = parse_reply(&client.request_line(&install_line()).expect("install"));
    assert!(install.ok, "install refused");
    let load = parse_reply(&client.request_line(&load_line(base)).expect("load"));
    assert_eq!(load.db_atoms, Some(expected_atoms(None)), "base load");
    for atom in warm_queries(base) {
        let r = parse_reply(&client.request_line(&query_line(&atom)).expect("warm"));
        assert!(r.ok, "warm-up query refused");
    }
    (daemon, client)
}

/// Compare the served fixpoint with a naive evaluation of the source
/// program over the base the benchmark tracked.
fn check_final(out: &mut Outcome, client: &mut Client, base: &Base, missing: Option<usize>) {
    let program: Program = parse_program(PROGRAM).expect("program parses");
    let reference = naive::evaluate(&program, &base.database(missing));
    for pred in ["g", "a"] {
        let line = client
            .request_line(&scan_line(&format!("{pred}(X, Y)")))
            .expect("final scan");
        let v = Value::parse(&line).unwrap_or(Value::Null);
        let mut served: Vec<String> = v
            .get("answers")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|a| a.as_str().map(str::to_string))
            .collect();
        served.sort();
        let mut expected: Vec<String> = reference
            .iter()
            .filter(|a: &GroundAtom| a.pred.to_string() == pred)
            .map(|a| a.to_string())
            .collect();
        expected.sort();
        if served != expected {
            out.fail(format!(
                "served {pred} has {} atoms, from-scratch evaluation {}",
                served.len(),
                expected.len()
            ));
        }
    }
}

/// Each query's due time and latency, by kind and over all kinds.
#[derive(Default)]
struct ReaderResult {
    point: Vec<(Instant, f64)>,
    reverse: Vec<(Instant, f64)>,
    scan: Vec<(Instant, f64)>,
    all: Vec<(Instant, f64)>,
    late: Samples,
    attempted: u64,
    failed: u64,
    cache: std::collections::BTreeMap<String, u64>,
}

/// The open-loop reader: requests leave on schedule whatever the answers
/// do, and each latency runs from the request's due time.
fn reader(addr: &str, seed: u64, start: Instant, deadline: Instant) -> ReaderResult {
    let stream = TcpStream::connect(addr).expect("reader connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut rx_stream = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut tx_stream = stream;
    let base = Base::new(seed);
    let (tx, rx) = mpsc::channel::<(Instant, ReadKind)>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut res = ReaderResult::default();
            let mut line = String::new();
            for (due, kind) in rx {
                line.clear();
                let n = rx_stream.read_line(&mut line).unwrap_or(0);
                let latency = ms(due.elapsed());
                res.attempted += 1;
                let Some(status) = quick_cache_status(&line).filter(|_| n > 0) else {
                    res.failed += 1;
                    continue;
                };
                *res.cache.entry(status.to_string()).or_insert(0) += 1;
                res.all.push((due, latency));
                match kind {
                    ReadKind::Point => res.point.push((due, latency)),
                    ReadKind::Reverse => res.reverse.push((due, latency)),
                    ReadKind::Scan => res.scan.push((due, latency)),
                }
            }
            res
        });
        let mut late = Samples::default();
        let period = Duration::from_secs_f64(1.0 / READ_RATE);
        for (i, (kind, node)) in Reads::new(seed).enumerate() {
            let due = start + period * i as u32;
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late.push(ms(Instant::now().saturating_duration_since(due)));
            let mut line = query_line(&query_atom(&base, kind, node));
            line.push('\n');
            if tx_stream.write_all(line.as_bytes()).is_err() {
                break;
            }
            if tx.send((due, kind)).is_err() {
                break;
            }
        }
        drop(tx);
        let mut res = receiver.join().expect("reader receiver");
        res.late = late;
        res
    })
}

/// What the closed-loop writer measured: each write's start and round
/// trip.
#[derive(Default)]
pub struct WriterResult {
    pub insert: Vec<(Instant, f64)>,
    pub remove: Vec<(Instant, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

/// The closed-loop writer: the seeded remove/restore stream until
/// `deadline`, each reply's `db_atoms` checked against the tracked base.
/// The reference kernel is timed between writes when `host` has a mark
/// due.
/// Leaves the base whole, restoring an edge the last timed write removed,
/// and returns the edge still missing if that restore failed.
fn writer(
    client: &mut Client,
    base: &Base,
    seed: u64,
    deadline: Instant,
    host: &mut HostSpeed,
    out: &mut Outcome,
) -> (WriterResult, Option<usize>) {
    let mut res = WriterResult::default();
    let mut missing: Option<usize> = None;
    let mut apply = |op: WriteOp, timed: bool, res: &mut WriterResult| {
        let line = write_line(base, op);
        let t = Instant::now();
        let reply = client.request_line(&line).map(|l| parse_reply(&l));
        let latency = ms(t.elapsed());
        let after = match op {
            WriteOp::Remove(e) => Some(e),
            WriteOp::Restore(_) => None,
        };
        let good = matches!(&reply, Ok(r) if r.ok && r.db_atoms == Some(expected_atoms(after)));
        if good {
            missing = after;
        } else {
            out.fail(format!(
                "{op:?}: reply {reply:?}, expected {} atoms",
                expected_atoms(after)
            ));
        }
        if timed {
            res.attempted += 1;
            match (good, op) {
                (false, _) => res.failed += 1,
                (true, WriteOp::Remove(_)) => res.remove.push((t, latency)),
                (true, WriteOp::Restore(_)) => res.insert.push((t, latency)),
            }
        }
    };
    let start = Instant::now();
    let mut writes = Writes::new(seed);
    while Instant::now() < deadline {
        host.tick();
        let op = writes.next().expect("endless stream");
        apply(op, true, &mut res);
    }
    res.elapsed_s = start.elapsed().as_secs_f64();
    if let Some(WriteOp::Restore(e)) = writes.next() {
        apply(WriteOp::Restore(e), false, &mut res);
    }
    (res, missing)
}

/// Queries per second one closed-loop reader connection gets through,
/// beside the closed-loop writer or alone. The workload's `READ_RATE` is
/// a fraction of the figure with the writer; `examples/read_capacity.rs`
/// prints both.
pub fn read_capacity(seed: u64, seconds: u64, with_writer: bool) -> Result<f64, String> {
    let base = Base::new(seed);
    let (daemon, mut client) = setup_daemon(&base);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let addr = daemon.addr.clone();
    let reads = std::thread::spawn(move || {
        let base = Base::new(seed);
        let mut reader = Client::connect(&addr).expect("reader connects");
        let mut done = 0u64;
        for (kind, node) in Reads::new(seed) {
            if Instant::now() >= deadline {
                break;
            }
            let reply = parse_reply(
                &reader
                    .request_line(&query_line(&query_atom(&base, kind, node)))
                    .expect("query"),
            );
            if !reply.ok {
                return Err(format!("query {kind:?} {node} refused"));
            }
            done += 1;
        }
        Ok(done as f64 / start.elapsed().as_secs_f64())
    });
    if with_writer {
        let mut host = HostSpeed::new(MARK_EVERY);
        writer(&mut client, &base, seed, deadline, &mut host, &mut out);
    }
    let qps = reads.join().expect("reader thread");
    stop_daemon(daemon, &mut client);
    match out.errors.first() {
        Some(e) => Err(e.clone()),
        None => qps,
    }
}

/// How often the writer times the reference kernel between writes.
const MARK_EVERY: Duration = Duration::from_millis(250);
/// Set-ups per untraced run, back to back before it: each takes tens of
/// ms, so more of them than the other workloads' steady the median.
const SETUPS: usize = 3 * crate::SETUP_REPS;

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let base = Base::new(seed);
    let mut host = HostSpeed::new(MARK_EVERY);
    let (daemon, mut client) = crate::set_up(
        &mut out,
        &mut host,
        SETUPS,
        || setup_daemon(&base),
        |(daemon, mut client)| stop_daemon(daemon, &mut client),
    );
    // `peak_rss_mb` covers the timed part, not the set-up daemons.
    let reset = crate::sample::reset_peak_rss();
    out.note("peak_rss_reset", f64::from(u8::from(reset)), "bool", 1);

    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let addr = daemon.addr.clone();
    let reader_thread = std::thread::spawn(move || reader(&addr, seed, start, deadline));
    let (w, missing) = writer(&mut client, &base, seed, deadline, &mut host, &mut out);
    let mut reads = reader_thread.join().expect("reader thread");
    host.mark();
    check_final(&mut out, &mut client, &base, missing);
    let invalidated = counters::get(&daemon_counters(&mut client), "query_cache_invalidations");
    stop_daemon(daemon, &mut client);

    out.attempted = w.attempted + reads.attempted;
    out.failed = w.failed + reads.failed;
    if reads.failed > 0 {
        out.fail(format!("{} queries failed", reads.failed));
    }
    let (ni, nr, nq, np) = (
        w.insert.len(),
        w.remove.len(),
        reads.all.len(),
        reads.point.len(),
    );
    out.metric("peak_rss_mb", crate::sample::peak_rss_mb(), "MB", 1);
    let (mut insert, mut remove) = (host.scaled(&w.insert), host.scaled(&w.remove));
    let mut all = host.scaled(&reads.all);
    out.metric("main_ms", remove.median(), "ms", nr);
    out.metric("second_ms", host.scaled(&reads.point).median(), "ms", np);
    out.note("insert_ms_p50", insert.median(), "ms", ni);
    out.note("insert_ms_p99", insert.quantile(0.99), "ms", ni);
    out.note("remove_ms_p50", remove.median(), "ms", nr);
    out.note("remove_ms_p90", remove.quantile(0.9), "ms", nr);
    out.note("remove_ms_p99", remove.quantile(0.99), "ms", nr);
    out.note("query_ms_p50", all.median(), "ms", nq);
    out.note("query_ms_p99", all.quantile(0.99), "ms", nq);
    for (name, ops) in [
        ("point", &reads.point),
        ("reverse", &reads.reverse),
        ("scan", &reads.scan),
    ] {
        let mut samples = host.scaled(ops);
        let n = samples.len();
        out.note(
            &format!("{name}_query_ms_p90"),
            samples.quantile(0.9),
            "ms",
            n,
        );
        out.note(
            &format!("{name}_query_ms_p99"),
            samples.quantile(0.99),
            "ms",
            n,
        );
    }
    out.note(
        "raw.remove_ms_p50",
        crate::host::raw(&w.remove).median(),
        "ms",
        nr,
    );
    out.note(
        "raw.insert_ms_p50",
        crate::host::raw(&w.insert).median(),
        "ms",
        ni,
    );
    out.note(
        "raw.point_query_ms_p50",
        crate::host::raw(&reads.point).median(),
        "ms",
        np,
    );
    out.note(
        "writes_per_s",
        w.attempted as f64 / w.elapsed_s,
        "1/s",
        w.attempted as usize,
    );
    out.note(
        "remove_p99_over_insert_p99",
        remove.quantile(0.99) / insert.quantile(0.99),
        "x",
        ni.min(nr),
    );
    out.note(
        "reader_late_ms_p99",
        reads.late.quantile(0.99),
        "ms",
        reads.late.len(),
    );
    for (status, n) in &reads.cache {
        out.note(
            &format!("cache_{status}_ratio"),
            *n as f64 / nq.max(1) as f64,
            "ratio",
            nq,
        );
    }
    out.note(
        "invalidations_per_write",
        invalidated / w.attempted.max(1) as f64,
        "ratio",
        w.attempted as usize,
    );
    crate::report_host(&mut out, &host);
    out
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Write(WriteOp),
    Read(ReadKind, usize),
}

impl Op {
    fn kind(self) -> &'static str {
        match self {
            Op::Write(WriteOp::Remove(_)) => "remove",
            Op::Write(WriteOp::Restore(_)) => "insert",
            Op::Read(..) => "query",
        }
    }
}

/// The fixed replay prefix of the seeded stream, in its one interleaving.
fn replay_ops(seed: u64) -> Vec<Op> {
    let mut reads = Reads::new(seed);
    let mut ops = Vec::new();
    for w in Writes::new(seed).take(REPLAY_WRITES) {
        ops.push(Op::Write(w));
        for _ in 0..REPLAY_READS_PER_WRITE {
            let (kind, node) = reads.next().expect("endless stream");
            ops.push(Op::Read(kind, node));
        }
    }
    ops
}

fn op_line(base: &Base, op: Op) -> String {
    match op {
        Op::Write(w) => write_line(base, w),
        Op::Read(kind, node) => query_line(&query_atom(base, kind, node)),
    }
}

/// Check one replayed reply against the tracked base.
fn check_reply(out: &mut Outcome, op: Op, reply: &Reply, missing: Option<usize>) {
    let good = reply.ok
        && match op {
            Op::Write(_) => reply.db_atoms == Some(expected_atoms(missing)),
            Op::Read(kind, node) => reply.count == Some(expected_count(kind, node, missing)),
        };
    out.attempted += 1;
    if !good {
        out.failed += 1;
        out.fail(format!("{op:?}: reply {reply:?}"));
    }
}

fn missing_after(op: Op, missing: Option<usize>) -> Option<usize> {
    match op {
        Op::Write(WriteOp::Remove(e)) => Some(e),
        Op::Write(WriteOp::Restore(_)) => None,
        Op::Read(..) => missing,
    }
}

/// The daemon's own counters, read by name from its `stats` JSON: every
/// engine counter under `metrics.eval`, and the atom churn.
fn daemon_counters(client: &mut Client) -> Counters {
    let line = client
        .request_line(&request(vec![
            ("op", "stats".into()),
            ("program", VIEW.into()),
        ]))
        .expect("stats");
    let v = Value::parse(&line).unwrap_or(Value::Null);
    let mut c: Counters = json_path(&v, &["metrics", "eval"])
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
        .collect();
    for key in ["atoms_added", "atoms_removed"] {
        if let Some(x) = json_path(&v, &["metrics", key]).and_then(Value::as_f64) {
            c.insert(key.to_string(), x);
        }
    }
    c
}

/// One paired replay of the seeded stream. Each op goes to the traced
/// daemon (depth 1) and to an untraced twin daemon, the two taking turns to
/// go first, then to a `Registry` in process (depth 2) and, for a query the registry answered
/// from a cache miss, to `PlanCache::answer` (depth 3). Running the depths
/// op by op puts each op's paired times in the same moment of the host.
///
/// Writes have no depth 3: the registry's one-shard view drives
/// `ShardedMaterialized`, which the benchmark does not call, so a write's
/// registry time includes the view and its engine. The engine counters of
/// each write are the daemon's own, from its `stats` JSON around the write.
/// The `incremental` module's `Materialized` is timed on the same write
/// stream beside the replay; it is not a part of any daemon time.
pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tracer = Tracer::default();
    let base = Base::new(seed);
    let ops = replay_ops(seed);
    let n = ops.len();

    let (daemon, mut client) = setup_daemon(&base);
    let (twin, mut twin_client) = setup_daemon(&base);
    let registry = Registry::new();
    for line in [install_line(), load_line(&base)]
        .into_iter()
        .chain(warm_queries(&base).iter().map(|a| query_line(a)))
    {
        assert!(
            parse_reply(&registry.handle_line(&line).0).ok,
            "registry set-up"
        );
    }
    let source = parse_program(PROGRAM).expect("program parses");
    let (installed, _) = datalog_optimizer::minimize_program(&source).expect("positive program");
    let plans = PlanCache::new(Arc::new(installed.clone()));
    for atom in warm_queries(&base) {
        let atom = parse_atom(&atom).expect("query parses");
        plans.answer(&base.database(None), &atom, Strategy::Magic);
    }
    let mut view = Materialized::new(installed, &base.database(None));

    let (mut d1, mut d2, mut d3, mut untraced) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut cache_status = Vec::with_capacity(n);
    let (mut materialized_insert, mut materialized_remove, mut miss_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut insert_counters, mut remove_counters) = (Counters::new(), Counters::new());
    let mut missing = None;
    for (i, &op) in ops.iter().enumerate() {
        let line = op_line(&base, op);
        let kind = op.kind();
        let before = match op {
            Op::Write(_) => Some(daemon_counters(&mut client)),
            Op::Read(..) => None,
        };
        // The untraced twin takes turns with the traced daemon to go first,
        // so neither always runs right after the in-process depths.
        let mut twin_request = || {
            let t = Instant::now();
            let reply = parse_reply(&twin_client.request_line(&line).expect("twin request"));
            untraced.push(ms(t.elapsed()));
            reply
        };
        let twin_first = i % 2 == 1;
        let mut twin_reply = twin_first.then(&mut twin_request);
        let id1 = tracer.begin(format!("service.client.{kind}"), i as u64);
        let response = client.request_line(&line).expect("replay request");
        d1.push(tracer.end(id1));
        if let Some(before) = before {
            let delta = counters::diff(&daemon_counters(&mut client), &before);
            match op {
                Op::Write(WriteOp::Remove(_)) => counters::add(&mut remove_counters, &delta),
                _ => counters::add(&mut insert_counters, &delta),
            }
        }
        let reply = parse_reply(&response);
        missing = missing_after(op, missing);
        check_reply(&mut out, op, &reply, missing);

        let twin_reply = twin_reply.get_or_insert_with(twin_request);

        let id2 = tracer.begin_under(format!("service.registry.{kind}"), i as u64, Some(id1));
        let (registry_response, _) = registry.handle_line(&line);
        d2.push(tracer.end(id2));
        for (depth, other) in [
            ("twin daemon", &*twin_reply),
            ("registry", &parse_reply(&registry_response)),
        ] {
            if *other != reply {
                out.fail(format!(
                    "op {i}: {depth} replied {other:?}, daemon {reply:?}"
                ));
            }
        }

        d3.push(match op {
            Op::Read(rk, node) if reply.cache == "miss" => {
                let atom = parse_atom(&query_atom(&base, rk, node)).expect("query parses");
                let edb = base.database(missing);
                let id3 = tracer.begin_under("engine.query.miss", i as u64, Some(id2));
                let (answers, _) = plans.answer(&edb, &atom, Strategy::Magic);
                let t = tracer.end(id3);
                if Some(answers.len() as u64) != reply.count {
                    out.fail(format!("op {i}: engine found {} answers", answers.len()));
                }
                miss_ms.push(t);
                t
            }
            // Cache hits, subsumed answers and scans do no engine work.
            Op::Read(..) => 0.0,
            Op::Write(w) => {
                let e = match w {
                    WriteOp::Remove(e) | WriteOp::Restore(e) => e,
                };
                let facts: Vec<GroundAtom> = parse_database(&base.edge_fact(e))
                    .expect("fact parses")
                    .iter()
                    .collect();
                let id = tracer.begin_under(format!("engine.incremental.{kind}"), i as u64, None);
                match w {
                    WriteOp::Remove(_) => view.remove(facts),
                    WriteOp::Restore(_) => view.insert(facts),
                };
                let t = tracer.end(id);
                match w {
                    WriteOp::Remove(_) => materialized_remove.push(t),
                    WriteOp::Restore(_) => materialized_insert.push(t),
                }
                0.0
            }
        });
        cache_status.push(reply.cache);
    }
    if view.database().len() as u64 != expected_atoms(missing) {
        out.fail(format!(
            "Materialized holds {} atoms after the replay, expected {}",
            view.database().len(),
            expected_atoms(missing)
        ));
    }
    check_final(&mut out, &mut client, &base, missing);
    let invalidated = counters::get(&daemon_counters(&mut client), "query_cache_invalidations");
    stop_daemon(daemon, &mut client);
    stop_daemon(twin, &mut twin_client);

    // Per-op paired differences between adjacent depths.
    let by_kind = |kind: &str, xs: &[f64]| -> Samples {
        let mut s = Samples::default();
        for (op, &x) in ops.iter().zip(xs) {
            if op.kind() == kind {
                s.push(x);
            }
        }
        s
    };
    let server_self: Vec<f64> = (0..n).map(|i| d1[i] - d2[i]).collect();
    let registry_self: Vec<f64> = (0..n).map(|i| d2[i] - d3[i]).collect();
    for kind in ["insert", "remove", "query"] {
        let mut total = by_kind(kind, &d1);
        let nk = total.len();
        let (name, mut reg) = match kind {
            "query" => (
                "service.registry.query_self_ms",
                by_kind(kind, &registry_self),
            ),
            _ => (
                if kind == "insert" {
                    "service.registry.insert_ms"
                } else {
                    "service.registry.remove_ms"
                },
                by_kind(kind, &d2),
            ),
        };
        out.metric(name, reg.median(), "ms", reg.len());
        out.metric(
            &format!("service.client.{kind}_ms_p50"),
            total.median(),
            "ms",
            nk,
        );
        out.metric(
            &format!("service.client.{kind}_ms_p99"),
            total.quantile(0.99),
            "ms",
            nk,
        );
    }
    let mut all_server = Samples::default();
    server_self.iter().for_each(|&x| all_server.push(x));
    out.metric(
        "service.server.rtt_overhead_ms",
        all_server.median(),
        "ms",
        n,
    );

    let queries = ops.iter().filter(|o| matches!(o, Op::Read(..))).count();
    for (status, plural) in [
        ("hit", "hits"),
        ("subsumed", "subsumed"),
        ("miss", "misses"),
    ] {
        let k = cache_status.iter().filter(|c| *c == status).count();
        out.metric(
            &format!("service.query.{plural}"),
            k as f64,
            "count",
            queries,
        );
        out.metric(
            &format!("service.query.{status}_ratio"),
            k as f64 / queries as f64,
            "ratio",
            queries,
        );
    }
    out.metric(
        "service.query.invalidations_per_write",
        invalidated / REPLAY_WRITES as f64,
        "ratio",
        REPLAY_WRITES,
    );

    let (ni, nr) = (materialized_insert.len(), materialized_remove.len());
    for (kind, samples) in [
        ("insert", &mut materialized_insert),
        ("remove", &mut materialized_remove),
    ] {
        out.metric(
            &format!("engine.incremental.{kind}_ms_p50"),
            samples.median(),
            "ms",
            samples.len(),
        );
        out.metric(
            &format!("engine.incremental.{kind}_ms_p99"),
            samples.quantile(0.99),
            "ms",
            samples.len(),
        );
    }
    out.metric(
        "engine.incremental.insert_probes_per_op",
        counters::get(&insert_counters, "probes") / ni.max(1) as f64,
        "count",
        ni,
    );
    out.metric(
        "engine.incremental.remove_probes_per_op",
        counters::get(&remove_counters, "probes") / nr.max(1) as f64,
        "count",
        nr,
    );
    // Every insert in the stream restores the edge the write before it
    // removed, so its index builds are those paid after a remove.
    out.metric(
        "engine.incremental.index_builds_after_remove",
        counters::get(&insert_counters, "index_builds") / ni.max(1) as f64,
        "count",
        ni,
    );
    out.metric(
        "engine.incremental.atoms_added",
        counters::get(&insert_counters, "atoms_added"),
        "count",
        ni,
    );
    out.metric(
        "engine.incremental.atoms_removed",
        counters::get(&remove_counters, "atoms_removed"),
        "count",
        nr,
    );
    out.metric(
        "engine.query.miss_ms",
        miss_ms.median(),
        "ms",
        miss_ms.len(),
    );

    // The depths split each traced round trip exactly; what they must add
    // up to is the untraced twin's round trip of the same ops.
    let traced_total: f64 = (0..n)
        .map(|i| server_self[i] + registry_self[i] + d3[i])
        .sum();
    let untraced_total: f64 = untraced.iter().sum();
    let mut overhead = Samples::default();
    (0..n).for_each(|i| overhead.push(d1[i] - untraced[i]));
    out.metric("trace.overhead_ms", overhead.median(), "ms", n);
    crate::check_layer_sum(&mut out, traced_total, untraced_total, n);
    out.tracer = Some(tracer);
    out
}
