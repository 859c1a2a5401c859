//! Hash-partitioned sharded evaluation: N replica fixpoints that split
//! every semi-naive delta by shard key and exchange cross-shard
//! derivations once per round.
//!
//! The decomposition mirrors the engine's own parallel round: a delta
//! round is linear in the delta relation (each body occurrence of an
//! eligible predicate ranges over the delta in turn, everything else over
//! the full database), so evaluating disjoint delta partitions against
//! identical databases and unioning the outputs derives exactly the atoms
//! a single-context round would. Each shard owns an [`EvalContext`]
//! replica — compiled plans, database, and live indexes are shared
//! copy-on-write at construction (the `Relation` Arc machinery makes the
//! replicas cheap) — and the **exchange** step at the end of every round
//! feeds each shard the atoms the *other* shards derived, so replicas
//! re-converge at every round boundary:
//!
//! ```text
//! round k:   Δ ──hash(pred, tuple[0])──▶ Δ₀ … Δₙ₋₁        (partition)
//!            shard i:  outᵢ = delta_round(Δᵢ)              (parallel)
//!            Δ' = out₀ ∪ … ∪ outₙ₋₁                        (merge)
//!            shard i absorbs Δ' \ outᵢ                     (exchange)
//! ```
//!
//! Deletions run the same split over the DRed overdeletion sweep (the
//! sweep never commits, so the frozen database stays identical across
//! shards for the whole phase), then remove the merged overdeletion from
//! every replica, rederive set-wise on shard 0 (the same head-restricted
//! round plus delta rounds as [`crate::Materialized`]) and broadcast the
//! restored atoms to the other replicas.
//!
//! The shard key is `(pred, tuple[0])` — the first column is the join key
//! of every recursive rule the workloads here run (`g(X, …) :- …`), so
//! tuples that join through their first argument land on one shard and
//! the exchange carries only genuinely cross-shard derivations.

use crate::context::{EvalContext, EvalOptions};
use crate::stats::Stats;
use datalog_ast::{Database, GroundAtom, Program};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A sharded materialised fixpoint: the drop-in sharded counterpart of
/// [`crate::Materialized`], maintaining `shards` identical replicas whose
/// update work is hash-partitioned per delta round.
///
/// ```
/// use datalog_ast::{fact, parse_database, parse_program};
/// use datalog_engine::ShardedMaterialized;
///
/// let tc = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).",
/// ).unwrap();
/// let mut m = ShardedMaterialized::new(tc, &parse_database("a(1, 2).").unwrap(), 4);
///
/// m.insert([fact("a", [2, 3])]);
/// assert!(m.database().contains(&fact("g", [1, 3])));
///
/// m.remove([fact("a", [1, 2])]);
/// assert!(!m.database().contains(&fact("g", [1, 3])));
/// ```
pub struct ShardedMaterialized {
    program: Program,
    /// The asserted base facts (EDB and any seeded IDB atoms).
    base: Database,
    /// One replica context per shard; identical outside a write batch.
    shards: Vec<EvalContext>,
    /// Exchange-layer counters (rounds, cross-shard atoms) — everything
    /// the per-shard contexts cannot see.
    exchange: Stats,
}

impl std::fmt::Debug for ShardedMaterialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMaterialized")
            .field("rules", &self.program.rules.len())
            .field("shards", &self.shards.len())
            .field("base_atoms", &self.base.len())
            .field("db_atoms", &self.shards[0].database().len())
            .finish()
    }
}

impl ShardedMaterialized {
    /// Saturate `input` under `program` across `shards` partitioned
    /// workers and keep the replicas ready for incremental updates.
    /// Positive programs only; `shards` is clamped to at least 1.
    pub fn new(program: Program, input: &Database, shards: usize) -> ShardedMaterialized {
        ShardedMaterialized::with_options(program, input, shards, EvalOptions::sequential())
    }

    /// [`ShardedMaterialized::new`] with explicit per-shard [`EvalOptions`]
    /// (each shard's context keeps its own worker-thread knob).
    pub fn with_options(
        program: Program,
        input: &Database,
        shards: usize,
        opts: EvalOptions,
    ) -> ShardedMaterialized {
        assert!(
            program.is_positive(),
            "sharded maintenance requires a positive program"
        );
        let n = shards.max(1);
        // All replicas start from the same *empty* context: plans compile
        // once and are Arc-shared; databases and index stores fork
        // copy-on-write. The initial saturation then runs through the
        // sharded insert path, so even the first fixpoint is partitioned.
        let seed = EvalContext::new(&program, Database::new(), opts);
        let mut contexts = Vec::with_capacity(n);
        for _ in 1..n {
            contexts.push(seed.fork());
        }
        contexts.push(seed);
        let mut m = ShardedMaterialized {
            program,
            base: Database::new(),
            shards: contexts,
            exchange: Stats::default(),
        };
        m.insert(input.iter());
        m
    }

    /// The current fixpoint (shard 0's replica; all replicas are equal
    /// outside a write batch).
    pub fn database(&self) -> &Database {
        self.shards[0].database()
    }

    /// A shareable, immutable snapshot of the current fixpoint — same
    /// copy-on-write contract as [`crate::Materialized::snapshot`].
    pub fn snapshot(&mut self) -> Arc<Database> {
        self.shards[0].database_arc()
    }

    /// A snapshot of one shard's replica (round-robin these across readers
    /// to spread Arc contention). Outside a write batch every shard serves
    /// the same fixpoint.
    pub fn shard_snapshot(&mut self, shard: usize) -> Arc<Database> {
        let n = self.shards.len();
        self.shards[shard % n].database_arc()
    }

    /// The asserted base facts.
    pub fn base(&self) -> &Database {
        &self.base
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative work counters: the sum of every shard's own work (so
    /// replica maintenance is counted, not hidden) plus the exchange-layer
    /// `shard_*` counters.
    pub fn stats(&self) -> Stats {
        let mut total = self.exchange;
        for cx in &self.shards {
            total += cx.stats();
        }
        total
    }

    /// Do all replicas currently hold the same database? True outside a
    /// write batch by construction; exposed so tests and benchmarks can
    /// assert the exchange re-converged.
    pub fn replicas_agree(&self) -> bool {
        let first = self.shards[0].database();
        self.shards.iter().all(|cx| cx.database() == first)
    }

    /// Insert facts and propagate their consequences through partitioned
    /// delta rounds. Returns the number of atoms added to the fixpoint.
    pub fn insert(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> u64 {
        self.insert_with_stats(facts).0
    }

    /// [`ShardedMaterialized::insert`], also returning this batch's
    /// evaluation statistics (summed across shards).
    pub fn insert_with_stats(
        &mut self,
        facts: impl IntoIterator<Item = GroundAtom>,
    ) -> (u64, Stats) {
        let before = self.stats();
        let mut added: u64 = 0;

        // Seed every replica with the genuinely new facts (the replicas
        // are identical, so shard 0's novelty verdict holds for all).
        // Shard 0 dedups serially; the other replicas absorb the novel
        // set in parallel so the seeding cost does not grow with the
        // shard count.
        let mut delta = Database::new();
        for f in facts {
            self.base.insert(f.clone());
            if self.shards[0].add_fact(f.clone()) {
                delta.insert(f);
                added += 1;
            }
        }
        let (_, rest) = self.shards.split_at_mut(1);
        std::thread::scope(|scope| {
            for cx in rest {
                let delta = &delta;
                scope.spawn(move || {
                    for f in delta.iter() {
                        cx.add_fact(f);
                    }
                });
            }
        });

        let rules = all_rules(&self.program);
        while !delta.is_empty() {
            let next = self.exchange_round(&rules, &delta);
            added += next.len() as u64;
            delta = next;
        }
        (added, self.stats() - before)
    }

    /// One partitioned delta round: split `delta` by shard key, run every
    /// shard's `delta_round` in parallel, merge the outputs, and exchange
    /// each shard the atoms it did not derive itself. Returns the merged
    /// next delta; on return the replicas are identical again.
    fn exchange_round(&mut self, rules: &[usize], delta: &Database) -> Database {
        let parts = partition(delta, self.shards.len());
        let mut outs: Vec<Database> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.shards.len());
            for (cx, part) in self.shards.iter_mut().zip(&parts) {
                handles.push(scope.spawn(move || cx.delta_round(rules, part, &|_| true)));
            }
            for handle in handles {
                outs.push(handle.join().expect("shard worker panicked"));
            }
        });

        // Merge channel: union the per-shard outputs into the next delta.
        let mut next = Database::new();
        for out in &outs {
            for atom in out.iter() {
                next.insert(atom);
            }
        }

        // Exchange: every shard absorbs the cross-shard derivations so the
        // replicas re-converge before the next round partitions. Each
        // replica absorbs independently, so the exchange runs one worker
        // per shard rather than paying the replication tax serially.
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.shards.len());
            for (cx, out) in self.shards.iter_mut().zip(&outs) {
                let next = &next;
                handles.push(scope.spawn(move || {
                    let mut absorbed = 0u64;
                    for atom in next.iter() {
                        if !out.contains(&atom) && cx.add_fact(atom) {
                            absorbed += 1;
                        }
                    }
                    absorbed
                }));
            }
            for handle in handles {
                self.exchange.shard_deltas_exchanged +=
                    handle.join().expect("shard worker panicked");
            }
        });
        self.exchange.shard_exchange_rounds += 1;
        next
    }

    /// Delete base facts and propagate: the DRed overdeletion sweep runs
    /// partitioned across shards (it commits nothing, so the frozen
    /// database stays replica-identical), then the merged overdeletion is
    /// removed from every replica and rederived once, set-wise, on shard 0.
    /// Returns the net number of atoms removed from the fixpoint.
    pub fn remove(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> u64 {
        self.remove_with_stats(facts).0
    }

    /// [`ShardedMaterialized::remove`], also returning this batch's work
    /// counters (summed across shards).
    pub fn remove_with_stats(
        &mut self,
        facts: impl IntoIterator<Item = GroundAtom>,
    ) -> (u64, Stats) {
        let before = self.stats();
        let rules_vec = all_rules(&self.program);
        let rules: &[usize] = &rules_vec;

        let mut delta = Database::new();
        for f in facts {
            if self.base.remove(&f) && self.shards[0].database().contains(&f) {
                delta.insert(f);
            }
        }
        let mut overdeleted = delta.clone();
        let old_len = self.shards[0].database().len();

        // Phase 1 — partitioned overdeletion sweep over the frozen (and
        // therefore still replica-identical) old fixpoint.
        while !delta.is_empty() {
            let parts = partition(&delta, self.shards.len());
            let mut hits: Vec<Vec<GroundAtom>> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(self.shards.len());
                for (cx, part) in self.shards.iter_mut().zip(&parts) {
                    handles.push(scope.spawn(move || cx.sweep_round(rules, part, &|_| true)));
                }
                for handle in handles {
                    hits.push(handle.join().expect("shard worker panicked"));
                }
            });
            let mut next = Database::new();
            for (shard, hit) in hits.into_iter().enumerate() {
                for atom in hit {
                    if !overdeleted.contains(&atom) {
                        overdeleted.insert(atom.clone());
                        if shard_of(&atom, self.shards.len()) != shard {
                            self.exchange.shard_deltas_exchanged += 1;
                        }
                        next.insert(atom);
                    }
                }
            }
            self.exchange.shard_exchange_rounds += 1;
            delta = next;
        }

        // Remove the merged overdeletion from every replica, one worker
        // per shard (each replica's storage is independent).
        std::thread::scope(|scope| {
            for cx in &mut self.shards {
                let overdeleted = &overdeleted;
                scope.spawn(move || cx.remove_atoms(overdeleted));
            }
        });

        // Phase 2 — rederive set-wise on shard 0 (the replicas are equal
        // again), then broadcast the restorations to the other replicas in
        // one parallel pass.
        let restored = self.shards[0].rederive(rules, &self.base, &overdeleted);
        let (_, rest) = self.shards.split_at_mut(1);
        std::thread::scope(|scope| {
            for cx in rest {
                let restored = &restored;
                scope.spawn(move || {
                    for atom in restored.iter() {
                        cx.add_fact(atom);
                    }
                });
            }
        });

        let removed = old_len - self.shards[0].database().len();
        (removed as u64, self.stats() - before)
    }
}

fn all_rules(program: &Program) -> Vec<usize> {
    (0..program.rules.len()).collect()
}

/// The shard owning `atom`: hash of `(pred, tuple[0])` (the join-key
/// column), or of the bare pred for nullary tuples.
pub(crate) fn shard_of(atom: &GroundAtom, shards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    atom.pred.hash(&mut h);
    if let Some(key) = atom.tuple.first() {
        key.hash(&mut h);
    }
    (h.finish() % shards as u64) as usize
}

/// Split `delta` into per-shard databases by shard key.
fn partition(delta: &Database, shards: usize) -> Vec<Database> {
    let mut parts = vec![Database::new(); shards];
    for atom in delta.iter() {
        let shard = shard_of(&atom, shards);
        parts[shard].insert(atom);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::Materialized;
    use datalog_ast::{fact, parse_database, parse_program};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn sharded_saturation_matches_sequential() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,1). a(4,5).").unwrap();
        let reference = crate::seminaive::evaluate(&tc(), &edb);
        for shards in [1usize, 2, 3, 4, 7] {
            let m = ShardedMaterialized::new(tc(), &edb, shards);
            assert_eq!(m.database(), &reference, "shards={shards}");
            assert!(m.replicas_agree(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_insert_and_remove_match_unsharded() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut seq = Materialized::new(tc(), &edb);
        let mut sharded = ShardedMaterialized::new(tc(), &edb, 3);
        assert_eq!(seq.database(), sharded.database());

        seq.insert([fact("a", [4, 5]), fact("a", [5, 6])]);
        sharded.insert([fact("a", [4, 5]), fact("a", [5, 6])]);
        assert_eq!(seq.database(), sharded.database());
        assert!(sharded.replicas_agree());

        let r_seq = seq.remove([fact("a", [2, 3])]);
        let r_sh = sharded.remove([fact("a", [2, 3])]);
        assert_eq!(r_seq, r_sh);
        assert_eq!(seq.database(), sharded.database());
        assert!(sharded.replicas_agree());
    }

    #[test]
    fn rederivation_via_alternative_path_is_sharded_too() {
        let base = parse_database("a(1,2). a(1,9). a(9,2). a(2,3).").unwrap();
        let mut m = ShardedMaterialized::new(tc(), &base, 4);
        m.remove([fact("a", [1, 2])]);
        let mut eb = base.clone();
        eb.remove(&fact("a", [1, 2]));
        assert_eq!(m.database(), &crate::seminaive::evaluate(&tc(), &eb));
        assert!(m.database().contains(&fact("g", [1, 2])));
        assert!(m.replicas_agree());
    }

    #[test]
    fn random_mutation_stream_matches_scratch_at_every_step() {
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        for seed in 0..4u64 {
            let shards = 1 + (seed as usize % 4);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base = Database::new();
            for _ in 0..20 {
                base.insert(fact("a", [rng.gen_range(0..7), rng.gen_range(0..7)]));
            }
            let mut m = ShardedMaterialized::new(p.clone(), &base, shards);
            for step in 0..10 {
                let f = fact("a", [rng.gen_range(0..7), rng.gen_range(0..7)]);
                if step % 3 == 0 {
                    base.remove(&f);
                    m.remove([f]);
                } else {
                    base.insert(f.clone());
                    m.insert([f]);
                }
                assert_eq!(
                    m.database(),
                    &crate::seminaive::evaluate(&p, &base),
                    "seed {seed} shards {shards} step {step}"
                );
                assert!(m.replicas_agree(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn exchange_counters_advance_and_stats_sum_shards() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,5).").unwrap();
        let mut m = ShardedMaterialized::new(tc(), &edb, 2);
        let s = m.stats();
        assert!(s.shard_exchange_rounds > 0, "saturation ran rounds");
        assert!(s.has_shard_activity());
        let (_, batch) = m.insert_with_stats([fact("a", [5, 6])]);
        assert!(batch.shard_exchange_rounds > 0);
        assert!(batch.derivations > 0);
    }

    #[test]
    fn snapshots_are_frozen_and_shard_snapshots_equal() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut m = ShardedMaterialized::new(tc(), &edb, 2);
        let s0 = m.snapshot();
        for i in 0..m.shards() {
            assert_eq!(&*m.shard_snapshot(i), &*s0);
        }
        m.insert([fact("a", [3, 4])]);
        assert!(!s0.contains(&fact("g", [1, 4])), "old snapshot frozen");
        assert!(m.snapshot().contains(&fact("g", [1, 4])));
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let db = parse_database("a(1,2). a(2,3). b(4). c(). g(7,8,9).").unwrap();
        let parts = partition(&db, 3);
        let total: usize = parts.iter().map(Database::len).sum();
        assert_eq!(total, db.len());
        for atom in db.iter() {
            let owner = shard_of(&atom, 3);
            for (i, part) in parts.iter().enumerate() {
                assert_eq!(part.contains(&atom), i == owner);
            }
        }
    }
}
