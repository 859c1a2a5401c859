//! Incremental maintenance of a materialised fixpoint.
//!
//! **Insertions** exploit monotonicity (§X uses it explicitly: "adding more
//! atoms to the input does not remove any atom from the output"): the new
//! facts seed a semi-naive delta and only their consequences are computed.
//!
//! **Deletions** are non-monotone and use DRed (delete-and-rederive,
//! Gupta–Mumick–Subrahmanian 1993): first *overdelete* everything with a
//! derivation through a deleted atom (a delta-driven sweep), then
//! *rederive* overdeleted atoms that still have alternative support from
//! the surviving database. To keep base facts and derived atoms apart, the
//! materialisation remembers the base (`base`): an overdeleted atom that is
//! still in the base is always rederived. Rederivation is set-wise
//! ([`EvalContext`]'s `rederive`): one head-restricted round whose guard
//! atom ranges over the overdeleted set, then ordinary delta rounds, all
//! through the same compiled kernels as insertion — so a removal costs work
//! in the overdeleted set, not in the database.
//!
//! The materialisation lives on a persistent [`EvalContext`], so its rule
//! plans are compiled once at construction and its hash indexes survive
//! *across update batches*: an insertion batch appends its consequences
//! into the live indexes, and only a deletion invalidates them (they
//! re-fill lazily). The seed implementation recompiled every plan and
//! rebuilt every index on every `insert`/`remove` call.

use crate::context::{EvalContext, EvalOptions};
use crate::stats::Stats;
use datalog_ast::{Database, GroundAtom, Program};
use std::sync::Arc;

/// A materialised fixpoint that can absorb insertions and deletions
/// incrementally.
///
/// ```
/// use datalog_ast::{fact, parse_database, parse_program};
/// use datalog_engine::Materialized;
///
/// let tc = parse_program(
///     "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).",
/// ).unwrap();
/// let mut m = Materialized::new(tc, &parse_database("a(1, 2).").unwrap());
///
/// m.insert([fact("a", [2, 3])]);
/// assert!(m.database().contains(&fact("g", [1, 3])));
///
/// m.remove([fact("a", [1, 2])]);
/// assert!(!m.database().contains(&fact("g", [1, 3])));
/// assert!(m.database().contains(&fact("g", [2, 3])));
/// ```
pub struct Materialized {
    program: Program,
    /// The asserted base facts (EDB and any seeded IDB atoms).
    base: Database,
    /// The persistent evaluation context: compiled plans, the saturated
    /// database (base ∪ derived), and live indexes over it.
    cx: EvalContext,
}

impl Clone for Materialized {
    fn clone(&self) -> Materialized {
        Materialized {
            program: self.program.clone(),
            base: self.base.clone(),
            cx: self.cx.fork(),
        }
    }
}

impl std::fmt::Debug for Materialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materialized")
            .field("rules", &self.program.rules.len())
            .field("base_atoms", &self.base.len())
            .field("db_atoms", &self.cx.database().len())
            .finish()
    }
}

impl Materialized {
    /// Saturate `input` under `program` (semi-naive) and keep the result
    /// ready for incremental updates. Positive programs only.
    pub fn new(program: Program, input: &Database) -> Materialized {
        Materialized::with_options(program, input, EvalOptions::sequential())
    }

    /// [`Materialized::new`] with explicit [`EvalOptions`]: updates are
    /// propagated with the context's worker-thread knob.
    pub fn with_options(program: Program, input: &Database, opts: EvalOptions) -> Materialized {
        assert!(
            program.is_positive(),
            "incremental maintenance requires a positive program"
        );
        let mut cx = EvalContext::new(&program, input.clone(), opts);
        let rules = all_rules(&program);
        let mut delta = cx.full_round(&rules);
        while !delta.is_empty() {
            delta = cx.delta_round(&rules, &delta, &|_| true);
        }
        Materialized {
            program,
            base: input.clone(),
            cx,
        }
    }

    /// The current fixpoint.
    pub fn database(&self) -> &Database {
        self.cx.database()
    }

    /// A shareable, immutable snapshot of the current fixpoint.
    ///
    /// The returned [`Arc`] stays valid (and unchanged) across later
    /// [`Materialized::insert`]/[`Materialized::remove`] calls — readers can
    /// keep querying it while a writer mutates the materialisation. The
    /// context database is copy-on-write, so handing out a snapshot costs
    /// one clone per *write batch* (at the first post-snapshot mutation),
    /// not one per reader.
    pub fn snapshot(&mut self) -> Arc<Database> {
        self.cx.database_arc()
    }

    /// The asserted base facts.
    pub fn base(&self) -> &Database {
        &self.base
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Cumulative work counters over the materialisation's whole life
    /// (initial saturation plus every update batch).
    pub fn stats(&self) -> Stats {
        self.cx.stats()
    }

    /// Insert facts and propagate their consequences. Returns the number of
    /// atoms added (inserted facts that were new, plus derived atoms).
    ///
    /// Cost is proportional to the consequences of the *delta*, not to the
    /// size of the existing database — the whole point of the method.
    pub fn insert(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> u64 {
        self.insert_with_stats(facts).0
    }

    /// [`Materialized::insert`], also returning this batch's evaluation
    /// statistics.
    pub fn insert_with_stats(
        &mut self,
        facts: impl IntoIterator<Item = GroundAtom>,
    ) -> (u64, Stats) {
        let before = self.cx.stats();
        let mut added: u64 = 0;

        // Seed delta with the genuinely new facts; the live indexes absorb
        // them immediately.
        let mut delta = Database::new();
        for f in facts {
            self.base.insert(f.clone());
            if self.cx.add_fact(f.clone()) {
                delta.insert(f);
                added += 1;
            }
        }

        // Delta-driven rounds: any rule whose body mentions a predicate with
        // delta tuples (EDB or IDB — inserted facts may be either) can fire.
        let rules = all_rules(&self.program);
        while !delta.is_empty() {
            delta = self.cx.delta_round(&rules, &delta, &|_| true);
            added += delta.len() as u64;
        }
        (added, self.cx.stats() - before)
    }
}

impl Materialized {
    /// Delete base facts and propagate: DRed overdeletion followed by
    /// rederivation. Returns the net number of atoms removed from the
    /// fixpoint.
    pub fn remove(&mut self, facts: impl IntoIterator<Item = GroundAtom>) -> u64 {
        self.remove_with_stats(facts).0
    }

    /// [`Materialized::remove`], also returning this batch's work counters
    /// (probes and matches cover both the overdeletion sweep and the
    /// rederivation).
    pub fn remove_with_stats(
        &mut self,
        facts: impl IntoIterator<Item = GroundAtom>,
    ) -> (u64, Stats) {
        let before = self.cx.stats();
        let rules = all_rules(&self.program);

        // Phase 1 — overdelete. `overdeleted` accumulates every atom with
        // some derivation (over the OLD fixpoint) passing through a deleted
        // or overdeleted atom. The sweep never commits, so the context
        // database *is* the old fixpoint throughout — no snapshot clone.
        let mut delta = Database::new();
        for f in facts {
            if self.base.remove(&f) && self.cx.database().contains(&f) {
                delta.insert(f);
            }
        }
        let mut overdeleted = delta.clone();
        let old_len = self.cx.database().len();
        while !delta.is_empty() {
            let hit = self.cx.sweep_round(&rules, &delta, &|_| true);
            let mut next_delta = Database::new();
            for atom in hit {
                if !overdeleted.contains(&atom) {
                    overdeleted.insert(atom.clone());
                    next_delta.insert(atom);
                }
            }
            delta = next_delta;
        }

        // Remove the overdeleted region from the fixpoint (this is the one
        // operation that invalidates the live indexes).
        self.cx.remove_atoms(&overdeleted);

        // Phase 2 — rederive set-wise: base facts come straight back, then
        // one head-restricted round over the overdeleted set and ordinary
        // delta rounds restore everything the survivors still support.
        self.cx.rederive(&rules, &self.base, &overdeleted);

        let removed = old_len - self.cx.database().len();
        (removed as u64, self.cx.stats() - before)
    }
}

fn all_rules(program: &Program) -> Vec<usize> {
    (0..program.rules.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program, Pred};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        m.insert([fact("a", [3, 4]), fact("a", [4, 5])]);

        let full_edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,5).").unwrap();
        let scratch = crate::seminaive::evaluate(&tc(), &full_edb);
        assert_eq!(m.database(), &scratch);
    }

    #[test]
    fn duplicate_inserts_are_noops() {
        let edb = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let added = m.insert([fact("a", [1, 2]), fact("g", [1, 2])]);
        assert_eq!(added, 0);
    }

    #[test]
    fn inserting_idb_facts_propagates() {
        // Uniform semantics: a seeded g-atom composes with existing ones.
        let edb = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let added = m.insert([fact("g", [2, 7])]);
        assert!(added >= 2); // g(2,7) itself plus g(1,7)
        assert!(m.database().contains(&fact("g", [1, 7])));
    }

    #[test]
    fn bridge_edge_connects_components() {
        // Two chains; the inserted bridge must produce all cross pairs.
        let edb = parse_database("a(1,2). a(2,3). a(11,12). a(12,13).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let before = m.database().relation_len(Pred::new("g"));
        m.insert([fact("a", [3, 11])]);
        let after = m.database().relation_len(Pred::new("g"));
        assert!(after > before + 1);
        assert!(m.database().contains(&fact("g", [1, 13])));

        let full = parse_database("a(1,2). a(2,3). a(11,12). a(12,13). a(3,11).").unwrap();
        assert_eq!(m.database(), &crate::seminaive::evaluate(&tc(), &full));
    }

    #[test]
    fn incremental_work_is_delta_proportional() {
        // Insert one edge at the END of a long chain under the LEFT-linear
        // program: a(n, n+1) only creates suffix→(n+1) pairs via single
        // firings; the delta work must be far below recomputation.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let n = 60i64;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let edb = parse_database(&src).unwrap();
        let mut m = Materialized::new(p.clone(), &edb);
        let (_, inc_stats) = m.insert_with_stats([fact("a", [n, n + 1])]);

        let mut full_src = src;
        full_src.push_str(&format!("a({}, {}).", n, n + 1));
        let full_edb = parse_database(&full_src).unwrap();
        let (scratch, full_stats) = crate::seminaive::evaluate_with_stats(&p, &full_edb);
        assert_eq!(m.database(), &scratch);
        assert!(
            inc_stats.matches * 4 < full_stats.matches,
            "incremental {} vs full {}",
            inc_stats.matches,
            full_stats.matches
        );
    }

    #[test]
    fn insert_batches_reuse_indexes() {
        let edb = parse_database("a(1,2). a(2,3).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let builds_after_init = m.stats().index_builds;
        let (_, s1) = m.insert_with_stats([fact("a", [3, 4])]);
        let (_, s2) = m.insert_with_stats([fact("a", [4, 5])]);
        // Monotone batches never rebuild: they append into the indexes the
        // initial saturation built.
        assert_eq!(s1.index_builds + s2.index_builds, 0);
        assert_eq!(m.stats().index_builds, builds_after_init);
        assert!(s1.index_appends > 0);
    }

    #[test]
    fn snapshots_are_immutable_and_cached() {
        let edb = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &edb);
        let s1 = m.snapshot();
        let s1_again = m.snapshot();
        assert!(Arc::ptr_eq(&s1, &s1_again), "cached between batches");

        m.insert([fact("a", [2, 3])]);
        // The old snapshot is frozen; a new one sees the update.
        assert!(!s1.contains(&fact("g", [1, 3])));
        let s2 = m.snapshot();
        assert!(s2.contains(&fact("g", [1, 3])));
        assert!(!Arc::ptr_eq(&s1, &s2));

        m.remove([fact("a", [1, 2])]);
        assert!(s2.contains(&fact("g", [1, 2])), "frozen across removes too");
        assert!(!m.snapshot().contains(&fact("g", [1, 2])));
    }

    #[test]
    fn repeated_inserts_stay_consistent() {
        let mut m = Materialized::new(tc(), &Database::new());
        for i in 0..10i64 {
            m.insert([fact("a", [i, i + 1])]);
        }
        let full: String = (0..10).map(|i| format!("a({}, {}).", i, i + 1)).collect();
        let scratch = crate::seminaive::evaluate(&tc(), &parse_database(&full).unwrap());
        assert_eq!(m.database(), &scratch);
    }

    #[test]
    fn parallel_materialization_matches_sequential() {
        let edb = parse_database("a(1,2). a(2,3). a(3,4). a(4,1).").unwrap();
        let mut seq = Materialized::new(tc(), &edb);
        let mut par = Materialized::with_options(tc(), &edb, EvalOptions::with_threads(4));
        assert_eq!(seq.database(), par.database());
        seq.insert([fact("a", [4, 5])]);
        par.insert([fact("a", [4, 5])]);
        assert_eq!(seq.database(), par.database());
        seq.remove([fact("a", [2, 3])]);
        par.remove([fact("a", [2, 3])]);
        assert_eq!(seq.database(), par.database());
    }
}

#[cfg(test)]
mod deletion_tests {
    use super::*;
    use datalog_ast::{fact, parse_database, parse_program, Program};

    fn tc() -> Program {
        parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
    }

    fn scratch(p: &Program, base: &Database) -> Database {
        crate::seminaive::evaluate(p, base)
    }

    #[test]
    fn remove_edge_from_chain() {
        let base = parse_database("a(1,2). a(2,3). a(3,4).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        let removed = m.remove([fact("a", [2, 3])]);
        assert!(removed > 1, "edge plus dependent closure atoms");
        let mut expected_base = base.clone();
        expected_base.remove(&fact("a", [2, 3]));
        assert_eq!(m.database(), &scratch(&tc(), &expected_base));
        assert!(!m.database().contains(&fact("g", [1, 4])));
        assert!(m.database().contains(&fact("g", [3, 4])));
    }

    #[test]
    fn rederivation_via_alternative_path() {
        // Two parallel paths 1→2; deleting one keeps g(1,2) derivable.
        let base = parse_database("a(1,2). a(1,9). a(9,2). a(2,3).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        m.remove([fact("a", [1, 2])]);
        let mut eb = base.clone();
        eb.remove(&fact("a", [1, 2]));
        assert_eq!(m.database(), &scratch(&tc(), &eb));
        // g(1,2) survives through 1→9→2.
        assert!(m.database().contains(&fact("g", [1, 2])));
        assert!(m.database().contains(&fact("g", [1, 3])));
    }

    #[test]
    fn remove_nonexistent_is_noop() {
        let base = parse_database("a(1,2).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        let before = m.database().clone();
        assert_eq!(m.remove([fact("a", [7, 8])]), 0);
        // Removing a derived (non-base) atom is also a no-op.
        assert_eq!(m.remove([fact("g", [1, 2])]), 0);
        assert_eq!(m.database(), &before);
    }

    #[test]
    fn remove_then_insert_round_trips() {
        let base = parse_database("a(1,2). a(2,3). a(3,4). a(4,5).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        let original = m.database().clone();
        m.remove([fact("a", [3, 4])]);
        m.insert([fact("a", [3, 4])]);
        assert_eq!(m.database(), &original);
    }

    #[test]
    fn seeded_idb_fact_can_be_removed() {
        let base = parse_database("a(1,2). g(2, 9).").unwrap();
        let mut m = Materialized::new(tc(), &base);
        assert!(m.database().contains(&fact("g", [1, 9])));
        m.remove([fact("g", [2, 9])]);
        let eb = parse_database("a(1,2).").unwrap();
        assert_eq!(m.database(), &scratch(&tc(), &eb));
        assert!(!m.database().contains(&fact("g", [1, 9])));
    }

    #[test]
    fn random_deletion_stream_matches_scratch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut base = Database::new();
            for _ in 0..25 {
                base.insert(fact("a", [rng.gen_range(0..8), rng.gen_range(0..8)]));
            }
            let mut m = Materialized::new(p.clone(), &base);
            // Interleave deletions and insertions.
            for step in 0..12 {
                let x = rng.gen_range(0..8);
                let y = rng.gen_range(0..8);
                let f = fact("a", [x, y]);
                if step % 3 == 0 {
                    base.insert(f.clone());
                    m.insert([f]);
                } else {
                    base.remove(&f);
                    m.remove([f]);
                }
                assert_eq!(
                    m.database(),
                    &crate::seminaive::evaluate(&p, &base),
                    "seed {seed} step {step}"
                );
            }
        }
    }

    #[test]
    fn deletion_work_is_delta_proportional_on_far_edge() {
        // Delete the LAST edge of a long chain (left-linear program):
        // overdeletion touches only pairs ending at the tail.
        let p = parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap();
        let n = 60i64;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("a({}, {}).", i, i + 1));
        }
        let base = parse_database(&src).unwrap();
        let mut m = Materialized::new(p.clone(), &base);
        let (_, del_stats) = m.remove_with_stats([fact("a", [n - 1, n])]);

        let mut eb = base.clone();
        eb.remove(&fact("a", [n - 1, n]));
        let (scratch_db, scratch_stats) = crate::seminaive::evaluate_with_stats(&p, &eb);
        assert_eq!(m.database(), &scratch_db);
        assert!(
            del_stats.matches < scratch_stats.matches,
            "incremental deletion {} vs recompute {}",
            del_stats.matches,
            scratch_stats.matches
        );
    }
}
