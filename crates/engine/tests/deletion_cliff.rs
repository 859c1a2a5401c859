//! Deletion-cliff regression: removing the leaf edge of a long chain must
//! cost about as much work as inserting it back.
//!
//! DRed's rederive step once checked each overdeleted atom on its own with
//! an unindexed backtracking scan, so removing the tail edge of a 200-edge
//! chain under transitive closure took millions of probes while inserting
//! it took hundreds. The assertions here count probes (`Stats::probes`),
//! not wall time, so they are free of host noise.

use datalog_ast::{fact, parse_database, parse_program, Database, GroundAtom, Program};
use datalog_engine::{seminaive, Materialized, ShardedMaterialized, Stats};

const EDGES: i64 = 200;

/// Remove probes may exceed insert probes by at most this factor.
const MAX_REMOVE_OVER_INSERT: u64 = 10;

fn chain() -> Database {
    let src: String = (0..EDGES)
        .map(|i| format!("a({}, {}).", i, i + 1))
        .collect();
    parse_database(&src).unwrap()
}

fn left_linear() -> Program {
    parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).").unwrap()
}

fn doubling() -> Program {
    parse_program("g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).").unwrap()
}

/// One write against the materialisation under test: insert (`true`) or
/// remove `fact`, returning the batch's counters, the new fixpoint and
/// whether the shard replicas agree.
type Write<'a> = dyn FnMut(bool, GroundAtom) -> (Stats, Database, bool) + 'a;

fn check(label: &str, program: &Program, write: &mut Write) {
    let full = chain();
    let leaf = fact("a", [EDGES - 1, EDGES]);
    let mut cut = full.clone();
    cut.remove(&leaf);

    let (removed, db, agree) = write(false, leaf.clone());
    assert_eq!(
        db,
        seminaive::evaluate(program, &cut),
        "{label}: fixpoint after remove"
    );
    assert!(agree, "{label}: replicas after remove");

    let (inserted, db, agree) = write(true, leaf);
    assert_eq!(
        db,
        seminaive::evaluate(program, &full),
        "{label}: fixpoint after re-insert"
    );
    assert!(agree, "{label}: replicas after re-insert");

    assert!(inserted.probes > 0, "{label}: insert did work");
    assert!(
        removed.probes <= MAX_REMOVE_OVER_INSERT * inserted.probes,
        "{label}: remove took {} probes, insert {}",
        removed.probes,
        inserted.probes
    );
}

#[test]
fn leaf_removal_costs_about_an_insert() {
    for (name, program) in [("left-linear", left_linear()), ("doubling", doubling())] {
        let mut m = Materialized::new(program.clone(), &chain());
        check(&format!("{name} unsharded"), &program, &mut |insert, f| {
            let (_, stats) = if insert {
                m.insert_with_stats([f])
            } else {
                m.remove_with_stats([f])
            };
            (stats, m.database().clone(), true)
        });
        for shards in [1, 2] {
            let mut m = ShardedMaterialized::new(program.clone(), &chain(), shards);
            check(
                &format!("{name} shards={shards}"),
                &program,
                &mut |insert, f| {
                    let (_, stats) = if insert {
                        m.insert_with_stats([f])
                    } else {
                        m.remove_with_stats([f])
                    };
                    (stats, m.database().clone(), m.replicas_agree())
                },
            );
        }
    }
}
