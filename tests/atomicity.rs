//! Experiment E9 — the §4.3 atomicity property under systematic
//! mid-program failure: for a program of n statements and every fault
//! point `0..=n` (a statement that fails at runtime, spliced in before
//! statement `i`), the resulting state is either the full effect (`T(D) =
//! D_{t.n}`) or the original (`T(D) = D`) — never anything in between.

use std::sync::Arc;

use mera::core::prelude::*;
use mera::expr::{Aggregate, RelExpr, ScalarExpr};
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{ExecConfig, MvccManager, Outcome, Program, Statement};
use proptest::prelude::*;

fn schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "acct",
            Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
        )
        .expect("fresh")
}

fn deposit(owner: &str, amount: i64) -> Statement {
    let s = Arc::new(Schema::named(&[
        ("owner", DataType::Str),
        ("amount", DataType::Int),
    ]));
    let rel = Relation::from_tuples(s, vec![tuple![owner, amount]]).expect("typed");
    Statement::insert("acct", RelExpr::values(rel))
}

/// A program built from flat selectors: deposits, deletes, updates,
/// assignments and queries in arbitrary order.
fn build_program(ops: &[(u8, i64)]) -> Program {
    let mut p = Program::new();
    for (i, &(op, v)) in ops.iter().enumerate() {
        let stmt = match op % 5 {
            0 => deposit("a", v),
            1 => deposit("b", v),
            2 => Statement::delete(
                "acct",
                RelExpr::scan("acct")
                    .select(ScalarExpr::attr(2).cmp(mera::expr::CmpOp::Lt, ScalarExpr::int(v))),
            ),
            3 => Statement::update(
                "acct",
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str("a"))),
                vec![
                    ScalarExpr::attr(1),
                    ScalarExpr::attr(2).add(ScalarExpr::int(v)),
                ],
            ),
            _ => Statement::assign(
                format!("t{i}"),
                RelExpr::scan("acct").group_by(&[1], Aggregate::Cnt, 1),
            ),
        };
        p = p.then(stmt);
    }
    p
}

/// A statement that always fails when it *runs*: a division by zero over
/// a one-row `values`.
fn fault() -> Statement {
    let one = Relation::from_tuples(
        Arc::new(Schema::named(&[("n", DataType::Int)])),
        vec![tuple![1_i64]],
    )
    .expect("typed");
    Statement::query(
        RelExpr::values(one).ext_project(vec![ScalarExpr::attr(1).div(ScalarExpr::int(0))]),
    )
}

/// `program` with [`fault`] spliced in before statement `at`.
fn with_fault(program: &Program, at: usize) -> Program {
    let mut statements = program.statements.clone();
    statements.insert(at, fault());
    statements.into_iter().collect()
}

/// A manager that skips static analysis, so the fault fires where it
/// stands — after the statements before it have executed — rather than
/// being rejected before the first one.
fn manager(seed: &Program) -> MvccManager {
    let config = ExecConfig {
        analyze: false,
        ..ExecConfig::default()
    };
    let mgr = MvccManager::with_config(schema(), config);
    if !seed.is_empty() {
        assert!(mgr.execute(seed).0.is_committed(), "seed commits");
    }
    mgr
}

proptest! {
    /// All-or-nothing: for every fault point, the database equals either
    /// the pre-state or the full post-state.
    #[test]
    fn atomicity_under_fault_injection(
        ops in proptest::collection::vec((0u8..5, 0i64..10), 1..8),
        seed in proptest::collection::vec((0u8..2, 1i64..10), 0..4),
    ) {
        let program = build_program(&ops);
        // seed some initial data through a committed transaction
        let mut seed_p = Program::new();
        for &(who, amount) in &seed {
            seed_p = seed_p.then(deposit(if who == 0 { "a" } else { "b" }, amount));
        }
        let pre = manager(&seed_p).pin();

        // the full effect, computed on an independent manager
        let oracle = manager(&seed_p);
        let (oracle_outcome, full) = oracle.execute(&program);

        for fault_at in 0..=program.len() {
            // a fresh manager in the pre-state each time
            let m = manager(&seed_p);
            let before = m.pin();
            let (outcome, after) = if fault_at < program.len() {
                m.execute(&with_fault(&program, fault_at))
            } else {
                m.execute(&program)
            };
            let acct = after.database().relation("acct").expect("present");
            match outcome {
                Outcome::Aborted(_) => {
                    prop_assert_eq!(
                        acct,
                        pre.database().relation("acct").expect("present"),
                        "aborted at {} but state is neither pre nor post",
                        fault_at
                    );
                    // an abort is not a transition: nothing was published
                    prop_assert_eq!(after.seq(), before.seq());
                    prop_assert_eq!(after.time(), before.time());
                }
                Outcome::Committed(_) => {
                    prop_assert!(oracle_outcome.is_committed());
                    prop_assert_eq!(acct, full.database().relation("acct").expect("present"));
                    prop_assert_eq!(fault_at, program.len(), "fault must abort");
                }
            }
        }
    }

    /// Durability: reopening from the crash image (replaying the WAL)
    /// always reconstructs the exact relation contents and logical time,
    /// whatever mix of commits and aborts happened.
    #[test]
    fn recovery_reconstructs_state(
        txns in proptest::collection::vec(
            (proptest::collection::vec((0u8..5, 0i64..10), 1..5), proptest::bool::ANY),
            0..6
        ),
    ) {
        let storage = MemStorage::new();
        let db = ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default())
            .expect("opens");
        for (ops, inject_fault) in &txns {
            let program = build_program(ops);
            let outcome = if *inject_fault {
                db.try_execute(&with_fault(&program, 0))
            } else {
                db.try_execute(&program)
            };
            outcome.expect("storage healthy");
        }
        let recovered = ConcurrentDb::open(
            MemStorage::from_image(storage.image()),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
        .expect("recovers");
        let (replayed, live) = (recovered.pin(), db.pin());
        prop_assert_eq!(replayed.time(), live.time());
        prop_assert_eq!(
            replayed.database().relation("acct").expect("present"),
            live.database().relation("acct").expect("present")
        );
    }
}

/// Isolation by snapshots and first-committer-wins: concurrent transfer
/// transactions keep the invariant Σ amounts constant.
#[test]
fn snapshot_isolation_preserves_invariants() {
    let mgr = Arc::new(MvccManager::new(schema()));
    // seed: two accounts with 1000 each
    let (o, _) = mgr.execute(
        &Program::new()
            .then(deposit("a", 1000))
            .then(deposit("b", 1000)),
    );
    assert!(o.is_committed());

    let transfer = |from: &str, to: &str, amount: i64| -> Program {
        // delete the old rows, insert adjusted ones — a classic
        // read-modify-write expressed in the algebra
        Program::new()
            .then(Statement::assign(
                "old_from",
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str(from))),
            ))
            .then(Statement::update(
                "acct",
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str(from))),
                vec![
                    ScalarExpr::attr(1),
                    ScalarExpr::attr(2).sub(ScalarExpr::int(amount)),
                ],
            ))
            .then(Statement::update(
                "acct",
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str(to))),
                vec![
                    ScalarExpr::attr(1),
                    ScalarExpr::attr(2).add(ScalarExpr::int(amount)),
                ],
            ))
    };

    let threads: Vec<_> = (0..6)
        .map(|i| {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let p = if i % 2 == 0 {
                        transfer("a", "b", 7)
                    } else {
                        transfer("b", "a", 5)
                    };
                    // every transfer writes the same unkeyed relation:
                    // the losers of a race abort with a conflict and
                    // retry against a newer snapshot
                    while !mgr.execute(&p).0.is_committed() {}
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no panics");
    }

    // Σ amounts is invariant under transfers
    let snapshot = mgr.pin();
    let acct = snapshot.database().relation("acct").expect("present");
    let total: i64 = acct
        .iter()
        .map(|(t, m)| t.attr(2).expect("amount").as_int().expect("int") * m as i64)
        .sum();
    assert_eq!(total, 2000);
}
