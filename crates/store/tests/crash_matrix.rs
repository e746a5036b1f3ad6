//! Crash-at-every-point recovery matrix.
//!
//! A fixed workload of declarations, transactions (commits *and* aborts)
//! and a mid-workload checkpoint runs against the fault-injecting
//! [`MemStorage`] with a write budget of N units, for **every** N from 0
//! to the total the fault-free run writes. After each simulated crash the
//! surviving bytes are rebooted and recovered, and the recovered state
//! must equal — exactly, including logical time — the state the
//! always-in-memory engine produces from the durable prefix of committed
//! history.
//!
//! The oracle shares no storage code with the subject: a shadow
//! [`MvccManager`] (the volatile engine — no `Storage`, no WAL) is fed
//! each program as the fault-free run commits it, snapshotting the
//! expected state at every durable event boundary. Aborted transactions
//! are neither transitions nor durable history, so the shadow never sees
//! them.

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera_txn::{Ddl, DdlError, MvccManager, Outcome, Program};

/// One step of the workload.
enum Op {
    Declare(&'static str, fn() -> Schema),
    /// XRA program text expected to commit.
    Commit(&'static str),
    /// XRA program text expected to abort (division by zero).
    Abort(&'static str),
    Checkpoint,
}

fn accounts_schema() -> Schema {
    Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)])
}

fn audit_schema() -> Schema {
    Schema::named(&[("note", DataType::Str)])
}

/// The workload: 10 transactions (8 commits, 2 aborts), two declarations,
/// one checkpoint — with a declaration and commits after the checkpoint
/// so both the snapshot and the post-snapshot log tail are exercised.
fn workload() -> Vec<Op> {
    vec![
        Op::Declare("accounts", accounts_schema),
        Op::Commit("insert(accounts, values (str, int) {('ann', 10)})"),
        Op::Commit("insert(accounts, values (str, int) {('bob', 20), ('bob', 20)})"),
        Op::Abort("?project[(%2 / 0)](accounts)"),
        Op::Commit("insert(accounts, values (str, int) {('cho', 30)})"),
        Op::Commit("delete(accounts, select[(%1 = 'bob')](accounts))"),
        Op::Checkpoint,
        Op::Declare("audit", audit_schema),
        Op::Commit("insert(audit, values (str) {('checkpointed')})"),
        Op::Abort("?select[((%2 / 0) = 1)](accounts)"),
        Op::Commit(
            "t = select[(%2 > 15)](accounts);\n\
             insert(audit, project[%1](t))",
        ),
        Op::Commit("?accounts"),
        Op::Commit("insert(accounts, values (str, int) {('ann', 10)})"),
    ]
}

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("workload text parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer
        .lower_program(&parsed)
        .expect("workload text lowers")
}

/// Applies a committed program to the shadow (volatile-engine) state,
/// which must land at the exact logical time the durable run committed
/// it.
fn shadow_commit(shadow: &MvccManager, program: &Program, committed_at: u64) {
    let (outcome, next) = shadow.execute(program);
    assert!(
        matches!(outcome, Outcome::Committed(_)),
        "shadow replay of a committed program must commit"
    );
    assert_eq!(next.time(), committed_at);
}

/// Runs the workload against `storage`, stopping at the first storage
/// failure. Returns the oracle: `(units-at-event, expected-state)` for
/// every durable event that completed, seeded with the pre-open state.
fn drive(storage: MemStorage) -> Vec<(u64, Database)> {
    let mut states = vec![(0, Database::new(DatabaseSchema::new()))];
    let shadow = MvccManager::with_config(
        DatabaseSchema::new(),
        mera_txn::ExecConfig {
            analyze: false,
            ..Default::default()
        },
    );
    let state = |shadow: &MvccManager| shadow.pin().database().clone();

    let durable = match ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    ) {
        Ok(d) => d,
        Err(_) => return states, // crashed during creation
    };
    states.push((storage.units_written(), state(&shadow)));

    for op in workload() {
        let result: Result<(), StoreError> = match op {
            Op::Declare(name, schema) => {
                let ddl = Ddl::Relation(RelationSchema::new(name, schema()));
                durable.ddl(ddl.clone()).map(|_| {
                    shadow
                        .ddl(&ddl, || Ok::<(), DdlError>(()))
                        .expect("shadow declare");
                })
            }
            Op::Commit(text) => {
                let program = parse(durable.pin().database(), text);
                durable.execute(&program).map(|_| {
                    shadow_commit(&shadow, &program, durable.pin().time());
                })
            }
            Op::Abort(text) => {
                let program = parse(durable.pin().database(), text);
                match durable.execute(&program) {
                    Err(StoreError::TransactionAborted(_)) => Ok(()), // not a durable event
                    Err(other) => Err(other),
                    Ok(_) => panic!("workload abort op committed"),
                }
            }
            Op::Checkpoint => durable.checkpoint(),
        };
        match result {
            Ok(()) => {
                if !matches!(op_kind(&op), OpKind::Abort) {
                    states.push((storage.units_written(), state(&shadow)));
                }
            }
            Err(_) => break, // crashed: everything after this fails too
        }
    }
    states
}

enum OpKind {
    Abort,
    Other,
}

fn op_kind(op: &Op) -> OpKind {
    match op {
        Op::Abort(_) => OpKind::Abort,
        _ => OpKind::Other,
    }
}

#[test]
fn recovery_equals_committed_prefix_at_every_crash_point() {
    // Fault-free pass: build the oracle and find the total write volume.
    let clean = MemStorage::new();
    let oracle = drive(clean.clone());
    let total = clean.units_written();
    assert_eq!(
        oracle.len(),
        13, // pre-open + open + 2 declares + 8 commits + 1 checkpoint
        "fault-free run must complete every durable event"
    );

    // Fault-free reboot sanity check: full image recovers the final state.
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(clean.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("clean recovery");
    assert_eq!(
        recovered.pin().database(),
        &oracle.last().expect("events ran").1
    );

    // The matrix: crash after every single write unit.
    for budget in 0..=total {
        let storage = MemStorage::with_budget(budget);
        let _ = drive(storage.clone());
        let image = storage.image();

        let recovered = ConcurrentDb::open(
            MemStorage::from_image(image),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
        .unwrap_or_else(|e| panic!("recovery after crash at unit {budget} failed: {e}"));

        let expected = &oracle
            .iter()
            .rev()
            .find(|(mark, _)| *mark <= budget)
            .expect("oracle is seeded with the zero-mark state")
            .1;
        assert_eq!(
            recovered.pin().database(),
            expected,
            "crash at write unit {budget}/{total}: recovered state is not \
             the committed prefix durable at that point"
        );
    }
}

#[test]
fn oracle_and_live_engine_agree_on_the_full_run() {
    // With no faults, the durable engine's final state must match the
    // shadow, clock included (an abort ticks neither).
    let storage = MemStorage::new();
    let oracle = drive(storage.clone());
    let durable = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("recovers");

    // Independently re-run the whole history on the volatile engine,
    // aborts included, and compare relation contents.
    let live = MvccManager::new(DatabaseSchema::new());
    for op in workload() {
        match op {
            Op::Declare(name, schema) => {
                let ddl = Ddl::Relation(RelationSchema::new(name, schema()));
                live.ddl(&ddl, || Ok::<(), DdlError>(())).expect("declare");
            }
            Op::Commit(text) | Op::Abort(text) => {
                let program = parse(live.pin().database(), text);
                live.execute(&program);
            }
            Op::Checkpoint => {}
        }
    }
    let (recovered, live) = (durable.pin(), live.pin());
    let (recovered, live) = (recovered.database(), live.database());
    assert_eq!(recovered, &oracle.last().expect("ran").1);
    assert_eq!(recovered.time(), live.time());
    for name in live.relation_names() {
        assert_eq!(
            recovered.relation(name).expect("same catalog"),
            live.relation(name).expect("present"),
            "relation {name} diverged from the always-in-memory engine"
        );
    }
}
