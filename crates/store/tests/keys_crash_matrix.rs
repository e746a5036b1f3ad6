//! Crash-at-every-point recovery matrix for key constraints.
//!
//! The same discipline as `stats_crash_matrix.rs`, aimed at the declared
//! keys: a workload that declares base relations, declares keys
//! mid-stream (one before any data, one over existing data), churns the
//! bases with insert/update/delete commits, runs one commit that *violates*
//! a key (aborts, writes nothing), and checkpoints, runs against the
//! fault-injecting [`MemStorage`] at **every** write budget from 0 to the
//! fault-free total. After each simulated crash the surviving bytes are
//! rebooted and the recovered state must agree with a shadow volatile run
//! (an [`MvccManager`]: no `Storage`, no WAL) at the matching durable
//! prefix:
//!
//! * the database contents equal the shadow's exactly,
//! * the recovered key definitions equal the shadow's exactly, and
//! * the recovered constraint still *enforces*: a commit that would break
//!   a recovered key aborts, and a conforming commit goes through — i.e.
//!   the per-key-point counts rebuilt at recovery match the data.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera_txn::{Ddl, DdlError, MvccManager, Outcome, Program, Version};

/// One step of the workload.
enum Op {
    /// A durable schema change: a relation or a key.
    Ddl(Ddl),
    /// XRA program text expected to commit.
    Commit(&'static str),
    /// XRA program text expected to abort on a key violation.
    ViolatingCommit(&'static str),
    Checkpoint,
}

fn members_schema() -> Schema {
    Schema::named(&[("name", DataType::Str), ("town", DataType::Str)])
}

fn towns_schema() -> Schema {
    Schema::named(&[("town", DataType::Str), ("country", DataType::Str)])
}

fn declare(name: &str, schema: Schema) -> Op {
    Op::Ddl(Ddl::Relation(RelationSchema::new(name, schema)))
}

fn key(relation: &str, attrs: &[usize]) -> Op {
    let (relation, attrs) = (relation.to_owned(), attrs.to_vec());
    Op::Ddl(Ddl::Key { relation, attrs })
}

/// Key declarations between commits, a violating commit (aborts, leaves no
/// durable trace), a key declared over *existing* data, and a checkpoint
/// followed by more churn — so recovery exercises snapshot + re-seeded
/// `DeclareKey` records + a live log tail together.
fn workload() -> Vec<Op> {
    vec![
        declare("member", members_schema()),
        declare("towns", towns_schema()),
        // key on an empty relation, enforced from the first insert
        key("member", &[1]),
        Op::Commit(
            "insert(member, values (str, str) {('dick', 'enschede'), ('peter', 'hengelo')})",
        ),
        Op::ViolatingCommit("insert(member, values (str, str) {('dick', 'losser')})"),
        Op::Commit("insert(towns, values (str, str) {('enschede', 'NL'), ('hengelo', 'NL')})"),
        // key declared over existing (conforming) data
        key("towns", &[1]),
        // delete + insert at the same key point in one transaction: the
        // net delta conforms, so this commits under the key
        Op::Commit(
            "delete(member, select[(%1 = 'dick')](member)); \
             insert(member, values (str, str) {('dick', 'losser')})",
        ),
        Op::Checkpoint,
        Op::Commit("insert(member, values (str, str) {('maurice', 'enschede')})"),
        Op::ViolatingCommit("insert(towns, values (str, str) {('enschede', 'DE')})"),
        Op::Commit("delete(member, select[(%1 = 'peter')](member))"),
    ]
}

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("workload text parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer
        .lower_program(&parsed)
        .expect("workload text lowers")
}

/// The shadow volatile engine: database + keys maintained incrementally.
fn new_shadow() -> MvccManager {
    MvccManager::with_config(
        DatabaseSchema::new(),
        mera_txn::ExecConfig {
            analyze: false,
            ..Default::default()
        },
    )
}

/// Applies a committed program to the shadow, which must land at the
/// exact logical time the durable run committed it.
fn shadow_commit(shadow: &MvccManager, program: &Program, committed_at: u64) {
    let (outcome, next) = shadow.execute(program);
    assert!(
        matches!(outcome, Outcome::Committed(_)),
        "shadow replay of a committed program must commit"
    );
    assert_eq!(next.time(), committed_at);
}

/// Runs the workload against `storage`, stopping at the first storage
/// failure. Returns the oracle: `(units-at-event, shadow)` for every
/// durable event that completed.
fn drive(storage: MemStorage) -> Vec<(u64, Arc<Version>)> {
    let shadow = new_shadow();
    let mut states = vec![(0, shadow.pin())];

    let durable = match ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    ) {
        Ok(d) => d,
        Err(_) => return states, // crashed during creation
    };
    states.push((storage.units_written(), shadow.pin()));

    for op in workload() {
        let is_violation = matches!(op, Op::ViolatingCommit(_));
        let result: Result<(), StoreError> = match op {
            Op::Ddl(ddl) => durable.ddl(ddl.clone()).map(|_| {
                shadow
                    .ddl(&ddl, || Ok::<(), DdlError>(()))
                    .expect("workload keys hold on declaration");
            }),
            Op::Commit(text) => {
                let program = parse(durable.pin().database(), text);
                durable.execute(&program).map(|_| {
                    shadow_commit(&shadow, &program, durable.pin().time());
                })
            }
            Op::ViolatingCommit(text) => {
                let program = parse(durable.pin().database(), text);
                match durable.execute(&program) {
                    Err(StoreError::TransactionAborted(reason)) => {
                        assert!(
                            reason.contains("E0401"),
                            "violating commit must abort on the key, got: {reason}"
                        );
                        Ok(()) // not a durable event
                    }
                    Err(other) => Err(other),
                    Ok(_) => panic!("workload violation op committed"),
                }
            }
            Op::Checkpoint => durable.checkpoint(),
        };
        match result {
            Ok(()) => {
                if !is_violation {
                    states.push((storage.units_written(), shadow.pin()));
                }
            }
            Err(_) => break, // crashed: everything after this fails too
        }
    }
    states
}

/// Asserts the recovered keys agree with the shadow at one durable prefix
/// — definitionally and behaviourally.
fn assert_keys_match(recovered: &ConcurrentDb<MemStorage>, expected: &Version, label: &str) {
    let before = recovered.pin();
    assert_eq!(
        before.database(),
        expected.database(),
        "{label}: base state"
    );
    assert_eq!(
        before.keys().definitions(),
        expected.keys().definitions(),
        "{label}: key definitions"
    );

    // Behavioural check: the rebuilt counts enforce exactly. For every
    // declared key with data, re-inserting an existing tuple must abort
    // (its key point is occupied), and the abort must leave the state
    // unchanged.
    for (relation, _) in before.keys().definitions() {
        let rel = before.database().relation(&relation).expect("keyed");
        let Some(t) = rel.support().next() else {
            continue;
        };
        let values = t
            .values()
            .iter()
            .map(|v| match v {
                Value::Str(s) => format!("'{s}'"),
                other => other.to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ");
        let types = rel
            .schema()
            .attributes()
            .iter()
            .map(|a| a.dtype.to_string().to_lowercase())
            .collect::<Vec<_>>()
            .join(", ");
        let text = format!("insert({relation}, values ({types}) {{({values})}})");
        let program = parse(before.database(), &text);
        match recovered.execute(&program) {
            Err(StoreError::TransactionAborted(reason)) => {
                assert!(
                    reason.contains("E0401"),
                    "{label}: expected a key-violation abort on '{relation}', got: {reason}"
                );
            }
            other => {
                panic!("{label}: duplicate insert into '{relation}' must abort, got {other:?}")
            }
        }
        // an abort is not a transition: nothing at all was published
        assert_eq!(
            recovered.pin().seq(),
            before.seq(),
            "{label}: abort must not change the state"
        );
    }
}

#[test]
fn recovered_keys_enforce_at_every_crash_point() {
    // Fault-free pass: build the oracle and find the total write volume.
    let clean = MemStorage::new();
    let oracle = drive(clean.clone());
    let total = clean.units_written();
    assert_eq!(
        oracle.len(),
        12, // pre-open + open + 2 declares + 2 keys + 5 commits + 1 checkpoint
        "fault-free run must complete every durable event"
    );
    let (_, final_shadow) = oracle.last().expect("events ran");
    let member = final_shadow.database().relation("member").expect("member");
    assert_eq!(member.len(), 2); // dick@losser, maurice@enschede

    // Fault-free reboot recovers definitions and enforcement.
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(clean.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("clean recovery");
    assert_keys_match(&recovered, final_shadow, "fault-free reboot");

    // The matrix: crash after every single write unit.
    for budget in 0..=total {
        let storage = MemStorage::with_budget(budget);
        let _ = drive(storage.clone());

        let recovered = ConcurrentDb::open(
            MemStorage::from_image(storage.image()),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
        .unwrap_or_else(|e| panic!("recovery after crash at unit {budget} failed: {e}"));

        let (_, expected) = oracle
            .iter()
            .rev()
            .find(|(mark, _)| *mark <= budget)
            .expect("oracle is seeded with the zero-mark state");
        assert_keys_match(
            &recovered,
            expected,
            &format!("crash at write unit {budget}/{total}"),
        );
    }
}
