//! Crash-at-every-point recovery matrix for materialized views.
//!
//! The same discipline as `crash_matrix.rs`, aimed at the view subsystem:
//! a workload that declares base relations, creates two materialized
//! views (one of them a join + group-by), churns the bases with insert
//! and delete commits, and checkpoints mid-stream, runs against the
//! fault-injecting [`MemStorage`] at **every** write budget from 0 to the
//! fault-free total. After each simulated crash the surviving bytes are
//! rebooted, and the recovered views must equal — tuple for tuple — the
//! views a shadow *volatile* engine (an [`MvccManager`]: no `Storage`, no
//! WAL, views incrementally maintained) holds at the matching durable
//! prefix.
//!
//! This pins down two properties at once: the WAL's `DeclareView` records
//! survive torn tails and checkpoints, and recovery's replay-with-views
//! reconstructs exactly what incremental maintenance built the first time.

use std::collections::BTreeMap;

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera_txn::{Ddl, DdlError, MvccManager, Outcome, Program, ViewSet};

/// One step of the workload.
enum Op {
    /// A durable schema change: a relation or a view definition.
    Ddl(Ddl),
    /// XRA program text expected to commit.
    Commit(&'static str),
    /// XRA program text expected to abort (division by zero).
    Abort(&'static str),
    Checkpoint,
}

fn orders_schema() -> Schema {
    Schema::named(&[("cust", DataType::Int), ("amount", DataType::Int)])
}

fn customers_schema() -> Schema {
    Schema::named(&[("id", DataType::Int), ("region", DataType::Str)])
}

fn declare(name: &str, schema: Schema) -> Op {
    Op::Ddl(Ddl::Relation(RelationSchema::new(name, schema)))
}

/// `view name = text`, the text over the two base relations.
fn view(name: &str, text: &str) -> Op {
    let catalog = DatabaseSchema::new()
        .with("orders", orders_schema())
        .and_then(|s| s.with("customers", customers_schema()))
        .expect("fresh");
    let expr = mera_lang::lower_rel(&catalog, text).expect("view text lowers");
    let name = name.to_owned();
    Op::Ddl(Ddl::View { name, expr })
}

/// Churn against two base relations feeding a join + group-by view and a
/// selection view, with view creation *between* commits, deletes that
/// retract view rows (group deaths included), and a checkpoint followed
/// by more churn — so recovery exercises snapshot + re-seeded
/// `DeclareView` records + a live log tail together.
fn workload() -> Vec<Op> {
    vec![
        declare("orders", orders_schema()),
        declare("customers", customers_schema()),
        Op::Commit("insert(customers, values (int, str) {(1, 'north'), (2, 'south')})"),
        Op::Commit("insert(orders, values (int, int) {(1, 10), (1, 5), (2, 7)})"),
        view(
            "region_totals",
            "groupby[(%4), SUM, %2](join[(%1 = %3)](orders, customers))",
        ),
        view("big_orders", "select[(%2 > 6)](orders)"),
        Op::Commit("insert(orders, values (int, int) {(2, 9), (1, 1)})"),
        Op::Abort("?project[(%2 / 0)](orders)"),
        Op::Commit("delete(orders, select[(%1 = 2)](orders))"),
        Op::Checkpoint,
        Op::Commit("insert(orders, values (int, int) {(2, 20)})"),
        Op::Commit("update(orders, select[(%2 = 10)](orders), (%1, %2 + 1))"),
        Op::Commit("delete(orders, select[(%1 = 1)](orders))"),
    ]
}

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("workload text parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer
        .lower_program(&parsed)
        .expect("workload text lowers")
}

/// The expected contents of every view at one durable event boundary.
type ViewImage = BTreeMap<String, Relation>;

fn view_image(views: &ViewSet) -> ViewImage {
    views
        .iter()
        .map(|v| (v.name().to_owned(), v.data().as_ref().clone()))
        .collect()
}

/// Applies a committed program to the shadow volatile engine — database
/// *and* incrementally maintained views — which must land at the exact
/// logical time the durable run committed it.
fn shadow_commit(shadow: &MvccManager, program: &Program, committed_at: u64) {
    let (outcome, next) = shadow.execute(program);
    assert!(
        matches!(outcome, Outcome::Committed(_)),
        "shadow replay of a committed program must commit"
    );
    assert_eq!(next.time(), committed_at);
}

/// The shadow's current `(database, views)`.
fn shadow_state(shadow: &MvccManager) -> (Database, ViewImage) {
    let version = shadow.pin();
    (version.database().clone(), view_image(version.views()))
}

/// Runs the workload against `storage`, stopping at the first storage
/// failure. Returns the oracle: `(units-at-event, db, views)` for every
/// durable event that completed.
fn drive(storage: MemStorage) -> Vec<(u64, Database, ViewImage)> {
    let mut states = vec![(0, Database::new(DatabaseSchema::new()), ViewImage::new())];
    let shadow = MvccManager::with_config(
        DatabaseSchema::new(),
        mera_txn::ExecConfig {
            analyze: false,
            ..Default::default()
        },
    );
    let mark = |storage: &MemStorage, shadow: &MvccManager| {
        let (db, views) = shadow_state(shadow);
        (storage.units_written(), db, views)
    };

    let durable = match ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    ) {
        Ok(d) => d,
        Err(_) => return states, // crashed during creation
    };
    states.push(mark(&storage, &shadow));

    for op in workload() {
        let is_abort = matches!(op, Op::Abort(_));
        let result: Result<(), StoreError> = match op {
            Op::Ddl(ddl) => durable.ddl(ddl.clone()).map(|_| {
                shadow
                    .ddl(&ddl, || Ok::<(), DdlError>(()))
                    .expect("shadow admits what the store admitted");
            }),
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
                if !is_abort {
                    states.push(mark(&storage, &shadow));
                }
            }
            Err(_) => break, // crashed: everything after this fails too
        }
    }
    states
}

#[test]
fn recovered_views_equal_shadow_views_at_every_crash_point() {
    // Fault-free pass: build the oracle and find the total write volume.
    let clean = MemStorage::new();
    let oracle = drive(clean.clone());
    let total = clean.units_written();
    assert_eq!(
        oracle.len(),
        14, // pre-open + open + 2 declares + 2 views + 7 commits + 1 checkpoint
        "fault-free run must complete every durable event"
    );
    let (_, final_db, final_views) = oracle.last().expect("events ran");
    assert_eq!(final_views.len(), 2);
    // sanity: the final delete kills the whole 'north' group, leaving
    // only customer 2's post-checkpoint order
    let totals = &final_views["region_totals"];
    assert_eq!(totals.multiplicity(&mera_core::tuple!["south", 20_i64]), 1);
    assert_eq!(totals.len(), 1);

    // Fault-free reboot: full image recovers state and views exactly.
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(clean.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("clean recovery");
    let recovered = recovered.pin();
    assert_eq!(recovered.database(), final_db);
    assert_eq!(view_image(recovered.views()), *final_views);

    // The matrix: crash after every single write unit.
    for budget in 0..=total {
        let storage = MemStorage::with_budget(budget);
        let _ = drive(storage.clone());

        let recovered = ConcurrentDb::open(
            MemStorage::from_image(storage.image()),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
        .unwrap_or_else(|e| panic!("recovery after crash at unit {budget} failed: {e}"))
        .pin();

        let (_, expected_db, expected_views) = oracle
            .iter()
            .rev()
            .find(|(mark, _, _)| *mark <= budget)
            .expect("oracle is seeded with the zero-mark state");
        assert_eq!(
            recovered.database(),
            expected_db,
            "crash at write unit {budget}/{total}: base state diverged"
        );
        assert_eq!(
            view_image(recovered.views()),
            *expected_views,
            "crash at write unit {budget}/{total}: recovered views are not \
             the incrementally-maintained views at that durable prefix"
        );
    }
}
