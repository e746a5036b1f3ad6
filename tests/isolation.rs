//! The isolation level of the front door, stated as tests:
//! [`ConcurrentDb`] provides **snapshot isolation** (SI), not
//! serializability.
//!
//! A writer runs on a pinned version and its commit installs the net
//! delta it computed there; commits are validated first-committer-wins on
//! what they *write*. Each test prepares its transactions on one pin and
//! commits them in an order it chooses, through the split
//! [`ConcurrentDb::prepare`] / [`ConcurrentDb::commit`] — one thread, no
//! sleeps, so the interleaving is the test's and not the scheduler's:
//!
//! * a lost update aborts;
//! * write skew is admitted — that is SI;
//! * a read dependency on a concurrent commit is admitted too, and a
//!   reopen recovers exactly what was acknowledged.

use mera::core::prelude::*;
use mera::lang::{parse_program, Lowerer};
use mera::store::{is_conflict, ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{Outcome, Program};

type Db = ConcurrentDb<MemStorage>;

/// Opens a database over `storage` and runs the set-up `script`.
fn open(storage: &MemStorage, script: &str) -> Db {
    let db = ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("opens");
    db.run_script(script).expect("sets up");
    db
}

fn reopen(storage: &MemStorage) -> Db {
    let rebooted = MemStorage::from_image(storage.image());
    ConcurrentDb::open(rebooted, DatabaseSchema::new(), StoreOptions::default()).expect("recovers")
}

fn program(db: &Db, src: &str) -> Program {
    let parsed = parse_program(src).expect("parses");
    Lowerer::new(&db.pin().catalog_schema())
        .lower_program(&parsed)
        .expect("lowers")
}

fn len(db: &Db, relation: &str) -> u64 {
    db.pin()
        .database()
        .relation(relation)
        .expect("declared")
        .len()
}

/// Prepares every program on one pinned version, then commits them in
/// the order given; returns the outcomes.
fn on_one_pin(db: &Db, sources: &[&str]) -> Vec<Outcome> {
    let pin = db.pin();
    let prepared: Vec<_> = sources
        .iter()
        .map(|src| {
            db.prepare(pin.clone(), &program(db, src))
                .expect("prepares")
        })
        .collect();
    prepared
        .into_iter()
        .map(|p| db.commit(p).expect("storage healthy").0)
        .collect()
}

#[test]
fn a_read_dependency_commits_and_recovers_as_acknowledged() {
    let storage = MemStorage::new();
    let db = open(
        &storage,
        "relation r (a: int); relation s (a: int);\n\
         insert(r, values (int) {(0)});",
    );
    // the writer of s reads r as of the pin, where it holds one row; the
    // writer of r commits first
    let outcomes = on_one_pin(&db, &["insert(r, values (int) {(1)})", "insert(s, r)"]);
    assert!(outcomes.iter().all(Outcome::is_committed), "{outcomes:?}");
    assert_eq!(len(&db, "r"), 2);
    assert_eq!(len(&db, "s"), 1, "SI: s got what its snapshot read");

    // recovery adds the logged delta; re-running `insert(s, r)` on its
    // serial predecessor would give s two rows
    let recovered = reopen(&storage);
    assert_eq!(recovered.pin().database(), db.pin().database());
    assert_eq!(recovered.pin().time(), db.pin().time());
}

#[test]
fn a_lost_update_aborts() {
    let storage = MemStorage::new();
    let db = open(
        &storage,
        "relation acct (id: int, balance: int);\n\
         insert(acct, values (int, int) {(1, 100)});",
    );
    let outcomes = on_one_pin(
        &db,
        &[
            "update(acct, acct, (%1, %2 + 10))",
            "update(acct, acct, (%1, %2 + 20))",
        ],
    );
    assert!(outcomes[0].is_committed());
    assert!(is_conflict(&outcomes[1]), "{:?}", outcomes[1]);
    let balance = db.pin().database().relation("acct").expect("acct").clone();
    assert_eq!(
        balance.sorted_pairs(),
        vec![(mera::core::tuple![1, 110], 1)]
    );
    assert_eq!(reopen(&storage).pin().database(), db.pin().database());
}

#[test]
fn write_skew_is_admitted() {
    let storage = MemStorage::new();
    let db = open(
        &storage,
        "relation x (a: int); relation y (a: int);\n\
         insert(x, values (int) {(1)});\n\
         insert(y, values (int) {(1)});",
    );
    // each copies the other's relation into its own: serially, the second
    // would see the first's row and one relation would end with three
    // rows; under SI both read the pin and each ends with two
    let outcomes = on_one_pin(&db, &["insert(x, y)", "insert(y, x)"]);
    assert!(outcomes.iter().all(Outcome::is_committed), "{outcomes:?}");
    assert_eq!((len(&db, "x"), len(&db, "y")), (2, 2));
    assert_eq!(reopen(&storage).pin().database(), db.pin().database());
}
