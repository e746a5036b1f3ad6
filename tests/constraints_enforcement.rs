//! Commit-time integrity enforcement through the one door: a key declared
//! with `key r (…);` is checked against each transaction's *net* delta,
//! so a violating transaction aborts atomically with `E0401`, a violation
//! that is undone inside the same transaction is no violation, and the
//! declaration survives a reopen from the storage image.

use mera::analyze::Code;
use mera::core::prelude::*;
use mera::lang::{parse_program, Lowerer};
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{AbortReason, Outcome, Program};

type Db = ConcurrentDb<MemStorage>;

const SCHEMA: &str = "relation beer (name: str, brewery: str, alcperc: real);\n\
                      relation brewery (name: str, country: str);\n\
                      key beer (name, brewery);";

const LOAD: &str = "insert(brewery, values (str, str) {('X', 'NL')});\n\
                    insert(beer, values (str, str, real) {('A', 'X', 5.0)})";

fn open(storage: &MemStorage) -> Db {
    ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("opens")
}

/// A database with the beer schema and its key declared, loaded with one
/// brewery and one beer.
fn loaded(storage: &MemStorage) -> Db {
    let db = open(storage);
    db.run_script(SCHEMA).expect("declares");
    assert!(db
        .try_execute(&program(&db, LOAD))
        .expect("runs")
        .is_committed());
    db
}

fn program(db: &Db, src: &str) -> Program {
    let parsed = parse_program(src).expect("parses");
    Lowerer::new(&db.pin().catalog_schema())
        .lower_program(&parsed)
        .expect("lowers")
}

const DUPLICATE: &str = "insert(beer, values (str, str, real) {('A', 'X', 5.0)})";

/// Runs the duplicate insert and asserts it aborts on the key, publishing
/// nothing.
fn assert_duplicate_aborts(db: &Db) {
    // bag insert would happily create multiplicity 2 — the key forbids it
    let before = db.pin();
    let outcome = db.try_execute(&program(db, DUPLICATE)).expect("runs");
    let Outcome::Aborted(AbortReason::KeyViolation(diag)) = outcome else {
        panic!("expected key abort, got {outcome:?}");
    };
    assert_eq!(diag.code, Code::KeyViolation);
    let after = db.pin();
    assert_eq!(after.seq(), before.seq(), "an abort publishes nothing");
    assert_eq!(after.database().relation("beer").expect("present").len(), 1);
}

#[test]
fn valid_transactions_commit() {
    let db = loaded(&MemStorage::new());
    assert_eq!(db.pin().keys().definitions().len(), 1);
    assert_eq!(db.pin().time(), 1);
}

#[test]
fn duplicate_insert_aborts_on_pk() {
    assert_duplicate_aborts(&loaded(&MemStorage::new()));
}

#[test]
fn checking_is_deferred_to_commit() {
    // inside one transaction the key may be transiently violated: insert
    // a duplicate, then delete one copy — the net delta is empty on beer
    let db = loaded(&MemStorage::new());
    let p = program(
        &db,
        "insert(beer, values (str, str, real) {('A', 'X', 5.0)});\n\
         delete(beer, values (str, str, real) {('A', 'X', 5.0)})",
    );
    let outcome = db.try_execute(&p).expect("runs");
    assert!(outcome.is_committed(), "{outcome:?}");
    assert_eq!(
        db.pin().database().relation("beer").expect("present").len(),
        1
    );
}

#[test]
fn duplicate_insert_aborts_after_reopen() {
    let storage = MemStorage::new();
    let live = loaded(&storage);
    let rebooted = MemStorage::from_image(storage.image());
    let db = open(&rebooted);
    assert_eq!(db.pin().database(), live.pin().database());
    assert_duplicate_aborts(&db);
}
