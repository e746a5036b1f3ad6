//! Commit-time integrity enforcement through the one door: a key declared
//! with `key r (…);` is checked against each transaction's *net* delta,
//! so a violating transaction aborts atomically with `E0401`, a violation
//! that is undone inside the same transaction is no violation, and the
//! declaration survives a reopen from the storage image. A key is a
//! unique index: declaring it brings the index on its attributes unless
//! one is there, and a refused declaration brings none.

use mera::analyze::Code;
use mera::core::prelude::*;
use mera::lang::{parse_program, Lowerer};
use mera::store::{ConcurrentDb, MemStorage, StoreError, StoreOptions};
use mera::txn::{AbortReason, Ddl, Outcome, Program};

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

/// A fresh database holding `relation r (a: int, b: str)` with the rows
/// `(1, 'x')` and `(2, 'x')` — a key on `a` holds, one on `b` does not.
fn two_rows() -> Db {
    let db = open(&MemStorage::new());
    db.run_script(
        "relation r (a: int, b: str);\n\
         begin insert(r, values (int, str) {(1, 'x'), (2, 'x')}); end;",
    )
    .expect("loads");
    db
}

/// Inserts `(a, b)` into `r` and returns the key abort's message.
fn key_abort(db: &Db, a: i64, b: &str) -> String {
    let src = format!("insert(r, values (int, str) {{({a}, '{b}')}})");
    let outcome = db.try_execute(&program(db, &src)).expect("runs");
    let Outcome::Aborted(AbortReason::KeyViolation(diag)) = outcome else {
        panic!("expected key abort, got {outcome:?}");
    };
    assert_eq!(diag.code, Code::KeyViolation);
    diag.message
}

/// Declares `key r (attrs)`.
fn declare_key(db: &Db, attrs: &[usize]) -> Result<bool, StoreError> {
    let (relation, attrs) = ("r".to_owned(), attrs.to_vec());
    db.ddl(Ddl::Key { relation, attrs })
}

#[test]
fn a_key_brings_its_index() {
    let db = two_rows();
    assert!(db.pin().indexes().is_empty());
    declare_key(&db, &[1]).expect("declares");
    assert!(db.pin().indexes().find("r", &[1]).is_some());
}

#[test]
fn a_key_reuses_an_index_on_its_attributes() {
    let db = two_rows();
    db.create_index("r", &[1]).expect("indexes");
    declare_key(&db, &[1]).expect("declares");
    assert_eq!(db.pin().indexes().len(), 1);
}

#[test]
fn a_key_over_a_reordered_index_reports_sorted_points() {
    let db = two_rows();
    db.create_index("r", &[2, 1]).expect("indexes");
    declare_key(&db, &[1, 2]).expect("declares");
    assert_eq!(db.pin().indexes().len(), 1);
    let msg = key_abort(&db, 2, "x");
    assert!(
        msg.contains("key r(%1,%2) violated: <2, 'x'> would occur with multiplicity 2"),
        "{msg}"
    );
}

#[test]
fn an_index_created_after_the_key_keeps_enforcement() {
    let db = two_rows();
    declare_key(&db, &[1]).expect("declares");
    db.create_index("r", &[1]).expect("indexes");
    assert_eq!(db.pin().indexes().len(), 1);
    let msg = key_abort(&db, 1, "y");
    assert!(msg.contains("<1> would occur with multiplicity 2"), "{msg}");
}

#[test]
fn a_refused_key_leaves_the_indexes_alone() {
    let db = two_rows();
    db.create_index("r", &[1]).expect("indexes");
    let before = db.pin().indexes().definitions();
    let err = declare_key(&db, &[2]).expect_err("'x' occurs twice");
    assert!(
        matches!(&err, StoreError::Refused(d) if d[0].code == Code::KeyViolation),
        "{err}"
    );
    assert!(!db.pin().keys().is_declared("r", &[2]));
    assert_eq!(db.pin().indexes().definitions(), before);
}
