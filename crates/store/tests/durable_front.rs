//! The durable front door, single client: every kind of catalog object
//! and both language doors survive a reopen from the crash image, and a
//! refused or failed step leaves no durable trace.
//!
//! (Concurrency, group commit and poisoning are exercised next to the
//! implementation in `src/concurrent.rs` and by `concurrent_crash_matrix`.)

use mera_core::prelude::*;
use mera_core::tuple;
use mera_lang::RunResult;
use mera_store::{
    wal, ConcurrentDb, MemStorage, StoreError, StoreOptions, SNAPSHOT_FILE, WAL_FILE,
};
use mera_txn::{Ddl, HashIndex};

type Db = ConcurrentDb<MemStorage>;

fn accounts() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "accounts",
            Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
        )
        .expect("fresh schema")
}

fn open_with(storage: MemStorage, schema: DatabaseSchema) -> Db {
    ConcurrentDb::open(storage, schema, StoreOptions::default()).expect("open")
}

/// A fresh `accounts` database on `storage`.
fn open(storage: &MemStorage) -> Db {
    open_with(storage.clone(), accounts())
}

/// "Power loss, reboot": a new database over the bytes that reached the
/// disk. The files are the source of truth, so no schema is supplied.
fn reopen(storage: &MemStorage) -> Db {
    open_with(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
    )
}

fn deposit(db: &Db, owner: &str, balance: i64) -> Result<(), StoreError> {
    db.run_sql(&format!(
        "INSERT INTO accounts VALUES ('{owner}', {balance})"
    ))
    .map(|_| ())
}

fn view(db: &Db, name: &str) -> Relation {
    let version = db.pin();
    let view = version.views().get(name).expect("view exists");
    view.data().as_ref().clone()
}

/// `key accounts (owner)`.
fn key_on_owner() -> Ddl {
    let (relation, attrs) = ("accounts".to_owned(), vec![1]);
    Ddl::Key { relation, attrs }
}

fn create_totals(db: &Db) {
    db.run_script("view totals = groupby[(%1), SUM, %2](accounts);")
        .expect("creates view");
}

#[test]
fn abort_writes_nothing_and_does_not_move_the_clock() {
    let storage = MemStorage::new();
    let db = open(&storage);
    deposit(&db, "ann", 10).expect("insert commits");
    let t0 = db.pin().time();
    let before_units = storage.units_written();

    // Division by zero over a non-empty relation aborts the transaction
    // (statically or at runtime — either way, Aborted).
    let results = db
        .run_script("?project[(%2 / 0)](accounts);")
        .expect("parses and lowers");
    assert!(matches!(results[0], RunResult::Aborted(_)), "{results:?}");
    assert_eq!(db.pin().time(), t0, "an abort is not a transition");
    assert_eq!(
        storage.units_written(),
        before_units,
        "aborts leave no durable trace"
    );
    assert_eq!(reopen(&storage).pin().time(), t0);
}

#[test]
fn duplicate_declaration_fails_before_logging() {
    let storage = MemStorage::new();
    let db = open(&storage);
    let before_units = storage.units_written();
    let err = db
        .ddl(Ddl::Relation(RelationSchema::new(
            "accounts",
            Schema::anon(&[DataType::Int]),
        )))
        .expect_err("duplicate relation");
    assert!(matches!(err, StoreError::Core(_)));
    assert_eq!(storage.units_written(), before_units);
}

#[test]
fn checkpoint_resets_wal_and_recovery_uses_snapshot() {
    let storage = MemStorage::new();
    let db = open(&storage);
    for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
        deposit(&db, owner, amount).expect("commits");
    }
    db.checkpoint().expect("checkpoint");
    let expected = db.pin().database().clone();
    drop(db);

    let image = storage.image();
    let wal_bytes = image.get(WAL_FILE).expect("wal exists");
    assert_eq!(
        wal_bytes.as_slice(),
        wal::empty_wal().as_slice(),
        "wal reset"
    );
    assert!(image.contains_key(SNAPSHOT_FILE));
    assert_eq!(reopen(&storage).pin().database(), &expected);
}

#[test]
fn declares_after_checkpoint_survive() {
    let storage = MemStorage::new();
    let db = open(&storage);
    db.checkpoint().expect("checkpoint");
    db.ddl(Ddl::Relation(RelationSchema::new(
        "audit",
        Schema::named(&[("note", DataType::Str)]),
    )))
    .expect("declare");
    db.run_script("insert(audit, values (str) {('hello')});")
        .expect("commits");
    let expected = db.pin().database().clone();
    drop(db);
    assert_eq!(reopen(&storage).pin().database(), &expected);
}

#[test]
fn views_survive_reopen_and_keep_refreshing() {
    let storage = MemStorage::new();
    let db = open(&storage);
    deposit(&db, "ann", 10).expect("commits");
    create_totals(&db);
    deposit(&db, "ann", 5).expect("commits");
    let expected = view(&db, "totals");
    assert_eq!(expected.multiplicity(&tuple!["ann", 15_i64]), 1);
    drop(db);

    let recovered = reopen(&storage);
    assert_eq!(view(&recovered, "totals"), expected);
    // and the recovered view keeps refreshing on new commits
    deposit(&recovered, "bob", 7).expect("commits");
    assert_eq!(
        view(&recovered, "totals").multiplicity(&tuple!["bob", 7_i64]),
        1
    );
}

#[test]
fn rejected_view_definitions_leave_no_durable_trace() {
    let storage = MemStorage::new();
    let db = open(&storage);
    let before_units = storage.units_written();
    let err = db
        .run_script("view avg = groupby[(), AVG, %2](accounts);")
        .expect_err("partial view");
    assert!(err.to_string().contains("E0303"), "{err}");
    assert_eq!(storage.units_written(), before_units);
    assert!(db.pin().views().is_empty());
}

#[test]
fn indexes_survive_reopen_and_keep_maintaining() {
    let storage = MemStorage::new();
    let db = open(&storage);
    deposit(&db, "ann", 10).expect("commits");
    db.create_index("accounts", &[1]).expect("creates");
    deposit(&db, "bob", 20).expect("commits");
    drop(db);

    let recovered = reopen(&storage);
    let version = recovered.pin();
    assert_eq!(
        version.indexes().definitions(),
        vec![("accounts".to_string(), vec![1])]
    );
    let index = version.indexes().find("accounts", &[1]).expect("recovered");
    assert_eq!(index.len(), 2);
    // and the recovered index keeps maintaining on new commits
    deposit(&recovered, "cho", 30).expect("commits");
    let version = recovered.pin();
    let index = version.indexes().find("accounts", &[1]).expect("index");
    assert_eq!(index.len(), 3);
    let fresh =
        HashIndex::build(version.database().relation("accounts").unwrap(), &[1]).expect("builds");
    let key = tuple!["cho"];
    assert_eq!(index.lookup(&key).unwrap(), fresh.lookup(&key).unwrap());
}

#[test]
fn keys_survive_reopen_and_keep_enforcing() {
    let storage = MemStorage::new();
    let db = open(&storage);
    deposit(&db, "ann", 10).expect("commits");
    db.ddl(key_on_owner()).expect("declares");
    drop(db);

    let recovered = reopen(&storage);
    assert_eq!(
        recovered.pin().keys().definitions(),
        vec![("accounts".to_string(), vec![1])]
    );
    // the recovered constraint keeps enforcing: a duplicate owner
    // aborts, a fresh owner commits
    let err = deposit(&recovered, "ann", 99).expect_err("key violation aborts");
    assert!(err.to_string().contains("accounts"), "{err}");
    deposit(&recovered, "bob", 20).expect("commits");
}

#[test]
fn a_no_op_create_index_writes_and_publishes_nothing() {
    let storage = MemStorage::new();
    let db = open(&storage);
    deposit(&db, "ann", 10).expect("commits");
    db.create_index("accounts", &[2]).expect("indexes");
    db.ddl(key_on_owner()).expect("declares");
    let still = |db: &Db| (storage.units_written(), db.pin().seq(), db.pin().time());
    let before = still(&db);
    // a repeat of an index, and the index a key brought with it
    db.create_index("accounts", &[2])
        .expect("a repeat is accepted");
    db.create_index("accounts", &[1])
        .expect("the key's index is accepted");
    assert_eq!(still(&db), before);
    assert_eq!(db.pin().indexes().len(), 2);
}

#[test]
fn recovered_stats_match_live_stats() {
    // 1 000 rows, then 300 commits that each delete one row and insert
    // another (the deleted rows held the balance minimum): statistics
    // and plans are a function of the content, so a reboot changes
    // neither
    let storage = MemStorage::new();
    let db = open(&storage);
    db.create_index("accounts", &[1]).expect("indexes");
    let row = |i: i64| format!("('o{i}', {})", 300 + 5 * i);
    let rows: Vec<String> = (-300..700).map(row).collect();
    db.run_script(&format!(
        "insert(accounts, values (str, int) {{{}}});",
        rows.join(", ")
    ))
    .expect("loads");
    for i in 0..300 {
        db.run_script(&format!(
            "delete(accounts, values (str, int) {{{}}}); \
             insert(accounts, values (str, int) {{{}}});",
            row(i - 300),
            row(700 + i)
        ))
        .expect("swaps");
    }
    let live = db.pin();
    let recovered = reopen(&storage).pin();
    assert_eq!(recovered.time(), live.time());
    assert_eq!(**recovered.stats(), **live.stats());
    let rec_t = recovered.stats().get("accounts").expect("recovered entry");
    assert_eq!(rec_t.column_distinct(2), 1000);
    let (min, _) = rec_t.column_bounds(2).expect("bounds");
    assert_eq!(min, &Value::Int(300));

    let query = "groupby[(%2), SUM, %2](select[%2 < 1000](accounts))";
    let explain = |version: &mera_txn::Version| {
        let expr = mera_lang::lower_rel(&version.catalog_schema(), query).expect("lowers");
        version
            .explain(&expr, mera_txn::ExecConfig::default())
            .expect("explains")
    };
    assert_eq!(explain(&recovered), explain(&live));
}

#[test]
fn io_failure_on_commit_leaves_memory_unchanged() {
    let storage = MemStorage::new();
    let db = open(&storage);
    let before = db.pin();
    storage.set_budget(0);
    let err = deposit(&db, "ann", 10).expect_err("storage is dead");
    assert_eq!(err, StoreError::Crashed);
    let after = db.pin();
    assert_eq!(after.seq(), before.seq(), "nothing was published");
    assert_eq!(after.database(), before.database());
}

// ----------------------------------------------------------------------
// the XRA-script and SQL doors
// ----------------------------------------------------------------------

#[test]
fn script_declarations_and_commits_survive_reopen() {
    let storage = MemStorage::new();
    let db = open_with(storage.clone(), DatabaseSchema::new());
    let results = db
        .run_script(
            "relation beer (name: str, alcperc: int);\n\
             begin insert(beer, values (str, int) {('Grolsch', 5)}); end\n\
             begin ?project[%1](beer); end",
        )
        .expect("script runs");
    assert_eq!(results.len(), 2);
    assert!(matches!(results[0], RunResult::Committed(_)));
    let expected = db.pin().database().clone();
    drop(db);

    let recovered = reopen(&storage).pin();
    assert_eq!(recovered.database(), &expected);
    assert_eq!(recovered.database().relation("beer").expect("rel").len(), 1);
}

#[test]
fn script_views_are_durable() {
    let storage = MemStorage::new();
    let db = open_with(storage.clone(), DatabaseSchema::new());
    db.run_script(
        "relation sales (region: str, amount: int);\n\
         view totals = groupby[(region), SUM, amount](sales);\n\
         insert(sales, values (str, int) {('north', 10), ('south', 7)});\n\
         ?totals;",
    )
    .expect("script runs");
    let expected = view(&db, "totals");
    assert_eq!(expected.multiplicity(&tuple!["north", 10_i64]), 1);
    drop(db);
    assert_eq!(view(&reopen(&storage), "totals"), expected);
}

#[test]
fn stacked_views_are_durable_and_cascade_after_reopen() {
    let storage = MemStorage::new();
    let db = open_with(storage.clone(), DatabaseSchema::new());
    // `strong` scans a base relation; `count_strong` scans `strong`
    db.run_script(
        "relation beer (name: str, alcperc: int);\n\
         view strong = select[%2 > 5](beer);\n\
         view count_strong = groupby[(), CNT, %1](strong);\n\
         insert(beer, values (str, int) {('Grolsch', 5), ('Bock', 7)});",
    )
    .expect("script runs");
    assert_eq!(view(&db, "count_strong").multiplicity(&tuple![1_i64]), 1);
    drop(db);

    // recovery rebuilds both layers in declaration order…
    let recovered = reopen(&storage);
    assert_eq!(
        view(&recovered, "count_strong").multiplicity(&tuple![1_i64]),
        1
    );
    // …and post-recovery writes still cascade through the stack
    recovered
        .run_script("insert(beer, values (str, int) {('Tripel', 8)});")
        .expect("script runs");
    assert_eq!(
        view(&recovered, "count_strong").multiplicity(&tuple![2_i64]),
        1
    );
}

#[test]
fn script_keys_are_durable_and_enforced() {
    let storage = MemStorage::new();
    let db = open_with(storage.clone(), DatabaseSchema::new());
    let results = db
        .run_script(
            "relation acct (id: int, owner: str);\n\
             key acct (%1);\n\
             begin insert(acct, values (int, str) {(1, 'ann')}); end\n\
             begin insert(acct, values (int, str) {(1, 'bob')}); end",
        )
        .expect("script runs");
    assert!(matches!(results[0], RunResult::Committed(_)));
    assert!(
        matches!(results[1], RunResult::Aborted(_)),
        "duplicate key must abort: {:?}",
        results[1]
    );
    drop(db);

    let results = reopen(&storage)
        .run_script("begin insert(acct, values (int, str) {(1, 'eve')}); end")
        .expect("script runs");
    assert!(
        matches!(results[0], RunResult::Aborted(_)),
        "key declaration must survive reopen: {:?}",
        results[0]
    );
}

#[test]
fn sql_views_on_views_are_durable() {
    let storage = MemStorage::new();
    let db = open_with(storage.clone(), DatabaseSchema::new());
    db.run_sql("CREATE TABLE beer (name TEXT, alcperc INT)")
        .expect("ddl");
    db.run_sql("INSERT INTO beer VALUES ('Grolsch', 5), ('Bock', 7), ('Tripel', 8)")
        .expect("dml");
    db.run_sql(
        "CREATE MATERIALIZED VIEW strong AS SELECT name, alcperc FROM beer WHERE alcperc > 6",
    )
    .expect("first view");
    db.run_sql("CREATE MATERIALIZED VIEW strongest AS SELECT name FROM strong WHERE alcperc > 7")
        .expect("view on view");
    let out = db
        .run_sql("SELECT * FROM strong")
        .expect("query")
        .expect("relation");
    assert_eq!(out.len(), 2);
    assert_eq!(view(&db, "strongest").len(), 1);
    drop(db);

    let recovered = reopen(&storage);
    assert_eq!(view(&recovered, "strongest").len(), 1);
    recovered
        .run_sql("INSERT INTO beer VALUES ('Quad', 10)")
        .expect("dml");
    assert_eq!(view(&recovered, "strongest").len(), 2);
}

#[test]
fn sql_unique_keys_are_durable_and_enforced() {
    let storage = MemStorage::new();
    let db = open_with(storage.clone(), DatabaseSchema::new());
    db.run_sql("CREATE TABLE member (id INT PRIMARY KEY, email TEXT UNIQUE)")
        .expect("creates table");
    db.run_sql("INSERT INTO member VALUES (1, 'ann@x')")
        .expect("dml");
    let err = db
        .run_sql("INSERT INTO member VALUES (2, 'ann@x')")
        .unwrap_err();
    assert!(
        matches!(err, StoreError::TransactionAborted(_)),
        "UNIQUE violation must abort: {err}"
    );
    drop(db);

    let recovered = reopen(&storage);
    assert_eq!(
        recovered
            .pin()
            .database()
            .relation("member")
            .expect("t")
            .len(),
        1
    );
    let err = recovered
        .run_sql("INSERT INTO member VALUES (3, 'ann@x')")
        .unwrap_err();
    assert!(
        matches!(err, StoreError::TransactionAborted(_)),
        "UNIQUE key must survive reopen: {err}"
    );
    recovered
        .run_sql("INSERT INTO member VALUES (3, 'bob@x')")
        .expect("distinct ok");
}

#[test]
fn sql_dml_is_durable_and_queries_read_it() {
    let storage = MemStorage::new();
    let db = open(&storage);
    assert!(deposit(&db, "ann", 5).is_ok());
    let out = db
        .run_sql("SELECT owner FROM accounts WHERE balance >= 5")
        .expect("query")
        .expect("relation");
    assert_eq!(out.len(), 1);
    let expected = db.pin().database().clone();
    drop(db);
    assert_eq!(reopen(&storage).pin().database(), &expected);
}
