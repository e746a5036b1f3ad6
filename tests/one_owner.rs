//! One state owner, seen from outside: every front door — the volatile
//! API ([`MvccManager`]), the durable API ([`ConcurrentDb`]), XRA scripts
//! and SQL over either — reaches the same admission checks and the same
//! clock, because each of those decisions lives in exactly one place
//! ([`mera::txn::Version`]).
//!
//! Both tests fail on a tree where the doors own their own copies: the
//! serial durable door used to admit duplicate keys and keys on views,
//! and the serial owners used to tick logical time on an abort.

use mera::analyze::Code;
use mera::core::prelude::*;
use mera::lang::Session;
use mera::store::{wal, ConcurrentDb, MemStorage, Storage, StoreOptions, WalRecord, WAL_FILE};
use mera::txn::{DeclareKeyError, MvccManager};

type Db = ConcurrentDb<MemStorage>;

fn open(storage: &MemStorage) -> Db {
    ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("opens")
}

fn reopen(storage: &MemStorage) -> Db {
    let rebooted = MemStorage::from_image(storage.image());
    ConcurrentDb::open(rebooted, DatabaseSchema::new(), StoreOptions::default()).expect("recovers")
}

// ----------------------------------------------------------------------
// one admission, every door
// ----------------------------------------------------------------------

/// `r` keyed on `a`, a view `v` over it, and `dup` holding two rows at
/// the same `a` — as SQL (for the doors that own a manager) …
const SETUP_SQL: [&str; 4] = [
    "CREATE TABLE r (a INT PRIMARY KEY, b INT)",
    "CREATE TABLE dup (a INT, b INT)",
    "INSERT INTO dup VALUES (1, 10), (1, 20)",
    "CREATE MATERIALIZED VIEW v AS SELECT DISTINCT a, b FROM r",
];

/// … and as XRA (for the session, which owns its own).
const SETUP_XRA: &str = "relation r (a: int, b: int);\n\
                         relation dup (a: int, b: int);\n\
                         view v = unique(r);\n\
                         key r (a);\n\
                         insert(dup, values (int, int) {(1, 10), (1, 20)});";

/// The three refusals: what is declared, and the code that refuses it.
const REFUSALS: [(&str, Code, &str); 3] = [
    ("r", Code::DuplicateKeyDeclaration, "E0403"),
    ("v", Code::KeyOnView, "E0402"),
    ("dup", Code::KeyViolation, "E0401"),
];

#[test]
fn key_admission_is_the_same_through_every_door() {
    // volatile: the manager's API and the session's XRA
    let mgr = MvccManager::new(DatabaseSchema::new());
    for sql in SETUP_SQL {
        mera::sql::run_sql(&mgr, sql).expect("setup");
    }
    let mut session = Session::new();
    session.run_script(SETUP_XRA).expect("setup");
    // durable: API and XRA on one database (a refusal changes nothing,
    // so the doors can take turns on the same state)
    let storage = MemStorage::new();
    let db = open(&storage);
    for sql in SETUP_SQL {
        db.run_sql(sql).expect("setup");
    }

    for (relation, code, rendered) in REFUSALS {
        let before = mgr.pin();
        match mgr.declare_key(relation, &[1]) {
            Err(DeclareKeyError::Rejected(diag)) => assert_eq!(diag.code, code),
            other => panic!("MvccManager::declare_key({relation}): {other:?}"),
        }
        assert_eq!(mgr.pin().seq(), before.seq(), "a refusal publishes nothing");

        let err = session
            .run_script(&format!("key {relation} (%1);"))
            .expect_err("session refuses");
        assert!(err.to_string().contains(rendered), "session: {err}");

        let units = storage.units_written();
        let err = db.declare_key(relation, &[1]).expect_err("store refuses");
        assert!(err.to_string().contains(rendered), "store API: {err}");
        let err = db
            .run_script(&format!("key {relation} (%1);"))
            .expect_err("store script refuses");
        assert!(err.to_string().contains(rendered), "store XRA: {err}");
        assert_eq!(
            storage.units_written(),
            units,
            "a refused `key {relation}` leaves no durable trace"
        );
    }

    // SQL declares keys only inside CREATE TABLE — on a fresh, empty base
    // table, where E0401 and E0402 cannot arise. E0403 can: the same
    // column set spelled twice in different orders reaches admission twice.
    let twice = "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b), UNIQUE (b, a))";
    let err = mera::sql::run_sql(&mgr, twice).expect_err("volatile SQL refuses");
    assert!(err.to_string().contains("E0403"), "volatile SQL: {err}");
    let err = db.run_sql(twice).expect_err("durable SQL refuses");
    assert!(err.to_string().contains("E0403"), "durable SQL: {err}");
    let keys_of_t = |definitions: Vec<(String, Vec<usize>)>| {
        let on_t = definitions.into_iter().filter(|(r, _)| r == "t");
        on_t.map(|(_, attrs)| attrs).collect::<Vec<_>>()
    };
    assert_eq!(keys_of_t(mgr.pin().keys().definitions()), [vec![1, 2]]);
    assert_eq!(keys_of_t(db.pin().keys().definitions()), [vec![1, 2]]);
    // the refused second declaration never reached the log either
    let logged = wal::scan(&storage.image()[WAL_FILE]).expect("scans");
    let declared_on_t = logged.records.iter().filter(
        |record| matches!(record, WalRecord::DeclareKey { relation, .. } if relation == "t"),
    );
    assert_eq!(declared_on_t.count(), 1);
    assert_eq!(
        keys_of_t(reopen(&storage).pin().keys().definitions()),
        [vec![1, 2]]
    );
}

// ----------------------------------------------------------------------
// one clock, every door
// ----------------------------------------------------------------------

/// Commit, abort by key violation, commit.
const CLOCK_XRA: &str = "relation acct (id: int, owner: str);\n\
                         key acct (id);\n\
                         begin insert(acct, values (int, str) {(1, 'ann')}); end\n\
                         begin insert(acct, values (int, str) {(1, 'bob')}); end\n\
                         begin insert(acct, values (int, str) {(2, 'cho')}); end";

#[test]
fn the_clock_ticks_once_per_committed_writer_through_every_door() {
    use mera::lang::RunResult::{Aborted, Committed};

    let mut session = Session::new();
    let results = session.run_script(CLOCK_XRA).expect("runs");
    assert!(matches!(
        results[..],
        [Committed(_), Aborted(_), Committed(_)]
    ));
    assert_eq!(session.pin().time(), 2);

    let mgr = MvccManager::new(DatabaseSchema::new());
    mera::sql::run_sql(&mgr, "CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT)").expect("ddl");
    mera::sql::run_sql(&mgr, "INSERT INTO acct VALUES (1, 'ann')").expect("commits");
    let err = mera::sql::run_sql(&mgr, "INSERT INTO acct VALUES (1, 'bob')").expect_err("aborts");
    assert!(err.to_string().contains("E0401"), "{err}");
    mera::sql::run_sql(&mgr, "INSERT INTO acct VALUES (2, 'cho')").expect("commits");
    // reads are not transitions either
    mera::sql::run_sql(&mgr, "SELECT * FROM acct").expect("reads");
    assert_eq!(mgr.time(), 2);

    let storage = MemStorage::new();
    let db = open(&storage);
    let results = db.run_script(CLOCK_XRA).expect("runs");
    assert!(matches!(
        results[..],
        [Committed(_), Aborted(_), Committed(_)]
    ));
    assert_eq!(db.pin().time(), 2);
    assert_eq!(db.pin().database(), session.pin().database());
    // and the durable history says the same after a reboot
    assert_eq!(reopen(&storage).pin().time(), 2);
}

#[test]
fn a_log_with_abort_gaps_recovers_to_its_recorded_times() {
    // a WAL as the serial durable door wrote it: an aborted attempt
    // between the two commits ticked the clock, so their records carry
    // times 1 and 3
    let mut storage = MemStorage::new();
    let mut bytes = wal::empty_wal();
    let insert = |id: i64| format!("insert(acct, values (int, str) {{({id}, 'x')}})");
    for record in [
        WalRecord::Declare {
            name: "acct".to_owned(),
            schema: Schema::named(&[("id", DataType::Int), ("owner", DataType::Str)]),
        },
        WalRecord::Commit {
            time: 1,
            text: insert(1),
        },
        WalRecord::Commit {
            time: 3,
            text: insert(2),
        },
    ] {
        bytes.extend_from_slice(&record.encode_frame());
    }
    storage.replace_atomic(WAL_FILE, &bytes).expect("writes");

    let recovered = reopen(&storage).pin();
    assert_eq!(recovered.time(), 3);
    assert_eq!(
        recovered.database().relation("acct").expect("acct").len(),
        2
    );
    assert!(recovered.stats().is_current(recovered.database()));
}
