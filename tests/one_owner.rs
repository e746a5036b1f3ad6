//! One state owner, seen from outside: every entry to the one front
//! door — [`ConcurrentDb`]'s API, XRA scripts and SQL statements — reaches
//! the same admission checks and the same clock, and a reopen recovers
//! what they decided, because each of those decisions lives in exactly one
//! place ([`mera::txn::Version`]).
//!
//! These fail on a tree where an entry owns its own copy: the serial
//! durable door used to admit duplicate keys and keys on views, and the
//! serial owners used to tick logical time on an abort.

use mera::analyze::Code;
use mera::core::prelude::*;
use mera::core::tuple;
use mera::expr::{Aggregate, RelExpr};
use mera::lang::RunResult::{Aborted, Committed};
use mera::store::{
    wal, ConcurrentDb, MemStorage, Storage, StoreError, StoreOptions, WalRecord, WAL_FILE,
};
use mera::txn::{Ddl, DeltaMap};

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
// one admission, every entry
// ----------------------------------------------------------------------

/// `r` keyed on `a`, a view `v` over it, and `dup` holding two rows at
/// the same `a`.
const SETUP_SQL: [&str; 4] = [
    "CREATE TABLE r (a INT PRIMARY KEY, b INT)",
    "CREATE TABLE dup (a INT, b INT)",
    "INSERT INTO dup VALUES (1, 10), (1, 20)",
    "CREATE MATERIALIZED VIEW v AS SELECT DISTINCT a, b FROM r",
];

/// One refused schema change of each kind, as a [`Ddl`] value and as the
/// XRA and SQL text that spell it where the language has a spelling.
struct Refusal {
    ddl: Ddl,
    xra: Option<&'static str>,
    sql: Option<&'static str>,
    /// Whether an error is the typed refusal this change must get.
    refused: fn(&StoreError) -> bool,
}

fn diagnosed(err: &StoreError, code: Code) -> bool {
    matches!(err, StoreError::Refused(diags) if diags.iter().any(|d| d.code == code))
}

fn refusals() -> Vec<Refusal> {
    let two_ints = Schema::named(&[("a", DataType::Int), ("b", DataType::Int)]);
    let key = |relation: &str| Ddl::Key {
        relation: relation.to_owned(),
        attrs: vec![1],
    };
    vec![
        Refusal {
            ddl: Ddl::Relation(RelationSchema::new("r", two_ints)),
            xra: Some("relation r (a: int, b: int);"),
            sql: Some("CREATE TABLE r (a INT, b INT)"),
            refused: |e| matches!(e, StoreError::Core(CoreError::DuplicateRelation(r)) if r == "r"),
        },
        Refusal {
            ddl: Ddl::Relation(RelationSchema::new("v", Schema::anon(&[DataType::Int]))),
            xra: Some("relation v (a: int);"),
            sql: Some("CREATE TABLE v (a INT)"),
            refused: |e| matches!(e, StoreError::Core(CoreError::DuplicateRelation(v)) if v == "v"),
        },
        Refusal {
            ddl: Ddl::View {
                name: "avg".to_owned(),
                expr: RelExpr::scan("r").group_by(&[], Aggregate::Avg, 2),
            },
            xra: Some("view avg = groupby[(), AVG, %2](r);"),
            sql: Some("CREATE MATERIALIZED VIEW avg AS SELECT AVG(b) FROM r"),
            refused: |e| diagnosed(e, Code::PartialView),
        },
        Refusal {
            ddl: Ddl::Index {
                relation: "r".to_owned(),
                attrs: vec![9],
            },
            xra: None,
            sql: None,
            refused: |e| matches!(e, StoreError::Core(CoreError::AttrIndexOutOfRange { .. })),
        },
        Refusal {
            ddl: key("r"),
            xra: Some("key r (%1);"),
            sql: None,
            refused: |e| diagnosed(e, Code::DuplicateKeyDeclaration),
        },
        Refusal {
            ddl: key("v"),
            xra: Some("key v (%1);"),
            sql: None,
            refused: |e| diagnosed(e, Code::KeyOnView),
        },
        Refusal {
            ddl: key("dup"),
            xra: Some("key dup (%1);"),
            sql: None,
            refused: |e| diagnosed(e, Code::KeyViolation),
        },
    ]
}

#[test]
fn a_refused_schema_change_leaves_no_trace_through_every_door() {
    let storage = MemStorage::new();
    let db = open(&storage);
    for sql in SETUP_SQL {
        db.run_sql(sql).expect("setup");
    }

    // a refusal changes nothing, so the doors can take turns on the
    // same state
    for Refusal {
        ddl,
        xra,
        sql,
        refused,
    } in refusals()
    {
        let check = |door: &str, attempt: &dyn Fn() -> Result<(), StoreError>| {
            let before = db.pin();
            let units = storage.units_written();
            let err = attempt().expect_err("refused");
            assert!(refused(&err), "{door}, {ddl:?}: {err:?}");
            assert_eq!(db.pin().seq(), before.seq(), "a refusal publishes nothing");
            assert_eq!(
                storage.units_written(),
                units,
                "{door}: a refused {ddl:?} leaves no durable trace"
            );
        };
        check("API", &|| db.ddl(ddl.clone()).map(drop));
        if let Some(text) = xra {
            check("XRA", &|| db.run_script(text).map(drop));
        }
        if let Some(text) = sql {
            check("SQL", &|| db.run_sql(text).map(drop));
        }
    }

    // SQL declares keys only inside CREATE TABLE — on a fresh, empty base
    // table, where E0401 and E0402 cannot arise. E0403 can: the same
    // column set spelled twice in different orders reaches admission twice.
    // A text call's schema changes are one step, so the refusal leaves
    // neither `t` nor its first key behind, in memory or in the log; an
    // XRA script's declarations and keys likewise.
    let twice = [
        (
            "SQL",
            "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b), UNIQUE (b, a))",
        ),
        ("XRA", "relation t (a: int); key t (a); key t (a);"),
    ];
    for (door, text) in twice {
        let units = storage.units_written();
        let err = match door {
            "SQL" => db.run_sql(text).map(drop),
            _ => db.run_script(text).map(drop),
        }
        .expect_err("refused");
        assert!(
            diagnosed(&err, Code::DuplicateKeyDeclaration),
            "{door}: {err:?}"
        );
        let version = db.pin();
        assert!(version.database().schema().get("t").is_err(), "{door}");
        let keys = version.keys().definitions();
        assert!(keys.iter().all(|(r, _)| r != "t"), "{door}: {keys:?}");
        assert_eq!(storage.units_written(), units, "{door}: nothing logged");
    }
    let recovered = reopen(&storage).pin();
    assert!(recovered.database().schema().get("t").is_err());
    assert_eq!(
        recovered.keys().definitions(),
        db.pin().keys().definitions()
    );
}

// ----------------------------------------------------------------------
// one clock, every entry
// ----------------------------------------------------------------------

/// Commit, abort by key violation, commit.
const CLOCK_XRA: &str = "relation acct (id: int, owner: str);\n\
                         key acct (id);\n\
                         begin insert(acct, values (int, str) {(1, 'ann')}); end\n\
                         begin insert(acct, values (int, str) {(1, 'bob')}); end\n\
                         begin insert(acct, values (int, str) {(2, 'cho')}); end";

#[test]
fn the_clock_ticks_once_per_committed_writer_through_every_door() {
    let xra_storage = MemStorage::new();
    let xra = open(&xra_storage);
    let results = xra.run_script(CLOCK_XRA).expect("runs");
    assert!(matches!(
        results[..],
        [Committed(_), Aborted(_), Committed(_)]
    ));
    assert_eq!(xra.pin().time(), 2);

    let sql_storage = MemStorage::new();
    let sql = open(&sql_storage);
    sql.run_sql("CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT)")
        .expect("ddl");
    sql.run_sql("INSERT INTO acct VALUES (1, 'ann')")
        .expect("commits");
    let err = sql
        .run_sql("INSERT INTO acct VALUES (1, 'bob')")
        .expect_err("aborts");
    assert!(err.to_string().contains("E0401"), "{err}");
    sql.run_sql("INSERT INTO acct VALUES (2, 'cho')")
        .expect("commits");
    // reads are not transitions either
    sql.run_sql("SELECT * FROM acct").expect("reads");
    assert_eq!(sql.pin().time(), 2);
    assert_eq!(sql.pin().database(), xra.pin().database());

    // and the durable history says the same after a reboot
    assert_eq!(reopen(&xra_storage).pin().time(), 2);
    assert_eq!(reopen(&sql_storage).pin().time(), 2);
}

#[test]
fn a_text_log_is_refused_and_a_gap_in_delta_times_is_corrupt() {
    // a WAL as the serial durable door wrote it: program text, and an
    // aborted attempt between the two commits ticked the clock, so their
    // records carry times 1 and 3
    let declare = WalRecord::Declare {
        name: "acct".to_owned(),
        schema: Schema::named(&[("id", DataType::Int), ("owner", DataType::Str)]),
    };
    let image = |records: &[WalRecord]| {
        let mut storage = MemStorage::new();
        let mut bytes = wal::empty_wal();
        for record in records {
            bytes.extend_from_slice(&record.encode_frame());
        }
        storage.replace_atomic(WAL_FILE, &bytes).expect("writes");
        storage
    };
    let reopened = |storage: &MemStorage| {
        ConcurrentDb::open(
            MemStorage::from_image(storage.image()),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
    };
    let text = |time: u64, id: i64| WalRecord::Commit {
        time,
        text: format!("insert(acct, values (int, str) {{({id}, 'x')}})"),
    };
    let err = reopened(&image(&[declare.clone(), text(1, 1), text(3, 2)]))
        .expect_err("text commits are not replayed");
    assert_eq!(err, StoreError::TextCommitRecord { time: 1 });

    // the clock ticks once per committed writer, so consecutive delta
    // records are one tick apart; a gap means a lost or foreign record
    let delta = |time: u64, id: i64| WalRecord::Delta {
        time,
        deltas: DeltaMap::from([(
            "acct".to_owned(),
            [(tuple![id, "x"], 1)].into_iter().collect(),
        )]),
    };
    let recovered = reopened(&image(&[declare.clone(), delta(1, 1), delta(2, 2)]))
        .expect("consecutive deltas recover")
        .pin();
    assert_eq!(recovered.time(), 2);
    assert_eq!(
        recovered.database().relation("acct").expect("acct").len(),
        2
    );
    assert_eq!(recovered.stats().get("acct").expect("acct stats").rows, 2);
    let err = reopened(&image(&[declare.clone(), delta(1, 1), delta(3, 2)]))
        .expect_err("a gap is not a history");
    assert!(matches!(err, StoreError::CorruptWal(_)), "{err}");

    // a delta must fit the catalog: its relation, and its domains
    let foreign = |relation: &str, tuple: Tuple| WalRecord::Delta {
        time: 1,
        deltas: DeltaMap::from([(relation.to_owned(), [(tuple, 1)].into_iter().collect())]),
    };
    for record in [
        foreign("nobody", tuple![1, "x"]),
        foreign("acct", tuple!["x", 1]),
    ] {
        let err = reopened(&image(&[declare.clone(), record])).expect_err("not this catalog's");
        assert!(matches!(err, StoreError::CorruptWal(_)), "{err}");
    }
}
