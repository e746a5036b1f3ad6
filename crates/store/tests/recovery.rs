//! Recovery scenarios beyond the crash matrix: real files on disk, torn
//! tails, hard corruption, checkpoint compaction, fsync policies, and
//! degenerate records.

use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_lang::Lowerer;
use mera_store::{
    ConcurrentDb, DirStorage, FsyncPolicy, MemStorage, Storage, StoreError, StoreOptions,
    WalRecord, SNAPSHOT_FILE, WAL_FILE,
};
use mera_txn::{Program, Statement};

fn schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "accounts",
            Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
        )
        .expect("fresh")
}

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera_lang::parse_program(text).expect("parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer.lower_program(&parsed).expect("lowers")
}

fn insert(owner: &str, balance: i64) -> String {
    format!("insert(accounts, values (str, int) {{('{owner}', {balance})}})")
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("mera-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn real_files_survive_process_restart() {
    let dir = TempDir::new("restart");
    let expected = {
        let storage = DirStorage::open(&dir.0).expect("open dir");
        let db = ConcurrentDb::open(storage, schema(), StoreOptions::default()).expect("open");
        for (owner, amount) in [("ann", 10_i64), ("bob", 20), ("cho", 30)] {
            let p = parse(db.pin().database(), &insert(owner, amount));
            db.execute(&p).expect("commits");
        }
        db.pin().database().clone()
    }; // database dropped: "process exit"

    let storage = DirStorage::open(&dir.0).expect("reopen dir");
    let recovered = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);

    // ... and keeps working: append more history, restart again.
    let db = recovered;
    let p = parse(db.pin().database(), &insert("dee", 40));
    db.execute(&p).expect("commits after recovery");
    let expected = db.pin().database().clone();
    drop(db);

    let storage = DirStorage::open(&dir.0).expect("reopen dir");
    let recovered = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn torn_tail_on_disk_is_truncated_and_the_log_reusable() {
    let dir = TempDir::new("torn");
    let expected = {
        let storage = DirStorage::open(&dir.0).expect("open dir");
        let db = ConcurrentDb::open(storage, schema(), StoreOptions::default()).expect("open");
        let p = parse(db.pin().database(), &insert("ann", 10));
        db.execute(&p).expect("commits");
        db.pin().database().clone()
    };

    // Simulate a crash mid-append: half a frame of a would-be commit.
    let mut storage = DirStorage::open(&dir.0).expect("reopen");
    storage
        .append(WAL_FILE, &[0x40, 0, 0, 0, 0xde, 0xad])
        .expect("raw append");
    drop(storage);

    let storage = DirStorage::open(&dir.0).expect("reopen");
    let recovered = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect("torn tail is recoverable");
    assert_eq!(recovered.pin().database(), &expected);

    // The tail was truncated, so new commits append at a frame boundary.
    let p = parse(recovered.pin().database(), &insert("bob", 20));
    recovered.execute(&p).expect("commits after truncation");
    let expected = recovered.pin().database().clone();
    drop(recovered);

    let storage = DirStorage::open(&dir.0).expect("reopen");
    let recovered = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect("recovers");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn crc_valid_garbage_fails_recovery_loudly() {
    let mut storage = MemStorage::new();
    drop(ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default()).expect("open"));

    // An honest frame around a payload from "the future" (bad version).
    let payload = [42u8, 1, 2, 3];
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&mera_store::crc::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    storage.append(WAL_FILE, &frame).expect("raw append");

    let err = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect_err("intact-but-unreadable records must not be dropped");
    assert!(matches!(err, StoreError::CorruptWal(_)), "got {err:?}");
}

#[test]
fn checkpoint_compacts_the_log_on_disk() {
    let dir = TempDir::new("compact");
    let storage = DirStorage::open(&dir.0).expect("open dir");
    let db = ConcurrentDb::open(storage, schema(), StoreOptions::default()).expect("open");
    for i in 0..20_i64 {
        let p = parse(db.pin().database(), &insert("acct", i));
        db.execute(&p).expect("commits");
    }
    let wal_path = dir.0.join(WAL_FILE);
    let before = std::fs::metadata(&wal_path).expect("wal exists").len();
    db.checkpoint().expect("checkpoint");
    let after = std::fs::metadata(&wal_path).expect("wal exists").len();
    assert!(before > 8, "log grew during the workload");
    assert_eq!(after, 8, "checkpoint resets the WAL to its header");
    assert!(dir.0.join(SNAPSHOT_FILE).exists());

    let expected = db.pin().database().clone();
    drop(db);
    let storage = DirStorage::open(&dir.0).expect("reopen");
    let recovered = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect("snapshot restore");
    assert_eq!(recovered.pin().database(), &expected);
}

#[test]
fn fsync_policies_flush_at_the_promised_cadence() {
    // `Group` is group commit with ack-after-durability: a lone
    // committer finds no flush in flight and leads its own, so from one
    // thread it syncs as often as `Always` (batching needs concurrency —
    // see `group_commit_batches_fsyncs_across_threads`).
    let cases: [(FsyncPolicy, u64); 3] = [
        (FsyncPolicy::Always, 4),
        (FsyncPolicy::Group, 4),
        (FsyncPolicy::Never, 0),
    ];
    for (policy, expected_syncs) in cases {
        let storage = MemStorage::new();
        let options = StoreOptions {
            fsync: policy,
            ..StoreOptions::default()
        };
        let db = ConcurrentDb::open(storage.clone(), schema(), options).expect("open");
        let base = storage.sync_count();
        for i in 0..4_i64 {
            let p = parse(db.pin().database(), &insert("ann", i));
            db.execute(&p).expect("commits");
        }
        assert_eq!(
            storage.sync_count() - base,
            expected_syncs,
            "policy {policy:?}"
        );
        // Whatever the policy, the bytes are on (simulated) disk.
        let recovered = ConcurrentDb::open(
            MemStorage::from_image(storage.image()),
            DatabaseSchema::new(),
            StoreOptions::default(),
        )
        .expect("recovers");
        assert_eq!(recovered.pin().database(), db.pin().database());
    }
}

#[test]
fn empty_program_commits_and_replays() {
    // live: an empty program writes nothing, so it commits as a read —
    // no version, no tick, no WAL record
    let mut storage = MemStorage::new();
    let db = ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default()).expect("open");
    let units = storage.units_written();
    db.execute(&Program::new()).expect("empty program commits");
    db.execute(&Program::new()).expect("twice");
    assert_eq!(db.pin().time(), 0);
    assert_eq!(storage.units_written(), units);
    drop(db);

    // a log written by a build that logged program text holds text
    // commit records; they are refused, naming the migration, rather
    // than re-run
    for time in [1, 2] {
        let record = WalRecord::Commit {
            time,
            text: String::new(),
        };
        storage
            .append(WAL_FILE, &record.encode_frame())
            .expect("raw append");
    }
    let err = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect_err("text commits are not replayed");
    assert_eq!(err, StoreError::TextCommitRecord { time: 1 });
    assert!(err.to_string().contains("checkpoint"), "{err}");
}

#[test]
fn date_time_and_money_constants_commit_and_reopen() {
    // no XRA literal syntax exists for these domains, so a log of program
    // text could not hold this commit; a log of deltas holds its values
    let schema = DatabaseSchema::new()
        .with(
            "ledger",
            Schema::named(&[
                ("day", DataType::Date),
                ("at", DataType::Time),
                ("amount", DataType::Money),
            ]),
        )
        .expect("fresh");
    let row = relation_of(
        Schema::anon(&[DataType::Date, DataType::Time, DataType::Money]),
        vec![Tuple::new(vec![
            Value::Date(Date::from_ymd(1994, 2, 14).expect("a date")),
            Value::Time(Time::from_hms(9, 30, 0).expect("a time")),
            Value::Money(Money(-1999)),
        ])],
    )
    .expect("typed");
    let storage = MemStorage::new();
    let db = ConcurrentDb::open(storage.clone(), schema, StoreOptions::default()).expect("open");
    let program = Program::single(Statement::insert("ledger", RelExpr::values(row)));
    assert!(db.try_execute(&program).expect("io ok").is_committed());
    let live = db.pin();
    drop(db);

    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("reopens");
    assert_eq!(recovered.pin().database(), live.database());
    assert_eq!(recovered.pin().time(), 1);
}

#[test]
fn snapshot_without_wal_restores_and_restarts_the_log() {
    let storage = MemStorage::new();
    let db = ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default()).expect("open");
    let p = parse(db.pin().database(), &insert("ann", 10));
    db.execute(&p).expect("commits");
    db.checkpoint().expect("checkpoint");
    let expected = db.pin().database().clone();
    drop(db);

    let mut image = storage.image();
    image.remove(WAL_FILE).expect("wal existed");
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(image),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("snapshot alone suffices");
    assert_eq!(recovered.pin().database(), &expected);

    // The log restarts cleanly.
    let p = parse(recovered.pin().database(), &insert("bob", 20));
    recovered.execute(&p).expect("commits");
}

#[test]
fn conflicting_redeclaration_in_the_log_is_corruption() {
    let mut storage = MemStorage::new();
    drop(ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default()).expect("open"));

    // Forge a declare for an existing relation with a different schema.
    let record = WalRecord::Declare {
        name: "accounts".to_string(),
        schema: Schema::anon(&[DataType::Bool]),
    };
    storage
        .append(WAL_FILE, &record.encode_frame())
        .expect("raw append");

    let err = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
        .expect_err("schema conflict must fail recovery");
    assert!(matches!(err, StoreError::CorruptWal(_)), "got {err:?}");
}

#[test]
fn a_logged_schema_change_the_recovered_state_refuses_is_corruption() {
    // every declaration record was logged after its change was admitted,
    // so one the recovered state refuses belongs to another history
    let key = WalRecord::DeclareKey {
        relation: "accounts".to_string(),
        attrs: vec![1],
    };
    let partial_view = WalRecord::DeclareView {
        name: "avg".to_string(),
        text: "groupby[(), AVG, %2](accounts)".to_string(),
    };
    for record in [key, partial_view] {
        let mut storage = MemStorage::new();
        let db =
            ConcurrentDb::open(storage.clone(), schema(), StoreOptions::default()).expect("open");
        // two rows at the key point `ann`
        for balance in [10, 20] {
            let p = parse(db.pin().database(), &insert("ann", balance));
            db.execute(&p).expect("commits");
        }
        drop(db);
        storage
            .append(WAL_FILE, &record.encode_frame())
            .expect("raw append");

        let err = ConcurrentDb::open(storage, DatabaseSchema::new(), StoreOptions::default())
            .expect_err("a refused declaration must fail recovery");
        assert!(matches!(err, StoreError::CorruptWal(_)), "got {err:?}");
    }
}
