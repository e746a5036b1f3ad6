//! Crash-recovery matrix for *concurrent* commit histories.
//!
//! The serial crash matrix (`crash_matrix.rs`) drives a scripted
//! single-threaded workload. Here the WAL is produced by racing
//! sessions committing through the MVCC front with `EveryN` group
//! commit, so the log is a genuine interleaving of independent
//! transactions — then the matrix truncates that log at **every byte
//! offset** and asserts recovery reproduces exactly the committed
//! prefix: base relations, logical time, views, stats, key
//! constraints and indexes.
//!
//! The oracle is independent of the recovery path: the surviving WAL
//! bytes are scanned with [`mera_store::wal::scan`] and the intact
//! `Commit` records are replayed through the *volatile* engine (an
//! [`MvccManager`]: no `Storage`, no WAL) in log order. Because the group-commit
//! frontier appends frames inside the MVCC commit section, log order is
//! commit order, and the volatile replay of any intact prefix is the
//! unique legal recovered state.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

use mera_core::prelude::*;
use mera_lang::Lowerer;
use mera_store::{
    is_conflict, snapshot, wal, ConcurrentDb, FsyncPolicy, MemStorage, StoreOptions, WalRecord,
    SNAPSHOT_FILE, WAL_FILE,
};
use mera_txn::{MvccManager, Outcome, Program, Version};

const WRITERS: usize = 3;
const PER_WRITER: usize = 5;

fn options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::EveryN(3),
        ..StoreOptions::default()
    }
}

fn log_schema() -> Schema {
    Schema::named(&[("writer", DataType::Int), ("n", DataType::Int)])
}

/// Builds the catalog and runs the racing writers; returns the storage
/// image after a final sync.
fn drive_concurrent(storage: MemStorage, with_checkpoint: bool) -> BTreeMap<String, Vec<u8>> {
    let db = Arc::new(
        ConcurrentDb::open(storage.clone(), DatabaseSchema::new(), options()).expect("opens"),
    );
    db.add_relation(RelationSchema::new("log", log_schema()))
        .expect("declares");
    db.declare_key("log", &[1, 2]).expect("key declares");
    db.create_index("log", &[1]).expect("index builds");
    db.create_view(
        "per_writer",
        mera_expr::RelExpr::scan("log").group_by(&[1], mera_expr::Aggregate::Cnt, 2),
    )
    .expect("view creates");

    let race = |db: &Arc<ConcurrentDb<MemStorage>>, round: usize| {
        let workers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = Arc::clone(db);
                thread::spawn(move || {
                    for n in 0..PER_WRITER {
                        let program = insert_program(w as i64, (round * PER_WRITER + n) as i64);
                        loop {
                            match db.try_execute(&program).expect("storage healthy") {
                                Outcome::Committed(_) => break,
                                o if is_conflict(&o) => continue,
                                o => panic!("unexpected abort: {o:?}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("writer joins");
        }
    };

    race(&db, 0);
    if with_checkpoint {
        db.checkpoint().expect("checkpoints");
        race(&db, 1);
    }
    db.sync().expect("final sync");
    storage.image()
}

fn insert_program(writer: i64, n: i64) -> Program {
    let row = mera_core::relation::relation_of(log_schema(), vec![mera_core::tuple![writer, n]])
        .expect("typed");
    Program::single(mera_txn::Statement::insert(
        "log",
        mera_expr::RelExpr::values(row),
    ))
}

/// Replays one intact WAL prefix through the volatile engine.
fn shadow_of(records: &[WalRecord], base: Database) -> Database {
    let config = mera_txn::ExecConfig {
        analyze: false,
        ..Default::default()
    };
    let shadow = MvccManager::from_version(Version::new(base).expect("analyzes"), config);
    for record in records {
        match record {
            // declares are idempotent vs a snapshot that already has it
            WalRecord::Declare { name, schema }
                if shadow.pin().database().relation(name).is_err() =>
            {
                shadow
                    .add_relation(RelationSchema::new(name.clone(), schema.clone()))
                    .expect("shadow declare");
            }
            WalRecord::Commit { time, text } => {
                let parsed = mera_lang::parse_program(text).expect("committed text parses");
                let program = Lowerer::new(shadow.pin().database().schema())
                    .lower_program(&parsed)
                    .expect("committed text lowers");
                let (outcome, next) = shadow.execute(&program);
                assert!(
                    matches!(outcome, Outcome::Committed(_)),
                    "volatile replay of a logged commit must commit"
                );
                assert_eq!(next.time(), *time, "log order must be commit order");
            }
            // catalog records don't change base state
            _ => {}
        }
    }
    let state = shadow.pin();
    state.database().clone()
}

/// Recovers a truncated image and checks every recovered structure
/// against the volatile oracle.
fn check_recovery(image: BTreeMap<String, Vec<u8>>, wal_prefix: &[u8], cut: usize) {
    let base = match image.get(SNAPSHOT_FILE) {
        Some(bytes) => snapshot::decode(bytes).expect("snapshot decodes"),
        None => Database::new(DatabaseSchema::new()),
    };
    let scan = wal::scan(wal_prefix).expect("intact prefix scans");
    let expected = shadow_of(&scan.records, base);

    let recovered = ConcurrentDb::open(
        MemStorage::from_image(image),
        DatabaseSchema::new(),
        options(),
    )
    .unwrap_or_else(|e| panic!("recovery after cut at byte {cut} failed: {e}"));
    let version = recovered.pin();
    assert_eq!(
        version.database(),
        &expected,
        "cut at byte {cut}: recovered base state is not the committed prefix"
    );

    // the whole catalog rides along with the prefix
    if version.database().relation("log").is_ok() {
        let rel = version.database().relation("log").expect("present");
        // stats (the entry appears with the first commit that touches
        // the relation; when present it must match)
        if let Some(stats) = version.stats().get("log") {
            assert_eq!(stats.rows, rel.len(), "cut {cut}: stats diverged");
        }
        // index
        if let Some(ix) = version.indexes().find("log", &[1]) {
            assert_eq!(ix.len(), rel.len(), "cut {cut}: index diverged");
        }
        // view: recompute expected per-writer counts from the base state
        if let Some(view) = version.views().get("per_writer") {
            let mut counts: BTreeMap<i64, i64> = BTreeMap::new();
            for (t, m) in rel.iter() {
                if let Value::Int(w) = t.attr(1).expect("arity 2") {
                    *counts.entry(*w).or_default() += m as i64;
                }
            }
            assert_eq!(
                view.data().len(),
                counts.len() as u64,
                "cut {cut}: view size"
            );
            for (w, c) in counts {
                assert_eq!(
                    view.data().multiplicity(&mera_core::tuple![w, c]),
                    1,
                    "cut {cut}: view row for writer {w} diverged"
                );
            }
        }
        // key constraint survives: a duplicate of any present row aborts
        if let Some((t, _)) = rel.iter().next() {
            let (w, n) = match (t.attr(1).expect("a"), t.attr(2).expect("b")) {
                (Value::Int(w), Value::Int(n)) => (*w, *n),
                other => panic!("unexpected row {other:?}"),
            };
            match recovered
                .try_execute(&insert_program(w, n))
                .expect("storage healthy")
            {
                Outcome::Aborted(_) => {}
                Outcome::Committed(_) => {
                    panic!("cut {cut}: key constraint lost across recovery")
                }
            }
        }
    }
}

#[test]
fn interleaved_wal_recovers_committed_prefix_at_every_byte() {
    let image = drive_concurrent(MemStorage::new(), false);
    let wal_bytes = image.get(WAL_FILE).expect("wal exists").clone();

    // sanity: the fault-free log holds every acked commit
    let full = wal::scan(&wal_bytes).expect("scans");
    let commits = full
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Commit { .. }))
        .count();
    assert_eq!(commits, WRITERS * PER_WRITER);
    assert_eq!(full.valid_len as usize, wal_bytes.len());

    // the full image recovers every structure, stats entry included
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(image.clone()),
        DatabaseSchema::new(),
        options(),
    )
    .expect("full recovery");
    let v = recovered.pin();
    assert_eq!(
        v.stats().get("log").expect("stats recovered").rows,
        (WRITERS * PER_WRITER) as u64
    );
    assert_eq!(
        v.indexes()
            .find("log", &[1])
            .expect("index recovered")
            .len(),
        (WRITERS * PER_WRITER) as u64
    );
    assert_eq!(
        v.views()
            .get("per_writer")
            .expect("view recovered")
            .data()
            .len(),
        WRITERS as u64
    );
    drop(v);
    drop(recovered);

    for cut in wal::WAL_MAGIC.len()..=wal_bytes.len() {
        let mut truncated = image.clone();
        truncated.insert(WAL_FILE.to_owned(), wal_bytes[..cut].to_vec());
        check_recovery(truncated, &wal_bytes[..cut], cut);
    }
}

#[test]
fn checkpointed_interleaved_history_recovers_at_every_tail_byte() {
    let image = drive_concurrent(MemStorage::new(), true);
    let wal_bytes = image.get(WAL_FILE).expect("wal exists").clone();
    assert!(
        image.contains_key(SNAPSHOT_FILE),
        "checkpoint wrote a snapshot"
    );

    // the post-checkpoint WAL tail carries the second racing round
    let full = wal::scan(&wal_bytes).expect("scans");
    let commits = full
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Commit { .. }))
        .count();
    assert_eq!(commits, WRITERS * PER_WRITER);

    // Checkpoint replaces the reseeded WAL head (DeclareView/Index/Key
    // records) with one replace_atomic, so no real crash can tear it;
    // torn states start where post-checkpoint commit frames append.
    let reseed_len = {
        let mut len = wal::empty_wal().len();
        for r in &full.records {
            if matches!(r, WalRecord::Commit { .. }) {
                break;
            }
            len += r.encode_frame().len();
        }
        len
    };
    assert!(reseed_len < wal_bytes.len(), "tail holds the second round");

    for cut in reseed_len..=wal_bytes.len() {
        let mut truncated = image.clone();
        truncated.insert(WAL_FILE.to_owned(), wal_bytes[..cut].to_vec());
        check_recovery(truncated, &wal_bytes[..cut], cut);
    }
}
