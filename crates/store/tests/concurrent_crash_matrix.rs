//! Crash-recovery matrix for *concurrent* commit histories.
//!
//! The serial crash matrix (`crash_matrix.rs`) drives a scripted
//! single-threaded workload. Here the WAL is produced by racing
//! sessions committing through the MVCC front with `EveryN` group
//! commit, so the log is a genuine interleaving of independent
//! transactions — then the matrix truncates that log at **every byte
//! offset** and asserts recovery reproduces exactly the acknowledged
//! prefix: base relations, logical time, views, stats, key
//! constraints and indexes.
//!
//! The oracle is the *acknowledged* history, not a re-execution: every
//! writer records the database of the version its commit published
//! ([`ConcurrentDb::commit`] returns it). A WAL prefix whose last intact
//! commit record carries time `t` must recover to exactly what was
//! acknowledged at `t`. One session is a reader-writer — it copies rows
//! the others are concurrently inserting — so a recovery that re-ran its
//! program on the serial predecessor instead of logging what it wrote
//! would diverge from the oracle.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;

use mera_core::prelude::*;
use mera_store::{
    is_conflict, snapshot, wal, ConcurrentDb, FsyncPolicy, MemStorage, StoreOptions, WalRecord,
    SNAPSHOT_FILE, WAL_FILE,
};
use mera_txn::{Outcome, Program};

/// The database each acknowledged commit published, by commit time.
type Acked = Mutex<BTreeMap<LogicalTime, Database>>;

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
/// image after a final sync, and the acknowledged history.
fn drive_concurrent(
    storage: MemStorage,
    with_checkpoint: bool,
) -> (BTreeMap<String, Vec<u8>>, BTreeMap<LogicalTime, Database>) {
    let db = Arc::new(
        ConcurrentDb::open(storage.clone(), DatabaseSchema::new(), options()).expect("opens"),
    );
    db.add_relation(RelationSchema::new("log", log_schema()))
        .expect("declares");
    db.add_relation(RelationSchema::new("audit", log_schema()))
        .expect("declares");
    db.declare_key("log", &[1, 2]).expect("key declares");
    db.create_index("log", &[1]).expect("index builds");
    db.create_view(
        "per_writer",
        mera_expr::RelExpr::scan("log").group_by(&[1], mera_expr::Aggregate::Cnt, 2),
    )
    .expect("view creates");
    let acked = Arc::new(Acked::default());

    let race = |db: &Arc<ConcurrentDb<MemStorage>>, round: usize| {
        let mut workers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (db, acked) = (Arc::clone(db), Arc::clone(&acked));
                thread::spawn(move || {
                    for n in 0..PER_WRITER {
                        let program = insert_program(w as i64, (round * PER_WRITER + n) as i64);
                        commit_acked(&db, &program, &acked);
                    }
                })
            })
            .collect();
        let (db, acked) = (Arc::clone(db), Arc::clone(&acked));
        workers.push(thread::spawn(move || {
            // the audit copies writer 0's rows: start once one is
            // published, or a scheduler that runs this thread first
            // leaves the race without a reader-writer commit
            while !has_writer_zero_row(&db.pin()) {
                thread::yield_now();
            }
            for _ in 0..PER_WRITER {
                commit_acked(&db, &audit_program(), &acked);
            }
        }));
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
    let acked = acked.lock().expect("no writer panicked").clone();
    (storage.image(), acked)
}

/// Commits `program` through the split front door, retrying conflicts,
/// and records what the commit published.
fn commit_acked(db: &ConcurrentDb<MemStorage>, program: &Program, acked: &Acked) {
    loop {
        let prepared = db.prepare(db.pin(), program).expect("prepares");
        let writes = !prepared.is_read_only();
        match db.commit(prepared).expect("storage healthy") {
            (Outcome::Committed(_), published) => {
                if writes {
                    let mut acked = acked.lock().expect("no writer panicked");
                    acked.insert(published.time(), published.database().clone());
                }
                return;
            }
            (o, _) if is_conflict(&o) => continue,
            (o, _) => panic!("unexpected abort: {o:?}"),
        }
    }
}

fn has_writer_zero_row(version: &mera_txn::Version) -> bool {
    let log = version.database().relation("log").expect("declared");
    log.iter().any(|(t, _)| t.values()[0] == Value::Int(0))
}

/// The reader-writer: copies writer 0's rows, as of its snapshot, into
/// `audit`.
fn audit_program() -> Program {
    Program::single(mera_txn::Statement::insert(
        "audit",
        mera_expr::RelExpr::scan("log")
            .select(mera_expr::ScalarExpr::attr(1).eq(mera_expr::ScalarExpr::int(0))),
    ))
}

fn insert_program(writer: i64, n: i64) -> Program {
    let row = mera_core::relation::relation_of(log_schema(), vec![mera_core::tuple![writer, n]])
        .expect("typed");
    Program::single(mera_txn::Statement::insert(
        "log",
        mera_expr::RelExpr::values(row),
    ))
}

/// The acknowledged state an intact WAL prefix must recover to: the
/// database published by its last commit record past the snapshot, or —
/// with none — the snapshot plus the declarations in the prefix.
fn acknowledged(
    records: &[WalRecord],
    base: Database,
    acked: &BTreeMap<u64, Database>,
) -> Database {
    let last = records.iter().rev().find_map(|r| match r {
        WalRecord::Delta { time, .. } => Some(*time),
        _ => None,
    });
    if let Some(time) = last.filter(|&t| t > base.time()) {
        return acked[&time].clone();
    }
    let mut db = base;
    for record in records {
        if let WalRecord::Declare { name, schema } = record {
            db.add_relation(RelationSchema::new(name.clone(), schema.clone()))
                .expect("declared once");
        }
    }
    db
}

/// Recovers a truncated image and checks every recovered structure
/// against the acknowledged history.
fn check_recovery(
    image: BTreeMap<String, Vec<u8>>,
    wal_prefix: &[u8],
    cut: usize,
    acked: &BTreeMap<u64, Database>,
) {
    let base = match image.get(SNAPSHOT_FILE) {
        Some(bytes) => snapshot::decode(bytes).expect("snapshot decodes"),
        None => Database::new(DatabaseSchema::new()),
    };
    let scan = wal::scan(wal_prefix).expect("intact prefix scans");
    let expected = acknowledged(&scan.records, base, acked);

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

/// The logged commits of a fault-free image: one delta record per
/// acknowledged commit, in commit order.
fn commit_records(records: &[WalRecord], acked: &BTreeMap<u64, Database>) -> usize {
    let times: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Delta { time, .. } => Some(*time),
            _ => None,
        })
        .collect();
    assert!(times.windows(2).all(|w| w[1] == w[0] + 1), "{times:?}");
    assert!(times.iter().all(|t| acked.contains_key(t)));
    times.len()
}

#[test]
fn interleaved_wal_recovers_committed_prefix_at_every_byte() {
    let (image, acked) = drive_concurrent(MemStorage::new(), false);
    let wal_bytes = image.get(WAL_FILE).expect("wal exists").clone();

    // sanity: the fault-free log holds every acked commit
    let full = wal::scan(&wal_bytes).expect("scans");
    assert_eq!(commit_records(&full.records, &acked), acked.len());
    assert!(
        acked.len() > WRITERS * PER_WRITER,
        "the reader-writer wrote"
    );
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
        check_recovery(truncated, &wal_bytes[..cut], cut, &acked);
    }
}

#[test]
fn checkpointed_interleaved_history_recovers_at_every_tail_byte() {
    let (image, acked) = drive_concurrent(MemStorage::new(), true);
    let wal_bytes = image.get(WAL_FILE).expect("wal exists").clone();
    let snapshot_time = snapshot::decode(
        image
            .get(SNAPSHOT_FILE)
            .expect("checkpoint wrote a snapshot"),
    )
    .expect("snapshot decodes")
    .time();

    // the post-checkpoint WAL tail carries the second racing round
    let full = wal::scan(&wal_bytes).expect("scans");
    assert_eq!(
        commit_records(&full.records, &acked),
        acked.range(snapshot_time + 1..).count()
    );

    // Checkpoint replaces the reseeded WAL head (DeclareView/Index/Key
    // records) with one replace_atomic, so no real crash can tear it;
    // torn states start where post-checkpoint commit frames append.
    let reseed_len = {
        let mut len = wal::empty_wal().len();
        for r in &full.records {
            if matches!(r, WalRecord::Delta { .. }) {
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
        check_recovery(truncated, &wal_bytes[..cut], cut, &acked);
    }
}
