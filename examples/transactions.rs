//! Programs and transactions (paper §4): Example 4.1's update, temporary
//! relations, atomic abort, and recovery from the write-ahead log.
//!
//! Run with `cargo run --example transactions`.

use mera::core::prelude::DatabaseSchema;
use mera::expr::{Aggregate, RelExpr, ScalarExpr};
use mera::store::{wal, ConcurrentDb, MemStorage, StoreOptions, WalRecord, WAL_FILE};
use mera::txn::{Program, Statement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // the durable front door over an in-memory "disk": every commit is in
    // the write-ahead log before it is visible
    let disk = MemStorage::new();
    let db = ConcurrentDb::open(disk.clone(), mera::beer_schema(), StoreOptions::default())?;

    // ── load the fixture through insert statements ─────────────────────
    let fixture = mera::beer_database();
    let load = Program::new()
        .then(Statement::insert(
            "beer",
            RelExpr::values(fixture.relation("beer")?.clone()),
        ))
        .then(Statement::insert(
            "brewery",
            RelExpr::values(fixture.relation("brewery")?.clone()),
        ));
    let before = db.pin();
    assert!(db.try_execute(&load)?.is_committed());
    let loaded = db.pin();
    println!(
        "t={}: loaded {} beers, {} breweries (single-step transition: {})",
        loaded.time(),
        loaded.database().relation("beer")?.len(),
        loaded.database().relation("brewery")?.len(),
        loaded.time() == before.time() + 1,
    );

    // ── Example 4.1: Guineken raises alcohol percentages by 10% ───────
    // (our fixture spells it Heineken; the statement is the paper's)
    let guineken_update = Program::single(Statement::update(
        "beer",
        RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Heineken"))),
        vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2),
            ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
        ],
    ));
    db.execute(&guineken_update)?;
    println!(
        "\nafter the Example 4.1 update:\n{}",
        db.pin().database().relation("beer")?
    );

    // ── a multi-statement transaction with a temporary relation ───────
    let report = Program::new()
        .then(Statement::assign(
            "dutch",
            RelExpr::scan("brewery").select(ScalarExpr::attr(3).eq(ScalarExpr::str("NL"))),
        ))
        .then(Statement::query(
            RelExpr::scan("beer")
                .join(
                    RelExpr::scan("dutch"),
                    ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
                )
                .group_by(&[4], Aggregate::Max, 3),
        ));
    let outputs = db.execute(&report)?;
    println!(
        "\nstrongest beer per Dutch brewery (via a temporary):\n{}",
        outputs.queries[0]
    );
    // temporaries never survive the transaction
    assert!(db.pin().database().relation("dutch").is_err());

    // ── atomicity: an error mid-transaction rolls everything back ─────
    let before = db.pin();
    let doomed = Program::new()
        .then(Statement::delete("beer", RelExpr::scan("beer"))) // wipe...
        .then(Statement::query(
            // ...then fail: AVG over the now-empty relation
            RelExpr::scan("beer").group_by(&[], Aggregate::Avg, 3),
        ));
    let outcome = db.try_execute(&doomed)?;
    println!("\ndoomed transaction: {:?}", outcome);
    assert!(!outcome.is_committed());
    let after = db.pin();
    assert_eq!(after.seq(), before.seq(), "an abort publishes nothing");
    assert_eq!(
        after.database().relation("beer")?,
        before.database().relation("beer")?,
        "the delete was rolled back"
    );
    println!("database unchanged after abort ✓ (T(D) = D, the atomicity property)");

    // ── durability: the write-ahead log is the redo log ───────────────
    // each commit is logged as the net ℤ-delta it installed, D_t − D_{t−1}
    let image = disk.image();
    let mut commits = 0;
    let mut lines = Vec::new();
    for record in wal::scan(&image[WAL_FILE])?.records {
        if let WalRecord::Delta { time, deltas } = record {
            commits += 1;
            for (relation, delta) in deltas {
                let mut rows: Vec<_> = delta.into_iter().collect();
                rows.sort();
                for (tuple, m) in rows {
                    lines.push(format!("{time}\t{relation}\t{m:+}\t{tuple}"));
                }
            }
        }
    }
    println!(
        "\nthe log holds {commits} committed transaction(s) — reads and aborts leave no record:"
    );
    for line in &lines {
        println!("{line}");
    }
    // "power loss": reopen from the bytes that reached the disk
    let rebooted = MemStorage::from_image(image);
    let recovered = ConcurrentDb::open(rebooted, DatabaseSchema::new(), StoreOptions::default())?;
    let (recovered, live) = (recovered.pin(), db.pin());
    assert_eq!(recovered.database(), live.database());
    println!("recovered state matches the live state ✓");
    Ok(())
}
