//! Quickstart: the multi-set algebra on the paper's beer database.
//!
//! Reproduces Example 3.1 — "the multi-set of all names of beers brewn in
//! the Netherlands" — three ways: through the algebra builder API, through
//! the optimizer + physical engine, and through the XRA textual language.
//!
//! Run with `cargo run --example quickstart`.

use mera::core::prelude::*;
use mera::expr::{RelExpr, ScalarExpr};
use mera::opt::Optimizer;
use mera::store::{snapshot, ConcurrentDb, MemStorage, Storage, StoreOptions, SNAPSHOT_FILE};
use mera::txn::ExecConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── the data ──────────────────────────────────────────────────────
    let db = mera::beer_database();
    println!("beer relation:\n{}\n", db.relation("beer")?);
    println!("brewery relation:\n{}\n", db.relation("brewery")?);

    // ── Example 3.1, built with the algebra API ───────────────────────
    // π_(%1) σ_(%6='NL') (beer ⋈_(%2=%4) brewery)
    let dutch_beers = RelExpr::scan("beer")
        .join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        )
        .select(ScalarExpr::attr(6).eq(ScalarExpr::str("NL")))
        .project(&[1]);
    println!("algebra: {dutch_beers}");

    // the reference evaluator is the paper's definitions, executable
    let result = mera::eval::eval(&dutch_beers, &db)?;
    println!("\nDutch beer names (duplicates preserved!):\n{result}\n");
    assert_eq!(result.multiplicity(&tuple!["Bock"]), 2); // two brewers brew a Bock
    assert_eq!(result.len(), 5);

    // ── the same query through the optimizer and physical engine ──────
    let optimized = Optimizer::standard().optimize(&dutch_beers, db.schema())?;
    println!("optimized plan: {}", optimized.expr);
    println!(
        "rules applied: {:?} in {} pass(es)",
        optimized.applications, optimized.passes
    );
    let physical = mera::eval::Engine::physical().run(&optimized.expr, &db)?;
    assert_eq!(physical, result);
    println!("physical engine agrees with the reference evaluator ✓\n");

    // ── and through the XRA textual language ──────────────────────────
    // the front door over a volatile "disk" seeded with a snapshot of the
    // fixture; a read is text lowered against a pinned version
    let mut disk = MemStorage::new();
    disk.replace_atomic(SNAPSHOT_FILE, &snapshot::encode(&db))?;
    let store = ConcurrentDb::open(disk, DatabaseSchema::new(), StoreOptions::default())?;
    let version = store.pin();
    let query = |src: &str| -> Result<Relation, Box<dyn std::error::Error>> {
        let expr = mera::lang::lower_rel(&version.catalog_schema(), src)?;
        Ok(version.query(&expr, ExecConfig::default())?)
    };
    let via_lang = query("project[%1](select[country = 'NL'](join[%2 = %4](beer, brewery)))")?;
    assert_eq!(via_lang, result);
    println!("XRA front-end agrees too ✓");

    // bag semantics in one line: projection never loses tuples
    let percentages = query("project[alcperc](beer)")?;
    println!(
        "\nπ(alcperc): {} tuples, {} distinct — bag projection keeps duplicates",
        percentages.len(),
        percentages.distinct_len()
    );
    Ok(())
}
