//! The SQL front-end: the paper's SQL forms of Examples 3.2 and 4.1
//! executed against the multi-set algebra.
//!
//! Run with `cargo run --example sql_frontend`.

use mera::core::prelude::*;
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{EngineKind, ExecConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // every statement runs through the unified batched engine; set
    // `options.partitions` above 1 to run the same plans as morsel-driven
    // pipelines on that many workers
    let options = StoreOptions {
        exec: ExecConfig::with_engine(EngineKind::Physical),
        ..StoreOptions::default()
    };
    let db = ConcurrentDb::open(MemStorage::new(), mera::beer_schema(), options)?;

    db.run_sql(
        "INSERT INTO beer VALUES \
         ('Grolsch',  'Grolsche', 5.0), \
         ('Heineken', 'Heineken', 5.0), \
         ('Amstel',   'Heineken', 5.1), \
         ('Guinness', 'StJames',  4.2), \
         ('Bock',     'Grolsche', 6.5), \
         ('Bock',     'Heineken', 6.3)",
    )?;
    db.run_sql(
        "INSERT INTO brewery VALUES \
         ('Grolsche', 'Enschede',  'NL'), \
         ('Heineken', 'Amsterdam', 'NL'), \
         ('StJames',  'Dublin',    'IE')",
    )?;

    // SQL keeps duplicates unless DISTINCT is written — bag semantics
    let names = db.run_sql("SELECT name FROM beer")?.expect("query");
    println!("SELECT name FROM beer:\n{names}\n");
    assert_eq!(names.multiplicity(&tuple!["Bock"]), 2);

    let distinct = db
        .run_sql("SELECT DISTINCT name FROM beer")?
        .expect("query");
    println!("SELECT DISTINCT name FROM beer:\n{distinct}\n");
    assert_eq!(distinct.multiplicity(&tuple!["Bock"]), 1);

    // ── the paper's Example 3.2 SQL, verbatim ──────────────────────────
    let avg = db
        .run_sql(
            "SELECT country, AVG(alcperc) \
             FROM beer, brewery \
             WHERE beer.brewery = brewery.name \
             GROUP BY country",
        )?
        .expect("query");
    println!("Example 3.2 (AVG per country):\n{avg}\n");
    let nl = (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5.0;
    assert_eq!(avg.multiplicity(&tuple!["NL", nl]), 1);

    // HAVING over the aggregate
    let prolific = db
        .run_sql("SELECT brewery, COUNT(*) FROM beer GROUP BY brewery HAVING COUNT(*) > 1")?
        .expect("query");
    println!("breweries with more than one beer:\n{prolific}\n");

    // ── the paper's Example 4.1 SQL, verbatim (modulo the brewer) ─────
    db.run_sql("UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'Heineken'")?;
    let after = db
        .run_sql("SELECT name, alcperc FROM beer WHERE brewery = 'Heineken'")?
        .expect("query");
    println!("after the Example 4.1 UPDATE:\n{after}\n");
    assert_eq!(after.multiplicity(&tuple!["Amstel", 5.1 * 1.1]), 1);

    // DELETE
    db.run_sql("DELETE FROM beer WHERE alcperc < 5.0")?;
    let count = db.run_sql("SELECT COUNT(*) FROM beer")?.expect("query");
    println!("beers left after deleting the weak ones:\n{count}");
    Ok(())
}
