//! The §5 extensions in action: transitive closure (recursive queries)
//! and commit-time integrity through a declared key.
//!
//! The paper's conclusion points at both: "the addition of a transitive
//! closure operator allowing expressions with a recursive nature is
//! discussed in [11]", and "integrity constraints … interested readers
//! are referred to [11]". Of integrity, `mera` keeps keys only: they are
//! what licenses dropping δ, and they can be checked on the version a
//! commit lands in.
//!
//! Run with `cargo run --example recursive_queries`.

use mera::core::prelude::*;
use mera::expr::{Aggregate, RelExpr};
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{AbortReason, ExecConfig, Outcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── recursive queries via closure(E) ───────────────────────────────
    let db = ConcurrentDb::open(
        MemStorage::new(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )?;
    db.run_script(
        "relation supplies (part: str, component: str);\n\
         insert(supplies, values (str, str) {\n\
           ('bike', 'frame'), ('bike', 'wheel'),\n\
           ('wheel', 'rim'), ('wheel', 'spoke'),\n\
           ('frame', 'tube'), ('rim', 'tube')   -- tube used twice!\n\
         });",
    )?;

    let version = db.pin();
    let query = |src: &str| -> Result<Relation, Box<dyn std::error::Error>> {
        let expr = mera::lang::lower_rel(&version.catalog_schema(), src)?;
        Ok(version.query(&expr, ExecConfig::default())?)
    };
    println!("direct bill of materials:\n{}", query("supplies")?);

    // all parts transitively contained in a bike — the classic recursive
    // query relational algebra cannot express without the α operator
    let all = query("project[%2](select[%1 = 'bike'](closure(supplies)))")?;
    println!("\neverything inside a bike (closure):\n{all}");
    // frame, wheel, rim, spoke, tube — the two paths to 'tube' collapse
    // because closure is δ-based (one pair per reachable part)
    assert_eq!(all.len(), 5);

    // closure composes with the rest of the algebra: how many distinct
    // parts sit at any depth under each top-level part?
    let fanout = query("groupby[(%1), CNT, %2](closure(supplies))")?;
    println!("transitive fan-out per part:\n{fanout}");

    // ── integrity: a declared key, checked at commit time ─────────────
    // the same database declares (part, component) a key: each edge of
    // the bill of materials appears once, and every commit checks its net
    // delta against the key in O(|delta|)
    db.run_script("key supplies (part, component);")?;
    let before = db.pin();
    let duplicate =
        mera::lang::parse_program("insert(supplies, values (str, str) {('bike', 'frame')})")?;
    let duplicate = mera::lang::Lowerer::new(&before.catalog_schema()).lower_program(&duplicate)?;
    let outcome = db.try_execute(&duplicate)?;
    let Outcome::Aborted(AbortReason::KeyViolation(diag)) = &outcome else {
        panic!("a duplicate edge must abort on the key, got {outcome:?}");
    };
    println!("\nduplicate edge aborts: {diag}");
    assert_eq!(diag.code.as_str(), "E0401");
    assert_eq!(db.pin().seq(), before.seq(), "an abort publishes nothing");

    // a new edge commits, and closure still works on the committed state
    db.run_script("insert(supplies, values (str, str) {('spoke', 'nipple')});")?;
    let reachable = mera::eval::eval(
        &RelExpr::scan("supplies")
            .closure()
            .group_by(&[1], Aggregate::Cnt, 2),
        db.pin().database(),
    )?;
    println!("\ntransitive fan-out in the keyed database:\n{reachable}");
    Ok(())
}
