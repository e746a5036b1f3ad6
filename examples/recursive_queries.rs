//! The §5 extensions in action: transitive closure (recursive queries)
//! and commit-time integrity constraints.
//!
//! The paper's conclusion points at both: "the addition of a transitive
//! closure operator allowing expressions with a recursive nature is
//! discussed in [11]", and "integrity constraints … interested readers
//! are referred to [11]".
//!
//! Run with `cargo run --example recursive_queries`.

use std::sync::Arc;

use mera::core::prelude::*;
use mera::expr::{Aggregate, RelExpr, ScalarExpr};
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{Constraint, ConstraintSet, ExecConfig, MvccManager, Program, Statement};

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

    // ── integrity constraints at commit time ──────────────────────────
    let schema = DatabaseSchema::new()
        .with(
            "supplies",
            Schema::named(&[("part", DataType::Str), ("component", DataType::Str)]),
        )?
        .with("part", Schema::named(&[("name", DataType::Str)]))?;
    let constraints = ConstraintSet::new()
        .with(
            "supplies_pk",
            Constraint::PrimaryKey {
                relation: "supplies".into(),
                attrs: vec![1, 2],
            },
            &schema,
        )?
        .with(
            "component_fk",
            Constraint::ForeignKey {
                relation: "supplies".into(),
                attrs: vec![2],
                references: "part".into(),
                ref_attrs: vec![1],
            },
            &schema,
        )?
        .with(
            "no_self_supply",
            Constraint::Check {
                relation: "supplies".into(),
                predicate: ScalarExpr::attr(1).cmp(mera::expr::CmpOp::Ne, ScalarExpr::attr(2)),
            },
            &schema,
        )?;
    let mgr = MvccManager::new(schema).with_constraints(constraints);

    let part_rows = |names: &[&str]| -> Relation {
        Relation::from_tuples(
            Arc::new(Schema::named(&[("name", DataType::Str)])),
            names.iter().map(|n| tuple![*n]),
        )
        .expect("typed")
    };
    let edge = |a: &str, b: &str| -> Relation {
        Relation::from_tuples(
            Arc::new(Schema::named(&[
                ("part", DataType::Str),
                ("component", DataType::Str),
            ])),
            vec![tuple![a, b]],
        )
        .expect("typed")
    };

    // a valid load commits
    let (outcome, _) = mgr.execute(
        &Program::new()
            .then(Statement::insert(
                "part",
                RelExpr::values(part_rows(&["bike", "frame", "wheel"])),
            ))
            .then(Statement::insert(
                "supplies",
                RelExpr::values(edge("bike", "frame")),
            ))
            .then(Statement::insert(
                "supplies",
                RelExpr::values(edge("bike", "wheel")),
            )),
    );
    println!("\nvalid load: committed = {}", outcome.is_committed());

    // a dangling component aborts atomically at commit time
    let before = mgr.pin();
    let (outcome, after) = mgr.execute(&Program::single(Statement::insert(
        "supplies",
        RelExpr::values(edge("wheel", "warpdrive")),
    )));
    println!("dangling component: {outcome:?}");
    assert!(!outcome.is_committed());
    assert_eq!(after.seq(), before.seq(), "an abort publishes nothing");

    // a self-supply violates the check constraint
    let (outcome, _) = mgr.execute(&Program::single(Statement::insert(
        "supplies",
        RelExpr::values(edge("wheel", "wheel")),
    )));
    println!("self-supply: {outcome:?}");
    assert!(!outcome.is_committed());

    // meanwhile closure still works on the committed state
    let reachable = mera::eval::eval(
        &RelExpr::scan("supplies")
            .closure()
            .group_by(&[1], Aggregate::Cnt, 2),
        mgr.pin().database(),
    )?;
    println!("\ntransitive fan-out in the constrained database:\n{reachable}");
    Ok(())
}
