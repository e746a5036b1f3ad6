//! Example 3.2 end-to-end: why multi-set semantics matters for
//! aggregation, and how the paper's projection-insertion rewrite shrinks
//! intermediate results.
//!
//! The paper's claim: under bag semantics, inserting
//! `π_(alcperc,country)` before the per-country average is a pure
//! optimization; under set semantics it silently *changes the answer*.
//! This example demonstrates both halves, plus the optimizer applying the
//! rewrite automatically and the instrumented engine measuring the
//! intermediate-volume reduction.
//!
//! Run with `cargo run --example beer_analytics`.

use mera::core::prelude::*;
use mera::eval::reference::eval_in;
use mera::eval::{eval, Engine, ExecStats};
use mera::expr::{Aggregate, RelExpr, ScalarExpr};
use mera::opt::Optimizer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = mera::beer_database();

    // γ_{(country), AVG, alcperc}(beer ⋈ brewery)
    let join = RelExpr::scan("beer").join(
        RelExpr::scan("brewery"),
        ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
    );
    let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
    // the paper's hand-optimized form with the projection inserted
    let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);

    // ── bag semantics: both forms agree ───────────────────────────────
    let bag_direct = eval(&direct, &db)?;
    let bag_reduced = eval(&reduced, &db)?;
    assert_eq!(bag_direct, bag_reduced);
    println!("average alcohol percentage per country (bag semantics):");
    println!("{bag_direct}\n");
    println!("with and without the inserted projection: identical ✓\n");

    // ── set semantics: the projection corrupts the aggregate ──────────
    let set_direct = eval_in::<bool>(&direct, &db)?;
    let set_reduced = eval_in::<bool>(&reduced, &db)?;
    assert_ne!(set_direct, set_reduced);
    println!("the same two expressions under SET semantics:");
    println!("direct:\n{set_direct}\n");
    println!("with projection inserted:\n{set_reduced}\n");
    println!(
        "set semantics collapses the two distinct 5.0% Dutch beers into \
         one tuple before averaging — the paper's 'different (and \
         incorrect) result'.\n"
    );

    // ── the optimizer applies the rewrite automatically ───────────────
    let optimized = Optimizer::standard().optimize(&direct, db.schema())?;
    println!("optimizer output: {}", optimized.expr);
    assert!(optimized
        .applications
        .iter()
        .any(|(rule, _)| rule == "project-before-group-by"));

    // ── measured: the data volume feeding the blocking group-by ───────
    // (counters register bottom-up, so the entry before "group-by" is its
    // input operator)
    let gamma_input_cells =
        |expr: &RelExpr| -> Result<(u64, Relation), Box<dyn std::error::Error>> {
            let mut stats = ExecStats::new();
            let out = Engine::physical().run_instrumented(expr, &db, &mut stats)?;
            let cells = stats.cells_out();
            let gamma = cells
                .iter()
                .position(|(l, _)| l == "group-by")
                .expect("plan contains a group-by");
            Ok((cells[gamma - 1].1, out))
        };
    let (direct_volume, a) = gamma_input_cells(&direct)?;
    let (reduced_volume, b) = gamma_input_cells(&optimized.expr)?;
    assert_eq!(a, b);
    println!("\ndata volume feeding the group-by, unoptimized plan: {direct_volume} cells");
    println!("data volume feeding the group-by, optimized plan:   {reduced_volume} cells");
    assert!(reduced_volume < direct_volume);
    println!(
        "(the projection narrows 6-attribute join tuples to 2 attributes \
         before grouping; on wider relations the effect grows — see bench \
         `ex32_pushdown`)"
    );
    Ok(())
}
