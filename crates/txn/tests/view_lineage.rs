//! The staleness rule of view maintenance plans.
//!
//! A view's maintenance plan (join indexes, γ groups, δ/−/∩ bags) is
//! writer state: one plan per lineage of versions, shared by them and
//! edited in place by the refresh that extends the lineage. A plan
//! carries the stamp of the view state it reflects; a view whose stamp
//! differs takes the full-recompute fallback and gets a plan of its own.
//! These tests pin both halves of that rule against a fresh evaluation of
//! every view's definition:
//!
//! * (a) one lineage never falls back — a stamp bug that recomputed every
//!   commit would pass every differential test and lose the in-place
//!   refresh, and only the fallback counter shows it;
//! * (b) a commit that fails after its refresh (the durability hook
//!   refuses it) leaves its predecessor's plan advanced, so the next good
//!   commit falls back exactly once per view, then refreshes in place;
//! * (c) two clones of one version that apply different deltas are both
//!   correct;
//! * (d) a reader pinned before a commit still reads the old contents.

use mera_core::prelude::*;
use mera_expr::{Aggregate, RelExpr, ScalarExpr};
use mera_txn::{Ddl, DdlError, ExecConfig, MvccManager, Program, Statement, Version};

fn orders() -> Schema {
    Schema::named(&[
        ("id", DataType::Int),
        ("cust", DataType::Int),
        ("amount", DataType::Int),
    ])
}

fn customers() -> Schema {
    Schema::named(&[("cust", DataType::Int), ("region", DataType::Int)])
}

/// The initial order `id`.
fn order(id: i64) -> Tuple {
    tuple![id, id % 10, id % 7 + 1]
}

/// `orders ⋈ customers` on the customer id.
fn joined() -> RelExpr {
    RelExpr::scan("orders").join(
        RelExpr::scan("customers"),
        ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
    )
}

/// 200 orders over 10 customers in 3 regions, and one view per stateful
/// maintenance rule: ⋈, γ over a join, δ, − and a view over a view.
fn loaded() -> MvccManager {
    let mgr = MvccManager::new(
        DatabaseSchema::new()
            .with("orders", orders())
            .expect("fresh")
            .with("customers", customers())
            .expect("fresh"),
    );
    let custs = (0..10_i64).map(|c| tuple![c, c % 3]).collect();
    let load = Program::new()
        .then(insert("orders", orders(), (0..200).map(order).collect()))
        .then(insert("customers", customers(), custs));
    assert!(mgr.execute(&load).0.is_committed());
    let ordered = RelExpr::scan("orders").project(&[2]).distinct();
    let views = [
        ("joined", joined()),
        ("by_region", joined().group_by(&[5], Aggregate::Sum, 3)),
        ("ordered", ordered.clone()),
        (
            "idle",
            RelExpr::scan("customers").project(&[1]).difference(ordered),
        ),
        (
            "big_regions",
            RelExpr::scan("by_region")
                .select(ScalarExpr::attr(2).cmp(mera_expr::CmpOp::Gt, ScalarExpr::int(100))),
        ),
    ];
    for (name, expr) in views {
        let ddl = Ddl::View {
            name: name.to_owned(),
            expr,
        };
        mgr.ddl(&ddl, || Ok::<(), DdlError>(())).expect("accepted");
    }
    mgr
}

fn insert(relation: &str, schema: Schema, rows: Vec<Tuple>) -> Statement {
    let rel = relation_of(schema, rows).expect("typed");
    Statement::insert(relation, RelExpr::values(rel))
}

fn delete(relation: &str, schema: Schema, rows: Vec<Tuple>) -> Statement {
    let rel = relation_of(schema, rows).expect("typed");
    Statement::delete(relation, RelExpr::values(rel))
}

/// Churn commit `i` (below 200): initial order `i` leaves and order
/// `1000 + i` arrives with a larger amount, so every view's input
/// changes; every 25th commit also adds a customer, which the arriving
/// orders (customer ids up to 11) then join.
fn churn(i: i64) -> Program {
    let program = Program::new()
        .then(delete("orders", orders(), vec![order(i)]))
        .then(insert(
            "orders",
            orders(),
            vec![tuple![1000 + i, (i * 7) % 12, i % 7 + 11]],
        ));
    if i % 25 == 0 {
        program.then(insert(
            "customers",
            customers(),
            vec![tuple![10 + i / 25, i % 3]],
        ))
    } else {
        program
    }
}

/// Every view of `version` equals the reference evaluation of its
/// definition against that version (earlier views readable by name).
fn assert_views_fresh(version: &Version, context: &str) {
    for view in version.views().iter() {
        let fresh =
            mera_eval::eval(view.expr(), &version.working_state()).expect("definition evaluates");
        assert_eq!(
            view.data().bag(),
            fresh.bag(),
            "view `{}` diverged from its definition {context}",
            view.name()
        );
    }
}

/// `(name, refreshes, fallbacks)` per view.
fn stats(version: &Version) -> Vec<(String, u64, u64)> {
    let stats = version.views().iter().map(|v| {
        let (refreshes, fallbacks) = v.refresh_stats();
        (v.name().to_owned(), refreshes, fallbacks)
    });
    stats.collect()
}

fn fallbacks(version: &Version) -> Vec<u64> {
    stats(version).into_iter().map(|(_, _, f)| f).collect()
}

/// (a) 200 churn commits on one lineage refresh every view in place:
/// zero fallbacks.
#[test]
fn one_lineage_never_falls_back() {
    let mgr = loaded();
    for i in 0..200 {
        assert!(mgr.execute(&churn(i)).0.is_committed(), "commit {i}");
        if i % 20 == 0 {
            assert_views_fresh(&mgr.pin(), &format!("after commit {i}"));
        }
    }
    let version = mgr.pin();
    assert_views_fresh(&version, "after 200 commits");
    for (name, refreshes, fallbacks) in stats(&version) {
        assert_eq!(refreshes, 200, "`{name}` refreshes");
        assert_eq!(fallbacks, 0, "`{name}` fell back on one lineage");
    }
}

/// (b) A commit whose durability hook fails after its refresh publishes
/// nothing; the next good commit finds every plan a step ahead of the
/// view it refreshes, recomputes each view once, and the one after it
/// is back on the in-place path.
#[test]
fn a_failed_commit_costs_the_next_one_exactly_one_fallback() {
    let mgr = loaded();
    assert!(mgr.execute(&churn(0)).0.is_committed());
    let before = mgr.pin();
    let prepared = mgr.prepare(mgr.pin(), &churn(1)).expect("runs");
    let err = mgr
        .try_commit::<&str>(prepared, |_| Err("disk full"))
        .expect_err("the hook refuses the commit");
    assert_eq!(err, "disk full");
    assert_eq!(mgr.pin().seq(), before.seq(), "nothing was published");
    assert_views_fresh(&mgr.pin(), "after the failed commit");
    assert!(mgr.execute(&churn(2)).0.is_committed());
    assert_views_fresh(&mgr.pin(), "after the next good commit");
    assert_eq!(fallbacks(&mgr.pin()), vec![1; 5]);
    assert!(mgr.execute(&churn(3)).0.is_committed());
    assert_views_fresh(&mgr.pin(), "after the commit after it");
    assert_eq!(fallbacks(&mgr.pin()), vec![1; 5]);
}

/// (c) Two clones of one version fold different deltas, taking turns, so
/// each fork's refresh finds the plan the other one advanced: both stay
/// correct, and so does the version they were cloned from.
#[test]
fn two_forks_of_one_version_are_both_correct() {
    let config = ExecConfig::default();
    let mgr = loaded();
    assert!(mgr.execute(&churn(0)).0.is_committed());
    let base = mgr.pin();
    let (mut left, mut right) = (Version::clone(&base), Version::clone(&base));
    for step in 1..6 {
        for (fork, i) in [(&mut left, step), (&mut right, 100 + step)] {
            let (deltas, _) = fork.run(&churn(i), config).expect("runs");
            fork.apply(deltas, config).expect("folds");
        }
        assert_views_fresh(&left, &format!("on the left fork, step {step}"));
        assert_views_fresh(&right, &format!("on the right fork, step {step}"));
    }
    assert_views_fresh(&base, "on the forked version");
    let left_rel = left.database().relation("orders").expect("rel");
    let right_rel = right.database().relation("orders").expect("rel");
    assert_ne!(left_rel, right_rel, "the forks took different deltas");
}

/// (d) A reader pinned before a commit keeps reading the contents it
/// pinned, while the commit's refresh edits the shared plan.
#[test]
fn a_pinned_reader_keeps_the_old_view_contents() {
    let mgr = loaded();
    assert!(mgr.execute(&churn(0)).0.is_committed());
    let pinned = mgr.pin();
    let copies: Vec<Relation> = (pinned.views().iter())
        .map(|v| v.data().as_ref().clone())
        .collect();
    for i in 1..4 {
        assert!(mgr.execute(&churn(i)).0.is_committed());
    }
    for (view, copy) in pinned.views().iter().zip(&copies) {
        assert_eq!(view.data().as_ref(), copy, "`{}` changed", view.name());
    }
    assert_views_fresh(&pinned, "on the pinned version");
    let newest = mgr.pin();
    assert_views_fresh(&newest, "on the newest version");
    let joined = |v: &Version| v.views().get("joined").expect("view").data().clone();
    assert_ne!(
        joined(&pinned),
        joined(&newest),
        "the commits changed the join"
    );
}
