//! Differential property test for incremental view maintenance.
//!
//! Random view definitions — closed, well-typed trees over σ, π, π̄, δ,
//! ⊎, −, ∩, ×, equi-joins and γ with and without keys, plus a keyed γ of
//! any aggregate at the root — are materialized over two base relations, then hit with random insert/delete workloads
//! committed one transaction at a time. After **every** commit, the
//! incrementally refreshed view must equal a from-scratch recomputation of
//! the defining expression by the reference evaluator (the executable form
//! of the paper's definitions), and the refresh must not have fallen back
//! to a full recompute — a fallback also yields the right contents, so
//! only the counter shows that the incremental path did the work.
//!
//! The workload replays under both engines at 1 and 3 workers; the engine
//! seeds maintenance state and evaluates the recompute fallback.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use mera_txn::{
    Ddl, DdlError, EngineKind, ExecConfig, ExecOptions, MvccManager, Outcome, Program, Statement,
};
use proptest::prelude::*;

fn base_schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "r",
            Schema::named(&[("a", DataType::Int), ("b", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "s",
            Schema::named(&[("c", DataType::Int), ("d", DataType::Int)]),
        )
        .expect("fresh")
}

/// Random predicates over a two-int-column schema.
fn pred() -> impl Strategy<Value = ScalarExpr> {
    prop_oneof![
        (0i64..4).prop_map(|c| ScalarExpr::attr(1).eq(ScalarExpr::int(c))),
        (0i64..10).prop_map(|c| ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(c))),
        (0i64..10).prop_map(|c| ScalarExpr::attr(2).cmp(CmpOp::Ge, ScalarExpr::int(c))),
        (0i64..4, 0i64..10).prop_map(|(a, b)| {
            ScalarExpr::attr(1)
                .eq(ScalarExpr::int(a))
                .and(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(b)))
        }),
        Just(ScalarExpr::bool(true)),
    ]
}

/// The aggregates whose value over an int attribute is an int, so a
/// keyed γ of them stays inside the (int, int) schema.
fn int_agg() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        Just(Aggregate::Cnt),
        Just(Aggregate::Sum),
        Just(Aggregate::Min),
        Just(Aggregate::Max),
    ]
}

/// Every aggregate. A keyed group is never empty, so the partial ones
/// are total there. CNT, SUM and AVG keep an exact count and sum per
/// group; the others keep the group's value bag.
fn agg() -> impl Strategy<Value = Aggregate> {
    prop_oneof![
        int_agg(),
        Just(Aggregate::Avg),
        Just(Aggregate::StdDev),
        Just(Aggregate::Median),
    ]
}

/// A view definition: a tree of `view_expr`, or a keyed γ of any
/// aggregate over a shallower one. AVG, STDDEV and MEDIAN have a real
/// value, so they aggregate only at the root, where no operator has to
/// compose with their (int, real) output.
fn view_def() -> impl Strategy<Value = RelExpr> {
    prop_oneof![
        view_expr(3),
        (view_expr(2), agg()).prop_map(|(e, f)| e.group_by(&[1], f, 2)),
    ]
}

/// Random view definitions: well-typed trees closed over the two-column
/// (int, int) schema, so every operator composes with every other.
/// Whole-relation γ is CNT or SUM, whose value over an empty input is
/// defined, so every generated definition is total and view creation
/// never rejects.
fn view_expr(depth: u32) -> BoxedStrategy<RelExpr> {
    let leaf = prop_oneof![Just(RelExpr::scan("r")), Just(RelExpr::scan("s"))].boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = view_expr(depth - 1);
    prop_oneof![
        (inner.clone(), pred()).prop_map(|(e, p)| e.select(p)),
        inner.clone().prop_map(|e| e.project(&[2, 1])),
        inner.clone().prop_map(|e| e.distinct()),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| {
            a.join(b, ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
                .project(&[1, 4])
        }),
        // an equi key repeating a left attribute: one pair is hashed,
        // the other only checked
        (inner.clone(), inner.clone()).prop_map(|(a, b)| {
            let p = ScalarExpr::attr(1)
                .eq(ScalarExpr::attr(3))
                .and(ScalarExpr::attr(1).eq(ScalarExpr::attr(4)));
            a.join(b, p).project(&[1, 4])
        }),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.product(b).project(&[1, 4])),
        inner.clone().prop_map(|e| {
            e.ext_project(vec![
                ScalarExpr::attr(1),
                ScalarExpr::attr(1).add(ScalarExpr::attr(2)),
            ])
        }),
        (inner.clone(), int_agg()).prop_map(|(e, f)| e.group_by(&[1], f, 2)),
        (
            inner,
            prop_oneof![Just(Aggregate::Cnt), Just(Aggregate::Sum)]
        )
            .prop_map(|(e, f)| {
                e.group_by(&[], f, 2)
                    .ext_project(vec![ScalarExpr::attr(1), ScalarExpr::attr(1)])
            }),
        leaf,
    ]
    .boxed()
}

/// One workload step against a base relation.
#[derive(Debug, Clone)]
enum WOp {
    /// Insert literal rows (with multiplicities) into `r` or `s`.
    Insert(bool, Vec<(i64, i64, u64)>),
    /// Delete by predicate from `r` or `s`.
    Delete(bool, u8, i64),
}

fn wop() -> impl Strategy<Value = WOp> {
    prop_oneof![
        (
            any::<bool>(),
            proptest::collection::vec(((0i64..4), (0i64..10), (1u64..3)), 1..5)
        )
            .prop_map(|(into_r, rows)| WOp::Insert(into_r, rows)),
        (any::<bool>(), 0u8..3, (0i64..10))
            .prop_map(|(from_r, shape, c)| WOp::Delete(from_r, shape, c)),
    ]
}

fn apply(mgr: &MvccManager, op: &WOp) {
    let (name, stmt) = match op {
        WOp::Insert(into_r, rows) => {
            let name = if *into_r { "r" } else { "s" };
            let schema = mgr
                .pin()
                .database()
                .relation(name)
                .expect("base relation")
                .schema()
                .clone();
            let rel = Relation::from_counted(
                Arc::clone(&schema),
                rows.iter().map(|(a, b, m)| (tuple![*a, *b], *m)),
            )
            .expect("well-typed rows");
            (name, Statement::insert(name, RelExpr::values(rel)))
        }
        WOp::Delete(from_r, shape, c) => {
            let name = if *from_r { "r" } else { "s" };
            let p = match shape {
                0 => ScalarExpr::attr(1).eq(ScalarExpr::int(*c % 4)),
                1 => ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(*c)),
                _ => ScalarExpr::attr(2).cmp(CmpOp::Ge, ScalarExpr::int(*c)),
            };
            (name, Statement::delete(name, RelExpr::scan(name).select(p)))
        }
    };
    let (outcome, _) = mgr.execute(&Program::single(stmt));
    assert!(
        matches!(outcome, Outcome::Committed(_)),
        "workload DML on {name} must commit"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// refresh == recompute with no fallback, after every commit, under
    /// both engines at 1 and 3 workers.
    #[test]
    fn incremental_refresh_equals_recompute(
        expr in view_def(),
        ops in proptest::collection::vec(wop(), 1..7),
    ) {
        for engine in [EngineKind::Physical, EngineKind::Reference] {
            for partitions in [1usize, 3] {
                let config = ExecConfig {
                    engine,
                    options: ExecOptions::with_partitions(partitions),
                    ..Default::default()
                };
                let mgr = MvccManager::with_config(base_schema(), config);
                let view = Ddl::View { name: "v".to_owned(), expr: expr.clone() };
                mgr.ddl(&view, || Ok::<(), DdlError>(()))
                    .unwrap_or_else(|e| panic!("generated views are total: {e}\nplan: {expr}"));
                for op in &ops {
                    apply(&mgr, op);
                    let version = mgr.pin();
                    let view = version.views().get("v").expect("view exists");
                    let recomputed = mera_eval::eval(&expr, version.database())
                        .expect("total definitions recompute");
                    prop_assert_eq!(
                        view.data().as_ref(), &recomputed,
                        "{:?}/p{} diverged after {:?} (workload {:?}) on view: {}",
                        engine, partitions, op, ops, expr
                    );
                    prop_assert_eq!(
                        view.refresh_stats().1, 0,
                        "{:?}/p{} fell back after {:?} (workload {:?}) on view: {}",
                        engine, partitions, op, ops, expr
                    );
                }
            }
        }
    }
}
