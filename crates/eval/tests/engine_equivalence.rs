//! Engine equivalence: the physical engine — the morsel-driven pipelines,
//! at any worker count — and the reference evaluator implement the *same*
//! algebra.
//!
//! Random databases (with heavy duplication, the regime bag semantics is
//! about) and random well-typed expression trees are generated; every
//! worker count must produce pointwise-equal relations — or fail with the
//! same error (at several workers, which race to report first, with *an*
//! error).

use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::{eval, Engine};
use mera_expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use proptest::prelude::*;

/// The physical engine with default options (one worker, full batches).
fn execute(e: &RelExpr, db: &Database) -> CoreResult<Relation> {
    Engine::physical().run(e, db)
}

/// r: (int, str) with multiplicities up to 4.
fn rel_r() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(((0i64..5), (0u8..3), (1u64..5)), 0..8).prop_map(|rows| {
        let schema = Arc::new(Schema::named(&[
            ("a", DataType::Int),
            ("tag", DataType::Str),
        ]));
        let tags = ["x", "y", "z"];
        Relation::from_counted(
            schema,
            rows.into_iter()
                .map(|(a, t, m)| (tuple![a, tags[t as usize]], m)),
        )
        .expect("well-typed by construction")
    })
}

/// s: (int, int).
fn rel_s() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(((0i64..5), (0i64..50), (1u64..4)), 0..6).prop_map(|rows| {
        let schema = Arc::new(Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]));
        Relation::from_counted(schema, rows.into_iter().map(|(k, v, m)| (tuple![k, v], m)))
            .expect("well-typed by construction")
    })
}

/// m: (bool, real, money) — the mixed-type relation that exercises the
/// boxed `Val` column path (the columnar layout unboxes only Int and Str).
/// Multiplicities are either small or enormous (`1 << 40`): two enormous
/// rows meeting in a product overflow `u64` multiplicity arithmetic, so
/// every engine must surface the overflow, and difference/intersection
/// shapes drive merged counts through zero.
fn rel_m() -> impl Strategy<Value = Relation> {
    let mult = (0u64..5).prop_map(|i| if i == 0 { 1u64 << 40 } else { i });
    proptest::collection::vec((any::<bool>(), (0i64..4), (-2i64..3), mult), 0..6).prop_map(|rows| {
        let schema = Arc::new(Schema::named(&[
            ("flag", DataType::Bool),
            ("x", DataType::Real),
            ("amt", DataType::Money),
        ]));
        Relation::from_counted(
            schema,
            rows.into_iter().map(|(b, x, c, m)| {
                let t = Tuple::new(vec![
                    Value::Bool(b),
                    Value::real(x as f64 * 0.5).expect("finite"),
                    Value::Money(Money(c * 25)),
                ]);
                (t, m)
            }),
        )
        .expect("well-typed by construction")
    })
}

/// A database with relations r, s, and the mixed-type m.
fn db_strategy() -> impl Strategy<Value = Database> {
    (rel_r(), rel_s(), rel_m()).prop_map(|(r, s, m)| {
        let schema = DatabaseSchema::new()
            .with(
                "r",
                Schema::named(&[("a", DataType::Int), ("tag", DataType::Str)]),
            )
            .expect("fresh schema")
            .with(
                "s",
                Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
            )
            .expect("fresh schema")
            .with(
                "m",
                Schema::named(&[
                    ("flag", DataType::Bool),
                    ("x", DataType::Real),
                    ("amt", DataType::Money),
                ]),
            )
            .expect("fresh schema");
        let mut db = Database::new(schema);
        db.replace("r", r).expect("schema matches");
        db.replace("s", s).expect("schema matches");
        db.replace("m", m).expect("schema matches");
        db
    })
}

/// Random predicates over r's schema (int attr %1, str attr %2).
fn pred_r() -> impl Strategy<Value = ScalarExpr> {
    prop_oneof![
        (0i64..5).prop_map(|c| ScalarExpr::attr(1).eq(ScalarExpr::int(c))),
        (0i64..5).prop_map(|c| ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::int(c))),
        Just(ScalarExpr::attr(2).eq(ScalarExpr::str("x"))),
        (0i64..5).prop_map(|c| {
            ScalarExpr::attr(1)
                .cmp(CmpOp::Ge, ScalarExpr::int(c))
                .and(ScalarExpr::attr(2).eq(ScalarExpr::str("y")).not())
        }),
        Just(ScalarExpr::bool(true)),
        Just(ScalarExpr::bool(false)),
    ]
}

/// Random well-typed expressions over schema (int, str) — closed under the
/// r-schema so unary operators compose freely.
fn expr_r(depth: u32) -> BoxedStrategy<RelExpr> {
    let leaf = Just(RelExpr::scan("r")).boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = expr_r(depth - 1);
    prop_oneof![
        inner
            .clone()
            .prop_flat_map(|e| { pred_r().prop_map(move |p| e.clone().select(p)) }),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
        inner.clone().prop_map(|e| e.distinct()),
        // schema-preserving extended projection keeps the tree closed
        inner.prop_map(|e| {
            e.ext_project(vec![
                ScalarExpr::attr(1).mul(ScalarExpr::int(2)),
                ScalarExpr::attr(2),
            ])
        }),
        leaf,
    ]
    .boxed()
}

/// Terminal shapes applied on top: projections, joins, group-bys.
fn full_expr() -> impl Strategy<Value = RelExpr> {
    let base = expr_r(3);
    prop_oneof![
        base.clone(),
        base.clone().prop_map(|e| e.project(&[1])),
        base.clone().prop_map(|e| e.project(&[2, 1, 2])),
        base.clone().prop_map(|e| e.join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3))
        )),
        base.clone().prop_map(|e| e.product(RelExpr::scan("s"))),
        base.clone().prop_map(|e| {
            e.join(
                RelExpr::scan("s"),
                ScalarExpr::attr(1).cmp(CmpOp::Le, ScalarExpr::attr(4)),
            )
        }),
        base.clone()
            .prop_map(|e| e.group_by(&[2], Aggregate::Cnt, 1)),
        base.clone()
            .prop_map(|e| e.group_by(&[2], Aggregate::Avg, 1)),
        // string-keyed equi-join feeding a string-keyed group-by: the
        // interned-key probe and group paths must agree with the oracle
        base.clone().prop_map(|e| {
            e.join(
                RelExpr::scan("r"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            )
            .group_by(&[2], Aggregate::Min, 3)
        }),
        base.clone()
            .prop_map(|e| e.group_by(&[], Aggregate::Sum, 1)),
        base.prop_map(|e| e.group_by(&[], Aggregate::Max, 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn physical_engine_agrees_with_reference(db in db_strategy(), e in full_expr()) {
        let expected = eval(&e, &db);
        let actual = execute(&e, &db);
        match (expected, actual) {
            (Ok(want), Ok(got)) => prop_assert_eq!(got, want, "plan: {}", e),
            (Err(we), Err(ge)) => prop_assert_eq!(we, ge, "errors differ for plan: {}", e),
            (want, got) => prop_assert!(
                false,
                "one engine failed for plan {}: reference={:?} physical={:?}",
                e, want, got
            ),
        }
    }

    /// Relation-level metamorphic check: evaluating `E u+ E` doubles every
    /// multiplicity of `E` — across arbitrary generated plans.
    #[test]
    fn self_union_doubles(db in db_strategy(), e in expr_r(2)) {
        if let Ok(single) = eval(&e, &db) {
            let doubled = execute(&e.clone().union(e.clone()), &db).expect("union of valid plans");
            for (t, m) in single.iter() {
                prop_assert_eq!(doubled.multiplicity(t), 2 * m);
            }
            prop_assert_eq!(doubled.len(), 2 * single.len());
        }
    }

    /// Batch-size invariance: the batched engine computes the same
    /// multi-set whether it streams one row at a time, odd mid-size
    /// chunks, or the default 1024-row batches.
    #[test]
    fn batch_size_never_changes_results(db in db_strategy(), e in full_expr()) {
        if let Ok(want) = eval(&e, &db) {
            for batch_size in [1usize, 2, 7, 1024] {
                let got = Engine::physical()
                    .with_batch_size(batch_size)
                    .run(&e, &db)
                    .expect("valid plan evaluates at any batch size");
                prop_assert_eq!(
                    got, want.clone(),
                    "batch_size={} differs on plan: {}", batch_size, e
                );
            }
        }
    }

    /// `E − E` is always empty; `E ∩ E = E`; `δE ⊑ E`.
    #[test]
    fn self_identities(db in db_strategy(), e in expr_r(2)) {
        if eval(&e, &db).is_ok() {
            let minus = execute(&e.clone().difference(e.clone()), &db).expect("valid");
            prop_assert!(minus.is_empty());
            let inter = execute(&e.clone().intersect(e.clone()), &db).expect("valid");
            let orig = eval(&e, &db).expect("checked above");
            prop_assert_eq!(&inter, &orig);
            let dist = execute(&e.clone().distinct(), &db).expect("valid");
            prop_assert!(dist.is_submultiset(&orig).expect("same schema"));
        }
    }
}

/// Plans over the mixed-type relation m: selections on the bool/real
/// columns, products and self-joins that multiply the `1 << 40`
/// multiplicities into overflow, differences that cancel counts to zero,
/// and money aggregates. All of these run through the boxed `Val` columns.
fn expr_m() -> impl Strategy<Value = RelExpr> {
    let m = || RelExpr::scan("m");
    prop_oneof![
        Just(m().select(ScalarExpr::attr(1).eq(ScalarExpr::bool(true)))),
        Just(m().select(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::real(1.0)))),
        // two 1<<40 rows pairing up overflows u64 multiplicity arithmetic:
        // every engine must report the overflow, not wrap
        Just(m().product(m())),
        Just(m().join(m(), ScalarExpr::attr(1).eq(ScalarExpr::attr(4)))),
        // E − E and E − σE drive merged multiplicities to (or toward) zero
        Just(m().difference(m())),
        Just(m().difference(m().select(ScalarExpr::attr(1).eq(ScalarExpr::bool(false))))),
        Just(m().intersect(m())),
        Just(m().union(m()).distinct()),
        Just(m().group_by(&[1], Aggregate::Cnt, 2)),
        Just(m().group_by(&[1], Aggregate::Sum, 3)),
        Just(m().union(m()).group_by(&[3], Aggregate::Max, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Mixed-type differential test: bool/real/money columns (the boxed
    /// `Val` column representation), zero-multiplicity results from
    /// differences, and `1 << 40` multiplicities whose products overflow —
    /// every worker count agrees with the reference, or all fail.
    #[test]
    fn mixed_type_engines_agree(db in db_strategy(), e in expr_m()) {
        let expected = eval(&e, &db);
        for partitions in [1usize, 2, 8] {
            let got = Engine::physical().with_partitions(partitions).run(&e, &db);
            match (&expected, got) {
                (Ok(want), Ok(got)) => prop_assert_eq!(
                    &got, want,
                    "physical differs (partitions={}) on plan: {}",
                    partitions, e
                ),
                (Err(_), Err(_)) => {}
                (want, got) => prop_assert!(
                    false,
                    "physical disagrees about failure (partitions={}) on plan {}: reference={:?} engine={:?}",
                    partitions, e, want, got
                ),
            }
        }
    }

    /// Worker-count differential test: the pipelines agree with the
    /// reference across worker counts and batch/morsel sizes — including the plans hash partitioning cannot
    /// decompose (δ, empty-key γ, −, ∩, θ-joins).
    ///
    /// On plans whose evaluation errors (partial aggregates, arithmetic),
    /// every schedule must fail too; parallel workers race, so only *that*
    /// they error is required, not which error wins.
    #[test]
    fn all_engines_agree_across_partitions(db in db_strategy(), e in full_expr()) {
        let expected = eval(&e, &db);
        for partitions in [1usize, 2, 8] {
            for batch_size in [1usize, 7, 1024] {
                let got = Engine::physical()
                    .with_partitions(partitions)
                    .with_batch_size(batch_size)
                    .run(&e, &db);
                match (&expected, got) {
                    (Ok(want), Ok(got)) => prop_assert_eq!(
                        &got, want,
                        "physical differs (partitions={}, batch={}) on plan: {}",
                        partitions, batch_size, e
                    ),
                    (Err(_), Err(_)) => {}
                    (want, got) => prop_assert!(
                        false,
                        "physical disagrees about failure (partitions={}, batch={}) on plan {}: reference={:?} engine={:?}",
                        partitions, batch_size, e, want, got
                    ),
                }
            }
        }
    }
}
