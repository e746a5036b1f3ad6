//! Soundness of the static analyzer's acceptance: a plan that
//! `mera-analyze` accepts (no error-severity diagnostics) must never fail
//! with a *static* error class — unknown relation/attribute, out-of-range
//! index, schema or type mismatch — in **any** engine configuration.
//!
//! Runtime-only partial behaviour (`AVG` over an empty group, division by
//! zero, overflow) is allowed: the analyzer warns about what *may* fail
//! and rejects only what *must* fail.
//!
//! The converse holds too: the analyzer reports a typing error (`E00xx`)
//! exactly when `RelExpr::schema` fails, and an accepted plan's analyzed
//! schema is the one `schema` infers — both read the same typing rules.

use std::sync::Arc;

use mera::analyze::{analyze_plan, Card, CardEnv, Severity};
use mera::core::prelude::*;
use mera::eval::{Engine, IndexSet};
use mera::expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use proptest::prelude::*;

fn build_db(rows: Vec<(i64, i64, u64)>) -> Database {
    let schema = DatabaseSchema::new()
        .with(
            "r",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "s",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh");
    let mut db = Database::new(schema);
    let rs = Arc::clone(db.schema().get("r").expect("declared"));
    db.replace(
        "r",
        Relation::from_counted(rs, rows.iter().map(|&(k, v, m)| (tuple![k, v], m))).expect("typed"),
    )
    .expect("replace");
    let ss = Arc::clone(db.schema().get("s").expect("declared"));
    db.replace(
        "s",
        Relation::from_counted(
            ss,
            rows.iter()
                .rev()
                .map(|&(k, v, m)| (tuple![v % 4, k], m.min(3))),
        )
        .expect("typed"),
    )
    .expect("replace");
    db
}

/// Builds a plan that is *sometimes* ill-formed: `attr`/`key` range over
/// values outside the valid `1..=2` attribute indexes, `rel` sometimes
/// names a relation that does not exist, and some shapes mix domains.
/// The analyzer's verdict — not this generator — decides which plans the
/// engines are asked to run.
fn build_expr(shape: u8, attr: usize, key: usize, rel: &str, c: i64) -> RelExpr {
    let r = RelExpr::scan("r");
    let s = RelExpr::scan("s");
    let x = RelExpr::scan(rel);
    match shape % 10 {
        0 => x.select(ScalarExpr::attr(attr).eq(ScalarExpr::int(c))),
        1 => r.join(x, ScalarExpr::attr(attr).eq(ScalarExpr::attr(key))),
        2 => x.project(&[attr, key]),
        3 => r.union(x.project(&[attr])),
        4 => x.group_by(&[key], Aggregate::Avg, attr),
        5 => x
            .select(ScalarExpr::bool(false))
            .group_by(&[], Aggregate::Min, attr),
        6 => x.ext_project(vec![
            ScalarExpr::attr(attr).add(ScalarExpr::attr(key)),
            ScalarExpr::attr(attr).mul(ScalarExpr::str("oops")),
        ]),
        7 => x.difference(s).distinct(),
        8 => x.project(&[attr, key]).closure(),
        _ => r
            .product(x)
            .select(ScalarExpr::attr(attr).cmp(CmpOp::Ge, ScalarExpr::int(c)))
            .group_by(&[key], Aggregate::Cnt, 1),
    }
}

/// Error classes the analyzer promises to have ruled out on acceptance.
fn is_static_class(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::UnknownRelation(_)
            | CoreError::UnknownAttribute(_)
            | CoreError::AttrIndexOutOfRange { .. }
            | CoreError::SchemaMismatch { .. }
            | CoreError::TupleSchemaMismatch { .. }
            | CoreError::TypeError(_)
            | CoreError::DuplicateAttrInList(_)
            | CoreError::DuplicateRelation(_)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn accepted_plans_never_hit_static_errors(
        rows in proptest::collection::vec(((0i64..5), (0i64..8), (1u64..4)), 0..8),
        shape in 0u8..10,
        // 1-based; the builders reject 0 by construction, and 3..5 are out
        // of range for the arity-2 test relations
        attr in 1usize..5,
        key in 1usize..5,
        scan_sel in 0u8..10,
        c in 0i64..5,
    ) {
        let db = build_db(rows);
        // mostly-known scans so acceptance is the common case
        let rel = if scan_sel < 8 { "s" } else { "nosuch" };
        let e = build_expr(shape, attr, key, rel, c);

        let cards: CardEnv = db
            .relation_names()
            .filter_map(|n| {
                let r = db.relation(n).ok()?;
                Some((n.to_owned(), Card::of_relation(r)))
            })
            .collect();
        let analysis = analyze_plan(&e, db.schema(), &cards);
        if !analysis.is_accepted() {
            // rejected plans are out of scope for the property (the
            // companion test below pins that rejection is not vacuous)
            return Ok(());
        }

        // an accepted plan types: schema inference must have succeeded
        prop_assert!(analysis.schema.is_some(), "accepted without a schema: {}", e);

        let mut indexes = IndexSet::new();
        indexes.create(&db, "r", &[1]).expect("index builds");
        let engines = [
            Engine::reference(),
            Engine::physical(),
            Engine::physical().with_partitions(3),
            Engine::indexed(indexes.clone()),
            Engine::indexed(indexes).with_partitions(3),
        ];
        for engine in engines {
            if let Err(err) = engine.run(&e, &db) {
                prop_assert!(
                    !is_static_class(&err),
                    "analyzer accepted {} but an engine failed statically: {}",
                    e,
                    err
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn typing_errors_are_exactly_schema_failures(
        shape in 0u8..10,
        attr in 1usize..5,
        key in 1usize..5,
        scan_sel in 0u8..10,
        c in 0i64..5,
        empty_r in any::<bool>(),
    ) {
        let db = build_db(if empty_r { vec![] } else { vec![(1, 2, 1)] });
        let rel = if scan_sel < 8 { "s" } else { "nosuch" };
        let e = build_expr(shape, attr, key, rel, c);
        let cards: CardEnv = db
            .relation_names()
            .filter_map(|n| Some((n.to_owned(), Card::of_relation(db.relation(n).ok()?))))
            .collect();
        let analysis = analyze_plan(&e, db.schema(), &cards);
        let typing_errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error && d.code.as_str().starts_with("E00"))
            .collect();
        let inferred = e.schema(db.schema());
        prop_assert_eq!(
            typing_errors.is_empty(),
            inferred.is_ok(),
            "{}: analyzer {:?}, schema() {:?}",
            e,
            typing_errors,
            inferred
        );
        if analysis.is_accepted() {
            prop_assert_eq!(analysis.schema, Some(inferred.expect("accepted plans type")));
        }
    }
}

#[test]
fn rejection_is_not_vacuous() {
    // sanity for the property above: the generator does produce plans the
    // analyzer rejects, and plans it accepts, for fixed representative
    // parameters
    let db = build_db(vec![(1, 2, 1)]);
    let cards = CardEnv::new();
    let bad = build_expr(0, 4, 1, "s", 0); // %4 out of range
    assert!(!analyze_plan(&bad, db.schema(), &cards).is_accepted());
    let good = build_expr(0, 1, 1, "s", 0);
    assert!(analyze_plan(&good, db.schema(), &cards).is_accepted());
}
