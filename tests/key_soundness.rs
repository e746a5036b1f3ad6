//! Soundness differential for property-licensed rewrites.
//!
//! The property pass (keys, functional dependencies, duplicate-freeness)
//! licenses rewrites that are *only* valid when its inferences are sound:
//! δ-elimination over provably duplicate-free input, keyed-γ
//! simplification. This test generates random plans over relations with
//! random declared keys — instances are forced to *satisfy* the declared
//! keys, exactly as the enforcement path guarantees for live data — and
//! checks that the key-aware optimizer's output computes the same
//! multi-set as the canonical plan on the reference evaluator and on the
//! physical engine at worker counts {1, 3}.
//!
//! Alongside the random sweep, a pinned regression holds the line on the
//! paper's Theorem 3.3: δ does **not** distribute over ⊎ except for
//! disjoint operands, so a union of two keyed (hence duplicate-free)
//! relations is *not* duplicate-free and the δ above it must survive
//! optimization.

use std::collections::BTreeSet;
use std::sync::Arc;

use mera::analyze::KeyEnv;
use mera::core::prelude::*;
use mera::eval::Engine;
use mera::expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use mera::opt::Optimizer;
use proptest::prelude::*;

/// Attribute sets a relation may declare as its key (1-based, over the
/// two-column schemas below). Index 0 means "no key".
const KEY_CHOICES: [&[usize]; 4] = [&[], &[1], &[2], &[1, 2]];

/// Builds a two-relation database where each relation satisfies its
/// chosen key: rows colliding on the key columns keep only the first,
/// and keyed relations get multiplicity 1 (the bag-model key bound).
fn build_db(rows: &[(i64, i64, u64)], key_r: &[usize], key_s: &[usize]) -> Database {
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
    let r_rows: Vec<(Tuple, u64)> = rows.iter().map(|&(k, v, m)| (tuple![k, v], m)).collect();
    let s_rows: Vec<(Tuple, u64)> = rows
        .iter()
        .rev()
        .map(|&(k, v, m)| (tuple![v % 4, k], m.min(3)))
        .collect();
    for (name, raw, key) in [("r", r_rows, key_r), ("s", s_rows, key_s)] {
        let rel_schema = Arc::clone(db.schema().get(name).expect("declared"));
        let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
        let counted = raw.into_iter().filter_map(|(t, m)| {
            if key.is_empty() {
                return Some((t, m));
            }
            let point: Vec<Value> = key.iter().map(|&a| t.values()[a - 1].clone()).collect();
            seen.insert(point).then_some((t, 1))
        });
        db.replace(
            name,
            Relation::from_counted(rel_schema, counted).expect("typed"),
        )
        .expect("replace");
    }
    db
}

/// Random plan shapes biased toward the operators the property pass
/// reasons about: δ, γ, joins and unions over the (possibly) keyed scans.
fn build_expr(shape: u8, c: i64) -> RelExpr {
    let r = RelExpr::scan("r");
    let s = RelExpr::scan("s");
    match shape % 10 {
        0 => r.distinct(),
        1 => r
            .select(ScalarExpr::attr(1).eq(ScalarExpr::int(c)))
            .distinct(),
        2 => r.project(&[1]).distinct(),
        3 => r
            .join(s, ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
            .distinct(),
        4 => r.union(s).distinct(),
        5 => r.group_by(&[1], Aggregate::Sum, 2),
        6 => r
            .select(ScalarExpr::attr(2).cmp(CmpOp::Ge, ScalarExpr::int(c)))
            .group_by(&[1, 2], Aggregate::Cnt, 1),
        7 => r.difference(s).distinct(),
        8 => r
            .join(s, ScalarExpr::attr(2).eq(ScalarExpr::attr(3)))
            .project(&[1, 3])
            .distinct()
            .group_by(&[1], Aggregate::Cnt, 2),
        _ => r.intersect(s).distinct(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Optimized ≡ canonical on key-satisfying instances, across engines
    /// and partition counts.
    #[test]
    fn key_licensed_rewrites_preserve_semantics(
        rows in proptest::collection::vec(((0i64..5), (0i64..8), (1u64..4)), 0..10),
        key_r in 0usize..4,
        key_s in 0usize..4,
        shape in 0u8..10,
        c in 0i64..5,
    ) {
        let db = build_db(&rows, KEY_CHOICES[key_r], KEY_CHOICES[key_s]);
        let mut env = KeyEnv::new();
        for (name, key) in [("r", KEY_CHOICES[key_r]), ("s", KEY_CHOICES[key_s])] {
            if !key.is_empty() {
                env.declare(name, key.to_vec());
            }
        }
        let e = build_expr(shape, c);
        let optimized = Optimizer::standard()
            .with_keys(env)
            .optimize(&e, db.schema())
            .expect("optimizes")
            .expr;

        let canonical = Engine::reference().run(&e, &db).expect("canonical evaluates");
        for (engine_name, engine) in [
            ("reference", Engine::reference()),
            ("physical(1)", Engine::physical()),
            ("physical(3)", Engine::physical().with_partitions(3)),
        ] {
            let got = engine.run(&optimized, &db).expect("optimized evaluates");
            prop_assert_eq!(
                &got, &canonical,
                "{} diverges on {} optimized to {}", engine_name, e, optimized
            );
        }
    }
}

/// Theorem 3.3's forbidden direction, pinned: keys on both operands do
/// not make their union duplicate-free, so `δ(r ⊎ s)` must keep its δ —
/// and the engines must still report the overlap collapsed to 1.
#[test]
fn distinct_over_union_of_keyed_relations_is_not_eliminated() {
    // r and s overlap at (1, 1): the union holds it with multiplicity 2
    let rows = [(1, 1, 1), (2, 3, 1)];
    let db = build_db(&rows, &[1], &[1, 2]);
    // make the overlap real regardless of the s-side derivation
    let mut db = db;
    let s_schema = Arc::clone(db.schema().get("s").expect("declared"));
    db.replace(
        "s",
        Relation::from_counted(s_schema, [(tuple![1i64, 1i64], 1), (tuple![9i64, 9i64], 1)])
            .expect("typed"),
    )
    .expect("replace");

    let mut env = KeyEnv::new();
    env.declare("r", vec![1]);
    env.declare("s", vec![1]);
    let e = RelExpr::scan("r").union(RelExpr::scan("s")).distinct();
    let optimized = Optimizer::standard()
        .with_keys(env)
        .optimize(&e, db.schema())
        .expect("optimizes")
        .expr;

    fn has_distinct(e: &RelExpr) -> bool {
        matches!(e, RelExpr::Distinct(_)) || e.children().iter().any(|c| has_distinct(c))
    }
    assert!(
        has_distinct(&optimized),
        "δ over ⊎ of overlapping keyed relations must survive (Theorem 3.3), got {optimized}"
    );

    let result = Engine::reference().run(&optimized, &db).expect("evaluates");
    let overlap = result
        .iter()
        .find(|(t, _)| t.values() == [Value::Int(1), Value::Int(1)])
        .map(|(_, m)| m);
    assert_eq!(overlap, Some(1), "δ must collapse the overlap to 1");
}

/// The licensed direction, for contrast: δ over a *single* keyed scan is
/// eliminated, and the plans still agree.
#[test]
fn distinct_over_single_keyed_scan_is_eliminated() {
    let rows = [(1, 1, 1), (2, 3, 1), (4, 0, 1)];
    let db = build_db(&rows, &[1], &[]);
    let mut env = KeyEnv::new();
    env.declare("r", vec![1]);
    let e = RelExpr::scan("r").distinct();
    let optimized = Optimizer::standard()
        .with_keys(env)
        .optimize(&e, db.schema())
        .expect("optimizes")
        .expr;
    assert!(
        !matches!(optimized, RelExpr::Distinct(_)),
        "keyed scan licenses δ-elimination, got {optimized}"
    );
    assert_eq!(
        Engine::reference().run(&optimized, &db).expect("runs"),
        Engine::reference().run(&e, &db).expect("runs"),
    );
}
