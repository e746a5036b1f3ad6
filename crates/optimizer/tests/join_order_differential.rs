//! Join-reorder differential: the cost-based plan must produce the same
//! multi-set as the canonical (unoptimized, reference-evaluated)
//! expression on every execution engine — the physical engine at worker
//! counts {1, 3}, with and without index access paths and cost-model join
//! hints attached.
//!
//! This is the end-to-end guarantee behind Theorem 3.3's reorder licence:
//! whatever order the statistics steer the planner into, and whatever
//! access path executes it, the bag that comes out is the one the paper's
//! definitions prescribe.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::{eval, Engine, IndexSet};
use mera_expr::{RelExpr, ScalarExpr};
use mera_opt::{choose_access_paths, CatalogStats, Optimizer};
use proptest::prelude::*;

type FactRows = Vec<(i64, i64, i64, u64)>;
type DimRows = Vec<(i64, u8, u64)>;

fn build_db(fact: FactRows, dim_a: DimRows, dim_b: DimRows) -> Database {
    let schema = DatabaseSchema::new()
        .with(
            "fact",
            Schema::named(&[
                ("ka", DataType::Int),
                ("kb", DataType::Int),
                ("m", DataType::Int),
            ]),
        )
        .expect("fresh")
        .with(
            "dim_a",
            Schema::named(&[("id", DataType::Int), ("tag", DataType::Str)]),
        )
        .expect("fresh")
        .with(
            "dim_b",
            Schema::named(&[("id", DataType::Int), ("tag", DataType::Str)]),
        )
        .expect("fresh");
    let mut db = Database::new(schema);
    let tags = ["x", "y", "z"];
    let fact_schema = Arc::clone(db.schema().get("fact").expect("declared"));
    db.replace(
        "fact",
        Relation::from_counted(
            fact_schema,
            fact.into_iter().map(|(a, b, m, n)| (tuple![a, b, m], n)),
        )
        .expect("typed"),
    )
    .expect("replace");
    for (name, rows) in [("dim_a", dim_a), ("dim_b", dim_b)] {
        let schema = Arc::clone(db.schema().get(name).expect("declared"));
        db.replace(
            name,
            Relation::from_counted(
                schema,
                rows.into_iter()
                    .map(|(id, t, m)| (tuple![id, tags[(t % 3) as usize]], m)),
            )
            .expect("typed"),
        )
        .expect("replace");
    }
    db
}

/// The join shapes the reorderer works on: chains and stars over the
/// fact table and two dimensions, optionally restricted first.
fn build_join(shape: u8, restrict: bool, c: i64) -> RelExpr {
    let fact = if restrict {
        RelExpr::scan("fact")
            .select(ScalarExpr::attr(3).cmp(mera_expr::CmpOp::Gt, ScalarExpr::int(c)))
    } else {
        RelExpr::scan("fact")
    };
    match shape % 3 {
        // star, fact first: (fact ⋈ dim_a) ⋈ dim_b
        0 => fact
            .join(
                RelExpr::scan("dim_a"),
                ScalarExpr::attr(1).eq(ScalarExpr::attr(4)),
            )
            .join(
                RelExpr::scan("dim_b"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(6)),
            ),
        // star, dimension first: (dim_a ⋈ fact) ⋈ dim_b
        1 => RelExpr::scan("dim_a")
            .join(fact, ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
            .join(
                RelExpr::scan("dim_b"),
                ScalarExpr::attr(4).eq(ScalarExpr::attr(6)),
            ),
        // chain: dim_a ⋈ (fact ⋈ dim_b)
        _ => RelExpr::scan("dim_a").join(
            fact.join(
                RelExpr::scan("dim_b"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            ),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cost_based_plans_match_canonical_on_every_engine(
        fact in proptest::collection::vec(((0i64..5), (0i64..5), (0i64..9), (1u64..4)), 0..10),
        dim_a in proptest::collection::vec(((0i64..5), (0u8..3), (1u64..3)), 0..5),
        dim_b in proptest::collection::vec(((0i64..5), (0u8..3), (1u64..3)), 0..5),
        shape in 0u8..3,
        restrict in proptest::bool::ANY,
        c in 0i64..9,
    ) {
        let db = build_db(fact, dim_a, dim_b);
        let e = build_join(shape, restrict, c);
        let canonical = eval(&e, &db).expect("canonical evaluation");

        let stats = Arc::new(CatalogStats::from_database(&db).expect("analyze"));
        let optimized = Optimizer::standard()
            .with_stats(Arc::clone(&stats))
            .optimize(&e, db.schema())
            .expect("optimize")
            .expr;

        // indexes on both dimension keys plus the fact table's first key,
        // hinted by the same cost model the live engine consults
        let mut indexes = IndexSet::new();
        for rel in ["fact", "dim_a", "dim_b"] {
            indexes.create(&db, rel, &[1]).expect("index");
        }
        let hints = choose_access_paths(&optimized, &stats, &indexes.definitions(), db.schema())
            .expect("hints");

        let engines: Vec<(&str, Engine)> = vec![
            ("reference", Engine::reference()),
            ("physical", Engine::physical().with_batch_size(3)),
            ("physical batch=4", Engine::physical().with_batch_size(4)),
            ("physical batch=1024", Engine::physical()),
            ("physical p=3", Engine::physical().with_partitions(3)),
            (
                "physical p=3 batch=3",
                Engine::physical().with_partitions(3).with_batch_size(3),
            ),
            (
                "physical+indexes p=3",
                Engine::physical()
                    .with_partitions(3)
                    .with_indexes(indexes.clone())
                    .with_index_hints(hints.clone()),
            ),
            (
                "physical+indexes",
                Engine::physical()
                    .with_batch_size(3)
                    .with_indexes(indexes)
                    .with_index_hints(hints),
            ),
        ];
        for (label, engine) in engines {
            let got = engine.run(&optimized, &db).expect("optimized evaluation");
            prop_assert_eq!(
                &got, &canonical,
                "engine `{}` diverged\ncanonical: {}\noptimized: {}",
                label, e, optimized
            );
        }
    }
}
