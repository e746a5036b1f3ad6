//! End-to-end tests of the physical engine against the reference
//! evaluator.
//!
//! The planner itself is [`morsel`](crate::morsel)'s compiler, which turns
//! every algebra expression into pipelines at any worker count; the one
//! schema rule it needs beyond [`Schema`](mera_core::prelude::Schema)'s
//! own methods is `mera_expr::ext_project_schema`.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mera_core::prelude::*;
    use mera_expr::ScalarExpr;

    use crate::engine::{Engine, ExecOptions};
    use crate::physical::stats::ExecStats;
    use crate::reference;
    use mera_core::tuple;
    use mera_expr::rel::RelExpr;
    use mera_expr::Aggregate;

    fn db() -> Database {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int, DataType::Str]))
            .unwrap()
            .with("s", Schema::anon(&[DataType::Int, DataType::Int]))
            .unwrap();
        let mut db = Database::new(schema);
        let rs = Arc::clone(db.schema().get("r").unwrap());
        db.replace(
            "r",
            Relation::from_counted(
                rs,
                vec![
                    (tuple![1_i64, "a"], 2),
                    (tuple![2_i64, "b"], 1),
                    (tuple![3_i64, "a"], 3),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let ss = Arc::clone(db.schema().get("s").unwrap());
        db.replace(
            "s",
            Relation::from_counted(
                ss,
                vec![(tuple![1_i64, 10_i64], 1), (tuple![3_i64, 30_i64], 2)],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    /// A grab-bag of plans covering every operator; each must agree with
    /// the reference evaluator.
    fn plans() -> Vec<RelExpr> {
        use mera_expr::CmpOp;
        let r = RelExpr::scan("r");
        let s = RelExpr::scan("s");
        vec![
            r.clone(),
            r.clone().union(r.clone()),
            r.clone()
                .difference(r.clone().select(ScalarExpr::attr(1).eq(ScalarExpr::int(1)))),
            r.clone().intersect(r.clone()),
            r.clone().product(s.clone()),
            r.clone()
                .select(ScalarExpr::attr(2).eq(ScalarExpr::str("a"))),
            r.clone().project(&[2]),
            r.clone()
                .ext_project(vec![ScalarExpr::attr(1).mul(ScalarExpr::int(10))]),
            r.clone()
                .join(s.clone(), ScalarExpr::attr(1).eq(ScalarExpr::attr(3))),
            // non-equi join → loop probe
            r.clone().join(
                s.clone(),
                ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::attr(3)),
            ),
            // equi + residual
            r.clone().join(
                s.clone(),
                ScalarExpr::attr(1)
                    .eq(ScalarExpr::attr(3))
                    .and(ScalarExpr::attr(4).cmp(CmpOp::Gt, ScalarExpr::int(15))),
            ),
            r.clone().distinct(),
            r.clone().group_by(&[2], Aggregate::Cnt, 1),
            r.clone().group_by(&[2], Aggregate::Sum, 1),
            r.clone().group_by(&[], Aggregate::Avg, 1),
            r.clone()
                .union(r)
                .project(&[2])
                .distinct()
                .product(s)
                .select(ScalarExpr::attr(2).eq(ScalarExpr::int(1)))
                .group_by(&[1], Aggregate::Cnt, 1),
        ]
    }

    #[test]
    fn physical_agrees_with_reference_on_all_operators() {
        let db = db();
        for e in plans() {
            let expected = reference::eval(&e, &db).unwrap();
            let actual = Engine::physical().run(&e, &db).unwrap();
            assert_eq!(actual, expected, "plan disagreed for {e}");
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let db = db();
        for e in plans() {
            let expected = reference::eval(&e, &db).unwrap();
            for batch_size in [1, 3, 1024] {
                let opts = ExecOptions {
                    batch_size,
                    partitions: 1,
                };
                let actual = Engine::physical().with_options(opts).run(&e, &db).unwrap();
                assert_eq!(actual, expected, "batch={batch_size} disagreed for {e}");
            }
        }
    }

    #[test]
    fn plan_rejects_invalid_expressions() {
        let db = db();
        let bad = RelExpr::scan("r").union(RelExpr::scan("s"));
        assert!(Engine::physical().run(&bad, &db).is_err());
        assert!(Engine::physical().run(&RelExpr::scan("zzz"), &db).is_err());
        // the instrumented compile rejects them before registering a counter
        let mut stats = ExecStats::new();
        assert!(Engine::physical()
            .run_instrumented(&bad, &db, &mut stats)
            .is_err());
        assert!(stats.rows_out().is_empty());
    }
}
