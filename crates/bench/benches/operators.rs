//! E11 — per-operator microbenchmarks: scaling of every algebra operator
//! on the physical engine, over inputs with a realistic duplication
//! profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mera_bench::experiments::two_column_db;
use mera_bench::int_relation;
use mera_core::prelude::*;
use mera_eval::Engine;
use mera_expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};

fn join_db(rows: usize) -> Database {
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
    db.replace("r", int_relation(rows, rows / 8 + 1, 0.5, 11))
        .expect("replace");
    db.replace("s", int_relation(rows / 4 + 1, rows / 8 + 1, 0.5, 12))
        .expect("replace");
    db
}

fn unary_and_set_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators/unary_and_set");
    for rows in [1_000usize, 10_000, 50_000] {
        let db = two_column_db(rows, rows / 10 + 1, 0xB1);
        group.throughput(Throughput::Elements(rows as u64));
        let cases: Vec<(&str, RelExpr)> = vec![
            (
                "select",
                RelExpr::scan("e1").select(
                    ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::int((rows / 20) as i64)),
                ),
            ),
            ("project", RelExpr::scan("e1").project(&[1, 1])),
            ("distinct", RelExpr::scan("e1").distinct()),
            ("union", RelExpr::scan("e1").union(RelExpr::scan("e2"))),
            (
                "difference",
                RelExpr::scan("e1").difference(RelExpr::scan("e2")),
            ),
            (
                "intersect",
                RelExpr::scan("e1").intersect(RelExpr::scan("e2")),
            ),
        ];
        for (name, expr) in cases {
            group.bench_with_input(BenchmarkId::new(name, rows), &expr, |b, e| {
                b.iter(|| Engine::physical().run(e, &db).expect("executes"));
            });
        }
    }
    group.finish();
}

fn joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators/join");
    for rows in [1_000usize, 5_000, 15_000] {
        let db = join_db(rows);
        group.throughput(Throughput::Elements(rows as u64));
        let equi = RelExpr::scan("r").join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        group.bench_with_input(BenchmarkId::new("hash_join", rows), &equi, |b, e| {
            b.iter(|| Engine::physical().run(e, &db).expect("executes"));
        });
        // the same predicate in a non-hashable shape forces a nested loop
        // (engine recognises only top-level attr=attr conjuncts)
        let theta = RelExpr::scan("r").join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1)
                .cmp(CmpOp::Le, ScalarExpr::attr(3))
                .and(ScalarExpr::attr(1).cmp(CmpOp::Ge, ScalarExpr::attr(3))),
        );
        if rows < 5_000 {
            group.bench_with_input(
                BenchmarkId::new("nested_loop_join", rows),
                &theta,
                |b, e| {
                    b.iter(|| Engine::physical().run(e, &db).expect("executes"));
                },
            );
        }
    }
    group.finish();
}

fn aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators/group_by");
    for rows in [1_000usize, 10_000, 50_000] {
        let db = join_db(rows);
        group.throughput(Throughput::Elements(rows as u64));
        for (name, agg) in [
            ("cnt", Aggregate::Cnt),
            ("sum", Aggregate::Sum),
            ("avg", Aggregate::Avg),
            ("min", Aggregate::Min),
        ] {
            let expr = RelExpr::scan("r").group_by(&[1], agg, 2);
            group.bench_with_input(BenchmarkId::new(name, rows), &expr, |b, e| {
                b.iter(|| Engine::physical().run(e, &db).expect("executes"))
            });
        }
    }
    group.finish();
}

/// Batch-size sweep: the same select→join→group-by pipeline at batch
/// sizes from row-at-a-time (1) to the 1024-row default — the
/// experiment behind `DEFAULT_BATCH_SIZE`.
fn batch_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators/batch_size");
    let rows = 20_000usize;
    let db = join_db(rows);
    let expr = RelExpr::scan("r")
        .select(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int((rows / 2) as i64)))
        .join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
        .group_by(&[1], Aggregate::Sum, 4);
    group.throughput(Throughput::Elements(rows as u64));
    for batch_size in [1usize, 16, 64, 256, 1024, 8192] {
        let engine = Engine::physical().with_batch_size(batch_size);
        group.bench_with_input(BenchmarkId::new("pipeline", batch_size), &expr, |b, e| {
            b.iter(|| engine.run(e, &db).expect("executes"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = unary_and_set_ops, joins, aggregation, batch_size_sweep
}
criterion_main!(benches);
