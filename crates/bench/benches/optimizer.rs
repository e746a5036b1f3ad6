//! E12 — optimizer ablation: execution cost of the Example 3.1+3.2
//! pipeline with the full rule set, with individual rules removed, and
//! with no optimizer at all. Also benchmarks cost-based join reordering
//! on a three-way chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mera_bench::experiments::e12_query;
use mera_bench::{int_relation, scaled_beer_db};
use mera_core::prelude::*;
use mera_eval::Engine;
use mera_expr::{RelExpr, ScalarExpr};
use mera_opt::{reorder_joins, CatalogStats, Optimizer};

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer_ablation");
    let n = 5_000;
    let db = scaled_beer_db(n, n / 20 + 2, 8, n / 4 + 2, 0xE12);
    let q = e12_query();

    let raw = q.clone();
    group.bench_function("no_optimizer", |b| {
        b.iter(|| Engine::physical().run(&raw, &db).expect("executes"));
    });

    let full_plan = Optimizer::standard()
        .optimize(&q, db.schema())
        .expect("optimizes")
        .expr;
    group.bench_function("full_rules", |b| {
        b.iter(|| Engine::physical().run(&full_plan, &db).expect("executes"));
    });

    for rule in Optimizer::standard().rule_names() {
        let plan = Optimizer::standard_without(&[rule])
            .optimize(&q, db.schema())
            .expect("optimizes")
            .expr;
        group.bench_with_input(BenchmarkId::new("dropped", rule), &plan, |b, e| {
            b.iter(|| Engine::physical().run(e, &db).expect("executes"));
        });
    }
    group.finish();
}

fn join_ordering(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_ordering");
    // big ⋈ small ⋈ medium in the worst textual order
    let schema = DatabaseSchema::new()
        .with(
            "big",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "small",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "mid",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh");
    let mut db = Database::new(schema);
    db.replace("big", int_relation(40_000, 4_000, 0.3, 21))
        .expect("replace");
    db.replace("small", int_relation(50, 40, 0.0, 22))
        .expect("replace");
    db.replace("mid", int_relation(4_000, 400, 0.3, 23))
        .expect("replace");

    // (big × mid) ⋈ small — the product first is pathological
    let chain = RelExpr::scan("big")
        .join(
            RelExpr::scan("mid"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
        .join(
            RelExpr::scan("small"),
            ScalarExpr::attr(3).eq(ScalarExpr::attr(5)),
        );
    let stats = CatalogStats::from_database(&db).expect("analyze");
    let reordered = reorder_joins(&chain, &stats, db.schema()).expect("reorders");

    group.sample_size(10);
    group.bench_function("textual_order", |b| {
        b.iter(|| Engine::physical().run(&chain, &db).expect("executes"));
    });
    group.bench_function("cost_based_order", |b| {
        b.iter(|| Engine::physical().run(&reordered, &db).expect("executes"));
    });
    group.bench_function("reorder_latency", |b| {
        b.iter(|| reorder_joins(&chain, &stats, db.schema()).expect("reorders"));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = ablation, join_ordering
}
criterion_main!(benches);
