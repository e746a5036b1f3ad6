//! Index-aware execution: point selections over a base relation via a
//! full scan vs a hash-index lookup (the main-memory access path
//! PRISMA/DB relied on).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mera_bench::int_relation;
use mera_core::prelude::*;
use mera_eval::{Engine, IndexSet};
use mera_expr::{RelExpr, ScalarExpr};

fn db(rows: usize) -> Database {
    let schema = DatabaseSchema::new()
        .with(
            "r",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh");
    let mut d = Database::new(schema);
    d.replace("r", int_relation(rows, rows / 10 + 1, 0.0, 41))
        .expect("replace");
    d
}

fn point_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("index/point_lookup");
    for rows in [10_000usize, 100_000, 400_000] {
        let database = db(rows);
        let mut indexes = IndexSet::new();
        indexes.create(&database, "r", &[1]).expect("creates");
        let indexed = Engine::indexed(indexes);
        let q = RelExpr::scan("r").select(ScalarExpr::attr(1).eq(ScalarExpr::int(7)));
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("scan_filter", rows), &q, |b, e| {
            b.iter(|| Engine::physical().run(e, &database).expect("plain"));
        });
        group.bench_with_input(BenchmarkId::new("hash_index", rows), &q, |b, e| {
            b.iter(|| indexed.run(e, &database).expect("indexed"));
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
    targets = point_lookup
}
criterion_main!(benches);
