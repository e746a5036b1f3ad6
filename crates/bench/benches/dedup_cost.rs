//! E7 — the introduction's cost claim: "the high costs of duplicate
//! removal in database operations is often prohibitive for the use of a
//! data model that does not [allow] duplicates."
//!
//! The bag engine evaluates a duplicate-producing pipeline as-is; the
//! set-semantics engine must deduplicate after the scan, the union and
//! the projection. Sweeps input size × duplication factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mera_bench::experiments::{e7_query, two_column_db};
use mera_eval::Engine;
use mera_setalg::eval_set;

fn dedup_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("dedup_cost");
    for rows in [10_000usize, 40_000] {
        for dup in [1usize, 10, 100] {
            let distinct = (rows / dup).max(1);
            let db = two_column_db(rows, distinct, 0xE7);
            let q = e7_query();
            group.throughput(Throughput::Elements(rows as u64));
            group.bench_with_input(
                BenchmarkId::new("bag_engine", format!("{rows}x{dup}")),
                &q,
                |b, e| b.iter(|| Engine::physical().run(e, &db).expect("bag executes")),
            );
            group.bench_with_input(
                BenchmarkId::new("set_engine", format!("{rows}x{dup}")),
                &q,
                |b, e| b.iter(|| eval_set(e, &db).expect("set executes")),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = dedup_cost
}
criterion_main!(benches);
