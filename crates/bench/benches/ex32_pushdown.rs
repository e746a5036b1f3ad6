//! E5 — Example 3.2's projection insertion at scale: the direct
//! aggregation over the full join output vs the plan with
//! `π_(alcperc,country)` inserted (what the optimizer produces
//! automatically), plus the optimizer's own latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mera_bench::experiments::ex32_plans;
use mera_bench::scaled_beer_db;
use mera_eval::Engine;
use mera_opt::Optimizer;

fn pushdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("ex32_pushdown");
    for n_beers in [5_000usize, 20_000, 60_000] {
        let db = scaled_beer_db(n_beers, n_beers / 20 + 2, 8, n_beers / 4 + 2, 0xE5);
        let (direct, reduced) = ex32_plans();
        group.throughput(Throughput::Elements(n_beers as u64));
        group.bench_with_input(BenchmarkId::new("direct", n_beers), &direct, |b, e| {
            b.iter(|| Engine::physical().run(e, &db).expect("executes"));
        });
        group.bench_with_input(
            BenchmarkId::new("projection_inserted", n_beers),
            &reduced,
            |b, e| b.iter(|| Engine::physical().run(e, &db).expect("executes")),
        );
        // the optimizer produces `reduced` from `direct`; how fast?
        let opt = Optimizer::standard();
        group.bench_with_input(
            BenchmarkId::new("optimize_only", n_beers),
            &direct,
            |b, e| b.iter(|| opt.optimize(e, db.schema()).expect("optimizes")),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(12)
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = pushdown
}
criterion_main!(benches);
