//! E1/E2 — the cost side of the paper's equivalence theorems:
//!
//! * Theorem 3.1: native `∩`/`⋈` vs their desugared forms — the identity
//!   licenses a *much* cheaper implementation (hash-based) than the
//!   literal desugaring (difference-of-differences, σ over a full
//!   product);
//! * Theorem 3.2: σ/π distributed over ⊎ vs applied above — same results,
//!   near-identical cost in a streaming engine (the rewrite's value shows
//!   when the union feeds a blocking operator).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mera_bench::experiments::{e1_plans, two_column_db};
use mera_eval::Engine;
use mera_expr::{CmpOp, RelExpr, ScalarExpr};

fn thm31_desugar(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm31_desugar");
    for rows in [1_000usize, 5_000] {
        let db = two_column_db(rows, rows / 10 + 1, 0xE1);
        for (label, plan) in e1_plans() {
            // the σ(×) desugaring is quadratic; cap its size
            if label.contains("product") && rows > 1_000 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(label, rows), &plan, |b, e| {
                b.iter(|| Engine::physical().run(e, &db).expect("executes"));
            });
        }
    }
    group.finish();
}

fn thm32_distribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm32_distribution");
    for rows in [10_000usize, 50_000] {
        let db = two_column_db(rows, rows / 10 + 1, 0xE2);
        let pred = ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::int((rows / 40) as i64));
        let above = RelExpr::scan("e1")
            .union(RelExpr::scan("e2"))
            .select(pred.clone());
        let pushed = RelExpr::scan("e1")
            .select(pred.clone())
            .union(RelExpr::scan("e2").select(pred.clone()));
        group.bench_with_input(
            BenchmarkId::new("sigma_above_union", rows),
            &above,
            |b, e| {
                b.iter(|| Engine::physical().run(e, &db).expect("executes"));
            },
        );
        group.bench_with_input(BenchmarkId::new("sigma_pushed", rows), &pushed, |b, e| {
            b.iter(|| Engine::physical().run(e, &db).expect("executes"));
        });
        // where the rewrite pays: the union feeds a blocking distinct
        let above_blocking = RelExpr::scan("e1")
            .union(RelExpr::scan("e2"))
            .distinct()
            .select(pred.clone());
        let pushed_blocking = RelExpr::scan("e1")
            .select(pred.clone())
            .union(RelExpr::scan("e2").select(pred.clone()))
            .distinct();
        group.bench_with_input(
            BenchmarkId::new("sigma_above_union_distinct", rows),
            &above_blocking,
            |b, e| b.iter(|| Engine::physical().run(e, &db).expect("executes")),
        );
        group.bench_with_input(
            BenchmarkId::new("sigma_pushed_then_distinct", rows),
            &pushed_blocking,
            |b, e| b.iter(|| Engine::physical().run(e, &db).expect("executes")),
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
    targets = thm31_desugar, thm32_distribution
}
criterion_main!(benches);
