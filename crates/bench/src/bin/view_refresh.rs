//! Materialized-view refresh report: incremental signed-delta
//! maintenance vs. from-scratch recomputation, swept across churn rates.
//!
//! The workload is the view subsystem's target shape — a join + group-by
//! over two base relations:
//!
//! ```text
//! region_totals = γ[(region), SUM, amount](orders ⋈[cust = id] customers)
//! ```
//!
//! Each measured point applies a steady-state churn transaction (delete
//! `churn/2` live rows, insert `churn/2` fresh ones) to the base data and
//! times (a) `refresh` — pushing the commit's signed delta through the
//! view's maintenance plan via [`ViewSet::refresh_after_commit`], the
//! exact work the commit pipeline adds per view — against (b)
//! `recompute` — a full re-evaluation of the definition over the
//! post-commit database, which is what a viewless system pays to answer
//! the same query. The base-table update itself (`base_apply_ns`) is
//! reported alongside for scale. After every commit the refreshed view is
//! asserted equal to the recomputation, so the sweep is also a
//! correctness check.
//!
//! JSON is hand-rendered (the vendored serde crates are empty shells) and
//! includes the worker count and `available_parallelism()` so numbers
//! from different machines are comparable.
//!
//! Usage: `cargo run --release -p mera-bench --bin view_refresh
//! [output.json]` — default output `BENCH_pr7.json`. Pass `--smoke` for a
//! seconds-long CI variant that churns a small database through real
//! [`MvccManager`] commits and exits nonzero unless the maintained
//! view equals a reference recomputation after every commit.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mera_bench::rng;
use mera_core::counting_alloc::{allocations_during, CountingAlloc};
use mera_core::prelude::*;
use mera_eval::Engine;
use mera_expr::{Aggregate, RelExpr, ScalarExpr};
use mera_txn::{
    DeltaMap, ExecConfig, MvccManager, Outcome, Program, Statement, TupleDelta, ViewSet,
};
use rand::rngs::StdRng;
use rand::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const REGIONS: usize = 64;

fn schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "orders",
            Schema::named(&[("cust", DataType::Int), ("amount", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "customers",
            Schema::named(&[("id", DataType::Int), ("region", DataType::Str)]),
        )
        .expect("fresh")
}

/// The benchmark view: per-region revenue.
fn view_expr() -> RelExpr {
    RelExpr::scan("orders")
        .join(
            RelExpr::scan("customers"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
        .group_by(&[4], Aggregate::Sum, 2)
}

fn relation_of(schema: &Arc<Schema>, rows: &[(i64, i64)]) -> Relation {
    let mut rel = Relation::empty(Arc::clone(schema));
    for &(a, b) in rows {
        rel.insert(tuple![a, b], 1).expect("well-typed");
    }
    rel
}

fn customers_relation(schema: &Arc<Schema>, n: usize) -> Relation {
    let mut rel = Relation::empty(Arc::clone(schema));
    for id in 0..n {
        rel.insert(tuple![id as i64, format!("r{}", id % REGIONS)], 1)
            .expect("well-typed");
    }
    rel
}

fn random_order(r: &mut StdRng, customers: usize) -> (i64, i64) {
    (r.gen_range(0..customers as i64), r.gen_range(0..1_000))
}

/// A loaded database plus the live list of physical order rows (the
/// churn generator deletes rows that are actually present).
fn load(orders: usize, customers: usize, seed: u64) -> (Database, Vec<(i64, i64)>) {
    let mut r = rng(seed);
    let live: Vec<(i64, i64)> = (0..orders)
        .map(|_| random_order(&mut r, customers))
        .collect();
    let mut db = Database::new(schema());
    let orders_schema = Arc::clone(db.relation("orders").expect("declared").schema());
    let customers_schema = Arc::clone(db.relation("customers").expect("declared").schema());
    db.replace("orders", relation_of(&orders_schema, &live))
        .expect("schema matches");
    db.replace(
        "customers",
        customers_relation(&customers_schema, customers),
    )
    .expect("schema matches");
    (db, live)
}

/// Physical order rows, one entry per tuple instance.
type Rows = Vec<(i64, i64)>;

/// One steady-state churn step: picks `churn/2` live rows to delete and
/// draws `churn/2` fresh rows to insert, updating `live` to match.
fn churn_rows(live: &mut Rows, churn: usize, customers: usize, r: &mut StdRng) -> (Rows, Rows) {
    let half = (churn / 2).max(1);
    let mut deleted = Vec::with_capacity(half);
    for _ in 0..half.min(live.len()) {
        deleted.push(live.swap_remove(r.gen_range(0..live.len())));
    }
    let inserted: Vec<(i64, i64)> = (0..half).map(|_| random_order(r, customers)).collect();
    live.extend_from_slice(&inserted);
    (deleted, inserted)
}

/// The commit's signed delta on `orders`.
fn orders_delta(deleted: &[(i64, i64)], inserted: &[(i64, i64)]) -> DeltaMap {
    let mut d = TupleDelta::new();
    for &(a, b) in deleted {
        d.insert(tuple![a, b], -1).expect("small counts");
    }
    for &(a, b) in inserted {
        d.insert(tuple![a, b], 1).expect("small counts");
    }
    let mut map = DeltaMap::new();
    map.insert("orders".to_owned(), d);
    map
}

struct Point {
    churn_fraction: f64,
    churn_rows: usize,
    refresh_ns: u128,
    base_apply_ns: u128,
    recompute_ns: u128,
    speedup: f64,
    refresh_allocs: u64,
    recompute_allocs: u64,
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Measures one churn level over `commits` steady-state churn
/// transactions, checking refresh == recompute after every one.
fn measure(orders: usize, customers: usize, churn_fraction: f64, commits: usize) -> Point {
    let churn = ((orders as f64 * churn_fraction) as usize).max(2);
    let config = ExecConfig::default();
    let expr = view_expr();
    let (mut db, mut live) = load(orders, customers, 1);
    let mut views = ViewSet::new();
    views
        .create("region_totals", expr.clone(), &db, config)
        .expect("view accepted");

    let mut refresh_times = Vec::with_capacity(commits);
    let mut base_times = Vec::with_capacity(commits);
    let mut recompute_times = Vec::with_capacity(commits);
    let mut refresh_allocs = 0u64;
    let mut recompute_allocs = 0u64;
    let engine = Engine::physical();
    let mut r = rng(7);
    for i in 0..commits {
        let (deleted, inserted) = churn_rows(&mut live, churn, customers, &mut r);
        let deltas = orders_delta(&deleted, &inserted);

        // the base-table write the commit performs anyway
        let start = Instant::now();
        let mut rel = db.relation("orders").expect("declared").clone();
        for (t, m) in deltas["orders"].iter() {
            if m > 0 {
                rel.insert(t.clone(), m as u64).expect("well-typed");
            } else {
                rel.remove(t, m.unsigned_abs());
            }
        }
        db.replace("orders", rel).expect("schema matches");
        base_times.push(start.elapsed());

        // incremental refresh: the view subsystem's per-commit work
        let start = Instant::now();
        let (allocs, _) = allocations_during(|| {
            views
                .refresh_after_commit(deltas.clone(), &db, config)
                .expect("refresh succeeds")
        });
        refresh_times.push(start.elapsed());
        if i == 0 {
            refresh_allocs = allocs;
        }

        // what a viewless system pays for the same answer
        let start = Instant::now();
        let (allocs, fresh) = allocations_during(|| engine.run(&expr, &db).expect("recompute"));
        recompute_times.push(start.elapsed());
        if i == 0 {
            recompute_allocs = allocs;
        }
        assert_eq!(
            views
                .get("region_totals")
                .expect("view exists")
                .data()
                .as_ref(),
            &fresh,
            "refresh diverged from recompute at churn {churn_fraction}"
        );
    }
    let (_, fallbacks) = views
        .get("region_totals")
        .expect("view exists")
        .refresh_stats();
    assert_eq!(
        fallbacks, 0,
        "join+group-by view must maintain incrementally"
    );

    let refresh = median(refresh_times);
    let recompute = median(recompute_times);
    Point {
        churn_fraction,
        churn_rows: churn,
        refresh_ns: refresh.as_nanos(),
        base_apply_ns: median(base_times).as_nanos(),
        recompute_ns: recompute.as_nanos(),
        speedup: recompute.as_secs_f64() / refresh.as_secs_f64().max(f64::EPSILON),
        refresh_allocs,
        recompute_allocs,
    }
}

fn render_json(
    orders: usize,
    customers: usize,
    commits: usize,
    workers: usize,
    available: usize,
    points: &[Point],
) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"bench\": \"view_refresh\",");
    let _ = writeln!(j, "  \"orders_rows\": {orders},");
    let _ = writeln!(j, "  \"customers_rows\": {customers},");
    let _ = writeln!(j, "  \"regions\": {REGIONS},");
    let _ = writeln!(j, "  \"commits_per_point\": {commits},");
    let _ = writeln!(j, "  \"workers\": {workers},");
    let _ = writeln!(j, "  \"available_parallelism\": {available},");
    let _ = writeln!(
        j,
        "  \"view\": \"groupby[(%4), SUM, %2](join[(%1 = %3)](orders, customers))\","
    );
    let _ = writeln!(
        j,
        "  \"note\": \"per point: median over commits_per_point steady-state churn \
         transactions; refresh_ns pushes the commit's signed delta through the view's \
         maintenance plan (ViewSet::refresh_after_commit), base_apply_ns is the base-table \
         write itself, recompute_ns a full re-evaluation of the definition over the \
         post-commit database; speedup = recompute_ns / refresh_ns; every commit asserts \
         refresh == recompute; regenerate with \
         `cargo run --release -p mera-bench --bin view_refresh`\","
    );
    j.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            j,
            "    {{\"churn_fraction\": {}, \"churn_rows\": {}, \"refresh_ns\": {}, \
             \"base_apply_ns\": {}, \"recompute_ns\": {}, \"speedup\": {:.2}, \
             \"refresh_allocs\": {}, \"recompute_allocs\": {}}}",
            p.churn_fraction,
            p.churn_rows,
            p.refresh_ns,
            p.base_apply_ns,
            p.recompute_ns,
            p.speedup,
            p.refresh_allocs,
            p.recompute_allocs
        );
        j.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    j.push_str("  ]\n}\n");
    j
}

/// Smoke mode: a small database churned through real transaction-manager
/// commits, with a hard equality check of the maintained view against the
/// reference evaluator after every commit (the measured path checks
/// against the physical engine; this one closes the loop down to the
/// paper's definitions).
fn smoke() -> Result<(), String> {
    let (db, mut live) = load(2_000, 200, 42);
    let expr = view_expr();
    let mgr = MvccManager::with_config(db.schema().clone(), ExecConfig::default());
    let orders_schema = Arc::clone(db.relation("orders").expect("declared").schema());
    let load_program = Program::new()
        .then(Statement::insert(
            "customers",
            RelExpr::values(db.relation("customers").expect("declared").clone()),
        ))
        .then(Statement::insert(
            "orders",
            RelExpr::values(db.relation("orders").expect("declared").clone()),
        ));
    let commit = |what: String, program: &Program| match mgr.execute(program).0 {
        Outcome::Committed(_) => Ok(()),
        Outcome::Aborted(reason) => Err(format!("{what}: {reason}")),
    };
    commit("load".to_owned(), &load_program)?;
    mgr.create_view("region_totals", expr.clone())
        .map_err(|e| format!("view rejected: {e}"))?;
    let mut r = rng(43);
    for i in 0..4 {
        let (deleted, inserted) = churn_rows(&mut live, 20, 200, &mut r);
        let p = Program::new()
            .then(Statement::delete(
                "orders",
                RelExpr::values(relation_of(&orders_schema, &deleted)),
            ))
            .then(Statement::insert(
                "orders",
                RelExpr::values(relation_of(&orders_schema, &inserted)),
            ));
        commit(format!("commit {i}"), &p)?;
        let version = mgr.pin();
        let fresh = mera_eval::eval(&expr, version.database())
            .map_err(|e| format!("recompute {i}: {e}"))?;
        let view = version
            .views()
            .get("region_totals")
            .ok_or_else(|| format!("view read {i}: no such view"))?
            .data();
        if view.as_ref() != &fresh {
            return Err(format!("commit {i}: refresh diverged from recompute"));
        }
        println!("smoke: commit {i} ok ({} groups)", view.len());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr7.json".to_owned());

    if smoke_mode {
        if let Err(msg) = smoke() {
            eprintln!("smoke FAILED: {msg}");
            std::process::exit(1);
        }
        println!("smoke: incremental refresh equals recompute on every commit");
        return;
    }

    let orders = 100_000usize;
    let customers = 5_000usize;
    let commits = 5usize;
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // the commit pipeline executes view deltas on the serial columnar
    // engine — one worker; the metadata records both so runs on wider
    // machines stay comparable
    let workers = 1usize;

    let points: Vec<Point> = [0.001, 0.005, 0.01, 0.05]
        .iter()
        .map(|&churn| measure(orders, customers, churn, commits))
        .collect();

    let json = render_json(orders, customers, commits, workers, available, &points);
    std::fs::write(&out_path, json).expect("writable output path");
    println!("wrote {out_path}");
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>14} {:>9}",
        "churn", "rows", "refresh", "base_apply", "recompute", "speedup"
    );
    for p in &points {
        println!(
            "{:>7.1}% {:>8} {:>14.2?} {:>14.2?} {:>14.2?} {:>8.1}x",
            p.churn_fraction * 100.0,
            p.churn_rows,
            Duration::from_nanos(p.refresh_ns as u64),
            Duration::from_nanos(p.base_apply_ns as u64),
            Duration::from_nanos(p.recompute_ns as u64),
            p.speedup
        );
    }
}
