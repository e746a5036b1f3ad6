//! Every published claim of the reproduction, restated as an exact count
//! or a count ratio.
//!
//! The paper's measurable claims are about *work*: Example 3.2 inserts a
//! projection "to reduce the size of intermediate results", and the
//! introduction calls duplicate removal costly. The engine counts both
//! exactly — [`Engine::run_instrumented`] registers one row/cell counter
//! per plan node, and [`dedup_work`] counts the tuples a set engine scans
//! to deduplicate, evaluating the plan in the 𝔹 instance of the reference
//! evaluator (`eval_in::<bool>`) — so each claim is asserted as a count, and the
//! count tables in `EXPERIMENTS.md` are the values asserted here. Counts
//! do not drift with the machine, so every case is CI-safe.
//!
//! The seeded generators below produced the published tables; with their
//! seeds and call order unchanged, the counts reproduce those tables.
//!
//! Run: `cargo test --test claims` (add `--release` for speed).

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mera::analyze::KeyEnv;
use mera::core::prelude::DataType::{Int, Str};
use mera::core::prelude::*;
use mera::eval::reference::eval_in;
use mera::eval::{eval, Engine, ExecStats, IndexSet};
use mera::expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use mera::opt::cost::estimate_cost;
use mera::opt::{choose_access_paths, estimate_rows, CatalogStats, Optimizer};
use mera::store::{ConcurrentDb, FsyncPolicy, MemStorage, Storage, StoreOptions, StoreResult};
use mera::txn::{Ddl, DdlError, ExecConfig, MvccManager, Program, Statement};
use mera_server::{serve, Client, ServerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- Seeded workload generators ----

/// Deterministic RNG for a named experiment.
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples `n` indices in `0..universe` from a (truncated) Zipf-like
/// distribution with exponent `s` — rank `k` is drawn with probability
/// ∝ `1/(k+1)^s`. `s = 0.0` is uniform.
fn zipf_indices(rng: &mut StdRng, n: usize, universe: usize, s: f64) -> Vec<usize> {
    assert!(universe > 0, "universe must be non-empty");
    // cumulative weights
    let mut cum = Vec::with_capacity(universe);
    let mut total = 0.0;
    for k in 0..universe {
        total += 1.0 / ((k + 1) as f64).powf(s);
        cum.push(total);
    }
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..total);
            match cum.binary_search_by(|c| c.partial_cmp(&x).expect("no NaN")) {
                Ok(i) | Err(i) => i.min(universe - 1),
            }
        })
        .collect()
}

/// A generic relation `(k: int, v: int)` with exactly `rows` tuples whose
/// key column draws from `distinct_keys` values with Zipf exponent
/// `skew`. `skew = 0` gives a uniform duplication profile;
/// `rows / distinct_keys` is the mean duplication factor.
fn int_relation(rows: usize, distinct_keys: usize, skew: f64, seed: u64) -> Relation {
    let mut r = rng(seed);
    let schema = Arc::new(Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]));
    let keys = zipf_indices(&mut r, rows, distinct_keys.max(1), skew);
    let mut rel = Relation::empty(schema);
    for k in keys {
        let v: i64 = r.gen_range(0..1_000);
        rel.insert(tuple![k as i64, v], 1).expect("well-typed");
    }
    rel
}

/// A single-column `(a: int)` relation for set-operation workloads:
/// `rows` tuples over `distinct` values, uniform.
fn column_relation(rows: usize, distinct: usize, seed: u64) -> Relation {
    let mut r = rng(seed);
    let schema = Arc::new(Schema::named(&[("a", DataType::Int)]));
    let mut rel = Relation::empty(schema);
    for _ in 0..rows {
        let v: i64 = r.gen_range(0..distinct.max(1) as i64);
        rel.insert(tuple![v], 1).expect("well-typed");
    }
    rel
}

/// The paper's beer/brewery database scaled up: `n_beers` beer tuples
/// over `n_breweries` breweries across `n_countries` countries, with
/// beer-name duplication controlled by `name_universe` (smaller universe
/// ⇒ more duplicate names — Example 3.1's "several Dutch brewers brew
/// beers with the same name").
fn scaled_beer_db(
    n_beers: usize,
    n_breweries: usize,
    n_countries: usize,
    name_universe: usize,
    seed: u64,
) -> Database {
    let mut r = rng(seed);
    let mut db = Database::new(mera::beer_schema());

    let brewery_schema = Arc::clone(db.schema().get("brewery").expect("declared"));
    let mut breweries = Relation::empty(brewery_schema);
    for b in 0..n_breweries {
        let country = format!("C{}", b % n_countries.max(1));
        breweries
            .insert(
                tuple![format!("brewery{b}"), format!("city{b}"), country],
                1,
            )
            .expect("well-typed");
    }
    db.replace("brewery", breweries).expect("replace");

    let beer_schema = Arc::clone(db.schema().get("beer").expect("declared"));
    let mut beers = Relation::empty(beer_schema);
    let names = zipf_indices(&mut r, n_beers, name_universe.max(1), 1.1);
    for name_ix in names {
        let brewery = r.gen_range(0..n_breweries.max(1));
        // alcohol percentages on a coarse grid so duplicates also arise in
        // projections of the numeric column
        let alc = (r.gen_range(30..130) as f64) / 10.0;
        beers
            .insert(
                tuple![format!("beer{name_ix}"), format!("brewery{brewery}"), alc],
                1,
            )
            .expect("well-typed");
    }
    db.replace("beer", beers).expect("replace");
    db
}

/// A database schema from `(relation, attributes)` pairs.
fn schema(relations: &[(&str, &[(&str, DataType)])]) -> DatabaseSchema {
    relations
        .iter()
        .fold(DatabaseSchema::new(), |schema, (name, attrs)| {
            schema.with(name, Schema::named(attrs)).expect("fresh")
        })
}

/// Replaces the contents of `name` with `rows`, drawn in order.
fn load(db: &mut Database, name: &str, rows: impl IntoIterator<Item = Tuple>) {
    let rel_schema = Arc::clone(db.relation(name).expect("declared").schema());
    let rel = Relation::from_tuples(rel_schema, rows).expect("well-typed");
    db.replace(name, rel).expect("schema matches");
}

/// Two single-column relations `e1`, `e2` for set-operation claims.
fn two_column_db(rows: usize, distinct: usize, seed: u64) -> Database {
    let one_int: &[(&str, DataType)] = &[("a", Int)];
    let mut db = Database::new(schema(&[("e1", one_int), ("e2", one_int)]));
    db.replace("e1", column_relation(rows, distinct, seed))
        .expect("replace");
    db.replace("e2", column_relation(rows, distinct, seed + 1))
        .expect("replace");
    db
}

#[test]
fn zipf_is_deterministic_and_skewed() {
    let mut a = rng(7);
    let mut b = rng(7);
    let xs = zipf_indices(&mut a, 1000, 50, 1.2);
    let ys = zipf_indices(&mut b, 1000, 50, 1.2);
    assert_eq!(xs, ys);
    // rank 0 must dominate under skew
    let count0 = xs.iter().filter(|&&x| x == 0).count();
    let count49 = xs.iter().filter(|&&x| x == 49).count();
    assert!(count0 > count49, "rank 0: {count0}, rank 49: {count49}");
    assert!(xs.iter().all(|&x| x < 50));
}

#[test]
fn int_relation_has_requested_shape() {
    let rel = int_relation(500, 20, 0.0, 1);
    assert_eq!(rel.len(), 500);
    // keys live in 0..20
    for t in rel.support() {
        let k = t.attr(1).expect("key").as_int().expect("int");
        assert!((0..20).contains(&k));
    }
}

#[test]
fn column_relation_duplicates() {
    let rel = column_relation(1000, 10, 2);
    assert_eq!(rel.len(), 1000);
    assert!(rel.distinct_len() <= 10);
    // mean duplication ≈ 100
    assert!(rel.len() / rel.distinct_len() as u64 >= 50);
}

#[test]
fn scaled_beer_db_is_well_formed() {
    let db = scaled_beer_db(1000, 50, 5, 100, 3);
    let beer = db.relation("beer").expect("present");
    let brewery = db.relation("brewery").expect("present");
    assert_eq!(beer.len(), 1000);
    assert_eq!(brewery.len(), 50);
    // every beer's brewery exists (referential integrity of the
    // generator, not the model — the paper keeps constraints out of
    // scope)
    let known: HashSet<&Value> = brewery
        .support()
        .map(|t| t.attr(1).expect("name"))
        .collect();
    for t in beer.support() {
        assert!(known.contains(t.attr(2).expect("brewery")));
    }
}

#[test]
fn generators_are_seed_stable() {
    assert_eq!(
        int_relation(100, 10, 1.0, 42),
        int_relation(100, 10, 1.0, 42)
    );
    assert_eq!(column_relation(100, 10, 42), column_relation(100, 10, 42));
    let a = scaled_beer_db(100, 10, 3, 20, 9);
    let b = scaled_beer_db(100, 10, 3, 20, 9);
    assert_eq!(
        a.relation("beer").expect("present"),
        b.relation("beer").expect("present")
    );
}

// ---- Counting helpers ----

/// Runs `plan` instrumented: the result plus `(label, rows_out)` per plan
/// node, bottom-up.
fn run_counted(engine: &Engine, plan: &RelExpr, db: &Database) -> (Relation, Vec<(String, u64)>) {
    let mut stats = ExecStats::new();
    let out = engine
        .run_instrumented(plan, db, &mut stats)
        .expect("plan executes");
    (out, stats.rows_out())
}

/// Rows out of the node labelled `label`.
fn rows_of(counters: &[(String, u64)], label: &str) -> u64 {
    counters
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("no `{label}` node in {counters:?}"))
        .1
}

/// The count entering the node labelled `label`: the counter registered
/// just before it (post-order), i.e. its only child's output.
fn input_of(counters: &[(String, u64)], label: &str) -> u64 {
    let at = counters
        .iter()
        .position(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("no `{label}` node in {counters:?}"));
    counters[at - 1].1
}

// ---- E1 — Theorem 3.1 desugarings ----

/// `E₁∩E₂ = E₁−(E₁−E₂)` and `E₁⋈E₂ = σ(E₁×E₂)` give equal results, but the
/// desugared join materialises the full product: |e1|·|e2| rows leave the
/// `product` node, where the native join emits only the result.
#[test]
fn e1_desugared_join_materialises_the_product() {
    let db = two_column_db(1_000, 100, 0xE1);
    let (e1, e2) = (RelExpr::scan("e1"), RelExpr::scan("e2"));
    let phi = ScalarExpr::attr(1).eq(ScalarExpr::attr(2));
    let engine = Engine::physical();

    let desugared_intersect = e1.clone().difference(e1.clone().difference(e2.clone()));
    let (native_intersect, _) = run_counted(&engine, &e1.clone().intersect(e2.clone()), &db);
    assert_eq!(
        native_intersect,
        run_counted(&engine, &desugared_intersect, &db).0
    );

    let (native, native_counts) =
        run_counted(&engine, &e1.clone().join(e2.clone(), phi.clone()), &db);
    let (desugared, desugared_counts) = run_counted(&engine, &e1.product(e2).select(phi), &db);
    assert_eq!(native, desugared);
    assert_eq!(rows_of(&desugared_counts, "product"), 1_000 * 1_000);
    assert_eq!(rows_of(&native_counts, "join"), native.len());
    assert_eq!(native.len(), 9_977);
    assert!(native_counts.iter().all(|(l, _)| l != "product"));
}

// ---- E5/E6 — Example 3.2 ----

/// Example 3.2's two plan shapes: γ over the join, and γ over the join
/// with the width-reducing projection inserted.
fn ex32_plans() -> (RelExpr, RelExpr) {
    let join = RelExpr::scan("beer").join(
        RelExpr::scan("brewery"),
        ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
    );
    let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
    let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);
    (direct, reduced)
}

/// E5: under bag semantics both plans agree, and the projection shrinks
/// the γ input — cells, i.e. rows × arity — by exactly the width ratio, 6
/// attributes to 2.
#[test]
fn e5_projection_reduces_gamma_input() {
    let n = 10_000;
    let db = scaled_beer_db(n, n / 20 + 2, 8, n / 4 + 2, 0xE5);
    let run = |plan| {
        let mut stats = ExecStats::new();
        let out = Engine::physical().run_instrumented(plan, &db, &mut stats);
        (
            out.expect("executes"),
            input_of(&stats.cells_out(), "group-by"),
        )
    };
    let (direct, reduced) = ex32_plans();
    let ((a, direct_cells), (b, reduced_cells)) = (run(&direct), run(&reduced));
    assert_eq!(a, b, "plans must agree under bag semantics");
    assert_eq!((direct_cells, reduced_cells), (6 * n as u64, 2 * n as u64));
}

/// E6: `(countries, diverging averages, max abs error)` of the
/// projection-inserted plan under set semantics against the bag answer.
fn e6_divergence(n_beers: usize) -> (usize, usize, f64) {
    let db = scaled_beer_db(n_beers, n_beers / 20 + 2, 8, n_beers / 10 + 2, 0xE6);
    let (direct, reduced) = ex32_plans();
    let truth = Engine::physical().run(&direct, &db).expect("bag plan");
    let set_reduced = eval_in::<bool>(&reduced, &db).expect("set plan");
    let mut diverging = 0;
    let mut max_err: f64 = 0.0;
    for (t, _) in truth.iter() {
        let country = t.attr(1).expect("country");
        let avg = t.attr(2).expect("avg").as_f64().expect("numeric");
        let found = set_reduced
            .iter()
            .find(|(s, _)| s.attr(1).ok() == Some(country))
            .map(|(s, _)| s.attr(2).expect("avg").as_f64().expect("numeric"));
        match found {
            Some(set_avg) if (set_avg - avg).abs() < 1e-9 => {}
            Some(set_avg) => {
                diverging += 1;
                max_err = max_err.max((set_avg - avg).abs());
            }
            None => diverging += 1,
        }
    }
    (truth.len() as usize, diverging, max_err)
}

/// E6: set semantics corrupts every one of the 8 country averages once
/// the projection is inserted (the paper's "different (and incorrect)
/// result").
#[test]
fn e6_set_semantics_corrupts_every_country_average() {
    for (n, want_err) in [(1_000, 0.6171), (5_000, 0.2859)] {
        let (countries, diverging, max_err) = e6_divergence(n);
        assert_eq!((countries, diverging), (8, 8), "{n} beers");
        assert!(
            (max_err - want_err).abs() < 5e-5,
            "{n} beers: max error {max_err:.4}, published {want_err}"
        );
    }
}

// ---- E7 — the cost of duplicate removal ----

/// The tuples a set engine scans to deduplicate `e`: the ℕ size of the
/// input of every step that folds duplicates — the stored relation read
/// as a set, ⊎, π, extended π and δ — with every sub-plan evaluated under
/// set semantics (`eval_in::<bool>`).
fn dedup_work(e: &RelExpr, db: &Database) -> u64 {
    let set_len = |e: &RelExpr| eval_in::<bool>(e, db).expect("set executes").len();
    let own = match e {
        RelExpr::Scan(name) => db.relation(name).expect("stored").len(),
        RelExpr::Values(rel) => rel.len(),
        RelExpr::Union(l, r) => set_len(l) + set_len(r),
        RelExpr::Project { input, .. }
        | RelExpr::ExtProject { input, .. }
        | RelExpr::Distinct(input) => set_len(input),
        _ => 0,
    };
    own + e
        .children()
        .into_iter()
        .map(|c| dedup_work(c, db))
        .sum::<u64>()
}

/// The dedup tally on the paper's beer database: the scan reads 6 tuples
/// and the projection onto `alcperc` deduplicates 6 more, down to the 5
/// distinct percentages.
#[test]
fn counting_evaluator_charges_dedup_work() {
    let db = mera::beer_database();
    let e = RelExpr::scan("beer").project(&[3]);
    assert_eq!(eval_in::<bool>(&e, &db).expect("set executes").len(), 5);
    assert_eq!(dedup_work(&e, &db), 12);
    assert_eq!(dedup_work(&RelExpr::scan("brewery"), &db), 3);
}

/// E7: a union of two filtered relations projected to one column, every
/// step duplicate-producing. The set engine scans exactly `dedup_work`
/// tuples to deduplicate; the bag plan has no `distinct` node at all and
/// keeps every row.
#[test]
fn e7_set_engine_dedup_work_is_exact() {
    let half = |name: &str| {
        RelExpr::scan(name).select(ScalarExpr::attr(1).cmp(CmpOp::Ge, ScalarExpr::int(0)))
    };
    let q = half("e1").union(half("e2")).project(&[1]);
    let rows = 10_000;
    let mut work = Vec::new();
    for dup in [1, 10, 100] {
        let db = two_column_db(rows, (rows / dup).max(1), 0xE7);
        let (bag, counters) = run_counted(&Engine::physical(), &q, &db);
        assert_eq!(bag.len(), 2 * rows as u64);
        assert!(
            counters.iter().all(|(l, _)| l != "distinct"),
            "{counters:?}"
        );
        let set = eval_in::<bool>(&q, &db).expect("set executes");
        assert_eq!(set, bag.lift::<bool>().expect("lifts"));
        work.push(dedup_work(&q, &db));
    }
    assert_eq!(work, [41_207, 23_000, 20_300]);
}

// ---- E12 — optimizer ablation ----

/// E12: the σ-over-product form of Example 3.1 followed by Example 3.2's
/// aggregation, optimized with each standard rule dropped in turn. Every
/// ablated plan returns the full plan's relation; the cost model's
/// estimates (rounded) are the published table.
#[test]
fn e12_ablation_preserves_results_and_prices_each_rule() {
    let n = 5_000;
    let db = scaled_beer_db(n, n / 20 + 2, 8, n / 4 + 2, 0xE12);
    let stats = CatalogStats::from_database(&db).expect("analyze");
    let q = RelExpr::scan("beer")
        .product(RelExpr::scan("brewery"))
        .select(
            ScalarExpr::attr(2)
                .eq(ScalarExpr::attr(4))
                .and(ScalarExpr::attr(6).eq(ScalarExpr::str("C0"))),
        )
        .group_by(&[6], Aggregate::Avg, 3);

    let full_plan = Optimizer::standard()
        .optimize(&q, db.schema())
        .expect("optimizes")
        .expr;
    let reference = Engine::physical().run(&full_plan, &db).expect("full plan");
    let mut table = vec![("(none)".to_owned(), estimate_cost(&full_plan, &stats))];
    for rule in Optimizer::standard().rule_names() {
        let plan = Optimizer::standard_without(&[rule])
            .optimize(&q, db.schema())
            .expect("optimizes")
            .expr;
        let result = Engine::physical().run(&plan, &db).expect("ablated plan");
        assert_eq!(result, reference, "dropping {rule} changed semantics");
        table.push((rule.to_owned(), estimate_cost(&plan, &stats)));
    }
    let raw = estimate_cost(&q, &stats);
    let est = |rule: &str| table.iter().find(|(r, _)| r == rule).expect("rule ran").1;
    let full = est("(none)");

    assert!(full < raw);
    // join recognition (Theorem 3.1 used in reverse) is the load-bearing
    // rule; the full set does *not* beat every ablation — dropping
    // `project-before-group-by` lowers the estimate
    assert!(est("select-product-to-join") >= 9.0 * full);
    assert!(est("project-before-group-by") < full);

    let published = [
        ("(none)", 16_636),
        ("constant-fold", 16_636),
        ("fuse-selections", 16_636),
        ("push-selection-through-binary", 16_636),
        ("push-selection-into-join", 17_016),
        ("select-product-to-join", 164_042),
        ("push-projection-through-union", 16_636),
        ("distinct-pruning", 16_636),
        ("simplify-keyed-group-by", 16_636),
        ("project-before-group-by", 10_980),
        ("push-projection-into-join", 11_604),
        ("push-distinct-into-join", 16_636),
        ("(no optimizer at all)", 1_265_885),
    ];
    table.push(("(no optimizer at all)".to_owned(), raw));
    assert_eq!(table.len(), published.len());
    for ((rule, cost), (want_rule, want)) in table.iter().zip(published) {
        assert_eq!(rule, want_rule);
        assert!(
            (cost - want as f64).abs() <= 0.5,
            "{rule}: estimate {cost}, published {want}"
        );
    }
}

// ---- E16 — hash-index point lookups ----

/// E16: a point selection over an indexed relation reads only the index's
/// matches — one `index_lookup(r)` counter equal to the result, no
/// `scan(r)` — while scan-and-filter reads all n rows.
#[test]
fn e16_index_lookup_reads_only_the_matches() {
    let rows = 10_000;
    let mut db = Database::new(schema(&[("r", &[("k", Int), ("v", Int)])]));
    db.replace("r", int_relation(rows, rows / 10 + 1, 0.0, 41))
        .expect("replace");
    let mut indexes = IndexSet::new();
    indexes.create(&db, "r", &[1]).expect("creates");
    let q = RelExpr::scan("r").select(ScalarExpr::attr(1).eq(ScalarExpr::int(7)));

    let (scanned, scan_counts) = run_counted(&Engine::physical(), &q, &db);
    let (looked_up, lookup_counts) = run_counted(&Engine::indexed(indexes), &q, &db);
    assert_eq!(looked_up, scanned);
    assert_eq!(scanned.len(), 7);
    assert_eq!(rows_of(&scan_counts, "scan(r)"), rows as u64);
    assert_eq!(
        lookup_counts,
        vec![("index_lookup(r)".to_owned(), scanned.len())]
    );
}

// ---- Incremental view maintenance ----

/// Four churn commits through [`MvccManager`] on the join + γ
/// `region_totals` view. After each, the maintained view equals a
/// reference recomputation, and every refresh was a delta refresh — no
/// recompute fallback.
#[test]
fn view_refresh_equals_recompute_without_fallbacks() {
    let (orders, customers) = (2_000, 200);
    let schema = schema(&[
        ("orders", &[("cust", Int), ("amount", Int)]),
        ("customers", &[("id", Int), ("region", Str)]),
    ]);
    let view = RelExpr::scan("orders")
        .join(
            RelExpr::scan("customers"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
        .group_by(&[4], Aggregate::Sum, 2);
    let orders_of = |rows: &[(i64, i64)]| {
        let rel_schema = Arc::clone(schema.get("orders").expect("declared"));
        let rel = Relation::from_tuples(rel_schema, rows.iter().map(|&(c, a)| tuple![c, a]));
        RelExpr::values(rel.expect("well-typed"))
    };
    let random_order = |r: &mut StdRng| (r.gen_range(0..customers as i64), r.gen_range(0..1_000));

    let mut r = rng(42);
    let mut live: Vec<(i64, i64)> = (0..orders).map(|_| random_order(&mut r)).collect();
    let customer_rel = Relation::from_tuples(
        Arc::clone(schema.get("customers").expect("declared")),
        (0..customers).map(|id| tuple![id as i64, format!("r{}", id % 64)]),
    )
    .expect("well-typed");
    let mgr = MvccManager::with_config(schema.clone(), ExecConfig::default());
    let commit = |program: Program| {
        let (outcome, _) = mgr.execute(&program);
        assert!(outcome.is_committed(), "{outcome:?}");
    };
    commit(
        Program::new()
            .then(Statement::insert(
                "customers",
                RelExpr::values(customer_rel),
            ))
            .then(Statement::insert("orders", orders_of(&live))),
    );
    let (name, expr) = ("region_totals".to_owned(), view.clone());
    mgr.ddl(&Ddl::View { name, expr }, || Ok::<(), DdlError>(()))
        .expect("view accepted");

    let mut r = rng(43);
    for i in 0..4 {
        // delete 10 live rows, insert 10 fresh ones
        let deleted: Vec<_> = (0..10)
            .map(|_| live.swap_remove(r.gen_range(0..live.len())))
            .collect();
        let inserted: Vec<_> = (0..10).map(|_| random_order(&mut r)).collect();
        live.extend_from_slice(&inserted);
        commit(
            Program::new()
                .then(Statement::delete("orders", orders_of(&deleted)))
                .then(Statement::insert("orders", orders_of(&inserted))),
        );
        let version = mgr.pin();
        let fresh = eval(&view, version.database()).expect("recompute");
        let maintained = version.views().get("region_totals").expect("view exists");
        assert_eq!(maintained.data().as_ref(), &fresh, "commit {i}");
        assert_eq!(maintained.refresh_stats(), (i + 1, 0), "commit {i}");
    }
}

// ---- Cost-based join order and index access paths ----

/// The chain and star schemas of the join-order claims, small enough for
/// a debug test run.
fn join_order_db() -> Database {
    let dim: &[(&str, DataType)] = &[("id", Int), ("tag", Str)];
    let mut db = Database::new(schema(&[
        ("r", &[("b", Int), ("payload", Int)]),
        ("s", &[("b", Int), ("c", Int)]),
        ("t", &[("c", Int)]),
        (
            "fact",
            &[("ka", Int), ("kb", Int), ("kc", Int), ("amount", Int)],
        ),
        ("dim_a", dim),
        ("dim_b", dim),
        ("dim_c", dim),
    ]));
    let dims = 20_i64;
    let mut r = rng(17);
    // r ⋈ s on b is many-to-many: 10 distinct keys on both sides
    load(
        &mut db,
        "r",
        (0..2_000).map(|_| tuple![r.gen_range(0..10_i64), r.gen_range(0..1_000_i64)]),
    );
    // s.c is near-unique, so s ⋈ t keeps only a handful of rows
    load(
        &mut db,
        "s",
        (0..1_000).map(|_| tuple![r.gen_range(0..10_i64), r.gen_range(0..100_000_i64)]),
    );
    load(
        &mut db,
        "t",
        (0..200).map(|_| tuple![r.gen_range(0..100_000_i64)]),
    );
    let facts = (0..4_000).map(|_| {
        let (ka, kb, kc) = (
            r.gen_range(0..dims),
            r.gen_range(0..dims),
            r.gen_range(0..dims),
        );
        tuple![ka, kb, kc, r.gen_range(0..1_000_i64)]
    });
    load(&mut db, "fact", facts);
    let tags = || (0..dims).map(|id| tuple![id, format!("t{id}")]);
    for name in ["dim_a", "dim_b", "dim_c"] {
        load(&mut db, name, tags());
    }
    db
}

/// Secondary indexes the transaction layer would maintain: every
/// dimension key plus the fact table's foreign keys, individually and
/// pairwise.
fn join_order_indexes(db: &Database) -> IndexSet {
    let mut ix = IndexSet::new();
    for keys in [&[1][..], &[2], &[3], &[1, 2], &[1, 3], &[2, 3]] {
        ix.create(db, "fact", keys).expect("index");
    }
    for rel in ["dim_a", "dim_b", "dim_c", "s", "t"] {
        ix.create(db, rel, &[1]).expect("index");
    }
    ix
}

/// Rows out of every join node (hash, product or index nested loop).
fn join_rows(counters: &[(String, u64)]) -> u64 {
    counters
        .iter()
        .filter(|(l, _)| l == "join" || l == "product" || l.starts_with("index_nl_join("))
        .map(|(_, n)| n)
        .sum()
}

/// Three queries written in a deliberately bad order — `chain3` joins the
/// many-to-many pair first, `star4` applies the needle restriction last,
/// `buildside` puts the fact table on the hash-build side. Rule-only ≡
/// cost-based ≡ cost-based + indexes ≡ reference on each; the reordered
/// plans move fewer rows through their joins, the cardinality estimate
/// lands within 2× of the result at three joins, and the build-side query
/// is hinted onto the fact index, so the fact table is never scanned.
#[test]
fn join_order_cost_based_plans_join_fewer_rows() {
    let db = join_order_db();
    let stats = Arc::new(CatalogStats::from_database(&db).expect("analyze"));
    let eq = |a, b| ScalarExpr::attr(a).eq(ScalarExpr::attr(b));
    let needle = |dim| RelExpr::scan(dim).select(ScalarExpr::attr(2).eq(ScalarExpr::str("t7")));
    let queries = [
        (
            "chain3",
            RelExpr::scan("r")
                .join(RelExpr::scan("s"), eq(1, 3))
                .join(RelExpr::scan("t"), eq(4, 5)),
        ),
        (
            "star4",
            RelExpr::scan("fact")
                .join(RelExpr::scan("dim_a"), eq(1, 5))
                .join(RelExpr::scan("dim_b"), eq(2, 7))
                .join(needle("dim_c"), eq(3, 9)),
        ),
        (
            "buildside",
            needle("dim_a").join(RelExpr::scan("fact"), eq(1, 3)),
        ),
    ];
    for (name, expr) in queries {
        let rule_plan = Optimizer::standard()
            .optimize(&expr, db.schema())
            .expect("rule-only optimize")
            .expr;
        let cost_plan = Optimizer::standard()
            .with_stats(Arc::clone(&stats))
            .optimize(&expr, db.schema())
            .expect("cost-based optimize")
            .expr;
        let indexes = join_order_indexes(&db);
        let hints = choose_access_paths(&cost_plan, &stats, &indexes.definitions(), db.schema())
            .expect("hints");
        let hinted = hints.len();
        let indexed = Engine::physical()
            .with_indexes(indexes)
            .with_index_hints(hints);

        // the reference evaluator materialises every product, so it runs
        // the reordered plan; the rule-only plan keeps the written order
        let canonical = eval(&cost_plan, &db).expect("reference");
        let (rule_out, rule_counts) = run_counted(&Engine::physical(), &rule_plan, &db);
        let (cost_out, cost_counts) = run_counted(&Engine::physical(), &cost_plan, &db);
        let (indexed_out, indexed_counts) = run_counted(&indexed, &cost_plan, &db);
        assert_eq!(rule_out, canonical, "{name}: rule-only");
        assert_eq!(cost_out, canonical, "{name}: cost-based");
        assert_eq!(indexed_out, canonical, "{name}: cost-based + indexes");

        let est = estimate_rows(&cost_plan, &stats);
        let actual = canonical.len().max(1) as f64;
        if name == "star4" {
            assert!(
                est <= 2.0 * actual && actual <= 2.0 * est,
                "{name}: estimate {est} outside 2x of actual {actual}"
            );
        }
        // rows through the joins: written order → chosen order
        let rows = (join_rows(&rule_counts), join_rows(&cost_counts));
        assert_eq!(join_rows(&indexed_counts), rows.1, "{name}");
        match name {
            "chain3" => assert_eq!(rows, (200_409, 393)),
            "star4" => assert_eq!(rows, (8_204, 612)),
            _ => {
                // one join, so no order to win; the win is the access
                // path: the fact side is probed through its index
                assert_eq!((rows, hinted), ((210, 210), 1), "{name}");
                assert_eq!(rows_of(&rule_counts, "scan(fact)"), 4_000);
                assert!(
                    indexed_counts.iter().all(|(l, _)| l != "scan(fact)"),
                    "{name}: {indexed_counts:?}"
                );
            }
        }
    }
}

// ---- Key-licensed δ/γ elimination ----

/// With `key member(id)` declared, the optimized plans of four
/// distinct-heavy queries have no `distinct` and no `group-by` node, where
/// the keyless plan's δ (or keyed γ) hashes every row it receives; both
/// plans equal the reference.
#[test]
fn distinct_elim_keyed_plans_drop_delta_and_gamma() {
    let n = 5_000_u64;
    let member_attrs = [("id", Int), ("town", Int), ("score", Int), ("tag", Str)];
    let mut db = Database::new(schema(&[("member", &member_attrs)]));
    let mut r = rng(17);
    let rows: Vec<_> = (0..n)
        .map(|id| {
            tuple![
                id as i64,
                r.gen_range(0..100_i64),
                r.gen_range(0..1_000_i64),
                format!("member-{id:010}-{:010}", r.gen_range(0..1_000_000_i64))
            ]
        })
        .collect();
    load(&mut db, "member", rows);
    let mut keys = KeyEnv::new();
    keys.declare("member", vec![1]);

    let member = || RelExpr::scan("member");
    let filtered = || member().select(ScalarExpr::attr(3).cmp(CmpOp::Lt, ScalarExpr::int(900)));
    let n_filtered = eval(&filtered(), &db).expect("reference").len();
    assert_eq!(n_filtered, 4_482);
    let distinct_then_max = member().distinct().group_by(&[1], Aggregate::Max, 3);
    for (name, expr, blocking, input) in [
        ("dedup_group", distinct_then_max, "distinct", n),
        ("dedup_scan", member().distinct(), "distinct", n),
        (
            "dedup_filter",
            filtered().distinct(),
            "distinct",
            n_filtered,
        ),
        (
            "keyed_group",
            member().group_by(&[1], Aggregate::Sum, 3),
            "group-by",
            n,
        ),
    ] {
        let canonical = eval(&expr, &db).expect("reference");
        let plain_plan = Optimizer::standard()
            .optimize(&expr, db.schema())
            .expect("keyless optimize")
            .expr;
        let keyed_plan = Optimizer::standard()
            .with_keys(keys.clone())
            .optimize(&expr, db.schema())
            .expect("key-aware optimize")
            .expr;
        let (plain_out, plain_counts) = run_counted(&Engine::physical(), &plain_plan, &db);
        assert_eq!(input_of(&plain_counts, blocking), input, "{name}");
        assert_eq!(plain_out, canonical, "{name}: keyless plan");
        let (keyed_out, keyed_counts) = run_counted(&Engine::physical(), &keyed_plan, &db);
        let hashed = |(l, _): &(String, u64)| l == "distinct" || l == "group-by";
        assert!(!keyed_counts.iter().any(hashed), "{name}: {keyed_plan}");
        assert_eq!(keyed_out, canonical, "{name}: keyed plan");
    }
}

// ---- Group commit over the wire ----

/// In-memory storage whose `sync` takes 2 ms, standing in for disk fsync
/// latency. Natural group commit only batches when flushes are slower
/// than arrivals.
struct SlowSync(MemStorage);

impl Storage for SlowSync {
    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        self.0.read(name)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        self.0.append(name, bytes)
    }
    fn sync(&mut self, name: &str) -> StoreResult<()> {
        thread::sleep(Duration::from_millis(2));
        self.0.sync(name)
    }
    fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
        self.0.replace_atomic(name, bytes)
    }
    fn truncate(&mut self, name: &str, len: u64) -> StoreResult<()> {
        self.0.truncate(name, len)
    }
}

/// Four loopback clients × 10 commits under group commit with a 2 ms
/// sync, while two snapshot readers run 20 queries each. The flushes batch
/// (fewer syncs than commits), the readers finish (reads never wait on a
/// flush), and the reopened image holds all 40 acknowledged commits.
#[test]
fn group_commit_batches_syncs_and_loses_nothing() {
    let options = |fsync| StoreOptions {
        fsync,
        ..StoreOptions::default()
    };
    let storage = MemStorage::new();
    let db = ConcurrentDb::open(
        SlowSync(storage.clone()),
        DatabaseSchema::new(),
        options(FsyncPolicy::Group),
    );
    let db = Arc::new(db.expect("opens"));
    let hits = RelationSchema::new("hits", Schema::named(&[("client", Int), ("n", Int)]));
    db.ddl(Ddl::Relation(hits)).expect("declares");
    let (relation, attrs) = ("hits".to_owned(), vec![1, 2]);
    db.ddl(Ddl::Key { relation, attrs }).expect("key declares");
    let server = serve(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).expect("binds");
    let addr = server.local_addr();
    let syncs_before = storage.sync_count();

    let writers: Vec<_> = (0..4)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for n in 0..10 {
                    let insert = format!("INSERT INTO hits VALUES ({c}, {n})");
                    while !client.sql(&insert).expect("io ok").all_committed() {}
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                for _ in 0..20 {
                    let reply = client.sql("SELECT COUNT(*) FROM hits").expect("query");
                    assert_eq!(reply.results[0].len(), 1);
                }
            })
        })
        .collect();
    for t in writers.into_iter().chain(readers) {
        t.join().expect("client finishes");
    }
    let commits = 40;
    let syncs = storage.sync_count() - syncs_before;
    assert!(
        syncs < commits,
        "group commit did not batch: {syncs} syncs for {commits} commits"
    );

    db.sync().expect("syncs");
    server.shutdown();
    drop(db);
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        options(FsyncPolicy::Always),
    )
    .expect("recovers");
    let version = recovered.pin();
    assert_eq!(
        version.database().relation("hits").expect("present").len(),
        commits
    );
}
