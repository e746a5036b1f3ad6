//! Commit cost as counts.
//!
//! A commit integrates its ℤ-delta into the newest version,
//! `D_{t+1} = D_t + Δ` (`Version::apply`), on a clone of that version.
//! Every map under a version — relations, index buckets (which also
//! enforce the key), view contents — is a persistent hash trie, so the
//! clone shares all of it and the fold copies one trie path per changed
//! element. A one-row commit therefore costs about the same on a 200-row
//! table as on a 10 000-row one; a whole-database copy would cost 50×
//! more. A view's maintenance plan is writer state, shared by the
//! versions of its lineage and edited in place: the fold copies none of
//! it.
//!
//! The workload is `oltp_commit`'s: `account(id, branch, balance)` with a
//! key and an index on `id`, loaded in 2 000-row commits, and one
//! `UPDATE … SET balance = balance + 1 WHERE id = k` per commit, driven
//! through `MvccManager` directly.
//!
//! (c) holds a maintained γ to the same rule: a view's share of a
//! commit does not grow with the groups the commit touches. (d) holds a
//! maintained join to a stricter one: its share does not grow with the
//! joined relation at all, because its indexes are edited in place.
//!
//! The counters are the process-global [`CountingAlloc`], so the
//! measuring sections are serialised behind a mutex (the test harness
//! runs tests on concurrent threads).

use std::convert::Infallible;
use std::sync::{Mutex, OnceLock};

use mera_core::counting_alloc::{allocation_count, live_bytes, CountingAlloc};
use mera_core::prelude::*;
use mera_expr::{Aggregate, RelExpr, ScalarExpr};
use mera_txn::{Ddl, DdlError, MvccManager, Program, Statement};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn account() -> Schema {
    Schema::named(&[
        ("id", DataType::Int),
        ("branch", DataType::Int),
        ("balance", DataType::Int),
    ])
}

/// `rows` accounts set up as the benchmark sets them up: the key first,
/// then 2 000-row insert commits, then the index.
fn loaded(rows: i64) -> MvccManager {
    let mgr = MvccManager::new(
        DatabaseSchema::new()
            .with("account", account())
            .expect("fresh"),
    );
    let (relation, attrs) = ("account".to_owned(), vec![1]);
    let key = Ddl::Key { relation, attrs };
    mgr.ddl(&key, || Ok::<(), DdlError>(())).expect("declares");
    for start in (0..rows).step_by(2_000) {
        let batch = (start..rows.min(start + 2_000)).map(|id| tuple![id, id % 10, 100_i64]);
        let rel = relation_of(account(), batch.collect()).expect("typed");
        let load = Program::single(Statement::insert("account", RelExpr::values(rel)));
        assert!(mgr.execute(&load).0.is_committed());
    }
    let (relation, attrs) = ("account".to_owned(), vec![1]);
    let index = Ddl::Index { relation, attrs };
    mgr.ddl(&index, || Ok::<(), DdlError>(())).expect("indexes");
    mgr
}

/// `UPDATE account SET balance = balance + 1 WHERE id = k`.
fn bump(k: i64) -> Program {
    Program::single(Statement::update(
        "account",
        RelExpr::scan("account").select(ScalarExpr::attr(1).eq(ScalarExpr::int(k))),
        vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2),
            ScalarExpr::attr(3).add(ScalarExpr::int(1)),
        ],
    ))
}

/// One one-row update commit, prepared and committed: the allocations it
/// makes, and the bytes the version it publishes holds beyond its
/// predecessor (which stays pinned, as a concurrent reader would pin it).
fn commit_cost(mgr: &MvccManager, k: i64) -> (u64, u64) {
    let program = bump(k);
    let predecessor = mgr.pin();
    let (allocs, bytes) = (allocation_count(), live_bytes());
    let prepared = mgr.prepare(mgr.pin(), &program).expect("runs");
    let (outcome, _) = mgr
        .try_commit::<Infallible>(prepared, |_| Ok(()))
        .expect("no durability hook");
    let cost = (
        allocation_count() - allocs,
        live_bytes().saturating_sub(bytes),
    );
    assert!(outcome.is_committed(), "{outcome:?}");
    drop(predecessor);
    cost
}

/// The median cost of a few commits after one warm-up commit.
fn median_commit_cost(rows: i64) -> (u64, u64) {
    let mgr = loaded(rows);
    commit_cost(&mgr, 1);
    let mut costs: Vec<(u64, u64)> = (0..5).map(|i| commit_cost(&mgr, 7 + 31 * i)).collect();
    let mut allocs: Vec<u64> = costs.iter().map(|c| c.0).collect();
    allocs.sort_unstable();
    costs.sort_unstable_by_key(|c| c.1);
    (allocs[2], costs[2].1)
}

/// (a) The cost of a one-row commit does not grow with the table: 50×
/// the rows may cost at most 2× the allocations and 2× the bytes. A
/// commit that copied the database, its index and its key counts measured
/// 341 → 10 151 allocations (30×) and 35 811 → 1 739 795 B (49×) here.
#[test]
fn one_row_commit_cost_is_flat_in_table_size() {
    let _guard = lock();
    let (small_allocs, small_bytes) = median_commit_cost(200);
    let (big_allocs, big_bytes) = median_commit_cost(10_000);
    eprintln!(
        "one-row commit: 200 rows {small_allocs} allocations / {small_bytes} B, \
         10 000 rows {big_allocs} allocations / {big_bytes} B"
    );
    assert!(
        big_allocs <= 2 * small_allocs,
        "allocations grew with the table: {small_allocs} at 200 rows, {big_allocs} at 10 000"
    );
    assert!(
        big_bytes <= 2 * small_bytes,
        "bytes grew with the table: {small_bytes} B at 200 rows, {big_bytes} B at 10 000"
    );
}

/// (b) Sharing costs no memory at rest: one loaded 10 000-row version
/// (relation, index, statistics), with no other version
/// alive, holds at most 1.10× what it held as plain hash maps —
/// 3 738 822 bytes, measured with this test before the change.
#[test]
fn a_loaded_version_holds_no_more_than_hash_maps_did() {
    const HASH_MAP_VERSION_BYTES: u64 = 3_738_822;
    let _guard = lock();
    let base = live_bytes();
    let mgr = loaded(10_000);
    let version = mgr.pin();
    drop(mgr);
    let held = live_bytes().saturating_sub(base);
    assert_eq!(
        version.database().relation("account").expect("rel").len(),
        10_000
    );
    eprintln!("one loaded 10 000-row version holds {held} B");
    assert!(
        held * 10 <= HASH_MAP_VERSION_BYTES * 11,
        "a loaded version holds {held} B, over 1.10 × {HASH_MAP_VERSION_BYTES} B"
    );
}

fn orders() -> Schema {
    Schema::named(&[
        ("region", DataType::Int),
        ("amount", DataType::Int),
        ("id", DataType::Int),
    ])
}

/// 20 000 orders in two regions, each region holding `distinct` distinct
/// amounts, with or without the view `γ[(1), SUM, 2](orders)`.
fn churn_db(distinct: i64, view: bool) -> MvccManager {
    let mgr = MvccManager::new(
        DatabaseSchema::new()
            .with("orders", orders())
            .expect("fresh"),
    );
    if view {
        let expr = RelExpr::scan("orders").group_by(&[1], Aggregate::Sum, 2);
        let ddl = Ddl::View {
            name: "totals".to_owned(),
            expr,
        };
        mgr.ddl(&ddl, || Ok::<(), DdlError>(())).expect("creates");
    }
    let rows = (0..20_000_i64).map(|id| tuple![id % 2, (id / 2) % distinct, id]);
    let rel = relation_of(orders(), rows.collect()).expect("typed");
    let load = Program::single(Statement::insert("orders", RelExpr::values(rel)));
    assert!(mgr.execute(&load).0.is_committed());
    mgr
}

/// The allocations of one 2-row churn commit: order `id` retracted and
/// re-asserted with a new amount.
fn churn_cost(mgr: &MvccManager, id: i64) -> u64 {
    let program = Program::single(Statement::update(
        "orders",
        RelExpr::scan("orders").select(ScalarExpr::attr(3).eq(ScalarExpr::int(id))),
        vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2).add(ScalarExpr::int(1)),
            ScalarExpr::attr(3),
        ],
    ));
    let predecessor = mgr.pin();
    let allocs = allocation_count();
    let prepared = mgr.prepare(mgr.pin(), &program).expect("runs");
    let (outcome, _) = mgr
        .try_commit::<Infallible>(prepared, |_| Ok(()))
        .expect("no durability hook");
    let cost = allocation_count() - allocs;
    assert!(outcome.is_committed(), "{outcome:?}");
    drop(predecessor);
    cost
}

/// The view's share of each of a few churn commits: the same commits'
/// allocations with the view, minus those without it, on the same base
/// data (whose own cost depends on its contents).
fn view_churn_costs(distinct: i64) -> Vec<u64> {
    let (with, without) = (churn_db(distinct, true), churn_db(distinct, false));
    let ids = [4_001, 4_003, 9_002, 15_004];
    ids.iter()
        .map(|&id| churn_cost(&with, id) - churn_cost(&without, id))
        .collect()
}

/// (c) A γ group folds a commit's delta into an exact count and sum, so
/// refreshing `γ[(1), SUM, 2]` after a 2-row commit allocates the same
/// whether each group holds 100 or 10 000 distinct amounts. A group that
/// kept its value bag copied one trie path per touched value, and the path
/// deepens with the group.
#[test]
fn view_refresh_cost_is_flat_in_group_size() {
    let _guard = lock();
    let small = view_churn_costs(100);
    let big = view_churn_costs(10_000);
    eprintln!("view share of a 2-row churn commit: 100 values/group {small:?}, 10 000 {big:?}");
    assert_eq!(
        small, big,
        "view refresh allocations grew with the group: {small:?} at 100 values, {big:?} at 10 000"
    );
}

fn sales() -> Schema {
    Schema::named(&[
        ("id", DataType::Int),
        ("cust", DataType::Int),
        ("amount", DataType::Int),
    ])
}

fn customers() -> Schema {
    Schema::named(&[("cust", DataType::Int), ("region", DataType::Int)])
}

/// `rows` sales of amount 0, 20 per customer, over `rows / 20`
/// customers in two regions, with or without `view_churn`'s view shape
/// over them: `γ[(5), SUM, 3](sales ⋈[%2 = %4] customers)`. The sums
/// start at 0 whatever the size, so the view holds the same rows at
/// every size.
fn sales_db(rows: i64, view: bool) -> MvccManager {
    let mgr = MvccManager::new(
        DatabaseSchema::new()
            .with("sales", sales())
            .expect("fresh")
            .with("customers", customers())
            .expect("fresh"),
    );
    if view {
        let joined = RelExpr::scan("sales").join(
            RelExpr::scan("customers"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        );
        let ddl = Ddl::View {
            name: "revenue".to_owned(),
            expr: joined.group_by(&[5], Aggregate::Sum, 3),
        };
        mgr.ddl(&ddl, || Ok::<(), DdlError>(())).expect("creates");
    }
    let custs = rows / 20;
    let sold = (0..rows).map(|id| tuple![id, id % custs, 0_i64]);
    let sold = relation_of(sales(), sold.collect()).expect("typed");
    let custs = (0..custs).map(|c| tuple![c, c % 2]);
    let custs = relation_of(customers(), custs.collect()).expect("typed");
    let load = Program::new()
        .then(Statement::insert("sales", RelExpr::values(sold)))
        .then(Statement::insert("customers", RelExpr::values(custs)));
    assert!(mgr.execute(&load).0.is_committed());
    mgr
}

/// The allocations of one 2-row churn commit: sale `id` retracted and
/// re-asserted with a larger amount, under the same customer.
fn sales_churn_cost(mgr: &MvccManager, id: i64) -> u64 {
    let program = Program::single(Statement::update(
        "sales",
        RelExpr::scan("sales").select(ScalarExpr::attr(1).eq(ScalarExpr::int(id))),
        vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2),
            ScalarExpr::attr(3).add(ScalarExpr::int(1)),
        ],
    ));
    let predecessor = mgr.pin();
    let allocs = allocation_count();
    let prepared = mgr.prepare(mgr.pin(), &program).expect("runs");
    let (outcome, _) = mgr
        .try_commit::<Infallible>(prepared, |_| Ok(()))
        .expect("no durability hook");
    let cost = allocation_count() - allocs;
    assert!(outcome.is_committed(), "{outcome:?}");
    drop(predecessor);
    cost
}

/// The view's share of each of a few churn commits on `rows` sales, as
/// in (c): with the view minus without it. The churned sales belong to
/// the same customers at every size, so each commit changes the same
/// base, join and γ rows.
fn join_view_churn_costs(rows: i64) -> Vec<u64> {
    let (with, without) = (sales_db(rows, true), sales_db(rows, false));
    let ids = [1, 3, 17, 42];
    ids.iter()
        .map(|&id| sales_churn_cost(&with, id) - sales_churn_cost(&without, id))
        .collect()
}

/// (d) A join's indexes are writer state, edited in place, so refreshing
/// a γ over `sales ⋈ customers` after a 2-row commit allocates the same
/// whether `sales` holds 1 000 or 50 000 rows (50 or 2 500 join keys).
/// Indexes held in the published version copied one trie path per
/// touched key, and the path deepens with the keys.
#[test]
fn join_view_refresh_cost_is_flat_in_joined_size() {
    let _guard = lock();
    let small = join_view_churn_costs(1_000);
    let big = join_view_churn_costs(50_000);
    eprintln!("join view share of a 2-row churn commit: 1 000 rows {small:?}, 50 000 {big:?}");
    assert_eq!(
        small, big,
        "join view refresh allocations grew with the joined relation: \
         {small:?} at 1 000 rows, {big:?} at 50 000"
    );
}
