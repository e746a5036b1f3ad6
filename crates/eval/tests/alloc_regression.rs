//! Allocation-regression tests for the hot row loops.
//!
//! The compact-row work (interned strings, `Arc`-shared tuples, resolved
//! key offsets with in-place hashing) is supposed to make the steady-state
//! per-row paths — filter rejection, hash-probe misses, group updates into
//! existing groups — allocation-free: the engine should allocate O(1) per
//! *batch* (the batch vectors themselves), never O(rows).
//!
//! The plans run on the physical engine's pipelines at one worker (the
//! schedule with no work-stealing bookkeeping, so every allocation left is
//! the plan's own).
//!
//! The methodology makes that directly observable: run the same plan at
//! two input sizes chosen so the **number of batches is identical** (rows
//! and batch size scale together). If per-row work allocates, the larger
//! run's allocation count grows ~4×; if only per-batch work allocates, the
//! counts are nearly equal. We assert the large run stays under 2× the
//! small one — loose enough for hash-map resizes and other O(log n) noise,
//! far below the 4× an O(rows) regression would produce.
//!
//! The counter is a process-global [`CountingAlloc`], so the measuring
//! sections are serialised behind a mutex (the test harness runs tests on
//! concurrent threads).

use std::sync::{Mutex, OnceLock};

use mera_core::counting_alloc::{allocations_during, CountingAlloc};
use mera_core::prelude::*;
use mera_core::tuple;
use mera_eval::{Engine, ExecOptions};
use mera_expr::rel::RelExpr;
use mera_expr::{Aggregate, ScalarExpr};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `r(k, v)` with `rows` rows: `k = i mod 16`, `v = i`.
fn db_with_r(rows: i64) -> Database {
    let schema = DatabaseSchema::new()
        .with("r", Schema::anon(&[DataType::Int, DataType::Int]))
        .expect("fresh")
        .with("s", Schema::anon(&[DataType::Int, DataType::Int]))
        .expect("fresh");
    let mut db = Database::new(schema);
    let rs = Arc::clone(db.schema().get("r").expect("declared"));
    let mut r = Relation::empty(rs);
    for i in 0..rows {
        r.insert(tuple![i % 16, i], 1).expect("typed");
    }
    db.replace("r", r).expect("replace");
    // s's keys are all negative: every probe from r misses
    let ss = Arc::clone(db.schema().get("s").expect("declared"));
    let mut s = Relation::empty(ss);
    for i in 0..64_i64 {
        s.insert(tuple![-(i + 1), i], 1).expect("typed");
    }
    db.replace("s", s).expect("replace");
    db
}

/// Runs `expr` on one worker at two scales with the same batch *count*
/// and asserts the allocation totals stay flat (per-batch, not per-row,
/// cost).
fn assert_flat_allocations(expr: &RelExpr, what: &str) {
    let _guard = lock();
    const SMALL_ROWS: i64 = 2_048;
    const BIG_ROWS: i64 = 8_192;
    const BATCHES: usize = 8;
    let small_db = db_with_r(SMALL_ROWS);
    let big_db = db_with_r(BIG_ROWS);
    let engine = |rows: i64| {
        Engine::physical().with_options(ExecOptions {
            batch_size: rows as usize / BATCHES,
            partitions: 1,
        })
    };
    let (small_engine, big_engine) = (engine(SMALL_ROWS), engine(BIG_ROWS));
    // warm-up: populate lazy statics (empty tuple, interner shards, the
    // worker pool) and fault in code paths so neither measured run pays
    // one-time costs
    small_engine.run(expr, &small_db).expect("evaluates");
    big_engine.run(expr, &big_db).expect("evaluates");

    let (small, _) = allocations_during(|| small_engine.run(expr, &small_db));
    let (big, _) = allocations_during(|| big_engine.run(expr, &big_db));
    assert!(small > 0, "{what}: counting allocator not engaged");
    assert!(
        big < small * 2,
        "{what}: allocations scale with rows, not batches \
         ({SMALL_ROWS} rows -> {small} allocs, {BIG_ROWS} rows -> {big} allocs)"
    );
}

#[test]
fn filter_rejection_is_allocation_free_per_row() {
    // σ rejects every row: the only allocations are the batch vectors
    let e = RelExpr::scan("r")
        .select(ScalarExpr::attr(2).cmp(mera_expr::CmpOp::Lt, ScalarExpr::int(-1)));
    assert_flat_allocations(&e, "filter reject-all");
}

#[test]
fn probe_misses_are_allocation_free_per_row() {
    // every r key misses the build side: probing hashes key columns in
    // place and produces no output rows
    let e = RelExpr::scan("r").join(
        RelExpr::scan("s"),
        ScalarExpr::attr(2).eq(ScalarExpr::attr(3)),
    );
    assert_flat_allocations(&e, "hash-probe all-miss");
}

#[test]
fn filter_project_probe_steady_state_allocates_per_batch() {
    // the survivor count is fixed (v < 64 keeps 64 rows at every input
    // size), so projection and probe output stay constant while the
    // filtered row volume scales
    let e = RelExpr::scan("r")
        .select(ScalarExpr::attr(2).cmp(mera_expr::CmpOp::Lt, ScalarExpr::int(64)))
        .project(&[2, 1])
        .join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
    assert_flat_allocations(&e, "filter -> project -> probe");
}

#[test]
fn columnar_project_then_reject_all_allocates_per_batch() {
    // a bare-column projection reorders whole columns (per-batch gathers,
    // no per-row tuple assembly); the reject-all filter after it proves the
    // projected batches flow through the vectorized mask without
    // materialising rows
    let e = RelExpr::scan("r")
        .project(&[2, 1])
        .select(ScalarExpr::attr(1).cmp(mera_expr::CmpOp::Lt, ScalarExpr::int(-1)));
    assert_flat_allocations(&e, "columnar project -> filter reject-all");
}

#[test]
fn columnar_int_arithmetic_allocates_per_batch() {
    // κ with Int arithmetic runs element-wise over the unboxed i64 column
    // (one output vector per batch); the reject-all filter keeps the
    // pipeline's output empty so only the per-batch vectors remain
    let e = RelExpr::scan("r")
        .ext_project(vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2)
                .mul(ScalarExpr::int(3))
                .add(ScalarExpr::attr(1)),
        ])
        .select(ScalarExpr::attr(2).cmp(mera_expr::CmpOp::Lt, ScalarExpr::int(-1)));
    assert_flat_allocations(&e, "columnar int arithmetic -> filter reject-all");
}

#[test]
fn group_updates_into_existing_groups_do_not_allocate() {
    // 16 groups at every scale; the group count (and each group's distinct
    // value set) is fixed, so updates after warm-up hit existing entries
    let e = RelExpr::scan("r").group_by(&[1], Aggregate::Cnt, 1);
    assert_flat_allocations(&e, "group-by fixed groups");
}
