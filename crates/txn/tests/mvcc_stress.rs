//! N-writer / M-reader stress over the MVCC manager, asserting snapshot
//! isolation: every read — concurrent with any number of in-flight
//! transfers — sees a state where money is conserved, and committed
//! history is a single serial order.
//!
//! The workload is the classic bank invariant: `ACCOUNTS` accounts each
//! seeded with `SEED` units; writers move one unit between two random
//! accounts per transaction (a two-statement program, so a torn read
//! would see the debit without the credit); readers repeatedly pin a
//! snapshot and check `SUM(balance)`. First-committer-wins conflicts on
//! the key-point granularity are expected and retried.
//!
//! This test is the designated ThreadSanitizer target for the MVCC
//! layer (see the `tsan` job in CI): it hammers pin/prepare/commit from
//! many threads with no external synchronization of its own.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use mera_core::prelude::*;
use mera_core::relation::relation_of;
use mera_core::tuple;
use mera_expr::{Aggregate, RelExpr, ScalarExpr};
use mera_txn::{AbortReason, Ddl, DdlError, MvccManager, Outcome, Program, Statement};

const ACCOUNTS: i64 = 12;
const SEED: i64 = 100;
const WRITERS: usize = 4;
const READERS: usize = 4;
const TRANSFERS_PER_WRITER: usize = 60;

fn acct_schema() -> Schema {
    Schema::named(&[("id", DataType::Int), ("bal", DataType::Int)])
}

/// One transfer: debit `from`, credit `to` — two statements, one
/// atomic program.
fn transfer(from: i64, to: i64) -> Program {
    let touch = |id: i64| RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::int(id)));
    Program::new()
        .then(Statement::update(
            "acct",
            touch(from),
            vec![
                ScalarExpr::attr(1),
                ScalarExpr::attr(2).sub(ScalarExpr::int(1)),
            ],
        ))
        .then(Statement::update(
            "acct",
            touch(to),
            vec![
                ScalarExpr::attr(1),
                ScalarExpr::attr(2).add(ScalarExpr::int(1)),
            ],
        ))
}

fn total_balance() -> Program {
    Program::single(Statement::query(RelExpr::scan("acct").group_by(
        &[],
        Aggregate::Sum,
        2,
    )))
}

/// Splitmix-style deterministic per-thread randomness (no rand dep).
fn next_rand(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[test]
fn concurrent_transfers_conserve_money_under_snapshot_reads() {
    let schema = DatabaseSchema::new()
        .with("acct", acct_schema())
        .expect("fresh");
    let mgr = Arc::new(MvccManager::new(schema));
    let (relation, attrs) = ("acct".to_owned(), vec![1]);
    let key = Ddl::Key { relation, attrs };
    mgr.ddl(&key, || Ok::<(), DdlError>(()))
        .expect("key declares");
    let rows: Vec<Tuple> = (0..ACCOUNTS).map(|id| tuple![id, SEED]).collect();
    let seed = relation_of(acct_schema(), rows).expect("typed");
    let (outcome, _) = mgr.execute(&Program::single(Statement::insert(
        "acct",
        RelExpr::values(seed),
    )));
    assert!(outcome.is_committed());

    let done = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let conflicts = Arc::new(AtomicU64::new(0));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mgr = Arc::clone(&mgr);
            let committed = Arc::clone(&committed);
            let conflicts = Arc::clone(&conflicts);
            thread::spawn(move || {
                let mut rng = 0x9e3779b97f4a7c15_u64.wrapping_add(w as u64);
                for _ in 0..TRANSFERS_PER_WRITER {
                    let from = (next_rand(&mut rng) % ACCOUNTS as u64) as i64;
                    let to = (next_rand(&mut rng) % ACCOUNTS as u64) as i64;
                    if from == to {
                        continue;
                    }
                    let program = transfer(from, to);
                    // retry conflicts; anything else is a real failure
                    loop {
                        match mgr.execute(&program) {
                            (Outcome::Committed(_), _) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            (Outcome::Aborted(AbortReason::Conflict { .. }), _) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                            (Outcome::Aborted(other), _) => {
                                panic!("unexpected abort: {other}")
                            }
                        }
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let mgr = Arc::clone(&mgr);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let query = total_balance();
                let mut last_time = 0;
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) || reads == 0 {
                    let version = mgr.pin();
                    // pinned snapshots never move backwards on a session
                    assert!(
                        version.time() >= last_time,
                        "snapshot regressed: {} < {last_time}",
                        version.time()
                    );
                    last_time = version.time();
                    let prepared = mgr
                        .prepare(Arc::clone(&version), &query)
                        .expect("query runs");
                    assert!(prepared.is_read_only(), "the query writes");
                    let sum = &prepared.outputs().queries[0];
                    assert_eq!(
                        sum.multiplicity(&tuple![ACCOUNTS * SEED]),
                        1,
                        "money not conserved in snapshot at t={}: {sum}",
                        version.time()
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer joins");
    }
    done.store(true, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().expect("joins")).sum();
    assert!(total_reads >= READERS as u64);

    // the final state conserves money and its clock counts exactly the
    // committed transactions (seed + transfers; reads never tick)
    let final_version = mgr.pin();
    let prepared = mgr
        .prepare(Arc::clone(&final_version), &total_balance())
        .expect("final read");
    assert!(prepared.is_read_only(), "the query writes");
    let sum = &prepared.outputs().queries[0];
    assert_eq!(sum.multiplicity(&tuple![ACCOUNTS * SEED]), 1);
    assert_eq!(
        final_version.time(),
        1 + committed.load(Ordering::Relaxed),
        "clock must tick once per committed transaction"
    );
}

#[test]
fn pinned_snapshot_is_immutable_while_writers_race() {
    let schema = DatabaseSchema::new()
        .with("acct", acct_schema())
        .expect("fresh");
    let mgr = Arc::new(MvccManager::new(schema));
    let seed = relation_of(acct_schema(), vec![tuple![1_i64, SEED]]).expect("typed");
    let (outcome, pinned) = mgr.execute(&Program::single(Statement::insert(
        "acct",
        RelExpr::values(seed),
    )));
    assert!(outcome.is_committed());

    // hammer the manager while holding the old pin
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                for n in 0..20 {
                    let row = relation_of(acct_schema(), vec![tuple![100 + n as i64, w as i64]])
                        .expect("typed");
                    loop {
                        let (outcome, _) = mgr.execute(&Program::single(Statement::insert(
                            "acct",
                            RelExpr::values(row.clone()),
                        )));
                        match outcome {
                            Outcome::Committed(_) => break,
                            Outcome::Aborted(AbortReason::Conflict { .. }) => continue,
                            Outcome::Aborted(other) => panic!("unexpected abort: {other}"),
                        }
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("joins");
    }

    // the pre-race pin still reads its original state
    let scan = Program::single(Statement::query(RelExpr::scan("acct")));
    let prepared = mgr.prepare(pinned, &scan).expect("stale read runs");
    assert!(prepared.is_read_only(), "the scan writes");
    assert_eq!(prepared.outputs().queries[0].len(), 1);
    // and the latest version has everything
    let prepared = mgr.prepare(mgr.pin(), &scan).expect("fresh read runs");
    assert!(prepared.is_read_only(), "the scan writes");
    assert_eq!(
        prepared.outputs().queries[0].len(),
        1 + (WRITERS as u64) * 20
    );
}
