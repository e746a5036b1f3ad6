//! Store options, file names, and **recovery**: rebuilding the one
//! [`Version`] a database restarts from out of its two files.
//!
//! A [`Storage`] root holds the WAL (`mera.wal`) and the latest
//! checkpoint snapshot (`mera.snapshot`). The protocol is classical
//! write-ahead logging with logical redo records (the live half — commit,
//! DDL, checkpoint — is [`ConcurrentDb`](crate::ConcurrentDb)'s):
//!
//! * **Commit** — one [`WalRecord::Delta`] frame (logical time + the net
//!   ℤ-delta the commit publishes) is appended *before* the new version
//!   is published. A crash between append and publish re-applies the
//!   record at recovery; a crash before the append loses only an
//!   unacknowledged transaction.
//! * **Abort** — nothing is written, nothing is published, the clock does
//!   not move.
//! * **Checkpoint** — atomically replace the snapshot with the full
//!   current state, then reset the WAL to an empty header. Crashing
//!   between the two steps is safe: recovery skips WAL commits at or
//!   before the snapshot time.
//! * **Recovery** ([`recover`]) — load the snapshot (if any), scan the
//!   WAL, truncate the torn tail, then fold declarations and deltas in
//!   order into a single owned [`Version`] through [`Version::apply`]
//!   (the live rebase step): no program is re-run. A run of consecutive
//!   commit deltas is summed first and applied once — ℤ-deltas add, so
//!   `D + Δ₁ + … + Δₖ = D + (Δ₁ + … + Δₖ)`, and indexes, keys and views
//!   are refreshed once per run instead of once per commit.

use crate::error::{StoreError, StoreResult};
use crate::snapshot;
use crate::storage::Storage;
use crate::wal::{self, WalRecord};
use mera_core::prelude::*;
use mera_txn::mvcc::Version;
use mera_txn::{DeclareKeyError, DeltaMap, ExecConfig};

/// Name of the write-ahead log file inside a [`Storage`] root.
pub const WAL_FILE: &str = "mera.wal";

/// Name of the checkpoint snapshot file inside a [`Storage`] root.
pub const SNAPSHOT_FILE: &str = "mera.snapshot";

/// When the WAL file is flushed to stable storage.
///
/// The policy trades commit latency against the window of acknowledged
/// transactions a crash can lose. It only affects real-file backends; the
/// in-memory fault-injecting backend treats every written byte as durable
/// so crash tests stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every commit record. No acknowledged commit is ever
    /// lost; slowest.
    Always,
    /// Group commit: commits stage their frames and one fsync covers
    /// every frame staged while the previous one was in flight. No
    /// transaction is acknowledged before its frame is durable; the `n`
    /// is a batching hint and does not gate the flush.
    EveryN(u32),
    /// Never fsync the WAL from the commit path (the OS flushes when it
    /// pleases). Fastest; a crash may lose any commit since the last
    /// checkpoint.
    Never,
}

/// Configuration for a [`ConcurrentDb`](crate::ConcurrentDb).
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// WAL flush policy.
    pub fsync: FsyncPolicy,
    /// Execution configuration for transactions and view maintenance.
    pub exec: ExecConfig,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            exec: ExecConfig::default(),
        }
    }
}

/// Opens (or creates) the durable state in `storage` and returns the
/// version the database restarts from.
///
/// With no prior files this initializes a fresh database over
/// `initial_schema` and writes one `Declare` record per relation, so the
/// WAL alone reconstructs the catalog. With prior files it runs recovery:
/// snapshot restore, torn-tail truncation, then replay. `initial_schema`
/// is ignored when durable state exists — the files are the source of
/// truth. Either way the WAL ends at a clean frame boundary afterwards.
pub fn recover<S: Storage>(
    mut storage: S,
    initial_schema: DatabaseSchema,
    exec: ExecConfig,
) -> StoreResult<(S, Version)> {
    let snapshot_bytes = storage.read(SNAPSHOT_FILE)?;
    let wal_bytes = match storage.read(WAL_FILE)? {
        // A WAL shorter than its magic can only be a crash during
        // initial creation (every later state starts with the full
        // header): treat it as absent and re-create.
        Some(bytes)
            if bytes.len() < wal::WAL_MAGIC.len() && wal::WAL_MAGIC.starts_with(&bytes[..]) =>
        {
            None
        }
        other => other,
    };

    if snapshot_bytes.is_none() && wal_bytes.is_none() {
        // Fresh open: materialize the initial schema into the WAL,
        // atomically — a crash mid-creation leaves no live WAL file,
        // so the next open starts fresh again.
        let db = Database::new(initial_schema);
        let mut bytes = wal::empty_wal();
        let mut names: Vec<&str> = db.relation_names().collect();
        names.sort_unstable();
        for name in names {
            let record = WalRecord::Declare {
                name: name.to_string(),
                schema: db.relation(name)?.schema().as_ref().clone(),
            };
            bytes.extend_from_slice(&record.encode_frame());
        }
        storage.replace_atomic(WAL_FILE, &bytes)?;
        return Ok((storage, Version::new(db)?));
    }

    // the snapshot carries relations only: statistics restart from a full
    // analyze of the restored state, views, indexes and keys from their
    // logged declarations, then replay folds each commit's delta exactly
    // like the live path did
    let mut version = Version::new(match snapshot_bytes {
        Some(bytes) => snapshot::decode(&bytes)?,
        None => Database::new(DatabaseSchema::new()),
    })?;
    let snapshot_time = version.time();

    match wal_bytes {
        None => {
            // A snapshot with no (or torn-at-creation) WAL: start a
            // fresh log. `replace_atomic` also clears any partial
            // header bytes left by the crash.
            storage.replace_atomic(WAL_FILE, &wal::empty_wal())?;
        }
        Some(bytes) => {
            let scanned = wal::scan(&bytes)?;
            if scanned.valid_len < bytes.len() as u64 {
                // Torn tail from a crash mid-append: drop it so the
                // next append starts at a frame boundary.
                storage.truncate(WAL_FILE, scanned.valid_len)?;
                storage.sync(WAL_FILE)?;
            }
            let mut run = None;
            for record in scanned.records {
                replay(&mut version, &mut run, record, snapshot_time, exec)?;
            }
            apply_run(&mut run, &mut version, exec)?;
        }
    }
    Ok((storage, version))
}

/// Applies one recovered WAL record to the rebuilding version, in place;
/// a commit delta joins the current run instead.
fn replay(
    version: &mut Version,
    run: &mut DeltaRun,
    record: WalRecord,
    snapshot_time: u64,
    config: ExecConfig,
) -> StoreResult<()> {
    let record = match record {
        WalRecord::Delta { time, deltas } if time > snapshot_time => {
            return fold_delta(run, version, time, deltas);
        }
        other => other,
    };
    // any other record applies after the commits logged before it
    apply_run(run, version, config)?;
    match record {
        WalRecord::Declare { name, schema } => {
            // Declarations covered by the snapshot re-appear in the
            // WAL; identical re-declarations are no-ops, conflicting
            // ones mean the log belongs to a different database.
            if let Ok(schema_ref) = version.database().schema().get(&name) {
                if schema_ref.as_ref() == &schema {
                    return Ok(());
                }
                return Err(StoreError::CorruptWal(format!(
                    "declaration of '{name}' conflicts with the recovered schema"
                )));
            }
            Ok(version.add_relation(RelationSchema::new(name, schema))?)
        }
        WalRecord::DeclareView { name, text } => {
            let expr = mera_lang::lower_rel(&version.catalog_schema(), &text)?;
            version.create_view(&name, expr, config)?;
            Ok(())
        }
        // only the definition of an index is durable: entries are rebuilt
        // from the recovered relation, then delta-maintained by the
        // commits replayed after this record (a repeated definition, as
        // older builds logged one, adds nothing)
        WalRecord::DeclareIndex { relation, keys } => {
            version.create_index(&relation, &keys)?;
            Ok(())
        }
        WalRecord::DeclareKey { relation, attrs } => {
            // likewise only the definition of a key is durable: the
            // recovered relation is re-validated and the key's index found
            // or rebuilt (re-logged declarations are no-ops). The record
            // was logged after a successful declaration, and every commit
            // after it was enforced, so a refusal here means the log
            // belongs to a different history.
            if version.keys().is_declared(&relation, &attrs) {
                return Ok(());
            }
            version.declare_key(&relation, &attrs).map_err(|e| match e {
                DeclareKeyError::Rejected(d) => StoreError::CorruptWal(format!(
                    "recovered data violates the logged key declaration: {}",
                    d.message
                )),
                DeclareKeyError::Error(c) => StoreError::Core(c),
            })
        }
        // already folded into the snapshot (a later delta joined the run)
        WalRecord::Commit { time, .. } if time <= snapshot_time => Ok(()),
        WalRecord::Delta { .. } => Ok(()),
        WalRecord::Commit { time, .. } => Err(StoreError::TextCommitRecord { time }),
    }
}

/// A run of consecutive commit deltas not yet applied: the times of its
/// first and last commit and their sum.
type DeltaRun = Option<(u64, u64, DeltaMap)>;

/// Adds the delta committed at `time` to the run, after checking that it
/// follows the run's last commit (or the version, when the run is empty).
fn fold_delta(
    run: &mut DeltaRun,
    version: &Version,
    time: u64,
    deltas: DeltaMap,
) -> StoreResult<()> {
    let after = run.as_ref().map_or(version.time(), |&(_, last, _)| last);
    if time != after + 1 {
        return Err(StoreError::CorruptWal(format!(
            "delta record at t={time} does not follow t={after}"
        )));
    }
    let Some((_, last, sum)) = run else {
        *run = Some((time, time, deltas));
        return Ok(());
    };
    *last = time;
    for (name, delta) in deltas {
        match sum.get_mut(&name) {
            Some(total) => total.absorb(delta)?,
            None => {
                sum.insert(name, delta);
            }
        }
    }
    Ok(())
}

/// Applies the run's sum at the time of its last commit; the commits
/// before it tick the clock with nothing to apply.
fn apply_run(run: &mut DeltaRun, version: &mut Version, config: ExecConfig) -> StoreResult<()> {
    let Some((first, last, sum)) = run.take() else {
        return Ok(());
    };
    let corrupt = |reason| {
        StoreError::CorruptWal(format!(
            "delta records at t={first}..={last} do not apply: {reason}"
        ))
    };
    for _ in first..last {
        version.apply(DeltaMap::new(), config).map_err(corrupt)?;
    }
    version.apply(sum, config).map_err(corrupt)
}
