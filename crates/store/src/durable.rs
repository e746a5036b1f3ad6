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
//! * **Schema change** — one declaration record per admitted [`Ddl`],
//!   appended before the DDL version is published; a refused or no-op
//!   change writes nothing. `ddl_record` and `logged_ddl` here are the
//!   only code that maps a [`Ddl`] to its [`WalRecord`] and back.
//! * **Checkpoint** — atomically replace the snapshot with the full
//!   current state, then reset the WAL to an empty header. Crashing
//!   between the two steps is safe: recovery skips WAL commits at or
//!   before the snapshot time.
//! * **Recovery** ([`recover`]) — load the snapshot (if any), scan the
//!   WAL, truncate the torn tail, then fold declarations and deltas in
//!   order into a single owned [`Version`], through [`Version::admit`]
//!   and [`Version::apply`] (the live steps): no program is re-run. A
//!   run of consecutive commit deltas is summed first and applied once —
//!   ℤ-deltas add, so `D + Δ₁ + … + Δₖ = D + (Δ₁ + … + Δₖ)`, and
//!   indexes, keys and views are refreshed once per run instead of once
//!   per commit.

use crate::error::{StoreError, StoreResult};
use crate::snapshot;
use crate::storage::Storage;
use crate::wal::{self, WalRecord};
use mera_core::prelude::*;
use mera_lang::rel_to_xra;
use mera_txn::mvcc::Version;
use mera_txn::{Ddl, DdlError, DeltaMap, ExecConfig};

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
    /// transaction is acknowledged before its frame is durable.
    Group,
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
            let rs = RelationSchema::new(name, Schema::clone(db.relation(name)?.schema()));
            bytes.extend_from_slice(&ddl_record(&Ddl::Relation(rs)).encode_frame());
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
        WalRecord::Commit { time, .. } if time > snapshot_time => {
            return Err(StoreError::TextCommitRecord { time });
        }
        other => other,
    };
    // any other record applies after the commits logged before it
    apply_run(run, version, config)?;
    let Some(ddl) = logged_ddl(record, version)? else {
        // a commit already folded into the snapshot
        return Ok(());
    };
    match &ddl {
        // Declarations covered by the snapshot re-appear in the WAL;
        // identical re-declarations are no-ops, conflicting ones mean the
        // log belongs to a different database.
        Ddl::Relation(rs) => {
            if let Ok(schema) = version.database().schema().get(&rs.name) {
                if schema == &rs.schema {
                    return Ok(());
                }
                return Err(StoreError::CorruptWal(format!(
                    "declaration of '{}' conflicts with the recovered schema",
                    rs.name
                )));
            }
        }
        // a key re-logged (by a checkpoint, or an older build) is a no-op
        Ddl::Key { relation, attrs } if version.keys().is_declared(relation, attrs) => {
            return Ok(());
        }
        _ => {}
    }
    // Only definitions are durable: a view's contents, an index's entries
    // and a key's check are rebuilt from the recovered relations, then
    // maintained by the commits replayed after this record. The record
    // was logged after a successful admission, and every commit after it
    // was checked, so a refusal means the log belongs to another history.
    match version.admit(&ddl, config) {
        Ok(_) => Ok(()),
        Err(DdlError::Rejected(diags)) => Err(StoreError::CorruptWal(format!(
            "the recovered state refuses a logged schema change: {}",
            StoreError::Refused(diags)
        ))),
        Err(DdlError::Error(e)) => Err(StoreError::Core(e)),
    }
}

/// The WAL record that logs `ddl`. With [`logged_ddl`], the only code
/// that knows how a schema change is logged.
pub(crate) fn ddl_record(ddl: &Ddl) -> WalRecord {
    match ddl {
        Ddl::Relation(rs) => WalRecord::Declare {
            name: rs.name.clone(),
            schema: rs.schema.as_ref().clone(),
        },
        Ddl::View { name, expr } => WalRecord::DeclareView {
            name: name.clone(),
            text: rel_to_xra(expr),
        },
        Ddl::Index { relation, attrs } => WalRecord::DeclareIndex {
            relation: relation.clone(),
            keys: attrs.clone(),
        },
        Ddl::Key { relation, attrs } => WalRecord::DeclareKey {
            relation: relation.clone(),
            attrs: attrs.clone(),
        },
    }
}

/// The schema change a declaration record logs, a view's text resolved
/// against `version`'s catalog; `None` for a commit record.
fn logged_ddl(record: WalRecord, version: &Version) -> StoreResult<Option<Ddl>> {
    Ok(Some(match record {
        WalRecord::Declare { name, schema } => Ddl::Relation(RelationSchema::new(name, schema)),
        WalRecord::DeclareView { name, text } => {
            let expr = mera_lang::lower_rel(&version.catalog_schema(), &text)?;
            Ddl::View { name, expr }
        }
        WalRecord::DeclareIndex { relation, keys } => Ddl::Index {
            relation,
            attrs: keys,
        },
        WalRecord::DeclareKey { relation, attrs } => Ddl::Key { relation, attrs },
        WalRecord::Commit { .. } | WalRecord::Delta { .. } => return Ok(None),
    }))
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
