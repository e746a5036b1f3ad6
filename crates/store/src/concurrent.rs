//! [`ConcurrentDb`]: the MVCC transaction engine wired to a shared WAL
//! with cross-client group commit.
//!
//! This is the durable front door, and it is `&self` everywhere: any
//! number of threads (one per client connection, in `mera-server`)
//! execute transactions concurrently against the [`MvccManager`]'s
//! version chain — a single client is simply the one-thread case — and
//! the protocol is log-then-publish: the WAL is a shared resource
//! coordinated by a small group-commit protocol:
//!
//! * **Commit order = log order.** A commit's redo frame — the ℤ-delta
//!   it publishes — is produced inside the MVCC commit section (the
//!   `durability` hook of [`MvccManager::try_commit`] runs under the
//!   commit lock, after validation, before publication), so frames are
//!   generated in strictly increasing logical-time order and
//!   single-threaded recovery ([`crate::durable`]) folds an interleaved
//!   history into exactly the states that were acknowledged.
//! * **[`FsyncPolicy::Always`]** appends and fsyncs the frame right in
//!   the hook — one fsync per commit, fully serialized. This is the
//!   latency-honest baseline.
//! * **[`FsyncPolicy::Group`]** is *group commit with
//!   ack-after-durability*: the hook only stages the frame into an
//!   in-memory buffer (so the commit section never waits on the disk),
//!   and the committer then waits on the group. Batching is *natural*:
//!   whenever no flush is in flight the first waiter becomes the
//!   **leader**, writes the whole staged batch with one append and one
//!   fsync, and wakes everyone whose frame it covered. Commits that
//!   arrive while a flush is in flight pile up behind it and ride the
//!   next batch, so group size adapts to concurrency — a lone committer
//!   pays exactly one fsync (no worse than `Always`), while under load
//!   one fsync amortizes across many commits. No transaction is
//!   acknowledged until its frame is durable.
//! * **[`FsyncPolicy::Never`]** appends in the hook without syncing —
//!   the OS flushes when it pleases.
//!
//! A schema change takes the same path through [`ConcurrentDb::ddl`]:
//! [`MvccManager::ddl`] admits a list of [`Ddl`]s under the commit lock,
//! and its hook writes their declaration records behind any staged frames
//! in one append with one fsync, before the one DDL version is published.
//!
//! The log is bounded: once the frames committed since the last
//! checkpoint outgrow both 4 MiB and the last snapshot, the commit that
//! crossed the line checkpoints once it is durable. Recovery then replays
//! at most about a snapshot's worth of log, and each checkpoint's write
//! is paid for by at least as many bytes of log.
//!
//! A storage failure while flushing staged frames is fail-stop: versions
//! for those frames are already published to readers, so the front
//! *poisons* — every later commit and flush fails with the original
//! error — rather than let the in-memory history silently diverge from
//! the durable one. (A failure on the `Always` path aborts just that
//! commit before publication: nothing was published, nothing diverged.)

use std::sync::Arc;

use crate::durable::{ddl_record, recover, FsyncPolicy, StoreOptions, SNAPSHOT_FILE, WAL_FILE};
use crate::error::{StoreError, StoreResult};
use crate::snapshot;
use crate::storage::Storage;
use crate::wal;
use mera_core::prelude::*;
use mera_lang::{lower_script, parse_script, RunResult};
use mera_txn::mvcc::{MvccManager, PreparedTxn, Version};
use mera_txn::{AbortReason, Ddl, Outcome, Outputs, Program};
use parking_lot::{Condvar, Mutex};

/// Commit-frame bytes past which the log is checkpointed, unless the
/// last snapshot is larger still.
const CHECKPOINT_WAL_BYTES: usize = 4 << 20;

/// Group-commit bookkeeping: frames staged but not yet written, and the
/// durable horizon acks wait on. Tickets are per-frame sequence numbers
/// issued in commit order.
struct Group {
    /// Encoded frames staged in commit order, awaiting the next leader.
    staged: Vec<u8>,
    /// Tickets issued (frames staged or directly appended).
    appended: u64,
    /// Tickets durable on disk.
    durable: u64,
    /// A leader is currently writing a batch.
    flushing: bool,
    /// First storage error seen while flushing published commits; once
    /// set, the front is fail-stop.
    poisoned: Option<StoreError>,
    /// Commit-frame bytes logged since the last checkpoint (or open).
    logged: usize,
    /// `logged` past which a commit checkpoints.
    checkpoint_at: usize,
}

/// A concurrent durable database: MVCC snapshots over the version chain,
/// shared-WAL group commit underneath. All methods take `&self`; the
/// intended use is one `Arc<ConcurrentDb>` shared by every client
/// session.
pub struct ConcurrentDb<S: Storage> {
    mvcc: MvccManager,
    storage: Mutex<S>,
    group: Mutex<Group>,
    group_cv: Condvar,
    options: StoreOptions,
}

impl<S: Storage> std::fmt::Debug for ConcurrentDb<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentDb")
            .field("time", &self.mvcc.time())
            .field("fsync", &self.options.fsync)
            .finish_non_exhaustive()
    }
}

impl<S: Storage> ConcurrentDb<S> {
    /// Opens (or recovers) a concurrent durable database.
    ///
    /// Recovery ([`crate::durable`]) folds the WAL single-threaded into
    /// one owned [`Version`] (interleaved histories were logged in commit
    /// order, each commit as the delta it published), and the result
    /// seeds version 0 of the MVCC chain.
    pub fn open(
        storage: S,
        initial_schema: DatabaseSchema,
        options: StoreOptions,
    ) -> StoreResult<Self> {
        let (storage, version) = recover(storage, initial_schema, options.exec)?;
        Ok(ConcurrentDb {
            mvcc: MvccManager::from_version(version, options.exec),
            storage: Mutex::new(storage),
            group: Mutex::new(Group {
                staged: Vec::new(),
                appended: 0,
                durable: 0,
                flushing: false,
                poisoned: None,
                logged: 0,
                checkpoint_at: CHECKPOINT_WAL_BYTES,
            }),
            group_cv: Condvar::new(),
            options,
        })
    }

    /// The MVCC manager — for version-level access (pins, the execution
    /// configuration, volatile DDL). A commit through it bypasses the WAL;
    /// durable commits go through [`ConcurrentDb::commit`].
    pub fn mvcc(&self) -> &MvccManager {
        &self.mvcc
    }

    /// Pins the newest published version for lock-free reading.
    pub fn pin(&self) -> Arc<Version> {
        self.mvcc.pin()
    }

    /// Runs one transaction to its typed outcome: committed outputs, or
    /// an abort reason ([`AbortReason::Conflict`] tells a caller the
    /// retry is worthwhile). Storage failures are errors; an
    /// acknowledged commit is durable per the fsync policy. This is
    /// [`ConcurrentDb::prepare`] on the newest version, then `commit`.
    pub fn try_execute(&self, program: &Program) -> StoreResult<Outcome> {
        match self.prepare(self.pin(), program) {
            Ok(prepared) => Ok(self.commit(prepared)?.0),
            Err(reason) => Ok(Outcome::Aborted(reason)),
        }
    }

    /// Runs a program on the pinned version `start` without committing
    /// it: nothing is locked, logged or published.
    pub fn prepare(
        &self,
        start: Arc<Version>,
        program: &Program,
    ) -> Result<PreparedTxn, AbortReason> {
        self.mvcc.prepare(start, program)
    }

    /// Logs the delta a prepared transaction computed on its snapshot,
    /// then publishes it; returns what [`MvccManager::try_commit`] does.
    /// A commit that takes the log past its bound then checkpoints.
    pub fn commit(&self, prepared: PreparedTxn) -> StoreResult<(Outcome, Arc<Version>)> {
        let mut body = Vec::new();
        wal::put_deltas(&mut body, prepared.deltas());
        let mut ticket = None;
        let committed = self.mvcc.try_commit(prepared, |time| {
            let frame = wal::delta_frame(time, &body);
            match self.options.fsync {
                // group commit stages the frame; the committer waits below
                FsyncPolicy::Group => ticket = Some(self.stage(&frame)?),
                policy => self.append_direct(&frame, policy == FsyncPolicy::Always)?,
            }
            Ok::<(), StoreError>(())
        })?;
        if let Some(ticket) = ticket {
            self.await_durable(ticket)?;
        }
        if self.checkpoint_due() {
            // the commit is durable whether or not this succeeds, and a
            // failed checkpoint leaves the old snapshot and log intact; a
            // storage failure shows again on the next write
            let _ = self.checkpoint();
        }
        Ok(committed)
    }

    /// Whether the log has outgrown its bound; true for one caller only,
    /// which must checkpoint.
    fn checkpoint_due(&self) -> bool {
        let mut group = self.group.lock();
        let due = group.logged > group.checkpoint_at;
        if due {
            group.logged = 0;
        }
        due
    }

    /// Runs one transaction with durable commit; aborts (including
    /// conflicts) surface as [`StoreError::TransactionAborted`].
    pub fn execute(&self, program: &Program) -> StoreResult<Outputs> {
        match self.try_execute(program)? {
            Outcome::Committed(outputs) => Ok(outputs),
            Outcome::Aborted(reason) => Err(StoreError::TransactionAborted(reason.to_string())),
        }
    }

    /// Appends one frame under the storage lock, optionally fsyncing —
    /// the `Always`/`Never` commit hook and runs inside the MVCC commit
    /// section, so tickets stay in commit order.
    fn append_direct(&self, frame: &[u8], sync: bool) -> StoreResult<()> {
        let mut group = self.group.lock();
        if let Some(e) = &group.poisoned {
            return Err(e.clone());
        }
        // staged frames (left over from a policy that staged, or a
        // future mixed mode) must precede this one
        debug_assert!(group.staged.is_empty());
        let mut storage = self.storage.lock();
        storage.append(WAL_FILE, frame)?;
        if sync {
            storage.sync(WAL_FILE)?;
        }
        drop(storage);
        group.logged += frame.len();
        group.appended += 1;
        group.durable = group.appended;
        Ok(())
    }

    /// Stages one frame for the next group flush; returns the ticket the
    /// committer must wait on. Runs inside the MVCC commit section —
    /// memory-only, so commits never wait on the disk here.
    fn stage(&self, frame: &[u8]) -> StoreResult<u64> {
        let mut group = self.group.lock();
        if let Some(e) = &group.poisoned {
            return Err(e.clone());
        }
        group.staged.extend_from_slice(frame);
        group.logged += frame.len();
        group.appended += 1;
        let ticket = group.appended;
        drop(group);
        // wake waiters: a parked committer can now lead a bigger batch
        self.group_cv.notify_all();
        Ok(ticket)
    }

    /// Blocks until `ticket` is durable (or the front is poisoned).
    /// Natural batching: whenever no flush is in flight, the first
    /// waiter becomes the leader and writes the whole staged batch.
    /// A lone committer therefore flushes immediately (no added
    /// latency over `Always`), while under load commits pile up behind
    /// the in-flight fsync and the next leader writes them as one
    /// batch — group size adapts to concurrency by itself.
    fn await_durable(&self, ticket: u64) -> StoreResult<()> {
        let mut group = self.group.lock();
        loop {
            if let Some(e) = &group.poisoned {
                return Err(e.clone());
            }
            if group.durable >= ticket {
                return Ok(());
            }
            if !group.flushing {
                // become the leader: take the batch, write it outside
                // the group lock so staging continues meanwhile
                group.flushing = true;
                let batch = std::mem::take(&mut group.staged);
                let target = group.appended;
                drop(group);
                let result = {
                    let mut storage = self.storage.lock();
                    storage
                        .append(WAL_FILE, &batch)
                        .and_then(|()| storage.sync(WAL_FILE))
                };
                group = self.group.lock();
                group.flushing = false;
                match result {
                    Ok(()) => group.durable = group.durable.max(target),
                    Err(e) => {
                        // published-but-not-durable commits exist now:
                        // fail-stop
                        group.poisoned = Some(e);
                    }
                }
                self.group_cv.notify_all();
                continue;
            }
            self.group_cv.wait(&mut group);
        }
    }

    /// Flushes (and fsyncs) any staged frames, then appends `frames` (one
    /// append, when there are any) in the same durable step. Used by DDL
    /// hooks (which run under the MVCC commit lock, so no new frames can
    /// be staged while this runs) and by [`ConcurrentDb::sync`].
    fn drain_and_append(&self, frames: &[u8]) -> StoreResult<()> {
        let mut group = self.group.lock();
        while group.flushing {
            self.group_cv.wait(&mut group);
        }
        if let Some(e) = &group.poisoned {
            return Err(e.clone());
        }
        let batch = std::mem::take(&mut group.staged);
        let target = group.appended;
        let mut storage = self.storage.lock();
        let result = (|| {
            if !batch.is_empty() {
                storage.append(WAL_FILE, &batch)?;
            }
            if !frames.is_empty() {
                storage.append(WAL_FILE, frames)?;
            }
            storage.sync(WAL_FILE)
        })();
        drop(storage);
        match result {
            Ok(()) => {
                group.durable = group.durable.max(target);
                drop(group);
                self.group_cv.notify_all();
                Ok(())
            }
            Err(e) => {
                if batch.is_empty() {
                    // only the new records were at risk; the caller's
                    // DDL simply fails before publication
                    Err(e)
                } else {
                    // staged frames belong to published commits
                    group.poisoned = Some(e.clone());
                    drop(group);
                    self.group_cv.notify_all();
                    Err(e)
                }
            }
        }
    }

    /// Forces every staged frame to disk (an explicit group flush) —
    /// called on graceful shutdown and before checkpoints.
    pub fn sync(&self) -> StoreResult<()> {
        self.drain_and_append(&[])
    }

    /// Admits a list of schema changes durably, as one step
    /// ([`MvccManager::ddl`]): checked in order against the newest
    /// version, their records logged in one append and fsynced behind any
    /// staged commit frames, then published as one DDL version. A refusal
    /// of any of them ([`StoreError::Refused`], [`StoreError::Core`])
    /// writes and publishes nothing, and so does a list that changes
    /// nothing (`Ok(false)`: an index already on those attributes, a
    /// repeat or a key's own). A list that changes something logs all its
    /// records; a no-op index among them replays as the same no-op. A
    /// single [`Ddl`] is a list of one.
    pub fn ddl(&self, ddls: impl AsRef<[Ddl]>) -> StoreResult<bool> {
        let ddls = ddls.as_ref();
        let frames: Vec<u8> = ddls
            .iter()
            .flat_map(|d| ddl_record(d).encode_frame())
            .collect();
        self.mvcc.ddl(ddls, || self.drain_and_append(&frames))
    }

    /// Creates a secondary index, durably: [`ConcurrentDb::ddl`] of a
    /// [`Ddl::Index`].
    pub fn create_index(&self, relation: &str, keys: &[usize]) -> StoreResult<bool> {
        let (relation, attrs) = (relation.to_owned(), keys.to_vec());
        self.ddl(Ddl::Index { relation, attrs })
    }

    /// Writes a checkpoint under quiescence: no commit can publish (or
    /// stage a frame) while the snapshot is taken, so the snapshot and
    /// the reset WAL describe exactly one version.
    pub fn checkpoint(&self) -> StoreResult<()> {
        self.mvcc.quiesce(|version| {
            self.drain_and_append(&[])?;
            let bytes = snapshot::encode(version.database());
            let mut group = self.group.lock();
            group.logged = 0;
            group.checkpoint_at = CHECKPOINT_WAL_BYTES.max(bytes.len());
            drop(group);
            let mut storage = self.storage.lock();
            storage.replace_atomic(SNAPSHOT_FILE, &bytes)?;
            let mut wal_bytes = wal::empty_wal();
            for ddl in version.definitions() {
                wal_bytes.extend_from_slice(&ddl_record(&ddl).encode_frame());
            }
            storage.replace_atomic(WAL_FILE, &wal_bytes)?;
            Ok(())
        })
    }

    /// Runs a whole XRA script durably: its declarations, views and keys
    /// are admitted in that order as one schema change
    /// ([`ConcurrentDb::ddl`]), so a refusal of any of them leaves none
    /// behind; then each transaction commits through the WAL. Aborts are
    /// reported in the results, not as errors — a failing transaction
    /// aborts itself, not the script. Storage failures *do* abort the
    /// script: whatever committed before the failure is durable, the rest
    /// never ran.
    pub fn run_script(&self, src: &str) -> StoreResult<Vec<RunResult>> {
        let script = parse_script(src).map_err(StoreError::from)?;
        let lowered =
            lower_script(&script, &self.pin().catalog_schema()).map_err(StoreError::from)?;
        let declarations = lowered.declarations.into_iter().map(Ddl::Relation);
        let views = (lowered.views.into_iter()).map(|v| Ddl::View {
            name: v.name,
            expr: v.expr,
        });
        let keys = (lowered.keys.into_iter()).map(|k| Ddl::Key {
            relation: k.relation,
            attrs: k.attrs,
        });
        let ddls: Vec<Ddl> = declarations.chain(views).chain(keys).collect();
        if !ddls.is_empty() {
            self.ddl(ddls)?;
        }
        let mut results = Vec::with_capacity(lowered.transactions.len());
        for program in &lowered.transactions {
            results.push(match self.try_execute(program)? {
                Outcome::Committed(outputs) => RunResult::Committed(outputs.queries),
                Outcome::Aborted(reason) => RunResult::Aborted(reason.to_string()),
            });
        }
        Ok(results)
    }

    /// Parses, translates and durably runs one SQL statement: a committed
    /// DML statement (or view definition) is in the WAL before this returns,
    /// and a `CREATE TABLE`'s relation and keys are one schema change.
    /// Returns the result relation for queries, `None` otherwise.
    pub fn run_sql(&self, sql: &str) -> StoreResult<Option<Relation>> {
        let stmt = mera_sql::parse_sql(sql).map_err(StoreError::from)?;
        let catalog = self.pin().catalog_schema();
        let translated = mera_sql::translate(&stmt, &catalog).map_err(StoreError::from)?;
        match translated {
            mera_sql::Translated::CreateView { name, expr } => {
                self.ddl(Ddl::View { name, expr })?;
                Ok(None)
            }
            mera_sql::Translated::CreateTable { schema, keys } => {
                let relation = schema.name.clone();
                let mut ddls = Vec::with_capacity(keys.len() + 1);
                ddls.push(Ddl::Relation(schema));
                ddls.extend(keys.into_iter().map(|attrs| Ddl::Key {
                    relation: relation.clone(),
                    attrs,
                }));
                self.ddl(ddls)?;
                Ok(None)
            }
            other => {
                let is_query = matches!(other, mera_sql::Translated::Query(_));
                let program = Program::single(other.into_statement());
                let mut outputs = self.execute(&program)?;
                if is_query {
                    Ok(Some(outputs.queries.remove(0)))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Returns true when the abort reason is a write-write conflict worth
/// retrying against a newer snapshot.
pub fn is_conflict(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Aborted(AbortReason::Conflict { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use mera_expr::RelExpr;
    use mera_lang::{parse_program, Lowerer};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "accounts",
                Schema::named(&[("owner", DataType::Str), ("balance", DataType::Int)]),
            )
            .expect("fresh schema")
    }

    fn open<S: Storage>(storage: S, fsync: FsyncPolicy) -> ConcurrentDb<S> {
        let options = StoreOptions {
            fsync,
            ..StoreOptions::default()
        };
        ConcurrentDb::open(storage, schema(), options).expect("open")
    }

    fn insert_program<S: Storage>(db: &ConcurrentDb<S>, owner: &str, balance: i64) -> Program {
        let text = format!("insert(accounts, values (str, int) {{('{owner}', {balance})}})");
        let parsed = parse_program(&text).expect("parses");
        let catalog = db.pin().catalog_schema();
        let mut lowerer = Lowerer::new(&catalog);
        lowerer.lower_program(&parsed).expect("lowers")
    }

    #[test]
    fn the_log_is_checkpointed_once_it_outgrows_its_bound() {
        for fsync in [FsyncPolicy::Always, FsyncPolicy::Group] {
            let storage = MemStorage::new();
            let db = open(storage.clone(), fsync);
            let owner = "x".repeat(1000);
            // about 100 KB of log per commit, 6 MB in all
            for c in 0..60 {
                let rows = (0..100)
                    .map(|i| mera_core::tuple![format!("{owner}{c}-{i}").as_str(), i])
                    .collect();
                let rel = relation_of(
                    schema().get("accounts").expect("declared").as_ref().clone(),
                    rows,
                )
                .expect("typed");
                let insert = mera_txn::Statement::insert("accounts", RelExpr::values(rel));
                db.execute(&Program::single(insert)).expect("commits");
            }
            let image = storage.image();
            assert!(image[WAL_FILE].len() < CHECKPOINT_WAL_BYTES, "{fsync:?}");
            assert!(image.contains_key(SNAPSHOT_FILE), "{fsync:?}");
            let reopened = open(MemStorage::from_image(image), fsync);
            let relation = |db: &ConcurrentDb<MemStorage>| {
                db.pin()
                    .database()
                    .relation("accounts")
                    .expect("declared")
                    .clone()
            };
            assert_eq!(relation(&reopened), relation(&db), "{fsync:?}");
            assert_eq!(relation(&reopened).len(), 6000);
        }
    }

    #[test]
    fn commits_recover_after_reopen() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Always);
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        db.execute(&insert_program(&db, "bob", 20))
            .expect("commits");
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(recovered.pin().database(), &expected);
    }

    #[test]
    fn group_commit_is_durable_when_acknowledged() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Group);
        // single-threaded: each commit waits out the group window and
        // leads its own flush — slower, but every ack means durable
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(recovered.pin().database(), &expected);
    }

    /// In-memory storage whose `sync` takes 20 ms: natural group commit
    /// only batches when a flush is slower than the arrivals.
    struct SlowSync(MemStorage);

    impl Storage for SlowSync {
        fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
            self.0.read(name)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
            self.0.append(name, bytes)
        }
        fn sync(&mut self, name: &str) -> StoreResult<()> {
            std::thread::sleep(std::time::Duration::from_millis(20));
            self.0.sync(name)
        }
        fn replace_atomic(&mut self, name: &str, bytes: &[u8]) -> StoreResult<()> {
            self.0.replace_atomic(name, bytes)
        }
        fn truncate(&mut self, name: &str, len: u64) -> StoreResult<()> {
            self.0.truncate(name, len)
        }
    }

    #[test]
    fn group_commit_batches_fsyncs_across_threads() {
        let storage = MemStorage::new();
        let db = Arc::new(open(SlowSync(storage.clone()), FsyncPolicy::Group));
        let syncs_before = storage.sync_count();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    // all writers touch the same unkeyed relation, so
                    // first-committer-wins aborts the laggards: retry
                    let p = insert_program(&db, &format!("owner{i}"), i);
                    loop {
                        match db.try_execute(&p).expect("io ok") {
                            Outcome::Committed(_) => break,
                            o if is_conflict(&o) => continue,
                            o => panic!("unexpected abort: {o:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("joins");
        }
        // the laggards' commits stage while the first flush syncs and
        // ride a shared flush; `Always` would take one sync per commit
        let syncs = storage.sync_count() - syncs_before;
        assert!(
            syncs < 8,
            "8 commits took {syncs} fsyncs: group commit never batched"
        );
        assert_eq!(db.pin().database().relation("accounts").unwrap().len(), 8);
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(
            recovered
                .pin()
                .database()
                .relation("accounts")
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn conflicting_writers_get_typed_aborts_and_recovery_matches() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Always);
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        // two prepared writers on the same (unkeyed) relation: first
        // committer wins, the second gets a typed conflict
        let start = db.pin();
        let p1 = db
            .prepare(Arc::clone(&start), &insert_program(&db, "bob", 20))
            .expect("prepares");
        let p2 = db
            .prepare(start, &insert_program(&db, "cho", 30))
            .expect("prepares");
        let (o1, published) = db.commit(p1).expect("io ok");
        assert!(o1.is_committed());
        assert_eq!(published.seq(), db.pin().seq());
        let (o2, newest) = db.commit(p2).expect("io ok");
        assert!(is_conflict(&o2), "{o2:?}");
        assert_eq!(newest.seq(), published.seq(), "an abort publishes nothing");
        let expected = db.pin().database().clone();
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        assert_eq!(recovered.pin().database(), &expected);
    }

    #[test]
    fn ddl_and_checkpoint_survive_reopen() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Group);
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        let (relation, attrs) = ("accounts".to_owned(), vec![1]);
        db.ddl(Ddl::Key { relation, attrs }).expect("declares");
        db.create_index("accounts", &[1]).expect("indexes");
        db.run_sql(
            "CREATE MATERIALIZED VIEW totals AS \
             SELECT owner, SUM(balance) FROM accounts GROUP BY owner",
        )
        .expect("view");
        db.checkpoint().expect("checkpoint");
        db.execute(&insert_program(&db, "bob", 20))
            .expect("commits");
        db.sync().expect("flushes");
        let version = db.pin();
        let expected_db = version.database().clone();
        let expected_view = version
            .views()
            .get("totals")
            .expect("view")
            .data()
            .as_ref()
            .clone();
        drop(version);
        drop(db);

        let recovered = open(MemStorage::from_image(storage.image()), FsyncPolicy::Always);
        let v = recovered.pin();
        assert_eq!(v.database(), &expected_db);
        assert_eq!(
            v.views().get("totals").expect("view").data().as_ref(),
            &expected_view
        );
        assert_eq!(
            v.keys().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        assert_eq!(
            v.indexes().definitions(),
            vec![("accounts".to_string(), vec![1])]
        );
        // re-seeded from its definition, then maintained by the replayed
        // post-checkpoint commit
        assert_eq!(v.indexes().find("accounts", &[1]).expect("index").len(), 2);
        // the recovered key still enforces
        let err = recovered
            .execute(&insert_program(&recovered, "ann", 99))
            .expect_err("key violation");
        assert!(err.to_string().contains("accounts"), "{err}");
    }

    #[test]
    fn poisoned_front_fails_stop_after_flush_failure() {
        let storage = MemStorage::new();
        let db = open(storage.clone(), FsyncPolicy::Group);
        db.execute(&insert_program(&db, "ann", 10))
            .expect("commits");
        storage.set_budget(0);
        let err = db
            .execute(&insert_program(&db, "bob", 20))
            .expect_err("storage dead");
        assert_eq!(err, StoreError::Crashed);
        // fail-stop: later commits see the original poison
        let err = db
            .execute(&insert_program(&db, "cho", 30))
            .expect_err("poisoned");
        assert_eq!(err, StoreError::Crashed);
    }

    #[test]
    fn sql_and_script_front_doors_run_concurrently_safe() {
        let db = open(MemStorage::new(), FsyncPolicy::Never);
        db.run_sql("INSERT INTO accounts VALUES ('ann', 10)")
            .expect("dml");
        let out = db
            .run_sql("SELECT owner FROM accounts WHERE balance >= 5")
            .expect("query")
            .expect("relation");
        assert_eq!(out.len(), 1);
        let results = db
            .run_script("begin insert(accounts, values (str, int) {('bob', 7)}); end")
            .expect("script");
        assert!(matches!(results[0], RunResult::Committed(_)));
        assert_eq!(db.pin().database().relation("accounts").unwrap().len(), 2);
    }
}
