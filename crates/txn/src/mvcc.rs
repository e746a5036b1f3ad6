//! Multi-version concurrency control over the paper's logical-time axis.
//!
//! The paper (§2.3) already orders database states along a logical time
//! axis: a transaction maps `D_t` to `D_{t+1}`. This module makes that
//! axis concrete as a **version chain**: every committed state is
//! published as an immutable [`Version`] (base relations, materialized
//! views, statistics, indexes and key constraints — the full catalog a
//! reader needs), and any number of readers evaluate against a pinned
//! version without taking any lock beyond the `Arc` clone that pins it.
//!
//! The manager owns *when* the state moves — the chain, the commit lock,
//! first-committer-wins validation, the durability hook, publication.
//! *How* it moves (running statements, folding a commit into the
//! catalog, admitting DDL) is [`Version`]'s, and the manager calls those
//! steps on a clone of the newest version.
//!
//! Writers run **optimistically** (OCC, snapshot isolation):
//!
//! 1. [`MvccManager::prepare`] executes the program against a pinned
//!    snapshot, accumulating the same signed ℤ-multiplicity deltas
//!    ([`SignedBag`]) that drive view/statistics/index maintenance. No
//!    shared state is touched.
//! 2. [`MvccManager::try_commit`] takes the (short) commit lock and
//!    validates **first-committer-wins**: if any transaction committed
//!    since the snapshot wrote an overlapping relation — or, on keyed
//!    relations, an overlapping *key point* — the writer aborts with the
//!    typed [`AbortReason::Conflict`] and can simply retry. A validated
//!    writer's deltas are folded into the newest version (the algebraic
//!    footing: a transaction *is* its signed delta, and disjoint deltas
//!    commute in the ℤ-semiring), the catalog objects fold the same
//!    deltas exactly like the serial path, and the result is published
//!    as the next version.
//!
//! The isolation level is **snapshot isolation**, not serializability:
//! a commit installs the delta computed on its snapshot, so a lost update
//! aborts but write skew and a read of a concurrently changed relation
//! are admitted (`tests/isolation.rs` pins all three).
//!
//! Read-only programs never enter the commit section at all: their
//! outputs are complete once evaluated against the snapshot, so they
//! neither tick logical time nor create versions — this is what lets
//! read throughput scale with reader count while writers proceed.
//!
//! A `durability` hook runs inside the commit section after validation
//! and before publication; the store layer uses it to append the WAL
//! record so that log order equals commit order (see
//! `mera-store`'s `ConcurrentDb`).

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::KeySet;
use mera_expr::rel::RelExpr;
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashSet;

use crate::exec::{ExecConfig, Outputs};
use crate::statement::Program;
use crate::transaction::{AbortReason, DeclareKeyError, Outcome};
pub use crate::version::Version;
use crate::views::{CreateViewError, DeltaMap, TupleDelta};

/// What one commit wrote, at the granularity conflict detection uses:
/// whole relations for unkeyed targets, per-key-point sets (the key
/// projection of every delta tuple) for keyed ones.
#[derive(Debug)]
enum RelWrites {
    /// The relation has no declared key: any concurrent writer to the
    /// same relation conflicts.
    Whole,
    /// Per declared key (sorted 1-based attrs), the touched key points.
    /// Two writers to the same relation commute iff their points are
    /// disjoint under every shared key.
    KeyPoints(BTreeMap<Vec<usize>, FxHashSet<Tuple>>),
}

#[derive(Debug, Default)]
struct WriteSet {
    relations: BTreeMap<String, RelWrites>,
}

impl WriteSet {
    /// Projects a transaction's deltas through the declared keys of each
    /// touched relation. Any structural surprise degrades to
    /// whole-relation granularity — conservative, never unsound.
    fn of(deltas: &DeltaMap, keys: &KeySet) -> WriteSet {
        let defs = keys.definitions();
        let mut relations = BTreeMap::new();
        for (name, delta) in deltas {
            if delta.is_empty() {
                continue;
            }
            let key_attrs: Vec<&Vec<usize>> = defs
                .iter()
                .filter(|(r, _)| r == name)
                .map(|(_, a)| a)
                .collect();
            let writes = if key_attrs.is_empty() {
                RelWrites::Whole
            } else {
                match Self::project_points(delta, &key_attrs) {
                    Some(points) => RelWrites::KeyPoints(points),
                    None => RelWrites::Whole,
                }
            };
            relations.insert(name.clone(), writes);
        }
        WriteSet { relations }
    }

    fn project_points(
        delta: &TupleDelta,
        key_attrs: &[&Vec<usize>],
    ) -> Option<BTreeMap<Vec<usize>, FxHashSet<Tuple>>> {
        let mut out = BTreeMap::new();
        for attrs in key_attrs {
            let list = AttrList::new_unique((*attrs).clone()).ok()?;
            let mut points = FxHashSet::default();
            let mut resolved: Option<ResolvedAttrs> = None;
            for (t, _) in delta.iter() {
                let r = match &resolved {
                    Some(r) => r,
                    None => {
                        resolved = Some(ResolvedAttrs::from_attr_list(&list, t.arity()).ok()?);
                        resolved.as_ref().expect("just set")
                    }
                };
                points.insert(r.project(t));
            }
            out.insert((*attrs).clone(), points);
        }
        Some(out)
    }

    /// The relations on which two write sets collide.
    fn conflicts_with(&self, other: &WriteSet) -> Vec<String> {
        let mut out = Vec::new();
        for (name, mine) in &self.relations {
            if let Some(theirs) = other.relations.get(name) {
                if Self::overlaps(mine, theirs) {
                    out.push(name.clone());
                }
            }
        }
        out
    }

    fn overlaps(a: &RelWrites, b: &RelWrites) -> bool {
        match (a, b) {
            (RelWrites::Whole, _) | (_, RelWrites::Whole) => true,
            (RelWrites::KeyPoints(x), RelWrites::KeyPoints(y)) => {
                let mut shared_key = false;
                for (attrs, pts) in x {
                    if let Some(q) = y.get(attrs) {
                        shared_key = true;
                        if pts.iter().any(|p| q.contains(p)) {
                            return true;
                        }
                    }
                }
                // no shared key basis (key DDL moved underneath us):
                // conservative conflict
                !shared_key
            }
        }
    }

    fn touched(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }
}

/// The write footprint of one published version, kept for
/// first-committer-wins validation of in-flight snapshots.
struct CommitSummary {
    seq: u64,
    time: LogicalTime,
    writes: WriteSet,
    /// DDL versions (new relation/view/index/key) conflict with every
    /// in-flight writer — coarse, and rare.
    ddl: bool,
}

struct Chain {
    latest: Arc<Version>,
    /// Recently superseded versions, newest last — `as_of` reads.
    history: VecDeque<Arc<Version>>,
    /// Write footprints of recent publications, oldest first.
    summaries: VecDeque<CommitSummary>,
    next_seq: u64,
}

/// An executed-but-uncommitted transaction: the snapshot it ran against,
/// the candidate post-state, its signed deltas and its query outputs.
/// Produced by [`MvccManager::prepare`], consumed by
/// [`MvccManager::try_commit`].
pub struct PreparedTxn {
    start: Arc<Version>,
    db: Database,
    deltas: DeltaMap,
    outputs: Outputs,
}

impl PreparedTxn {
    /// The snapshot this transaction executed against.
    pub fn start(&self) -> &Arc<Version> {
        &self.start
    }

    /// True when the program wrote nothing: its outputs are complete and
    /// no commit section is needed.
    pub fn is_read_only(&self) -> bool {
        self.deltas.values().all(TupleDelta::is_empty)
    }

    /// The net signed delta per relation this transaction wrote — what a
    /// commit of it adds to whichever version it lands on.
    pub fn deltas(&self) -> &DeltaMap {
        &self.deltas
    }
}

/// How many superseded versions and commit summaries the chain retains.
#[derive(Debug, Clone, Copy)]
pub struct MvccOptions {
    /// Superseded full versions kept for [`MvccManager::version_at`]
    /// (`as_of` reads). Pinned readers keep their own versions alive
    /// regardless.
    pub retained_versions: usize,
    /// Commit summaries kept for validation. A writer whose snapshot
    /// predates the oldest retained summary aborts with a conservative
    /// conflict (snapshot too old).
    pub retained_summaries: usize,
}

impl Default for MvccOptions {
    fn default() -> Self {
        MvccOptions {
            retained_versions: 16,
            retained_summaries: 4096,
        }
    }
}

/// The multi-version transaction manager: a chain of immutable versions,
/// lock-free pinned readers, optimistic writers validated
/// first-committer-wins at a short commit section.
pub struct MvccManager {
    chain: RwLock<Chain>,
    /// Serializes the validate-fold-publish commit section (and DDL).
    commit: Mutex<()>,
    config: ExecConfig,
    options: MvccOptions,
}

impl MvccManager {
    /// A manager over the initial state of a schema.
    pub fn new(schema: DatabaseSchema) -> Self {
        Self::with_config(schema, ExecConfig::default())
    }

    /// A manager with an explicit execution configuration.
    pub fn with_config(schema: DatabaseSchema, config: ExecConfig) -> Self {
        let version = Version::new(Database::new(schema)).expect("catalog relations resolve");
        Self::from_version(version, config)
    }

    /// A manager whose chain starts at `version` — a loaded database, or
    /// the state WAL recovery rebuilt (the store layer's entry point).
    pub fn from_version(mut version: Version, config: ExecConfig) -> Self {
        version.seq = 0;
        MvccManager {
            chain: RwLock::new(Chain {
                latest: Arc::new(version),
                history: VecDeque::new(),
                summaries: VecDeque::new(),
                next_seq: 1,
            }),
            commit: Mutex::new(()),
            config,
            options: MvccOptions::default(),
        }
    }

    /// Overrides the retention options.
    pub fn with_options(mut self, options: MvccOptions) -> Self {
        self.options = options;
        self
    }

    /// The execution configuration transactions run with.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Pins the newest published version. O(1); the returned version is
    /// immutable and stays valid for as long as the `Arc` is held.
    pub fn pin(&self) -> Arc<Version> {
        Arc::clone(&self.chain.read().latest)
    }

    /// Pins the newest version with `time() <= time`, if still retained —
    /// the `as_of` read path.
    pub fn version_at(&self, time: LogicalTime) -> Option<Arc<Version>> {
        let chain = self.chain.read();
        if chain.latest.time() <= time {
            return Some(Arc::clone(&chain.latest));
        }
        chain
            .history
            .iter()
            .rev()
            .find(|v| v.time() <= time)
            .map(Arc::clone)
    }

    /// Current logical time (of the newest version).
    pub fn time(&self) -> LogicalTime {
        self.chain.read().latest.time()
    }

    /// Executes a program against a pinned snapshot without committing
    /// ([`Version::run`]): static analysis, statement execution and an
    /// early key check all run against the snapshot. No locks are taken
    /// and no shared state is touched. The keys are checked again by
    /// [`MvccManager::try_commit`] on the version the commit lands in.
    pub fn prepare(
        &self,
        start: Arc<Version>,
        program: &Program,
    ) -> Result<PreparedTxn, AbortReason> {
        let (db, deltas, outputs) = start.run(program, self.config)?;
        Ok(PreparedTxn {
            start,
            db,
            deltas,
            outputs,
        })
    }

    /// Runs a read-only program against a pinned version. Errors if the
    /// program writes anything — use [`MvccManager::execute`] for that.
    pub fn read(&self, version: &Arc<Version>, program: &Program) -> Result<Outputs, AbortReason> {
        let prepared = self.prepare(Arc::clone(version), program)?;
        if !prepared.is_read_only() {
            return Err(AbortReason::Error(CoreError::TypeError(
                "read path refuses a writing program; commit it as a transaction".to_string(),
            )));
        }
        Ok(prepared.outputs)
    }

    /// Validates and publishes a prepared transaction,
    /// first-committer-wins. The `durability` hook runs inside the commit
    /// section *after* validation and *before* publication, with the
    /// logical time the commit will carry; its error aborts the commit
    /// with nothing published (and nothing to undo).
    ///
    /// Returns the outcome together with the version the caller should
    /// consider newest (the published one on commit, the pre-existing
    /// newest on abort — an abort publishes nothing and ticks nothing).
    pub fn try_commit<E>(
        &self,
        prepared: PreparedTxn,
        durability: impl FnOnce(LogicalTime) -> Result<(), E>,
    ) -> Result<(Outcome, Arc<Version>), E> {
        if prepared.is_read_only() {
            // reads are complete at prepare time: no version, no time tick
            return Ok((Outcome::Committed(prepared.outputs), self.pin()));
        }
        let PreparedTxn {
            start,
            db: candidate,
            deltas,
            outputs,
        } = prepared;
        let _guard = self.commit.lock();
        let latest = self.pin();
        let writes = WriteSet::of(&deltas, latest.keys());
        // the fold runs on a clone — published versions are never
        // mutated, so a refused fold (a key point another commit took
        // since the snapshot, a view whose full recompute failed) is
        // just dropped
        let mut next = Version::clone(&latest);
        // When nothing intervened the candidate state *is* the next
        // state; otherwise validate, and add the deltas to the newest
        // state — they commute with the disjoint intervening ones.
        let folded = if latest.seq == start.seq {
            next.commit(candidate, deltas, self.config)
        } else {
            if let Some(conflict) = self.validate(&start, &latest, &writes) {
                return Ok((Outcome::Aborted(conflict), latest));
            }
            next.apply(deltas, self.config)
        };
        if let Err(reason) = folded {
            return Ok((Outcome::Aborted(reason), latest));
        }
        durability(next.time())?;
        let version = self.publish(next, writes, false);
        Ok((Outcome::Committed(outputs), version))
    }

    /// First-committer-wins validation of `writes` against everything
    /// published since `start`. `None` means no conflict.
    fn validate(
        &self,
        start: &Arc<Version>,
        latest: &Arc<Version>,
        writes: &WriteSet,
    ) -> Option<AbortReason> {
        let chain = self.chain.read();
        let covered = chain
            .summaries
            .front()
            .is_some_and(|s| s.seq <= start.seq + 1);
        if !covered {
            // intervening commits fell out of the retained window:
            // conservative abort (snapshot too old)
            return Some(AbortReason::Conflict {
                relations: writes.touched(),
                committed_at: latest.time(),
            });
        }
        let mut conflicts = Vec::new();
        let mut committed_at = latest.time();
        for s in chain.summaries.iter().filter(|s| s.seq > start.seq) {
            if s.ddl {
                return Some(AbortReason::Conflict {
                    relations: writes.touched(),
                    committed_at: s.time,
                });
            }
            let overlapping = writes.conflicts_with(&s.writes);
            if !overlapping.is_empty() {
                committed_at = s.time;
                conflicts.extend(overlapping);
            }
        }
        if conflicts.is_empty() {
            None
        } else {
            conflicts.sort_unstable();
            conflicts.dedup();
            Some(AbortReason::Conflict {
                relations: conflicts,
                committed_at,
            })
        }
    }

    /// Installs `version` as the newest (commit lock must be held),
    /// stamping it with the next sequence number and remembering its
    /// write footprint for the validation of in-flight snapshots.
    fn publish(&self, mut version: Version, writes: WriteSet, ddl: bool) -> Arc<Version> {
        let mut chain = self.chain.write();
        version.seq = chain.next_seq;
        chain.next_seq += 1;
        chain.summaries.push_back(CommitSummary {
            seq: version.seq,
            time: version.time(),
            writes,
            ddl,
        });
        while chain.summaries.len() > self.options.retained_summaries {
            chain.summaries.pop_front();
        }
        let version = Arc::new(version);
        let old = std::mem::replace(&mut chain.latest, Arc::clone(&version));
        chain.history.push_back(old);
        while chain.history.len() > self.options.retained_versions {
            chain.history.pop_front();
        }
        version
    }

    /// Pin-prepare-commit in one call (no durability hook): the volatile
    /// front door. Conflicts surface as [`Outcome::Aborted`] with
    /// [`AbortReason::Conflict`]; callers retry at their own cadence.
    pub fn execute(&self, program: &Program) -> (Outcome, Arc<Version>) {
        let start = self.pin();
        match self.prepare(start, program) {
            Err(reason) => (Outcome::Aborted(reason), self.pin()),
            Ok(prepared) => infallible(self.try_commit(prepared, |_| Ok(()))),
        }
    }

    /// Holds the commit section while `f` runs against the newest
    /// version — the store layer's checkpoint barrier: no commit can
    /// publish (or append to the WAL) while the closure runs.
    pub fn quiesce<R>(&self, f: impl FnOnce(&Version) -> R) -> R {
        let _guard = self.commit.lock();
        let latest = self.pin();
        f(&latest)
    }

    /// One DDL step: under the commit lock, `admit` the change on a clone
    /// of the newest version, run the durability hook, publish. A refused
    /// admission or a failed hook publishes nothing. DDL versions conflict
    /// with every in-flight writer — coarse, and rare.
    fn ddl<T, R, E>(
        &self,
        admit: impl FnOnce(&mut Version) -> Result<T, R>,
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<Result<T, R>, E> {
        let _guard = self.commit.lock();
        let mut next = Version::clone(&self.pin());
        let admitted = match admit(&mut next) {
            Ok(t) => t,
            Err(refused) => return Ok(Err(refused)),
        };
        durability()?;
        self.publish(next, WriteSet::default(), true);
        Ok(Ok(admitted))
    }

    /// Adds a fresh empty relation, publishing a DDL version.
    pub fn add_relation(&self, rs: RelationSchema) -> CoreResult<()> {
        infallible(self.add_relation_with(rs, || Ok(())))
    }

    /// [`MvccManager::add_relation`] with a durability hook that runs
    /// after validation, before publication.
    pub fn add_relation_with<E>(
        &self,
        rs: RelationSchema,
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<CoreResult<()>, E> {
        self.ddl(|v| v.add_relation(rs), durability)
    }

    /// Creates a materialized view, publishing a DDL version.
    pub fn create_view(&self, name: &str, expr: RelExpr) -> Result<SchemaRef, CreateViewError> {
        infallible(self.create_view_with(name, expr, || Ok(())))
    }

    /// [`MvccManager::create_view`] with a durability hook.
    pub fn create_view_with<E>(
        &self,
        name: &str,
        expr: RelExpr,
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<Result<SchemaRef, CreateViewError>, E> {
        self.ddl(|v| v.create_view(name, expr, self.config), durability)
    }

    /// Creates a secondary index, publishing a DDL version.
    pub fn create_index(&self, relation: &str, keys: &[usize]) -> CoreResult<()> {
        infallible(self.create_index_with(relation, keys, || Ok(())))
    }

    /// [`MvccManager::create_index`] with a durability hook.
    pub fn create_index_with<E>(
        &self,
        relation: &str,
        keys: &[usize],
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<CoreResult<()>, E> {
        self.ddl(|v| v.create_index(relation, keys), durability)
    }

    /// Declares a key constraint, publishing a DDL version. Rejections
    /// are [`Version::declare_key`]'s (`E0401`–`E0403`).
    pub fn declare_key(&self, relation: &str, attrs: &[usize]) -> Result<(), DeclareKeyError> {
        infallible(self.declare_key_with(relation, attrs, || Ok(())))
    }

    /// [`MvccManager::declare_key`] with a durability hook.
    pub fn declare_key_with<E>(
        &self,
        relation: &str,
        attrs: &[usize],
        durability: impl FnOnce() -> Result<(), E>,
    ) -> Result<Result<(), DeclareKeyError>, E> {
        self.ddl(|v| v.declare_key(relation, attrs), durability)
    }
}

/// Unwraps the result of a step whose durability hook cannot fail.
fn infallible<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(t) => t,
        Err(e) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::Statement;
    use mera_core::tuple;
    use mera_expr::ScalarExpr;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "acct",
                Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
            )
            .expect("fresh")
    }

    fn deposit(owner: &str, amount: i64) -> Program {
        let row = relation_of(
            Schema::named(&[("owner", DataType::Str), ("amount", DataType::Int)]),
            vec![tuple![owner, amount]],
        )
        .expect("typed");
        Program::single(Statement::insert("acct", RelExpr::values(row)))
    }

    fn scan_all() -> Program {
        Program::single(Statement::query(RelExpr::scan("acct")))
    }

    #[test]
    fn commit_publishes_next_version() {
        let mgr = MvccManager::new(schema());
        let (outcome, v) = mgr.execute(&deposit("ann", 10));
        assert!(outcome.is_committed());
        assert_eq!(v.time(), 1);
        assert_eq!(v.database().relation("acct").expect("present").len(), 1);
        assert_eq!(mgr.time(), 1);
    }

    #[test]
    fn pinned_reader_never_sees_later_commits() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        let pin = mgr.pin();
        mgr.execute(&deposit("bob", 20));
        // the pinned version still shows exactly one row
        let outputs = mgr.read(&pin, &scan_all()).expect("reads");
        assert_eq!(outputs.queries[0].len(), 1);
        // a fresh pin shows both
        let outputs = mgr.read(&mgr.pin(), &scan_all()).expect("reads");
        assert_eq!(outputs.queries[0].len(), 2);
    }

    #[test]
    fn read_only_programs_do_not_tick_time() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        let t = mgr.time();
        let (outcome, _) = mgr.execute(&scan_all());
        assert!(outcome.is_committed());
        assert_eq!(mgr.time(), t, "reads publish no version");
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let mgr = MvccManager::new(schema());
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &deposit("ann", 10)).unwrap();
        let p2 = mgr.prepare(pin, &deposit("bob", 20)).unwrap();
        // both touched `acct`, which has no key: relation-level conflict
        let (o1, _) = mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        assert!(o1.is_committed());
        let (o2, _) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        match o2 {
            Outcome::Aborted(AbortReason::Conflict { relations, .. }) => {
                assert_eq!(relations, vec!["acct".to_string()]);
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn keyed_relations_conflict_at_key_point_granularity() {
        let mgr = MvccManager::new(schema());
        mgr.declare_key("acct", &[1]).expect("declares");
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &deposit("ann", 10)).unwrap();
        let p2 = mgr.prepare(Arc::clone(&pin), &deposit("bob", 20)).unwrap();
        let p3 = mgr.prepare(pin, &deposit("ann", 99)).unwrap();
        let (o1, _) = mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        assert!(o1.is_committed());
        // different key point: merges cleanly even though the snapshot is stale
        let (o2, v2) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        assert!(o2.is_committed(), "{o2:?}");
        assert_eq!(v2.database().relation("acct").expect("rel").len(), 2);
        // same key point as the first committer: typed abort
        let (o3, _) = mgr.try_commit::<Infallible>(p3, |_| Ok(())).unwrap();
        match o3 {
            Outcome::Aborted(AbortReason::Conflict { relations, .. }) => {
                assert_eq!(relations, vec!["acct".to_string()]);
            }
            Outcome::Aborted(AbortReason::KeyViolation(_)) => {
                panic!("conflict must be detected before the key check")
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    #[test]
    fn merged_commits_keep_catalog_consistent() {
        let mgr = MvccManager::new(schema());
        mgr.declare_key("acct", &[1]).expect("declares");
        mgr.create_index("acct", &[1]).expect("indexes");
        mgr.create_view(
            "totals",
            RelExpr::scan("acct").group_by(&[1], mera_expr::Aggregate::Sum, 2),
        )
        .expect("view");
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &deposit("ann", 10)).unwrap();
        let p2 = mgr.prepare(pin, &deposit("bob", 20)).unwrap();
        mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        let (o2, v) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        assert!(o2.is_committed(), "{o2:?}");
        // stats, index, keys and view all describe the merged state
        assert_eq!(v.stats().get("acct").expect("stats").rows, 2);
        let ix = v.indexes().find("acct", &[1]).expect("index");
        assert_eq!(ix.len(), 2);
        let totals = v.views().get("totals").expect("view").data();
        assert_eq!(totals.multiplicity(&tuple!["ann", 10_i64]), 1);
        assert_eq!(totals.multiplicity(&tuple!["bob", 20_i64]), 1);
        // and the keys still enforce on the merged counts
        let (o3, _) = mgr.execute(&deposit("ann", 5));
        assert!(
            matches!(o3, Outcome::Aborted(AbortReason::KeyViolation(_))),
            "{o3:?}"
        );
    }

    #[test]
    fn ddl_conflicts_inflight_writers() {
        let mgr = MvccManager::new(schema());
        let pin = mgr.pin();
        let p = mgr.prepare(pin, &deposit("ann", 10)).unwrap();
        mgr.create_index("acct", &[1]).expect("indexes");
        let (o, _) = mgr.try_commit::<Infallible>(p, |_| Ok(())).unwrap();
        assert!(
            matches!(o, Outcome::Aborted(AbortReason::Conflict { .. })),
            "{o:?}"
        );
    }

    #[test]
    fn durability_failure_publishes_nothing() {
        let mgr = MvccManager::new(schema());
        let pin = mgr.pin();
        let p = mgr.prepare(pin, &deposit("ann", 10)).unwrap();
        let err = mgr
            .try_commit::<&str>(p, |_| Err("disk on fire"))
            .expect_err("hook fails");
        assert_eq!(err, "disk on fire");
        assert_eq!(mgr.time(), 0);
        let pin = mgr.pin();
        assert!(pin.database().relation("acct").expect("rel").is_empty());
        // the manager remains usable
        let (o, _) = mgr.execute(&deposit("ann", 10));
        assert!(o.is_committed());
    }

    #[test]
    fn version_at_serves_as_of_reads() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        mgr.execute(&deposit("bob", 20));
        mgr.execute(&deposit("cho", 30));
        let v1 = mgr.version_at(1).expect("retained");
        assert_eq!(v1.time(), 1);
        assert_eq!(v1.database().relation("acct").expect("rel").len(), 1);
        let v2 = mgr.version_at(2).expect("retained");
        assert_eq!(v2.database().relation("acct").expect("rel").len(), 2);
        assert!(mgr.version_at(99).expect("latest").time() <= 99);
    }

    #[test]
    fn update_conflicts_with_update_of_same_key_point() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("ann", 10));
        mgr.declare_key("acct", &[1]).expect("declares");
        let bump = |who: &str| {
            Program::single(Statement::update(
                "acct",
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str(who))),
                vec![
                    ScalarExpr::attr(1),
                    ScalarExpr::attr(2).mul(ScalarExpr::int(2)),
                ],
            ))
        };
        let pin = mgr.pin();
        let p1 = mgr.prepare(Arc::clone(&pin), &bump("ann")).unwrap();
        let p2 = mgr.prepare(pin, &bump("ann")).unwrap();
        let (o1, _) = mgr.try_commit::<Infallible>(p1, |_| Ok(())).unwrap();
        assert!(o1.is_committed());
        let (o2, _) = mgr.try_commit::<Infallible>(p2, |_| Ok(())).unwrap();
        assert!(
            matches!(o2, Outcome::Aborted(AbortReason::Conflict { .. })),
            "lost update must be impossible: {o2:?}"
        );
        // the surviving update doubled once, not twice
        let v = mgr.pin();
        assert_eq!(
            v.database()
                .relation("acct")
                .expect("rel")
                .multiplicity(&tuple!["ann", 20_i64]),
            1
        );
    }

    fn deposit_stmt(owner: &str, amount: i64) -> Statement {
        deposit(owner, amount).statements.remove(0)
    }

    /// AVG over a provably empty input: undefined (Definition 3.4).
    fn avg_over_nothing() -> Statement {
        Statement::query(
            RelExpr::scan("acct")
                .select(ScalarExpr::bool(false))
                .group_by(&[], mera_expr::Aggregate::Avg, 2),
        )
    }

    fn unanalyzed() -> ExecConfig {
        ExecConfig {
            analyze: false,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn statement_error_aborts_whole_transaction() {
        // analysis off: the failure surfaces at runtime, mid-program
        let mgr = MvccManager::with_config(schema(), unanalyzed());
        mgr.execute(&deposit("a", 100));
        let before = mgr.pin();
        let failing = Program::new()
            .then(deposit_stmt("b", 50))
            .then(avg_over_nothing());
        let (outcome, after) = mgr.execute(&failing);
        assert!(matches!(
            outcome,
            Outcome::Aborted(AbortReason::Error(CoreError::AggregateOnEmpty("AVG")))
        ));
        // atomicity: the deposit of 50 is rolled back — and an abort is
        // not a published transition: same version, same logical time
        assert_eq!(after.seq(), before.seq());
        assert_eq!(after.database().relation("acct").expect("rel").len(), 1);
        assert_eq!(mgr.time(), 1);
    }

    #[test]
    fn statically_rejected_program_aborts_before_execution() {
        // the same doomed program, with analysis on (the default): the
        // E0102 partiality error is caught before the deposit ever runs
        let mgr = MvccManager::new(schema());
        let failing = Program::new()
            .then(deposit_stmt("b", 50))
            .then(avg_over_nothing());
        let (outcome, after) = mgr.execute(&failing);
        let Outcome::Aborted(reason @ AbortReason::StaticallyRejected(diags)) = &outcome else {
            panic!("expected a static rejection, got {outcome:?}");
        };
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, mera_analyze::Code::PartialAggregateOnEmpty);
        assert_eq!(diags[0].span.stmt, Some(1));
        // the rendered reason names the offending aggregate
        assert!(reason.to_string().contains("AVG"), "{reason}");
        assert!(after.database().relation("acct").expect("rel").is_empty());
        assert_eq!(mgr.time(), 0);
    }

    #[test]
    fn temporaries_never_leak_into_committed_state() {
        let mgr = MvccManager::new(schema());
        let program = Program::new()
            .then(Statement::assign("scratch", RelExpr::scan("acct")))
            .then(deposit_stmt("a", 10))
            .then(Statement::query(RelExpr::scan("scratch")));
        let (outcome, v) = mgr.execute(&program);
        assert!(outcome.is_committed());
        // the post-transaction state has no relation called "scratch"
        assert!(v.database().relation("scratch").is_err());
        // and a later transaction cannot see it either: the analyzer
        // rejects the scan of `scratch` as an unknown relation (E0002)
        let later = Program::single(Statement::query(RelExpr::scan("scratch")));
        match mgr.execute(&later).0 {
            Outcome::Aborted(AbortReason::StaticallyRejected(diags)) => {
                assert_eq!(diags[0].code, mera_analyze::Code::UnknownRelation);
            }
            other => panic!("expected static rejection, got {other:?}"),
        }
        // with analysis off, the runtime agrees
        let unchecked = MvccManager::with_config(schema(), unanalyzed());
        assert!(matches!(
            unchecked.execute(&later).0,
            Outcome::Aborted(AbortReason::Error(CoreError::UnknownRelation(_)))
        ));
    }

    #[test]
    fn committed_outputs_are_delivered() {
        let mgr = MvccManager::new(schema());
        let program = Program::new()
            .then(deposit_stmt("a", 100))
            .then(deposit_stmt("a", 100))
            .then(Statement::query(RelExpr::scan("acct").group_by(
                &[1],
                mera_expr::Aggregate::Sum,
                2,
            )));
        let (outcome, _) = mgr.execute(&program);
        let outputs = outcome.outputs().expect("committed");
        assert_eq!(outputs.queries.len(), 1);
        assert_eq!(outputs.queries[0].multiplicity(&tuple!["a", 200_i64]), 1);
    }

    #[test]
    fn commits_maintain_stats_incrementally() {
        let mgr = MvccManager::new(schema());
        let initial_scans = mgr.pin().stats().full_scans();
        for i in 0..5 {
            assert!(mgr.execute(&deposit("a", i)).0.is_committed());
        }
        let v = mgr.pin();
        let acct = v.stats().get("acct").expect("analyzed");
        assert_eq!(acct.rows, 5);
        assert_eq!(acct.column_distinct(2), 5, "amounts all distinct");
        assert_eq!(v.stats().as_of(), Some(mgr.time()), "stamped current");
        assert_eq!(
            v.stats().full_scans(),
            initial_scans,
            "five commits folded deltas without a single rescan"
        );
        assert_eq!(v.stats().touched_rows(), 5, "O(delta) work witness");
    }

    #[test]
    fn aborts_leave_stats_and_indexes_untouched() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("a", 100));
        mgr.create_index("acct", &[1]).expect("indexes");
        let bad = Program::new()
            .then(deposit_stmt("b", 1))
            .then(Statement::query(RelExpr::scan("nosuch")));
        assert!(!mgr.execute(&bad).0.is_committed());
        let v = mgr.pin();
        assert_eq!(v.stats().get("acct").expect("present").rows, 1);
        assert!(v.stats().is_current(v.database()), "still a cache hit");
        let idx = v.indexes().find("acct", &[1]).expect("registered");
        assert_eq!(idx.len(), 1, "aborted insert never reached the index");
    }

    #[test]
    fn commits_maintain_indexes_as_catalog_objects() {
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("a", 100));
        mgr.create_index("acct", &[1]).expect("indexes");
        // commits after creation keep the index consistent
        mgr.execute(&deposit("a", 50));
        mgr.execute(&deposit("b", 7));
        let v = mgr.pin();
        assert_eq!(
            v.indexes().definitions(),
            vec![("acct".to_owned(), vec![1])]
        );
        let idx = v.indexes().find("acct", &[1]).expect("registered");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.lookup(&tuple!["a"]).expect("lookup").len(), 2);
        // and point queries through the manager agree with the base state
        let q = Program::single(Statement::query(
            RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str("a"))),
        ));
        let outputs = mgr.read(&v, &q).expect("queries");
        assert_eq!(outputs.queries[0].len(), 2);
    }

    #[test]
    fn same_transaction_write_then_read_sees_own_writes() {
        // the index describes D_t; once the transaction writes the indexed
        // relation, reads must come from the live state, not the index
        let mgr = MvccManager::new(schema());
        mgr.execute(&deposit("a", 100));
        mgr.create_index("acct", &[1]).expect("indexes");
        let program = Program::new()
            .then(deposit_stmt("a", 50))
            .then(Statement::query(
                RelExpr::scan("acct").select(ScalarExpr::attr(1).eq(ScalarExpr::str("a"))),
            ));
        let (outcome, _) = mgr.execute(&program);
        let out = &outcome.outputs().expect("committed").queries[0];
        assert_eq!(out.len(), 2, "query must see the uncommitted deposit");
    }

    #[test]
    fn writers_from_many_threads_serialize_by_retry() {
        let mgr = Arc::new(MvccManager::new(schema()));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        // every writer touches the same unkeyed relation:
                        // first committer wins, the rest retry
                        while !mgr.execute(&deposit("x", i)).0.is_committed() {}
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        let v = mgr.pin();
        assert_eq!(v.database().relation("acct").expect("present").len(), 80);
        assert_eq!(
            v.time(),
            80,
            "one tick per committed writer, none per abort"
        );
    }
}
