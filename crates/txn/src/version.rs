//! [`Version`]: the one owner of a database state and its derived catalog.
//!
//! §4 of the paper gives a database exactly one state sequence
//! `D_0 → D_1 → …` on one logical-time axis. A [`Version`] is one element
//! of that sequence — the base relations plus everything derived from
//! them that a transaction reads or a commit must keep consistent
//! (materialized views, table statistics, secondary indexes, key counts) —
//! and this module holds the *only* copy of every step that moves the
//! sequence forward:
//!
//! * [`Version::run`] executes a program's statements against the state
//!   and hands back the candidate post-state with its signed deltas;
//! * [`Version::commit`] folds those deltas into the whole catalog and
//!   installs the next database (`D_t → D_{t+1}`: the one place the
//!   transaction clock ticks); [`Version::apply`] does it from the deltas
//!   alone, to rebase a commit or to replay one from the WAL;
//! * [`Version::add_relation`], [`Version::create_view`],
//!   [`Version::create_index`] and [`Version::declare_key`] admit DDL
//!   (`E0301`/`E0303`/`E0401`–`E0403`).
//!
//! The mutating steps take `&mut self` on an **owned** value. The MVCC
//! manager calls them on a clone of the newest published version (a
//! failed step just drops the clone — published versions are never
//! mutated); WAL recovery owns a single version by value and calls them
//! in place, where every `Arc` is unique and `Arc::make_mut` copies
//! nothing.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::{IndexSet, KeySet};
use mera_expr::rel::RelExpr;
use mera_opt::{CatalogStats, TableStats};

use crate::exec::{
    analyze_program_with_views, eval_expr, execute_program, ExecConfig, Outputs, WorkingState,
};
use crate::statement::Program;
use crate::transaction::{key_violation_diagnostic, AbortReason, DeclareKeyError};
use crate::views::{CreateViewError, DeltaMap, ViewSet};

/// One committed state: the paper's `D_t` plus the derived catalog
/// objects that describe it. Readers pin a published version with an
/// `Arc` clone and evaluate against it for as long as they like —
/// published versions are never mutated.
#[derive(Clone)]
pub struct Version {
    /// Monotone publication counter, stamped by the MVCC manager.
    /// Distinct from logical time because DDL (new relations, views,
    /// indexes, keys) publishes a new version without ticking the
    /// transaction clock.
    pub(crate) seq: u64,
    db: Arc<Database>,
    views: ViewSet,
    stats: Arc<CatalogStats>,
    indexes: Arc<IndexSet>,
    keys: Arc<KeySet>,
}

impl Version {
    /// The version describing `db` with an empty derived catalog: no
    /// views, indexes or keys, statistics from one full analyze.
    pub fn new(db: Database) -> CoreResult<Self> {
        let stats = CatalogStats::from_database(&db)?;
        Ok(Version {
            seq: 0,
            db: Arc::new(db),
            views: ViewSet::new(),
            stats: Arc::new(stats),
            indexes: Arc::new(IndexSet::new()),
            keys: Arc::new(KeySet::new()),
        })
    }

    /// The logical time of this committed state.
    pub fn time(&self) -> LogicalTime {
        self.db.time()
    }

    /// The publication sequence number (DDL publishes without ticking
    /// logical time, so this is the strictly-increasing version key).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The base relations.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The materialized views as of this version.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The table statistics as of this version.
    pub fn stats(&self) -> &Arc<CatalogStats> {
        &self.stats
    }

    /// The secondary indexes as of this version.
    pub fn indexes(&self) -> &Arc<IndexSet> {
        &self.indexes
    }

    /// The key constraints as of this version.
    pub fn keys(&self) -> &Arc<KeySet> {
        &self.keys
    }

    /// The database schema extended with every view's schema — what user
    /// text (SQL, XRA) resolves names against at this version.
    pub fn catalog_schema(&self) -> DatabaseSchema {
        let mut schema = self.db.schema().clone();
        for v in self.views.iter() {
            let _ = schema.add(RelationSchema::new(
                v.name().to_owned(),
                v.schema().as_ref().clone(),
            ));
        }
        schema
    }

    /// The intermediate state `D_t.0`: a private copy of the database,
    /// this version's view contents readable by name, and its statistics,
    /// indexes and keys for planning.
    pub fn working_state(&self) -> WorkingState {
        WorkingState {
            db: self.db.as_ref().clone(),
            temps: Default::default(),
            views: self.views.snapshots(),
            deltas: DeltaMap::new(),
            stats: Arc::clone(&self.stats),
            indexes: Arc::clone(&self.indexes),
            keys: Arc::clone(&self.keys),
        }
    }

    /// Runs the static-analysis passes over a program against this state
    /// (views included) without executing it.
    pub fn check_program(&self, program: &Program) -> Vec<mera_analyze::Diagnostic> {
        analyze_program_with_views(&self.db, &self.views, program)
    }

    /// Evaluates one read-only expression against this state, planned
    /// cost-based with index access paths; views are readable by name.
    pub fn query(&self, expr: &RelExpr, config: ExecConfig) -> CoreResult<Relation> {
        eval_expr(&self.working_state(), expr, config)
    }

    /// Renders the plan a read-only expression gets against this state —
    /// join order, access paths, estimated-vs-actual cardinalities (see
    /// [`crate::explain_expr`]). Evaluates the expression (on the
    /// instrumented physical engine) but changes nothing.
    pub fn explain(&self, expr: &RelExpr, config: ExecConfig) -> CoreResult<String> {
        crate::explain::explain_expr(&self.working_state(), expr, config)
    }

    /// Executes a program against this state without changing it (the
    /// statements of Definition 4.3's brackets): static analysis, the
    /// statement loop over intermediate states and an early key check.
    /// Declared keys are the only integrity check, and the authoritative
    /// one runs in [`Version::commit`] on the version the commit folds
    /// into — under snapshot isolation this state may be stale by then.
    /// Returns the candidate post-state
    /// `D_t.n` (temporaries dropped, clock not yet ticked), the net
    /// signed deltas per written relation, and the query outputs — or
    /// the reason the transaction aborts.
    pub fn run(
        &self,
        program: &Program,
        config: ExecConfig,
    ) -> Result<(Database, DeltaMap, Outputs), AbortReason> {
        // static pre-check: a program with error-severity diagnostics
        // aborts before any statement runs (warnings pass through — they
        // describe plans that *may* fail, and execution is the arbiter)
        if config.analyze {
            let diags = self.check_program(program);
            if mera_analyze::has_errors(&diags) {
                return Err(AbortReason::StaticallyRejected(diags));
            }
        }
        let mut state = self.working_state();
        let outputs = execute_program(&mut state, program, config).map_err(AbortReason::Error)?;
        // fail fast against this version's keys; `commit` re-checks
        // against the counts of the version it actually folds into
        self.check_keys(&state.deltas)?;
        // temporaries and the catalog snapshots vanish with the state
        let WorkingState { db, deltas, .. } = state;
        Ok((db, deltas, outputs))
    }

    /// Every declared key verified against the *net* deltas — O(|delta|)
    /// per key, all-or-nothing.
    fn check_keys(&self, deltas: &DeltaMap) -> Result<(), AbortReason> {
        for (name, delta) in deltas {
            if let Err(v) = self.keys.check(name, delta) {
                return Err(AbortReason::KeyViolation(key_violation_diagnostic(&v)));
            }
        }
        Ok(())
    }

    /// Commits a transaction into this version (`D_t → D_{t+1}`): `db` is
    /// the post-state its `deltas` lead to from this version's database,
    /// not yet ticked. The keys are checked against the net deltas; then
    /// the clock ticks once, statistics, indexes and key counts fold the
    /// deltas in O(|delta|), and the views refresh through their
    /// maintenance plans.
    ///
    /// On `Err` the version is partly folded and must be dropped — call
    /// this on a clone, or where a failure is fatal anyway.
    pub fn commit(
        &mut self,
        db: Database,
        deltas: DeltaMap,
        config: ExecConfig,
    ) -> Result<(), AbortReason> {
        self.db = Arc::new(db);
        self.fold(deltas, config)
    }

    /// [`Version::commit`] from the deltas alone, in place
    /// (`D_{t+1} = D_t + Δ`); a delta that does not fit fails it. On a
    /// uniquely owned version (recovery) nothing is copied.
    pub fn apply(&mut self, deltas: DeltaMap, config: ExecConfig) -> Result<(), AbortReason> {
        let db = Arc::make_mut(&mut self.db);
        for (name, delta) in &deltas {
            db.apply(name, delta).map_err(AbortReason::Error)?;
        }
        self.fold(deltas, config)
    }

    /// The catalog half of a commit, once `self.db` holds the post-state.
    fn fold(&mut self, deltas: DeltaMap, config: ExecConfig) -> Result<(), AbortReason> {
        self.check_keys(&deltas)?;
        let time = Arc::make_mut(&mut self.db).tick();
        let stats = Arc::make_mut(&mut self.stats);
        let indexes = Arc::make_mut(&mut self.indexes);
        let keys = Arc::make_mut(&mut self.keys);
        let mut indexes_current = true;
        for (name, delta) in &deltas {
            if delta.is_empty() {
                continue;
            }
            if let Ok(post) = self.db.relation(name) {
                stats.apply_commit(name, delta, post);
            }
            // the check above passed, so folding the deltas in cannot
            // violate a key
            keys.apply_commit(name, delta).map_err(AbortReason::Error)?;
            indexes_current &= indexes.apply_commit(name, delta).is_ok();
        }
        stats.set_as_of(time);
        if !indexes_current {
            // incremental maintenance failed; the definitions still hold
            // and the base commit is fine — rebuild from the post-state
            let _ = indexes.rebuild(&self.db);
        }
        self.views
            .refresh_after_commit(deltas, &self.db, config)
            .map_err(AbortReason::Error)
    }

    /// Adds a fresh empty relation (the `relation r (…)` / `CREATE TABLE`
    /// path). Fails if the name is taken.
    pub fn add_relation(&mut self, rs: RelationSchema) -> CoreResult<()> {
        let name = rs.name.clone();
        Arc::make_mut(&mut self.db).add_relation(rs)?;
        // re-anchor the statistics so they describe the new relation too
        let stats = TableStats::analyze(self.db.relation(&name)?);
        Arc::make_mut(&mut self.stats).insert(name, stats);
        Ok(())
    }

    /// Creates a materialized view over this state: the definition is
    /// validated (`E0301`/`E0303` and ordinary schema errors reject it),
    /// evaluated once, and incrementally maintained by every subsequent
    /// [`Version::commit`].
    pub fn create_view(
        &mut self,
        name: &str,
        expr: RelExpr,
        config: ExecConfig,
    ) -> Result<SchemaRef, CreateViewError> {
        self.views.create(name, expr, &self.db, config)
    }

    /// Creates a secondary index on the 1-based `keys` of `relation` over
    /// this state. The index is a catalog object from then on: every
    /// commit folds its signed deltas in (O(|delta|)), the cost model
    /// weighs it as an access path, and the physical engine executes
    /// point lookups and hinted equi-joins through it.
    pub fn create_index(&mut self, relation: &str, keys: &[usize]) -> CoreResult<()> {
        Arc::make_mut(&mut self.indexes).create(&self.db, relation, keys)
    }

    /// Declares the 1-based `attrs` as a candidate key of `relation` over
    /// this state. Rejections carry a diagnostic: existing data violating
    /// the key (`E0401`), a key on a view (`E0402` — views are derived,
    /// their multiplicities follow from the definition), or a duplicate
    /// declaration (`E0403`). From then on every commit checks the key
    /// against its net deltas in O(|delta|) and aborts violators, and the
    /// optimizer grounds property inference in it.
    pub fn declare_key(&mut self, relation: &str, attrs: &[usize]) -> Result<(), DeclareKeyError> {
        if self.views.contains(relation) {
            return Err(DeclareKeyError::Rejected(
                mera_analyze::Diagnostic::new(
                    mera_analyze::Code::KeyOnView,
                    mera_analyze::Span::root("key"),
                    format!("cannot declare a key on materialized view `{relation}`"),
                )
                .with_note(
                    "a view's multiplicities are determined by its definition; \
                     declare the key on the base relations instead",
                ),
            ));
        }
        if self.keys.is_declared(relation, attrs) {
            let attrs: Vec<String> = attrs.iter().map(|a| format!("%{a}")).collect();
            return Err(DeclareKeyError::Rejected(mera_analyze::Diagnostic::new(
                mera_analyze::Code::DuplicateKeyDeclaration,
                mera_analyze::Span::root("key"),
                format!("key {relation}({}) is already declared", attrs.join(",")),
            )));
        }
        match Arc::make_mut(&mut self.keys).declare(&self.db, relation, attrs)? {
            Ok(()) => Ok(()),
            Err(v) => Err(DeclareKeyError::Rejected(key_violation_diagnostic(&v))),
        }
    }
}

impl std::fmt::Debug for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Version")
            .field("seq", &self.seq)
            .field("time", &self.db.time())
            .field("relations", &self.db.schema().len())
            .finish_non_exhaustive()
    }
}
