//! [`Version`]: the one owner of a database state and its derived catalog.
//!
//! §4 of the paper gives a database exactly one state sequence
//! `D_0 → D_1 → …` on one logical-time axis. A [`Version`] is one element
//! of that sequence — the base relations plus everything derived from
//! them that a transaction reads or a commit must keep consistent
//! (materialized views, indexes) and the declared keys those indexes
//! enforce, plus the table statistics the planner reads off that content
//! — and this module holds the *only* copy of every step that moves the
//! sequence forward:
//!
//! * [`Version::run`] executes a program's statements against the state
//!   and hands back their net signed deltas — the transaction itself;
//! * [`Version::apply`] adds those deltas to the database and folds them
//!   into the indexes and views (`D_{t+1} = D_t + Δ`: the one place the
//!   transaction clock ticks) — for a live commit, a rebased one and a
//!   WAL replay alike;
//! * [`Version::admit`] admits a schema change, a [`Ddl`] value: a
//!   relation, a view, an index or a key
//!   (`E0301`/`E0303`/`E0401`–`E0403`), and [`Version::definitions`]
//!   lists the ones that rebuild the derived catalog.
//!
//! The mutating steps take `&mut self` on an **owned** value. The MVCC
//! manager calls them on a clone of the newest published version (a
//! failed step just drops the clone — published versions are never
//! mutated); WAL recovery owns a single version by value and calls them
//! in place, where every `Arc` is unique and `Arc::make_mut` copies
//! nothing.
//!
//! A view's maintenance plan is the one exception: it is writer state,
//! not part of what a version publishes. The versions of one lineage
//! share it, and [`Version::apply`] edits it in place on either path;
//! a clone whose plan another clone already advanced recomputes its view
//! instead (the staleness rule of [`crate::views`]).
//!
//! Every other map under a version is a persistent trie
//! ([`mera_core::pmap::PMap`]): relations, index buckets and view
//! contents.
//! A declared key keeps no state of its own: it is enforced through the
//! index on its attributes, whose buckets are its key points. Statistics
//! keep no state of their own either: [`Version::stats`] computes them
//! from the relations and indexes on first use and caches them in the
//! version, and every step that changes either drops the cache. A clone
//! of a version copies only the headers of its catalog objects, and
//! [`Version::apply`] copies the trie nodes its delta touches —
//! O(|Δ| log n), not the database.

use std::sync::{Arc, OnceLock};

use mera_core::prelude::*;
use mera_eval::{IndexSet, KeySet};
use mera_expr::rel::RelExpr;
use mera_opt::CatalogStats;

use crate::exec::{
    analyze_program_with_views, eval_expr, execute_program, ExecConfig, Outputs, WorkingState,
};
use crate::statement::Program;
use crate::transaction::{key_violation_diagnostic, AbortReason, DdlError};
use crate::views::{DeltaMap, ViewSet};

/// One schema change: the paper's database schema moves with the instance
/// along the same logical-time axis, and [`Version::admit`] is the only
/// step that moves it. Attribute lists are 1-based.
#[derive(Debug, Clone, PartialEq)]
pub enum Ddl {
    /// A fresh empty relation (`relation r (…)`, `CREATE TABLE`).
    Relation(RelationSchema),
    /// A materialized view of `expr`, maintained at every commit.
    View {
        /// The view's name.
        name: String,
        /// Its definition over the relations and earlier views.
        expr: RelExpr,
    },
    /// A secondary index on `attrs` of `relation`.
    Index {
        /// The indexed relation.
        relation: String,
        /// The indexed attributes.
        attrs: Vec<usize>,
    },
    /// A candidate key `attrs` of `relation`, enforced at every commit.
    Key {
        /// The keyed relation.
        relation: String,
        /// The key's attributes.
        attrs: Vec<usize>,
    },
}

/// One change is the list of that one change, so every caller of a
/// list-taking step ([`MvccManager::ddl`](crate::mvcc::MvccManager::ddl))
/// can pass a single [`Ddl`], by value or by reference.
impl AsRef<[Ddl]> for Ddl {
    fn as_ref(&self) -> &[Ddl] {
        std::slice::from_ref(self)
    }
}

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
    /// The statistics of `db` and `indexes`, computed on first use.
    stats: OnceLock<Arc<CatalogStats>>,
    indexes: Arc<IndexSet>,
    keys: Arc<KeySet>,
}

impl Version {
    /// The version describing `db` with an empty derived catalog: no
    /// views, indexes or keys.
    pub fn new(db: Database) -> CoreResult<Self> {
        Ok(Version {
            seq: 0,
            db: Arc::new(db),
            views: ViewSet::new(),
            stats: OnceLock::new(),
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

    /// The table statistics of this version's relations and indexes —
    /// computed on the first call, O(relations + indexes), with each
    /// column sample deferred until the planner asks for it.
    pub fn stats(&self) -> &Arc<CatalogStats> {
        self.stats
            .get_or_init(|| Arc::new(CatalogStats::of(&self.db, &self.indexes)))
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

    /// The intermediate state `D_t.0`: this version, borrowed — its
    /// relations and view contents readable by name, its statistics,
    /// indexes and keys for planning — with no writes yet.
    pub fn working_state(&self) -> WorkingState<'_> {
        WorkingState::new(self)
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
    /// one runs in [`Version::apply`] on the version the commit folds
    /// into — under snapshot isolation this state may be stale by then.
    /// Returns the net signed deltas per written relation
    /// (`D_t.n − D_t`, temporaries dropped) and the query outputs — or
    /// the reason the transaction aborts.
    pub fn run(
        &self,
        program: &Program,
        config: ExecConfig,
    ) -> Result<(DeltaMap, Outputs), AbortReason> {
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
        // fail fast against this version's keys; `apply` re-checks
        // against the indexes of the version it actually folds into
        self.check_keys(&state.deltas)?;
        // temporaries and materialized reads vanish with the state
        Ok((state.deltas, outputs))
    }

    /// Every declared key verified against the *net* deltas and the
    /// buckets of its index — O(|delta|) per key, all-or-nothing.
    fn check_keys(&self, deltas: &DeltaMap) -> Result<(), AbortReason> {
        for (name, delta) in deltas {
            if let Err(v) = self.keys.check(&self.indexes, name, delta) {
                return Err(AbortReason::KeyViolation(key_violation_diagnostic(&v)));
            }
        }
        Ok(())
    }

    /// Commits a transaction into this version from its deltas alone, in
    /// place (`D_{t+1} = D_t + Δ`). The keys are checked against the net
    /// deltas and a delta that does not fit fails it; then the clock
    /// ticks once, the indexes fold the deltas in O(|delta|), and the
    /// views refresh through their maintenance plans. The statistics of
    /// the old content are dropped, not folded.
    /// On a clone of a published version, only the trie nodes the deltas
    /// touch are copied; on a uniquely owned one (recovery) nothing is.
    /// The view plans are edited in place either way.
    ///
    /// On `Err` the version is partly folded and must be dropped — call
    /// this on a clone, or where a failure is fatal anyway.
    pub fn apply(&mut self, deltas: DeltaMap, config: ExecConfig) -> Result<(), AbortReason> {
        self.check_keys(&deltas)?;
        // first, so the relations' tries are not shared with the cache
        self.stats.take();
        let db = Arc::make_mut(&mut self.db);
        for (name, delta) in &deltas {
            db.apply(name, delta).map_err(AbortReason::Error)?;
        }
        db.tick();
        let indexes = Arc::make_mut(&mut self.indexes);
        for (name, delta) in &deltas {
            if delta.is_empty() {
                continue;
            }
            // an index mirrors its relation, which took the same delta
            // above, so this fold cannot fail
            indexes
                .apply_commit(name, delta)
                .map_err(AbortReason::Error)?;
        }
        self.views
            .refresh_after_commit(deltas, &self.db, config)
            .map_err(AbortReason::Error)
    }

    /// Admits one schema change into this state, in place — the only way
    /// a schema changes. Each kind has its own checks, and a refusal
    /// carries its diagnostics:
    ///
    /// * [`Ddl::Relation`] adds a fresh empty relation; a name taken by a
    ///   relation or a view fails.
    /// * [`Ddl::View`] validates the definition (`E0301`/`E0303` and
    ///   ordinary schema errors reject it), evaluates it once, and from
    ///   then on every [`Version::apply`] maintains it incrementally.
    /// * [`Ddl::Index`] builds a secondary index on the 1-based attributes.
    ///   Every commit folds its deltas in (O(|delta|)), the cost model
    ///   weighs it as an access path, and the physical engine runs point
    ///   lookups and hinted equi-joins through it. An index on the same
    ///   attribute set is kept, and the result is `false`.
    /// * [`Ddl::Key`] declares the attributes a candidate key. It is
    ///   refused when existing data violates it (`E0401`), when the
    ///   target is a view (`E0402` — a view's multiplicities follow from
    ///   its definition), or when it is already declared (`E0403`). An
    ///   accepted key brings the index on its attributes unless one
    ///   exists, as `PRIMARY KEY` does. From then on every commit checks
    ///   its net deltas against that index's buckets and aborts violators,
    ///   and the optimizer grounds property inference in the key.
    ///
    /// `Ok(true)` means the state changed. On `Err` the version may be
    /// partly changed and must be dropped, as after [`Version::apply`].
    pub fn admit(&mut self, ddl: &Ddl, config: ExecConfig) -> Result<bool, DdlError> {
        match ddl {
            Ddl::Relation(rs) => {
                // a view's name is taken too, as a view checks a relation's
                if self.views.contains(&rs.name) {
                    return Err(CoreError::DuplicateRelation(rs.name.clone()).into());
                }
                self.stats.take();
                Arc::make_mut(&mut self.db).add_relation(rs.clone())?;
                Ok(true)
            }
            Ddl::View { name, expr } => {
                self.views.create(name, expr.clone(), &self.db, config)?;
                Ok(true)
            }
            Ddl::Index { relation, attrs } => {
                self.stats.take();
                Ok(Arc::make_mut(&mut self.indexes).create(&self.db, relation, attrs)?)
            }
            Ddl::Key { relation, attrs } => {
                self.declare_key(relation, attrs)?;
                Ok(true)
            }
        }
    }

    fn declare_key(&mut self, relation: &str, attrs: &[usize]) -> Result<(), DdlError> {
        let refused = |d| Err(DdlError::Rejected(vec![d]));
        if self.views.contains(relation) {
            return refused(
                mera_analyze::Diagnostic::new(
                    mera_analyze::Code::KeyOnView,
                    mera_analyze::Span::root("key"),
                    format!("cannot declare a key on materialized view `{relation}`"),
                )
                .with_note(
                    "a view's multiplicities are determined by its definition; \
                     declare the key on the base relations instead",
                ),
            );
        }
        if self.keys.is_declared(relation, attrs) {
            let attrs: Vec<String> = attrs.iter().map(|a| format!("%{a}")).collect();
            return refused(mera_analyze::Diagnostic::new(
                mera_analyze::Code::DuplicateKeyDeclaration,
                mera_analyze::Span::root("key"),
                format!("key {relation}({}) is already declared", attrs.join(",")),
            ));
        }
        self.stats.take();
        let indexes = Arc::make_mut(&mut self.indexes);
        match Arc::make_mut(&mut self.keys).declare(&self.db, indexes, relation, attrs)? {
            Ok(()) => Ok(()),
            Err(v) => refused(key_violation_diagnostic(&v)),
        }
    }

    /// The schema changes that rebuild this version's views, indexes and
    /// keys over its relations, in an order [`Version::admit`] accepts:
    /// views in creation order, then indexes, then keys.
    pub fn definitions(&self) -> Vec<Ddl> {
        let views = self.views.iter().map(|v| Ddl::View {
            name: v.name().to_owned(),
            expr: v.expr().clone(),
        });
        let indexes = (self.indexes.definitions().into_iter())
            .map(|(relation, attrs)| Ddl::Index { relation, attrs });
        let keys = (self.keys.definitions().into_iter())
            .map(|(relation, attrs)| Ddl::Key { relation, attrs });
        views.chain(indexes).chain(keys).collect()
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
