//! The single execution entry point shared by every evaluation path.
//!
//! An [`Engine`] bundles *which* evaluator runs ([`EngineKind`]: the
//! reference oracle or the batched physical engine), *how* it runs
//! ([`ExecOptions`]: batch size and worker count), and optionally a set of
//! hash indexes. The transaction layer, the language session, the SQL
//! examples, and the benchmarks all construct an `Engine` and call
//! [`Engine::run`] — the one place that picks the serial plan or the
//! morsel-driven pipelines.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::rel::RelExpr;

use crate::index::{rewrite_with_indexes, IndexJoinHints, IndexSet};
use crate::provider::{RelationProvider, Schemas};

/// Default target number of rows per [`CountedBatch`](crate::physical::CountedBatch).
///
/// Batches amortise dynamic dispatch: one virtual call moves up to this
/// many counted rows. 1024 keeps a batch of small tuples comfortably in
/// cache while making the per-call overhead negligible.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Tuning knobs shared by all execution paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Target rows per batch flowing between physical operators (≥ 1;
    /// values of 0 are treated as 1). Operators may overshoot when a
    /// single input row expands to several output rows.
    pub batch_size: usize,
    /// Worker count of the physical engine: 1 runs the serial batched
    /// plan, more run the morsel-driven pipelines (radix-partitioned
    /// builds and aggregates). Ignored by the reference evaluator.
    pub partitions: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl ExecOptions {
    /// The default options: full batches, one worker (the serial plan).
    pub const DEFAULT: ExecOptions = ExecOptions {
        batch_size: DEFAULT_BATCH_SIZE,
        partitions: 1,
    };

    /// Options with an explicit batch size (partitions stay default).
    pub fn with_batch_size(batch_size: usize) -> Self {
        ExecOptions {
            batch_size,
            ..Self::DEFAULT
        }
    }

    /// Options with an explicit partition count (batch size stays default).
    pub fn with_partitions(partitions: usize) -> Self {
        ExecOptions {
            partitions,
            ..Self::DEFAULT
        }
    }

    /// The batch size clamped to at least one row.
    pub fn effective_batch_size(&self) -> usize {
        self.batch_size.max(1)
    }

    /// The partition count clamped to at least one partition.
    pub fn effective_partitions(&self) -> usize {
        self.partitions.max(1)
    }
}

/// Which evaluator an [`Engine`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The executable form of the paper's definitions — slow, obvious, the
    /// oracle everything else is checked against.
    Reference,
    /// The batched engine: the serial Volcano-style operator pipeline at
    /// one worker, morsel-driven whole-pipeline parallelism (work-stealing
    /// morsels, shared radix-partitioned builds, two-phase aggregation) at
    /// more.
    #[default]
    Physical,
}

/// The unified execution engine: kind + options + optional indexes (plus
/// the cost-model hints naming joins to execute index-nested-loop).
#[derive(Debug, Clone, Default)]
pub struct Engine {
    kind: EngineKind,
    opts: ExecOptions,
    indexes: Option<Arc<IndexSet>>,
    hints: IndexJoinHints,
}

impl Engine {
    /// An engine of the given kind with default options.
    pub fn new(kind: EngineKind) -> Self {
        Engine {
            kind,
            opts: ExecOptions::DEFAULT,
            indexes: None,
            hints: IndexJoinHints::default(),
        }
    }

    /// The reference evaluator.
    pub fn reference() -> Self {
        Self::new(EngineKind::Reference)
    }

    /// The batched physical engine (the default).
    pub fn physical() -> Self {
        Self::new(EngineKind::Physical)
    }

    /// The physical engine with an index rewrite pre-pass.
    pub fn indexed(indexes: IndexSet) -> Self {
        Self::physical().with_indexes(indexes)
    }

    /// Replaces the execution options.
    pub fn with_options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the target batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.opts.batch_size = batch_size;
        self
    }

    /// Sets the physical engine's worker count (1 = serial plan).
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.opts.partitions = partitions;
        self
    }

    /// Attaches indexes; point-selections over indexed base relations take
    /// the index access path.
    pub fn with_indexes(self, indexes: IndexSet) -> Self {
        self.with_shared_indexes(Arc::new(indexes))
    }

    /// Attaches shared indexes without cloning their contents — the
    /// transaction layer hands out its delta-maintained catalog this way.
    pub fn with_shared_indexes(mut self, indexes: Arc<IndexSet>) -> Self {
        self.indexes = Some(indexes);
        self
    }

    /// Attaches cost-model hints: joins (by `(relation, sorted key
    /// attrs)`) the physical planner should run as index-nested-loop.
    pub fn with_index_hints(mut self, hints: IndexJoinHints) -> Self {
        self.hints = hints;
        self
    }

    /// The evaluator this engine dispatches to.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The execution options.
    pub fn options(&self) -> &ExecOptions {
        &self.opts
    }

    /// The attached indexes, if any.
    pub fn indexes(&self) -> Option<&IndexSet> {
        self.indexes.as_deref()
    }

    /// The cost-model index-join hints.
    pub fn index_hints(&self) -> &IndexJoinHints {
        &self.hints
    }

    /// The planner-facing view of the attached indexes and hints.
    pub fn index_access(&self) -> Option<crate::physical::planner::IndexAccess<'_>> {
        self.indexes
            .as_deref()
            .map(|indexes| crate::physical::planner::IndexAccess {
                indexes,
                hints: &self.hints,
            })
    }

    /// Evaluates `expr` against `provider`.
    ///
    /// The expression is schema-checked once up front. The serial physical
    /// plan takes attached indexes as native access paths (lookup operators
    /// and hinted index-nested-loop joins); the reference evaluator and the
    /// morsel pipelines fall back to the point-selection rewrite pre-pass,
    /// which preserves semantics on any path.
    pub fn run(
        &self,
        expr: &RelExpr,
        provider: &(impl RelationProvider + ?Sized),
    ) -> CoreResult<Relation> {
        expr.schema(&Schemas(provider))?;
        let serial = self.opts.effective_partitions() == 1;
        if self.kind == EngineKind::Physical && serial {
            let plan = crate::physical::planner::plan_indexed_with(
                expr,
                provider,
                self.opts,
                self.index_access(),
            )?;
            return crate::physical::collect(plan);
        }
        let rewritten;
        let expr = match self.indexes.as_deref() {
            Some(indexes) => {
                rewritten = rewrite_with_indexes(expr, indexes)?;
                &rewritten
            }
            None => expr,
        };
        match self.kind {
            EngineKind::Reference => crate::reference::eval_unchecked(expr, provider),
            EngineKind::Physical => crate::morsel::eval_morsel(expr, provider, &self.opts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use mera_expr::ScalarExpr;
    use std::sync::Arc;

    fn db() -> Database {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int, DataType::Int]))
            .unwrap();
        let mut db = Database::new(schema);
        let rs = Arc::clone(db.schema().get("r").unwrap());
        let mut r = Relation::empty(rs);
        for i in 0..50_i64 {
            r.insert(tuple![i % 7, i], (i % 3 + 1) as u64).unwrap();
        }
        db.replace("r", r).unwrap();
        db
    }

    #[test]
    fn all_kinds_agree() {
        let db = db();
        let e = RelExpr::scan("r")
            .join(
                RelExpr::scan("r"),
                ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
            )
            .project(&[1])
            .group_by(&[1], mera_expr::Aggregate::Cnt, 1);
        let reference = Engine::reference().run(&e, &db).unwrap();
        for engine in [
            Engine::physical(),
            Engine::physical().with_batch_size(3),
            Engine::physical().with_partitions(3),
            Engine::physical().with_partitions(3).with_batch_size(5),
        ] {
            assert_eq!(engine.run(&e, &db).unwrap(), reference);
        }
    }

    #[test]
    fn indexed_engine_rewrites_point_lookups() {
        let db = db();
        let mut indexes = IndexSet::new();
        indexes.create(&db, "r", &[1]).unwrap();
        let e = RelExpr::scan("r").select(ScalarExpr::attr(1).eq(ScalarExpr::int(3)));
        let plain = Engine::physical().run(&e, &db).unwrap();
        let indexed = Engine::indexed(indexes).run(&e, &db).unwrap();
        assert_eq!(indexed, plain);
    }

    #[test]
    fn hinted_index_join_agrees_with_reference() {
        let db = db();
        let mut indexes = IndexSet::new();
        indexes.create(&db, "r", &[1]).unwrap();
        let mut hints = IndexJoinHints::default();
        hints.insert(("r".to_owned(), vec![1]));

        let queries = vec![
            // plain equi-join onto the indexed relation
            RelExpr::scan("r").join(
                RelExpr::scan("r"),
                ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
            ),
            // equi-join with a residual conjunct
            RelExpr::scan("r").join(
                RelExpr::scan("r"),
                ScalarExpr::attr(1)
                    .eq(ScalarExpr::attr(3))
                    .and(ScalarExpr::attr(2).eq(ScalarExpr::attr(4))),
            ),
            // unhinted key set (attr 2): stays a hash join
            RelExpr::scan("r").join(
                RelExpr::scan("r"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            ),
        ];
        for q in queries {
            let reference = Engine::reference().run(&q, &db).unwrap();
            let engine = Engine::physical()
                .with_indexes(indexes.clone())
                .with_index_hints(hints.clone());
            assert_eq!(
                engine.run(&q, &db).unwrap(),
                reference,
                "index join path disagreed for {q}"
            );
        }
    }

    #[test]
    fn engine_rejects_invalid_expressions() {
        let db = db();
        assert!(Engine::physical().run(&RelExpr::scan("zzz"), &db).is_err());
    }

    #[test]
    fn default_options_are_constant_and_serial() {
        // the default must not consult the environment (the retired
        // worker-count variable once did, on every statement)
        std::env::set_var(concat!("MERA_", "PARTITIONS"), "7");
        assert_eq!(ExecOptions::default().partitions, 1);
        assert_eq!(ExecOptions::default(), ExecOptions::DEFAULT);
        assert_eq!(
            Engine::new(EngineKind::Physical).options(),
            &ExecOptions::DEFAULT
        );
    }

    #[test]
    fn options_clamp_degenerate_values() {
        let opts = ExecOptions {
            batch_size: 0,
            partitions: 0,
        };
        assert_eq!(opts.effective_batch_size(), 1);
        assert_eq!(opts.effective_partitions(), 1);
    }
}
