//! The single execution entry point shared by every evaluation path.
//!
//! An [`Engine`] bundles *which* evaluator runs ([`EngineKind`]: the
//! reference oracle or the batched physical engine), *how* it runs
//! ([`ExecOptions`]: batch size and worker count), and optionally a set of
//! hash indexes. The transaction layer, the language session, the SQL
//! examples, and the benchmarks all construct an `Engine` and call
//! [`Engine::run`] (or [`Engine::run_instrumented`] for per-node row
//! counters). The physical engine compiles every plan into the same
//! morsel-driven pipelines at every worker count.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::rel::RelExpr;

use crate::index::{IndexJoinHints, IndexSet};
use crate::physical::stats::ExecStats;
use crate::provider::{RelationProvider, Schemas};

/// Default target number of rows per [`CountedBatch`](crate::physical::CountedBatch).
///
/// Batches amortise per-step overhead: one pipeline step moves up to this
/// many counted rows. 1024 keeps a batch of small tuples comfortably in
/// cache while making the per-step overhead negligible. It is also the
/// morsel size: the unit of work a worker claims.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// Tuning knobs shared by all execution paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Target rows per batch flowing between physical operators (≥ 1;
    /// values of 0 are treated as 1). Operators may overshoot when a
    /// single input row expands to several output rows.
    pub batch_size: usize,
    /// Worker count of the physical engine's pipelines (capped at the
    /// hardware threads; 1 runs them on the calling thread alone). Ignored
    /// by the reference evaluator.
    pub partitions: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl ExecOptions {
    /// The default options: full batches, one worker.
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
    /// The batched engine: morsel-driven pipelines (work-stealing morsels,
    /// shared radix-partitioned builds, two-phase aggregation, native index
    /// lookups and index-nested-loop probes) at any worker count.
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

    /// The physical engine with index access paths.
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

    /// Sets the physical engine's worker count.
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
    /// attrs)`) the physical engine should run as index-nested-loop.
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

    /// Evaluates `expr` against `provider`.
    ///
    /// The expression is schema-checked once up front. The physical engine
    /// takes attached indexes as native access paths (lookups for covered
    /// point selections over base relations, index-nested-loop probes for
    /// hinted joins); the reference evaluator — the oracle — runs the
    /// definitions on base relations and never consults them.
    pub fn run(
        &self,
        expr: &RelExpr,
        provider: &(impl RelationProvider + ?Sized),
    ) -> CoreResult<Relation> {
        self.execute(expr, provider, None)
    }

    /// [`run`](Engine::run) with one row counter per plan node registered
    /// in `stats` (post-order, labelled `scan(r)`, the operator name, or
    /// the index access path taken: `index_lookup(r)`, `index_nl_join(r)`)
    /// — the EXPLAIN and experiment-E5 entry point. The reference evaluator
    /// registers no counters.
    pub fn run_instrumented(
        &self,
        expr: &RelExpr,
        provider: &(impl RelationProvider + ?Sized),
        stats: &mut ExecStats,
    ) -> CoreResult<Relation> {
        self.execute(expr, provider, Some(stats))
    }

    fn execute(
        &self,
        expr: &RelExpr,
        provider: &(impl RelationProvider + ?Sized),
        stats: Option<&mut ExecStats>,
    ) -> CoreResult<Relation> {
        expr.schema(&Schemas(provider))?;
        match self.kind {
            EngineKind::Reference => crate::reference::eval_unchecked(expr, provider),
            EngineKind::Physical => crate::morsel::run(expr, provider, self, stats),
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
        for partitions in [1, 3] {
            let engine = Engine::indexed(indexes.clone()).with_partitions(partitions);
            let mut stats = ExecStats::new();
            assert_eq!(engine.run_instrumented(&e, &db, &mut stats).unwrap(), plain);
            // the lookup replaces the scan: one counter, no `scan(r)`
            assert_eq!(
                stats.rows_out(),
                vec![("index_lookup(r)".to_owned(), plain.len())]
            );
        }
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
            for partitions in [1, 3] {
                let engine = Engine::physical()
                    .with_partitions(partitions)
                    .with_indexes(indexes.clone())
                    .with_index_hints(hints.clone());
                assert_eq!(
                    engine.run(&q, &db).unwrap(),
                    reference,
                    "index join path disagreed at p={partitions} for {q}"
                );
            }
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
