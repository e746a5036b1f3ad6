//! Morsel-driven whole-pipeline parallel execution — the physical engine
//! at more than one worker.
//!
//! Instead of parallelizing one plan node at a time (materialising every
//! node, cloning join inputs into hash partitions), this module runs the
//! morsel-driven scheme (Leis et al., and the direction §5 of the paper
//! points to for PRISMA/DB): a plan is decomposed at its **pipeline
//! breakers** into *pipelines* of streaming operators, and each pipeline
//! runs in parallel end to end — workers pull *morsels* (row chunks of
//! `batch_size`) from a shared work list with work stealing and push every
//! morsel through the whole operator chain, so a `σ → ⋈ → π` stretch of
//! the plan produces **zero** intermediate relations. Morsels travel as
//! columnar [`CountedBatch`]es end to end; a pure-column `π` directly
//! above a residual-free equi-join even fuses *into* the probe: join
//! output columns are gathered already projected, the concatenated row
//! never exists.
//!
//! The multiplicity laws make this exact:
//!
//! * σ/π act row-wise and `⊎` merely concatenates, so morsels commute with
//!   them freely;
//! * equi- and θ-joins multiply multiplicities per row pair, so the build
//!   side is built **once** and shared read-only behind an `Arc` — neither
//!   input is cloned into partitions. The equi-join build is
//!   **radix-partitioned**: the build pipeline's workers scatter their
//!   batches by key-hash radix, then each worker builds the hash table of
//!   exactly one partition — disjoint key spaces, no shared state, no
//!   merge step — yielding a [`RadixJoinTable`] whose probes visit only
//!   the partition their keys radix to;
//! * keyed group-by radix-partitions the same way: each worker owns a
//!   disjoint slice of the key space, aggregates it completely and
//!   finishes its own groups — partition results simply concatenate. The
//!   empty-key `γ` (one global group, which hash partitioning cannot
//!   split) and `δ` aggregate in **two phases** instead: thread-local
//!   [`AggState`]s / seen-sets over morsels, merged once;
//! * difference and intersection need the *merged* count of both sides
//!   (`max(0, m₁−m₂)`, `min(m₁, m₂)`), so they are breakers: both sides
//!   are evaluated as parallel pipelines into per-worker bags, merged, and
//!   the pointwise law is applied once.
//!
//! All workers come from the process-wide reusable [`crate::pool`] — no
//! per-operator thread spawns — and the calling thread is always one of
//! the workers, so execution completes even when the pool is saturated.
//! Worker panics surface as [`CoreError::WorkerPanicked`]. [`Engine::run`]
//! dispatches here when `partitions > 1`; agreement with the reference
//! evaluator across worker counts and morsel sizes is property-tested in
//! `tests/engine_equivalence.rs`.
//!
//! [`Engine::run`]: crate::engine::Engine::run

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mera_core::multiset::Bag;
use mera_core::prelude::*;
use mera_expr::rel::RelExpr;
use mera_expr::{Aggregate, ScalarExpr};
use rustc_hash::FxHashSet;

use crate::engine::ExecOptions;
use crate::physical::agg::AggState;
use crate::physical::column::radix_of;
use crate::physical::join::{
    extract_equi_condition, full_probe_cols, JoinTable, ProbeCol, RadixJoinTable,
};
use crate::physical::ops::{filter_batch, project_batch};
use crate::physical::planner::ext_project_schema;
use crate::physical::{Counted, CountedBatch};
use crate::pool;
use crate::provider::RelationProvider;

/// Engine entry point (input already schema-checked). The batch size
/// doubles as the morsel size: the unit of work a worker claims from the
/// shared queue.
pub(crate) fn eval_morsel(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
    opts: &ExecOptions,
) -> CoreResult<Relation> {
    let mut plan = compile(expr, provider, opts)?;
    let mut out = Relation::empty(Arc::clone(&plan.schema));
    if is_passthrough(&plan) {
        // the plan ended on a breaker (or is a bare scan): its rows are
        // final, so pour them straight into the relation
        match plan.legs.pop().expect("single leg").source {
            Source::Rel(rel) => {
                for (t, m) in rel.iter() {
                    out.insert(t.clone(), m)?;
                }
            }
            Source::Owned(rows) => {
                for (t, m) in rows {
                    out.insert(t, m)?;
                }
            }
        }
        return Ok(out);
    }
    for (t, m) in run_bag(plan, opts)? {
        out.insert(t, m)?;
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Pipeline representation
// ----------------------------------------------------------------------

/// Where a pipeline leg's rows come from.
enum Source<'a> {
    /// A stored relation, morselised without snapshotting tuples (workers
    /// clone only the rows their morsels touch).
    Rel(&'a Relation),
    /// Materialised output of an upstream pipeline breaker.
    Owned(Vec<Counted>),
}

/// Streaming (morsel-wise) operators. Each maps one columnar batch to the
/// next, with no state shared between morsels — shared structures
/// (`RadixJoinTable`s, loop-join inner sides) are read-only behind `Arc`s.
/// Schema-changing operators carry their output schema so batches can be
/// assembled without consulting pipeline state.
enum MorselOp {
    /// `σ_φ` — multiplicities pass through.
    Filter(ScalarExpr),
    /// Plain or extended `π` — collapsing rows merge downstream.
    Project {
        exprs: Vec<ScalarExpr>,
        schema: SchemaRef,
    },
    /// Equi-join probe against the shared radix-partitioned build table:
    /// `m₁ · m₂`. The probe keys are pre-resolved offsets, hashed in place
    /// per batch.
    HashProbe {
        table: Arc<RadixJoinTable>,
        keys: ResolvedAttrs,
        /// Full `left ⊕ right` output columns.
        cols: Vec<ProbeCol>,
        residual: Option<ScalarExpr>,
        /// Concatenated output schema.
        schema: SchemaRef,
        /// Arity of the probe side — where build-side columns start in the
        /// concatenated schema; lets a downstream pure-column projection
        /// fuse into the probe.
        left_arity: usize,
    },
    /// A residual-free equi-join probe fused with a pure-column projection:
    /// output columns are gathered directly from the two sides, so the
    /// concatenated intermediate never exists.
    ProbeProject {
        table: Arc<RadixJoinTable>,
        keys: ResolvedAttrs,
        cols: Vec<ProbeCol>,
        schema: SchemaRef,
    },
    /// θ-join / product against a shared materialised inner side.
    LoopProbe {
        rows: Arc<Vec<Counted>>,
        predicate: Option<ScalarExpr>,
        schema: SchemaRef,
    },
}

/// One leg of a pipeline: a source (with its schema, so morsels can be
/// assembled into columnar batches) plus the operator chain every one of
/// its morsels flows through. A pipeline has several legs exactly when
/// `⊎`-unions occur below the breaker — union is not a breaker, its sides
/// simply contribute their morsels to the same sink.
struct Leg<'a> {
    source: Source<'a>,
    schema: SchemaRef,
    ops: Vec<MorselOp>,
}

/// A fully-compiled pipeline: all legs feed one (per-worker, then merged)
/// sink. Breakers below it have already run.
struct Pipeline<'a> {
    legs: Vec<Leg<'a>>,
    schema: SchemaRef,
}

impl<'a> Pipeline<'a> {
    fn single(source: Source<'a>, schema: SchemaRef) -> Self {
        Pipeline {
            legs: vec![Leg {
                source,
                schema: Arc::clone(&schema),
                ops: Vec::new(),
            }],
            schema,
        }
    }

    fn push_op(&mut self, op: impl Fn() -> MorselOp) {
        for leg in &mut self.legs {
            leg.ops.push(op());
        }
    }
}

// ----------------------------------------------------------------------
// Plan → pipelines (breaker identification)
// ----------------------------------------------------------------------

/// Recursively decomposes `expr` into pipelines, **running** every
/// pipeline below a breaker as it is reached (post-order): join build
/// sides, group-bys, distincts, differences/intersections and closures
/// execute here, and their materialised results become `Source::Owned`
/// legs of the parent pipeline. What is returned is the topmost (still
/// unexecuted) pipeline, ready for the caller's sink.
fn compile<'a>(
    expr: &'a RelExpr,
    provider: &'a (impl RelationProvider + ?Sized),
    opts: &ExecOptions,
) -> CoreResult<Pipeline<'a>> {
    Ok(match expr {
        RelExpr::Scan(name) => {
            let rel = provider.relation(name)?;
            Pipeline::single(Source::Rel(rel), Arc::clone(rel.schema()))
        }
        RelExpr::Values(rel) => Pipeline::single(Source::Rel(rel), Arc::clone(rel.schema())),
        RelExpr::Union(l, r) => {
            let mut lp = compile(l, provider, opts)?;
            let rp = compile(r, provider, opts)?;
            lp.legs.extend(rp.legs);
            lp
        }
        RelExpr::Select { input, predicate } => {
            let mut p = compile(input, provider, opts)?;
            p.push_op(|| MorselOp::Filter(predicate.clone()));
            p
        }
        RelExpr::Project { input, attrs } => {
            let mut p = compile(input, provider, opts)?;
            let schema = Arc::new(p.schema.project(attrs)?);
            if !fuse_probe_project(&mut p, attrs.indexes(), &schema) {
                let exprs: Vec<ScalarExpr> = attrs
                    .indexes()
                    .iter()
                    .map(|&i| ScalarExpr::Attr(i))
                    .collect();
                p.push_op(|| MorselOp::Project {
                    exprs: exprs.clone(),
                    schema: Arc::clone(&schema),
                });
            }
            p.schema = schema;
            p
        }
        RelExpr::ExtProject { input, exprs } => {
            let mut p = compile(input, provider, opts)?;
            let schema = ext_project_schema(&p.schema, exprs)?;
            let fused = match attr_indexes(exprs) {
                Some(ix) => fuse_probe_project(&mut p, &ix, &schema),
                None => false,
            };
            if !fused {
                p.push_op(|| MorselOp::Project {
                    exprs: exprs.clone(),
                    schema: Arc::clone(&schema),
                });
            }
            p.schema = schema;
            p
        }
        RelExpr::Product(l, r) => {
            let mut lp = compile(l, provider, opts)?;
            let rp = compile(r, provider, opts)?;
            let schema = Arc::new(lp.schema.concat(&rp.schema));
            let rows = Arc::new(run_rows(rp, opts)?);
            lp.push_op(|| MorselOp::LoopProbe {
                rows: Arc::clone(&rows),
                predicate: None,
                schema: Arc::clone(&schema),
            });
            lp.schema = schema;
            lp
        }
        RelExpr::Join {
            left,
            right,
            predicate,
        } => {
            let mut lp = compile(left, provider, opts)?;
            let rp = compile(right, provider, opts)?;
            let schema = Arc::new(lp.schema.concat(&rp.schema));
            match extract_equi_condition(predicate, lp.schema.arity(), rp.schema.arity()) {
                Some(cond) => {
                    // pipeline breaker: build the shared radix-partitioned
                    // table once, in parallel, from the build side's own
                    // pipeline; both key lists resolve to offsets here, at
                    // plan time
                    let build_keys = ResolvedAttrs::new(&cond.right_keys, rp.schema.arity())?;
                    let keys = ResolvedAttrs::new(&cond.left_keys, lp.schema.arity())?;
                    let left_arity = lp.schema.arity();
                    let cols = full_probe_cols(left_arity, rp.schema.arity());
                    let table = Arc::new(run_build(rp, build_keys, opts)?);
                    lp.push_op(|| MorselOp::HashProbe {
                        table: Arc::clone(&table),
                        keys: keys.clone(),
                        cols: cols.clone(),
                        residual: cond.residual.clone(),
                        schema: Arc::clone(&schema),
                        left_arity,
                    });
                }
                None => {
                    let rows = Arc::new(run_rows(rp, opts)?);
                    lp.push_op(|| MorselOp::LoopProbe {
                        rows: Arc::clone(&rows),
                        predicate: Some(predicate.clone()),
                        schema: Arc::clone(&schema),
                    });
                }
            }
            lp.schema = schema;
            lp
        }
        RelExpr::GroupBy {
            input,
            keys,
            agg,
            attr,
        } => {
            let p = compile(input, provider, opts)?;
            let in_type = p.schema.dtype(*attr)?;
            let key_list = if keys.is_empty() {
                None
            } else {
                let list = AttrList::new_unique(keys.clone())?;
                list.check_arity(p.schema.arity())?;
                Some(list)
            };
            let key_schema = match &key_list {
                Some(list) => p.schema.project(list)?,
                None => Schema::new(vec![]),
            };
            let schema = Arc::new(key_schema.with_attr(Attribute::anon(agg.result_type(in_type)?)));
            let resolved = match &key_list {
                Some(list) => Some(ResolvedAttrs::from_attr_list(list, p.schema.arity())?),
                None => None,
            };
            let rows = run_agg(p, resolved, *agg, *attr - 1, in_type, opts)?;
            Pipeline::single(Source::Owned(rows), schema)
        }
        RelExpr::Distinct(input) => {
            let p = compile(input, provider, opts)?;
            let schema = Arc::clone(&p.schema);
            let rows = run_distinct(p, opts)?;
            Pipeline::single(Source::Owned(rows), schema)
        }
        RelExpr::Difference(l, r) => {
            let lp = compile(l, provider, opts)?;
            let schema = Arc::clone(&lp.schema);
            let lb = run_bag(lp, opts)?;
            let rb = run_bag(compile(r, provider, opts)?, opts)?;
            Pipeline::single(Source::Owned(bag_rows(lb.difference(&rb))), schema)
        }
        RelExpr::Intersect(l, r) => {
            let lp = compile(l, provider, opts)?;
            let schema = Arc::clone(&lp.schema);
            let lb = run_bag(lp, opts)?;
            let rb = run_bag(compile(r, provider, opts)?, opts)?;
            Pipeline::single(Source::Owned(bag_rows(lb.intersection(&rb))), schema)
        }
        RelExpr::Closure(input) => {
            let p = compile(input, provider, opts)?;
            let schema = Arc::clone(&p.schema);
            let bag = run_bag(p, opts)?;
            let mut rel = Relation::empty(Arc::clone(&schema));
            for (t, m) in bag {
                rel.insert(t, m)?;
            }
            let closed = crate::reference::transitive_closure(&rel)?;
            let rows: Vec<Counted> = closed.iter().map(|(t, m)| (t.clone(), m)).collect();
            Pipeline::single(Source::Owned(rows), schema)
        }
    })
}

fn bag_rows(bag: Bag<Tuple>) -> Vec<Counted> {
    bag.into_iter().collect()
}

/// Extracts plain column picks from a projection list: `Some` exactly when
/// every expression is a bare (1-based) attribute reference.
fn attr_indexes(exprs: &[ScalarExpr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            ScalarExpr::Attr(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Fuses a pure-column projection into the residual-free equi-join probe
/// directly below it: each leg's trailing [`MorselOp::HashProbe`] becomes a
/// [`MorselOp::ProbeProject`] that gathers output columns in projected
/// form, so the concatenated intermediate batch never exists. Returns
/// `false` (and fuses nothing) unless *every* leg ends in such a probe:
/// probes with a residual need the full concatenated row to evaluate it,
/// and other trailing ops have nothing to fuse with.
fn fuse_probe_project(p: &mut Pipeline<'_>, indexes: &[usize], out_schema: &SchemaRef) -> bool {
    let fusable = !p.legs.is_empty()
        && p.legs.iter().all(|leg| {
            matches!(
                leg.ops.last(),
                Some(MorselOp::HashProbe { residual: None, .. })
            )
        });
    if !fusable {
        return false;
    }
    for leg in &mut p.legs {
        let Some(MorselOp::HashProbe {
            table,
            keys,
            cols: _,
            residual: None,
            schema: _,
            left_arity,
        }) = leg.ops.pop()
        else {
            unreachable!("every leg ends in a residual-free probe");
        };
        let cols = indexes
            .iter()
            .map(|&i| {
                if i <= left_arity {
                    ProbeCol::Left(i - 1)
                } else {
                    ProbeCol::Right(i - 1 - left_arity)
                }
            })
            .collect();
        leg.ops.push(MorselOp::ProbeProject {
            table,
            keys,
            cols,
            schema: Arc::clone(out_schema),
        });
    }
    true
}

// ----------------------------------------------------------------------
// Sinks (per-worker state, merged once per pipeline)
// ----------------------------------------------------------------------

/// Thread-local endpoint of a pipeline: each worker folds the batches it
/// produces into its own sink; the driver merges the per-worker sinks
/// after the fork-join.
trait Sink: Send {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()>;
}

/// Plain concatenation (unmerged counted rows) — inner sides of loop
/// joins, where duplicate rows are fine.
#[derive(Default)]
struct RowsSink(Vec<Counted>);

impl Sink for RowsSink {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        self.0.extend(batch.into_rows());
        Ok(())
    }
}

/// Merged counted bag — final collection and the difference/intersection
/// breakers, whose laws need total multiplicities.
#[derive(Default)]
struct BagSink(Bag<Tuple>);

impl Sink for BagSink {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        for (t, m) in batch {
            self.0.insert(t, m)?;
        }
        Ok(())
    }
}

/// Phase one of radix-partitioned build/aggregation: scatter every batch
/// into per-partition buffers by the radix of its key-column hash. Columns
/// append cell-wise (`append_gather`), so a batch costs O(partitions)
/// buffer growths, not a per-row allocation.
struct RadixSink {
    /// 0-based key column offsets to hash.
    offsets: Vec<usize>,
    /// One buffer per radix partition.
    parts: Vec<CountedBatch>,
}

impl RadixSink {
    fn new(offsets: Vec<usize>, schema: &SchemaRef, parts: usize) -> Self {
        RadixSink {
            offsets,
            parts: (0..parts)
                .map(|_| CountedBatch::new(Arc::clone(schema)))
                .collect(),
        }
    }
}

impl Sink for RadixSink {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        let n = self.parts.len();
        if n == 1 {
            self.parts[0].append(&batch);
            return Ok(());
        }
        let hashes = batch.key_hashes(&self.offsets);
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &h) in hashes.iter().enumerate() {
            sels[radix_of(h, n)].push(i as u32);
        }
        for (pi, sel) in sels.iter().enumerate() {
            if !sel.is_empty() {
                self.parts[pi].append_gather(&batch, sel);
            }
        }
        Ok(())
    }
}

/// Phase one of two-phase aggregation (empty-key `γ` only — keyed `γ`
/// radix-partitions instead).
struct AggSink(AggState);

impl Sink for AggSink {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        self.0.update_batch(&batch)
    }
}

/// Phase one of two-phase duplicate elimination.
#[derive(Default)]
struct DistinctSink(FxHashSet<Tuple>);

impl Sink for DistinctSink {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        for (t, _) in batch {
            self.0.insert(t);
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Breaker drivers
// ----------------------------------------------------------------------

/// True when the pipeline is a single leg with no operators — its source
/// rows *are* the result, so scheduling morsels would only re-copy them.
fn is_passthrough(p: &Pipeline<'_>) -> bool {
    p.legs.len() == 1 && p.legs[0].ops.is_empty()
}

/// Runs a pipeline into unmerged rows (loop-join inner sides).
fn run_rows(mut p: Pipeline<'_>, opts: &ExecOptions) -> CoreResult<Vec<Counted>> {
    if is_passthrough(&p) {
        return Ok(match p.legs.pop().expect("single leg").source {
            Source::Rel(rel) => rel.iter().map(|(t, m)| (t.clone(), m)).collect(),
            Source::Owned(rows) => rows,
        });
    }
    let sinks = run_pipeline(&p.legs, opts, RowsSink::default)?;
    let mut out = Vec::new();
    for s in sinks {
        out.extend(s.0);
    }
    Ok(out)
}

/// Runs a pipeline into one merged bag.
fn run_bag(mut p: Pipeline<'_>, opts: &ExecOptions) -> CoreResult<Bag<Tuple>> {
    if is_passthrough(&p) {
        let mut out = Bag::default();
        match p.legs.pop().expect("single leg").source {
            Source::Rel(rel) => {
                for (t, m) in rel.iter() {
                    out.insert(t.clone(), m)?;
                }
            }
            Source::Owned(rows) => {
                for (t, m) in rows {
                    out.insert(t, m)?;
                }
            }
        }
        return Ok(out);
    }
    let sinks = run_pipeline(&p.legs, opts, BagSink::default)?;
    let mut iter = sinks.into_iter();
    let mut out = iter.next().map(|s| s.0).unwrap_or_default();
    for s in iter {
        out.absorb(s.0)?;
    }
    Ok(out)
}

/// Regroups per-worker radix buffers by partition: partition `pi` gets
/// every worker's `pi`-th buffer (empty buffers dropped).
fn regroup_radix(sinks: Vec<RadixSink>, parts: usize) -> Vec<Vec<CountedBatch>> {
    let mut grouped: Vec<Vec<CountedBatch>> = (0..parts).map(|_| Vec::new()).collect();
    for s in sinks {
        for (pi, b) in s.parts.into_iter().enumerate() {
            if !b.is_empty() {
                grouped[pi].push(b);
            }
        }
    }
    grouped
}

/// Runs a build-side pipeline into a radix-partitioned hash table: phase
/// one scatters the pipeline's output batches into per-worker radix
/// buffers, phase two gives each worker exactly one partition's buffers to
/// build into its own [`JoinTable`] — disjoint key spaces, so the tables
/// are complete as built and there is no merge step.
fn run_build(
    p: Pipeline<'_>,
    keys: ResolvedAttrs,
    opts: &ExecOptions,
) -> CoreResult<RadixJoinTable> {
    let parts = worker_count(opts);
    let schema = Arc::clone(&p.schema);
    let offsets = keys.offsets().to_vec();
    let sinks = run_pipeline(&p.legs, opts, || {
        RadixSink::new(offsets.clone(), &schema, parts)
    })?;
    let grouped = regroup_radix(sinks, parts);
    let slots: Vec<Mutex<Option<JoinTable>>> = (0..parts).map(|_| Mutex::new(None)).collect();
    pool::global().run_workers(parts, &|w| {
        let mut table = JoinTable::new(keys.clone(), Arc::clone(&schema));
        for b in &grouped[w] {
            table.insert_batch(b);
        }
        *slots[w].lock().expect("no panics while holding slot lock") = Some(table);
    })?;
    let tables = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("workers joined")
                .expect("worker filled its slot")
        })
        .collect();
    Ok(RadixJoinTable::new(tables))
}

/// Parallel group-by. With keys, **radix-partitioned**: phase one scatters
/// batches by key-hash radix, phase two has each worker aggregate and
/// [`finish`](AggState::finish) its own partition outright — disjoint key
/// spaces, so partition results concatenate with no merge. The empty key
/// list (one global group) cannot be partitioned and keeps the two-phase
/// shape: thread-local [`AggState`]s, one merge, one finish. Both are
/// exact for every aggregate.
fn run_agg(
    p: Pipeline<'_>,
    keys: Option<ResolvedAttrs>,
    agg: Aggregate,
    attr0: usize,
    in_type: DataType,
    opts: &ExecOptions,
) -> CoreResult<Vec<Counted>> {
    let Some(keys) = keys else {
        let sinks = run_pipeline(&p.legs, opts, || AggSink(AggState::new(None, attr0)))?;
        let mut iter = sinks.into_iter();
        let mut state = match iter.next() {
            Some(s) => s.0,
            None => AggState::new(None, attr0),
        };
        for s in iter {
            state.merge(s.0)?;
        }
        return state.finish(agg, in_type);
    };
    let parts = worker_count(opts);
    let schema = Arc::clone(&p.schema);
    let offsets = keys.offsets().to_vec();
    let sinks = run_pipeline(&p.legs, opts, || {
        RadixSink::new(offsets.clone(), &schema, parts)
    })?;
    let grouped = regroup_radix(sinks, parts);
    let slots: Vec<Mutex<Option<CoreResult<Vec<Counted>>>>> =
        (0..parts).map(|_| Mutex::new(None)).collect();
    pool::global().run_workers(parts, &|w| {
        let run = || -> CoreResult<Vec<Counted>> {
            let mut state = AggState::new(Some(keys.clone()), attr0);
            for b in &grouped[w] {
                state.update_batch(b)?;
            }
            state.finish(agg, in_type)
        };
        *slots[w].lock().expect("no panics while holding slot lock") = Some(run());
    })?;
    let mut out = Vec::new();
    for s in slots {
        out.extend(
            s.into_inner()
                .expect("workers joined")
                .expect("worker filled its slot")?,
        );
    }
    Ok(out)
}

/// Two-phase parallel `δ`: thread-local seen-sets, one set union.
fn run_distinct(p: Pipeline<'_>, opts: &ExecOptions) -> CoreResult<Vec<Counted>> {
    let sinks = run_pipeline(&p.legs, opts, DistinctSink::default)?;
    let mut iter = sinks.into_iter();
    let mut seen = iter.next().map(|s| s.0).unwrap_or_default();
    for s in iter {
        seen.extend(s.0);
    }
    Ok(seen.into_iter().map(|t| (t, 1)).collect())
}

// ----------------------------------------------------------------------
// The morsel scheduler
// ----------------------------------------------------------------------

/// Number of hardware threads — the cap on useful pipeline workers. Asked
/// of the OS once per process (on Linux the answer reads cgroup files).
fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Workers per pipeline (also the radix partition count, so phase-two
/// partition work saturates the same pool): morsel parallelism comes from
/// hardware threads, not the requested partition count — extra workers on
/// the same cores only add scheduling and merge overhead (Leis et al. size
/// the pool to hardware threads), and exactness never depends on the
/// worker count.
fn worker_count(opts: &ExecOptions) -> usize {
    opts.effective_partitions().min(hardware_threads())
}

/// A claimable unit of work: one chunk of one leg's source rows.
enum Chunk<'e> {
    Borrowed(&'e [(&'e Tuple, u64)]),
    Owned(&'e [Counted]),
}

struct Morsel<'e> {
    leg: usize,
    chunk: Chunk<'e>,
}

/// Runs every leg's morsels through its operator chain on the worker
/// pool: morsels are dealt round-robin into per-worker lanes; each worker
/// drains its own lane front-to-back and then **steals** from the other
/// lanes (back-to-front) until no morsels remain, so a skewed or
/// pool-starved schedule still finishes — in the limit the calling thread
/// alone drains every lane. Returns one sink per worker.
fn run_pipeline<'env, S, F>(
    legs: &[Leg<'env>],
    opts: &ExecOptions,
    make_sink: F,
) -> CoreResult<Vec<S>>
where
    S: Sink,
    F: Fn() -> S + Sync,
{
    let workers = worker_count(opts);
    let morsel_size = opts.effective_batch_size();

    // snapshot stored-relation iterators as (ref, count) rows — tuples
    // themselves are not cloned here, only when a worker materialises a
    // morsel it actually claimed
    let snapshots: Vec<Option<Vec<(&Tuple, u64)>>> = legs
        .iter()
        .map(|leg| match &leg.source {
            Source::Rel(rel) => Some(rel.iter().collect()),
            Source::Owned(_) => None,
        })
        .collect();

    let mut morsels: Vec<Morsel<'_>> = Vec::new();
    for (li, leg) in legs.iter().enumerate() {
        match &leg.source {
            Source::Rel(_) => {
                let rows = snapshots[li].as_ref().expect("snapshotted above");
                for chunk in rows.chunks(morsel_size) {
                    morsels.push(Morsel {
                        leg: li,
                        chunk: Chunk::Borrowed(chunk),
                    });
                }
            }
            Source::Owned(rows) => {
                for chunk in rows.chunks(morsel_size) {
                    morsels.push(Morsel {
                        leg: li,
                        chunk: Chunk::Owned(chunk),
                    });
                }
            }
        }
    }

    // a single worker (or a single morsel) needs no scheduling
    if workers == 1 || morsels.len() <= 1 {
        let mut sink = make_sink();
        for m in morsels {
            process_morsel(&legs[m.leg], &m.chunk, &mut sink)?;
        }
        return Ok(vec![sink]);
    }

    let lanes: Vec<Mutex<VecDeque<Morsel<'_>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, m) in morsels.into_iter().enumerate() {
        lanes[i % workers]
            .lock()
            .expect("fresh lane lock")
            .push_back(m);
    }

    let results: Mutex<Vec<CoreResult<S>>> = Mutex::new(Vec::with_capacity(workers));
    let failed = AtomicBool::new(false);
    pool::global().run_workers(workers, &|w| {
        let mut sink = make_sink();
        let mut res: CoreResult<()> = Ok(());
        'work: for off in 0..workers {
            let own = off == 0;
            let lane = &lanes[(w + off) % workers];
            loop {
                if failed.load(Ordering::Relaxed) {
                    break 'work;
                }
                let next = {
                    let mut lane = lane.lock().expect("no panics while holding lane lock");
                    if own {
                        lane.pop_front()
                    } else {
                        lane.pop_back()
                    }
                };
                let Some(m) = next else { break };
                if let Err(e) = process_morsel(&legs[m.leg], &m.chunk, &mut sink) {
                    failed.store(true, Ordering::Relaxed);
                    res = Err(e);
                    break 'work;
                }
            }
        }
        results
            .lock()
            .expect("no panics while holding results lock")
            .push(res.map(|()| sink));
    })?;

    let mut sinks = Vec::with_capacity(workers);
    for r in results.into_inner().expect("workers joined") {
        sinks.push(r?);
    }
    Ok(sinks)
}

/// Materialises one morsel as a columnar batch and pushes it through the
/// whole operator chain into the worker's sink.
fn process_morsel<S: Sink>(leg: &Leg<'_>, chunk: &Chunk<'_>, sink: &mut S) -> CoreResult<()> {
    let len = match chunk {
        Chunk::Borrowed(s) => s.len(),
        Chunk::Owned(s) => s.len(),
    };
    let mut batch = CountedBatch::with_capacity(Arc::clone(&leg.schema), len);
    match chunk {
        Chunk::Borrowed(s) => {
            for (t, m) in *s {
                batch.push_row(t, *m);
            }
        }
        Chunk::Owned(s) => {
            for (t, m) in *s {
                batch.push_row(t, *m);
            }
        }
    }
    for op in &leg.ops {
        if batch.is_empty() {
            return Ok(());
        }
        match apply_op(op, batch)? {
            Some(b) => batch = b,
            None => return Ok(()),
        }
    }
    if !batch.is_empty() {
        sink.consume(batch)?;
    }
    Ok(())
}

fn apply_op(op: &MorselOp, batch: CountedBatch) -> CoreResult<Option<CountedBatch>> {
    match op {
        MorselOp::Filter(predicate) => filter_batch(predicate, batch),
        MorselOp::Project { exprs, schema } => project_batch(exprs, schema, batch).map(Some),
        MorselOp::HashProbe {
            table,
            keys,
            cols,
            residual,
            schema,
            left_arity: _,
        } => table.probe_batch(&batch, keys, cols, schema, residual.as_ref()),
        MorselOp::ProbeProject {
            table,
            keys,
            cols,
            schema,
        } => table.probe_batch(&batch, keys, cols, schema, None),
        MorselOp::LoopProbe {
            rows: inner,
            predicate,
            schema,
        } => {
            let mut out = CountedBatch::new(Arc::clone(schema));
            for i in 0..batch.len() {
                let lt = batch.row(i);
                let lm = batch.counts()[i];
                for (rt, rm) in inner.iter() {
                    let joined = lt.concat(rt);
                    let keep = match predicate {
                        None => true,
                        Some(p) => p.eval_predicate(&joined)?,
                    };
                    if keep {
                        let m = lm
                            .checked_mul(*rm)
                            .ok_or(CoreError::Overflow("join multiplicity"))?;
                        out.push_row(&joined, m);
                    }
                }
            }
            Ok((!out.is_empty()).then_some(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, Engine};
    use mera_core::tuple;
    use mera_expr::{CmpOp, ScalarExpr};

    fn db() -> Database {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh")
            .with("s", Schema::anon(&[DataType::Int, DataType::Str]))
            .expect("fresh")
            .with("edges", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        let rs = Arc::clone(db.schema().get("r").expect("declared"));
        let mut r = Relation::empty(rs);
        for i in 0..300_i64 {
            r.insert(tuple![i % 23, i], (i % 4 + 1) as u64)
                .expect("typed");
        }
        db.replace("r", r).expect("replace");
        let ss = Arc::clone(db.schema().get("s").expect("declared"));
        let mut s = Relation::empty(ss);
        for i in 0..23_i64 {
            s.insert(tuple![i, format!("g{}", i % 7)], (i % 2 + 1) as u64)
                .expect("typed");
        }
        db.replace("s", s).expect("replace");
        let es = Arc::clone(db.schema().get("edges").expect("declared"));
        let mut e = Relation::empty(es);
        for i in 0..12_i64 {
            e.insert(tuple![i, i + 1], 1).expect("typed");
        }
        db.replace("edges", e).expect("replace");
        db
    }

    fn morsel(partitions: usize) -> Engine {
        Engine::physical().with_partitions(partitions)
    }

    /// Plans covering every operator class, including the ones hash
    /// partitioning cannot parallelize: δ, empty-key γ, − and ∩.
    fn plans() -> Vec<RelExpr> {
        let r = RelExpr::scan("r");
        let s = RelExpr::scan("s");
        vec![
            // whole pipeline: σ → ⋈ → π → γ
            r.clone()
                .select(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(250)))
                .join(s.clone(), ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
                .project(&[4, 2])
                .group_by(&[1], Aggregate::Sum, 2),
            r.clone()
                .select(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(150)))
                .join(s.clone(), ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
                .project(&[4, 2])
                .group_by(&[1], Aggregate::Cnt, 2),
            // plain equi-join, and one with a residual
            r.clone()
                .join(s.clone(), ScalarExpr::attr(1).eq(ScalarExpr::attr(3))),
            r.clone().join(
                s.clone(),
                ScalarExpr::attr(1)
                    .eq(ScalarExpr::attr(3))
                    .and(ScalarExpr::attr(2).cmp(CmpOp::Gt, ScalarExpr::int(100))),
            ),
            // θ-join (no equi-key) and product
            s.clone().join(
                s.clone(),
                ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::attr(3)),
            ),
            s.clone().product(s.clone()),
            // keyed AVG: radix-partitioned, finished per partition
            r.clone().group_by(&[1], Aggregate::Avg, 2),
            // empty-key γ — unparallelizable by hash partitioning
            r.clone().group_by(&[], Aggregate::Avg, 2),
            r.clone().group_by(&[], Aggregate::Cnt, 1),
            r.clone().group_by(&[], Aggregate::Sum, 2),
            // δ over a collapsing projection
            r.clone().project(&[1]).distinct(),
            // difference / intersection pipeline breakers
            r.clone()
                .difference(r.clone().select(ScalarExpr::attr(1).eq(ScalarExpr::int(3)))),
            r.clone().intersect(r.clone()),
            // union feeding a breaker: two legs, one sink
            r.clone().union(r.clone()).group_by(&[1], Aggregate::Cnt, 2),
            // extended projection arithmetic
            r.clone()
                .ext_project(vec![
                    ScalarExpr::attr(1).mul(ScalarExpr::int(3)),
                    ScalarExpr::attr(2),
                ])
                .select(ScalarExpr::attr(1).cmp(CmpOp::Ge, ScalarExpr::int(30))),
            // transitive closure (§5)
            RelExpr::scan("edges").closure(),
            // aggregates over a join result
            r.join(s, ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
                .group_by(&[4], Aggregate::Min, 2),
        ]
    }

    #[test]
    fn morsel_agrees_with_reference_across_partitions_and_morsel_sizes() {
        let db = db();
        for e in plans() {
            let want = reference::eval(&e, &db).expect("reference evaluates");
            for partitions in [1, 2, 8] {
                for batch_size in [1, 7, 1024] {
                    let got = morsel(partitions)
                        .with_batch_size(batch_size)
                        .run(&e, &db)
                        .expect("morsel evaluates");
                    assert_eq!(
                        got, want,
                        "partitions={partitions} batch={batch_size} plan={e}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_input_aggregates_match_reference_errors() {
        let db = db();
        let empty = RelExpr::scan("r").select(ScalarExpr::bool(false));
        // MIN over an empty multi-set is a partial function — the parallel
        // merge phase must surface the same error as the reference
        let e = empty.clone().group_by(&[], Aggregate::Min, 2);
        let want = reference::eval(&e, &db).expect_err("partial function");
        let got = morsel(4).run(&e, &db).expect_err("partial function");
        assert_eq!(got, want);
        // CNT over empty input yields a single 0 row
        let e = empty.group_by(&[], Aggregate::Cnt, 1);
        let want = reference::eval(&e, &db).expect("total");
        assert_eq!(morsel(4).run(&e, &db).expect("total"), want);
    }

    #[test]
    fn runtime_errors_propagate_from_workers() {
        let db = db();
        // division by zero inside a selection predicate, hit mid-pipeline
        let e = RelExpr::scan("r").select(
            ScalarExpr::int(1)
                .div(ScalarExpr::attr(1).sub(ScalarExpr::attr(1)))
                .eq(ScalarExpr::int(1)),
        );
        let got = morsel(4).run(&e, &db).expect_err("divides by zero");
        assert_eq!(got, CoreError::DivisionByZero);
        // ... and inside an equi-join's residual, hit during the probe
        let e = RelExpr::scan("r").join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)).and(
                ScalarExpr::int(1)
                    .div(ScalarExpr::attr(2).sub(ScalarExpr::attr(2)))
                    .eq(ScalarExpr::int(1)),
            ),
        );
        let got = morsel(4).run(&e, &db).expect_err("divides by zero");
        assert_eq!(got, CoreError::DivisionByZero);
    }

    #[test]
    fn more_partitions_than_rows_is_fine() {
        let db = db();
        let e = RelExpr::scan("s").group_by(&[2], Aggregate::Cnt, 1);
        let want = reference::eval(&e, &db).expect("reference");
        let got = morsel(64).run(&e, &db).expect("morsel");
        assert_eq!(got, want);
    }

    #[test]
    fn invalid_expressions_are_rejected_up_front() {
        let db = db();
        assert!(morsel(4).run(&RelExpr::scan("zzz"), &db).is_err());
    }
}
