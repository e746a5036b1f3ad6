//! Morsel-driven whole-pipeline execution — the physical engine, at every
//! worker count.
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
//! Attached indexes are native access paths, taken inside the same
//! pipelines: a point selection over an indexed base relation reads the
//! index's matches as its source (borrowed, never copied), and an equi-join
//! the cost model hinted probes the right relation's index per probe row
//! instead of building a hash table.
//!
//! All workers come from the process-wide reusable `crate::pool` — no
//! per-operator thread spawns — and the calling thread is always one of
//! the workers, so execution completes even when the pool is saturated;
//! at one worker it is the only one, and no scheduling happens at all.
//! Worker panics surface as [`CoreError::WorkerPanicked`]. [`Engine::run`]
//! and [`Engine::run_instrumented`] dispatch every physical plan here;
//! agreement with the reference evaluator across worker counts and morsel
//! sizes is property-tested in `tests/engine_equivalence.rs`.
//!
//! [`Engine::run`]: crate::engine::Engine::run
//! [`Engine::run_instrumented`]: crate::engine::Engine::run_instrumented

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mera_core::multiset::Bag;
use mera_core::prelude::*;
use mera_expr::rel::RelExpr;
use mera_expr::{ext_project_schema, Aggregate, ScalarExpr};
use rustc_hash::FxHashSet;

use crate::engine::{Engine, ExecOptions};
use crate::index::{split_point_conjuncts, HashIndex};
use crate::physical::agg::{AggState, GroupBySpec};
use crate::physical::column::radix_of;
use crate::physical::join::{
    extract_equi_condition, full_probe_cols, loop_probe_batch, JoinTable, ProbeCol, RadixJoinTable,
};
use crate::physical::ops::{filter_batch, project_batch};
use crate::physical::stats::{ExecStats, OpCounter};
use crate::physical::{Counted, CountedBatch};
use crate::pool;
use crate::provider::RelationProvider;

/// Engine entry point (input already schema-checked): compiles `expr`
/// under the engine's options, indexes and hints, registering one counter
/// per plan node in `stats` when given, and collects the result. The
/// batch size doubles as the morsel size: the unit of work a worker
/// claims from the shared queue.
pub(crate) fn run(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
    engine: &Engine,
    stats: Option<&mut ExecStats>,
) -> CoreResult<Relation> {
    let opts = engine.options();
    let mut plan = Compiler {
        provider,
        engine,
        stats,
    }
    .compile(expr)?;
    if is_passthrough(&plan) {
        // the plan ended on a breaker, a lookup or a bare scan: its rows
        // are final, so they become the relation without a pipeline run
        return match plan.legs.pop().expect("single leg").source {
            Source::Rel(rel) => Ok(rel.clone()),
            Source::Rows(rows) => Relation::from_counted(plan.schema, rows.iter().cloned()),
        };
    }
    let schema = &plan.schema;
    let mut parts =
        run_pipeline(&plan.legs, opts, || Relation::empty(Arc::clone(schema)))?.into_iter();
    let mut out = parts.next().expect("every run has a worker");
    for part in parts {
        for (t, m) in part.iter() {
            out.insert(t.clone(), m)?;
        }
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
    /// Counted rows: an index lookup's matches, borrowed from the index,
    /// or the materialised output of an upstream pipeline breaker.
    Rows(Cow<'a, [Counted]>),
}

/// Streaming (morsel-wise) operators. Each maps one columnar batch to the
/// next, with no state shared between morsels — shared structures
/// (`RadixJoinTable`s, indexes, loop-join inner sides) are read-only.
/// Schema-changing operators carry their output schema so batches can be
/// assembled without consulting pipeline state.
enum MorselOp<'a> {
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
    /// Index-nested-loop probe of a hinted equi-join: each probe row looks
    /// its key up in the right relation's index; equalities the index does
    /// not bind and the join's other conjuncts are re-checked as
    /// `residual` over the concatenated row.
    IndexProbe {
        index: &'a HashIndex,
        /// 0-based probe-side key offsets, in the index's key order.
        keys: Vec<usize>,
        residual: Option<ScalarExpr>,
        schema: SchemaRef,
    },
    /// θ-join / product against a shared materialised inner side.
    LoopProbe {
        rows: Arc<Vec<Counted>>,
        predicate: Option<ScalarExpr>,
        schema: SchemaRef,
    },
    /// EXPLAIN instrumentation: counts the rows leaving one plan node and
    /// passes the batch on untouched.
    Count(Arc<OpCounter>),
}

/// One leg of a pipeline: a source (with its schema, so morsels can be
/// assembled into columnar batches) plus the operator chain every one of
/// its morsels flows through. A pipeline has several legs exactly when
/// `⊎`-unions occur below the breaker — union is not a breaker, its sides
/// simply contribute their morsels to the same sink.
struct Leg<'a> {
    source: Source<'a>,
    schema: SchemaRef,
    ops: Vec<MorselOp<'a>>,
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

    /// A pipeline over rows a breaker has just materialised.
    fn owned(rows: Vec<Counted>, schema: SchemaRef) -> Self {
        Self::single(Source::Rows(Cow::Owned(rows)), schema)
    }

    fn push_op(&mut self, op: impl Fn() -> MorselOp<'a>) {
        for leg in &mut self.legs {
            leg.ops.push(op());
        }
    }
}

// ----------------------------------------------------------------------
// Plan → pipelines (breaker identification, access paths)
// ----------------------------------------------------------------------

/// The one physical planner: what a plan compiles against.
struct Compiler<'a, 's, P: ?Sized> {
    provider: &'a P,
    /// Options, attached indexes and index-join hints.
    engine: &'a Engine,
    /// Where to register per-node counters (EXPLAIN, experiment E5).
    stats: Option<&'s mut ExecStats>,
}

/// A hinted join the compiler runs index-nested-loop.
struct IndexJoin<'a> {
    /// The probed base relation.
    rel: &'a str,
    index: &'a HashIndex,
    /// 0-based probe-side key offsets, in the index's key order.
    keys: Vec<usize>,
    residual: Option<ScalarExpr>,
}

impl<'a, P: RelationProvider + ?Sized> Compiler<'a, '_, P> {
    /// Recursively decomposes `expr` into pipelines, **running** every
    /// pipeline below a breaker as it is reached (post-order): join build
    /// sides, group-bys, distincts, differences/intersections and closures
    /// execute here, and their materialised results become owned legs of
    /// the parent pipeline. What is returned is the topmost (still
    /// unexecuted) pipeline, ready for the caller's sink.
    ///
    /// When instrumented, every node registers its counter after its
    /// children (post-order) and appends a [`MorselOp::Count`]; nodes that
    /// take an index are labelled with the access path instead of the
    /// operator, and the base relation they read registers no counter.
    fn compile(&mut self, expr: &'a RelExpr) -> CoreResult<Pipeline<'a>> {
        let opts = self.engine.options();
        let mut access_path = None;
        let mut p = match expr {
            RelExpr::Scan(name) => {
                let rel = self.provider.relation(name)?;
                Pipeline::single(Source::Rel(rel), Arc::clone(rel.schema()))
            }
            RelExpr::Values(rel) => Pipeline::single(Source::Rel(rel), Arc::clone(rel.schema())),
            RelExpr::Union(l, r) => {
                let mut lp = self.compile(l)?;
                let rp = self.compile(r)?;
                lp.legs.extend(rp.legs);
                lp
            }
            RelExpr::Select { input, predicate } => match self.index_lookup(input, predicate) {
                Some((p, label)) => {
                    access_path = Some(label);
                    p
                }
                None => {
                    let mut p = self.compile(input)?;
                    p.push_op(|| MorselOp::Filter(predicate.clone()));
                    p
                }
            },
            RelExpr::Project { input, attrs } => {
                let mut p = self.compile(input)?;
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
                let mut p = self.compile(input)?;
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
                let mut lp = self.compile(l)?;
                let rp = self.compile(r)?;
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
                let mut lp = self.compile(left)?;
                if let Some(IndexJoin {
                    rel,
                    index,
                    keys,
                    residual,
                }) = self.index_join(&lp.schema, right, predicate)?
                {
                    // probed per left row: the right side is never scanned
                    // (and registers no counter)
                    let schema = Arc::new(lp.schema.concat(index.schema()));
                    lp.push_op(|| MorselOp::IndexProbe {
                        index,
                        keys: keys.clone(),
                        residual: residual.clone(),
                        schema: Arc::clone(&schema),
                    });
                    lp.schema = schema;
                    access_path = Some(format!("index_nl_join({rel})"));
                    lp
                } else {
                    let rp = self.compile(right)?;
                    let schema = Arc::new(lp.schema.concat(&rp.schema));
                    match extract_equi_condition(predicate, lp.schema.arity(), rp.schema.arity()) {
                        Some(cond) => {
                            // pipeline breaker: build the shared
                            // radix-partitioned table once, in parallel, from
                            // the build side's own pipeline; both key lists
                            // resolve to offsets here, at plan time
                            let build_keys =
                                ResolvedAttrs::new(&cond.right_keys, rp.schema.arity())?;
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
            }
            RelExpr::GroupBy {
                input,
                keys,
                agg,
                attr,
            } => {
                let p = self.compile(input)?;
                let spec = GroupBySpec::new(&p.schema, keys, *agg, *attr)?;
                let rows = run_agg(p, spec.keys, *agg, spec.attr0, spec.in_type, opts)?;
                Pipeline::owned(rows, spec.schema)
            }
            RelExpr::Distinct(input) => {
                let p = self.compile(input)?;
                let schema = Arc::clone(&p.schema);
                Pipeline::owned(run_distinct(p, opts)?, schema)
            }
            RelExpr::Difference(l, r) => {
                let lp = self.compile(l)?;
                let schema = Arc::clone(&lp.schema);
                let lb = run_bag(lp, opts)?;
                let rb = run_bag(self.compile(r)?, opts)?;
                Pipeline::owned(bag_rows(lb.difference(&rb)), schema)
            }
            RelExpr::Intersect(l, r) => {
                let lp = self.compile(l)?;
                let schema = Arc::clone(&lp.schema);
                let lb = run_bag(lp, opts)?;
                let rb = run_bag(self.compile(r)?, opts)?;
                Pipeline::owned(bag_rows(lb.intersection(&rb)), schema)
            }
            RelExpr::Closure(input) => {
                let p = self.compile(input)?;
                let schema = Arc::clone(&p.schema);
                let bag = run_bag(p, opts)?;
                let mut rel = Relation::empty(Arc::clone(&schema));
                for (t, m) in bag {
                    rel.insert(t, m)?;
                }
                let closed = crate::reference::transitive_closure(&rel)?;
                let rows: Vec<Counted> = closed.iter().map(|(t, m)| (t.clone(), m)).collect();
                Pipeline::owned(rows, schema)
            }
        };
        if let Some(stats) = self.stats.as_deref_mut() {
            let label = access_path.unwrap_or_else(|| describe(expr));
            let counter = stats.register(label, p.schema.arity());
            p.push_op(|| MorselOp::Count(Arc::clone(&counter)));
        }
        Ok(p)
    }

    /// `σ_{predicate}(input)` as an index lookup: when `input` scans a base
    /// relation and the point-equality conjuncts (`%i = literal`) exactly
    /// cover an index's key set, the source is the index's matches for
    /// that key — borrowed, never copied — and the remaining conjuncts
    /// filter them. A lookup is never worse than scan-and-filter, so no
    /// hint is needed. Returns the pipeline and its access-path label.
    fn index_lookup(
        &self,
        input: &'a RelExpr,
        predicate: &ScalarExpr,
    ) -> Option<(Pipeline<'a>, String)> {
        let engine: &'a Engine = self.engine;
        let (Some(indexes), RelExpr::Scan(rel)) = (engine.indexes(), input) else {
            return None;
        };
        let (points, rest) = split_point_conjuncts(predicate);
        if points.is_empty() {
            return None;
        }
        let attrs: Vec<usize> = points.iter().map(|(i, _)| *i).collect();
        let index = indexes.find(rel, &attrs)?;
        // the key tuple, in the index's key-attribute order
        let key = index
            .key_attrs()
            .iter()
            .map(|k| {
                let (_, v) = points
                    .iter()
                    .find(|(i, _)| i == k)
                    .expect("index keys match point attributes");
                v.clone()
            })
            .collect();
        let mut p = Pipeline::single(
            Source::Rows(Cow::Borrowed(index.matches(&key))),
            Arc::clone(index.schema()),
        );
        if !rest.is_empty() {
            let rest = ScalarExpr::conjoin(rest);
            p.push_op(|| MorselOp::Filter(rest.clone()));
        }
        Some((p, format!("index_lookup({rel})")))
    }

    /// `left ⋈_{predicate} right` as an index-nested-loop join: when
    /// `right` scans an indexed base relation and the cost model hinted an
    /// index whose key set the join's equi-keys cover. The hint may bind
    /// only a subset of the equi-keys (a partial-key probe): leftover
    /// equalities join the predicate's other conjuncts as the residual.
    /// Probing per left row beats a hash build only when the probe side is
    /// small relative to the indexed side — a statistics question, so
    /// unhinted joins never take this path.
    fn index_join(
        &self,
        left: &SchemaRef,
        right: &'a RelExpr,
        predicate: &ScalarExpr,
    ) -> CoreResult<Option<IndexJoin<'a>>> {
        let engine: &'a Engine = self.engine;
        let (Some(indexes), RelExpr::Scan(rel)) = (engine.indexes(), right) else {
            return Ok(None);
        };
        let la = left.arity();
        let ra = self.provider.relation(rel)?.schema().arity();
        let Some(cond) = extract_equi_condition(predicate, la, ra) else {
            return Ok(None);
        };
        // best hinted index for this join: every hinted key must be an
        // equi-key; prefer the longest (most selective) hinted key set
        let mut hint_keys: Option<&Vec<usize>> = None;
        for (r, k) in engine.index_hints() {
            if r != rel || !k.iter().all(|a| cond.right_keys.contains(a)) {
                continue;
            }
            let better = match hint_keys {
                None => true,
                Some(b) => k.len() > b.len() || (k.len() == b.len() && k < b),
            };
            if better {
                hint_keys = Some(k);
            }
        }
        let Some(index) = hint_keys.and_then(|k| indexes.find(rel, k)) else {
            return Ok(None);
        };
        // one probe key per index key attribute; the condition carries
        // 1-based attribute numbers, the probe takes 0-based offsets
        let mut used = vec![false; cond.right_keys.len()];
        let mut keys = Vec::with_capacity(index.key_attrs().len());
        for &ik in index.key_attrs() {
            let pos = cond
                .right_keys
                .iter()
                .position(|&rk| rk == ik)
                .expect("hinted keys are equi-keys");
            used[pos] = true;
            keys.push(cond.left_keys[pos] - 1);
        }
        // unbound equi pairs are re-checked over the concatenated schema
        // (right attributes shift by the left arity)
        let mut residuals: Vec<ScalarExpr> = cond
            .right_keys
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(i, &rk)| ScalarExpr::attr(cond.left_keys[i]).eq(ScalarExpr::attr(la + rk)))
            .collect();
        residuals.extend(cond.residual);
        Ok(Some(IndexJoin {
            rel,
            index,
            keys,
            residual: (!residuals.is_empty()).then(|| ScalarExpr::conjoin(residuals)),
        }))
    }
}

/// A node's counter label: the operator name, plus the relation for scans.
fn describe(expr: &RelExpr) -> String {
    match expr {
        RelExpr::Scan(name) => format!("scan({name})"),
        other => other.op_name().to_owned(),
    }
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
/// directly below it: each leg's last [`MorselOp::HashProbe`] becomes a
/// [`MorselOp::ProbeProject`] that gathers output columns in projected
/// form, so the concatenated intermediate batch never exists. Counters of
/// the nodes in between (the join's own, a union's) stay after it: they
/// count rows, which the projection does not change, and each knows its
/// own arity for the cell count. Returns `false` (and fuses nothing)
/// unless *every* leg ends in such a probe: probes with a residual need
/// the full concatenated row to evaluate it, and other trailing ops have
/// nothing to fuse with.
fn fuse_probe_project(p: &mut Pipeline<'_>, indexes: &[usize], out_schema: &SchemaRef) -> bool {
    let probe_at = |leg: &Leg<'_>| {
        leg.ops
            .iter()
            .rposition(|op| !matches!(op, MorselOp::Count(_)))
            .filter(|&i| matches!(leg.ops[i], MorselOp::HashProbe { residual: None, .. }))
    };
    if p.legs.is_empty() || !p.legs.iter().all(|leg| probe_at(leg).is_some()) {
        return false;
    }
    for leg in &mut p.legs {
        let at = probe_at(leg).expect("checked above");
        let MorselOp::HashProbe {
            table,
            keys,
            left_arity,
            ..
        } = &leg.ops[at]
        else {
            unreachable!("probe_at finds residual-free probes");
        };
        let cols = indexes
            .iter()
            .map(|&i| {
                if i <= *left_arity {
                    ProbeCol::Left(i - 1)
                } else {
                    ProbeCol::Right(i - 1 - left_arity)
                }
            })
            .collect();
        let fused = MorselOp::ProbeProject {
            table: Arc::clone(table),
            keys: keys.clone(),
            cols,
            schema: Arc::clone(out_schema),
        };
        leg.ops[at] = fused;
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

/// The result relation: the per-worker parts of the final collection,
/// filled straight from the last pipeline's batches.
impl Sink for Relation {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        for (t, m) in batch {
            self.insert(t, m)?;
        }
        Ok(())
    }
}

/// Merged counted bag — the difference/intersection and closure
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

/// Phase one of two-phase aggregation (empty-key `γ`, and keyed `γ` on a
/// single worker — with more, keyed `γ` radix-partitions instead).
struct AggSink(AggState);

impl Sink for AggSink {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        self.0.update_batch(&batch)
    }
}

/// A single worker's join build: batches go straight into the table.
impl Sink for JoinTable {
    fn consume(&mut self, batch: CountedBatch) -> CoreResult<()> {
        self.insert_batch(&batch);
        Ok(())
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
            Source::Rows(rows) => rows.into_owned(),
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
            Source::Rows(rows) => {
                for (t, m) in rows.iter() {
                    out.insert(t.clone(), *m)?;
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
/// are complete as built and there is no merge step. A single worker
/// builds its one table directly.
fn run_build(
    p: Pipeline<'_>,
    keys: ResolvedAttrs,
    opts: &ExecOptions,
) -> CoreResult<RadixJoinTable> {
    let parts = worker_count(opts);
    let schema = Arc::clone(&p.schema);
    if parts == 1 {
        let tables = run_pipeline(&p.legs, opts, || {
            JoinTable::new(keys.clone(), Arc::clone(&schema))
        })?;
        return Ok(RadixJoinTable::new(tables));
    }
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
/// shape: thread-local [`AggState`]s, one merge, one finish — as does a
/// single worker, which has nothing to partition. Both are exact for
/// every aggregate.
fn run_agg(
    p: Pipeline<'_>,
    keys: Option<ResolvedAttrs>,
    agg: Aggregate,
    attr0: usize,
    in_type: DataType,
    opts: &ExecOptions,
) -> CoreResult<Vec<Counted>> {
    let parts = worker_count(opts);
    let keys = match keys {
        Some(keys) if parts > 1 => keys,
        keys => {
            let sinks = run_pipeline(&p.legs, opts, || {
                AggSink(AggState::new(keys.clone(), attr0))
            })?;
            let mut iter = sinks.into_iter();
            let mut state = match iter.next() {
                Some(s) => s.0,
                None => AggState::new(keys, attr0),
            };
            for s in iter {
                state.merge(s.0)?;
            }
            return state.finish(agg, in_type);
        }
    };
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
    Rows(&'e [Counted]),
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
fn run_pipeline<S, F>(legs: &[Leg<'_>], opts: &ExecOptions, make_sink: F) -> CoreResult<Vec<S>>
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
            Source::Rows(_) => None,
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
            Source::Rows(rows) => {
                for chunk in rows.chunks(morsel_size) {
                    morsels.push(Morsel {
                        leg: li,
                        chunk: Chunk::Rows(chunk),
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
        Chunk::Rows(s) => s.len(),
    };
    let mut batch = CountedBatch::with_capacity(Arc::clone(&leg.schema), len);
    match chunk {
        Chunk::Borrowed(s) => {
            for (t, m) in *s {
                batch.push_row(t, *m);
            }
        }
        Chunk::Rows(s) => {
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

fn apply_op(op: &MorselOp<'_>, batch: CountedBatch) -> CoreResult<Option<CountedBatch>> {
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
        MorselOp::IndexProbe {
            index,
            keys,
            residual,
            schema,
        } => index.probe_batch(&batch, keys, schema, residual.as_ref()),
        MorselOp::LoopProbe {
            rows,
            predicate,
            schema,
        } => loop_probe_batch(&batch, rows, predicate.as_ref(), schema),
        MorselOp::Count(counter) => {
            counter.record(batch.total_multiplicity());
            Ok(Some(batch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reference, IndexJoinHints, IndexSet};
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
            r.clone()
                .join(s.clone(), ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
                .group_by(&[4], Aggregate::Min, 2),
            // bare scans (passthrough), unions and a collapsing projection
            r.clone(),
            r.clone().union(r.clone()),
            s.clone().project(&[2]),
            // a chain through every breaker kind above a product
            r.clone()
                .union(r)
                .project(&[1])
                .distinct()
                .product(s)
                .select(ScalarExpr::attr(2).eq(ScalarExpr::int(3)))
                .group_by(&[1], Aggregate::Cnt, 1),
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
        for workers in [1, 4] {
            assert!(morsel(workers).run(&RelExpr::scan("zzz"), &db).is_err());
            let bad = RelExpr::scan("r").union(RelExpr::scan("s"));
            assert!(morsel(workers).run(&bad, &db).is_err());
        }
    }

    /// A database of single-column int relations with the given
    /// `(value, multiplicity)` rows.
    fn ints_db(rels: &[(&str, &[(i64, u64)])]) -> Database {
        let mut schema = DatabaseSchema::new();
        for (name, _) in rels {
            schema = schema
                .with(name, Schema::anon(&[DataType::Int]))
                .expect("fresh");
        }
        let mut db = Database::new(schema);
        for (name, rows) in rels {
            let rs = Arc::clone(db.schema().get(name).expect("declared"));
            let rel = Relation::from_counted(rs, rows.iter().map(|&(v, m)| (tuple![v], m)))
                .expect("typed");
            db.replace(name, rel).expect("replace");
        }
        db
    }

    /// Runs `e` at workers {1, 3} × morsel sizes {1, 2, 1024}, requiring
    /// every run to agree with the reference, and returns that result.
    fn agreed(e: &RelExpr, db: &Database) -> Relation {
        let want = reference::eval(e, db).expect("reference evaluates");
        for workers in [1, 3] {
            for batch in [1, 2, 1024] {
                let got = morsel(workers).with_batch_size(batch).run(e, db);
                assert_eq!(
                    got.as_ref(),
                    Ok(&want),
                    "workers={workers} batch={batch}: {e}"
                );
            }
        }
        want
    }

    #[test]
    fn union_adds() {
        let db = ints_db(&[("a", &[(1, 2)]), ("b", &[(1, 3), (2, 1)])]);
        let out = agreed(&RelExpr::scan("a").union(RelExpr::scan("b")), &db);
        assert_eq!(out.multiplicity(&tuple![1_i64]), 5);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn distinct_emits_once() {
        // the union puts the same tuple in rows of two legs
        let db = ints_db(&[("a", &[(1, 5), (2, 1)]), ("b", &[(1, 4)])]);
        let out = agreed(
            &RelExpr::scan("a").union(RelExpr::scan("b")).distinct(),
            &db,
        );
        assert_eq!(out.multiplicity(&tuple![1_i64]), 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn difference_merges_chunked_input() {
        // left emits <1> in two rows (2 and 3); right has 4. pointwise law
        // on merged counts: max(0, 5-4) = 1.
        let db = ints_db(&[("a", &[(1, 2)]), ("b", &[(1, 3)]), ("c", &[(1, 4)])]);
        let e = RelExpr::scan("a")
            .union(RelExpr::scan("b"))
            .difference(RelExpr::scan("c"));
        assert_eq!(agreed(&e, &db).multiplicity(&tuple![1_i64]), 1);
    }

    #[test]
    fn intersect_merges_chunked_input() {
        let db = ints_db(&[("a", &[(1, 2)]), ("b", &[(1, 3)]), ("c", &[(1, 4), (9, 1)])]);
        let e = RelExpr::scan("a")
            .union(RelExpr::scan("b"))
            .intersect(RelExpr::scan("c"));
        let out = agreed(&e, &db);
        assert_eq!(out.multiplicity(&tuple![1_i64]), 4);
        assert_eq!(out.len(), 4);
    }

    /// Runs `engine` instrumented, returning the result and the counters
    /// as `(label, rows, cells)`.
    fn instrumented(
        engine: &Engine,
        e: &RelExpr,
        db: &Database,
    ) -> (Relation, Vec<(String, u64, u64)>) {
        let mut stats = ExecStats::new();
        let out = engine
            .run_instrumented(e, db, &mut stats)
            .expect("evaluates");
        let counters = stats
            .rows_out()
            .into_iter()
            .zip(stats.cells_out())
            .map(|((label, rows), (_, cells))| (label, rows, cells))
            .collect();
        (out, counters)
    }

    #[test]
    fn instrumented_plan_counts_rows() {
        let db = db();
        let r = db.relation("r").expect("present").len();
        let filtered =
            RelExpr::scan("r").select(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(100)));
        let kept = reference::eval(&filtered, &db).expect("evaluates").len();
        // σ → π, and a join whose pure-column projection fuses into the
        // probe: the fused op still counts for the join (at the join's
        // arity) and for the projection
        let joined = RelExpr::scan("r").join(
            RelExpr::scan("s"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        let pairs = reference::eval(&joined, &db).expect("evaluates").len();
        let s = db.relation("s").expect("present").len();
        let cases = [
            (
                filtered.project(&[1]),
                vec![
                    ("scan(r)", r, 2 * r),
                    ("select", kept, 2 * kept),
                    ("project", kept, kept),
                ],
            ),
            (
                joined.project(&[4, 2]),
                vec![
                    ("scan(r)", r, 2 * r),
                    ("scan(s)", s, 2 * s),
                    ("join", pairs, 4 * pairs),
                    ("project", pairs, 2 * pairs),
                ],
            ),
        ];
        for (e, want) in cases {
            let want: Vec<(String, u64, u64)> = want
                .into_iter()
                .map(|(l, rows, cells)| (l.to_owned(), rows, cells))
                .collect();
            for workers in [1, 3] {
                for batch in [1, 7, 1024] {
                    let engine = morsel(workers).with_batch_size(batch);
                    let (out, counters) = instrumented(&engine, &e, &db);
                    assert_eq!(out, reference::eval(&e, &db).expect("evaluates"));
                    assert_eq!(counters, want, "workers={workers} batch={batch}: {e}");
                }
            }
        }
    }

    /// `e(k, v)` with an index on `k`: key 1 carries two tuples (one of
    /// them twice), key 2 one.
    fn edge_db() -> (Database, IndexSet) {
        let schema = DatabaseSchema::new()
            .with("e", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        let es = Arc::clone(db.schema().get("e").expect("declared"));
        let rel = Relation::from_counted(
            es,
            vec![
                (tuple![1_i64, 10_i64], 1),
                (tuple![1_i64, 11_i64], 2),
                (tuple![2_i64, 20_i64], 1),
            ],
        )
        .expect("typed");
        db.replace("e", rel).expect("replace");
        let mut indexes = IndexSet::new();
        indexes.create(&db, "e", &[1]).expect("index builds");
        (db, indexes)
    }

    /// The index engines of a test: workers {1, 3} × morsel sizes {1,
    /// 1024}, with `hints`.
    fn index_engines(indexes: &IndexSet, hints: &IndexJoinHints) -> Vec<Engine> {
        let mut out = Vec::new();
        for workers in [1, 3] {
            for batch in [1, 1024] {
                out.push(
                    morsel(workers)
                        .with_batch_size(batch)
                        .with_indexes(indexes.clone())
                        .with_index_hints(hints.clone()),
                );
            }
        }
        out
    }

    fn e_hint() -> IndexJoinHints {
        let mut hints = IndexJoinHints::default();
        hints.insert(("e".to_owned(), vec![1]));
        hints
    }

    #[test]
    fn index_lookup_borrows_matches() {
        let (db, indexes) = edge_db();
        for engine in index_engines(&indexes, &IndexJoinHints::default()) {
            let hit = RelExpr::scan("e").select(ScalarExpr::attr(1).eq(ScalarExpr::int(1)));
            let (out, counters) = instrumented(&engine, &hit, &db);
            assert_eq!(out.len(), 3);
            assert_eq!(out.multiplicity(&tuple![1_i64, 11_i64]), 2);
            // the lookup replaces the scan: no `scan(e)` counter under it
            assert_eq!(counters, vec![("index_lookup(e)".to_owned(), 3, 6)]);
            // a residual conjunct filters the matches
            let narrowed = RelExpr::scan("e").select(
                ScalarExpr::attr(1)
                    .eq(ScalarExpr::int(1))
                    .and(ScalarExpr::attr(2).cmp(CmpOp::Gt, ScalarExpr::int(10))),
            );
            let out = engine.run(&narrowed, &db).expect("evaluates");
            assert_eq!(out, reference::eval(&narrowed, &db).expect("evaluates"));
            let miss = RelExpr::scan("e").select(ScalarExpr::attr(1).eq(ScalarExpr::int(9)));
            assert!(engine.run(&miss, &db).expect("evaluates").is_empty());
        }
    }

    #[test]
    fn index_probe_matches_hash_join() {
        let (db, indexes) = edge_db();
        let e = RelExpr::scan("e").join(
            RelExpr::scan("e"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        let hashed = morsel(1).run(&e, &db).expect("evaluates");
        // 1-keyed rows: (1,10)×1 and (1,11)×2 on each side → 9 pairs with
        // multiplicity; 2-keyed: 1
        assert_eq!(hashed.len(), 10);
        assert_eq!(
            hashed.multiplicity(&tuple![1_i64, 11_i64, 1_i64, 11_i64]),
            4,
            "multiplicities multiply"
        );
        for engine in index_engines(&indexes, &e_hint()) {
            let (out, counters) = instrumented(&engine, &e, &db);
            assert_eq!(out, hashed);
            // the probed side is never scanned
            assert_eq!(
                counters,
                vec![
                    ("scan(e)".to_owned(), 4, 8),
                    ("index_nl_join(e)".to_owned(), 10, 40)
                ]
            );
        }
    }

    #[test]
    fn index_probe_rechecks_residual() {
        let (db, indexes) = edge_db();
        let e = RelExpr::scan("e").join(
            RelExpr::scan("e"),
            ScalarExpr::attr(1)
                .eq(ScalarExpr::attr(3))
                .and(ScalarExpr::attr(2).eq(ScalarExpr::attr(4))),
        );
        for engine in index_engines(&indexes, &e_hint()) {
            let out = engine.run(&e, &db).expect("evaluates");
            assert_eq!(out.distinct_len(), 3, "only equal second columns survive");
            assert_eq!(out, reference::eval(&e, &db).expect("evaluates"));
        }
    }

    #[test]
    fn partial_key_hint_takes_the_index_path() {
        let (db, indexes) = edge_db();
        // two equi conjuncts, but only the first is indexed: the probe
        // binds %1, the second equality is re-checked as a residual (and a
        // flipped one, %3 = %1, binds the same key)
        for predicate in [
            ScalarExpr::attr(2)
                .eq(ScalarExpr::attr(4))
                .and(ScalarExpr::attr(1).eq(ScalarExpr::attr(3))),
            ScalarExpr::attr(3)
                .eq(ScalarExpr::attr(1))
                .and(ScalarExpr::attr(4).cmp(CmpOp::Ge, ScalarExpr::attr(2))),
        ] {
            let e = RelExpr::scan("e").join(RelExpr::scan("e"), predicate);
            let want = reference::eval(&e, &db).expect("evaluates");
            for engine in index_engines(&indexes, &e_hint()) {
                let (out, counters) = instrumented(&engine, &e, &db);
                assert_eq!(out, want, "{e}");
                assert!(
                    counters
                        .iter()
                        .any(|(label, ..)| label == "index_nl_join(e)"),
                    "partial-key hint should take the index path, got {counters:?}"
                );
            }
        }
    }

    #[test]
    fn index_probe_multiplicity_overflow_matches_reference() {
        // two rows of multiplicity 2^33 on the same key: their pair's
        // 2^66 does not fit, and every path must say so instead of
        // wrapping
        let schema = DatabaseSchema::new()
            .with("e", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        let es = Arc::clone(db.schema().get("e").expect("declared"));
        let big = 1_u64 << 33;
        let rel = Relation::from_counted(
            es,
            vec![(tuple![1_i64, 10_i64], big), (tuple![1_i64, 11_i64], big)],
        )
        .expect("typed");
        db.replace("e", rel).expect("replace");
        let mut indexes = IndexSet::new();
        indexes.create(&db, "e", &[1]).expect("index builds");
        let e = RelExpr::scan("e").join(
            RelExpr::scan("e"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        assert!(matches!(
            reference::eval(&e, &db),
            Err(CoreError::Overflow(_))
        ));
        for engine in index_engines(&indexes, &e_hint()) {
            let mut stats = ExecStats::new();
            let got = engine.run_instrumented(&e, &db, &mut stats);
            assert!(matches!(got, Err(CoreError::Overflow(_))), "{got:?}");
            assert!(
                stats
                    .rows_out()
                    .iter()
                    .any(|(l, _)| l == "index_nl_join(e)"),
                "the overflow must come from the index probe"
            );
        }
    }
}
