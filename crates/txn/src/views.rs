//! Materialized views with signed-delta maintenance.
//!
//! A view is a named algebra expression whose result is kept materialized
//! across commits. Instead of re-evaluating the definition after every
//! transaction, the commit path computes per-base-relation *deltas* as
//! ℤ-relations ([`TupleDelta`], a `KBag<Tuple, i64>`) and pushes them
//! through a delta-rewritten plan (`MaintNode`) whose rules run in ℤ on
//! the same bag type the database stores in ℕ:
//!
//! * σ, π and π̄ are **linear**: their multiplicity laws hold in every
//!   semiring, so in ℤ each operator is its own delta rule. The node
//!   applies [`mera_eval::reference::linear`] — the reference evaluator's
//!   own σ/π/π̄ — once to the signed delta. ⊎ is linear too: deltas add.
//! * × and ⋈ are **bilinear**: `Δ(L ⋈ R) = ΔL ⋈ R ⊎ L' ⋈ ΔR` (with `L'`
//!   the post-delta left state). Each side is kept as a
//!   [`HashIndex`] on the predicate's equi keys (one bucket when there
//!   are none), so a refresh probes `O(|Δ|)` keys and folds each side's
//!   delta in with [`HashIndex::apply_delta`].
//! * δ, γ, − and ∩ are **stateful**: their multiplicity laws
//!   (`min(1, m)`, per-group aggregation, `max(0, m₁−m₂)`, `min(m₁, m₂)`,
//!   Definitions 3.1–3.4) are not linear, so the plan keeps support
//!   counts (δ), per-group value bags (γ, at every key list) or both input
//!   bags (−/∩) and emits retraction/assertion pairs for the touched rows
//!   only.
//! * closure alone falls back to **recompute-and-diff**
//!   (`MaintNode::Recompute`): the subtree is re-evaluated and diffed
//!   against its previous result.
//!
//! The engine only evaluates: it seeds operator state when a plan is
//! built and evaluates closure and the full-recompute fallback.
//!
//! Subtrees that are provably empty in *every* database state (the
//! analyzer's emptiness lattice at `Card::Unknown` inputs) are compiled
//! to a constant-empty node — no state, no delta work.
//!
//! If an incremental refresh fails (maintenance state drifted into a
//! negative multiplicity, or an aggregate failed), the view falls back to
//! a full recompute and its plan state is rebuilt — correctness never
//! depends on the incremental path.

use std::collections::BTreeMap;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::physical::join::extract_equi_condition;
use mera_eval::provider::{RelationProvider, Schemas};
use mera_eval::{reference, Engine, HashIndex};
use mera_expr::rel::RelExpr;
use mera_expr::{Aggregate, ScalarExpr};
use rustc_hash::{FxHashMap, FxHashSet};

use crate::exec::ExecConfig;

/// A signed delta over tuples — the unit of view maintenance.
pub type TupleDelta = SignedBag<Tuple>;

/// Per-relation deltas of one commit, keyed by relation (or view) name.
pub type DeltaMap = BTreeMap<String, TupleDelta>;

/// Why a `CREATE MATERIALIZED VIEW` was refused.
#[derive(Debug, Clone)]
pub enum CreateViewError {
    /// Static validation failed (self-reference, schema errors, partial
    /// definition); carries every diagnostic.
    Rejected(Vec<mera_analyze::Diagnostic>),
    /// The initial evaluation of the definition failed.
    Error(CoreError),
}

impl std::fmt::Display for CreateViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreateViewError::Rejected(diags) => {
                let first = mera_analyze::first_error(diags)
                    .expect("a rejection carries at least one error");
                write!(f, "view definition rejected: {first}")
            }
            CreateViewError::Error(e) => write!(f, "view creation failed: {e}"),
        }
    }
}

impl std::error::Error for CreateViewError {}

impl From<CoreError> for CreateViewError {
    fn from(e: CoreError) -> Self {
        CreateViewError::Error(e)
    }
}

/// One materialized view: definition, maintenance plan and current data.
#[derive(Debug, Clone)]
pub struct View {
    name: String,
    expr: RelExpr,
    schema: SchemaRef,
    deps: Vec<String>,
    plan: MaintNode,
    data: Arc<Relation>,
    refreshes: u64,
    fallbacks: u64,
}

impl View {
    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining algebra expression.
    pub fn expr(&self) -> &RelExpr {
        &self.expr
    }

    /// The view's relation schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Names the definition scans (base relations and earlier views).
    pub fn deps(&self) -> &[String] {
        &self.deps
    }

    /// The current materialized contents.
    pub fn data(&self) -> &Arc<Relation> {
        &self.data
    }

    /// How many commits refreshed this view, and how many of those fell
    /// back to a full recompute.
    pub fn refresh_stats(&self) -> (u64, u64) {
        (self.refreshes, self.fallbacks)
    }
}

/// The materialized views of one database, in creation order (which is a
/// topological order of the dependency graph: a view may only reference
/// names that already exist).
#[derive(Debug, Clone, Default)]
pub struct ViewSet {
    views: Vec<View>,
}

impl ViewSet {
    /// An empty view set.
    pub fn new() -> Self {
        ViewSet::default()
    }

    /// True when no views exist (the zero-overhead fast path).
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// The views in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &View> {
        self.views.iter()
    }

    /// Looks a view up by name.
    pub fn get(&self, name: &str) -> Option<&View> {
        self.views.iter().find(|v| v.name == name)
    }

    /// True when a view with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Cheap per-transaction snapshots of every view's contents.
    pub fn snapshots(&self) -> BTreeMap<String, Arc<Relation>> {
        self.views
            .iter()
            .map(|v| (v.name.clone(), Arc::clone(&v.data)))
            .collect()
    }

    /// The union of every view's dependency set — the base relations
    /// whose deltas commits must capture.
    pub fn tracked_relations(&self) -> std::collections::BTreeSet<String> {
        self.views
            .iter()
            .flat_map(|v| v.deps.iter().cloned())
            .collect()
    }

    /// Creates a view over `expr` against the current database state:
    /// validates the definition (self-reference, schema inference,
    /// totality — see `mera_analyze::analyze_view_def`), evaluates it
    /// once, and compiles the delta-maintenance plan.
    pub fn create(
        &mut self,
        name: &str,
        expr: RelExpr,
        db: &Database,
        config: ExecConfig,
    ) -> Result<SchemaRef, CreateViewError> {
        if self.contains(name) || db.schema().contains(name) {
            return Err(CreateViewError::Error(CoreError::DuplicateRelation(
                name.to_owned(),
            )));
        }
        let provider = ViewCatalog {
            views: &self.views,
            db,
        };
        let analysis = mera_analyze::analyze_view_def(name, &expr, &Schemas(&provider));
        if !analysis.is_accepted() {
            return Err(CreateViewError::Rejected(analysis.diagnostics));
        }
        let schema = analysis
            .schema
            .expect("an accepted view definition has a schema");
        let plan = MaintNode::build(&expr, &provider, config)?;
        let data = eval(&expr, &provider, config)?;
        self.views.push(View {
            name: name.to_owned(),
            expr,
            schema: Arc::clone(&schema),
            deps: analysis.deps,
            plan,
            data: Arc::new(data),
            refreshes: 0,
            fallbacks: 0,
        });
        Ok(schema)
    }

    /// Refreshes every view after a commit. `deltas` holds the signed
    /// per-base-relation changes of the transaction; `db` is the
    /// *post-commit* state. Views refresh in creation order, and each
    /// view's own delta joins the map so downstream views see it.
    ///
    /// A view whose incremental refresh fails is recomputed from scratch
    /// and its plan rebuilt — the error is absorbed, not surfaced.
    pub fn refresh_after_commit(
        &mut self,
        mut deltas: DeltaMap,
        db: &Database,
        config: ExecConfig,
    ) -> CoreResult<()> {
        for i in 0..self.views.len() {
            let (done, rest) = self.views.split_at_mut(i);
            let view = &mut rest[0];
            let touched = view
                .deps
                .iter()
                .any(|d| deltas.get(d).is_some_and(|x| !x.is_empty()));
            if !touched {
                continue;
            }
            let provider = ViewCatalog { views: done, db };
            view.refreshes += 1;
            let delta = match view.plan.refresh(&deltas, &provider, config) {
                Ok(delta) => match Arc::make_mut(&mut view.data).apply(&delta) {
                    Ok(()) => delta,
                    Err(_) => Self::recompute_view(view, &provider, config)?,
                },
                Err(_) => Self::recompute_view(view, &provider, config)?,
            };
            if !delta.is_empty() {
                deltas.insert(view.name.clone(), delta);
            }
        }
        Ok(())
    }

    /// Full-recompute fallback: re-evaluates the definition, diffs
    /// against the old contents (so downstream views still get a delta),
    /// and rebuilds the maintenance state.
    fn recompute_view(
        view: &mut View,
        provider: &ViewCatalog<'_>,
        config: ExecConfig,
    ) -> CoreResult<TupleDelta> {
        view.fallbacks += 1;
        let fresh = eval(&view.expr, provider, config)?;
        let delta = TupleDelta::from_diff(view.data.bag(), fresh.bag())?;
        view.plan = MaintNode::build(&view.expr, provider, config)?;
        view.data = Arc::new(fresh);
        Ok(delta)
    }

    /// Drops every view's data and plan and rebuilds them from `db` —
    /// the recovery path: view *definitions* are durable, view *state*
    /// is reconstructed (maintenance guarantees the incremental contents
    /// equal a fresh evaluation, so rebuild and replay agree).
    pub fn rebuild(&mut self, db: &Database, config: ExecConfig) -> CoreResult<()> {
        for i in 0..self.views.len() {
            let (done, rest) = self.views.split_at_mut(i);
            let view = &mut rest[0];
            let provider = ViewCatalog { views: done, db };
            view.plan = MaintNode::build(&view.expr, &provider, config)?;
            view.data = Arc::new(eval(&view.expr, &provider, config)?);
        }
        Ok(())
    }
}

/// Resolves already-refreshed views first, then the database — the
/// catalog every view's definition is evaluated against.
struct ViewCatalog<'a> {
    views: &'a [View],
    db: &'a Database,
}

impl RelationProvider for ViewCatalog<'_> {
    fn relation(&self, name: &str) -> CoreResult<&Relation> {
        if let Some(v) = self.views.iter().find(|v| v.name == name) {
            return Ok(&v.data);
        }
        self.db.relation(name)
    }
}

/// Evaluates an expression with the configured engine (no optimizer: view
/// plans are already shaped by the maintenance compiler).
fn eval(
    expr: &RelExpr,
    provider: &(impl RelationProvider + ?Sized),
    config: ExecConfig,
) -> CoreResult<Relation> {
    Engine::new(config.engine)
        .with_options(config.options)
        .run(expr, provider)
}

// ---------------------------------------------------------------------
// the delta-rewritten maintenance plan
// ---------------------------------------------------------------------

/// A node of the delta-rewritten plan. Mirrors the definition's
/// expression tree, replacing each operator with its maintenance rule.
#[derive(Debug, Clone)]
enum MaintNode {
    /// A scanned name: the delta comes straight from the commit's map.
    Base { name: String },
    /// A subtree that is empty in every state (literal values, provably
    /// empty compositions): its delta is always empty.
    ConstEmpty,
    /// σ/π/π̄ over a child: the delta maps through the operator itself
    /// (`node`, whose law [`reference::linear`] applies in ℤ).
    Linear {
        child: Box<MaintNode>,
        node: RelExpr,
        in_schema: SchemaRef,
    },
    /// ⊎: deltas add.
    Union {
        left: Box<MaintNode>,
        right: Box<MaintNode>,
    },
    /// × / ⋈: bilinear, with both sides materialized as hash indexes on
    /// parallel equi-key lists.
    Join {
        left: Box<MaintNode>,
        right: Box<MaintNode>,
        predicate: ScalarExpr,
        left_state: HashIndex,
        right_state: HashIndex,
    },
    /// δ: support counts decide 0↔1 transitions.
    Distinct {
        child: Box<MaintNode>,
        seen: Bag<Tuple>,
    },
    /// − / ∩: both inputs materialized; touched tuples re-derive
    /// `max(0, l−r)` / `min(l, r)`.
    DiffLike {
        minus: bool,
        left: Box<MaintNode>,
        right: Box<MaintNode>,
        lstate: Bag<Tuple>,
        rstate: Bag<Tuple>,
    },
    /// γ: per-group bags of the aggregated attribute's values; touched
    /// groups emit a retraction of the old aggregate row and an assertion
    /// of the new one. With no keys the one group always has a row, so
    /// both are emitted even over an empty bag.
    GroupBy {
        child: Box<MaintNode>,
        keys: Vec<usize>,
        agg: Aggregate,
        attr: usize,
        in_type: DataType,
        groups: FxHashMap<Vec<Value>, Bag<Value>>,
    },
    /// Closure, which has no incremental rule: re-evaluate and diff.
    Recompute { expr: RelExpr, last: Relation },
}

impl MaintNode {
    /// Compiles a definition subtree into its maintenance plan,
    /// evaluating subtrees as needed to seed operator state.
    fn build(
        expr: &RelExpr,
        provider: &ViewCatalog<'_>,
        config: ExecConfig,
    ) -> CoreResult<MaintNode> {
        // emptiness gate: a subtree that is empty in *every* state needs
        // no maintenance machinery at all
        if mera_analyze::structural_card(expr, &Schemas(provider)) == mera_analyze::Card::Empty {
            return Ok(MaintNode::ConstEmpty);
        }
        Ok(match expr {
            RelExpr::Scan(name) => MaintNode::Base { name: name.clone() },
            // a literal never changes
            RelExpr::Values(_) => MaintNode::ConstEmpty,
            RelExpr::Select { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::ExtProject { input, .. } => MaintNode::Linear {
                in_schema: input.schema(&Schemas(provider))?,
                child: Box::new(Self::build(input, provider, config)?),
                node: expr.clone(),
            },
            RelExpr::Union(l, r) => MaintNode::Union {
                left: Box::new(Self::build(l, provider, config)?),
                right: Box::new(Self::build(r, provider, config)?),
            },
            RelExpr::Product(l, r)
            | RelExpr::Join {
                left: l, right: r, ..
            } => {
                let predicate = match expr {
                    RelExpr::Join { predicate, .. } => predicate.clone(),
                    _ => ScalarExpr::bool(true),
                };
                let (lk, rk) = join_keys(
                    &predicate,
                    l.schema(&Schemas(provider))?.arity(),
                    r.schema(&Schemas(provider))?.arity(),
                );
                MaintNode::Join {
                    left_state: HashIndex::build(&eval(l, provider, config)?, &lk)?,
                    right_state: HashIndex::build(&eval(r, provider, config)?, &rk)?,
                    left: Box::new(Self::build(l, provider, config)?),
                    right: Box::new(Self::build(r, provider, config)?),
                    predicate,
                }
            }
            RelExpr::Distinct(input) => MaintNode::Distinct {
                seen: eval(input, provider, config)?.into_bag(),
                child: Box::new(Self::build(input, provider, config)?),
            },
            RelExpr::Difference(l, r) | RelExpr::Intersect(l, r) => MaintNode::DiffLike {
                minus: matches!(expr, RelExpr::Difference(..)),
                lstate: eval(l, provider, config)?.into_bag(),
                rstate: eval(r, provider, config)?.into_bag(),
                left: Box::new(Self::build(l, provider, config)?),
                right: Box::new(Self::build(r, provider, config)?),
            },
            RelExpr::GroupBy {
                input,
                keys,
                agg,
                attr,
            } => {
                let in_schema = input.schema(&Schemas(provider))?;
                let in_type = in_schema.dtype(*attr)?;
                let rel = eval(input, provider, config)?;
                let mut groups: FxHashMap<Vec<Value>, Bag<Value>> = FxHashMap::default();
                for (t, m) in rel.iter() {
                    let key = group_key(t, keys)?;
                    groups
                        .entry(key)
                        .or_default()
                        .insert(t.attr(*attr)?.clone(), m)?;
                }
                MaintNode::GroupBy {
                    child: Box::new(Self::build(input, provider, config)?),
                    keys: keys.clone(),
                    agg: *agg,
                    attr: *attr,
                    in_type,
                    groups,
                }
            }
            RelExpr::Closure(_) => MaintNode::Recompute {
                expr: expr.clone(),
                last: eval(expr, provider, config)?,
            },
        })
    }

    /// Propagates the commit's deltas through this node, updating
    /// maintenance state and returning the node's own output delta.
    fn refresh(
        &mut self,
        deltas: &DeltaMap,
        provider: &ViewCatalog<'_>,
        config: ExecConfig,
    ) -> CoreResult<TupleDelta> {
        match self {
            MaintNode::Base { name } => Ok(deltas.get(name).cloned().unwrap_or_default()),
            MaintNode::ConstEmpty => Ok(TupleDelta::new()),
            MaintNode::Linear {
                child,
                node,
                in_schema,
            } => {
                let d = child.refresh(deltas, provider, config)?;
                if d.is_empty() {
                    return Ok(d);
                }
                let d = KRelation::from_counted(Arc::clone(in_schema), d)?;
                Ok(reference::linear(node, &d)?.into_bag())
            }
            MaintNode::Union { left, right } => {
                let mut d = left.refresh(deltas, provider, config)?;
                d.absorb(right.refresh(deltas, provider, config)?)?;
                Ok(d)
            }
            MaintNode::Join {
                left,
                right,
                predicate,
                left_state,
                right_state,
            } => {
                let dl = left.refresh(deltas, provider, config)?;
                let dr = right.refresh(deltas, provider, config)?;
                let mut out = TupleDelta::new();
                // ΔL ⋈ R_old: a left tuple's key (taken at the left key
                // attributes) probes the right index, because the key
                // lists are parallel
                for (t, m) in dl.iter() {
                    for (u, n) in right_state.matches(&left_state.key_of(t)) {
                        emit_joined(&mut out, t.concat(u), m, *n, predicate)?;
                    }
                }
                left_state.apply_delta(&dl)?;
                // L_new ⋈ ΔR (post-delta left state, so ΔL ⋈ ΔR counts once)
                for (t, m) in dr.iter() {
                    for (u, n) in left_state.matches(&right_state.key_of(t)) {
                        emit_joined(&mut out, u.concat(t), m, *n, predicate)?;
                    }
                }
                right_state.apply_delta(&dr)?;
                Ok(out)
            }
            MaintNode::Distinct { child, seen } => {
                let d = child.refresh(deltas, provider, config)?;
                let was: Vec<bool> = d.support().map(|t| seen.contains(t)).collect();
                d.apply_to(seen)?;
                let mut out = TupleDelta::new();
                for (t, was) in d.support().zip(was) {
                    out.insert(t.clone(), i64::from(seen.contains(t)) - i64::from(was))?;
                }
                Ok(out)
            }
            MaintNode::DiffLike {
                minus,
                left,
                right,
                lstate,
                rstate,
            } => {
                let dl = left.refresh(deltas, provider, config)?;
                let dr = right.refresh(deltas, provider, config)?;
                let minus = *minus;
                // a tuple changed on *both* sides (e.g. `r ∩ r`) must
                // contribute its output diff exactly once
                let touched: FxHashSet<&Tuple> = dl.support().chain(dr.support()).collect();
                // the output restricted to the touched tuples
                let output = |l: &Bag<Tuple>, r: &Bag<Tuple>| -> CoreResult<Bag<Tuple>> {
                    let mut out = Bag::with_capacity(touched.len());
                    for &t in &touched {
                        let (ml, mr) = (l.multiplicity(t), r.multiplicity(t));
                        out.insert(t.clone(), if minus { ml.monus(mr) } else { ml.min(mr) })?;
                    }
                    Ok(out)
                };
                let before = output(lstate, rstate)?;
                dl.apply_to(lstate)?;
                dr.apply_to(rstate)?;
                TupleDelta::from_diff(&before, &output(lstate, rstate)?)
            }
            MaintNode::GroupBy {
                child,
                keys,
                agg,
                attr,
                in_type,
                groups,
            } => {
                let d = child.refresh(deltas, provider, config)?;
                // the delta of each touched group's aggregated values
                let mut by_key: FxHashMap<Vec<Value>, SignedBag<Value>> = FxHashMap::default();
                for (t, m) in d.iter() {
                    by_key
                        .entry(group_key(t, keys)?)
                        .or_default()
                        .insert(t.attr(*attr)?.clone(), m)?;
                }
                // the empty-key group has a row even over an empty bag
                let always = keys.is_empty();
                let mut out = TupleDelta::new();
                for (key, values) in by_key {
                    let bag = groups.entry(key.clone()).or_default();
                    if always || !bag.is_empty() {
                        let old = agg.compute(*in_type, bag.iter())?;
                        out.insert(agg_row(&key, old), -1)?;
                    }
                    values.apply_to(bag)?;
                    if always || !bag.is_empty() {
                        let new = agg.compute(*in_type, bag.iter())?;
                        out.insert(agg_row(&key, new), 1)?;
                    }
                    if bag.is_empty() {
                        groups.remove(&key);
                    }
                }
                Ok(out)
            }
            MaintNode::Recompute { expr, last } => {
                let fresh = eval(expr, provider, config)?;
                let delta = TupleDelta::from_diff(last.bag(), fresh.bag())?;
                *last = fresh;
                Ok(delta)
            }
        }
    }
}

/// Projects a tuple onto the grouping key (1-based indexes, in order).
fn group_key(t: &Tuple, keys: &[usize]) -> CoreResult<Vec<Value>> {
    keys.iter().map(|&k| t.attr(k).cloned()).collect()
}

/// Builds the output row `key ⊕ ⟨aggregate⟩` of a γ group.
fn agg_row(key: &[Value], agg: Value) -> Tuple {
    let mut vals = key.to_vec();
    vals.push(agg);
    Tuple::new(vals)
}

/// The parallel 1-based key lists `(left, right)` of a maintained join:
/// the predicate's cross-side equalities, minus any pair that would repeat
/// a left or a right attribute (an index key has no repeats; the dropped
/// pair is still checked, because every joined row runs the full
/// predicate). Both empty when there is no equality: one bucket per side.
fn join_keys(predicate: &ScalarExpr, la: usize, ra: usize) -> (Vec<usize>, Vec<usize>) {
    let mut keys = (Vec::new(), Vec::new());
    if let Some(cond) = extract_equi_condition(predicate, la, ra) {
        for (l, r) in cond.left_keys.into_iter().zip(cond.right_keys) {
            if !keys.0.contains(&l) && !keys.1.contains(&r) {
                keys.0.push(l);
                keys.1.push(r);
            }
        }
    }
    keys
}

/// Adds a joined row `Δ-side multiplicity m × state multiplicity n` to a
/// join's output delta when it satisfies the full predicate.
fn emit_joined(
    out: &mut TupleDelta,
    joined: Tuple,
    m: i64,
    n: u64,
    predicate: &ScalarExpr,
) -> CoreResult<()> {
    if predicate.eval_predicate(&joined)? {
        out.insert(joined, m.times(i64::from_nat(n)?)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::MvccManager;
    use crate::statement::Program;
    use crate::statement::Statement;
    use mera_core::tuple;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "r",
                Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
            )
            .expect("fresh")
            .with(
                "s",
                Schema::named(&[("k", DataType::Int), ("w", DataType::Int)]),
            )
            .expect("fresh")
    }

    fn row2(a: i64, b: i64) -> Relation {
        relation_of(
            Schema::anon(&[DataType::Int, DataType::Int]),
            vec![tuple![a, b]],
        )
        .expect("typed")
    }

    fn insert(rel: &str, a: i64, b: i64) -> Statement {
        Statement::insert(rel, RelExpr::values(row2(a, b)))
    }

    fn delete(rel: &str, a: i64, b: i64) -> Statement {
        Statement::delete(rel, RelExpr::values(row2(a, b)))
    }

    /// The maintained contents must equal a fresh evaluation of the
    /// definition at every commit point.
    fn assert_consistent(mgr: &MvccManager, name: &str) {
        let version = mgr.pin();
        let view = version.views().get(name).expect("view exists");
        let fresh = Engine::new(EngineKind::Physical)
            .run(view.expr(), version.database())
            .expect("definition evaluates");
        assert_eq!(
            view.data().as_ref(),
            &fresh,
            "view `{name}` diverged from its definition"
        );
    }

    fn create(mgr: &MvccManager, name: &str, expr: RelExpr) {
        mgr.create_view(name, expr).expect("view accepted");
    }

    fn commit(mgr: &MvccManager, program: Program) {
        let (outcome, _) = mgr.execute(&program);
        assert!(outcome.is_committed(), "{outcome:?}");
    }

    /// A copy of one view's current contents.
    fn view(mgr: &MvccManager, name: &str) -> Relation {
        let version = mgr.pin();
        let view = version.views().get(name).expect("exists");
        view.data().as_ref().clone()
    }

    /// `(name, refreshes, full-recompute fallbacks)` per view.
    fn view_stats(mgr: &MvccManager) -> Vec<(String, u64, u64)> {
        let version = mgr.pin();
        let stats = version.views().iter().map(|v| {
            let (refreshes, fallbacks) = v.refresh_stats();
            (v.name().to_owned(), refreshes, fallbacks)
        });
        stats.collect()
    }

    use mera_eval::EngineKind;

    #[test]
    fn select_project_view_is_maintained() {
        let mgr = MvccManager::new(schema());
        create(
            &mgr,
            "v",
            RelExpr::scan("r")
                .select(ScalarExpr::attr(2).cmp(mera_expr::CmpOp::Gt, ScalarExpr::int(10)))
                .project(&[1]),
        );
        for stmt in [
            insert("r", 1, 5),
            insert("r", 2, 20),
            insert("r", 2, 20),
            delete("r", 2, 20),
            insert("r", 3, 11),
        ] {
            commit(&mgr, Program::single(stmt));
            assert_consistent(&mgr, "v");
        }
        let (_, refreshes, fallbacks) = view_stats(&mgr).remove(0);
        assert!(refreshes >= 4);
        assert_eq!(fallbacks, 0, "linear ops must never fall back");
    }

    #[test]
    fn join_view_is_maintained_incrementally() {
        let mgr = MvccManager::new(schema());
        create(
            &mgr,
            "j",
            RelExpr::scan("r").join(
                RelExpr::scan("s"),
                ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
            ),
        );
        let steps = [
            insert("r", 1, 10),
            insert("s", 1, 100),
            insert("s", 1, 200),
            insert("r", 2, 20),
            insert("s", 2, 300),
            delete("s", 1, 100),
            delete("r", 1, 10),
        ];
        for stmt in steps {
            commit(&mgr, Program::single(stmt));
            assert_consistent(&mgr, "j");
        }
        let (_, _, fallbacks) = view_stats(&mgr).remove(0);
        assert_eq!(fallbacks, 0, "equi-joins must never fall back");
    }

    #[test]
    fn keyed_group_by_view_tracks_group_births_and_deaths() {
        let mgr = MvccManager::new(schema());
        create(
            &mgr,
            "totals",
            RelExpr::scan("r").group_by(&[1], Aggregate::Sum, 2),
        );
        for stmt in [
            insert("r", 1, 10),
            insert("r", 1, 5),
            insert("r", 2, 7),
            delete("r", 1, 10),
            delete("r", 2, 7), // group 2 dies
            insert("r", 2, 9), // and is reborn
        ] {
            commit(&mgr, Program::single(stmt));
            assert_consistent(&mgr, "totals");
        }
        // MIN/MAX are maintainable too (full value bags are kept)
        create(
            &mgr,
            "maxes",
            RelExpr::scan("r").group_by(&[1], Aggregate::Max, 2),
        );
        commit(&mgr, Program::single(delete("r", 1, 5)));
        assert_consistent(&mgr, "maxes");
        for (_, _, fallbacks) in view_stats(&mgr) {
            assert_eq!(fallbacks, 0);
        }
    }

    #[test]
    fn distinct_union_difference_intersection_views() {
        let mgr = MvccManager::new(schema());
        create(&mgr, "d", RelExpr::scan("r").distinct());
        create(&mgr, "u", RelExpr::scan("r").union(RelExpr::scan("s")));
        create(&mgr, "m", RelExpr::scan("r").difference(RelExpr::scan("s")));
        create(&mgr, "i", RelExpr::scan("r").intersect(RelExpr::scan("s")));
        for stmt in [
            insert("r", 1, 1),
            insert("r", 1, 1),
            insert("s", 1, 1),
            insert("s", 1, 1),
            insert("s", 1, 1),
            delete("r", 1, 1),
            insert("r", 2, 2),
            delete("s", 1, 1),
        ] {
            commit(&mgr, Program::single(stmt));
            for name in ["d", "u", "m", "i"] {
                assert_consistent(&mgr, name);
            }
        }
        for (_, _, fallbacks) in view_stats(&mgr) {
            assert_eq!(fallbacks, 0);
        }
    }

    #[test]
    fn whole_relation_aggregate_is_maintained_by_the_group_node() {
        let mgr = MvccManager::new(schema());
        // γ with empty keys compiles to the incremental γ node, not to
        // recompute-and-diff
        create(
            &mgr,
            "cnt",
            RelExpr::scan("r").group_by(&[], Aggregate::Cnt, 1),
        );
        let plan = mgr.pin().views().get("cnt").expect("exists").plan.clone();
        assert!(
            matches!(&plan, MaintNode::GroupBy { keys, .. } if keys.is_empty()),
            "{plan:?}"
        );
        // the input grows, then is deleted down to empty: the one row
        // moves 0 → 1 → 2 → 1 → 0 and never disappears
        for (stmt, count) in [
            (insert("r", 1, 1), 1_i64),
            (insert("r", 2, 2), 2),
            (delete("r", 1, 1), 1),
            (delete("r", 2, 2), 0),
        ] {
            commit(&mgr, Program::single(stmt));
            assert_consistent(&mgr, "cnt");
            assert_eq!(view(&mgr, "cnt").multiplicity(&tuple![count]), 1);
        }
        assert_eq!(view_stats(&mgr), vec![("cnt".to_owned(), 4, 0)]);
    }

    #[test]
    fn views_layer_on_views() {
        let mgr = MvccManager::new(schema());
        create(
            &mgr,
            "big",
            RelExpr::scan("r")
                .select(ScalarExpr::attr(2).cmp(mera_expr::CmpOp::Gt, ScalarExpr::int(0))),
        );
        // second view scans the first — the delta must cascade
        create(
            &mgr,
            "big_total",
            RelExpr::scan("big").group_by(&[1], Aggregate::Sum, 2),
        );
        commit(&mgr, Program::single(insert("r", 1, 3)));
        let v = view(&mgr, "big_total");
        assert_eq!(v.multiplicity(&tuple![1_i64, 3_i64]), 1);
        commit(&mgr, Program::single(insert("r", 1, 4)));
        let v = view(&mgr, "big_total");
        assert_eq!(v.multiplicity(&tuple![1_i64, 7_i64]), 1);
    }

    #[test]
    fn views_are_readable_but_not_writable() {
        let mgr = MvccManager::new(schema());
        create(&mgr, "v", RelExpr::scan("r").project(&[1]));
        commit(&mgr, Program::single(insert("r", 7, 1)));
        // readable in queries
        let (outcome, _) = mgr.execute(&Program::single(Statement::query(RelExpr::scan("v"))));
        let out = outcome.outputs().expect("committed");
        assert_eq!(out.queries[0].multiplicity(&tuple![7_i64]), 1);
        // not writable: E0302 at analysis time
        let (outcome, _) = mgr.execute(&Program::single(insert("v", 9, 9)));
        let crate::transaction::Outcome::Aborted(
            crate::transaction::AbortReason::StaticallyRejected(diags),
        ) = outcome
        else {
            panic!("expected static rejection");
        };
        assert!(diags
            .iter()
            .any(|d| d.code == mera_analyze::Code::DmlOnView));
        // and a temporary may not shadow a view either
        let (outcome, _) =
            mgr.execute(&Program::single(Statement::assign("v", RelExpr::scan("r"))));
        assert!(!outcome.is_committed());
    }

    #[test]
    fn rejected_definitions_do_not_create_views() {
        let mgr = MvccManager::new(schema());
        // duplicate of a base relation name
        assert!(matches!(
            mgr.create_view("r", RelExpr::scan("s")),
            Err(CreateViewError::Error(CoreError::DuplicateRelation(_)))
        ));
        // partial aggregate over possibly-empty input: E0303
        let err = mgr
            .create_view("avg", RelExpr::scan("r").group_by(&[], Aggregate::Avg, 2))
            .unwrap_err();
        let CreateViewError::Rejected(diags) = err else {
            panic!("expected rejection");
        };
        assert!(diags
            .iter()
            .any(|d| d.code == mera_analyze::Code::PartialView));
        assert!(!mgr.pin().views().contains("avg"));
    }

    #[test]
    fn aborted_transactions_leave_views_untouched() {
        let mgr = MvccManager::new(schema());
        create(&mgr, "v", RelExpr::scan("r").project(&[1]));
        commit(&mgr, Program::single(insert("r", 1, 1)));
        let before = view(&mgr, "v");
        // a failing transaction: insert then scan of unknown relation
        let bad = Program::new()
            .then(insert("r", 2, 2))
            .then(Statement::query(RelExpr::scan("nosuch")));
        let (outcome, _) = mgr.execute(&bad);
        assert!(!outcome.is_committed());
        assert_eq!(view(&mgr, "v"), before);
    }

    #[test]
    fn multi_statement_transactions_coalesce_deltas() {
        let mgr = MvccManager::new(schema());
        create(
            &mgr,
            "totals",
            RelExpr::scan("r").group_by(&[1], Aggregate::Sum, 2),
        );
        // one transaction that inserts, deletes and re-inserts: only the
        // net change may reach the view
        let p = Program::new()
            .then(insert("r", 1, 10))
            .then(delete("r", 1, 10))
            .then(insert("r", 1, 20))
            .then(insert("r", 2, 1));
        commit(&mgr, p);
        assert_consistent(&mgr, "totals");
        let v = view(&mgr, "totals");
        assert_eq!(v.multiplicity(&tuple![1_i64, 20_i64]), 1);
        assert_eq!(v.multiplicity(&tuple![2_i64, 1_i64]), 1);
    }

    /// Regression: when the same base relation feeds *both* sides of a
    /// difference or intersection (`r ∩ r`, `r − r`), the tuple shows up
    /// in both child deltas and its output diff must still be applied
    /// exactly once.
    #[test]
    fn self_intersection_and_difference_are_not_double_counted() {
        let mgr = MvccManager::new(schema());
        create(
            &mgr,
            "self_cap",
            RelExpr::scan("r").intersect(RelExpr::scan("r")),
        );
        create(
            &mgr,
            "self_minus",
            RelExpr::scan("r").difference(RelExpr::scan("r")),
        );
        let p = Program::new()
            .then(insert("r", 2, 2))
            .then(insert("r", 2, 2))
            .then(insert("r", 0, 4));
        commit(&mgr, p);
        assert_consistent(&mgr, "self_cap");
        assert_consistent(&mgr, "self_minus");
        let cap = view(&mgr, "self_cap");
        assert_eq!(cap.multiplicity(&tuple![2_i64, 2_i64]), 2);
        assert!(view(&mgr, "self_minus").is_empty());

        commit(&mgr, Program::single(delete("r", 2, 2)));
        assert_consistent(&mgr, "self_cap");
        assert_consistent(&mgr, "self_minus");
    }
}
