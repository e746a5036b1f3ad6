//! Statement and program execution over intermediate database states.
//!
//! §4.3: during the execution of a transaction's statements the database
//! passes through *intermediate states* `D_t.0 … D_t.n` which "are not
//! normal database states as they may contain temporary relations defined
//! by assignment statements". [`WorkingState`] is exactly that, held as
//! a difference: the pinned committed state, borrowed, plus a temporary
//! namespace and the ℤ-delta `D_t.i − D_t` the statements have written so
//! far — usable as a relation provider for expression evaluation. The
//! delta is the transaction: commit adds it to whichever version it lands
//! on ([`Version::apply`](crate::Version::apply)).

use std::collections::BTreeMap;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::provider::RelationProvider;
use mera_eval::{Engine, EngineKind, ExecOptions};
use mera_expr::rel::RelExpr;
use mera_opt::{choose_access_paths, Optimizer};

use crate::statement::{Program, Statement};
use crate::version::Version;
use crate::views::{DeltaMap, TupleDelta, ViewSet};

/// How statements evaluate their expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Run the static analyzer over the whole program before the first
    /// statement executes ([`Version::run`](crate::Version::run)):
    /// programs with error-severity diagnostics abort up front, before
    /// any intermediate state is built.
    pub analyze: bool,
    /// Which evaluator runs the statements' expressions (the batched
    /// physical engine by default; [`EngineKind::Reference`] is the slow
    /// oracle used for differential testing).
    pub engine: EngineKind,
    /// Tuning knobs (batch size, worker count) passed to the engine.
    pub options: ExecOptions,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            analyze: true,
            engine: EngineKind::default(),
            options: ExecOptions::default(),
        }
    }
}

impl ExecConfig {
    /// The default configuration with a different evaluator.
    pub fn with_engine(engine: EngineKind) -> Self {
        ExecConfig {
            engine,
            ..Self::default()
        }
    }
}

/// An intermediate state `D_t.i`: the pinned [`Version`],
/// borrowed, plus the temporaries and the signed deltas the transaction
/// has accumulated so far. A base relation `R` reads as `R ⊎ Δ_R`: an
/// unwritten relation is the version's own, and a written one is
/// materialized once, when a later statement first scans it. The
/// version's views, statistics, indexes and keys are read through the
/// borrow.
#[derive(Debug)]
pub struct WorkingState<'v> {
    pub(crate) version: &'v Version,
    /// Temporary relations bound by assignment statements.
    temps: BTreeMap<String, Relation>,
    /// Signed per-relation deltas of *every* DML statement executed so
    /// far — the transaction itself, and the single input that drives
    /// view, statistics, index and key maintenance at commit time.
    pub(crate) deltas: DeltaMap,
    /// `R ⊎ Δ_R` for each written relation a statement has read since;
    /// every later write to `R` keeps it current.
    written: BTreeMap<String, Relation>,
}

impl<'v> WorkingState<'v> {
    /// The intermediate state `D_t.0` over `version`: no temporaries, no
    /// deltas ([`Version::working_state`]).
    pub(crate) fn new(version: &'v Version) -> Self {
        WorkingState {
            version,
            temps: BTreeMap::new(),
            deltas: DeltaMap::new(),
            written: BTreeMap::new(),
        }
    }

    /// The declared keys as an analyzer [`mera_analyze::KeyEnv`],
    /// restricted to relations this transaction has not dirtied: a key
    /// describes the committed state `D_t`, and mid-transaction writes may
    /// transiently violate it (delete-then-insert of the same key point),
    /// so dirtied relations contribute no facts.
    pub(crate) fn key_env(&self) -> mera_analyze::KeyEnv {
        let mut env = mera_analyze::KeyEnv::new();
        for (relation, attrs) in self.version.keys().definitions() {
            if !self.dirtied(&relation) {
                env.declare(relation, attrs);
            }
        }
        env
    }

    /// Reads a relation: temporaries first, then database relations (as
    /// `R ⊎ Δ_R` once written), then materialized views (a temporary may
    /// never collide with a database or view name, enforced on
    /// assignment, so the order is immaterial — it simply avoids extra
    /// lookups for temp-heavy programs).
    pub fn relation(&self, name: &str) -> CoreResult<&Relation> {
        if let Some(r) = self.temps.get(name).or_else(|| self.written.get(name)) {
            return Ok(r);
        }
        if self.dirtied(name) {
            // statements materialize what they scan first: never read `R`
            // for `R ⊎ Δ_R`
            return Err(CoreError::TypeError(format!(
                "`{name}` read before materialized"
            )));
        }
        match self.version.database().relation(name) {
            Ok(r) => Ok(r),
            Err(e) => match self.version.views().get(name) {
                Some(v) => Ok(v.data()),
                None => Err(e),
            },
        }
    }

    /// Evaluates `expr` against this state, after materializing `R ⊎ Δ_R`
    /// for each written relation it scans.
    fn eval(&mut self, expr: &RelExpr, config: ExecConfig) -> CoreResult<Relation> {
        for name in expr.scanned_relations() {
            if self.written.contains_key(name) || !self.dirtied(name) {
                continue;
            }
            let mut rel = self.version.database().relation(name)?.clone();
            rel.apply(&self.deltas[name])?;
            self.written.insert(name.to_owned(), rel);
        }
        eval_expr(self, expr, config)
    }

    /// `R ∩ E` at this state: what `R − E` removes (Definition 3.2's
    /// `min`), found by probing `R` and `Δ_R` once per distinct tuple of
    /// `E` — O(|E|), never O(|R|).
    fn removed(&self, relation: &str, value: &Relation) -> CoreResult<Relation> {
        let base = self.version.database().relation(relation)?;
        base.schema().check_same_types(value.schema())?;
        let delta = self.deltas.get(relation);
        let mut out = Relation::empty(Arc::clone(base.schema()));
        for (t, m) in value.iter() {
            let d = delta.map_or(0, |d| d.multiplicity(t));
            let present = base
                .multiplicity(t)
                .checked_add_signed(d)
                .ok_or(CoreError::NegativeMultiplicity("working state"))?;
            let n = present.min(m);
            if n > 0 {
                out.insert(t.clone(), n)?;
            }
        }
        Ok(out)
    }

    /// Adds `rel` to `Δ_relation` with the given sign, and to the
    /// materialized `relation ⊎ Δ` if a statement already read it —
    /// O(|rel|), never O(|relation|).
    fn record(&mut self, relation: &str, rel: &Relation, positive: bool) -> CoreResult<()> {
        let mut delta: TupleDelta = rel.bag().lift()?;
        if !positive {
            delta.negate();
        }
        if let Some(current) = self.written.get_mut(relation) {
            current.apply(&delta)?;
        }
        self.deltas
            .entry(relation.to_owned())
            .or_default()
            .absorb(delta)
    }

    /// True when this transaction has already changed `relation` — the
    /// pre-transaction indexes no longer describe it.
    pub(crate) fn dirtied(&self, relation: &str) -> bool {
        self.deltas.get(relation).is_some_and(|d| !d.is_empty())
    }
}

impl RelationProvider for WorkingState<'_> {
    fn relation(&self, name: &str) -> CoreResult<&Relation> {
        WorkingState::relation(self, name)
    }
}

/// The result of executing one program: query outputs in statement order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    /// One relation per executed `?E` statement.
    pub queries: Vec<Relation>,
}

/// Executes one statement against a working state. Definition 4.1 states
/// each write as a whole-relation replacement; the state records it as
/// the ℤ-delta that replacement makes, in O(|E|):
///
/// * `R ← R ⊎ E` adds `E` to `Δ_R`;
/// * `R ← R − E` subtracts `R ∩ E`;
/// * `R ← (R − E) ⊎ π̄ₐ(R ∩ E)` subtracts `R ∩ E` and adds its image.
pub fn execute_statement(
    state: &mut WorkingState<'_>,
    stmt: &Statement,
    config: ExecConfig,
    outputs: &mut Outputs,
) -> CoreResult<()> {
    match stmt {
        Statement::Insert { relation, expr } => {
            let value = state.eval(expr, config)?;
            let current = state.version.database().relation(relation)?;
            current.schema().check_same_types(value.schema())?;
            state.record(relation, &value, true)
        }
        Statement::Delete { relation, expr } => {
            let value = state.eval(expr, config)?;
            let removed = state.removed(relation, &value)?;
            state.record(relation, &removed, false)
        }
        Statement::Update {
            relation,
            expr,
            exprs,
        } => {
            let value = state.eval(expr, config)?;
            // schema-preservation check on the expression list (the
            // definition's note: π̄ₐ "results a multi-set of the same
            // schema as its operand")
            let target_schema = Arc::clone(state.version.database().relation(relation)?.schema());
            let attrs: CoreResult<Vec<Attribute>> = exprs
                .iter()
                .map(|e| Ok(Attribute::anon(e.infer_type(&target_schema)?)))
                .collect();
            target_schema.check_same_types(&Schema::new(attrs?))?;
            let touched = state.removed(relation, &value)?;
            let rewritten = touched.map_tuples(target_schema, |t| {
                let vals: CoreResult<Vec<Value>> = exprs.iter().map(|e| e.eval(t)).collect();
                Ok(Tuple::new(vals?))
            })?;
            state.record(relation, &touched, false)?;
            state.record(relation, &rewritten, true)
        }
        Statement::Assign { name, expr } => {
            let version = state.version;
            if version.database().schema().contains(name) || version.views().contains(name) {
                return Err(CoreError::DuplicateRelation(name.clone()));
            }
            let value = state.eval(expr, config)?;
            state.temps.insert(name.clone(), value);
            Ok(())
        }
        Statement::Query { expr } => {
            let value = state.eval(expr, config)?;
            outputs.queries.push(value);
            Ok(())
        }
    }
}

/// Statically analyzes a whole program against a database state: schemas
/// come from the catalog, emptiness facts ([`mera_analyze::Card`]) from
/// the live relation instances. Returns every diagnostic; the program is
/// rejectable iff [`mera_analyze::has_errors`].
pub fn analyze_program(db: &Database, program: &Program) -> Vec<mera_analyze::Diagnostic> {
    analyze_program_with_views(db, &ViewSet::new(), program)
}

/// [`analyze_program`] over a catalog that also resolves materialized
/// views: view names scan like relations (with their live emptiness
/// facts), while DML targeting a view is rejected with `E0302` — views
/// are refreshed from their base relations, never written directly.
pub fn analyze_program_with_views(
    db: &Database,
    views: &ViewSet,
    program: &Program,
) -> Vec<mera_analyze::Diagnostic> {
    let mut cards: mera_analyze::CardEnv = db
        .relation_names()
        .filter_map(|n| {
            let rel = db.relation(n).ok()?;
            Some((n.to_owned(), mera_analyze::Card::of_relation(rel)))
        })
        .collect();
    for v in views.iter() {
        cards.insert(
            v.name().to_owned(),
            mera_analyze::Card::of_relation(v.data()),
        );
    }
    // DML-on-view pre-pass: a write target that names a view is an error
    // regardless of anything the plan analyzer would say
    let mut diags = Vec::new();
    for (i, stmt) in program.statements.iter().enumerate() {
        let (target, kind) = match stmt {
            Statement::Insert { relation, .. } => (relation, "insert"),
            Statement::Delete { relation, .. } => (relation, "delete"),
            Statement::Update { relation, .. } => (relation, "update"),
            Statement::Assign { name, .. } => (name, "assignment"),
            Statement::Query { .. } => continue,
        };
        if views.contains(target) {
            diags.push(
                mera_analyze::Diagnostic::new(
                    mera_analyze::Code::DmlOnView,
                    mera_analyze::Span::root(kind).in_stmt(i),
                    format!("{kind} targets the materialized view `{target}`"),
                )
                .with_note("views are maintained from their base relations and cannot be written"),
            );
        }
    }
    let provider = DbAndViewSchemas {
        db: db.schema(),
        views,
    };
    diags.extend(mera_analyze::analyze_program(
        program.statements.iter().map(Statement::analyzer_view),
        &provider,
        &cards,
    ));
    diags
}

/// Schema catalog layering materialized views over the database schema.
struct DbAndViewSchemas<'a> {
    db: &'a DatabaseSchema,
    views: &'a ViewSet,
}

impl mera_expr::SchemaProvider for DbAndViewSchemas<'_> {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        if let Some(v) = self.views.get(name) {
            return Ok(Arc::clone(v.schema()));
        }
        Ok(Arc::clone(self.db.get(name)?))
    }
}

/// Executes a whole program in order, collecting query outputs.
pub fn execute_program(
    state: &mut WorkingState,
    program: &Program,
    config: ExecConfig,
) -> CoreResult<Outputs> {
    let mut outputs = Outputs::default();
    for stmt in &program.statements {
        execute_statement(state, stmt, config, &mut outputs)?;
    }
    Ok(outputs)
}

/// Evaluates one algebra expression against the working state, honouring
/// the execution configuration.
///
/// The optimizer runs cost-based against the state's statistics (join
/// reordering, cost-gated δ placement), and the engine takes index access
/// paths — point lookups always, equi-joins when [`choose_access_paths`]
/// ranks the probe cheaper than a hash build. An index describes the
/// *pre-transaction* state, so once the transaction has written an
/// indexed relation the engine falls back to scan-based plans for the
/// rest of the program: slower, never wrong.
pub fn eval_expr(
    state: &WorkingState<'_>,
    expr: &RelExpr,
    config: ExecConfig,
) -> CoreResult<Relation> {
    let expr = &plan(state, expr)?;
    let engine = Engine::new(config.engine).with_options(config.options);
    with_access_paths(engine, state, expr)?.run(expr, state)
}

/// The plan `expr` gets in `state`: optimized cost-based against the
/// version's statistics, under the state's dirtied-gated key environment.
/// [`eval_expr`] runs it and EXPLAIN renders it.
pub(crate) fn plan(state: &WorkingState<'_>, expr: &RelExpr) -> CoreResult<RelExpr> {
    let mut optimizer = Optimizer::standard().with_stats(Arc::clone(state.version.stats()));
    let keys = state.key_env();
    if !keys.is_empty() {
        optimizer = optimizer.with_keys(keys);
    }
    Ok(optimizer.optimize(expr, &WorkingSchemas(state))?.expr)
}

/// Attaches the state's indexes and the cost model's index-join hints for
/// `expr` to `engine` — unless the transaction has written an indexed
/// relation: an index describes the *pre-transaction* state.
pub(crate) fn with_access_paths(
    engine: Engine,
    state: &WorkingState<'_>,
    expr: &RelExpr,
) -> CoreResult<Engine> {
    let version = state.version;
    let defs = version.indexes().definitions();
    if defs.is_empty() || defs.iter().any(|(r, _)| state.dirtied(r)) {
        return Ok(engine);
    }
    let hints = choose_access_paths(expr, version.stats(), &defs, &WorkingSchemas(state))?;
    Ok(engine
        .with_shared_indexes(Arc::clone(version.indexes()))
        .with_index_hints(hints))
}

/// Schema-provider view of a working state (temporaries included).
pub struct WorkingSchemas<'a>(pub &'a WorkingState<'a>);

impl mera_expr::SchemaProvider for WorkingSchemas<'_> {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        Ok(Arc::clone(self.0.relation(name)?.schema()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use mera_expr::ScalarExpr;

    fn beer_db() -> Database {
        let schema = DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ]),
            )
            .expect("fresh");
        let mut db = Database::new(schema);
        let bs = Arc::clone(db.schema().get("beer").expect("declared"));
        db.replace(
            "beer",
            Relation::from_tuples(
                bs,
                vec![
                    tuple!["Grolsch", "Grolsche", 5.0_f64],
                    tuple!["GuinekenPils", "Guineken", 5.0_f64],
                    tuple!["GuinekenBock", "Guineken", 6.0_f64],
                ],
            )
            .expect("typed"),
        )
        .expect("replace");
        db
    }

    fn beer_schema() -> SchemaRef {
        Arc::clone(beer_db().schema().get("beer").expect("declared"))
    }

    /// `m` copies of a row already in `beer` once.
    fn grolsch(m: u64) -> Relation {
        Relation::from_counted(beer_schema(), [(tuple!["Grolsch", "Grolsche", 5.0_f64], m)])
            .expect("typed")
    }

    /// Runs `program` the way a commit does — [`crate::Version::run`],
    /// then [`crate::Version::apply`] of its deltas unless it wrote
    /// nothing — and returns the post-state with the query outputs.
    fn run_with(db: Database, program: Program, config: ExecConfig) -> (Database, Outputs) {
        let mut version = crate::Version::new(db).expect("analyzes");
        let (deltas, out) = version.run(&program, config).expect("program executes");
        if deltas.values().any(|d| !d.is_empty()) {
            version.apply(deltas, config).expect("deltas apply");
        }
        (version.database().clone(), out)
    }

    fn run(db: Database, program: Program) -> (Database, Outputs) {
        run_with(db, program, ExecConfig::default())
    }

    #[test]
    fn insert_is_bag_union() {
        let p = Program::single(Statement::insert("beer", RelExpr::values(grolsch(1))));
        let (db, _) = run(beer_db(), p);
        // bag insert: the duplicate is *kept* (multiplicity 2)
        let beer = db.relation("beer").expect("present");
        assert_eq!(
            beer.multiplicity(&tuple!["Grolsch", "Grolsche", 5.0_f64]),
            2
        );
        assert_eq!(beer.len(), 4);
    }

    #[test]
    fn delete_is_bag_difference() {
        let p = Program::single(Statement::delete(
            "beer",
            RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Guineken"))),
        ));
        let (db, _) = run(beer_db(), p);
        assert_eq!(db.relation("beer").expect("present").len(), 1);
    }

    /// Read-after-write: a query scanning a relation the program already
    /// wrote reads `R ⊎ Δ_R`.
    #[test]
    fn insert_then_query_reads_the_inserted_copy() {
        let p = Program::new()
            .then(Statement::insert("beer", RelExpr::values(grolsch(1))))
            .then(Statement::query(
                RelExpr::scan("beer").select(ScalarExpr::attr(1).eq(ScalarExpr::str("Grolsch"))),
            ));
        let (_, out) = run(beer_db(), p);
        assert_eq!(out.queries[0], grolsch(2));
    }

    /// Definition 3.2's `min`: deleting 3 copies of a tuple present twice
    /// (once committed, once inserted by the same program) removes 2.
    #[test]
    fn delete_removes_no_more_copies_than_present() {
        let p = Program::new()
            .then(Statement::insert("beer", RelExpr::values(grolsch(1))))
            .then(Statement::delete("beer", RelExpr::values(grolsch(3))));
        let (db, _) = run(beer_db(), p);
        let beer = db.relation("beer").expect("present");
        assert_eq!(
            beer.multiplicity(&tuple!["Grolsch", "Grolsche", 5.0_f64]),
            0
        );
        assert_eq!(beer.len(), 2);
    }

    /// Example 4.1: Guineken raises the alcohol percentage of its beers by
    /// 10%.
    #[test]
    fn example_4_1_guineken_update() {
        let p = Program::single(Statement::update(
            "beer",
            RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Guineken"))),
            vec![
                ScalarExpr::attr(1),
                ScalarExpr::attr(2),
                ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
            ],
        ));
        let (db, _) = run(beer_db(), p);
        let beer = db.relation("beer").expect("present");
        assert_eq!(
            beer.multiplicity(&tuple!["GuinekenPils", "Guineken", 5.0 * 1.1]),
            1
        );
        assert_eq!(
            beer.multiplicity(&tuple!["GuinekenBock", "Guineken", 6.0 * 1.1]),
            1
        );
        // non-Guineken beers untouched
        assert_eq!(
            beer.multiplicity(&tuple!["Grolsch", "Grolsche", 5.0_f64]),
            1
        );
        assert_eq!(beer.len(), 3);
    }

    #[test]
    fn update_rejects_schema_changing_expression_list() {
        let version = crate::Version::new(beer_db()).expect("analyzes");
        let p = Program::single(Statement::update(
            "beer",
            RelExpr::scan("beer"),
            vec![ScalarExpr::attr(1)], // drops two attributes
        ));
        let mut state = version.working_state();
        let err = execute_program(&mut state, &p, ExecConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::SchemaMismatch { .. }));
    }

    #[test]
    fn assignment_binds_temporary() {
        let version = crate::Version::new(beer_db()).expect("analyzes");
        let p = Program::new()
            .then(Statement::assign(
                "strong",
                RelExpr::scan("beer")
                    .select(ScalarExpr::attr(3).cmp(mera_expr::CmpOp::Gt, ScalarExpr::real(5.5))),
            ))
            .then(Statement::query(RelExpr::scan("strong").project(&[1])));
        let mut state = version.working_state();
        let out = execute_program(&mut state, &p, ExecConfig::default()).expect("executes");
        assert_eq!(out.queries.len(), 1);
        assert_eq!(out.queries[0].multiplicity(&tuple!["GuinekenBock"]), 1);
        assert!(state.temps.contains_key("strong"));
        // the database itself is untouched
        assert!(state.deltas.is_empty());
        assert_eq!(state.relation("beer").expect("present").len(), 3);
    }

    #[test]
    fn assignment_cannot_shadow_database_relation() {
        let version = crate::Version::new(beer_db()).expect("analyzes");
        let p = Program::single(Statement::assign("beer", RelExpr::scan("beer")));
        let mut state = version.working_state();
        let err = execute_program(&mut state, &p, ExecConfig::default()).unwrap_err();
        assert_eq!(err, CoreError::DuplicateRelation("beer".into()));
    }

    #[test]
    fn query_has_no_database_effect() {
        let db = beer_db();
        let before = db.clone();
        let p = Program::single(Statement::query(RelExpr::scan("beer")));
        let (db, out) = run(db, p);
        assert_eq!(db, before);
        assert_eq!(out.queries[0].len(), 3);
    }

    #[test]
    fn reference_and_physical_configs_agree() {
        let program = Program::new()
            .then(Statement::assign("t", RelExpr::scan("beer").project(&[2])))
            .then(Statement::insert(
                "beer",
                RelExpr::scan("beer").select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.0))),
            ))
            .then(Statement::query(RelExpr::scan("beer").group_by(
                &[2],
                mera_expr::Aggregate::Cnt,
                1,
            )));
        let configs = [
            ExecConfig::with_engine(EngineKind::Physical),
            ExecConfig::with_engine(EngineKind::Reference),
            ExecConfig {
                options: ExecOptions::with_partitions(2),
                ..ExecConfig::with_engine(EngineKind::Physical)
            },
            ExecConfig {
                options: ExecOptions::with_partitions(3),
                ..ExecConfig::with_engine(EngineKind::Physical)
            },
        ];
        let results: Vec<(Database, Outputs)> = configs
            .iter()
            .map(|&c| run_with(beer_db(), program.clone(), c))
            .collect();
        for (db, out) in &results[1..] {
            assert_eq!(db, &results[0].0);
            assert_eq!(out, &results[0].1);
        }
    }
}
