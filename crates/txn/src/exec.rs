//! Statement and program execution over intermediate database states.
//!
//! §4.3: during the execution of a transaction's statements the database
//! passes through *intermediate states* `D_t.0 … D_t.n` which "are not
//! normal database states as they may contain temporary relations defined
//! by assignment statements". [`WorkingState`] is exactly that: the base
//! relations plus a temporary namespace, usable as a relation provider for
//! expression evaluation.

use std::collections::BTreeMap;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_eval::provider::RelationProvider;
use mera_eval::{Engine, EngineKind, ExecOptions, IndexSet, KeySet};
use mera_expr::rel::RelExpr;
use mera_opt::{choose_access_paths, CatalogStats, Optimizer};

use crate::statement::{Program, Statement};
use crate::views::{DeltaMap, TupleDelta, ViewSet};

/// How statements evaluate their expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Run the rule-based optimizer before evaluation.
    pub optimize: bool,
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
            optimize: true,
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

/// An intermediate state `D_t.i`: the database plus temporaries, plus
/// read-only snapshots of the version's derived catalog and the signed
/// deltas the transaction has accumulated so far. Built from a
/// [`Version`](crate::Version), which is the only thing that owns one.
#[derive(Debug, Clone)]
pub struct WorkingState {
    /// The (mutable copy of the) database state.
    pub db: Database,
    /// Temporary relations bound by assignment statements.
    pub temps: BTreeMap<String, Relation>,
    /// Pre-transaction snapshots of materialized views, readable by
    /// queries exactly like base relations (but never writable).
    pub views: BTreeMap<String, Arc<Relation>>,
    /// Signed per-relation deltas of *every* DML statement executed so
    /// far — the single input that drives view maintenance, statistics
    /// maintenance and index maintenance at commit time.
    pub deltas: DeltaMap,
    /// Pre-transaction table statistics: every statement plans cost-based
    /// (join reordering, cost-gated δ placement, access-path selection)
    /// against these.
    pub stats: Arc<CatalogStats>,
    /// Pre-transaction secondary indexes: point selections and hinted
    /// equi-joins execute through them.
    pub indexes: Arc<IndexSet>,
    /// Pre-transaction key constraints: the optimizer grounds its
    /// property inference (duplicate-freeness, candidate keys, FDs) in
    /// keys of relations the transaction has not yet dirtied.
    pub keys: Arc<KeySet>,
}

impl WorkingState {
    /// The declared keys as an analyzer [`mera_analyze::KeyEnv`],
    /// restricted to relations this transaction has not dirtied: a key
    /// describes the committed state `D_t`, and mid-transaction writes may
    /// transiently violate it (delete-then-insert of the same key point),
    /// so dirtied relations contribute no facts.
    pub(crate) fn key_env(&self) -> mera_analyze::KeyEnv {
        let mut env = mera_analyze::KeyEnv::new();
        for (relation, attrs) in self.keys.definitions() {
            if !self.dirtied(&relation) {
                env.declare(relation, attrs);
            }
        }
        env
    }

    /// Reads a relation: temporaries first, then database relations, then
    /// materialized views (a temporary may never collide with a database
    /// or view name, enforced on assignment, so the order is immaterial —
    /// it simply avoids extra lookups for temp-heavy programs).
    pub fn relation(&self, name: &str) -> CoreResult<&Relation> {
        if let Some(r) = self.temps.get(name) {
            return Ok(r);
        }
        match self.db.relation(name) {
            Ok(r) => Ok(r),
            Err(e) => match self.views.get(name) {
                Some(v) => Ok(v),
                None => Err(e),
            },
        }
    }

    /// Records `rel` into the delta of `relation` with the given sign.
    /// Every mutated relation is captured — views, statistics and index
    /// maintenance all consume the same signed deltas at commit, so the
    /// capture is unconditional (and O(|delta|), never O(|relation|)).
    fn capture(&mut self, relation: &str, rel: &Relation, positive: bool) -> CoreResult<()> {
        let none = Bag::new();
        let (old, new) = if positive {
            (&none, rel.bag())
        } else {
            (rel.bag(), &none)
        };
        let captured = TupleDelta::from_diff(old, new)?;
        match self.deltas.get_mut(relation) {
            Some(delta) => delta.absorb(captured),
            None => {
                self.deltas.insert(relation.to_owned(), captured);
                Ok(())
            }
        }
    }

    /// True when this transaction has already changed `relation` — the
    /// pre-transaction indexes no longer describe it.
    pub(crate) fn dirtied(&self, relation: &str) -> bool {
        self.deltas.get(relation).is_some_and(|d| !d.is_empty())
    }
}

impl RelationProvider for WorkingState {
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

/// Executes one statement against a working state (Definition 4.1).
pub fn execute_statement(
    state: &mut WorkingState,
    stmt: &Statement,
    config: ExecConfig,
    outputs: &mut Outputs,
) -> CoreResult<()> {
    match stmt {
        Statement::Insert { relation, expr } => {
            let value = eval_expr(state, expr, config)?;
            let current = state.db.relation(relation)?;
            let next = current.union(&value)?;
            state.capture(relation, &value, true)?;
            state.db.replace(relation, next)
        }
        Statement::Delete { relation, expr } => {
            let value = eval_expr(state, expr, config)?;
            let current = state.db.relation(relation)?;
            // what `−` actually removes is min(current, value) per tuple
            // (Definition 3.2), i.e. the bag intersection — capture that,
            // not the requested amount
            let removed = current.intersection(&value)?;
            let next = current.difference(&value)?;
            state.capture(relation, &removed, false)?;
            state.db.replace(relation, next)
        }
        Statement::Update {
            relation,
            expr,
            exprs,
        } => {
            let value = eval_expr(state, expr, config)?;
            let current = state.db.relation(relation)?.clone();
            // schema-preservation check on the expression list (the
            // definition's note: π̄ₐ "results a multi-set of the same
            // schema as its operand")
            let target_schema = Arc::clone(current.schema());
            let updated_schema = {
                let mut attrs = Vec::with_capacity(exprs.len());
                for e in exprs {
                    attrs.push(Attribute::anon(e.infer_type(&target_schema)?));
                }
                Schema::new(attrs)
            };
            if !updated_schema.same_types(&target_schema) {
                return Err(CoreError::SchemaMismatch {
                    expected: target_schema.to_string(),
                    found: updated_schema.to_string(),
                });
            }
            // R ← (R − E) ⊎ π̄ₐ(R ∩ E)
            let touched = current.intersection(&value)?;
            let kept = current.difference(&value)?;
            let rewritten = touched.map_tuples(target_schema, |t| {
                let vals: CoreResult<Vec<Value>> = exprs.iter().map(|e| e.eval(t)).collect();
                Ok(Tuple::new(vals?))
            })?;
            state.capture(relation, &touched, false)?;
            state.capture(relation, &rewritten, true)?;
            state.db.replace(relation, kept.union(&rewritten)?)
        }
        Statement::Assign { name, expr } => {
            if state.db.schema().contains(name) || state.views.contains_key(name) {
                return Err(CoreError::DuplicateRelation(name.clone()));
            }
            let value = eval_expr(state, expr, config)?;
            state.temps.insert(name.clone(), value);
            Ok(())
        }
        Statement::Query { expr } => {
            let value = eval_expr(state, expr, config)?;
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
pub fn eval_expr(state: &WorkingState, expr: &RelExpr, config: ExecConfig) -> CoreResult<Relation> {
    let provider = WorkingSchemas(state);
    let expr_storage;
    let expr = if config.optimize {
        let mut optimizer = Optimizer::standard().with_stats(Arc::clone(&state.stats));
        let keys = state.key_env();
        if !keys.is_empty() {
            optimizer = optimizer.with_keys(keys);
        }
        expr_storage = optimizer.optimize(expr, &provider)?.expr;
        &expr_storage
    } else {
        expr
    };
    let engine = Engine::new(config.engine).with_options(config.options);
    with_access_paths(engine, state, expr)?.run(expr, state)
}

/// Attaches the state's indexes and the cost model's index-join hints for
/// `expr` to `engine` — unless the transaction has written an indexed
/// relation: an index describes the *pre-transaction* state.
pub(crate) fn with_access_paths(
    engine: Engine,
    state: &WorkingState,
    expr: &RelExpr,
) -> CoreResult<Engine> {
    let defs = state.indexes.definitions();
    if defs.is_empty() || defs.iter().any(|(r, _)| state.dirtied(r)) {
        return Ok(engine);
    }
    let hints = choose_access_paths(expr, &state.stats, &defs, &WorkingSchemas(state))?;
    Ok(engine
        .with_shared_indexes(Arc::clone(&state.indexes))
        .with_index_hints(hints))
}

/// Schema-provider view of a working state (temporaries included).
pub struct WorkingSchemas<'a>(pub &'a WorkingState);

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

    fn state_of(db: Database) -> WorkingState {
        crate::Version::new(db).expect("analyzes").working_state()
    }

    fn run(db: Database, program: Program) -> (WorkingState, Outputs) {
        let mut state = state_of(db);
        let out =
            execute_program(&mut state, &program, ExecConfig::default()).expect("program executes");
        (state, out)
    }

    #[test]
    fn insert_is_bag_union() {
        let db = beer_db();
        let new_row = relation_of(
            Schema::named(&[
                ("name", DataType::Str),
                ("brewery", DataType::Str),
                ("alcperc", DataType::Real),
            ]),
            vec![tuple!["Grolsch", "Grolsche", 5.0_f64]], // already present!
        )
        .expect("typed");
        let p = Program::single(Statement::insert("beer", RelExpr::values(new_row)));
        let (state, _) = run(db, p);
        // bag insert: the duplicate is *kept* (multiplicity 2)
        let beer = state.db.relation("beer").expect("present");
        assert_eq!(
            beer.multiplicity(&tuple!["Grolsch", "Grolsche", 5.0_f64]),
            2
        );
        assert_eq!(beer.len(), 4);
    }

    #[test]
    fn delete_is_bag_difference() {
        let db = beer_db();
        let p = Program::single(Statement::delete(
            "beer",
            RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Guineken"))),
        ));
        let (state, _) = run(db, p);
        assert_eq!(state.db.relation("beer").expect("present").len(), 1);
    }

    /// Example 4.1: Guineken raises the alcohol percentage of its beers by
    /// 10%.
    #[test]
    fn example_4_1_guineken_update() {
        let db = beer_db();
        let p = Program::single(Statement::update(
            "beer",
            RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Guineken"))),
            vec![
                ScalarExpr::attr(1),
                ScalarExpr::attr(2),
                ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
            ],
        ));
        let (state, _) = run(db, p);
        let beer = state.db.relation("beer").expect("present");
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
        let db = beer_db();
        let p = Program::single(Statement::update(
            "beer",
            RelExpr::scan("beer"),
            vec![ScalarExpr::attr(1)], // drops two attributes
        ));
        let mut state = state_of(db);
        let err = execute_program(&mut state, &p, ExecConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::SchemaMismatch { .. }));
    }

    #[test]
    fn assignment_binds_temporary() {
        let db = beer_db();
        let p = Program::new()
            .then(Statement::assign(
                "strong",
                RelExpr::scan("beer")
                    .select(ScalarExpr::attr(3).cmp(mera_expr::CmpOp::Gt, ScalarExpr::real(5.5))),
            ))
            .then(Statement::query(RelExpr::scan("strong").project(&[1])));
        let (state, out) = run(db, p);
        assert_eq!(out.queries.len(), 1);
        assert_eq!(out.queries[0].multiplicity(&tuple!["GuinekenBock"]), 1);
        assert!(state.temps.contains_key("strong"));
        // the database itself is untouched
        assert_eq!(state.db.relation("beer").expect("present").len(), 3);
    }

    #[test]
    fn assignment_cannot_shadow_database_relation() {
        let db = beer_db();
        let p = Program::single(Statement::assign("beer", RelExpr::scan("beer")));
        let mut state = state_of(db);
        let err = execute_program(&mut state, &p, ExecConfig::default()).unwrap_err();
        assert_eq!(err, CoreError::DuplicateRelation("beer".into()));
    }

    #[test]
    fn query_has_no_database_effect() {
        let db = beer_db();
        let before = db.clone();
        let p = Program::single(Statement::query(RelExpr::scan("beer")));
        let (state, out) = run(db, p);
        assert_eq!(state.db, before);
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
            ExecConfig {
                optimize: false,
                ..ExecConfig::with_engine(EngineKind::Physical)
            },
            ExecConfig::with_engine(EngineKind::Reference),
            ExecConfig {
                optimize: false,
                ..ExecConfig::with_engine(EngineKind::Reference)
            },
            ExecConfig {
                options: ExecOptions::with_partitions(2),
                ..ExecConfig::with_engine(EngineKind::Physical)
            },
            ExecConfig {
                options: ExecOptions::with_partitions(3),
                ..ExecConfig::with_engine(EngineKind::Physical)
            },
            ExecConfig {
                optimize: false,
                options: ExecOptions::with_partitions(3),
                ..ExecConfig::with_engine(EngineKind::Physical)
            },
        ];
        let results: Vec<(Database, Outputs)> = configs
            .iter()
            .map(|&c| {
                let mut state = state_of(beer_db());
                let out = execute_program(&mut state, &program, c).expect("executes");
                (state.db, out)
            })
            .collect();
        for (db, out) in &results[1..] {
            assert_eq!(db, &results[0].0);
            assert_eq!(out, &results[0].1);
        }
    }
}
