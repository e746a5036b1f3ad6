//! An interactive session: parse → lower → run as transactions.
//!
//! [`Session`] is the glue a REPL or script runner needs: a thin XRA
//! front over one [`MvccManager`] — it accepts XRA source, lowers each
//! transaction against the newest version's catalog and runs it with
//! atomic commit/abort semantics, returning the query outputs. The state
//! itself (database, views, statistics, indexes, keys) is the manager's.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::RelExpr;
use mera_txn::exec::ExecConfig;
use mera_txn::mvcc::{MvccManager, Version};
use mera_txn::transaction::Outcome;
use mera_txn::Program;

use crate::error::{LangError, LangResult};
use crate::lower::lower_script;
use crate::parser::parse_script;

/// The result of running one transaction in a session.
#[derive(Debug, Clone, PartialEq)]
pub enum RunResult {
    /// Committed; the relations are the `?E` outputs in statement order.
    Committed(Vec<Relation>),
    /// Aborted with a rendered reason; the database is unchanged.
    Aborted(String),
}

/// A stateful XRA session.
pub struct Session {
    mvcc: MvccManager,
}

impl Session {
    /// A fresh session with an empty database schema.
    pub fn new() -> Self {
        Session::with_database(Database::new(DatabaseSchema::new()))
    }

    /// A session over an existing database state.
    pub fn with_database(db: Database) -> Self {
        let version = Version::new(db).expect("catalog relations resolve");
        Session {
            mvcc: MvccManager::from_version(version, ExecConfig::default()),
        }
    }

    /// Overrides the execution configuration.
    pub fn set_config(&mut self, config: ExecConfig) {
        self.mvcc.set_config(config);
    }

    /// Selects the evaluator used by subsequent transactions and queries,
    /// keeping the other configuration knobs.
    pub fn set_engine(&mut self, engine: mera_txn::EngineKind) {
        self.set_config(ExecConfig {
            engine,
            ..self.mvcc.config()
        });
    }

    /// Overrides the engine tuning options (batch size, partitions),
    /// keeping the other configuration knobs.
    pub fn set_exec_options(&mut self, options: mera_txn::ExecOptions) {
        self.set_config(ExecConfig {
            options,
            ..self.mvcc.config()
        });
    }

    /// The session's current state: database, materialized views,
    /// statistics, indexes and keys as of the newest commit.
    pub fn pin(&self) -> Arc<Version> {
        self.mvcc.pin()
    }

    /// Creates a materialized view over the current state; it is kept
    /// incrementally up to date by every subsequent commit.
    pub fn create_view(&mut self, name: &str, expr: RelExpr) -> LangResult<()> {
        self.mvcc.create_view(name, expr)?;
        Ok(())
    }

    /// Runs a whole script: declarations extend the schema immediately;
    /// each transaction (or bare statement) runs atomically. Returns one
    /// [`RunResult`] per transaction.
    ///
    /// A semantic or parse error anywhere in the script aborts the whole
    /// call *before* any transaction runs only for parse errors;
    /// declarations and transactions are otherwise applied in order (a
    /// failing transaction aborts itself, not the script).
    pub fn run_script(&mut self, src: &str) -> LangResult<Vec<RunResult>> {
        let script = parse_script(src)?;
        // declarations must be visible to lowering: lower against the
        // session's schema (views included) extended with the script's
        // declarations
        let lowered = lower_script(&script, &self.pin().catalog_schema())?;
        for decl in lowered.declarations {
            self.mvcc.add_relation(decl)?;
        }
        // views are created before the script's transactions run: their
        // initial contents come from the current state, and every commit
        // below refreshes them incrementally
        for view in lowered.views {
            self.create_view(&view.name, view.expr)?;
        }
        // key constraints install before the script's transactions run, so
        // every transaction below is planned and enforced under them
        for key in lowered.keys {
            self.declare_key(&key.relation, &key.attrs)?;
        }
        let mut results = Vec::with_capacity(lowered.transactions.len());
        for program in &lowered.transactions {
            results.push(self.run_program(program));
        }
        Ok(results)
    }

    /// Statically checks a script without executing anything: parses,
    /// lowers, and runs the `mera-analyze` passes over every view
    /// declaration and every transaction.
    ///
    /// Returns one diagnostic list per view declaration (in source
    /// order), followed by one per transaction (same order as
    /// [`run_script`](Self::run_script) results). Neither the database
    /// state nor the schema is touched — declarations in the script are
    /// only *visible* to the check, not installed.
    ///
    /// Relation cardinalities are treated as unknown: a check is a claim
    /// about the script against *any* database state matching the schema,
    /// so only structurally provable facts (e.g. `select[false]`, literal
    /// `values`) feed the emptiness pass.
    pub fn check_script(&self, src: &str) -> LangResult<Vec<Vec<mera_analyze::Diagnostic>>> {
        let script = parse_script(src)?;
        let catalog = self.pin().catalog_schema();
        let lowered = lower_script(&script, &catalog)?;
        let mut schema = catalog;
        for decl in lowered.declarations {
            schema.add(decl).map_err(LangError::Semantic)?;
        }
        let mut out = Vec::new();
        for view in &lowered.views {
            let va = mera_analyze::analyze_view_def(&view.name, &view.expr, &schema);
            if let Some(s) = &va.schema {
                schema
                    .add(RelationSchema::new(view.name.clone(), s.as_ref().clone()))
                    .map_err(LangError::Semantic)?;
            }
            out.push(va.diagnostics);
        }
        let cards = mera_analyze::CardEnv::new();
        out.extend(lowered.transactions.iter().map(|program| {
            mera_analyze::analyze_program(
                program.statements.iter().map(|s| s.analyzer_view()),
                &schema,
                &cards,
            )
        }));
        Ok(out)
    }

    /// Runs one already-lowered program as a transaction. Commits refresh
    /// every materialized view, the table statistics and every secondary
    /// index incrementally.
    pub fn run_program(&mut self, program: &Program) -> RunResult {
        match self.mvcc.execute(program).0 {
            Outcome::Committed(outputs) => RunResult::Committed(outputs.queries),
            Outcome::Aborted(reason) => RunResult::Aborted(reason.to_string()),
        }
    }

    /// Creates a secondary index on the 1-based `keys` of `relation`; it
    /// is kept incrementally up to date by every subsequent commit and
    /// used as an access path by queries.
    pub fn create_index(&mut self, relation: &str, keys: &[usize]) -> LangResult<()> {
        self.mvcc
            .create_index(relation, keys)
            .map_err(LangError::Semantic)
    }

    /// Declares the 1-based `attrs` as a candidate key of `relation`.
    /// Existing data violating the key, a key on a view, and a duplicate
    /// declaration are all rejected with a rendered diagnostic
    /// (`E0401`/`E0402`/`E0403`). Every subsequent commit enforces the key
    /// against its net deltas and aborts violators; queries plan with the
    /// key as a property source (δ-elimination, keyed-γ simplification).
    pub fn declare_key(&mut self, relation: &str, attrs: &[usize]) -> LangResult<()> {
        Ok(self.mvcc.declare_key(relation, attrs)?)
    }

    /// Evaluates a single relational expression (as `?E`) without touching
    /// the database — the REPL's expression mode. Materialized views are
    /// readable by name, served from their cached contents; the plan is
    /// cost-based against the session's statistics, with index access
    /// paths.
    pub fn query(&self, src: &str) -> LangResult<Relation> {
        let version = self.pin();
        let expr = lower_rel(&version, src)?;
        version
            .query(&expr, self.mvcc.config())
            .map_err(LangError::Semantic)
    }

    /// Renders the plan a relational expression gets — join order, access
    /// paths, estimated-vs-actual cardinalities — without touching the
    /// database (the REPL's `explain` mode). See [`mera_txn::explain_expr`]
    /// for the format.
    pub fn explain(&self, src: &str) -> LangResult<String> {
        let version = self.pin();
        let expr = lower_rel(&version, src)?;
        version
            .explain(&expr, self.mvcc.config())
            .map_err(LangError::Semantic)
    }
}

fn lower_rel(version: &Version, src: &str) -> LangResult<RelExpr> {
    let rel = crate::parser::parse_rel(src)?;
    let catalog = version.catalog_schema();
    crate::lower::Lowerer::new(&catalog).lower_rel(&rel)
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    #[test]
    fn script_end_to_end() {
        let mut session = Session::new();
        let results = session
            .run_script(
                "relation beer (name: str, brewery: str, alcperc: real);\n\
                 begin\n\
                   insert(beer, values (str, str, real) {\n\
                     ('Grolsch', 'Grolsche', 5.0),\n\
                     ('GuinekenPils', 'Guineken', 5.0)\n\
                   });\n\
                 end;\n\
                 ?select[brewery = 'Guineken'](beer);",
            )
            .expect("script runs");
        assert_eq!(results.len(), 2);
        let RunResult::Committed(ref outs) = results[1] else {
            panic!("query transaction committed");
        };
        assert_eq!(outs[0].len(), 1);
        assert!(outs[0].contains(&tuple!["GuinekenPils", "Guineken", 5.0_f64]));
    }

    #[test]
    fn example_4_1_via_source() {
        let mut session = Session::new();
        session
            .run_script(
                "relation beer (name: str, brewery: str, alcperc: real);\n\
                 insert(beer, values (str, str, real) {('GuinekenPils','Guineken',5.0)});",
            )
            .expect("setup");
        let results = session
            .run_script(
                "update(beer, select[brewery = 'Guineken'](beer),\n\
                         (name, brewery, alcperc * 1.1));\n\
                 ?beer;",
            )
            .expect("update runs");
        let RunResult::Committed(ref outs) = results[1] else {
            panic!("committed");
        };
        assert!(outs[0].contains(&tuple!["GuinekenPils", "Guineken", 5.5_f64]));
    }

    #[test]
    fn aborted_transaction_leaves_database_unchanged() {
        let mut session = Session::new();
        session
            .run_script("relation r (a: int);")
            .expect("declares");
        let results = session
            .run_script(
                "begin\n\
                   insert(r, values (int) {(1)});\n\
                   ?groupby[(), AVG, %1](select[false](r));\n\
                 end;",
            )
            .expect("script parses and lowers");
        assert!(matches!(results[0], RunResult::Aborted(ref m) if m.contains("AVG")));
        // the insert rolled back
        let out = session.query("r").expect("queries");
        assert!(out.is_empty());
    }

    #[test]
    fn check_script_reports_without_executing() {
        let mut session = Session::new();
        session
            .run_script("relation r (a: int, b: str);")
            .expect("declares");
        let before = session.pin().database().clone();
        // E0102: AVG over a provably-empty input
        let diags = session
            .check_script("?groupby[(), AVG, %1](select[false](r));")
            .expect("checks");
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0][0].code,
            mera_analyze::Code::PartialAggregateOnEmpty
        );
        // W0101: AVG over a relation of unknown cardinality — a warning,
        // so the program would still be admitted for execution
        let diags = session
            .check_script("?groupby[(), AVG, %1](r);")
            .expect("checks");
        assert_eq!(
            diags[0][0].code,
            mera_analyze::Code::PartialAggregateMayBeUndefined
        );
        assert!(!mera_analyze::has_errors(&diags[0]));
        // declarations inside the checked script resolve but do not install
        let diags = session
            .check_script("relation s (x: int); ?s;")
            .expect("checks");
        assert!(diags.iter().all(|d| d.is_empty()));
        assert_eq!(session.pin().database(), &before);
    }

    #[test]
    fn statically_bad_transaction_aborts_with_diagnostic() {
        let mut session = Session::new();
        session
            .run_script("relation r (a: int);")
            .expect("declares");
        // inserting strings into an int relation: lowering is structural
        // and lets it through; the analyzer rejects it (E0004) before the
        // engine would have
        let results = session
            .run_script("insert(r, values (str) {('x')});")
            .expect("parses and lowers");
        let RunResult::Aborted(ref msg) = results[0] else {
            panic!("expected abort, got {:?}", results[0]);
        };
        assert!(msg.contains("static analysis rejected"), "{msg}");
        assert!(msg.contains("E0004"), "{msg}");
    }

    #[test]
    fn query_mode_is_side_effect_free() {
        let mut session = Session::new();
        session
            .run_script("relation r (a: int); insert(r, values (int) {(1),(1)});")
            .expect("setup");
        let before = session.pin().database().clone();
        let out = session.query("unique(r)").expect("queries");
        assert_eq!(out.len(), 1);
        assert_eq!(session.pin().database(), &before);
    }

    #[test]
    fn view_script_declares_and_maintains() {
        let mut session = Session::new();
        session
            .run_script(
                "relation sales (region: str, amount: int);\n\
                 view totals = groupby[(region), SUM, amount](sales);",
            )
            .expect("declares view");
        assert!(session.pin().views().contains("totals"));
        session
            .run_script(
                "insert(sales, values (str, int) {('north', 10), ('north', 5), ('south', 7)});",
            )
            .expect("inserts");
        let out = session.query("totals").expect("view is readable");
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple!["north", 15_i64]));
        assert!(out.contains(&tuple!["south", 7_i64]));
        // views compose in queries like any relation
        let out = session
            .query("select[%2 > 10](totals)")
            .expect("view composes");
        assert_eq!(out.len(), 1);
        // deletes retract through the view
        session
            .run_script("delete(sales, values (str, int) {('south', 7)});")
            .expect("deletes");
        let out = session.query("totals").expect("view is readable");
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["north", 15_i64]));
    }

    #[test]
    fn view_name_resolves_in_later_script_items() {
        let mut session = Session::new();
        let results = session
            .run_script(
                "relation r (a: int);\n\
                 insert(r, values (int) {(1), (2), (3)});\n\
                 view big = select[%1 > 1](r);\n\
                 ?big union big;",
            )
            .expect("runs");
        let RunResult::Committed(ref outs) = results[1] else {
            panic!("query committed: {:?}", results[1]);
        };
        assert_eq!(outs[0].len(), 4);
    }

    #[test]
    fn dml_on_view_is_rejected() {
        let mut session = Session::new();
        session
            .run_script(
                "relation r (a: int);\n\
                 view v = unique(r);",
            )
            .expect("declares");
        let results = session
            .run_script("insert(v, values (int) {(1)});")
            .expect("parses and lowers");
        let RunResult::Aborted(ref msg) = results[0] else {
            panic!("expected abort, got {:?}", results[0]);
        };
        assert!(msg.contains("E0302"), "{msg}");
    }

    #[test]
    fn partial_view_definition_is_rejected() {
        let mut session = Session::new();
        session
            .run_script("relation r (a: int);")
            .expect("declares");
        let err = session
            .run_script("view avg = groupby[(), AVG, %1](r);")
            .expect_err("partial view rejected");
        let msg = err.to_string();
        assert!(msg.contains("E0303"), "{msg}");
        assert!(!session.pin().views().contains("avg"));
    }

    #[test]
    fn check_script_reports_view_diagnostics_first() {
        let mut session = Session::new();
        session
            .run_script("relation r (a: int);")
            .expect("declares");
        let diags = session
            .check_script(
                "view avg = groupby[(), AVG, %1](r);\n\
                 ?r;",
            )
            .expect("checks");
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0][0].code, mera_analyze::Code::PartialView);
        assert!(diags[1].is_empty());
    }

    #[test]
    fn script_declared_key_is_enforced_at_commit() {
        let mut session = Session::new();
        session
            .run_script(
                "relation member (name: str, town: str);\n\
                 key member (name);\n\
                 insert(member, values (str, str) {('dick', 'enschede')});",
            )
            .expect("declares and inserts");
        assert!(session.pin().keys().is_declared("member", &[1]));
        // a second tuple at the same key point aborts with E0401 and
        // leaves the database unchanged
        let results = session
            .run_script("insert(member, values (str, str) {('dick', 'hengelo')});")
            .expect("parses and lowers");
        let RunResult::Aborted(ref msg) = results[0] else {
            panic!("expected abort, got {:?}", results[0]);
        };
        assert!(msg.contains("E0401"), "{msg}");
        assert_eq!(session.query("member").expect("queries").len(), 1);
        // replacing the tuple in one transaction is fine: the *net* delta
        // at the key point stays within bounds
        let results = session
            .run_script(
                "begin\n\
                   delete(member, select[town = 'enschede'](member));\n\
                   insert(member, values (str, str) {('dick', 'hengelo')});\n\
                 end;",
            )
            .expect("parses and lowers");
        assert!(matches!(results[0], RunResult::Committed(_)));
        let out = session.query("member").expect("queries");
        assert!(out.contains(&tuple!["dick", "hengelo"]));
    }

    #[test]
    fn key_on_view_and_duplicate_key_are_rejected() {
        let mut session = Session::new();
        session
            .run_script(
                "relation r (a: int);\n\
                 view v = unique(r);\n\
                 key r (a);",
            )
            .expect("declares");
        let err = session.run_script("key v (%1);").expect_err("rejected");
        assert!(err.to_string().contains("E0402"), "{err}");
        let err = session.run_script("key r (%1);").expect_err("rejected");
        assert!(err.to_string().contains("E0403"), "{err}");
    }

    #[test]
    fn key_declaration_over_violating_data_is_rejected() {
        let mut session = Session::new();
        session
            .run_script(
                "relation r (a: int, b: int);\n\
                 insert(r, values (int, int) {(1, 10), (1, 20)});",
            )
            .expect("setup");
        let err = session.run_script("key r (a);").expect_err("rejected");
        assert!(err.to_string().contains("E0401"), "{err}");
        assert!(!session.pin().keys().is_declared("r", &[1]));
        // the two-attribute key holds, so it installs
        session.run_script("key r (a, b);").expect("declares");
        assert!(session.pin().keys().is_declared("r", &[1, 2]));
    }

    #[test]
    fn declared_key_licenses_delta_elimination_in_queries() {
        let mut session = Session::new();
        session
            .run_script(
                "relation r (a: int, b: int);\n\
                 key r (a);\n\
                 insert(r, values (int, int) {(1, 10), (2, 20)});",
            )
            .expect("setup");
        // δ over a keyed relation is the identity; the plan drops it
        let plan = session.explain("unique(r)").expect("explains");
        assert!(
            !plan.contains("distinct"),
            "keyed input must license \u{3b4}-elimination:\n{plan}"
        );
        let out = session.query("unique(r)").expect("queries");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn parse_errors_do_not_mutate() {
        let mut session = Session::new();
        session.run_script("relation r (a: int);").expect("setup");
        let before = session.pin().database().clone();
        assert!(session.run_script("insert(r values);").is_err());
        assert_eq!(session.pin().database(), &before);
    }
}
