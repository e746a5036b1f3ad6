//! # mera-sql — a SQL subset over the multi-set algebra
//!
//! §1 of the paper positions the extended algebra "as a formal background
//! to other multi-set languages like SQL". This crate demonstrates that
//! role concretely: a single-block SQL subset (the fragment the paper's
//! own SQL examples use) parsed and translated into the algebra, so SQL
//! statements execute with exactly the multi-set semantics of §3.
//!
//! * [`ast`] — the SQL AST,
//! * [`parser`] — case-insensitive recursive descent,
//! * [`translate`](mod@translate) — FROM→`×`, WHERE→`σ`, SELECT→`π`, DISTINCT→`δ`,
//!   GROUP BY→`γ`, DML→Definition 4.1 statements.
//!
//! ```
//! use mera_core::prelude::*;
//! use mera_sql::run_sql;
//! use mera_txn::MvccManager;
//!
//! let schema = DatabaseSchema::new()
//!     .with("beer", Schema::named(&[
//!         ("name", DataType::Str),
//!         ("brewery", DataType::Str),
//!         ("alcperc", DataType::Real),
//!     ]))?;
//! let mgr = MvccManager::new(schema);
//! run_sql(&mgr, "INSERT INTO beer VALUES ('Grolsch', 'Grolsche', 5.0)")?;
//! let out = run_sql(&mgr, "SELECT name FROM beer WHERE alcperc >= 5.0")?;
//! assert_eq!(out.expect("query output").len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod parser;
pub mod translate;

pub use ast::{ColRef, SelectItem, SelectQuery, SqlExpr, SqlStmt};
pub use parser::{parse_sql, parse_sql_script};
pub use translate::{translate, Translated};

use mera_core::prelude::*;
use mera_lang::error::{LangError, LangResult};
use mera_txn::{MvccManager, Outcome, Program};

/// Parses and translates one SQL statement, then runs the `mera-analyze`
/// passes against the manager's current state *without executing it*.
///
/// Returns every diagnostic (errors and warnings). Unlike
/// [`mera_lang::Session::check_script`], the check sees live relation
/// cardinalities: `AVG` over a relation that is empty *right now* is
/// reported as a hard `E0102`, not a `W0101` possibility. A
/// `CREATE MATERIALIZED VIEW` statement is checked with the view
/// validator instead (`E0301`/`E0303` and the usual schema errors).
pub fn check_sql(mgr: &MvccManager, sql: &str) -> LangResult<Vec<mera_analyze::Diagnostic>> {
    let stmt = parse_sql(sql)?;
    let version = mgr.pin();
    let schema = version.catalog_schema();
    match translate(&stmt, &schema)? {
        Translated::CreateView { name, expr } => {
            Ok(mera_analyze::analyze_view_def(&name, &expr, &schema).diagnostics)
        }
        // CREATE TABLE has nothing to analyze: the table is new and empty,
        // so its PRIMARY KEY is trivially satisfied
        Translated::CreateTable { .. } => Ok(Vec::new()),
        translated => {
            let program = Program::single(translated.into_statement());
            Ok(version.check_program(&program))
        }
    }
}

/// Parses and translates one SQL query, then renders the plan it gets
/// against the manager's current state — join order, access paths,
/// estimated-vs-actual cardinalities (see [`mera_txn::explain_expr`] for
/// the format). Only queries can be explained; DML and DDL statements are
/// rejected.
pub fn explain_sql(mgr: &MvccManager, sql: &str) -> LangResult<String> {
    let stmt = parse_sql(sql)?;
    let version = mgr.pin();
    match translate(&stmt, &version.catalog_schema())? {
        Translated::Query(expr) => version
            .explain(&expr, mgr.config())
            .map_err(LangError::Semantic),
        _ => Err(LangError::Semantic(CoreError::TypeError(
            "EXPLAIN takes a query, not a DML or DDL statement".to_string(),
        ))),
    }
}

/// Parses, translates and runs one SQL statement as a transaction against
/// a manager. Returns the result relation for queries, `None` for DML and
/// `CREATE MATERIALIZED VIEW`. Materialized views are readable in `FROM`
/// clauses like tables, served from their incrementally-maintained
/// contents.
pub fn run_sql(mgr: &MvccManager, sql: &str) -> LangResult<Option<Relation>> {
    let stmt = parse_sql(sql)?;
    let translated = translate(&stmt, &mgr.pin().catalog_schema())?;
    let is_query = matches!(translated, Translated::Query(_));
    if let Translated::CreateView { name, expr } = translated {
        mgr.create_view(&name, expr)?;
        return Ok(None);
    }
    if let Translated::CreateTable { schema, keys } = translated {
        let name = schema.name.clone();
        mgr.add_relation(schema)?;
        for attrs in keys {
            mgr.declare_key(&name, &attrs)?;
        }
        return Ok(None);
    }
    let program = Program::single(translated.into_statement());
    match mgr.execute(&program).0 {
        Outcome::Committed(mut outputs) => {
            if is_query {
                Ok(Some(outputs.queries.remove(0)))
            } else {
                Ok(None)
            }
        }
        Outcome::Aborted(reason) => Err(LangError::Semantic(CoreError::TypeError(format!(
            "transaction aborted: {reason}"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use mera_expr::{Aggregate, RelExpr, ScalarExpr};

    fn beer_schema() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ]),
            )
            .expect("fresh")
            .with(
                "brewery",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("city", DataType::Str),
                    ("country", DataType::Str),
                ]),
            )
            .expect("fresh")
    }

    fn loaded_manager() -> MvccManager {
        let mgr = MvccManager::new(beer_schema());
        run_sql(
            &mgr,
            "INSERT INTO beer VALUES \
             ('Grolsch', 'Grolsche', 5.0), \
             ('Heineken', 'Heineken', 5.0), \
             ('Amstel', 'Heineken', 5.1), \
             ('Bock', 'Grolsche', 6.5), \
             ('Bock', 'Heineken', 6.3), \
             ('Guinness', 'StJames', 4.2)",
        )
        .expect("insert beers");
        run_sql(
            &mgr,
            "INSERT INTO brewery VALUES \
             ('Grolsche', 'Enschede', 'NL'), \
             ('Heineken', 'Amsterdam', 'NL'), \
             ('StJames', 'Dublin', 'IE')",
        )
        .expect("insert breweries");
        mgr
    }

    #[test]
    fn example_3_2_translation_shape() {
        // SELECT country, AVG(alcperc) FROM beer, brewery
        // WHERE beer.brewery = brewery.name GROUP BY country
        let stmt = parse_sql(
            "SELECT country, AVG(alcperc) FROM beer, brewery \
             WHERE beer.brewery = brewery.name GROUP BY country",
        )
        .expect("parses");
        let schema = beer_schema();
        let Translated::Query(e) = translate(&stmt, &schema).expect("translates") else {
            panic!("expected a query");
        };
        let want = RelExpr::scan("beer")
            .product(RelExpr::scan("brewery"))
            .select(ScalarExpr::attr(2).eq(ScalarExpr::attr(4)))
            .group_by(&[6], Aggregate::Avg, 3);
        assert_eq!(e, want);
    }

    #[test]
    fn example_3_2_executes_with_bag_semantics() {
        let mgr = loaded_manager();
        let out = run_sql(
            &mgr,
            "SELECT country, AVG(alcperc) FROM beer, brewery \
             WHERE beer.brewery = brewery.name GROUP BY country",
        )
        .expect("runs")
        .expect("query output");
        let nl = (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5.0;
        assert_eq!(out.multiplicity(&tuple!["NL", nl]), 1);
        assert_eq!(out.multiplicity(&tuple!["IE", 4.2_f64]), 1);
    }

    #[test]
    fn example_4_1_update() {
        let mgr = loaded_manager();
        run_sql(
            &mgr,
            "UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'Heineken'",
        )
        .expect("updates");
        let out = run_sql(&mgr, "SELECT alcperc FROM beer WHERE name = 'Amstel'")
            .expect("runs")
            .expect("query output");
        assert_eq!(out.multiplicity(&tuple![5.1 * 1.1]), 1);
    }

    #[test]
    fn plain_select_preserves_duplicates() {
        let mgr = loaded_manager();
        let out = run_sql(&mgr, "SELECT alcperc FROM beer")
            .expect("runs")
            .expect("output");
        assert_eq!(out.len(), 6);
        assert_eq!(out.multiplicity(&tuple![5.0_f64]), 2);
        // DISTINCT collapses them
        let out = run_sql(&mgr, "SELECT DISTINCT alcperc FROM beer")
            .expect("runs")
            .expect("output");
        assert_eq!(out.multiplicity(&tuple![5.0_f64]), 1);
    }

    #[test]
    fn select_star_and_qualified_columns() {
        let mgr = loaded_manager();
        let out = run_sql(
            &mgr,
            "SELECT * FROM beer, brewery WHERE beer.brewery = brewery.name",
        )
        .expect("runs")
        .expect("output");
        assert_eq!(out.schema().arity(), 6);
        assert_eq!(out.len(), 6);
        // ambiguous unqualified 'name' is an error
        let err = run_sql(&mgr, "SELECT name FROM beer, brewery").unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn count_star_and_having() {
        let mgr = loaded_manager();
        let out = run_sql(
            &mgr,
            "SELECT brewery, COUNT(*) FROM beer GROUP BY brewery HAVING COUNT(*) > 1",
        )
        .expect("runs")
        .expect("output");
        assert_eq!(out.multiplicity(&tuple!["Heineken", 3_i64]), 1);
        assert_eq!(out.multiplicity(&tuple!["Grolsche", 2_i64]), 1);
        assert_eq!(out.len(), 2); // StJames (1 beer) filtered by HAVING
    }

    #[test]
    fn select_list_reorders_group_output() {
        let mgr = loaded_manager();
        // aggregate first, key second
        let out = run_sql(
            &mgr,
            "SELECT MAX(alcperc), brewery FROM beer GROUP BY brewery",
        )
        .expect("runs")
        .expect("output");
        assert_eq!(out.multiplicity(&tuple![6.5_f64, "Grolsche"]), 1);
    }

    #[test]
    fn delete_with_where() {
        let mgr = loaded_manager();
        run_sql(&mgr, "DELETE FROM beer WHERE alcperc < 5.0").expect("deletes");
        let out = run_sql(&mgr, "SELECT COUNT(*) FROM beer")
            .expect("runs")
            .expect("output");
        assert_eq!(out.multiplicity(&tuple![5_i64]), 1);
    }

    #[test]
    fn aggregate_without_group_by() {
        let mgr = loaded_manager();
        let out = run_sql(&mgr, "SELECT AVG(alcperc) FROM beer")
            .expect("runs")
            .expect("output");
        assert_eq!(out.len(), 1);
        let avg = (5.0 + 5.0 + 5.1 + 6.5 + 6.3 + 4.2) / 6.0;
        assert_eq!(out.multiplicity(&tuple![avg]), 1);
    }

    #[test]
    fn check_sql_reports_partiality_against_live_state() {
        let mgr = MvccManager::new(beer_schema());
        // beer is empty right now: AVG is provably undefined — E0102
        let diags = check_sql(&mgr, "SELECT AVG(alcperc) FROM beer").expect("checks");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, mera_analyze::Code::PartialAggregateOnEmpty);
        // and the transaction path agrees: the statement is rejected
        // before execution
        let err = run_sql(&mgr, "SELECT AVG(alcperc) FROM beer").unwrap_err();
        assert!(
            err.to_string().contains("static analysis rejected"),
            "{err}"
        );
        // once the relation is nonempty the check proves safety instead
        run_sql(&mgr, "INSERT INTO beer VALUES ('Grolsch', 'Grolsche', 5.0)").expect("inserts");
        let diags = check_sql(&mgr, "SELECT AVG(alcperc) FROM beer").expect("checks");
        assert!(diags.is_empty(), "{diags:?}");
        // COUNT is total, so it is clean either way (Definition 3.4)
        let diags = check_sql(&mgr, "SELECT COUNT(*) FROM brewery").expect("checks");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn create_materialized_view_and_query_it() {
        let mgr = loaded_manager();
        run_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW strength AS \
             SELECT country, MAX(alcperc) FROM beer, brewery \
             WHERE beer.brewery = brewery.name GROUP BY country",
        )
        .expect("creates view");
        let out = run_sql(&mgr, "SELECT * FROM strength WHERE country = 'NL'")
            .expect("runs")
            .expect("output");
        assert_eq!(out.multiplicity(&tuple!["NL", 6.5_f64]), 1);
        // a commit on the base tables refreshes the view incrementally
        run_sql(&mgr, "DELETE FROM beer WHERE alcperc > 6.0").expect("deletes");
        let out = run_sql(&mgr, "SELECT * FROM strength")
            .expect("runs")
            .expect("output");
        assert_eq!(out.multiplicity(&tuple!["NL", 5.1_f64]), 1);
        assert_eq!(out.multiplicity(&tuple!["IE", 4.2_f64]), 1);
        let version = mgr.pin();
        let view = version.views().get("strength").expect("view exists");
        assert_eq!(view.refresh_stats().1, 0, "no recompute fallbacks");
    }

    #[test]
    fn dml_on_sql_view_is_rejected() {
        let mgr = loaded_manager();
        run_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW lite AS SELECT name FROM beer WHERE alcperc < 5.0",
        )
        .expect("creates view");
        let err = run_sql(&mgr, "DELETE FROM lite").unwrap_err();
        assert!(err.to_string().contains("E0302"), "{err}");
        let diags = check_sql(&mgr, "DELETE FROM lite").expect("checks");
        assert_eq!(diags[0].code, mera_analyze::Code::DmlOnView);
    }

    #[test]
    fn partial_view_definition_is_rejected_in_sql() {
        let mgr = loaded_manager();
        let diags = check_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW a AS SELECT AVG(alcperc) FROM beer",
        )
        .expect("checks");
        assert_eq!(diags[0].code, mera_analyze::Code::PartialView);
        let err = run_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW a AS SELECT AVG(alcperc) FROM beer",
        )
        .unwrap_err();
        assert!(err.to_string().contains("E0303"), "{err}");
        // total aggregates are accepted — COUNT is defined on ∅
        run_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW n AS SELECT brewery, COUNT(*) FROM beer GROUP BY brewery",
        )
        .expect("creates");
        let out = run_sql(&mgr, "SELECT * FROM n WHERE brewery = 'Heineken'")
            .expect("runs")
            .expect("output");
        assert_eq!(out.multiplicity(&tuple!["Heineken", 3_i64]), 1);
    }

    #[test]
    fn create_table_with_primary_key_enforces_at_commit() {
        let mgr = MvccManager::new(DatabaseSchema::new());
        run_sql(
            &mgr,
            "CREATE TABLE member (name TEXT, town TEXT, PRIMARY KEY (name))",
        )
        .expect("creates table");
        run_sql(&mgr, "INSERT INTO member VALUES ('dick', 'enschede')").expect("inserts");
        // a second tuple at the same key point aborts the transaction
        let err = run_sql(&mgr, "INSERT INTO member VALUES ('dick', 'hengelo')").unwrap_err();
        assert!(err.to_string().contains("E0401"), "{err}");
        let out = run_sql(&mgr, "SELECT * FROM member")
            .expect("runs")
            .expect("output");
        assert_eq!(out.len(), 1);
        // the key licenses δ-elimination in plans
        let plan = explain_sql(&mgr, "SELECT DISTINCT * FROM member").expect("explains");
        assert!(
            !plan.contains("distinct"),
            "keyed input must license \u{3b4}-elimination:\n{plan}"
        );
    }

    #[test]
    fn views_stack_on_views_and_stay_fresh() {
        let mgr = loaded_manager();
        run_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW strong AS \
             SELECT name, brewery FROM beer WHERE alcperc > 6.0",
        )
        .expect("first view");
        // the second view's FROM resolves the first view by name
        run_sql(
            &mgr,
            "CREATE MATERIALIZED VIEW strong_grolsche AS \
             SELECT name FROM strong WHERE brewery = 'Grolsche'",
        )
        .expect("view on view");
        let out = run_sql(&mgr, "SELECT * FROM strong_grolsche")
            .expect("runs")
            .expect("output");
        assert_eq!(out.len(), 1); // Bock/Grolsche at 6.5
                                  // a base-table write cascades through both layers
        run_sql(&mgr, "INSERT INTO beer VALUES ('Tripel', 'Grolsche', 8.0)").expect("dml");
        let out = run_sql(&mgr, "SELECT * FROM strong_grolsche")
            .expect("runs")
            .expect("output");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn create_table_unique_constraints_enforce_and_license_rewrites() {
        let mgr = MvccManager::new(DatabaseSchema::new());
        run_sql(
            &mgr,
            "CREATE TABLE member (id INT PRIMARY KEY, email TEXT UNIQUE, \
             first TEXT, last TEXT, UNIQUE (first, last))",
        )
        .expect("creates table");
        run_sql(&mgr, "INSERT INTO member VALUES (1, 'ann@x', 'ann', 'ng')").expect("inserts");
        // UNIQUE column: duplicate email aborts with the key diagnostic
        let err = run_sql(&mgr, "INSERT INTO member VALUES (2, 'ann@x', 'bob', 'b')").unwrap_err();
        assert!(err.to_string().contains("E0401"), "{err}");
        // composite UNIQUE: duplicate (first, last) aborts
        let err = run_sql(&mgr, "INSERT INTO member VALUES (2, 'bob@x', 'ann', 'ng')").unwrap_err();
        assert!(err.to_string().contains("E0401"), "{err}");
        // all constraints satisfied: commits
        run_sql(&mgr, "INSERT INTO member VALUES (2, 'bob@x', 'bob', 'ng')").expect("commits");
        let out = run_sql(&mgr, "SELECT * FROM member")
            .expect("runs")
            .expect("output");
        assert_eq!(out.len(), 2);
        // the UNIQUE keys reach the property pass: δ over the keyed
        // relation is eliminated
        let plan = explain_sql(&mgr, "SELECT DISTINCT * FROM member").expect("explains");
        assert!(
            !plan.contains("distinct"),
            "keyed input must license \u{3b4}-elimination:\n{plan}"
        );
        // UNIQUE duplicating the PRIMARY KEY collapses to one declaration
        run_sql(&mgr, "CREATE TABLE t (a INT PRIMARY KEY, UNIQUE (a))").expect("creates");
        run_sql(&mgr, "INSERT INTO t VALUES (1)").expect("inserts");
        let err = run_sql(&mgr, "INSERT INTO t VALUES (1)").unwrap_err();
        assert!(err.to_string().contains("E0401"), "{err}");
    }

    #[test]
    fn create_table_errors() {
        let mgr = loaded_manager();
        // duplicate relation name
        let err = run_sql(&mgr, "CREATE TABLE beer (x INT)").unwrap_err();
        assert!(err.to_string().contains("beer"), "{err}");
        // unknown primary-key column
        let err = run_sql(&mgr, "CREATE TABLE r (a INT, PRIMARY KEY (z))").unwrap_err();
        assert!(err.to_string().contains("z"), "{err}");
        // duplicate column name
        let err = run_sql(&mgr, "CREATE TABLE r (a INT, a INT)").unwrap_err();
        assert!(err.to_string().contains("duplicate column"), "{err}");
        // CREATE TABLE checks clean (nothing to analyze on an empty table)
        let diags = check_sql(&mgr, "CREATE TABLE s (a INT, PRIMARY KEY (a))").expect("checks");
        assert!(diags.is_empty());
    }

    #[test]
    fn semantic_errors() {
        let mgr = loaded_manager();
        // two aggregates
        assert!(run_sql(&mgr, "SELECT AVG(alcperc), MAX(alcperc) FROM beer").is_err());
        // non-grouped column
        assert!(run_sql(&mgr, "SELECT name, COUNT(*) FROM beer GROUP BY brewery").is_err());
        // star with group by
        assert!(run_sql(&mgr, "SELECT * FROM beer GROUP BY brewery").is_err());
        // having without grouping
        assert!(run_sql(&mgr, "SELECT name FROM beer HAVING name = 'x'").is_err());
        // unknown table / column
        assert!(run_sql(&mgr, "SELECT * FROM ales").is_err());
        assert!(run_sql(&mgr, "SELECT colour FROM beer").is_err());
        // ill-typed insert
        assert!(run_sql(&mgr, "INSERT INTO beer VALUES (1, 2, 3)").is_err());
    }
}
