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
//! Statements run through `mera_store::ConcurrentDb::run_sql`; checking
//! and explaining are functions of a pinned version.
//!
//! ```
//! use mera_core::prelude::*;
//! use mera_store::{ConcurrentDb, MemStorage, StoreOptions};
//!
//! let schema = DatabaseSchema::new()
//!     .with("beer", Schema::named(&[
//!         ("name", DataType::Str),
//!         ("brewery", DataType::Str),
//!         ("alcperc", DataType::Real),
//!     ]))?;
//! let db = ConcurrentDb::open(MemStorage::new(), schema, StoreOptions::default())?;
//! db.run_sql("INSERT INTO beer VALUES ('Grolsch', 'Grolsche', 5.0)")?;
//! let query = "SELECT name FROM beer WHERE alcperc >= 5.0";
//! assert!(mera_sql::check_sql(&db.pin(), query)?.is_empty());
//! let out = db.run_sql(query)?;
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
use mera_txn::{ExecConfig, Program, Version};

/// Parses and translates one SQL statement, then runs the `mera-analyze`
/// passes against `version` *without executing it*.
///
/// Returns every diagnostic (errors and warnings). Unlike
/// [`mera_lang::check_script`], the check sees the version's relation
/// cardinalities: `AVG` over a relation that is empty at `version` is
/// reported as a hard `E0102`, not a `W0101` possibility. A
/// `CREATE MATERIALIZED VIEW` statement is checked with the view
/// validator instead (`E0301`/`E0303` and the usual schema errors).
pub fn check_sql(version: &Version, sql: &str) -> LangResult<Vec<mera_analyze::Diagnostic>> {
    let stmt = parse_sql(sql)?;
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
/// against `version` under `config` — join order, access paths,
/// estimated-vs-actual cardinalities (see [`mera_txn::explain_expr`] for
/// the format). Only queries can be explained; DML and DDL statements are
/// rejected.
pub fn explain_sql(version: &Version, sql: &str, config: ExecConfig) -> LangResult<String> {
    let stmt = parse_sql(sql)?;
    match translate(&stmt, &version.catalog_schema())? {
        Translated::Query(expr) => version.explain(&expr, config).map_err(LangError::Semantic),
        _ => Err(LangError::Semantic(CoreError::TypeError(
            "EXPLAIN takes a query, not a DML or DDL statement".to_string(),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
