//! # mera — a multi-set extended relational algebra
//!
//! A complete implementation of Grefen & de By, *A Multi-Set Extended
//! Relational Algebra — A Formal Approach to a Practical Issue*
//! (ICDE 1994): the bag-relational data model, the full extended algebra
//! with aggregates and duplicate elimination, an optimizer built on the
//! paper's equivalence theorems, the sequential database-manipulation
//! language with ACID transactions, a textual XRA front-end and a SQL
//! subset.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and hosts the repository-level examples and integration tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`analyze`] | `mera-analyze` | static analysis: schema inference, partiality lints, rewrite soundness |
//! | [`core`] | `mera-core` | values, tuples, schemas, K-bags over ℕ/ℤ/𝔹, databases (§2) |
//! | [`expr`] | `mera-expr` | scalar/aggregate/relational expression trees (§3) |
//! | [`eval`] | `mera-eval` | reference evaluator (any semiring; `eval_in::<bool>` is set semantics) + morsel-driven physical engine |
//! | [`opt`] | `mera-opt` | rewrite rules, cost model, join ordering (§3.3) |
//! | [`lang`] | `mera-lang` | the XRA textual language |
//! | [`txn`] | `mera-txn` | statements, programs, transactions (§4) |
//! | [`sql`] | `mera-sql` | SQL subset front-end |
//! | [`store`] | `mera-store` | durability: write-ahead log, snapshots, crash recovery |
//!
//! Text runs through one front door, [`store::ConcurrentDb`] (here over
//! volatile [`store::MemStorage`]); a read is text lowered against a
//! pinned version and evaluated there.
//!
//! ```
//! use mera::core::prelude::DatabaseSchema;
//! use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
//! use mera::txn::ExecConfig;
//!
//! let db = ConcurrentDb::open(MemStorage::new(), DatabaseSchema::new(), StoreOptions::default())?;
//! db.run_script(
//!     "relation beer (name: str, brewery: str, alcperc: real);\
//!      insert(beer, values (str, str, real) {\
//!        ('Grolsch','Grolsche',5.0), ('Bock','Grolsche',6.5), ('Bock','Heineken',6.3)\
//!      });",
//! )?;
//! // Example 3.1: duplicates are first-class
//! let version = db.pin();
//! let read = mera::lang::lower_rel(&version.catalog_schema(), "project[name](beer)")?;
//! let names = version.query(&read, ExecConfig::default())?;
//! assert_eq!(names.multiplicity(&mera::core::tuple!["Bock"]), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use mera_analyze as analyze;
pub use mera_core as core;
pub use mera_eval as eval;
pub use mera_expr as expr;
pub use mera_lang as lang;
pub use mera_opt as opt;
pub use mera_sql as sql;
pub use mera_store as store;
pub use mera_txn as txn;

use mera_core::prelude::*;
use std::sync::Arc;

/// Builds the paper's beer/brewery example database (§3's running
/// example), pre-loaded with a small instance that exhibits duplicates:
/// two different Dutch brewers both brew a beer called "Bock".
pub fn beer_database() -> Database {
    let schema = beer_schema();
    let mut db = Database::new(schema);
    let beer = Arc::clone(db.schema().get("beer").expect("declared"));
    db.replace(
        "beer",
        Relation::from_tuples(
            beer,
            vec![
                tuple!["Grolsch", "Grolsche", 5.0_f64],
                tuple!["Heineken", "Heineken", 5.0_f64],
                tuple!["Amstel", "Heineken", 5.1_f64],
                tuple!["Guinness", "StJames", 4.2_f64],
                tuple!["Bock", "Grolsche", 6.5_f64],
                tuple!["Bock", "Heineken", 6.3_f64],
            ],
        )
        .expect("well-typed fixture"),
    )
    .expect("replace");
    let brewery = Arc::clone(db.schema().get("brewery").expect("declared"));
    db.replace(
        "brewery",
        Relation::from_tuples(
            brewery,
            vec![
                tuple!["Grolsche", "Enschede", "NL"],
                tuple!["Heineken", "Amsterdam", "NL"],
                tuple!["StJames", "Dublin", "IE"],
            ],
        )
        .expect("well-typed fixture"),
    )
    .expect("replace");
    db
}

/// The beer/brewery database schema from the paper:
/// `beer (name, brewery, alcperc)` and `brewery (name, city, country)`.
pub fn beer_schema() -> DatabaseSchema {
    DatabaseSchema::new()
        .with(
            "beer",
            Schema::named(&[
                ("name", DataType::Str),
                ("brewery", DataType::Str),
                ("alcperc", DataType::Real),
            ]),
        )
        .expect("fresh schema")
        .with(
            "brewery",
            Schema::named(&[
                ("name", DataType::Str),
                ("city", DataType::Str),
                ("country", DataType::Str),
            ]),
        )
        .expect("fresh schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_matches_paper_schemas() {
        let db = beer_database();
        assert_eq!(db.relation("beer").expect("present").len(), 6);
        assert_eq!(db.relation("brewery").expect("present").len(), 3);
        assert_eq!(db.schema().get("beer").expect("present").arity(), 3);
    }
}
