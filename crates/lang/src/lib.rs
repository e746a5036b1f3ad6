//! # mera-lang — the XRA-style textual language
//!
//! The paper's extended relational algebra grew into XRA, the primary
//! database language of PRISMA/DB. This crate is a textual front-end in
//! that tradition:
//!
//! * [`token`] — lexer (`%i` attribute indexes, `select[…]`, comments),
//! * [`ast`] / [`parser`] — the named surface syntax,
//! * [`lower`] — name resolution and lowering to the typed algebra and
//!   statements,
//! * [`pretty`] — printing typed trees back to parseable source.
//!
//! The crate runs nothing: scripts run as transactions through
//! `mera_store::ConcurrentDb::run_script`, and a read is [`lower_rel`]
//! against a pinned version's catalog, handed to that version.
//!
//! ```
//! use mera_core::prelude::DatabaseSchema;
//! use mera_store::{ConcurrentDb, MemStorage, StoreOptions};
//! use mera_txn::ExecConfig;
//!
//! let db = ConcurrentDb::open(MemStorage::new(), DatabaseSchema::new(), StoreOptions::default())?;
//! db.run_script(
//!     "relation beer (name: str, brewery: str, alcperc: real); \
//!      insert(beer, values (str, str, real) {('Grolsch','Grolsche',5.0)});",
//! )?;
//! let version = db.pin();
//! let read = mera_lang::lower_rel(&version.catalog_schema(), "project[name](beer)")?;
//! assert_eq!(version.query(&read, ExecConfig::default())?.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod token;

pub use error::{LangError, LangResult, Pos};
pub use lower::{check_script, lower_rel, lower_script, KeyDef, Lowerer};
pub use parser::{parse_program, parse_rel, parse_script};
pub use pretty::{program_to_xra, rel_to_xra, scalar_to_xra, stmt_to_xra};

use mera_core::prelude::Relation;

/// The result of running one transaction of a script.
#[derive(Debug, Clone, PartialEq)]
pub enum RunResult {
    /// Committed; the relations are the `?E` outputs in statement order.
    Committed(Vec<Relation>),
    /// Aborted with a rendered reason; the database is unchanged.
    Aborted(String),
}
