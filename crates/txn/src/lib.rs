//! # mera-txn — statements, programs and transactions (paper §4)
//!
//! The constructs that grow the multi-set algebra into "a complete
//! sequential database manipulation language":
//!
//! * [`statement`] — the five statements of Definition 4.1 (`insert`,
//!   `delete`, `update`, assignment, `?E`) and programs (Definition 4.2),
//! * [`exec`] — execution over intermediate states `D_t.i` with temporary
//!   relations,
//! * [`version`] — [`Version`], the one owner of a database state and its
//!   derived catalog (views, statistics, indexes, keys), and the only
//!   copy of each step that moves it: run a program, fold a commit
//!   (Definition 4.3: `D_t → D_{t+1}`), admit DDL,
//! * [`transaction`] — what a transaction reports: [`Outcome`] and the
//!   typed [`AbortReason`],
//! * [`views`] — materialized views maintained incrementally at commit
//!   time from signed deltas (ℤ-multiplicity bags) instead of
//!   re-evaluated from scratch,
//! * [`mvcc`] — [`MvccManager`], the one state owner: immutable published
//!   versions along the paper's logical-time axis, lock-free snapshot
//!   readers, optimistic writers validated first-committer-wins, and a
//!   durability hook the store layer hangs its WAL on,
//! * [`explain`] — EXPLAIN-style rendering of the chosen plan: join
//!   order, access paths, estimated-vs-actual cardinalities.

#![warn(missing_docs)]

pub mod exec;
pub mod explain;
pub mod mvcc;
pub mod statement;
pub mod transaction;
pub mod version;
pub mod views;

pub use exec::{
    analyze_program_with_views, execute_program, execute_statement, ExecConfig, Outputs,
    WorkingState,
};
pub use explain::explain_expr;
pub use mera_eval::{EngineKind, ExecOptions, HashIndex, IndexSet, KeySet, KeyViolation};
pub use mera_opt::{CatalogStats, TableStats};
pub use mvcc::{MvccManager, MvccOptions, PreparedTxn, Version};
pub use statement::{Program, Statement};
pub use transaction::{AbortReason, DeclareKeyError, Outcome};
pub use views::{CreateViewError, DeltaMap, TupleDelta, View, ViewSet};
