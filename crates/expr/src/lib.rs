//! # mera-expr — expression trees for the multi-set algebra
//!
//! Three layers of expressions from the paper:
//!
//! * [`scalar`] — per-tuple scalar expressions: the selection conditions of
//!   Definition 3.1 and the arithmetic expressions of the extended
//!   projection (Definition 3.4),
//! * [`aggregate`] — the multi-set aggregate functions CNT/SUM/AVG/MIN/MAX
//!   (Definition 3.3), with their multiplicity-weighted semantics,
//! * [`rel`] — the relational algebra tree itself (Definitions 3.1, 3.2,
//!   3.4) with full static schema inference.
//!
//! Evaluation lives in `mera-eval`; this crate is purely the typed ASTs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod rel;
pub mod scalar;

pub use aggregate::{Acc, Aggregate};
pub use rel::{ext_project_schema, EmptyProvider, RelExpr, SchemaProvider};
pub use scalar::{arith_result_type, eval_arith, ArithOp, CmpOp, ScalarExpr};
