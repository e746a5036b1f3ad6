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
//! The typing rules of Definitions 3.1–3.4 live here once:
//! [`ScalarExpr::check`] and [`RelExpr::check_node`] report every problem
//! they find, the static analyzer in `mera-analyze` turns those reports
//! into diagnostics, and [`ScalarExpr::infer_type`] and
//! [`RelExpr::schema`] are their first-problem readings.
//!
//! Evaluation lives in `mera-eval`; this crate is purely the typed ASTs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod rel;
pub mod scalar;

pub use aggregate::{Acc, Aggregate};
pub use rel::{ext_project_schema, EmptyProvider, RelExpr, SchemaProvider};
pub use scalar::{eval_arith, ArithOp, CmpOp, ScalarExpr};

use mera_core::error::{CoreError, CoreResult};

/// Runs a check that reports its problems to a sink, and reads the first
/// problem as the error when it reported any.
fn first_problem<T>(check: impl FnOnce(&mut dyn FnMut(CoreError)) -> Option<T>) -> CoreResult<T> {
    let mut first = None;
    let checked = check(&mut |e| {
        first.get_or_insert(e);
    });
    match (first, checked) {
        (Some(e), _) => Err(e),
        (None, Some(t)) => Ok(t),
        (None, None) => unreachable!("a failed check reports its problem"),
    }
}

/// Reports a [`CoreError::TypeError`] and fails the check.
fn type_error<T>(report: &mut dyn FnMut(CoreError), msg: String) -> Option<T> {
    report(CoreError::TypeError(msg));
    None
}
