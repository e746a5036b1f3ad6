//! Transaction outcomes (Definition 4.3).
//!
//! A transaction is a program in *transaction brackets* executed against a
//! database state `D_t`. The end bracket either **commits** — temporaries
//! are removed and the final intermediate state is installed as `D_{t+1}` —
//! or **aborts** — `D_t` stays installed. Either way the atomicity
//! property holds: `T(D) = D_{t.n}` or `T(D) = D`.
//!
//! The steps themselves live on [`Version`](crate::Version) (run the
//! statements, fold the commit) and [`MvccManager`](crate::MvccManager)
//! (validate, publish); this module holds what they report: the
//! [`Outcome`] of a transaction and the typed [`AbortReason`], and the
//! [`DdlError`] of a refused schema change.

use std::fmt;

use mera_core::prelude::*;
use mera_eval::KeyViolation;

use crate::exec::Outputs;

/// Why a transaction aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// A statement failed with an error (the common case: partial
    /// aggregates, division by zero, schema violations).
    Error(CoreError),
    /// The pre-execution static analyzer found error-severity diagnostics;
    /// no statement was executed. Carries *every* diagnostic of the run
    /// (warnings included), in analysis order.
    StaticallyRejected(Vec<mera_analyze::Diagnostic>),
    /// A declared key constraint would be violated by the transaction's
    /// net deltas — detected in O(|delta|) at the commit point, before
    /// anything is installed. Carries the `E0401` diagnostic.
    KeyViolation(mera_analyze::Diagnostic),
    /// First-committer-wins validation failed: between this transaction's
    /// snapshot and its commit point, another transaction committed writes
    /// to the same relations (or, on keyed relations, the same key
    /// points). The transaction saw a consistent snapshot throughout and
    /// can simply be retried against a newer one.
    Conflict {
        /// The relations whose concurrent writes overlap.
        relations: Vec<String>,
        /// The logical time of the newest conflicting committed version.
        committed_at: LogicalTime,
    },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Error(e) => write!(f, "statement error: {e}"),
            AbortReason::StaticallyRejected(diags) => {
                let first = mera_analyze::first_error(diags)
                    .expect("a static rejection carries at least one error");
                write!(f, "static analysis rejected the program: {first}")
            }
            AbortReason::KeyViolation(d) => write!(f, "{d}"),
            AbortReason::Conflict {
                relations,
                committed_at,
            } => write!(
                f,
                "write-write conflict on {} with the transaction committed at t={committed_at} \
                 (first committer wins; retry against a newer snapshot)",
                relations.join(", ")
            ),
        }
    }
}

/// The `E0401` diagnostic for one detected key violation.
pub(crate) fn key_violation_diagnostic(v: &KeyViolation) -> mera_analyze::Diagnostic {
    mera_analyze::Diagnostic::new(
        mera_analyze::Code::KeyViolation,
        mera_analyze::Span::root("commit"),
        v.to_string(),
    )
    .with_note(
        "a key bounds the summed multiplicity per key point by 1; \
         the transaction's net deltas would exceed it",
    )
}

/// The outcome of one transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The transaction committed; query outputs are delivered.
    Committed(Outputs),
    /// The transaction aborted; the database is unchanged.
    Aborted(AbortReason),
}

impl Outcome {
    /// True when committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, Outcome::Committed(_))
    }

    /// The outputs of a committed transaction.
    pub fn outputs(&self) -> Option<&Outputs> {
        match self {
            Outcome::Committed(o) => Some(o),
            Outcome::Aborted(_) => None,
        }
    }
}

/// Why [`Version::admit`](crate::Version::admit) refused a schema change.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlError {
    /// The change was rejected with diagnostics: a view definition that
    /// refers to itself or may be undefined (`E0301`/`E0303`), or a key
    /// that existing data violates (`E0401`), that targets a view
    /// (`E0402`) or that is already declared (`E0403`).
    Rejected(Vec<mera_analyze::Diagnostic>),
    /// The change is structurally invalid (a taken name, an unknown
    /// relation, out-of-range or duplicate attributes), or a view's first
    /// evaluation failed.
    Error(CoreError),
}

impl fmt::Display for DdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdlError::Rejected(diags) => match mera_analyze::first_error(diags) {
                Some(d) => write!(f, "{d}"),
                None => write!(f, "schema change rejected"),
            },
            DdlError::Error(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DdlError {}

impl From<CoreError> for DdlError {
    fn from(e: CoreError) -> Self {
        DdlError::Error(e)
    }
}
