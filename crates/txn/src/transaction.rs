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
//! [`Outcome`] of a transaction and the typed [`AbortReason`].

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
    /// The commit-time integrity check found a violation (the enforcement
    /// model of the paper's reference \[11\]).
    ConstraintViolation(String),
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
            AbortReason::ConstraintViolation(v) => write!(f, "{v}"),
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

/// Why [`Version::declare_key`](crate::Version::declare_key) refused a declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclareKeyError {
    /// The declaration was rejected with a diagnostic: existing data
    /// violates the key (`E0401`), the target is a view (`E0402`), or the
    /// key is already declared (`E0403`).
    Rejected(mera_analyze::Diagnostic),
    /// The declaration is structurally invalid (unknown relation,
    /// out-of-range or duplicate attributes).
    Error(CoreError),
}

impl fmt::Display for DeclareKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeclareKeyError::Rejected(d) => write!(f, "key declaration rejected: {d}"),
            DeclareKeyError::Error(e) => write!(f, "key declaration failed: {e}"),
        }
    }
}

impl std::error::Error for DeclareKeyError {}

impl From<CoreError> for DeclareKeyError {
    fn from(e: CoreError) -> Self {
        DeclareKeyError::Error(e)
    }
}
