//! Error types for the core data model.

use std::fmt;

/// Errors raised by the core multi-set relational structures.
///
/// The paper's definitions are total on well-typed inputs; every variant here
/// corresponds to a way an *ill-typed* or *ill-formed* construction can be
/// rejected before evaluation (schema mismatches, bad attribute indexes, …)
/// or to one of the partial functions the paper calls out explicitly
/// (aggregates over empty multi-sets, see Definition 3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A floating-point value that is not an atomic domain member (NaN).
    ///
    /// Domains are *sets* of atomic values (Definition 2.1); NaN breaks both
    /// equality and ordering, so `real` domains exclude it by construction.
    NotAtomic(String),
    /// Two schemas that were required to be identical differ.
    SchemaMismatch {
        /// Rendered form of the schema that was required.
        expected: String,
        /// Rendered form of the schema that was found.
        found: String,
    },
    /// A tuple's arity or attribute types do not match the target schema.
    TupleSchemaMismatch {
        /// Rendered form of the target schema.
        schema: String,
        /// Rendered form of the offending tuple.
        tuple: String,
    },
    /// An attribute index outside `1..=#r` (the paper addresses attributes
    /// by 1-based prefixed index, `%i`).
    AttrIndexOutOfRange {
        /// The out-of-range 1-based index.
        index: usize,
        /// The arity it was checked against.
        arity: usize,
    },
    /// A named attribute that does not exist in the schema.
    UnknownAttribute(String),
    /// A named relation that does not exist in the database.
    UnknownRelation(String),
    /// A relation name that already exists in the database schema.
    DuplicateRelation(String),
    /// An attribute list that was required to be duplicate-free (group-by
    /// lists, Definition 3.4) contains a repeated index.
    DuplicateAttrInList(usize),
    /// An aggregate over an empty multi-set (AVG/MIN/MAX are partial
    /// functions, Definition 3.3).
    AggregateOnEmpty(&'static str),
    /// Arithmetic performed on values of incompatible types.
    TypeError(String),
    /// Integer overflow in arithmetic or multiplicity bookkeeping.
    Overflow(&'static str),
    /// Division by zero inside a scalar expression.
    DivisionByZero,
    /// Applying a signed delta would drive some multiplicity below zero.
    ///
    /// ℕ-valued relation instances (Definition 2.2) cannot represent
    /// negative counts; a correctly-maintained view delta never retracts
    /// more copies than the base holds, so this error signals a
    /// maintenance-state bug (and triggers full-recompute fallback).
    NegativeMultiplicity(&'static str),
    /// A parallel worker panicked while evaluating a partition or morsel.
    ///
    /// Panics are caught at the worker boundary and surfaced as this error
    /// so one failing partition degrades the query to an error instead of
    /// aborting the process.
    WorkerPanicked(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotAtomic(v) => write!(f, "value is not an atomic domain member: {v}"),
            CoreError::SchemaMismatch { expected, found } => {
                write!(f, "schema mismatch: expected {expected}, found {found}")
            }
            CoreError::TupleSchemaMismatch { schema, tuple } => {
                write!(f, "tuple {tuple} does not match schema {schema}")
            }
            CoreError::AttrIndexOutOfRange { index, arity } => {
                write!(f, "attribute index %{index} out of range for arity {arity}")
            }
            CoreError::UnknownAttribute(name) => write!(f, "unknown attribute: {name}"),
            CoreError::UnknownRelation(name) => write!(f, "unknown relation: {name}"),
            CoreError::DuplicateRelation(name) => {
                write!(f, "relation already exists: {name}")
            }
            CoreError::DuplicateAttrInList(i) => {
                write!(
                    f,
                    "attribute %{i} repeated in duplicate-free attribute list"
                )
            }
            CoreError::AggregateOnEmpty(agg) => {
                write!(f, "{agg} is undefined on an empty multi-set")
            }
            CoreError::TypeError(msg) => write!(f, "type error: {msg}"),
            CoreError::Overflow(what) => write!(f, "integer overflow in {what}"),
            CoreError::DivisionByZero => write!(f, "division by zero"),
            CoreError::NegativeMultiplicity(what) => {
                write!(f, "negative multiplicity in {what}")
            }
            CoreError::WorkerPanicked(msg) => {
                write!(f, "parallel worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias used throughout the workspace.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::AttrIndexOutOfRange { index: 5, arity: 3 };
        assert_eq!(e.to_string(), "attribute index %5 out of range for arity 3");
        let e = CoreError::AggregateOnEmpty("AVG");
        assert!(e.to_string().contains("AVG"));
        let e = CoreError::DivisionByZero;
        assert_eq!(e.to_string(), "division by zero");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            CoreError::UnknownRelation("beer".into()),
            CoreError::UnknownRelation("beer".into())
        );
        assert_ne!(
            CoreError::UnknownRelation("beer".into()),
            CoreError::UnknownRelation("brewery".into())
        );
    }
}
