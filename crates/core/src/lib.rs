//! # mera-core — multi-set relational structures
//!
//! The data model of Grefen & de By, *A Multi-Set Extended Relational
//! Algebra — A Formal Approach to a Practical Issue* (ICDE 1994), §2:
//!
//! * [`value`] — atomic domain values (Definition 2.1),
//! * [`types`] — domain names and numeric coercion,
//! * [`tuple`](mod@tuple) — tuples, attribute lists, projection `α` and
//!   concatenation `⊕` (Definition 2.4),
//! * [`schema`] — relation schemas (Definition 2.2),
//! * [`multiset`] — the counted bag over a multiplicity semiring (ℕ, ℤ
//!   for signed deltas, 𝔹 for set semantics) with the multiplicity laws
//!   of Definitions 3.1–3.2, stored in
//! * [`pmap`] — a persistent hash trie: O(1) clones, path-copying writes,
//! * [`relation`] — schema-checked K-relations and operator kernels,
//! * [`database`] — database schemas, states and transitions
//!   (Definitions 2.5–2.6).
//!
//! ```
//! use mera_core::prelude::*;
//!
//! let beer = relation_of(
//!     Schema::named(&[("name", DataType::Str), ("alcperc", DataType::Real)]),
//!     vec![
//!         tuple!["Grolsch", 5.0_f64],
//!         tuple!["Heineken", 5.0_f64],
//!         tuple!["Heineken", 5.0_f64], // duplicates are first-class
//!     ],
//! )?;
//! assert_eq!(beer.len(), 3);
//! assert_eq!(beer.distinct_len(), 2);
//! # Ok::<(), mera_core::CoreError>(())
//! ```

#![warn(missing_docs)]

pub mod counting_alloc;
pub mod database;
pub mod error;
pub mod intern;
pub mod multiset;
pub mod pmap;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod types;
pub mod value;

pub use error::{CoreError, CoreResult};
pub use tuple::IntoValue;

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::database::{Database, DatabaseSchema, LogicalTime, Transition};
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::intern::Sym;
    pub use crate::multiset::{Bag, KBag, NaturallyOrdered, Semiring, SignedBag};
    pub use crate::relation::{relation_of, KRelation, Relation};
    pub use crate::schema::{Attribute, RelationSchema, Schema, SchemaRef};
    pub use crate::tuple;
    pub use crate::tuple::{AttrList, IntoValue, ResolvedAttrs, Tuple};
    pub use crate::types::DataType;
    pub use crate::value::{Date, Money, Real, Time, Value};
}
