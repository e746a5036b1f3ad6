//! # mera-opt — rule-based and cost-based optimization for the multi-set
//! algebra
//!
//! The paper's §3.3 argues that "the expression equivalences used in the
//! set-oriented relational context for query optimization also hold in the
//! proposed multi-set context", and proves the key cases:
//!
//! * Theorem 3.1 — `E₁∩E₂ = E₁−(E₁−E₂)` and `E₁⋈_φE₂ = σ_φ(E₁×E₂)`,
//! * Theorem 3.2 — `σ` and `π` distribute over `⊎`,
//! * Theorem 3.3 — `×`, `⋈`, `⊎`, `∩` are associative,
//! * the §3.3 caveat — `δ` does *not* distribute over `⊎`.
//!
//! This crate turns those licences into an optimizer:
//!
//! * [`rules`] — local rewrite rules (pushdowns, fusions, constant folding,
//!   Example 3.2's projection insertion, cost-gated δ placement, and
//!   property-licensed rules — δ-elimination and keyed-γ simplification —
//!   grounded in declared key constraints via [`Optimizer::with_keys`]),
//! * [`driver`] — bottom-up fixpoint application with ablation support;
//!   with statistics attached ([`Optimizer::with_stats`]) each run ends
//!   with cost-based join reordering through the same admission gate,
//! * [`stats`] / [`cost`] — table statistics read from a version's
//!   content (exact row counts, index-exact or sampled column distincts,
//!   column bounds) and a System-R-style cost model,
//! * [`join_order`] — cost-based join re-ordering justified by
//!   Theorem 3.3, with schema-restoring projections,
//! * [`access`] — index-versus-hash access-path selection, emitting the
//!   hints `mera-eval`'s physical planner executes as index-nested-loop
//!   joins.
//!
//! Every rule is checked against the reference evaluator by the property
//! tests in `tests/rewrite_soundness.rs`.

#![warn(missing_docs)]

pub mod access;
pub mod cost;
pub mod driver;
pub mod join_order;
pub mod rules;
pub mod stats;

pub use access::choose_access_paths;
pub use cost::{
    estimate_cost, estimate_distinct_rows, estimate_distinct_rows_keyed, estimate_rows,
    HASH_BUILD_FACTOR,
};
pub use driver::{Optimized, Optimizer, VerifyMode};
pub use join_order::reorder_joins;
pub use stats::{CatalogStats, TableStats};
