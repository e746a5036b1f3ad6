//! Static semantic analysis for the multi-set extended relational algebra.
//!
//! The paper (Grefen & de By, ICDE 1994) makes the algebra *formal*
//! precisely so properties can be established before execution; this crate
//! turns that formal layer into tooling. Three passes, all producing
//! structured [`Diagnostic`]s with stable codes:
//!
//! 1. **Schema/type inference** ([`analyze_plan`]) — every attribute
//!    reference and arithmetic expression is resolved against inferred
//!    schemas, with structural spans, reporting *all* problems instead of
//!    stopping at the first (`E0001` unresolved attribute, `E0002` unknown
//!    relation, `E0003` type mismatch, `E0004` incompatible operands,
//!    `E0005` malformed operator).
//! 2. **Partiality/emptiness analysis** (same walk) — the three-point
//!    lattice [`Card`] = {empty, nonempty, unknown} is propagated through
//!    `⊎ − × σ π δ γ`, warning when a *partial* aggregate (Definition 3.4:
//!    `AVG`/`MIN`/`MAX`/… are undefined on the empty multi-set) may receive
//!    an empty bag (`W0101`), erroring when it provably does (`E0102`),
//!    and staying silent when safety is proved. [`analyze_program`] extends
//!    the lattice across statements, so `insert` of a nonempty literal
//!    proves a downstream aggregate safe.
//! 3. **Rewrite-soundness checking** ([`rewrite`], [`differential`]) —
//!    optimizer rules declare their soundness argument as a
//!    [`Precondition`] the driver must [`discharge`] per application
//!    (`E0201` on refusal), and debug builds additionally cross-check each
//!    applied rewrite by differential evaluation on small randomized
//!    instances, catching δ-over-⊎ style misrewrites by construction.
//! 4. **Plan-property inference** ([`props`]) — a bottom-up abstract
//!    interpretation deriving candidate keys, functional dependencies,
//!    duplicate-freeness and constant columns for every plan node from
//!    declared key constraints ([`KeyEnv`]), with `E0401`–`E0403`
//!    diagnostics guarding the constraints themselves.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod differential;
pub mod plan;
pub mod program;
pub mod props;
pub mod rewrite;
pub mod views;

pub use diag::{first_error, has_errors, render, Code, Diagnostic, Severity, Span};
pub use differential::{verify_rewrite, verify_rewrite_with};
pub use plan::{analyze_plan, Card, CardEnv, PlanAnalysis};
pub use program::{analyze_program, ProgramStmt};
pub use props::{infer_props, KeyEnv, Props};
pub use rewrite::{
    discharge, discharge_with, duplicate_free, duplicate_free_with, provably_empty, Condition,
    Precondition,
};
pub use views::{analyze_view_def, structural_card, ViewAnalysis};
