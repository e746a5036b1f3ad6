//! # mera-eval — evaluators for the multi-set extended relational algebra
//!
//! Two evaluators, one entry point:
//!
//! * [`mod@reference`] — the executable form of Definitions 3.1–3.4, computed
//!   directly from the multiplicity laws on counted bags. Slow, obvious,
//!   and the oracle everything else is checked against.
//! * the batched physical engine: [`morsel`] compiles every plan — at any
//!   worker count — into pipelines split at the breakers; workers steal
//!   row-chunk morsels and run entire operator chains over them as
//!   columnar batches of `(tuple, multiplicity)` pairs, joins share one
//!   radix-partitioned build table and aggregation runs in two phases —
//!   the hash-partitioned decomposition PRISMA/DB used (section 5). The
//!   per-batch kernels and the batch type live in [`physical`].
//!
//! [`index`] holds the hash indexes the physical engine takes as access
//! paths (point lookups, hinted index-nested-loop joins). The
//! [`engine::Engine`] entry point unifies the two evaluators: pick an
//! [`engine::EngineKind`], tune [`engine::ExecOptions`] (batch size,
//! workers), optionally attach an [`IndexSet`], and call
//! [`engine::Engine::run`] — or [`engine::Engine::run_instrumented`] for
//! per-node row counters ([`ExecStats`]). Equivalence of all paths on
//! arbitrary inputs is enforced by property tests
//! (`tests/engine_equivalence.rs`).

#![warn(missing_docs)]

pub mod engine;
pub mod index;
pub mod keys;
pub mod morsel;
pub mod physical;
mod pool;
pub mod provider;
pub mod reference;

pub use engine::{Engine, EngineKind, ExecOptions, DEFAULT_BATCH_SIZE};
pub use index::{HashIndex, IndexJoinHints, IndexSet};
pub use keys::{KeySet, KeyViolation};
pub use physical::stats::ExecStats;
pub use provider::{NoRelations, RelationProvider, Schemas};
pub use reference::eval;
