//! # mera-eval — evaluators for the multi-set extended relational algebra
//!
//! Two evaluators, one entry point:
//!
//! * [`mod@reference`] — the executable form of Definitions 3.1–3.4, computed
//!   directly from the multiplicity laws on counted bags. Slow, obvious,
//!   and the oracle everything else is checked against.
//! * the batched physical engine, whose worker count picks the schedule:
//!   at one worker [`physical`] streams batches of `(tuple, multiplicity)`
//!   pairs through a Volcano-style plan (hash joins, hash aggregation,
//!   index access paths, instrumented plans); at more, [`morsel`] splits
//!   the plan at pipeline breakers, workers steal row-chunk morsels and
//!   run entire operator chains over them, joins share one
//!   radix-partitioned build table and aggregation runs in two phases —
//!   the hash-partitioned decomposition PRISMA/DB used (section 5).
//!
//! [`index`] holds the hash indexes both schedules use as access paths.
//! The [`engine::Engine`] entry point unifies them: pick an
//! [`engine::EngineKind`], tune [`engine::ExecOptions`] (batch size,
//! workers), optionally attach an [`IndexSet`], and call
//! [`engine::Engine::run`]. Equivalence of all paths on arbitrary inputs
//! is enforced by property tests (`tests/engine_equivalence.rs`).

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
pub use physical::{collect, execute, execute_with};
pub use provider::{NoRelations, RelationProvider, Schemas};
pub use reference::eval;
