//! Rewrite rules.
//!
//! Every rule is a semantics-preserving transformation justified by an
//! equivalence that holds in the *multi-set* algebra — most directly from
//! the paper's §3.3 (Theorems 3.1–3.3), the rest standard bag-algebra
//! identities proven by the same pointwise multiplicity reasoning and
//! checked here by property tests against the reference evaluator.
//!
//! A rule is a local pattern: it looks at one node (with its children) and
//! either produces a replacement or declines. The [`driver`](crate::driver)
//! applies rules bottom-up to a fixpoint.

mod distinct_join;
mod folding;
mod fuse;
mod keyed_group;
mod project;
mod project_join;
mod pushdown;

pub use distinct_join::PushDistinctIntoJoin;
pub use folding::ConstantFold;
pub use fuse::{DistinctPruning, FuseSelections, SelectProductToJoin};
pub use keyed_group::SimplifyKeyedGroupBy;
pub use project::ProjectBeforeGroupBy;
pub use project_join::PushProjectionIntoJoin;
pub use pushdown::{PushProjectionThroughUnion, PushSelectionIntoJoin, PushSelectionThroughBinary};

use mera_analyze::KeyEnv;
use mera_core::prelude::*;
use mera_expr::{RelExpr, SchemaProvider};

use crate::stats::CatalogStats;

pub use mera_analyze::{Condition, Precondition};

/// Context handed to rules: schema access for arity-sensitive rewrites,
/// plus (optionally) the table statistics for cost-gated rules and
/// the declared key constraints for property-licensed rules.
pub struct RuleContext<'a> {
    provider: &'a dyn DynSchemaProvider,
    stats: Option<&'a CatalogStats>,
    keys: Option<&'a KeyEnv>,
}

/// Object-safe schema lookup (rules are dyn, so the provider must be too).
pub(crate) trait DynSchemaProvider {
    fn schema_of(&self, name: &str) -> CoreResult<SchemaRef>;
}

impl<P: SchemaProvider> DynSchemaProvider for P {
    fn schema_of(&self, name: &str) -> CoreResult<SchemaRef> {
        self.relation_schema(name)
    }
}

impl<'a> RuleContext<'a> {
    /// Builds a context over any schema provider (no statistics:
    /// cost-gated rules decline).
    pub fn new<P: SchemaProvider>(provider: &'a P) -> Self {
        RuleContext {
            provider,
            stats: None,
            keys: None,
        }
    }

    /// Builds a context with table statistics, enabling cost-gated
    /// rules.
    pub fn with_stats<P: SchemaProvider>(provider: &'a P, stats: &'a CatalogStats) -> Self {
        RuleContext {
            provider,
            stats: Some(stats),
            keys: None,
        }
    }

    /// Attaches declared key constraints, enabling property-licensed
    /// rules (δ-elimination over provably-duplicate-free inputs, keyed-γ
    /// simplification) and the key-aware precondition discharge.
    pub fn with_keys(mut self, keys: &'a KeyEnv) -> Self {
        self.keys = Some(keys);
        self
    }

    /// The table statistics, when the caller supplied them.
    pub fn stats(&self) -> Option<&CatalogStats> {
        self.stats
    }

    /// The declared key constraints, when the caller supplied them.
    pub fn keys(&self) -> Option<&KeyEnv> {
        self.keys
    }

    /// The schema of a subexpression.
    pub fn schema(&self, expr: &RelExpr) -> CoreResult<SchemaRef> {
        expr.schema(&ProviderShim(self.provider))
    }

    /// The arity of a subexpression.
    pub fn arity(&self, expr: &RelExpr) -> CoreResult<usize> {
        Ok(self.schema(expr)?.arity())
    }

    /// The context's schema access as a [`SchemaProvider`] — what the
    /// driver hands to precondition discharge and differential
    /// verification.
    pub(crate) fn as_provider(&self) -> ProviderShim<'_> {
        ProviderShim(self.provider)
    }
}

pub(crate) struct ProviderShim<'a>(pub(crate) &'a dyn DynSchemaProvider);

impl SchemaProvider for ProviderShim<'_> {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        self.0.schema_of(name)
    }
}

/// A local rewrite rule.
pub trait Rule {
    /// Rule name for reports and ablation selection.
    fn name(&self) -> &'static str;

    /// Attempts to rewrite `expr` (looking only at this node and its
    /// children). Returns `Ok(None)` when the rule does not apply.
    fn apply(&self, expr: &RelExpr, ctx: &RuleContext<'_>) -> CoreResult<Option<RelExpr>>;

    /// The rule's declared soundness argument, as data. The driver
    /// discharges it on **every** application ([`mera_analyze::discharge`])
    /// and refuses applications whose obligations fail, so a rule cannot
    /// silently apply outside its justification. The default is the
    /// baseline every rule owes: schema preservation.
    fn precondition(&self) -> Precondition {
        Precondition::schema_preserving(
            "local rewrite justified by a pointwise multiplicity argument",
        )
    }
}
