//! Cost-gated δ placement: `δ(E₁ ⋈ E₂) → δE₁ ⋈ δE₂`.
//!
//! The law is unconditional in the bag algebra: the support of `E₁ ⋈ E₂`
//! is the set of concatenated pairs satisfying the predicate, so taking δ
//! of the join gives each such pair multiplicity 1 — exactly what joining
//! the two δ-reduced operands produces (1 · 1 = 1 per pair, Definition
//! 3.2). Unlike δ-over-⊎ (Theorem 3.3), no disjointness obligation
//! arises.
//!
//! What is *not* unconditional is the benefit: pushing δ below the join
//! trades one dedup of the (large) join output for two dedups of the
//! inputs plus a smaller join. That wins exactly when the inputs carry
//! real duplication, so the rule is **cost-gated** — it only fires when
//! the version's statistics ([`CatalogStats`](crate::stats::CatalogStats)
//! via [`RuleContext::stats`]) estimate the duplication factor high enough
//! to pay for the extra operators. Without statistics the rule declines:
//! a cost-based rewrite without a cost model is a coin flip.

use mera_core::prelude::*;
use mera_expr::RelExpr;

use crate::cost::{estimate_distinct_rows, estimate_distinct_rows_keyed, estimate_rows};

use super::{Precondition, Rule, RuleContext};

/// Minimum estimated input-duplication factor (duplicated rows per
/// distinct row, multiplied across both sides) for the push to fire.
const MIN_DUPLICATION: f64 = 2.0;

/// `δ(E₁ ⋈ E₂) → δE₁ ⋈ δE₂` (also over `×`), gated on estimated input
/// duplication.
pub struct PushDistinctIntoJoin;

impl Rule for PushDistinctIntoJoin {
    fn name(&self) -> &'static str {
        "push-distinct-into-join"
    }

    fn precondition(&self) -> Precondition {
        Precondition::schema_preserving(
            "δ distributes over ⋈ and × unconditionally: the join of the \
             δ-reduced operands has multiplicity 1·1 = 1 on exactly the \
             support of the original join (Definition 3.2)",
        )
    }

    fn apply(&self, expr: &RelExpr, ctx: &RuleContext<'_>) -> CoreResult<Option<RelExpr>> {
        // cost-gated: no statistics, no opinion
        let Some(stats) = ctx.stats() else {
            return Ok(None);
        };
        let RelExpr::Distinct(input) = expr else {
            return Ok(None);
        };
        let (l, r, predicate) = match input.as_ref() {
            RelExpr::Join {
                left,
                right,
                predicate,
            } => (left, right, Some(predicate.clone())),
            RelExpr::Product(l, r) => (l, r, None),
            _ => return Ok(None),
        };
        // already pushed (both sides duplicate-free by construction)
        if matches!(l.as_ref(), RelExpr::Distinct(_)) && matches!(r.as_ref(), RelExpr::Distinct(_))
        {
            return Ok(None);
        }
        // with key constraints attached, a provably-duplicate-free side has
        // duplication factor exactly 1 — the statistics estimate is overruled
        let dup = |e: &RelExpr| {
            let distinct = match ctx.keys() {
                Some(keys) => estimate_distinct_rows_keyed(e, stats, &ctx.as_provider(), keys),
                None => estimate_distinct_rows(e, stats),
            };
            (estimate_rows(e, stats) / distinct.max(1.0)).max(1.0)
        };
        if dup(l) * dup(r) < MIN_DUPLICATION {
            return Ok(None);
        }
        let dl = l.as_ref().clone().distinct();
        let dr = r.as_ref().clone().distinct();
        Ok(Some(match predicate {
            Some(p) => dl.join(dr, p),
            None => dl.product(dr),
        }))
    }
}
