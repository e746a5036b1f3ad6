//! The rewrite driver: applies rules bottom-up to a fixpoint.
//!
//! Soundness is enforced in two layers on **every** rule application:
//!
//! 1. the rule's declared [`Precondition`] is
//!    discharged statically ([`mera_analyze::discharge`]) — schema
//!    preservation plus whatever obligations the rule owes;
//! 2. under [`VerifyMode::Differential`] (the default in debug builds)
//!    the original and the replacement are additionally evaluated on a
//!    few tiny randomized instances and must agree
//!    ([`mera_analyze::verify_rewrite`]).
//!
//! An application failing either layer is *refused*: the plan keeps its
//! old shape and the `E0201` diagnostic is recorded in
//! [`Optimized::refusals`], so a miswritten rule degrades performance,
//! never correctness.

use std::sync::{Arc, OnceLock};

use mera_analyze::Diagnostic;
use mera_core::prelude::*;
use mera_expr::{RelExpr, SchemaProvider};

use crate::rules::{
    ConstantFold, DistinctPruning, FuseSelections, Precondition, ProjectBeforeGroupBy,
    PushDistinctIntoJoin, PushProjectionIntoJoin, PushProjectionThroughUnion,
    PushSelectionIntoJoin, PushSelectionThroughBinary, Rule, RuleContext, SelectProductToJoin,
    SimplifyKeyedGroupBy,
};
use crate::stats::CatalogStats;

/// Hard cap on full rewrite passes; a correct rule set reaches its fixpoint
/// long before this, and the cap turns a non-terminating rule combination
/// into a visible error instead of a hang.
const MAX_PASSES: usize = 32;

/// How applied rewrites are cross-checked dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Static precondition discharge only.
    Off,
    /// Precondition discharge plus differential evaluation of every
    /// application on `trials` tiny randomized instances.
    Differential {
        /// Randomized instances per application.
        trials: u32,
    },
}

impl VerifyMode {
    /// The process-wide default: differential with 2 trials in debug
    /// builds, off in release. `MERA_VERIFY_REWRITES` overrides — `0`,
    /// `off` or `false` disables, any number sets the trial count.
    pub fn from_env() -> VerifyMode {
        static MODE: OnceLock<VerifyMode> = OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("MERA_VERIFY_REWRITES") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "0" | "off" | "false" => VerifyMode::Off,
                s => VerifyMode::Differential {
                    trials: s.parse().unwrap_or(2).max(1),
                },
            },
            Err(_) => {
                if cfg!(debug_assertions) {
                    VerifyMode::Differential { trials: 2 }
                } else {
                    VerifyMode::Off
                }
            }
        })
    }
}

/// The outcome of an optimization run.
#[derive(Debug)]
pub struct Optimized {
    /// The rewritten expression.
    pub expr: RelExpr,
    /// `(rule name, application count)`, in rule order, zero-count rules
    /// omitted.
    pub applications: Vec<(String, usize)>,
    /// Number of bottom-up passes until the fixpoint.
    pub passes: usize,
    /// `E0201` diagnostics for applications the driver refused because a
    /// precondition could not be discharged or differential verification
    /// found a counterexample (deduplicated).
    pub refusals: Vec<Diagnostic>,
}

/// A rule-based optimizer over the multi-set algebra, optionally
/// cost-based when statistics are attached ([`Optimizer::with_stats`]).
pub struct Optimizer {
    rules: Vec<Box<dyn Rule>>,
    verify: VerifyMode,
    stats: Option<Arc<CatalogStats>>,
    keys: mera_analyze::KeyEnv,
}

impl Optimizer {
    /// The standard rule set, in application order:
    /// fold constants → fuse selections → push selections → recognise
    /// joins → push projections → prune distincts → prune group-by inputs.
    pub fn standard() -> Self {
        Optimizer {
            rules: vec![
                Box::new(ConstantFold),
                Box::new(FuseSelections),
                Box::new(PushSelectionThroughBinary),
                Box::new(PushSelectionIntoJoin),
                Box::new(SelectProductToJoin),
                Box::new(PushProjectionThroughUnion),
                Box::new(DistinctPruning),
                Box::new(SimplifyKeyedGroupBy),
                Box::new(ProjectBeforeGroupBy),
                Box::new(PushProjectionIntoJoin),
                Box::new(PushDistinctIntoJoin),
            ],
            verify: VerifyMode::from_env(),
            stats: None,
            keys: mera_analyze::KeyEnv::new(),
        }
    }

    /// An optimizer with an explicit rule list (used by the ablation
    /// benchmarks).
    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> Self {
        Optimizer {
            rules,
            verify: VerifyMode::from_env(),
            stats: None,
            keys: mera_analyze::KeyEnv::new(),
        }
    }

    /// Overrides the dynamic verification mode (tests; benchmarks that
    /// want rewrite cost without verification cost).
    pub fn with_verify_mode(mut self, verify: VerifyMode) -> Self {
        self.verify = verify;
        self
    }

    /// Attaches table statistics, turning the optimizer cost-based:
    /// cost-gated rules (δ placement) see the statistics through their
    /// context, and every optimization run finishes with cost-based join
    /// reordering — admitted through the same precondition-discharge and
    /// differential-verification gate as every rule application.
    /// Accepts owned statistics or an [`Arc`] shared with the version
    /// that computed them (the transaction manager re-plans every
    /// statement against one version's statistics).
    pub fn with_stats(mut self, stats: impl Into<Arc<CatalogStats>>) -> Self {
        self.stats = Some(stats.into());
        self
    }

    /// The attached statistics, if any.
    pub fn stats(&self) -> Option<&CatalogStats> {
        self.stats.as_deref()
    }

    /// Attaches declared key constraints. Property-licensed rules
    /// (δ-elimination, keyed-γ simplification) may then discharge their
    /// duplicate-freeness obligations from inferred plan properties
    /// ([`mera_analyze::infer_props`]) instead of syntactic shape alone,
    /// and the admission gate uses the same key-aware discharge.
    pub fn with_keys(mut self, keys: mera_analyze::KeyEnv) -> Self {
        self.keys = keys;
        self
    }

    /// The attached key constraints (empty unless [`Optimizer::with_keys`]
    /// was called).
    pub fn keys(&self) -> &mera_analyze::KeyEnv {
        &self.keys
    }

    /// The standard rule set minus the named rules — ablation helper.
    pub fn standard_without(excluded: &[&str]) -> Self {
        let all = Self::standard();
        Optimizer {
            rules: all
                .rules
                .into_iter()
                .filter(|r| !excluded.contains(&r.name()))
                .collect(),
            verify: VerifyMode::from_env(),
            stats: None,
            keys: mera_analyze::KeyEnv::new(),
        }
    }

    /// Names of the active rules, in order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Rewrites `expr` to a fixpoint of the rule set. The input is
    /// validated first; every intermediate tree stays well-typed (each rule
    /// preserves typing), which the optimizer re-checks at the end as a
    /// safety net.
    pub fn optimize<P: SchemaProvider>(
        &self,
        expr: &RelExpr,
        provider: &P,
    ) -> CoreResult<Optimized> {
        expr.schema(provider)?; // reject ill-typed inputs up front
        let mut ctx = match &self.stats {
            Some(stats) => RuleContext::with_stats(provider, stats),
            None => RuleContext::new(provider),
        };
        if !self.keys.is_empty() {
            ctx = ctx.with_keys(&self.keys);
        }
        let mut current = expr.clone();
        let mut counts = vec![0usize; self.rules.len()];
        let mut refusals = Vec::new();
        let mut passes = 0;
        for _ in 0..MAX_PASSES {
            passes += 1;
            let (next, changed) = self.rewrite_pass(&current, &ctx, &mut counts, &mut refusals)?;
            current = next;
            if !changed {
                break;
            }
        }
        let mut applications: Vec<(String, usize)> = self
            .rules
            .iter()
            .zip(&counts)
            .filter(|(_, &c)| c > 0)
            .map(|(r, &c)| (r.name().to_owned(), c))
            .collect();
        // cost-based join reordering runs once, after the rule fixpoint has
        // normalised the tree (selections pushed, joins recognised) — and
        // through the same admission gate as any rule application
        if let Some(stats) = &self.stats {
            let reordered = crate::join_order::reorder_joins(&current, stats, provider)?;
            if reordered != current {
                let reorder_rule = CostBasedJoinOrder;
                match self.admit(&reorder_rule, &current, &reordered, &ctx) {
                    Ok(()) => {
                        current = reordered;
                        applications.push((reorder_rule.name().to_owned(), 1));
                    }
                    Err(d) => {
                        if !refusals.contains(&d) {
                            refusals.push(d);
                        }
                    }
                }
            }
        }
        current.schema(provider)?; // safety net: output must still type
        Ok(Optimized {
            expr: current,
            applications,
            passes,
            refusals,
        })
    }

    /// One bottom-up pass: children first, then this node, repeating rules
    /// at a node until none applies (a node rewrite can enable another).
    fn rewrite_pass(
        &self,
        expr: &RelExpr,
        ctx: &RuleContext<'_>,
        counts: &mut [usize],
        refusals: &mut Vec<Diagnostic>,
    ) -> CoreResult<(RelExpr, bool)> {
        let mut changed = false;
        // rewrite children
        let mut node = if expr.children().is_empty() {
            expr.clone()
        } else {
            let mut new_children = Vec::with_capacity(expr.children().len());
            for child in expr.children() {
                let (c, ch) = self.rewrite_pass(child, ctx, counts, refusals)?;
                changed |= ch;
                new_children.push(c);
            }
            if changed {
                expr.with_children(new_children)
            } else {
                expr.clone()
            }
        };
        // then apply rules at this node to a local fixpoint
        let mut local_budget = 16;
        'outer: while local_budget > 0 {
            local_budget -= 1;
            for (i, rule) in self.rules.iter().enumerate() {
                if let Some(next) = rule.apply(&node, ctx)? {
                    debug_assert_ne!(
                        next,
                        node,
                        "rule {} returned an identical tree",
                        rule.name()
                    );
                    if let Err(d) = self.admit(rule.as_ref(), &node, &next, ctx) {
                        // a refused application keeps the old plan shape;
                        // the same refusal recurs on later passes, so dedup
                        if !refusals.contains(&d) {
                            refusals.push(d);
                        }
                        continue; // try the remaining rules at this node
                    }
                    node = next;
                    counts[i] += 1;
                    changed = true;
                    continue 'outer;
                }
            }
            break;
        }
        Ok((node, changed))
    }

    /// The two-layer soundness gate for one application.
    fn admit(
        &self,
        rule: &dyn Rule,
        before: &RelExpr,
        after: &RelExpr,
        ctx: &RuleContext<'_>,
    ) -> Result<(), Diagnostic> {
        let provider = ctx.as_provider();
        mera_analyze::discharge_with(
            rule.name(),
            &rule.precondition(),
            before,
            after,
            &provider,
            &self.keys,
        )?;
        if let VerifyMode::Differential { trials } = self.verify {
            // key-licensed rewrites are claimed sound only on databases
            // satisfying the declared keys, so the generated instances must
            // satisfy them too
            mera_analyze::verify_rewrite_with(
                rule.name(),
                before,
                after,
                &provider,
                trials,
                verify_seed(rule.name(), before),
                &self.keys,
            )?;
        }
        Ok(())
    }
}

/// Marker rule carrying the soundness argument for cost-based join
/// reordering, so the reorder passes through the same [`Optimizer::admit`]
/// gate (precondition discharge → `E0201` refusal; differential
/// verification under `MERA_VERIFY_REWRITES`) as every local rule. The
/// rewrite itself lives in [`crate::join_order::reorder_joins`]; `apply`
/// is never called.
struct CostBasedJoinOrder;

impl Rule for CostBasedJoinOrder {
    fn name(&self) -> &'static str {
        "cost-based-join-order"
    }

    fn precondition(&self) -> Precondition {
        Precondition::schema_preserving(
            "⋈ and × are commutative and associative in the multi-set algebra \
             (Theorems 3.2 and 3.3), so any permutation of a join chain is \
             sound; the wrapping projection restoring the original attribute \
             order is a bijective tuple map, preserving multiplicities",
        )
    }

    fn apply(&self, _expr: &RelExpr, _ctx: &RuleContext<'_>) -> CoreResult<Option<RelExpr>> {
        Ok(None) // the driver invokes reorder_joins directly
    }
}

/// A deterministic per-application seed (FNV-1a of the rule name and the
/// rewritten node's size), so failures reproduce exactly.
fn verify_seed(rule_name: &str, before: &RelExpr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rule_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    (h ^ before.node_count() as u64).wrapping_mul(0x100_0000_01b3)
}

impl Default for Optimizer {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_expr::{Aggregate, ScalarExpr};

    fn catalog() -> DatabaseSchema {
        DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ]),
            )
            .expect("fresh")
            .with(
                "brewery",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("city", DataType::Str),
                    ("country", DataType::Str),
                ]),
            )
            .expect("fresh")
    }

    #[test]
    fn example_3_1_plan_normalises() {
        // the textbook form: π(σ(beer × brewery)) — the optimizer should
        // recognise the join and split the single-side conjunct
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .product(RelExpr::scan("brewery"))
            .select(
                ScalarExpr::attr(2)
                    .eq(ScalarExpr::attr(4))
                    .and(ScalarExpr::attr(6).eq(ScalarExpr::str("NL"))),
            )
            .project(&[1]);
        let opt = Optimizer::standard();
        let out = opt.optimize(&e, &cat).expect("optimizes");
        // expected shape: the join recognised, the single-side conjunct
        // pushed into the brewery side, and both join inputs narrowed to
        // the attributes the projection and predicate need
        let want = RelExpr::scan("beer")
            .project(&[1, 2])
            .join(
                RelExpr::scan("brewery")
                    .select(ScalarExpr::attr(3).eq(ScalarExpr::str("NL")))
                    .project(&[1]),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(3)),
            )
            .project(&[1]);
        assert_eq!(out.expr, want, "got {}", out.expr);
        assert!(out.passes <= 5);
        assert!(!out.applications.is_empty());
    }

    #[test]
    fn example_3_2_projection_inserted_automatically() {
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .join(
                RelExpr::scan("brewery"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            )
            .group_by(&[6], Aggregate::Avg, 3);
        let opt = Optimizer::standard();
        let out = opt.optimize(&e, &cat).expect("optimizes");
        assert!(
            out.applications
                .iter()
                .any(|(n, _)| n == "project-before-group-by"),
            "applications: {:?}",
            out.applications
        );
        // resulting group-by must read a 2-wide input
        if let RelExpr::GroupBy { input, .. } = &out.expr {
            assert_eq!(input.schema(&cat).expect("types").arity(), 2);
        } else {
            panic!("expected group-by at root, got {}", out.expr);
        }
    }

    #[test]
    fn fixpoint_reached_and_idempotent() {
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::bool(true))
            .select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.0)))
            .distinct()
            .distinct();
        let opt = Optimizer::standard();
        let once = opt.optimize(&e, &cat).expect("optimizes");
        let twice = opt.optimize(&once.expr, &cat).expect("optimizes");
        assert_eq!(once.expr, twice.expr);
        assert!(twice.applications.is_empty());
    }

    #[test]
    fn ablation_excludes_rules() {
        let opt = Optimizer::standard_without(&["project-before-group-by"]);
        assert!(!opt.rule_names().contains(&"project-before-group-by"));
        let cat = catalog();
        let e = RelExpr::scan("beer").group_by(&[2], Aggregate::Avg, 3);
        let out = opt.optimize(&e, &cat).expect("optimizes");
        assert_eq!(out.expr, e); // nothing else applies
    }

    #[test]
    fn optimizer_rejects_ill_typed_input() {
        let cat = catalog();
        let bad = RelExpr::scan("beer").union(RelExpr::scan("brewery"));
        assert!(Optimizer::standard().optimize(&bad, &cat).is_err());
    }

    #[test]
    fn standard_rules_never_refused() {
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .product(RelExpr::scan("brewery"))
            .select(
                ScalarExpr::attr(2)
                    .eq(ScalarExpr::attr(4))
                    .and(ScalarExpr::attr(6).eq(ScalarExpr::str("NL"))),
            )
            .project(&[1])
            .distinct()
            .distinct();
        let out = Optimizer::standard()
            .with_verify_mode(VerifyMode::Differential { trials: 3 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out.refusals.is_empty(), "refusals: {:?}", out.refusals);
        assert!(!out.applications.is_empty());
    }

    fn chain_catalog() -> DatabaseSchema {
        DatabaseSchema::new()
            .with("a", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh")
            .with("b", Schema::anon(&[DataType::Int]))
            .expect("fresh")
            .with("c", Schema::anon(&[DataType::Int]))
            .expect("fresh")
    }

    #[test]
    fn with_stats_reorders_join_chains_through_admission() {
        let cat = chain_catalog();
        let mut cs = crate::stats::CatalogStats::new();
        cs.insert(
            "a",
            crate::stats::TableStats::synthetic(10_000, 10_000, &[1000, 1000]),
        );
        cs.insert("b", crate::stats::TableStats::synthetic(10, 10, &[10]));
        cs.insert("c", crate::stats::TableStats::synthetic(100, 100, &[100]));
        // written in a poor order: the big×medium cross product first,
        // with the selective join to tiny `b` left for last
        let e = RelExpr::scan("a").product(RelExpr::scan("c")).join(
            RelExpr::scan("b"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(4)),
        );
        let out = Optimizer::standard()
            .with_stats(cs)
            .with_verify_mode(VerifyMode::Differential { trials: 3 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out.refusals.is_empty(), "refusals: {:?}", out.refusals);
        assert!(
            out.applications
                .iter()
                .any(|(n, _)| n == "cost-based-join-order"),
            "applications: {:?}",
            out.applications
        );
        // the reordered plan must still produce the original schema
        let s_in = e.schema(&cat).expect("types");
        let s_out = out.expr.schema(&cat).expect("types");
        assert!(s_in.same_types(&s_out));
    }

    #[test]
    fn stats_free_optimizer_never_reorders() {
        let cat = chain_catalog();
        let e = RelExpr::scan("a")
            .join(
                RelExpr::scan("b"),
                ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
            )
            .join(
                RelExpr::scan("c"),
                ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
            );
        let out = Optimizer::standard().optimize(&e, &cat).expect("optimizes");
        assert!(out
            .applications
            .iter()
            .all(|(n, _)| n != "cost-based-join-order"));
    }

    #[test]
    fn distinct_push_gated_on_estimated_duplication() {
        let cat = chain_catalog();
        let e = RelExpr::scan("a")
            .join(
                RelExpr::scan("b"),
                ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
            )
            .distinct();

        // heavy duplication: 10 copies per distinct row on `a` → push fires
        let mut dup = crate::stats::CatalogStats::new();
        dup.insert(
            "a",
            crate::stats::TableStats::synthetic(1000, 100, &[100, 100]),
        );
        dup.insert("b", crate::stats::TableStats::synthetic(10, 10, &[10]));
        let out = Optimizer::standard()
            .with_stats(dup)
            .with_verify_mode(VerifyMode::Differential { trials: 3 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out.refusals.is_empty(), "refusals: {:?}", out.refusals);
        assert!(
            out.applications
                .iter()
                .any(|(n, _)| n == "push-distinct-into-join"),
            "applications: {:?}",
            out.applications
        );

        // duplicate-free inputs: the push would only add work → declined
        let mut flat = crate::stats::CatalogStats::new();
        flat.insert(
            "a",
            crate::stats::TableStats::synthetic(1000, 1000, &[100, 100]),
        );
        flat.insert("b", crate::stats::TableStats::synthetic(10, 10, &[10]));
        let out = Optimizer::standard()
            .with_stats(flat)
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out
            .applications
            .iter()
            .all(|(n, _)| n != "push-distinct-into-join"));
    }

    /// The canonical misrewrite of Theorem 3.3: `δ(E₁ ⊎ E₂) → δE₁ ⊎ δE₂`.
    /// Honestly declares the disjointness obligation it cannot discharge.
    struct UnsoundDeltaOverUnion;

    impl Rule for UnsoundDeltaOverUnion {
        fn name(&self) -> &'static str {
            "unsound-delta-over-union"
        }

        fn precondition(&self) -> crate::rules::Precondition {
            crate::rules::Precondition::schema_preserving(
                "δ distributes over ⊎ only for disjoint operands (Theorem 3.3)",
            )
            .with(crate::rules::Condition::DisjointUnionOperands)
        }

        fn apply(&self, expr: &RelExpr, _ctx: &RuleContext<'_>) -> CoreResult<Option<RelExpr>> {
            let RelExpr::Distinct(input) = expr else {
                return Ok(None);
            };
            let RelExpr::Union(l, r) = input.as_ref() else {
                return Ok(None);
            };
            Ok(Some(
                l.as_ref()
                    .clone()
                    .distinct()
                    .union(r.as_ref().clone().distinct()),
            ))
        }
    }

    /// The same misrewrite, but *lying* about its obligations (baseline
    /// schema preservation only) — static discharge passes, so only the
    /// differential layer can catch it.
    struct LyingDeltaOverUnion;

    impl Rule for LyingDeltaOverUnion {
        fn name(&self) -> &'static str {
            "lying-delta-over-union"
        }

        fn apply(&self, expr: &RelExpr, ctx: &RuleContext<'_>) -> CoreResult<Option<RelExpr>> {
            UnsoundDeltaOverUnion.apply(expr, ctx)
        }
    }

    #[test]
    fn unsound_rule_refused_by_precondition_discharge() {
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .union(RelExpr::scan("beer"))
            .distinct();
        let out = Optimizer::with_rules(vec![Box::new(UnsoundDeltaOverUnion)])
            .with_verify_mode(VerifyMode::Off)
            .optimize(&e, &cat)
            .expect("optimizes (by refusing)");
        assert_eq!(out.expr, e, "the unsound rewrite must not be applied");
        assert!(out.applications.is_empty());
        assert_eq!(out.refusals.len(), 1);
        let d = &out.refusals[0];
        assert_eq!(d.code, mera_analyze::Code::UnsoundRewrite);
        assert_eq!(d.code.as_str(), "E0201");
        assert!(
            d.message.contains("unsound-delta-over-union"),
            "{}",
            d.message
        );
    }

    #[test]
    fn unsound_rule_with_dishonest_precondition_caught_differentially() {
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .union(RelExpr::scan("beer"))
            .distinct();
        let out = Optimizer::with_rules(vec![Box::new(LyingDeltaOverUnion)])
            .with_verify_mode(VerifyMode::Differential { trials: 8 })
            .optimize(&e, &cat)
            .expect("optimizes (by refusing)");
        assert_eq!(out.expr, e);
        assert_eq!(out.refusals.len(), 1);
        assert_eq!(out.refusals[0].code, mera_analyze::Code::UnsoundRewrite);
        assert!(
            out.refusals[0].message.contains("differential"),
            "{}",
            out.refusals[0].message
        );
        // ...and with verification off, the lying rule slips through —
        // exactly the gap the debug-mode verifier closes
        let out = Optimizer::with_rules(vec![Box::new(LyingDeltaOverUnion)])
            .with_verify_mode(VerifyMode::Off)
            .optimize(&e, &cat)
            .expect("optimizes");
        assert_ne!(out.expr, e);
        assert!(out.refusals.is_empty());
    }

    #[test]
    fn disjoint_operands_discharge_the_unsound_rule() {
        // δ(beer ⊎ σ_false(beer)): the right operand is provably empty, so
        // the operands are disjoint and the distribution is actually sound
        let cat = catalog();
        let e = RelExpr::scan("beer")
            .union(RelExpr::scan("beer").select(ScalarExpr::bool(false)))
            .distinct();
        let out = Optimizer::with_rules(vec![Box::new(UnsoundDeltaOverUnion)])
            .with_verify_mode(VerifyMode::Differential { trials: 4 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out.refusals.is_empty(), "refusals: {:?}", out.refusals);
        assert_eq!(
            out.applications,
            vec![("unsound-delta-over-union".to_owned(), 1)]
        );
    }

    #[test]
    fn with_keys_licenses_delta_elimination_end_to_end() {
        // δ(σ_p(beer)) with beer keyed on name: the full pipeline —
        // property inference, key-aware precondition discharge, AND
        // key-respecting differential verification — must agree to drop δ
        let cat = catalog();
        let mut keys = mera_analyze::KeyEnv::new();
        keys.declare("beer", vec![1]);
        let inner = RelExpr::scan("beer").select(ScalarExpr::attr(3).eq(ScalarExpr::attr(3)));
        let e = inner.clone().distinct();
        let out = Optimizer::standard()
            .with_keys(keys)
            .with_verify_mode(VerifyMode::Differential { trials: 8 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out.refusals.is_empty(), "refusals: {:?}", out.refusals);
        assert_eq!(out.expr, inner, "got {}", out.expr);
        // the same plan without keys keeps its δ (and records no refusal:
        // the rule declines rather than misapplies)
        let out = Optimizer::standard()
            .with_verify_mode(VerifyMode::Differential { trials: 8 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert_eq!(out.expr, e);
    }

    #[test]
    fn with_keys_simplifies_keyed_group_by_end_to_end() {
        // γ_{name; cnt}(beer) with beer keyed on name → π̂_{name, 1}(beer)
        let cat = catalog();
        let mut keys = mera_analyze::KeyEnv::new();
        keys.declare("beer", vec![1]);
        let e = RelExpr::scan("beer").group_by(&[1], Aggregate::Cnt, 2);
        let out = Optimizer::standard()
            .with_keys(keys)
            .with_verify_mode(VerifyMode::Differential { trials: 8 })
            .optimize(&e, &cat)
            .expect("optimizes");
        assert!(out.refusals.is_empty(), "refusals: {:?}", out.refusals);
        let want = RelExpr::scan("beer").ext_project(vec![ScalarExpr::attr(1), ScalarExpr::int(1)]);
        assert_eq!(out.expr, want, "got {}", out.expr);
        assert!(out
            .applications
            .iter()
            .any(|(n, _)| n == "simplify-keyed-group-by"));
    }
}
