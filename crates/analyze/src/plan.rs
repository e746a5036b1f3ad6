//! Plan analysis: schema/type inference and the emptiness lattice, in one
//! bottom-up walk that keeps going after the first problem.
//!
//! Two facts are computed per node:
//!
//! * its **schema**, with every attribute reference and arithmetic
//!   expression resolved (pass 1) — `None` when a child already failed, so
//!   one root cause does not cascade into spurious follow-on errors;
//! * its **cardinality abstraction** in the three-point lattice
//!   [`Card`] = {`Empty`, `NonEmpty`, `Unknown`} (pass 2), which feeds the
//!   partiality lint: Definition 3.4 makes `AVG`/`MIN`/`MAX` *partial* —
//!   undefined on the empty multi-set — so a whole-relation `γ` over a
//!   possibly-empty input is a [`Code::PartialAggregateMayBeUndefined`]
//!   warning and over a provably-empty input a
//!   [`Code::PartialAggregateOnEmpty`] error.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::{arith_result_type, ext_project_schema, RelExpr, ScalarExpr, SchemaProvider};

use crate::diag::{Code, Diagnostic, Span};

/// The emptiness abstraction of a multi-set: a three-point lattice with
/// `Unknown` on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Card {
    /// Provably the empty multi-set.
    Empty,
    /// Provably contains at least one tuple.
    NonEmpty,
    /// Nothing is known statically.
    #[default]
    Unknown,
}

impl Card {
    /// The abstraction of a concrete relation.
    pub fn of_relation(rel: &Relation) -> Card {
        if rel.is_empty() {
            Card::Empty
        } else {
            Card::NonEmpty
        }
    }

    /// Least upper bound: agreeing values survive, disagreement is
    /// `Unknown`. This is the merge used when a relation may hold either
    /// of two abstract values (e.g. across alternative program paths).
    pub fn join(self, other: Card) -> Card {
        if self == other {
            self
        } else {
            Card::Unknown
        }
    }
}

/// Cardinality facts about named relations, supplied by the embedder
/// (e.g. from the live database state, or the program analyzer's abstract
/// store). Missing names are `Unknown`.
pub type CardEnv = std::collections::HashMap<String, Card>;

/// The result of analyzing one plan.
#[derive(Debug, Clone)]
pub struct PlanAnalysis {
    /// The inferred output schema, when the plan is well-formed enough to
    /// have one.
    pub schema: Option<SchemaRef>,
    /// The emptiness abstraction of the output.
    pub card: Card,
    /// Everything found, in walk order (children before parents).
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanAnalysis {
    /// True when no error-severity diagnostic was produced.
    pub fn is_accepted(&self) -> bool {
        !crate::diag::has_errors(&self.diagnostics)
    }
}

/// Analyzes a bare relational expression against a catalog, with
/// cardinality facts for the scanned relations.
pub fn analyze_plan<P: SchemaProvider>(
    expr: &RelExpr,
    provider: &P,
    cards: &CardEnv,
) -> PlanAnalysis {
    let mut diagnostics = Vec::new();
    let (schema, card) = walk(
        expr,
        provider,
        cards,
        &Span::root(expr.op_name()),
        &mut diagnostics,
    );
    PlanAnalysis {
        schema,
        card,
        diagnostics,
    }
}

/// Like [`analyze_plan`] but placing spans inside statement `stmt` (used
/// by the program analyzer).
pub(crate) fn analyze_plan_in_stmt<P: SchemaProvider>(
    expr: &RelExpr,
    provider: &P,
    cards: &CardEnv,
    stmt: usize,
    diagnostics: &mut Vec<Diagnostic>,
) -> (Option<SchemaRef>, Card) {
    walk(
        expr,
        provider,
        cards,
        &Span::root(expr.op_name()).in_stmt(stmt),
        diagnostics,
    )
}

fn walk<P: SchemaProvider>(
    expr: &RelExpr,
    provider: &P,
    cards: &CardEnv,
    span: &Span,
    diags: &mut Vec<Diagnostic>,
) -> (Option<SchemaRef>, Card) {
    // analyze children first (left to right), so diagnostics surface in
    // walk order and parent checks can rely on child schemas
    let children = expr.children();
    let mut kids: Vec<(Option<SchemaRef>, Card)> = Vec::with_capacity(children.len());
    for (i, child) in children.iter().enumerate() {
        let child_span = span.child(i, child.op_name());
        kids.push(walk(child, provider, cards, &child_span, diags));
    }

    match expr {
        RelExpr::Scan(name) => match provider.relation_schema(name) {
            Ok(s) => (
                Some(s),
                cards.get(name.as_str()).copied().unwrap_or(Card::Unknown),
            ),
            Err(_) => {
                diags.push(Diagnostic::new(
                    Code::UnknownRelation,
                    span.clone(),
                    format!("unknown relation `{name}`"),
                ));
                (None, Card::Unknown)
            }
        },
        RelExpr::Values(rel) => (Some(Arc::clone(rel.schema())), Card::of_relation(rel)),
        RelExpr::Union(..) | RelExpr::Difference(..) | RelExpr::Intersect(..) => {
            let (ls, lc) = kids[0].clone();
            let (rs, rc) = kids[1].clone();
            let schema = match (ls, rs) {
                (Some(l), Some(r)) => {
                    if l.same_types(&r) {
                        Some(l)
                    } else {
                        diags.push(
                            Diagnostic::new(
                                Code::IncompatibleOperands,
                                span.clone(),
                                format!("operands of {} have incompatible schemas", expr.op_name()),
                            )
                            .with_note(format!("left operand has schema {l}"))
                            .with_note(format!("right operand has schema {r}")),
                        );
                        None
                    }
                }
                _ => None,
            };
            let card = match expr {
                RelExpr::Union(..) => match (lc, rc) {
                    (Card::Empty, Card::Empty) => Card::Empty,
                    (Card::NonEmpty, _) | (_, Card::NonEmpty) => Card::NonEmpty,
                    _ => Card::Unknown,
                },
                RelExpr::Difference(..) => match (lc, rc) {
                    (Card::Empty, _) => Card::Empty,
                    // subtracting nothing keeps the left abstraction
                    (l, Card::Empty) => l,
                    _ => Card::Unknown,
                },
                // intersection below either operand
                _ => match (lc, rc) {
                    (Card::Empty, _) | (_, Card::Empty) => Card::Empty,
                    _ => Card::Unknown,
                },
            };
            (schema, card)
        }
        RelExpr::Product(..) => {
            let (ls, lc) = kids[0].clone();
            let (rs, rc) = kids[1].clone();
            let schema = match (ls, rs) {
                (Some(l), Some(r)) => Some(Arc::new(l.concat(&r))),
                _ => None,
            };
            (schema, product_card(lc, rc))
        }
        RelExpr::Join { predicate, .. } => {
            let (ls, lc) = kids[0].clone();
            let (rs, rc) = kids[1].clone();
            let schema = match (ls, rs) {
                (Some(l), Some(r)) => {
                    let joined = Arc::new(l.concat(&r));
                    check_predicate(predicate, &joined, span, diags);
                    Some(joined)
                }
                _ => None,
            };
            // a join can filter everything: only emptiness propagates
            let card = match (lc, rc) {
                (Card::Empty, _) | (_, Card::Empty) => Card::Empty,
                _ => Card::Unknown,
            };
            (schema, card)
        }
        RelExpr::Select { predicate, .. } => {
            let (is, ic) = kids[0].clone();
            if let Some(s) = &is {
                check_predicate(predicate, s, span, diags);
            }
            let card = match predicate {
                // constant predicates decide the selection statically
                ScalarExpr::Literal(Value::Bool(true)) => ic,
                ScalarExpr::Literal(Value::Bool(false)) => Card::Empty,
                _ => match ic {
                    Card::Empty => Card::Empty,
                    _ => Card::Unknown,
                },
            };
            (is, card)
        }
        RelExpr::Project { attrs, .. } => {
            let (is, ic) = kids[0].clone();
            let schema = is.and_then(|s| match s.project(attrs) {
                Ok(p) => Some(Arc::new(p)),
                Err(_) => {
                    for &i in attrs.indexes() {
                        if i == 0 || i > s.arity() {
                            diags.push(unresolved_attr(i, &s, span));
                        }
                    }
                    None
                }
            });
            // π preserves the total multiplicity of its input exactly
            (schema, ic)
        }
        RelExpr::ExtProject { exprs, .. } => {
            let (is, ic) = kids[0].clone();
            if exprs.is_empty() {
                diags.push(Diagnostic::new(
                    Code::MalformedOperator,
                    span.clone(),
                    "extended projection needs at least one expression",
                ));
                return (None, ic);
            }
            let schema = is.and_then(|s| {
                // every expression is checked, so every error is reported
                let mut ok = true;
                for e in exprs {
                    ok &= check_scalar(e, &s, span, diags).is_some();
                }
                ok.then(|| ext_project_schema(&s, exprs).ok()).flatten()
            });
            (schema, ic)
        }
        RelExpr::Distinct(_) => kids[0].clone(), // δ preserves emptiness
        RelExpr::Closure(_) => {
            let (is, ic) = kids[0].clone();
            let schema = is.and_then(|s| {
                if s.arity() != 2 {
                    diags.push(Diagnostic::new(
                        Code::MalformedOperator,
                        span.clone(),
                        format!(
                            "transitive closure needs a binary relation, found arity {}",
                            s.arity()
                        ),
                    ));
                    return None;
                }
                let (d1, d2) = (s.dtype(1).ok()?, s.dtype(2).ok()?);
                if d1 != d2 {
                    diags.push(Diagnostic::new(
                        Code::MalformedOperator,
                        span.clone(),
                        format!(
                            "transitive closure needs matching attribute domains, \
                             found {d1} and {d2}"
                        ),
                    ));
                    return None;
                }
                Some(s)
            });
            // one edge already yields the pair it connects
            (schema, ic)
        }
        RelExpr::GroupBy {
            keys, agg, attr, ..
        } => {
            let (is, ic) = kids[0].clone();
            let Some(s) = is else {
                return (None, Card::Unknown);
            };
            let mut ok = true;
            let mut seen = std::collections::HashSet::new();
            for &k in keys {
                if k == 0 || k > s.arity() {
                    diags.push(unresolved_attr(k, &s, span));
                    ok = false;
                } else if !seen.insert(k) {
                    diags.push(Diagnostic::new(
                        Code::MalformedOperator,
                        span.clone(),
                        format!("attribute %{k} repeated in the grouping list"),
                    ));
                    ok = false;
                }
            }
            if *attr == 0 || *attr > s.arity() {
                diags.push(unresolved_attr(*attr, &s, span));
                ok = false;
            }
            let out_type = if ok {
                match s.dtype(*attr).and_then(|t| agg.result_type(t)) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        diags.push(Diagnostic::new(
                            Code::TypeMismatch,
                            span.clone(),
                            e.to_string(),
                        ));
                        None
                    }
                }
            } else {
                None
            };
            // the partiality lint (Definition 3.4): a whole-relation γ
            // hands the aggregate the entire input bag, which may be empty;
            // a keyed γ only ever aggregates nonempty groups
            let card = if keys.is_empty() {
                if agg.is_partial() {
                    match ic {
                        Card::Empty => diags.push(
                            Diagnostic::new(
                                Code::PartialAggregateOnEmpty,
                                span.clone(),
                                format!(
                                    "{} is undefined on an empty multi-set, and its \
                                     input here is provably empty",
                                    agg.name()
                                ),
                            )
                            .with_note(
                                "AVG, MIN and MAX are partial functions (Definition 3.4); \
                                 evaluating this plan always aborts",
                            ),
                        ),
                        Card::Unknown => diags.push(
                            Diagnostic::new(
                                Code::PartialAggregateMayBeUndefined,
                                span.clone(),
                                format!("{} over a whole relation that may be empty", agg.name()),
                            )
                            .with_note(
                                "AVG, MIN and MAX are partial functions (Definition 3.4): \
                                 undefined on the empty multi-set",
                            )
                            .with_note(
                                "guard the input so it is provably nonempty, or expect a \
                                 runtime abort on empty input",
                            ),
                        ),
                        Card::NonEmpty => {} // proved safe
                    }
                }
                // a defined whole-relation γ yields exactly one tuple
                match (agg.is_partial(), ic) {
                    (true, Card::Empty) => Card::Empty, // undefined anyway
                    _ => Card::NonEmpty,
                }
            } else {
                ic // one output tuple per nonempty group
            };
            let schema = out_type.map(|t| {
                let key_schema = if keys.is_empty() {
                    Schema::new(vec![])
                } else {
                    // indexes validated above, so the projection succeeds
                    let list = AttrList::new_unique(keys.clone()).expect("validated keys");
                    s.project(&list).expect("validated keys")
                };
                Arc::new(key_schema.with_attr(Attribute::anon(t)))
            });
            (schema, card)
        }
    }
}

/// Cartesian-product cardinality: multiplicities multiply.
fn product_card(l: Card, r: Card) -> Card {
    match (l, r) {
        (Card::Empty, _) | (_, Card::Empty) => Card::Empty,
        (Card::NonEmpty, Card::NonEmpty) => Card::NonEmpty,
        _ => Card::Unknown,
    }
}

fn unresolved_attr(index: usize, schema: &Schema, span: &Span) -> Diagnostic {
    Diagnostic::new(
        Code::UnresolvedAttr,
        span.clone(),
        format!(
            "attribute %{index} does not resolve (input arity {})",
            schema.arity()
        ),
    )
    .with_note(format!("the input schema is {schema}"))
}

/// Type-checks a selection/join condition: every problem inside the
/// predicate is reported, then the result type must be boolean.
fn check_predicate(
    predicate: &ScalarExpr,
    schema: &Schema,
    span: &Span,
    diags: &mut Vec<Diagnostic>,
) {
    if let Some(t) = check_scalar(predicate, schema, span, diags) {
        if t != DataType::Bool {
            diags.push(Diagnostic::new(
                Code::TypeMismatch,
                span.clone(),
                format!("condition has type {t}, expected bool"),
            ));
        }
    }
}

/// Resolves and types one scalar expression, reporting *all* unresolved
/// attributes and type clashes it contains (unlike
/// [`ScalarExpr::infer_type`], which stops at the first). Returns the
/// output domain when the tree typed.
pub(crate) fn check_scalar(
    e: &ScalarExpr,
    schema: &Schema,
    span: &Span,
    diags: &mut Vec<Diagnostic>,
) -> Option<DataType> {
    match e {
        ScalarExpr::Attr(i) => match schema.dtype(*i) {
            Ok(t) => Some(t),
            Err(_) => {
                diags.push(unresolved_attr(*i, schema, span));
                None
            }
        },
        ScalarExpr::Literal(v) => Some(v.data_type()),
        ScalarExpr::Arith(op, l, r) => {
            let lt = check_scalar(l, schema, span, diags);
            let rt = check_scalar(r, schema, span, diags);
            let (lt, rt) = (lt?, rt?);
            match arith_result_type(*op, lt, rt) {
                Ok(t) => Some(t),
                Err(e) => {
                    diags.push(Diagnostic::new(
                        Code::TypeMismatch,
                        span.clone(),
                        e.to_string(),
                    ));
                    None
                }
            }
        }
        ScalarExpr::Neg(inner) => {
            let t = check_scalar(inner, schema, span, diags)?;
            if t.is_numeric() {
                Some(t)
            } else {
                diags.push(Diagnostic::new(
                    Code::TypeMismatch,
                    span.clone(),
                    format!("cannot negate {t}"),
                ));
                None
            }
        }
        ScalarExpr::Cmp(op, l, r) => {
            let lt = check_scalar(l, schema, span, diags);
            let rt = check_scalar(r, schema, span, diags);
            let (lt, rt) = (lt?, rt?);
            if lt != rt {
                diags.push(Diagnostic::new(
                    Code::TypeMismatch,
                    span.clone(),
                    format!("cannot compare {lt} with {rt}"),
                ));
                return None;
            }
            if op.needs_order() && !lt.is_ordered() {
                diags.push(Diagnostic::new(
                    Code::TypeMismatch,
                    span.clone(),
                    format!("domain {lt} has no order for {op}"),
                ));
                return None;
            }
            Some(DataType::Bool)
        }
        ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
            let mut ok = true;
            for side in [l, r] {
                if let Some(t) = check_scalar(side, schema, span, diags) {
                    if t != DataType::Bool {
                        diags.push(Diagnostic::new(
                            Code::TypeMismatch,
                            span.clone(),
                            format!("boolean connective applied to {t}"),
                        ));
                        ok = false;
                    }
                } else {
                    ok = false;
                }
            }
            ok.then_some(DataType::Bool)
        }
        ScalarExpr::Not(inner) => {
            let t = check_scalar(inner, schema, span, diags)?;
            if t != DataType::Bool {
                diags.push(Diagnostic::new(
                    Code::TypeMismatch,
                    span.clone(),
                    format!("NOT applied to {t}"),
                ));
                return None;
            }
            Some(DataType::Bool)
        }
        ScalarExpr::Concat(l, r) => {
            let lt = check_scalar(l, schema, span, diags);
            let rt = check_scalar(r, schema, span, diags);
            let (lt, rt) = (lt?, rt?);
            if lt == DataType::Str && rt == DataType::Str {
                Some(DataType::Str)
            } else {
                diags.push(Diagnostic::new(
                    Code::TypeMismatch,
                    span.clone(),
                    format!("cannot concatenate {lt} with {rt}"),
                ));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use mera_expr::Aggregate;

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

    fn analyze(expr: &RelExpr) -> PlanAnalysis {
        analyze_plan(expr, &catalog(), &CardEnv::new())
    }

    fn codes(a: &PlanAnalysis) -> Vec<Code> {
        a.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn well_formed_plan_accepted_with_schema() {
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.0)))
            .project(&[1, 2]);
        let a = analyze(&e);
        assert!(a.is_accepted(), "{:?}", a.diagnostics);
        assert_eq!(a.schema.expect("typed").arity(), 2);
        assert_eq!(a.card, Card::Unknown);
    }

    #[test]
    fn unresolved_attribute_is_e0001_with_span() {
        let e = RelExpr::scan("beer").select(ScalarExpr::attr(7).eq(ScalarExpr::int(1)));
        let a = analyze(&e);
        assert_eq!(codes(&a), vec![Code::UnresolvedAttr]);
        assert_eq!(a.diagnostics[0].span.op, "select");
        assert!(a.schema.is_some(), "selection keeps its input schema");
    }

    #[test]
    fn multiple_problems_all_reported() {
        // %7 unresolved AND a str+int arithmetic clash, in one predicate
        let bad = ScalarExpr::attr(7).eq(ScalarExpr::int(1)).and(
            ScalarExpr::attr(1)
                .add(ScalarExpr::int(1))
                .eq(ScalarExpr::int(2)),
        );
        let a = analyze(&RelExpr::scan("beer").select(bad));
        assert_eq!(codes(&a), vec![Code::UnresolvedAttr, Code::TypeMismatch]);
    }

    #[test]
    fn unknown_relation_is_e0002_and_does_not_cascade() {
        let e = RelExpr::scan("ale").select(ScalarExpr::attr(1).eq(ScalarExpr::int(1)));
        let a = analyze(&e);
        // one root cause, no follow-on predicate errors
        assert_eq!(codes(&a), vec![Code::UnknownRelation]);
        assert!(a.schema.is_none());
    }

    #[test]
    fn incompatible_union_is_e0004() {
        let a = analyze(&RelExpr::scan("beer").union(RelExpr::scan("brewery")));
        assert_eq!(codes(&a), vec![Code::IncompatibleOperands]);
    }

    #[test]
    fn ext_project_type_error_is_e0003() {
        let e = RelExpr::scan("beer").ext_project(vec![
            ScalarExpr::attr(1).add(ScalarExpr::int(1)), // str + int
            ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
        ]);
        let a = analyze(&e);
        assert_eq!(codes(&a), vec![Code::TypeMismatch]);
        assert!(a.schema.is_none());
    }

    #[test]
    fn group_by_checks_keys_and_aggregate() {
        let a = analyze(&RelExpr::scan("beer").group_by(&[2, 2], Aggregate::Cnt, 1));
        assert_eq!(codes(&a), vec![Code::MalformedOperator]);
        let a = analyze(&RelExpr::scan("beer").group_by(&[2], Aggregate::Sum, 1));
        assert_eq!(codes(&a), vec![Code::TypeMismatch]);
        let a = analyze(&RelExpr::scan("beer").group_by(&[9], Aggregate::Cnt, 1));
        assert_eq!(codes(&a), vec![Code::UnresolvedAttr]);
    }

    #[test]
    fn partial_aggregate_over_unknown_input_warns_w0101() {
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::attr(3).cmp(mera_expr::CmpOp::Gt, ScalarExpr::real(9.0)))
            .group_by(&[], Aggregate::Avg, 3);
        let a = analyze(&e);
        assert_eq!(codes(&a), vec![Code::PartialAggregateMayBeUndefined]);
        assert!(a.is_accepted(), "warnings do not reject");
        assert_eq!(
            a.card,
            Card::NonEmpty,
            "a defined whole-relation γ yields one tuple"
        );
    }

    #[test]
    fn partial_aggregate_over_provably_empty_is_e0102() {
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::bool(false))
            .group_by(&[], Aggregate::Avg, 3);
        let a = analyze(&e);
        assert_eq!(codes(&a), vec![Code::PartialAggregateOnEmpty]);
        assert!(!a.is_accepted());
    }

    #[test]
    fn keyed_group_by_never_warns() {
        // groups are nonempty by construction
        let e = RelExpr::scan("beer")
            .select(ScalarExpr::bool(false))
            .group_by(&[2], Aggregate::Avg, 3);
        let a = analyze(&e);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.card, Card::Empty);
    }

    #[test]
    fn total_aggregates_never_warn() {
        for agg in [Aggregate::Cnt, Aggregate::Sum] {
            let e = RelExpr::scan("beer")
                .select(ScalarExpr::bool(false))
                .group_by(&[], agg, 3);
            let a = analyze(&e);
            assert!(a.diagnostics.is_empty(), "{agg:?}: {:?}", a.diagnostics);
            assert_eq!(a.card, Card::NonEmpty);
        }
    }

    #[test]
    fn nonempty_literal_proves_partial_aggregate_safe() {
        let rel = relation_of(
            Schema::anon(&[DataType::Int]),
            vec![tuple![1_i64], tuple![2_i64]],
        )
        .expect("typed");
        let e = RelExpr::values(rel).group_by(&[], Aggregate::Avg, 1);
        let a = analyze(&e);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn card_env_feeds_scans() {
        let mut cards = CardEnv::new();
        cards.insert("beer".into(), Card::NonEmpty);
        let e = RelExpr::scan("beer").group_by(&[], Aggregate::Avg, 3);
        let a = analyze_plan(&e, &catalog(), &cards);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        cards.insert("beer".into(), Card::Empty);
        let a = analyze_plan(&e, &catalog(), &cards);
        assert_eq!(codes(&a), vec![Code::PartialAggregateOnEmpty]);
    }

    #[test]
    fn card_propagation_through_operators() {
        let mut cards = CardEnv::new();
        cards.insert("beer".into(), Card::NonEmpty);
        let cat = catalog();
        let card = |e: &RelExpr| analyze_plan(e, &cat, &cards).card;
        let beer = RelExpr::scan("beer");
        assert_eq!(card(&beer), Card::NonEmpty);
        assert_eq!(card(&beer.clone().distinct()), Card::NonEmpty);
        assert_eq!(card(&beer.clone().project(&[1])), Card::NonEmpty);
        assert_eq!(
            card(&beer.clone().union(RelExpr::scan("beer"))),
            Card::NonEmpty
        );
        assert_eq!(
            card(&beer.clone().product(RelExpr::scan("beer"))),
            Card::NonEmpty
        );
        assert_eq!(
            card(&beer.clone().select(ScalarExpr::bool(true))),
            Card::NonEmpty
        );
        assert_eq!(
            card(&beer.clone().select(ScalarExpr::bool(false))),
            Card::Empty
        );
        assert_eq!(
            card(&beer.clone().difference(RelExpr::scan("beer"))),
            Card::Unknown
        );
        assert_eq!(
            card(
                &beer
                    .clone()
                    .difference(RelExpr::scan("beer").select(ScalarExpr::bool(false)))
            ),
            Card::NonEmpty,
            "subtracting a provably-empty bag is the identity"
        );
        assert_eq!(
            card(&beer.intersect(RelExpr::scan("brewery"))),
            Card::Unknown
        );
    }

    #[test]
    fn lattice_join() {
        assert_eq!(Card::Empty.join(Card::Empty), Card::Empty);
        assert_eq!(Card::NonEmpty.join(Card::NonEmpty), Card::NonEmpty);
        assert_eq!(Card::Empty.join(Card::NonEmpty), Card::Unknown);
        assert_eq!(Card::Unknown.join(Card::Empty), Card::Unknown);
    }
}
