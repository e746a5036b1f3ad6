//! Plan analysis: the typing rules and the emptiness lattice, in one
//! bottom-up walk that keeps going after the first problem.
//!
//! Two facts are computed per node:
//!
//! * its **schema**, by the node check of `mera-expr`
//!   ([`RelExpr::check_node`], the one statement of Definitions 3.1–3.4's
//!   typing rules), every problem it reports turned into a diagnostic
//!   with this node's span — `None` when a child already failed, so one
//!   root cause does not cascade into spurious follow-on errors;
//! * its **cardinality abstraction** in the three-point lattice
//!   [`Card`] = {`Empty`, `NonEmpty`, `Unknown`}, which feeds the
//!   partiality lint: Definition 3.4 makes `AVG`/`MIN`/`MAX` *partial* —
//!   undefined on the empty multi-set — so a whole-relation `γ` over a
//!   possibly-empty input is a [`Code::PartialAggregateMayBeUndefined`]
//!   warning and over a provably-empty input a
//!   [`Code::PartialAggregateOnEmpty`] error.

use mera_core::prelude::*;
use mera_expr::{Aggregate, RelExpr, ScalarExpr, SchemaProvider};

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
    // walk order and the node check sees its children's schemas
    let children = expr.children();
    let mut inputs = Some(Vec::with_capacity(children.len()));
    let mut kid_cards = [Card::Unknown; 2]; // a node has at most two children
    for (i, child) in children.iter().enumerate() {
        let child_span = span.child(i, child.op_name());
        let (schema, card) = walk(child, provider, cards, &child_span, diags);
        kid_cards[i] = card;
        // a child without a schema has reported why; checking this node
        // as well would only repeat that cause
        inputs = match (inputs, schema) {
            (Some(mut inputs), Some(schema)) => {
                inputs.push(schema);
                Some(inputs)
            }
            _ => None,
        };
    }
    let schema = inputs.as_deref().and_then(|inputs| {
        expr.check_node(inputs, provider, &mut |err| {
            diags.push(node_diagnostic(expr, err, inputs, span));
        })
    });

    let [ic, rc] = kid_cards;
    let card = match expr {
        RelExpr::Scan(name) if schema.is_some() => {
            cards.get(name.as_str()).copied().unwrap_or_default()
        }
        RelExpr::Scan(_) => Card::Unknown,
        RelExpr::Values(rel) => Card::of_relation(rel),
        RelExpr::Union(..) => match (ic, rc) {
            (Card::Empty, Card::Empty) => Card::Empty,
            (Card::NonEmpty, _) | (_, Card::NonEmpty) => Card::NonEmpty,
            _ => Card::Unknown,
        },
        RelExpr::Difference(..) => match (ic, rc) {
            (Card::Empty, _) => Card::Empty,
            // subtracting nothing keeps the left abstraction
            (l, Card::Empty) => l,
            _ => Card::Unknown,
        },
        // intersection below either operand; a join can filter
        // everything, so only emptiness propagates
        RelExpr::Intersect(..) | RelExpr::Join { .. } => match (ic, rc) {
            (Card::Empty, _) | (_, Card::Empty) => Card::Empty,
            _ => Card::Unknown,
        },
        RelExpr::Product(..) => match (ic, rc) {
            (Card::Empty, _) | (_, Card::Empty) => Card::Empty,
            (Card::NonEmpty, Card::NonEmpty) => Card::NonEmpty,
            _ => Card::Unknown,
        },
        RelExpr::Select { predicate, .. } => match predicate {
            // constant predicates decide the selection statically
            ScalarExpr::Literal(Value::Bool(true)) => ic,
            ScalarExpr::Literal(Value::Bool(false)) => Card::Empty,
            _ => match ic {
                Card::Empty => Card::Empty,
                _ => Card::Unknown,
            },
        },
        // π preserves the total multiplicity of its input exactly, δ
        // preserves emptiness, and one edge already yields the pair it
        // connects
        RelExpr::Project { .. }
        | RelExpr::ExtProject { .. }
        | RelExpr::Distinct(_)
        | RelExpr::Closure(_) => ic,
        RelExpr::GroupBy { keys, agg, .. } if inputs.is_some() => {
            group_by_card(keys, *agg, ic, span, diags)
        }
        RelExpr::GroupBy { .. } => Card::Unknown,
    };
    (schema, card)
}

/// The emptiness of `γ_{keys, agg, …}` over an input of emptiness `ic`,
/// and the partiality lint (Definition 3.4): a whole-relation γ hands the
/// aggregate the entire input bag, which may be empty; a keyed γ only
/// ever aggregates nonempty groups.
fn group_by_card(
    keys: &[usize],
    agg: Aggregate,
    ic: Card,
    span: &Span,
    diags: &mut Vec<Diagnostic>,
) -> Card {
    if !keys.is_empty() {
        return ic; // one output tuple per nonempty group
    }
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
}

/// The diagnostic for a problem `expr`'s node check reported, its inputs'
/// schemas being `inputs`.
fn node_diagnostic(
    expr: &RelExpr,
    err: CoreError,
    inputs: &[SchemaRef],
    span: &Span,
) -> Diagnostic {
    let code = match (&err, expr) {
        (CoreError::UnknownRelation(name), _) => {
            let message = format!("unknown relation `{name}`");
            return Diagnostic::new(Code::UnknownRelation, span.clone(), message);
        }
        (CoreError::SchemaMismatch { expected, found }, _) => {
            let message = format!("operands of {} have incompatible schemas", expr.op_name());
            return Diagnostic::new(Code::IncompatibleOperands, span.clone(), message)
                .with_note(format!("left operand has schema {expected}"))
                .with_note(format!("right operand has schema {found}"));
        }
        (CoreError::DuplicateAttrInList(_), _) | (CoreError::TypeError(_), RelExpr::Closure(_)) => {
            Code::MalformedOperator
        }
        (CoreError::TypeError(_), RelExpr::ExtProject { exprs, .. }) if exprs.is_empty() => {
            Code::MalformedOperator
        }
        _ => return diagnostic(err, inputs, span),
    };
    Diagnostic::new(code, span.clone(), err.to_string())
}

/// The diagnostic for a problem typing scalar expressions over the
/// concatenated attributes of `inputs`: an attribute that does not
/// resolve is `E0001` with the input schema as a note, anything else
/// `E0003`.
pub(crate) fn diagnostic(err: CoreError, inputs: &[SchemaRef], span: &Span) -> Diagnostic {
    match err {
        CoreError::AttrIndexOutOfRange { index, arity } => {
            let attrs: Vec<String> = (inputs.iter())
                .flat_map(|s| s.attributes())
                .map(ToString::to_string)
                .collect();
            Diagnostic::new(
                Code::UnresolvedAttr,
                span.clone(),
                format!("attribute %{index} does not resolve (input arity {arity})"),
            )
            .with_note(format!("the input schema is ({})", attrs.join(", ")))
        }
        err => Diagnostic::new(Code::TypeMismatch, span.clone(), err.to_string()),
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
