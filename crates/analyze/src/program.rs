//! Whole-program analysis for the database manipulation language of
//! Definition 4.1/4.2.
//!
//! Statements are analyzed in execution order against an *abstract*
//! intermediate state: the catalog extended with the schemas of
//! assignment-bound temporaries, plus a [`CardEnv`] tracking the emptiness
//! abstraction of every relation. Each statement first has its
//! expression(s) checked by the plan analyzer, then applies its abstract
//! effect:
//!
//! * `insert(R, E)` — `R ← R ⊎ E`: the union rule, so inserting a
//!   provably-nonempty bag *proves* `R` nonempty for the rest of the
//!   program (this is what lets a downstream whole-relation `AVG` pass
//!   the partiality lint);
//! * `delete(R, E)` — `R ← R − E`: the difference rule (`R` empty stays
//!   empty, subtracting a provably-empty bag changes nothing, anything
//!   else is unknown);
//! * `update(R, E, a)` — preserves total multiplicity exactly
//!   (`max(0,m−m') + min(m,m') = m`), so `R`'s abstraction is unchanged;
//! * `R = E` — binds a temporary's schema and abstraction;
//! * `?E` — no effect.
//!
//! The analyzer does not depend on `mera-txn`; callers map their statement
//! types onto the borrowed [`ProgramStmt`] view.

use std::collections::HashMap;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::{RelExpr, ScalarExpr, SchemaProvider};

use crate::diag::{Code, Diagnostic, Span};
use crate::plan::{analyze_plan_in_stmt, diagnostic, Card, CardEnv};

/// A borrowed view of one statement, mirroring Definition 4.1. Embedders
/// (`mera-txn`, `mera-sql`) map their own statement types onto this.
#[derive(Debug, Clone, Copy)]
pub enum ProgramStmt<'a> {
    /// `insert(R, E)`.
    Insert {
        /// Target relation name.
        relation: &'a str,
        /// Source expression.
        expr: &'a RelExpr,
    },
    /// `delete(R, E)`.
    Delete {
        /// Target relation name.
        relation: &'a str,
        /// Expression computing the tuples to remove.
        expr: &'a RelExpr,
    },
    /// `update(R, E, a)`.
    Update {
        /// Target relation name.
        relation: &'a str,
        /// Expression selecting the tuples to modify.
        expr: &'a RelExpr,
        /// The structure-preserving expression list `a`.
        exprs: &'a [ScalarExpr],
    },
    /// `R = E` (temporary binding).
    Assign {
        /// The temporary's name.
        name: &'a str,
        /// The bound expression.
        expr: &'a RelExpr,
    },
    /// `?E`.
    Query {
        /// The queried expression.
        expr: &'a RelExpr,
    },
}

/// The catalog plus the temporaries bound so far — the abstract analogue
/// of `txn`'s intermediate states `D_t.i`.
struct LayeredProvider<'a, P> {
    base: &'a P,
    temps: &'a HashMap<String, SchemaRef>,
}

impl<P: SchemaProvider> SchemaProvider for LayeredProvider<'_, P> {
    fn relation_schema(&self, name: &str) -> CoreResult<SchemaRef> {
        if let Some(s) = self.temps.get(name) {
            return Ok(Arc::clone(s));
        }
        self.base.relation_schema(name)
    }
}

/// Analyzes a statement sequence against a catalog, with initial
/// cardinality facts (typically [`Card::of_relation`] over the live
/// database state). Returns every finding; reject execution iff
/// [`crate::diag::has_errors`].
pub fn analyze_program<'a, P, I>(stmts: I, provider: &P, initial: &CardEnv) -> Vec<Diagnostic>
where
    P: SchemaProvider,
    I: IntoIterator<Item = ProgramStmt<'a>>,
{
    let mut diags = Vec::new();
    let mut temps: HashMap<String, SchemaRef> = HashMap::new();
    let mut cards = initial.clone();

    for (i, stmt) in stmts.into_iter().enumerate() {
        // moved out of the match so `temps` isn't double-borrowed
        let layered = LayeredProvider {
            base: provider,
            temps: &temps,
        };
        match stmt {
            ProgramStmt::Insert { relation, expr } => {
                let (schema, card) = analyze_plan_in_stmt(expr, &layered, &cards, i, &mut diags);
                if let Some(target) =
                    dml_target(relation, provider, &temps, i, expr.op_name(), &mut diags)
                {
                    if let Some(s) = schema {
                        if !s.same_types(&target) {
                            diags.push(
                                Diagnostic::new(
                                    Code::IncompatibleOperands,
                                    Span::root(expr.op_name()).in_stmt(i),
                                    format!(
                                        "insert source schema does not match relation \
                                         `{relation}`"
                                    ),
                                )
                                .with_note(format!("`{relation}` has schema {target}"))
                                .with_note(format!("the source expression has schema {s}")),
                            );
                        }
                    }
                    let old = card_of(&cards, relation);
                    // R ← R ⊎ E: the union card rule
                    let new = match (old, card) {
                        (Card::Empty, c) => c,
                        (c, Card::Empty) => c,
                        (Card::NonEmpty, _) | (_, Card::NonEmpty) => Card::NonEmpty,
                        _ => Card::Unknown,
                    };
                    cards.insert(relation.to_owned(), new);
                }
            }
            ProgramStmt::Delete { relation, expr } => {
                let (schema, card) = analyze_plan_in_stmt(expr, &layered, &cards, i, &mut diags);
                if let Some(target) =
                    dml_target(relation, provider, &temps, i, expr.op_name(), &mut diags)
                {
                    if let Some(s) = schema {
                        if !s.same_types(&target) {
                            diags.push(
                                Diagnostic::new(
                                    Code::IncompatibleOperands,
                                    Span::root(expr.op_name()).in_stmt(i),
                                    format!(
                                        "delete expression schema does not match relation \
                                         `{relation}`"
                                    ),
                                )
                                .with_note(format!("`{relation}` has schema {target}"))
                                .with_note(format!("the expression has schema {s}")),
                            );
                        }
                    }
                    // R ← R − E: the difference card rule
                    let new = match (card_of(&cards, relation), card) {
                        (Card::Empty, _) => Card::Empty,
                        (c, Card::Empty) => c,
                        _ => Card::Unknown,
                    };
                    cards.insert(relation.to_owned(), new);
                }
            }
            ProgramStmt::Update {
                relation,
                expr,
                exprs,
            } => {
                analyze_plan_in_stmt(expr, &layered, &cards, i, &mut diags);
                if let Some(target) =
                    dml_target(relation, provider, &temps, i, expr.op_name(), &mut diags)
                {
                    let span = Span::root(expr.op_name()).in_stmt(i);
                    let mut attrs = Vec::with_capacity(exprs.len());
                    let mut typed = true;
                    let inputs = std::slice::from_ref(&target);
                    for e in exprs {
                        let mut report = |err| diags.push(diagnostic(err, inputs, &span));
                        match e.check(&target, &mut report) {
                            Some(t) => attrs.push(Attribute::anon(t)),
                            None => typed = false,
                        }
                    }
                    if typed {
                        let updated = Schema::new(attrs);
                        if !updated.same_types(&target) {
                            diags.push(
                                Diagnostic::new(
                                    Code::UpdateSchemaChange,
                                    span,
                                    format!(
                                        "update expression list changes the schema of \
                                         `{relation}`"
                                    ),
                                )
                                .with_note(format!("`{relation}` has schema {target}"))
                                .with_note(format!("the expression list produces {updated}"))
                                .with_note(
                                    "update's π̄ₐ must preserve the target's structure \
                                     (Definition 4.1)",
                                ),
                            );
                        }
                    }
                    // (R − E) ⊎ π̄ₐ(R ∩ E) preserves total multiplicity
                }
            }
            ProgramStmt::Assign { name, expr } => {
                let (schema, card) = analyze_plan_in_stmt(expr, &layered, &cards, i, &mut diags);
                if provider.relation_schema(name).is_ok() {
                    diags.push(
                        Diagnostic::new(
                            Code::DuplicateRelation,
                            Span::root(expr.op_name()).in_stmt(i),
                            format!("assignment would shadow database relation `{name}`"),
                        )
                        .with_note("temporaries may not collide with database names (§4.3)"),
                    );
                } else if let Some(s) = schema {
                    temps.insert(name.to_owned(), s);
                    cards.insert(name.to_owned(), card);
                }
            }
            ProgramStmt::Query { expr } => {
                analyze_plan_in_stmt(expr, &layered, &cards, i, &mut diags);
            }
        }
    }
    diags
}

fn card_of(cards: &CardEnv, name: &str) -> Card {
    cards.get(name).copied().unwrap_or(Card::Unknown)
}

/// Resolves a DML target, which must be a *database* relation — writing a
/// temporary is not part of Definition 4.1 and fails at runtime.
fn dml_target<P: SchemaProvider>(
    relation: &str,
    provider: &P,
    temps: &HashMap<String, SchemaRef>,
    stmt: usize,
    op: &'static str,
    diags: &mut Vec<Diagnostic>,
) -> Option<SchemaRef> {
    match provider.relation_schema(relation) {
        Ok(s) => Some(s),
        Err(_) => {
            let mut d = Diagnostic::new(
                Code::UnknownRelation,
                Span::root(op).in_stmt(stmt),
                format!("unknown relation `{relation}` as DML target"),
            );
            if temps.contains_key(relation) {
                d = d.with_note(format!(
                    "`{relation}` is a temporary; insert/delete/update only \
                     target database relations"
                ));
            }
            diags.push(d);
            None
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
    }

    fn beer_row() -> Relation {
        relation_of(
            Schema::anon(&[DataType::Str, DataType::Str, DataType::Real]),
            vec![tuple!["Grolsch", "Grolsche", 5.0_f64]],
        )
        .expect("typed")
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn insert_of_nonempty_literal_proves_aggregate_safe() {
        // the ISSUE example: γ downstream of insert of a literal nonempty
        // relation is *proved* safe even when the table starts empty
        let mut cards = CardEnv::new();
        cards.insert("beer".into(), Card::Empty);
        let insert = RelExpr::values(beer_row());
        let query = RelExpr::scan("beer").group_by(&[], Aggregate::Avg, 3);
        let stmts = [
            ProgramStmt::Insert {
                relation: "beer",
                expr: &insert,
            },
            ProgramStmt::Query { expr: &query },
        ];
        let diags = analyze_program(stmts, &catalog(), &cards);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn aggregate_over_initially_empty_relation_is_e0102() {
        let mut cards = CardEnv::new();
        cards.insert("beer".into(), Card::Empty);
        let query = RelExpr::scan("beer").group_by(&[], Aggregate::Min, 1);
        let diags = analyze_program([ProgramStmt::Query { expr: &query }], &catalog(), &cards);
        assert_eq!(codes(&diags), vec![Code::PartialAggregateOnEmpty]);
        assert_eq!(diags[0].span.stmt, Some(0));
    }

    #[test]
    fn delete_invalidates_nonemptiness() {
        let mut cards = CardEnv::new();
        cards.insert("beer".into(), Card::NonEmpty);
        let del = RelExpr::scan("beer").select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.0)));
        let query = RelExpr::scan("beer").group_by(&[], Aggregate::Avg, 3);
        let stmts = [
            ProgramStmt::Delete {
                relation: "beer",
                expr: &del,
            },
            ProgramStmt::Query { expr: &query },
        ];
        let diags = analyze_program(stmts, &catalog(), &cards);
        assert_eq!(codes(&diags), vec![Code::PartialAggregateMayBeUndefined]);
    }

    #[test]
    fn update_preserves_cardinality_facts() {
        let mut cards = CardEnv::new();
        cards.insert("beer".into(), Card::NonEmpty);
        let sel = RelExpr::scan("beer");
        let query = RelExpr::scan("beer").group_by(&[], Aggregate::Avg, 3);
        let exprs = vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2),
            ScalarExpr::attr(3).mul(ScalarExpr::real(1.1)),
        ];
        let stmts = [
            ProgramStmt::Update {
                relation: "beer",
                expr: &sel,
                exprs: &exprs,
            },
            ProgramStmt::Query { expr: &query },
        ];
        let diags = analyze_program(stmts, &catalog(), &cards);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn update_schema_change_is_e0007() {
        let sel = RelExpr::scan("beer");
        let exprs = vec![ScalarExpr::attr(1)]; // drops two attributes
        let stmts = [ProgramStmt::Update {
            relation: "beer",
            expr: &sel,
            exprs: &exprs,
        }];
        let diags = analyze_program(stmts, &catalog(), &CardEnv::new());
        assert_eq!(codes(&diags), vec![Code::UpdateSchemaChange]);
    }

    #[test]
    fn insert_schema_mismatch_is_e0004() {
        let src = RelExpr::scan("beer").project(&[1]);
        let stmts = [ProgramStmt::Insert {
            relation: "beer",
            expr: &src,
        }];
        let diags = analyze_program(stmts, &catalog(), &CardEnv::new());
        assert_eq!(codes(&diags), vec![Code::IncompatibleOperands]);
    }

    #[test]
    fn assignment_shadowing_is_e0006_and_temp_is_visible() {
        let bind = RelExpr::scan("beer");
        let use_it = RelExpr::scan("strong").project(&[1]);
        let stmts = [
            ProgramStmt::Assign {
                name: "strong",
                expr: &bind,
            },
            ProgramStmt::Query { expr: &use_it },
        ];
        let diags = analyze_program(stmts, &catalog(), &CardEnv::new());
        assert!(diags.is_empty(), "temps resolve: {diags:?}");

        let shadow = [ProgramStmt::Assign {
            name: "beer",
            expr: &bind,
        }];
        let diags = analyze_program(shadow, &catalog(), &CardEnv::new());
        assert_eq!(codes(&diags), vec![Code::DuplicateRelation]);
    }

    #[test]
    fn assignment_card_flows_into_uses() {
        let bind = RelExpr::scan("beer").select(ScalarExpr::bool(false));
        let agg = RelExpr::scan("empties").group_by(&[], Aggregate::Max, 3);
        let stmts = [
            ProgramStmt::Assign {
                name: "empties",
                expr: &bind,
            },
            ProgramStmt::Query { expr: &agg },
        ];
        let diags = analyze_program(stmts, &catalog(), &CardEnv::new());
        assert_eq!(codes(&diags), vec![Code::PartialAggregateOnEmpty]);
    }

    #[test]
    fn dml_cannot_target_a_temporary() {
        let bind = RelExpr::scan("beer");
        let row = RelExpr::values(beer_row());
        let stmts = [
            ProgramStmt::Assign {
                name: "t",
                expr: &bind,
            },
            ProgramStmt::Insert {
                relation: "t",
                expr: &row,
            },
        ];
        let diags = analyze_program(stmts, &catalog(), &CardEnv::new());
        assert_eq!(codes(&diags), vec![Code::UnknownRelation]);
        assert!(diags[0].notes[0].contains("temporary"));
    }
}
