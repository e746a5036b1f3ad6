//! Commit-time integrity enforcement (the paper's reference [11] model):
//! a transaction whose final state violates a declared constraint aborts
//! atomically; deferred checking allows transient violations *inside* the
//! transaction.

use std::sync::Arc;

use mera::core::prelude::*;
use mera::expr::{CmpOp, RelExpr, ScalarExpr};
use mera::txn::{AbortReason, Constraint, ConstraintSet, MvccManager, Outcome, Program, Statement};

fn schema() -> DatabaseSchema {
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
            Schema::named(&[("name", DataType::Str), ("country", DataType::Str)]),
        )
        .expect("fresh")
}

fn constrained_manager() -> MvccManager {
    let s = schema();
    let constraints = ConstraintSet::new()
        .with(
            "beer_pk",
            Constraint::PrimaryKey {
                relation: "beer".into(),
                attrs: vec![1, 2],
            },
            &s,
        )
        .expect("pk declares")
        .with(
            "beer_brewery_fk",
            Constraint::ForeignKey {
                relation: "beer".into(),
                attrs: vec![2],
                references: "brewery".into(),
                ref_attrs: vec![1],
            },
            &s,
        )
        .expect("fk declares")
        .with(
            "alcperc_range",
            Constraint::Check {
                relation: "beer".into(),
                predicate: ScalarExpr::attr(3)
                    .cmp(CmpOp::Ge, ScalarExpr::real(0.0))
                    .and(ScalarExpr::attr(3).cmp(CmpOp::Le, ScalarExpr::real(100.0))),
            },
            &s,
        )
        .expect("check declares");
    MvccManager::new(s).with_constraints(constraints)
}

fn insert(rel: &str, rows: Vec<Tuple>, types: &[DataType]) -> Statement {
    let r = Relation::from_tuples(Arc::new(Schema::anon(types)), rows).expect("typed");
    Statement::insert(rel, RelExpr::values(r))
}

const BEER_T: [DataType; 3] = [DataType::Str, DataType::Str, DataType::Real];
const BREWERY_T: [DataType; 2] = [DataType::Str, DataType::Str];

#[test]
fn valid_transactions_commit() {
    let mgr = constrained_manager();
    let p = Program::new()
        .then(insert("brewery", vec![tuple!["X", "NL"]], &BREWERY_T))
        .then(insert("beer", vec![tuple!["A", "X", 5.0_f64]], &BEER_T));
    let (outcome, _) = mgr.execute(&p);
    assert!(outcome.is_committed(), "{outcome:?}");
    assert_eq!(mgr.constraints().len(), 3);
}

#[test]
fn duplicate_insert_aborts_on_pk() {
    let mgr = constrained_manager();
    mgr.execute(
        &Program::new()
            .then(insert("brewery", vec![tuple!["X", "NL"]], &BREWERY_T))
            .then(insert("beer", vec![tuple!["A", "X", 5.0_f64]], &BEER_T)),
    );
    // bag insert would happily create multiplicity 2 — the PK forbids it
    let before = mgr.pin();
    let (outcome, after) = mgr.execute(&Program::single(insert(
        "beer",
        vec![tuple!["A", "X", 5.0_f64]],
        &BEER_T,
    )));
    let Outcome::Aborted(AbortReason::ConstraintViolation(v)) = outcome else {
        panic!("expected constraint abort, got {outcome:?}");
    };
    assert!(v.contains("beer_pk"), "{v}");
    assert_eq!(after.seq(), before.seq(), "an abort publishes nothing");
    assert_eq!(after.database().relation("beer").expect("present").len(), 1);
}

#[test]
fn dangling_foreign_key_aborts() {
    let mgr = constrained_manager();
    let (outcome, _) = mgr.execute(&Program::single(insert(
        "beer",
        vec![tuple!["A", "Ghost", 5.0_f64]],
        &BEER_T,
    )));
    assert!(matches!(
        outcome,
        Outcome::Aborted(AbortReason::ConstraintViolation(ref v)) if v.contains("fk")
    ));
}

#[test]
fn check_constraint_guards_updates() {
    let mgr = constrained_manager();
    mgr.execute(
        &Program::new()
            .then(insert("brewery", vec![tuple!["X", "NL"]], &BREWERY_T))
            .then(insert("beer", vec![tuple!["A", "X", 60.0_f64]], &BEER_T)),
    );
    // the Guineken update at ×2 would push alcperc past 100
    let update = Program::single(Statement::update(
        "beer",
        RelExpr::scan("beer"),
        vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(2),
            ScalarExpr::attr(3).mul(ScalarExpr::real(2.0)),
        ],
    ));
    let (outcome, _) = mgr.execute(&update);
    assert!(matches!(
        outcome,
        Outcome::Aborted(AbortReason::ConstraintViolation(ref v)) if v.contains("alcperc_range")
    ));
    // the original value survived
    let beer = mgr.pin();
    assert!(beer
        .database()
        .relation("beer")
        .expect("present")
        .contains(&tuple!["A", "X", 60.0_f64]));
}

#[test]
fn checking_is_deferred_to_commit() {
    // inside one transaction the FK may be transiently violated: insert
    // the beer first, its brewery second — commit-time state is valid
    let mgr = constrained_manager();
    let p = Program::new()
        .then(insert("beer", vec![tuple!["A", "X", 5.0_f64]], &BEER_T))
        .then(insert("brewery", vec![tuple!["X", "NL"]], &BREWERY_T));
    let (outcome, _) = mgr.execute(&p);
    assert!(outcome.is_committed(), "{outcome:?}");
}

#[test]
fn delete_can_break_fk_and_aborts() {
    let mgr = constrained_manager();
    mgr.execute(
        &Program::new()
            .then(insert("brewery", vec![tuple!["X", "NL"]], &BREWERY_T))
            .then(insert("beer", vec![tuple!["A", "X", 5.0_f64]], &BEER_T)),
    );
    // deleting the brewery leaves a dangling beer reference
    let (outcome, _) = mgr.execute(&Program::single(Statement::delete(
        "brewery",
        RelExpr::scan("brewery"),
    )));
    assert!(matches!(
        outcome,
        Outcome::Aborted(AbortReason::ConstraintViolation(_))
    ));
    // cascading manually within one transaction works
    let (outcome, _) = mgr.execute(
        &Program::new()
            .then(Statement::delete("beer", RelExpr::scan("beer")))
            .then(Statement::delete("brewery", RelExpr::scan("brewery"))),
    );
    assert!(outcome.is_committed());
}
