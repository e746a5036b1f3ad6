//! Golden-file tests for diagnostic rendering.
//!
//! Each case builds an intentionally bad (or suspicious) program over the
//! paper's beer/brewery schema, runs the program analyzer, and compares
//! the *exact* rendered output against `tests/golden/<name>.txt`. The
//! rendering is part of the analyzer's contract — codes are stable and
//! messages are deterministic — so any change here must be deliberate.
//!
//! To regenerate a golden file after an intentional change, run with
//! `MERA_BLESS=1` and commit the rewritten files.

use mera::analyze::render;
use mera::core::prelude::*;
use mera::expr::{Aggregate, RelExpr, ScalarExpr};
use mera::txn::{Ddl, DdlError, MvccManager, Program, Statement};

fn beer_db() -> Database {
    Database::new(mera::beer_schema())
}

fn check(name: &str, golden: &str, program: &Program) {
    let db = beer_db();
    let diags = mera::txn::exec::analyze_program(&db, program);
    let actual = render(&diags);
    if std::env::var_os("MERA_BLESS").is_some() {
        let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual, golden,
        "\n-- rendered diagnostics for `{name}` diverge from golden file --\n\
         actual:\n{actual}\n"
    );
}

/// Compares an already-rendered diagnostic string against its golden
/// file — for diagnostics produced outside the program analyzer (the
/// key-constraint path reports at declaration and commit time).
fn check_rendered(name: &str, golden: &str, actual: &str) {
    if std::env::var_os("MERA_BLESS").is_some() {
        let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    assert_eq!(
        actual, golden,
        "\n-- rendered diagnostics for `{name}` diverge from golden file --\n\
         actual:\n{actual}\n"
    );
}

/// Admits `ddl` with no durability hook.
fn admit(mgr: &MvccManager, ddl: Ddl) -> Result<bool, DdlError> {
    mgr.ddl(&ddl, || Ok(()))
}

/// `key relation(%1)`.
fn key(relation: &str) -> Ddl {
    let (relation, attrs) = (relation.to_owned(), vec![1]);
    Ddl::Key { relation, attrs }
}

/// A manager over the beer schema with `key beer(name)` declared.
fn keyed_beer_manager() -> MvccManager {
    let mgr = mera::txn::MvccManager::new(mera::beer_schema());
    let p = Program::single(Statement::insert(
        "beer",
        RelExpr::values(
            Relation::from_tuples(
                std::sync::Arc::new(Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ])),
                vec![tuple!["Grolsch", "Grolsche", 5.0]],
            )
            .expect("typed literal"),
        ),
    ));
    let (outcome, _) = mgr.execute(&p);
    assert!(outcome.is_committed());
    admit(&mgr, key("beer")).expect("key declares");
    mgr
}

#[test]
fn key_violation_at_commit() {
    // inserting a second 'Grolsch' exceeds the per-key-point bound; the
    // commit aborts with the E0401 diagnostic before anything installs
    let mgr = keyed_beer_manager();
    let p = Program::single(Statement::insert(
        "beer",
        RelExpr::values(
            Relation::from_tuples(
                std::sync::Arc::new(Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ])),
                vec![tuple!["Grolsch", "Grolsche", 6.5]],
            )
            .expect("typed literal"),
        ),
    ));
    let (outcome, _) = mgr.execute(&p);
    let mera::txn::Outcome::Aborted(mera::txn::AbortReason::KeyViolation(diag)) = outcome else {
        panic!("violating insert must abort on the key, got {outcome:?}");
    };
    check_rendered(
        "key_violation_at_commit",
        include_str!("golden/key_violation_at_commit.txt"),
        &render(&[diag]),
    );
}

#[test]
fn key_on_view_is_rejected() {
    // keys constrain base relations; a materialized view's contents are
    // derived, so declaring a key on one is refused with E0402
    let mgr = keyed_beer_manager();
    let strong = Ddl::View {
        name: "strong".to_owned(),
        expr: RelExpr::scan("beer").select(ScalarExpr::bool(true)),
    };
    admit(&mgr, strong).expect("view defines");
    let err = admit(&mgr, key("strong")).expect_err("key on a view must be rejected");
    let DdlError::Rejected(diags) = err else {
        panic!("expected a diagnostic rejection, got {err:?}");
    };
    check_rendered(
        "key_on_view",
        include_str!("golden/key_on_view.txt"),
        &render(&diags),
    );
}

#[test]
fn duplicate_key_declaration_is_rejected() {
    // the same attribute set declared twice: E0403 names the extant key
    let mgr = keyed_beer_manager();
    let err = admit(&mgr, key("beer")).expect_err("re-declaration must be rejected");
    let DdlError::Rejected(diags) = err else {
        panic!("expected a diagnostic rejection, got {err:?}");
    };
    check_rendered(
        "duplicate_key_declaration",
        include_str!("golden/duplicate_key_declaration.txt"),
        &render(&diags),
    );
}

#[test]
fn unresolved_attribute() {
    // π_%5 over arity-3 beer
    let p = Program::single(Statement::query(RelExpr::scan("beer").project(&[5])));
    check(
        "unresolved_attribute",
        include_str!("golden/unresolved_attribute.txt"),
        &p,
    );
}

#[test]
fn unknown_relation() {
    let p = Program::new()
        .then(Statement::query(RelExpr::scan("nosuch")))
        .then(Statement::insert("alehouse", RelExpr::scan("beer")));
    check(
        "unknown_relation",
        include_str!("golden/unknown_relation.txt"),
        &p,
    );
}

#[test]
fn type_mismatched_extended_projection() {
    // name * 2 (str × int) and alcperc + name (real + str) are both
    // ill-typed; every clash is reported, not just the first
    let p = Program::single(Statement::query(RelExpr::scan("beer").ext_project(vec![
        ScalarExpr::attr(1).mul(ScalarExpr::int(2)),
        ScalarExpr::attr(3).add(ScalarExpr::attr(1)),
    ])));
    check(
        "type_mismatched_extended_projection",
        include_str!("golden/type_mismatched_extended_projection.txt"),
        &p,
    );
}

#[test]
fn incompatible_union_operands() {
    // beer (str, str, real) ⊎ brewery (str, str, str)
    let p = Program::single(Statement::query(
        RelExpr::scan("beer").union(RelExpr::scan("brewery")),
    ));
    check(
        "incompatible_union_operands",
        include_str!("golden/incompatible_union_operands.txt"),
        &p,
    );
}

#[test]
fn partial_aggregates() {
    // stmt 0: AVG over beer, empty *right now* — E0102 against live state
    // stmt 1: MIN over a σ_false, provably empty under any state — E0102
    // stmt 2: insert a literal, then AVG is provably safe — no diagnostic
    let p = Program::new()
        .then(Statement::query(RelExpr::scan("beer").group_by(
            &[],
            Aggregate::Avg,
            3,
        )))
        .then(Statement::query(
            RelExpr::scan("beer")
                .select(ScalarExpr::bool(false))
                .group_by(&[], Aggregate::Min, 3),
        ))
        .then(Statement::insert(
            "brewery",
            RelExpr::values(
                Relation::from_tuples(
                    std::sync::Arc::new(Schema::named(&[
                        ("name", DataType::Str),
                        ("city", DataType::Str),
                        ("country", DataType::Str),
                    ])),
                    vec![tuple!["StJames", "Dublin", "IE"]],
                )
                .expect("typed literal"),
            ),
        ))
        .then(Statement::query(RelExpr::scan("brewery").group_by(
            &[],
            Aggregate::Max,
            2,
        )));
    check(
        "partial_aggregates",
        include_str!("golden/partial_aggregates.txt"),
        &p,
    );
}

#[test]
fn update_changes_schema() {
    // dropping to a single attribute violates structure preservation
    let p = Program::single(Statement::update(
        "beer",
        RelExpr::scan("beer"),
        vec![ScalarExpr::attr(1)],
    ));
    check(
        "update_changes_schema",
        include_str!("golden/update_changes_schema.txt"),
        &p,
    );
}

#[test]
fn temporaries_and_shadowing() {
    // stmt 0: shadowing the database relation `beer` — E0006
    // stmt 1: a legal temporary
    // stmt 2: DML targeting the temporary — E0002 with a note
    let p = Program::new()
        .then(Statement::assign("beer", RelExpr::scan("brewery")))
        .then(Statement::assign("strong", RelExpr::scan("beer")))
        .then(Statement::delete("strong", RelExpr::scan("strong")));
    check(
        "temporaries_and_shadowing",
        include_str!("golden/temporaries_and_shadowing.txt"),
        &p,
    );
}
