//! Executable forms of the paper's theorems (experiments E1–E4).
//!
//! Each identity is checked both on the worked beer database and on
//! randomly generated multi-set databases; every check evaluates *both*
//! sides with the reference evaluator (the executable definitions) and
//! with the physical engine.

use std::sync::Arc;

use mera::core::prelude::*;
use mera::eval::{eval, Engine};
use mera::expr::{CmpOp, RelExpr, ScalarExpr};
use proptest::prelude::*;

/// Both engines must produce the same relation for both sides.
fn assert_equivalent(a: &RelExpr, b: &RelExpr, db: &Database) {
    let ra = eval(a, db).expect("lhs evaluates");
    let rb = eval(b, db).expect("rhs evaluates");
    assert_eq!(ra, rb, "reference engine: {a}  vs  {b}");
    let pa = Engine::physical().run(a, db).expect("lhs executes");
    let pb = Engine::physical().run(b, db).expect("rhs executes");
    assert_eq!(pa, pb, "physical engine: {a}  vs  {b}");
    assert_eq!(ra, pa, "engines disagree on {a}");
}

fn random_db(r1: Vec<(i64, u64)>, r2: Vec<(i64, u64)>, r3: Vec<(i64, u64)>) -> Database {
    let schema = DatabaseSchema::new()
        .with("e1", Schema::named(&[("a", DataType::Int)]))
        .expect("fresh")
        .with("e2", Schema::named(&[("a", DataType::Int)]))
        .expect("fresh")
        .with("e3", Schema::named(&[("b", DataType::Int)]))
        .expect("fresh");
    let mut db = Database::new(schema);
    for (name, rows) in [("e1", r1), ("e2", r2), ("e3", r3)] {
        let s = Arc::clone(db.schema().get(name).expect("declared"));
        db.replace(
            name,
            Relation::from_counted(s, rows.into_iter().map(|(v, m)| (tuple![v], m)))
                .expect("typed"),
        )
        .expect("replace");
    }
    db
}

fn rows() -> impl Strategy<Value = Vec<(i64, u64)>> {
    proptest::collection::vec(((0i64..6), (1u64..4)), 0..6)
}

fn pred(c: i64) -> ScalarExpr {
    ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::int(c))
}

proptest! {
    /// Theorem 3.1, first identity: E₁ ∩ E₂ = E₁ − (E₁ − E₂). The paper
    /// proves this by the pointwise case split
    /// `max(0, m₁ − max(0, m₁ − m₂)) = min(m₁, m₂)`.
    #[test]
    fn thm_3_1_intersection_desugar(r1 in rows(), r2 in rows(), r3 in rows()) {
        let db = random_db(r1, r2, r3);
        let e1 = RelExpr::scan("e1");
        let e2 = RelExpr::scan("e2");
        let lhs = e1.clone().intersect(e2.clone());
        let rhs = e1.clone().difference(e1.difference(e2));
        assert_equivalent(&lhs, &rhs, &db);
    }

    /// Theorem 3.1, second identity: E₁ ⋈_φ E₂ = σ_φ(E₁ × E₂).
    #[test]
    fn thm_3_1_join_desugar(r1 in rows(), r2 in rows(), r3 in rows(), c in 0i64..6) {
        let db = random_db(r1, r2, r3);
        let phi = ScalarExpr::attr(1)
            .eq(ScalarExpr::attr(2))
            .and(ScalarExpr::attr(2).cmp(CmpOp::Le, ScalarExpr::int(c)));
        let lhs = RelExpr::scan("e1").join(RelExpr::scan("e3"), phi.clone());
        let rhs = RelExpr::scan("e1").product(RelExpr::scan("e3")).select(phi);
        assert_equivalent(&lhs, &rhs, &db);
    }

    /// Theorem 3.2, first law: σ_φ(E₁ ⊎ E₂) = σ_φE₁ ⊎ σ_φE₂.
    #[test]
    fn thm_3_2_selection_distributes_over_union(
        r1 in rows(), r2 in rows(), r3 in rows(), c in 0i64..6
    ) {
        let db = random_db(r1, r2, r3);
        let lhs = RelExpr::scan("e1").union(RelExpr::scan("e2")).select(pred(c));
        let rhs = RelExpr::scan("e1")
            .select(pred(c))
            .union(RelExpr::scan("e2").select(pred(c)));
        assert_equivalent(&lhs, &rhs, &db);
    }

    /// Theorem 3.2, second law: π_a(E₁ ⊎ E₂) = π_aE₁ ⊎ π_aE₂.
    #[test]
    fn thm_3_2_projection_distributes_over_union(r1 in rows(), r2 in rows(), r3 in rows()) {
        let db = random_db(r1, r2, r3);
        let lhs = RelExpr::scan("e1").union(RelExpr::scan("e2")).project(&[1, 1]);
        let rhs = RelExpr::scan("e1")
            .project(&[1, 1])
            .union(RelExpr::scan("e2").project(&[1, 1]));
        assert_equivalent(&lhs, &rhs, &db);
    }

    /// §3.3's caveat: δ does NOT distribute over ⊎, but the weaker
    /// δ(E₁ ⊎ E₂) = δ(δE₁ ⊎ δE₂) always holds.
    #[test]
    fn delta_union_weak_form_holds(r1 in rows(), r2 in rows(), r3 in rows()) {
        let db = random_db(r1, r2, r3);
        let lhs = RelExpr::scan("e1").union(RelExpr::scan("e2")).distinct();
        let rhs = RelExpr::scan("e1")
            .distinct()
            .union(RelExpr::scan("e2").distinct())
            .distinct();
        assert_equivalent(&lhs, &rhs, &db);
    }

    /// Theorem 3.3: ×, ⋈, ⊎ and ∩ are associative.
    #[test]
    fn thm_3_3_associativity(r1 in rows(), r2 in rows(), r3 in rows()) {
        let db = random_db(r1, r2, r3);
        let (e1, e2, e3) = (RelExpr::scan("e1"), RelExpr::scan("e2"), RelExpr::scan("e3"));
        // ⊎ and ∩ (same schema needed: e1, e2 share one)
        let lhs = e1.clone().union(e2.clone()).union(e2.clone());
        let rhs = e1.clone().union(e2.clone().union(e2.clone()));
        assert_equivalent(&lhs, &rhs, &db);
        let lhs = e1.clone().intersect(e2.clone()).intersect(e2.clone());
        let rhs = e1.clone().intersect(e2.clone().intersect(e2.clone()));
        assert_equivalent(&lhs, &rhs, &db);
        // ×
        let lhs = e1.clone().product(e2.clone()).product(e3.clone());
        let rhs = e1.clone().product(e2.clone().product(e3.clone()));
        assert_equivalent(&lhs, &rhs, &db);
        // ⋈ with predicates re-based to the final 3-attribute schema:
        // (e1 ⋈_{%1=%2} e2) ⋈_{%2=%3} e3  =  e1 ⋈_{%1=%2} (e2 ⋈_{%1=%2} e3)
        let lhs = e1
            .clone()
            .join(e2.clone(), ScalarExpr::attr(1).eq(ScalarExpr::attr(2)))
            .join(e3.clone(), ScalarExpr::attr(2).eq(ScalarExpr::attr(3)));
        let rhs = e1.join(
            e2.join(e3, ScalarExpr::attr(1).eq(ScalarExpr::attr(2))),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(2)),
        );
        assert_equivalent(&lhs, &rhs, &db);
    }
}

/// The strict distribution δ(E₁ ⊎ E₂) = δE₁ ⊎ δE₂ FAILS — the concrete
/// counter-example the §3.3 note implies: any element present in both
/// operands.
#[test]
fn delta_union_strict_distribution_fails() {
    let db = random_db(vec![(1, 1)], vec![(1, 1)], vec![]);
    let lhs = RelExpr::scan("e1").union(RelExpr::scan("e2")).distinct();
    let rhs = RelExpr::scan("e1")
        .distinct()
        .union(RelExpr::scan("e2").distinct());
    let l = eval(&lhs, &db).expect("lhs evaluates");
    let r = eval(&rhs, &db).expect("rhs evaluates");
    assert_ne!(l, r, "strict distribution should fail");
    assert_eq!(l.multiplicity(&tuple![1_i64]), 1);
    assert_eq!(r.multiplicity(&tuple![1_i64]), 2);
}

/// The proof obligation inside Theorem 3.1, checked exhaustively over a
/// grid: max(0, m₁ − max(0, m₁ − m₂)) = min(m₁, m₂).
#[test]
fn thm_3_1_pointwise_identity_exhaustive() {
    for m1 in 0u64..50 {
        for m2 in 0u64..50 {
            let lhs = m1.saturating_sub(m1.saturating_sub(m2));
            assert_eq!(lhs, m1.min(m2), "m1={m1}, m2={m2}");
        }
    }
}
