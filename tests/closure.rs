//! The transitive closure extension (paper §5): unit cases on known
//! graphs, engine agreement, language round-trip, and the closure laws as
//! property tests.

use std::sync::Arc;

use mera::core::prelude::*;
use mera::eval::{eval, Engine};
use mera::expr::RelExpr;
use mera::lang::lower_rel;
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::ExecConfig;
use proptest::prelude::*;

fn edge_db(edges: &[(i64, i64)]) -> Database {
    let schema = DatabaseSchema::new()
        .with(
            "edge",
            Schema::named(&[("src", DataType::Int), ("dst", DataType::Int)]),
        )
        .expect("fresh");
    let mut db = Database::new(schema);
    let s = Arc::clone(db.schema().get("edge").expect("declared"));
    db.replace(
        "edge",
        Relation::from_tuples(s, edges.iter().map(|&(a, b)| tuple![a, b])).expect("typed"),
    )
    .expect("replace");
    db
}

#[test]
fn path_graph_closes_to_all_descendant_pairs() {
    // 1 → 2 → 3 → 4
    let db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
    let out = eval(&RelExpr::scan("edge").closure(), &db).expect("evaluates");
    let expected = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)];
    assert_eq!(out.len(), expected.len() as u64);
    for (a, b) in expected {
        assert_eq!(out.multiplicity(&tuple![a, b]), 1, "missing ({a},{b})");
    }
}

#[test]
fn cycles_terminate_with_multiplicity_one() {
    // a 3-cycle: every ordered pair (including self-loops via the cycle)
    let db = edge_db(&[(1, 2), (2, 3), (3, 1)]);
    let out = eval(&RelExpr::scan("edge").closure(), &db).expect("evaluates");
    assert_eq!(out.len(), 9); // 3×3 pairs, each exactly once
    for a in 1..=3_i64 {
        for b in 1..=3_i64 {
            assert_eq!(out.multiplicity(&tuple![a, b]), 1);
        }
    }
}

#[test]
fn duplicate_edges_do_not_multiply() {
    // the bag has the edge (1,2) three times; closure is δ-based
    let schema = DatabaseSchema::new()
        .with(
            "edge",
            Schema::named(&[("src", DataType::Int), ("dst", DataType::Int)]),
        )
        .expect("fresh");
    let mut db = Database::new(schema);
    let s = Arc::clone(db.schema().get("edge").expect("declared"));
    db.replace(
        "edge",
        Relation::from_counted(
            s,
            vec![(tuple![1_i64, 2_i64], 3), (tuple![2_i64, 3_i64], 1)],
        )
        .expect("typed"),
    )
    .expect("replace");
    let out = eval(&RelExpr::scan("edge").closure(), &db).expect("evaluates");
    assert_eq!(out.multiplicity(&tuple![1_i64, 2_i64]), 1);
    assert_eq!(out.multiplicity(&tuple![1_i64, 3_i64]), 1);
    assert_eq!(out.len(), 3);
}

#[test]
fn closure_schema_requirements() {
    // wrong arity
    let db = mera::beer_database();
    let bad = RelExpr::scan("beer").closure();
    assert!(eval(&bad, &db).is_err());
    // mismatched domains: (str, int)
    let schema = DatabaseSchema::new()
        .with(
            "m",
            Schema::named(&[("a", DataType::Str), ("b", DataType::Int)]),
        )
        .expect("fresh");
    let db = Database::new(schema);
    assert!(eval(&RelExpr::scan("m").closure(), &db).is_err());
}

#[test]
fn closure_through_the_language() {
    let db = ConcurrentDb::open(
        MemStorage::new(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("opens");
    db.run_script(
        "relation parent (child: str, parent: str);\n\
         insert(parent, values (str, str) {\n\
           ('a','b'), ('b','c'), ('c','d')\n\
         });",
    )
    .expect("setup");
    let version = db.pin();
    let query = |src| {
        let expr = lower_rel(&version.catalog_schema(), src).expect("lowers");
        version
            .query(&expr, ExecConfig::default())
            .expect("queries")
    };
    // ancestors: the classic recursive query the paper's §5 points to
    let ancestors = query("closure(parent)");
    assert_eq!(ancestors.len(), 6);
    assert!(ancestors.contains(&tuple!["a", "d"]));
    // compose with the rest of the algebra
    let of_a = query("project[%2](select[%1 = 'a'](closure(parent)))");
    assert_eq!(of_a.len(), 3);
}

proptest! {
    /// Closure laws on random graphs over a small node universe:
    /// idempotence, containment of δE, transitivity, and engine agreement.
    #[test]
    fn closure_laws(edges in proptest::collection::vec((0i64..6, 0i64..6), 0..15)) {
        let db = edge_db(&edges);
        let e = RelExpr::scan("edge");
        let closed = eval(&e.clone().closure(), &db).expect("reference closure");

        // both engines agree
        let physical = Engine::physical().run(&e.clone().closure(), &db).expect("physical closure");
        prop_assert_eq!(&physical, &closed);

        // contains δE
        let base = eval(&e.clone().distinct(), &db).expect("distinct");
        prop_assert!(base.is_submultiset(&closed).expect("same schema"));

        // idempotent: α(α(E)) = α(E)
        let twice = eval(&e.closure().closure(), &db).expect("double closure");
        prop_assert_eq!(&twice, &closed);

        // transitive: (a,b) ∈ α(E) ∧ (b,c) ∈ α(E) ⇒ (a,c) ∈ α(E)
        for (x, _) in closed.iter() {
            for (y, _) in closed.iter() {
                if x.attr(2).expect("dst") == y.attr(1).expect("src") {
                    let through = tuple![
                        x.attr(1).expect("src").clone(),
                        y.attr(2).expect("dst").clone()
                    ];
                    prop_assert!(
                        closed.contains(&through),
                        "missing transitive pair {through} in {closed}"
                    );
                }
            }
        }

        // duplicate-free
        prop_assert!(closed.iter().all(|(_, m)| m == 1));
    }
}
