//! Engine differential: the reference evaluator (which never consults
//! indexes) against the physical engine's pipelines at worker counts
//! {1, 3} × batch sizes {1, 7, 1024} × {no indexes, indexes + the cost
//! model's index-join hints} — on random databases and plans, and on the
//! fixed join/group-by workloads over int and interned string keys. On the
//! plans free of − and γ the reference evaluator's 𝔹 instance must also
//! return the support of its ℕ result: ℕ → 𝔹 is a semiring homomorphism,
//! and positive relational algebra commutes with it.

use std::sync::Arc;

use mera::core::prelude::*;
use mera::eval::reference::eval_in;
use mera::eval::{Engine, IndexSet};
use mera::expr::{Aggregate, CmpOp, RelExpr, ScalarExpr};
use mera::opt::{choose_access_paths, CatalogStats};
use proptest::prelude::*;

/// Every engine configuration the differential checks, labelled. Attached
/// indexes are native access paths steered by the hints at every worker
/// count, so the `p=3 +indexes` rows run index lookups and
/// index-nested-loop probes in parallel.
fn engines(e: &RelExpr, db: &Database, indexed: &[&str]) -> Vec<(String, Engine)> {
    let mut indexes = IndexSet::new();
    for rel in indexed {
        indexes.create(db, rel, &[1]).expect("index builds");
    }
    let stats = CatalogStats::from_database(db).expect("analyze");
    let hints = choose_access_paths(e, &stats, &indexes.definitions(), db.schema()).expect("hints");
    let mut out = Vec::new();
    for partitions in [1, 3] {
        for batch in [1, 7, 1024] {
            let engine = Engine::physical()
                .with_partitions(partitions)
                .with_batch_size(batch);
            out.push((format!("p={partitions} batch={batch}"), engine.clone()));
            out.push((
                format!("p={partitions} batch={batch} +indexes"),
                engine
                    .with_indexes(indexes.clone())
                    .with_index_hints(hints.clone()),
            ));
        }
    }
    out
}

fn build_db(rows: Vec<(i64, i64, u64)>) -> Database {
    let schema = DatabaseSchema::new()
        .with(
            "r",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh")
        .with(
            "s",
            Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]),
        )
        .expect("fresh");
    let mut db = Database::new(schema);
    let rs = Arc::clone(db.schema().get("r").expect("declared"));
    db.replace(
        "r",
        Relation::from_counted(rs, rows.iter().map(|&(k, v, m)| (tuple![k, v], m))).expect("typed"),
    )
    .expect("replace");
    let ss = Arc::clone(db.schema().get("s").expect("declared"));
    db.replace(
        "s",
        Relation::from_counted(
            ss,
            rows.iter()
                .rev()
                .map(|&(k, v, m)| (tuple![v % 4, k], m.min(3))),
        )
        .expect("typed"),
    )
    .expect("replace");
    db
}

fn build_expr(shape: u8, c: i64) -> RelExpr {
    let r = RelExpr::scan("r");
    let s = RelExpr::scan("s");
    match shape % 9 {
        0 => r.select(ScalarExpr::attr(1).eq(ScalarExpr::int(c))),
        1 => r.join(s, ScalarExpr::attr(1).eq(ScalarExpr::attr(3))),
        2 => r
            .select(ScalarExpr::attr(1).eq(ScalarExpr::int(c)))
            .join(s, ScalarExpr::attr(2).eq(ScalarExpr::attr(4))),
        3 => r.group_by(&[1], Aggregate::Sum, 2),
        4 => r
            .join(s, ScalarExpr::attr(1).eq(ScalarExpr::attr(3)))
            .group_by(&[3], Aggregate::Cnt, 1),
        5 => r.union(s).project(&[1]).distinct(),
        6 => r
            .select(ScalarExpr::attr(2).cmp(CmpOp::Ge, ScalarExpr::int(c)))
            .difference(s),
        7 => r.project(&[1, 1]).closure(),
        // a point-selected probe side onto indexed `s`: the shape the
        // cost model hints as an index-nested-loop join
        _ => point_join("r", "s", ScalarExpr::int(c)),
    }
}

fn point_join(left: &str, right: &str, key: ScalarExpr) -> RelExpr {
    RelExpr::scan(left)
        .select(ScalarExpr::attr(1).eq(key))
        .join(
            RelExpr::scan(right),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn reference_agrees_with_physical_on_every_schedule(
        rows in proptest::collection::vec(((0i64..5), (0i64..8), (1u64..4)), 0..10),
        shape in 0u8..9,
        c in 0i64..5,
    ) {
        let db = build_db(rows);
        let e = build_expr(shape, c);
        let reference = Engine::reference().run(&e, &db).expect("reference evaluates");
        for (label, engine) in engines(&e, &db, &["r", "s"]) {
            let got = engine.run(&e, &db).expect("physical executes");
            prop_assert_eq!(&got, &reference, "{} differs on {}", label, e);
        }
        // the shapes without − (monus) and γ (aggregates count weights)
        if [0, 1, 2, 5, 7, 8].contains(&shape) {
            let set = eval_in::<bool>(&e, &db).expect("set evaluates");
            prop_assert_eq!(set, reference.lift::<bool>().expect("lifts"), "𝔹 differs on {}", e);
        }
    }
}

/// `(key, value)` rows with a skewed key profile: key `i² mod keys`, so
/// some keys repeat far more often than others.
fn skewed_rows(rows: i64, keys: i64, salt: i64) -> impl Iterator<Item = (i64, i64)> {
    (0..rows).map(move |i| ((i * i + salt) % keys, (i * 37 + salt) % 1_000))
}

/// The join/group-by workload database: `r(k, v)`/`s(k, v)` keyed on
/// ints, `t(k, v)`/`u(k, v)` the same profile keyed on interned strings.
fn workload_db(rows: i64) -> Database {
    let int = || Schema::named(&[("k", DataType::Int), ("v", DataType::Int)]);
    let str = || Schema::named(&[("k", DataType::Str), ("v", DataType::Int)]);
    let schema = DatabaseSchema::new()
        .with("r", int())
        .expect("fresh")
        .with("s", int())
        .expect("fresh")
        .with("t", str())
        .expect("fresh")
        .with("u", str())
        .expect("fresh");
    let mut db = Database::new(schema);
    let keys = rows / 4 + 1;
    for (name, n, salt) in [("r", rows, 1), ("s", rows / 2 + 1, 2)] {
        let rel = Relation::from_counted(
            Arc::new(int()),
            skewed_rows(n, keys, salt).map(|(k, v)| (tuple![k, v], 1)),
        )
        .expect("typed");
        db.replace(name, rel).expect("replace");
    }
    for (name, n, salt) in [("t", rows, 3), ("u", rows / 2 + 1, 4)] {
        let rel = Relation::from_counted(
            Arc::new(str()),
            skewed_rows(n, keys, salt).map(|(k, v)| (tuple![format!("key{k}"), v], 1)),
        )
        .expect("typed");
        db.replace(name, rel).expect("replace");
    }
    db
}

/// `γ(π(σ(left) ⋈ right))`: a whole pipeline with one breaker at the
/// build side and one at the aggregate.
fn join_pipeline(left: &str, right: &str) -> RelExpr {
    RelExpr::scan(left)
        .select(ScalarExpr::attr(2).cmp(CmpOp::Lt, ScalarExpr::int(800)))
        .join(
            RelExpr::scan(right),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
        .project(&[1, 2, 4])
        .group_by(&[1], Aggregate::Sum, 3)
}

#[test]
fn join_and_group_by_workloads_agree() {
    let db = workload_db(2_000);
    let plans = [
        ("join_pipeline", join_pipeline("r", "s")),
        (
            "group_by",
            RelExpr::scan("r").group_by(&[1], Aggregate::Avg, 2),
        ),
        ("string_join", join_pipeline("t", "u")),
        (
            "string_group_by",
            RelExpr::scan("t").group_by(&[1], Aggregate::Sum, 2),
        ),
        ("point_join", point_join("r", "s", ScalarExpr::int(2))),
        (
            "string_point_join",
            point_join("t", "u", ScalarExpr::str("key4")),
        ),
    ];
    for (name, plan) in plans {
        let want = Engine::reference().run(&plan, &db).expect("reference");
        assert!(!want.is_empty(), "{name}: workload must produce rows");
        let engines = engines(&plan, &db, &["s", "u"]);
        if name.ends_with("point_join") {
            // the index-nested-loop cell must not be vacuous
            assert!(
                engines.iter().any(|(_, e)| !e.index_hints().is_empty()),
                "{name}: the cost model should hint the index join"
            );
        }
        for (label, engine) in engines {
            let got = engine.run(&plan, &db).expect("physical executes");
            assert_eq!(got, want, "{name}: {label} diverges from reference");
        }
    }
}
