//! Cross-crate integration: the same queries through every path —
//! algebra API, optimizer, both engines, the XRA language and the SQL
//! front-end — must agree on the paper's worked examples.

use mera::core::prelude::*;
use mera::eval::reference::eval_in;
use mera::eval::{eval, Engine};
use mera::expr::{Aggregate, RelExpr, ScalarExpr};
use mera::lang::{lower_rel, Lowerer, RunResult};
use mera::opt::{reorder_joins, CatalogStats, Optimizer};
use mera::sql::{parse_sql, translate, Translated};
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};

fn open(schema: DatabaseSchema) -> ConcurrentDb<MemStorage> {
    ConcurrentDb::open(MemStorage::new(), schema, StoreOptions::default()).expect("opens")
}

/// Example 3.1 through five different paths.
#[test]
fn example_3_1_five_ways_agree() {
    let db = mera::beer_database();

    // 1. algebra builder + reference evaluator
    let algebra = RelExpr::scan("beer")
        .join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        )
        .select(ScalarExpr::attr(6).eq(ScalarExpr::str("NL")))
        .project(&[1]);
    let reference = eval(&algebra, &db).expect("reference evaluates");

    // 2. physical engine
    let physical = Engine::physical()
        .run(&algebra, &db)
        .expect("physical executes");
    assert_eq!(physical, reference);

    // 3. optimizer + physical engine
    let optimized = Optimizer::standard()
        .optimize(&algebra, db.schema())
        .expect("optimizes");
    let via_optimizer = Engine::physical()
        .run(&optimized.expr, &db)
        .expect("optimized executes");
    assert_eq!(via_optimizer, reference);

    // 4. XRA language
    let lowerer = Lowerer::new(db.schema());
    let parsed =
        mera::lang::parse_rel("project[%1](select[country = 'NL'](join[%2 = %4](beer, brewery)))")
            .expect("parses");
    let via_lang =
        eval(&lowerer.lower_rel(&parsed).expect("lowers"), &db).expect("lowered form evaluates");
    assert_eq!(via_lang, reference);

    // 5. SQL
    let sql = parse_sql(
        "SELECT beer.name FROM beer, brewery \
         WHERE beer.brewery = brewery.name AND country = 'NL'",
    )
    .expect("parses");
    let Translated::Query(sq) = translate(&sql, db.schema()).expect("translates") else {
        panic!("expected a query");
    };
    let via_sql = eval(&sq, &db).expect("sql form evaluates");
    assert_eq!(via_sql, reference);

    // the headline fact: duplicates are preserved
    assert_eq!(reference.multiplicity(&tuple!["Bock"]), 2);
    assert_eq!(reference.len(), 5);
}

/// Example 3.2 through the SQL text the paper prints, compared against
/// the algebra forms and the set-semantics baseline.
#[test]
fn example_3_2_sql_algebra_and_baseline() {
    let db = mera::beer_database();
    let join = RelExpr::scan("beer").join(
        RelExpr::scan("brewery"),
        ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
    );
    let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
    let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);

    let want = eval(&direct, &db).expect("direct evaluates");
    assert_eq!(eval(&reduced, &db).expect("reduced evaluates"), want);

    // SQL text from the paper
    let sql = parse_sql(
        "SELECT country, AVG(alcperc) FROM beer, brewery \
         WHERE beer.brewery = brewery.name GROUP BY country",
    )
    .expect("parses");
    let Translated::Query(sq) = translate(&sql, db.schema()).expect("translates") else {
        panic!("expected a query");
    };
    assert_eq!(eval(&sq, &db).expect("evaluates"), want);

    // the set-semantics baseline (the 𝔹 instance) diverges on the
    // reduced form
    let want = want.lift::<bool>().expect("lifts");
    let set = |e| eval_in::<bool>(e, &db).expect("set evaluates");
    assert_eq!(set(&direct), want); // no dups before γ here
    assert_ne!(set(&reduced), want);
}

/// A full XRA session: schema DDL, loading, querying, transactions, abort.
#[test]
fn xra_session_full_lifecycle() {
    let db = open(DatabaseSchema::new());
    let results = db
        .run_script(
            "relation beer (name: str, brewery: str, alcperc: real);\n\
             relation brewery (name: str, city: str, country: str);\n\
             begin\n\
               insert(beer, values (str, str, real) {\n\
                 ('Grolsch','Grolsche',5.0), ('Heineken','Heineken',5.0),\n\
                 ('Amstel','Heineken',5.1), ('Guinness','StJames',4.2),\n\
                 ('Bock','Grolsche',6.5), ('Bock','Heineken',6.3)\n\
               });\n\
               insert(brewery, values (str, str, str) {\n\
                 ('Grolsche','Enschede','NL'), ('Heineken','Amsterdam','NL'),\n\
                 ('StJames','Dublin','IE')\n\
               });\n\
             end;\n\
             -- per-country average, with a temporary\n\
             begin\n\
               joined = join[%2 = %4](beer, brewery);\n\
               ?groupby[(%6), AVG, %3](joined);\n\
             end;",
        )
        .expect("script runs");
    assert_eq!(results.len(), 2);
    let RunResult::Committed(outs) = &results[1] else {
        panic!("report transaction committed");
    };
    let nl = (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5.0;
    assert_eq!(outs[0].multiplicity(&tuple!["NL", nl]), 1);

    // the temporary did not leak
    let version = db.pin();
    assert!(lower_rel(&version.catalog_schema(), "joined").is_err());

    // aborted transaction leaves everything intact
    let before = version.database().clone();
    let results = db
        .run_script(
            "begin\n\
               delete(beer, beer);\n\
               ?groupby[(), MIN, %3](beer);\n\
             end;",
        )
        .expect("script lowers");
    assert!(matches!(results[0], RunResult::Aborted(_)));
    assert_eq!(
        db.pin().database().relation("beer").expect("present"),
        before.relation("beer").expect("present")
    );
}

/// The SQL path end-to-end, including DML.
#[test]
fn sql_manager_lifecycle() {
    let db = open(mera::beer_schema());
    db.run_sql("INSERT INTO beer VALUES ('A','X',4.0), ('B','X',5.0), ('B','X',5.0)")
        .expect("insert");
    // bag counting: B appears twice
    let out = db
        .run_sql("SELECT COUNT(*) FROM beer")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple![3_i64]), 1);
    db.run_sql("UPDATE beer SET alcperc = alcperc + 1.0 WHERE name = 'B'")
        .expect("update");
    let out = db
        .run_sql("SELECT DISTINCT alcperc FROM beer")
        .expect("runs")
        .expect("output");
    assert!(out.contains(&tuple![6.0_f64]));
    db.run_sql("DELETE FROM beer WHERE name = 'B'")
        .expect("delete");
    let out = db
        .run_sql("SELECT COUNT(*) FROM beer")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple![1_i64]), 1);
}

/// Join reordering on the beer schema preserves the worked results.
#[test]
fn join_reordering_on_beer_database() {
    let db = mera::beer_database();
    let stats = CatalogStats::from_database(&db).expect("analyze");
    // a 3-way chain: beer ⋈ brewery ⋈ beer (self-join on brewery name)
    let e = RelExpr::scan("beer")
        .join(
            RelExpr::scan("brewery"),
            ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
        )
        .join(
            RelExpr::scan("beer"),
            ScalarExpr::attr(4).eq(ScalarExpr::attr(8)),
        );
    let reordered = reorder_joins(&e, &stats, db.schema()).expect("reorders");
    assert_eq!(
        eval(&reordered, &db).expect("reordered evaluates"),
        eval(&e, &db).expect("original evaluates")
    );
}

/// Optimizer, reference and physical engines agree on a grid of shapes
/// over the beer database (a compact sanity matrix).
#[test]
fn engine_matrix_on_beer_database() {
    let db = mera::beer_database();
    let exprs = vec![
        RelExpr::scan("beer").project(&[3]),
        RelExpr::scan("beer").project(&[3]).distinct(),
        RelExpr::scan("beer")
            .select(ScalarExpr::attr(3).cmp(mera::expr::CmpOp::Gt, ScalarExpr::real(5.0)))
            .union(RelExpr::scan("beer")),
        RelExpr::scan("beer").difference(
            RelExpr::scan("beer").select(ScalarExpr::attr(2).eq(ScalarExpr::str("Heineken"))),
        ),
        RelExpr::scan("beer")
            .product(RelExpr::scan("brewery"))
            .select(
                ScalarExpr::attr(2)
                    .eq(ScalarExpr::attr(4))
                    .and(ScalarExpr::attr(6).eq(ScalarExpr::str("NL"))),
            )
            .group_by(&[6], Aggregate::Cnt, 1),
        RelExpr::scan("beer").group_by(&[2], Aggregate::Min, 3),
        RelExpr::scan("beer").group_by(&[], Aggregate::Sum, 3),
        RelExpr::scan("beer").ext_project(vec![
            ScalarExpr::attr(1),
            ScalarExpr::attr(3).mul(ScalarExpr::real(2.0)),
        ]),
    ];
    let opt = Optimizer::standard();
    for e in exprs {
        let want = eval(&e, &db).expect("reference evaluates");
        assert_eq!(
            Engine::physical().run(&e, &db).expect("physical"),
            want,
            "physical: {e}"
        );
        let optimized = opt.optimize(&e, db.schema()).expect("optimizes");
        assert_eq!(
            Engine::physical()
                .run(&optimized.expr, &db)
                .expect("optimized"),
            want,
            "optimized {} -> {}",
            e,
            optimized.expr
        );
    }
}
