//! The one front door for text: XRA scripts and SQL statements run through
//! [`ConcurrentDb`] (here over volatile [`MemStorage`]); reads, checks and
//! EXPLAIN are functions of a pinned version with the [`ExecConfig`]
//! passed per call.

use mera::analyze::Code;
use mera::core::prelude::*;
use mera::core::tuple;
use mera::lang::{check_script, lower_rel, LangResult, RunResult};
use mera::sql::{check_sql, explain_sql};
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::ExecConfig;

type Db = ConcurrentDb<MemStorage>;

fn open(schema: DatabaseSchema) -> Db {
    ConcurrentDb::open(MemStorage::new(), schema, StoreOptions::default()).expect("opens")
}

/// Evaluates `src` (as `?E`) at the newest version without touching the
/// database; views are served from their maintained contents.
fn query(db: &Db, src: &str) -> LangResult<Relation> {
    let version = db.pin();
    let expr = lower_rel(&version.catalog_schema(), src)?;
    Ok(version.query(&expr, ExecConfig::default())?)
}

/// Renders the plan `src` gets at the newest version.
fn explain(db: &Db, src: &str) -> LangResult<String> {
    let version = db.pin();
    let expr = lower_rel(&version.catalog_schema(), src)?;
    Ok(version.explain(&expr, ExecConfig::default())?)
}

/// The beer database of the paper's examples, loaded through SQL.
fn loaded_db() -> Db {
    let db = open(mera::beer_schema());
    db.run_sql(
        "INSERT INTO beer VALUES \
         ('Grolsch', 'Grolsche', 5.0), \
         ('Heineken', 'Heineken', 5.0), \
         ('Amstel', 'Heineken', 5.1), \
         ('Bock', 'Grolsche', 6.5), \
         ('Bock', 'Heineken', 6.3), \
         ('Guinness', 'StJames', 4.2)",
    )
    .expect("insert beers");
    db.run_sql(
        "INSERT INTO brewery VALUES \
         ('Grolsche', 'Enschede', 'NL'), \
         ('Heineken', 'Amsterdam', 'NL'), \
         ('StJames', 'Dublin', 'IE')",
    )
    .expect("insert breweries");
    db
}

// ----------------------------------------------------------------------
// XRA scripts
// ----------------------------------------------------------------------

#[test]
fn script_end_to_end() {
    let db = open(DatabaseSchema::new());
    let results = db
        .run_script(
            "relation beer (name: str, brewery: str, alcperc: real);\n\
             begin\n\
               insert(beer, values (str, str, real) {\n\
                 ('Grolsch', 'Grolsche', 5.0),\n\
                 ('GuinekenPils', 'Guineken', 5.0)\n\
               });\n\
             end;\n\
             ?select[brewery = 'Guineken'](beer);",
        )
        .expect("script runs");
    assert_eq!(results.len(), 2);
    let RunResult::Committed(ref outs) = results[1] else {
        panic!("query transaction committed");
    };
    assert_eq!(outs[0].len(), 1);
    assert!(outs[0].contains(&tuple!["GuinekenPils", "Guineken", 5.0_f64]));
}

#[test]
fn example_4_1_via_source() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation beer (name: str, brewery: str, alcperc: real);\n\
         insert(beer, values (str, str, real) {('GuinekenPils','Guineken',5.0)});",
    )
    .expect("setup");
    let results = db
        .run_script(
            "update(beer, select[brewery = 'Guineken'](beer),\n\
                     (name, brewery, alcperc * 1.1));\n\
             ?beer;",
        )
        .expect("update runs");
    let RunResult::Committed(ref outs) = results[1] else {
        panic!("committed");
    };
    assert!(outs[0].contains(&tuple!["GuinekenPils", "Guineken", 5.5_f64]));
}

#[test]
fn aborted_transaction_leaves_database_unchanged() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int);").expect("declares");
    let results = db
        .run_script(
            "begin\n\
               insert(r, values (int) {(1)});\n\
               ?groupby[(), AVG, %1](select[false](r));\n\
             end;",
        )
        .expect("script parses and lowers");
    assert!(matches!(results[0], RunResult::Aborted(ref m) if m.contains("AVG")));
    // the insert rolled back
    let out = query(&db, "r").expect("queries");
    assert!(out.is_empty());
}

#[test]
fn check_script_reports_without_executing() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int, b: str);")
        .expect("declares");
    let before = db.pin().database().clone();
    let catalog = db.pin().catalog_schema();
    // E0102: AVG over a provably-empty input
    let diags = check_script(&catalog, "?groupby[(), AVG, %1](select[false](r));").expect("checks");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0][0].code, Code::PartialAggregateOnEmpty);
    // W0101: AVG over a relation of unknown cardinality — a warning,
    // so the program would still be admitted for execution
    let diags = check_script(&catalog, "?groupby[(), AVG, %1](r);").expect("checks");
    assert_eq!(diags[0][0].code, Code::PartialAggregateMayBeUndefined);
    assert!(!mera::analyze::has_errors(&diags[0]));
    // declarations inside the checked script resolve but do not install
    let diags = check_script(&catalog, "relation s (x: int); ?s;").expect("checks");
    assert!(diags.iter().all(|d| d.is_empty()));
    assert_eq!(db.pin().database(), &before);
}

#[test]
fn statically_bad_transaction_aborts_with_diagnostic() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int);").expect("declares");
    // inserting strings into an int relation: lowering is structural
    // and lets it through; the analyzer rejects it (E0004) before the
    // engine would have
    let results = db
        .run_script("insert(r, values (str) {('x')});")
        .expect("parses and lowers");
    let RunResult::Aborted(ref msg) = results[0] else {
        panic!("expected abort, got {:?}", results[0]);
    };
    assert!(msg.contains("static analysis rejected"), "{msg}");
    assert!(msg.contains("E0004"), "{msg}");
}

#[test]
fn query_mode_is_side_effect_free() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int); insert(r, values (int) {(1),(1)});")
        .expect("setup");
    let before = db.pin().database().clone();
    let out = query(&db, "unique(r)").expect("queries");
    assert_eq!(out.len(), 1);
    assert_eq!(db.pin().database(), &before);
}

#[test]
fn view_script_declares_and_maintains() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation sales (region: str, amount: int);\n\
         view totals = groupby[(region), SUM, amount](sales);",
    )
    .expect("declares view");
    assert!(db.pin().views().contains("totals"));
    db.run_script("insert(sales, values (str, int) {('north', 10), ('north', 5), ('south', 7)});")
        .expect("inserts");
    let out = query(&db, "totals").expect("view is readable");
    assert_eq!(out.len(), 2);
    assert!(out.contains(&tuple!["north", 15_i64]));
    assert!(out.contains(&tuple!["south", 7_i64]));
    // views compose in queries like any relation
    let out = query(&db, "select[%2 > 10](totals)").expect("view composes");
    assert_eq!(out.len(), 1);
    // deletes retract through the view
    db.run_script("delete(sales, values (str, int) {('south', 7)});")
        .expect("deletes");
    let out = query(&db, "totals").expect("view is readable");
    assert_eq!(out.len(), 1);
    assert!(out.contains(&tuple!["north", 15_i64]));
}

#[test]
fn view_name_resolves_in_later_script_items() {
    let db = open(DatabaseSchema::new());
    let results = db
        .run_script(
            "relation r (a: int);\n\
             insert(r, values (int) {(1), (2), (3)});\n\
             view big = select[%1 > 1](r);\n\
             ?big union big;",
        )
        .expect("runs");
    let RunResult::Committed(ref outs) = results[1] else {
        panic!("query committed: {:?}", results[1]);
    };
    assert_eq!(outs[0].len(), 4);
}

#[test]
fn dml_on_view_is_rejected() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation r (a: int);\n\
         view v = unique(r);",
    )
    .expect("declares");
    let results = db
        .run_script("insert(v, values (int) {(1)});")
        .expect("parses and lowers");
    let RunResult::Aborted(ref msg) = results[0] else {
        panic!("expected abort, got {:?}", results[0]);
    };
    assert!(msg.contains("E0302"), "{msg}");
}

#[test]
fn partial_view_definition_is_rejected() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int);").expect("declares");
    let err = db
        .run_script("view avg = groupby[(), AVG, %1](r);")
        .expect_err("partial view rejected");
    let msg = err.to_string();
    assert!(msg.contains("E0303"), "{msg}");
    assert!(!db.pin().views().contains("avg"));
}

#[test]
fn check_script_reports_view_diagnostics_first() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int);").expect("declares");
    let diags = check_script(
        &db.pin().catalog_schema(),
        "view avg = groupby[(), AVG, %1](r);\n\
         ?r;",
    )
    .expect("checks");
    assert_eq!(diags.len(), 2);
    assert_eq!(diags[0][0].code, Code::PartialView);
    assert!(diags[1].is_empty());
}

#[test]
fn script_declared_key_is_enforced_at_commit() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation member (name: str, town: str);\n\
         key member (name);\n\
         insert(member, values (str, str) {('dick', 'enschede')});",
    )
    .expect("declares and inserts");
    assert!(db.pin().keys().is_declared("member", &[1]));
    // a second tuple at the same key point aborts with E0401 and
    // leaves the database unchanged
    let results = db
        .run_script("insert(member, values (str, str) {('dick', 'hengelo')});")
        .expect("parses and lowers");
    let RunResult::Aborted(ref msg) = results[0] else {
        panic!("expected abort, got {:?}", results[0]);
    };
    assert!(msg.contains("E0401"), "{msg}");
    assert_eq!(query(&db, "member").expect("queries").len(), 1);
    // replacing the tuple in one transaction is fine: the *net* delta
    // at the key point stays within bounds
    let results = db
        .run_script(
            "begin\n\
               delete(member, select[town = 'enschede'](member));\n\
               insert(member, values (str, str) {('dick', 'hengelo')});\n\
             end;",
        )
        .expect("parses and lowers");
    assert!(matches!(results[0], RunResult::Committed(_)));
    let out = query(&db, "member").expect("queries");
    assert!(out.contains(&tuple!["dick", "hengelo"]));
}

#[test]
fn key_on_view_and_duplicate_key_are_rejected() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation r (a: int);\n\
         view v = unique(r);\n\
         key r (a);",
    )
    .expect("declares");
    let err = db.run_script("key v (%1);").expect_err("rejected");
    assert!(err.to_string().contains("E0402"), "{err}");
    let err = db.run_script("key r (%1);").expect_err("rejected");
    assert!(err.to_string().contains("E0403"), "{err}");
}

#[test]
fn key_declaration_over_violating_data_is_rejected() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation r (a: int, b: int);\n\
         insert(r, values (int, int) {(1, 10), (1, 20)});",
    )
    .expect("setup");
    let err = db.run_script("key r (a);").expect_err("rejected");
    assert!(err.to_string().contains("E0401"), "{err}");
    assert!(!db.pin().keys().is_declared("r", &[1]));
    // the two-attribute key holds, so it installs
    db.run_script("key r (a, b);").expect("declares");
    assert!(db.pin().keys().is_declared("r", &[1, 2]));
}

#[test]
fn declared_key_licenses_delta_elimination_in_queries() {
    let db = open(DatabaseSchema::new());
    db.run_script(
        "relation r (a: int, b: int);\n\
         key r (a);\n\
         insert(r, values (int, int) {(1, 10), (2, 20)});",
    )
    .expect("setup");
    // δ over a keyed relation is the identity; the plan drops it
    let plan = explain(&db, "unique(r)").expect("explains");
    assert!(
        !plan.contains("distinct"),
        "keyed input must license \u{3b4}-elimination:\n{plan}"
    );
    let out = query(&db, "unique(r)").expect("queries");
    assert_eq!(out.len(), 2);
}

#[test]
fn parse_errors_do_not_mutate() {
    let db = open(DatabaseSchema::new());
    db.run_script("relation r (a: int);").expect("setup");
    let before = db.pin().database().clone();
    assert!(db.run_script("insert(r values);").is_err());
    assert_eq!(db.pin().database(), &before);
}

// ----------------------------------------------------------------------
// SQL statements
// ----------------------------------------------------------------------

#[test]
fn example_3_2_executes_with_bag_semantics() {
    let db = loaded_db();
    let out = db
        .run_sql(
            "SELECT country, AVG(alcperc) FROM beer, brewery \
             WHERE beer.brewery = brewery.name GROUP BY country",
        )
        .expect("runs")
        .expect("query output");
    let nl = (5.0 + 5.0 + 5.1 + 6.5 + 6.3) / 5.0;
    assert_eq!(out.multiplicity(&tuple!["NL", nl]), 1);
    assert_eq!(out.multiplicity(&tuple!["IE", 4.2_f64]), 1);
}

#[test]
fn example_4_1_update() {
    let db = loaded_db();
    db.run_sql("UPDATE beer SET alcperc = alcperc * 1.1 WHERE brewery = 'Heineken'")
        .expect("updates");
    let out = db
        .run_sql("SELECT alcperc FROM beer WHERE name = 'Amstel'")
        .expect("runs")
        .expect("query output");
    assert_eq!(out.multiplicity(&tuple![5.1 * 1.1]), 1);
}

#[test]
fn plain_select_preserves_duplicates() {
    let db = loaded_db();
    let out = db
        .run_sql("SELECT alcperc FROM beer")
        .expect("runs")
        .expect("output");
    assert_eq!(out.len(), 6);
    assert_eq!(out.multiplicity(&tuple![5.0_f64]), 2);
    // DISTINCT collapses them
    let out = db
        .run_sql("SELECT DISTINCT alcperc FROM beer")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple![5.0_f64]), 1);
}

#[test]
fn select_star_and_qualified_columns() {
    let db = loaded_db();
    let out = db
        .run_sql("SELECT * FROM beer, brewery WHERE beer.brewery = brewery.name")
        .expect("runs")
        .expect("output");
    assert_eq!(out.schema().arity(), 6);
    assert_eq!(out.len(), 6);
    // ambiguous unqualified 'name' is an error
    let err = db.run_sql("SELECT name FROM beer, brewery").unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
}

#[test]
fn count_star_and_having() {
    let db = loaded_db();
    let out = db
        .run_sql("SELECT brewery, COUNT(*) FROM beer GROUP BY brewery HAVING COUNT(*) > 1")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple!["Heineken", 3_i64]), 1);
    assert_eq!(out.multiplicity(&tuple!["Grolsche", 2_i64]), 1);
    assert_eq!(out.len(), 2); // StJames (1 beer) filtered by HAVING
}

#[test]
fn select_list_reorders_group_output() {
    let db = loaded_db();
    // aggregate first, key second
    let out = db
        .run_sql("SELECT MAX(alcperc), brewery FROM beer GROUP BY brewery")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple![6.5_f64, "Grolsche"]), 1);
}

#[test]
fn delete_with_where() {
    let db = loaded_db();
    db.run_sql("DELETE FROM beer WHERE alcperc < 5.0")
        .expect("deletes");
    let out = db
        .run_sql("SELECT COUNT(*) FROM beer")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple![5_i64]), 1);
}

#[test]
fn aggregate_without_group_by() {
    let db = loaded_db();
    let out = db
        .run_sql("SELECT AVG(alcperc) FROM beer")
        .expect("runs")
        .expect("output");
    assert_eq!(out.len(), 1);
    let avg = (5.0 + 5.0 + 5.1 + 6.5 + 6.3 + 4.2) / 6.0;
    assert_eq!(out.multiplicity(&tuple![avg]), 1);
}

#[test]
fn check_sql_reports_partiality_against_live_state() {
    let db = open(mera::beer_schema());
    // beer is empty right now: AVG is provably undefined — E0102
    let diags = check_sql(&db.pin(), "SELECT AVG(alcperc) FROM beer").expect("checks");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, Code::PartialAggregateOnEmpty);
    // and the transaction path agrees: the statement is rejected
    // before execution
    let err = db.run_sql("SELECT AVG(alcperc) FROM beer").unwrap_err();
    assert!(
        err.to_string().contains("static analysis rejected"),
        "{err}"
    );
    // once the relation is nonempty the check proves safety instead
    db.run_sql("INSERT INTO beer VALUES ('Grolsch', 'Grolsche', 5.0)")
        .expect("inserts");
    let diags = check_sql(&db.pin(), "SELECT AVG(alcperc) FROM beer").expect("checks");
    assert!(diags.is_empty(), "{diags:?}");
    // COUNT is total, so it is clean either way (Definition 3.4)
    let diags = check_sql(&db.pin(), "SELECT COUNT(*) FROM brewery").expect("checks");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn create_materialized_view_and_query_it() {
    let db = loaded_db();
    db.run_sql(
        "CREATE MATERIALIZED VIEW strength AS \
         SELECT country, MAX(alcperc) FROM beer, brewery \
         WHERE beer.brewery = brewery.name GROUP BY country",
    )
    .expect("creates view");
    let out = db
        .run_sql("SELECT * FROM strength WHERE country = 'NL'")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple!["NL", 6.5_f64]), 1);
    // a commit on the base tables refreshes the view incrementally
    db.run_sql("DELETE FROM beer WHERE alcperc > 6.0")
        .expect("deletes");
    let out = db
        .run_sql("SELECT * FROM strength")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple!["NL", 5.1_f64]), 1);
    assert_eq!(out.multiplicity(&tuple!["IE", 4.2_f64]), 1);
    let version = db.pin();
    let view = version.views().get("strength").expect("view exists");
    assert_eq!(view.refresh_stats().1, 0, "no recompute fallbacks");
}

#[test]
fn dml_on_sql_view_is_rejected() {
    let db = loaded_db();
    db.run_sql("CREATE MATERIALIZED VIEW lite AS SELECT name FROM beer WHERE alcperc < 5.0")
        .expect("creates view");
    let err = db.run_sql("DELETE FROM lite").unwrap_err();
    assert!(err.to_string().contains("E0302"), "{err}");
    let diags = check_sql(&db.pin(), "DELETE FROM lite").expect("checks");
    assert_eq!(diags[0].code, Code::DmlOnView);
}

#[test]
fn partial_view_definition_is_rejected_in_sql() {
    let db = loaded_db();
    let diags = check_sql(
        &db.pin(),
        "CREATE MATERIALIZED VIEW a AS SELECT AVG(alcperc) FROM beer",
    )
    .expect("checks");
    assert_eq!(diags[0].code, Code::PartialView);
    let err = db
        .run_sql("CREATE MATERIALIZED VIEW a AS SELECT AVG(alcperc) FROM beer")
        .unwrap_err();
    assert!(err.to_string().contains("E0303"), "{err}");
    // total aggregates are accepted — COUNT is defined on ∅
    db.run_sql("CREATE MATERIALIZED VIEW n AS SELECT brewery, COUNT(*) FROM beer GROUP BY brewery")
        .expect("creates");
    let out = db
        .run_sql("SELECT * FROM n WHERE brewery = 'Heineken'")
        .expect("runs")
        .expect("output");
    assert_eq!(out.multiplicity(&tuple!["Heineken", 3_i64]), 1);
}

#[test]
fn create_table_with_primary_key_enforces_at_commit() {
    let db = open(DatabaseSchema::new());
    db.run_sql("CREATE TABLE member (name TEXT, town TEXT, PRIMARY KEY (name))")
        .expect("creates table");
    db.run_sql("INSERT INTO member VALUES ('dick', 'enschede')")
        .expect("inserts");
    // a second tuple at the same key point aborts the transaction
    let err = db
        .run_sql("INSERT INTO member VALUES ('dick', 'hengelo')")
        .unwrap_err();
    assert!(err.to_string().contains("E0401"), "{err}");
    let out = db
        .run_sql("SELECT * FROM member")
        .expect("runs")
        .expect("output");
    assert_eq!(out.len(), 1);
    // the key licenses δ-elimination in plans
    let plan = explain_sql(
        &db.pin(),
        "SELECT DISTINCT * FROM member",
        ExecConfig::default(),
    )
    .expect("explains");
    assert!(
        !plan.contains("distinct"),
        "keyed input must license \u{3b4}-elimination:\n{plan}"
    );
}

#[test]
fn views_stack_on_views_and_stay_fresh() {
    let db = loaded_db();
    db.run_sql(
        "CREATE MATERIALIZED VIEW strong AS \
         SELECT name, brewery FROM beer WHERE alcperc > 6.0",
    )
    .expect("first view");
    // the second view's FROM resolves the first view by name
    db.run_sql(
        "CREATE MATERIALIZED VIEW strong_grolsche AS \
         SELECT name FROM strong WHERE brewery = 'Grolsche'",
    )
    .expect("view on view");
    let out = db
        .run_sql("SELECT * FROM strong_grolsche")
        .expect("runs")
        .expect("output");
    assert_eq!(out.len(), 1); // Bock/Grolsche at 6.5
                              // a base-table write cascades through both layers
    db.run_sql("INSERT INTO beer VALUES ('Tripel', 'Grolsche', 8.0)")
        .expect("dml");
    let out = db
        .run_sql("SELECT * FROM strong_grolsche")
        .expect("runs")
        .expect("output");
    assert_eq!(out.len(), 2);
}

#[test]
fn create_table_unique_constraints_enforce_and_license_rewrites() {
    let db = open(DatabaseSchema::new());
    db.run_sql(
        "CREATE TABLE member (id INT PRIMARY KEY, email TEXT UNIQUE, \
         first TEXT, last TEXT, UNIQUE (first, last))",
    )
    .expect("creates table");
    db.run_sql("INSERT INTO member VALUES (1, 'ann@x', 'ann', 'ng')")
        .expect("inserts");
    // UNIQUE column: duplicate email aborts with the key diagnostic
    let err = db
        .run_sql("INSERT INTO member VALUES (2, 'ann@x', 'bob', 'b')")
        .unwrap_err();
    assert!(err.to_string().contains("E0401"), "{err}");
    // composite UNIQUE: duplicate (first, last) aborts
    let err = db
        .run_sql("INSERT INTO member VALUES (2, 'bob@x', 'ann', 'ng')")
        .unwrap_err();
    assert!(err.to_string().contains("E0401"), "{err}");
    // all constraints satisfied: commits
    db.run_sql("INSERT INTO member VALUES (2, 'bob@x', 'bob', 'ng')")
        .expect("commits");
    let out = db
        .run_sql("SELECT * FROM member")
        .expect("runs")
        .expect("output");
    assert_eq!(out.len(), 2);
    // the UNIQUE keys reach the property pass: δ over the keyed
    // relation is eliminated
    let plan = explain_sql(
        &db.pin(),
        "SELECT DISTINCT * FROM member",
        ExecConfig::default(),
    )
    .expect("explains");
    assert!(
        !plan.contains("distinct"),
        "keyed input must license \u{3b4}-elimination:\n{plan}"
    );
    // UNIQUE duplicating the PRIMARY KEY collapses to one declaration
    db.run_sql("CREATE TABLE t (a INT PRIMARY KEY, UNIQUE (a))")
        .expect("creates");
    db.run_sql("INSERT INTO t VALUES (1)").expect("inserts");
    let err = db.run_sql("INSERT INTO t VALUES (1)").unwrap_err();
    assert!(err.to_string().contains("E0401"), "{err}");
}

#[test]
fn create_table_errors() {
    let db = loaded_db();
    // duplicate relation name
    let err = db.run_sql("CREATE TABLE beer (x INT)").unwrap_err();
    assert!(err.to_string().contains("beer"), "{err}");
    // unknown primary-key column
    let err = db
        .run_sql("CREATE TABLE r (a INT, PRIMARY KEY (z))")
        .unwrap_err();
    assert!(err.to_string().contains("z"), "{err}");
    // duplicate column name
    let err = db.run_sql("CREATE TABLE r (a INT, a INT)").unwrap_err();
    assert!(err.to_string().contains("duplicate column"), "{err}");
    // CREATE TABLE checks clean (nothing to analyze on an empty table)
    let diags = check_sql(&db.pin(), "CREATE TABLE s (a INT, PRIMARY KEY (a))").expect("checks");
    assert!(diags.is_empty());
}

#[test]
fn semantic_errors() {
    let db = loaded_db();
    // two aggregates
    assert!(db
        .run_sql("SELECT AVG(alcperc), MAX(alcperc) FROM beer")
        .is_err());
    // non-grouped column
    assert!(db
        .run_sql("SELECT name, COUNT(*) FROM beer GROUP BY brewery")
        .is_err());
    // star with group by
    assert!(db.run_sql("SELECT * FROM beer GROUP BY brewery").is_err());
    // having without grouping
    assert!(db
        .run_sql("SELECT name FROM beer HAVING name = 'x'")
        .is_err());
    // unknown table / column
    assert!(db.run_sql("SELECT * FROM ales").is_err());
    assert!(db.run_sql("SELECT colour FROM beer").is_err());
    // ill-typed insert
    assert!(db.run_sql("INSERT INTO beer VALUES (1, 2, 3)").is_err());
}
