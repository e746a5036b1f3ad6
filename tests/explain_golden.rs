//! Golden-file tests for EXPLAIN plan rendering.
//!
//! Each case loads a small deterministic database through the front door
//! (XRA script or SQL), renders a plan with `explain` at a pinned version,
//! and compares the *exact* output against
//! `tests/golden/<name>.txt`. The rendering is part of the planner's
//! observability contract: the join order, the access-path labels and the
//! estimate column are what a user debugging a slow plan reads, so any
//! change here must be deliberate. Every case renders at one worker and at
//! three, and both must match the golden byte for byte: the counters are
//! totals over the workers.
//!
//! To regenerate a golden file after an intentional change, run with
//! `MERA_BLESS=1` and commit the rewritten files.

use mera::core::prelude::DatabaseSchema;
use mera::lang::{lower_rel, RunResult};
use mera::sql::explain_sql;
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{ExecConfig, ExecOptions};

type Db = ConcurrentDb<MemStorage>;

fn open(schema: DatabaseSchema) -> Db {
    ConcurrentDb::open(MemStorage::new(), schema, StoreOptions::default()).expect("opens")
}

/// Renders a case under one- and three-worker configurations and compares
/// each rendering with the golden file.
fn check(name: &str, golden: &str, mut render: impl FnMut(ExecConfig) -> String) {
    let bless = std::env::var_os("MERA_BLESS").is_some();
    let mut want = golden.to_owned();
    for partitions in [1, 3] {
        let actual = render(ExecConfig {
            options: ExecOptions::with_partitions(partitions),
            ..ExecConfig::default()
        });
        if bless && partitions == 1 {
            let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&path, &actual).expect("write golden");
            want = actual;
            continue;
        }
        assert_eq!(
            actual, want,
            "\n-- plan for `{name}` rendered at {partitions} workers diverges from golden file --\n\
             actual:\n{actual}\n"
        );
    }
}

/// The EXPLAIN of the XRA `query` at `db`'s newest version under `config`.
fn explain(db: &Db, query: &str, config: ExecConfig) -> String {
    let version = db.pin();
    let expr = lower_rel(&version.catalog_schema(), query).expect("lowers");
    version.explain(&expr, config).expect("explains")
}

/// A database with a star-ish workload: a fact table (`orders`) and two
/// small dimension tables, statistics maintained by the inserts, and
/// indexes on the dimension keys.
fn loaded_db() -> Db {
    let db = open(DatabaseSchema::new());
    let results = db
        .run_script(
            "relation orders (cust: int, item: int, amount: int);\n\
             relation customers (id: int, region: str);\n\
             relation items (id: int, kind: str);\n\
             insert(customers, values (int, str) {(1, 'north'), (2, 'south')});\n\
             insert(items, values (int, str) {(1, 'ale'), (2, 'lager'), (3, 'stout')});\n\
             insert(orders, values (int, int, int) {\n\
               (1, 1, 10), (1, 2, 5), (1, 3, 1), (2, 1, 7),\n\
               (2, 2, 9), (2, 3, 20), (1, 1, 2), (2, 1, 4)\n\
             });",
        )
        .expect("script runs");
    assert!(results.iter().all(|r| matches!(r, RunResult::Committed(_))));
    db.create_index("customers", &[1]).expect("index");
    db.create_index("items", &[1]).expect("index");
    db.create_index("orders", &[1]).expect("index");
    db
}

#[test]
fn point_select_takes_index_lookup() {
    let db = loaded_db();
    check(
        "explain_point_select",
        include_str!("golden/explain_point_select.txt"),
        |config| explain(&db, "select[%1 = 2](customers)", config),
    );
}

#[test]
fn unindexed_select_scans_and_filters() {
    let db = loaded_db();
    check(
        "explain_scan_filter",
        include_str!("golden/explain_scan_filter.txt"),
        |config| explain(&db, "select[%3 > 5](orders)", config),
    );
}

#[test]
fn star_join_orders_and_access_paths() {
    let db = loaded_db();
    // written dimension-first (a deliberately bad order); the cost model
    // reorders around the selective fact-side restriction and probes the
    // dimension indexes
    check(
        "explain_star_join",
        include_str!("golden/explain_star_join.txt"),
        |config| {
            explain(
                &db,
                "join[(%1 = %6)](join[(%2 = %4)](\
                   select[%3 > 5](orders), items), customers)",
                config,
            )
        },
    );
}

#[test]
fn small_probe_side_takes_index_nested_loop() {
    let db = loaded_db();
    // two customer rows probing the indexed eight-row fact table: the
    // cost model skips the hash build and hints the index path
    check(
        "explain_index_nl_join",
        include_str!("golden/explain_index_nl_join.txt"),
        |config| explain(&db, "join[(%1 = %3)](customers, orders)", config),
    );
}

#[test]
fn sql_front_door_explains_joins() {
    let db = open(mera::beer_schema());
    db.run_sql(
        "INSERT INTO beer VALUES \
         ('Grolsch', 'Grolsche', 5.0), \
         ('Heineken', 'Heineken', 5.0), \
         ('Amstel', 'Heineken', 5.1), \
         ('Bock', 'Grolsche', 6.5), \
         ('Guinness', 'StJames', 4.2)",
    )
    .expect("inserts");
    db.run_sql(
        "INSERT INTO brewery VALUES \
         ('Grolsche', 'Enschede', 'NL'), \
         ('Heineken', 'Amsterdam', 'NL'), \
         ('StJames', 'Dublin', 'IE')",
    )
    .expect("inserts");
    db.create_index("brewery", &[1]).expect("index");
    check(
        "explain_sql_join",
        include_str!("golden/explain_sql_join.txt"),
        |config| {
            explain_sql(
                &db.pin(),
                "SELECT country, AVG(alcperc) FROM beer, brewery \
                 WHERE beer.brewery = brewery.name GROUP BY country",
                config,
            )
            .expect("explains")
        },
    );
}

#[test]
fn declared_key_annotates_plan_and_licenses_distinct_elimination() {
    // `key customers(id)` makes the scan provably duplicate-free; the
    // plan section shows the `[key: …, set]` tag at every node that
    // preserves it, and the δ written in the query is gone from the tree
    let db = loaded_db();
    db.run_script("key customers (id);")
        .expect("key declaration");
    check(
        "explain_keyed_distinct",
        include_str!("golden/explain_keyed_distinct.txt"),
        |config| {
            let actual = explain(&db, "unique(select[%2 = 'north'](customers))", config);
            assert!(
                !actual.contains("distinct"),
                "keyed input must license δ-elimination:\n{actual}"
            );
            actual
        },
    );
}

#[test]
fn sql_primary_key_annotates_plan_and_absorbs_distinct() {
    // the SQL front door's PRIMARY KEY feeds the same property pass: the
    // DISTINCT in the query is provably redundant and the rendered plan
    // carries the key annotation instead of a unique operator
    let db = open(DatabaseSchema::new());
    db.run_sql("CREATE TABLE member (name STR, town STR, PRIMARY KEY (name))")
        .expect("create table");
    db.run_sql(
        "INSERT INTO member VALUES \
         ('dick', 'enschede'), ('peter', 'hengelo'), ('maurice', 'enschede')",
    )
    .expect("inserts");
    check(
        "explain_sql_primary_key",
        include_str!("golden/explain_sql_primary_key.txt"),
        |config| {
            let actual = explain_sql(&db.pin(), "SELECT DISTINCT name, town FROM member", config)
                .expect("explains");
            assert!(
                !actual.contains("distinct"),
                "PRIMARY KEY must absorb DISTINCT:\n{actual}"
            );
            actual
        },
    );
}

#[test]
fn estimates_stay_within_2x_of_actuals_on_the_star_schema() {
    // the acceptance bound from the statistics design: on this workload
    // (exact counters, unsaturated sketches) estimates land within 2× of
    // the actual cardinalities at every operator the tree reports
    let db = loaded_db();
    let out = explain(
        &db,
        "join[(%1 = %4)](orders, customers)",
        ExecConfig::default(),
    );
    let (mut est_out, mut actual_out) = (None, None);
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("output: ") {
            let mut parts = rest.split_whitespace();
            actual_out = parts.next().and_then(|s| s.parse::<f64>().ok());
            est_out = rest
                .split("estimated ")
                .nth(1)
                .and_then(|s| s.trim_end_matches(')').parse::<f64>().ok());
        }
    }
    let (est, actual) = (est_out.expect("estimate"), actual_out.expect("actual"));
    assert!(actual > 0.0);
    assert!(
        est <= actual * 2.0 && est >= actual / 2.0,
        "estimate {est} not within 2x of actual {actual}:\n{out}"
    );
}
