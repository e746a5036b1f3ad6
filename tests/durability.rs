//! Repo-level differential test: the durable front door
//! ([`ConcurrentDb`]) against the volatile one (a bare [`MvccManager`]) —
//! same programs, same outcomes, same final state, and the durable one
//! still has it after a "reboot".

use mera::core::prelude::*;
use mera::lang::Lowerer;
use mera::store::{ConcurrentDb, MemStorage, StoreOptions};
use mera::txn::{MvccManager, Program};

fn parse(db: &Database, text: &str) -> Program {
    let parsed = mera::lang::parse_program(text).expect("parses");
    let mut lowerer = Lowerer::new(db.schema());
    lowerer.lower_program(&parsed).expect("lowers")
}

#[test]
fn durable_engine_matches_volatile_engine() {
    let schema = mera::beer_schema();
    let programs = [
        "insert(beer, values (str, str, real) {('Grolsch', 'Grolsche', 5.0)})",
        "insert(beer, values (str, str, real) {('Bock', 'Grolsche', 6.5), ('Bock', 'Heineken', 6.3)})",
        "insert(brewery, values (str, str, str) {('Grolsche', 'Enschede', 'NL')})",
        "delete(beer, select[(%3 > 6.4)](beer))",
        "?project[%1](beer)",
    ];

    let mgr = MvccManager::new(schema.clone());
    let storage = MemStorage::new();
    let durable =
        ConcurrentDb::open(storage.clone(), schema, StoreOptions::default()).expect("open");

    for text in programs {
        let program = parse(durable.pin().database(), text);
        let (outcome, _) = mgr.execute(&program);
        let durable_outputs = durable.execute(&program).expect("durable path");
        let volatile_outputs = outcome.outputs().expect("workload commits");
        assert_eq!(&durable_outputs, volatile_outputs, "outputs for {text}");
    }
    let expected = mgr.pin();
    assert_eq!(durable.pin().database(), expected.database());

    // Reboot: only the durable engine survives, and it still equals the
    // volatile one — clock included.
    drop(durable);
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("recovers");
    assert_eq!(recovered.pin().database(), expected.database());
}

#[test]
fn durable_door_runs_the_readme_script() {
    let storage = MemStorage::new();
    let db = ConcurrentDb::open(
        storage.clone(),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("open");
    db.run_script(
        "relation beer (name: str, brewery: str, alcperc: real);\n\
             begin insert(beer, values (str, str, real) {\n\
               ('Grolsch','Grolsche',5.0), ('Bock','Grolsche',6.5), ('Bock','Heineken',6.3)\n\
             }); end",
    )
    .expect("script commits");
    let expected = db.pin().database().clone();
    drop(db);

    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("recovers")
    .pin();
    assert_eq!(recovered.database(), &expected);
    assert_eq!(
        recovered
            .database()
            .relation("beer")
            .expect("declared")
            .len(),
        3
    );
}
