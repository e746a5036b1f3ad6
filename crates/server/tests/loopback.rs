//! End-to-end server tests over real loopback sockets: concurrent
//! clients, SQL and XRA fronts, snapshot reads, abort reporting, and
//! durability of network-committed work.

use std::sync::Arc;
use std::thread;

use mera_core::prelude::*;
use mera_server::{serve, Client, ClientError, ServerHandle, ServerOptions};
use mera_store::{ConcurrentDb, FsyncPolicy, MemStorage, StoreOptions};

fn start(storage: MemStorage, fsync: FsyncPolicy) -> (Arc<ConcurrentDb<MemStorage>>, ServerHandle) {
    let options = StoreOptions {
        fsync,
        ..StoreOptions::default()
    };
    let db = Arc::new(ConcurrentDb::open(storage, DatabaseSchema::new(), options).expect("opens"));
    let server = serve(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default()).expect("binds");
    (db, server)
}

#[test]
fn ping_sql_and_xra_round_trip() {
    let (_db, server) = start(MemStorage::new(), FsyncPolicy::Always);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    client.ping().expect("pong");

    client
        .sql("CREATE TABLE beer (name TEXT, alcperc INT)")
        .expect("ddl");
    let reply = client
        .sql("INSERT INTO beer VALUES ('Grolsch', 5), ('Bock', 7)")
        .expect("dml");
    assert!(reply.all_committed());
    let reply = client
        .sql("SELECT name FROM beer WHERE alcperc > 6")
        .expect("query");
    assert_eq!(reply.results.len(), 1);
    assert_eq!(reply.results[0].len(), 1);
    assert_eq!(reply.results[0][0].values, vec!["'Bock'".to_owned()]);

    // the XRA front door shares the same database
    let reply = client
        .xra(
            "begin insert(beer, values (str, int) {('Tripel', 8)}); end\n\
              begin ?project[%1](beer); end",
        )
        .expect("script");
    assert_eq!(reply.committed, 2);
    assert_eq!(reply.results.len(), 1);
    assert_eq!(reply.results[0].len(), 3);
    server.shutdown();
}

#[test]
fn errors_are_reported_and_the_session_survives() {
    let (_db, server) = start(MemStorage::new(), FsyncPolicy::Always);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    match client.sql("SELECT * FROM nonexistent") {
        Err(ClientError::Server(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected a server error, got {other:?}"),
    }
    match client.sql("THIS IS NOT SQL") {
        Err(ClientError::Server(_)) => {}
        other => panic!("expected a server error, got {other:?}"),
    }
    // the session is still usable after both failures
    client.ping().expect("pong");
    client
        .sql("CREATE TABLE t (a INT)")
        .expect("ddl still works");
    server.shutdown();
}

#[test]
fn constraint_aborts_surface_as_notices_with_counts() {
    let (_db, server) = start(MemStorage::new(), FsyncPolicy::Always);
    let mut client = Client::connect(server.local_addr()).expect("connects");
    client
        .sql("CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT)")
        .expect("ddl");
    client
        .sql("INSERT INTO acct VALUES (1, 'ann')")
        .expect("dml");
    let reply = client
        .sql("INSERT INTO acct VALUES (1, 'bob')")
        .expect("abort is a reply, not a transport error");
    assert_eq!(reply.committed, 0);
    assert_eq!(reply.aborted, 1);
    assert_eq!(reply.notices.len(), 1);
    assert!(
        reply.notices[0].contains("aborted"),
        "notice: {}",
        reply.notices[0]
    );
    server.shutdown();
}

#[test]
fn eight_concurrent_clients_commit_through_group_commit() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;

    let storage = MemStorage::new();
    let (db, server) = start(storage.clone(), FsyncPolicy::Group);
    let addr = server.local_addr();
    {
        let mut admin = Client::connect(addr).expect("connects");
        admin
            .sql("CREATE TABLE hits (client INT, n INT)")
            .expect("ddl");
    }

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let mut committed = 0usize;
                for n in 0..PER_CLIENT {
                    let stmt = format!("INSERT INTO hits VALUES ({c}, {n})");
                    // first-committer-wins can abort any racing insert;
                    // retry until this client's write lands
                    loop {
                        let reply = client.sql(&stmt).expect("io ok");
                        if reply.all_committed() {
                            committed += 1;
                            break;
                        }
                    }
                }
                committed
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().expect("joins")).sum();
    assert_eq!(total, CLIENTS * PER_CLIENT);

    // every acknowledged commit is visible through a fresh session
    let mut check = Client::connect(addr).expect("connects");
    let reply = check.sql("SELECT * FROM hits").expect("query");
    assert_eq!(reply.results[0].len(), CLIENTS * PER_CLIENT);

    // …and durable: a crash-reopen of the same bytes has all of them
    db.sync().expect("final sync");
    server.shutdown();
    drop(db);
    let recovered = ConcurrentDb::open(
        MemStorage::from_image(storage.image()),
        DatabaseSchema::new(),
        StoreOptions::default(),
    )
    .expect("recovers");
    assert_eq!(
        recovered
            .pin()
            .database()
            .relation("hits")
            .expect("exists")
            .len(),
        (CLIENTS * PER_CLIENT) as u64
    );
}

#[test]
fn readers_scale_against_a_writer_without_blocking() {
    const READERS: usize = 4;

    let (_db, server) = start(MemStorage::new(), FsyncPolicy::Group);
    let addr = server.local_addr();
    {
        let mut admin = Client::connect(addr).expect("connects");
        admin.sql("CREATE TABLE log (n INT)").expect("ddl");
        admin.sql("INSERT INTO log VALUES (0)").expect("seed");
    }

    let writer = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connects");
        for n in 1..=50 {
            loop {
                let reply = client
                    .sql(&format!("INSERT INTO log VALUES ({n})"))
                    .expect("io ok");
                if reply.all_committed() {
                    break;
                }
            }
        }
    });
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connects");
                let mut reads = 0usize;
                let mut last = 0usize;
                for _ in 0..30 {
                    let reply = client.sql("SELECT * FROM log").expect("query");
                    let seen = reply.results[0].len();
                    // each read sees a consistent snapshot that never
                    // goes backwards on one session
                    assert!(seen >= last, "snapshot went backwards: {seen} < {last}");
                    last = seen;
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    writer.join().expect("writer joins");
    let total: usize = readers.into_iter().map(|r| r.join().expect("joins")).sum();
    assert_eq!(total, READERS * 30);
    server.shutdown();
}

#[test]
fn stacked_views_work_over_the_wire_from_both_front_doors() {
    let (_db, server) = start(MemStorage::new(), FsyncPolicy::Always);
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // XRA: declare a relation, a view, and a view over that view
    let reply = client
        .xra(
            "relation beer (name: str, alcperc: int);\n\
             view strong = select[%2 > 5](beer);\n\
             view strong_names = project[%1](strong);\n\
             insert(beer, values (str, int) {('Grolsch', 5), ('Bock', 7)});\n\
             ?strong_names;",
        )
        .expect("script");
    assert!(reply.all_committed());
    assert_eq!(reply.results[0].len(), 1);

    // SQL: a third layer on top of the XRA-defined stack
    client
        .sql("CREATE MATERIALIZED VIEW shouted AS SELECT name FROM strong_names")
        .expect("sql view over xra view");
    client
        .sql("INSERT INTO beer VALUES ('Tripel', 8)")
        .expect("dml");
    let reply = client.sql("SELECT * FROM shouted").expect("query");
    assert_eq!(reply.results[0].len(), 2);
    server.shutdown();
}

#[test]
fn large_results_stream_in_multiple_batches() {
    let (db, server) = start(MemStorage::new(), FsyncPolicy::Never);
    let addr = server.local_addr();
    db.run_sql("CREATE TABLE big (n INT)").expect("ddl");
    // one multi-row insert, larger than one RowBatch frame (512 rows)
    let values: Vec<String> = (0..1300).map(|n| format!("({n})")).collect();
    db.run_sql(&format!("INSERT INTO big VALUES {}", values.join(", ")))
        .expect("bulk dml");

    let mut client = Client::connect(addr).expect("connects");
    let reply = client.sql("SELECT * FROM big").expect("query");
    assert_eq!(reply.results.len(), 1);
    assert_eq!(reply.results[0].len(), 1300);
    server.shutdown();
}
