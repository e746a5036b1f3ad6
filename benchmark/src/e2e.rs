//! The end-to-end runs: every workload driven through the front door —
//! `mera_server::serve` + `Client` over loopback, or
//! `ConcurrentDb::open` for a restart — with tracing off.
//!
//! This module may name only `serve`/`ServerOptions`/`Client`/`Reply`,
//! `ConcurrentDb::{open, create_index, checkpoint, run_script}`,
//! `StoreOptions`/`FsyncPolicy`/`EngineKind`, `MemStorage` and SQL/XRA text. Anything
//! deeper belongs in `layers`, so that a refactor of the crates' insides
//! never breaks the end-to-end record.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use mera_core::prelude::DatabaseSchema;
use mera_lang::RunResult;
use mera_server::{serve, Client, Reply, ServerHandle, ServerOptions};
use mera_store::{ConcurrentDb, FsyncPolicy, MemStorage, StoreOptions};

use crate::check::{digest, Digest};
use crate::gen::{self, Accounts, Analytic, Door, Expect, Orders, Request, Sizes};
use crate::report::{Metric, WorkloadReport};
use crate::stats::{median, summarize, Sample, Summary, Window};

/// Set-ups per run; `setup_s` is their median, and the last one is used.
pub const SETUP_REPEATS: usize = 3;

/// Conflict retries before an op is given up as failed.
const MAX_RETRIES: u32 = 16;

/// The database type every workload runs on.
pub type Db = ConcurrentDb<MemStorage>;

/// `FsyncPolicy::Always` on `MemStorage`: every commit appends and
/// "syncs" — counted, never waited for — so the numbers are the
/// program's CPU path on both sides of any comparison.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Always,
        ..StoreOptions::default()
    }
}

/// Opens (or recovers) a database over `storage`.
pub fn open(storage: MemStorage, options: StoreOptions) -> Result<Db, String> {
    ConcurrentDb::open(storage, DatabaseSchema::new(), options).map_err(|e| e.to_string())
}

/// A served database: the storage handle (for images and counts), the
/// database (for the few non-text declarations) and the server.
pub struct Front {
    /// A second handle on the database's files.
    pub storage: MemStorage,
    /// The served database.
    pub db: Arc<Db>,
    /// `Some` until the server is shut down.
    server: Option<ServerHandle>,
    addr: std::net::SocketAddr,
}

impl Front {
    /// Opens (or recovers) a database over `storage` and serves it.
    pub fn start(storage: MemStorage, workers: usize) -> Result<Front, String> {
        let db = open(storage.clone(), store_options())?;
        Front::serve(Arc::new(db), storage, workers)
    }

    /// Serves an open database on an ephemeral loopback port with
    /// `workers` session workers; `storage` is a handle on its files.
    pub fn serve(db: Arc<Db>, storage: MemStorage, workers: usize) -> Result<Front, String> {
        let server = serve(Arc::clone(&db), "127.0.0.1:0", ServerOptions { workers })
            .map_err(|e| e.to_string())?;
        Ok(Front {
            storage,
            db,
            addr: server.local_addr(),
            server: Some(server),
        })
    }

    /// A new client session.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| e.to_string())
    }

    /// Stops the server, joins its threads and hands the database back.
    pub fn stop(self) -> Arc<Db> {
        Arc::clone(&self.db)
    }
}

/// A dropped `ServerHandle` leaves its threads running — and holding the
/// database — for the life of the process, so a `Front` shuts its server
/// down whenever it goes away, on every path.
impl Drop for Front {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Sends text through a door.
fn call(client: &mut Client, door: Door, text: &str) -> Result<Reply, String> {
    match door {
        Door::Sql => client.sql(text),
        Door::Xra => client.xra(text),
    }
    .map_err(|e| e.to_string())
}

/// Sends one request through its door.
pub fn send(client: &mut Client, request: &Request) -> Result<Reply, String> {
    call(client, request.door, &request.text)
}

/// How one reply compares to what the request expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// As expected.
    Ok,
    /// The transaction aborted; a write-write conflict is worth a retry.
    Aborted,
    /// Wrong rows, wrong counts or an error reply.
    Wrong,
}

/// Judges a reply.
pub fn judge(reply: &Reply, expect: &Expect) -> Verdict {
    if reply.aborted > 0 {
        return Verdict::Aborted;
    }
    match expect {
        Expect::Commit => {
            if reply.committed == 1 {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
        Expect::Rows(want) => {
            if reply.results.len() == 1 && digest(&reply.results[0]) == *want {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
    }
}

/// Runs set-up statements, failing on the first that does not commit.
fn run_setup<'a>(
    client: &mut Client,
    door: Door,
    texts: impl IntoIterator<Item = &'a str>,
) -> Result<(), String> {
    for text in texts {
        let reply =
            call(client, door, text).map_err(|e| format!("set-up statement failed: {e}"))?;
        if !reply.all_committed() {
            return Err(format!("set-up statement aborted: {:?}", reply.notices));
        }
    }
    Ok(())
}

/// What one client (or the single driver thread) saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One sample per completed op.
    pub samples: Vec<Sample>,
    /// Per-request samples of multi-request ops (`analytic`'s queries).
    pub parts: Vec<Sample>,
    /// Ops issued, including those outside the measured window.
    pub attempted: u64,
    /// Ops that failed, were refused or broke their oracle.
    pub failed: u64,
    /// Conflict aborts that were retried.
    pub conflict_retries: u64,
    /// Write ops acknowledged as committed.
    pub acked_commits: u64,
    /// Process CPU time (clients and server) spent while the loop ran, µs.
    pub cpu_us: f64,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.samples.extend(other.samples);
        self.parts.extend(other.parts);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.conflict_retries += other.conflict_retries;
        self.acked_commits += other.acked_commits;
    }
}

/// Issues ops back to back (closed loop: the next op waits for this
/// op's reply) until the window ends. An op is one or more requests; its
/// latency is the sum of their round trips, checks excluded.
fn client_loop(
    client: &mut Client,
    start: Instant,
    window: Window,
    mut next_op: impl FnMut() -> Vec<Request>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    while since(Instant::now()) < window.end_ns() {
        let op = next_op();
        log.attempted += 1;
        let mut op_ns = 0u64;
        let mut ok = true;
        let mut parts = Vec::new();
        for request in &op {
            let mut retries = 0;
            let mut lat_ns = 0u64;
            let verdict = loop {
                let t0 = Instant::now();
                let reply = send(client, request);
                lat_ns += t0.elapsed().as_nanos() as u64;
                match reply.map(|reply| judge(&reply, &request.expect)) {
                    Ok(Verdict::Aborted) if retries < MAX_RETRIES => {
                        retries += 1;
                        log.conflict_retries += 1;
                    }
                    Ok(v) => break v,
                    Err(_) => break Verdict::Wrong,
                }
            };
            op_ns += lat_ns;
            if verdict != Verdict::Ok {
                ok = false;
                break;
            }
            if request.expect == Expect::Commit {
                log.acked_commits += 1;
            }
            parts.push(Sample {
                done_ns: since(Instant::now()),
                lat_ns,
                kind: request.kind,
            });
        }
        if !ok {
            log.failed += 1;
            continue;
        }
        if let [only] = parts[..] {
            log.samples.push(only);
        } else {
            log.samples.push(Sample {
                done_ns: parts.last().map_or(0, |p| p.done_ns),
                lat_ns: op_ns,
                kind: 0,
            });
            log.parts.extend(parts);
        }
    }
    log
}

/// Runs one closed-loop client per op source, released together.
pub fn run_clients<F>(front: &Front, window: Window, sources: Vec<F>) -> Result<ClientLog, String>
where
    F: FnMut() -> Vec<Request> + Send,
{
    let mut clients = Vec::new();
    for _ in 0..sources.len() {
        clients.push(front.connect()?);
    }
    let barrier = Barrier::new(sources.len());
    let cpu0 = crate::proc::cpu_us();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .zip(clients.iter_mut())
            .map(|(source, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(client, start, window, source)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = ClientLog::default();
    for log in logs {
        total.absorb(log);
    }
    total.cpu_us = cpu_since(cpu0);
    Ok(total)
}

/// CPU time since an earlier [`crate::proc::cpu_us`] reading.
fn cpu_since(earlier: Option<f64>) -> f64 {
    match (earlier, crate::proc::cpu_us()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    }
}

/// Everything a finished end-to-end run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Merged client logs.
    pub log: ClientLog,
    /// Wall time of each set-up, in seconds.
    pub setups_s: Vec<f64>,
    /// Oracle violations, empty when the run is correct.
    pub violations: Vec<String>,
    /// Names for `Sample::kind` values worth a median of their own.
    pub kinds: Vec<(u8, &'static str)>,
}

impl Outcome {
    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups_s)
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, timing each; the last set-up is
/// the one the run uses. The earlier databases are handed back too, their
/// servers stopped, for the caller to keep until the run ends: were they
/// freed, peak memory would depend on whether the allocator happens to
/// give their pages to the next set-up (it varied by 30 % from run to
/// run), and `peak_rss_mib` would say more about that than about the
/// program. So `peak_rss_mib` is three loaded databases plus the run.
fn repeat_setup(mut setup: impl FnMut() -> Result<Front, String>) -> Result<Ready, String> {
    let mut setups_s = Vec::with_capacity(SETUP_REPEATS);
    let mut earlier = Vec::new();
    loop {
        let t0 = Instant::now();
        let front = setup()?;
        setups_s.push(t0.elapsed().as_secs_f64());
        if setups_s.len() == SETUP_REPEATS {
            return Ok(Ready {
                front,
                setups_s,
                _earlier: earlier,
            });
        }
        earlier.push(front.stop());
    }
}

/// What [`repeat_setup`] hands back.
struct Ready {
    /// The last set-up, served.
    front: Front,
    /// Wall time of each set-up, in seconds.
    setups_s: Vec<f64>,
    /// The earlier set-ups' databases, resident until this is dropped.
    _earlier: Vec<Arc<Db>>,
}

/// Reads one integer cell through the SQL door.
fn scalar_sql(client: &mut Client, sql: &str) -> Result<i64, String> {
    let reply = client.sql(sql).map_err(|e| e.to_string())?;
    reply
        .results
        .first()
        .and_then(|rows| rows.first())
        .and_then(|row| row.values.first())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("`{sql}` returned no integer: {reply:?}"))
}

/// Digest of one XRA query through the door.
fn query_digest(client: &mut Client, xra: &str) -> Result<Digest, String> {
    let reply = client.xra(xra).map_err(|e| e.to_string())?;
    match &reply.results[..] {
        [rows] => Ok(digest(rows)),
        _ => Err(format!("`{xra}` returned {} results", reply.results.len())),
    }
}

// ----------------------------------------------------------------------
// account set-up, shared by oltp_commit and oltp_read
// ----------------------------------------------------------------------

/// Creates, loads and indexes `account` behind a server with `workers`
/// session workers.
pub fn setup_accounts(accounts: &Accounts, workers: usize) -> Result<Front, String> {
    let front = Front::start(MemStorage::new(), workers)?;
    let mut client = front.connect()?;
    run_setup(&mut client, Door::Sql, [Accounts::create_sql()])?;
    let load = accounts.load_sql();
    run_setup(&mut client, Door::Sql, load.iter().map(String::as_str))?;
    front
        .db
        .create_index("account", &[1])
        .map_err(|e| e.to_string())?;
    Ok(front)
}

/// `oltp_commit`: `clients` connections each add 1 to random accounts.
pub fn oltp_commit(
    seed: u64,
    window: Window,
    sizes: &Sizes,
    clients: usize,
) -> Result<Outcome, String> {
    let accounts = Accounts::generate(seed, sizes);
    let Ready {
        front,
        setups_s,
        _earlier,
    } = repeat_setup(|| setup_accounts(&accounts, clients))?;
    let sources = (0..clients as u64)
        .map(|c| {
            let mut rng = gen::client_rng(seed, c);
            let accounts = &accounts;
            move || vec![accounts.commit_op(&mut rng)]
        })
        .collect();
    let mut log = run_clients(&front, window, sources)?;

    // Oracle 1: every acknowledged commit is in the served state.
    let mut violations = Vec::new();
    let mut client = front.connect()?;
    let mut want = accounts.total() + log.acked_commits as i64;
    let got = scalar_sql(&mut client, Accounts::total_sql())?;
    if got != want {
        violations.push(format!(
            "SUM(balance) is {got}, acknowledged commits imply {want}"
        ));
    }
    // Oracle 2: a restart from the flushed bytes alone reproduces it.
    // Replaying the whole window would take as long as the window (every
    // replayed commit is O(|table|) too), so the image is a checkpoint
    // of the measured commits plus a WAL tail of fresh ones: restart
    // exercises snapshot decode and commit replay, at bounded cost.
    front.db.checkpoint().map_err(|e| e.to_string())?;
    let mut rng = gen::client_rng(seed, 99);
    for _ in 0..TAIL_COMMITS {
        let op = accounts.commit_op(&mut rng);
        log.attempted += 1;
        match send(&mut client, &op).map(|r| judge(&r, &op.expect)) {
            Ok(Verdict::Ok) => want += 1,
            _ => log.failed += 1,
        }
    }
    drop(client);
    let image = front.storage.image();
    front.stop();
    let reopened = Front::start(MemStorage::from_image(image), 1)?;
    let got = scalar_sql(&mut reopened.connect()?, Accounts::total_sql())?;
    if got != want {
        violations.push(format!(
            "after restart SUM(balance) is {got}, expected {want}"
        ));
    }
    reopened.stop();
    Ok(Outcome {
        log,
        setups_s,
        violations,
        kinds: Vec::new(),
    })
}

/// Commits made after the checkpoint so that the restart oracle replays
/// a WAL tail as well as decoding a snapshot.
const TAIL_COMMITS: usize = 100;

/// `oltp_read`: `clients` connections read the same table.
pub fn oltp_read(
    seed: u64,
    window: Window,
    sizes: &Sizes,
    clients: usize,
) -> Result<Outcome, String> {
    let accounts = Accounts::generate(seed, sizes);
    oltp_read_against(&accounts, &accounts, seed, window, clients)
}

/// `oltp_read` with the table that is loaded and the table the replies
/// are checked against given apart (they differ only in the test that
/// shows a wrong expectation fails the run).
fn oltp_read_against(
    loaded: &Accounts,
    expected: &Accounts,
    seed: u64,
    window: Window,
    clients: usize,
) -> Result<Outcome, String> {
    let Ready {
        front,
        setups_s,
        _earlier,
    } = repeat_setup(|| setup_accounts(loaded, clients))?;
    let sources = (0..clients as u64)
        .map(|c| {
            let mut rng = gen::client_rng(seed, c);
            move || vec![expected.read_op(&mut rng)]
        })
        .collect();
    // every read is checked against the expected balances as it returns
    let log = run_clients(&front, window, sources)?;
    front.stop();
    Ok(Outcome {
        log,
        setups_s,
        violations: Vec::new(),
        kinds: vec![(gen::KIND_POINT, "point"), (gen::KIND_AGG, "agg")],
    })
}

// ----------------------------------------------------------------------
// analytic
// ----------------------------------------------------------------------

/// Declares and loads `r, s, t, u`.
pub fn setup_analytic(load: &[String], options: StoreOptions) -> Result<Front, String> {
    let storage = MemStorage::new();
    let front = Front::serve(Arc::new(open(storage.clone(), options)?), storage, 1)?;
    let mut client = front.connect()?;
    run_setup(&mut client, Door::Xra, [gen::analytic_schema_xra()])?;
    run_setup(&mut client, Door::Xra, load.iter().map(String::as_str))?;
    Ok(front)
}

/// Row count above which the reference engine is not asked: it
/// materializes `r × s`, which is 2·10⁸ tuples at the recorded size.
const REFERENCE_MAX_ROWS: usize = 2_000;

/// What each `analytic` query returns from a second database that
/// evaluates with the reference engine — the paper's definitions in
/// executable form — over the same load.
fn reference_digests(load: &[String]) -> Result<Vec<Digest>, String> {
    let mut options = store_options();
    options.exec.engine = mera_eval::EngineKind::Reference;
    let oracle = setup_analytic(load, options)?;
    let mut client = oracle.connect()?;
    let digests = gen::ANALYTIC_QUERIES
        .iter()
        .map(|(_, q)| query_digest(&mut client, q))
        .collect();
    drop(client);
    oracle.stop();
    digests
}

/// The expected digest of each `analytic` query: the generator's model,
/// cross-checked against the reference engine where that can run.
pub fn analytic_expectations(data: &Analytic, load: &[String]) -> Result<Vec<Digest>, String> {
    let model = data.expected().to_vec();
    if data.tables[0].len() <= REFERENCE_MAX_ROWS {
        let reference = reference_digests(load)?;
        if reference != model {
            return Err(format!(
                "the generator's model {model:?} disagrees with the reference engine {reference:?}"
            ));
        }
    }
    Ok(model)
}

/// The four queries of one `analytic` round.
pub fn analytic_round(expected: &[Digest]) -> Vec<Request> {
    gen::ANALYTIC_QUERIES
        .iter()
        .zip(expected)
        .enumerate()
        .map(|(i, ((_, text), want))| Request {
            door: Door::Xra,
            text: (*text).to_owned(),
            kind: i as u8 + 1,
            expect: Expect::Rows(*want),
        })
        .collect()
}

/// `analytic`: one client runs rounds of the four queries.
pub fn analytic(seed: u64, window: Window, sizes: &Sizes) -> Result<Outcome, String> {
    let data = Analytic::generate(seed, sizes);
    let load = data.load_xra();
    let expected = analytic_expectations(&data, &load)?;
    let Ready {
        front,
        setups_s,
        _earlier,
    } = repeat_setup(|| setup_analytic(&load, store_options()))?;
    let round = analytic_round(&expected);
    let log = run_clients(&front, window, vec![|| round.clone()])?;
    front.stop();
    Ok(Outcome {
        log,
        setups_s,
        violations: Vec::new(),
        kinds: gen::ANALYTIC_QUERIES
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (i as u8 + 1, *name))
            .collect(),
    })
}

// ----------------------------------------------------------------------
// view_churn
// ----------------------------------------------------------------------

/// Declares, loads, keys, indexes and materializes the order schema.
pub fn setup_orders(orders: &Orders) -> Result<Front, String> {
    let front = Front::start(MemStorage::new(), 1)?;
    let mut client = front.connect()?;
    run_setup(&mut client, Door::Xra, [Orders::schema_xra()])?;
    let load = orders.load_xra();
    run_setup(&mut client, Door::Xra, load.iter().map(String::as_str))?;
    run_setup(&mut client, Door::Xra, [Orders::catalog_xra().as_str()])?;
    front
        .db
        .create_index("customers", &[1])
        .map_err(|e| e.to_string())?;
    Ok(front)
}

/// Compares the maintained view with its definition evaluated fresh and
/// with the client's model of the data.
fn check_view(
    client: &mut Client,
    orders: &Orders,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let maintained = query_digest(client, &format!("? {};", gen::VIEW_NAME))?;
    let fresh = query_digest(client, &format!("? {};", gen::VIEW_DEF))?;
    if maintained != fresh {
        violations.push(format!(
            "maintained view {maintained:?} differs from its definition evaluated fresh {fresh:?}"
        ));
    }
    let model = orders.expected_view();
    if maintained != model {
        violations.push(format!(
            "maintained view {maintained:?} differs from the client's model {model:?}"
        ));
    }
    Ok(())
}

/// `view_churn`: one client commits churn transactions under a view.
pub fn view_churn(seed: u64, window: Window, sizes: &Sizes) -> Result<Outcome, String> {
    let mut orders = Orders::for_churn(seed, sizes);
    let Ready {
        front,
        setups_s,
        _earlier,
    } = repeat_setup(|| setup_orders(&orders))?;
    let log = run_clients(&front, window, vec![|| vec![orders.churn_op()]])?;
    let mut violations = Vec::new();
    check_view(&mut front.connect()?, &orders, &mut violations)?;
    front.stop();
    Ok(Outcome {
        log,
        setups_s,
        violations,
        kinds: Vec::new(),
    })
}

// ----------------------------------------------------------------------
// recovery
// ----------------------------------------------------------------------

/// The crashed system's files and what it held when it went down.
pub struct CrashImage {
    /// The files as flushed.
    pub files: std::collections::BTreeMap<String, Vec<u8>>,
    /// Digests of `orders`, `customers` and the view before the crash.
    pub state: [Digest; 3],
}

const RECOVERY_QUERIES: [&str; 3] = ["? orders;", "? customers;", "? region_totals;"];

/// Builds the image: the order schema checkpointed at
/// `recovery_orders` rows, then a WAL tail of churn commits.
pub fn build_crash_image(seed: u64, image: u64, sizes: &Sizes) -> Result<CrashImage, String> {
    let mut orders = Orders::for_recovery(seed, image, sizes);
    let front = setup_orders(&orders)?;
    front.db.checkpoint().map_err(|e| e.to_string())?;
    let mut client = front.connect()?;
    for _ in 0..sizes.recovery_commits {
        let op = orders.churn_op();
        if judge(&send(&mut client, &op)?, &op.expect) != Verdict::Ok {
            return Err("a churn commit of the WAL tail did not commit".to_owned());
        }
    }
    let mut state = [Digest::default(); 3];
    for (slot, q) in state.iter_mut().zip(RECOVERY_QUERIES) {
        *slot = query_digest(&mut client, q)?;
    }
    if state[2] != orders.expected_view() {
        return Err("the view disagrees with the client's model before the crash".to_owned());
    }
    drop(client);
    // only what reached storage survives: the image is the flushed files
    let files = front.storage.image();
    front.stop();
    Ok(CrashImage { files, state })
}

/// Checks that a recovered database holds the pre-crash state and still
/// enforces its key.
fn check_recovered(
    front: Front,
    image: &CrashImage,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let mut client = front.connect()?;
    for (want, q) in image.state.iter().zip(RECOVERY_QUERIES) {
        let got = query_digest(&mut client, q)?;
        if got != *want {
            violations.push(format!("after recovery `{q}` is {got:?}, was {want:?}"));
        }
    }
    let dup = client
        .xra("insert(customers, values (int, str) {(0, 'elsewhere')});")
        .map_err(|e| e.to_string())?;
    if dup.aborted != 1 {
        violations.push("the recovered key on customers no longer rejects a duplicate".to_owned());
    }
    drop(client);
    front.stop();
    Ok(())
}

/// Crash images a `recovery` run cycles through. How fast a table
/// rebuilds depends on how its tuples happen to hash, by several percent
/// from one data set to the next; a run that averages over a handful of
/// images says more about the code and less about one seed's luck.
pub const RECOVERY_IMAGES: usize = 6;

/// `recovery`: one thread reopens crash images, one after another.
pub fn recovery(seed: u64, window: Window, sizes: &Sizes) -> Result<Outcome, String> {
    let mut images = Vec::with_capacity(RECOVERY_IMAGES);
    let mut setups_s = Vec::with_capacity(RECOVERY_IMAGES);
    for i in 0..RECOVERY_IMAGES as u64 {
        let t0 = Instant::now();
        images.push(build_crash_image(seed, i, sizes)?);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let mut log = ClientLog::default();
    let mut last = None;
    let cpu0 = crate::proc::cpu_us();
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    while since(Instant::now()) < window.end_ns() {
        drop(last.take());
        let image = &images[log.attempted as usize % RECOVERY_IMAGES];
        let storage = MemStorage::from_image(image.files.clone());
        log.attempted += 1;
        let t0 = Instant::now();
        let opened = open(storage.clone(), store_options());
        let t1 = Instant::now();
        // cheap per-op check that the view came back; the full
        // comparison runs once, on the last recovery
        let answers = opened.and_then(|db| {
            let out = db
                .run_script(RECOVERY_QUERIES[2])
                .map_err(|e| e.to_string())?;
            let rows = match &out[..] {
                [RunResult::Committed(queries)] => queries.first().map_or(0, |q| q.len()),
                _ => 0,
            };
            Ok((db, rows))
        });
        match answers {
            Ok((db, rows)) if rows > 0 => {
                log.samples.push(Sample {
                    done_ns: since(t1),
                    lat_ns: t1.duration_since(t0).as_nanos() as u64,
                    kind: 0,
                });
                last = Some((db, storage, image));
            }
            _ => log.failed += 1,
        }
    }
    log.cpu_us = cpu_since(cpu0);
    let mut violations = Vec::new();
    match last {
        Some((db, storage, image)) => check_recovered(
            Front::serve(Arc::new(db), storage, 1)?,
            image,
            &mut violations,
        )?,
        None => violations.push("no recovery succeeded".to_owned()),
    }
    Ok(Outcome {
        log,
        setups_s,
        violations,
        kinds: Vec::new(),
    })
}

// ----------------------------------------------------------------------
// from outcome to report
// ----------------------------------------------------------------------

/// Runs one workload in this process and reduces it to a report.
pub fn run(name: &str, seed: u64, seconds: f64, window: Window, sizes: &Sizes) -> WorkloadReport {
    let clients = crate::workload(name).map_or(1, |w| w.clients);
    let outcome = match name {
        "oltp_commit" => oltp_commit(seed, window, sizes, clients),
        "oltp_read" => oltp_read(seed, window, sizes, clients),
        "analytic" => analytic(seed, window, sizes),
        "view_churn" => view_churn(seed, window, sizes),
        "recovery" => recovery(seed, window, sizes),
        other => Err(format!("unknown workload `{other}`")),
    };
    report(name, seed, seconds, window, outcome)
}

/// Reduces a run's outcome to its report: the four gated metrics, the
/// ungated extras, and whether every oracle held.
pub fn report(
    name: &str,
    seed: u64,
    seconds: f64,
    window: Window,
    outcome: Result<Outcome, String>,
) -> WorkloadReport {
    let mut report = WorkloadReport {
        workload: name.to_owned(),
        mode: "end_to_end".to_owned(),
        seed,
        seconds,
        correct: false,
        attempted: 1,
        failed: 1,
        violations: Vec::new(),
        metrics: Vec::new(),
        extras: Vec::new(),
    };
    match outcome {
        Err(e) => report.violations.push(format!("the run broke off: {e}")),
        Ok(outcome) => fill(&mut report, &outcome, window),
    }
    report
}

/// Turns samples into the four gated metrics and the ungated extras.
fn fill(report: &mut WorkloadReport, outcome: &Outcome, window: Window) {
    let log = &outcome.log;
    report.attempted = log.attempted.max(1);
    report.failed = log.failed;
    report.violations = outcome.violations.clone();
    let Some(Summary {
        samples,
        ops_per_s,
        ops_per_s_spread,
        p50_us,
        p50_us_spread,
        tails,
    }) = summarize(&log.samples, window, None)
    else {
        report
            .violations
            .push("a measured segment completed no op".to_owned());
        return;
    };
    let rss = crate::proc::peak_rss_mib().unwrap_or(f64::NAN);
    report.metrics = vec![
        Metric::new("ops_per_s", ops_per_s, "op/s")
            .spread(ops_per_s_spread)
            .samples(samples),
        Metric::new("p50_us", p50_us, "us")
            .spread(p50_us_spread)
            .samples(samples),
        Metric::new("peak_rss_mib", rss, "MiB"),
        Metric::new("setup_s", outcome.setup_s(), "s").samples(outcome.setups_s.len()),
    ];
    debug_assert!(report
        .metrics
        .iter()
        .zip(crate::END_TO_END)
        .all(|(m, g)| m.name == g.name && m.unit == g.unit));
    for (q, us) in tails {
        report
            .extras
            .push(Metric::new(format!("p{q}_us"), us, "us").samples(samples));
    }
    report.extras.push(Metric::new(
        "cpu_us_per_op",
        log.cpu_us / log.attempted.max(1) as f64,
        "us",
    ));
    for &(kind, label) in &outcome.kinds {
        let from = if log.parts.is_empty() {
            &log.samples
        } else {
            &log.parts
        };
        if let Some(s) = summarize(from, window, Some(kind)) {
            report.extras.push(
                Metric::new(format!("{label}.p50_us"), s.p50_us, "us")
                    .spread(s.p50_us_spread)
                    .samples(s.samples),
            );
        }
    }
    report.extras.push(Metric::new(
        "txn.conflict_retries",
        log.conflict_retries as f64,
        "count",
    ));
    report.correct = report.violations.is_empty() && report.failed == 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SMOKE;

    fn smoke_window() -> Window {
        Window::new(0.05, 0.3)
    }

    #[test]
    fn every_workload_passes_its_oracles_at_smoke_size() {
        for w in crate::WORKLOADS {
            let r = run(w.name, 3, 0.3, smoke_window(), &SMOKE);
            assert!(r.correct, "{}: {:?}", w.name, r.violations);
            assert_eq!(r.failed, 0, "{}", w.name);
            assert!(r.attempted > 0);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, ["ops_per_s", "p50_us", "peak_rss_mib", "setup_s"]);
            assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        }
    }

    #[test]
    fn a_corrupted_expected_checksum_fails_the_run_and_its_exit_code() {
        let loaded = Accounts::generate(3, &SMOKE);
        let expected = loaded.clone().with_balance(0, loaded.balances[0] + 1);
        let outcome = oltp_read_against(&loaded, &expected, 3, smoke_window(), 1);
        let r = report("oltp_read", 3, 0.3, smoke_window(), outcome);
        // every aggregate read (one op in five) now disagrees with its
        // expectation: counted as failed, and no latency sample taken
        assert!(
            r.failed > 0 && r.failed < r.attempted,
            "{} of {}",
            r.failed,
            r.attempted
        );
        assert!(!r.correct);
        assert_eq!(
            crate::cli::finish(&r),
            1,
            "an oracle violation exits non-zero"
        );
        let ops = r
            .metric("ops_per_s")
            .expect("still measured")
            .samples
            .expect("counted");
        assert!(ops + r.failed <= r.attempted);
    }

    #[test]
    fn a_run_that_breaks_off_reports_itself_incorrect() {
        let r = report("oltp_read", 1, 1.0, smoke_window(), Err("boom".to_owned()));
        assert!(!r.correct && r.metrics.is_empty());
        assert!(r.violations[0].contains("boom"));
    }
}
