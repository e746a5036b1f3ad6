//! The traced replica: one request taken through the same public calls
//! `mera-server` and `ConcurrentDb::{run_sql, run_script, try_execute}`
//! make, with a span around each call into a crate.
//!
//! This is the one module that reaches into the crates' public insides
//! (`MvccManager::prepare`, `Optimizer::optimize`, `wal::scan`, …). A
//! refactor that moves those APIs breaks this file and the traced run —
//! never `e2e` and the end-to-end record. Spans *inside* the crates are
//! a later change; from outside, `txn.prepare` stays one undivided span
//! (analyze + optimize + plan + execute), and the shadow spans below say
//! roughly how it divides.

use std::sync::Arc;
use std::time::Instant;

use mera_analyze::KeyEnv;
use mera_core::prelude::*;
use mera_eval::Engine;
use mera_expr::RelExpr;
use mera_lang::{lower_script, parse_program, parse_script, program_to_xra, Lowerer, RunResult};
use mera_opt::{choose_access_paths, estimate_rows, Optimizer};
use mera_server::protocol::{read_frame, write_frame, BATCH_ROWS};
use mera_server::{Reply, Request as WireRequest, Response, Row};
use mera_sql::Translated;
use mera_store::{
    snapshot, wal, MemStorage, Storage, StoreError, StoreResult, WalRecord, WAL_FILE,
};
use mera_txn::mvcc::Version;
use mera_txn::{analyze_program_with_views, DeltaMap, Outcome, Program, Statement, TupleDelta};

use crate::check::{digest_of, Digest};
use crate::e2e::Db;
use crate::gen::{Door, Expect, Request};
use crate::span::Recorder;

/// What a door returns in process, before the server renders it.
pub enum ApiResult {
    /// From `run_sql`.
    Sql(StoreResult<Option<Relation>>),
    /// From `run_script`.
    Xra(StoreResult<Vec<RunResult>>),
}

/// The direct API: the door's own entry point, no server, no spans.
pub fn direct(db: &Db, request: &Request) -> ApiResult {
    match request.door {
        Door::Sql => ApiResult::Sql(db.run_sql(&request.text)),
        Door::Xra => ApiResult::Xra(db.run_script(&request.text)),
    }
}

/// Digest of a relation, rendered as the server would render it.
pub fn relation_digest(relation: &Relation) -> Digest {
    digest_of(relation.iter().map(|(tuple, multiplicity)| {
        (
            multiplicity,
            tuple.values().iter().map(Value::to_string).collect(),
        )
    }))
}

/// Whether an in-process result is what the request expected.
pub fn as_expected(result: &ApiResult, expect: &Expect) -> bool {
    let relations: Vec<&Relation> = match result {
        ApiResult::Sql(Ok(relation)) => relation.iter().collect(),
        ApiResult::Xra(Ok(results)) => {
            let mut out = Vec::new();
            for r in results {
                match r {
                    RunResult::Committed(queries) => out.extend(queries),
                    RunResult::Aborted(_) => return false,
                }
            }
            out
        }
        _ => return false,
    };
    match expect {
        Expect::Commit => relations.is_empty(),
        Expect::Rows(want) => matches!(relations[..], [r] if relation_digest(r) == *want),
    }
}

/// A database plus what the replica needs beside it: a handle on the
/// files (the commit hook appends through it, as `ConcurrentDb` does
/// under `FsyncPolicy::Always`) and the span recorder.
pub struct Replica {
    /// The database the replica drives.
    pub db: Arc<Db>,
    /// A handle on the database's files.
    pub storage: MemStorage,
    /// The span recorder (inert when made disabled).
    pub rec: Recorder,
    /// Request bytes taken off the "wire" so far.
    pub bytes_in: u64,
    /// Response bytes put on the "wire" so far.
    pub bytes_out: u64,
}

impl Replica {
    /// A replica over `db`, recording spans iff `spans`.
    pub fn new(db: Arc<Db>, storage: MemStorage, spans: bool) -> Replica {
        Replica {
            db,
            storage,
            rec: Recorder::new(spans),
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Serves one request as a session worker would: frame in, decode,
    /// execute, render, encode, frames out. Returns the reply as a
    /// client would assemble it. The caller starts each op with
    /// `rec.next_op()`; an op may be several requests.
    pub fn serve(&mut self, request: &Request) -> Result<Reply, String> {
        // the client's half, outside every span
        let wire = match request.door {
            Door::Sql => WireRequest::Sql(request.text.clone()),
            Door::Xra => WireRequest::Xra(request.text.clone()),
        };
        let mut inbound = Vec::new();
        write_frame(&mut inbound, &wire.encode()).map_err(|e| e.to_string())?;
        self.bytes_in += inbound.len() as u64;

        let op = self.rec.enter("op");
        let decode = self.rec.enter("server.decode");
        let payload = read_frame(&mut &inbound[..])
            .map_err(|e| e.to_string())?
            .ok_or("empty request frame")?;
        let decoded = WireRequest::decode(&payload).map_err(|e| e.to_string())?;
        self.rec.exit(decode);

        let api = self.rec.enter("api");
        let result = match &decoded {
            WireRequest::Sql(sql) => ApiResult::Sql(self.run_sql(sql)),
            WireRequest::Xra(src) => ApiResult::Xra(self.run_script(src)),
            WireRequest::Ping => return Err("ping is not an op".to_owned()),
        };
        self.rec.exit(api);

        let encode = self.rec.enter("server.encode");
        let mut outbound = Vec::new();
        for response in respond(&result) {
            write_frame(&mut outbound, &response.encode()).map_err(|e| e.to_string())?;
        }
        self.rec.exit(encode);
        self.rec.exit(op);
        self.bytes_out += outbound.len() as u64;
        assemble(&outbound)
    }

    /// `ConcurrentDb::run_sql`, call for call.
    fn run_sql(&mut self, sql: &str) -> StoreResult<Option<Relation>> {
        let stmt = self.rec.span("sql.parse", || mera_sql::parse_sql(sql))?;
        let db = &self.db;
        let catalog = self.rec.span("txn.pin", || db.pin().catalog_schema());
        let translated = self
            .rec
            .span("sql.translate", || mera_sql::translate(&stmt, &catalog))?;
        if matches!(
            translated,
            Translated::CreateView { .. } | Translated::CreateTable { .. }
        ) {
            return Err(StoreError::TransactionAborted(
                "the replica serves ops, not DDL".to_owned(),
            ));
        }
        let is_query = matches!(translated, Translated::Query(_));
        let program = Program::single(translated.into_statement());
        match self.try_execute(&program)? {
            Outcome::Committed(mut outputs) => Ok(is_query.then(|| outputs.queries.remove(0))),
            Outcome::Aborted(reason) => Err(StoreError::TransactionAborted(reason.to_string())),
        }
    }

    /// `ConcurrentDb::run_script`, call for call (ops declare nothing).
    fn run_script(&mut self, src: &str) -> StoreResult<Vec<RunResult>> {
        let script = self.rec.span("lang.parse", || parse_script(src))?;
        let db = &self.db;
        let catalog = self.rec.span("txn.pin", || db.pin().catalog_schema());
        let lowered = self
            .rec
            .span("lang.lower", || lower_script(&script, &catalog))?;
        if !(lowered.declarations.is_empty() && lowered.views.is_empty() && lowered.keys.is_empty())
        {
            return Err(StoreError::TransactionAborted(
                "the replica serves ops, not DDL".to_owned(),
            ));
        }
        let mut results = Vec::with_capacity(lowered.transactions.len());
        for program in &lowered.transactions {
            results.push(match self.try_execute(program)? {
                Outcome::Committed(outputs) => RunResult::Committed(outputs.queries),
                Outcome::Aborted(reason) => RunResult::Aborted(reason.to_string()),
            });
        }
        Ok(results)
    }

    /// `ConcurrentDb::try_execute` under `FsyncPolicy::Always`: pin,
    /// prepare, and for a writer print the redo text and commit with a
    /// hook that encodes, appends and syncs the WAL frame.
    fn try_execute(&mut self, program: &Program) -> StoreResult<Outcome> {
        let mvcc = self.db.mvcc();
        let start = self.rec.span("txn.pin", || mvcc.pin());
        let writes = program
            .statements
            .iter()
            .any(|s| !matches!(s, Statement::Query { .. } | Statement::Assign { .. }));
        // from outside, prepare is one call: analysis, optimization,
        // planning and execution are not separable here
        let prepare = self
            .rec
            .enter(if writes { "txn.prepare" } else { "txn.read" });
        let prepared = match mvcc.prepare(start, program) {
            Ok(p) => p,
            Err(reason) => {
                self.rec.exit(prepare);
                return Ok(Outcome::Aborted(reason));
            }
        };
        if prepared.is_read_only() {
            let (outcome, _) = mvcc.try_commit::<StoreError>(prepared, |_| Ok(()))?;
            self.rec.exit(prepare);
            return Ok(outcome);
        }
        self.rec.exit(prepare);
        let text = self.rec.span("lang.print", || program_to_xra(program));
        let commit = self.rec.enter("txn.commit");
        let (rec, storage) = (&mut self.rec, &mut self.storage);
        let committed = mvcc.try_commit(prepared, |time| -> StoreResult<()> {
            let frame = rec.span("store.wal_encode", || {
                WalRecord::Commit {
                    time,
                    text: text.to_owned(),
                }
                .encode_frame()
            });
            rec.span("store.append", || storage.append(WAL_FILE, &frame))?;
            rec.span("store.sync", || storage.sync(WAL_FILE))
        });
        self.rec.exit(commit);
        Ok(committed?.0)
    }
}

/// `mera_server`'s `execute`: the response sequence of one result.
fn respond(result: &ApiResult) -> Vec<Response> {
    let aborted = |reason: &str| {
        vec![
            Response::Notice(format!("transaction aborted: {reason}")),
            Response::Done {
                committed: 0,
                aborted: 1,
            },
        ]
    };
    match result {
        ApiResult::Sql(Ok(relation)) => {
            let mut out = relation.as_ref().map_or(Vec::new(), render);
            out.push(Response::Done {
                committed: 1,
                aborted: 0,
            });
            out
        }
        ApiResult::Sql(Err(StoreError::TransactionAborted(reason))) => aborted(reason),
        ApiResult::Xra(Ok(results)) => {
            let mut out = Vec::new();
            let (mut committed, mut aborted) = (0u32, 0u32);
            for result in results {
                match result {
                    RunResult::Committed(queries) => {
                        committed += 1;
                        out.extend(queries.iter().flat_map(render));
                    }
                    RunResult::Aborted(reason) => {
                        aborted += 1;
                        out.push(Response::Notice(format!("transaction aborted: {reason}")));
                    }
                }
            }
            out.push(Response::Done { committed, aborted });
            out
        }
        ApiResult::Sql(Err(e)) | ApiResult::Xra(Err(e)) => vec![Response::Error(e.to_string())],
    }
}

/// `mera_server`'s `render`: one relation as `RowBatch` frames.
fn render(relation: &Relation) -> Vec<Response> {
    let rows: Vec<Row> = relation
        .iter()
        .map(|(tuple, multiplicity)| Row {
            multiplicity,
            values: tuple.values().iter().map(|v| v.to_string()).collect(),
        })
        .collect();
    if rows.is_empty() {
        return vec![Response::RowBatch {
            last: true,
            rows: Vec::new(),
        }];
    }
    let batches = rows.len().div_ceil(BATCH_ROWS);
    let mut rows = rows.into_iter();
    (0..batches)
        .map(|i| Response::RowBatch {
            last: i + 1 == batches,
            rows: rows.by_ref().take(BATCH_ROWS).collect(),
        })
        .collect()
}

/// `Client::roundtrip`'s assembly of a response sequence into a reply.
fn assemble(mut outbound: &[u8]) -> Result<Reply, String> {
    let mut reply = Reply::default();
    let mut open: Vec<Row> = Vec::new();
    while let Some(payload) = read_frame(&mut outbound).map_err(|e| e.to_string())? {
        match Response::decode(&payload).map_err(|e| e.to_string())? {
            Response::RowBatch { last, rows } => {
                open.extend(rows);
                if last {
                    reply.results.push(std::mem::take(&mut open));
                }
            }
            Response::Notice(msg) => reply.notices.push(msg),
            Response::Done { committed, aborted } => {
                reply.committed = committed;
                reply.aborted = aborted;
                return Ok(reply);
            }
            Response::Error(msg) => return Err(msg),
            Response::Pong => return Err("unexpected Pong".to_owned()),
        }
    }
    Err("response sequence ended without Done".to_owned())
}

// ----------------------------------------------------------------------
// shadow spans: the same inputs, each layer called standalone
// ----------------------------------------------------------------------

/// Turns request text into the programs it would run, untimed.
pub fn programs_of(db: &Db, request: &Request) -> Result<Vec<Program>, String> {
    let catalog = db.pin().catalog_schema();
    match request.door {
        Door::Sql => {
            let stmt = mera_sql::parse_sql(&request.text).map_err(|e| e.to_string())?;
            let translated = mera_sql::translate(&stmt, &catalog).map_err(|e| e.to_string())?;
            Ok(vec![Program::single(translated.into_statement())])
        }
        Door::Xra => {
            let script = parse_script(&request.text).map_err(|e| e.to_string())?;
            Ok(lower_script(&script, &catalog)
                .map_err(|e| e.to_string())?
                .transactions)
        }
    }
}

/// Nanoseconds each layer takes when called standalone on one op's
/// inputs. Reported beside the spans, never subtracted from them.
#[derive(Debug, Default, Clone)]
pub struct Shadow {
    /// `analyze_program_with_views` over the op's programs.
    pub analyze_ns: u64,
    /// `Optimizer::optimize` (+ `choose_access_paths`) per expression.
    pub optimize_ns: u64,
    /// `Engine::run` on the optimized expressions.
    pub execute_ns: u64,
    /// `Database::clone` of the pinned version.
    pub db_clone_ns: u64,
    /// Worst root estimate-vs-actual ratio over the op's expressions.
    pub q_error: f64,
}

fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_nanos() as u64;
    out
}

/// The relational expression a statement evaluates.
fn expr_of(stmt: &Statement) -> &RelExpr {
    match stmt {
        Statement::Insert { expr, .. }
        | Statement::Delete { expr, .. }
        | Statement::Update { expr, .. }
        | Statement::Assign { expr, .. }
        | Statement::Query { expr } => expr,
    }
}

/// Calls analyzer, optimizer and engine standalone on one op's programs
/// against a pinned version, the way `mera_txn`'s `eval_expr` wires
/// them: statistics and keys into the optimizer, indexes and access-path
/// hints into the engine.
pub fn shadow(db: &Db, programs: &[Program]) -> Result<Shadow, String> {
    let version = db.pin();
    let config = db.mvcc().config();
    let catalog = version.catalog_schema();
    let mut out = Shadow {
        q_error: 1.0,
        ..Shadow::default()
    };
    for program in programs {
        timed(&mut out.analyze_ns, || {
            analyze_program_with_views(version.database(), version.views(), program)
        });
        for stmt in &program.statements {
            let expr = expr_of(stmt);
            let (optimized, engine) = timed(&mut out.optimize_ns, || -> CoreResult<_> {
                let mut optimizer = Optimizer::standard().with_stats(Arc::clone(version.stats()));
                let mut keys = KeyEnv::new();
                for (relation, attrs) in version.keys().definitions() {
                    keys.declare(relation, attrs);
                }
                if !keys.is_empty() {
                    optimizer = optimizer.with_keys(keys);
                }
                let optimized = optimizer.optimize(expr, &catalog)?.expr;
                let mut engine = Engine::new(config.engine).with_options(config.options);
                let defs = version.indexes().definitions();
                if !defs.is_empty() {
                    let hints = choose_access_paths(&optimized, version.stats(), &defs, &catalog)?;
                    engine = engine
                        .with_shared_indexes(Arc::clone(version.indexes()))
                        .with_index_hints(hints);
                }
                Ok((optimized, engine))
            })
            .map_err(|e| e.to_string())?;
            let result = timed(&mut out.execute_ns, || {
                engine.run(&optimized, version.database())
            })
            .map_err(|e| e.to_string())?;
            let estimate = estimate_rows(&optimized, version.stats()).max(1.0);
            let actual = (result.len() as f64).max(1.0);
            out.q_error = out.q_error.max(estimate / actual).max(actual / estimate);
        }
    }
    timed(&mut out.db_clone_ns, || {
        std::hint::black_box(version.database().clone())
    });
    Ok(out)
}

/// Nanoseconds `ViewSet::refresh_after_commit` takes on the delta
/// between two versions (the one a commit started from and the one it
/// published), called standalone on a clone of the older view set.
pub fn shadow_view_refresh(db: &Db, before: &Version, after: &Version) -> Result<u64, String> {
    let mut deltas = DeltaMap::new();
    for name in before.database().relation_names() {
        let (old, new) = (
            before
                .database()
                .relation(name)
                .map_err(|e| e.to_string())?,
            after.database().relation(name).map_err(|e| e.to_string())?,
        );
        let delta = TupleDelta::from_diff(old.bag(), new.bag()).map_err(|e| e.to_string())?;
        if !delta.is_empty() {
            deltas.insert(name.to_owned(), delta);
        }
    }
    let mut views = before.views().clone();
    let config = db.mvcc().config();
    let mut ns = 0;
    timed(&mut ns, || {
        views.refresh_after_commit(deltas, after.database(), config)
    })
    .map_err(|e| e.to_string())?;
    Ok(ns)
}

/// `(delta refreshes, full recomputes)` summed over a version's views.
pub fn view_refresh_counts(version: &Version) -> (u64, u64) {
    version
        .views()
        .iter()
        .map(|v| v.refresh_stats())
        .fold((0, 0), |(r, f), (vr, vf)| (r + vr, f + vf))
}

// ----------------------------------------------------------------------
// recovery, from outside
// ----------------------------------------------------------------------

/// What a crash image is made of, measured standalone.
#[derive(Debug, Default, Clone)]
pub struct ImageParts {
    /// `wal::scan` over the WAL bytes, ns.
    pub wal_scan_ns: u64,
    /// `snapshot::decode` over the snapshot bytes, ns.
    pub snapshot_decode_ns: u64,
    /// Parsing every logged commit's text, ns (shadow of `lang.parse`).
    pub parse_ns: u64,
    /// Lowering every logged commit's program, ns (shadow of `lang.lower`).
    pub lower_ns: u64,
    /// Commit records in the WAL.
    pub commits: u64,
    /// Bytes of those commit frames.
    pub commit_bytes: u64,
    /// Snapshot bytes.
    pub snapshot_bytes: u64,
    /// Rows (total multiplicity) in the snapshot.
    pub snapshot_rows: u64,
}

/// Scans and decodes an image's files standalone, and parses and lowers
/// its logged commits against `catalog` (the recovered schema).
pub fn image_parts(
    files: &std::collections::BTreeMap<String, Vec<u8>>,
    catalog: &DatabaseSchema,
) -> Result<ImageParts, String> {
    let mut parts = ImageParts::default();
    let wal_bytes = files.get(WAL_FILE).ok_or("image has no WAL")?;
    let scanned =
        timed(&mut parts.wal_scan_ns, || wal::scan(wal_bytes)).map_err(|e| e.to_string())?;
    if let Some(bytes) = files.get(mera_store::SNAPSHOT_FILE) {
        let db = timed(&mut parts.snapshot_decode_ns, || snapshot::decode(bytes))
            .map_err(|e| e.to_string())?;
        parts.snapshot_bytes = bytes.len() as u64;
        for name in db.relation_names() {
            parts.snapshot_rows += db.relation(name).map_err(|e| e.to_string())?.len();
        }
    }
    for record in &scanned.records {
        if let WalRecord::Commit { text, .. } = record {
            parts.commits += 1;
            parts.commit_bytes += record.encode_frame().len() as u64;
            let parsed =
                timed(&mut parts.parse_ns, || parse_program(text)).map_err(|e| e.to_string())?;
            timed(&mut parts.lower_ns, || {
                Lowerer::new(catalog).lower_program(&parsed)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(parts)
}

/// Catalog definitions: `(relation, 1-based attributes)` each.
pub type Definitions = Vec<(String, Vec<usize>)>;

/// Key and index definitions of a database's newest version.
pub fn definitions(db: &Db) -> (Definitions, Definitions) {
    let version = db.pin();
    (
        version.keys().definitions(),
        version.indexes().definitions(),
    )
}

/// Bytes of a snapshot of the newest version, and the rows in it.
pub fn snapshot_size(db: &Db) -> (u64, u64) {
    let version = db.pin();
    let database = version.database();
    let rows = database
        .relation_names()
        .filter_map(|n| database.relation(n).ok())
        .map(Relation::len)
        .sum();
    (snapshot::encode(database).len() as u64, rows)
}
