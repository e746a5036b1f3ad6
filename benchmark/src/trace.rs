//! The traced run: the same seeded op stream as the end-to-end run,
//! replayed on one thread in process, so that each layer's share of an
//! op can be timed from outside and counted exactly.
//!
//! A run has four parts, in this order because the first two count and
//! must start from a state that depends on the seed alone:
//!
//! 1. **counts** — a fixed number of ops through the direct API, with
//!    allocations, WAL bytes, syncs and view refreshes counted around
//!    them; then as many through the replica for wire bytes;
//! 2. **shadows** — each layer called standalone on the inputs of a
//!    fixed number of further ops;
//! 3. **timing** — direct API, replica with spans off and replica with
//!    spans on, taken in turn op by op so that drift hits all three
//!    alike;
//! 4. **loopback** — one client over the real server, for the transport
//!    share.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mera_core::counting_alloc::allocation_count;
use mera_store::MemStorage;

use crate::e2e::{self, Db, Front, Verdict};
use crate::gen::{self, Accounts, Analytic, Expect, Orders, Request, Sizes};
use crate::layers::{self, Replica};
use crate::span::{p50_us, self_time_per_op, self_times, Span};
use crate::stats::Window;

/// Ops whose spans are written to `trace-<workload>.json`.
pub const SPAN_OPS_KEPT: u32 = 200;

/// What a traced run hands back.
#[derive(Debug, Default)]
pub struct TraceOutcome {
    /// Per-layer values by metric name; names absent here are reported
    /// as 0 ("does not apply to this workload").
    pub values: BTreeMap<&'static str, f64>,
    /// Ops run, over all parts.
    pub attempted: u64,
    /// Ops that failed or returned something unexpected.
    pub failed: u64,
    /// Broken oracles and honesty checks.
    pub violations: Vec<String>,
    /// Spans of the first [`SPAN_OPS_KEPT`] timed ops.
    pub spans: Vec<Span>,
}

impl TraceOutcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// A source of ops: each call yields the requests of the next op.
type OpSource<'a> = Box<dyn FnMut() -> Vec<Request> + Send + 'a>;

/// Fixed op count of the counts part, per workload: enough ops that the
/// per-op figures are not the first op's one-off costs, few enough that
/// the slowest workload spends about a second here.
fn count_ops(workload: &str) -> usize {
    match workload {
        "analytic" => 10,
        "view_churn" => 40,
        "recovery" => 5,
        _ => 200,
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Drops the first tenth of a phase's samples: its warm-up.
fn settled(samples: &[u64]) -> &[u64] {
    &samples[samples.len() / 10..]
}

/// Runs the traced replay of one workload.
pub fn run(workload: &str, seed: u64, seconds: f64, sizes: &Sizes) -> Result<TraceOutcome, String> {
    match workload {
        "recovery" => trace_recovery(seed, seconds, sizes),
        "oltp_commit" | "oltp_read" => {
            let accounts = Accounts::generate(seed, sizes);
            let front = e2e::setup_accounts(&accounts, 1)?;
            let mut rng = gen::client_rng(seed, 0);
            let commit = workload == "oltp_commit";
            let source: OpSource = Box::new(move || {
                vec![if commit {
                    accounts.commit_op(&mut rng)
                } else {
                    accounts.read_op(&mut rng)
                }]
            });
            trace_served(workload, front, source, seconds)
        }
        "analytic" => {
            let data = Analytic::generate(seed, sizes);
            let load = data.load_xra();
            let expected = e2e::analytic_expectations(&data, &load)?;
            let front = e2e::setup_analytic(&load, e2e::store_options())?;
            let round = e2e::analytic_round(&expected);
            trace_served(workload, front, Box::new(move || round.clone()), seconds)
        }
        "view_churn" => {
            let mut orders = Orders::for_churn(seed, sizes);
            let front = e2e::setup_orders(&orders)?;
            trace_served(
                workload,
                front,
                Box::new(move || vec![orders.churn_op()]),
                seconds,
            )
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The four parts for a workload that is served over loopback.
fn trace_served(
    workload: &str,
    front: Front,
    mut source: OpSource,
    seconds: f64,
) -> Result<TraceOutcome, String> {
    let mut out = TraceOutcome::default();
    // one thread from here on: the server is stopped until part 4
    let storage = front.storage.clone();
    let db: Arc<Db> = front.stop();
    let judge_direct = |out: &mut TraceOutcome, result: &layers::ApiResult, request: &Request| {
        if !layers::as_expected(result, &request.expect) {
            out.failed += 1;
        }
    };

    // ---- part 1: exact counts over a fixed number of ops ----
    let n = count_ops(workload);
    let (units0, syncs0) = (storage.units_written(), storage.sync_count());
    let views0 = layers::view_refresh_counts(&db.pin());
    let (mut allocs, mut commits) = (0u64, 0u64);
    for _ in 0..n {
        out.attempted += 1;
        for request in source() {
            let before = allocation_count();
            let result = layers::direct(&db, &request);
            allocs += allocation_count() - before;
            judge_direct(&mut out, &result, &request);
            commits += u64::from(request.expect == Expect::Commit);
        }
    }
    let views1 = layers::view_refresh_counts(&db.pin());
    out.set("core.allocs_per_op", allocs as f64 / n as f64);
    if commits > 0 {
        let per = |x: u64| x as f64 / commits as f64;
        out.set(
            "store.wal_bytes_per_commit",
            per(storage.units_written() - units0),
        );
        out.set("store.syncs_per_commit", per(storage.sync_count() - syncs0));
        out.set("txn.view_delta_refreshes", per(views1.0 - views0.0));
        out.set("txn.view_recomputes", per(views1.1 - views0.1));
        if views1.1 > views0.1 {
            out.violations.push(format!(
                "{} view refreshes fell back to a recompute",
                views1.1 - views0.1
            ));
        }
    }
    let mut counter = Replica::new(Arc::clone(&db), storage.clone(), false);
    for _ in 0..n {
        out.attempted += 1;
        for request in source() {
            match counter
                .serve(&request)
                .map(|r| e2e::judge(&r, &request.expect))
            {
                Ok(Verdict::Ok) => {}
                _ => out.failed += 1,
            }
        }
    }
    out.set("server.bytes_in_per_op", counter.bytes_in as f64 / n as f64);
    out.set(
        "server.bytes_out_per_op",
        counter.bytes_out as f64 / n as f64,
    );

    // ---- part 2: shadows, while the state still depends on the seed alone ----
    let shadow_ops = (n / 4).max(3);
    let mut shadows: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut q_error = 1.0f64;
    for _ in 0..shadow_ops {
        let op = source();
        out.attempted += 1;
        let mut programs = Vec::new();
        for request in &op {
            programs.extend(layers::programs_of(&db, request)?);
        }
        let shadow = layers::shadow(&db, &programs)?;
        q_error = q_error.max(shadow.q_error);
        shadows
            .entry("analyze.program")
            .or_default()
            .push(shadow.analyze_ns);
        shadows
            .entry("opt.optimize")
            .or_default()
            .push(shadow.optimize_ns);
        shadows
            .entry("eval.execute")
            .or_default()
            .push(shadow.execute_ns);
        shadows
            .entry("core.db_clone")
            .or_default()
            .push(shadow.db_clone_ns);
        // apply the op for real, so the stream's next op finds its state
        let before = db.pin();
        for request in &op {
            judge_direct(&mut out, &layers::direct(&db, request), request);
        }
        let after = db.pin();
        if !before.views().is_empty() && after.seq() != before.seq() {
            shadows
                .entry("txn.views.refresh")
                .or_default()
                .push(layers::shadow_view_refresh(&db, &before, &after)?);
        }
    }
    for (name, samples) in &shadows {
        out.set(name, p50_us(samples));
    }
    out.set("opt.q_error", q_error);
    let (bytes, rows) = layers::snapshot_size(&db);
    out.set(
        "store.snapshot_bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
    );

    // ---- part 3: direct API, replica spans-off, replica spans-on, in turn ----
    // latencies of whole ops per lane, and of direct requests per kind
    let (mut direct_ops, mut off_ops, mut on_ops) = (Vec::new(), Vec::new(), Vec::new());
    let mut direct_kinds: BTreeMap<u8, Vec<u64>> = BTreeMap::new();
    let mut off = Replica::new(Arc::clone(&db), storage.clone(), false);
    let mut on = Replica::new(Arc::clone(&db), storage.clone(), true);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    let mut turn = 0usize;
    while Instant::now() < deadline {
        let op = source();
        out.attempted += 1;
        let mut op_ns = 0;
        match turn % 3 {
            0 => {
                for request in &op {
                    let t0 = Instant::now();
                    let result = layers::direct(&db, request);
                    let lat = ns(t0.elapsed());
                    op_ns += lat;
                    direct_kinds.entry(request.kind).or_default().push(lat);
                    judge_direct(&mut out, &result, request);
                }
                direct_ops.push(op_ns);
            }
            lane => {
                let (replica, ops) = if lane == 1 {
                    (&mut off, &mut off_ops)
                } else {
                    (&mut on, &mut on_ops)
                };
                replica.rec.next_op();
                for request in &op {
                    let t0 = Instant::now();
                    let reply = replica.serve(request);
                    op_ns += ns(t0.elapsed());
                    match reply.map(|r| e2e::judge(&r, &request.expect)) {
                        Ok(Verdict::Ok) => {}
                        _ => out.failed += 1,
                    }
                }
                ops.push(op_ns);
            }
        }
        turn += 1;
    }
    if direct_ops.len() < 10 || on_ops.len() < 10 {
        return Err(format!(
            "only {} direct and {} traced ops fit in the timing part",
            direct_ops.len(),
            on_ops.len()
        ));
    }
    let direct_us = p50_us(settled(&direct_ops));
    out.set("direct_api.p50_us", direct_us);
    for (kind, name) in kind_names(workload) {
        if let Some(lat) = direct_kinds.get(&kind) {
            out.set(name, p50_us(settled(lat)));
        }
    }
    out.set(
        "trace.overhead_frac",
        p50_us(settled(&on_ops)) / p50_us(settled(&off_ops)) - 1.0,
    );
    // spans of the settled ops only
    let skip = (on_ops.len() / 10) as u32;
    let spans = on.rec.spans();
    let per_op = self_time_per_op(spans, skip);
    for name in SPAN_NAMES {
        if let Some(samples) = per_op.get(name) {
            out.set(name, p50_us(samples));
        }
    }
    // what the named spans under `api` cover of the direct-API op
    let coverage = p50_us(&covered_per_op(spans, skip)) / direct_us;
    out.set("trace.coverage", coverage);
    if !(0.9..=1.1).contains(&coverage) {
        out.violations.push(format!(
            "trace.coverage is {coverage:.3}: the replica's spans no longer add up to the direct API"
        ));
    }
    out.spans = spans
        .iter()
        .take_while(|s| s.op <= SPAN_OPS_KEPT)
        .cloned()
        .collect();

    // ---- part 4: one client over the real server ----
    let front = Front::serve(Arc::clone(&db), storage.clone(), 1)?;
    let window = Window::new(seconds * 0.02, seconds * 0.2);
    let log = e2e::run_clients(&front, window, vec![&mut source])?;
    front.stop();
    out.attempted += log.attempted;
    out.failed += log.failed;
    let loopback: Vec<u64> = log
        .samples
        .iter()
        .filter(|s| s.done_ns >= window.warmup_ns)
        .map(|s| s.lat_ns)
        .collect();
    let loopback_us = p50_us(&loopback);
    out.set("loopback1.p50_us", loopback_us);
    let wire = |name| out.values.get(name).copied().unwrap_or(0.0);
    out.set(
        "server.transport",
        loopback_us - direct_us - wire("server.decode") - wire("server.encode"),
    );

    Ok(out)
}

/// Span names reported as per-op self-time medians.
const SPAN_NAMES: [&str; 15] = [
    "server.decode",
    "server.encode",
    "sql.parse",
    "sql.translate",
    "lang.parse",
    "lang.lower",
    "lang.print",
    "txn.pin",
    "txn.read",
    "txn.prepare",
    "txn.commit",
    "store.wal_encode",
    "store.append",
    "store.sync",
    "api",
];

/// Per-kind direct-API medians a workload reports.
fn kind_names(workload: &str) -> Vec<(u8, &'static str)> {
    match workload {
        "oltp_read" => vec![
            (gen::KIND_POINT, "point.p50_us"),
            (gen::KIND_AGG, "agg.p50_us"),
        ],
        "analytic" => vec![
            (1, "join_int.p50_us"),
            (2, "groupby_int.p50_us"),
            (3, "join_str.p50_us"),
            (4, "groupby_str.p50_us"),
        ],
        _ => Vec::new(),
    }
}

/// Per op (after the first `skip_ops`), the time the named spans under
/// `api` cover: `api`'s total duration minus its own self time.
fn covered_per_op(spans: &[Span], skip_ops: u32) -> Vec<u64> {
    let selfs = self_times(spans);
    let mut per_op: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if s.name == "api" && s.op > skip_ops {
            *per_op.entry(s.op).or_default() += (s.end_ns - s.start_ns) - own;
        }
    }
    per_op.into_values().collect()
}

/// The traced run of `recovery`: `ConcurrentDb::open` is the whole op
/// and cannot be taken apart from outside, so its parts are timed
/// standalone on the same bytes and replay is what remains.
fn trace_recovery(seed: u64, seconds: f64, sizes: &Sizes) -> Result<TraceOutcome, String> {
    let mut out = TraceOutcome::default();
    let image = e2e::build_crash_image(seed, 0, sizes)?;
    let reopen = || {
        e2e::open(
            MemStorage::from_image(image.files.clone()),
            e2e::store_options(),
        )
    };

    // counts
    let n = count_ops("recovery");
    let mut allocs = 0;
    for _ in 0..n {
        out.attempted += 1;
        let storage = MemStorage::from_image(image.files.clone());
        let before = allocation_count();
        let db = e2e::open(storage, e2e::store_options());
        allocs += allocation_count() - before;
        if db.is_err() {
            out.failed += 1;
        }
    }
    out.set("core.allocs_per_op", allocs as f64 / n as f64);

    // the recovered state must carry the catalog the set-up declared
    let db = reopen()?;
    let catalog = db.pin().catalog_schema();
    let declared = vec![("customers".to_owned(), vec![1usize])];
    let (keys, indexes) = layers::definitions(&db);
    if keys != declared || indexes != declared {
        out.violations.push(format!(
            "recovered keys {keys:?} and indexes {indexes:?}, declared {declared:?} for both"
        ));
    }

    // timing: plain open and open under a span, in turn; the image's
    // parts standalone once per round
    let mut rec = crate::span::Recorder::new(true);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut parts: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut last_parts = layers::ImageParts::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.8);
    while Instant::now() < deadline {
        out.attempted += 2;
        let storage = MemStorage::from_image(image.files.clone());
        let t0 = Instant::now();
        let db = e2e::open(storage, e2e::store_options());
        plain.push(ns(t0.elapsed()));
        out.failed += u64::from(db.is_err());
        drop(db);

        let storage = MemStorage::from_image(image.files.clone());
        rec.next_op();
        let t0 = Instant::now();
        let db = rec.span("store.open", || e2e::open(storage, e2e::store_options()));
        traced.push(ns(t0.elapsed()));
        out.failed += u64::from(db.is_err());
        drop(db);

        last_parts = layers::image_parts(&image.files, &catalog)?;
        parts
            .entry("store.wal_scan")
            .or_default()
            .push(last_parts.wal_scan_ns);
        parts
            .entry("store.snapshot_decode")
            .or_default()
            .push(last_parts.snapshot_decode_ns);
        parts
            .entry("lang.parse")
            .or_default()
            .push(last_parts.parse_ns);
        parts
            .entry("lang.lower")
            .or_default()
            .push(last_parts.lower_ns);
    }
    if plain.len() < 5 {
        return Err(format!(
            "only {} recoveries fit in the timing part",
            plain.len()
        ));
    }
    let open_us = p50_us(settled(&plain));
    out.set("direct_api.p50_us", open_us);
    out.set("store.open", p50_us(settled(&traced)));
    out.set(
        "trace.overhead_frac",
        p50_us(settled(&traced)) / open_us - 1.0,
    );
    for (name, samples) in &parts {
        out.set(name, p50_us(settled(samples)));
    }
    let known = out.values["store.wal_scan"] + out.values["store.snapshot_decode"];
    let replay = (open_us - known).max(0.0);
    out.set("store.replay", replay);
    // 1 by construction unless the standalone parts outweigh the whole
    out.set("trace.coverage", (known + replay) / open_us);
    out.set(
        "store.wal_bytes_per_commit",
        last_parts.commit_bytes as f64 / last_parts.commits.max(1) as f64,
    );
    out.set(
        "store.snapshot_bytes_per_row",
        last_parts.snapshot_bytes as f64 / last_parts.snapshot_rows.max(1) as f64,
    );
    out.spans = rec
        .spans()
        .iter()
        .take(SPAN_OPS_KEPT as usize)
        .cloned()
        .collect();

    // checkpoint and clone of the recovered state
    let mut checkpoints = Vec::new();
    let mut clones = Vec::new();
    for _ in 0..n {
        let t0 = Instant::now();
        db.checkpoint().map_err(|e| e.to_string())?;
        checkpoints.push(ns(t0.elapsed()));
        let t0 = Instant::now();
        std::hint::black_box(db.pin().database().clone());
        clones.push(ns(t0.elapsed()));
    }
    out.set("store.checkpoint", p50_us(&checkpoints));
    out.set("core.db_clone", p50_us(&clones));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SMOKE;
    use crate::PER_LAYER;

    /// Two traced runs with one seed must agree on every exact count.
    /// (Allocations read 0 here: only the `trajectory-trace` binary
    /// registers the counting allocator; its `--aa` covers them.)
    #[test]
    fn same_seed_same_counts_and_every_op_as_expected() {
        for w in crate::WORKLOADS {
            let a = run(w.name, 5, 0.6, &SMOKE).expect("first run");
            let b = run(w.name, 5, 0.6, &SMOKE).expect("second run");
            assert_eq!(a.failed, 0, "{}", w.name);
            for l in PER_LAYER.iter().filter(|l| l.exact) {
                assert_eq!(
                    a.values.get(l.name),
                    b.values.get(l.name),
                    "{} {}",
                    w.name,
                    l.name
                );
            }
            for name in a.values.keys() {
                assert!(
                    PER_LAYER.iter().any(|l| l.name == *name),
                    "{name} is not in PER_LAYER"
                );
            }
            assert!(a.values["direct_api.p50_us"] > 0.0);
            assert!(!a.spans.is_empty(), "{} recorded no spans", w.name);
        }
    }

    #[test]
    fn commit_workloads_count_one_sync_and_one_refresh_per_commit() {
        let t = run("view_churn", 2, 0.6, &SMOKE).expect("runs");
        assert_eq!(t.values["store.syncs_per_commit"], 1.0);
        assert_eq!(t.values["txn.view_delta_refreshes"], 1.0);
        assert_eq!(t.values["txn.view_recomputes"], 0.0);
        assert!(t.values["store.wal_bytes_per_commit"] > 100.0);
        assert!(t.values["txn.commit"] > 0.0 && t.values["txn.views.refresh"] > 0.0);
        let r = run("oltp_read", 2, 0.6, &SMOKE).expect("runs");
        assert!(
            !r.values.contains_key("store.syncs_per_commit"),
            "reads never sync"
        );
        assert!(r.values["txn.read"] > 0.0 && !r.values.contains_key("txn.commit"));
    }
}
