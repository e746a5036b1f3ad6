//! # mera-trajectory — the fixed five-workload benchmark
//!
//! One suite, re-run every PR: five workloads, four end-to-end metrics
//! measured through the front door with tracing off, and a separate
//! traced run that times the calls into each crate from outside. See
//! `README.md` for why each workload exists and what each name means.
//!
//! * [`gen`] — seeded tables and op streams (text only),
//! * [`e2e`] — the end-to-end runs (front door only),
//! * [`layers`] — the traced replica (the one module that reaches into
//!   the crates' public insides) and [`trace`], the run built on it,
//! * [`span`], [`stats`], [`check`], [`json`], [`proc`], [`rng`] —
//!   the arithmetic and plumbing,
//! * [`report`], [`cli`] — what both binaries print and accept.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod e2e;
pub mod gen;
pub mod json;
pub mod layers;
pub mod proc;
pub mod report;
pub mod rng;
pub mod span;
pub mod stats;
pub mod trace;

/// Discarded lead-in of every measured window, in seconds: long enough
/// for the interner, the version chain and the allocator to reach their
/// steady state on every workload.
pub const WARMUP_S: f64 = 2.0;

/// Measured seconds per run when none are given (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;

/// One workload of the suite.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Its name on the command line and in every report.
    pub name: &'static str,
    /// Closed-loop client connections (0: no wire, one driver thread).
    pub clients: usize,
}

/// The suite, in report order. `nproc` is 2 where the record is kept, so
/// the OLTP workloads use 2 clients against 2 session workers; one
/// ping-pong pair alone is at the mercy of where the scheduler puts it.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "oltp_commit",
        clients: 2,
    },
    WorkloadSpec {
        name: "oltp_read",
        clients: 2,
    },
    WorkloadSpec {
        name: "analytic",
        clients: 1,
    },
    WorkloadSpec {
        name: "view_churn",
        clients: 1,
    },
    WorkloadSpec {
        name: "recovery",
        clients: 0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A gated end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
    /// Absolute difference below which `--aa` does not compare a pair:
    /// a 1 ms set-up that doubles is noise, not a regression.
    pub floor: f64,
}

/// The four end-to-end metrics, the same on every workload. The bounds
/// are what this 2-core shared sandbox can resolve: ten runs with ten
/// seeds spread by 2–9 % on the timed metrics (`README.md` has the
/// table), and a bound is kept at three times the widest spread seen.
pub const END_TO_END: [Gated; 4] = [
    Gated {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    Gated {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    Gated {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        floor: 0.0,
    },
    Gated {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.2,
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name: a span (`txn.commit`), a count
    /// (`core.allocs_per_op`) or a reference point (`direct_api.p50_us`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// A count that two runs with the same seed must reproduce exactly.
    pub exact: bool,
}

const fn span_us(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "us",
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Every per-layer metric, in report order. A traced run reports all of
/// them on every workload; one that does not apply reads 0 (`README.md`
/// has the table of which applies where).
pub const PER_LAYER: [Layer; 45] = [
    // spans on the blocking path: median self time per op
    span_us("server.decode"),
    span_us("server.encode"),
    span_us("server.transport"),
    span_us("sql.parse"),
    span_us("sql.translate"),
    span_us("lang.parse"),
    span_us("lang.lower"),
    span_us("lang.print"),
    span_us("txn.pin"),
    span_us("txn.read"),
    span_us("txn.prepare"),
    span_us("txn.commit"),
    span_us("store.wal_encode"),
    span_us("store.append"),
    span_us("store.sync"),
    span_us("store.open"),
    span_us("store.wal_scan"),
    span_us("store.snapshot_decode"),
    span_us("store.replay"),
    span_us("store.checkpoint"),
    // shadow spans: the same inputs, each layer called standalone
    span_us("analyze.program"),
    span_us("opt.optimize"),
    span_us("eval.execute"),
    span_us("txn.views.refresh"),
    span_us("core.db_clone"),
    // counts over a fixed number of ops
    count("core.allocs_per_op", "count"),
    count("store.wal_bytes_per_commit", "B"),
    count("store.syncs_per_commit", "count"),
    count("store.snapshot_bytes_per_row", "B"),
    count("server.bytes_in_per_op", "B"),
    count("server.bytes_out_per_op", "B"),
    count("txn.view_delta_refreshes", "count"),
    count("txn.view_recomputes", "count"),
    count("opt.q_error", "ratio"),
    // per-query and per-kind medians through the direct API
    span_us("join_int.p50_us"),
    span_us("groupby_int.p50_us"),
    span_us("join_str.p50_us"),
    span_us("groupby_str.p50_us"),
    span_us("point.p50_us"),
    span_us("agg.p50_us"),
    // reference points and the two checks that keep the trace honest
    span_us("api"),
    span_us("direct_api.p50_us"),
    span_us("loopback1.p50_us"),
    Layer {
        name: "trace.coverage",
        unit: "ratio",
        better: Better::Higher,
        exact: false,
    },
    Layer {
        name: "trace.overhead_frac",
        unit: "ratio",
        better: Better::Lower,
        exact: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repository root is what the driver reads;
    /// the tables above are what the binaries report. They must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_owned);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let workloads = doc.get("workloads").expect("workloads").elements();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(j, "name").as_deref(), Some(w.name));
            let why = field(j, "why").expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name);
        }
        let gated = doc.get("end_to_end").expect("end_to_end").elements();
        assert_eq!(gated.len(), END_TO_END.len());
        for (j, g) in gated.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name").as_deref(), Some(g.name));
            assert_eq!(field(j, "unit").as_deref(), Some(g.unit));
            assert_eq!(field(j, "better").as_deref(), Some(g.better.word()));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(g.bound));
            assert!(g.bound <= 0.25);
        }
        let layers = doc.get("per_layer").expect("per_layer").elements();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, l) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name").as_deref(), Some(l.name));
            assert_eq!(field(j, "unit").as_deref(), Some(l.unit));
            assert_eq!(field(j, "better").as_deref(), Some(l.better.word()));
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.extend(END_TO_END.iter().map(|g| g.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
    }
}
