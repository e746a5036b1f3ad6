//! `trajectory-trace` — the per-layer half of the suite: the traced
//! replay, on one thread, in process. It is a binary of its own so that
//! the end-to-end binary carries neither spans nor the counting
//! allocator.
//!
//! ```text
//! trajectory-trace --seed 1                  every workload, each in a child process
//! trajectory-trace --workload view_churn --seed 1 --seconds 10
//! trajectory-trace --aa                      suite twice: exact counts must be identical
//! ```

use std::process::ExitCode;

use mera_trajectory::cli::{self, Args};
use mera_trajectory::json::Json;
use mera_trajectory::report::{machine_json, Metric, WorkloadReport};
use mera_trajectory::span::spans_json;
use mera_trajectory::trace;
use mera_trajectory::PER_LAYER;

#[global_allocator]
static ALLOC: mera_core::counting_alloc::CountingAlloc = mera_core::counting_alloc::CountingAlloc;

fn single(name: &str, args: &Args) -> Result<i32, String> {
    let mut report = WorkloadReport {
        workload: name.to_owned(),
        mode: "per_layer".to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        correct: false,
        attempted: 1,
        failed: 1,
        violations: Vec::new(),
        metrics: Vec::new(),
        extras: Vec::new(),
    };
    let mut spans = Json::Arr(Vec::new());
    match trace::run(name, args.seed, args.seconds, &args.sizes()) {
        Err(e) => report.violations.push(format!("the run broke off: {e}")),
        Ok(outcome) => {
            report.attempted = outcome.attempted.max(1);
            report.failed = outcome.failed;
            report.violations = outcome.violations;
            report.metrics = PER_LAYER
                .iter()
                .map(|l| {
                    let value = outcome.values.get(l.name).copied().unwrap_or(0.0);
                    Metric::new(l.name, value, l.unit)
                })
                .collect();
            // each span's share of the direct-API op
            let direct = outcome
                .values
                .get("direct_api.p50_us")
                .copied()
                .unwrap_or(0.0);
            if direct > 0.0 {
                for l in PER_LAYER
                    .iter()
                    .filter(|l| l.name.contains('.') && l.unit == "us")
                {
                    if let Some(v) = outcome.values.get(l.name).filter(|v| **v > 0.0) {
                        report.extras.push(Metric::new(
                            format!("{}.share_of_direct", l.name),
                            v / direct,
                            "ratio",
                        ));
                    }
                }
            }
            report.correct = report.violations.is_empty() && report.failed == 0;
            spans = spans_json(&outcome.spans);
        }
    }
    cli::write_out(
        &format!("trace-{name}.json"),
        &Json::obj([
            ("report", report.to_json()),
            ("machine", machine_json()),
            ("spans", spans),
        ]),
    )?;
    Ok(cli::finish(&report))
}

fn suite(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let first = cli::run_suite(&exe, args, "trace")?;
    let mut failures: Vec<String> = first
        .iter()
        .filter(|r| !r.correct)
        .map(|r| format!("{}: {}", r.workload, r.violations.join("; ")))
        .collect();
    if args.aa {
        let exact: Vec<&str> = PER_LAYER
            .iter()
            .filter(|l| l.exact)
            .map(|l| l.name)
            .collect();
        let second = cli::run_suite(&exe, args, "trace")?;
        failures.extend(cli::compare_runs(&first, &second, &[], &exact));
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    println!(
        "# claim: null — the trace decomposes; {} workloads, {} failures",
        first.len(),
        failures.len()
    );
    Ok(i32::from(!failures.is_empty()))
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| match &args.workload {
        Some(name) => single(name, &args),
        None => suite(&args),
    });
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("trajectory-trace: {e}");
            ExitCode::from(2)
        }
    }
}
