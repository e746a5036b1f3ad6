//! `trajectory` — the end-to-end half of the suite (tracing off).
//!
//! ```text
//! trajectory --seed 1                      every workload, each in a child process
//! trajectory --workload oltp_read --seed 1 --seconds 10
//! trajectory --smoke                       tiny sizes, oracles only, seconds
//! trajectory --aa                          suite twice (and the traced suite twice), compared
//! ```

use std::process::ExitCode;

use mera_trajectory::cli::{self, Args};
use mera_trajectory::e2e;
use mera_trajectory::json::Json;
use mera_trajectory::report::machine_json;
use mera_trajectory::END_TO_END;

fn single(name: &str, args: &Args) -> Result<i32, String> {
    let report = e2e::run(name, args.seed, args.seconds, args.window(), &args.sizes());
    cli::write_out(
        &format!("result-{name}.json"),
        &Json::obj([("report", report.to_json()), ("machine", machine_json())]),
    )?;
    Ok(cli::finish(&report))
}

fn suite(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let first = cli::run_suite(&exe, args, "result")?;
    let mut failures: Vec<String> = first
        .iter()
        .filter(|r| !r.correct)
        .map(|r| format!("{}: oracle violated or ops failed", r.workload))
        .collect();
    if args.aa {
        let second = cli::run_suite(&exe, args, "result")?;
        failures.extend(cli::compare_runs(&first, &second, &END_TO_END, &[]));
        // the traced half of --aa lives in the sibling binary
        let trace = exe.with_file_name("trajectory-trace");
        let mut cmd = std::process::Command::new(&trace);
        cmd.arg("--aa").args(["--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => failures.push(format!("trajectory-trace --aa: {s}")),
            Err(e) => failures.push(format!("{}: {e}", trace.display())),
        }
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    println!(
        "# claim: null — the suite measures; {} workloads, {} failures",
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
            eprintln!("trajectory: {e}");
            ExitCode::from(2)
        }
    }
}
