//! Command line and suite plumbing shared by `trajectory` and
//! `trajectory-trace`.
//!
//! With `--workload` a binary runs that workload in this process and
//! ends its stdout with the contract's JSON line. Without it, it runs
//! every workload, each in a fresh child process of the same binary, so
//! that peak memory, interner and pool state are per workload.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::gen::{Sizes, FULL, SMOKE};
use crate::json::Json;
use crate::report::{suite_json, WorkloadReport};
use crate::stats::Window;
use crate::{Gated, DEFAULT_SECONDS, WARMUP_S, WORKLOADS};

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Run only this workload, in this process.
    pub workload: Option<String>,
    /// Generator seed.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: f64,
    /// Tiny sizes and windows: oracles only.
    pub smoke: bool,
    /// Run the suite twice and compare the two.
    pub aa: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// --smoke --aa`. `--trace` is accepted and ignored: `run.sh` has
    /// already picked the binary by it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            aa: false,
        };
        let mut seconds_given = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    if crate::workload(&name).is_none() {
                        return Err(format!("unknown workload `{name}`"));
                    }
                    out.workload = Some(name);
                }
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    seconds_given = true;
                }
                "--trace" => {
                    value()?;
                }
                "--smoke" => out.smoke = true,
                "--aa" => out.aa = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if out.smoke && !seconds_given {
            out.seconds = 0.5;
        }
        if !(out.seconds > 0.0 && out.seconds <= 60.0) {
            return Err(format!("--seconds {} is outside (0, 60]", out.seconds));
        }
        Ok(out)
    }

    /// Data sizes for this run.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }

    /// Warm-up seconds for this run.
    pub fn warmup(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            WARMUP_S
        }
    }

    /// The measured window for this run.
    pub fn window(&self) -> Window {
        Window::new(self.warmup(), self.seconds)
    }
}

/// Where reports and traces go: `trajectory/` under the cargo target
/// directory (`target/` unless `CARGO_TARGET_DIR` says otherwise).
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("trajectory")
}

/// Writes `doc` to `name` under [`out_dir`].
pub fn write_out(name: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Finishes a single-workload run: human lines, then the contract line
/// last. Returns the process exit code — non-zero when an oracle failed.
pub fn finish(report: &WorkloadReport) -> i32 {
    print!("{}", report.human());
    println!("{}", report.contract_line());
    i32::from(!report.correct)
}

/// Runs the whole suite once — every workload as a child process of
/// `exe`, reports collected from the files the children write — and
/// writes `<file_prefix>.json`.
pub fn run_suite(
    exe: &std::path::Path,
    args: &Args,
    file_prefix: &str,
) -> Result<Vec<WorkloadReport>, String> {
    let t0 = Instant::now();
    let mut reports = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // the child's lines go straight to this process's stdout
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let path = out_dir().join(format!("{file_prefix}-{}.json", w.name));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{} ({status}): {e}", path.display()))?;
        let report = Json::parse(&text)?
            .get("report")
            .and_then(WorkloadReport::from_json)
            .ok_or(format!("{}: not a workload report", path.display()))?;
        if !status.success() && report.correct {
            return Err(format!("{} exited with {status}", w.name));
        }
        reports.push(report);
    }
    let doc = suite_json(
        args.seed,
        args.seconds,
        t0.elapsed().as_secs_f64(),
        &reports,
    );
    let path = write_out(&format!("{file_prefix}.json"), &doc)?;
    println!("# wrote {}", path.display());
    Ok(reports)
}

/// Compares two runs of the same code. `bounded` metrics must agree
/// within their bound (either way round, since neither run is the
/// parent) unless they differ by less than their floor; `exact` names
/// counts that must be identical. Returns one line per disagreement.
pub fn compare_runs(
    a: &[WorkloadReport],
    b: &[WorkloadReport],
    bounded: &[Gated],
    exact: &[&str],
) -> Vec<String> {
    let mut out = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let w = &ra.workload;
        for &Gated {
            name, bound, floor, ..
        } in bounded
        {
            let (Some(x), Some(y)) = (ra.metric(name), rb.metric(name)) else {
                out.push(format!("{w} {name}: missing from a run"));
                continue;
            };
            let base = x.value.abs().min(y.value.abs());
            let gap = (x.value - y.value).abs();
            if base > 0.0 && gap > floor && gap / base > bound {
                out.push(format!(
                    "{w} {name}: {} vs {} differ by {:.1}% (bound {:.0}%)",
                    x.value,
                    y.value,
                    100.0 * gap / base,
                    100.0 * bound
                ));
            }
        }
        for &name in exact {
            let (Some(x), Some(y)) = (ra.metric(name), rb.metric(name)) else {
                out.push(format!("{w} {name}: missing from a run"));
                continue;
            };
            if x.value != y.value {
                out.push(format!("{w} {name}: count {} vs {}", x.value, y.value));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metric;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = args(&[
            "--workload",
            "analytic",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("analytic"));
        assert_eq!((a.seed, a.seconds, a.smoke, a.aa), (42, 10.0, false, false));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        let smoke = args(&["--smoke"]).expect("parses");
        assert!(smoke.seconds < 1.0 && smoke.sizes() == SMOKE);
    }

    fn report(ops: f64, allocs: f64) -> WorkloadReport {
        WorkloadReport {
            workload: "w".to_owned(),
            mode: "end_to_end".to_owned(),
            seed: 1,
            seconds: 1.0,
            correct: true,
            attempted: 1,
            failed: 0,
            violations: Vec::new(),
            metrics: vec![Metric::new("ops_per_s", ops, "op/s")],
            extras: vec![Metric::new("core.allocs_per_op", allocs, "count")],
        }
    }

    #[test]
    fn aa_comparison_applies_bounds_and_exact_counts() {
        let gate = |name, floor| Gated {
            name,
            unit: "",
            better: crate::Better::Higher,
            bound: 0.10,
            floor,
        };
        let bounded = [gate("ops_per_s", 0.0)];
        let exact = ["core.allocs_per_op"];
        let same = compare_runs(
            &[report(100.0, 7.0)],
            &[report(105.0, 7.0)],
            &bounded,
            &exact,
        );
        assert!(same.is_empty(), "{same:?}");
        let drift = compare_runs(
            &[report(100.0, 7.0)],
            &[report(115.0, 8.0)],
            &bounded,
            &exact,
        );
        assert_eq!(drift.len(), 2, "{drift:?}");
        let floored = [gate("ops_per_s", 20.0)];
        let small = compare_runs(&[report(100.0, 7.0)], &[report(115.0, 7.0)], &floored, &[]);
        assert!(small.is_empty(), "a gap under the floor is not compared");
        let missing = compare_runs(
            &[report(1.0, 1.0)],
            &[report(1.0, 1.0)],
            &[gate("nope", 0.0)],
            &[],
        );
        assert_eq!(missing.len(), 1);
    }
}
