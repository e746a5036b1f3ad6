//! What a run reports: one stable schema for the human-readable lines,
//! the per-workload JSON files, the suite's `result.json` and the last
//! stdout line the benchmark contract asks for.

use crate::json::Json;

/// Version of the JSON layout below; bump when a field changes meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json` and `README.md`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Inter-quartile distance of the per-segment values as a share of
    /// their median, where the value is a median of segments.
    pub spread: Option<f64>,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<u64>,
}

impl Metric {
    /// A bare value.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
            spread: None,
            samples: None,
        }
    }

    /// With the spread of its segments.
    pub fn spread(mut self, spread: f64) -> Metric {
        self.spread = Some(spread);
        self
    }

    /// With its sample count.
    pub fn samples(mut self, samples: usize) -> Metric {
        self.samples = Some(samples as u64);
        self
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_owned(), Json::str(&self.name)),
            ("value".to_owned(), Json::Num(self.value)),
            ("unit".to_owned(), Json::str(&self.unit)),
        ];
        if let Some(s) = self.spread {
            pairs.push(("spread".to_owned(), Json::Num(s)));
        }
        if let Some(n) = self.samples {
            pairs.push(("samples".to_owned(), Json::Num(n as f64)));
        }
        Json::Obj(pairs)
    }

    fn from_json(j: &Json) -> Option<Metric> {
        Some(Metric {
            name: j.get("name")?.as_str()?.to_owned(),
            value: j.get("value")?.as_f64()?,
            unit: j.get("unit")?.as_str()?.to_owned(),
            spread: j.get("spread").and_then(Json::as_f64),
            samples: j.get("samples").and_then(Json::as_f64).map(|n| n as u64),
        })
    }
}

/// One workload's run, end-to-end or traced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// `"end_to_end"` or `"per_layer"`.
    pub mode: String,
    /// The generator seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Every oracle held.
    pub correct: bool,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed, were refused or broke an oracle.
    pub failed: u64,
    /// What went wrong, when something did.
    pub violations: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Reported but not gated: tails, CPU per op, per-kind medians.
    pub extras: Vec<Metric>,
}

impl WorkloadReport {
    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A metric by name, gated or not.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .chain(&self.extras)
            .find(|m| m.name == name)
    }

    /// One `workload metric value unit` line per number.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let w = &self.workload;
        for m in self.metrics.iter().chain(&self.extras) {
            let _ = write!(out, "{w} {} {:.4} {}", m.name, m.value, m.unit);
            if let Some(s) = m.spread {
                let _ = write!(out, " spread={:.2}%", s * 100.0);
            }
            if let Some(n) = m.samples {
                let _ = write!(out, " n={n}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{w} attempted_ops {} count", self.attempted);
        let _ = writeln!(out, "{w} failed_ops {} count", self.failed);
        let _ = writeln!(out, "{w} failed_frac {:.6} ratio", self.failed_frac());
        for v in &self.violations {
            let _ = writeln!(out, "{w} ORACLE VIOLATED: {v}");
        }
        out
    }

    /// The last stdout line of a contract run: exactly `correct`,
    /// `attempted`, `failed` and the mode's metrics.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(&m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// The full report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("mode", Json::str(&self.mode)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("correct", Json::Bool(self.correct)),
            ("attempted_ops", Json::Num(self.attempted as f64)),
            ("failed_ops", Json::Num(self.failed as f64)),
            ("failed_frac", Json::Num(self.failed_frac())),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            ),
            (
                "extras",
                Json::Arr(self.extras.iter().map(Metric::to_json).collect()),
            ),
        ])
    }

    /// Reads back what [`WorkloadReport::to_json`] wrote.
    pub fn from_json(j: &Json) -> Option<WorkloadReport> {
        let metrics = |key: &str| -> Option<Vec<Metric>> {
            j.get(key)?
                .elements()
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        Some(WorkloadReport {
            workload: j.get("workload")?.as_str()?.to_owned(),
            mode: j.get("mode")?.as_str()?.to_owned(),
            seed: j.get("seed")?.as_f64()? as u64,
            seconds: j.get("seconds")?.as_f64()?,
            correct: j.get("correct")?.as_bool()?,
            attempted: j.get("attempted_ops")?.as_f64()? as u64,
            failed: j.get("failed_ops")?.as_f64()? as u64,
            violations: j
                .get("violations")?
                .elements()
                .iter()
                .map(|v| v.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
            metrics: metrics("metrics")?,
            extras: metrics("extras")?,
        })
    }
}

/// Where and on what a suite ran.
pub fn machine_json() -> Json {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .map_or(Json::Null, Json::Str)
    };
    Json::obj([
        ("nproc", Json::Num(crate::proc::nproc() as f64)),
        ("rustc", run("rustc", &["--version"])),
        ("git_commit", run("git", &["rev-parse", "HEAD"])),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// The suite's `result.json`: machine, settings, one report per
/// workload, and the claim — always `null` here, because the suite
/// measures and a PR claims.
pub fn suite_json(seed: u64, seconds: f64, wall_s: f64, reports: &[WorkloadReport]) -> Json {
    Json::obj([
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("claim", Json::Null),
        ("machine", machine_json()),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
        ("warmup_seconds", Json::Num(crate::WARMUP_S)),
        ("wall_seconds", Json::Num(wall_s)),
        (
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> WorkloadReport {
        WorkloadReport {
            workload: "oltp_read".to_owned(),
            mode: "end_to_end".to_owned(),
            seed: 7,
            seconds: 10.0,
            correct: false,
            attempted: 1000,
            failed: 3,
            violations: vec!["point read of 4 returned \"9\"".to_owned()],
            metrics: vec![
                Metric::new("ops_per_s", 6012.25, "op/s")
                    .spread(0.0123)
                    .samples(60_000),
                Metric::new("setup_s", 0.08127, "s"),
            ],
            extras: vec![Metric::new("p99_us", 512.5, "us").samples(60_000)],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = WorkloadReport::from_json(&Json::parse(&text).expect("parses")).expect("schema");
        assert_eq!(back, report);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = sample_report().contract_line();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).expect("parses");
        let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let m = j.get("metrics").expect("metrics");
        assert_eq!(m.members().len(), 2, "extras stay out of the contract line");
        let ops = m.get("ops_per_s").expect("ops_per_s");
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(6012.25));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("op/s"));
    }

    #[test]
    fn suite_json_carries_no_claim() {
        let j = suite_json(1, 10.0, 99.0, &[sample_report()]);
        assert_eq!(j.get("claim"), Some(&Json::Null));
        assert_eq!(j.get("workloads").expect("workloads").elements().len(), 1);
        assert!(j.get("machine").and_then(|m| m.get("nproc")).is_some());
    }

    #[test]
    fn human_lines_name_workload_metric_value_unit() {
        let text = sample_report().human();
        assert!(text.contains("oltp_read ops_per_s 6012.2500 op/s spread=1.23% n=60000\n"));
        assert!(text.contains("oltp_read failed_ops 3 count\n"));
        assert!(text.contains("ORACLE VIOLATED"));
    }
}
