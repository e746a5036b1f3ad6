//! Spans recorded from outside the crates: name, start, end, the span
//! that caused it and the op it belongs to, kept in memory and reduced
//! (or written out) when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::percentile;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `txn.commit`.
    pub name: &'static str,
    /// Nanoseconds after the recorder was made.
    pub start_ns: u64,
    /// Nanoseconds after the recorder was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u32,
}

/// Handle returned by [`Recorder::enter`]; give it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records spans of one thread. When disabled, `enter`/`exit` do
/// nothing — not even read the clock — which is how the tracing overhead
/// is measured: same code, recorder off.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Recorder {
    /// A recorder; `enabled = false` makes it inert.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next op: later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        // read the clock last, so bookkeeping stays outside the span
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(Some(index))
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[index].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must nest");
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its direct children cover. (One thread, so children never overlap and
/// their cover is the sum of their durations.)
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

/// Per span name, the self time summed within each op — one entry per op
/// in which the name occurred, leaving out the first `skip_ops` ops (a
/// run's warm-up).
pub fn self_time_per_op(spans: &[Span], skip_ops: u32) -> BTreeMap<&'static str, Vec<u64>> {
    let selfs = self_times(spans);
    let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.op > skip_ops {
            *per_op.entry((s.name, s.op)).or_default() += t;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ((name, _), t) in per_op {
        out.entry(name).or_default().push(t);
    }
    out
}

/// Median of nanosecond samples, in µs (0 when there are none).
pub fn p50_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50.0) as f64 / 1e3
}

/// Spans as JSON, for `trace-<workload>.json`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // op 1: root 0..100 with children 10..30 and 40..90; the second
        // child has a grandchild 50..60
        let spans = vec![
            span("root", 0, 100, None, 1),
            span("a", 10, 30, Some(0), 1),
            span("b", 40, 90, Some(0), 1),
            span("c", 50, 60, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // self times of a tree add up to the root's duration
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn per_op_sums_repeated_names_within_an_op() {
        let spans = vec![
            span("pin", 0, 5, None, 1),
            span("pin", 10, 17, None, 1),
            span("pin", 20, 23, None, 2),
        ];
        assert_eq!(self_time_per_op(&spans, 0)["pin"], vec![12, 3]);
        assert_eq!(self_time_per_op(&spans, 1)["pin"], vec![3]);
        assert_eq!(p50_us(&[1_000, 3_000, 2_000]), 2.0);
        assert_eq!(p50_us(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.next_op();
        let outer = rec.enter("outer");
        let answer = rec.span("inner", || 42);
        rec.exit(outer);
        assert_eq!(answer, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 1)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        let open = off.enter("x");
        off.exit(open);
        assert!(off.spans().is_empty());
    }
}
