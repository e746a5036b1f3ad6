//! Percentiles, segment medians and spreads — the arithmetic behind
//! every reported number.
//!
//! A measured window is cut into equal segments; a metric's value is the
//! median of its per-segment values, so one scheduler hiccup moves one
//! segment and not the result.

/// Segments per measured window.
pub const SEGMENTS: usize = 5;

/// One completed op as its client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Completion time, nanoseconds after the clients were released.
    pub done_ns: u64,
    /// Send-to-reply latency in nanoseconds.
    pub lat_ns: u64,
    /// Workload-defined op kind (e.g. point read vs aggregate read).
    pub kind: u8,
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=100`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), because
/// that is the rule the acceptance check applies to repeated runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest percentile of the usual ladder that still has at least
/// ten samples beyond it.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, one sample in how many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (95.0, 20),
        (90.0, 10),
    ]
    .into_iter()
    .find(|&(_, one_in)| samples >= 10 * one_in)
    .map_or(50.0, |(q, _)| q)
}

/// A measured window: `warmup_ns` discarded, then [`SEGMENTS`] segments
/// of `segment_ns` each.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Discarded lead-in.
    pub warmup_ns: u64,
    /// Length of one segment.
    pub segment_ns: u64,
}

impl Window {
    /// A window measuring `seconds` after `warmup` seconds.
    pub fn new(warmup: f64, seconds: f64) -> Window {
        Window {
            warmup_ns: (warmup * 1e9) as u64,
            segment_ns: ((seconds * 1e9) as u64 / SEGMENTS as u64).max(1),
        }
    }

    /// When clients stop issuing, nanoseconds after release.
    pub fn end_ns(&self) -> u64 {
        self.warmup_ns + self.segment_ns * SEGMENTS as u64
    }

    /// The segment a completion time falls in; `None` during warm-up
    /// and after the end.
    pub fn segment_of(&self, done_ns: u64) -> Option<usize> {
        let t = done_ns.checked_sub(self.warmup_ns)?;
        let i = (t / self.segment_ns) as usize;
        (i < SEGMENTS).then_some(i)
    }
}

/// What a window of samples says about throughput and latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples inside the measured segments.
    pub samples: usize,
    /// Median over segments of completed ops per second.
    pub ops_per_s: f64,
    /// Spread of the per-segment rates.
    pub ops_per_s_spread: f64,
    /// Median over segments of the segment's median latency, in µs.
    pub p50_us: f64,
    /// Spread of the per-segment medians.
    pub p50_us_spread: f64,
    /// Whole-window tail latencies in µs: `(percentile, value)`.
    pub tails: Vec<(f64, f64)>,
}

/// Reduces samples (optionally of one `kind`) over a window.
///
/// A segment's rate is its op count over the time those ops took — from
/// the last completion before the segment to the last completion inside
/// it — not over the nominal segment length: with a few dozen ops per
/// segment, counting whole ops in a fixed interval would quantize the
/// rate in steps of several percent.
pub fn summarize(samples: &[Sample], window: Window, kind: Option<u8>) -> Option<Summary> {
    let mut ordered: Vec<&Sample> = samples
        .iter()
        .filter(|s| kind.is_none_or(|k| k == s.kind))
        .collect();
    ordered.sort_by_key(|s| s.done_ns);
    let mut per_segment: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS];
    // completion time of the newest op seen, and of the newest op that
    // precedes each segment
    let mut newest = window.warmup_ns;
    let mut before = [window.warmup_ns; SEGMENTS];
    let mut last_in = [0u64; SEGMENTS];
    for s in ordered {
        if let Some(i) = window.segment_of(s.done_ns) {
            if per_segment[i].is_empty() {
                before[i] = newest.max(window.warmup_ns);
            }
            per_segment[i].push(s.lat_ns);
            last_in[i] = s.done_ns;
        }
        newest = s.done_ns;
    }
    if per_segment.iter().any(Vec::is_empty) {
        return None;
    }
    let rates: Vec<f64> = (0..SEGMENTS)
        .map(|i| {
            let span_ns = (last_in[i] - before[i]).max(1);
            per_segment[i].len() as f64 * 1e9 / span_ns as f64
        })
        .collect();
    let medians: Vec<f64> = per_segment
        .iter_mut()
        .map(|s| {
            s.sort_unstable();
            percentile(s, 50.0) as f64 / 1e3
        })
        .collect();
    let mut all: Vec<u64> = per_segment.into_iter().flatten().collect();
    all.sort_unstable();
    let mut ladder = vec![95.0, 99.0];
    let top = highest_supported_percentile(all.len());
    if !ladder.contains(&top) {
        ladder.push(top);
    }
    let tails = ladder
        .into_iter()
        .map(|q| (q, percentile(&all, q) as f64 / 1e3))
        .collect();
    Some(Summary {
        samples: all.len(),
        ops_per_s: median(&rates),
        ops_per_s_spread: spread(&rates),
        p50_us: median(&medians),
        p50_us_spread: spread(&medians),
        tails,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 95.0), 7);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_ladder_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(50), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
    }

    #[test]
    fn a_slow_segment_moves_one_value_not_the_median() {
        let window = Window {
            warmup_ns: 1_000,
            segment_ns: 1_000,
        };
        let mut samples = Vec::new();
        // warm-up op and an op past the end: both ignored
        samples.push(Sample {
            done_ns: 500,
            lat_ns: 999_000,
            kind: 0,
        });
        samples.push(Sample {
            done_ns: 6_500,
            lat_ns: 999_000,
            kind: 0,
        });
        for seg in 0..SEGMENTS as u64 {
            // segment 2 is disturbed: half the ops, ten times the latency
            let (n, lat) = if seg == 2 { (5, 20_000) } else { (10, 2_000) };
            for i in 0..n {
                samples.push(Sample {
                    done_ns: 1_000 + seg * 1_000 + i * 10,
                    lat_ns: lat,
                    kind: (i % 2) as u8,
                });
            }
        }
        let s = summarize(&samples, window, None).expect("every segment has samples");
        assert_eq!(s.samples, 45);
        assert_eq!(s.p50_us, 2.0);
        // ops complete every 10 ns from each segment's start, so ten ops
        // span 1000 ns from the previous segment's last completion —
        // except after the disturbed segment, whose last op came early
        assert_eq!(s.ops_per_s, 10.0 * 1e9 / 1_000.0);
        let odd = summarize(&samples, window, Some(1)).expect("kind 1 everywhere");
        assert_eq!(odd.samples, 22);
        assert!(summarize(&samples, window, Some(9)).is_none());
    }
}
