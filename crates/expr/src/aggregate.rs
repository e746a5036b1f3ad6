//! Multi-set aggregate functions (Definition 3.3).
//!
//! Aggregates compute one value over a *bag* of attribute values — crucially
//! counting multiplicities:
//!
//! * `CNT_p E = Σ_x E(x)` — `p` is a dummy parameter kept "for reasons of
//!   syntactical uniformity",
//! * `SUM_p E = Σ_x x.p · E(x)` — numeric `p` only,
//! * `AVG_p E = SUM_p E / CNT_p E`,
//! * `MIN_p E`, `MAX_p E` over the support.
//!
//! AVG, MIN and MAX are *partial* functions: applying them to an empty
//! multi-set is an error ([`CoreError::AggregateOnEmpty`]), exactly as the
//! paper notes. CNT and SUM of an empty bag are 0.

use std::fmt;

use mera_core::prelude::*;
use mera_core::value::{Money, Real};

/// The multi-set aggregate functions: the five of Definition 3.3 plus
/// the statistical extensions its closing note invites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `CNT` — cardinality with multiplicity.
    Cnt,
    /// `SUM` — multiplicity-weighted sum of a numeric attribute.
    Sum,
    /// `AVG` — `SUM/CNT`; partial (empty input is an error).
    Avg,
    /// `MIN` — minimum over the support; partial.
    Min,
    /// `MAX` — maximum over the support; partial.
    Max,
    /// `STDDEV` — population standard deviation, multiplicity-weighted;
    /// partial. One of the "statistical aggregate functions" the
    /// definition's note explicitly allows as alternative choices.
    StdDev,
    /// `MEDIAN` — multiplicity-weighted median (mean of the two middle
    /// elements for even counts); partial.
    Median,
}

impl Aggregate {
    /// The name used by the textual language and `Display`.
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Cnt => "CNT",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
            Aggregate::StdDev => "STDDEV",
            Aggregate::Median => "MEDIAN",
        }
    }

    /// Parses an aggregate name (case-insensitive; accepts the common
    /// `COUNT` alias for `CNT`).
    pub fn parse(s: &str) -> Option<Aggregate> {
        match s.to_ascii_uppercase().as_str() {
            "CNT" | "COUNT" => Some(Aggregate::Cnt),
            "SUM" => Some(Aggregate::Sum),
            "AVG" => Some(Aggregate::Avg),
            "MIN" => Some(Aggregate::Min),
            "MAX" => Some(Aggregate::Max),
            "STDDEV" | "STD" => Some(Aggregate::StdDev),
            "MEDIAN" => Some(Aggregate::Median),
            _ => None,
        }
    }

    /// The domain of the aggregate's range `ran(f(×p→τ))` given the
    /// aggregated attribute's domain, or an error when the aggregate is not
    /// defined on it ("p must have a numeric domain" for SUM/AVG).
    pub fn result_type(self, input: DataType) -> CoreResult<DataType> {
        match self {
            Aggregate::Cnt => Ok(DataType::Int),
            Aggregate::Sum => {
                if input.is_numeric() {
                    Ok(input)
                } else {
                    Err(CoreError::TypeError(format!(
                        "SUM over non-numeric {input}"
                    )))
                }
            }
            Aggregate::Avg => {
                if input.is_numeric() {
                    Ok(DataType::Real)
                } else {
                    Err(CoreError::TypeError(format!(
                        "AVG over non-numeric {input}"
                    )))
                }
            }
            Aggregate::Min | Aggregate::Max => {
                if input.is_ordered() {
                    Ok(input)
                } else {
                    Err(CoreError::TypeError(format!(
                        "{} over unordered {input}",
                        self.name()
                    )))
                }
            }
            Aggregate::StdDev | Aggregate::Median => {
                if input.is_numeric() {
                    Ok(DataType::Real)
                } else {
                    Err(CoreError::TypeError(format!(
                        "{} over non-numeric {input}",
                        self.name()
                    )))
                }
            }
        }
    }

    /// True for the *partial* aggregates of Definition 3.4 — the ones
    /// undefined on the empty multi-set. `CNT` and `SUM` are total (they
    /// return 0 / the domain's zero); everything else aborts on empty
    /// input, which is what the static partiality lint warns about.
    pub fn is_partial(self) -> bool {
        !matches!(self, Aggregate::Cnt | Aggregate::Sum)
    }

    /// Computes the aggregate over `(value, multiplicity)` pairs.
    ///
    /// The pairs are the projections `x.p` of a group's tuples with their
    /// multiplicities; order is irrelevant. `input_type` is the domain of
    /// the aggregated attribute; it types SUM's neutral element so that
    /// `SUM` of an empty bag is the *zero of the attribute's domain*
    /// (`0`, `0.0` or `0.00`), keeping results schema-correct.
    pub fn compute<'a, I>(self, input_type: DataType, values: I) -> CoreResult<Value>
    where
        I: IntoIterator<Item = (&'a Value, u64)>,
    {
        match self {
            Aggregate::Cnt => {
                let mut n: u64 = 0;
                for (_, m) in values {
                    n = n.checked_add(m).ok_or(CoreError::Overflow("CNT"))?;
                }
                let n = i64::try_from(n).map_err(|_| CoreError::Overflow("CNT"))?;
                Ok(Value::Int(n))
            }
            Aggregate::Sum => compute_sum(input_type, values).map(|(sum, _)| sum),
            Aggregate::Avg => {
                let (sum, count) = compute_sum(input_type, values)?;
                if count == 0 {
                    return Err(CoreError::AggregateOnEmpty("AVG"));
                }
                let avg = sum.as_f64()? / count as f64;
                Ok(Value::Real(
                    Real::new(avg).map_err(|_| CoreError::Overflow("AVG produced NaN"))?,
                ))
            }
            Aggregate::Min | Aggregate::Max => {
                let mut best: Option<&Value> = None;
                for (v, m) in values {
                    if m == 0 {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = if self == Aggregate::Min { v < b } else { v > b };
                            if keep_new {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                best.cloned()
                    .ok_or(CoreError::AggregateOnEmpty(self.name()))
            }
            Aggregate::StdDev => {
                // two-pass population stddev, multiplicity-weighted
                let pairs: Vec<(f64, u64)> = collect_numeric(values)?;
                let count: u64 = pairs.iter().map(|&(_, m)| m).sum();
                if count == 0 {
                    return Err(CoreError::AggregateOnEmpty("STDDEV"));
                }
                let mean = exact_sum(pairs.iter().copied()) / count as f64;
                let var =
                    exact_sum(pairs.iter().map(|&(v, m)| ((v - mean).powi(2), m))) / count as f64;
                Ok(Value::Real(
                    Real::new(var.sqrt())
                        .map_err(|_| CoreError::Overflow("STDDEV produced NaN"))?,
                ))
            }
            Aggregate::Median => {
                let mut pairs: Vec<(f64, u64)> = collect_numeric(values)?;
                let count: u64 = pairs.iter().map(|&(_, m)| m).sum();
                if count == 0 {
                    return Err(CoreError::AggregateOnEmpty("MEDIAN"));
                }
                pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
                // positions are 0-based into the multiplicity-expanded
                // sequence; even counts average the two middle elements
                let lo_pos = (count - 1) / 2;
                let hi_pos = count / 2;
                let at = |pos: u64| -> f64 {
                    let mut seen = 0u64;
                    for &(v, m) in &pairs {
                        seen += m;
                        if pos < seen {
                            return v;
                        }
                    }
                    pairs.last().expect("non-empty").0
                };
                let median = (at(lo_pos) + at(hi_pos)) / 2.0;
                Ok(Value::Real(
                    Real::new(median).map_err(|_| CoreError::Overflow("MEDIAN produced NaN"))?,
                ))
            }
        }
    }
}

/// Collects numeric `(value, multiplicity)` pairs as `f64`, rejecting
/// non-numeric domains.
fn collect_numeric<'a, I>(values: I) -> CoreResult<Vec<(f64, u64)>>
where
    I: IntoIterator<Item = (&'a Value, u64)>,
{
    values
        .into_iter()
        .filter(|&(_, m)| m > 0)
        .map(|(v, m)| Ok((v.as_f64()?, m)))
        .collect()
}

/// `Σ v·m` over `(v, m)` terms, rounded once: each product is split
/// exactly into `v·m` and its rounding error, and the parts are added
/// without loss (Shewchuk's partials, as Python's `math.fsum`). So the
/// sum of a bag does not depend on the order its pairs arrive in, nor on
/// whether equal values come merged (`(5.0, 2)`) or apart (`(5.0, 1)`
/// twice). A sum that overflows falls back to plain addition.
fn exact_sum(terms: impl IntoIterator<Item = (f64, u64)>) -> f64 {
    let mut partials: Vec<f64> = Vec::new();
    let mut plain = 0.0;
    for (v, m) in terms {
        let w = m as f64;
        let product = v * w;
        plain += product;
        for mut x in [product, v.mul_add(w, -product)] {
            let mut kept = 0;
            for i in 0..partials.len() {
                let mut y = partials[i];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[kept] = lo;
                    kept += 1;
                }
                x = hi;
            }
            partials.truncate(kept);
            partials.push(x);
        }
    }
    if !plain.is_finite() || partials.iter().any(|p| !p.is_finite()) {
        return plain;
    }
    // round the exact sum of the partials once, largest first
    let mut hi = partials.pop().unwrap_or(0.0);
    let mut lo = 0.0;
    while let Some(y) = partials.pop() {
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if partials
        .last()
        .is_some_and(|&p| (lo < 0.0 && p < 0.0) || (lo > 0.0 && p > 0.0))
    {
        let y = lo * 2.0;
        let x = hi + y;
        if y == x - hi {
            hi = x;
        }
    }
    hi
}

/// Multiplicity-weighted sum plus total count. Int sums stay exact in
/// `i128` then narrow; money sums stay in minor units; real sums are
/// rounded once ([`exact_sum`]), so they are a function of the bag alone.
/// The empty sum is the typed zero of `input_type`.
fn compute_sum<'a, I>(input_type: DataType, values: I) -> CoreResult<(Value, u64)>
where
    I: IntoIterator<Item = (&'a Value, u64)>,
{
    enum Acc {
        Empty,
        Int(i128),
        Real(Vec<(f64, u64)>),
        Money(i128),
    }
    let mut acc = Acc::Empty;
    let mut count: u64 = 0;
    for (v, m) in values {
        if m == 0 {
            continue;
        }
        count = count
            .checked_add(m)
            .ok_or(CoreError::Overflow("SUM count"))?;
        match (&mut acc, v) {
            (Acc::Empty, Value::Int(i)) => acc = Acc::Int(i128::from(*i) * i128::from(m)),
            (Acc::Empty, Value::Real(r)) => acc = Acc::Real(vec![(r.get(), m)]),
            (Acc::Empty, Value::Money(mo)) => acc = Acc::Money(i128::from(mo.0) * i128::from(m)),
            (Acc::Int(s), Value::Int(i)) => {
                *s = s
                    .checked_add(i128::from(*i) * i128::from(m))
                    .ok_or(CoreError::Overflow("SUM"))?;
            }
            (Acc::Real(terms), Value::Real(r)) => terms.push((r.get(), m)),
            (Acc::Money(s), Value::Money(mo)) => {
                *s = s
                    .checked_add(i128::from(mo.0) * i128::from(m))
                    .ok_or(CoreError::Overflow("SUM"))?;
            }
            (_, other) => {
                return Err(CoreError::TypeError(format!(
                    "SUM over mixed or non-numeric domain ({})",
                    other.data_type()
                )))
            }
        }
    }
    let sum = match acc {
        // SUM of the empty bag is the typed zero of the attribute's domain
        Acc::Empty => match input_type {
            DataType::Int => Value::Int(0),
            DataType::Real => Value::Real(Real::new(0.0).expect("zero is not NaN")),
            DataType::Money => Value::Money(Money(0)),
            other => {
                return Err(CoreError::TypeError(format!(
                    "SUM over non-numeric {other}"
                )))
            }
        },
        Acc::Int(s) => Value::Int(i64::try_from(s).map_err(|_| CoreError::Overflow("SUM"))?),
        Acc::Real(terms) => {
            let s = exact_sum(terms);
            Value::Real(Real::new(s).map_err(|_| CoreError::Overflow("SUM produced NaN"))?)
        }
        Acc::Money(s) => Value::Money(Money(
            i64::try_from(s).map_err(|_| CoreError::Overflow("SUM"))?,
        )),
    };
    Ok((sum, count))
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(pairs: &[(i64, u64)]) -> Vec<(Value, u64)> {
        pairs.iter().map(|&(v, m)| (Value::Int(v), m)).collect()
    }

    fn run(agg: Aggregate, pairs: &[(Value, u64)]) -> CoreResult<Value> {
        let t = pairs
            .first()
            .map(|(v, _)| v.data_type())
            .unwrap_or(DataType::Int);
        agg.compute(t, pairs.iter().map(|(v, m)| (v, *m)))
    }

    #[test]
    fn empty_sum_is_typed_zero() {
        let none: [(Value, u64); 0] = [];
        let go = |t| Aggregate::Sum.compute(t, none.iter().map(|(v, m)| (v, *m)));
        assert_eq!(go(DataType::Int).unwrap(), Value::Int(0));
        assert_eq!(go(DataType::Real).unwrap(), Value::real(0.0).unwrap());
        assert_eq!(go(DataType::Money).unwrap(), Value::Money(Money(0)));
        assert!(go(DataType::Str).is_err());
    }

    #[test]
    fn cnt_counts_with_multiplicity() {
        let v = vals(&[(10, 3), (20, 2)]);
        assert_eq!(run(Aggregate::Cnt, &v).unwrap(), Value::Int(5));
        assert_eq!(run(Aggregate::Cnt, &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn sum_weights_by_multiplicity() {
        let v = vals(&[(10, 3), (20, 2)]);
        assert_eq!(run(Aggregate::Sum, &v).unwrap(), Value::Int(70));
        assert_eq!(run(Aggregate::Sum, &[]).unwrap(), Value::Int(0));
    }

    #[test]
    fn sum_real_and_money() {
        let v = vec![
            (Value::real(1.5).unwrap(), 2),
            (Value::real(2.0).unwrap(), 1),
        ];
        assert_eq!(run(Aggregate::Sum, &v).unwrap(), Value::real(5.0).unwrap());
        let v = vec![(Value::Money(Money(150)), 3)];
        assert_eq!(run(Aggregate::Sum, &v).unwrap(), Value::Money(Money(450)));
    }

    /// Real sums round the same whatever order a bag yields its pairs
    /// in: 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit.
    #[test]
    fn real_sums_do_not_depend_on_pair_order() {
        let v: Vec<(Value, u64)> = [0.1, 0.2, 0.3, 1e16, -1e16]
            .iter()
            .map(|&r| (Value::real(r).unwrap(), 1))
            .collect();
        let mut rev = v.clone();
        rev.reverse();
        for agg in [Aggregate::Sum, Aggregate::Avg, Aggregate::StdDev] {
            assert_eq!(run(agg, &v).unwrap(), run(agg, &rev).unwrap(), "{agg:?}");
        }
        // nor on whether equal values come merged or one by one
        let real = |r: f64, m: u64| (Value::real(r).unwrap(), m);
        let merged = vec![
            real(5.0, 2),
            real(5.1, 1),
            real(6.5, 1),
            real(6.3, 1),
            real(4.2, 1),
        ];
        let apart = vec![
            real(4.2, 1),
            real(5.0, 1),
            real(6.3, 1),
            real(5.0, 1),
            real(6.5, 1),
            real(5.1, 1),
        ];
        for agg in [Aggregate::Sum, Aggregate::Avg, Aggregate::StdDev] {
            assert_eq!(
                run(agg, &merged).unwrap(),
                run(agg, &apart).unwrap(),
                "{agg:?}"
            );
        }
        assert_eq!(
            run(Aggregate::Sum, &apart).unwrap(),
            Value::real(32.1).unwrap()
        );
    }

    #[test]
    fn avg_is_sum_over_cnt() {
        let v = vals(&[(10, 3), (20, 1)]);
        assert_eq!(run(Aggregate::Avg, &v).unwrap(), Value::real(12.5).unwrap());
    }

    #[test]
    fn avg_min_max_partial_on_empty() {
        assert_eq!(
            run(Aggregate::Avg, &[]).unwrap_err(),
            CoreError::AggregateOnEmpty("AVG")
        );
        assert_eq!(
            run(Aggregate::Min, &[]).unwrap_err(),
            CoreError::AggregateOnEmpty("MIN")
        );
        assert_eq!(
            run(Aggregate::Max, &[]).unwrap_err(),
            CoreError::AggregateOnEmpty("MAX")
        );
    }

    #[test]
    fn min_max_over_support() {
        let v = vals(&[(10, 1), (20, 5), (15, 2)]);
        assert_eq!(run(Aggregate::Min, &v).unwrap(), Value::Int(10));
        assert_eq!(run(Aggregate::Max, &v).unwrap(), Value::Int(20));
        // strings are ordered, so MIN/MAX apply
        let v = vec![(Value::str("pils"), 1), (Value::str("ale"), 2)];
        assert_eq!(run(Aggregate::Min, &v).unwrap(), Value::str("ale"));
        assert_eq!(run(Aggregate::Max, &v).unwrap(), Value::str("pils"));
    }

    #[test]
    fn zero_multiplicity_pairs_ignored() {
        let v = vals(&[(10, 0), (20, 1)]);
        assert_eq!(run(Aggregate::Min, &v).unwrap(), Value::Int(20));
        assert_eq!(run(Aggregate::Cnt, &v).unwrap(), Value::Int(1));
    }

    #[test]
    fn sum_rejects_mixed_domains() {
        let v = vec![(Value::Int(1), 1), (Value::real(1.0).unwrap(), 1)];
        assert!(run(Aggregate::Sum, &v).is_err());
        let v = vec![(Value::str("x"), 1)];
        assert!(run(Aggregate::Sum, &v).is_err());
    }

    #[test]
    fn result_types() {
        assert_eq!(
            Aggregate::Cnt.result_type(DataType::Str).unwrap(),
            DataType::Int
        );
        assert_eq!(
            Aggregate::Sum.result_type(DataType::Int).unwrap(),
            DataType::Int
        );
        assert_eq!(
            Aggregate::Sum.result_type(DataType::Money).unwrap(),
            DataType::Money
        );
        assert_eq!(
            Aggregate::Avg.result_type(DataType::Int).unwrap(),
            DataType::Real
        );
        assert_eq!(
            Aggregate::Min.result_type(DataType::Str).unwrap(),
            DataType::Str
        );
        assert!(Aggregate::Sum.result_type(DataType::Str).is_err());
        assert!(Aggregate::Avg.result_type(DataType::Date).is_err());
        assert!(Aggregate::Min.result_type(DataType::Bool).is_err());
    }

    #[test]
    fn parse_names() {
        assert_eq!(Aggregate::parse("avg"), Some(Aggregate::Avg));
        assert_eq!(Aggregate::parse("COUNT"), Some(Aggregate::Cnt));
        assert_eq!(Aggregate::parse("quartile"), None);
    }

    #[test]
    fn stddev_weighted() {
        // values 2,2,4,4 (via multiplicities): mean 3, variance 1
        let v = vals(&[(2, 2), (4, 2)]);
        assert_eq!(
            run(Aggregate::StdDev, &v).unwrap(),
            Value::real(1.0).unwrap()
        );
        // single value: stddev 0
        let v = vals(&[(7, 3)]);
        assert_eq!(
            run(Aggregate::StdDev, &v).unwrap(),
            Value::real(0.0).unwrap()
        );
        assert_eq!(
            run(Aggregate::StdDev, &[]).unwrap_err(),
            CoreError::AggregateOnEmpty("STDDEV")
        );
        assert!(run(Aggregate::StdDev, &[(Value::str("x"), 1)]).is_err());
    }

    #[test]
    fn median_weighted() {
        // expanded sequence 1,1,1,9 → median (1+1)/2 = 1
        let v = vals(&[(1, 3), (9, 1)]);
        assert_eq!(
            run(Aggregate::Median, &v).unwrap(),
            Value::real(1.0).unwrap()
        );
        // 1,2,3 → 2
        let v = vals(&[(1, 1), (2, 1), (3, 1)]);
        assert_eq!(
            run(Aggregate::Median, &v).unwrap(),
            Value::real(2.0).unwrap()
        );
        // 1,2,3,10 → (2+3)/2
        let v = vals(&[(1, 1), (2, 1), (3, 1), (10, 1)]);
        assert_eq!(
            run(Aggregate::Median, &v).unwrap(),
            Value::real(2.5).unwrap()
        );
        assert_eq!(
            run(Aggregate::Median, &[]).unwrap_err(),
            CoreError::AggregateOnEmpty("MEDIAN")
        );
    }

    #[test]
    fn statistical_result_types() {
        assert_eq!(
            Aggregate::StdDev.result_type(DataType::Int).unwrap(),
            DataType::Real
        );
        assert_eq!(
            Aggregate::Median.result_type(DataType::Money).unwrap(),
            DataType::Real
        );
        assert!(Aggregate::StdDev.result_type(DataType::Str).is_err());
        assert_eq!(Aggregate::parse("stddev"), Some(Aggregate::StdDev));
        assert_eq!(Aggregate::parse("median"), Some(Aggregate::Median));
    }

    #[test]
    fn cnt_overflow_guard() {
        let v = vec![(Value::Int(1), u64::MAX), (Value::Int(2), 2)];
        assert!(matches!(
            run(Aggregate::Cnt, &v),
            Err(CoreError::Overflow(_))
        ));
    }
}
