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
//!
//! [`Acc`] is an aggregate's running state over a *signed* stream of
//! values: an exact count and sum where the aggregate is invertible over
//! ℤ (CNT, and SUM/AVG over Int and Money), the value bag otherwise. A
//! maintained γ group keeps one, and [`Aggregate::compute`] folds through
//! the same exact path.

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
    ///
    /// CNT, and SUM/AVG over Int and Money, fold the pairs into an
    /// [`Acc`] and finish it, so a one-shot aggregate and a maintained
    /// one share a single exact summing path.
    pub fn compute<'a, I>(self, input_type: DataType, values: I) -> CoreResult<Value>
    where
        I: IntoIterator<Item = (&'a Value, u64)>,
    {
        match self {
            Aggregate::Cnt | Aggregate::Sum | Aggregate::Avg => {
                match Acc::new(self, input_type).0 {
                    State::Exact(mut exact) => {
                        for (v, m) in values {
                            exact.fold(v, i128::from(m))?;
                        }
                        exact.finish(self)
                    }
                    // SUM/AVG over Real (or a non-numeric domain, an error)
                    State::Values(_) => {
                        let (sum, count) = real_sum(input_type, values)?;
                        sum_or_avg(self, sum, i128::from(count))
                    }
                }
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

/// The running state of one aggregate over a signed stream of
/// `(value, m)` pairs, keyed by `(Aggregate, input type)` at
/// [`Acc::new`]. It is what a maintained γ group keeps between commits.
///
/// Over ℤ, CNT, and SUM/AVG over Int and Money, are invertible: a signed
/// delta changes them by its own terms, so their state is an exact count
/// and an exact `i128` sum, and an update is O(1). Every other case keeps
/// the group's signed value bag and recomputes from it at
/// [`Acc::finish`]: MIN/MAX (not invertible under deletion), STDDEV,
/// MEDIAN, and SUM/AVG over Real (rounded once from all terms).
#[derive(Debug, Clone)]
pub struct Acc(State);

#[derive(Debug, Clone)]
enum State {
    Exact(Exact),
    Values(SignedBag<Value>),
}

/// `Σ m` and, for SUM/AVG, the exact `Σ v·m` in the domain's units.
#[derive(Debug, Clone, Copy)]
struct Exact {
    unit: Unit,
    count: i128,
    sum: i128,
}

#[derive(Debug, Clone, Copy)]
enum Unit {
    /// CNT: the values are not read.
    Count,
    Int,
    /// Minor units.
    Money,
}

impl Acc {
    /// The state of `agg` over the empty bag of `input_type` values.
    pub fn new(agg: Aggregate, input_type: DataType) -> Acc {
        let unit = match (agg, input_type) {
            (Aggregate::Cnt, _) => Unit::Count,
            (Aggregate::Sum | Aggregate::Avg, DataType::Int) => Unit::Int,
            (Aggregate::Sum | Aggregate::Avg, DataType::Money) => Unit::Money,
            _ => return Acc(State::Values(SignedBag::new())),
        };
        Acc(State::Exact(Exact {
            unit,
            count: 0,
            sum: 0,
        }))
    }

    /// Adds `m` copies of `v` (a retraction when `m < 0`). A value count
    /// may go below zero here; [`Acc::finish`] refuses such a state.
    pub fn update(&mut self, v: &Value, m: i64) -> CoreResult<()> {
        match &mut self.0 {
            State::Exact(exact) => exact.fold(v, i128::from(m)),
            State::Values(bag) => bag.insert(v.clone(), m),
        }
    }

    /// True when the bag the state stands for is empty (count 0).
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            State::Exact(exact) => exact.count == 0,
            State::Values(bag) => bag.is_empty(),
        }
    }

    /// The aggregate's value, `agg` and `input_type` being the ones the
    /// state was made with. Equal to [`Aggregate::compute`] over the bag
    /// the updates add up to; a negative count is
    /// [`CoreError::NegativeMultiplicity`].
    pub fn finish(&self, agg: Aggregate, input_type: DataType) -> CoreResult<Value> {
        match &self.0 {
            State::Exact(exact) => exact.finish(agg),
            State::Values(bag) => {
                if bag.iter().any(|(_, m)| m < 0) {
                    return Err(CoreError::NegativeMultiplicity("aggregate state"));
                }
                agg.compute(input_type, bag.iter().map(|(v, m)| (v, m.unsigned_abs())))
            }
        }
    }
}

impl Exact {
    /// Adds `m` copies of `v`, with checked `i128` arithmetic.
    fn fold(&mut self, v: &Value, m: i128) -> CoreResult<()> {
        if m == 0 {
            return Ok(());
        }
        let term = match (self.unit, v) {
            (Unit::Count, _) => 0,
            (Unit::Int, Value::Int(i)) => i128::from(*i),
            (Unit::Money, Value::Money(mo)) => i128::from(mo.0),
            (_, other) => return Err(mixed_domain(other)),
        };
        self.count = self
            .count
            .checked_add(m)
            .ok_or(CoreError::Overflow("CNT"))?;
        self.sum = term
            .checked_mul(m)
            .and_then(|t| self.sum.checked_add(t))
            .ok_or(CoreError::Overflow("SUM"))?;
        Ok(())
    }

    /// The count (CNT), or the sum narrowed to its domain (SUM, AVG).
    fn finish(self, agg: Aggregate) -> CoreResult<Value> {
        if self.count < 0 {
            return Err(CoreError::NegativeMultiplicity("aggregate state"));
        }
        let narrow = |n: i128, what| i64::try_from(n).map_err(|_| CoreError::Overflow(what));
        let sum = match self.unit {
            Unit::Count => return Ok(Value::Int(narrow(self.count, "CNT")?)),
            Unit::Int => Value::Int(narrow(self.sum, "SUM")?),
            Unit::Money => Value::Money(Money(narrow(self.sum, "SUM")?)),
        };
        sum_or_avg(agg, sum, self.count)
    }
}

/// SUM's result, or AVG's: the sum over the count, partial on empty input.
fn sum_or_avg(agg: Aggregate, sum: Value, count: i128) -> CoreResult<Value> {
    if agg != Aggregate::Avg {
        return Ok(sum);
    }
    if count == 0 {
        return Err(CoreError::AggregateOnEmpty("AVG"));
    }
    let avg = sum.as_f64()? / count as f64;
    Ok(Value::Real(
        Real::new(avg).map_err(|_| CoreError::Overflow("AVG produced NaN"))?,
    ))
}

fn mixed_domain(v: &Value) -> CoreError {
    CoreError::TypeError(format!(
        "SUM over mixed or non-numeric domain ({})",
        v.data_type()
    ))
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

/// The multiplicity-weighted sum of Real values plus their count, rounded
/// once ([`exact_sum`]), so it is a function of the bag alone. The empty
/// sum is `0.0`; any other domain is a type error.
fn real_sum<'a, I>(input_type: DataType, values: I) -> CoreResult<(Value, u64)>
where
    I: IntoIterator<Item = (&'a Value, u64)>,
{
    let mut terms = Vec::new();
    let mut count: u64 = 0;
    for (v, m) in values {
        if m == 0 {
            continue;
        }
        count = count
            .checked_add(m)
            .ok_or(CoreError::Overflow("SUM count"))?;
        match v {
            Value::Real(r) if input_type == DataType::Real => terms.push((r.get(), m)),
            other => return Err(mixed_domain(other)),
        }
    }
    if input_type != DataType::Real {
        return Err(CoreError::TypeError(format!(
            "SUM over non-numeric {input_type}"
        )));
    }
    let sum = exact_sum(terms);
    let sum = Real::new(sum).map_err(|_| CoreError::Overflow("SUM produced NaN"))?;
    Ok((Value::Real(sum), count))
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

    /// `acc` finished, and `compute` over the bag the same updates add up to.
    fn both(agg: Aggregate, t: DataType, updates: &[(Value, i64)]) -> [CoreResult<Value>; 2] {
        let mut acc = Acc::new(agg, t);
        let mut bag: SignedBag<Value> = SignedBag::new();
        for (v, m) in updates {
            acc.update(v, *m).expect("updates");
            bag.insert(v.clone(), *m).expect("no overflow");
        }
        let pairs = bag
            .iter()
            .map(|(v, m)| (v, u64::try_from(m).expect("counts stay ≥ 0")));
        [acc.finish(agg, t), agg.compute(t, pairs)]
    }

    /// A running sum may leave the `i64` range and come back: only the
    /// final sum is narrowed.
    #[test]
    fn running_sum_may_leave_i64_and_come_back() {
        let ups = [
            (Value::Int(i64::MAX), 1),
            (Value::Int(1), 1),
            (Value::Int(1), -1),
        ];
        for agg in [Aggregate::Sum, Aggregate::Avg] {
            let [acc, compute] = both(agg, DataType::Int, &ups);
            assert_eq!(acc, compute, "{agg:?}");
            assert!(acc.is_ok(), "{agg:?}");
        }
        let [acc, _] = both(Aggregate::Sum, DataType::Int, &ups);
        assert_eq!(acc.unwrap(), Value::Int(i64::MAX));
    }

    /// A final sum outside `i64` is `Overflow("SUM")` from both paths.
    #[test]
    fn final_sum_outside_i64_overflows_both_ways() {
        for (t, v) in [
            (DataType::Int, Value::Int(i64::MAX)),
            (DataType::Money, Value::Money(Money(i64::MIN))),
        ] {
            for agg in [Aggregate::Sum, Aggregate::Avg] {
                let ups = [(v.clone(), 3), (v.clone(), -1)];
                for got in both(agg, t, &ups) {
                    assert_eq!(got, Err(CoreError::Overflow("SUM")), "{agg:?} {t}");
                }
            }
        }
    }

    #[test]
    fn negative_count_is_refused() {
        for agg in [Aggregate::Cnt, Aggregate::Sum, Aggregate::Max] {
            let mut acc = Acc::new(agg, DataType::Int);
            acc.update(&Value::Int(3), -1).expect("folds");
            assert!(!acc.is_empty());
            assert!(matches!(
                acc.finish(agg, DataType::Int),
                Err(CoreError::NegativeMultiplicity(_))
            ));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Signed updates over a small value pool whose retractions never
        /// take a value's count below zero.
        fn updates(money: bool) -> impl Strategy<Value = Vec<(Value, i64)>> {
            let value = prop_oneof![-50_i64..50, any::<i64>()];
            let pool = proptest::collection::vec(value, 1..6);
            (
                pool,
                proptest::collection::vec((0..6_usize, -4_i64..=4), 0..40),
            )
                .prop_map(move |(pool, steps)| {
                    let mut counts = vec![0_i64; pool.len()];
                    let mut out = Vec::new();
                    for (i, m) in steps {
                        let i = i % pool.len();
                        let m = m.max(-counts[i]);
                        counts[i] += m;
                        let v = if money {
                            Value::Money(Money(pool[i]))
                        } else {
                            Value::Int(pool[i])
                        };
                        out.push((v, m));
                    }
                    out
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn acc_equals_compute_over_the_resulting_bag(
                case in any::<bool>().prop_flat_map(|money| (Just(money), updates(money))),
            ) {
                let (money, ups) = case;
                let t = if money { DataType::Money } else { DataType::Int };
                for agg in [Aggregate::Cnt, Aggregate::Sum, Aggregate::Avg] {
                    let [acc, compute] = both(agg, t, &ups);
                    prop_assert_eq!(acc, compute, "{:?} over {}", agg, t);
                }
            }
        }
    }
}
