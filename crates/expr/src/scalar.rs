//! Scalar expressions over tuples.
//!
//! Two constructs of the paper need expressions on individual tuples:
//!
//! * the selection condition `φ`, "a function from dom(E) into the boolean
//!   domain" (Definition 3.1), and
//! * the arithmetic expressions of the *extended projection* (Definition
//!   3.4), "functions from dom(E) into a basic domain".
//!
//! [`ScalarExpr`] covers both: attributes are referenced by prefixed index
//! (`%i`, 1-based) exactly as in the paper, composed with literals,
//! arithmetic, comparisons and boolean connectives. Expressions are typed:
//! [`ScalarExpr::check`] computes the output domain against an input
//! schema and reports every problem of an ill-typed tree before any tuple
//! is touched; [`ScalarExpr::infer_type`] reads its first problem.

use std::fmt;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_core::value::{Money, Real};

use crate::type_error;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/` (integer division on `int`, checked).
    Div,
    /// Remainder `%` (on `int` only).
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        })
    }
}

/// Comparison operators; defined between values of the same domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality `=`.
    Eq,
    /// Inequality `<>`.
    Ne,
    /// Less-than `<` (ordered domains only).
    Lt,
    /// At-most `<=`.
    Le,
    /// Greater-than `>`.
    Gt,
    /// At-least `>=`.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on an ordering. Public so the columnar
    /// evaluator in `mera-eval` can apply the exact comparison semantics
    /// element-wise.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The comparison with swapped operands (`a op b ⟺ b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// True for the range comparisons that require an ordered domain.
    pub fn needs_order(self) -> bool {
        !matches!(self, CmpOp::Eq | CmpOp::Ne)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A scalar expression evaluated per tuple.
///
/// Subtrees are `Arc`-shared so optimizer rewrites can reuse fragments
/// without cloning whole trees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScalarExpr {
    /// Attribute reference `%i` (1-based).
    Attr(usize),
    /// A literal value.
    Literal(Value),
    /// Binary arithmetic.
    Arith(ArithOp, Arc<ScalarExpr>, Arc<ScalarExpr>),
    /// Arithmetic negation.
    Neg(Arc<ScalarExpr>),
    /// Comparison between two same-domain operands.
    Cmp(CmpOp, Arc<ScalarExpr>, Arc<ScalarExpr>),
    /// Conjunction.
    And(Arc<ScalarExpr>, Arc<ScalarExpr>),
    /// Disjunction.
    Or(Arc<ScalarExpr>, Arc<ScalarExpr>),
    /// Negation.
    Not(Arc<ScalarExpr>),
    /// String concatenation.
    Concat(Arc<ScalarExpr>, Arc<ScalarExpr>),
}

impl ScalarExpr {
    /// Attribute reference `%i`.
    pub fn attr(i: usize) -> Self {
        ScalarExpr::Attr(i)
    }

    /// Literal integer.
    pub fn int(v: i64) -> Self {
        ScalarExpr::Literal(Value::Int(v))
    }

    /// Literal real (panics on NaN — a literal programming error).
    pub fn real(v: f64) -> Self {
        ScalarExpr::Literal(Value::real(v).expect("literal reals must not be NaN"))
    }

    /// Literal string (interned).
    pub fn str(s: impl AsRef<str>) -> Self {
        ScalarExpr::Literal(Value::str(s.as_ref()))
    }

    /// Literal boolean.
    pub fn bool(b: bool) -> Self {
        ScalarExpr::Literal(Value::Bool(b))
    }

    /// `self op other` arithmetic.
    pub fn arith(self, op: ArithOp, other: ScalarExpr) -> Self {
        ScalarExpr::Arith(op, Arc::new(self), Arc::new(other))
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: ScalarExpr) -> Self {
        self.arith(ArithOp::Add, other)
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: ScalarExpr) -> Self {
        self.arith(ArithOp::Sub, other)
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: ScalarExpr) -> Self {
        self.arith(ArithOp::Mul, other)
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: ScalarExpr) -> Self {
        self.arith(ArithOp::Div, other)
    }

    /// `self op other` comparison.
    pub fn cmp(self, op: CmpOp, other: ScalarExpr) -> Self {
        ScalarExpr::Cmp(op, Arc::new(self), Arc::new(other))
    }

    /// `self = other`.
    pub fn eq(self, other: ScalarExpr) -> Self {
        self.cmp(CmpOp::Eq, other)
    }

    /// `self ∧ other`.
    pub fn and(self, other: ScalarExpr) -> Self {
        ScalarExpr::And(Arc::new(self), Arc::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: ScalarExpr) -> Self {
        ScalarExpr::Or(Arc::new(self), Arc::new(other))
    }

    /// `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        ScalarExpr::Not(Arc::new(self))
    }

    /// `self || other` string concatenation.
    pub fn concat_with(self, other: ScalarExpr) -> Self {
        ScalarExpr::Concat(Arc::new(self), Arc::new(other))
    }

    /// Evaluates the expression on a tuple.
    pub fn eval(&self, tuple: &Tuple) -> CoreResult<Value> {
        match self {
            ScalarExpr::Attr(i) => Ok(tuple.attr(*i)?.clone()),
            ScalarExpr::Literal(v) => Ok(v.clone()),
            ScalarExpr::Arith(op, l, r) => eval_arith(*op, &l.eval(tuple)?, &r.eval(tuple)?),
            ScalarExpr::Neg(e) => match e.eval(tuple)? {
                Value::Int(i) => Ok(Value::Int(
                    i.checked_neg().ok_or(CoreError::Overflow("negation"))?,
                )),
                Value::Real(r) => Value::real(-r.get()),
                Value::Money(m) => Ok(Value::Money(Money(
                    m.0.checked_neg().ok_or(CoreError::Overflow("negation"))?,
                ))),
                other => Err(CoreError::TypeError(format!(
                    "cannot negate {}",
                    other.data_type()
                ))),
            },
            ScalarExpr::Cmp(op, l, r) => {
                let lv = l.eval(tuple)?;
                let rv = r.eval(tuple)?;
                if lv.data_type() != rv.data_type() {
                    return Err(CoreError::TypeError(format!(
                        "cannot compare {} with {}",
                        lv.data_type(),
                        rv.data_type()
                    )));
                }
                Ok(Value::Bool(op.test(lv.cmp(&rv))))
            }
            ScalarExpr::And(l, r) => {
                // strict conjunction: both sides must be boolean, but we may
                // short-circuit on a false left side
                if !l.eval(tuple)?.as_bool()? {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(r.eval(tuple)?.as_bool()?))
            }
            ScalarExpr::Or(l, r) => {
                if l.eval(tuple)?.as_bool()? {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(r.eval(tuple)?.as_bool()?))
            }
            ScalarExpr::Not(e) => Ok(Value::Bool(!e.eval(tuple)?.as_bool()?)),
            ScalarExpr::Concat(l, r) => match (l.eval(tuple)?, r.eval(tuple)?) {
                (Value::Str(a), Value::Str(b)) => {
                    let mut s = String::with_capacity(a.len() + b.len());
                    s.push_str(&a);
                    s.push_str(&b);
                    Ok(Value::str(s))
                }
                (a, b) => Err(CoreError::TypeError(format!(
                    "cannot concatenate {} with {}",
                    a.data_type(),
                    b.data_type()
                ))),
            },
        }
    }

    /// Evaluates a predicate (boolean-typed expression) on a tuple.
    pub fn eval_predicate(&self, tuple: &Tuple) -> CoreResult<bool> {
        self.eval(tuple)?.as_bool()
    }

    /// Infers the output domain against an input schema, rejecting ill-typed
    /// trees: the first problem [`ScalarExpr::check`] reports.
    pub fn infer_type(&self, schema: &Schema) -> CoreResult<DataType> {
        crate::first_problem(|report| self.check(schema, report))
    }

    /// Types the tree against an input schema, reporting *every* problem
    /// it contains to `report`, children before parents: each attribute
    /// that does not resolve, each operator applied to domains it is not
    /// defined on. Returns the output domain when nothing was reported. A
    /// node whose operand failed adds no report of its own, so one cause
    /// is reported once.
    pub fn check(&self, schema: &Schema, report: &mut dyn FnMut(CoreError)) -> Option<DataType> {
        match self {
            ScalarExpr::Attr(i) => schema.dtype(*i).map_err(report).ok(),
            ScalarExpr::Literal(v) => Some(v.data_type()),
            ScalarExpr::Arith(op, l, r) => {
                let (lt, rt) = (l.check(schema, report), r.check(schema, report));
                arith_result_type(*op, lt?, rt?).map_err(report).ok()
            }
            ScalarExpr::Neg(e) => match e.check(schema, report)? {
                t if t.is_numeric() => Some(t),
                t => type_error(report, format!("cannot negate {t}")),
            },
            ScalarExpr::Cmp(op, l, r) => {
                let (lt, rt) = (l.check(schema, report), r.check(schema, report));
                let (lt, rt) = (lt?, rt?);
                if lt != rt {
                    type_error(report, format!("cannot compare {lt} with {rt}"))
                } else if op.needs_order() && !lt.is_ordered() {
                    type_error(report, format!("domain {lt} has no order for {op}"))
                } else {
                    Some(DataType::Bool)
                }
            }
            ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
                let sides = [l, r].map(|side| match side.check(schema, report)? {
                    DataType::Bool => Some(()),
                    t => type_error(report, format!("boolean connective applied to {t}")),
                });
                sides.iter().all(Option::is_some).then_some(DataType::Bool)
            }
            ScalarExpr::Not(e) => match e.check(schema, report)? {
                DataType::Bool => Some(DataType::Bool),
                t => type_error(report, format!("NOT applied to {t}")),
            },
            ScalarExpr::Concat(l, r) => {
                let (lt, rt) = (l.check(schema, report), r.check(schema, report));
                match (lt?, rt?) {
                    (DataType::Str, DataType::Str) => Some(DataType::Str),
                    (lt, rt) => type_error(report, format!("cannot concatenate {lt} with {rt}")),
                }
            }
        }
    }

    /// Collects the set of attribute indexes referenced by the expression,
    /// in ascending order without duplicates.
    pub fn attrs_used(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ScalarExpr::Attr(i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Largest attribute index referenced, or 0 if none.
    pub fn max_attr(&self) -> usize {
        self.attrs_used().last().copied().unwrap_or(0)
    }

    /// Calls `f` on every node of the tree (pre-order).
    pub fn walk<F: FnMut(&ScalarExpr)>(&self, f: &mut F) {
        f(self);
        match self {
            ScalarExpr::Attr(_) | ScalarExpr::Literal(_) => {}
            ScalarExpr::Neg(e) | ScalarExpr::Not(e) => e.walk(f),
            ScalarExpr::Arith(_, l, r)
            | ScalarExpr::Cmp(_, l, r)
            | ScalarExpr::And(l, r)
            | ScalarExpr::Or(l, r)
            | ScalarExpr::Concat(l, r) => {
                l.walk(f);
                r.walk(f);
            }
        }
    }

    /// Rewrites every attribute index through `f` (used by pushdown rules to
    /// re-base predicates across products); fails if `f` does.
    pub fn map_attrs<F>(&self, f: &mut F) -> CoreResult<ScalarExpr>
    where
        F: FnMut(usize) -> CoreResult<usize>,
    {
        Ok(match self {
            ScalarExpr::Attr(i) => ScalarExpr::Attr(f(*i)?),
            ScalarExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
            ScalarExpr::Arith(op, l, r) => {
                ScalarExpr::Arith(*op, Arc::new(l.map_attrs(f)?), Arc::new(r.map_attrs(f)?))
            }
            ScalarExpr::Neg(e) => ScalarExpr::Neg(Arc::new(e.map_attrs(f)?)),
            ScalarExpr::Cmp(op, l, r) => {
                ScalarExpr::Cmp(*op, Arc::new(l.map_attrs(f)?), Arc::new(r.map_attrs(f)?))
            }
            ScalarExpr::And(l, r) => {
                ScalarExpr::And(Arc::new(l.map_attrs(f)?), Arc::new(r.map_attrs(f)?))
            }
            ScalarExpr::Or(l, r) => {
                ScalarExpr::Or(Arc::new(l.map_attrs(f)?), Arc::new(r.map_attrs(f)?))
            }
            ScalarExpr::Not(e) => ScalarExpr::Not(Arc::new(e.map_attrs(f)?)),
            ScalarExpr::Concat(l, r) => {
                ScalarExpr::Concat(Arc::new(l.map_attrs(f)?), Arc::new(r.map_attrs(f)?))
            }
        })
    }

    /// True when the expression references no attributes (a constant).
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.walk(&mut |e| {
            if matches!(e, ScalarExpr::Attr(_)) {
                constant = false;
            }
        });
        constant
    }

    /// Splits a conjunction into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        fn go<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
            match e {
                ScalarExpr::And(l, r) => {
                    go(l, out);
                    go(r, out);
                }
                other => out.push(other),
            }
        }
        go(self, &mut out);
        out
    }

    /// Rebuilds a conjunction from conjuncts; an empty list yields `true`.
    pub fn conjoin(mut parts: Vec<ScalarExpr>) -> ScalarExpr {
        match parts.len() {
            0 => ScalarExpr::bool(true),
            1 => parts.pop().expect("len checked"),
            _ => {
                let mut it = parts.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, e| acc.and(e))
            }
        }
    }
}

/// Per-operator result typing for arithmetic: the coercion table
/// [`ScalarExpr::check`] applies.
fn arith_result_type(op: ArithOp, l: DataType, r: DataType) -> CoreResult<DataType> {
    use DataType::*;
    let err = || {
        Err(CoreError::TypeError(format!(
            "no arithmetic {op} between {l} and {r}"
        )))
    };
    match op {
        ArithOp::Add | ArithOp::Sub => match (l, r) {
            (Int, Int) => Ok(Int),
            (Int, Real) | (Real, Int) | (Real, Real) => Ok(Real),
            (Money, Money) => Ok(Money),
            _ => err(),
        },
        ArithOp::Mul => match (l, r) {
            (Int, Int) => Ok(Int),
            (Int, Real) | (Real, Int) | (Real, Real) => Ok(Real),
            (Money, Int) | (Int, Money) => Ok(Money),
            (Money, Real) | (Real, Money) => Ok(Money),
            _ => err(),
        },
        ArithOp::Div => match (l, r) {
            (Int, Int) => Ok(Int),
            (Int, Real) | (Real, Int) | (Real, Real) => Ok(Real),
            (Money, Int) | (Money, Real) => Ok(Money),
            (Money, Money) => Ok(Real),
            _ => err(),
        },
        ArithOp::Mod => match (l, r) {
            (Int, Int) => Ok(Int),
            _ => err(),
        },
    }
}

/// Evaluates one arithmetic operation on two values, following the typing
/// of [`ScalarExpr::check`]. Public so the columnar evaluator in
/// `mera-eval` can reuse the exact scalar semantics element-wise.
pub fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> CoreResult<Value> {
    use ArithOp::*;
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let v = match op {
                Add => a.checked_add(b),
                Sub => a.checked_sub(b),
                Mul => a.checked_mul(b),
                Div => {
                    if b == 0 {
                        return Err(CoreError::DivisionByZero);
                    }
                    a.checked_div(b)
                }
                Mod => {
                    if b == 0 {
                        return Err(CoreError::DivisionByZero);
                    }
                    a.checked_rem(b)
                }
            };
            Ok(Value::Int(v.ok_or(CoreError::Overflow("int arithmetic"))?))
        }
        (Value::Money(a), Value::Money(b)) => match op {
            Add => Ok(Value::Money(Money(
                a.0.checked_add(b.0).ok_or(CoreError::Overflow("money"))?,
            ))),
            Sub => Ok(Value::Money(Money(
                a.0.checked_sub(b.0).ok_or(CoreError::Overflow("money"))?,
            ))),
            Div => {
                if b.0 == 0 {
                    return Err(CoreError::DivisionByZero);
                }
                Value::real(a.0 as f64 / b.0 as f64)
            }
            _ => Err(CoreError::TypeError(format!(
                "no arithmetic {op} between money and money"
            ))),
        },
        (Value::Money(_), _) | (_, Value::Money(_)) => {
            // money scaled by int or real (Mul/Div per the typing table)
            let (m, scalar, money_is_left) = match (l, r) {
                (Value::Money(m), s) => (m, s, true),
                (s, Value::Money(m)) => (m, s, false),
                _ => unreachable!("outer match guarantees one money operand"),
            };
            if !matches!(scalar, Value::Int(_) | Value::Real(_)) {
                return Err(CoreError::TypeError(format!(
                    "no arithmetic {op} between {} and {}",
                    l.data_type(),
                    r.data_type()
                )));
            }
            let s = scalar.as_f64()?;
            let cents = m.0 as f64;
            let out = match op {
                Mul => cents * s,
                Div if money_is_left => {
                    if s == 0.0 {
                        return Err(CoreError::DivisionByZero);
                    }
                    cents / s
                }
                _ => {
                    return Err(CoreError::TypeError(format!(
                        "no arithmetic {op} between {} and {}",
                        l.data_type(),
                        r.data_type()
                    )))
                }
            };
            if !out.is_finite() || out.abs() >= i64::MAX as f64 {
                return Err(CoreError::Overflow("money arithmetic"));
            }
            Ok(Value::Money(Money(out.round() as i64)))
        }
        _ => {
            // remaining numeric mixes evaluate in f64
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(CoreError::DivisionByZero);
                    }
                    a / b
                }
                Mod => {
                    return Err(CoreError::TypeError(format!(
                        "no arithmetic % between {} and {}",
                        l.data_type(),
                        r.data_type()
                    )))
                }
            };
            Ok(Value::Real(Real::new(v).map_err(|_| {
                CoreError::Overflow("real arithmetic produced NaN")
            })?))
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Attr(i) => write!(f, "%{i}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Arith(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::Neg(e) => write!(f, "(-{e})"),
            ScalarExpr::Cmp(op, l, r) => write!(f, "({l} {op} {r})"),
            ScalarExpr::And(l, r) => write!(f, "({l} and {r})"),
            ScalarExpr::Or(l, r) => write!(f, "({l} or {r})"),
            ScalarExpr::Not(e) => write!(f, "(not {e})"),
            ScalarExpr::Concat(l, r) => write!(f, "({l} || {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn schema() -> Schema {
        Schema::named(&[
            ("name", DataType::Str),
            ("alcperc", DataType::Real),
            ("year", DataType::Int),
        ])
    }

    fn row() -> Tuple {
        tuple!["Grolsch", 5.0_f64, 1615_i64]
    }

    #[test]
    fn attr_and_literal_eval() {
        assert_eq!(
            ScalarExpr::attr(1).eval(&row()).unwrap(),
            Value::str("Grolsch")
        );
        assert_eq!(ScalarExpr::int(9).eval(&row()).unwrap(), Value::Int(9));
        assert!(ScalarExpr::attr(4).eval(&row()).is_err());
    }

    #[test]
    fn arithmetic_int() {
        let e = ScalarExpr::attr(3).add(ScalarExpr::int(10));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(1625));
        let e = ScalarExpr::int(7).arith(ArithOp::Mod, ScalarExpr::int(3));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(1));
        let e = ScalarExpr::int(7).div(ScalarExpr::int(2));
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(3));
    }

    #[test]
    fn arithmetic_real_and_mixed() {
        // the Guineken update: alcperc * 1.1
        let e = ScalarExpr::attr(2).mul(ScalarExpr::real(1.1));
        assert_eq!(e.eval(&row()).unwrap(), Value::real(5.5).unwrap());
        let e = ScalarExpr::attr(3).add(ScalarExpr::real(0.5));
        assert_eq!(e.eval(&row()).unwrap(), Value::real(1615.5).unwrap());
    }

    #[test]
    fn arithmetic_money() {
        let price = ScalarExpr::Literal(Value::Money(Money(250)));
        let e = price.clone().mul(ScalarExpr::int(3));
        assert_eq!(e.eval(&row()).unwrap(), Value::Money(Money(750)));
        let e = price.clone().mul(ScalarExpr::real(1.1));
        assert_eq!(e.eval(&row()).unwrap(), Value::Money(Money(275)));
        let e = price.clone().add(price.clone());
        assert_eq!(e.eval(&row()).unwrap(), Value::Money(Money(500)));
        let e = price.clone().div(price);
        assert_eq!(e.eval(&row()).unwrap(), Value::real(1.0).unwrap());
    }

    #[test]
    fn division_by_zero_detected() {
        let e = ScalarExpr::int(1).div(ScalarExpr::int(0));
        assert_eq!(e.eval(&row()).unwrap_err(), CoreError::DivisionByZero);
        let e = ScalarExpr::real(1.0).div(ScalarExpr::real(0.0));
        assert_eq!(e.eval(&row()).unwrap_err(), CoreError::DivisionByZero);
    }

    #[test]
    fn overflow_detected() {
        let e = ScalarExpr::int(i64::MAX).add(ScalarExpr::int(1));
        assert!(matches!(e.eval(&row()), Err(CoreError::Overflow(_))));
        let e = ScalarExpr::Neg(Arc::new(ScalarExpr::int(i64::MIN)));
        assert!(matches!(e.eval(&row()), Err(CoreError::Overflow(_))));
    }

    #[test]
    fn comparisons() {
        let e = ScalarExpr::attr(2).cmp(CmpOp::Ge, ScalarExpr::real(5.0));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = ScalarExpr::attr(1).eq(ScalarExpr::str("Grolsch"));
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        // cross-type comparison is a type error, not false
        let e = ScalarExpr::attr(1).eq(ScalarExpr::int(1));
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn boolean_connectives_short_circuit() {
        // right side would error on eval; false AND short-circuits
        let bad = ScalarExpr::int(1)
            .div(ScalarExpr::int(0))
            .eq(ScalarExpr::int(1));
        let e = ScalarExpr::bool(false).and(bad.clone());
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
        let e = ScalarExpr::bool(true).or(bad);
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(true));
        let e = ScalarExpr::bool(true).not();
        assert_eq!(e.eval(&row()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn string_concat() {
        let e = ScalarExpr::attr(1).concat_with(ScalarExpr::str("!"));
        assert_eq!(e.eval(&row()).unwrap(), Value::str("Grolsch!"));
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(
            ScalarExpr::attr(2)
                .mul(ScalarExpr::real(1.1))
                .infer_type(&s)
                .unwrap(),
            DataType::Real
        );
        assert_eq!(
            ScalarExpr::attr(3)
                .add(ScalarExpr::int(1))
                .infer_type(&s)
                .unwrap(),
            DataType::Int
        );
        assert_eq!(
            ScalarExpr::attr(3)
                .add(ScalarExpr::real(0.5))
                .infer_type(&s)
                .unwrap(),
            DataType::Real
        );
        assert_eq!(
            ScalarExpr::attr(1)
                .eq(ScalarExpr::str("x"))
                .infer_type(&s)
                .unwrap(),
            DataType::Bool
        );
        // ill-typed trees rejected statically
        assert!(ScalarExpr::attr(1)
            .add(ScalarExpr::int(1))
            .infer_type(&s)
            .is_err());
        assert!(ScalarExpr::attr(1)
            .cmp(CmpOp::Lt, ScalarExpr::int(1))
            .infer_type(&s)
            .is_err());
        assert!(ScalarExpr::attr(9).infer_type(&s).is_err());
        assert!(ScalarExpr::int(1)
            .and(ScalarExpr::bool(true))
            .infer_type(&s)
            .is_err());
        // bool has no order
        assert!(ScalarExpr::bool(true)
            .cmp(CmpOp::Lt, ScalarExpr::bool(false))
            .infer_type(&s)
            .is_err());
        // but bool equality is fine
        assert!(ScalarExpr::bool(true)
            .eq(ScalarExpr::bool(false))
            .infer_type(&s)
            .is_ok());
    }

    #[test]
    fn attrs_used_and_constant() {
        let e = ScalarExpr::attr(3)
            .add(ScalarExpr::int(1))
            .eq(ScalarExpr::attr(3));
        assert_eq!(e.attrs_used(), vec![3]);
        assert_eq!(e.max_attr(), 3);
        assert!(!e.is_constant());
        let e = ScalarExpr::attr(1)
            .eq(ScalarExpr::str("x"))
            .and(ScalarExpr::attr(5).eq(ScalarExpr::int(2)));
        assert_eq!(e.attrs_used(), vec![1, 5]);
        assert_eq!(e.max_attr(), 5);
        assert!(ScalarExpr::int(1).add(ScalarExpr::int(2)).is_constant());
        assert_eq!(ScalarExpr::int(1).max_attr(), 0);
    }

    #[test]
    fn map_attrs_rebases() {
        let e = ScalarExpr::attr(1).eq(ScalarExpr::attr(4));
        let shifted = e.map_attrs(&mut |i| Ok(i + 3)).unwrap();
        assert_eq!(shifted.attrs_used(), vec![4, 7]);
    }

    #[test]
    fn conjunct_roundtrip() {
        let a = ScalarExpr::attr(1).eq(ScalarExpr::str("x"));
        let b = ScalarExpr::attr(2).cmp(CmpOp::Gt, ScalarExpr::real(4.0));
        let c = ScalarExpr::attr(3).eq(ScalarExpr::int(1));
        let conj = ScalarExpr::conjoin(vec![a.clone(), b, c.clone()]);
        let parts = conj.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &a);
        assert_eq!(parts[2], &c);
        assert_eq!(ScalarExpr::conjoin(vec![]), ScalarExpr::bool(true));
        assert_eq!(ScalarExpr::conjoin(vec![a.clone()]), a);
    }

    #[test]
    fn display_renders_prefixed_attrs() {
        let e = ScalarExpr::attr(2).mul(ScalarExpr::real(1.1));
        assert_eq!(e.to_string(), "(%2 * 1.1)");
        let e = ScalarExpr::attr(1).eq(ScalarExpr::str("Guineken"));
        assert_eq!(e.to_string(), "(%1 = 'Guineken')");
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
    }
}
