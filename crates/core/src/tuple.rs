//! Tuples and tuple operations (Definition 2.4).
//!
//! A tuple `r` of schema `R` is an element of `dom(R)`. The paper defines
//! three tuple-level operations, all reproduced here:
//!
//! * attribute access `r.i` (1-based),
//! * tuple projection `α_a(r)` for an attribute list `a = (%i₁, …, %iₙ)`,
//! * concatenation `r₁ ⊕ r₂`.

use std::fmt;
use std::sync::{Arc, LazyLock};

use crate::error::{CoreError, CoreResult};
use crate::value::Value;

/// A list of prefixed attribute indexes `(%i₁, …, %iₙ)`, 1-based and allowed
/// to repeat (Definition 2.4 only requires `1 ≤ iⱼ ≤ #r`).
///
/// Stored 1-based to stay close to the paper's notation; the consumers
/// do the off-by-one translation exactly once at access time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrList(Vec<usize>);

impl AttrList {
    /// Builds an attribute list, rejecting empty lists and index `0`
    /// (`n ≥ 1` and `1 ≤ iⱼ`).
    pub fn new(indexes: Vec<usize>) -> CoreResult<Self> {
        if indexes.is_empty() {
            return Err(CoreError::TypeError(
                "attribute list must contain at least one attribute".into(),
            ));
        }
        if let Some(&bad) = indexes.iter().find(|&&i| i == 0) {
            return Err(CoreError::AttrIndexOutOfRange {
                index: bad,
                arity: 0,
            });
        }
        Ok(AttrList(indexes))
    }

    /// Builds a duplicate-free attribute list (required for group-by lists,
    /// Definition 3.4).
    pub fn new_unique(indexes: Vec<usize>) -> CoreResult<Self> {
        let list = Self::new(indexes)?;
        let mut seen = vec![false; list.0.iter().copied().max().unwrap_or(0) + 1];
        for &i in &list.0 {
            if seen[i] {
                return Err(CoreError::DuplicateAttrInList(i));
            }
            seen[i] = true;
        }
        Ok(list)
    }

    /// The identity attribute list `(%1, …, %arity)`.
    pub fn identity(arity: usize) -> CoreResult<Self> {
        Self::new((1..=arity).collect())
    }

    /// Number of entries in the list.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the list is empty (never, by construction — kept for
    /// clippy's `len_without_is_empty` and future use).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The 1-based indexes.
    pub fn indexes(&self) -> &[usize] {
        &self.0
    }

    /// Validates the list against an arity, producing the first offending
    /// index on failure.
    pub fn check_arity(&self, arity: usize) -> CoreResult<()> {
        match self.0.iter().find(|&&i| i > arity) {
            None => Ok(()),
            Some(&bad) => Err(CoreError::AttrIndexOutOfRange { index: bad, arity }),
        }
    }
}

impl fmt::Display for AttrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (k, i) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "%{i}")?;
        }
        write!(f, ")")
    }
}

/// A tuple: an ordered sequence of atomic values.
///
/// Tuples are immutable once built; every algebra operator constructs new
/// tuples rather than mutating. Because relations are functions from
/// tuples to multiplicities, tuples are pure *keys* — so the row storage
/// is an atomically reference-counted slice and `clone()` is a refcount
/// bump, never a deep copy. Equality, ordering and hashing remain
/// value-wise (Definition 2.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

/// The single shared zero-arity row backing [`Tuple::empty`].
static EMPTY_TUPLE: LazyLock<Tuple> = LazyLock::new(|| Tuple(Arc::from(Vec::new())));

impl Tuple {
    /// Builds a tuple from its attribute values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// The empty tuple (used by the empty-grouping-list aggregate form).
    /// Always the same shared allocation.
    pub fn empty() -> Self {
        EMPTY_TUPLE.clone()
    }

    /// Number of attributes, `#r` in the paper.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Attribute access `r.i`, 1-based as in the paper.
    pub fn attr(&self, i: usize) -> CoreResult<&Value> {
        if i == 0 || i > self.0.len() {
            return Err(CoreError::AttrIndexOutOfRange {
                index: i,
                arity: self.0.len(),
            });
        }
        Ok(&self.0[i - 1])
    }

    /// All attribute values, in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Tuple projection `α_a(r)`: concatenates the attributes named by `a`
    /// into a new tuple (duplicated indexes duplicate values).
    ///
    /// Validates `a` against this tuple's arity on every call; hot loops
    /// should resolve the list once with [`ResolvedAttrs`] instead.
    pub fn project(&self, a: &AttrList) -> CoreResult<Tuple> {
        Ok(ResolvedAttrs::new(a.indexes(), self.arity())?.project(self))
    }

    /// Tuple concatenation `r₁ ⊕ r₂`.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut vals = Vec::with_capacity(self.0.len() + other.0.len());
        vals.extend_from_slice(&self.0);
        vals.extend_from_slice(&other.0);
        Tuple::new(vals)
    }

    /// Consumes the tuple and returns its values (copied out of the shared
    /// row; the per-value copies are refcount bumps at worst).
    pub fn into_values(self) -> Vec<Value> {
        self.0.to_vec()
    }
}

/// An attribute list resolved against a known arity: 0-based offsets,
/// validated **once** at plan/build time so per-row access needs no
/// bounds re-checks. This is the hot-loop counterpart of [`AttrList`] —
/// joins, group-bys and partitioners hash and compare key columns *in
/// place* through it instead of materialising key tuples per row.
///
/// Cloning shares the offset slice (the morsel compiler clones one
/// resolved list into every pipeline leg).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedAttrs(Arc<[usize]>);

impl ResolvedAttrs {
    /// Resolves 1-based `indexes` against `arity`, rejecting empty lists
    /// and out-of-range entries exactly like [`AttrList`] + `check_arity`.
    pub fn new(indexes: &[usize], arity: usize) -> CoreResult<Self> {
        if indexes.is_empty() {
            return Err(CoreError::TypeError(
                "attribute list must contain at least one attribute".into(),
            ));
        }
        if let Some(&bad) = indexes.iter().find(|&&i| i == 0 || i > arity) {
            return Err(CoreError::AttrIndexOutOfRange { index: bad, arity });
        }
        Ok(ResolvedAttrs(indexes.iter().map(|&i| i - 1).collect()))
    }

    /// Resolves an [`AttrList`] against an arity.
    pub fn from_attr_list(list: &AttrList, arity: usize) -> CoreResult<Self> {
        Self::new(list.indexes(), arity)
    }

    /// The 0-based offsets.
    pub fn offsets(&self) -> &[usize] {
        &self.0
    }

    /// Number of resolved attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the list is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The projected values of `t`, in list order, borrowed in place.
    ///
    /// Like all per-row accessors here, this expects `t` to conform to the
    /// arity the list was resolved against (operators guarantee this via
    /// schema checking; a violation is a bug and panics).
    pub fn values<'s, 't: 's>(&'s self, t: &'t Tuple) -> impl Iterator<Item = &'t Value> + 's {
        let vals = t.values();
        self.0.iter().map(move |&i| &vals[i])
    }

    /// Materialises the projection `α_a(t)` as a new tuple.
    pub fn project(&self, t: &Tuple) -> Tuple {
        self.values(t).cloned().collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (k, v) in self.0.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

/// Builds a tuple from a heterogeneous argument list, e.g.
/// `tuple!["Grolsch", 5.0_f64, 1615_i64]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::IntoValue::into_value($v)),*])
    };
}

/// Infallible conversions into [`Value`] used by the [`tuple!`] macro.
///
/// `f64` panics on NaN (a programming error in literals, not a data error).
pub trait IntoValue {
    /// Converts `self` into a [`Value`].
    fn into_value(self) -> Value;
}

impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }
}
impl IntoValue for i64 {
    fn into_value(self) -> Value {
        Value::Int(self)
    }
}
impl IntoValue for i32 {
    fn into_value(self) -> Value {
        Value::Int(i64::from(self))
    }
}
impl IntoValue for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
}
impl IntoValue for &str {
    fn into_value(self) -> Value {
        Value::str(self)
    }
}
impl IntoValue for String {
    fn into_value(self) -> Value {
        Value::str(self)
    }
}
impl IntoValue for f64 {
    fn into_value(self) -> Value {
        Value::real(self).expect("literal reals must not be NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_access_is_one_based() {
        let t = tuple![10_i64, 20_i64, 30_i64];
        assert_eq!(t.attr(1).unwrap(), &Value::Int(10));
        assert_eq!(t.attr(3).unwrap(), &Value::Int(30));
        assert!(t.attr(0).is_err());
        assert!(t.attr(4).is_err());
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn projection_follows_attr_list_order_and_duplicates() {
        let t = tuple!["a", "b", "c"];
        let a = AttrList::new(vec![3, 1, 3]).unwrap();
        let p = t.project(&a).unwrap();
        assert_eq!(p, tuple!["c", "a", "c"]);
    }

    #[test]
    fn projection_out_of_range_fails() {
        let t = tuple![1_i64];
        let a = AttrList::new(vec![2]).unwrap();
        assert!(matches!(
            t.project(&a),
            Err(CoreError::AttrIndexOutOfRange { index: 2, arity: 1 })
        ));
    }

    #[test]
    fn concatenation_orders_left_then_right() {
        let l = tuple![1_i64, 2_i64];
        let r = tuple!["x"];
        assert_eq!(l.concat(&r), tuple![1_i64, 2_i64, "x"]);
        assert_eq!(r.concat(&l), tuple!["x", 1_i64, 2_i64]);
    }

    #[test]
    fn concat_with_empty_is_identity() {
        let t = tuple![1_i64, "y"];
        assert_eq!(t.concat(&Tuple::empty()), t);
        assert_eq!(Tuple::empty().concat(&t), t);
    }

    #[test]
    fn attr_list_validation() {
        assert!(AttrList::new(vec![]).is_err());
        assert!(AttrList::new(vec![0]).is_err());
        assert!(AttrList::new(vec![1, 1]).is_ok());
        assert!(AttrList::new_unique(vec![1, 1]).is_err());
        assert!(AttrList::new_unique(vec![1, 2]).is_ok());
    }

    #[test]
    fn attr_list_identity_and_display() {
        let id = AttrList::identity(3).unwrap();
        assert_eq!(id.indexes(), &[1, 2, 3]);
        assert_eq!(id.to_string(), "(%1,%2,%3)");
    }

    #[test]
    fn tuple_display() {
        let t = tuple!["Grolsch", 5.0_f64];
        assert_eq!(t.to_string(), "<'Grolsch', 5.0>");
        assert_eq!(Tuple::empty().to_string(), "<>");
    }

    #[test]
    fn tuple_equality_by_attributes() {
        // Def 2.4: r1 = r2 iff all corresponding attributes are equal.
        assert_eq!(tuple![1_i64, "a"], tuple![1_i64, "a"]);
        assert_ne!(tuple![1_i64, "a"], tuple![1_i64, "b"]);
        assert_ne!(tuple![1_i64], tuple![1_i64, 1_i64]);
    }
}
