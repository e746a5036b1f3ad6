//! Counted multi-sets over a multiplicity semiring (K-bags).
//!
//! Definition 2.2 models a relation instance as a *function*
//! `R : dom(R) → ℕ` mapping each element to its multiplicity. "Codd's
//! Theorem for Databases over Semirings" (Badia, Kolaitis & Noguera) reads
//! ℕ as one instance of a commutative semiring K: a K-bag maps each element
//! to a K-multiplicity, ⊎ is `+` and × is `·`. [`KBag<T, S>`] is that
//! function restricted to its finite support — elements whose multiplicity
//! is the semiring's zero are never stored, so `support().count()` is the
//! number of *distinct* elements. The semiring is implemented directly on
//! the count types:
//!
//! | `S` | semiring | used for |
//! |---|---|---|
//! | `u64` | ℕ, checked | the paper's bags: [`Bag`] and `Relation` |
//! | `i64` | ℤ, checked | signed commit and view deltas: [`SignedBag`] |
//! | `bool` | 𝔹 | set semantics, the baseline of Example 3.2 |
//!
//! ⊎, ×, σ (`filter`) and π (`map`) hold in every semiring. −, ∩, δ and ⊑
//! need a [`NaturallyOrdered`] one (ℕ and 𝔹): − is monus and ∩ is min.
//! Only ℤ negates, diffs two ℕ bags and applies itself to one.
//!
//! | paper | here | multiplicity law |
//! |---|---|---|
//! | `E₁ ⊎ E₂` | [`KBag::union`] | `m₁ + m₂` |
//! | `E₁ × E₂` | [`KBag::product`] | `m₁ · m₂` |
//! | `E₁ − E₂` | [`KBag::difference`] | `m₁ ∸ m₂` (ℕ: `max(0, m₁ − m₂)`) |
//! | `E₁ ∩ E₂` | [`KBag::intersection`] | `min(m₁, m₂)` |
//! | `E₁ ⊑ E₂` | [`KBag::is_submultiset`] | `∀x: m₁(x) ≤ m₂(x)` |
//! | `δE` | [`KBag::distinct`] | `min(1, m)` |
//!
//! The support is stored in a [`PMap`], a persistent hash trie: a clone
//! shares every node, so copying a relation, a delta or a view's state
//! costs O(1), and a write copies only the O(log n) nodes on its path
//! that another copy still shares. A committed version is therefore a
//! clone of its predecessor plus one path per changed element.

use std::fmt;
use std::hash::Hash;

use crate::error::{CoreError, CoreResult};
use crate::pmap::{self, PMap};

/// A commutative semiring of multiplicities. Partial operations report
/// overflow instead of wrapping.
pub trait Semiring: Copy + Eq + fmt::Debug + fmt::Display + Send + Sync + 'static {
    /// The additive identity: the multiplicity of an absent element.
    const ZERO: Self;
    /// The multiplicative identity: one occurrence.
    const ONE: Self;

    /// What a bag caches about its multiplicities: ℕ keeps `Σ m`, its
    /// cardinality; ℤ and 𝔹 keep nothing, so no ℤ delta can fail on a
    /// cached sum.
    type Total: Copy + Default + Eq + fmt::Debug + Send + Sync;

    /// `self + rhs`: the multiplicity law of ⊎.
    fn plus(self, rhs: Self) -> CoreResult<Self>;

    /// `self · rhs`: the multiplicity law of ×.
    fn times(self, rhs: Self) -> CoreResult<Self>;

    /// The image of an ℕ multiplicity under the homomorphism ℕ → S.
    fn from_nat(m: u64) -> CoreResult<Self>;

    /// The cached total after one element's multiplicity moved from
    /// `old` to `new`.
    fn retotal(total: Self::Total, old: Self, new: Self) -> CoreResult<Self::Total>;

    /// Lifts an ℕ bag into S pointwise (`from_nat` of every multiplicity).
    fn lift<T: Eq + Hash + Clone>(bag: &Bag<T>) -> CoreResult<KBag<T, Self>> {
        KBag::try_from_pairs(bag.iter().map(|(x, m)| Ok((x.clone(), Self::from_nat(m)?))))
    }
}

/// A semiring whose natural order (`a ≤ b ⟺ ∃c: a + c = b`) is its
/// [`Ord`]: the instances where − (monus), ∩ (min), δ and ⊑ are defined.
pub trait NaturallyOrdered: Semiring + Ord {
    /// Monus `self ∸ rhs`: the least `d` with `self ≤ rhs + d`.
    fn monus(self, rhs: Self) -> Self;

    /// The multiplicity as an ℕ count: the weight γ aggregates with.
    fn weight(self) -> u64;

    /// A bag's cardinality `Σ weight(m)` from its cached total and its
    /// support size.
    fn cardinality(total: Self::Total, distinct: usize) -> u64;
}

impl Semiring for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    type Total = u64;

    fn plus(self, rhs: Self) -> CoreResult<Self> {
        self.checked_add(rhs)
            .ok_or(CoreError::Overflow("element multiplicity"))
    }

    fn times(self, rhs: Self) -> CoreResult<Self> {
        self.checked_mul(rhs)
            .ok_or(CoreError::Overflow("product multiplicity"))
    }

    fn from_nat(m: u64) -> CoreResult<Self> {
        Ok(m)
    }

    fn retotal(total: u64, old: u64, new: u64) -> CoreResult<u64> {
        // `old` is part of `total`, so only the addition can overflow
        (total - old)
            .checked_add(new)
            .ok_or(CoreError::Overflow("bag cardinality"))
    }

    fn lift<T: Eq + Hash + Clone>(bag: &Bag<T>) -> CoreResult<Bag<T>> {
        Ok(bag.clone())
    }
}

impl NaturallyOrdered for u64 {
    fn monus(self, rhs: Self) -> Self {
        self.saturating_sub(rhs)
    }

    fn weight(self) -> u64 {
        self
    }

    fn cardinality(total: u64, _: usize) -> u64 {
        total
    }
}

/// ℤ multiplicities stay in `−i64::MAX ..= i64::MAX`, so every one of
/// them can be negated.
fn signed(m: Option<i64>) -> CoreResult<i64> {
    m.filter(|&m| m != i64::MIN)
        .ok_or(CoreError::Overflow("signed multiplicity"))
}

impl Semiring for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    type Total = ();

    fn plus(self, rhs: Self) -> CoreResult<Self> {
        signed(self.checked_add(rhs))
    }

    fn times(self, rhs: Self) -> CoreResult<Self> {
        signed(self.checked_mul(rhs))
    }

    fn from_nat(m: u64) -> CoreResult<Self> {
        signed(i64::try_from(m).ok())
    }

    fn retotal((): (), _: i64, _: i64) -> CoreResult<()> {
        Ok(())
    }
}

impl Semiring for bool {
    const ZERO: Self = false;
    const ONE: Self = true;
    type Total = ();

    fn plus(self, rhs: Self) -> CoreResult<Self> {
        Ok(self || rhs)
    }

    fn times(self, rhs: Self) -> CoreResult<Self> {
        Ok(self && rhs)
    }

    fn from_nat(m: u64) -> CoreResult<Self> {
        Ok(m > 0)
    }

    fn retotal((): (), _: bool, _: bool) -> CoreResult<()> {
        Ok(())
    }
}

impl NaturallyOrdered for bool {
    fn monus(self, rhs: Self) -> Self {
        self && !rhs
    }

    fn weight(self) -> u64 {
        u64::from(self)
    }

    fn cardinality((): (), distinct: usize) -> u64 {
        distinct as u64
    }
}

/// A finite multi-set over `T` with multiplicities in `S`, stored as
/// `element → non-zero multiplicity`.
#[derive(Debug, Clone)]
pub struct KBag<T: Eq + Hash, S: Semiring> {
    counts: PMap<T, S>,
    total: S::Total,
}

/// A bag in the paper's sense: ℕ multiplicities.
pub type Bag<T> = KBag<T, u64>;

/// A signed delta: ℤ multiplicities, positive for insertions and negative
/// for retractions.
pub type SignedBag<T> = KBag<T, i64>;

impl<T: Eq + Hash, S: Semiring> Default for KBag<T, S> {
    fn default() -> Self {
        KBag {
            counts: PMap::new(),
            total: S::Total::default(),
        }
    }
}

impl<T: Eq + Hash + Clone, S: Semiring> KBag<T, S> {
    /// The empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bag from `(element, multiplicity)` pairs in one pass
    /// ([`PMap::try_from_pairs`]), summing (and in ℤ cancelling) the
    /// multiplicities of repeated elements; stops at the first `Err`.
    pub fn try_from_pairs(pairs: impl IntoIterator<Item = CoreResult<(T, S)>>) -> CoreResult<Self> {
        let add = |m: &mut S, n: &mut S| {
            *m = m.plus(*n)?;
            Ok(())
        };
        let counts = PMap::try_from_pairs(pairs, add, |&m| m != S::ZERO)?;
        let mut total = S::Total::default();
        for &m in counts.values() {
            total = S::retotal(total, S::ZERO, m)?;
        }
        Ok(KBag { counts, total })
    }

    /// True when every multiplicity is zero.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of *distinct* elements (the support size).
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// The multiplicity `B(x)` of an element; zero when absent.
    pub fn multiplicity(&self, x: &T) -> S {
        self.counts.get(x).copied().unwrap_or(S::ZERO)
    }

    /// Element membership: `x ∈ B ⟺ B(x) ≠ 0` (Definition 2.4).
    pub fn contains(&self, x: &T) -> bool {
        self.counts.contains_key(x)
    }

    /// Adds `m` occurrences of `x`, dropping the entry if the sum is zero
    /// (in ℤ a retraction can cancel an insertion). Adding zero is a no-op.
    pub fn insert(&mut self, x: T, m: S) -> CoreResult<()> {
        if m == S::ZERO {
            return Ok(());
        }
        let total = &mut self.total;
        self.counts.alter(x, |count| {
            let old = count.unwrap_or(S::ZERO);
            let next = old.plus(m)?;
            *total = S::retotal(*total, old, next)?;
            *count = (next != S::ZERO).then_some(next);
            Ok(())
        })
    }

    /// Iterates over `(element, multiplicity)` pairs — the paper's
    /// "set of pairs `(r, R(r))` without duplicates" notation.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&T, S)> {
        self.counts.iter().map(|(x, &m)| (x, m))
    }

    /// Iterates over the distinct elements (the support).
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.counts.keys()
    }

    /// Multi-set union `B₁ ⊎ B₂`: multiplicities add.
    pub fn union(&self, other: &Self) -> CoreResult<Self> {
        let mut out = self.clone();
        out.absorb(other.clone())?;
        Ok(out)
    }

    /// In-place union absorbing `other` without cloning its elements —
    /// merging per-worker bags, or folding one delta into another
    /// ([`PMap::alter_all`]).
    pub fn absorb(&mut self, other: Self) -> CoreResult<()> {
        if self.is_empty() {
            *self = other;
            return Ok(());
        }
        let total = &mut self.total;
        self.counts.alter_all(other, |count, m| {
            let old = count.unwrap_or(S::ZERO);
            let next = old.plus(m)?;
            *total = S::retotal(*total, old, next)?;
            *count = (next != S::ZERO).then_some(next);
            Ok(())
        })
    }

    /// Maps every element through `f`, summing multiplicities of collapsing
    /// images — the multiplicity law of projection (Definition 3.1):
    /// `π(E)(y) = Σ_{f(x)=y} E(x)`.
    pub fn map<U, F>(&self, mut f: F) -> CoreResult<KBag<U, S>>
    where
        U: Eq + Hash + Clone,
        F: FnMut(&T) -> CoreResult<U>,
    {
        KBag::try_from_pairs(self.iter().map(|(x, m)| Ok((f(x)?, m))))
    }

    /// Keeps elements satisfying `p`, multiplicities unchanged — the
    /// multiplicity law of selection (Definition 3.1).
    pub fn filter<F>(&self, mut p: F) -> CoreResult<Self>
    where
        F: FnMut(&T) -> CoreResult<bool>,
    {
        let mut kept = Vec::new();
        for (x, m) in self.iter() {
            if p(x)? {
                kept.push((x.clone(), m));
            }
        }
        Self::try_from_pairs(kept.into_iter().map(Ok))
    }

    /// Cartesian product with combiner: multiplicities multiply
    /// (`(E₁×E₂)(x⊕y) = E₁(x)·E₂(y)`, Definition 3.1).
    pub fn product<U, V, F>(&self, other: &KBag<U, S>, mut f: F) -> CoreResult<KBag<V, S>>
    where
        U: Eq + Hash + Clone,
        V: Eq + Hash + Clone,
        F: FnMut(&T, &U) -> V,
    {
        let mut pairs = Vec::with_capacity(self.distinct_len() * other.distinct_len());
        for (x, m1) in self.iter() {
            for (y, m2) in other.iter() {
                pairs.push((f(x, y), m1.times(m2)?));
            }
        }
        KBag::try_from_pairs(pairs.into_iter().map(Ok))
    }
}

impl<T: Eq + Hash + Clone> Bag<T> {
    /// The same bag with multiplicities in `S` (the homomorphism ℕ → S):
    /// the support in 𝔹, the signed counts in ℤ, itself in ℕ.
    pub fn lift<S: Semiring>(&self) -> CoreResult<KBag<T, S>> {
        S::lift(self)
    }
}

impl<T: Eq + Hash + Clone, S: NaturallyOrdered> KBag<T, S> {
    /// Total number of elements, counted with multiplicity
    /// (`Σ_x weight(B(x))`).
    pub fn len(&self) -> u64 {
        S::cardinality(self.total, self.counts.len())
    }

    /// Removes up to `m` occurrences of `x`, returning how many were
    /// actually removed (`min(m, B(x))` — the pointwise difference law).
    pub fn remove(&mut self, x: &T, m: S) -> S {
        let mut removed = S::ZERO;
        let total = &mut self.total;
        self.counts.update(x, |&cur| {
            removed = m.min(cur);
            let next = cur.monus(removed);
            *total = S::retotal(*total, cur, next).expect("removal shrinks the total");
            (next != S::ZERO).then_some(next)
        });
        removed
    }

    /// Iterates over elements *with* duplicates — the paper's "collection
    /// of individual tuples possibly containing duplicates" notation.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &T> + '_ {
        self.counts
            .iter()
            .flat_map(|(x, &m)| std::iter::repeat_n(x, m.weight() as usize))
    }

    /// Multi-set difference `B₁ − B₂`: `m₁ ∸ m₂` pointwise.
    pub fn difference(&self, other: &Self) -> Self {
        let pairs = self
            .iter()
            .map(|(x, m)| Ok((x.clone(), m.monus(other.multiplicity(x)))));
        Self::try_from_pairs(pairs).expect("bounded by the left bag")
    }

    /// Multi-set intersection `B₁ ∩ B₂`: `min(m₁, m₂)` pointwise.
    pub fn intersection(&self, other: &Self) -> Self {
        // iterate over the smaller support
        let (small, big) = if self.distinct_len() <= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        let pairs = small
            .iter()
            .map(|(x, m)| Ok((x.clone(), m.min(big.multiplicity(x)))));
        Self::try_from_pairs(pairs).expect("bounded by the smaller bag")
    }

    /// Duplicate elimination `δB`: every present element at multiplicity
    /// one.
    pub fn distinct(&self) -> Self {
        let pairs = self.support().map(|x| Ok((x.clone(), S::ONE)));
        Self::try_from_pairs(pairs).expect("bounded by the bag")
    }

    /// Multi-subset test `B₁ ⊑ B₂` (Definition 2.3).
    pub fn is_submultiset(&self, other: &Self) -> bool {
        self.len() <= other.len() && self.iter().all(|(x, m)| m <= other.multiplicity(x))
    }
}

impl<T: Eq + Hash + Clone> SignedBag<T> {
    /// Negates every multiplicity in place — turns an insertion delta into
    /// the retraction that undoes it.
    pub fn negate(&mut self) {
        // multiplicities are never i64::MIN, see `signed`
        self.counts.for_each_value_mut(|m| *m = -*m);
    }

    /// The delta that transforms `old` into `new`:
    /// `Δ(x) = new(x) − old(x)` pointwise.
    pub fn from_diff(old: &Bag<T>, new: &Bag<T>) -> CoreResult<Self> {
        let mut delta = new.lift::<i64>()?;
        for (x, m) in old.iter() {
            delta.insert(x.clone(), -i64::from_nat(m)?)?;
        }
        Ok(delta)
    }

    /// Applies the delta to an ℕ bag in place ([`Bag::apply_signed`]).
    pub fn apply_to(&self, base: &mut Bag<T>) -> CoreResult<()> {
        base.apply_signed(self.iter().map(|(x, m)| (x.clone(), m)))
    }
}

impl<T: Eq + Hash + Clone> Bag<T> {
    /// Adds signed multiplicities in place, one element at a time
    /// ([`PMap::alter_all`]), failing with
    /// [`CoreError::NegativeMultiplicity`] if an element would end up
    /// below zero — a retraction outrunning the base state, which a
    /// correctly maintained delta never produces. On failure the bag is
    /// partly updated; callers apply to a copy or rebuild.
    pub fn apply_signed(&mut self, changes: impl IntoIterator<Item = (T, i64)>) -> CoreResult<()> {
        let total = &mut self.total;
        self.counts.alter_all(changes, |count, m| {
            let cur = count.unwrap_or(0);
            let next = if m > 0 {
                cur.plus(m.unsigned_abs())?
            } else {
                cur.checked_sub(m.unsigned_abs())
                    .ok_or(CoreError::NegativeMultiplicity("delta application"))?
            };
            *total = u64::retotal(*total, cur, next)?;
            *count = (next != 0).then_some(next);
            Ok(())
        })
    }
}

/// Bag equality is the pointwise multiplicity equality of Definition 2.3.
impl<T: Eq + Hash, S: Semiring> PartialEq for KBag<T, S> {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.counts == other.counts
    }
}

impl<T: Eq + Hash, S: Semiring> Eq for KBag<T, S> {}

impl<T: Eq + Hash + Clone, S: Semiring> FromIterator<T> for KBag<T, S> {
    /// Collects duplicated elements into counted form. Panics only on
    /// overflow, which `FromIterator` cannot report.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().map(|x| (x, S::ONE)).collect()
    }
}

impl<T: Eq + Hash + Clone, S: Semiring> FromIterator<(T, S)> for KBag<T, S> {
    /// Collects `(element, multiplicity)` pairs, summing (and in ℤ
    /// cancelling) as it goes. Panics only on overflow, which
    /// `FromIterator` cannot report.
    fn from_iter<I: IntoIterator<Item = (T, S)>>(iter: I) -> Self {
        KBag::try_from_pairs(iter.into_iter().map(Ok)).expect("bag cardinality overflow")
    }
}

impl<T: Eq + Hash + Clone, S: Semiring> IntoIterator for KBag<T, S> {
    type Item = (T, S);
    type IntoIter = pmap::IntoIter<T, S>;

    /// Consumes the bag, yielding owned `(element, multiplicity)` pairs.
    fn into_iter(self) -> Self::IntoIter {
        self.counts.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(xs: &[(i32, u64)]) -> Bag<i32> {
        xs.iter().copied().collect()
    }

    #[test]
    fn empty_bag() {
        let b: Bag<i32> = Bag::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.distinct_len(), 0);
        assert_eq!(b.multiplicity(&1), 0);
        assert!(!b.contains(&1));
    }

    #[test]
    fn insert_and_multiplicity() {
        let mut b = Bag::new();
        b.insert(7, 3).unwrap();
        b.insert(7, 2).unwrap();
        b.insert(9, 1).unwrap();
        b.insert(5, 0).unwrap(); // no-op
        assert_eq!(b.multiplicity(&7), 5);
        assert_eq!(b.multiplicity(&9), 1);
        assert_eq!(b.len(), 6);
        assert_eq!(b.distinct_len(), 2);
        assert!(!b.contains(&5));
    }

    #[test]
    fn remove_caps_at_present_multiplicity() {
        let mut b = bag(&[(1, 3)]);
        assert_eq!(b.remove(&1, 2), 2);
        assert_eq!(b.multiplicity(&1), 1);
        assert_eq!(b.remove(&1, 5), 1);
        assert!(!b.contains(&1));
        assert_eq!(b.remove(&1, 1), 0);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn union_adds_multiplicities() {
        let a = bag(&[(1, 2), (2, 1)]);
        let b = bag(&[(1, 3), (3, 4)]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.multiplicity(&1), 5);
        assert_eq!(u.multiplicity(&2), 1);
        assert_eq!(u.multiplicity(&3), 4);
        assert_eq!(u.len(), 10);
    }

    #[test]
    fn difference_saturates_at_zero() {
        let a = bag(&[(1, 2), (2, 5)]);
        let b = bag(&[(1, 7), (2, 2)]);
        let d = a.difference(&b);
        assert_eq!(d.multiplicity(&1), 0);
        assert_eq!(d.multiplicity(&2), 3);
        assert_eq!(d.len(), 3);
        assert!(!d.contains(&1)); // zero-multiplicity pairs never stored
    }

    #[test]
    fn intersection_takes_minimum() {
        let a = bag(&[(1, 2), (2, 5), (3, 1)]);
        let b = bag(&[(1, 7), (2, 2)]);
        let i = a.intersection(&b);
        assert_eq!(i.multiplicity(&1), 2);
        assert_eq!(i.multiplicity(&2), 2);
        assert_eq!(i.multiplicity(&3), 0);
        // symmetric regardless of which support is iterated
        assert_eq!(i, b.intersection(&a));
    }

    #[test]
    fn distinct_caps_at_one() {
        let a = bag(&[(1, 5), (2, 1)]);
        let d = a.distinct();
        assert_eq!(d.multiplicity(&1), 1);
        assert_eq!(d.multiplicity(&2), 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn submultiset_is_pointwise_leq() {
        let a = bag(&[(1, 2)]);
        let b = bag(&[(1, 3), (2, 1)]);
        assert!(a.is_submultiset(&b));
        assert!(!b.is_submultiset(&a));
        assert!(Bag::<i32>::new().is_submultiset(&a));
        assert!(a.is_submultiset(&a));
    }

    #[test]
    fn equality_is_pointwise() {
        assert_eq!(bag(&[(1, 2), (2, 1)]), bag(&[(2, 1), (1, 2)]));
        assert_ne!(bag(&[(1, 2)]), bag(&[(1, 3)]));
        assert_ne!(bag(&[(1, 1)]), bag(&[(2, 1)]));
    }

    #[test]
    fn map_sums_collapsing_multiplicities() {
        // project 1 and 2 onto the same image
        let a = bag(&[(1, 2), (2, 3), (10, 1)]);
        let p = a.map(|&x| Ok(x % 2)).unwrap();
        assert_eq!(p.multiplicity(&1), 2); // from 1
        assert_eq!(p.multiplicity(&0), 4); // from 2 and 10
        assert_eq!(p.len(), a.len());
    }

    #[test]
    fn filter_preserves_multiplicities() {
        let a = bag(&[(1, 2), (2, 3)]);
        let f = a.filter(|&x| Ok(x > 1)).unwrap();
        assert_eq!(f.multiplicity(&2), 3);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn filter_propagates_errors() {
        let a = bag(&[(1, 1)]);
        let r = a.filter(|_| Err(CoreError::DivisionByZero));
        assert_eq!(r.unwrap_err(), CoreError::DivisionByZero);
    }

    #[test]
    fn product_multiplies_multiplicities() {
        let a = bag(&[(1, 2), (2, 1)]);
        let b = bag(&[(10, 3)]);
        let p = a.product(&b, |&x, &y| (x, y)).unwrap();
        assert_eq!(p.multiplicity(&(1, 10)), 6);
        assert_eq!(p.multiplicity(&(2, 10)), 3);
        assert_eq!(p.len(), a.len() * b.len());
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = bag(&[(1, 2)]);
        let e: Bag<i32> = Bag::new();
        assert!(a.product(&e, |&x, &y| (x, y)).unwrap().is_empty());
        assert!(e.product(&a, |&x, &y| (x, y)).unwrap().is_empty());
    }

    #[test]
    fn iter_expanded_repeats_elements() {
        let a = bag(&[(1, 3), (2, 1)]);
        let mut v: Vec<i32> = a.iter_expanded().copied().collect();
        v.sort_unstable();
        assert_eq!(v, [1, 1, 1, 2]);
    }

    #[test]
    fn from_iter_of_duplicates() {
        let b: Bag<i32> = [1, 1, 2, 1].into_iter().collect();
        assert_eq!(b.multiplicity(&1), 3);
        assert_eq!(b.multiplicity(&2), 1);
    }

    #[test]
    fn multiplicity_overflow_detected() {
        let mut b = Bag::new();
        b.insert(1u8, u64::MAX).unwrap();
        assert!(matches!(b.insert(1u8, 1), Err(CoreError::Overflow(_))));
    }

    // ---- the ℤ instance: signed deltas ----

    fn sbag(xs: &[(i32, i64)]) -> SignedBag<i32> {
        xs.iter().copied().collect()
    }

    /// `delta` applied to a copy of `base`.
    fn applied(delta: &SignedBag<i32>, base: &Bag<i32>) -> CoreResult<Bag<i32>> {
        let mut out = base.clone();
        delta.apply_to(&mut out)?;
        Ok(out)
    }

    #[test]
    fn zero_multiplicity_is_never_stored() {
        let mut d = SignedBag::new();
        d.insert(1, 0).unwrap();
        assert!(d.is_empty());
        d.insert(1, 3).unwrap();
        d.insert(1, -3).unwrap(); // cancels back to zero
        assert!(d.is_empty());
        assert_eq!(d.distinct_len(), 0);
        assert_eq!(d.multiplicity(&1), 0);
    }

    #[test]
    fn canonical_form_makes_equality_pointwise() {
        let a = sbag(&[(1, 2), (2, -1), (3, 5), (3, -5)]);
        let b = sbag(&[(2, -1), (1, 2)]);
        assert_eq!(a, b);
        assert_ne!(a, sbag(&[(1, 2)]));
    }

    #[test]
    fn merge_sums_and_cancels() {
        let mut a = sbag(&[(1, 2), (2, -1)]);
        a.absorb(sbag(&[(1, -2), (3, 4)])).unwrap();
        assert_eq!(a, sbag(&[(2, -1), (3, 4)]));
    }

    #[test]
    fn negate_flips_signs() {
        let mut a = sbag(&[(1, 2), (2, -3)]);
        a.negate();
        assert_eq!(a, sbag(&[(1, -2), (2, 3)]));
    }

    #[test]
    fn from_diff_round_trips_through_apply() {
        let old = bag(&[(1, 3), (2, 1), (4, 2)]);
        let new = bag(&[(1, 1), (3, 2), (4, 2)]);
        let d = SignedBag::from_diff(&old, &new).unwrap();
        // unchanged elements never appear in the delta
        assert_eq!(d.multiplicity(&4), 0);
        assert_eq!(applied(&d, &old).unwrap(), new);
        let mut back = d;
        back.negate();
        assert_eq!(applied(&back, &new).unwrap(), old);
    }

    #[test]
    fn apply_rejects_negative_result() {
        let d = sbag(&[(1, -2)]);
        let base = bag(&[(1, 1)]);
        assert_eq!(
            applied(&d, &base).unwrap_err(),
            CoreError::NegativeMultiplicity("delta application")
        );
    }

    /// An ℕ result enters signed form as the diff against the empty bag,
    /// with the sign picked by the argument order.
    #[test]
    fn insert_unsigned_bridges_engine_results() {
        let mut d = SignedBag::from_diff(&Bag::new(), &bag(&[(1, 2)])).unwrap();
        d.absorb(SignedBag::from_diff(&bag(&[(1, 5)]), &Bag::new()).unwrap())
            .unwrap();
        assert_eq!(d, sbag(&[(1, -3)]));
    }

    #[test]
    fn overflow_is_detected() {
        let mut d = SignedBag::new();
        d.insert(1, i64::MAX).unwrap();
        assert!(matches!(d.insert(1, 1), Err(CoreError::Overflow(_))));
        let mut big = Bag::new();
        big.insert(1, u64::MAX).unwrap();
        assert!(matches!(
            SignedBag::from_diff(&big, &Bag::new()),
            Err(CoreError::Overflow(_))
        ));
        // ℤ caches no total, so no sum of entries can fail a delta
        let mut wide = SignedBag::new();
        wide.insert(1, i64::MAX).unwrap();
        wide.insert(2, i64::MAX).unwrap();
        wide.insert(3, -i64::MAX).unwrap();
        assert_eq!(wide.distinct_len(), 3);
    }
}
