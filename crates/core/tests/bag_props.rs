//! Property-based tests of the multiplicity laws (Definitions 2.3, 3.1–3.2).
//!
//! These check the bag layer directly against the pointwise arithmetic the
//! paper defines, over arbitrary small bags of small integers — the regime
//! where collisions (shared elements) are frequent. Each law runs in both
//! naturally ordered semirings, ℕ (`u64`) and 𝔹 (`bool`); the 𝔹 bags are
//! the ℕ ones lifted, which reaches every set over the universe. The ℤ
//! (`i64`) laws of signed deltas follow, and the last section pins where
//! ℕ and 𝔹 part (Angles & Gutierrez): δ over −, ∩ against the all-attribute
//! join, and δ over ⊎.

use mera_core::multiset::{Bag, KBag, NaturallyOrdered, Semiring, SignedBag};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

type Law = Result<(), TestCaseError>;

/// Strategy: bags over a tiny universe (0..8) so elements collide often.
fn small_bag() -> impl Strategy<Value = Bag<u8>> {
    proptest::collection::vec((0u8..8, 1u64..6), 0..10)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// The full universe the strategy draws from; laws are checked pointwise
/// over every element, including absent ones (multiplicity 0).
const UNIVERSE: std::ops::Range<u8> = 0..8;

/// The 𝔹 image of an ℕ bag: its support.
fn set(b: &Bag<u8>) -> KBag<u8, bool> {
    b.lift().unwrap()
}

/// A law over small bags, checked on ℕ bags and on their 𝔹 images: the
/// body is generic over the semiring `S`, and the optional `in_n` block
/// adds ℕ-only assertions over the same bags.
macro_rules! law {
    ($(#[$m:meta])* fn $name:ident($($b:ident),+) $body:block $(in_n $nat:block)?) => {
        proptest! {
            $(#[$m])*
            #[test]
            fn $name($($b in small_bag()),+) {
                fn law<S: NaturallyOrdered>($($b: &KBag<u8, S>),+) -> Law {
                    $body
                    Ok(())
                }
                law($(&$b),+)?;
                law($(&set(&$b)),+)?;
                $($nat)?
            }
        }
    };
}

law! {
    fn union_is_pointwise_addition(a, b) {
        let u = a.union(b).unwrap();
        for x in UNIVERSE {
            let sum = a.multiplicity(&x).plus(b.multiplicity(&x)).unwrap();
            prop_assert_eq!(u.multiplicity(&x), sum);
        }
    } in_n {
        prop_assert_eq!(a.union(&b).unwrap().len(), a.len() + b.len());
    }
}

law! {
    fn union_commutes_and_associates(a, b, c) {
        prop_assert_eq!(a.union(b).unwrap(), b.union(a).unwrap());
        let left = a.union(b).unwrap().union(c).unwrap();
        let right = a.union(&b.union(c).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }
}

law! {
    fn difference_is_pointwise_saturating(a, b) {
        let d = a.difference(b);
        for x in UNIVERSE {
            prop_assert_eq!(d.multiplicity(&x), a.multiplicity(&x).monus(b.multiplicity(&x)));
        }
    }
}

law! {
    fn intersection_is_pointwise_min(a, b) {
        let i = a.intersection(b);
        for x in UNIVERSE {
            prop_assert_eq!(i.multiplicity(&x), a.multiplicity(&x).min(b.multiplicity(&x)));
        }
        prop_assert_eq!(a.intersection(b), b.intersection(a));
    }
}

law! {
    /// Theorem 3.1 at the bag level: E₁ ∩ E₂ = E₁ − (E₁ − E₂).
    fn intersection_desugars_to_double_difference(a, b) {
        prop_assert_eq!(a.intersection(b), a.difference(&a.difference(b)));
    }
}

law! {
    fn distinct_is_idempotent_and_caps(a) {
        let d = a.distinct();
        for x in UNIVERSE {
            prop_assert_eq!(d.multiplicity(&x), a.multiplicity(&x).min(S::ONE));
        }
        prop_assert_eq!(&d.distinct(), &d);
        prop_assert_eq!(d.len() as usize, a.distinct_len());
    }
}

law! {
    /// The paper's §3.3 note: δ distributes over ⊎ only in the weaker form
    /// δ(E₁ ⊎ E₂) = δ(δE₁ ⊎ δE₂).
    fn distinct_union_weak_distribution(a, b) {
        let lhs = a.union(b).unwrap().distinct();
        let rhs = a.distinct().union(&b.distinct()).unwrap().distinct();
        prop_assert_eq!(lhs, rhs);
    }
}

law! {
    fn submultiset_is_a_partial_order(a, b, c) {
        // reflexive
        prop_assert!(a.is_submultiset(a));
        // antisymmetric
        if a.is_submultiset(b) && b.is_submultiset(a) {
            prop_assert_eq!(a, b);
        }
        // transitive
        if a.is_submultiset(b) && b.is_submultiset(c) {
            prop_assert!(a.is_submultiset(c));
        }
    }
}

law! {
    fn difference_then_union_bounds(a, b) {
        // (a − b) ⊑ a, and a ⊑ (a − b) ⊎ b
        let d = a.difference(b);
        prop_assert!(d.is_submultiset(a));
        let rejoined = d.union(b).unwrap();
        prop_assert!(a.is_submultiset(&rejoined));
    }
}

law! {
    fn intersection_bounds(a, b) {
        let i = a.intersection(b);
        prop_assert!(i.is_submultiset(a));
        prop_assert!(i.is_submultiset(b));
    }
}

law! {
    fn product_cardinality_multiplies(a, b) {
        let p = a.product(b, |&x, &y| (x, y)).unwrap();
        prop_assert_eq!(p.len(), a.len() * b.len());
        for x in UNIVERSE {
            for y in UNIVERSE {
                let m = a.multiplicity(&x).times(b.multiplicity(&y)).unwrap();
                prop_assert_eq!(p.multiplicity(&(x, y)), m);
            }
        }
    }
}

law! {
    /// π's law: an image's multiplicity sums its preimages'.
    fn map_preserves_cardinality(a) {
        let m = a.map(|&x| Ok(x / 2)).unwrap();
        for y in UNIVERSE {
            let pre = UNIVERSE.filter(|x| x / 2 == y);
            let sum = pre.fold(S::ZERO, |s, x| s.plus(a.multiplicity(&x)).unwrap());
            prop_assert_eq!(m.multiplicity(&y), sum);
        }
    } in_n {
        prop_assert_eq!(a.map(|&x| Ok(x / 2)).unwrap().len(), a.len());
    }
}

law! {
    fn filter_partitions_cardinality(a) {
        let yes = a.filter(|&x| Ok(x % 2 == 0)).unwrap();
        let no = a.filter(|&x| Ok(x % 2 != 0)).unwrap();
        prop_assert_eq!(yes.len() + no.len(), a.len());
        prop_assert_eq!(&yes.union(&no).unwrap(), a);
    }
}

law! {
    fn expanded_iteration_matches_len(a) {
        prop_assert_eq!(a.iter_expanded().count() as u64, a.len());
        let rebuilt: KBag<u8, S> = a.iter_expanded().copied().collect();
        prop_assert_eq!(&rebuilt, a);
    }
}

proptest! {
    // ---- ℤ: signed deltas ----

    /// The delta between two ℕ bags carries the old one to the new one.
    #[test]
    fn diff_applied_to_old_is_new(old in small_bag(), new in small_bag()) {
        let d = SignedBag::from_diff(&old, &new).unwrap();
        let mut out = old.clone();
        d.apply_to(&mut out).unwrap();
        prop_assert_eq!(&out, &new);
        // and its negation carries the new one back
        let mut back = d;
        back.negate();
        let mut out = new.clone();
        back.apply_to(&mut out).unwrap();
        prop_assert_eq!(out, old);
    }

    #[test]
    fn negate_is_an_involution(old in small_bag(), new in small_bag()) {
        let d = SignedBag::from_diff(&old, &new).unwrap();
        let mut twice = d.clone();
        twice.negate();
        twice.negate();
        prop_assert_eq!(twice, d);
    }

    // ---- where ℕ and 𝔹 part: the 𝔹 side holds for every pair ----

    #[test]
    fn distinct_commutes_with_difference_in_b(a in small_bag(), b in small_bag()) {
        let (a, b) = (set(&a), set(&b));
        prop_assert_eq!(a.difference(&b).distinct(), a.distinct().difference(&b.distinct()));
    }

    #[test]
    fn intersection_is_the_full_join_in_b(a in small_bag(), b in small_bag()) {
        let (a, b) = (set(&a), set(&b));
        prop_assert_eq!(a.intersection(&b), full_join(&a, &b));
    }

    #[test]
    fn distinct_of_self_union_is_identity_in_b(a in small_bag()) {
        let a = set(&a);
        let doubled = a.union(&a).unwrap();
        prop_assert_eq!(doubled.distinct(), doubled);
    }
}

/// `π_{attrs of a}(a ⋈_{all attributes equal} b)`: the join on every
/// attribute, projected back onto one side.
fn full_join<S: Semiring>(a: &KBag<u8, S>, b: &KBag<u8, S>) -> KBag<u8, S> {
    a.product(b, |&x, &y| (x, y))
        .unwrap()
        .filter(|(x, y)| Ok(x == y))
        .unwrap()
        .map(|&(x, _)| Ok(x))
        .unwrap()
}

fn nat(pairs: &[(u8, u64)]) -> Bag<u8> {
    pairs.iter().copied().collect()
}

/// δ(a − b) ≠ δa − δb in ℕ: `a` holds one more copy of 1 than `b`, so
/// the difference keeps it while the deduplicated sides cancel.
#[test]
fn distinct_does_not_commute_with_difference_in_n() {
    let (a, b) = (nat(&[(1, 2)]), nat(&[(1, 1)]));
    assert_eq!(a.difference(&b).distinct(), nat(&[(1, 1)]));
    assert!(a.distinct().difference(&b.distinct()).is_empty());
}

/// a ∩ b ≠ π(a ⋈_{all attrs} b) in ℕ: ∩ takes the minimum, the join
/// multiplies.
#[test]
fn intersection_is_not_the_full_join_in_n() {
    let (a, b) = (nat(&[(1, 2)]), nat(&[(1, 3)]));
    assert_eq!(a.intersection(&b), nat(&[(1, 2)]));
    assert_eq!(full_join(&a, &b), nat(&[(1, 6)]));
}

/// δ(a ⊎ a) ≠ a ⊎ a in ℕ for any non-empty `a`.
#[test]
fn distinct_of_self_union_is_not_identity_in_n() {
    let a = nat(&[(1, 1)]);
    let doubled = a.union(&a).unwrap();
    assert_eq!(doubled.distinct(), a);
    assert_ne!(doubled.distinct(), doubled);
}
