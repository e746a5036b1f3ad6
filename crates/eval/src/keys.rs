//! Declared key constraints, enforced through unique indexes.
//!
//! A **key** over the bag model is stronger than over sets: `K` is a key
//! of `r` iff the bag projection `π_K(r)` carries every point with
//! multiplicity at most one — so a keyed relation is necessarily
//! duplicate-free. Declarations are the ground facts of the analyzer's
//! plan-property inference (`mera-analyze`'s `KeyEnv`); this module owns
//! their runtime side. A [`HashIndex`](crate::HashIndex) on `K` already
//! holds `π_K(r)`: one bucket per key point, with the tuples at that
//! point. So a declared key is a unique index — [`KeySet::declare`] makes
//! sure the index exists, and [`KeySet::check`] admits or rejects a commit
//! by mapping only its signed delta through the key projection and
//! reading the buckets it touches: O(|Δ|), never O(|r|).
//!
//! Enforcement is two-phase: [`KeySet::check`] is pure and runs for every
//! relation's delta *before* anything is applied, so a violating
//! transaction aborts without any undo; the commit then folds the
//! admitted deltas into the indexes like every other. Only the
//! declarations are durable (a WAL `DeclareKey` record); when recovery
//! replays one, [`KeySet::declare`] re-validates the recovered relation
//! and finds or rebuilds its index, exactly like index entries.

use std::collections::BTreeSet;

use mera_core::prelude::*;
use rustc_hash::FxHashMap;

use crate::index::{key_at, IndexSet};

/// A commit (or declaration) that would leave some key point with a
/// summed multiplicity above one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyViolation {
    /// The constrained relation.
    pub relation: String,
    /// The declared key attributes (1-based, sorted).
    pub attrs: Vec<usize>,
    /// The violating key-projection point, in sorted-attribute order.
    pub key: Tuple,
    /// The summed multiplicity that point would carry.
    pub multiplicity: u64,
}

impl std::fmt::Display for KeyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let attrs: Vec<String> = self.attrs.iter().map(|a| format!("%{a}")).collect();
        write!(
            f,
            "key {}({}) violated: {} would occur with multiplicity {}",
            self.relation,
            attrs.join(","),
            self.key,
            self.multiplicity
        )
    }
}

/// The signed per-key-point net of some rows: the rows mapped through the
/// projection on `attrs`, with checked sums — a scratch table, read once
/// by [`violation`]. `Err` is the key point whose net overflowed ℤ.
fn net<'a>(
    attrs: &[usize],
    rows: impl Iterator<Item = (&'a Tuple, i64)>,
) -> Result<FxHashMap<Tuple, i64>, Tuple> {
    let mut net: FxHashMap<Tuple, i64> = FxHashMap::default();
    for (t, m) in rows {
        let key = key_at(attrs, t);
        let n = net.entry(key.clone()).or_insert(0);
        *n = n.checked_add(m).ok_or(key)?;
    }
    Ok(net)
}

/// The smallest key point at which `rows`, added to the `prior` count of
/// each point, would carry a summed multiplicity above one, with that
/// multiplicity. Points are projected on `attrs` in the given order (the
/// order `prior` is keyed in) and reported in sorted-attribute order —
/// smallest there, so that validation failures are deterministic.
fn violation<'a>(
    attrs: &[usize],
    rows: impl Iterator<Item = (&'a Tuple, i64)>,
    prior: impl Fn(&Tuple) -> u64,
) -> Option<(Tuple, u64)> {
    // a net beyond ℤ's range is beyond one: a violation, saturated
    let net = match net(attrs, rows) {
        Ok(net) => net,
        Err(key) => return Some((sorted_point(attrs, &key), u64::MAX)),
    };
    let mut worst: Option<(Tuple, u64)> = None;
    for (key, n) in net {
        if n <= 0 {
            continue;
        }
        let total = prior(&key).saturating_add(n.unsigned_abs());
        if total > 1 {
            let key = sorted_point(attrs, &key);
            if worst.as_ref().is_none_or(|w| key < w.0) {
                worst = Some((key, total));
            }
        }
    }
    worst
}

/// A key point projected on `attrs`, reordered by ascending attribute.
fn sorted_point(attrs: &[usize], key: &Tuple) -> Tuple {
    let mut at: Vec<(usize, &Value)> = attrs.iter().copied().zip(key.values()).collect();
    at.sort_unstable_by_key(|&(a, _)| a);
    at.into_iter().map(|(_, v)| v.clone()).collect()
}

/// All declared keys. Each is enforced through the index on its
/// attributes in the [`IndexSet`] it was declared with.
#[derive(Debug, Clone, Default)]
pub struct KeySet {
    // (relation name, sorted key attrs)
    keys: BTreeSet<(String, Vec<usize>)>,
}

impl KeySet {
    /// No declared keys.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of declared keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no key is declared.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// True when exactly this key is already declared.
    pub fn is_declared(&self, relation: &str, attrs: &[usize]) -> bool {
        let mut sorted = attrs.to_vec();
        sorted.sort_unstable();
        self.keys.contains(&(relation.to_owned(), sorted))
    }

    /// Declares `relation(attrs)` as a key, validating the *existing*
    /// data with the check a commit uses — the whole relation as a delta,
    /// against no prior counts — and creating the index on `attrs` in
    /// `indexes` unless one is there. `Ok(Err(violation))` when the
    /// current relation already has a key point with multiplicity above
    /// one (the declaration is refused, and neither key nor index is
    /// registered), `Err` on structural problems (unknown relation,
    /// out-of-range or duplicate attributes).
    pub fn declare(
        &mut self,
        db: &Database,
        indexes: &mut IndexSet,
        relation: &str,
        attrs: &[usize],
    ) -> CoreResult<Result<(), KeyViolation>> {
        let rel = db.relation(relation)?;
        AttrList::new_unique(attrs.to_vec())?.check_arity(rel.schema().arity())?;
        let mut sorted = attrs.to_vec();
        sorted.sort_unstable();
        // a multiplicity beyond ℤ's range is beyond one
        let rows = rel
            .iter()
            .map(|(t, m)| (t, i64::try_from(m).unwrap_or(i64::MAX)));
        if let Some((key, multiplicity)) = violation(&sorted, rows, |_| 0) {
            return Ok(Err(KeyViolation {
                relation: relation.to_owned(),
                attrs: sorted,
                key,
                multiplicity,
            }));
        }
        indexes.create(db, relation, &sorted)?;
        self.keys.insert((relation.to_owned(), sorted));
        Ok(Ok(()))
    }

    /// Pure admission check of one relation's signed commit delta against
    /// every key declared on it, reading each touched key point's count
    /// from the key's index in `indexes`. Call for **all** deltas of a
    /// transaction before applying any: a violating commit then aborts
    /// with nothing to undo.
    ///
    /// # Panics
    ///
    /// When `indexes` lacks the index of a declared key — it is not the
    /// set the keys were declared with.
    pub fn check(
        &self,
        indexes: &IndexSet,
        relation: &str,
        delta: &SignedBag<Tuple>,
    ) -> Result<(), KeyViolation> {
        if delta.is_empty() {
            return Ok(());
        }
        for (r, attrs) in self.keys.iter().filter(|(r, _)| r == relation) {
            let index = indexes
                .find(r, attrs)
                .expect("a declared key keeps the index it was declared with");
            let prior = |key: &Tuple| {
                index
                    .matches(key)
                    .iter()
                    .fold(0_u64, |n, (_, m)| n.saturating_add(*m))
            };
            if let Some((key, multiplicity)) = violation(index.key_attrs(), delta.iter(), prior) {
                return Err(KeyViolation {
                    relation: r.clone(),
                    attrs: attrs.clone(),
                    key,
                    multiplicity,
                });
            }
        }
        Ok(())
    }

    /// Every declared key as `(relation, sorted attrs)`, sorted — the
    /// durable catalog definition (what a `DeclareKey` WAL record
    /// carries), and the ground facts handed to the analyzer's `KeyEnv`.
    pub fn definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.keys.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn db() -> Database {
        let schema = Schema::anon(&[DataType::Int, DataType::Str]);
        let mut db = Database::new(DatabaseSchema::new().with("r", schema).expect("fresh"));
        let mut bag = db.relation("r").expect("declared").clone();
        for (id, name) in [(1_i64, "a"), (2, "b"), (3, "c")] {
            bag.insert(tuple![id, name], 1).expect("typed");
        }
        db.replace("r", bag).expect("declared");
        db
    }

    fn delta(entries: &[(i64, &str, i64)]) -> SignedBag<Tuple> {
        let mut d = SignedBag::new();
        for (id, name, m) in entries {
            d.insert(tuple![*id, *name], *m).expect("no overflow");
        }
        d
    }

    /// `key r (%1)` over [`db`], with the index it brings.
    fn keyed() -> (KeySet, IndexSet) {
        let (mut ks, mut ix) = (KeySet::new(), IndexSet::new());
        ks.declare(&db(), &mut ix, "r", &[1])
            .expect("ok")
            .expect("valid");
        (ks, ix)
    }

    #[test]
    fn declare_validates_existing_data() {
        let (mut ks, mut ix) = (KeySet::new(), IndexSet::new());
        let db = db();
        assert!(ks
            .declare(&db, &mut ix, "r", &[1])
            .expect("structurally ok")
            .is_ok());
        assert!(ks.is_declared("r", &[1]));
        assert_eq!(ks.definitions(), vec![("r".to_owned(), vec![1])]);
        // the key brought its index
        assert_eq!(ix.definitions(), vec![("r".to_owned(), vec![1])]);

        // the str column holds distinct values too, but a dup breaks it
        let mut db2 = db.clone();
        let mut grown = db2.relation("r").expect("declared").clone();
        grown.insert(tuple![4_i64, "a"], 1).expect("typed");
        db2.replace("r", grown).expect("declared");
        let violation = ks
            .declare(&db2, &mut ix, "r", &[2])
            .expect("structurally ok")
            .expect_err("duplicate key point");
        assert_eq!(violation.key, tuple!["a"]);
        assert_eq!(violation.multiplicity, 2);
        assert!(!ks.is_declared("r", &[2]));
        // a refused key brings no index
        assert!(ix.find("r", &[2]).is_none());
    }

    #[test]
    fn declare_rejects_bad_attrs() {
        let (mut ks, mut ix) = (KeySet::new(), IndexSet::new());
        let db = db();
        assert!(ks.declare(&db, &mut ix, "r", &[3]).is_err(), "out of range");
        assert!(
            ks.declare(&db, &mut ix, "r", &[1, 1]).is_err(),
            "duplicate attr"
        );
        assert!(
            ks.declare(&db, &mut ix, "nosuch", &[1]).is_err(),
            "unknown relation"
        );
        assert!(ks.is_empty() && ix.is_empty());
    }

    #[test]
    fn check_admits_and_rejects_deltas() {
        let (ks, ix) = keyed();

        // fresh key point: fine
        assert!(ks.check(&ix, "r", &delta(&[(4, "d", 1)])).is_ok());
        // existing key point: violation, with the point in the report
        let v = ks
            .check(&ix, "r", &delta(&[(2, "x", 1)]))
            .expect_err("dup id");
        assert_eq!(v.multiplicity, 2);
        assert_eq!(v.attrs, vec![1]);
        // delete+insert of the same key point in one delta: fine
        assert!(ks
            .check(&ix, "r", &delta(&[(2, "b", -1), (2, "x", 1)]))
            .is_ok());
        // two inserts of one fresh key point in one delta: violation
        let v = ks
            .check(&ix, "r", &delta(&[(9, "x", 1), (9, "y", 1)]))
            .expect_err("internal dup");
        assert_eq!(v.multiplicity, 2);
        // unconstrained relation: nothing to check
        assert!(ks.check(&ix, "s", &delta(&[(2, "x", 1)])).is_ok());
    }

    #[test]
    fn apply_commit_tracks_counts_incrementally() {
        let (ks, mut ix) = keyed();

        let d = delta(&[(3, "c", -1), (4, "d", 1)]);
        assert!(ks.check(&ix, "r", &d).is_ok());
        ix.apply_commit("r", &d).expect("admitted");
        // id 3 is free again, id 4 is now taken
        assert!(ks.check(&ix, "r", &delta(&[(3, "z", 1)])).is_ok());
        assert!(ks.check(&ix, "r", &delta(&[(4, "z", 1)])).is_err());
    }

    /// A key over an index built in another attribute order reads that
    /// index, and reports its key point in sorted-attribute order.
    #[test]
    fn a_reordered_index_reports_sorted_points() {
        let db = db();
        let (mut ks, mut ix) = (KeySet::new(), IndexSet::new());
        ix.create(&db, "r", &[2, 1]).expect("indexes");
        ks.declare(&db, &mut ix, "r", &[1, 2])
            .expect("ok")
            .expect("valid");
        assert_eq!(ix.len(), 1);
        let v = ks
            .check(&ix, "r", &delta(&[(2, "b", 1)]))
            .expect_err("dup point");
        assert_eq!(v.key, tuple![2_i64, "b"]);
        assert_eq!(v.multiplicity, 2);
    }

    /// Two delta tuples at one key point, each at `i64::MAX`: the net
    /// overflows ℤ, and the check reports a violation instead of wrapping
    /// to an admissible count.
    #[test]
    fn overflowing_net_is_a_violation() {
        let (ks, ix) = keyed();
        let d = delta(&[(9, "x", i64::MAX), (9, "y", i64::MAX)]);
        let v = ks.check(&ix, "r", &d).expect_err("overflowing net");
        assert_eq!(v.key, tuple![9_i64]);
        assert_eq!(v.multiplicity, u64::MAX);
    }

    #[test]
    fn violation_renders_for_diagnostics() {
        let (ks, ix) = keyed();
        let v = ks.check(&ix, "r", &delta(&[(2, "x", 1)])).expect_err("dup");
        let msg = v.to_string();
        assert!(msg.contains("key r(%1) violated"), "{msg}");
        assert!(msg.contains("multiplicity 2"), "{msg}");
    }
}
