//! Declared key constraints and their O(|Δ|) enforcement.
//!
//! A **key** over the bag model is stronger than over sets: `K` is a key
//! of `r` iff every point of the `K`-projection carries a summed
//! multiplicity of at most one — so a keyed relation is necessarily
//! duplicate-free. Declarations are the ground facts of the analyzer's
//! plan-property inference (`mera-analyze`'s `KeyEnv`); this module owns
//! their runtime side: a [`KeySet`] keeps, per declared key, the count of
//! tuples at each key point, so a commit is admitted or rejected by
//! folding only its signed delta — O(|Δ|), never O(|r|): the counts are
//! a [`Bag`] of key points, and the delta's rows, mapped through the key
//! projection, fold into it one by one.
//!
//! Enforcement is two-phase: [`KeySet::check`] is pure and runs for every
//! relation's delta *before* anything is applied, so a violating
//! transaction aborts without any undo; [`KeySet::apply_commit`] then
//! folds the admitted deltas in. Only the declarations are durable (a WAL
//! `DeclareKey` record); [`KeySet::declare`] builds the counts when
//! recovery replays `DeclareKey`, exactly like index entries.

use std::collections::BTreeMap;

use mera_core::prelude::*;
use rustc_hash::FxHashMap;

/// A commit (or declaration) that would leave some key point with a
/// summed multiplicity above one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyViolation {
    /// The constrained relation.
    pub relation: String,
    /// The declared key attributes (1-based, sorted).
    pub attrs: Vec<usize>,
    /// The violating key-projection point.
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

/// The per-key count state: the bag of key points, each counted with the
/// summed multiplicity of its tuples. The key holds iff every count is 1.
#[derive(Debug, Clone)]
struct KeyCounts {
    resolved: ResolvedAttrs,
    counts: Bag<Tuple>,
}

impl KeyCounts {
    fn build(rel: &Relation, attrs: &[usize]) -> CoreResult<Self> {
        let list = AttrList::new_unique(attrs.to_vec())?;
        list.check_arity(rel.schema().arity())?;
        let resolved = ResolvedAttrs::from_attr_list(&list, rel.schema().arity())?;
        let counts = rel.bag().map(|t| Ok(resolved.project(t)))?;
        Ok(KeyCounts { resolved, counts })
    }

    /// The smallest key point with a count above one, if any — smallest
    /// so that validation failures are deterministic.
    fn worst(&self) -> Option<(&Tuple, u64)> {
        self.counts
            .iter()
            .filter(|&(_, m)| m > 1)
            .min_by_key(|&(k, _)| k)
    }

    /// The signed per-key-point net of a delta: the delta mapped through
    /// the key projection, with checked sums — a scratch table, read once
    /// by [`KeyCounts::check`]. `Err` is the key point whose net
    /// overflowed ℤ.
    fn net(&self, delta: &SignedBag<Tuple>) -> Result<FxHashMap<Tuple, i64>, Tuple> {
        let mut net: FxHashMap<Tuple, i64> = FxHashMap::default();
        for (t, m) in delta.iter() {
            let key = self.resolved.project(t);
            let n = net.entry(key.clone()).or_insert(0);
            *n = n.checked_add(m).ok_or(key)?;
        }
        Ok(net)
    }

    fn check(&self, delta: &SignedBag<Tuple>) -> Result<(), (Tuple, u64)> {
        // a net beyond ℤ's range is beyond one: a violation, saturated
        let net = self.net(delta).map_err(|key| (key, u64::MAX))?;
        let mut worst: Option<(Tuple, u64)> = None;
        for (key, &n) in &net {
            if n <= 0 {
                continue;
            }
            let total = self
                .counts
                .multiplicity(key)
                .saturating_add(n.unsigned_abs());
            // deterministic report: the smallest violating key point
            if total > 1 && worst.as_ref().is_none_or(|w| *key < w.0) {
                worst = Some((key.clone(), total));
            }
        }
        worst.map_or(Ok(()), Err)
    }
}

/// All declared keys, with their live enforcement counts.
#[derive(Debug, Clone, Default)]
pub struct KeySet {
    // (relation name, sorted key attrs) → counts
    keys: BTreeMap<(String, Vec<usize>), KeyCounts>,
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
        self.keys.contains_key(&(relation.to_owned(), sorted))
    }

    /// Declares `relation(attrs)` as a key, validating the *existing*
    /// data: `Ok(Err(violation))` when the current relation already has a
    /// key point with multiplicity above one (the declaration is refused
    /// and not registered), `Err` on structural problems (unknown
    /// relation, out-of-range or duplicate attributes).
    pub fn declare(
        &mut self,
        db: &Database,
        relation: &str,
        attrs: &[usize],
    ) -> CoreResult<Result<(), KeyViolation>> {
        let rel = db.relation(relation)?;
        let counts = KeyCounts::build(rel, attrs)?;
        let mut sorted = attrs.to_vec();
        sorted.sort_unstable();
        if let Some((key, multiplicity)) = counts.worst() {
            return Ok(Err(KeyViolation {
                relation: relation.to_owned(),
                attrs: sorted,
                key: key.clone(),
                multiplicity,
            }));
        }
        self.keys.insert((relation.to_owned(), sorted), counts);
        Ok(Ok(()))
    }

    /// Pure admission check of one relation's signed commit delta against
    /// every key declared on it. Call for **all** deltas of a transaction
    /// before applying any ([`Self::apply_commit`]): a violating commit
    /// then aborts with nothing to undo.
    pub fn check(&self, relation: &str, delta: &SignedBag<Tuple>) -> Result<(), KeyViolation> {
        if delta.is_empty() {
            return Ok(());
        }
        let declared = self.keys.iter().filter(|((r, _), _)| r == relation);
        for ((r, attrs), counts) in declared {
            if let Err((key, multiplicity)) = counts.check(delta) {
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

    /// Folds one admitted commit delta for `relation` into the counts of
    /// every key declared on it — O(|Δ|). Fails only if a retraction
    /// outruns the counts, which an admitted delta of the same relation
    /// cannot do.
    pub fn apply_commit(&mut self, relation: &str, delta: &SignedBag<Tuple>) -> CoreResult<()> {
        for ((r, _), counts) in self.keys.iter_mut() {
            if r == relation {
                let resolved = &counts.resolved;
                let points = delta.iter().map(|(t, m)| (resolved.project(t), m));
                counts.counts.apply_signed(points)?;
            }
        }
        Ok(())
    }

    /// Every declared key as `(relation, sorted attrs)`, sorted — the
    /// durable catalog definition (what a `DeclareKey` WAL record
    /// carries), and the ground facts handed to the analyzer's `KeyEnv`.
    pub fn definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.keys.keys().cloned().collect()
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

    #[test]
    fn declare_validates_existing_data() {
        let mut ks = KeySet::new();
        let db = db();
        assert!(ks.declare(&db, "r", &[1]).expect("structurally ok").is_ok());
        assert!(ks.is_declared("r", &[1]));
        assert_eq!(ks.definitions(), vec![("r".to_owned(), vec![1])]);

        // the str column holds distinct values too, but a dup breaks it
        let mut db2 = db.clone();
        let mut grown = db2.relation("r").expect("declared").clone();
        grown.insert(tuple![4_i64, "a"], 1).expect("typed");
        db2.replace("r", grown).expect("declared");
        let violation = ks
            .declare(&db2, "r", &[2])
            .expect("structurally ok")
            .expect_err("duplicate key point");
        assert_eq!(violation.multiplicity, 2);
        assert!(!ks.is_declared("r", &[2]));
    }

    #[test]
    fn declare_rejects_bad_attrs() {
        let mut ks = KeySet::new();
        let db = db();
        assert!(ks.declare(&db, "r", &[3]).is_err(), "out of range");
        assert!(ks.declare(&db, "r", &[1, 1]).is_err(), "duplicate attr");
        assert!(ks.declare(&db, "nosuch", &[1]).is_err(), "unknown relation");
    }

    #[test]
    fn check_admits_and_rejects_deltas() {
        let mut ks = KeySet::new();
        let db = db();
        ks.declare(&db, "r", &[1]).expect("ok").expect("valid");

        // fresh key point: fine
        assert!(ks.check("r", &delta(&[(4, "d", 1)])).is_ok());
        // existing key point: violation, with the point in the report
        let v = ks.check("r", &delta(&[(2, "x", 1)])).expect_err("dup id");
        assert_eq!(v.multiplicity, 2);
        assert_eq!(v.attrs, vec![1]);
        // delete+insert of the same key point in one delta: fine
        assert!(ks.check("r", &delta(&[(2, "b", -1), (2, "x", 1)])).is_ok());
        // two inserts of one fresh key point in one delta: violation
        let v = ks
            .check("r", &delta(&[(9, "x", 1), (9, "y", 1)]))
            .expect_err("internal dup");
        assert_eq!(v.multiplicity, 2);
        // unconstrained relation: nothing to check
        assert!(ks.check("s", &delta(&[(2, "x", 1)])).is_ok());
    }

    #[test]
    fn apply_commit_tracks_counts_incrementally() {
        let mut ks = KeySet::new();
        let db = db();
        ks.declare(&db, "r", &[1]).expect("ok").expect("valid");

        let d = delta(&[(3, "c", -1), (4, "d", 1)]);
        assert!(ks.check("r", &d).is_ok());
        ks.apply_commit("r", &d).expect("admitted");
        // id 3 is free again, id 4 is now taken
        assert!(ks.check("r", &delta(&[(3, "z", 1)])).is_ok());
        assert!(ks.check("r", &delta(&[(4, "z", 1)])).is_err());
    }

    /// Two delta tuples at one key point, each at `i64::MAX`: the net
    /// overflows ℤ, and the check reports a violation instead of wrapping
    /// to an admissible count.
    #[test]
    fn overflowing_net_is_a_violation() {
        let mut ks = KeySet::new();
        let db = db();
        ks.declare(&db, "r", &[1]).expect("ok").expect("valid");
        let d = delta(&[(9, "x", i64::MAX), (9, "y", i64::MAX)]);
        let v = ks.check("r", &d).expect_err("overflowing net");
        assert_eq!(v.key, tuple![9_i64]);
        assert_eq!(v.multiplicity, u64::MAX);
    }

    #[test]
    fn violation_renders_for_diagnostics() {
        let mut ks = KeySet::new();
        let db = db();
        ks.declare(&db, "r", &[1]).expect("ok").expect("valid");
        let v = ks.check("r", &delta(&[(2, "x", 1)])).expect_err("dup");
        let msg = v.to_string();
        assert!(msg.contains("key r(%1) violated"), "{msg}");
        assert!(msg.contains("multiplicity 2"), "{msg}");
    }
}
