//! Hash indexes and index-aware execution.
//!
//! PRISMA/DB was a main-memory DBMS; its workhorse access path was the
//! in-memory hash index. This module provides the same substrate for the
//! bag model: a [`HashIndex`] maps a key projection to the counted tuples
//! carrying that key (multiplicities preserved — an index over a bag is
//! itself a bag structure), an [`IndexSet`] manages indexes per relation,
//! and an [`Engine`](crate::Engine) carrying an `IndexSet` answers
//! point-selections over base relations (`σ_{%i = const ∧ …}(R)`) with
//! index lookups and hinted equi-joins with index-nested-loop probes.
//! An index on `K` holds the bag projection `π_K(r)` — one bucket per key
//! point — so it is also what enforces a declared key on `K`
//! ([`KeySet`](crate::KeySet)): the key is a unique index.
//!
//! An index lives in a committed version beside its relation, so it is
//! stored the same way: its key → bucket map is a [`PMap`], and each
//! bucket an immutable shared slice that a write replaces. Cloning an
//! index (every commit clones the newest version) is O(1), and a commit
//! that touches `k` keys copies `k` trie paths and rebuilds `k` buckets.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use mera_core::pmap::PMap;
use mera_core::prelude::*;
use mera_expr::scalar::{CmpOp, ScalarExpr};

use crate::physical::column::eval_filter_mask;
use crate::physical::{Column, CountedBatch};

/// A hash index over one key projection of a relation.
///
/// Multiplicities are preserved: looking up a key yields exactly the
/// counted tuples a scan-and-filter would, so every algebra law continues
/// to hold on the lookup result. An empty key list files every tuple under
/// the empty key — one bucket, the state of a join with no equi key.
#[derive(Debug, Clone)]
pub struct HashIndex {
    keys: Vec<usize>,
    schema: SchemaRef,
    map: PMap<Tuple, Bucket>,
    entries: u64,
}

/// The counted tuples filed under one key: shared between the versions
/// that hold it, so a clone never copies it, and copied on write only by
/// a version that shares it.
type Bucket = Arc<Vec<(Tuple, u64)>>;

impl HashIndex {
    /// Builds an index on the 1-based key attributes of a relation (no
    /// repeats; empty for the one-bucket index).
    pub fn build(rel: &Relation, keys: &[usize]) -> CoreResult<Self> {
        if !keys.is_empty() {
            AttrList::new_unique(keys.to_vec())?.check_arity(rel.schema().arity())?;
        }
        let mut index = HashIndex {
            keys: keys.to_vec(),
            schema: Arc::clone(rel.schema()),
            map: PMap::new(),
            entries: rel.len(),
        };
        let rows = rel.iter().map(|(t, m)| (index.key_of(t), (t.clone(), m)));
        index.map = PMap::from_groups(rows, |_, rows| Ok::<_, CoreError>(Arc::new(rows)))?;
        Ok(index)
    }

    /// The key `t` is filed under: its values at the key attributes, in
    /// key order.
    pub fn key_of(&self, t: &Tuple) -> Tuple {
        key_at(&self.keys, t)
    }

    /// The indexed key attributes (1-based).
    pub fn key_attrs(&self) -> &[usize] {
        &self.keys
    }

    /// Total indexed tuples (with multiplicity).
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when the index covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Point lookup: the counted tuples whose key projection equals `key`,
    /// as a relation over the indexed schema.
    pub fn lookup(&self, key: &Tuple) -> CoreResult<Relation> {
        let mut out = Relation::empty(Arc::clone(&self.schema));
        for (t, m) in self.matches(key) {
            out.insert(t.clone(), *m)?;
        }
        Ok(out)
    }

    /// Point lookup without materialisation: the counted tuples carrying
    /// `key`, as a borrowed slice (empty when the key is absent).
    pub fn matches(&self, key: &Tuple) -> &[(Tuple, u64)] {
        self.map.get(key).map_or(&[], |b| b.as_slice())
    }

    /// The schema of the indexed relation.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Index-nested-loop probe with a whole batch: for every probe row (in
    /// order) looks up the key its `probe_keys` columns (0-based, in the
    /// index's key-attribute order) carry and emits the concatenated
    /// `probe ⊕ match` rows that pass `residual` (evaluated over the
    /// concatenated schema), with multiplicity `m₁ · m₂` — checked, like
    /// every other join. `None` when no pair survives.
    pub(crate) fn probe_batch(
        &self,
        probe: &CountedBatch,
        probe_keys: &[usize],
        out_schema: &SchemaRef,
        residual: Option<&ScalarExpr>,
    ) -> CoreResult<Option<CountedBatch>> {
        let mut lsel: Vec<u32> = Vec::new();
        let mut matched: Vec<&(Tuple, u64)> = Vec::new();
        for i in 0..probe.len() {
            let key = Tuple::new(
                probe_keys
                    .iter()
                    .map(|&o| probe.column(o).value(i))
                    .collect(),
            );
            for m in self.matches(&key) {
                lsel.push(i as u32);
                matched.push(m);
            }
        }
        if lsel.is_empty() {
            return Ok(None);
        }
        let mut columns: Vec<Column> = probe.columns().iter().map(|c| c.gather(&lsel)).collect();
        for (a, attr) in self.schema.attributes().iter().enumerate() {
            let mut col = Column::with_capacity(attr.dtype, matched.len());
            for (t, _) in &matched {
                col.push_ref(&t.values()[a]);
            }
            columns.push(col);
        }
        let mut pairs =
            CountedBatch::from_parts(Arc::clone(out_schema), columns, vec![1; lsel.len()]);
        if let Some(p) = residual {
            let mask = eval_filter_mask(p, &pairs)?;
            if mask.contains(&false) {
                let sel: Vec<u32> = mask
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &b)| b.then_some(k as u32))
                    .collect();
                if sel.is_empty() {
                    return Ok(None);
                }
                pairs = pairs.gather(&sel);
                lsel = sel.iter().map(|&k| lsel[k as usize]).collect();
                matched = sel.iter().map(|&k| matched[k as usize]).collect();
            }
        }
        // multiplicity product after the residual, so only kept pairs can
        // overflow
        let counts = lsel
            .iter()
            .zip(&matched)
            .map(|(&i, (_, rm))| {
                probe.counts()[i as usize]
                    .checked_mul(*rm)
                    .ok_or(CoreError::Overflow("join multiplicity"))
            })
            .collect::<CoreResult<Vec<u64>>>()?;
        let (schema, columns, _) = pairs.into_parts();
        Ok(Some(CountedBatch::from_parts(schema, columns, counts)))
    }

    /// Folds one commit's signed delta into the index — O(|delta|), the
    /// same incremental-maintenance contract as materialized views: after
    /// the call the index equals a fresh [`HashIndex::build`] over the
    /// post-commit relation. A touched bucket is copied only by a version
    /// that still shares it, once; in place otherwise. Like
    /// [`SignedBag::apply_to`], a retraction the index cannot cover fails
    /// with [`CoreError::NegativeMultiplicity`] and an insertion past
    /// `u64` fails with an overflow; on failure the index is partly
    /// updated and callers drop it (a view recomputes, a commit aborts).
    pub fn apply_delta(&mut self, delta: &SignedBag<Tuple>) -> CoreResult<()> {
        let HashIndex {
            keys, map, entries, ..
        } = self;
        let keyed = delta.iter().map(|(t, m)| (key_at(keys, t), (t, m)));
        map.alter_all(keyed, |bucket, (t, m)| {
            // copied first if another version shares it; a new bucket is
            // sized for one tuple, all a unique (key) index ever holds
            let b = Arc::make_mut(bucket.get_or_insert_with(|| Arc::new(Vec::with_capacity(1))));
            let edited = edit_bucket(b, t, m, entries);
            if b.is_empty() {
                *bucket = None;
            }
            edited
        })
    }
}

/// The values of `t` at the 1-based `keys`, in key order.
pub(crate) fn key_at(keys: &[usize], t: &Tuple) -> Tuple {
    keys.iter().map(|&k| t.values()[k - 1].clone()).collect()
}

/// Adds one delta row to its bucket, keeping the index's entry count.
fn edit_bucket(b: &mut Vec<(Tuple, u64)>, t: &Tuple, m: i64, entries: &mut u64) -> CoreResult<()> {
    let underflow = || CoreError::NegativeMultiplicity("delta application");
    let n = m.unsigned_abs();
    let pos = b.iter().position(|(bt, _)| bt == t);
    if m > 0 {
        match pos {
            Some(p) => b[p].1 = b[p].1.plus(n)?,
            None => b.push((t.clone(), n)),
        }
        *entries = entries.plus(n)?;
    } else {
        let p = pos.ok_or_else(underflow)?;
        let cur = b[p].1;
        if n > cur {
            return Err(underflow());
        } else if n < cur {
            b[p].1 = cur - n;
        } else {
            b.swap_remove(p);
        }
        *entries -= n;
    }
    Ok(())
}

/// A set of indexes over a database's relations.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    // (relation name, sorted key attrs) → index
    indexes: BTreeMap<(String, Vec<usize>), HashIndex>,
}

impl IndexSet {
    /// No indexes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds and registers an index on `relation(keys)`; a declared index
    /// needs at least one key attribute. An index already registered on
    /// the same attribute set is kept, not rebuilt: its content is the
    /// same. True when an index was added.
    pub fn create(&mut self, db: &Database, relation: &str, keys: &[usize]) -> CoreResult<bool> {
        AttrList::new(keys.to_vec())?;
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        match self.indexes.entry((relation.to_owned(), sorted)) {
            Entry::Vacant(slot) => {
                slot.insert(HashIndex::build(db.relation(relation)?, keys)?);
                Ok(true)
            }
            Entry::Occupied(_) => Ok(false),
        }
    }

    /// Number of registered indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when no index is registered.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Every registered index with the relation it is on.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &HashIndex)> {
        self.indexes
            .iter()
            .map(|((r, _), index)| (r.as_str(), index))
    }

    /// Finds an index on `relation` whose key set is exactly `keys`
    /// (order-insensitive).
    pub fn find(&self, relation: &str, keys: &[usize]) -> Option<&HashIndex> {
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        self.indexes.get(&(relation.to_owned(), sorted))
    }

    /// Folds one commit's signed delta for `relation` into every index on
    /// it — the catalog-object maintenance path: indexes stay consistent
    /// across commits instead of being rebuilt or invalidated.
    pub fn apply_commit(&mut self, relation: &str, delta: &SignedBag<Tuple>) -> CoreResult<()> {
        for ((r, _), index) in self.indexes.iter_mut() {
            if r == relation {
                index.apply_delta(delta)?;
            }
        }
        Ok(())
    }

    /// Every registered index as `(relation, sorted key attrs)`, sorted —
    /// the durable catalog definition (what a CREATE INDEX log record
    /// carries; the entries themselves are built by `create` and then
    /// delta-maintained).
    pub fn definitions(&self) -> Vec<(String, Vec<usize>)> {
        self.indexes.keys().cloned().collect()
    }
}

/// Cost-based planner hints: the `(relation, sorted key attrs)` pairs for
/// which an index-nested-loop join was chosen over a hash join. The
/// physical engine only takes the index path for hinted joins — the
/// *choice* lives with the cost model, the *mechanism* lives here.
pub type IndexJoinHints = rustc_hash::FxHashSet<(String, Vec<usize>)>;

/// Splits a predicate's conjuncts into point-equalities (`%i = literal`)
/// and the rest.
pub(crate) fn split_point_conjuncts(
    predicate: &ScalarExpr,
) -> (Vec<(usize, Value)>, Vec<ScalarExpr>) {
    let mut points = Vec::new();
    let mut rest = Vec::new();
    for conj in predicate.conjuncts() {
        if let ScalarExpr::Cmp(CmpOp::Eq, l, r) = conj {
            match (l.as_ref(), r.as_ref()) {
                (ScalarExpr::Attr(i), ScalarExpr::Literal(v))
                | (ScalarExpr::Literal(v), ScalarExpr::Attr(i)) => {
                    points.push((*i, v.clone()));
                    continue;
                }
                _ => {}
            }
        }
        rest.push(conj.clone());
    }
    (points, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use mera_core::tuple;
    use mera_expr::rel::RelExpr;

    fn db() -> Database {
        let schema = DatabaseSchema::new()
            .with(
                "beer",
                Schema::named(&[
                    ("name", DataType::Str),
                    ("brewery", DataType::Str),
                    ("alcperc", DataType::Real),
                ]),
            )
            .expect("fresh");
        let mut db = Database::new(schema);
        let s = Arc::clone(db.schema().get("beer").expect("declared"));
        db.replace(
            "beer",
            Relation::from_counted(
                s,
                vec![
                    (tuple!["Grolsch", "Grolsche", 5.0_f64], 1),
                    (tuple!["Bock", "Grolsche", 6.5_f64], 2),
                    (tuple!["Bock", "Heineken", 6.3_f64], 1),
                    (tuple!["Amstel", "Heineken", 5.1_f64], 1),
                ],
            )
            .expect("typed"),
        )
        .expect("replace");
        db
    }

    fn execute(q: &RelExpr, db: &Database) -> CoreResult<Relation> {
        Engine::physical().run(q, db)
    }

    fn execute_indexed(q: &RelExpr, db: &Database, indexes: &IndexSet) -> Relation {
        Engine::indexed(indexes.clone())
            .run(q, db)
            .expect("indexed")
    }

    #[test]
    fn index_lookup_preserves_multiplicities() {
        let db = db();
        let idx = HashIndex::build(db.relation("beer").expect("present"), &[1]).expect("builds");
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.distinct_keys(), 3);
        let bocks = idx.lookup(&tuple!["Bock"]).expect("lookup");
        assert_eq!(bocks.len(), 3);
        assert_eq!(bocks.multiplicity(&tuple!["Bock", "Grolsche", 6.5_f64]), 2);
        let none = idx.lookup(&tuple!["Pilsner"]).expect("lookup");
        assert!(none.is_empty());
    }

    #[test]
    fn indexed_execution_matches_plain() {
        let db = db();
        let mut indexes = IndexSet::new();
        indexes.create(&db, "beer", &[1]).expect("creates");
        indexes.create(&db, "beer", &[2]).expect("creates");
        assert_eq!(indexes.len(), 2);

        let queries = vec![
            // point lookup, single attr
            RelExpr::scan("beer").select(ScalarExpr::attr(1).eq(ScalarExpr::str("Bock"))),
            // point + residual
            RelExpr::scan("beer").select(
                ScalarExpr::attr(1)
                    .eq(ScalarExpr::str("Bock"))
                    .and(ScalarExpr::attr(3).cmp(CmpOp::Gt, ScalarExpr::real(6.4))),
            ),
            // literal on the left
            RelExpr::scan("beer").select(ScalarExpr::str("Heineken").eq(ScalarExpr::attr(2))),
            // no matching index (attr 3): passes through
            RelExpr::scan("beer").select(ScalarExpr::attr(3).eq(ScalarExpr::real(5.1))),
            // non-point predicate: passes through
            RelExpr::scan("beer").select(ScalarExpr::attr(3).cmp(CmpOp::Lt, ScalarExpr::real(6.0))),
            // nested under other operators
            RelExpr::scan("beer")
                .select(ScalarExpr::attr(2).eq(ScalarExpr::str("Grolsche")))
                .project(&[1])
                .distinct(),
        ];
        for q in queries {
            let plain = execute(&q, &db).expect("plain");
            let indexed = execute_indexed(&q, &db, &indexes);
            assert_eq!(indexed, plain, "index lookup changed semantics for {q}");
        }
    }

    #[test]
    fn composite_key_index() {
        let db = db();
        let mut indexes = IndexSet::new();
        indexes.create(&db, "beer", &[1, 2]).expect("creates");
        let q = RelExpr::scan("beer").select(
            ScalarExpr::attr(2)
                .eq(ScalarExpr::str("Grolsche"))
                .and(ScalarExpr::attr(1).eq(ScalarExpr::str("Bock"))),
        );
        let plain = execute(&q, &db).expect("plain");
        let indexed = execute_indexed(&q, &db, &indexes);
        assert_eq!(indexed, plain);
        assert_eq!(
            indexed.multiplicity(&tuple!["Bock", "Grolsche", 6.5_f64]),
            2
        );
    }

    #[test]
    fn apply_delta_matches_fresh_build() {
        let db = db();
        let rel = db.relation("beer").expect("present");
        let mut idx = HashIndex::build(rel, &[2]).expect("builds");

        // +2 new Heineken rows, -1 of an existing Bock, full removal of Amstel
        let mut delta = SignedBag::new();
        delta
            .insert(tuple!["Lager", "Heineken", 5.0_f64], 2)
            .expect("inserts");
        delta
            .insert(tuple!["Bock", "Grolsche", 6.5_f64], -1)
            .expect("inserts");
        delta
            .insert(tuple!["Amstel", "Heineken", 5.1_f64], -1)
            .expect("inserts");

        let mut post = rel.clone();
        for (t, m) in delta.iter() {
            if m > 0 {
                post.insert(t.clone(), m as u64).expect("inserts");
            } else {
                post.remove(t, m.unsigned_abs());
            }
        }
        idx.apply_delta(&delta).expect("applies");

        let fresh = HashIndex::build(&post, &[2]).expect("builds");
        assert_eq!(idx.len(), fresh.len());
        assert_eq!(idx.distinct_keys(), fresh.distinct_keys());
        for key in [tuple!["Heineken"], tuple!["Grolsche"], tuple!["Gone"]] {
            assert_eq!(
                idx.lookup(&key).expect("lookup"),
                fresh.lookup(&key).expect("lookup"),
                "delta-maintained index diverged on key {key:?}"
            );
        }

        // a retraction the index cannot cover raises instead of being
        // ignored (absent key or tuple) or clamped (more than stored)
        for (t, m) in [
            (tuple!["Gone", "Nobody", 1.0_f64], -1),
            (tuple!["Gone", "Heineken", 1.0_f64], -1),
            (tuple!["Bock", "Heineken", 6.3_f64], -2),
        ] {
            let mut over = SignedBag::new();
            over.insert(t, m).expect("inserts");
            assert_eq!(
                fresh.clone().apply_delta(&over),
                Err(CoreError::NegativeMultiplicity("delta application"))
            );
        }
        // and an insertion past u64 overflows instead of wrapping
        let mut huge = SignedBag::new();
        huge.insert(tuple!["Bock", "Heineken", 6.3_f64], i64::MAX)
            .expect("inserts");
        let mut idx = fresh;
        idx.apply_delta(&huge).expect("fits");
        assert!(matches!(
            idx.apply_delta(&huge),
            Err(CoreError::Overflow(_))
        ));
    }

    #[test]
    fn empty_key_index_is_one_bucket_but_never_declared() {
        let db = db();
        let rel = db.relation("beer").expect("present");
        let idx = HashIndex::build(rel, &[]).expect("builds");
        assert_eq!(idx.distinct_keys(), 1);
        assert_eq!(
            idx.key_of(&tuple!["Bock", "Grolsche", 6.5_f64]),
            Tuple::empty()
        );
        assert_eq!(idx.lookup(&Tuple::empty()).expect("lookup"), *rel);
        let mut indexes = IndexSet::new();
        assert!(indexes.create(&db, "beer", &[]).is_err());
        assert!(indexes.is_empty());
    }

    #[test]
    fn index_build_validates_keys() {
        let db = db();
        let rel = db.relation("beer").expect("present");
        assert!(HashIndex::build(rel, &[9]).is_err());
        assert!(HashIndex::build(rel, &[1, 1]).is_err());
    }
}
