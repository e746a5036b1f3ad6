//! Multi-set relations (Definitions 2.2–2.4) and the schema-checked
//! operator kernels of Definitions 3.1–3.2.
//!
//! A [`KRelation<S>`] is a [`KBag`] of [`Tuple`]s with multiplicities in
//! the semiring `S`, paired with the schema the bag is defined on — a
//! K-relation. [`Relation`] is the paper's ℕ instance. Every operator
//! validates schema compatibility before delegating the multiplicity
//! arithmetic to the bag layer, so this module is the *semantics kernel*
//! the reference evaluator is built from, in every semiring.

use std::fmt;
use std::sync::Arc;

use crate::error::CoreResult;
use crate::multiset::{KBag, NaturallyOrdered, Semiring, SignedBag};
use crate::schema::{Schema, SchemaRef};
use crate::tuple::{AttrList, Tuple};

/// A relation instance over a multiplicity semiring: a K-bag of tuples
/// over a schema.
#[derive(Debug, Clone)]
pub struct KRelation<S: Semiring> {
    schema: SchemaRef,
    tuples: KBag<Tuple, S>,
}

/// A relation instance in the paper's sense: a multi-set of tuples (ℕ
/// multiplicities) over a schema.
pub type Relation = KRelation<u64>;

impl<S: Semiring> KRelation<S> {
    /// The empty relation over `schema`.
    pub fn empty(schema: SchemaRef) -> Self {
        KRelation {
            schema,
            tuples: KBag::new(),
        }
    }

    /// Builds a relation from duplicated tuples, validating each against the
    /// schema.
    pub fn from_tuples<I>(schema: SchemaRef, tuples: I) -> CoreResult<Self>
    where
        I: IntoIterator<Item = Tuple>,
    {
        Self::from_counted(schema, tuples.into_iter().map(|t| (t, S::ONE)))
    }

    /// Builds a relation from `(tuple, multiplicity)` pairs, validating
    /// each tuple, in one pass ([`KBag::try_from_pairs`]).
    pub fn from_counted<I>(schema: SchemaRef, pairs: I) -> CoreResult<Self>
    where
        I: IntoIterator<Item = (Tuple, S)>,
    {
        let checked = pairs.into_iter().map(|(t, m)| {
            schema.check_tuple(&t)?;
            Ok((t, m))
        });
        let tuples = KBag::try_from_pairs(checked)?;
        Ok(Self::from_bag(schema, tuples))
    }

    /// Rebuilds a relation from an already-validated bag (crate-internal
    /// fast path for operators that cannot produce ill-typed tuples).
    pub(crate) fn from_bag(schema: SchemaRef, tuples: KBag<Tuple, S>) -> Self {
        KRelation { schema, tuples }
    }

    /// The schema this relation is defined on.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.tuples.distinct_len()
    }

    /// The multiplicity `R(x)` of a tuple.
    pub fn multiplicity(&self, t: &Tuple) -> S {
        self.tuples.multiplicity(t)
    }

    /// Membership `r ∈ R ⟺ R(r) ≠ 0` (Definition 2.4).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Adds `m` occurrences of a tuple after validating it against the
    /// schema.
    pub fn insert(&mut self, t: Tuple, m: S) -> CoreResult<()> {
        self.schema.check_tuple(&t)?;
        self.tuples.insert(t, m)
    }

    /// Iterates `(tuple, multiplicity)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, S)> {
        self.tuples.iter()
    }

    /// Iterates distinct tuples.
    pub fn support(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.support()
    }

    /// `(tuple, multiplicity)` pairs sorted by tuple — a deterministic view
    /// for golden tests and display.
    pub fn sorted_pairs(&self) -> Vec<(Tuple, S)> {
        let mut v: Vec<(Tuple, S)> = self.iter().map(|(t, m)| (t.clone(), m)).collect();
        // tuples are distinct, so the order is total
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The underlying bag (read-only).
    pub fn bag(&self) -> &KBag<Tuple, S> {
        &self.tuples
    }

    /// Consumes the relation, returning its bag.
    pub fn into_bag(self) -> KBag<Tuple, S> {
        self.tuples
    }

    // ------------------------------------------------------------------
    // Definition 3.1/3.2: operator kernels
    // ------------------------------------------------------------------

    /// Union `R₁ ⊎ R₂`: multiplicities add. Result keeps the left schema
    /// (the two must be type-compatible).
    pub fn union(&self, other: &Self) -> CoreResult<Self> {
        self.schema.check_same_types(&other.schema)?;
        Ok(Self::from_bag(
            Arc::clone(&self.schema),
            self.tuples.union(&other.tuples)?,
        ))
    }

    /// Product `R₁ × R₂`: tuples concatenate, multiplicities multiply.
    pub fn product(&self, other: &Self) -> CoreResult<Self> {
        let schema = Arc::new(self.schema.concat(&other.schema));
        let bag = self.tuples.product(&other.tuples, |x, y| x.concat(y))?;
        Ok(Self::from_bag(schema, bag))
    }

    /// Selection `σ_φ(R)` for an arbitrary predicate closure; multiplicities
    /// are preserved. The closure is the paper's "function from dom(E) into
    /// the boolean domain".
    pub fn select<F>(&self, predicate: F) -> CoreResult<Self>
    where
        F: FnMut(&Tuple) -> CoreResult<bool>,
    {
        Ok(Self::from_bag(
            Arc::clone(&self.schema),
            self.tuples.filter(predicate)?,
        ))
    }

    /// Projection `π_a(R)`: tuples project, multiplicities of collapsing
    /// tuples *sum* — the heart of bag semantics.
    pub fn project(&self, a: &AttrList) -> CoreResult<Self> {
        a.check_arity(self.schema.arity())?;
        let schema = Arc::new(self.schema.project(a)?);
        let bag = self.tuples.map(|t| t.project(a))?;
        Ok(Self::from_bag(schema, bag))
    }

    /// Generalised projection through an arbitrary tuple function producing
    /// tuples of `out_schema` (used by the extended projection of
    /// Definition 3.4); multiplicities of collapsing images sum.
    pub fn map_tuples<F>(&self, out_schema: SchemaRef, f: F) -> CoreResult<Self>
    where
        F: FnMut(&Tuple) -> CoreResult<Tuple>,
    {
        let bag = self.tuples.map(f)?;
        for t in bag.support() {
            out_schema.check_tuple(t)?;
        }
        Ok(Self::from_bag(out_schema, bag))
    }
}

impl<S: NaturallyOrdered> KRelation<S> {
    /// Cardinality: number of tuples counted with multiplicity.
    pub fn len(&self) -> u64 {
        self.tuples.len()
    }

    /// Removes up to `m` occurrences of a tuple, returning how many were
    /// removed.
    pub fn remove(&mut self, t: &Tuple, m: S) -> S {
        self.tuples.remove(t, m)
    }

    /// Iterates tuples with duplicates expanded.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter_expanded()
    }

    /// Multi-subset `R₁ ⊑ R₂` (Definition 2.3); requires type-compatible
    /// schemas.
    pub fn is_submultiset(&self, other: &Self) -> CoreResult<bool> {
        self.schema.check_same_types(&other.schema)?;
        Ok(self.tuples.is_submultiset(&other.tuples))
    }

    /// Difference `R₁ − R₂`: monus pointwise (ℕ: `max(0, m₁ − m₂)`).
    pub fn difference(&self, other: &Self) -> CoreResult<Self> {
        self.schema.check_same_types(&other.schema)?;
        Ok(Self::from_bag(
            Arc::clone(&self.schema),
            self.tuples.difference(&other.tuples),
        ))
    }

    /// Intersection `R₁ ∩ R₂`: `min(m₁, m₂)` pointwise.
    pub fn intersection(&self, other: &Self) -> CoreResult<Self> {
        self.schema.check_same_types(&other.schema)?;
        Ok(Self::from_bag(
            Arc::clone(&self.schema),
            self.tuples.intersection(&other.tuples),
        ))
    }

    /// Duplicate elimination `δR` (Definition 3.4).
    pub fn distinct(&self) -> Self {
        Self::from_bag(Arc::clone(&self.schema), self.tuples.distinct())
    }
}

impl Relation {
    /// The same relation with multiplicities in `S` (the homomorphism
    /// ℕ → S; in 𝔹, its support).
    pub fn lift<S: Semiring>(&self) -> CoreResult<KRelation<S>> {
        Ok(KRelation::from_bag(
            Arc::clone(&self.schema),
            self.tuples.lift()?,
        ))
    }

    /// Applies a signed delta in place ([`SignedBag::apply_to`]) after
    /// validating its insertions against the schema. On error the relation
    /// is partly updated; callers apply to a copy or rebuild.
    pub fn apply(&mut self, delta: &SignedBag<Tuple>) -> CoreResult<()> {
        for (t, m) in delta.iter() {
            if m > 0 {
                self.schema.check_tuple(t)?;
            }
        }
        delta.apply_to(&mut self.tuples)
    }
}

/// Relation equality (Definition 2.3): type-compatible schemas and pointwise
/// equal multiplicities.
impl<S: Semiring> PartialEq for KRelation<S> {
    fn eq(&self, other: &Self) -> bool {
        self.schema.same_types(&other.schema) && self.tuples == other.tuples
    }
}

impl<S: Semiring> Eq for KRelation<S> {}

impl<S: NaturallyOrdered> fmt::Display for KRelation<S> {
    /// Renders the relation as a fixed-width table with a multiplicity
    /// column, rows sorted for determinism.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| match &a.name {
                Some(n) => n.clone(),
                None => format!("%{}", i + 1),
            })
            .collect();
        let rows = self.sorted_pairs();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|(t, m)| {
                let mut row: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                row.push(m.to_string());
                row
            })
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        widths.push(1); // the "#" multiplicity column
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                if c.len() > widths[i] {
                    widths[i] = c.len();
                }
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cols: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cols.iter().enumerate() {
                write!(f, " {c:<w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        let mut header_cols = headers;
        header_cols.push("#".to_owned());
        write_row(f, &header_cols)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &cells {
            write_row(f, row)?;
        }
        write!(
            f,
            "({} tuples, {} distinct)",
            self.len(),
            self.distinct_len()
        )
    }
}

/// Builds a [`Relation`] together with its schema in one expression; see
/// crate-level docs for an example.
pub fn relation_of(schema: Schema, rows: Vec<Tuple>) -> CoreResult<Relation> {
    Relation::from_tuples(Arc::new(schema), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::tuple;
    use crate::types::DataType;

    fn ints(rows: &[i64]) -> Relation {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        Relation::from_tuples(schema, rows.iter().map(|&i| tuple![i])).unwrap()
    }

    fn beer() -> Relation {
        relation_of(
            Schema::named(&[
                ("name", DataType::Str),
                ("brewery", DataType::Str),
                ("alcperc", DataType::Real),
            ]),
            vec![
                tuple!["Grolsch", "Grolsche", 5.0_f64],
                tuple!["Heineken", "Heineken", 5.0_f64],
                tuple!["Heineken", "Heineken", 5.0_f64], // duplicate
                tuple!["Guinness", "StJames", 4.2_f64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_tuples() {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        let ok = Relation::from_tuples(Arc::clone(&schema), vec![tuple![1_i64]]);
        assert!(ok.is_ok());
        let bad = Relation::from_tuples(schema, vec![tuple!["x"]]);
        assert!(matches!(bad, Err(CoreError::TupleSchemaMismatch { .. })));
    }

    #[test]
    fn duplicates_are_counted() {
        let r = beer();
        assert_eq!(r.len(), 4);
        assert_eq!(r.distinct_len(), 3);
        assert_eq!(r.multiplicity(&tuple!["Heineken", "Heineken", 5.0_f64]), 2);
    }

    #[test]
    fn union_requires_compatible_schema() {
        let a = ints(&[1, 2]);
        let b = beer();
        assert!(matches!(a.union(&b), Err(CoreError::SchemaMismatch { .. })));
    }

    #[test]
    fn union_difference_intersection() {
        let a = ints(&[1, 1, 2]);
        let b = ints(&[1, 3]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.multiplicity(&tuple![1_i64]), 3);
        assert_eq!(u.len(), 5);
        let d = a.difference(&b).unwrap();
        assert_eq!(d.multiplicity(&tuple![1_i64]), 1);
        assert_eq!(d.multiplicity(&tuple![2_i64]), 1);
        assert_eq!(d.multiplicity(&tuple![3_i64]), 0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.multiplicity(&tuple![1_i64]), 1);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn product_concatenates_and_multiplies() {
        let a = ints(&[1, 1]);
        let b = beer();
        let p = a.product(&b).unwrap();
        assert_eq!(p.schema().arity(), 4);
        assert_eq!(p.len(), a.len() * b.len());
        assert_eq!(
            p.multiplicity(&tuple![1_i64, "Heineken", "Heineken", 5.0_f64]),
            4 // 2 copies of <1> × 2 copies of the Heineken row
        );
    }

    #[test]
    fn select_preserves_multiplicity() {
        let r = beer();
        let s = r
            .select(|t| Ok(t.attr(3).unwrap().as_f64().unwrap() >= 5.0))
            .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.multiplicity(&tuple!["Heineken", "Heineken", 5.0_f64]), 2);
    }

    #[test]
    fn project_sums_collapsing_multiplicities() {
        let r = beer();
        let p = r.project(&AttrList::new(vec![3]).unwrap()).unwrap();
        // 5.0 appears for Grolsch (×1) and Heineken (×2)
        assert_eq!(p.multiplicity(&tuple![5.0_f64]), 3);
        assert_eq!(p.multiplicity(&tuple![4.2_f64]), 1);
        assert_eq!(p.len(), r.len()); // projection never loses tuples under bags
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = beer();
        let d = r.distinct();
        assert_eq!(d.len(), 3);
        assert_eq!(d.multiplicity(&tuple!["Heineken", "Heineken", 5.0_f64]), 1);
    }

    #[test]
    fn equality_ignores_attribute_names() {
        let a = ints(&[1, 2]);
        let named = Relation::from_tuples(
            Arc::new(Schema::named(&[("n", DataType::Int)])),
            vec![tuple![2_i64], tuple![1_i64]],
        )
        .unwrap();
        assert_eq!(a, named);
    }

    #[test]
    fn submultiset_checks_schema_then_counts() {
        let a = ints(&[1]);
        let b = ints(&[1, 1, 2]);
        assert!(a.is_submultiset(&b).unwrap());
        assert!(!b.is_submultiset(&a).unwrap());
        assert!(a.is_submultiset(&beer()).is_err());
    }

    #[test]
    fn display_renders_sorted_table() {
        let r = ints(&[2, 1, 1]);
        let s = r.to_string();
        assert!(s.contains("%1"), "{s}");
        let one = s.find("| 1").unwrap();
        let two = s.find("| 2").unwrap();
        assert!(one < two);
        assert!(s.contains("(3 tuples, 2 distinct)"));
    }

    #[test]
    fn remove_decrements() {
        let mut r = ints(&[1, 1, 2]);
        assert_eq!(r.remove(&tuple![1_i64], 1), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.remove(&tuple![9_i64], 1), 0);
    }

    #[test]
    fn map_tuples_validates_output_schema() {
        let r = ints(&[1, 2]);
        let out = Arc::new(Schema::anon(&[DataType::Int]));
        let doubled = r
            .map_tuples(Arc::clone(&out), |t| Ok(tuple![t.attr(1)?.as_int()? * 2]))
            .unwrap();
        assert!(doubled.contains(&tuple![4_i64]));
        let bad = r.map_tuples(out, |_| Ok(tuple!["oops"]));
        assert!(bad.is_err());
    }
}
