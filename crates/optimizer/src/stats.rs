//! Table statistics for cardinality estimation — a function of content.
//!
//! Under multiset semantics cardinality is *two* numbers: total
//! multiplicity (`rows`) and distinct support (`distinct_rows`). Both are
//! O(1) counters on [`Relation`], read off whatever version is planned
//! against. The per-column statistics (distinct counts and min/max
//! bounds) are read from the same content, never folded from deltas:
//!
//! * a column with a single-attribute index takes its exact distinct
//!   count from that index's bucket count — every declared key has one;
//! * every other column statistic comes from the relation's first
//!   [`SAMPLE`] distinct tuples in hash order (a relation iterates its
//!   hash trie sorted by tuple hash), a bottom-m sample that is the same
//!   whichever history or recovery built the content. With at most
//!   [`SAMPLE`] distinct tuples the sample is the whole support and the
//!   statistics are exact; above it a column's distinct count is
//!   estimated from the sample's value frequencies after Haas, Naughton,
//!   Seshadri & Stokes (VLDB 1995) — Duj1 for uniform frequencies,
//!   Shlosser's estimator for skewed ones — and its bounds are the
//!   sample's, inside the true range.
//!
//! The sample is taken lazily — at most once per [`TableStats`], on the
//! first question only it can answer — and only its O(arity) summary is
//! kept. So a commit does no statistics work at all, and two versions
//! with equal content, index set included, have equal statistics.

use std::sync::OnceLock;

use mera_core::prelude::*;
use mera_eval::IndexSet;
use rustc_hash::FxHashMap;

/// Distinct tuples a relation's column statistics are read from.
pub const SAMPLE: usize = 16_384;

/// Statistics for one column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStats {
    /// Distinct values in the column: exact from a single-attribute index
    /// or a sample of the whole support, estimated otherwise.
    pub distinct: u64,
    /// Smallest value sampled (None for an empty column).
    pub min: Option<Value>,
    /// Largest value sampled (None for an empty column).
    pub max: Option<Value>,
}

impl ColumnStats {
    /// Widens min/max to cover `v`.
    fn observe_bounds(&mut self, v: &Value) {
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
    }
}

/// Statistics for one relation.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Total tuples, counted with multiplicity.
    pub rows: u64,
    /// Distinct tuples.
    pub distinct_rows: u64,
    /// Exact per-column distinct counts known without a sample (from
    /// single-attribute indexes); one slot per attribute.
    exact: Vec<Option<u64>>,
    /// The relation the sampled statistics are read from (none for
    /// synthetic statistics).
    relation: Option<Relation>,
    /// The per-column statistics, sampled on first use.
    columns: OnceLock<Vec<ColumnStats>>,
}

impl TableStats {
    /// The statistics of a relation with no index: counters now, columns
    /// sampled on first use.
    pub fn of(rel: &Relation) -> TableStats {
        TableStats {
            rows: rel.len(),
            distinct_rows: rel.distinct_len() as u64,
            exact: vec![None; rel.schema().arity()],
            relation: Some(rel.clone()),
            columns: OnceLock::new(),
        }
    }

    /// Synthetic statistics from per-column distinct counts (tests and
    /// hand-built catalogs).
    pub fn synthetic(rows: u64, distinct_rows: u64, column_distincts: &[u64]) -> TableStats {
        TableStats {
            rows,
            distinct_rows,
            exact: column_distincts.iter().copied().map(Some).collect(),
            relation: None,
            columns: OnceLock::new(),
        }
    }

    /// Number of attributes.
    pub(crate) fn arity(&self) -> usize {
        self.exact.len()
    }

    /// Every column's statistics, in attribute order. Takes the sample
    /// on the first call.
    pub fn columns(&self) -> &[ColumnStats] {
        self.columns
            .get_or_init(|| sample(self.relation.as_ref(), &self.exact))
    }

    /// Distinct count of a 1-based column, defaulting to the distinct row
    /// count when out of range (conservative). Clamped to
    /// `[1, distinct_rows]` — a column can never exceed the table's own
    /// distinct support. An indexed column never samples.
    pub fn column_distinct(&self, attr: usize) -> u64 {
        let distinct = match self.exact.get(attr.wrapping_sub(1)) {
            None => self.distinct_rows,
            Some(Some(d)) => *d,
            Some(None) => self.columns()[attr - 1].distinct,
        };
        distinct.clamp(1, self.distinct_rows.max(1))
    }

    /// The `[min, max]` bounds of a 1-based column, when known.
    pub fn column_bounds(&self, attr: usize) -> Option<(&Value, &Value)> {
        if attr == 0 || attr > self.arity() {
            return None;
        }
        let c = &self.columns()[attr - 1];
        Some((c.min.as_ref()?, c.max.as_ref()?))
    }
}

/// Equal counters and equal column statistics (sampling both sides).
impl PartialEq for TableStats {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.distinct_rows == other.distinct_rows
            && self.columns() == other.columns()
    }
}

/// Column statistics from the first [`SAMPLE`] distinct tuples of `rel`
/// in hash order; a column with an `exact` count keeps it, and takes
/// only its bounds from the sample.
fn sample(rel: Option<&Relation>, exact: &[Option<u64>]) -> Vec<ColumnStats> {
    let mut columns = vec![ColumnStats::default(); exact.len()];
    let mut freq: Vec<FxHashMap<&Value, u32>> = vec![FxHashMap::default(); exact.len()];
    let mut n = 0;
    for t in rel.into_iter().flat_map(|r| r.support().take(SAMPLE)) {
        n += 1;
        for (((c, f), e), v) in columns.iter_mut().zip(&mut freq).zip(exact).zip(t.values()) {
            c.observe_bounds(v);
            if e.is_none() {
                *f.entry(v).or_default() += 1;
            }
        }
    }
    let population = rel.map_or(0, Relation::distinct_len);
    for ((c, f), e) in columns.iter_mut().zip(&freq).zip(exact) {
        c.distinct = e.unwrap_or_else(|| estimate_distinct(f.values(), n, population));
    }
    columns
}

/// A column's distinct count from the frequencies of the values a
/// sample of `n` of `population` tuples holds. Exact when the sample is
/// the population. Otherwise Haas, Naughton, Seshadri & Stokes' choice by
/// skew: when a χ² test finds the frequencies uniform, Duj1,
/// `n·d / (n − f₁ + f₁·q)`; when it finds them skewed, Shlosser's
/// `d + f₁·Σ(1−q)^k / Σ k·q·(1−q)^(k−1)` over the sampled values' counts
/// `k`, since Duj1 misses a long tail of rare values (by ~30 % on Zipf
/// values at `q = n/N = ½`). `d` is the values sampled, `f₁` those
/// sampled once.
fn estimate_distinct<'a>(
    counts: impl Iterator<Item = &'a u32> + Clone,
    n: usize,
    population: usize,
) -> u64 {
    let d = counts.clone().count();
    if n >= population {
        return d as u64;
    }
    let (n, d, q) = (n as f64, d as f64, n as f64 / population as f64);
    let f1 = counts.clone().filter(|&&k| k == 1).count() as f64;
    let mean = n / d;
    let chi2: f64 = counts
        .clone()
        .map(|&k| (k as f64 - mean).powi(2) / mean)
        .sum();
    // uniform unless χ² exceeds its 97.5 % point with d − 1 degrees of
    // freedom, in the normal approximation
    let estimate = if chi2 <= d - 1.0 + 1.96 * (2.0 * (d - 1.0)).sqrt() {
        n * d / (n - f1 + f1 * q)
    } else {
        let (unseen, seen) = counts.fold((0.0, 0.0), |(u, s), &k| {
            let k = k as f64;
            (u + (1.0 - q).powf(k), s + k * q * (1.0 - q).powf(k - 1.0))
        });
        d + f1 * unseen / seen
    };
    estimate.round().clamp(d, population as f64) as u64
}

/// Statistics for every relation of one database state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogStats {
    tables: FxHashMap<String, TableStats>,
}

impl CatalogStats {
    /// Empty statistics (every lookup falls back to defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics of every relation of `db`, with exact distinct
    /// counts for the columns `indexes` holds a single-attribute index on.
    /// O(relations + indexes): every column sample is deferred.
    pub fn of(db: &Database, indexes: &IndexSet) -> CatalogStats {
        let mut tables: FxHashMap<String, TableStats> = db
            .relation_names()
            .filter_map(|name| Some((name.to_owned(), TableStats::of(db.relation(name).ok()?))))
            .collect();
        for (name, index) in indexes.iter() {
            if let ([attr], Some(t)) = (index.key_attrs(), tables.get_mut(name)) {
                t.exact[attr - 1] = Some(index.distinct_keys() as u64);
            }
        }
        CatalogStats { tables }
    }

    /// [`CatalogStats::of`] a database with no index.
    pub fn from_database(db: &Database) -> CoreResult<CatalogStats> {
        Ok(CatalogStats::of(db, &IndexSet::new()))
    }

    /// Registers statistics for a named relation.
    pub fn insert(&mut self, name: impl Into<String>, stats: TableStats) {
        self.tables.insert(name.into(), stats);
    }

    /// Statistics for a relation, if known.
    pub fn get(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Iterates over every `(relation, stats)` pair.
    pub fn tables(&self) -> impl Iterator<Item = (&String, &TableStats)> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;
    use mera_expr::{RelExpr, ScalarExpr};
    use std::sync::Arc;

    fn int_pairs(rows: impl IntoIterator<Item = (i64, i64)>) -> Relation {
        Relation::from_counted(
            Arc::new(Schema::anon(&[DataType::Int, DataType::Int])),
            rows.into_iter().map(|(a, b)| (tuple![a, b], 1)),
        )
        .expect("well-typed")
    }

    #[test]
    fn analyze_counts_rows_and_distincts() {
        let rel = Relation::from_counted(
            Arc::new(Schema::anon(&[DataType::Int, DataType::Str])),
            vec![
                (tuple![1_i64, "a"], 3),
                (tuple![2_i64, "a"], 1),
                (tuple![2_i64, "b"], 2),
            ],
        )
        .expect("well-typed");
        let s = TableStats::of(&rel);
        assert_eq!(s.rows, 6);
        assert_eq!(s.distinct_rows, 3);
        assert_eq!(s.columns()[0].distinct, 2);
        assert_eq!(s.columns()[1].distinct, 2);
        assert_eq!(s.column_distinct(1), 2);
        // out-of-range column falls back to distinct rows
        assert_eq!(s.column_distinct(9), 3);
        // bounds
        let (lo, hi) = s.column_bounds(1).expect("bounds");
        assert_eq!(lo, &Value::Int(1));
        assert_eq!(hi, &Value::Int(2));
    }

    #[test]
    fn empty_relation_stats() {
        let rel = Relation::empty(Arc::new(Schema::anon(&[DataType::Int])));
        let s = TableStats::of(&rel);
        assert_eq!(s.rows, 0);
        assert_eq!(s.column_distinct(1), 1); // clamped to ≥ 1
        assert!(s.column_bounds(1).is_none());
    }

    #[test]
    fn catalog_stats_from_database() {
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        db.update_with("r", |r| {
            let mut r = r.clone();
            r.insert(tuple![7_i64], 4)?;
            Ok(r)
        })
        .expect("update");
        let cs = CatalogStats::from_database(&db).expect("analyze");
        assert_eq!(cs.get("r").expect("present").rows, 4);
        assert!(cs.get("zzz").is_none());
    }

    #[test]
    fn indexed_columns_never_sample() {
        // more distinct tuples than the sample, an index on %1, and a
        // point selection planned on it: the estimate reads the index's
        // bucket count and the column cell stays empty
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh");
        let mut db = Database::new(schema);
        let rows = SAMPLE as i64 + 100;
        db.update_with("r", |_| Ok(int_pairs((0..rows).map(|i| (i, i % 3)))))
            .expect("load");
        let mut indexes = IndexSet::new();
        indexes.create(&db, "r", &[1]).expect("indexes");
        let stats = Arc::new(CatalogStats::of(&db, &indexes));
        let expr = RelExpr::scan("r").select(ScalarExpr::attr(1).eq(ScalarExpr::int(5)));
        let plan = crate::Optimizer::standard()
            .with_stats(Arc::clone(&stats))
            .optimize(&expr, db.schema())
            .expect("plans")
            .expr;
        let defs = indexes.definitions();
        crate::choose_access_paths(&plan, &stats, &defs, db.schema()).expect("access paths");
        assert_eq!(crate::estimate_rows(&plan, &stats), 1.0);
        let t = stats.get("r").expect("stats");
        assert_eq!(t.column_distinct(1), rows as u64);
        assert!(t.columns.get().is_none(), "an indexed column sampled");
    }

    #[test]
    fn estimates_are_exact_on_whole_populations_and_scale_singletons() {
        let est = |counts: &[u32], population| {
            estimate_distinct(
                counts.iter(),
                counts.iter().sum::<u32>() as usize,
                population,
            )
        };
        assert_eq!(est(&[1, 1, 3, 5], 10), 4);
        // every sampled value seen once: the column looks like a key
        assert_eq!(est(&[1; 100], 1000), 1000);
        // sixteen evenly repeated values, none seen once: nothing unseen
        assert_eq!(est(&[64; 16], 2048), 16);
    }
}
