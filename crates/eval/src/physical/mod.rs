//! The physical engine's data and kernels: *batched counted* tuple
//! streams and the per-batch operator kernels the pipelines of
//! [`morsel`](crate::morsel) are built from.
//!
//! Data flows as [`CountedBatch`]es — schema-tagged **columnar** chunks:
//! one typed [`Column`] per attribute plus a dedicated multiplicity
//! column. Streaming counted rows rather than
//! duplicate-expanded tuples keeps bag semantics exact (multiplicities are
//! arithmetic, Definitions 3.1–3.2) and means a tuple with multiplicity
//! one million costs one row, not a million; the columnar layout on top
//! turns the inner loops of selection, projection and hash probing into
//! tight per-column loops over unboxed cells (`Vec<i64>`, interned
//! `Vec<Sym>`) — see [`column`] for the layout and the vectorized
//! evaluator, and DESIGN.md §9 for the row-materialization boundary.
//!
//! A counted stream may emit the *same* tuple in several rows and batches
//! (e.g. after a union or a collapsing projection); operators whose
//! multiplicity law needs the merged count (difference, intersection,
//! group-by) therefore materialise and merge their inputs, while
//! selection, projection, product and join act row-wise — their laws are
//! linear in the multiplicity.
//!
//! The kernels: [`ops`] (selection and projection over one batch),
//! [`join`] (equi-join build/probe tables and the nested-loop probe),
//! [`agg`] (group-by state), [`stats`] (per-node row counters for
//! EXPLAIN and experiment E5), and [`planner`] (the physical engine's
//! end-to-end tests against the reference evaluator).

pub mod agg;
pub mod column;
pub mod join;
pub mod ops;
pub mod planner;
pub mod stats;

use mera_core::prelude::*;

pub use crate::engine::{ExecOptions, DEFAULT_BATCH_SIZE};
pub use column::Column;

/// One row of a counted stream: a tuple and its multiplicity. The
/// row-materialization boundary of the engine — operators exchange
/// columnar [`CountedBatch`]es and only consumers that genuinely need
/// tuples (result relations, bags, seen-sets, the blocking breakers)
/// materialise `Counted` pairs.
pub type Counted = (Tuple, u64);

/// A schema-tagged columnar chunk of counted rows — the unit of data flow
/// through a pipeline. Cell `i` of every column together with
/// `counts[i]` forms one counted row.
///
/// Invariants maintained by the operators: batches are non-empty, every
/// multiplicity is ≥ 1, all columns have `counts.len()` cells, and each
/// column's variant is the one its schema type maps to (see [`Column`]).
/// The same tuple may occur in several rows (and in several batches);
/// consumers that need merged counts must merge.
#[derive(Debug, Clone, PartialEq)]
pub struct CountedBatch {
    schema: SchemaRef,
    columns: Vec<Column>,
    counts: Vec<u64>,
}

impl CountedBatch {
    /// An empty batch over `schema`.
    pub fn new(schema: SchemaRef) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// An empty batch with room for `capacity` rows.
    pub fn with_capacity(schema: SchemaRef, capacity: usize) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| Column::with_capacity(a.dtype, capacity))
            .collect();
        CountedBatch {
            schema,
            columns,
            counts: Vec::with_capacity(capacity),
        }
    }

    /// Builds a batch by transposing row-major counted pairs (the
    /// materialization boundary for breaker outputs and owned row chunks).
    pub fn from_rows(schema: SchemaRef, rows: Vec<Counted>) -> Self {
        let mut batch = Self::with_capacity(schema, rows.len());
        for (t, m) in &rows {
            batch.push_row(t, *m);
        }
        batch
    }

    /// Assembles a batch from already-built columns (all of equal length,
    /// variants matching `schema`).
    pub(crate) fn from_parts(schema: SchemaRef, columns: Vec<Column>, counts: Vec<u64>) -> Self {
        debug_assert_eq!(columns.len(), schema.arity());
        debug_assert!(columns.iter().all(|c| c.len() == counts.len()));
        CountedBatch {
            schema,
            columns,
            counts,
        }
    }

    /// Decomposes the batch into its parts.
    pub(crate) fn into_parts(self) -> (SchemaRef, Vec<Column>, Vec<u64>) {
        (self.schema, self.columns, self.counts)
    }

    /// The schema every row conforms to.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The attribute columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One attribute column by 0-based offset.
    pub fn column(&self, offset: usize) -> &Column {
        &self.columns[offset]
    }

    /// The multiplicity column.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of rows (counted pairs, not multiplicity-expanded tuples).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total multiplicity across all rows.
    pub fn total_multiplicity(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Appends one counted row, splitting the tuple across the columns.
    pub fn push_row(&mut self, tuple: &Tuple, multiplicity: u64) {
        for (col, v) in self.columns.iter_mut().zip(tuple.values()) {
            col.push_ref(v);
        }
        self.counts.push(multiplicity);
    }

    /// Materialises row `i` as a [`Tuple`] (the row boundary — hot paths
    /// stay columnar and never call this).
    pub fn row(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Per-row key hashes over the 0-based key column `offsets`, combined
    /// with [`column`]'s internally-consistent columnar hash.
    pub fn key_hashes(&self, offsets: &[usize]) -> Vec<u64> {
        let mut hashes = vec![0_u64; self.len()];
        for &off in offsets {
            self.columns[off].hash_into(&mut hashes);
        }
        hashes
    }

    /// A new batch holding the rows selected by `sel`, in order.
    pub fn gather(&self, sel: &[u32]) -> CountedBatch {
        CountedBatch {
            schema: std::sync::Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
            counts: sel.iter().map(|&i| self.counts[i as usize]).collect(),
        }
    }

    /// Appends every row of `src` (same schema) to `self`.
    pub fn append(&mut self, src: &CountedBatch) {
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.append(s);
        }
        self.counts.extend_from_slice(&src.counts);
    }

    /// Appends the rows of `src` selected by `sel`.
    pub fn append_gather(&mut self, src: &CountedBatch, sel: &[u32]) {
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.append_gather(s, sel);
        }
        self.counts
            .extend(sel.iter().map(|&i| src.counts[i as usize]));
    }

    /// Materialises the whole batch as row-major counted pairs.
    pub fn into_rows(self) -> Vec<Counted> {
        (0..self.len())
            .map(|i| (self.row(i), self.counts[i]))
            .collect()
    }

    /// Iterates over materialised rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Counted> + '_ {
        (0..self.len()).map(|i| (self.row(i), self.counts[i]))
    }
}

impl IntoIterator for CountedBatch {
    type Item = Counted;
    type IntoIter = std::vec::IntoIter<Counted>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_rows().into_iter()
    }
}
