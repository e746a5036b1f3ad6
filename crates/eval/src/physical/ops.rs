//! Batched streaming and blocking operators for the unary and union-family
//! constructs.

use std::sync::Arc;

use mera_core::multiset::Bag;
use mera_core::prelude::*;
use mera_expr::ScalarExpr;
use rustc_hash::FxHashSet;

use super::column::{eval_filter_mask, eval_project};
use super::{BoxedOp, Counted, CountedBatch, Operator};

/// Leaf scan over a stored relation. Lazy: the scan borrows the relation
/// and batches rows straight out of its iterator — no upfront snapshot of
/// the whole relation is taken; tuples are split into columns as they
/// stream (a cell copy is an `i64`/handle copy, never a deep clone).
pub struct ScanOp<'a> {
    schema: SchemaRef,
    iter: Box<dyn Iterator<Item = (&'a Tuple, u64)> + 'a>,
    batch_size: usize,
}

impl<'a> ScanOp<'a> {
    /// Builds a lazy scan over `rel` emitting batches of `batch_size`.
    pub fn new(rel: &'a Relation, batch_size: usize) -> Self {
        ScanOp {
            schema: Arc::clone(rel.schema()),
            iter: Box::new(rel.iter()),
            batch_size: batch_size.max(1),
        }
    }
}

impl Operator for ScanOp<'_> {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        let mut batch = CountedBatch::with_capacity(Arc::clone(&self.schema), self.batch_size);
        for (t, m) in self.iter.by_ref().take(self.batch_size) {
            batch.push_row(t, m);
        }
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

/// Scan over an *owned* row vector, chunking it into batches. Used by the
/// blocking operators to stream their materialised results.
pub struct VecScanOp {
    schema: SchemaRef,
    rows: std::vec::IntoIter<Counted>,
    batch_size: usize,
}

impl VecScanOp {
    /// Wraps `rows` (conforming to `schema`) as a batched stream.
    pub fn new(schema: SchemaRef, rows: Vec<Counted>, batch_size: usize) -> Self {
        VecScanOp {
            schema,
            rows: rows.into_iter(),
            batch_size: batch_size.max(1),
        }
    }
}

impl Operator for VecScanOp {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        let rows: Vec<Counted> = self.rows.by_ref().take(self.batch_size).collect();
        Ok(if rows.is_empty() {
            None
        } else {
            Some(CountedBatch::from_rows(Arc::clone(&self.schema), rows))
        })
    }
}

/// Applies `σ_φ` to one columnar batch — the kernel shared by the batched
/// [`FilterOp`] and the morsel-driven filter. The predicate is evaluated
/// as a vectorized mask; a batch that keeps every row passes through
/// untouched, one that keeps none yields `None`, anything in between is a
/// single gather of the surviving rows.
pub(crate) fn filter_batch(
    predicate: &ScalarExpr,
    batch: CountedBatch,
) -> CoreResult<Option<CountedBatch>> {
    let mask = eval_filter_mask(predicate, &batch)?;
    let kept = mask.iter().filter(|&&b| b).count();
    if kept == batch.len() {
        return Ok(Some(batch));
    }
    if kept == 0 {
        return Ok(None);
    }
    let sel: Vec<u32> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i as u32))
        .collect();
    Ok(Some(batch.gather(&sel)))
}

/// Applies a (plain or extended) projection to one columnar batch — the
/// kernel shared by the batched [`ProjectOp`] and the morsel-driven
/// projection. A bare-attribute projection moves whole columns; counts
/// pass through unchanged.
pub(crate) fn project_batch(
    exprs: &[ScalarExpr],
    schema: &SchemaRef,
    batch: CountedBatch,
) -> CoreResult<CountedBatch> {
    let columns = eval_project(exprs, schema, &batch)?;
    let (_, _, counts) = batch.into_parts();
    Ok(CountedBatch::from_parts(
        Arc::clone(schema),
        columns,
        counts,
    ))
}

/// Streaming selection `σ_φ`: a vectorized mask-and-gather over each input
/// batch; multiplicities pass through unchanged.
pub struct FilterOp<'a> {
    input: BoxedOp<'a>,
    predicate: ScalarExpr,
}

impl<'a> FilterOp<'a> {
    /// Wraps `input` with predicate `φ`.
    pub fn new(input: BoxedOp<'a>, predicate: ScalarExpr) -> Self {
        FilterOp { input, predicate }
    }
}

impl Operator for FilterOp<'_> {
    fn schema(&self) -> &SchemaRef {
        self.input.schema()
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        while let Some(batch) = self.input.next_batch()? {
            if let Some(out) = filter_batch(&self.predicate, batch)? {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

/// Streaming projection (plain or extended): a tight loop over each input
/// batch. Collapsing tuples may be emitted in separate rows; downstream
/// merging restores the summed multiplicities, which is exactly the
/// paper's projection law.
pub struct ProjectOp<'a> {
    input: BoxedOp<'a>,
    exprs: Vec<ScalarExpr>,
    schema: SchemaRef,
}

impl<'a> ProjectOp<'a> {
    /// Builds a projection with a pre-computed output schema.
    pub fn new(input: BoxedOp<'a>, exprs: Vec<ScalarExpr>, schema: SchemaRef) -> Self {
        ProjectOp {
            input,
            exprs,
            schema,
        }
    }
}

impl Operator for ProjectOp<'_> {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        match self.input.next_batch()? {
            None => Ok(None),
            Some(batch) => Ok(Some(project_batch(&self.exprs, &self.schema, batch)?)),
        }
    }
}

/// Streaming union `⊎`: concatenates both inputs batch-by-batch
/// (multiplicities add once merged downstream).
pub struct UnionOp<'a> {
    left: BoxedOp<'a>,
    right: BoxedOp<'a>,
    on_right: bool,
}

impl<'a> UnionOp<'a> {
    /// Chains `left` then `right`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>) -> Self {
        UnionOp {
            left,
            right,
            on_right: false,
        }
    }
}

impl Operator for UnionOp<'_> {
    fn schema(&self) -> &SchemaRef {
        self.left.schema()
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        if !self.on_right {
            if let Some(batch) = self.left.next_batch()? {
                return Ok(Some(batch));
            }
            self.on_right = true;
        }
        self.right.next_batch()
    }
}

/// Streaming duplicate elimination `δ` with a seen-set: the first row of
/// each distinct tuple is emitted with multiplicity 1, later rows are
/// dropped.
pub struct DistinctOp<'a> {
    input: BoxedOp<'a>,
    seen: FxHashSet<Tuple>,
}

impl<'a> DistinctOp<'a> {
    /// Wraps `input` with duplicate elimination.
    pub fn new(input: BoxedOp<'a>) -> Self {
        DistinctOp {
            input,
            seen: FxHashSet::default(),
        }
    }
}

impl Operator for DistinctOp<'_> {
    fn schema(&self) -> &SchemaRef {
        self.input.schema()
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        while let Some(batch) = self.input.next_batch()? {
            let schema = Arc::clone(batch.schema());
            let mut out = Vec::new();
            for (t, _) in batch {
                if self.seen.insert(t.clone()) {
                    out.push((t, 1));
                }
            }
            if !out.is_empty() {
                return Ok(Some(CountedBatch::from_rows(schema, out)));
            }
        }
        Ok(None)
    }
}

/// Drains an operator into a merged bag (helper for the blocking
/// operators, whose laws need the *total* multiplicity per tuple).
fn drain_to_bag(op: &mut BoxedOp<'_>) -> CoreResult<Bag<Tuple>> {
    let mut bag = Bag::new();
    while let Some(batch) = op.next_batch()? {
        for (t, m) in batch {
            bag.insert(t, m)?;
        }
    }
    Ok(bag)
}

fn bag_rows(bag: &Bag<Tuple>) -> Vec<Counted> {
    bag.iter().map(|(t, m)| (t.clone(), m)).collect()
}

/// Blocking transitive closure `α` (the §5 extension): drains its input
/// into a relation, computes the δ-based fixpoint, streams the result in
/// batches.
pub struct ClosureOp<'a> {
    schema: SchemaRef,
    batch_size: usize,
    state: ClosureState<'a>,
}

enum ClosureState<'a> {
    Pending(BoxedOp<'a>),
    Draining(VecScanOp),
}

impl<'a> ClosureOp<'a> {
    /// Wraps `input` (a binary edge relation) with transitive closure.
    pub fn new(input: BoxedOp<'a>, batch_size: usize) -> Self {
        ClosureOp {
            schema: Arc::clone(input.schema()),
            batch_size,
            state: ClosureState::Pending(input),
        }
    }
}

impl Operator for ClosureOp<'_> {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        loop {
            match &mut self.state {
                ClosureState::Pending(input) => {
                    let mut rel = Relation::empty(Arc::clone(&self.schema));
                    while let Some(batch) = input.next_batch()? {
                        for (t, m) in batch {
                            rel.insert(t, m)?;
                        }
                    }
                    let closed = crate::reference::transitive_closure(&rel)?;
                    let rows: Vec<Counted> = closed.iter().map(|(t, m)| (t.clone(), m)).collect();
                    self.state = ClosureState::Draining(VecScanOp::new(
                        Arc::clone(&self.schema),
                        rows,
                        self.batch_size,
                    ));
                }
                ClosureState::Draining(scan) => return scan.next_batch(),
            }
        }
    }
}

/// Blocking difference `−`: materialises and merges both sides, emits
/// `max(0, m₁ − m₂)` in batches.
pub struct DifferenceOp<'a> {
    schema: SchemaRef,
    batch_size: usize,
    state: DiffState<'a>,
}

enum DiffState<'a> {
    Pending(BoxedOp<'a>, BoxedOp<'a>),
    Draining(VecScanOp),
}

impl<'a> DifferenceOp<'a> {
    /// Builds `left − right`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, batch_size: usize) -> Self {
        DifferenceOp {
            schema: Arc::clone(left.schema()),
            batch_size,
            state: DiffState::Pending(left, right),
        }
    }
}

impl Operator for DifferenceOp<'_> {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        loop {
            match &mut self.state {
                DiffState::Pending(left, right) => {
                    let l = drain_to_bag(left)?;
                    let r = drain_to_bag(right)?;
                    let rows = bag_rows(&l.difference(&r));
                    self.state = DiffState::Draining(VecScanOp::new(
                        Arc::clone(&self.schema),
                        rows,
                        self.batch_size,
                    ));
                }
                DiffState::Draining(scan) => return scan.next_batch(),
            }
        }
    }
}

/// Blocking intersection `∩`: materialises and merges both sides, emits
/// `min(m₁, m₂)` in batches.
pub struct IntersectOp<'a> {
    schema: SchemaRef,
    batch_size: usize,
    state: DiffState<'a>,
}

impl<'a> IntersectOp<'a> {
    /// Builds `left ∩ right`.
    pub fn new(left: BoxedOp<'a>, right: BoxedOp<'a>, batch_size: usize) -> Self {
        IntersectOp {
            schema: Arc::clone(left.schema()),
            batch_size,
            state: DiffState::Pending(left, right),
        }
    }
}

impl Operator for IntersectOp<'_> {
    fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    fn next_batch(&mut self) -> CoreResult<Option<CountedBatch>> {
        loop {
            match &mut self.state {
                DiffState::Pending(left, right) => {
                    let l = drain_to_bag(left)?;
                    let r = drain_to_bag(right)?;
                    let rows = bag_rows(&l.intersection(&r));
                    self.state = DiffState::Draining(VecScanOp::new(
                        Arc::clone(&self.schema),
                        rows,
                        self.batch_size,
                    ));
                }
                DiffState::Draining(scan) => return scan.next_batch(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::collect;
    use mera_core::tuple;

    fn ints(rows: &[(i64, u64)]) -> Relation {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        Relation::from_counted(schema, rows.iter().map(|&(v, m)| (tuple![v], m))).unwrap()
    }

    fn scan(rel: &Relation) -> BoxedOp<'_> {
        Box::new(ScanOp::new(rel, 2))
    }

    #[test]
    fn scan_streams_counted_batches() {
        let r = ints(&[(1, 2), (2, 1), (3, 1)]);
        let out = collect(scan(&r)).unwrap();
        assert_eq!(out, r);
    }

    #[test]
    fn scan_respects_batch_size() {
        let r = ints(&[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]);
        let mut op = ScanOp::new(&r, 2);
        let mut batches = 0;
        let mut rows = 0;
        while let Some(b) = op.next_batch().unwrap() {
            assert!(b.len() <= 2, "scan batch overshot its target");
            batches += 1;
            rows += b.len();
        }
        assert_eq!(rows, 5);
        assert_eq!(batches, 3);
    }

    #[test]
    fn vec_scan_chunks_owned_rows() {
        let schema = Arc::new(Schema::anon(&[DataType::Int]));
        let rows: Vec<Counted> = (0..7).map(|i| (tuple![i as i64], 1)).collect();
        let mut op = VecScanOp::new(schema, rows, 3);
        let sizes: Vec<usize> = std::iter::from_fn(|| op.next_batch().unwrap())
            .map(|b| b.len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn filter_preserves_multiplicity() {
        let r = ints(&[(1, 2), (2, 3)]);
        let op = FilterOp::new(
            scan(&r),
            ScalarExpr::attr(1).cmp(mera_expr::CmpOp::Gt, ScalarExpr::int(1)),
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.multiplicity(&tuple![2_i64]), 3);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn project_merges_downstream() {
        let schema = Arc::new(Schema::anon(&[DataType::Int, DataType::Int]));
        let r = Relation::from_counted(
            schema,
            vec![(tuple![1_i64, 10_i64], 2), (tuple![2_i64, 10_i64], 3)],
        )
        .unwrap();
        let out_schema = Arc::new(Schema::anon(&[DataType::Int]));
        let op = ProjectOp::new(scan(&r), vec![ScalarExpr::attr(2)], out_schema);
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.multiplicity(&tuple![10_i64]), 5);
    }

    #[test]
    fn union_adds() {
        let a = ints(&[(1, 2)]);
        let b = ints(&[(1, 3), (2, 1)]);
        let op = UnionOp::new(scan(&a), scan(&b));
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.multiplicity(&tuple![1_i64]), 5);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn distinct_emits_once() {
        let a = ints(&[(1, 5), (2, 1)]);
        // stack a union to create split rows of the same tuple
        let b = ints(&[(1, 4)]);
        let op = DistinctOp::new(Box::new(UnionOp::new(scan(&a), scan(&b))));
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.multiplicity(&tuple![1_i64]), 1);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn difference_merges_chunked_input() {
        // left emits <1> in two rows (2 and 3); right has 4.
        // pointwise law on merged counts: max(0, 5-4) = 1.
        let a = ints(&[(1, 2)]);
        let b = ints(&[(1, 3)]);
        let c = ints(&[(1, 4)]);
        let left = Box::new(UnionOp::new(scan(&a), scan(&b)));
        let out = collect(Box::new(DifferenceOp::new(left, scan(&c), 1024))).unwrap();
        assert_eq!(out.multiplicity(&tuple![1_i64]), 1);
    }

    #[test]
    fn intersect_merges_chunked_input() {
        let a = ints(&[(1, 2)]);
        let b = ints(&[(1, 3)]);
        let c = ints(&[(1, 4), (9, 1)]);
        let left = Box::new(UnionOp::new(scan(&a), scan(&b)));
        let out = collect(Box::new(IntersectOp::new(left, scan(&c), 1024))).unwrap();
        assert_eq!(out.multiplicity(&tuple![1_i64]), 4);
        assert_eq!(out.len(), 4);
    }
}
