//! Join kernels: the nested-loop probe (general predicate, also serves as
//! the product) and the hash-join build/probe tables (equi-predicates).
//!
//! Both implement `E₁ ⋈_φ E₂ = σ_φ(E₁ × E₂)` (Definition 3.2) with the
//! product's multiplicity law `m₁ · m₂` — without materialising the
//! product. Both are probed a whole batch of the left (probe) side at a
//! time against a right side built once.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::scalar::{CmpOp, ScalarExpr};
use rustc_hash::FxHashMap;

use super::column::{eval_filter_mask, radix_of};
use super::{Counted, CountedBatch};

/// θ-join / product probe against a materialised inner side (`predicate`
/// `None` ⇒ plain Cartesian product): every probe row pairs with every
/// inner row, the predicate sees the concatenated tuple, and kept pairs
/// multiply their multiplicities (checked). `None` when no pair survives.
pub(crate) fn loop_probe_batch(
    probe: &CountedBatch,
    inner: &[Counted],
    predicate: Option<&ScalarExpr>,
    out_schema: &SchemaRef,
) -> CoreResult<Option<CountedBatch>> {
    let mut out = CountedBatch::new(Arc::clone(out_schema));
    for i in 0..probe.len() {
        let lt = probe.row(i);
        let lm = probe.counts()[i];
        for (rt, rm) in inner {
            let joined = lt.concat(rt);
            let keep = match predicate {
                None => true,
                Some(p) => p.eval_predicate(&joined)?,
            };
            if keep {
                let m = lm
                    .checked_mul(*rm)
                    .ok_or(CoreError::Overflow("join multiplicity"))?;
                out.push_row(&joined, m);
            }
        }
    }
    Ok((!out.is_empty()).then_some(out))
}

/// An equi-join condition extracted from a predicate: pairs of (left attr,
/// right attr) compared with `=`, plus whatever residual conjuncts remain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquiCondition {
    /// 1-based attribute indexes into the *left* schema.
    pub left_keys: Vec<usize>,
    /// 1-based attribute indexes into the *right* schema (already re-based;
    /// `%j` in the joined schema becomes `j − left_arity`).
    pub right_keys: Vec<usize>,
    /// Conjuncts that are not simple cross-side equalities, still expressed
    /// over the concatenated schema.
    pub residual: Option<ScalarExpr>,
}

/// Analyses a join predicate over `left ⊕ right`, extracting hashable
/// equi-key pairs. Returns `None` when no cross-side equality exists (the
/// planner then falls back to a nested loop).
pub fn extract_equi_condition(
    predicate: &ScalarExpr,
    left_arity: usize,
    right_arity: usize,
) -> Option<EquiCondition> {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for conj in predicate.conjuncts() {
        if let ScalarExpr::Cmp(CmpOp::Eq, a, b) = conj {
            if let (ScalarExpr::Attr(i), ScalarExpr::Attr(j)) = (a.as_ref(), b.as_ref()) {
                let (i, j) = (*i, *j);
                let (l, r) = if i <= left_arity && j > left_arity {
                    (i, j - left_arity)
                } else if j <= left_arity && i > left_arity {
                    (j, i - left_arity)
                } else {
                    residual.push(conj.clone());
                    continue;
                };
                if r <= right_arity {
                    left_keys.push(l);
                    right_keys.push(r);
                    continue;
                }
            }
        }
        residual.push(conj.clone());
    }
    if left_keys.is_empty() {
        return None;
    }
    Some(EquiCondition {
        left_keys,
        right_keys,
        residual: if residual.is_empty() {
            None
        } else {
            Some(ScalarExpr::conjoin(residual))
        },
    })
}

/// One output column of a probe: a 0-based offset into either the
/// probe-side (left) schema or the build-side (right) schema. A full join
/// emits [`full_probe_cols`]; the morsel engine's probe+projection fusion
/// emits only the projected columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeCol {
    /// Copy from the probe (left) side.
    Left(usize),
    /// Copy from the build (right) side.
    Right(usize),
}

/// The output columns of an unfused probe: the full `left ⊕ right`
/// concatenation.
pub fn full_probe_cols(left_arity: usize, right_arity: usize) -> Vec<ProbeCol> {
    (0..left_arity)
        .map(ProbeCol::Left)
        .chain((0..right_arity).map(ProbeCol::Right))
        .collect()
}

/// The build side of a hash equi-join, stored **columnar**: all build rows
/// appended into one [`CountedBatch`] and bucketed by the columnar hash of
/// their key columns — buckets hold row indexes, not tuples, so the table
/// is one map plus one batch regardless of duplication. A probe hashes its
/// own key columns batch-at-a-time, walks the matching buckets and
/// verifies candidates cell-against-cell (hash-then-verify, so colliding
/// keys are handled exactly), then assembles the output batch with one
/// gather per output column.
///
/// The morsel-driven engine builds a [`RadixJoinTable`] — one disjoint
/// `JoinTable` per radix partition of the key space, each filled by
/// exactly one worker with no shared state and no merge step.
#[derive(Debug)]
pub struct JoinTable {
    /// Build-side key offsets, resolved once at plan time.
    build_keys: ResolvedAttrs,
    /// All build rows, in insertion order.
    batch: CountedBatch,
    /// Key hash → indexes into `batch`.
    map: FxHashMap<u64, Vec<u32>>,
}

impl JoinTable {
    /// An empty table keyed on the resolved build-side columns.
    pub fn new(build_keys: ResolvedAttrs, schema: SchemaRef) -> Self {
        JoinTable {
            build_keys,
            batch: CountedBatch::new(schema),
            map: FxHashMap::default(),
        }
    }

    /// Inserts every row of a build-side batch under the hash of its key
    /// columns. Cells are appended column-wise (a `Sym`/scalar copy per
    /// cell, never a tuple allocation).
    pub fn insert_batch(&mut self, batch: &CountedBatch) {
        let hashes = batch.key_hashes(self.build_keys.offsets());
        let base = self.batch.len() as u32;
        for (i, h) in hashes.into_iter().enumerate() {
            self.map.entry(h).or_default().push(base + i as u32);
        }
        self.batch.append(batch);
    }

    /// Number of build rows in the table.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Probes with a whole batch: for every probe row (in order) and every
    /// matching build row (in insertion order), emits the `cols` columns
    /// of the pair with multiplicity `m₁ · m₂`, after the residual
    /// predicate (which sees the full concatenated schema — callers pass
    /// `cols = full_probe_cols(..)` alongside a residual). `None` when no
    /// pair survives. Matches the row engine exactly: the residual is
    /// evaluated *before* the multiplicity product, so only kept pairs can
    /// overflow.
    pub fn probe_batch(
        &self,
        probe: &CountedBatch,
        keys: &ResolvedAttrs,
        cols: &[ProbeCol],
        out_schema: &SchemaRef,
        residual: Option<&ScalarExpr>,
    ) -> CoreResult<Option<CountedBatch>> {
        let hashes = probe.key_hashes(keys.offsets());
        let rows: Vec<u32> = (0..probe.len() as u32).collect();
        self.probe_rows(probe, &hashes, &rows, keys, cols, out_schema, residual)
    }

    /// [`probe_batch`](JoinTable::probe_batch) over a pre-hashed selection
    /// of probe rows (the radix path probes each partition's table with
    /// only the probe rows that hash into it).
    #[allow(clippy::too_many_arguments)]
    fn probe_rows(
        &self,
        probe: &CountedBatch,
        hashes: &[u64],
        rows: &[u32],
        keys: &ResolvedAttrs,
        cols: &[ProbeCol],
        out_schema: &SchemaRef,
        residual: Option<&ScalarExpr>,
    ) -> CoreResult<Option<CountedBatch>> {
        // collect matching (probe, build) index pairs — hash lookup plus
        // cell-wise key verification, no materialisation yet
        let mut lsel: Vec<u32> = Vec::new();
        let mut rsel: Vec<u32> = Vec::new();
        for &i in rows {
            if let Some(bucket) = self.map.get(&hashes[i as usize]) {
                for &j in bucket {
                    if self.keys_match(probe, keys, i as usize, j as usize) {
                        lsel.push(i);
                        rsel.push(j);
                    }
                }
            }
        }
        if lsel.is_empty() {
            return Ok(None);
        }
        // assemble the output columns: one gather per column, from
        // whichever side it references
        let assemble = |ls: &[u32], rs: &[u32]| -> Vec<super::Column> {
            cols.iter()
                .map(|c| match c {
                    ProbeCol::Left(o) => probe.column(*o).gather(ls),
                    ProbeCol::Right(o) => self.batch.column(*o).gather(rs),
                })
                .collect()
        };
        let (columns, lsel, rsel) = match residual {
            None => (assemble(&lsel, &rsel), lsel, rsel),
            Some(p) => {
                let pairs = CountedBatch::from_parts(
                    Arc::clone(out_schema),
                    assemble(&lsel, &rsel),
                    vec![1; lsel.len()],
                );
                let mask = match eval_filter_mask(p, &pairs) {
                    Ok(mask) => mask,
                    // canonicalize to the row engine's first error in
                    // probe-row order (residual errors interleave with
                    // multiplicity overflows there)
                    Err(e) => {
                        return Err(self
                            .rowwise_probe_error(probe, hashes, rows, keys, residual)
                            .unwrap_or(e))
                    }
                };
                let keep: Vec<u32> = mask
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &b)| b.then_some(k as u32))
                    .collect();
                if keep.is_empty() {
                    return Ok(None);
                }
                let columns = if keep.len() == mask.len() {
                    pairs.into_parts().1
                } else {
                    pairs.gather(&keep).into_parts().1
                };
                let filter = |sel: &[u32]| keep.iter().map(|&k| sel[k as usize]).collect();
                (columns, filter(&lsel), filter(&rsel))
            }
        };
        // multiplicity product, after the residual — exactly the row
        // engine's per-pair order
        let mut counts = Vec::with_capacity(lsel.len());
        for (&i, &j) in lsel.iter().zip(&rsel) {
            let m = probe.counts()[i as usize]
                .checked_mul(self.batch.counts()[j as usize])
                .ok_or(CoreError::Overflow("join multiplicity"))?;
            counts.push(m);
        }
        Ok(Some(CountedBatch::from_parts(
            Arc::clone(out_schema),
            columns,
            counts,
        )))
    }

    /// Cell-wise key verification between probe row `i` and build row `j`.
    fn keys_match(&self, probe: &CountedBatch, keys: &ResolvedAttrs, i: usize, j: usize) -> bool {
        keys.offsets()
            .iter()
            .zip(self.build_keys.offsets())
            .all(|(&po, &bo)| probe.column(po).eq_cells(i, self.batch.column(bo), j))
    }

    /// Row-order re-evaluation after a vectorized probe error: replays the
    /// row engine's exact per-pair sequence (residual on the concatenated
    /// tuple, then the checked multiplicity product) and returns its first
    /// error.
    fn rowwise_probe_error(
        &self,
        probe: &CountedBatch,
        hashes: &[u64],
        rows: &[u32],
        keys: &ResolvedAttrs,
        residual: Option<&ScalarExpr>,
    ) -> Option<CoreError> {
        for &i in rows {
            let Some(bucket) = self.map.get(&hashes[i as usize]) else {
                continue;
            };
            let lt = probe.row(i as usize);
            let lm = probe.counts()[i as usize];
            for &j in bucket {
                if !self.keys_match(probe, keys, i as usize, j as usize) {
                    continue;
                }
                let joined = lt.concat(&self.batch.row(j as usize));
                match residual.map(|p| p.eval_predicate(&joined)).transpose() {
                    Err(e) => return Some(e),
                    Ok(Some(false)) => continue,
                    Ok(_) => {}
                }
                if lm.checked_mul(self.batch.counts()[j as usize]).is_none() {
                    return Some(CoreError::Overflow("join multiplicity"));
                }
            }
        }
        None
    }
}

/// A radix-partitioned join build: one disjoint [`JoinTable`] per
/// partition of the key-hash space ([`radix_of`] on the columnar key
/// hash). The morsel engine's build phase fills each partition's table
/// with exactly one worker — workers own disjoint key ranges, so there is
/// no shared table, no locking and no merge step. Probing partitions each
/// probe batch by the same radix function and probes only the matching
/// table; matching keys always hash — and therefore radix — identically
/// on both sides.
#[derive(Debug)]
pub struct RadixJoinTable {
    tables: Vec<JoinTable>,
}

impl RadixJoinTable {
    /// Wraps per-partition tables (index = radix partition).
    pub fn new(tables: Vec<JoinTable>) -> Self {
        debug_assert!(!tables.is_empty());
        RadixJoinTable { tables }
    }

    /// Total build rows across all partitions.
    pub fn len(&self) -> usize {
        self.tables.iter().map(JoinTable::len).sum()
    }

    /// True when no partition holds rows.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(JoinTable::is_empty)
    }

    /// Probes a whole batch: rows are split by key radix and each
    /// partition's table is probed with its selection; partition outputs
    /// concatenate (bag semantics — row order across partitions is
    /// irrelevant once multiplicities merge downstream).
    pub fn probe_batch(
        &self,
        probe: &CountedBatch,
        keys: &ResolvedAttrs,
        cols: &[ProbeCol],
        out_schema: &SchemaRef,
        residual: Option<&ScalarExpr>,
    ) -> CoreResult<Option<CountedBatch>> {
        if self.tables.len() == 1 {
            return self.tables[0].probe_batch(probe, keys, cols, out_schema, residual);
        }
        let hashes = probe.key_hashes(keys.offsets());
        let parts = self.tables.len();
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (i, &h) in hashes.iter().enumerate() {
            sels[radix_of(h, parts)].push(i as u32);
        }
        let mut out: Option<CountedBatch> = None;
        for (pi, sel) in sels.iter().enumerate() {
            if sel.is_empty() || self.tables[pi].is_empty() {
                continue;
            }
            if let Some(b) =
                self.tables[pi].probe_rows(probe, &hashes, sel, keys, cols, out_schema, residual)?
            {
                match &mut out {
                    None => out = Some(b),
                    Some(acc) => acc.append(&b),
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn rel(rows: Vec<(Tuple, u64)>, types: &[DataType]) -> Relation {
        Relation::from_counted(Arc::new(Schema::anon(types)), rows).unwrap()
    }

    /// `r` chopped into batches of `size` rows.
    fn batches(r: &Relation, size: usize) -> Vec<CountedBatch> {
        let rows: Vec<Counted> = r.iter().map(|(t, m)| (t.clone(), m)).collect();
        rows.chunks(size)
            .map(|c| CountedBatch::from_rows(Arc::clone(r.schema()), c.to_vec()))
            .collect()
    }

    fn collect(schema: &SchemaRef, out: impl IntoIterator<Item = CountedBatch>) -> Relation {
        Relation::from_counted(Arc::clone(schema), out.into_iter().flatten()).unwrap()
    }

    fn left_rel() -> Relation {
        rel(
            vec![
                (tuple![1_i64, "a"], 2),
                (tuple![2_i64, "b"], 1),
                (tuple![3_i64, "c"], 1),
            ],
            &[DataType::Int, DataType::Str],
        )
    }

    fn right_rel() -> Relation {
        rel(
            vec![(tuple![1_i64, 10_i64], 3), (tuple![2_i64, 20_i64], 1)],
            &[DataType::Int, DataType::Int],
        )
    }

    fn joined_schema(l: &Relation, r: &Relation) -> SchemaRef {
        Arc::new(l.schema().concat(r.schema()))
    }

    fn nested_loop(l: &Relation, r: &Relation, pred: Option<&ScalarExpr>) -> Relation {
        let schema = joined_schema(l, r);
        let inner: Vec<Counted> = r.iter().map(|(t, m)| (t.clone(), m)).collect();
        let out = batches(l, 2)
            .iter()
            .filter_map(|b| loop_probe_batch(b, &inner, pred, &schema).unwrap())
            .collect::<Vec<_>>();
        collect(&schema, out)
    }

    /// `l ⋈ r` on `pred` through a `JoinTable` built from `r` in batches
    /// of `size`, probed by `l` in batches of `size`.
    fn hash_join(l: &Relation, r: &Relation, pred: &ScalarExpr, size: usize) -> Relation {
        let cond = extract_equi_condition(pred, 2, 2).unwrap();
        let schema = joined_schema(l, r);
        let mut table = JoinTable::new(
            ResolvedAttrs::new(&cond.right_keys, 2).unwrap(),
            Arc::clone(r.schema()),
        );
        for b in batches(r, size) {
            table.insert_batch(&b);
        }
        let keys = ResolvedAttrs::new(&cond.left_keys, 2).unwrap();
        let cols = full_probe_cols(2, 2);
        let out = batches(l, size)
            .iter()
            .filter_map(|b| {
                table
                    .probe_batch(b, &keys, &cols, &schema, cond.residual.as_ref())
                    .unwrap()
            })
            .collect::<Vec<_>>();
        collect(&schema, out)
    }

    #[test]
    fn nested_loop_product() {
        let l = left_rel();
        let r = right_rel();
        let out = nested_loop(&l, &r, None);
        assert_eq!(out.len(), l.len() * r.len());
        assert_eq!(out.multiplicity(&tuple![1_i64, "a", 1_i64, 10_i64]), 6);
    }

    #[test]
    fn nested_loop_with_predicate() {
        let l = left_rel();
        let r = right_rel();
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::attr(3));
        let out = nested_loop(&l, &r, Some(&pred));
        assert_eq!(out.multiplicity(&tuple![1_i64, "a", 1_i64, 10_i64]), 6);
        assert_eq!(out.multiplicity(&tuple![2_i64, "b", 2_i64, 20_i64]), 1);
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn extract_simple_equi() {
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::attr(3));
        let c = extract_equi_condition(&pred, 2, 2).unwrap();
        assert_eq!(c.left_keys, vec![1]);
        assert_eq!(c.right_keys, vec![1]);
        assert!(c.residual.is_none());
    }

    #[test]
    fn extract_flipped_and_residual() {
        // %4 = %2 (right-to-left) AND %1 < %3
        let pred = ScalarExpr::attr(4)
            .eq(ScalarExpr::attr(2))
            .and(ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::attr(3)));
        let c = extract_equi_condition(&pred, 2, 2).unwrap();
        assert_eq!(c.left_keys, vec![2]);
        assert_eq!(c.right_keys, vec![2]);
        assert!(c.residual.is_some());
    }

    #[test]
    fn extract_rejects_same_side_equalities() {
        // %1 = %2 are both left attributes
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::attr(2));
        assert!(extract_equi_condition(&pred, 2, 2).is_none());
        // literal comparison is no equi-key either
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::int(1));
        assert!(extract_equi_condition(&pred, 2, 2).is_none());
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let l = left_rel();
        let r = right_rel();
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::attr(3));
        assert_eq!(
            hash_join(&l, &r, &pred, 1024),
            nested_loop(&l, &r, Some(&pred))
        );
    }

    #[test]
    fn hash_join_agrees_across_batch_sizes() {
        let l = left_rel();
        let r = right_rel();
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::attr(3));
        let want = hash_join(&l, &r, &pred, 1024);
        for batch_size in [1, 2, 7] {
            assert_eq!(
                hash_join(&l, &r, &pred, batch_size),
                want,
                "batch={batch_size}"
            );
        }
    }

    #[test]
    fn hash_join_applies_residual() {
        let l = left_rel();
        let r = right_rel();
        // equi on %1=%3 plus residual %4 > 15
        let pred = ScalarExpr::attr(1)
            .eq(ScalarExpr::attr(3))
            .and(ScalarExpr::attr(4).cmp(CmpOp::Gt, ScalarExpr::int(15)));
        let out = hash_join(&l, &r, &pred, 1024);
        assert_eq!(out.len(), 1);
        assert_eq!(out.multiplicity(&tuple![2_i64, "b", 2_i64, 20_i64]), 1);
    }

    #[test]
    fn join_with_empty_side_is_empty() {
        let l = left_rel();
        let empty = rel(vec![], &[DataType::Int, DataType::Int]);
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::attr(3));
        assert!(hash_join(&l, &empty, &pred, 1024).is_empty());
    }
}
