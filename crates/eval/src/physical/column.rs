//! Typed column vectors and the vectorized scalar evaluator.
//!
//! A [`CountedBatch`] stores one [`Column`] per
//! attribute plus a dedicated multiplicity column, DuckDB/Velox style. The
//! two common domains get unboxed storage — `int` as `Vec<i64>`, `str` as
//! `Vec<Sym>` (interned, so a cell is one pointer-sized handle) — and the
//! remaining domains share a `Vec<Value>`. The variant of a column is a
//! **function of its schema type** (`Int → Column::Int`, `Str →
//! Column::Str`, everything else → `Column::Val`); every producer
//! maintains this, so two columns of the same domain always hash and
//! compare element-wise with the same code path.
//!
//! The evaluator here mirrors [`ScalarExpr::eval`] *bit for bit* but over
//! whole columns: comparisons and integer arithmetic run as tight loops
//! over `&[i64]` (autovectorizable, no `Value` boxing), and the boolean
//! connectives evaluate their right side only on the selection of rows the
//! left side did not decide — preserving the row engine's short-circuit
//! semantics, where `σ_{a ∧ b}` never evaluates `b` on a row `a` already
//! rejected. Because a vectorized sub-expression surfaces *some* failing
//! row's error rather than necessarily the first one in row order, the
//! top-level entry points (`eval_filter_mask`, `eval_project`) fall
//! back to row-at-a-time evaluation on error and report the exact error
//! the row engine would have produced: the vectorized path errors if and
//! only if the row path does (both evaluate the same deterministic
//! sub-expressions on the same rows), so the fallback only ever runs on
//! the cold error path.
//!
//! Columnar key hashing for joins, grouping and radix partitioning also
//! lives here: per-element hashes (`i64` mixed directly, `Sym` via its
//! precomputed content hash, boxed values via `FxHasher`) folded across
//! the key columns. These hashes are internally consistent between any two
//! columns of the same domain — which is all hash-then-verify needs — but
//! are *not* the row-tuple hashes that key a [`PMap`](mera_core::pmap::PMap);
//! the two schemes never mix.

use mera_core::prelude::*;
use mera_expr::scalar::{eval_arith, ArithOp, CmpOp, ScalarExpr};
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

use super::CountedBatch;

/// A typed column: one vector of cells for one attribute across a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Unboxed `int` cells.
    Int(Vec<i64>),
    /// Interned `str` cells — one `Sym` handle per row.
    Str(Vec<Sym>),
    /// Boxed cells for the remaining domains (bool, real, date, time,
    /// money). Never holds `Value::Int` or `Value::Str`.
    Val(Vec<Value>),
}

impl Column {
    /// An empty column of the variant `dtype` maps to, with room for
    /// `capacity` cells.
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(capacity)),
            DataType::Str => Column::Str(Vec::with_capacity(capacity)),
            _ => Column::Val(Vec::with_capacity(capacity)),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::Val(c) => c.len(),
        }
    }

    /// True when the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one cell. The value's domain must match the column variant
    /// (callers push schema-conforming rows only).
    pub fn push(&mut self, v: Value) {
        match (self, v) {
            (Column::Int(c), Value::Int(i)) => c.push(i),
            (Column::Str(c), Value::Str(s)) => c.push(s),
            (Column::Val(c), v) => c.push(v),
            _ => unreachable!("column variant is fixed by the schema type"),
        }
    }

    /// Appends one cell by reference (a `Sym`/`Value` clone is a refcount
    /// bump or a `Copy`, never a deep copy).
    pub fn push_ref(&mut self, v: &Value) {
        match (self, v) {
            (Column::Int(c), Value::Int(i)) => c.push(*i),
            (Column::Str(c), Value::Str(s)) => c.push(s.clone()),
            (Column::Val(c), v) => c.push(v.clone()),
            _ => unreachable!("column variant is fixed by the schema type"),
        }
    }

    /// Materialises cell `i` as a [`Value`] (row boundary only).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(c) => Value::Int(c[i]),
            Column::Str(c) => Value::Str(c[i].clone()),
            Column::Val(c) => c[i].clone(),
        }
    }

    /// A new column holding the cells selected by `sel`, in order.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(c) => Column::Int(sel.iter().map(|&i| c[i as usize]).collect()),
            Column::Str(c) => Column::Str(sel.iter().map(|&i| c[i as usize].clone()).collect()),
            Column::Val(c) => Column::Val(sel.iter().map(|&i| c[i as usize].clone()).collect()),
        }
    }

    /// Appends every cell of `src` (same variant) to `self`.
    pub fn append(&mut self, src: &Column) {
        match (self, src) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
            (Column::Val(a), Column::Val(b)) => a.extend_from_slice(b),
            _ => unreachable!("appended columns share a schema type"),
        }
    }

    /// Appends the cells of `src` selected by `sel`.
    pub fn append_gather(&mut self, src: &Column, sel: &[u32]) {
        match (self, src) {
            (Column::Int(a), Column::Int(b)) => a.extend(sel.iter().map(|&i| b[i as usize])),
            (Column::Str(a), Column::Str(b)) => {
                a.extend(sel.iter().map(|&i| b[i as usize].clone()))
            }
            (Column::Val(a), Column::Val(b)) => {
                a.extend(sel.iter().map(|&i| b[i as usize].clone()))
            }
            _ => unreachable!("appended columns share a schema type"),
        }
    }

    /// True when cell `i` of `self` equals cell `j` of `other` (columns of
    /// the same domain).
    pub fn eq_cells(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i] == b[j],
            (Column::Str(a), Column::Str(b)) => a[i] == b[j],
            (Column::Val(a), Column::Val(b)) => a[i] == b[j],
            _ => unreachable!("compared columns share a schema type"),
        }
    }

    /// True when cell `i` equals the materialised value `v`.
    pub fn eq_value(&self, i: usize, v: &Value) -> bool {
        match (self, v) {
            (Column::Int(c), Value::Int(b)) => c[i] == *b,
            (Column::Str(c), Value::Str(b)) => c[i] == *b,
            (Column::Val(c), v) => c[i] == *v,
            _ => false,
        }
    }

    /// Folds every cell's hash into the running per-row hashes.
    pub fn hash_into(&self, hashes: &mut [u64]) {
        match self {
            Column::Int(c) => {
                for (h, v) in hashes.iter_mut().zip(c) {
                    *h = mix(*h, *v as u64);
                }
            }
            Column::Str(c) => {
                for (h, v) in hashes.iter_mut().zip(c) {
                    *h = mix(*h, v.content_hash());
                }
            }
            Column::Val(c) => {
                for (h, v) in hashes.iter_mut().zip(c) {
                    let mut state = FxHasher::default();
                    v.hash(&mut state);
                    *h = mix(*h, state.finish());
                }
            }
        }
    }
}

/// One multiply-rotate mixing step (the `FxHasher` fold constant) used to
/// combine per-column cell hashes into a row key hash.
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Maps a key hash to one of `parts` radix partitions. Uses the *high*
/// bits: the hash-table bucketing downstream consumes the low bits, so a
/// partition sees an unbiased spread of bucket indexes.
#[inline]
pub(crate) fn radix_of(h: u64, parts: usize) -> usize {
    ((h >> 32) as usize) % parts
}

/// The identity selection `[0, n)` — one `Vec` per batch, reused by every
/// column visit.
fn identity_sel(n: usize) -> Vec<u32> {
    debug_assert!(n <= u32::MAX as usize, "batch larger than u32 rows");
    (0..n as u32).collect()
}

// ----------------------------------------------------------------------
// Vectorized evaluation
// ----------------------------------------------------------------------

/// A vectorized sub-expression result: a column of per-row values or one
/// broadcast constant.
enum Operand {
    Col(Column),
    Const(Value),
}

impl Operand {
    /// Materialises the value for selected position `i` (`i` indexes the
    /// *selection*, not the batch).
    fn value_at(&self, i: usize) -> Value {
        match self {
            Operand::Col(c) => c.value(i),
            Operand::Const(v) => v.clone(),
        }
    }

    /// The domain of this operand (selection known non-empty).
    fn dtype(&self) -> DataType {
        match self {
            Operand::Col(Column::Int(_)) => DataType::Int,
            Operand::Col(Column::Str(_)) => DataType::Str,
            Operand::Col(Column::Val(c)) => c[0].data_type(),
            Operand::Const(v) => v.data_type(),
        }
    }
}

/// Evaluates `σ_φ`'s mask over a whole batch: `mask[i]` is the predicate's
/// verdict for row `i`. On error, re-evaluates row-at-a-time and returns
/// the exact error the row engine produces.
pub(crate) fn eval_filter_mask(
    predicate: &ScalarExpr,
    batch: &CountedBatch,
) -> CoreResult<Vec<bool>> {
    let sel = identity_sel(batch.len());
    match eval_mask_sel(predicate, batch, &sel) {
        Ok(mask) => Ok(mask),
        Err(e) => Err(rowwise_filter_error(predicate, batch).unwrap_or(e)),
    }
}

/// Evaluates a (plain or extended) projection over a whole batch: one
/// output column per expression, in the variant `out_schema` dictates. On
/// error, falls back row-at-a-time for the row engine's exact error.
pub(crate) fn eval_project(
    exprs: &[ScalarExpr],
    out_schema: &SchemaRef,
    batch: &CountedBatch,
) -> CoreResult<Vec<Column>> {
    let sel = identity_sel(batch.len());
    let run = || -> CoreResult<Vec<Column>> {
        exprs
            .iter()
            .zip(out_schema.attributes())
            .map(|(e, attr)| {
                let out = eval_operand(e, batch, &sel)?;
                Ok(operand_to_column(out, attr.dtype, sel.len()))
            })
            .collect()
    };
    match run() {
        Ok(cols) => Ok(cols),
        Err(e) => Err(rowwise_project_error(exprs, batch).unwrap_or(e)),
    }
}

/// Broadcasts a constant (or passes a column through) as a full column of
/// the schema-dictated variant.
fn operand_to_column(op: Operand, dtype: DataType, n: usize) -> Column {
    match op {
        Operand::Col(c) => {
            debug_assert_eq!(
                std::mem::discriminant(&c),
                std::mem::discriminant(&Column::with_capacity(dtype, 0)),
                "column variant must match the schema type"
            );
            c
        }
        Operand::Const(v) => {
            let mut c = Column::with_capacity(dtype, n);
            for _ in 0..n {
                c.push_ref(&v);
            }
            c
        }
    }
}

/// Row-order re-evaluation of a failed filter batch: the first error in
/// row order, exactly as the row engine reports it.
fn rowwise_filter_error(predicate: &ScalarExpr, batch: &CountedBatch) -> Option<CoreError> {
    for i in 0..batch.len() {
        if let Err(e) = predicate.eval_predicate(&batch.row(i)) {
            return Some(e);
        }
    }
    None
}

/// Row-order re-evaluation of a failed projection batch (expressions
/// left-to-right within a row, as the row engine evaluates them).
fn rowwise_project_error(exprs: &[ScalarExpr], batch: &CountedBatch) -> Option<CoreError> {
    for i in 0..batch.len() {
        let t = batch.row(i);
        for e in exprs {
            if let Err(err) = e.eval(&t) {
                return Some(err);
            }
        }
    }
    None
}

/// Evaluates a boolean-typed expression as a mask over the rows selected
/// by `sel` (`out[k]` is the verdict for batch row `sel[k]`). `And`/`Or`
/// evaluate their right side only on the sub-selection the left side did
/// not decide, matching the row engine's short-circuit.
fn eval_mask_sel(e: &ScalarExpr, batch: &CountedBatch, sel: &[u32]) -> CoreResult<Vec<bool>> {
    if sel.is_empty() {
        return Ok(Vec::new());
    }
    match e {
        ScalarExpr::Literal(Value::Bool(b)) => Ok(vec![*b; sel.len()]),
        ScalarExpr::Not(inner) => {
            let mut mask = eval_mask_sel(inner, batch, sel)?;
            for b in &mut mask {
                *b = !*b;
            }
            Ok(mask)
        }
        ScalarExpr::And(l, r) => {
            let mut mask = eval_mask_sel(l, batch, sel)?;
            let sub: Vec<u32> = sel
                .iter()
                .zip(&mask)
                .filter_map(|(&row, &keep)| keep.then_some(row))
                .collect();
            if sub.is_empty() {
                return Ok(mask);
            }
            let rmask = eval_mask_sel(r, batch, &sub)?;
            for (b, &rb) in mask.iter_mut().filter(|b| **b).zip(&rmask) {
                *b = rb;
            }
            Ok(mask)
        }
        ScalarExpr::Or(l, r) => {
            let mut mask = eval_mask_sel(l, batch, sel)?;
            let sub: Vec<u32> = sel
                .iter()
                .zip(&mask)
                .filter_map(|(&row, &keep)| (!keep).then_some(row))
                .collect();
            if sub.is_empty() {
                return Ok(mask);
            }
            let rmask = eval_mask_sel(r, batch, &sub)?;
            for (b, &rb) in mask.iter_mut().filter(|b| !**b).zip(&rmask) {
                *b = rb;
            }
            Ok(mask)
        }
        ScalarExpr::Cmp(op, l, r) => {
            let lv = eval_operand(l, batch, sel)?;
            let rv = eval_operand(r, batch, sel)?;
            cmp_operands(*op, &lv, &rv, sel.len())
        }
        // attribute references, non-bool literals, arithmetic: evaluate as
        // an operand and coerce per row exactly like `eval_predicate`
        other => {
            let v = eval_operand(other, batch, sel)?;
            match v {
                Operand::Const(c) => Ok(vec![c.as_bool()?; sel.len()]),
                Operand::Col(Column::Val(vals)) => {
                    vals.iter().map(|v| v.as_bool()).collect::<CoreResult<_>>()
                }
                Operand::Col(col) => {
                    // int/str columns are never boolean: surface the row
                    // engine's per-row coercion error
                    Err(col.value(0).as_bool().expect_err("non-bool domain"))
                }
            }
        }
    }
}

/// Compares two operands element-wise, mirroring `ScalarExpr::eval`'s
/// `Cmp` arm: a domain mismatch is the row engine's per-row `TypeError`,
/// same-domain cells compare via `Value`'s total order.
fn cmp_operands(op: CmpOp, l: &Operand, r: &Operand, n: usize) -> CoreResult<Vec<bool>> {
    let (lt, rt) = (l.dtype(), r.dtype());
    if lt != rt {
        return Err(CoreError::TypeError(format!(
            "cannot compare {lt} with {rt}"
        )));
    }
    match (l, r) {
        (Operand::Col(Column::Int(a)), Operand::Col(Column::Int(b))) => {
            Ok(a.iter().zip(b).map(|(x, y)| op.test(x.cmp(y))).collect())
        }
        (Operand::Col(Column::Int(a)), Operand::Const(Value::Int(y))) => {
            Ok(a.iter().map(|x| op.test(x.cmp(y))).collect())
        }
        (Operand::Const(Value::Int(x)), Operand::Col(Column::Int(b))) => {
            Ok(b.iter().map(|y| op.test(x.cmp(y))).collect())
        }
        (Operand::Col(Column::Str(a)), Operand::Const(Value::Str(y))) if !op.needs_order() => {
            // interned equality: one pointer/handle comparison per row
            Ok(a.iter()
                .map(|x| {
                    op.test(if x == y {
                        std::cmp::Ordering::Equal
                    } else {
                        std::cmp::Ordering::Less
                    })
                })
                .collect())
        }
        (Operand::Col(Column::Str(a)), Operand::Col(Column::Str(b))) if !op.needs_order() => Ok(a
            .iter()
            .zip(b)
            .map(|(x, y)| {
                op.test(if x == y {
                    std::cmp::Ordering::Equal
                } else {
                    std::cmp::Ordering::Less
                })
            })
            .collect()),
        _ => Ok((0..n)
            .map(|i| op.test(l.value_at(i).cmp(&r.value_at(i))))
            .collect()),
    }
}

/// Evaluates any scalar expression over the rows selected by `sel`.
fn eval_operand(e: &ScalarExpr, batch: &CountedBatch, sel: &[u32]) -> CoreResult<Operand> {
    match e {
        ScalarExpr::Attr(i) => {
            let arity = batch.schema().arity();
            if *i == 0 || *i > arity {
                return Err(CoreError::AttrIndexOutOfRange { index: *i, arity });
            }
            Ok(Operand::Col(batch.column(*i - 1).gather(sel)))
        }
        ScalarExpr::Literal(v) => Ok(Operand::Const(v.clone())),
        ScalarExpr::Arith(op, l, r) => {
            let lv = eval_operand(l, batch, sel)?;
            let rv = eval_operand(r, batch, sel)?;
            arith_operands(e, *op, &lv, &rv, batch, sel.len())
        }
        ScalarExpr::Neg(inner) => {
            let v = eval_operand(inner, batch, sel)?;
            match v {
                Operand::Col(Column::Int(c)) => {
                    let mut out = Vec::with_capacity(c.len());
                    for x in c {
                        out.push(x.checked_neg().ok_or(CoreError::Overflow("negation"))?);
                    }
                    Ok(Operand::Col(Column::Int(out)))
                }
                Operand::Const(v) => Ok(Operand::Const(neg_value(&v)?)),
                Operand::Col(col) => {
                    let n = col.len();
                    let mut out = Column::with_capacity(v_dtype(&col), n);
                    for i in 0..n {
                        out.push(neg_value(&col.value(i))?);
                    }
                    Ok(Operand::Col(out))
                }
            }
        }
        ScalarExpr::Concat(l, r) => {
            let lv = eval_operand(l, batch, sel)?;
            let rv = eval_operand(r, batch, sel)?;
            let mut out = Vec::with_capacity(sel.len());
            for i in 0..sel.len() {
                out.push(concat_values(&lv.value_at(i), &rv.value_at(i))?);
            }
            Ok(Operand::Col(Column::Str(out)))
        }
        // boolean-typed sub-trees nested inside a value position
        ScalarExpr::Cmp(..) | ScalarExpr::And(..) | ScalarExpr::Or(..) | ScalarExpr::Not(..) => {
            let mask = eval_mask_sel(e, batch, sel)?;
            Ok(Operand::Col(Column::Val(
                mask.into_iter().map(Value::Bool).collect(),
            )))
        }
    }
}

/// The domain of a (non-empty) column.
fn v_dtype(c: &Column) -> DataType {
    match c {
        Column::Int(_) => DataType::Int,
        Column::Str(_) => DataType::Str,
        Column::Val(v) => v[0].data_type(),
    }
}

/// Element-wise arithmetic with an `int ⊕ int` fast path; the general path
/// defers to [`eval_arith`] per cell, so every domain rule, overflow check
/// and error message is the row engine's.
fn arith_operands(
    e: &ScalarExpr,
    op: ArithOp,
    l: &Operand,
    r: &Operand,
    batch: &CountedBatch,
    n: usize,
) -> CoreResult<Operand> {
    match (l, r) {
        (Operand::Const(a), Operand::Const(b)) => Ok(Operand::Const(eval_arith(op, a, b)?)),
        (Operand::Col(Column::Int(a)), Operand::Const(Value::Int(b))) => {
            int_arith(op, a.iter().copied(), std::iter::repeat(*b), a.len())
        }
        (Operand::Const(Value::Int(a)), Operand::Col(Column::Int(b))) => {
            int_arith(op, std::iter::repeat(*a), b.iter().copied(), b.len())
        }
        (Operand::Col(Column::Int(a)), Operand::Col(Column::Int(b))) => {
            int_arith(op, a.iter().copied(), b.iter().copied(), a.len())
        }
        _ => {
            let dtype = e.infer_type(batch.schema())?;
            let mut out = Column::with_capacity(dtype, n);
            for i in 0..n {
                out.push(eval_arith(op, &l.value_at(i), &r.value_at(i))?);
            }
            Ok(Operand::Col(out))
        }
    }
}

/// Checked `int` arithmetic loop, mirroring `eval_arith`'s `Int` rules.
fn int_arith(
    op: ArithOp,
    l: impl Iterator<Item = i64>,
    r: impl Iterator<Item = i64>,
    n: usize,
) -> CoreResult<Operand> {
    let mut out = Vec::with_capacity(n);
    for (a, b) in l.zip(r).take(n) {
        let v = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div => {
                if b == 0 {
                    return Err(CoreError::DivisionByZero);
                }
                a.checked_div(b)
            }
            ArithOp::Mod => {
                if b == 0 {
                    return Err(CoreError::DivisionByZero);
                }
                a.checked_rem(b)
            }
        };
        out.push(v.ok_or(CoreError::Overflow("int arithmetic"))?);
    }
    Ok(Operand::Col(Column::Int(out)))
}

/// Negation of one value, mirroring `ScalarExpr::eval`'s `Neg` arm.
fn neg_value(v: &Value) -> CoreResult<Value> {
    match v {
        Value::Int(i) => Ok(Value::Int(
            i.checked_neg().ok_or(CoreError::Overflow("negation"))?,
        )),
        Value::Real(r) => Value::real(-r.get()),
        Value::Money(m) => Ok(Value::Money(Money(
            m.0.checked_neg().ok_or(CoreError::Overflow("negation"))?,
        ))),
        other => Err(CoreError::TypeError(format!(
            "cannot negate {}",
            other.data_type()
        ))),
    }
}

/// String concatenation of two values, mirroring `eval`'s `Concat` arm.
/// Returns the interned result directly (the caller pushes into a `Str`
/// column).
fn concat_values(a: &Value, b: &Value) -> CoreResult<Sym> {
    match (a, b) {
        (Value::Str(a), Value::Str(b)) => {
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Ok(Sym::new(&s))
        }
        (a, b) => Err(CoreError::TypeError(format!(
            "cannot concatenate {} with {}",
            a.data_type(),
            b.data_type()
        ))),
    }
}
