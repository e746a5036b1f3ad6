//! Per-batch kernels for selection and projection — the streaming steps of
//! a pipeline that act row-wise, so multiplicities pass through untouched.

use std::sync::Arc;

use mera_core::prelude::*;
use mera_expr::ScalarExpr;

use super::column::{eval_filter_mask, eval_project};
use super::CountedBatch;

/// Applies `σ_φ` to one columnar batch. The predicate is evaluated as a
/// vectorized mask; a batch that keeps every row passes through untouched,
/// one that keeps none yields `None`, anything in between is a single
/// gather of the surviving rows.
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

/// Applies a (plain or extended) projection to one columnar batch. A
/// bare-attribute projection moves whole columns; counts pass through
/// unchanged. Collapsing tuples stay in separate rows — merging them
/// downstream restores the summed multiplicities, which is exactly the
/// paper's projection law.
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

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    fn batch(types: &[DataType], rows: Vec<(Tuple, u64)>) -> CountedBatch {
        CountedBatch::from_rows(Arc::new(Schema::anon(types)), rows)
    }

    #[test]
    fn scan_streams_counted_batches() {
        // a scan feeding a kernel streams the stored relation as counted
        // batches: multiplicities ride along unexpanded at every morsel
        // size and worker count
        let schema = DatabaseSchema::new()
            .with("r", Schema::anon(&[DataType::Int]))
            .unwrap();
        let mut db = Database::new(schema);
        let rs = Arc::clone(db.schema().get("r").unwrap());
        let r = Relation::from_counted(
            rs,
            vec![(tuple![1_i64], 2), (tuple![2_i64], 1), (tuple![3_i64], 1)],
        )
        .unwrap();
        db.replace("r", r.clone()).unwrap();
        let scan = mera_expr::rel::RelExpr::scan("r");
        let kept = scan.clone().select(ScalarExpr::bool(true));
        for partitions in [1, 3] {
            for batch_size in [1, 2, 1024] {
                let engine =
                    crate::engine::Engine::physical().with_options(crate::engine::ExecOptions {
                        batch_size,
                        partitions,
                    });
                assert_eq!(engine.run(&kept, &db).unwrap(), r);
                assert_eq!(engine.run(&scan, &db).unwrap(), r);
            }
        }
    }

    #[test]
    fn filter_preserves_multiplicity() {
        let b = batch(
            &[DataType::Int],
            vec![(tuple![1_i64], 2), (tuple![2_i64], 3)],
        );
        let out = filter_batch(
            &ScalarExpr::attr(1).cmp(mera_expr::CmpOp::Gt, ScalarExpr::int(1)),
            b,
        )
        .unwrap()
        .expect("one row survives");
        assert_eq!(
            out.iter_rows().collect::<Vec<_>>(),
            vec![(tuple![2_i64], 3)]
        );
        let b = batch(&[DataType::Int], vec![(tuple![1_i64], 2)]);
        assert!(filter_batch(&ScalarExpr::bool(false), b).unwrap().is_none());
    }

    #[test]
    fn project_merges_downstream() {
        let b = batch(
            &[DataType::Int, DataType::Int],
            vec![(tuple![1_i64, 10_i64], 2), (tuple![2_i64, 10_i64], 3)],
        );
        let out_schema = Arc::new(Schema::anon(&[DataType::Int]));
        let out = project_batch(&[ScalarExpr::attr(2)], &out_schema, b).unwrap();
        // the collapsed rows stay separate in the batch ...
        assert_eq!(out.len(), 2);
        // ... and merge into the summed multiplicity once collected
        let rel = Relation::from_counted(out_schema, out).unwrap();
        assert_eq!(rel.multiplicity(&tuple![10_i64]), 5);
    }
}
