//! Column statistics above the sample: on relations of at least twice
//! [`SAMPLE`] distinct tuples, the distinct-count estimate of an
//! unindexed column lies within 25 % of the truth and its bounds inside
//! the true range — for a unique column, a 16-valued one and Zipf-like
//! values, whose long tail of rare values is the hard case for any
//! estimate from a sample.

use std::collections::HashSet;
use std::sync::Arc;

use mera_core::prelude::*;
use mera_core::tuple;
use mera_opt::stats::SAMPLE;
use mera_opt::TableStats;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `(i, values[i])` for every `i`: distinct tuples, whatever `values`
/// repeats.
fn relation(values: &[i64]) -> Relation {
    Relation::from_counted(
        Arc::new(Schema::anon(&[DataType::Int, DataType::Int])),
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (tuple![i as i64, v], 1)),
    )
    .expect("well-typed")
}

fn check(shape: &str, values: &[i64]) {
    assert!(values.len() >= 2 * SAMPLE);
    let stats = TableStats::of(&relation(values));
    let truth = values.iter().collect::<HashSet<_>>().len() as f64;
    let estimate = stats.column_distinct(2) as f64;
    let error = (estimate - truth).abs() / truth;
    assert!(
        error <= 0.25,
        "{shape}: estimated {estimate} distinct values, truly {truth}"
    );
    let (lo, hi) = stats.column_bounds(2).expect("bounds");
    let (min, max) = (values.iter().min(), values.iter().max());
    for bound in [lo, hi] {
        assert!(
            &Value::Int(*min.expect("rows")) <= bound && bound <= &Value::Int(*max.expect("rows")),
            "{shape}: bound {bound:?} outside [{min:?}, {max:?}]"
        );
    }
}

const ROWS: usize = 2 * SAMPLE + 1_000;

#[test]
fn a_unique_column_is_estimated_near_its_size() {
    let values: Vec<i64> = (0..ROWS as i64).map(|i| 3 * i + 7).collect();
    check("unique", &values);
}

#[test]
fn a_sixteen_valued_column_is_estimated_near_sixteen() {
    let values: Vec<i64> = (0..ROWS as i64).map(|i| i % 16).collect();
    check("16 values", &values);
}

#[test]
fn zipf_like_values_are_estimated_within_a_quarter() {
    // log-uniform over [1, 10⁵): P(v = k) falls off as 1/k
    let mut rng = StdRng::seed_from_u64(12);
    let values: Vec<i64> = (0..ROWS)
        .map(|_| (rng.gen_range(0.0..1.0) * 1e5_f64.ln()).exp() as i64)
        .collect();
    check("Zipf-like", &values);
}
