//! Schema inference allocates only the schemas it builds.
//!
//! The optimizer calls `RelExpr::schema` inside its rules, so the success
//! path of the typing rules is a hot path: a node that passes its input's
//! schema through (σ, δ, ⊎, −, ∩, α, a scan) allocates nothing, and a
//! node that builds one (×, ⋈, π, extended π, γ) allocates its attribute
//! vector and its `Arc`, nothing more. The catalog's attributes are
//! anonymous here, so copying an attribute allocates no name.

use mera_core::counting_alloc::{allocations_during, CountingAlloc};
use mera_core::prelude::*;
use mera_expr::{Aggregate, RelExpr, ScalarExpr};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn schema_inference_allocates_only_the_schemas_it_builds() {
    let catalog = DatabaseSchema::new()
        .with("r", Schema::anon(&[DataType::Int, DataType::Int]))
        .expect("fresh")
        .with("s", Schema::anon(&[DataType::Int, DataType::Int]))
        .expect("fresh");
    let r = || RelExpr::scan("r");
    let cond = ScalarExpr::attr(1).eq(ScalarExpr::attr(2));
    let cases = [
        // passes its input's schema through
        (r(), 0),
        (r().select(cond.clone()), 0),
        (r().distinct(), 0),
        (r().union(RelExpr::scan("s")), 0),
        (r().difference(RelExpr::scan("s")), 0),
        (r().intersect(RelExpr::scan("s")), 0),
        (r().closure(), 0),
        // builds one schema
        (r().product(RelExpr::scan("s")), 2),
        (r().join(RelExpr::scan("s"), cond.clone()), 2),
        (r().project(&[2, 1]), 2),
        (
            r().ext_project(vec![ScalarExpr::attr(1).add(ScalarExpr::int(1))]),
            2,
        ),
        (r().group_by(&[2, 1], Aggregate::Sum, 1), 2),
        (r().group_by(&[], Aggregate::Cnt, 1), 2),
        // builds two
        (
            r().select(cond)
                .group_by(&[1], Aggregate::Max, 2)
                .project(&[1]),
            4,
        ),
    ];
    for (plan, expected) in cases {
        let (allocations, schema) = allocations_during(|| plan.schema(&catalog));
        schema.unwrap_or_else(|e| panic!("{plan}: {e}"));
        assert_eq!(allocations, expected, "{plan}");
    }
}
