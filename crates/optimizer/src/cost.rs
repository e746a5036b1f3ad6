//! Cardinality estimation and a simple cost model.
//!
//! Standard System-R-style selectivities over the bag algebra, refined by
//! a version's [`CatalogStats`]: equality selections use per-column
//! distinct counts (exact from an index or a whole-support sample,
//! estimated from a sample otherwise), range comparisons interpolate
//! against per-column min/max bounds, and declared keys bound distinct
//! counts ([`estimate_distinct_rows_keyed`]).
//! Estimates are heuristics — their only job is to rank alternative plans
//! (join orders, access paths, rule ablations), not to be accurate in
//! absolute terms.

use mera_analyze::{infer_props, KeyEnv};
use mera_core::prelude::*;
use mera_expr::{CmpOp, RelExpr, ScalarExpr, SchemaProvider};

use crate::stats::CatalogStats;

/// Default row count assumed for relations without statistics.
const DEFAULT_ROWS: f64 = 1000.0;
/// Default selectivity of a predicate we cannot analyse.
const DEFAULT_SELECTIVITY: f64 = 0.1;
/// Selectivity of a range comparison when no column bounds are known.
const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Relative cost of one index probe versus one streamed row — probes are
/// random-access into the hash index, streamed rows are sequential.
pub const INDEX_PROBE_FACTOR: f64 = 2.0;
/// Relative cost of one *built* row versus one probed row in a hash join:
/// the build side pays hashing plus table insertion/allocation per row,
/// the probe side only a lookup. The physical engine builds on the
/// **right** operand, so join costs are asymmetric and the join-order
/// search prefers plans that put the smaller input on the build side.
pub const HASH_BUILD_FACTOR: f64 = 2.0;

/// Estimated output cardinality of an expression.
pub fn estimate_rows(expr: &RelExpr, stats: &CatalogStats) -> f64 {
    match expr {
        RelExpr::Scan(name) => stats
            .get(name)
            .map(|t| t.rows as f64)
            .unwrap_or(DEFAULT_ROWS),
        RelExpr::Values(rel) => rel.len() as f64,
        RelExpr::Union(l, r) => estimate_rows(l, stats) + estimate_rows(r, stats),
        RelExpr::Difference(l, _) => estimate_rows(l, stats), // upper bound
        RelExpr::Intersect(l, r) => estimate_rows(l, stats).min(estimate_rows(r, stats)),
        RelExpr::Product(l, r) => estimate_rows(l, stats) * estimate_rows(r, stats),
        RelExpr::Select { input, predicate } => {
            estimate_rows(input, stats) * selectivity(predicate, input, stats)
        }
        RelExpr::Project { input, .. } | RelExpr::ExtProject { input, .. } => {
            estimate_rows(input, stats)
        }
        RelExpr::Join {
            left,
            right,
            predicate,
        } => {
            let cross = estimate_rows(left, stats) * estimate_rows(right, stats);
            cross * join_selectivity(predicate, left, right, stats)
        }
        RelExpr::Distinct(input) => {
            // distinct keeps at most the input cardinality; assume a 2:1
            // duplication factor absent real statistics
            (estimate_rows(input, stats) / 2.0).max(1.0)
        }
        RelExpr::Closure(input) => {
            // closure of n distinct edges has between n and d² pairs where
            // d is the node count; assume modest fan-out
            let rows = estimate_rows(input, stats);
            (rows * 4.0).max(1.0)
        }
        RelExpr::GroupBy { input, keys, .. } => {
            if keys.is_empty() {
                1.0
            } else {
                // number of groups ≈ product of key distincts, capped by
                // the input size
                let rows = estimate_rows(input, stats);
                let groups = keys
                    .iter()
                    .map(|&k| column_distinct(input, k, stats))
                    .product::<f64>();
                groups.min(rows).max(1.0)
            }
        }
    }
}

/// [`estimate_distinct_rows`] strengthened by declared keys: when the
/// property inference proves the output duplicate-free (`key ⇒ distinct =
/// rowcount`), the distinct estimate *is* the row estimate — exact instead
/// of the column-statistics heuristic. Falls back to the plain estimator
/// otherwise.
pub fn estimate_distinct_rows_keyed<P: SchemaProvider>(
    expr: &RelExpr,
    stats: &CatalogStats,
    provider: &P,
    keys: &KeyEnv,
) -> f64 {
    if !keys.is_empty() && infer_props(expr, provider, keys).duplicate_free {
        return estimate_rows(expr, stats);
    }
    estimate_distinct_rows(expr, stats)
}

/// Estimated number of *distinct* output tuples — what a δ over the
/// expression would produce. Used to gate δ placement: pushing δ below a
/// join pays off exactly when inputs carry heavy duplication.
pub fn estimate_distinct_rows(expr: &RelExpr, stats: &CatalogStats) -> f64 {
    match expr {
        RelExpr::Scan(name) => stats
            .get(name)
            .map(|t| t.distinct_rows as f64)
            .unwrap_or(DEFAULT_ROWS / 2.0),
        RelExpr::Values(rel) => rel.distinct_len() as f64,
        RelExpr::Distinct(input) | RelExpr::GroupBy { input, .. } => {
            // already duplicate-free outputs
            estimate_rows(expr, stats).min(estimate_distinct_rows(input, stats).max(1.0))
        }
        RelExpr::Select { input, predicate } => {
            estimate_distinct_rows(input, stats) * selectivity(predicate, input, stats)
        }
        RelExpr::Product(l, r)
        | RelExpr::Join {
            left: l, right: r, ..
        } => {
            // distinct pairs multiply, capped by the (duplicated) output
            let d = estimate_distinct_rows(l, stats) * estimate_distinct_rows(r, stats);
            d.min(estimate_rows(expr, stats)).max(1.0)
        }
        _ => estimate_rows(expr, stats),
    }
    .max(1.0)
}

/// Estimated distinct count of a column of an expression's output.
fn column_distinct(expr: &RelExpr, attr: usize, stats: &CatalogStats) -> f64 {
    match expr {
        RelExpr::Scan(name) => stats
            .get(name)
            .map(|t| t.column_distinct(attr) as f64)
            .unwrap_or(DEFAULT_ROWS.sqrt()),
        RelExpr::Values(rel) => {
            // exact for literals
            let mut seen = std::collections::HashSet::new();
            for t in rel.support() {
                if let Ok(v) = t.attr(attr) {
                    seen.insert(v.clone());
                }
            }
            (seen.len() as f64).max(1.0)
        }
        RelExpr::Select { input, .. } | RelExpr::Distinct(input) => {
            column_distinct(input, attr, stats)
        }
        RelExpr::Project { input, attrs } => attrs
            .indexes()
            .get(attr.wrapping_sub(1))
            .map(|&orig| column_distinct(input, orig, stats))
            .unwrap_or(DEFAULT_ROWS.sqrt()),
        RelExpr::Product(l, r) | RelExpr::Union(l, r) => {
            // map through the left side when in range, else the right
            let la = arity_guess(l, stats);
            if attr <= la {
                column_distinct(l, attr, stats)
            } else {
                column_distinct(r, attr - la, stats)
            }
        }
        RelExpr::Join { left, right, .. } => {
            let la = arity_guess(left, stats);
            if attr <= la {
                column_distinct(left, attr, stats)
            } else {
                column_distinct(right, attr - la, stats)
            }
        }
        _ => estimate_rows(expr, stats).sqrt().max(1.0),
    }
}

/// Best-effort arity without a schema provider (estimation never fails).
fn arity_guess(expr: &RelExpr, stats: &CatalogStats) -> usize {
    match expr {
        RelExpr::Scan(name) => stats.get(name).map(|t| t.arity()).unwrap_or(1),
        RelExpr::Values(rel) => rel.schema().arity(),
        RelExpr::Select { input, .. } | RelExpr::Distinct(input) => arity_guess(input, stats),
        RelExpr::Project { attrs, .. } => attrs.len(),
        RelExpr::ExtProject { exprs, .. } => exprs.len(),
        RelExpr::Union(l, _) | RelExpr::Difference(l, _) | RelExpr::Intersect(l, _) => {
            arity_guess(l, stats)
        }
        RelExpr::Product(l, r) => arity_guess(l, stats) + arity_guess(r, stats),
        RelExpr::Join { left, right, .. } => arity_guess(left, stats) + arity_guess(right, stats),
        RelExpr::GroupBy { keys, .. } => keys.len() + 1,
        RelExpr::Closure(_) => 2,
    }
}

/// Selectivity of a selection predicate over its input.
fn selectivity(predicate: &ScalarExpr, input: &RelExpr, stats: &CatalogStats) -> f64 {
    predicate
        .conjuncts()
        .iter()
        .map(|c| conjunct_selectivity(c, input, stats))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

fn conjunct_selectivity(conj: &ScalarExpr, input: &RelExpr, stats: &CatalogStats) -> f64 {
    match conj {
        ScalarExpr::Literal(Value::Bool(true)) => 1.0,
        ScalarExpr::Literal(Value::Bool(false)) => 0.0,
        ScalarExpr::Cmp(CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
            (ScalarExpr::Attr(i), ScalarExpr::Literal(_))
            | (ScalarExpr::Literal(_), ScalarExpr::Attr(i)) => {
                1.0 / column_distinct(input, *i, stats)
            }
            (ScalarExpr::Attr(i), ScalarExpr::Attr(j)) => {
                1.0 / column_distinct(input, *i, stats).max(column_distinct(input, *j, stats))
            }
            _ => DEFAULT_SELECTIVITY,
        },
        ScalarExpr::Cmp(CmpOp::Ne, _, _) => 1.0 - DEFAULT_SELECTIVITY,
        ScalarExpr::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
            (ScalarExpr::Attr(i), ScalarExpr::Literal(v)) => {
                range_selectivity(input, *i, *op, v, stats)
            }
            // mirror `lit < %i` to `%i > lit` etc.
            (ScalarExpr::Literal(v), ScalarExpr::Attr(i)) => {
                range_selectivity(input, *i, mirror(*op), v, stats)
            }
            _ => RANGE_SELECTIVITY,
        },
        ScalarExpr::Not(inner) => 1.0 - conjunct_selectivity(inner, input, stats),
        ScalarExpr::Or(l, r) => {
            let a = conjunct_selectivity(l, input, stats);
            let b = conjunct_selectivity(r, input, stats);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Swaps the comparison direction (for `lit op %i` forms).
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Numeric min/max bounds of a column of an expression's output, when the
/// underlying scan's statistics know them.
fn column_bounds_f64(expr: &RelExpr, attr: usize, stats: &CatalogStats) -> Option<(f64, f64)> {
    let as_f64 = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Real(r) => Some(r.get()),
        _ => None,
    };
    match expr {
        RelExpr::Scan(name) => {
            let (min, max) = stats.get(name)?.column_bounds(attr)?;
            Some((as_f64(min)?, as_f64(max)?))
        }
        RelExpr::Select { input, .. } | RelExpr::Distinct(input) => {
            column_bounds_f64(input, attr, stats)
        }
        RelExpr::Project { input, attrs } => attrs
            .indexes()
            .get(attr.wrapping_sub(1))
            .and_then(|&orig| column_bounds_f64(input, orig, stats)),
        _ => None,
    }
}

/// Selectivity of `%attr op lit` — linear interpolation against the
/// column's min/max when known, [`RANGE_SELECTIVITY`] otherwise.
fn range_selectivity(
    input: &RelExpr,
    attr: usize,
    op: CmpOp,
    lit: &Value,
    stats: &CatalogStats,
) -> f64 {
    let lit = match lit {
        Value::Int(i) => *i as f64,
        Value::Real(r) => r.get(),
        _ => return RANGE_SELECTIVITY,
    };
    let Some((min, max)) = column_bounds_f64(input, attr, stats) else {
        return RANGE_SELECTIVITY;
    };
    if max <= min {
        // single-valued column: the comparison is all-or-nothing
        return match op {
            CmpOp::Lt => (lit > min) as u8 as f64,
            CmpOp::Le => (lit >= min) as u8 as f64,
            CmpOp::Gt => (lit < min) as u8 as f64,
            CmpOp::Ge => (lit <= min) as u8 as f64,
            _ => RANGE_SELECTIVITY,
        };
    }
    let frac_below = ((lit - min) / (max - min)).clamp(0.0, 1.0);
    match op {
        CmpOp::Lt | CmpOp::Le => frac_below,
        CmpOp::Gt | CmpOp::Ge => 1.0 - frac_below,
        _ => RANGE_SELECTIVITY,
    }
    .clamp(0.0, 1.0)
}

/// Selectivity of a join predicate over `left ⊕ right`.
fn join_selectivity(
    predicate: &ScalarExpr,
    left: &RelExpr,
    right: &RelExpr,
    stats: &CatalogStats,
) -> f64 {
    let la = arity_guess(left, stats);
    predicate
        .conjuncts()
        .iter()
        .map(|c| {
            if let ScalarExpr::Cmp(CmpOp::Eq, a, b) = c {
                if let (ScalarExpr::Attr(i), ScalarExpr::Attr(j)) = (a.as_ref(), b.as_ref()) {
                    let (li, rj) = if *i <= la { (*i, *j) } else { (*j, *i) };
                    if li <= la && rj > la {
                        let dl = column_distinct(left, li, stats);
                        let dr = column_distinct(right, rj - la, stats);
                        return 1.0 / dl.max(dr);
                    }
                }
            }
            DEFAULT_SELECTIVITY
        })
        .product::<f64>()
        .clamp(0.0, 1.0)
}

/// Estimated execution cost of a plan: tuples touched per operator, with
/// products paying for the full cross size and hash-joinable joins paying
/// build + probe + output.
pub fn estimate_cost(expr: &RelExpr, stats: &CatalogStats) -> f64 {
    let children_cost: f64 = expr
        .children()
        .iter()
        .map(|c| estimate_cost(c, stats))
        .sum();
    let own = match expr {
        RelExpr::Scan(_) | RelExpr::Values(_) => estimate_rows(expr, stats),
        RelExpr::Product(l, r) => estimate_rows(l, stats) * estimate_rows(r, stats),
        RelExpr::Join {
            left,
            right,
            predicate,
        } => {
            let lr = estimate_rows(left, stats);
            let rr = estimate_rows(right, stats);
            let la = arity_guess(left, stats);
            let ra = arity_guess(right, stats);
            let has_equi = predicate.conjuncts().iter().any(|c| {
                matches!(c, ScalarExpr::Cmp(CmpOp::Eq, a, b)
                    if matches!((a.as_ref(), b.as_ref()),
                        (ScalarExpr::Attr(i), ScalarExpr::Attr(j))
                        if (*i <= la && *j > la && *j <= la + ra)
                            || (*j <= la && *i > la && *i <= la + ra)))
            });
            if has_equi {
                // probe(left) + weighted build(right) + output
                lr + HASH_BUILD_FACTOR * rr + estimate_rows(expr, stats)
            } else {
                lr * rr
            }
        }
        _ => estimate_rows(expr, stats),
    };
    children_cost + own
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;

    fn stats() -> CatalogStats {
        let mut cs = CatalogStats::new();
        cs.insert("big", TableStats::synthetic(10_000, 10_000, &[100, 50]));
        cs.insert("small", TableStats::synthetic(10, 10, &[10]));
        cs
    }

    #[test]
    fn scan_and_values_cardinalities() {
        let cs = stats();
        assert_eq!(estimate_rows(&RelExpr::scan("big"), &cs), 10_000.0);
        assert_eq!(estimate_rows(&RelExpr::scan("unknown"), &cs), 1000.0);
    }

    #[test]
    fn equality_selection_uses_distinct() {
        let cs = stats();
        let e = RelExpr::scan("big").select(ScalarExpr::attr(1).eq(ScalarExpr::int(5)));
        // 10000 / 100 distinct = 100
        assert_eq!(estimate_rows(&e, &cs), 100.0);
    }

    #[test]
    fn range_selection_uses_third() {
        let cs = stats();
        let e = RelExpr::scan("big").select(ScalarExpr::attr(1).cmp(CmpOp::Lt, ScalarExpr::int(5)));
        assert!((estimate_rows(&e, &cs) - 10_000.0 / 3.0).abs() < 1.0);
    }

    #[test]
    fn join_cardinality_uses_key_distincts() {
        let cs = stats();
        let e = RelExpr::scan("big").join(
            RelExpr::scan("small"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        // 10000 * 10 / max(100, 10) = 1000
        assert_eq!(estimate_rows(&e, &cs), 1000.0);
    }

    #[test]
    fn product_cost_dominates_hash_join_cost() {
        let cs = stats();
        let join = RelExpr::scan("big").join(
            RelExpr::scan("small"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        let product = RelExpr::scan("big").product(RelExpr::scan("small"));
        assert!(estimate_cost(&join, &cs) < estimate_cost(&product, &cs));
    }

    #[test]
    fn selection_pushdown_lowers_cost() {
        let cs = stats();
        let pred = ScalarExpr::attr(1).eq(ScalarExpr::int(1));
        let outside = RelExpr::scan("big")
            .product(RelExpr::scan("small"))
            .select(pred.clone());
        let inside = RelExpr::scan("big")
            .select(pred)
            .product(RelExpr::scan("small"));
        assert!(estimate_cost(&inside, &cs) < estimate_cost(&outside, &cs));
    }

    #[test]
    fn group_by_groups_capped_by_rows() {
        let cs = stats();
        let e = RelExpr::scan("big").group_by(&[1], mera_expr::Aggregate::Cnt, 1);
        assert_eq!(estimate_rows(&e, &cs), 100.0);
        let e = RelExpr::scan("big").group_by(&[], mera_expr::Aggregate::Cnt, 1);
        assert_eq!(estimate_rows(&e, &cs), 1.0);
    }

    #[test]
    fn hash_join_cost_prefers_small_build_side() {
        // the physical engine builds on the right operand: big ⋈ small
        // (small build) must cost less than small ⋈ big (big build)
        let cs = stats();
        let small_build = RelExpr::scan("big").join(
            RelExpr::scan("small"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        );
        let big_build = RelExpr::scan("small").join(
            RelExpr::scan("big"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(2)),
        );
        assert!(estimate_cost(&small_build, &cs) < estimate_cost(&big_build, &cs));
    }

    #[test]
    fn keyed_distinct_estimate_is_exact() {
        // `big` carries heavy duplication in its statistics (rows ≫ distinct),
        // but a declared key proves distinct = rowcount exactly
        let mut cs = CatalogStats::new();
        cs.insert("big", TableStats::synthetic(10_000, 5_000, &[100, 50]));
        let cat = DatabaseSchema::new()
            .with("big", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh");
        let e = RelExpr::scan("big");
        assert_eq!(estimate_distinct_rows(&e, &cs), 5_000.0);
        let keyed = KeyEnv::from_definitions(&[("big".to_owned(), vec![1])]);
        assert_eq!(
            estimate_distinct_rows_keyed(&e, &cs, &cat, &keyed),
            10_000.0
        );
        // without a key the fallback is the plain estimator
        let unkeyed = KeyEnv::new();
        assert_eq!(
            estimate_distinct_rows_keyed(&e, &cs, &cat, &unkeyed),
            5_000.0
        );
    }
}
