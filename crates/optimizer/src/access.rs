//! Cost-based access-path selection: index-nested-loop versus hash join.
//!
//! The physical engine (`mera-eval`) can execute an equi-join whose right
//! side scans an indexed base relation as an *index-nested-loop* join —
//! probing the maintained hash index per left row instead of building a
//! fresh hash table over the right side. Whether that wins is a
//! statistics question: a probe is random access
//! ([`INDEX_PROBE_FACTOR`](crate::cost::INDEX_PROBE_FACTOR) × a streamed
//! row), but the build side is skipped entirely, so the index pays off
//! exactly when the probe side is smaller than the indexed side.
//!
//! The decision is communicated as [`IndexJoinHints`] — `(relation,
//! sorted key attrs)` pairs the physical planner is allowed to take the
//! index path for. Unhinted joins keep the hash-join default, so a stale
//! or missing statistic degrades the plan, never its correctness.

use mera_core::prelude::*;
use mera_eval::physical::join::extract_equi_condition;
use mera_eval::IndexJoinHints;
use mera_expr::{RelExpr, SchemaProvider};

use crate::cost::{estimate_rows, INDEX_PROBE_FACTOR};
use crate::stats::CatalogStats;

/// Walks `expr` and returns the joins that should execute as
/// index-nested-loop, given the available index definitions (`(relation,
/// sorted key attrs)`, as reported by the catalog's `IndexSet`).
///
/// A join qualifies when its right side is a bare scan of an indexed
/// relation, some index's key set is covered by the cross-side equality
/// conjuncts (leftover equalities become residual filters on the probe
/// result), and the cost model ranks probing cheaper than building:
/// `probe_factor · |L| < |L| + |R|`. Among usable indexes the one
/// matching the most equi keys wins — more matched keys mean a more
/// selective probe.
pub fn choose_access_paths<P: SchemaProvider>(
    expr: &RelExpr,
    stats: &CatalogStats,
    index_defs: &[(String, Vec<usize>)],
    provider: &P,
) -> CoreResult<IndexJoinHints> {
    let mut hints = IndexJoinHints::default();
    if index_defs.is_empty() {
        return Ok(hints);
    }
    walk(expr, stats, index_defs, provider, &mut hints)?;
    Ok(hints)
}

fn walk<P: SchemaProvider>(
    expr: &RelExpr,
    stats: &CatalogStats,
    index_defs: &[(String, Vec<usize>)],
    provider: &P,
    hints: &mut IndexJoinHints,
) -> CoreResult<()> {
    for child in expr.children() {
        walk(child, stats, index_defs, provider, hints)?;
    }
    let RelExpr::Join {
        left,
        right,
        predicate,
    } = expr
    else {
        return Ok(());
    };
    let RelExpr::Scan(rel) = right.as_ref() else {
        return Ok(());
    };
    let la = left.schema(provider)?.arity();
    let ra = right.schema(provider)?.arity();
    // the right-side equi keys, sorted and deduped: an index need only
    // match a subset of them, because the executor re-checks leftover
    // equalities (and every other conjunct) as a residual filter
    let Some(cond) = extract_equi_condition(predicate, la, ra) else {
        return Ok(());
    };
    let mut keys = cond.right_keys;
    keys.sort_unstable();
    keys.dedup();
    // best usable index: every index key must be an equi key (the probe
    // must bind the full index key), ties broken toward the longest —
    // and then lexicographically smallest — key set
    let mut best: Option<&Vec<usize>> = None;
    for (r, k) in index_defs {
        if r != rel || !k.iter().all(|a| keys.contains(a)) {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => k.len() > b.len() || (k.len() == b.len() && k < b),
        };
        if better {
            best = Some(k);
        }
    }
    let Some(index_keys) = best else {
        return Ok(());
    };
    let probe_rows = estimate_rows(left, stats);
    let build_rows = estimate_rows(right, stats);
    // hash join pays build + probe; index-nested-loop pays dearer probes
    // but no build — output cost is identical on both sides
    if INDEX_PROBE_FACTOR * probe_rows < probe_rows + build_rows {
        hints.insert((rel.clone(), index_keys.clone()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TableStats;
    use mera_expr::ScalarExpr;

    fn catalog() -> DatabaseSchema {
        DatabaseSchema::new()
            .with("fact", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh")
            .with("dim", Schema::anon(&[DataType::Int, DataType::Int]))
            .expect("fresh")
    }

    fn stats(fact_rows: u64, dim_rows: u64) -> CatalogStats {
        let mut cs = CatalogStats::new();
        cs.insert(
            "fact",
            TableStats::synthetic(fact_rows, fact_rows, &[100, 100]),
        );
        cs.insert(
            "dim",
            TableStats::synthetic(dim_rows, dim_rows, &[100, 100]),
        );
        cs
    }

    fn join() -> RelExpr {
        RelExpr::scan("fact").join(
            RelExpr::scan("dim"),
            ScalarExpr::attr(1).eq(ScalarExpr::attr(3)),
        )
    }

    #[test]
    fn small_probe_side_takes_the_index() {
        let cat = catalog();
        let defs = vec![("dim".to_owned(), vec![1])];
        // 10 probes against a 10_000-row indexed side: skip the build
        let hints = choose_access_paths(&join(), &stats(10, 10_000), &defs, &cat).expect("chooses");
        assert!(hints.contains(&("dim".to_owned(), vec![1])));
    }

    #[test]
    fn large_probe_side_keeps_hash_join() {
        let cat = catalog();
        let defs = vec![("dim".to_owned(), vec![1])];
        // 10_000 probes against a 10-row build: hash join wins
        let hints = choose_access_paths(&join(), &stats(10_000, 10), &defs, &cat).expect("chooses");
        assert!(hints.is_empty());
    }

    #[test]
    fn unindexed_keys_never_hinted() {
        let cat = catalog();
        let defs = vec![("dim".to_owned(), vec![2])]; // wrong column
        let hints = choose_access_paths(&join(), &stats(10, 10_000), &defs, &cat).expect("chooses");
        assert!(hints.is_empty());
    }

    #[test]
    fn partial_key_index_is_hinted_for_multi_key_joins() {
        let cat = catalog();
        // two equi conjuncts (%1 = %3 ∧ %2 = %4), but only a single-column
        // index on dim: the probe binds [1], the leftover equality is
        // residual-filtered by the executor
        let e = RelExpr::scan("fact").join(
            RelExpr::scan("dim"),
            ScalarExpr::attr(1)
                .eq(ScalarExpr::attr(3))
                .and(ScalarExpr::attr(2).eq(ScalarExpr::attr(4))),
        );
        let defs = vec![("dim".to_owned(), vec![1])];
        let hints = choose_access_paths(&e, &stats(10, 10_000), &defs, &cat).expect("chooses");
        assert!(hints.contains(&("dim".to_owned(), vec![1])));

        // a composite index covering both keys is preferred over the
        // single-column one — more bound keys, more selective probe
        let defs = vec![("dim".to_owned(), vec![1]), ("dim".to_owned(), vec![1, 2])];
        let hints = choose_access_paths(&e, &stats(10, 10_000), &defs, &cat).expect("chooses");
        assert_eq!(hints.len(), 1);
        assert!(hints.contains(&("dim".to_owned(), vec![1, 2])));
    }

    #[test]
    fn nested_joins_are_visited() {
        let cat = catalog();
        let defs = vec![("dim".to_owned(), vec![1])];
        let e = join().select(ScalarExpr::attr(2).eq(ScalarExpr::int(1)));
        let hints = choose_access_paths(&e, &stats(10, 10_000), &defs, &cat).expect("chooses");
        assert_eq!(hints.len(), 1);
    }
}
