//! Measured experiment drivers (see `EXPERIMENTS.md` for the index).
//!
//! Each driver builds its workload from the seeded generators, runs the
//! competing strategies, and returns a structured result. The Criterion
//! benches wrap the same workloads for statistically solid timing; the
//! `experiments` binary calls the drivers directly and prints the
//! markdown tables recorded in `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

use mera_core::prelude::*;
use mera_eval::{Engine, ExecStats};
use mera_expr::{Aggregate, RelExpr, ScalarExpr};
use mera_opt::{CatalogStats, Optimizer};
use mera_setalg::{eval_set, eval_set_counting};

use crate::{column_relation, scaled_beer_db};

/// Wall-clock of one closure run (the report binary's coarse timer; the
/// Criterion benches do the rigorous version).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Builds a database holding two single-column relations `e1`, `e2` for
/// set-operation experiments.
pub fn two_column_db(rows: usize, distinct: usize, seed: u64) -> Database {
    let schema = DatabaseSchema::new()
        .with("e1", Schema::named(&[("a", DataType::Int)]))
        .expect("fresh")
        .with("e2", Schema::named(&[("a", DataType::Int)]))
        .expect("fresh");
    let mut db = Database::new(schema);
    db.replace("e1", column_relation(rows, distinct, seed))
        .expect("replace");
    db.replace("e2", column_relation(rows, distinct, seed + 1))
        .expect("replace");
    db
}

// ----------------------------------------------------------------------
// E1 — Theorem 3.1 desugarings
// ----------------------------------------------------------------------

/// The two sides of each Theorem 3.1 identity, as executable plans.
pub fn e1_plans() -> [(&'static str, RelExpr); 4] {
    let e1 = RelExpr::scan("e1");
    let e2 = RelExpr::scan("e2");
    let phi = ScalarExpr::attr(1).eq(ScalarExpr::attr(2));
    [
        ("intersect (native)", e1.clone().intersect(e2.clone())),
        (
            "E1 - (E1 - E2) (desugared)",
            e1.clone().difference(e1.clone().difference(e2.clone())),
        ),
        ("join (native)", e1.clone().join(e2.clone(), phi.clone())),
        ("sigma(product) (desugared)", e1.product(e2).select(phi)),
    ]
}

// ----------------------------------------------------------------------
// E5 — Example 3.2 projection insertion at scale
// ----------------------------------------------------------------------

/// Result of one E5 run.
#[derive(Debug, Clone)]
pub struct PushdownRun {
    /// Beers in the generated database.
    pub n_beers: usize,
    /// Cells entering the group-by without the projection.
    pub direct_cells: u64,
    /// Cells entering the group-by with the optimizer's projection.
    pub reduced_cells: u64,
    /// Wall time of the direct plan.
    pub direct_time: Duration,
    /// Wall time of the optimized plan.
    pub reduced_time: Duration,
}

/// Example 3.2's two plan shapes over a scaled beer database.
pub fn ex32_plans() -> (RelExpr, RelExpr) {
    let join = RelExpr::scan("beer").join(
        RelExpr::scan("brewery"),
        ScalarExpr::attr(2).eq(ScalarExpr::attr(4)),
    );
    let direct = join.clone().group_by(&[6], Aggregate::Avg, 3);
    let reduced = join.project(&[3, 6]).group_by(&[2], Aggregate::Avg, 1);
    (direct, reduced)
}

/// Cells flowing into the group-by operator of a plan.
pub fn gamma_input_cells(expr: &RelExpr, db: &Database) -> CoreResult<u64> {
    let mut stats = ExecStats::new();
    Engine::physical().run_instrumented(expr, db, &mut stats)?;
    let cells = stats.cells_out();
    let gamma = cells
        .iter()
        .position(|(l, _)| l == "group-by")
        .expect("plan contains a group-by");
    Ok(cells[gamma - 1].1)
}

/// Runs E5 for one scale, verifying both plans agree before timing.
pub fn e5_run(n_beers: usize) -> CoreResult<PushdownRun> {
    let db = scaled_beer_db(n_beers, n_beers / 20 + 2, 8, n_beers / 4 + 2, 0xE5);
    let (direct, reduced) = ex32_plans();
    let a = Engine::physical().run(&direct, &db)?;
    let b = Engine::physical().run(&reduced, &db)?;
    assert_eq!(a, b, "plans must agree under bag semantics");
    let direct_cells = gamma_input_cells(&direct, &db)?;
    let reduced_cells = gamma_input_cells(&reduced, &db)?;
    let (_, direct_time) = time_once(|| Engine::physical().run(&direct, &db).expect("executes"));
    let (_, reduced_time) = time_once(|| Engine::physical().run(&reduced, &db).expect("executes"));
    Ok(PushdownRun {
        n_beers,
        direct_cells,
        reduced_cells,
        direct_time,
        reduced_time,
    })
}

// ----------------------------------------------------------------------
// E6 — Example 3.2 correctness divergence under set semantics
// ----------------------------------------------------------------------

/// Result of one E6 run: whether each evaluation strategy got the right
/// per-country averages.
#[derive(Debug, Clone)]
pub struct CorrectnessRun {
    /// Countries whose set-semantics average diverges from the truth when
    /// the projection is inserted.
    pub diverging_countries: usize,
    /// Total countries.
    pub countries: usize,
    /// Largest absolute error introduced by set semantics.
    pub max_abs_error: f64,
}

/// Runs E6 over a scaled beer database.
pub fn e6_run(n_beers: usize) -> CoreResult<CorrectnessRun> {
    let db = scaled_beer_db(n_beers, n_beers / 20 + 2, 8, n_beers / 10 + 2, 0xE6);
    let (direct, reduced) = ex32_plans();
    let truth = Engine::physical().run(&direct, &db)?;
    let set_reduced = eval_set(&reduced, &db)?;
    let mut diverging = 0;
    let mut max_err: f64 = 0.0;
    for (t, _) in truth.iter() {
        let country = t.attr(1)?.clone();
        let avg = t.attr(2)?.as_f64()?;
        let found = set_reduced
            .iter()
            .find(|(s, _)| s.attr(1).ok() == Some(&country))
            .map(|(s, _)| s.attr(2).expect("avg").as_f64().expect("numeric"));
        match found {
            Some(set_avg) if (set_avg - avg).abs() < 1e-9 => {}
            Some(set_avg) => {
                diverging += 1;
                max_err = max_err.max((set_avg - avg).abs());
            }
            None => diverging += 1,
        }
    }
    Ok(CorrectnessRun {
        diverging_countries: diverging,
        countries: truth.len() as usize,
        max_abs_error: max_err,
    })
}

// ----------------------------------------------------------------------
// E7 — the cost of duplicate removal
// ----------------------------------------------------------------------

/// Result of one E7 cell in the size × duplication sweep.
#[derive(Debug, Clone)]
pub struct DedupRun {
    /// Input rows.
    pub rows: usize,
    /// Mean duplication factor (`rows / distinct`).
    pub dup_factor: usize,
    /// Bag-engine wall time.
    pub bag_time: Duration,
    /// Set-engine wall time (deduplicating after every operator).
    pub set_time: Duration,
    /// Tuples the set engine had to scan for deduplication.
    pub dedup_work: u64,
}

/// The E7 query: a union of two filtered relations projected to one
/// column — every step duplicate-producing.
pub fn e7_query() -> RelExpr {
    let half = |name: &str| {
        RelExpr::scan(name)
            .select(ScalarExpr::attr(1).cmp(mera_expr::CmpOp::Ge, ScalarExpr::int(0)))
    };
    half("e1").union(half("e2")).project(&[1])
}

/// Runs one E7 cell.
pub fn e7_run(rows: usize, dup_factor: usize) -> CoreResult<DedupRun> {
    let distinct = (rows / dup_factor).max(1);
    let db = two_column_db(rows, distinct, 0xE7);
    let q = e7_query();
    let (_, bag_time) = time_once(|| Engine::physical().run(&q, &db).expect("bag executes"));
    let ((_, dedup_work), set_time) =
        time_once(|| eval_set_counting(&q, &db).expect("set executes"));
    Ok(DedupRun {
        rows,
        dup_factor,
        bag_time,
        set_time,
        dedup_work,
    })
}

// ----------------------------------------------------------------------
// E12 — optimizer ablation
// ----------------------------------------------------------------------

/// Result of one ablation cell: the standard optimizer with one rule
/// removed, on the Example 3.1-style query.
#[derive(Debug, Clone)]
pub struct AblationRun {
    /// The rule that was dropped ("(none)" for the full set).
    pub dropped: String,
    /// Execution wall time of the resulting plan.
    pub time: Duration,
    /// Estimated cost of the resulting plan.
    pub est_cost: f64,
}

/// The ablation query: the textbook σ-over-product form of Example 3.1
/// followed by the Example 3.2 aggregation — exercises every rule.
pub fn e12_query() -> RelExpr {
    RelExpr::scan("beer")
        .product(RelExpr::scan("brewery"))
        .select(
            ScalarExpr::attr(2)
                .eq(ScalarExpr::attr(4))
                .and(ScalarExpr::attr(6).eq(ScalarExpr::str("C0"))),
        )
        .group_by(&[6], Aggregate::Avg, 3)
}

/// Runs the ablation sweep on one database scale.
pub fn e12_run(n_beers: usize) -> CoreResult<Vec<AblationRun>> {
    let db = scaled_beer_db(n_beers, n_beers / 20 + 2, 8, n_beers / 4 + 2, 0xE12);
    let stats = CatalogStats::from_database(&db)?;
    let q = e12_query();
    let full = Optimizer::standard();
    let mut configs: Vec<(String, Optimizer)> = vec![("(none)".into(), Optimizer::standard())];
    for rule in full.rule_names() {
        configs.push((rule.to_owned(), Optimizer::standard_without(&[rule])));
    }
    let reference =
        Engine::physical().run(&Optimizer::standard().optimize(&q, db.schema())?.expr, &db)?;
    let mut out = Vec::with_capacity(configs.len());
    for (dropped, opt) in configs {
        let plan = opt.optimize(&q, db.schema())?.expr;
        let result = Engine::physical().run(&plan, &db)?;
        assert_eq!(result, reference, "ablated optimizer changed semantics");
        let (_, time) = time_once(|| Engine::physical().run(&plan, &db).expect("executes"));
        out.push(AblationRun {
            dropped,
            time,
            est_cost: mera_opt::cost::estimate_cost(&plan, &stats),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_plans_pairwise_equal() {
        let db = two_column_db(300, 40, 1);
        let plans = e1_plans();
        let a = Engine::physical()
            .run(&plans[0].1, &db)
            .expect("native intersect");
        let b = Engine::physical()
            .run(&plans[1].1, &db)
            .expect("desugared intersect");
        assert_eq!(a, b);
        let c = Engine::physical()
            .run(&plans[2].1, &db)
            .expect("native join");
        let d = Engine::physical()
            .run(&plans[3].1, &db)
            .expect("desugared join");
        assert_eq!(c, d);
    }

    #[test]
    fn e5_projection_reduces_gamma_input() {
        let run = e5_run(2_000).expect("runs");
        assert!(
            run.reduced_cells < run.direct_cells,
            "projection must shrink the group-by input: {run:?}"
        );
        // exactly 3× narrower: 2 of 6 attributes survive
        assert_eq!(run.direct_cells, 3 * run.reduced_cells);
    }

    #[test]
    fn e6_set_semantics_diverges_at_scale() {
        let run = e6_run(2_000).expect("runs");
        assert!(
            run.diverging_countries > 0,
            "set semantics should corrupt at least one average: {run:?}"
        );
        assert!(run.max_abs_error > 0.0);
    }

    #[test]
    fn e7_set_engine_does_dedup_work() {
        let run = e7_run(5_000, 10).expect("runs");
        // scan dedup ×2 + union dedup + projection dedup > input size
        assert!(run.dedup_work > 10_000, "{run:?}");
    }

    #[test]
    fn e12_ablation_preserves_results() {
        // semantics preservation is asserted inside e12_run itself
        let runs = e12_run(1_000).expect("runs");
        assert!(runs.len() >= 8);
        // the full optimizer must beat the *unoptimized* plan's estimate
        let db = scaled_beer_db(1_000, 52, 8, 252, 0xE12);
        let stats = CatalogStats::from_database(&db).expect("analyze");
        let raw_cost = mera_opt::cost::estimate_cost(&e12_query(), &stats);
        assert!(
            runs[0].est_cost < raw_cost,
            "full optimizer ({}) should beat the raw plan ({raw_cost})",
            runs[0].est_cost
        );
    }
}
