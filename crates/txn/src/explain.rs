//! EXPLAIN — render the plan an expression actually gets.
//!
//! The rendering has two sections. The **plan** section prints the
//! optimized logical tree — the join order the cost model chose — with
//! the estimator's row count at every node. The **execution** section
//! runs the expression on the instrumented physical engine, under the
//! configured options and the same access-path policy as the live engine
//! (index lookups for covered point selections, index-nested-loop joins
//! where the cost model hinted them), and prints the rows that actually
//! flowed out of every operator, bottom-up; operators that took an index
//! carry `index_lookup(r)` / `index_nl_join(r)` labels. Reading the two
//! sections side by side answers the planner-debugging questions: which
//! join order, which access paths, and how far off the estimates were.
//!
//! EXPLAIN executes on the physical engine regardless of
//! [`ExecConfig::engine`] (the reference evaluator has no operators to
//! count), at [`ExecConfig::options`]' worker count: the counters are
//! totals over all workers, so the output is the same at every worker
//! count and deterministic (golden-file testable).

use std::fmt::Write as _;

use mera_analyze::{infer_props, KeyEnv};
use mera_core::prelude::*;
use mera_eval::{Engine, ExecStats};
use mera_expr::rel::RelExpr;
use mera_opt::{estimate_rows, CatalogStats};

use crate::exec::{plan, with_access_paths, ExecConfig, WorkingSchemas, WorkingState};

/// Renders the chosen plan for `expr` against a working state: join
/// order, access paths, and estimated-vs-actual cardinality per operator
/// (see the module docs for the format).
pub fn explain_expr(
    state: &WorkingState<'_>,
    expr: &RelExpr,
    config: ExecConfig,
) -> CoreResult<String> {
    // the plan `eval_expr` runs, so EXPLAIN shows what the live engine
    // would actually do
    let expr = &plan(state, expr)?;
    let provider = WorkingSchemas(state);

    let stats: &CatalogStats = state.version.stats();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan (cost-based, statistics as of t={}):",
        state.version.time()
    );
    // annotate each node with its inferred structural properties (keys,
    // duplicate-freeness, constants) under the same dirtied-gated key
    // environment the optimizer saw — a `[key: …, set]` tag explains *why*
    // a δ disappeared or a γ simplified
    let key_env = state.key_env();
    render_node(&mut out, expr, stats, &provider, &key_env, 1);

    // the same access-path policy as `eval_expr`
    let engine = with_access_paths(Engine::physical().with_options(config.options), state, expr)?;
    let mut exec_stats = ExecStats::new();
    let result = engine.run_instrumented(expr, state, &mut exec_stats)?;

    let _ = writeln!(out, "execution (instrumented physical engine):");
    for (label, rows) in exec_stats.rows_out() {
        let _ = writeln!(out, "  {rows:>8}  {label}");
    }
    let _ = writeln!(
        out,
        "output: {} rows (estimated {})",
        result.len(),
        est(expr, stats)
    );
    Ok(out)
}

/// The estimator's row count for a node, rounded for display.
fn est(expr: &RelExpr, stats: &CatalogStats) -> u64 {
    estimate_rows(expr, stats).round() as u64
}

fn render_node(
    out: &mut String,
    expr: &RelExpr,
    stats: &CatalogStats,
    provider: &WorkingSchemas<'_>,
    env: &KeyEnv,
    depth: usize,
) {
    let props = infer_props(expr, provider, env).render();
    let _ = writeln!(
        out,
        "{:indent$}{}  est={}{}{}",
        "",
        label(expr),
        est(expr, stats),
        if props.is_empty() { "" } else { "  " },
        props,
        indent = depth * 2
    );
    for child in expr.children() {
        render_node(out, child, stats, provider, env, depth + 1);
    }
}

/// One-line operator label: enough detail to identify the node (the
/// predicate for selections and joins, the relation for scans) without
/// repeating whole subtrees.
fn label(expr: &RelExpr) -> String {
    match expr {
        RelExpr::Scan(name) => format!("scan({name})"),
        RelExpr::Values(rel) => format!("values[{} rows]", rel.len()),
        RelExpr::Select { predicate, .. } => format!("select[{predicate}]"),
        RelExpr::Join { predicate, .. } => format!("join[{predicate}]"),
        RelExpr::GroupBy { agg, attr, .. } => format!("groupby[{agg} %{attr}]"),
        other => other.op_name().to_owned(),
    }
}
