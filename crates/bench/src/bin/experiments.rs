//! Experiment report generator: runs every measured experiment from
//! `EXPERIMENTS.md` and prints the markdown tables recorded there.
//!
//! Usage: `cargo run --release -p mera-bench --bin experiments [--quick]`
//!
//! `--quick` shrinks the sweep sizes (used in CI and by the test suite);
//! the full run takes a couple of minutes. Timings are single-shot
//! wall-clock; the Criterion benches (`cargo bench`) are the
//! statistically careful version of the same workloads.

use mera_bench::experiments::two_column_db;
use mera_bench::experiments::*;
use mera_bench::scaled_beer_db;
use mera_eval::Engine;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 1 } else { 10 };

    println!("# mera experiment report\n");
    println!(
        "workloads: seeded generators (see `mera-bench`); times are \
         single-shot wall clock on this machine.\n"
    );

    e1_report(scale);
    e5_report(scale);
    e6_report(scale);
    e7_report(scale);
    e12_report(scale);
}

/// E1 — Theorem 3.1: native operators vs their desugared forms.
fn e1_report(scale: usize) {
    println!("## E1 — Theorem 3.1 desugarings (native vs desugared)\n");
    println!("| rows | plan | result rows | time |");
    println!("|---|---|---|---|");
    for rows in [2_000 * scale, 10_000 * scale] {
        let db = two_column_db(rows, rows / 10, 0xE1);
        for (label, plan) in e1_plans() {
            let (out, t) = time_once(|| Engine::physical().run(&plan, &db).expect("executes"));
            println!("| {rows} | {label} | {} | {t:.2?} |", out.len());
        }
    }
    println!();
}

/// E5 — Example 3.2: projection insertion before group-by.
fn e5_report(scale: usize) {
    println!("## E5 — Example 3.2 projection insertion (bag semantics)\n");
    println!("| beers | γ-input cells (direct) | γ-input cells (reduced) | reduction | t(direct) | t(reduced) |");
    println!("|---|---|---|---|---|---|");
    for n in [1_000 * scale, 5_000 * scale, 20_000 * scale] {
        let run = e5_run(n).expect("e5 runs");
        println!(
            "| {} | {} | {} | {:.1}x | {:.2?} | {:.2?} |",
            run.n_beers,
            run.direct_cells,
            run.reduced_cells,
            run.direct_cells as f64 / run.reduced_cells as f64,
            run.direct_time,
            run.reduced_time,
        );
    }
    println!();
}

/// E6 — set semantics corrupts aggregates when the projection is
/// inserted.
fn e6_report(scale: usize) {
    println!("## E6 — Example 3.2 under set semantics (correctness)\n");
    println!("| beers | countries | diverging averages | max abs error |");
    println!("|---|---|---|---|");
    // the set baseline evaluates ⋈ as literal σ(×) — correctness needs no
    // scale, so the sweep is capped independently of the global scale
    let cap = if scale > 1 { 10 } else { scale };
    for n in [1_000 * cap.min(2), 5_000 * cap.min(2)] {
        let run = e6_run(n).expect("e6 runs");
        println!(
            "| {n} | {} | {} | {:.4} |",
            run.countries, run.diverging_countries, run.max_abs_error
        );
    }
    println!();
}

/// E7 — the cost of duplicate removal: bag engine vs dedup-everywhere.
fn e7_report(scale: usize) {
    println!("## E7 — duplicate-removal cost (bag engine vs set engine)\n");
    println!("| rows | dup factor | t(bag) | t(set) | set/bag | dedup work (tuples) |");
    println!("|---|---|---|---|---|---|");
    for rows in [10_000 * scale, 50_000 * scale] {
        for dup in [1, 10, 100] {
            let run = e7_run(rows, dup).expect("e7 runs");
            println!(
                "| {} | {} | {:.2?} | {:.2?} | {:.2}x | {} |",
                run.rows,
                run.dup_factor,
                run.bag_time,
                run.set_time,
                run.set_time.as_secs_f64() / run.bag_time.as_secs_f64().max(1e-9),
                run.dedup_work,
            );
        }
    }
    println!();
}

/// E12 — optimizer ablation.
fn e12_report(scale: usize) {
    println!("## E12 — optimizer ablation (Example 3.1+3.2 pipeline)\n");
    // the ablation necessarily runs *unoptimized* (quadratic) plans, so
    // the sweep size is capped independently of the global scale
    let n = if scale > 1 { 10_000 } else { 5_000 };
    println!("(beer database with {n} beers)\n");
    println!("| dropped rule | plan time | estimated cost |");
    println!("|---|---|---|");
    for run in e12_run(n).expect("e12 runs") {
        println!(
            "| {} | {:.2?} | {:.0} |",
            run.dropped, run.time, run.est_cost
        );
    }
    println!();
    let db = scaled_beer_db(n, n / 20 + 2, 8, n / 4 + 2, 0xE12);
    let stats = mera_opt::CatalogStats::from_database(&db).expect("analyze");
    let raw = mera_opt::cost::estimate_cost(&e12_query(), &stats);
    let (_, raw_time) = time_once(|| Engine::physical().run(&e12_query(), &db).expect("executes"));
    println!("| (no optimizer at all) | {raw_time:.2?} | {raw:.0} |\n");
}
