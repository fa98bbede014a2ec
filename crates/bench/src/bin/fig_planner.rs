//! **fig_planner** — planner-chosen execution vs every fixed engine.
//!
//! The dispatch-layer claim behind `Database::execute`: routing every query
//! through the cost-based planner should track the best fixed engine (and
//! beat any single fixed choice across a mixed workload), because the model
//! picks scan-vs-index per access path and the cheapest engine per plan.
//!
//! Two workloads:
//! * the Fig.-3 microbenchmark across selectivities and layouts,
//! * the SAP-SD query set with the paper's indexes (hash on `KNA1.KUNNR`,
//!   RB-tree on `VBAP.VBELN`).
//!
//! Usage: `cargo run -p pdsm-bench --release --bin fig_planner
//!         [--rows 1000000] [--scale 20000] [--reps 3]`

use pdsm_bench::{fmt_num, measure, print_table, Args};
use pdsm_core::{Database, EngineKind, IndexKind};
use pdsm_workloads::{microbench, sapsd};

/// Median cycles of planner-routed execution plus each fixed engine;
/// returns `(planner, per-engine)` rows.
fn race(
    db: &Database,
    plan: &pdsm_plan::logical::LogicalPlan,
    reps: usize,
) -> (u64, Vec<(EngineKind, u64)>) {
    let (planner_cyc, _) = measure(reps, || db.execute(plan).expect("planner run"));
    let mut fixed = Vec::new();
    for kind in EngineKind::all() {
        let (cyc, _) = measure(reps, || db.run(plan, kind).expect("fixed run"));
        fixed.push((kind, cyc));
    }
    (planner_cyc, fixed)
}

/// All fixed-engine timings rendered into one table cell.
fn engine_cell(fixed: &[(EngineKind, u64)]) -> String {
    fixed
        .iter()
        .map(|(kind, cyc)| format!("{kind:?}={}", fmt_num(*cyc as f64)))
        .collect::<Vec<_>>()
        .join(" ")
}

fn headline(db: &Database, plan: &pdsm_plan::logical::LogicalPlan) -> String {
    let phys = db.plan_query(plan).expect("plan");
    let access = if phys.access().is_indexed() {
        "index"
    } else {
        "scan"
    };
    format!("{access}/{}", phys.engine)
}

fn main() {
    let args = Args::parse();
    let rows: usize = args.get("rows", 1_000_000);
    let scale: usize = args.get("scale", 20_000);
    let reps: usize = args.get("reps", 3);

    println!("fig_planner — planner-chosen vs fixed engines\n");

    // --- microbenchmark: selectivity sweep × layouts ---
    let mut table = Vec::new();
    for (lname, layout) in microbench::layouts() {
        let db = Database::new();
        db.register(microbench::generate(rows, 0.05, layout, 1));
        for sel in [0.001, 0.01, 0.1, 0.5] {
            let plan = microbench::query(sel);
            let (planner_cyc, fixed) = race(&db, &plan, reps);
            let best = fixed.iter().map(|(_, c)| *c).min().unwrap_or(planner_cyc);
            table.push(vec![
                format!("micro sel={sel}"),
                lname.to_string(),
                headline(&db, &plan),
                fmt_num(planner_cyc as f64),
                format!("{:.2}", planner_cyc as f64 / best.max(1) as f64),
                engine_cell(&fixed),
            ]);
        }
    }
    print_table(
        &[
            "query",
            "layout",
            "chosen",
            "planner cyc",
            "vs best",
            "fixed engines",
        ],
        &table,
    );

    // --- SAP-SD with the paper's indexes ---
    let db = Database::new();
    for t in sapsd::tables(scale, 7) {
        db.register(t);
    }
    db.create_index("KNA1", "KUNNR", IndexKind::Hash).unwrap();
    db.create_index("VBAP", "VBELN", IndexKind::RBTree).unwrap();

    let mut table = Vec::new();
    for q in sapsd::queries(scale) {
        let Some(plan) = q.as_plan() else { continue };
        let (planner_cyc, fixed) = race(&db, plan, reps);
        let best = fixed.iter().map(|(_, c)| *c).min().unwrap_or(planner_cyc);
        table.push(vec![
            q.name.clone(),
            headline(&db, plan),
            fmt_num(planner_cyc as f64),
            format!("{:.2}", planner_cyc as f64 / best.max(1) as f64),
            engine_cell(&fixed),
        ]);
    }
    println!("\nSAP-SD (scale {scale}, indexed):");
    print_table(
        &["query", "chosen", "planner cyc", "vs best", "fixed engines"],
        &table,
    );

    println!("\nExpected shape: 'vs best' stays near 1.0 everywhere (the planner tracks");
    println!("the fastest fixed engine), and identity selects route through the index.");
}
