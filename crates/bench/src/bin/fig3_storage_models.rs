//! **Fig. 3** — Costs of the example query on `R` (16 int columns) under
//! every combination of processing model (Volcano / bulk / compiled-"JiT")
//! and storage model (row / column / PDSM-hybrid), across a selectivity
//! sweep.
//!
//! Paper shape to reproduce: Volcano is orders of magnitude above both
//! other models at every selectivity and layout; bulk degrades as
//! selectivity grows (materialization); compiled-on-PDSM is the best line
//! across the sweep.
//!
//! Usage: `cargo run -p pdsm-bench --release --bin fig3_storage_models
//!         [--rows 500000] [--reps 3] [--full]`

use pdsm_bench::{fmt_num, measure, print_table, Args, BulkEngine, VectorizedEngine};
use pdsm_exec::engine::{CompiledEngine, Engine, VolcanoEngine};
use pdsm_storage::Table;
use pdsm_workloads::microbench;
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let rows: usize = args.get("rows", 500_000);
    let reps: usize = args.get("reps", 3);
    let sels: Vec<f64> = if args.has("full") {
        vec![
            0.00001, 0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0,
        ]
    } else {
        vec![0.0001, 0.01, 0.1, 0.5, 1.0]
    };

    println!("Fig. 3 — storage model x processing model, {rows} tuples");
    println!(
        "(row tuple = 64 B; working set row store = {} MB)\n",
        rows * 64 / (1 << 20)
    );

    let vectorized = VectorizedEngine::default();
    let engines: Vec<(&str, &dyn Engine)> = vec![
        ("volcano", &VolcanoEngine),
        ("bulk", &BulkEngine),
        ("vector", &vectorized),
        ("jit", &CompiledEngine),
    ];

    let mut out_rows = Vec::new();
    for &sel in &sels {
        // data is regenerated per selectivity point (A = 0 matches `sel`)
        let base = microbench::generate(rows, sel, pdsm_storage::Layout::row(16), 42);
        let plan = microbench::query(sel);
        for (lname, layout) in microbench::layouts() {
            let t: Table = if lname == "row" {
                base.clone()
            } else {
                base.relayout(layout).expect("relayout")
            };
            let mut db = HashMap::new();
            db.insert("R".to_string(), t);
            for (ename, engine) in &engines {
                let (cyc, ns) = measure(reps, || engine.execute(&plan, &db).expect("run"));
                out_rows.push(vec![
                    format!("{sel}"),
                    lname.to_string(),
                    ename.to_string(),
                    fmt_num(cyc as f64),
                    fmt_num(ns as f64),
                    format!("{:.1}", cyc as f64 / rows as f64),
                ]);
            }
        }
    }
    print_table(
        &[
            "selectivity",
            "layout",
            "engine",
            "cycles",
            "ns",
            "cyc/tuple",
        ],
        &out_rows,
    );
    println!("\nExpected shape (paper): volcano >> bulk, jit; jit+hybrid lowest across sweep;");
    println!("bulk approaches jit at low selectivity, degrades toward s=1 (materialization).");
}
