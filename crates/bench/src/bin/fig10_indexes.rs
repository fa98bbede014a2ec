//! **Fig. 10** — hybrid storage with and without indexes: SAP-SD Q6
//! (insert, index maintenance), Q7 and Q8 (identity selects) on row /
//! column / hybrid layouts.
//!
//! Indexes per the paper: hash indexes on the primary keys (`KNA1.KUNNR`),
//! and one ordered index on `VBAP(VBELN)` (the paper's RB-tree). Both are
//! `pdsm-index`'s one sorted index; the declared kind lets the ordered
//! one serve ranges too.
//!
//! Usage: `cargo run -p pdsm-bench --release --bin fig10_indexes
//!         [--scale 20000] [--reps 5]`

use pdsm_bench::{fmt_num, measure, print_table, Args};
use pdsm_core::{Database, EngineKind, IndexKind};
use pdsm_storage::Layout;
use pdsm_workloads::sapsd;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn build_db(scale: usize, columnar: Option<&str>, indexed: bool) -> Database {
    let db = Database::new();
    for t in sapsd::tables(scale, 7) {
        db.register(t);
    }
    match columnar {
        Some("column") => {
            for name in db.table_names() {
                let w = db.get_table(&name).unwrap().schema().len();
                db.relayout(&name, Layout::column(w)).unwrap();
            }
        }
        Some("hybrid") => {
            // KNA1: key alone; VBAP: keys alone, rest together — a
            // representative PDSM decomposition for the lookup queries.
            let kna1_w = db.get_table("KNA1").unwrap().schema().len();
            let groups = vec![vec![0], (1..kna1_w).collect::<Vec<_>>()];
            db.relayout("KNA1", Layout::from_groups(groups, kna1_w).unwrap())
                .unwrap();
            let vbap_w = db.get_table("VBAP").unwrap().schema().len();
            let groups = vec![vec![0, 1], (2..vbap_w).collect::<Vec<_>>()];
            db.relayout("VBAP", Layout::from_groups(groups, vbap_w).unwrap())
                .unwrap();
        }
        _ => {}
    }
    if indexed {
        db.create_index("KNA1", "KUNNR", IndexKind::Hash).unwrap();
        db.create_index("VBAP", "VBELN", IndexKind::RBTree).unwrap();
    }
    db
}

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 20_000);
    let reps: usize = args.get("reps", 5);
    let queries = sapsd::queries(scale);
    let q7 = queries[6].as_plan().unwrap().clone();
    let q8 = queries[7].as_plan().unwrap().clone();

    println!("Fig. 10 — indexed vs unindexed Q6/Q7/Q8, scale {scale}\n");
    let mut rows = Vec::new();
    for layout in ["row", "column", "hybrid"] {
        for indexed in [false, true] {
            let db = build_db(scale, Some(layout), indexed);
            let tag = if indexed { "indexed" } else { "unindexed" };

            // Q6: 1000 inserts incl. index maintenance; the database is
            // prepared outside the timed region.
            let db2 = build_db(scale, Some(layout), indexed);
            let mut rng = SmallRng::seed_from_u64(5);
            let base = db2.get_table("VBAP").unwrap().len() as i32;
            let ins_rows: Vec<_> = (0..1000)
                .map(|k| sapsd::vbap_row(&mut rng, base + k, 10))
                .collect();
            let c0 = pdsm_bench::cycles_now();
            for row in &ins_rows {
                db2.insert("VBAP", row).unwrap();
            }
            let cyc = pdsm_bench::cycles_now().wrapping_sub(c0);
            rows.push(vec![
                "Q6 (1000 ins)".into(),
                layout.into(),
                tag.into(),
                fmt_num(cyc as f64),
            ]);

            for (name, plan) in [("Q7", &q7), ("Q8", &q8)] {
                let (cyc, _) = measure(reps, || {
                    db.run_indexed(plan, EngineKind::Compiled).expect("query")
                });
                rows.push(vec![
                    name.into(),
                    layout.into(),
                    tag.into(),
                    fmt_num(cyc as f64),
                ]);
            }
        }
    }
    print_table(&["query", "layout", "mode", "cycles"], &rows);
    println!("\nExpected shape (paper): index maintenance cost on inserts is negligible;");
    println!("Q7/Q8 gain >1000x (column) and >10000x (row) from indexes; with indexes the");
    println!("row store beats the column store (tuple reconstruction dominates).");
}
