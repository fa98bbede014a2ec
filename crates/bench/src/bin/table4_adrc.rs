//! **Table IV** — decomposition of the SAP-SD `ADRC` table from queries Q1
//! and Q3: the extended reasonable cuts the workload generates and the BPi
//! solution, printed with column names for comparison against the paper's
//! `{{NAME1},{NAME2},{KUNNR},{ADDRNUMBER,NAME_CO},{*}}`.
//!
//! Usage: `cargo run -p pdsm-bench --release --bin table4_adrc [--rows 200000]`

use pdsm_bench::Args;
use pdsm_core::{Database, LayoutAdvisor};
use pdsm_layout::bpi::{optimize_table, OptimizerConfig};
use pdsm_layout::cuts::extended_reasonable_cuts;
use pdsm_layout::workload::{Workload, WorkloadQuery};
use pdsm_workloads::sapsd;

fn main() {
    let args = Args::parse();
    let rows: usize = args.get("rows", 200_000);
    let scale = rows / 2 * 10; // ADRC gets 2 rows per customer = scale/10*2

    let db = Database::new();
    for t in sapsd::tables(scale.max(100), 7) {
        db.register(t);
    }
    let queries = sapsd::queries(scale.max(100));
    let mut workload = Workload::new();
    for q in &queries {
        if q.name == "Q1" || q.name == "Q3" {
            workload.push(WorkloadQuery::new(
                q.name.clone(),
                q.as_plan().unwrap().clone(),
            ));
        }
    }

    let advisor = LayoutAdvisor::default();
    let views = advisor.views(&db);
    let names = sapsd::ADRC_COLS;
    let pretty = |cols: &[usize]| {
        let mut s = String::from("{");
        for (i, &c) in cols.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(names.get(c).copied().unwrap_or("?"));
        }
        s.push('}');
        s
    };

    println!("Table IV(a) — queries: Q1 (NAME1 like $1 [or] NAME2 like $2), Q3 (KUNNR = $1)\n");

    let groups = workload.access_groups(&views, "ADRC");
    let cuts = extended_reasonable_cuts(&groups);
    println!("Table IV(b) — extended reasonable cuts ({}):", cuts.len());
    for c in &cuts {
        println!("  {}", pretty(&c.0));
    }

    let opt = optimize_table(
        "ADRC",
        &views,
        &workload,
        &advisor.hierarchy,
        &OptimizerConfig::default(),
    );
    println!(
        "\nTable IV(c) — BPi solution ({} states explored):",
        opt.states_explored
    );
    for g in opt.layout.groups() {
        println!("  {}", pretty(g));
    }
    println!("\npaper:   {{NAME1}} {{NAME2}} {{KUNNR}} {{ADDRNUMBER,NAME_CO}} {{*}}");
    println!("(the {{*}} partition holds the columns no query touches)");
}
