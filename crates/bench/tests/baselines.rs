//! The Fig.-3 baselines where they now live: [`BulkEngine`], and
//! [`VectorizedEngine`] wherever it supports the plan shape, agree with the
//! Volcano oracle on every plan the figures run them on — the
//! microbenchmark under all three layouts and every SAP-SD, CH and CNET
//! query — over plain tables. And neither ever runs over a pending delta.

use pdsm_bench::{BulkEngine, VectorizedEngine};
use pdsm_exec::{Engine, ExecError, Overlay, TableProvider, VolcanoEngine};
use pdsm_plan::logical::LogicalPlan;
use pdsm_storage::{Layout, Table};
use pdsm_workloads::{ch, cnet, microbench, sapsd};
use std::collections::HashMap;

fn by_name(tables: Vec<Table>) -> HashMap<String, Table> {
    tables
        .into_iter()
        .map(|t| (t.name().to_string(), t))
        .collect()
}

fn assert_baselines_agree(plan: &LogicalPlan, db: &HashMap<String, Table>, ctx: &str) {
    let oracle = VolcanoEngine.execute(plan, db).unwrap();
    let bulk = BulkEngine.execute(plan, db).unwrap();
    oracle.assert_same(&bulk, &format!("{ctx}: Volcano vs bulk"));
    if VectorizedEngine::supports(plan) {
        let vectorized = VectorizedEngine::default().execute(plan, db).unwrap();
        oracle.assert_same(&vectorized, &format!("{ctx}: Volcano vs vectorized"));
    }
}

#[test]
fn baselines_agree_with_volcano_on_every_figure_plan() {
    for sel in [0.0001, 0.01, 0.1, 0.5, 1.0] {
        let base = microbench::generate(10_000, sel, Layout::row(microbench::N_COLS), 42);
        for (lname, layout) in microbench::layouts() {
            let db = by_name(vec![base.relayout(layout).unwrap()]);
            let ctx = format!("micro sel={sel} {lname}");
            assert_baselines_agree(&microbench::query(sel), &db, &ctx);
        }
    }
    let db = by_name(sapsd::tables(120, 11));
    for q in sapsd::queries(120) {
        if let Some(plan) = q.as_plan() {
            assert_baselines_agree(plan, &db, &format!("SAP-SD {}", q.name));
        }
    }
    let db = by_name(ch::tables(1, 3));
    for q in ch::queries() {
        assert_baselines_agree(q.as_plan().unwrap(), &db, &format!("CH {}", q.name));
    }
    let db = by_name(vec![cnet::generate(400, 60, 11, 5)]);
    for q in cnet::queries("laptops", 40, 123) {
        assert_baselines_agree(q.as_plan().unwrap(), &db, &format!("CNET {}", q.name));
    }
}

/// Plain tables plus an overlay on every one of them.
struct Pending<'a> {
    tables: &'a HashMap<String, Table>,
    overlay: Overlay<'a>,
}

impl TableProvider for Pending<'_> {
    fn shape(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    fn overlay(&self, _name: &str) -> Option<Overlay<'_>> {
        Some(self.overlay)
    }
}

#[test]
fn a_pending_delta_is_refused_not_ignored() {
    let db = by_name(vec![microbench::generate(
        100,
        0.1,
        microbench::pdsm_layout(),
        3,
    )]);
    let dead = [true];
    let pending = Pending {
        tables: &db,
        overlay: Overlay {
            dead: &dead,
            tail: &[],
            tail_alive: &[],
        },
    };
    let plan = microbench::query(0.1);
    let vectorized = VectorizedEngine::default();
    for engine in [&BulkEngine as &dyn Engine, &vectorized] {
        assert!(engine.execute(&plan, &db).is_ok(), "{}", engine.name());
        assert!(
            matches!(
                engine.execute(&plan, &pending),
                Err(ExecError::Unsupported(_))
            ),
            "{} ran over a pending delta",
            engine.name()
        );
    }
}
