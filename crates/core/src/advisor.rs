//! The layout advisor: workload in, per-table layouts out (§V end-to-end).

use crate::database::{Database, DbError};
use pdsm_cost::Hierarchy;
use pdsm_layout::bpi::{optimize_table, OptimizerConfig};
use pdsm_layout::workload::Workload;
use pdsm_plan::patterns::TableView;
use pdsm_storage::Layout;
use std::collections::HashMap;

/// Outcome of advising one table.
#[derive(Debug, Clone)]
pub struct TableAdvice {
    pub table: String,
    pub layout: Layout,
    pub estimated_cost: f64,
    pub row_cost: f64,
    pub column_cost: f64,
}

/// Full advisor report.
#[derive(Debug, Clone, Default)]
pub struct AdvisorReport {
    pub tables: Vec<TableAdvice>,
}

impl AdvisorReport {
    /// Estimated workload speed-up of the advised layouts over row storage.
    pub fn speedup_vs_row(&self) -> f64 {
        let row: f64 = self.tables.iter().map(|t| t.row_cost).sum();
        let opt: f64 = self.tables.iter().map(|t| t.estimated_cost).sum();
        if opt > 0.0 {
            row / opt
        } else {
            1.0
        }
    }
}

/// Drives the BPi optimizer across a database's tables.
pub struct LayoutAdvisor {
    pub hierarchy: Hierarchy,
    pub config: OptimizerConfig,
}

impl Default for LayoutAdvisor {
    fn default() -> Self {
        LayoutAdvisor {
            hierarchy: Hierarchy::nehalem(),
            config: OptimizerConfig::default(),
        }
    }
}

impl LayoutAdvisor {
    /// Build [`TableView`]s for every table in the database: the
    /// planner's statistics-free views (`table_view`), whose row counts
    /// cover the visible rows — main store plus any pending delta — since
    /// that is what the advised layout will hold once the merge folds the
    /// delta in. They read table headers only: a cold table stays cold.
    pub fn views(&self, db: &Database) -> HashMap<String, TableView> {
        (db.snapshot().tables.iter())
            .map(|(name, pinned)| (name.clone(), crate::planner::table_view(&pinned.snapshot)))
            .collect()
    }

    /// Recommend a layout for every table the workload touches.
    pub fn advise(&self, db: &Database, workload: &Workload) -> AdvisorReport {
        let views = self.views(db);
        let mut report = AdvisorReport::default();
        let mut touched: Vec<String> = workload
            .queries
            .iter()
            .flat_map(|q| q.plan.tables().into_iter().map(str::to_string))
            .collect();
        touched.sort();
        touched.dedup();
        for table in touched {
            let Some(view) = views.get(&table) else {
                continue;
            };
            let n = view.col_widths.len();
            let opt = optimize_table(&table, &views, workload, &self.hierarchy, &self.config);
            let row_cost =
                workload.cost_with_layout(&views, &table, &Layout::row(n), &self.hierarchy);
            let column_cost =
                workload.cost_with_layout(&views, &table, &Layout::column(n), &self.hierarchy);
            report.tables.push(TableAdvice {
                table,
                layout: opt.layout,
                estimated_cost: opt.cost,
                row_cost,
                column_cost,
            });
        }
        report
    }

    /// Advise and immediately rebuild the affected tables. `&self` all the
    /// way down: each relayout holds only its own table's write lock.
    pub fn apply(&self, db: &Database, workload: &Workload) -> Result<AdvisorReport, DbError> {
        let report = self.advise(db, workload);
        for advice in &report.tables {
            db.relayout(&advice.table, advice.layout.clone())?;
        }
        Ok(report)
    }

    /// Advise from the traffic [`Database::execute`] has observed (see
    /// [`Database::observed_workload`]) — the closed loop the planner
    /// enables: run queries, then let the merge re-advise from what
    /// actually ran.
    pub fn advise_observed(&self, db: &Database) -> AdvisorReport {
        self.advise(db, &db.observed_workload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_layout::workload::WorkloadQuery;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_plan::logical::{AggExpr, AggFunc};
    use pdsm_storage::{ColumnDef, DataType, Schema, Value};

    fn wide_db(rows: i32) -> Database {
        let db = Database::new();
        let cols: Vec<ColumnDef> = (0..16)
            .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
            .collect();
        db.create_table("r", Schema::new(cols)).unwrap();
        for i in 0..rows {
            let row: Vec<Value> = (0..16).map(|c| Value::Int32(i * 16 + c)).collect();
            db.insert("r", &row).unwrap();
        }
        db
    }

    fn workload() -> Workload {
        let mut w = Workload::new();
        w.push(WorkloadQuery::new(
            "q1",
            QueryBuilder::scan("r")
                .filter_with_selectivity(Expr::col(0).eq(Expr::lit(3)), 0.05)
                .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
                .build(),
        ));
        w
    }

    #[test]
    fn advise_beats_row_layout() {
        let db = wide_db(2000);
        let report = LayoutAdvisor::default().advise(&db, &workload());
        assert_eq!(report.tables.len(), 1);
        let a = &report.tables[0];
        assert!(a.estimated_cost <= a.row_cost);
        assert!(a.estimated_cost <= a.column_cost);
        assert!(report.speedup_vs_row() >= 1.0);
    }

    #[test]
    fn apply_rebuilds_and_preserves_results() {
        let db = wide_db(500);
        let plan = QueryBuilder::scan("r")
            .filter(Expr::col(0).gt(Expr::lit(100)))
            .project(vec![Expr::col(1), Expr::col(15)])
            .build();
        let before = db.run(&plan, crate::EngineKind::Compiled).unwrap();
        let report = LayoutAdvisor::default().apply(&db, &workload()).unwrap();
        assert!(!report.tables.is_empty());
        let after = db.run(&plan, crate::EngineKind::Compiled).unwrap();
        before.assert_same(&after, "advisor apply");
        assert!(db.get_table("r").unwrap().layout().n_groups() > 1);
    }
}
