//! # pdsm-core
//!
//! The integrated memory-resident DBMS this reproduction delivers: a
//! [`Database`] catalog of vertically partitioned tables, secondary index
//! maintenance, the cost-based [`planner`] that lowers every query to a
//! [`pdsm_plan::physical::PhysicalPlan`] — choosing access path (full
//! scan vs. main-index probe + delta-tail union, §VI-B, Fig. 10) and
//! fan-out (compiled = one worker, parallel = N) via
//! `pdsm_cost::estimate` — and the [`advisor`] that drives the
//! cost-model-based layout optimizer (§V). Queries enter through
//! [`Database::execute`] (the [`query`] path); [`Database::run`] forces
//! one of the three [`EngineKind`]s, the Volcano oracle included.
//!
//! ```
//! use pdsm_core::{Database, EngineKind};
//! use pdsm_plan::builder::QueryBuilder;
//! use pdsm_plan::expr::Expr;
//! use pdsm_plan::logical::{AggExpr, AggFunc};
//! use pdsm_storage::{ColumnDef, DataType, Schema, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "r",
//!     Schema::new(vec![
//!         ColumnDef::new("a", DataType::Int32),
//!         ColumnDef::new("b", DataType::Int32),
//!     ]),
//! )
//! .unwrap();
//! for i in 0..1000 {
//!     db.insert("r", &[Value::Int32(i % 50), Value::Int32(i)]).unwrap();
//! }
//! let plan = QueryBuilder::scan("r")
//!     .filter(Expr::col(0).eq(Expr::lit(7)))
//!     .aggregate(vec![], vec![AggExpr::new(AggFunc::Count, Expr::col(1))])
//!     .build();
//! let out = db.run(&plan, EngineKind::Compiled).unwrap();
//! assert_eq!(out.rows[0][0], Value::Int64(20));
//! ```

pub mod advisor;
pub mod database;
pub mod maintenance;
pub mod planner;
pub mod query;
pub mod result_cache;
pub mod write;

pub use advisor::{AdvisorReport, LayoutAdvisor};
pub use database::{Database, DbError, DurabilityConfig, EngineKind, IndexKind, StorageStats};
pub use maintenance::{MaintenanceConfig, MaintenanceMode, MaintenanceScheduler, MaintenanceStats};
pub use pdsm_exec::{
    reset_scan_counters, scan_counters, set_mode_override, QueryOutput, QueryResult, ScanCounters,
    SimdMode,
};
pub use pdsm_par::ParallelEngine;
pub use pdsm_plan::physical::{AccessPath, CostSummary, EngineChoice, PhysicalPlan};
pub use pdsm_pool::{BufferPool, PoolStats};
pub use pdsm_store::FsyncMode;
pub use pdsm_txn::{
    DurabilityStats, MergeStats, RowId, SharedTable, Snapshot, TableDurability, VersionStats,
    VersionedTable,
};
pub use planner::Planner;
pub use query::DbSnapshot;
pub use result_cache::{CacheStats, PlanCacheStats, ResultCacheConfig, ResultCacheStats};
