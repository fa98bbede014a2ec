//! # mrdb — facade for the PDSM reproduction workspace
//!
//! This package hosts the workspace-level `examples/` and `tests/`
//! directories and re-exports every sub-crate under one roof so examples
//! can write `use mrdb::prelude::*`.
//!
//! See `README.md` for a tour and the crate map, `ROADMAP.md` for the
//! measured state and open items, and `pdsm-bench/README.md` for the
//! end-to-end benchmark and its metrics.

pub use pdsm_cachesim as cachesim;
pub use pdsm_core as core;
pub use pdsm_cost as cost;
pub use pdsm_exec as exec;
pub use pdsm_index as index;
pub use pdsm_layout as layout;
pub use pdsm_plan as plan;
pub use pdsm_sql as sql;
pub use pdsm_storage as storage;
pub use pdsm_store as store;
pub use pdsm_txn as txn;
pub use pdsm_workloads as workloads;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use pdsm_core::{
        CacheStats, Database, DurabilityConfig, EngineKind, FsyncMode, IndexKind, LayoutAdvisor,
        MaintenanceConfig, MaintenanceMode, MaintenanceStats, PlanCacheStats, QueryOutput,
        QueryResult, ResultCacheConfig, ResultCacheStats, ScanCounters, SimdMode, StorageStats,
    };
    pub use pdsm_exec::engine::{CompiledEngine, Engine, ParallelEngine, VolcanoEngine};
    pub use pdsm_layout::workload::{Workload, WorkloadQuery};
    pub use pdsm_plan::builder::QueryBuilder;
    pub use pdsm_plan::expr::Expr;
    pub use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
    pub use pdsm_sql::{plan_to_sql, Response, ServerConfig, Session, SqlServer};
    pub use pdsm_storage::{ColumnDef, DataType, Layout, Schema, Table, Value};
    pub use pdsm_txn::{MergeStats, SharedTable, Snapshot, VersionStats, VersionedTable};
}
