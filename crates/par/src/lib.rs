//! # pdsm-par — morsel-driven parallel execution
//!
//! The paper makes a single core CPU- and cache-efficient; this crate makes
//! the engine use *all* cores without giving any of that back. It follows
//! the morsel-driven design (Leis et al., "Morsel-Driven Parallelism"),
//! which composes naturally with PDSM storage:
//!
//! * **Morsels** ([`morsel`]) — each table slices into contiguous row
//!   ranges sized by the table's per-row byte footprint, so one morsel's
//!   working set fits in L2 under any layout (partitions are fixed-stride,
//!   so a row range is a contiguous byte range in every partition). A
//!   single atomic cursor dispenses morsels; claiming is wait-free and
//!   skew self-balances.
//! * **Workers** ([`pool`]) — a fixed pool of scoped `std::thread` workers
//!   (no runtime dependencies). Each worker binds its own
//!   `pdsm_exec::pipeline::Scan` — the same typed, branch-predictable
//!   survivor loop the compiled engine runs, SIMD block masks and zone
//!   refutation included — and walks it morsel at a time.
//! * **The driver** ([`engine`]) — this crate adds no lowering, no scan
//!   loop and no aggregate of its own, and walks a pipeline one of two
//!   ways. Collect pipelines buffer output per morsel and stitch buffers
//!   in morsel order, so parallel execution returns rows in **exactly**
//!   the sequential scan order. Aggregations, join-probing ones included,
//!   give every worker a private `pdsm_exec::pipeline::AggState` and merge
//!   the partials at the barrier. The state is order-free — float `sum`
//!   and `avg` add exactly and round once — so every output bit matches
//!   the compiled engine whatever the worker count.
//!
//! ## Using it
//!
//! [`ParallelEngine`] implements `pdsm_exec::Engine` and is registered in
//! `pdsm-core` as `EngineKind::Parallel`, so it participates in every
//! differential test that iterates `EngineKind::all()`:
//!
//! ```
//! use pdsm_par::ParallelEngine;
//! use pdsm_exec::Engine;
//! # use pdsm_plan::builder::QueryBuilder;
//! # use pdsm_plan::expr::Expr;
//! # use pdsm_storage::{ColumnDef, DataType, Schema, Table, Value};
//! # let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("x", DataType::Int32)]));
//! # for i in 0..100 { t.insert(&[Value::Int32(i)]).unwrap(); }
//! # let mut db = std::collections::HashMap::new();
//! # db.insert("t".to_string(), t);
//! let plan = QueryBuilder::scan("t").filter(Expr::col(0).lt(Expr::lit(50))).build();
//! let auto = ParallelEngine::new();            // threads from PDSM_THREADS or all cores
//! let four = ParallelEngine::with_threads(4);  // pinned worker count
//! assert_eq!(auto.execute(&plan, &db).unwrap().len(), 50);
//! assert_eq!(four.execute(&plan, &db).unwrap().len(), 50);
//! ```
//!
//! ## Workspace layout
//!
//! This crate sits beside the sequential engines, not above them:
//!
//! ```text
//! pdsm-storage ── tables, partitions, typed readers
//!      │
//! pdsm-plan ───── logical plans, expressions
//!      │
//! pdsm-exec ───── the Volcano oracle, the compiled engine,
//!      │          the pipeline core (lowering, survivor loop, AggState)
//! pdsm-par ────── morsels, worker pool, the morsel driver    ← you are here
//!      │
//! pdsm-core ───── Database catalog, EngineKind::{Volcano,Compiled,Parallel}
//! ```
//!
//! The scaling story is measured by `pdsm-bench`'s `parallel` criterion
//! bench and the `fig_scaling` binary (rows/sec vs worker count on the
//! Fig. 3 microbenchmark query).

pub mod engine;
pub mod morsel;
pub mod pool;

pub use engine::ParallelEngine;
pub use morsel::{Morsel, MorselQueue};
pub use pool::default_threads;
