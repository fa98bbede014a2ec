//! # pdsm-plan
//!
//! Query representation and the paper's plan→access-pattern translation.
//!
//! * [`expr`] — scalar expression language (comparisons, `LIKE`, arithmetic,
//!   boolean connectives) with an interpreter used by the Volcano engine and
//!   the test oracles.
//! * [`logical`] — relational plans: scan, select, project, aggregate,
//!   hash-join, sort, limit; [`pipeline_fragment`] finds the
//!   `Select(Scan)` a single-table pipeline starts from.
//! * [`builder`] — fluent construction of plans.
//! * [`selectivity`] — cardinality heuristics plus per-query hints.
//! * [`patterns`] — §IV-D: pre-order traversal of the plan emitting the
//!   memory-access-pattern "program" of Table II, parameterized by a
//!   [`patterns::TableView`] (row count + candidate layout), so the same
//!   query can be priced under any hypothetical layout — the mechanism the
//!   BPi layout optimizer drives.
//! * [`physical`] — the planner's output: a logical plan annotated with the
//!   model-chosen engine and per-pipeline access path, plus an `explain()`
//!   rendering. Lowering lives in `pdsm-core::planner`.
//! * [`names`] — SQL-flavoured rendering of expressions and the output
//!   column names of a plan (result framing, SQL renderer).

pub mod builder;
pub mod expr;
pub mod logical;
pub mod names;
pub mod patterns;
pub mod physical;
pub mod selectivity;

pub use builder::QueryBuilder;
pub use expr::{conjuncts, simple_cmp, ArithOp, CmpOp, Expr};
pub use logical::{pipeline_fragment, AggExpr, AggFunc, LogicalPlan, SortKey};
pub use names::{render_agg, render_expr, sql_literal};
pub use patterns::{emit_pattern, AccessGroup, AccessKind, TableView};
pub use physical::{AccessPath, CostSummary, EngineChoice, PhysicalPlan, PipelinePlan};
pub use selectivity::estimate_selectivity;
