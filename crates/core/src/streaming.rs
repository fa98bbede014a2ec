//! Extent-at-a-time execution over cold (unhydrated) tables.
//!
//! A table recovered through the buffer pool keeps its main store on disk
//! as checkpoint extents. Hydrating it wholesale would defeat the pool —
//! a table 4× the budget would fault everything in just to answer one
//! scan. Instead, single-table `[Aggregate] [Project] [Select] Scan` plans
//! over a pinned [`pdsm_txn::Snapshot`] whose main store is still cold
//! run over one extent at a time
//! ([`pdsm_txn::MainStore::for_each_extent`]), each extent the pool frame's
//! own scan-ready mini table, read in place with the delta's tombstone
//! slice overlaid and pinned only while it is being scanned:
//!
//! * **aggregates** (global or grouped, any function) are the third driver
//!   of `pdsm_exec::pipeline`: **one** [`AggState`] is carried across the
//!   extents in extent order and then over the live delta tail. That is
//!   the fold order of a resident scan, so `avg`, float sums and grouped
//!   aggregates come out bit-identical — the state's running sums, not
//!   finished values, are what crosses extent boundaries;
//! * **row shapes** run the *chosen engine unchanged* per extent, then
//!   once over a zero-row skeleton carrying the tail overlay, and
//!   concatenate — exactly the main-order-then-tail sequence a resident
//!   scan produces;
//! * zone-refuted extents are skipped without faulting a byte — refutation
//!   proves no main row of the extent can pass the scan's predicate.
//!
//! Everything here reads the statement's pinned view — the snapshot's
//! main-store handle and delta — and nothing else: no catalog, no
//! table lock. Byte-identity with the resident path is the contract (the
//! pooled twin proptest in `tests/pool_props.rs` enforces it). Joins, sorts
//! and limits fall back to hydration, which the engine triggers through
//! the same handle (once per generation, on the running thread).

use crate::database::{DbError, EngineKind};
use crate::query::DbSnapshot;
use pdsm_exec::engine::{Overlay, TableProvider};
use pdsm_exec::pipeline::{needed_cols, AggState, Pipe, PipeSpec, Scan};
use pdsm_exec::{zone_preds, QueryOutput};
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, LogicalPlan};
use pdsm_storage::{Table, Value, ZonePred};

/// One table presented to an engine under `name` as the whole database: an
/// extent or the tail-only run.
pub(crate) struct OneTable<'a> {
    pub name: &'a str,
    pub table: &'a Table,
    pub overlay: Option<Overlay<'a>>,
}

impl TableProvider for OneTable<'_> {
    fn table(&self, name: &str) -> Option<&Table> {
        (name == self.name).then_some(self.table)
    }

    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        self.overlay.filter(|_| name == self.name)
    }
}

/// The streamable plan shape `[Aggregate] [Project] [Select] Scan`,
/// decomposed.
struct StreamShape<'p> {
    /// `(group_by, aggs)` when the root is an aggregate.
    agg: Option<(&'p [Expr], &'p [AggExpr])>,
    project: Option<&'p [Expr]>,
    /// The predicate sitting directly over the scan.
    pred: Option<&'p Expr>,
}

fn stream_shape(plan: &LogicalPlan) -> Option<StreamShape<'_>> {
    let (agg, inner) = match plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => (Some((group_by.as_slice(), aggs.as_slice())), input.as_ref()),
        other => (None, other),
    };
    let (project, inner) = match inner {
        LogicalPlan::Project { input, exprs } => (Some(exprs.as_slice()), input.as_ref()),
        other => (None, other),
    };
    let (pred, inner) = match inner {
        LogicalPlan::Select { input, pred, .. } => (Some(pred), input.as_ref()),
        other => (None, other),
    };
    matches!(inner, LogicalPlan::Scan { .. }).then_some(StreamShape { agg, project, pred })
}

/// Run `plan` extent-at-a-time over its (single, cold) table as `view`
/// pins it, or return `Ok(None)` when the plan is multi-table, the table is
/// resident (or not in the view), or the shape is not streamable — the
/// caller then hands the view to the engine, which makes the table
/// resident.
pub(crate) fn run_cold_streaming(
    view: &DbSnapshot,
    plan: &LogicalPlan,
    engine: EngineKind,
) -> Result<Option<QueryOutput>, DbError> {
    let tables = plan.tables();
    let [table] = tables.as_slice() else {
        return Ok(None);
    };
    let Some(shape) = stream_shape(plan) else {
        return Ok(None);
    };
    let Some(snap) = view.table_snapshot(table) else {
        return Ok(None);
    };
    let main = snap.store();
    if main.cold().is_none() {
        return Ok(None);
    }
    let skeleton = main.skeleton();
    let zps: Vec<ZonePred> = shape
        .pred
        .map(|p| zone_preds(skeleton, std::slice::from_ref(p)))
        .unwrap_or_default();
    let overlay = snap.overlay();
    let dead = Overlay::dead_of(&overlay);
    // The live delta tail, as the overlay of whatever runs last.
    let tail = overlay.map(|o| Overlay { dead: &[], ..o });

    let rows = if let Some((group_by, aggs)) = shape.agg {
        let mut pipe = Pipe::scan(table);
        if let Some(pred) = shape.pred {
            pipe.select(pred);
        }
        if let Some(exprs) = shape.project {
            pipe.project(exprs);
        }
        let required = plan.required_columns(&|_| skeleton.schema().len());
        let needed = needed_cols(table, skeleton, &required);
        let spec = PipeSpec {
            preds: &pipe.preds,
            steps: &pipe.steps,
            needed: &needed,
        };
        let mut state = AggState::new(skeleton, spec, group_by, aggs);
        main.for_each_extent(&zps, dead, |_, mini, dead| {
            state.fold_range(&Scan::new(mini, spec), dead, 0..mini.len());
            Ok::<_, DbError>(())
        })?;
        if let Some(o) = &tail {
            state.fold_tail(o);
        }
        state.finish()
    } else {
        let eng = engine.engine();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        main.for_each_extent(&zps, dead, |_, mini, dead| {
            let provider = OneTable {
                name: table,
                table: mini,
                overlay: (!dead.is_empty()).then_some(Overlay {
                    dead,
                    tail: &[],
                    tail_alive: &[],
                }),
            };
            rows.extend(eng.execute(plan, &provider)?.rows);
            Ok::<_, DbError>(())
        })?;
        // The delta tail, last — a zero-row main table carrying the tail
        // overlay reproduces the resident scan's main-order-then-tail
        // output.
        let provider = OneTable {
            name: table,
            table: skeleton,
            overlay: tail.filter(|o| !o.tail.is_empty()),
        };
        rows.extend(eng.execute(plan, &provider)?.rows);
        rows
    };
    Ok(Some(QueryOutput { rows }))
}
