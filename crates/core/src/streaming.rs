//! Extent-at-a-time execution over cold (unhydrated) tables.
//!
//! A table recovered through the buffer pool keeps its main store on disk
//! as checkpoint extents. Hydrating it wholesale would defeat the pool —
//! a table 4× the budget would fault everything in just to answer one
//! scan. Instead, single-table `[Aggregate] [Project] [Select] Scan` plans
//! run over one extent at a time, each extent a self-contained mini table
//! with the delta's tombstone slice overlaid, holding its pool frames
//! pinned only while it is being scanned:
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
//! Byte-identity with the resident path is the contract (the pooled twin
//! proptest in `tests/pool_props.rs` enforces it). Joins, sorts and limits
//! fall back to hydration.

use crate::database::{Database, DbError, EngineKind};
use pdsm_exec::engine::{Overlay, TableProvider};
use pdsm_exec::pipeline::{needed_cols, AggState, Pipe, PipeSpec, Scan};
use pdsm_exec::{zone_preds, QueryOutput, QueryResult};
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, LogicalPlan};
use pdsm_pool::ColdTable;
use pdsm_storage::{Table, Value, ZonePred};
use pdsm_txn::ColdScan;

/// One extent (or the tail) presented to an engine as a whole table.
struct ExtentProvider<'a> {
    name: &'a str,
    table: &'a Table,
    overlay: Option<Overlay<'a>>,
}

impl TableProvider for ExtentProvider<'_> {
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

/// Visit every extent of `cold` that `zps` cannot refute, in order, as
/// the row id of its first row, a mini table, and its slice of the
/// tombstone mask `dead`. The extent's pins drop when `visit` returns:
/// the next extent may evict this one.
pub(crate) fn for_each_extent(
    cold: &ColdTable,
    zps: &[ZonePred],
    dead: &[bool],
    mut visit: impl FnMut(usize, &Table, &[bool]) -> Result<(), DbError>,
) -> Result<(), DbError> {
    for e in 0..cold.n_extents() {
        if !zps.is_empty() && cold.extent_refuted(e, zps) {
            // No main row of this extent can pass the predicate, and
            // tombstones only remove rows — skipping is sound for every
            // engine and every streamable shape.
            cold.pool().note_skipped_fault();
            continue;
        }
        let (lo, hi) = cold.header().extent_row_range(e);
        let (mini, _pins) = cold.extent_table(e)?;
        visit(lo, &mini, &dead[lo.min(dead.len())..hi.min(dead.len())])?;
    }
    Ok(())
}

/// Run `plan` extent-at-a-time over its (single, cold) table, or return
/// `Ok(None)` when the plan is multi-table, the table is resident, or the
/// shape is not streamable — the caller then takes the ordinary
/// (hydrating) snapshot path.
pub(crate) fn run_cold_streaming(
    db: &Database,
    plan: &LogicalPlan,
    engine: EngineKind,
) -> Result<Option<QueryResult>, DbError> {
    let tables = plan.tables();
    let [table] = tables.as_slice() else {
        return Ok(None);
    };
    let Some(shape) = stream_shape(plan) else {
        return Ok(None);
    };
    let Some(scan) = db.with_table(table, |vt| vt.cold_scan())? else {
        return Ok(None);
    };
    let ColdScan { cold, overlay, .. } = &scan;
    let skeleton = cold.skeleton();
    let zps: Vec<ZonePred> = shape
        .pred
        .map(|p| zone_preds(&skeleton, std::slice::from_ref(p)))
        .unwrap_or_default();
    let dead: &[bool] = overlay.as_ref().map(|o| o.dead.as_slice()).unwrap_or(&[]);
    // The live delta tail, as the overlay of whatever runs last.
    let tail = overlay.as_ref().map(|o| Overlay {
        dead: &[],
        tail: &o.tail,
        tail_alive: &o.tail_alive,
    });

    let rows = if let Some((group_by, aggs)) = shape.agg {
        let mut pipe = Pipe::scan(table);
        if let Some(pred) = shape.pred {
            pipe.select(pred);
        }
        if let Some(exprs) = shape.project {
            pipe.project(exprs);
        }
        let required = plan.required_columns(&|_| skeleton.schema().len());
        let needed = needed_cols(table, &skeleton, &required);
        let spec = PipeSpec {
            preds: &pipe.preds,
            steps: &pipe.steps,
            needed: &needed,
        };
        let mut state = AggState::new(&skeleton, spec, group_by, aggs);
        for_each_extent(cold, &zps, dead, |_, mini, dead| {
            state.fold_range(&Scan::new(mini, spec), dead, 0..mini.len());
            Ok(())
        })?;
        if let Some(o) = &tail {
            state.fold_tail(o);
        }
        state.finish()
    } else {
        let eng = engine.engine();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for_each_extent(cold, &zps, dead, |_, mini, dead| {
            let provider = ExtentProvider {
                name: table,
                table: mini,
                overlay: (!dead.is_empty()).then_some(Overlay {
                    dead,
                    tail: &[],
                    tail_alive: &[],
                }),
            };
            rows.extend(eng.execute(plan, &provider)?.rows);
            Ok(())
        })?;
        // The delta tail, last — a zero-row main table carrying the tail
        // overlay reproduces the resident scan's main-order-then-tail
        // output.
        let provider = ExtentProvider {
            name: table,
            table: &skeleton,
            overlay: tail.filter(|o| !o.tail.is_empty()),
        };
        rows.extend(eng.execute(plan, &provider)?.rows);
        rows
    };
    Ok(Some(QueryResult::new(
        db.names_for(plan),
        QueryOutput { rows },
    )))
}
