//! The query path of [`Database`]: **pin once, then read only the pin**.
//!
//! Every statement entry point — `execute`, `plan_query`, `explain`,
//! `execute_physical`, `run`, `run_indexed` — starts by pinning one
//! [`DbSnapshot`] of the tables the plan references: one catalog read lock,
//! under it the catalog epoch and, per table, one read lock that yields its
//! [`pdsm_txn::Snapshot`] (main-store handle, the delta it shares with the
//! writer, generation, `delta_ops`), then the indexes built from exactly
//! that generation. The pin faults and copies nothing. A compiled or
//! parallel run walks a cold main store one pinned extent at a time
//! through the view ([`TableProvider::for_each_piece`]); only the Volcano
//! oracle reads a whole-table copy, assembled on the running thread after
//! every lock is gone and dropped with the run.
//!
//! **One executor.** Every served statement runs through
//! [`pdsm_exec::pipeline::execute`]. An index-probed one differs only in
//! its scan's source: the view looks up the hits in its pinned index
//! (a string key through the main store's dictionary), sorts them, and
//! hands them to the pipeline, which pins only the extents holding hits,
//! tests each hit's tombstone and scan conjuncts, runs the rest of the
//! plan over the survivors and then over the live delta tail — exactly
//! as a scan of the same plan does, on the calling thread.
//!
//! Everything downstream is a function of that view: the validity tokens
//! of the statement cache ([`crate::result_cache`]), the planner
//! ([`crate::Planner::plan`] takes the view, not the database), the
//! engine / index-hits dispatch, the output names and
//! the tag an entry is stored under. So the planner prices the version the
//! engine scans, a plan that says `index` reads its hits (an index lagging
//! the pinned generation is not in the view, hence not a candidate), and a
//! cached plan and result carry the state they were computed from without
//! a second look at the live tables.
//!
//! A statement renders its plan once and probes the statement cache once:
//! a valid entry yields the lowering and, for an admitted plan, the
//! result; a miss lowers the plan from the view, runs it, and stores the
//! lowering and the admitted result in one entry.
//!
//! The catalog, DML, maintenance and durability halves of `Database` live
//! in [`crate::database`] and [`crate::write`].

use crate::database::{Database, DbError, EngineKind, IndexEntry, IndexKind, TableEntry};
use crate::result_cache::{DepTokens, Entry, Probe};
use pdsm_exec::engine::{ExecError, Overlay, PieceVisitor, TableProvider};
use pdsm_exec::pipeline::{self, Sequential};
use pdsm_exec::{QueryOutput, QueryResult};
use pdsm_plan::expr::{conjuncts, simple_cmp, CmpOp};
use pdsm_plan::logical::{pipeline_fragment, LogicalPlan};
use pdsm_plan::physical::{AccessPath, PhysicalPlan};
use pdsm_storage::{ColId, DataType, Table, Value, ZonePred};
use pdsm_txn::Snapshot;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Database {
    /// Pin the statement view of `plan` (see the module docs). Tables
    /// missing from the catalog are left out: planning reports them as
    /// [`DbError::UnknownTable`], a forced-engine run lets the engine.
    fn pin(&self, plan: &LogicalPlan) -> DbSnapshot {
        let catalog = self.read_catalog();
        let mut tables = HashMap::new();
        for name in plan.tables() {
            if let (false, Some(e)) = (tables.contains_key(name), catalog.get(name)) {
                tables.insert(name.to_string(), e.pin());
            }
        }
        DbSnapshot {
            tables,
            epoch: self.catalog_epoch.load(Ordering::Relaxed),
        }
    }

    /// Take an owned snapshot of every table, each pinned at its current
    /// version — the statement view, catalog-wide. `Send + Sync` and
    /// independent of later DML: the handle concurrent readers query while
    /// writers keep appending. Each table's cut is internally consistent;
    /// the cuts of different tables are taken in sequence under one
    /// catalog read lock. Cold tables stay cold.
    pub fn snapshot(&self) -> DbSnapshot {
        let catalog = self.read_catalog();
        DbSnapshot {
            tables: catalog.iter().map(|(n, e)| (n.clone(), e.pin())).collect(),
            epoch: self.catalog_epoch.load(Ordering::Relaxed),
        }
    }

    /// Execute `plan` with the chosen engine, without index acceleration —
    /// the forced-engine escape hatch benchmarks and differential tests
    /// use. Routine queries should go through [`Database::execute`].
    pub fn run(&self, plan: &LogicalPlan, engine: EngineKind) -> Result<QueryResult, DbError> {
        self.pin(plan).run(plan, engine)
    }

    /// Execute `plan` through the cost-based planner: one probe of the
    /// statement cache yields its lowering and, for an admitted plan, its
    /// result; a miss lowers the plan from the pinned view, runs it on the
    /// chosen engine or index probe, and stores both. The plan is recorded
    /// in the observed workload. Results are byte-identical to every fixed
    /// engine — cached or not.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<QueryResult, DbError> {
        // One rendering serves the cache key and the observed-workload
        // dedup — the only per-plan string work on a cache hit.
        let key = format!("{plan:?}");
        let view = self.pin(plan);
        let deps = view.deps(plan)?;
        let entry = self.cache.probe(&key, view.epoch, &deps, Probe::Plan);
        self.record_observed(plan, &key);
        self.serve(&view, plan, key, deps, entry, None)
    }

    /// Lower `plan` to its [`PhysicalPlan`] without executing it. Cached:
    /// repeated calls return the same `Arc` until a referenced table's
    /// merge generation or delta fingerprint moves (including bumps from
    /// the background worker), or the catalog changes shape (table
    /// registered, index created/dropped).
    pub fn plan_query(&self, plan: &LogicalPlan) -> Result<Arc<PhysicalPlan>, DbError> {
        Ok(self.lowering(plan, Probe::Plan)?.0)
    }

    /// The `EXPLAIN` of `plan`: the physical plan's rendering — chosen
    /// engine, per-pipeline access path, model cost, all priced
    /// alternatives — plus the cache's live status for this plan
    /// (`bypass` when result caching is off or the plan is not admitted,
    /// otherwise `hit` or `miss`). The probe moves no counter.
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String, DbError> {
        let (phys, entry) = self.lowering(plan, Probe::Silent)?;
        let status = if !self.cache.config().enabled || !phys.cache_admit {
            "bypass"
        } else if entry.is_some_and(|e| e.has_result()) {
            "hit"
        } else {
            "miss"
        };
        Ok(phys.explain_with(Some(status)))
    }

    /// `plan`'s lowering after one `probe`: the cached entry's, when the
    /// pinned view can run it, else a fresh one from the view, stored.
    fn lowering(
        &self,
        plan: &LogicalPlan,
        probe: Probe,
    ) -> Result<(Arc<PhysicalPlan>, Option<Arc<Entry>>), DbError> {
        let key = format!("{plan:?}");
        let view = self.pin(plan);
        let deps = view.deps(plan)?;
        let entry = self.cache.probe(&key, view.epoch, &deps, probe);
        if let Some(e) = entry.filter(|e| view.can_run(&e.phys)) {
            return Ok((Arc::clone(&e.phys), Some(e)));
        }
        let phys = Arc::new(self.planner.plan(&view, plan)?);
        self.cache
            .insert(key, view.epoch, deps, Arc::clone(&phys), None);
        Ok((phys, None))
    }

    /// Execute an already-lowered plan through the statement cache the
    /// way [`Database::execute`] does, without moving plan counters. A
    /// plan the pinned view cannot run as lowered — its index was dropped,
    /// or lags a merge, since it was planned — gives way to the view's own
    /// lowering.
    pub fn execute_physical(&self, phys: &PhysicalPlan) -> Result<QueryResult, DbError> {
        let plan = &phys.logical;
        let key = format!("{plan:?}");
        let view = self.pin(plan);
        let deps = view.deps(plan)?;
        let entry = self.cache.probe(&key, view.epoch, &deps, Probe::Run);
        self.serve(&view, plan, key, deps, entry, Some(phys))
    }

    /// Finish a statement whose one probe found `entry`: run `held` (a
    /// caller's lowering) when `view` can run it, else the entry's, else
    /// a fresh one from `view`. An admitted plan is answered from the
    /// entry's result; a miss stores the view's lowering and the admitted
    /// result in one entry under `key`.
    fn serve(
        &self,
        view: &DbSnapshot,
        plan: &LogicalPlan,
        key: String,
        deps: DepTokens,
        entry: Option<Arc<Entry>>,
        held: Option<&PhysicalPlan>,
    ) -> Result<QueryResult, DbError> {
        let entry = entry.filter(|e| view.can_run(&e.phys));
        let lowered = match &entry {
            Some(e) => Arc::clone(&e.phys),
            None => Arc::new(self.planner.plan(view, plan)?),
        };
        let phys = held.filter(|p| view.can_run(p)).unwrap_or(&lowered);
        if !self.cache.admits(phys) {
            let result = view.execute(phys);
            if entry.is_none() {
                self.cache.insert(key, view.epoch, deps, lowered, None);
            }
            return result;
        }
        if let Some(hit) = self.cache.result(entry.as_deref()) {
            return Ok(hit);
        }
        let result = view.execute(phys)?;
        self.cache
            .insert(key, view.epoch, deps, lowered, Some(result.clone()));
        Ok(result)
    }

    /// Execute `plan`, using an index for the outermost selection when one
    /// matches (the Fig.-10 "indexed" execution path); falls back to the
    /// engine otherwise. The indexed path is delta-aware: main-store hits
    /// minus tombstones, then the filtered live tail.
    pub fn run_indexed(
        &self,
        plan: &LogicalPlan,
        engine: EngineKind,
    ) -> Result<QueryResult, DbError> {
        let view = self.pin(plan);
        match view.index_candidate(plan) {
            Some((table, access)) => view.run_hits(plan, &table, &access),
            None => view.run(plan, engine),
        }
    }
}

impl TableEntry {
    /// Pin this table for one statement: its current version (one read
    /// lock), then the indexes built from exactly that version's main
    /// store — one a merge has left behind cannot be planned or probed.
    fn pin(&self) -> PinnedTable {
        let snapshot = self.table.snapshot();
        let set = self.indexes.read().unwrap_or_else(|e| e.into_inner());
        let indexes = set
            .iter()
            .filter(|(_, e)| e.generation == snapshot.generation())
            .map(|(c, e)| (*c, e.clone()))
            .collect();
        PinnedTable { snapshot, indexes }
    }
}

/// One table of a [`DbSnapshot`]: the pinned version and the secondary
/// indexes that cover its main store.
#[derive(Clone)]
pub(crate) struct PinnedTable {
    pub(crate) snapshot: Snapshot,
    pub(crate) indexes: Vec<(ColId, IndexEntry)>,
}

impl PinnedTable {
    /// The pinned index that can serve `access`: on its column, and one
    /// declared ordered when `access` is a range.
    pub(crate) fn index_for(&self, access: &AccessPath) -> Option<&IndexEntry> {
        let col = access.column()?;
        let (_, index) = self.indexes.iter().find(|(c, _)| *c == col)?;
        let ordered = index.kind == IndexKind::RBTree;
        (ordered || matches!(access, AccessPath::IndexPoint { .. })).then_some(index)
    }
}

/// An owned multi-table snapshot — the view one statement runs over: every
/// table pinned at one version with that version's indexes, plus the
/// catalog epoch. A [`TableProvider`] any engine can run over, from any
/// thread, while the database keeps moving.
#[derive(Clone)]
pub struct DbSnapshot {
    pub(crate) tables: HashMap<String, PinnedTable>,
    /// The catalog epoch the tables were pinned under.
    pub(crate) epoch: u64,
}

impl DbSnapshot {
    /// The pinned snapshot of `name`.
    pub fn table_snapshot(&self, name: &str) -> Option<&Snapshot> {
        self.tables.get(name).map(|t| &t.snapshot)
    }

    /// The pinned table `name`; its absence is the statement's
    /// [`DbError::UnknownTable`].
    pub(crate) fn pinned(&self, name: &str) -> Result<&PinnedTable, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// The `(table, generation, delta_ops)` token of every table `plan`
    /// reads, in scan order: with the epoch, the validity tag of a
    /// statement-cache entry — and the state this view computes from.
    fn deps(&self, plan: &LogicalPlan) -> Result<DepTokens, DbError> {
        let mut deps: DepTokens = Vec::new();
        for t in plan.tables() {
            if deps.iter().any(|(n, _, _)| n == t) {
                continue;
            }
            let snap = &self.pinned(t)?.snapshot;
            deps.push((t.to_string(), snap.generation(), snap.delta_ops()));
        }
        Ok(deps)
    }

    /// Output column names of `plan` against the pinned schemas.
    pub(crate) fn output_names(&self, plan: &LogicalPlan) -> Vec<String> {
        plan.output_names(&|t| {
            self.tables.get(t).map(|p| {
                let schema = p.snapshot.store().schema();
                schema.columns().iter().map(|c| c.name.clone()).collect()
            })
        })
    }

    /// Execute `plan` against this snapshot with the chosen engine. The
    /// compiled and parallel engines read a cold table one pinned extent at
    /// a time through the buffer pool, whatever the plan's shape; the
    /// Volcano oracle reads a copy assembled for the run. Snapshots carry no
    /// statement cache — planned execution is [`Database::execute`].
    pub fn run(&self, plan: &LogicalPlan, engine: EngineKind) -> Result<QueryResult, DbError> {
        let output = engine.engine().execute(plan, self)?;
        Ok(QueryResult::new(self.output_names(plan), output))
    }

    /// Does this view hold the index an indexed root pipeline of `phys`
    /// names? True of every plan lowered from it; a cached or caller-held
    /// plan is checked before it runs.
    fn can_run(&self, phys: &PhysicalPlan) -> bool {
        phys.pipelines
            .first()
            .filter(|p| p.access.is_indexed())
            .is_none_or(|p| {
                self.tables
                    .get(&p.table)
                    .is_some_and(|t| t.index_for(&p.access).is_some())
            })
    }

    /// Run `phys` the way it says: an index-probe root pipeline reads the
    /// hits of the index it recorded, everything else the chosen engine —
    /// `Unsupported` if that is not a serving engine.
    fn execute(&self, phys: &PhysicalPlan) -> Result<QueryResult, DbError> {
        match phys.pipelines.first().filter(|p| p.access.is_indexed()) {
            Some(pipe) => self.run_hits(&phys.logical, &pipe.table, &pipe.access),
            None => self.run(&phys.logical, EngineKind::try_from(phys.engine)?),
        }
    }

    /// Recognize `[Project] (Select (Scan))` plans whose predicate contains
    /// an indexed equality or range conjunct, and name the table and the
    /// probe that serves it. Pure shape/view matching — no data access,
    /// so the planner prices the candidate before anything is fetched. A
    /// point probe (one key's bucket) is preferred over a range probe
    /// whatever the conjunct order.
    pub(crate) fn index_candidate(&self, plan: &LogicalPlan) -> Option<(String, AccessPath)> {
        let inner = match plan {
            LogicalPlan::Project { input, .. } => input.as_ref(),
            other => other,
        };
        let LogicalPlan::Select { input, pred, .. } = inner else {
            return None;
        };
        let LogicalPlan::Scan { table } = input.as_ref() else {
            return None;
        };
        let pinned = self.tables.get(table)?;
        let columns = pinned.snapshot.store().schema().columns();
        let mut range_cand: Option<AccessPath> = None;
        for conj in conjuncts(pred) {
            let Some((col, op, lit)) = simple_cmp(conj) else {
                continue;
            };
            let Some((_, index)) = pinned.indexes.iter().find(|(c, _)| *c == col) else {
                continue;
            };
            let ty = columns[col].ty;
            match op {
                CmpOp::Eq => {
                    // The probe keys integers by value and strings by
                    // dictionary code; a literal of any other type (or a
                    // cross-type comparison the engines would coerce,
                    // e.g. Int32 column = Float64 literal) has no index
                    // key, so the probe would silently miss main-store
                    // hits — leave those shapes to the scan path.
                    let keyable = matches!(
                        (ty, lit),
                        (
                            DataType::Int32 | DataType::Int64,
                            Value::Int32(_) | Value::Int64(_)
                        ) | (DataType::Str, Value::Str(_))
                    );
                    if !keyable {
                        continue;
                    }
                    return Some((
                        table.clone(),
                        AccessPath::IndexPoint {
                            column: col,
                            key: lit.clone(),
                        },
                    ));
                }
                CmpOp::Le | CmpOp::Lt | CmpOp::Ge | CmpOp::Gt
                    if range_cand.is_none()
                        && index.kind == IndexKind::RBTree
                        && ty != DataType::Str =>
                {
                    if let Some(k) = lit.as_i64() {
                        // Saturating strict bounds can over-include one
                        // key at the i64 extremes; that is safe — the
                        // probe re-applies the full predicate to every
                        // fetched row — whereas excluding a key would
                        // silently drop rows.
                        let (lo, hi) = match op {
                            CmpOp::Le => (i64::MIN, k),
                            CmpOp::Lt => (i64::MIN, k.saturating_sub(1)),
                            CmpOp::Ge => (k, i64::MAX),
                            CmpOp::Gt => (k.saturating_add(1), i64::MAX),
                            _ => unreachable!(),
                        };
                        range_cand = Some(AccessPath::IndexRange {
                            column: col,
                            lo,
                            hi,
                        });
                    }
                }
                _ => {}
            }
        }
        range_cand.map(|access| (table.clone(), access))
    }

    /// Run `plan` with its one scan reading `table`'s main-store rows at
    /// the hits of the pinned index that serves `access` (see the module
    /// docs): the rows a scan of the plan yields, in its order. The index
    /// is the view's own: there is no staleness to check. `Unsupported`
    /// is for a caller-built plan that is not one filtered scan of `table`
    /// or whose access path has no index in the view.
    fn run_hits(
        &self,
        plan: &LogicalPlan,
        table: &str,
        access: &AccessPath,
    ) -> Result<QueryResult, DbError> {
        let misfit = || ExecError::Unsupported(format!("{access:?} does not serve this plan"));
        if pipeline_fragment(plan).is_none() || plan.tables() != [table] {
            return Err(misfit().into());
        }
        let pinned = self.pinned(table)?;
        let (Some(col), Some(index)) = (access.column(), pinned.index_for(access)) else {
            return Err(misfit().into());
        };
        let ids = match access {
            AccessPath::IndexPoint { key, .. } => {
                // A string the dictionary lacks has no main-store hit.
                key_of_value(pinned.snapshot.store().skeleton(), col, key)
                    .map_or(&[][..], |k| index.index.lookup(k))
            }
            AccessPath::IndexRange { lo, hi, .. } => index.index.lookup_range(*lo, *hi),
            AccessPath::FullScan => return Err(misfit().into()),
        };
        let mut hits: Vec<usize> = ids.iter().map(|&r| r as usize).collect();
        hits.sort_unstable();
        let output = QueryOutput {
            rows: pipeline::execute(plan, self, &Sequential, Some(&hits))?,
        };
        Ok(QueryResult::new(self.output_names(plan), output))
    }
}

/// Every table is its pinned [`Snapshot`]'s: the pipeline core reads its
/// skeleton and walks its extents, the Volcano oracle reads it whole.
impl TableProvider for DbSnapshot {
    fn shape(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|t| t.snapshot.store().skeleton())
    }

    fn table(&self, name: &str) -> Result<Cow<'_, Table>, ExecError> {
        match self.tables.get(name) {
            Some(t) => t.snapshot.table(name),
            None => Err(ExecError::UnknownTable(name.to_string())),
        }
    }

    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        self.tables.get(name).and_then(|t| t.snapshot.overlay())
    }

    fn for_each_piece(
        &self,
        name: &str,
        zps: &[ZonePred],
        rows: Option<&[usize]>,
        visit: &mut PieceVisitor<'_>,
    ) -> Result<(), ExecError> {
        match self.tables.get(name) {
            Some(t) => t.snapshot.for_each_piece(name, zps, rows, visit),
            None => Err(ExecError::UnknownTable(name.to_string())),
        }
    }
}

/// Index key of a literal compared against `col` of a table shaped like
/// `t` (its dictionaries resolve a string to its code).
fn key_of_value(t: &Table, col: ColId, v: &Value) -> Option<i64> {
    match v {
        Value::Int32(x) => Some(*x as i64),
        Value::Int64(x) => Some(*x),
        Value::Str(s) => t.dict(col).and_then(|d| d.code_of(s)).map(|c| c as i64),
        _ => None,
    }
}
