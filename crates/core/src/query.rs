//! The query path of [`Database`]: pinning snapshots, planning (plan
//! cache), the result cache, engine dispatch and the index probe.
//!
//! Queries enter through [`Database::execute`]: the cost-based planner
//! (`crate::planner`) lowers the logical plan to a [`PhysicalPlan`],
//! caches it keyed on the tables' merge generations, and dispatches.
//! [`Database::run`] remains as the forced-engine escape hatch benchmarks
//! and differential tests use. The catalog, DML, maintenance and
//! durability halves of `Database` live in [`crate::database`].

use crate::database::{Database, DbError, EngineKind};
use crate::result_cache::{DepTokens, FRAGMENT_TABLE};
use pdsm_exec::engine::{Overlay, TableProvider};
use pdsm_exec::{QueryOutput, QueryResult};
use pdsm_index::Index;
use pdsm_plan::expr::{conjuncts, simple_cmp, CmpOp};
use pdsm_plan::fingerprint::{pipeline_fragment, plan_fingerprint, substitute_fragment};
use pdsm_plan::logical::LogicalPlan;
use pdsm_plan::physical::{AccessPath, PhysicalPlan};
use pdsm_storage::{ColId, DataType, Schema, Table, Value};
use pdsm_txn::Snapshot;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Database {
    /// A consistent provider for `plan`'s tables: each table pinned at its
    /// current version (short read lock per table; missing tables are left
    /// for the engine to report). Queries then run entirely lock-free.
    fn provider_for(&self, plan: &LogicalPlan) -> DbSnapshot {
        let catalog = self.read_catalog();
        let mut tables = HashMap::new();
        for name in plan.tables() {
            if tables.contains_key(name) {
                continue;
            }
            if let Some(e) = catalog.get(name) {
                tables.insert(name.to_string(), e.table.snapshot());
            }
        }
        DbSnapshot { tables }
    }

    /// Execute `plan` with the chosen engine, without index acceleration —
    /// the forced-engine escape hatch benchmarks and differential tests
    /// use. Runs over snapshots pinned at call time (no lock held during
    /// execution). Routine queries should go through [`Database::execute`].
    pub fn run(&self, plan: &LogicalPlan, engine: EngineKind) -> Result<QueryResult, DbError> {
        // A still-cold table streams extent-at-a-time through the buffer
        // pool when the plan shape allows it — the scan then never holds
        // more than one extent's frames pinned, so a table larger than
        // the pool budget scans in bounded memory. Non-streamable shapes
        // fall through and hydrate below.
        if let Some(result) = crate::streaming::run_cold_streaming(self, plan, engine)? {
            return Ok(result);
        }
        let provider = self.provider_for(plan);
        let output = engine.engine().execute(plan, &provider)?;
        Ok(QueryResult::new(provider.output_names(plan), output))
    }

    /// Execute `plan` through the cost-based planner: lower it to a
    /// [`PhysicalPlan`] (cached per catalog/generation fingerprint), record
    /// it in the observed workload, consult the result cache for admitted
    /// plans, and dispatch to the chosen engine or index probe. Results
    /// are byte-identical to every fixed engine — cached or not.
    pub fn execute(&self, plan: &LogicalPlan) -> Result<QueryResult, DbError> {
        // One rendering serves both the plan cache and the observed-
        // workload dedup — it is the only per-plan string work on a
        // cache-hit execute.
        let key = format!("{plan:?}");
        let (phys, deps, epoch) = self.plan_query_deps(plan, &key)?;
        self.record_observed(plan, key);
        self.execute_physical_cached(&phys, Some((deps, epoch)))
    }

    /// Lower `plan` to its [`PhysicalPlan`] without executing it. Cached:
    /// repeated calls return the same `Arc` until a referenced table's
    /// merge generation or delta fingerprint moves (including bumps from
    /// the background worker), or the catalog changes shape (table
    /// registered, index created/dropped).
    pub fn plan_query(&self, plan: &LogicalPlan) -> Result<Arc<PhysicalPlan>, DbError> {
        Ok(self.plan_query_deps(plan, &format!("{plan:?}"))?.0)
    }

    /// The per-table invalidation tokens of every table `plan` reads, plus
    /// the catalog epoch — the shared validity fingerprint of the plan and
    /// result caches.
    fn deps_and_epoch(&self, plan: &LogicalPlan) -> Result<(DepTokens, u64), DbError> {
        let mut deps: DepTokens = Vec::new();
        for t in plan.tables() {
            if deps.iter().any(|(n, _, _)| n == t) {
                continue;
            }
            let (generation, delta_ops) =
                self.with_table(t, |vt| (vt.generation(), vt.delta_ops()))?;
            deps.push((t.to_string(), generation, delta_ops));
        }
        let epoch = self.catalog_epoch.load(Ordering::Relaxed);
        Ok((deps, epoch))
    }

    /// Lower (or fetch the cached lowering of) `plan`, returning the
    /// tokens it was validated against so callers can reuse them for the
    /// result-cache probe without re-reading table locks.
    fn plan_query_deps(
        &self,
        plan: &LogicalPlan,
        key: &str,
    ) -> Result<(Arc<PhysicalPlan>, DepTokens, u64), DbError> {
        let (deps, epoch) = self.deps_and_epoch(plan)?;
        if let Some(phys) = self.plan_cache.lookup(key, epoch, &deps) {
            return Ok((phys, deps, epoch));
        }
        let phys = Arc::new(self.planner.plan(self, plan)?);
        self.plan_cache
            .insert(key.to_string(), epoch, deps.clone(), phys.clone());
        Ok((phys, deps, epoch))
    }

    /// The `EXPLAIN` of `plan`: the physical plan's rendering — chosen
    /// engine, per-pipeline access path, model cost, all priced
    /// alternatives — plus the result cache's live status for this plan
    /// (`bypass` when disabled or not admitted, otherwise a stat-silent
    /// peek answers `hit` or `miss`).
    pub fn explain(&self, plan: &LogicalPlan) -> Result<String, DbError> {
        let key = format!("{plan:?}");
        let (phys, deps, epoch) = self.plan_query_deps(plan, &key)?;
        let status = if !self.result_cache.is_enabled() || !phys.cache_admit {
            "bypass"
        } else if self
            .result_cache
            .probe(&plan_fingerprint(&phys.logical), epoch, &deps, false)
            .is_some()
        {
            "hit"
        } else {
            "miss"
        };
        Ok(phys.explain_with(Some(status)))
    }

    /// Execute an already-lowered plan, consulting the result cache the
    /// same way [`Database::execute`] does.
    pub fn execute_physical(&self, phys: &PhysicalPlan) -> Result<QueryResult, DbError> {
        self.execute_physical_cached(phys, None)
    }

    /// The cache-wrapped execution path. `deps_epoch` carries the tokens
    /// `execute` already read for the plan cache; `None` (direct
    /// `execute_physical` callers) reads them fresh.
    fn execute_physical_cached(
        &self,
        phys: &PhysicalPlan,
        deps_epoch: Option<(DepTokens, u64)>,
    ) -> Result<QueryResult, DbError> {
        // The entire cache-off cost: one atomic load.
        if !self.result_cache.is_enabled() {
            return self.execute_physical_uncached(phys);
        }
        if !phys.cache_admit {
            // The model priced this result as cheaper to recompute than
            // to copy in and out of a cache.
            self.result_cache.note_bypass();
            return self.execute_physical_uncached(phys);
        }
        let (deps, epoch) = match deps_epoch {
            Some(d) => d,
            None => self.deps_and_epoch(&phys.logical)?,
        };
        let fp = plan_fingerprint(&phys.logical);
        if let Some(hit) = self.result_cache.probe(&fp, epoch, &deps, true) {
            return Ok((*hit.result).clone());
        }
        // Whole-result miss: a cached filtered-scan fragment may still
        // serve this plan (e.g. an aggregate over a previously-run
        // filter); otherwise execute for real.
        let result = match self.fragment_result(&phys.logical, epoch, &deps)? {
            Some(r) => r,
            None => self.execute_physical_uncached(phys)?,
        };
        // Admit only if no DML/merge/shape change raced the execution:
        // the tokens are monotonic, so equality before and after brackets
        // the pinned snapshot and proves the tag matches the rows. A
        // vanished table just skips admission.
        if let Ok((deps_after, epoch_after)) = self.deps_and_epoch(&phys.logical) {
            if deps_after == deps && epoch_after == epoch {
                let result = Arc::new(result);
                let benefit = (phys.cost.total() - phys.copy_out_cycles).max(0.0);
                self.result_cache.admit(
                    fp,
                    epoch,
                    deps,
                    Arc::clone(&result),
                    benefit,
                    self.fragment_schema(&phys.logical),
                );
                return Ok((*result).clone());
            }
        }
        Ok(result)
    }

    /// Execute an already-lowered plan with no cache interaction: an
    /// index-probe root pipeline runs the overlay-aware probe + delta-tail
    /// union the plan recorded; everything else dispatches to the chosen
    /// engine.
    fn execute_physical_uncached(&self, phys: &PhysicalPlan) -> Result<QueryResult, DbError> {
        if let Some(pipe) = phys.pipelines.first().filter(|p| p.access.is_indexed()) {
            if let Some(out) = self.run_index_candidate(&phys.logical, &pipe.table, &pipe.access)? {
                return Ok(QueryResult::new(self.names_for(&phys.logical), out));
            }
            // Index dropped, or lagging the snapshot's generation, since
            // planning — scan instead.
        }
        self.run(&phys.logical, phys.engine.into())
    }

    /// Serve `plan` from a cached filtered-scan fragment: when `plan` is a
    /// **global aggregate** directly over a cached-and-current
    /// `Select(Scan)` fragment, the fragment's rows are rebuilt into a
    /// synthetic table once and the aggregate runs over them on the
    /// compiled engine. Restricted to empty-`group_by` aggregates because
    /// their single-row output is independent of both row order and the
    /// engine that computes it — grouped or row-returning consumers would
    /// tie the output's row *order* to the serving engine, and group order
    /// is an engine-level degree of freedom this cache must not alter.
    fn fragment_result(
        &self,
        plan: &LogicalPlan,
        epoch: u64,
        deps: &DepTokens,
    ) -> Result<Option<QueryResult>, DbError> {
        let LogicalPlan::Aggregate {
            input, group_by, ..
        } = plan
        else {
            return Ok(None);
        };
        if !group_by.is_empty() {
            return Ok(None);
        }
        let Some(frag) = pipeline_fragment(plan) else {
            return Ok(None);
        };
        if !std::ptr::eq(frag, input.as_ref()) {
            return Ok(None);
        }
        let fp = plan_fingerprint(frag);
        // Single-table plans only (fragments never cross joins), so the
        // plan's tokens are exactly the fragment's tokens.
        let Some(entry) = self.result_cache.probe(&fp, epoch, deps, false) else {
            return Ok(None);
        };
        let Some(table) = entry.fragment_table() else {
            return Ok(None);
        };
        self.result_cache.note_fragment_hit(&entry);
        let rewritten = substitute_fragment(plan, FRAGMENT_TABLE);
        let provider = FragProvider { table };
        let output = EngineKind::Compiled
            .engine()
            .execute(&rewritten, &provider)?;
        Ok(Some(QueryResult::new(self.names_for(plan), output)))
    }

    /// The base table's schema when `plan` is a full-schema filtered scan
    /// (`Select` directly over `Scan`) — the shape whose cached result can
    /// later serve as a fragment for other plans.
    fn fragment_schema(&self, plan: &LogicalPlan) -> Option<Schema> {
        let LogicalPlan::Select { input, .. } = plan else {
            return None;
        };
        let LogicalPlan::Scan { table } = input.as_ref() else {
            return None;
        };
        self.with_table(table, |vt| vt.schema().clone()).ok()
    }

    /// Execute `plan`, using an index for the outermost selection when one
    /// matches (the Fig.-10 "indexed" execution path); falls back to the
    /// engine otherwise. Probes are delta-aware: main-store hits minus
    /// tombstones, unioned with the filtered live tail.
    pub fn run_indexed(
        &self,
        plan: &LogicalPlan,
        engine: EngineKind,
    ) -> Result<QueryResult, DbError> {
        if let Some((table, access)) = self.index_candidate(plan) {
            if let Some(out) = self.run_index_candidate(plan, &table, &access)? {
                return Ok(QueryResult::new(self.names_for(plan), out));
            }
        }
        self.run(plan, engine)
    }

    /// Output column names of `plan` against the current catalog (short
    /// read locks; see [`LogicalPlan::output_names`]).
    pub(crate) fn names_for(&self, plan: &LogicalPlan) -> Vec<String> {
        plan.output_names(&|t| {
            self.with_table(t, |vt| {
                vt.schema()
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect()
            })
            .ok()
        })
    }

    /// Recognize `[Project] (Select (Scan))` plans whose predicate contains
    /// an indexed equality or range conjunct, and name the table and the
    /// probe that serves it. Pure shape/catalog matching — no data access,
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
        let entry = self.read_catalog().get(table)?.clone();
        // Column types come from the versioned table's schema, never from
        // the main store: planning a filtered scan must not hydrate a
        // cold table.
        let col_ty = |c: usize| entry.table.with_read(|vt| vt.schema().columns()[c].ty);
        let set = entry.indexes.read().unwrap_or_else(|e| e.into_inner());
        let mut range_cand: Option<AccessPath> = None;
        for conj in conjuncts(pred) {
            let Some((col, op, lit)) = simple_cmp(conj) else {
                continue;
            };
            let Some(ie) = set.by_col.get(&col) else {
                continue;
            };
            match op {
                CmpOp::Eq => {
                    // The probe keys integers by value and strings by
                    // dictionary code; a literal of any other type (or a
                    // cross-type comparison the engines would coerce,
                    // e.g. Int32 column = Float64 literal) has no index
                    // key, so the probe would silently miss main-store
                    // hits — leave those shapes to the scan path.
                    let ty = col_ty(col);
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
                        && matches!(ie.index.as_ref(), Index::RBTree(_))
                        && col_ty(col) != DataType::Str =>
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

    /// Evaluate `plan` via the index probe `access` on `table`: pin a
    /// snapshot, probe the main-store index, drop tombstoned hits,
    /// residual-filter and project
    /// the survivors, then union the live delta tail (full predicate,
    /// append order). Rows come out in scan order — main order then tail
    /// order — exactly what an engine scan of the same plan produces.
    /// Returns `Ok(None)` when the probe no longer matches the catalog
    /// (index dropped since planning) or the index lags the snapshot's
    /// generation (a merge swapped the main in between); the caller falls
    /// back to the engine.
    fn run_index_candidate(
        &self,
        plan: &LogicalPlan,
        table: &str,
        access: &AccessPath,
    ) -> Result<Option<QueryOutput>, DbError> {
        let (project, inner) = match plan {
            LogicalPlan::Project { input, exprs } => (Some(exprs), input.as_ref()),
            other => (None, other),
        };
        let LogicalPlan::Select { pred, .. } = inner else {
            return Ok(None);
        };
        let Some(col) = access.column() else {
            return Ok(None);
        };
        let entry = self.entry(table)?;
        // The snapshot pins (main, overlay, generation) atomically; the
        // index is used only if it covers exactly that main store.
        let snap = entry.table.snapshot();
        let ie = {
            let set = entry.indexes.read().unwrap_or_else(|e| e.into_inner());
            match set.by_col.get(&col) {
                Some(e) => e.clone(),
                None => return Ok(None),
            }
        };
        if ie.generation != snap.generation() {
            return Ok(None); // index not yet rebuilt for this version
        }
        let t = snap.main();
        let mut rows = match access {
            AccessPath::IndexPoint { key, .. } => match key_of_value(t, col, key) {
                Some(k) => ie.index.lookup(k),
                None => Vec::new(), // value not in dictionary → no main hits
            },
            AccessPath::IndexRange { lo, hi, .. } => match ie.index.lookup_range(*lo, *hi) {
                Some(r) => r,
                None => return Ok(None), // index lost range support
            },
            AccessPath::FullScan => return Ok(None),
        };
        rows.sort_unstable();
        let overlay = snap.overlay();
        let materialize = |values: &[Value]| -> Vec<Value> {
            match project {
                Some(exprs) => exprs.iter().map(|e| e.eval(values)).collect(),
                None => values.to_vec(),
            }
        };
        let mut out = QueryOutput::new();
        for r in rows {
            if overlay.as_ref().is_some_and(|o| o.is_dead(r as usize)) {
                continue;
            }
            let row = t.row(r as usize)?;
            if !pred.eval_bool(row.values()) {
                continue;
            }
            out.rows.push(materialize(row.values()));
        }
        if let Some(o) = overlay.as_ref() {
            for row in o.live_tail() {
                if !pred.eval_bool(row.values()) {
                    continue;
                }
                out.rows.push(materialize(row.values()));
            }
        }
        Ok(Some(out))
    }

    /// Take an owned snapshot of every table, each pinned at its current
    /// version. The snapshot is `Send + Sync` and independent of later DML
    /// — the handle concurrent readers query while writers keep appending
    /// (see `pdsm-txn`). Each table's cut is internally consistent; the
    /// cuts of different tables are taken in sequence under one catalog
    /// read lock.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            tables: self
                .read_catalog()
                .iter()
                .map(|(n, e)| (n.clone(), e.table.snapshot()))
                .collect(),
        }
    }
}

/// An owned multi-table snapshot: every table pinned at one version.
/// Implements [`TableProvider`], so it can be handed to any engine — from
/// any thread — while the database keeps moving.
#[derive(Clone)]
pub struct DbSnapshot {
    tables: HashMap<String, Snapshot>,
}

impl DbSnapshot {
    /// The pinned snapshot of `name`.
    pub fn table_snapshot(&self, name: &str) -> Option<&Snapshot> {
        self.tables.get(name)
    }

    /// Output column names of `plan` against the pinned schemas.
    pub(crate) fn output_names(&self, plan: &LogicalPlan) -> Vec<String> {
        plan.output_names(&|t| {
            self.tables.get(t).map(|s| {
                s.main()
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| c.name.clone())
                    .collect()
            })
        })
    }

    /// Execute `plan` against this snapshot with the chosen engine.
    /// Snapshots carry no plan cache, result cache or indexes — planned
    /// execution is [`Database::execute`].
    pub fn run(&self, plan: &LogicalPlan, engine: EngineKind) -> Result<QueryResult, DbError> {
        let output = engine.engine().execute(plan, self)?;
        Ok(QueryResult::new(self.output_names(plan), output))
    }
}

impl TableProvider for DbSnapshot {
    fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|s| s.main())
    }

    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        self.tables.get(name).and_then(|s| s.overlay())
    }
}

/// Provider serving a single materialized fragment under
/// [`FRAGMENT_TABLE`] — what a fragment-rewritten plan scans. No overlay:
/// the fragment is fully materialized, its rows are the whole truth.
struct FragProvider {
    table: Arc<Table>,
}

impl TableProvider for FragProvider {
    fn table(&self, name: &str) -> Option<&Table> {
        (name == FRAGMENT_TABLE).then_some(&self.table)
    }
}

/// Index key of a literal compared against `col`.
fn key_of_value(t: &Table, col: ColId, v: &Value) -> Option<i64> {
    match v {
        Value::Int32(x) => Some(*x as i64),
        Value::Int64(x) => Some(*x),
        Value::Str(s) => t.dict(col).and_then(|d| d.code_of(s)).map(|c| c as i64),
        _ => None,
    }
}
