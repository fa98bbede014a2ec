//! Background maintenance: the scheduler that takes merges off the write
//! path.
//!
//! Every DML call used to be the only thing that could pay for a merge —
//! an O(table) fold on the writer's thread, a throughput cliff on
//! write-heavy mixes at small thresholds (`pdsm-bench`'s `htap_mixed`
//! workload watches it as `write_p95_us` and `txn.merge_ms`). The
//! [`MaintenanceScheduler`] owned by [`crate::Database`] decouples that:
//!
//! * it watches every table's `delta_ops` against a configurable
//!   threshold (global default + per-table overrides);
//! * when a table crosses it, the writer only queues a build — clones of
//!   the table's [`pdsm_txn::SharedTable`] handle and its index set, plus
//!   the layout advisor's inputs — for a background worker thread, at
//!   most one per table;
//! * the worker runs the table's one merge, [`pdsm_txn::SharedTable::merge`]
//!   — pin the cut when it starts, consult the advisor on the observed
//!   workload so drifted tables merge straight into an advised layout,
//!   fold off the table lock, replay post-cut ops and swap under a short
//!   write lock — and rebuilds the table's secondary indexes from the
//!   fresh main store. Writers never apply someone else's merge.
//!
//! ## Backpressure
//!
//! A fast writer can outrun the builder: while one build is queued or
//! running the delta keeps growing, and scans pay for every pending row.
//! When a table's `delta_ops` exceeds `max_lag ×` its merge threshold and
//! a build is already queued or running, the writing thread waits for the
//! table's merge (merges of one table run one at a time) and then merges
//! what is still over the threshold itself, off the table lock. With no
//! build in flight, a lagging table just queues one: writers never stall
//! when the worker is available. [`MaintenanceConfig::max_lag`] is the
//! factor (8; `0` disables backpressure).
//!
//! ## Modes (`PDSM_MERGE`)
//!
//! * `background` (default) — builds run and are applied on the worker
//!   thread.
//! * `sync` — threshold crossings merge inline on the writer's thread:
//!   deterministic, single-threaded, what 1-core CI and differential tests
//!   want. Results are byte-identical to the background path (both run the
//!   same merge; see `pdsm_txn::merge`).
//! * `off` — the scheduler never merges; only explicit
//!   [`crate::Database::merge`] calls do.
//!
//! `PDSM_MERGE_THRESHOLD` sets the global delta-ops threshold (default
//! 65536). All knobs are read once, when the [`MaintenanceConfig`] is
//! built from the environment (i.e. at `Database::new`).

use crate::database::{DbError, TableEntry};
use pdsm_cost::Hierarchy;
use pdsm_layout::bpi::{optimize_table, OptimizerConfig};
use pdsm_layout::workload::Workload;
use pdsm_plan::patterns::TableView;
use pdsm_storage::Layout;
use pdsm_txn::MergeStats;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;

/// When the scheduler is allowed to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Builds run — and are applied — on the background worker.
    #[default]
    Background,
    /// Threshold crossings merge inline on the writer's thread
    /// (deterministic fallback for 1-core runs and differential tests).
    Sync,
    /// The scheduler never merges.
    Off,
}

/// Scheduler policy. [`MaintenanceConfig::from_env`] honors the
/// `PDSM_MERGE` / `PDSM_MERGE_THRESHOLD` knobs; `Database::new` uses it.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    pub mode: MaintenanceMode,
    /// Delta ops (writes since last merge) that trigger a merge.
    pub merge_threshold: u64,
    /// Per-table threshold overrides.
    pub per_table: HashMap<String, u64>,
    /// Consult `LayoutAdvisor::advise_observed`-equivalent inputs at merge
    /// time, so tables whose observed workload drifted merge into an
    /// advised layout automatically.
    pub advise_on_merge: bool,
    /// Backpressure factor: once `delta_ops ≥ max_lag × threshold` while
    /// a build of the table is queued or running, the writing thread waits
    /// for it and merges what is still over the threshold, instead of
    /// letting the delta grow without bound. `0` disables backpressure.
    pub max_lag: u64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            mode: MaintenanceMode::default(),
            merge_threshold: 65_536,
            per_table: HashMap::new(),
            advise_on_merge: true,
            max_lag: 8,
        }
    }
}

impl MaintenanceConfig {
    /// Defaults overridden by `PDSM_MERGE` (`background` | `sync` | `off`)
    /// and `PDSM_MERGE_THRESHOLD` (delta ops).
    pub fn from_env() -> Self {
        let mut cfg = MaintenanceConfig::default();
        match std::env::var("PDSM_MERGE").ok().as_deref() {
            Some("sync") => cfg.mode = MaintenanceMode::Sync,
            Some("off") => cfg.mode = MaintenanceMode::Off,
            _ => {}
        }
        if let Some(t) = std::env::var("PDSM_MERGE_THRESHOLD")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            cfg.merge_threshold = t;
        }
        cfg
    }

    /// The threshold applying to `table`.
    pub fn threshold_for(&self, table: &str) -> u64 {
        self.per_table
            .get(table)
            .copied()
            .unwrap_or(self.merge_threshold)
    }
}

/// What the scheduler has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Background builds handed to the worker.
    pub builds_started: u64,
    /// Background builds the worker applied (replay + swap + index
    /// rebuild).
    pub builds_applied: u64,
    /// Background builds that merged nothing: an explicit or backpressure
    /// merge had already folded the delta below the threshold when the
    /// worker started, or the build failed.
    pub builds_discarded: u64,
    /// Merges run on the writer's thread: in [`MaintenanceMode::Sync`],
    /// and by backpressure.
    pub sync_merges: u64,
    /// Writer-thread merges forced by backpressure: the delta outran a
    /// queued or running build by [`MaintenanceConfig::max_lag`]
    /// thresholds.
    pub backpressure_merges: u64,
    /// Merges (any path) that folded into an advisor-chosen layout
    /// differing from the table's previous one.
    pub advised_relayouts: u64,
}

/// The scalar maintenance policy for one table at one instant (see
/// [`MaintenanceScheduler::policy_for`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TablePolicy {
    pub mode: MaintenanceMode,
    pub threshold: u64,
    pub max_lag: u64,
    pub advise_on_merge: bool,
}

/// A build order for the worker: the catalog entry to merge (the worker
/// pins its cut when it starts, merges through the table handle and
/// rebuilds the index set from the fresh main), the delta-op floor below
/// which the build merges nothing, and the advisor's inputs.
pub(crate) struct BuildJob {
    pub table: String,
    pub entry: TableEntry,
    pub min_ops: u64,
    pub advise: Option<AdviseInputs>,
}

/// Everything `optimize_table` needs, captured on the write path (cheap:
/// views carry no statistics) and shipped to the worker so the BPi search
/// itself runs off the hot path.
pub(crate) struct AdviseInputs {
    pub views: HashMap<String, TableView>,
    pub workload: Workload,
    /// The database's hardware model — the planner's — travelling with
    /// the inputs, so a table folds into the same layout whichever thread
    /// prices the advice.
    pub hierarchy: Hierarchy,
}

/// Mutable scheduler state, shared between the front (DML threads) and
/// the worker thread. The mutex is held only for bookkeeping — never
/// across a fold, a table lock, or an index rebuild.
struct SchedState {
    /// Job channel to the worker; `None` until the first background build.
    tx: Option<Sender<BuildJob>>,
    handle: Option<JoinHandle<()>>,
    /// Tables with a build queued or running (suppresses re-triggering).
    in_flight: HashSet<String>,
    /// Merges the worker applied since the last drain.
    applied: Vec<(String, MergeStats)>,
    stats: MaintenanceStats,
}

struct SchedShared {
    /// The active policy, swapped wholesale on change. Kept outside the
    /// state mutex so the per-insert policy probe takes only a shared
    /// read lock and clones an `Arc` — no exclusive serialization point
    /// and no allocation on the write hot path.
    cfg: RwLock<Arc<MaintenanceConfig>>,
    state: Mutex<SchedState>,
    /// Signalled whenever a build completes (applied or discarded).
    done: Condvar,
}

impl SchedShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cfg(&self) -> Arc<MaintenanceConfig> {
        Arc::clone(&self.cfg.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The per-database maintenance engine. `Database` consults it on every
/// insert and predicate DML call; it owns the worker thread (spawned lazily on the
/// first background build, so `sync`/`off` databases never start one).
/// All entry points take `&self` — the scheduler is interior-mutable, the
/// shape the shared `Database` handle requires.
pub struct MaintenanceScheduler {
    shared: Arc<SchedShared>,
}

impl MaintenanceScheduler {
    pub fn new(cfg: MaintenanceConfig) -> Self {
        MaintenanceScheduler {
            shared: Arc::new(SchedShared {
                cfg: RwLock::new(Arc::new(cfg)),
                state: Mutex::new(SchedState {
                    tx: None,
                    handle: None,
                    in_flight: HashSet::new(),
                    applied: Vec::new(),
                    stats: MaintenanceStats::default(),
                }),
                done: Condvar::new(),
            }),
        }
    }

    /// A copy of the active policy. (The scheduler is shared across
    /// threads, so no reference into it can be handed out.)
    pub fn config(&self) -> MaintenanceConfig {
        (*self.shared.cfg()).clone()
    }

    /// The scalar policy applying to one table — what the write-path
    /// maintenance check needs. A shared read lock + `Arc` bump, then the
    /// fields are read lock-free: no exclusive lock and no allocation on
    /// the write hot path.
    pub(crate) fn policy_for(&self, table: &str) -> TablePolicy {
        let cfg = self.shared.cfg();
        TablePolicy {
            mode: cfg.mode,
            threshold: cfg.threshold_for(table),
            max_lag: cfg.max_lag,
            advise_on_merge: cfg.advise_on_merge,
        }
    }

    /// Replace the policy. Takes effect from the next write.
    pub fn set_config(&self, cfg: MaintenanceConfig) {
        *self.shared.cfg.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(cfg);
    }

    /// Adjust the policy in place under the config lock.
    pub fn update_config(&self, f: impl FnOnce(&mut MaintenanceConfig)) {
        let mut guard = self.shared.cfg.write().unwrap_or_else(|e| e.into_inner());
        let mut cfg = (**guard).clone();
        f(&mut cfg);
        *guard = Arc::new(cfg);
    }

    pub fn stats(&self) -> MaintenanceStats {
        self.shared.lock().stats
    }

    pub(crate) fn note_sync_merge(&self, advised: bool, backpressure: bool) {
        let mut st = self.shared.lock();
        st.stats.sync_merges += 1;
        if backpressure {
            st.stats.backpressure_merges += 1;
        }
        if advised {
            st.stats.advised_relayouts += 1;
        }
    }

    /// Queue the build `job` makes for `table` on the worker (spawning it
    /// on first use), unless one is already queued or running. Returns
    /// whether it queued one.
    pub(crate) fn launch(&self, table: &str, job: impl FnOnce() -> BuildJob) -> bool {
        if !self.shared.lock().in_flight.insert(table.to_string()) {
            return false;
        }
        // Built outside the scheduler lock: the advisor inputs read the
        // catalog.
        let job = job();
        let mut st = self.shared.lock();
        st.stats.builds_started += 1;
        if st.tx.is_none() {
            let (tx, rx) = channel::<BuildJob>();
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name("pdsm-maintenance".into())
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        run_build(job, &shared);
                    }
                })
                .expect("spawn maintenance worker");
            st.tx = Some(tx);
            st.handle = Some(handle);
        }
        // A send fails only if the worker thread died (a panic outside
        // run_build's contained region). Release the slot and drop the
        // dead worker so the next launch respawns a fresh one — a lost
        // build never disables automatic merging and never wedges flush().
        let sent = st.tx.as_ref().expect("installed above").send(job).is_ok();
        if !sent {
            st.stats.builds_discarded += 1;
            st.in_flight.remove(table);
            st.tx = None;
            st.handle = None; // already dead; dropping detaches it
            drop(st);
            self.shared.done.notify_all();
        }
        sent
    }

    /// Block until every in-flight build has been applied (or discarded),
    /// then drain the applied list — the deterministic quiesce point tests
    /// and benchmarks use.
    pub fn flush(&self) -> Vec<(String, MergeStats)> {
        let mut st = self.shared.lock();
        while !st.in_flight.is_empty() {
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        std::mem::take(&mut st.applied)
    }
}

impl Drop for MaintenanceScheduler {
    fn drop(&mut self) {
        let (tx, handle) = {
            let mut st = self.shared.lock();
            (st.tx.take(), st.handle.take())
        };
        drop(tx); // closes the channel; the worker loop exits
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// Process one build on the worker thread: the table's advised merge
/// (which pins its cut now, then folds and swaps) and the index rebuild,
/// then record the outcome. Panics inside are contained and the build
/// counted as discarded, so a poisoned table never wedges the scheduler.
fn run_build(job: BuildJob, shared: &SchedShared) {
    let BuildJob {
        table,
        entry,
        min_ops,
        advise,
    } = job;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        advised_merge(&entry, &table, min_ops, advise.as_ref())
    }));
    drop(entry);
    let mut st = shared.lock();
    st.in_flight.remove(&table);
    match outcome {
        Ok(Ok(Some((stats, advised)))) => {
            st.stats.builds_applied += 1;
            if advised {
                st.stats.advised_relayouts += 1;
            }
            st.applied.push((table, stats));
        }
        _ => st.stats.builds_discarded += 1,
    }
    drop(st);
    shared.done.notify_all();
}

/// [`TableEntry::merge`] of `table` into the layout the advisor picks
/// from `advise` for the cut: its choice over the observed workload when
/// it differs from the cut's layout, otherwise the cut's. With the merge's
/// stats, returns whether the advice changed the layout.
pub(crate) fn advised_merge(
    entry: &TableEntry,
    table: &str,
    min_ops: u64,
    advise: Option<&AdviseInputs>,
) -> Result<Option<(MergeStats, bool)>, DbError> {
    let mut advised = false;
    let merged = entry.merge(min_ops, |cut| {
        let current = cut.store().layout().clone();
        match advise.and_then(|a| advised_layout(table, a)) {
            Some(layout) if layout != current => {
                advised = true;
                layout
            }
            _ => current,
        }
    })?;
    Ok(merged.map(|stats| (stats, advised)))
}

/// The advisor's layout for `table` over the observed workload, if it has
/// inputs to advise from.
fn advised_layout(table: &str, a: &AdviseInputs) -> Option<Layout> {
    if a.workload.queries.is_empty() || !a.views.contains_key(table) {
        return None;
    }
    let cfg = OptimizerConfig::default();
    Some(optimize_table(table, &a.views, &a.workload, &a.hierarchy, &cfg).layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_plan::logical::{AggExpr, AggFunc};
    use pdsm_storage::{ColumnDef, DataType, Schema, Value};

    /// The layout a threshold merge in `mode` folds a 16-column table into
    /// after narrow scan traffic was observed, on a database whose planner
    /// prices against `hierarchy`.
    fn advised_layout(mode: MaintenanceMode, hierarchy: Hierarchy) -> Layout {
        let mut db = Database::with_maintenance(MaintenanceConfig {
            mode,
            merge_threshold: 200,
            ..MaintenanceConfig::default()
        });
        db.planner.hierarchy = hierarchy;
        let cols: Vec<ColumnDef> = (0..16)
            .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
            .collect();
        db.create_table("r", Schema::new(cols)).unwrap();
        let insert = |n: i32| {
            for i in 0..n {
                let row: Vec<Value> = (0..16).map(|c| Value::Int32(i * 16 + c)).collect();
                db.insert("r", &row).unwrap();
            }
            db.flush_maintenance().unwrap();
        };
        insert(2000);
        let q = QueryBuilder::scan("r")
            .filter_with_selectivity(Expr::col(0).eq(Expr::lit(3)), 0.05)
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
            .build();
        for _ in 0..5 {
            db.execute(&q).unwrap();
        }
        insert(250);
        db.get_table("r").unwrap().layout().clone()
    }

    /// One hardware model per database: the worker prices layout advice
    /// against the hierarchy the planner and the sync path use, so a table
    /// folds into the same layout in either mode.
    #[test]
    fn background_builds_advise_with_the_databases_hierarchy() {
        // Every access free: no layout beats another, advice keeps rows.
        let flat = Hierarchy::nehalem().with_latencies(&[0.0; 6]);
        let sync = advised_layout(MaintenanceMode::Sync, flat.clone());
        assert_eq!(advised_layout(MaintenanceMode::Background, flat), sync);
        assert_ne!(
            sync,
            advised_layout(MaintenanceMode::Sync, Hierarchy::nehalem()),
            "the model under test must disagree with Nehalem, or this test \
             cannot tell which of the two the worker priced against"
        );
    }
}
