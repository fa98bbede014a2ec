//! The write path of [`Database`]: row and predicate DML, the write-path
//! maintenance step, and explicit merges / relayouts / checkpoints. (The
//! catalog, recovery, indexes and statistics live in [`crate::database`],
//! the query path in [`crate::query`].)
//!
//! Every write appends to the written table's delta under that table's
//! write lock; queries see main ∪ delta − tombstones through the engines'
//! [`pdsm_exec::Overlay`] support. One implementation per job:
//!
//! * **finding rows** — `UPDATE`/`DELETE … WHERE` match with the query
//!   path's scan loop (`match_rows`: [`pdsm_exec::pipeline::Scan`] into a
//!   row-id sink, a cold main extent-at-a-time — an `UPDATE`'s old rows
//!   are decoded there, while their extent is pinned), then apply them as
//!   one commit — one tombstone and, for an `UPDATE`, one append per row,
//!   however many columns it sets — all under one acquisition of the
//!   write lock: the statement is atomic, in memory and as its one WAL
//!   record, and its rows land at the end of the scan order in match
//!   order;
//! * **merging** — `TableEntry::merge` is the one merge-and-reindex step:
//!   [`pdsm_txn::SharedTable::merge`] (one per table at a time, the fold
//!   off the table lock), then the index rebuild. [`Database::merge`],
//!   [`Database::relayout`], [`Database::merge_all`],
//!   [`Database::checkpoint_all`], [`Database::create_index`], the
//!   threshold-triggered sync and backpressure merges and the background
//!   worker (see [`crate::maintenance`]) all run it.

use crate::database::{Database, DbError, TableEntry};
use crate::maintenance::{advised_merge, AdviseInputs, BuildJob, MaintenanceMode, TablePolicy};
use pdsm_exec::engine::{tail_row_passes, Overlay};
use pdsm_exec::pipeline::{Pipe, PipeSpec, Scan, Source};
use pdsm_exec::zone_preds;
use pdsm_plan::expr::Expr;
use pdsm_storage::row::Row;
use pdsm_storage::{ColId, Layout, Table, Value};
use pdsm_txn::{MergeStats, RowId, Snapshot, VersionedTable};

impl Database {
    /// Append a row to `table`'s delta. Returns its row id (stable until
    /// the next merge — see the struct docs for id stability under
    /// background maintenance). Visible to every subsequent query.
    ///
    /// Locking: the written table's write lock, per operation. Writers to
    /// other tables are unaffected.
    pub fn insert(&self, table: &str, values: &[Value]) -> Result<RowId, DbError> {
        let entry = self.entry(table)?;
        self.maintain(table, &entry)?;
        Ok(entry.table.insert(values)?)
    }

    /// Append many rows atomically (readers see all or none). Same
    /// locking granularity as [`Database::insert`].
    pub fn insert_batch(&self, table: &str, rows: &[Vec<Value>]) -> Result<Vec<RowId>, DbError> {
        let entry = self.entry(table)?;
        self.maintain(table, &entry)?;
        Ok(entry.table.insert_batch(rows)?)
    }

    /// Overwrite one cell of a visible row (tombstone + re-append).
    /// Returns the row's new id. Holds only the written table's write
    /// lock; column resolution and the write are one atomic operation.
    ///
    /// Never runs the maintenance step: `row` is a caller-held id, and a
    /// merge inside the call would renumber it out from under the caller
    /// (inserts and predicate DML run it).
    pub fn update(
        &self,
        table: &str,
        row: RowId,
        column: &str,
        value: &Value,
    ) -> Result<RowId, DbError> {
        let entry = self.entry(table)?;
        Ok(entry.table.with_write(|vt| {
            let col = vt.schema().col_id(column)?;
            vt.update(row, col, value)
        })?)
    }

    /// Tombstone one visible row of `table` (the table's write lock, one
    /// operation). Like [`Database::update`], never runs the maintenance
    /// step (the id argument must stay valid).
    pub fn delete(&self, table: &str, row: RowId) -> Result<(), DbError> {
        Ok(self.entry(table)?.table.with_write(|vt| vt.delete(row))?)
    }

    /// SQL `UPDATE table SET col = v, … [WHERE pred]`: overwrite the given
    /// columns of every visible row matching `pred` (all rows when `None`).
    /// Returns the number of rows updated. The match (`match_rows`: the
    /// query path's scan loop into a row-id sink) and the one commit that
    /// rewrites every matched row happen under one acquisition of the
    /// table's write lock, so the statement is atomic with respect to
    /// concurrent DML, background merge swaps and a crash (it is one WAL
    /// record). `pred` addresses columns in schema order. Runs the
    /// maintenance step first, as an insert does.
    pub fn update_where(
        &self,
        table: &str,
        sets: &[(String, Value)],
        pred: Option<&Expr>,
    ) -> Result<usize, DbError> {
        let entry = self.entry(table)?;
        self.maintain(table, &entry)?;
        entry.table.with_write(|vt| {
            let cols: Vec<(ColId, Value)> = sets
                .iter()
                .map(|(name, v)| vt.schema().col_id(name).map(|c| (c, v.clone())))
                .collect::<Result<_, pdsm_storage::Error>>()?;
            let mut rows = Vec::new();
            let ids = match_rows(vt, pred, Some(&mut rows))?;
            vt.update_rows(&ids, rows, &cols)?;
            Ok(ids.len())
        })
    }

    /// SQL `DELETE FROM table [WHERE pred]`: tombstone every visible row
    /// matching `pred` (all rows when `None`). Returns the number of rows
    /// deleted. One commit under one acquisition of the table's write
    /// lock, and after the maintenance step, like
    /// [`Database::update_where`].
    pub fn delete_where(&self, table: &str, pred: Option<&Expr>) -> Result<usize, DbError> {
        let entry = self.entry(table)?;
        self.maintain(table, &entry)?;
        entry.table.with_write(|vt| {
            let ids = match_rows(vt, pred, None)?;
            vt.delete_rows(&ids)?;
            Ok(ids.len())
        })
    }

    /// Fold `table`'s delta into a fresh main store (current layout) and
    /// rebuild its secondary indexes. Waits for a merge of the table
    /// already running, then folds everything written before the call;
    /// the fold runs off the table lock. Other tables are untouched.
    pub fn merge(&self, table: &str) -> Result<MergeStats, DbError> {
        let merged = self.entry(table)?.merge(0, keep_layout)?;
        Ok(merged.expect("a merge without an op floor always folds"))
    }

    /// Merge every table with a pending delta.
    pub fn merge_all(&self) -> Result<(), DbError> {
        for name in self.table_names() {
            self.entry(&name)?.merge(1, keep_layout)?;
        }
        Ok(())
    }

    /// Bring the durable state fully up to date: every table with a
    /// pending delta is merged (each merge checkpoints — fresh main blob
    /// committed, WAL truncated), and tables that are already clean get a
    /// final WAL fsync. After this returns, reopening the data directory
    /// replays zero WAL ops. No-op for an in-memory database.
    ///
    /// This is the clean-shutdown hook (`pdsm-server` calls it after
    /// `SHUTDOWN`).
    pub fn checkpoint_all(&self) -> Result<(), DbError> {
        for name in self.table_names() {
            let entry = self.entry(&name)?;
            let Some(d) = entry.table.durability() else {
                continue;
            };
            if entry.merge(1, keep_layout)?.is_none() {
                d.sync()?;
            }
        }
        Ok(())
    }

    /// Rebuild `table` under `layout`: a merge into the new layout. With an
    /// empty delta this is a pure relayout and row ids are stable (the
    /// property the index tests rely on); with a pending delta the delta is
    /// folded in and ids renumber. Indexes are rebuilt either way. Like
    /// [`Database::merge`], the fold holds no table lock.
    pub fn relayout(&self, table: &str, layout: Layout) -> Result<(), DbError> {
        self.entry(table)?.merge(0, |_| layout).map(|_| ())
    }

    /// The maintenance step inserts and predicate DML run before applying
    /// their op: check the written table against its merge threshold.
    /// Crossing it merges on this thread ([`MaintenanceMode::Sync`]) or
    /// queues a build for the background worker, which pins its cut when
    /// it starts and applies the swap itself.
    ///
    /// Backpressure: if a build is already queued or running and the delta
    /// has outrun it by `max_lag ×` the threshold, this writer waits for
    /// the table's merge and then merges what is still over the threshold,
    /// bounding what scans pay for.
    fn maintain(&self, table: &str, entry: &TableEntry) -> Result<(), DbError> {
        // Scalar policy only — extracted under the scheduler lock without
        // cloning the config (this runs on every write).
        let policy = self.maintenance.policy_for(table);
        if policy.mode == MaintenanceMode::Off {
            return Ok(());
        }
        let ops = entry.table.delta_ops();
        if ops < policy.threshold {
            return Ok(());
        }
        let backpressure = policy.mode == MaintenanceMode::Background;
        if backpressure {
            let queued = self.maintenance.launch(table, || BuildJob {
                table: table.to_string(),
                entry: entry.clone(),
                min_ops: policy.threshold.max(1),
                advise: self.advise_inputs(table, &policy),
            });
            let lagging =
                policy.max_lag > 0 && ops >= policy.threshold.saturating_mul(policy.max_lag);
            if queued || !lagging {
                return Ok(());
            }
        }
        // Sync mode, or backpressure: wait for the table's merge, then
        // merge what is still over the threshold.
        let advise = self.advise_inputs(table, &policy);
        let min_ops = policy.threshold.max(1);
        if let Some((_, advised)) = advised_merge(entry, table, min_ops, advise.as_ref())? {
            self.maintenance.note_sync_merge(advised, backpressure);
        }
        Ok(())
    }

    /// The advisor inputs a merge of `table` ships to the worker: observed
    /// workload + statistics-free table views. `None` when the policy does
    /// not advise on merge or nothing observed touches the table.
    fn advise_inputs(&self, table: &str, policy: &TablePolicy) -> Option<AdviseInputs> {
        if !policy.advise_on_merge {
            return None;
        }
        let workload = self.observed_workload();
        if !workload
            .queries
            .iter()
            .any(|q| q.plan.tables().contains(&table))
        {
            return None;
        }
        let views = crate::LayoutAdvisor::default().views(self);
        Some(AdviseInputs {
            views,
            workload,
            hierarchy: self.planner.hierarchy.clone(),
        })
    }
}

impl TableEntry {
    /// The one merge: [`pdsm_txn::SharedTable::merge`] of at least
    /// `min_ops` delta ops into the layout `layout` picks from the cut,
    /// then the rebuild of the stale indexes from the main store it
    /// published. `None`: below `min_ops`, nothing happened.
    pub(crate) fn merge(
        &self,
        min_ops: u64,
        layout: impl FnOnce(&Snapshot) -> Layout,
    ) -> Result<Option<MergeStats>, DbError> {
        let Some((stats, main)) = self.table.merge(min_ops, layout)? else {
            return Ok(None);
        };
        self.reindex(&main, stats.generation)?;
        Ok(Some(stats))
    }
}

/// The layout a merge keeps when nothing asks for another: the cut's.
pub(crate) fn keep_layout(cut: &Snapshot) -> Layout {
    cut.store().layout().clone()
}

/// Row ids of every visible row of `vt` matching `pred` (all visible rows
/// when `None`), ascending — which is scan order — and, when `rows` is
/// given, each match's decoded row pushed alongside (an `UPDATE` needs
/// it, and reading it here, while its extent is pinned, is what keeps a
/// cold table at one fault per extent rather than one per matched row).
/// The predicate lowers once, as a query's `Select` over a `Scan` does
/// ([`Pipe::select`]); main-store rows then run the pipeline core's
/// survivor loop (zone refutation → tombstone mask → kernel block masks)
/// into a row-id sink — through [`pdsm_txn::MainStore::for_each_extent`],
/// so a cold main goes extent-at-a-time — and the live tail is
/// interpreted. The id set is only meaningful while the
/// caller's table lock is held.
fn match_rows(
    vt: &VersionedTable,
    pred: Option<&Expr>,
    mut rows: Option<&mut Vec<Row>>,
) -> Result<Vec<RowId>, DbError> {
    let mut pipe = Pipe::new(Source::Table(vt.name().to_string()));
    if let Some(pred) = pred {
        pipe.select(pred);
    }
    let spec = PipeSpec {
        preds: &pipe.preds,
        steps: &[],
        needed: &[],
    };
    let overlay = vt.overlay();
    let dead = Overlay::dead_of(&overlay);
    let mut ids = Vec::new();
    let zps = zone_preds(vt.store().skeleton(), spec.preds);
    // Survivors of `main` — the whole main store, or one extent of it
    // whose first row has id `first`.
    vt.store()
        .for_each_extent(&zps, dead, None, |first, main: &Table, dead| {
            let matched = ids.len();
            Scan::new(main, spec).collect_ids(dead, 0..main.len(), first, &mut ids);
            if let Some(rows) = rows.as_deref_mut() {
                for &id in &ids[matched..] {
                    rows.push(main.row(id - first)?);
                }
            }
            Ok::<_, DbError>(())
        })?;
    if let Some(o) = &overlay {
        let main_len = vt.main_len();
        for (j, row) in o.live_tail_indexed() {
            if tail_row_passes(spec.preds, row) {
                ids.push(main_len + j);
                if let Some(rows) = rows.as_deref_mut() {
                    rows.push(row.clone());
                }
            }
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use crate::database::tests::{count_orders, demo_db, durable_tmpdir, open_off};
    use crate::database::{Database, DurabilityConfig, EngineKind, IndexKind};
    use crate::maintenance::{MaintenanceConfig, MaintenanceMode};
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_storage::{ColumnDef, DataType, Layout, Schema, Value};
    use pdsm_store::FsyncMode;

    #[test]
    fn relayout_preserves_queries_and_indexes() {
        let db = demo_db();
        db.create_index("orders", "id", IndexKind::Hash).unwrap();
        let plan = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(42)))
            .build();
        let before = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
        db.relayout("orders", Layout::column(3)).unwrap();
        let after = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
        before.assert_same(&after, "relayout");
        assert_eq!(db.get_table("orders").unwrap().layout().n_groups(), 3);
    }

    #[test]
    fn merge_rebuilds_stale_indexes() {
        let db = demo_db();
        db.create_index("orders", "id", IndexKind::Hash).unwrap();
        // tombstone one indexed row and append a replacement → pending delta
        db.delete("orders", 3).unwrap();
        db.insert(
            "orders",
            &[Value::Int32(10_000), Value::from("cust-x"), Value::Int64(3)],
        )
        .unwrap();
        // the merge renumbers rows; the index must follow them
        db.merge("orders").unwrap();
        assert!(!db.with_table("orders", |vt| vt.has_delta()).unwrap());
        let new_row = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(10_000)))
            .build();
        let indexed = db.run_indexed(&new_row, EngineKind::Compiled).unwrap();
        let scanned = db.run(&new_row, EngineKind::Compiled).unwrap();
        indexed.assert_same(&scanned, "index rebuilt by the merge");
        assert_eq!(indexed.len(), 1);
        let gone = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(3)))
            .build();
        let indexed = db.run_indexed(&gone, EngineKind::Compiled).unwrap();
        let scanned = db.run(&gone, EngineKind::Compiled).unwrap();
        indexed.assert_same(&scanned, "deleted row absent from rebuilt index");
        assert!(indexed.is_empty());
    }

    #[test]
    fn versioned_dml_and_merge_roundtrip() {
        let db = demo_db();
        let id = db
            .insert(
                "orders",
                &[Value::Int32(900), Value::from("cust-z"), Value::Int64(1)],
            )
            .unwrap();
        let new_id = db.update("orders", id, "qty", &Value::Int64(7)).unwrap();
        assert_ne!(id, new_id);
        db.delete("orders", 0).unwrap();
        let count = QueryBuilder::scan("orders")
            .aggregate(vec![], vec![pdsm_plan::logical::AggExpr::count_star()])
            .build();
        let live = db.run(&count, EngineKind::Compiled).unwrap();
        assert_eq!(live.rows[0][0], Value::Int64(500)); // 500 + 1 − 1
        let stats = db.merge("orders").unwrap();
        assert_eq!(stats.rows_after, 500);
        let merged = db.run(&count, EngineKind::Compiled).unwrap();
        assert_eq!(merged.rows[0][0], Value::Int64(500));
    }

    #[test]
    fn checkpoint_on_merge_makes_recovery_replay_small() {
        let dir = durable_tmpdir("ckpt");
        {
            let db = open_off(&dir);
            db.create_table(
                "orders",
                Schema::new(vec![
                    ColumnDef::new("id", DataType::Int32),
                    ColumnDef::new("qty", DataType::Int64),
                ]),
            )
            .unwrap();
            for i in 0..200 {
                db.insert("orders", &[Value::Int32(i), Value::Int64(i as i64)])
                    .unwrap();
            }
            db.merge("orders").unwrap();
            assert_eq!(db.storage_stats().checkpoints, 1);
            assert_eq!(db.storage_stats().wal_live_bytes, 0);
            // Only these land in the WAL after the checkpoint.
            db.insert("orders", &[Value::Int32(200), Value::Int64(200)])
                .unwrap();
            db.delete("orders", 0).unwrap();
        }
        let db = open_off(&dir);
        // Replay is O(ops since the last checkpoint), not O(history).
        assert_eq!(db.storage_stats().recovery_replay_ops, 2);
        assert_eq!(count_orders(&db), 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_all_leaves_nothing_to_replay() {
        let dir = durable_tmpdir("ckpt-all");
        {
            let db = open_off(&dir);
            db.create_table(
                "orders",
                Schema::new(vec![ColumnDef::new("id", DataType::Int32)]),
            )
            .unwrap();
            for i in 0..30 {
                db.insert("orders", &[Value::Int32(i)]).unwrap();
            }
            db.checkpoint_all().unwrap();
            assert_eq!(db.storage_stats().wal_live_bytes, 0);
        }
        let db = open_off(&dir);
        assert_eq!(db.storage_stats().recovery_replay_ops, 0);
        assert_eq!(count_orders(&db), 30);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_merge_checkpoints_durably() {
        let dir = durable_tmpdir("bg-merge");
        {
            let db = Database::open_with(
                DurabilityConfig::new(&dir).with_fsync(FsyncMode::Off),
                MaintenanceConfig {
                    mode: MaintenanceMode::Background,
                    merge_threshold: 64,
                    ..MaintenanceConfig::default()
                },
            )
            .unwrap();
            db.create_table(
                "orders",
                Schema::new(vec![ColumnDef::new("id", DataType::Int32)]),
            )
            .unwrap();
            for i in 0..500 {
                db.insert("orders", &[Value::Int32(i)]).unwrap();
            }
            db.flush_maintenance().unwrap();
            assert!(db.storage_stats().checkpoints >= 1);
        }
        let db = open_off(&dir);
        assert_eq!(count_orders(&db), 500);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
