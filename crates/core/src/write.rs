//! The write path of [`Database`]: row and predicate DML, the insert-path
//! maintenance step, and explicit merges / relayouts / checkpoints.
//!
//! The catalog, open/recovery, index and statistics half of `Database`
//! lives in [`crate::database`]; the query half in [`crate::query`].

use crate::database::{rebuild_index_set, Database, DbError, TableEntry};
use crate::maintenance::{choose_layout, AdviseInputs, BuildJob, MaintenanceMode};
use pdsm_plan::expr::Expr;
use pdsm_storage::{ColId, Layout, Value};
use pdsm_txn::{MergeStats, RowId, VersionedTable};
use std::sync::Arc;

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
    /// (see [`Database::insert`] for where maintenance runs).
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
        Ok(self.entry(table)?.table.delete(row)?)
    }

    /// SQL `UPDATE table SET col = v, … [WHERE pred]`: overwrite the given
    /// columns of every visible row matching `pred` (all rows when `None`).
    /// Returns the number of rows updated. The match and every write happen
    /// under one acquisition of the table's write lock, so the statement is
    /// atomic with respect to concurrent DML and background merge swaps.
    /// `pred` is evaluated against full schema-order rows.
    pub fn update_where(
        &self,
        table: &str,
        sets: &[(String, Value)],
        pred: Option<&Expr>,
    ) -> Result<usize, DbError> {
        let entry = self.entry(table)?;
        Ok(entry.table.with_write(|vt| {
            let cols: Vec<(ColId, Value)> = sets
                .iter()
                .map(|(name, v)| vt.schema().col_id(name).map(|c| (c, v.clone())))
                .collect::<Result<_, _>>()?;
            let ids = matching_ids(vt, pred)?;
            let n = ids.len();
            for id in ids {
                // update() re-appends under a fresh id; chain multi-column
                // sets through the returned id.
                let mut cur = id;
                for (c, v) in &cols {
                    cur = vt.update(cur, *c, v)?;
                }
            }
            Ok::<_, pdsm_storage::Error>(n)
        })?)
    }

    /// SQL `DELETE FROM table [WHERE pred]`: tombstone every visible row
    /// matching `pred` (all rows when `None`). Returns the number of rows
    /// deleted. Atomic under one acquisition of the table's write lock,
    /// like [`Database::update_where`].
    pub fn delete_where(&self, table: &str, pred: Option<&Expr>) -> Result<usize, DbError> {
        let entry = self.entry(table)?;
        Ok(entry.table.with_write(|vt| {
            let ids = matching_ids(vt, pred)?;
            let n = ids.len();
            for id in ids {
                vt.delete(id)?;
            }
            Ok::<_, pdsm_storage::Error>(n)
        })?)
    }

    /// Fold `table`'s delta into a fresh main store (current layout) and
    /// rebuild its secondary indexes. Synchronous: the table's write lock
    /// is held for the fold; any in-flight background build turns stale
    /// and is discarded. Other tables are untouched.
    pub fn merge(&self, table: &str) -> Result<MergeStats, DbError> {
        let entry = self.entry(table)?;
        let (stats, main, generation) = entry.table.with_write(|vt| {
            let stats = vt.merge()?;
            Ok::<_, pdsm_storage::Error>((stats, vt.main_arc(), vt.generation()))
        })?;
        rebuild_index_set(&entry.indexes, &main, generation);
        Ok(stats)
    }

    /// Merge every table with a pending delta.
    pub fn merge_all(&self) -> Result<(), DbError> {
        for name in self.table_names() {
            let entry = self.entry(&name)?;
            if entry.table.has_delta() {
                self.merge(&name)?;
            }
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
            if entry.table.durability().is_none() {
                continue;
            }
            if entry.table.has_delta() {
                self.merge(&name)?;
            } else if let Some(d) = entry.table.durability() {
                d.sync()?;
            }
        }
        Ok(())
    }

    /// Rebuild `table` under `layout`: a merge into the new layout. With an
    /// empty delta this is a pure relayout and row ids are stable (the
    /// property the index tests rely on); with a pending delta the delta is
    /// folded in and ids renumber. Indexes are rebuilt either way. Holds
    /// the table's write lock for the fold.
    pub fn relayout(&self, table: &str, layout: Layout) -> Result<(), DbError> {
        let entry = self.entry(table)?;
        let (_stats, (main, generation)) = entry
            .table
            .merge_with_layout_then(layout, |vt| (vt.main_arc(), vt.generation()))?;
        rebuild_index_set(&entry.indexes, &main, generation);
        Ok(())
    }

    /// The maintenance step every *insert* runs before applying its op:
    /// check the written table against its merge threshold — crossing it
    /// either merges inline ([`MaintenanceMode::Sync`]) or pins a cut and
    /// hands the O(table) fold to the background worker, which applies the
    /// swap itself (catch-up no longer rides the write path).
    ///
    /// Backpressure: if a build is in flight and the delta has outrun it
    /// by `max_lag ×` the threshold, this writer merges synchronously (the
    /// stale build is discarded), bounding what scans pay for.
    fn maintain(&self, table: &str, entry: &TableEntry) -> Result<(), DbError> {
        // Scalar policy only — extracted under the scheduler lock without
        // cloning the config (this runs on every insert).
        let policy = self.maintenance.policy_for(table);
        if policy.mode == MaintenanceMode::Off {
            return Ok(());
        }
        let threshold = policy.threshold;
        let (ops, pending) = entry
            .table
            .with_read(|vt| (vt.delta_ops(), vt.has_pending_merge()));
        if ops < threshold {
            return Ok(());
        }
        // Backpressure applies only when the builder cannot be (re)used:
        // the delta outran it by max_lag thresholds AND either a cut is
        // still pending or the launch slot is blocked (a stale build not
        // yet reaped, or the worker busy). With the slot free, a lagging
        // table just launches a background build — no writer stall.
        let lagging = policy.mode == MaintenanceMode::Background
            && policy.max_lag > 0
            && ops >= threshold.saturating_mul(policy.max_lag);
        if pending {
            if lagging {
                return self.sync_merge_entry(table, entry, &policy, true);
            }
            return Ok(());
        }
        match policy.mode {
            MaintenanceMode::Sync => self.sync_merge_entry(table, entry, &policy, false),
            MaintenanceMode::Background => {
                // Claim the launch slot first so concurrent writers of the
                // same table race begin_merge at most once each.
                if !self.maintenance.try_reserve(table) {
                    if lagging {
                        // Slot blocked while the delta runs away — bound
                        // it inline; the blocked build turns stale.
                        return self.sync_merge_entry(table, entry, &policy, true);
                    }
                    return Ok(());
                }
                let advise = if policy.advise_on_merge {
                    self.advise_inputs(table)
                } else {
                    None
                };
                match entry.table.begin_merge() {
                    Ok(ticket) => {
                        let layout = ticket.snapshot().main().layout().clone();
                        self.maintenance.launch(BuildJob {
                            table: table.to_string(),
                            handle: entry.table.clone(),
                            indexes: Arc::clone(&entry.indexes),
                            ticket,
                            layout,
                            advise,
                        });
                        Ok(())
                    }
                    Err(_) => {
                        // Raced an explicit begin on the shared handle.
                        self.maintenance.unreserve(table);
                        Ok(())
                    }
                }
            }
            MaintenanceMode::Off => Ok(()),
        }
    }

    /// One synchronous, advisor-consulted merge of `table` on the calling
    /// thread (the sync-mode and backpressure path).
    fn sync_merge_entry(
        &self,
        table: &str,
        entry: &TableEntry,
        policy: &crate::maintenance::TablePolicy,
        backpressure: bool,
    ) -> Result<(), DbError> {
        let advise = if policy.advise_on_merge {
            self.advise_inputs(table)
        } else {
            None
        };
        let current = entry.table.with_read(|vt| vt.main().layout().clone());
        let (layout, advised) = choose_layout(
            table,
            current,
            advise.as_ref(),
            &self.planner.hierarchy,
            &pdsm_layout::bpi::OptimizerConfig::default(),
        );
        let merged = entry.table.with_write(|vt| {
            // Re-check under the write lock: concurrent writers of the
            // same table may all have seen the threshold crossed before
            // the first one merged — the latecomers must not each rerun
            // the O(table) fold on a near-empty delta.
            if vt.delta_ops() < policy.threshold.max(1) {
                return Ok::<_, pdsm_storage::Error>(None);
            }
            vt.merge_with_layout(layout)?;
            Ok(Some((vt.main_arc(), vt.generation())))
        })?;
        if let Some((main, generation)) = merged {
            rebuild_index_set(&entry.indexes, &main, generation);
            self.maintenance.note_sync_merge(advised, backpressure);
        }
        Ok(())
    }

    /// The advisor inputs a merge of `table` ships to the worker: observed
    /// workload + statistics-free table views. `None` when nothing
    /// observed touches the table (callers gate on `advise_on_merge`).
    fn advise_inputs(&self, table: &str) -> Option<AdviseInputs> {
        let workload = self.observed_workload();
        if !workload
            .queries
            .iter()
            .any(|q| q.plan.tables().contains(&table))
        {
            return None;
        }
        let views = crate::LayoutAdvisor::default().views(self);
        Some(AdviseInputs { views, workload })
    }
}

/// Row ids of every visible row of `vt` matching `pred` (all visible rows
/// when `None`), in scan order. Runs under the caller's table lock — the
/// id set is only meaningful while that lock is held.
fn matching_ids(
    vt: &VersionedTable,
    pred: Option<&Expr>,
) -> Result<Vec<RowId>, pdsm_storage::Error> {
    let id_space = vt.main().len() + vt.delta_rows();
    let mut ids = Vec::new();
    for id in 0..id_space {
        if !vt.is_visible(id) {
            continue;
        }
        let row = vt.get(id)?;
        if pred.is_none_or(|p| p.eval_bool(row.values())) {
            ids.push(id);
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
    fn edit_main_implicit_merge_rebuilds_indexes() {
        let db = demo_db();
        db.create_index("orders", "id", IndexKind::Hash).unwrap();
        // tombstone one indexed row and append a replacement → pending delta
        db.delete("orders", 3).unwrap();
        db.insert(
            "orders",
            &[Value::Int32(10_000), Value::from("cust-x"), Value::Int64(3)],
        )
        .unwrap();
        // bulk-load access merges implicitly; the index must follow the
        // renumbered rows
        db.edit_main("orders", |_t| {}).unwrap();
        assert!(!db.with_table("orders", |vt| vt.has_delta()).unwrap());
        let new_row = QueryBuilder::scan("orders")
            .filter(Expr::col(0).eq(Expr::lit(10_000)))
            .build();
        let indexed = db.run_indexed(&new_row, EngineKind::Compiled).unwrap();
        let scanned = db.run(&new_row, EngineKind::Compiled).unwrap();
        indexed.assert_same(&scanned, "index rebuilt by implicit merge");
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
    fn background_merge_checkpoints_durably() {
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
