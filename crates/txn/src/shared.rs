//! [`SharedTable`]: single-writer / multi-reader concurrency over a
//! [`VersionedTable`].
//!
//! The lock discipline is deliberately coarse and short: writers take the
//! write lock per operation (delta appends are O(1)) — or once per
//! compound statement through [`SharedTable::with_write`], which is how
//! predicate DML keeps its match and its one commit atomic; readers take the
//! read lock only to clone a [`Snapshot`] and then run queries entirely
//! outside the lock — including the hydration of a still-cold main store,
//! which no [`SharedTable`] method performs under either guard. Merges
//! come in two shapes. A synchronous
//! [`SharedTable::merge`] holds the write lock for the whole fold. A
//! background merge holds it twice, briefly: [`SharedTable::begin_merge`]
//! pins the cut, then [`SharedTable::complete_merge`] — the one
//! build → pre-persist → finish sequence, shared by
//! [`SharedTable::background_merge`] and `pdsm-core`'s maintenance worker
//! — folds off-lock and retakes the lock only to replay post-cut ops and
//! swap. Either way, readers that grabbed a snapshot before the merge
//! keep their pinned `Arc`s and are never blocked mid-query or torn.

use crate::merge::{BuiltMain, MergeTicket};
use crate::registry::VersionStats;
use crate::table::{MergeStats, RowId, VersionedTable, WriteStats};
use crate::version::Snapshot;
use pdsm_storage::{Error, Layout, Result, Table, Value};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cloneable handle to a concurrently usable versioned table.
#[derive(Debug, Clone)]
pub struct SharedTable {
    inner: Arc<RwLock<VersionedTable>>,
}

impl SharedTable {
    /// Share `table`.
    pub fn new(table: VersionedTable) -> Self {
        SharedTable {
            inner: Arc::new(RwLock::new(table)),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, VersionedTable> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, VersionedTable> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a consistent snapshot. The read lock is held only for the
    /// clone; queries on the returned snapshot run lock-free.
    pub fn snapshot(&self) -> Snapshot {
        self.read().snapshot()
    }

    /// Append one row.
    pub fn insert(&self, values: &[Value]) -> Result<RowId> {
        self.write().insert(values)
    }

    /// Append many rows as one atomic operation (readers see all or none).
    pub fn insert_batch(&self, rows: &[Vec<Value>]) -> Result<Vec<RowId>> {
        self.write().insert_batch(rows)
    }

    /// Fold the delta into a fresh main store (current layout),
    /// synchronously: the write lock is held for the whole fold. Prefer
    /// [`SharedTable::background_merge`] when writers must not stall.
    pub fn merge(&self) -> Result<MergeStats> {
        self.write().merge()
    }

    /// Fold the delta into a fresh main store under `layout` (write lock
    /// held for the whole fold).
    pub fn merge_with_layout(&self, layout: Layout) -> Result<MergeStats> {
        self.write().merge_with_layout(layout)
    }

    /// Phase 1 of a background merge: pin the cut and start the replay
    /// log. The write lock is held only to take one snapshot — O(1).
    pub fn begin_merge(&self) -> Result<MergeTicket> {
        self.write().begin_merge()
    }

    /// Phase 3 of a background merge: replay post-cut ops and swap. The
    /// write lock is held only for the O(ops since cut) replay.
    pub fn finish_merge(&self, built: BuiltMain) -> Result<MergeStats> {
        self.write().finish_merge(built)
    }

    /// Drop the pending merge build only if `epoch` stamps it (the safe
    /// abort for a build owner that may have been preempted).
    pub fn abort_merge_epoch(&self, epoch: u64) -> bool {
        self.write().abort_merge_epoch(epoch)
    }

    /// Run one full background merge from this thread: begin (short write
    /// lock) → build off-lock, writers and readers proceed → finish (short
    /// write lock). This is the maintenance-thread entry point.
    ///
    /// Returns `Ok(None)` without touching the table when a build is
    /// already pending or the swap lost to a concurrent explicit merge.
    pub fn background_merge(&self) -> Result<Option<MergeStats>> {
        self.background_merge_with(None)
    }

    /// [`SharedTable::background_merge`], folding into `layout` (e.g. the
    /// layout advisor's pick) instead of the current one.
    pub fn background_merge_with(&self, layout: Option<Layout>) -> Result<Option<MergeStats>> {
        let ticket = match self.write().begin_merge() {
            Ok(t) => t,
            Err(Error::MergeInProgress) => return Ok(None),
            Err(e) => return Err(e),
        };
        let layout = layout.unwrap_or_else(|| ticket.snapshot().store().layout().clone());
        Ok(self
            .complete_merge(&ticket, layout)?
            .map(|(stats, _)| stats))
    }

    /// Phases 2 and 3 of a background merge, from any thread: fold
    /// `ticket`'s cut into `layout` off-lock, then replay post-cut ops and
    /// swap under a short write lock. Returns the merge's stats with the
    /// main store it published (captured under the swap's lock, so index
    /// rebuilds run over exactly that version), or `Ok(None)` — table
    /// untouched — when the build turned stale: an explicit merge won.
    /// A failed build aborts its own pending cut and nobody else's.
    pub fn complete_merge(
        &self,
        ticket: &MergeTicket,
        layout: Layout,
    ) -> Result<Option<(MergeStats, Arc<Table>)>> {
        let built = match ticket.build(layout) {
            Ok(b) => b,
            Err(e) => {
                // Epoch-guarded: a sync merge may have preempted us and
                // someone else may have begun a newer one meanwhile.
                self.abort_merge_epoch(ticket.epoch());
                return Err(e);
            }
        };
        // Durable tables: serialize the built main to its epoch-stamped
        // temp blob off-lock, so the checkpoint inside finish_merge can
        // rename it instead of serializing under the write lock. Errors
        // are ignored — a failed (and self-removed) pre-persist just
        // means the checkpoint falls back to inline serialization.
        if let Some(d) = self.durability() {
            let generation = ticket.snapshot().generation() + 1;
            let _ = d.pre_persist(built.table(), generation, ticket.epoch());
        }
        let mut t = self.write();
        match t.finish_merge(built) {
            Ok(stats) => Ok(Some((stats, t.store().table().clone()))),
            Err(Error::StaleMergeBuild) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Merge generation right now.
    pub fn generation(&self) -> u64 {
        self.read().generation()
    }

    /// Version-chain statistics right now (see [`crate::registry`]).
    pub fn version_stats(&self) -> VersionStats {
        self.read().version_stats()
    }

    /// Visible row count right now.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True iff no rows are visible right now.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Delta rows pending merge right now.
    pub fn delta_rows(&self) -> usize {
        self.read().delta_rows()
    }

    /// Write operations since the last merge right now (the merge-threshold
    /// metric maintenance schedulers watch).
    pub fn delta_ops(&self) -> u64 {
        self.read().delta_ops()
    }

    /// True iff any write happened since the last merge.
    pub fn has_delta(&self) -> bool {
        self.read().has_delta()
    }

    /// True iff a background merge build is in flight.
    pub fn has_pending_merge(&self) -> bool {
        self.read().has_pending_merge()
    }

    /// Shared handle to the current main store, resident. A cold main is
    /// hydrated here — after the read lock is released, so writers never
    /// wait behind the faults.
    pub fn main_arc(&self) -> Arc<Table> {
        let store = Arc::clone(self.read().store());
        store.table().clone()
    }

    /// Cumulative write counters.
    pub fn write_stats(&self) -> WriteStats {
        self.read().write_stats()
    }

    /// The durability handle, if this table is durable.
    pub fn durability(&self) -> Option<Arc<crate::TableDurability>> {
        self.read().durability()
    }

    /// Run `f` under the read lock (e.g. to inspect the main store).
    pub fn with_read<R>(&self, f: impl FnOnce(&VersionedTable) -> R) -> R {
        f(&self.read())
    }

    /// Run `f` under the write lock (compound write operations).
    pub fn with_write<R>(&self, f: impl FnOnce(&mut VersionedTable) -> R) -> R {
        f(&mut self.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::{ColumnDef, DataType, Schema};

    #[test]
    fn shared_roundtrip() {
        let t = VersionedTable::from_table(Table::new(
            "s",
            Schema::new(vec![ColumnDef::new("x", DataType::Int64)]),
        ));
        let shared = SharedTable::new(t);
        let writer = shared.clone();
        writer.insert(&[Value::Int64(1)]).unwrap();
        let snap = shared.snapshot();
        writer.insert(&[Value::Int64(2)]).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(shared.len(), 2);
        writer.merge().unwrap();
        assert_eq!(shared.delta_rows(), 0);
        assert_eq!(snap.len(), 1, "snapshot outlives the merge");
    }
}
