//! [`SharedTable`]: single-writer / multi-reader concurrency over a
//! [`VersionedTable`].
//!
//! The lock discipline is deliberately coarse and short: writers take the
//! write lock per operation (delta appends are O(1)) — or once per
//! compound statement through [`SharedTable::with_write`], which is how
//! predicate DML keeps its match and its one commit atomic; readers take the
//! read lock only to clone a [`Snapshot`] and then run queries entirely
//! outside the lock — a still-cold main store's extents fault under no
//! guard of this table.
//!
//! A merge has one shape, [`SharedTable::merge`]: under the table's merge
//! mutex — so merges of one table run one at a time, and a build always
//! finishes against its own cut — it holds the write lock twice, briefly:
//! once to pin the cut, once to replay post-cut ops and swap. The layout
//! choice, the O(table) fold and the checkpoint blob's serialization run
//! between the two, off-lock. Readers that grabbed a snapshot before the
//! merge keep their pinned `Arc`s and are never blocked mid-query or torn.

use crate::table::{MergeStats, RowId, VersionStats, VersionedTable};
use crate::version::{MainStore, Snapshot};
use pdsm_storage::{Layout, Result, Value};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cloneable handle to a concurrently usable versioned table.
#[derive(Debug, Clone)]
pub struct SharedTable {
    inner: Arc<RwLock<VersionedTable>>,
    /// Held for the whole of one [`SharedTable::merge`]. Never taken while
    /// holding the table lock.
    merging: Arc<Mutex<()>>,
}

impl SharedTable {
    /// Share `table`.
    pub fn new(table: VersionedTable) -> Self {
        SharedTable {
            inner: Arc::new(RwLock::new(table)),
            merging: Arc::default(),
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

    /// The one merge: fold the delta into a fresh main store under the
    /// layout `layout` picks from the cut, if the delta holds at least
    /// `min_ops` operations (`0`: always). Waits for a merge of this table
    /// already running, then pins its cut under a short write lock; the
    /// layout choice, the fold and — for a durable table — the blob's
    /// serialization run off-lock; a second short write lock replays the
    /// ops written meanwhile and swaps. Those ops stay as the next delta.
    ///
    /// Returns the merge's stats with the fresh main store it built and
    /// published (its handle, cloned under the swap's lock, so index
    /// rebuilds run over exactly that version), or `Ok(None)` — table
    /// untouched — below `min_ops`. A failed build (a failed blob write
    /// among them) leaves the table untouched too.
    pub fn merge(
        &self,
        min_ops: u64,
        layout: impl FnOnce(&Snapshot) -> Layout,
    ) -> Result<Option<(MergeStats, Arc<MainStore>)>> {
        let _one_at_a_time = self.merging.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = {
            let mut t = self.write();
            if t.delta_ops() < min_ops {
                return Ok(None);
            }
            t.begin_merge()
        };
        let built = ticket.build(layout(ticket.snapshot()));
        drop(ticket);
        let mut t = self.write();
        let stats = match built {
            Ok(built) => t.finish_merge(built)?,
            Err(e) => {
                t.abort_merge();
                return Err(e);
            }
        };
        Ok(Some((stats, Arc::clone(t.store()))))
    }

    /// Merge generation right now.
    pub fn generation(&self) -> u64 {
        self.read().generation()
    }

    /// Version-chain statistics right now (see
    /// [`VersionedTable::version_stats`]).
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

    /// The durability handle, if this table is durable.
    pub fn durability(&self) -> Option<Arc<crate::TableDurability>> {
        self.read().durability()
    }

    /// Run `f` under the read lock (e.g. to inspect the main store).
    pub fn with_read<R>(&self, f: impl FnOnce(&VersionedTable) -> R) -> R {
        f(&self.read())
    }

    /// Run `f` under the write lock (compound write operations). `f` must
    /// not merge: merges go through [`SharedTable::merge`], one at a time.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut VersionedTable) -> R) -> R {
        f(&mut self.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::{ColumnDef, DataType, Schema, Table};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn shared_x() -> SharedTable {
        SharedTable::new(VersionedTable::from_table(Table::new(
            "s",
            Schema::new(vec![ColumnDef::new("x", DataType::Int64)]),
        )))
    }

    fn keep_layout(cut: &Snapshot) -> Layout {
        cut.store().layout().clone()
    }

    #[test]
    fn shared_roundtrip() {
        let shared = shared_x();
        let writer = shared.clone();
        writer.insert(&[Value::Int64(1)]).unwrap();
        let snap = shared.snapshot();
        writer.insert(&[Value::Int64(2)]).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(shared.len(), 2);
        assert!(
            writer.merge(3, keep_layout).unwrap().is_none(),
            "below min_ops"
        );
        assert_eq!(shared.generation(), 0);
        writer.merge(2, keep_layout).unwrap().expect("at min_ops");
        assert_eq!(shared.delta_rows(), 0);
        assert_eq!(snap.len(), 1, "snapshot outlives the merge");
    }

    /// A merge parked inside its layout choice holds no table lock: an
    /// insert, a snapshot and a scan of the same table complete while it
    /// waits. Released, it folds only its cut, and the row written
    /// meanwhile stays as the next delta.
    #[test]
    fn a_parked_merge_blocks_no_reader_or_writer() {
        let shared = shared_x();
        for i in 0..10 {
            shared.insert(&[Value::Int64(i)]).unwrap();
        }
        let (parked_tx, parked_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let shared = &shared;
        std::thread::scope(|s| {
            let merger = s.spawn(move || {
                shared.merge(0, |cut| {
                    parked_tx.send(cut.len()).unwrap();
                    release_rx.recv().unwrap();
                    keep_layout(cut)
                })
            });
            assert_eq!(parked_rx.recv().unwrap(), 10, "the cut holds the ten rows");
            s.spawn(move || {
                shared.insert(&[Value::Int64(100)]).unwrap();
                let scanned = shared.snapshot().rows();
                done_tx.send(scanned.len()).unwrap();
            });
            let done = done_rx.recv_timeout(Duration::from_secs(30));
            release_tx.send(()).unwrap();
            assert_eq!(done.expect("blocked behind the parked merge"), 11);
            let (stats, main) = merger.join().unwrap().unwrap().expect("min_ops 0 merges");
            assert_eq!((stats.delta_rows_folded, main.len()), (10, 10));
        });
        assert_eq!(shared.generation(), 1);
        assert_eq!((shared.delta_rows(), shared.len()), (1, 11));
    }
}
