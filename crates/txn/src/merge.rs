//! The decoupled merge pipeline: build-from-snapshot off the write path.
//!
//! [`VersionedTable::merge`](crate::VersionedTable::merge) used to do all
//! its work — an O(table) fold — on the writer's thread. The three-phase
//! pipeline splits that so only O(1)-ish work stays on the write path:
//!
//! 1. **begin** ([`crate::VersionedTable::begin_merge`]) — pin a snapshot
//!    of the current version (the *cut*) and start recording post-cut
//!    tombstones in a replay log. O(1): the cut shares the live delta.
//! 2. **build** ([`MergeTicket::build`]) — fold the pinned snapshot into a
//!    fresh main store under any layout, recording a remap from cut row
//!    ids to fresh positions. Lock-free: runs on any thread, off the
//!    writer's critical path, while writes keep landing in the delta.
//! 3. **finish** ([`crate::VersionedTable::finish_merge`]) — replay the
//!    ops that arrived during the build (tombstones re-applied through the
//!    remap; post-cut tail rows carried into the new delta) and swap the
//!    fresh main in. O(ops since cut), *not* O(table).
//!
//! The epoch stamped on the ticket guards the swap: if another merge
//! completed (or the pending build was aborted) in between, `finish_merge`
//! fails with [`pdsm_storage::Error::StaleMergeBuild`] and the table is
//! untouched — the caller just discards the build.

use crate::version::Snapshot;
use pdsm_storage::{Layout, Result, Table};

/// Phase-1 output: the pinned cut plus the epoch that must still be
/// current at swap time. `Send + Sync`, cheap to move to a worker thread.
#[derive(Debug, Clone)]
pub struct MergeTicket {
    pub(crate) snapshot: Snapshot,
    pub(crate) epoch: u64,
}

impl MergeTicket {
    /// The pinned cut this build will fold.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The merge epoch this ticket belongs to (what
    /// [`crate::VersionedTable::finish_merge`] checks, and what
    /// [`crate::VersionedTable::abort_merge_epoch`] takes so an owner
    /// aborts only its *own* pending merge).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Phase 2: fold the cut into a fresh main store under `layout`.
    /// Lock-free — touches only the pinned snapshot.
    pub fn build(&self, layout: Layout) -> Result<BuiltMain> {
        let main = self.snapshot.main();
        let overlay = self.snapshot.overlay();
        let mut fresh = Table::with_layout(main.name().to_string(), main.schema().clone(), layout)?;
        fresh.reserve(self.snapshot.len());
        // Remap cut-space row ids (main positions, then tail ordinals) to
        // positions in the fresh main; `None` = dead at the cut.
        let cut_tail = overlay.as_ref().map(|o| o.tail.len()).unwrap_or(0);
        let mut remap: Vec<Option<u32>> = vec![None; main.len() + cut_tail];
        let mut pos = 0u32;
        let mut dead_at_cut = 0usize;
        for (i, slot) in remap.iter_mut().enumerate().take(main.len()) {
            if overlay.as_ref().is_some_and(|o| o.is_dead(i)) {
                dead_at_cut += 1;
                continue;
            }
            fresh.insert(main.row(i)?.values())?;
            *slot = Some(pos);
            pos += 1;
        }
        let mut tail_folded = 0usize;
        if let Some(o) = overlay {
            for (j, row) in o.tail.iter().enumerate() {
                if !o.tail_alive.is_empty() && !o.tail_alive[j] {
                    dead_at_cut += 1;
                    continue;
                }
                fresh.insert(row.values())?;
                remap[main.len() + j] = Some(pos);
                pos += 1;
                tail_folded += 1;
            }
        }
        // Warm the zone map here, off the writer lock: the fold above
        // already touched every value, and the checkpoint taken by
        // `finish_merge` persists the zones alongside the partitions. (A
        // post-cut replay invalidates them; they then rebuild lazily.)
        fresh.zone_map();
        Ok(BuiltMain {
            epoch: self.epoch,
            table: fresh,
            remap,
            cut_main_rows: main.len(),
            cut_tail,
            dead_at_cut,
            tail_folded,
        })
    }
}

/// Phase-2 output: the fresh main store plus everything `finish_merge`
/// needs to replay post-cut ops onto it.
#[derive(Debug)]
pub struct BuiltMain {
    pub(crate) epoch: u64,
    pub(crate) table: Table,
    /// Cut-space row id → position in `table`; `None` = dead at the cut.
    pub(crate) remap: Vec<Option<u32>>,
    pub(crate) cut_main_rows: usize,
    pub(crate) cut_tail: usize,
    pub(crate) dead_at_cut: usize,
    pub(crate) tail_folded: usize,
}

impl BuiltMain {
    /// The freshly built main store (what `finish_merge` will swap in).
    /// Build owners use this to pre-serialize the checkpoint blob off the
    /// table lock (see `TableDurability::pre_persist`).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Rows in the fresh main store.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True iff the fresh main store is empty.
    pub fn is_empty(&self) -> bool {
        self.table.len() == 0
    }
}
