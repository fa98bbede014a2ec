//! The merge pipeline: build-from-snapshot off the write path.
//!
//! A merge folds the delta into a fresh main store — an O(table) job. The
//! three phases keep only O(1)-ish work under the table lock:
//!
//! 1. **begin** ([`crate::VersionedTable::begin_merge`]) — pin a snapshot
//!    of the current version (the *cut*) and start recording post-cut
//!    tombstones in a replay log. O(1): the cut shares the live delta.
//! 2. **build** ([`MergeTicket::build`]) — fold the pinned snapshot into a
//!    fresh resident main store under any layout, recording a remap from
//!    cut row ids to fresh positions, and — for a durable table —
//!    serialize it to the next generation's temp blob. The fold walks the
//!    cut's main extent by extent ([`crate::MainStore::for_each_extent`]),
//!    so a cold main stays cold and holds one pinned extent at a time.
//!    Lock-free: runs on any thread, off the writer's critical path, while
//!    writes keep landing in the delta.
//! 3. **finish** ([`crate::VersionedTable::finish_merge`]) — replay the
//!    ops that arrived during the build (tombstones re-applied through the
//!    remap; post-cut tail rows carried into the new delta), swap the
//!    fresh main in and checkpoint by renaming the blob. O(ops since cut),
//!    *not* O(table).
//!
//! A table has at most one cut at a time: [`crate::SharedTable::merge`]
//! runs the three phases under the table's merge mutex, so a build always
//! finishes against the cut it was begun from.

use crate::durability::TableDurability;
use crate::version::Snapshot;
use pdsm_exec::Overlay;
use pdsm_storage::{Layout, Result, Table};
use std::sync::Arc;

/// Phase-1 output: the pinned cut, plus the table's durability handle
/// when the build must also persist its blob. `Send + Sync`, cheap to
/// move to a worker thread.
#[derive(Debug, Clone)]
pub struct MergeTicket {
    pub(crate) snapshot: Snapshot,
    pub(crate) durability: Option<Arc<TableDurability>>,
}

impl MergeTicket {
    /// The pinned cut this build will fold.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Phase 2: fold the cut into a fresh main store under `layout` and,
    /// for a durable table, write it as the next generation's temp blob
    /// (see [`TableDurability::pre_persist`]). Lock-free — touches only
    /// the pinned snapshot, a cold main one pinned extent at a time; an
    /// error (an unreadable extent among them) leaves the table as it was.
    pub fn build(&self, layout: Layout) -> Result<BuiltMain> {
        let main = self.snapshot.store();
        let overlay = self.snapshot.overlay();
        let mut fresh = Table::with_layout(main.skeleton().name(), main.schema().clone(), layout)?;
        fresh.reserve(self.snapshot.len());
        // Remap cut-space row ids (main positions, then tail ordinals) to
        // positions in the fresh main; `None` = dead at the cut.
        let cut_tail = overlay.as_ref().map(|o| o.tail.len()).unwrap_or(0);
        let mut remap: Vec<Option<u32>> = vec![None; main.len() + cut_tail];
        let mut pos = 0u32;
        let mut dead_at_cut = 0usize;
        main.for_each_extent(&[], Overlay::dead_of(&overlay), None, |first, t, dead| {
            for i in 0..t.len() {
                if dead.get(i).is_some_and(|d| *d) {
                    dead_at_cut += 1;
                    continue;
                }
                fresh.insert(t.row(i)?.values())?;
                remap[first + i] = Some(pos);
                pos += 1;
            }
            Ok(())
        })?;
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
        // Interning grew the dictionaries by doubling; the main keeps them
        // for its whole life, so as tight as a reload would.
        fresh.shrink_dicts();
        // Warm the zone map here, off the writer lock: a durable build's
        // blob seal folds it in the walk that checksums the extents.
        // (A post-cut replay invalidates it; it then rebuilds lazily.)
        let generation = self.snapshot.generation();
        match &self.durability {
            Some(d) => d.pre_persist(&fresh, generation + 1)?,
            None => {
                fresh.zone_map();
            }
        }
        Ok(BuiltMain {
            generation,
            cut_ops: self.snapshot.delta_ops(),
            table: fresh,
            remap,
            cut_main_rows: main.len(),
            dead_at_cut,
            tail_folded,
        })
    }
}

/// Phase-2 output: the fresh main store plus everything `finish_merge`
/// needs to replay post-cut ops onto it.
#[derive(Debug)]
pub struct BuiltMain {
    /// The cut's generation and delta ops: which cut this build folds.
    pub(crate) generation: u64,
    pub(crate) cut_ops: u64,
    pub(crate) table: Table,
    /// Cut-space row id → position in `table`; `None` = dead at the cut.
    pub(crate) remap: Vec<Option<u32>>,
    pub(crate) cut_main_rows: usize,
    pub(crate) dead_at_cut: usize,
    pub(crate) tail_folded: usize,
}
