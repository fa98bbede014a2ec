//! What one table version is made of: the [`MainStore`] handle of its
//! generation, the shared, copy-on-write [`OverlayData`] of its delta, and
//! the [`Snapshot`] that pins both.
//!
//! A generation's main store is **one handle** behind one `Arc`, held by
//! the [`crate::VersionedTable`] and by every [`Snapshot`] of that
//! generation. It keeps one [`Form`] for its whole life — resident from
//! birth, or mounted over a checkpoint whose extents stay on disk behind
//! the buffer pool — and is never converted: a merge replaces it. Name,
//! schema, layout, dictionaries, row count, zone map and a zero-row
//! skeleton come from the table or the header and never fault. Every
//! reader that needs every row walks [`MainStore::for_each_extent`] — the
//! resident table in one piece, a cold one a pinned extent at a time:
//! compiled and parallel scans (through [`Snapshot`]'s
//! [`TableProvider::for_each_piece`]), the merge fold, index builds and
//! [`Snapshot::rows`]; [`MainStore::row`] reads one row through the one
//! extent it lives in. Only the Volcano oracle (through [`Snapshot`]'s
//! [`TableProvider::table`]) and `Database::get_table` want one whole
//! table, and get a cold store's copy assembled for that one call, cached
//! nowhere. Taking a snapshot therefore pins and does not load or copy:
//! two `Arc` clones, not a byte faulted.

use pdsm_exec::engine::PieceVisitor;
use pdsm_exec::{ExecError, Overlay, TableProvider};
use pdsm_pool::ColdTable;
use pdsm_storage::row::Row;
use pdsm_storage::{Error, Layout, Schema, Table, ZoneMap, ZonePred};
use std::borrow::Cow;
use std::sync::Arc;

/// Where a main store's rows live, for the store's whole life.
#[derive(Debug, Clone)]
pub enum Form {
    /// In memory: a merge's output, or a table built in this process.
    Resident(Arc<Table>),
    /// A checkpoint mounted header-only through the buffer pool.
    Cold(Arc<ColdTable>),
}

/// The main store of one merge generation: a resident [`Table`], or a
/// checkpoint mounted header-only through the buffer pool. See the module
/// docs.
#[derive(Debug)]
pub struct MainStore {
    /// Zero rows under this store's name, schema, layout and dictionaries.
    skeleton: Table,
    len: usize,
    generation: u64,
    form: Form,
}

impl MainStore {
    /// The store of `generation` over `form`.
    pub(crate) fn new(form: Form, generation: u64) -> Self {
        let (skeleton, len) = match &form {
            Form::Resident(t) => (t.skeleton(), t.len()),
            Form::Cold(c) => {
                let skeleton = c.header().skeleton().expect("a mounted header is valid");
                (skeleton, c.len())
            }
        };
        MainStore {
            skeleton,
            len,
            generation,
            form,
        }
    }

    /// Main-store rows (tombstoned ones included).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-row table with this store's name, schema, layout and
    /// dictionaries — what column metadata and string codes are read from
    /// and what predicates and aggregate states are translated against.
    pub fn skeleton(&self) -> &Table {
        &self.skeleton
    }

    pub fn schema(&self) -> &Schema {
        self.skeleton.schema()
    }

    pub fn layout(&self) -> &Layout {
        self.skeleton.layout()
    }

    /// Where the rows live.
    pub fn form(&self) -> &Form {
        &self.form
    }

    /// The mounted checkpoint: `Some` exactly when this store is cold.
    pub fn cold(&self) -> Option<&Arc<ColdTable>> {
        match &self.form {
            Form::Resident(_) => None,
            Form::Cold(c) => Some(c),
        }
    }

    /// The per-block min/max summaries of the rows: the resident table's
    /// (built on first use) or the checkpoint header's. `None` for an
    /// empty store or a checkpoint written without one.
    pub fn zones(&self) -> Option<&ZoneMap> {
        if self.len == 0 {
            return None;
        }
        match &self.form {
            Form::Resident(t) => Some(t.zone_map()),
            Form::Cold(c) => c.header().zones.as_ref(),
        }
    }

    /// Bytes of the rows' partition arenas ([`Table::byte_size`]): the
    /// resident table's, or a cold store's, read off its header with
    /// nothing faulted.
    pub fn byte_size(&self) -> usize {
        match &self.form {
            Form::Resident(t) => t.byte_size(),
            Form::Cold(c) => c.len() * c.header().strides.iter().sum::<usize>(),
        }
    }

    /// Main-store row `id`, decoded — through the one extent it lives in
    /// when cold.
    pub fn row(&self, id: usize) -> Result<Row, Error> {
        match &self.form {
            Form::Resident(t) => t.row(id),
            Form::Cold(c) => c.row(id),
        }
    }

    /// Visit the rows in order as `(first row id, table, that range's
    /// slice of the tombstone mask `dead`)`: the resident table in one
    /// visit, or every extent of a cold store `zps` cannot refute and that
    /// holds one of `rows` (ascending row ids) when they are given, as the
    /// pool frame's own mini table, borrowed and pinned only while `visit`
    /// runs (the next extent may evict it). Skipping a refuted extent is
    /// sound for every scan whose predicate implies `zps`: no main row of
    /// it can pass, and tombstones only remove rows.
    pub fn for_each_extent<E: From<Error>>(
        &self,
        zps: &[ZonePred],
        dead: &[bool],
        rows: Option<&[usize]>,
        mut visit: impl FnMut(usize, &Table, &[bool]) -> Result<(), E>,
    ) -> Result<(), E> {
        let cold = match &self.form {
            Form::Resident(t) => return visit(0, t, dead),
            Form::Cold(c) => c,
        };
        for e in 0..cold.n_extents() {
            let (lo, hi) = cold.header().extent_row_range(e);
            let first_hit = |ids: &[usize]| ids.get(ids.partition_point(|&r| r < lo)).copied();
            if rows.is_some_and(|ids| first_hit(ids).is_none_or(|r| r >= hi)) {
                continue;
            }
            if !zps.is_empty() && cold.extent_refuted(e, zps) {
                cold.pool().note_skipped_fault();
                continue;
            }
            let frame = cold.pin(e)?;
            let extent_dead = &dead[lo.min(dead.len())..hi.min(dead.len())];
            visit(lo, frame.table(), extent_dead)?;
        }
        Ok(())
    }
}

/// One version's delta: which main rows are tombstoned and which decoded
/// rows follow the main store. The [`crate::VersionedTable`] and every
/// [`Snapshot`] of its current version hold the same allocation; a write
/// copies it first only while a snapshot still shares it, and that copy
/// copies pointers: each tail row sits behind its own `Arc`, shared by
/// every version that holds it. The fields are private to the crate: the
/// counts must agree with the masks.
#[derive(Debug, Clone, Default)]
pub struct OverlayData {
    /// `dead[i]` → main row `i` is invisible. Empty = no tombstones.
    pub(crate) dead: Vec<bool>,
    /// Main rows tombstoned.
    pub(crate) dead_count: usize,
    /// Rows appended after the main store (decoded, full schema width).
    pub(crate) tail: Vec<Arc<Row>>,
    /// Liveness of each tail row.
    pub(crate) tail_alive: Vec<bool>,
    /// Tail rows tombstoned.
    pub(crate) tail_dead_count: usize,
}

impl OverlayData {
    /// The borrowed view engines consume.
    pub fn as_overlay(&self) -> Overlay<'_> {
        Overlay {
            dead: &self.dead,
            tail: &self.tail,
            tail_alive: if self.tail_dead_count > 0 {
                &self.tail_alive
            } else {
                &[]
            },
        }
    }
}

/// A consistent, immutable view of one table version: the generation's
/// [`MainStore`] handle plus (when the version has pending writes) the
/// delta it shares with the writer, with the counters that identify and
/// size the version.
///
/// Snapshots are cheap to take and to clone, `Send + Sync`, and
/// independent of the writer: queries against a snapshot are wait-free. A
/// snapshot is also a single-table [`TableProvider`], so it can be handed
/// directly to any engine: the compiled and parallel engines walk a cold
/// main extent by extent, the Volcano oracle reads an assembled copy.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) main: Arc<MainStore>,
    pub(crate) overlay: Option<Arc<OverlayData>>,
    pub(crate) delta_ops: u64,
    /// Visible rows: main − tombstones + live tail.
    pub(crate) len: usize,
    pub(crate) live_delta_rows: usize,
}

impl Snapshot {
    /// The pinned main-store handle.
    pub fn store(&self) -> &Arc<MainStore> {
        &self.main
    }

    /// The pinned overlay, if this version has pending delta rows or
    /// tombstones.
    pub fn overlay(&self) -> Option<Overlay<'_>> {
        self.overlay.as_ref().map(|o| o.as_overlay())
    }

    /// Merge generation this snapshot pins (bumped by every merge).
    pub fn generation(&self) -> u64 {
        self.main.generation
    }

    /// Write operations the pinned version carries on top of its
    /// generation's main; with [`Snapshot::generation`] it names the
    /// version exactly (both only grow).
    pub fn delta_ops(&self) -> u64 {
        self.delta_ops
    }

    /// Number of rows visible to this snapshot.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live (non-tombstoned) delta-tail rows — what an index probe's
    /// delta-union scan must visit.
    pub fn live_delta_rows(&self) -> usize {
        self.live_delta_rows
    }

    /// All visible rows in scan order (main-store order, then tail append
    /// order), decoded, the main an extent at a time. Intended for tests
    /// and verification, not hot paths: panics on an unreadable extent.
    pub fn rows(&self) -> Vec<Row> {
        let overlay = self.overlay();
        let mut out = Vec::with_capacity(self.len);
        (self.main)
            .for_each_extent(&[], Overlay::dead_of(&overlay), None, |_, t, dead| {
                for i in (0..t.len()).filter(|&i| !dead.get(i).is_some_and(|d| *d)) {
                    out.push(t.row(i)?);
                }
                Ok::<_, Error>(())
            })
            .expect("main store unreadable");
        if let Some(o) = overlay {
            out.extend(o.live_tail().cloned());
        }
        out
    }
}

impl TableProvider for Snapshot {
    fn shape(&self, name: &str) -> Option<&Table> {
        Some(&self.main.skeleton).filter(|s| s.name() == name)
    }

    /// The resident main, borrowed, or a cold one's copy assembled
    /// through the pool for this one call — cached nowhere, the store
    /// stays cold.
    fn table(&self, name: &str) -> Result<Cow<'_, Table>, ExecError> {
        self.shape(name)
            .ok_or_else(|| ExecError::UnknownTable(name.to_string()))?;
        Ok(match self.main.form() {
            Form::Resident(t) => Cow::Borrowed(t),
            Form::Cold(c) => Cow::Owned(c.hydrate()?),
        })
    }

    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        self.overlay().filter(|_| name == self.main.skeleton.name())
    }

    fn for_each_piece(
        &self,
        name: &str,
        zps: &[ZonePred],
        rows: Option<&[usize]>,
        visit: &mut PieceVisitor<'_>,
    ) -> Result<(), ExecError> {
        if self.shape(name).is_none() {
            return Err(ExecError::UnknownTable(name.to_string()));
        }
        let overlay = self.overlay();
        self.main
            .for_each_extent(zps, Overlay::dead_of(&overlay), rows, visit)
    }
}
