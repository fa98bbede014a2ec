//! What one table version is made of: the [`MainStore`] handle of its
//! generation, the shared, copy-on-write [`OverlayData`] of its delta, and
//! the [`Snapshot`] that pins both.
//!
//! A generation's main store is **one handle** behind one `Arc`, held by
//! the [`crate::VersionedTable`] and by every [`Snapshot`] of that
//! generation — resident from birth, or mounted over a checkpoint whose
//! extents are still on disk. Callers do not tell the two apart: name,
//! schema, layout, row count, zone map and a zero-row skeleton come from
//! the header and never fault; [`MainStore::for_each_extent`] walks the
//! rows as one resident table or, while cold, one pinned extent at a time
//! — every compiled and parallel scan reads a cold main that way, through
//! [`Snapshot`]'s [`TableProvider::for_each_piece`];
//! [`MainStore::table`] is the only door that makes a cold store resident
//! — once per generation, on the calling thread, which reached it through
//! a handle it cloned out of the table and so holds no table lock. The
//! Volcano oracle, the merge fold, index builds and advisor statistics go
//! through it. Taking a snapshot therefore pins and does not load or copy:
//! two `Arc` clones, not a byte faulted.

use pdsm_exec::engine::PieceVisitor;
use pdsm_exec::{ExecError, Overlay, TableProvider};
use pdsm_pool::ColdTable;
use pdsm_storage::row::Row;
use pdsm_storage::{Error, Layout, Schema, Table, ZoneMap, ZonePred};
use std::sync::{Arc, Mutex, OnceLock};

/// The main store of one merge generation: a resident [`Table`], or a
/// checkpoint mounted header-only through the buffer pool that becomes one
/// on first demand. See the module docs.
#[derive(Debug)]
pub struct MainStore {
    /// Zero rows under this store's name, schema and layout.
    skeleton: Table,
    len: usize,
    generation: u64,
    /// Set at construction for a resident store, by the one hydration for
    /// a cold one.
    pub(crate) table: OnceLock<Arc<Table>>,
    /// Held by a running hydration: concurrent callers wait for it rather
    /// than fault the checkpoint a second time.
    hydrating: Mutex<()>,
    /// The checkpoint this store was mounted over, if any (kept after
    /// hydration: the merge that supersedes it retires its frames).
    pub(crate) cold: Option<Arc<ColdTable>>,
}

impl MainStore {
    /// The store of `generation` over a resident `table` or a still-on-disk
    /// `cold` checkpoint (one or the other).
    pub(crate) fn new(
        table: Option<Arc<Table>>,
        cold: Option<Arc<ColdTable>>,
        generation: u64,
    ) -> Self {
        let (skeleton, len) = match (&table, &cold) {
            (Some(t), _) => (
                Table::with_layout(t.name(), t.schema().clone(), t.layout().clone())
                    .expect("a table's own layout is valid"),
                t.len(),
            ),
            (None, Some(c)) => (c.skeleton(), c.len()),
            (None, None) => unreachable!("a main store is resident or mounted"),
        };
        MainStore {
            skeleton,
            len,
            generation,
            table: table.map(OnceLock::from).unwrap_or_default(),
            hydrating: Mutex::new(()),
            cold,
        }
    }

    /// Main-store rows (tombstoned ones included).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-row table with this store's name, schema and layout — what
    /// column metadata is read from and what predicates and aggregate
    /// states are translated against.
    pub fn skeleton(&self) -> &Table {
        &self.skeleton
    }

    pub fn schema(&self) -> &Schema {
        self.skeleton.schema()
    }

    pub fn layout(&self) -> &Layout {
        self.skeleton.layout()
    }

    /// The per-block min/max summaries of the rows: the resident table's
    /// (built on first use) or the checkpoint header's. `None` for an
    /// empty store or a checkpoint written without one.
    pub fn zones(&self) -> Option<&ZoneMap> {
        if self.len == 0 {
            return None;
        }
        match self.table.get() {
            Some(t) => Some(t.zone_map()),
            None => self.cold.as_ref()?.header().zones.as_ref(),
        }
    }

    /// The mounted checkpoint while — and only while — its rows are still
    /// on disk.
    pub fn cold(&self) -> Option<&Arc<ColdTable>> {
        self.cold.as_ref().filter(|_| self.table.get().is_none())
    }

    /// The resident table, hydrating a cold store on first demand:
    /// every extent faults through the buffer pool into a table
    /// bit-identical to a resident recovery, at most once (concurrent
    /// callers wait for the one that runs). An extent that cannot be read
    /// — the header was validated at open, so on-disk damage that appeared
    /// after recovery — is the error, and leaves the store cold.
    pub fn table(&self) -> Result<&Arc<Table>, Error> {
        if let Some(t) = self.table.get() {
            return Ok(t);
        }
        let _one = self.hydrating.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = self.table.get() {
            return Ok(t);
        }
        let cold = self.cold.as_ref().expect("unhydrated ⇒ mounted");
        let table = Arc::new(cold.hydrate()?);
        Ok(self.table.get_or_init(|| table))
    }

    /// [`MainStore::table`] for callers with no error path — the Volcano
    /// oracle, tests and size accounting: panics on an unreadable extent.
    pub fn resident(&self) -> &Arc<Table> {
        self.table()
            .expect("cold main hydration: checkpoint payload unreadable")
    }

    /// Main-store row `id`, decoded — through the one extent it lives in
    /// while cold (WAL replay and stray point reads must not hydrate).
    pub fn row(&self, id: usize) -> Result<Row, Error> {
        match self.cold() {
            Some(cold) => cold.row(id),
            None => self.table()?.row(id),
        }
    }

    /// Visit the rows in order as `(first row id, table, that range's
    /// slice of the tombstone mask `dead`)`: the resident table in one
    /// visit, or — while cold — every extent `zps` cannot refute, as the
    /// pool frame's own mini table, borrowed and pinned only while `visit`
    /// runs (the next extent may evict it). Skipping a refuted extent is
    /// sound for every scan whose predicate implies `zps`: no main row of
    /// it can pass, and tombstones only remove rows.
    pub fn for_each_extent<E: From<Error>>(
        &self,
        zps: &[ZonePred],
        dead: &[bool],
        mut visit: impl FnMut(usize, &Table, &[bool]) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(cold) = self.cold() else {
            return visit(0, self.table()?, dead);
        };
        for e in 0..cold.n_extents() {
            if !zps.is_empty() && cold.extent_refuted(e, zps) {
                cold.pool().note_skipped_fault();
                continue;
            }
            let (lo, hi) = cold.header().extent_row_range(e);
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
/// main extent by extent, the Volcano oracle makes it resident.
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
    /// The pinned main store, resident: hydrates a cold one (once per
    /// generation, on this thread, no table lock involved; see
    /// [`MainStore::resident`]).
    pub fn main(&self) -> &Table {
        self.main.resident()
    }

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
    /// order), decoded. Intended for tests and verification, not hot paths.
    pub fn rows(&self) -> Vec<Row> {
        let main = self.main();
        let overlay = self.overlay();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..main.len() {
            if overlay.as_ref().is_some_and(|o| o.is_dead(i)) {
                continue;
            }
            out.push(main.row(i).expect("in-range"));
        }
        if let Some(o) = overlay {
            out.extend(o.live_tail().cloned());
        }
        out
    }
}

impl TableProvider for Snapshot {
    fn table(&self, name: &str) -> Option<&Table> {
        self.shape(name).map(|_| self.main())
    }

    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        self.overlay().filter(|_| name == self.main.skeleton.name())
    }

    fn shape(&self, name: &str) -> Option<&Table> {
        Some(&self.main.skeleton).filter(|s| s.name() == name)
    }

    fn for_each_piece(
        &self,
        name: &str,
        zps: &[ZonePred],
        visit: &mut PieceVisitor<'_>,
    ) -> Result<(), ExecError> {
        if self.shape(name).is_none() {
            return Err(ExecError::UnknownTable(name.to_string()));
        }
        let overlay = self.overlay();
        let dead = Overlay::dead_of(&overlay);
        self.main
            .for_each_extent(zps, dead, |_, t, dead| visit(t, dead))
    }
}
