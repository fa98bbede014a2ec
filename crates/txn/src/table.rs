//! [`VersionedTable`]: an immutable main store plus an append-only delta
//! with tombstones, merged on demand through the three-phase pipeline (see
//! [`crate::merge`]).

use crate::durability::TableDurability;
use crate::merge::{BuiltMain, MergeTicket};
use crate::version::{Form, MainStore, OverlayData, Snapshot};
use pdsm_exec::Overlay;
use pdsm_storage::row::Row;
use pdsm_storage::{ColId, DataType, Error, Layout, Result, Schema, Table, Value};
use pdsm_store::WalRecord;
use std::ops::Range;
use std::sync::{Arc, Weak};

/// Stable row address within one merge generation.
///
/// Ids `0..main.len()` address main-store rows by position; ids from
/// `main.len()` upward address delta rows by append ordinal. Ids stay valid
/// until the next [`VersionedTable::merge`], which compacts the surviving
/// rows and renumbers them `0..len` in scan order (main survivors first,
/// then tail survivors).
pub type RowId = usize;

/// What one merge did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Generation published by this merge.
    pub generation: u64,
    /// Main-store rows before the merge.
    pub main_rows_before: usize,
    /// Tombstoned rows dropped (main and delta).
    pub tombstones_dropped: usize,
    /// Live delta rows folded into the new main store.
    pub delta_rows_folded: usize,
    /// Rows in the new main store.
    pub rows_after: usize,
}

/// A table's version chain right now (see
/// [`VersionedTable::version_stats`]). Snapshots pin their generation's
/// main store by `Arc`, so a superseded main lives exactly as long as the
/// last snapshot of it; the test suites assert the bound this gives —
/// live mains never exceed *pinned generations + 1*, however many merges
/// a long-lived snapshot spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Distinct generations some snapshot (or merge cut) still pins.
    pub pinned_versions: usize,
    /// Distinct main stores still allocated, including the current one.
    pub live_mains: usize,
    /// Bytes held by *superseded* resident main stores that are still
    /// allocated (the current generation's main is not garbage; a cold
    /// one holds only pool frames, which the pool's budget bounds).
    pub pinned_bytes: usize,
}

/// The replay log a pending merge maintains: enough to carry every op
/// that lands between the build's snapshot cut and the swap.
///
/// Inserts need no explicit log — tail rows past `cut_tail` *are* the
/// post-cut inserts, carried verbatim into the new delta. Only tombstones
/// of rows that existed at the cut must be replayed through the build's
/// remap (updates are tombstone + re-append, so they decompose into the
/// two cases).
#[derive(Debug)]
struct PendingMerge {
    /// Tail length at the cut; rows past it belong to the next version's
    /// delta.
    cut_tail: usize,
    /// `n_ops` at the cut; the next version's delta op count is the
    /// difference.
    cut_ops: u64,
    /// Cut-space row ids tombstoned after the cut (each was alive at the
    /// cut — liveness only decreases within a version — so each has a
    /// remap entry).
    replay_deletes: Vec<RowId>,
}

/// A versioned table: immutable partitioned main + append-only row-format
/// delta with tombstones. See the crate docs for the design.
///
/// All write operations take `&mut self`; concurrent single-writer /
/// multi-reader use goes through [`crate::SharedTable`].
///
/// A table recovered through a buffer pool keeps its main store on disk
/// until a merge replaces it: the [`MainStore`] handle answers from the
/// checkpoint header, and every reader faults the extents it walks through
/// the pool.
#[derive(Debug)]
pub struct VersionedTable {
    /// This generation's main store, shared with every snapshot of it.
    /// Replaced (never mutated) by a merge.
    main: Arc<MainStore>,
    generation: u64,
    /// The delta since the last merge, shared with every snapshot of the
    /// current version. A write goes through `Arc::make_mut`, so it copies
    /// the delta only while such a snapshot is still alive — at most once
    /// per snapshotted version, and then the masks and the tail's row
    /// pointers, never a row.
    delta: Arc<OverlayData>,
    /// [`VersionedTable::delta_ops`]: delta ops since the last merge.
    n_ops: u64,
    /// The main stores merges replaced, while a snapshot may still hold
    /// them: the witness [`VersionedTable::version_stats`] reads. Pruned
    /// of dropped ones at every swap.
    superseded: Vec<Weak<MainStore>>,
    /// The in-flight merge's replay log, if a cut is pinned.
    pending: Option<PendingMerge>,
    /// WAL + checkpoint glue, if this table is durable. `None` costs the
    /// write path nothing.
    durability: Option<Arc<TableDurability>>,
}

impl Clone for VersionedTable {
    fn clone(&self) -> Self {
        // The clone is an independent table: it gets its own main-store
        // handle (snapshots of the original keep counting against the
        // original), no pending merge (the in-flight build belongs to
        // `self`) and no durability — two tables sharing one log would
        // corrupt each other's id space. The delta is shared until either
        // side writes.
        VersionedTable {
            delta: Arc::clone(&self.delta),
            n_ops: self.n_ops,
            ..Self::at_generation(self.main.form().clone(), self.generation)
        }
    }
}

impl VersionedTable {
    /// An empty-delta table at `generation` over a main store of `form`.
    /// WAL replay never reads a cold main's rows: it commits against the
    /// header's row count and the tombstone masks.
    pub(crate) fn at_generation(form: Form, generation: u64) -> Self {
        VersionedTable {
            main: Arc::new(MainStore::new(form, generation)),
            generation,
            delta: Arc::default(),
            n_ops: 0,
            superseded: Vec::new(),
            pending: None,
            durability: None,
        }
    }

    /// Wrap an already-built table (e.g. from a workload generator) as the
    /// generation-0 main store with an empty delta.
    pub fn from_table(table: Table) -> Self {
        Self::at_generation(Form::Resident(Arc::new(table)), 0)
    }

    /// Attach the WAL + checkpoint glue. From here on every commit is
    /// logged, as one record, before it applies, and every merge
    /// checkpoints.
    pub(crate) fn set_durability(&mut self, durability: Arc<TableDurability>) {
        self.durability = Some(durability);
    }

    /// The durability handle, if this table is durable.
    pub fn durability(&self) -> Option<Arc<TableDurability>> {
        self.durability.clone()
    }

    /// New empty versioned table in row layout.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self::from_table(Table::new(name, schema))
    }

    /// New empty versioned table with an explicit layout.
    pub fn with_layout(name: impl Into<String>, schema: Schema, layout: Layout) -> Result<Self> {
        Ok(Self::from_table(Table::with_layout(name, schema, layout)?))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.main.skeleton().name()
    }

    /// The schema (WAL replay normalizes against it).
    pub fn schema(&self) -> &Schema {
        self.main.schema()
    }

    /// This generation's main-store handle: clone it out of a lock to
    /// read the main without holding the lock.
    pub fn store(&self) -> &Arc<MainStore> {
        &self.main
    }

    /// Main-store row count (excludes pending delta rows).
    pub fn main_len(&self) -> usize {
        self.main.len()
    }

    /// Merge generation (0 for a fresh table, +1 per merge).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of visible rows (main − tombstones + live delta).
    pub fn len(&self) -> usize {
        self.main_len() - self.delta.dead_count + self.live_delta_rows()
    }

    /// True iff no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delta operations applied since the last merge — the merge-threshold
    /// metric, counted per commit: each tombstoned row is one op, and the
    /// commit's appends together are one more. An insert batch therefore
    /// counts 1, a delete of n rows n, and an update of n rows n + 1
    /// however many columns it sets.
    pub fn delta_ops(&self) -> u64 {
        self.n_ops
    }

    /// Delta rows appended since the last merge (live or tombstoned) —
    /// the natural merge-threshold metric: it is what scans pay for.
    pub fn delta_rows(&self) -> usize {
        self.delta.tail.len()
    }

    /// Live (non-tombstoned) delta-tail rows — what an index probe's
    /// delta-union scan must visit, and therefore the delta term of the
    /// planner's access-path cost.
    pub fn live_delta_rows(&self) -> usize {
        self.delta.tail.len() - self.delta.tail_dead_count
    }

    /// True iff any write happened since the last merge.
    pub fn has_delta(&self) -> bool {
        self.n_ops > 0
    }

    /// The id space upper bound (main rows + delta ordinals).
    fn id_space(&self) -> usize {
        self.main_len() + self.delta.tail.len()
    }

    /// Normalize `v` for column `c`: exactly the type checking and widening
    /// [`Table::insert`]'s encoder performs, so a delta row decodes
    /// byte-identically to the same row inserted into a plain table.
    fn normalize(&self, c: ColId, v: &Value) -> Result<Value> {
        let def = &self.schema().columns()[c];
        match (v, def.ty) {
            (Value::Null, _) => {
                if def.nullable {
                    Ok(Value::Null)
                } else {
                    Err(Error::NullViolation(def.name.clone()))
                }
            }
            (Value::Int32(x), DataType::Int32) => Ok(Value::Int32(*x)),
            (Value::Int64(x), DataType::Int64) => Ok(Value::Int64(*x)),
            (Value::Int32(x), DataType::Int64) => Ok(Value::Int64(*x as i64)),
            (Value::Float64(x), DataType::Float64) => Ok(Value::Float64(*x)),
            (Value::Int32(x), DataType::Float64) => Ok(Value::Float64(*x as f64)),
            (Value::Str(s), DataType::Str) => Ok(Value::Str(s.clone())),
            (v, ty) => Err(Error::TypeMismatch {
                column: def.name.clone(),
                expected: ty.name(),
                got: v.type_name(),
            }),
        }
    }

    fn normalize_row(&self, values: &[Value]) -> Result<Row> {
        if values.len() != self.schema().len() {
            return Err(Error::ArityMismatch {
                expected: self.schema().len(),
                got: values.len(),
            });
        }
        values
            .iter()
            .enumerate()
            .map(|(c, v)| self.normalize(c, v))
            .collect::<Result<Vec<_>>>()
            .map(Row)
    }

    /// Append one row to the delta. Returns its [`RowId`].
    pub fn insert(&mut self, values: &[Value]) -> Result<RowId> {
        let row = self.normalize_row(values)?;
        Ok(self.insert_rows(vec![row])?.start)
    }

    /// Append many rows atomically: every row is validated before any is
    /// appended, so a bad row leaves the table unchanged.
    pub fn insert_batch(&mut self, rows: &[Vec<Value>]) -> Result<Vec<RowId>> {
        let rows = rows
            .iter()
            .map(|r| self.normalize_row(r))
            .collect::<Result<_>>()?;
        Ok(self.insert_rows(rows)?.collect())
    }

    /// One insert commit over already-normalized rows.
    fn insert_rows(&mut self, rows: Vec<Row>) -> Result<Range<RowId>> {
        self.commit(WalRecord {
            appends: rows,
            tombstones: Vec::new(),
        })
    }

    /// The one commit step, and the only place this table reaches its WAL:
    /// check `record`, log it, then apply it through
    /// [`VersionedTable::append`] and [`VersionedTable::tombstone`] as one
    /// new version. Every write, and WAL replay (which so reads no
    /// main-store row), goes through here; a failed check or WAL append
    /// changes nothing. Returns the ids the appended rows took.
    pub(crate) fn commit(&mut self, record: WalRecord) -> Result<Range<RowId>> {
        let base = self.id_space();
        self.check_tombstones(&record.tombstones, base + record.appends.len())?;
        if record.is_empty() {
            return Ok(base..base);
        }
        if let Some(d) = &self.durability {
            d.log(&record)?;
        }
        let ids = self.append(record.appends);
        for &id in &record.tombstones {
            self.tombstone(id as RowId);
        }
        self.n_ops += record.tombstones.len() as u64 + u64::from(!ids.is_empty());
        Ok(ids)
    }

    /// Each tombstone must address a row visible now or one the commit
    /// appends (ids below `end`), and none may repeat.
    fn check_tombstones(&self, ids: &[u64], end: usize) -> Result<()> {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        for (i, &id) in sorted.iter().enumerate() {
            let id = id as RowId;
            if id >= end {
                return Err(Error::RowOutOfRange { row: id, len: end });
            }
            let repeated = i > 0 && sorted[i - 1] == sorted[i];
            if repeated || (id < self.id_space() && !self.is_visible(id)) {
                return Err(Error::RowDeleted { row: id });
            }
        }
        Ok(())
    }

    /// The one append: push normalized rows onto the tail, live.
    fn append(&mut self, rows: Vec<Row>) -> Range<RowId> {
        let base = self.id_space();
        let delta = Arc::make_mut(&mut self.delta);
        delta.tail.extend(rows.into_iter().map(Arc::new));
        delta.tail_alive.resize(delta.tail.len(), true);
        base..self.id_space()
    }

    /// The one tombstone: mark dead a row [`VersionedTable::commit`]
    /// checked.
    fn tombstone(&mut self, id: RowId) {
        let main_len = self.main_len();
        let delta = Arc::make_mut(&mut self.delta);
        if id < main_len {
            if delta.dead.is_empty() {
                delta.dead = vec![false; main_len];
            }
            delta.dead[id] = true;
            delta.dead_count += 1;
        } else {
            delta.tail_alive[id - main_len] = false;
            delta.tail_dead_count += 1;
        }
        // Tombstones of rows that existed at a pending merge's cut must be
        // replayed through the remap at swap time; rows appended after the
        // cut carry their own liveness into the next delta.
        if let Some(p) = self.pending.as_mut() {
            if id < main_len + p.cut_tail {
                p.replay_deletes.push(id);
            }
        }
    }

    /// Is `id` in range and not tombstoned?
    pub fn is_visible(&self, id: RowId) -> bool {
        let (main_len, delta) = (self.main_len(), &self.delta);
        if id < main_len {
            delta.dead.get(id).map(|d| !d).unwrap_or(true)
        } else {
            delta
                .tail_alive
                .get(id - main_len)
                .copied()
                .unwrap_or(false)
        }
    }

    /// `id` must be in range and not tombstoned.
    fn check_visible(&self, id: RowId) -> Result<()> {
        if id >= self.id_space() {
            return Err(Error::RowOutOfRange {
                row: id,
                len: self.id_space(),
            });
        }
        if !self.is_visible(id) {
            return Err(Error::RowDeleted { row: id });
        }
        Ok(())
    }

    /// Read one visible row, decoded.
    pub fn get(&self, id: RowId) -> Result<Row> {
        self.check_visible(id)?;
        let main_len = self.main_len();
        if id < main_len {
            self.main.row(id)
        } else {
            Ok(Row::clone(&self.delta.tail[id - main_len]))
        }
    }

    /// Tombstone one visible row.
    pub fn delete(&mut self, id: RowId) -> Result<()> {
        self.delete_rows(&[id])
    }

    /// Tombstone the visible, distinct rows `ids` as one commit: all of
    /// them or, on an error, none.
    pub fn delete_rows(&mut self, ids: &[RowId]) -> Result<()> {
        self.commit(WalRecord {
            appends: Vec::new(),
            tombstones: ids.iter().map(|&id| id as u64).collect(),
        })?;
        Ok(())
    }

    /// Overwrite one cell of a visible row: [`VersionedTable::update_rows`]
    /// of that row, so one commit (one WAL record) that tombstones it and
    /// appends its new version — which moves to the end of the scan order
    /// under a fresh id, returned.
    pub fn update(&mut self, id: RowId, c: ColId, v: &Value) -> Result<RowId> {
        let row = self.get(id)?;
        Ok(self.update_rows(&[id], vec![row], &[(c, v.clone())])?.start)
    }

    /// Overwrite `sets` in every row of `ids` (visible, distinct) as one
    /// commit: one tombstone and one append per row, in `ids` order,
    /// however many columns `sets` names. `rows[i]` must be what
    /// [`VersionedTable::get`] returns for `ids[i]` — predicate DML decodes
    /// it in the scan that matched, so a cold main is not faulted again per
    /// row. Returns the new ids; an empty `ids` checks and changes nothing.
    pub fn update_rows(
        &mut self,
        ids: &[RowId],
        mut rows: Vec<Row>,
        sets: &[(ColId, Value)],
    ) -> Result<Range<RowId>> {
        assert_eq!(ids.len(), rows.len(), "one decoded row per updated id");
        if ids.is_empty() {
            return Ok(self.id_space()..self.id_space());
        }
        for &(c, ref v) in sets {
            if c >= self.schema().len() {
                return Err(Error::UnknownColumn(c));
            }
            let value = self.normalize(c, v)?;
            for row in &mut rows {
                row.0[c] = value.clone();
            }
        }
        self.commit(WalRecord {
            appends: rows,
            tombstones: ids.iter().map(|&id| id as u64).collect(),
        })
    }

    /// The engine-facing overlay of the current state, or `None` when the
    /// delta is empty.
    pub fn overlay(&self) -> Option<Overlay<'_>> {
        self.has_delta().then(|| self.delta.as_overlay())
    }

    /// All visible rows in scan order (main order, then tail append order),
    /// the main an extent at a time (see [`Snapshot::rows`]).
    pub fn rows(&self) -> impl Iterator<Item = Row> {
        self.snapshot().rows().into_iter()
    }

    /// Take a consistent snapshot of the current version. O(1): the
    /// snapshot shares the live delta, which the next write copies first
    /// if the snapshot is still alive then. Never touches main-store rows.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            main: Arc::clone(&self.main),
            overlay: self.has_delta().then(|| Arc::clone(&self.delta)),
            delta_ops: self.n_ops,
            len: self.len(),
            live_delta_rows: self.live_delta_rows(),
        }
    }

    /// Fold the delta into a fresh main store under the current layout,
    /// on the caller's thread.
    pub fn merge(&mut self) -> Result<MergeStats> {
        self.merge_with_layout(self.main.layout().clone())
    }

    /// Fold the delta into a fresh main store under `layout` — the
    /// re-layout entry point the advisor drives. Publishing swaps the main
    /// `Arc`, so in-flight snapshots keep reading the old version. Row ids
    /// are renumbered; with an empty delta this is a pure relayout and ids
    /// are stable.
    ///
    /// The three phases back-to-back (begin → build → finish), so a
    /// single-owner merge and [`crate::SharedTable::merge`] share one fold.
    pub fn merge_with_layout(&mut self, layout: Layout) -> Result<MergeStats> {
        let built = self.begin_merge().build(layout);
        match built {
            Ok(built) => self.finish_merge(built),
            Err(e) => {
                self.abort_merge();
                Err(e)
            }
        }
    }

    /// Phase 1 of a merge: pin the current version as the build's *cut*
    /// and start recording post-cut tombstones for replay. O(1) — the cut
    /// is a snapshot — and not one main-store row read; the heavy fold
    /// belongs to [`MergeTicket::build`], which runs on any thread.
    ///
    /// A table has one cut at a time: this replaces any cut whose build
    /// never finished.
    pub fn begin_merge(&mut self) -> MergeTicket {
        self.pending = Some(PendingMerge {
            cut_tail: self.delta.tail.len(),
            cut_ops: self.n_ops,
            replay_deletes: Vec::new(),
        });
        MergeTicket {
            snapshot: self.snapshot(),
            durability: self.durability.clone(),
        }
    }

    /// Phase 3 of a merge: replay the ops that landed since the build's
    /// cut, swap the fresh main store in and, for a durable table,
    /// checkpoint. O(ops since cut) — the write path never pays the
    /// O(table) fold, and the checkpoint only renames the blob the build
    /// wrote.
    ///
    /// # Panics
    ///
    /// If `built` was not folded from the pending cut (one was begun
    /// since, or none is pending).
    pub fn finish_merge(&mut self, built: BuiltMain) -> Result<MergeStats> {
        let pending = match self.pending.take() {
            Some(p) if p.cut_ops == built.cut_ops && built.generation == self.generation => p,
            _ => panic!("finish_merge: the build is not of the pending cut"),
        };
        // Replay post-cut tombstones of cut-time rows onto the fresh main.
        let mut delta = OverlayData::default();
        for &id in &pending.replay_deletes {
            let Some(p) = built.remap[id] else {
                continue; // defensive: dead at cut, nothing to replay
            };
            if delta.dead.is_empty() {
                delta.dead = vec![false; built.table.len()];
            }
            if !delta.dead[p as usize] {
                delta.dead[p as usize] = true;
                delta.dead_count += 1;
            }
        }
        // Rows appended after the cut become the next version's delta,
        // liveness carried verbatim.
        delta.tail = self.delta.tail[pending.cut_tail..].to_vec();
        delta.tail_alive = self.delta.tail_alive[pending.cut_tail..].to_vec();
        delta.tail_dead_count = delta.tail_alive.iter().filter(|a| !**a).count();
        let stats = MergeStats {
            generation: self.generation + 1,
            main_rows_before: built.cut_main_rows,
            tombstones_dropped: built.dead_at_cut,
            delta_rows_folded: built.tail_folded,
            rows_after: built.table.len(),
        };
        let new_main = Arc::new(built.table);
        self.generation += 1;
        let superseded = std::mem::replace(
            &mut self.main,
            Arc::new(MainStore::new(
                Form::Resident(Arc::clone(&new_main)),
                self.generation,
            )),
        );
        // The merge supersedes the checkpoint a cold mount was serving:
        // retire its frames so the pool does not cache a dead generation.
        if let Some(c) = superseded.cold() {
            c.retire();
        }
        self.superseded.retain(|m| m.strong_count() > 0);
        self.superseded.push(Arc::downgrade(&superseded));
        self.delta = Arc::new(delta);
        self.n_ops -= pending.cut_ops;
        // Checkpoint-on-merge: commit the blob the build wrote and rewrite
        // the WAL in the new id space, still under the caller's write
        // lock, so no op can land between the swap and its durable record.
        // An I/O error here leaves the in-memory merge applied (readers
        // are fine) but reports the broken durable state to the caller.
        if let Some(d) = self.durability.clone() {
            d.checkpoint(&new_main, self.generation, &self.delta)?;
        }
        Ok(stats)
    }

    /// Drop the pending cut, if any (its build failed). Returns whether
    /// one was pending.
    pub fn abort_merge(&mut self) -> bool {
        self.pending.take().is_some()
    }

    /// The version chain right now: main stores still allocated, the
    /// generations snapshots pin, and the bytes superseded resident
    /// versions hold.
    /// Read off the superseded mains' weak handles and the current main's
    /// `Arc` count — a snapshot costs no bookkeeping.
    pub fn version_stats(&self) -> VersionStats {
        let old: Vec<Arc<MainStore>> = self.superseded.iter().filter_map(Weak::upgrade).collect();
        VersionStats {
            pinned_versions: old.len() + usize::from(Arc::strong_count(&self.main) > 1),
            live_mains: old.len() + 1,
            pinned_bytes: (old.iter())
                .filter(|m| m.cold().is_none())
                .map(|m| m.byte_size())
                .sum(),
        }
    }

    /// Approximate bytes held by the delta (tail rows + masks).
    pub fn delta_byte_size(&self) -> usize {
        let row_bytes: usize = (self.delta.tail.iter())
            .map(|r| {
                r.values()
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => 24 + s.len(),
                        _ => 16,
                    })
                    .sum::<usize>()
            })
            .sum();
        row_bytes + self.delta.dead.len() + self.delta.tail_alive.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int32),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::nullable("price", DataType::Float64),
        ])
    }

    fn seeded() -> VersionedTable {
        let mut base = Table::new("t", schema());
        for i in 0..10 {
            base.insert(&[
                Value::Int32(i),
                Value::Str(format!("n{}", i % 3)),
                Value::Float64(i as f64),
            ])
            .unwrap();
        }
        VersionedTable::from_table(base)
    }

    #[test]
    fn insert_delete_update_visibility() {
        let mut t = seeded();
        assert_eq!(t.len(), 10);
        let id = t
            .insert(&[Value::Int32(10), Value::Str("new".into()), Value::Null])
            .unwrap();
        assert_eq!(id, 10);
        assert_eq!(t.len(), 11);
        t.delete(3).unwrap();
        assert_eq!(t.len(), 10);
        assert!(matches!(t.delete(3), Err(Error::RowDeleted { row: 3 })));
        assert!(matches!(t.get(3), Err(Error::RowDeleted { .. })));
        let new_id = t.update(id, 1, &Value::Str("renamed".into())).unwrap();
        assert_eq!(new_id, 11);
        assert!(matches!(t.get(id), Err(Error::RowDeleted { .. })));
        assert_eq!(t.get(new_id).unwrap().0[1], Value::Str("renamed".into()));
        assert_eq!(t.len(), 10);
    }

    /// A merge's fresh main holds its dictionaries as tightly as the same
    /// main reloaded from its blob: interning's doubling slack does not
    /// outlive the build.
    #[test]
    fn a_merged_main_holds_its_dictionaries_as_tightly_as_a_reload() {
        let mut t = seeded();
        for i in 10..3000 {
            let name = Value::Str(format!("name-{}", i % 1500));
            t.insert(&[Value::Int32(i), name, Value::Null]).unwrap();
        }
        t.merge().unwrap();
        let Form::Resident(main) = t.store().form() else {
            panic!("a merge builds a resident main");
        };
        let blob = pdsm_storage::persist::to_bytes_extents(main, 1, 1024);
        let (reloaded, _) = pdsm_storage::persist::from_bytes(&blob).unwrap();
        assert!(reloaded.dict_bytes() > 0);
        assert!(
            main.dict_bytes() <= reloaded.dict_bytes(),
            "merged {} B, reloaded {} B",
            main.dict_bytes(),
            reloaded.dict_bytes()
        );
    }

    /// A merge whose delta carries a string column past 256 strings folds
    /// it into two-byte codes, a fresh main exactly as narrow as the same
    /// main reloaded from its blob: the same code widths, strides and
    /// arena bytes.
    #[test]
    fn a_merge_across_a_code_width_is_as_narrow_as_a_reload() {
        let mut t = seeded();
        let Form::Resident(before) = t.store().form() else {
            panic!("a seeded table is resident");
        };
        assert_eq!(before.code_width(1), 1);
        for i in 10..700 {
            let name = Value::Str(format!("name-{}", i % 400));
            t.insert(&[Value::Int32(i), name, Value::Null]).unwrap();
        }
        t.merge().unwrap();
        let Form::Resident(main) = t.store().form() else {
            panic!("a merge builds a resident main");
        };
        assert_eq!(main.code_width(1), 2);
        let blob = pdsm_storage::persist::to_bytes_extents(main, 1, 1024);
        let (reloaded, _) = pdsm_storage::persist::from_bytes(&blob).unwrap();
        assert_eq!(main.code_width(1), reloaded.code_width(1));
        for (a, b) in main.partitions().iter().zip(reloaded.partitions()) {
            assert_eq!(a.stride(), b.stride());
            assert!(a.raw_bytes() == b.raw_bytes());
        }
    }

    #[test]
    fn dml_error_paths() {
        let mut t = seeded();
        assert!(matches!(
            t.insert(&[Value::Int32(1)]),
            Err(Error::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(&[Value::Str("x".into()), Value::Str("y".into()), Value::Null]),
            Err(Error::TypeMismatch { .. })
        ));
        assert!(matches!(
            t.insert(&[Value::Null, Value::Str("y".into()), Value::Null]),
            Err(Error::NullViolation(_))
        ));
        assert!(matches!(
            t.delete(999),
            Err(Error::RowOutOfRange { row: 999, .. })
        ));
        assert!(matches!(
            t.update(0, 99, &Value::Int32(1)),
            Err(Error::UnknownColumn(99))
        ));
        // nothing above changed the table
        assert_eq!(t.len(), 10);
        assert!(!t.has_delta());
    }

    #[test]
    fn insert_batch_is_atomic() {
        let mut t = seeded();
        let bad = vec![
            vec![Value::Int32(20), Value::Str("a".into()), Value::Null],
            vec![Value::Int32(21)], // arity error
        ];
        assert!(t.insert_batch(&bad).is_err());
        assert_eq!(t.len(), 10);
        assert!(!t.has_delta());
        let good = vec![
            vec![Value::Int32(20), Value::Str("a".into()), Value::Null],
            vec![
                Value::Int32(21),
                Value::Str("b".into()),
                Value::Float64(1.0),
            ],
        ];
        assert_eq!(t.insert_batch(&good).unwrap(), vec![10, 11]);
        assert_eq!(t.len(), 12);
    }

    /// A multi-column `SET` over n rows is one tombstone and one append per
    /// row: n delta rows and n + 1 delta ops, not one of each per column.
    #[test]
    fn update_rows_appends_each_row_once() {
        let mut t = seeded();
        let ids = [1, 4, 5, 8];
        let rows: Vec<Row> = ids.iter().map(|&id| t.get(id).unwrap()).collect();
        let sets = [
            (0, Value::Int32(-1)),
            (1, Value::Str("set".into())),
            (2, Value::Int32(7)), // widened to Float64
        ];
        let new_ids = t.update_rows(&ids, rows, &sets).unwrap();
        assert_eq!(new_ids, 10..14);
        assert_eq!(t.delta_rows(), ids.len());
        assert_eq!(t.delta_ops(), ids.len() as u64 + 1);
        assert_eq!(t.len(), 10);
        for (&old, new) in ids.iter().zip(new_ids) {
            assert!(!t.is_visible(old));
            let row = t.get(new).unwrap();
            assert_eq!(
                row.0,
                vec![
                    Value::Int32(-1),
                    Value::Str("set".into()),
                    Value::Float64(7.0)
                ]
            );
        }
    }

    /// A commit that fails its checks changes nothing, even when only its
    /// last id is bad.
    #[test]
    fn bad_multi_row_commits_change_nothing() {
        let mut t = seeded();
        let row = |t: &VersionedTable, id| t.get(id).unwrap();
        let rows = vec![row(&t, 2), row(&t, 2)];
        assert!(matches!(
            t.update_rows(&[2, 2], rows, &[(0, Value::Int32(0))]),
            Err(Error::RowDeleted { row: 2 })
        ));
        assert!(matches!(
            t.delete_rows(&[0, 3, 10]),
            Err(Error::RowOutOfRange { row: 10, len: 10 })
        ));
        t.delete(5).unwrap();
        assert!(matches!(
            t.delete_rows(&[1, 5]),
            Err(Error::RowDeleted { row: 5 })
        ));
        assert_eq!(t.len(), 9);
        assert_eq!(t.delta_ops(), 1);
        // Matching nothing checks nothing, as a per-row update would.
        let none = t
            .update_rows(&[], Vec::new(), &[(99, Value::Null)])
            .unwrap();
        assert!(none.is_empty());
        assert_eq!(t.delta_ops(), 1);
    }

    #[test]
    fn snapshots_pin_versions() {
        let mut t = seeded();
        let s0 = t.snapshot();
        t.insert(&[Value::Int32(100), Value::Str("x".into()), Value::Null])
            .unwrap();
        let s1 = t.snapshot();
        t.delete(0).unwrap();
        let s2 = t.snapshot();
        assert_eq!(s0.len(), 10);
        assert_eq!(s1.len(), 11);
        assert_eq!(s2.len(), 10);
        t.merge().unwrap();
        // old snapshots still read their pinned versions
        assert_eq!(s0.len(), 10);
        assert_eq!(s1.len(), 11);
        assert_eq!(s2.len(), 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.generation(), 1);
    }

    /// With no pin alive a write lands in place, and the next snapshot
    /// shares the live delta instead of copying it.
    #[test]
    fn pins_share_the_live_delta() {
        let mut t = seeded();
        t.insert(&[Value::Int32(100), Value::Str("x".into()), Value::Null])
            .unwrap();
        drop(t.snapshot());
        let live = Arc::as_ptr(&t.delta);
        t.insert(&[Value::Int32(101), Value::Str("y".into()), Value::Null])
            .unwrap();
        assert_eq!(Arc::as_ptr(&t.delta), live, "no pin alive: no copy");
        let s = t.snapshot();
        assert!(Arc::ptr_eq(s.overlay.as_ref().unwrap(), &t.delta));
    }

    /// A pin held across two writes costs one copy: the first write copies
    /// the delta away from the pin, the second writes the copy in place.
    #[test]
    fn a_held_pin_costs_one_copy() {
        let mut t = seeded();
        t.insert(&[Value::Int32(100), Value::Str("x".into()), Value::Null])
            .unwrap();
        let held = t.snapshot();
        let pinned_rows = held.rows();
        t.delete(0).unwrap();
        let held_overlay = held.overlay.as_ref().unwrap();
        assert!(
            !Arc::ptr_eq(held_overlay, &t.delta),
            "the first write copies"
        );
        let copy = Arc::as_ptr(&t.delta);
        t.insert(&[Value::Int32(101), Value::Str("y".into()), Value::Null])
            .unwrap();
        assert_eq!(Arc::as_ptr(&t.delta), copy, "the second write does not");
        assert_eq!(held.len(), 11);
        assert_eq!(held.rows(), pinned_rows);
        assert_eq!((held_overlay.tail.len(), held_overlay.dead_count), (1, 0));
        assert_eq!(t.len(), 11);
    }

    /// The copy a write makes under a live pin copies pointers: the pinned
    /// version and the live one share every tail row they both hold.
    #[test]
    fn a_copy_under_a_pin_shares_the_tail_rows() {
        let mut t = seeded();
        for i in 0..3 {
            t.insert(&[Value::Int32(100 + i), Value::Str("x".into()), Value::Null])
                .unwrap();
        }
        let held = t.snapshot();
        t.insert(&[Value::Int32(200), Value::Str("y".into()), Value::Null])
            .unwrap();
        let (old, live) = (held.overlay().unwrap(), t.overlay().unwrap());
        assert!(!Arc::ptr_eq(held.overlay.as_ref().unwrap(), &t.delta));
        assert_eq!((old.tail.len(), live.tail.len()), (3, 4));
        for (pinned, current) in old.tail.iter().zip(live.tail) {
            assert!(Arc::ptr_eq(pinned, current));
        }
    }

    #[test]
    fn snapshot_overlay_shared_within_version() {
        let mut t = seeded();
        t.insert(&[Value::Int32(100), Value::Str("x".into()), Value::Null])
            .unwrap();
        let a = t.snapshot();
        let b = t.snapshot();
        assert!(Arc::ptr_eq(
            a.overlay.as_ref().unwrap(),
            b.overlay.as_ref().unwrap()
        ));
    }

    #[test]
    fn merge_compacts_and_renumbers() {
        let mut t = seeded();
        t.delete(0).unwrap();
        t.delete(9).unwrap();
        t.insert(&[Value::Int32(50), Value::Str("tail".into()), Value::Null])
            .unwrap();
        let stats = t.merge().unwrap();
        assert_eq!(stats.main_rows_before, 10);
        assert_eq!(stats.tombstones_dropped, 2);
        assert_eq!(stats.delta_rows_folded, 1);
        assert_eq!(stats.rows_after, 9);
        assert_eq!(t.main_len(), 9);
        assert!(!t.has_delta());
        // scan order: surviving main rows, then the folded tail row
        assert_eq!(t.get(0).unwrap().0[0], Value::Int32(1));
        assert_eq!(t.get(8).unwrap().0[0], Value::Int32(50));
    }

    #[test]
    fn merge_into_different_layout_preserves_rows() {
        let mut t = seeded();
        t.delete(2).unwrap();
        t.insert(&[Value::Int32(77), Value::Str("n0".into()), Value::Null])
            .unwrap();
        let before: Vec<Row> = t.rows().collect();
        t.merge_with_layout(Layout::column(3)).unwrap();
        let after: Vec<Row> = t.rows().collect();
        assert_eq!(before, after);
        assert_eq!(t.store().layout().n_groups(), 3);
    }

    #[test]
    fn widening_matches_table_encoding() {
        let mut t = VersionedTable::new(
            "w",
            Schema::new(vec![
                ColumnDef::new("f", DataType::Float64),
                ColumnDef::new("l", DataType::Int64),
            ]),
        );
        let id = t.insert(&[Value::Int32(3), Value::Int32(4)]).unwrap();
        assert_eq!(
            t.get(id).unwrap().0,
            vec![Value::Float64(3.0), Value::Int64(4)]
        );
        t.merge().unwrap();
        assert_eq!(
            t.get(0).unwrap().0,
            vec![Value::Float64(3.0), Value::Int64(4)]
        );
    }

    /// Run `write_ops(t)` between begin and finish of a background merge,
    /// and the identical ops on a clone that stays un-merged; both tables
    /// (and then both after a final sync merge) must agree exactly.
    fn background_vs_live(
        mut t: VersionedTable,
        layout: Layout,
        write_ops: impl Fn(&mut VersionedTable),
    ) {
        let mut live = t.clone();
        let ticket = t.begin_merge();
        write_ops(&mut t);
        write_ops(&mut live);
        let built = ticket.build(layout).unwrap();
        t.finish_merge(built).unwrap();
        let a: Vec<Row> = t.rows().collect();
        let b: Vec<Row> = live.rows().collect();
        assert_eq!(a, b, "background-merged vs live scan order");
        t.merge().unwrap();
        live.merge().unwrap();
        let a: Vec<Row> = t.rows().collect();
        let b: Vec<Row> = live.rows().collect();
        assert_eq!(a, b, "after final sync merge");
    }

    #[test]
    fn three_phase_merge_replays_interleaved_ops() {
        background_vs_live(seeded(), Layout::column(3), |t| {
            // inserts after the cut
            t.insert(&[Value::Int32(100), Value::Str("post".into()), Value::Null])
                .unwrap();
            // delete a main-store row that existed at the cut
            t.delete(2).unwrap();
            // update a cut-time row: tombstone (replayed) + re-append (carried)
            t.update(5, 1, &Value::Str("upd".into())).unwrap();
            // delete a row appended after the cut (carried liveness)
            let id = t
                .insert(&[Value::Int32(101), Value::Str("gone".into()), Value::Null])
                .unwrap();
            t.delete(id).unwrap();
        });
    }

    #[test]
    fn three_phase_merge_replays_cut_tail_tombstones() {
        // Seed a delta before the cut so the replay must remap tail
        // ordinals, not just main positions.
        let mut t = seeded();
        let pre = t
            .insert(&[Value::Int32(50), Value::Str("pre".into()), Value::Null])
            .unwrap();
        t.insert(&[Value::Int32(51), Value::Str("pre2".into()), Value::Null])
            .unwrap();
        background_vs_live(t, Layout::row(3), move |t| {
            t.delete(pre).unwrap(); // cut-tail row tombstoned post-cut
            t.delete(0).unwrap();
        });
    }

    #[test]
    fn three_phase_merge_with_quiet_window_matches_merge() {
        let mut t = seeded();
        t.delete(0).unwrap();
        t.insert(&[Value::Int32(70), Value::Str("x".into()), Value::Null])
            .unwrap();
        let mut sync = t.clone();
        let ticket = t.begin_merge();
        let built = ticket.build(Layout::column(3)).unwrap();
        let a = t.finish_merge(built).unwrap();
        let b = sync.merge_with_layout(Layout::column(3)).unwrap();
        assert_eq!(a, b, "identical MergeStats");
        assert!(!t.has_delta());
        let ta: Vec<Row> = t.rows().collect();
        let tb: Vec<Row> = sync.rows().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn post_cut_ops_remain_as_delta_after_swap() {
        let mut t = seeded();
        let ticket = t.begin_merge();
        t.insert(&[Value::Int32(80), Value::Str("a".into()), Value::Null])
            .unwrap();
        t.delete(1).unwrap();
        let built = ticket.build(Layout::row(3)).unwrap();
        t.finish_merge(built).unwrap();
        // the swap folded only the cut; the two post-cut ops are the new delta
        assert_eq!(t.delta_ops(), 2);
        assert_eq!(t.delta_rows(), 1);
        assert_eq!(t.len(), 10); // 10 − 1 + 1
        assert!(t.has_delta());
    }

    #[test]
    fn long_lived_snapshot_pins_only_its_own_version() {
        let mut t = seeded();
        let pin = t.snapshot();
        let pinned_gen = pin.generation();
        for i in 0..6 {
            t.insert(&[Value::Int32(200 + i), Value::Str("m".into()), Value::Null])
                .unwrap();
            t.merge().unwrap();
        }
        let s = t.version_stats();
        assert_eq!(s.pinned_versions, 1, "only the long-lived reader's gen");
        assert_eq!(
            s.live_mains, 2,
            "pinned version + current — intermediates reclaimed"
        );
        assert!(s.pinned_bytes > 0);
        assert_eq!(pin.generation(), pinned_gen);
        drop(pin);
        let s = t.version_stats();
        assert_eq!(s.pinned_versions, 0);
        assert_eq!(s.live_mains, 1, "only the current main remains");
        assert_eq!(s.pinned_bytes, 0);
    }
}
