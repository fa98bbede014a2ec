//! Per-table durability: the glue between the in-memory
//! [`VersionedTable`] and the on-disk primitives of
//! `pdsm-store`.
//!
//! One [`TableDurability`] owns a table's slice of the data directory:
//!
//! ```text
//! <data_dir>/<table>/main.<G>.tbl   checkpointed main store, generation G
//! <data_dir>/<table>/wal.<G>.log    the WAL sitting on top of main.<G>
//! <data_dir>/MANIFEST               table -> current generation (shared)
//! ```
//!
//! Every commit — one per DML statement — is one [`WalRecord`] (appends,
//! then tombstones), appended by the `VersionedTable` commit step
//! ([`TableDurability::log`]) under the table's write lock, before the
//! commit applies: a crash keeps or loses a whole statement. A merge's
//! build serializes the fresh main off the table lock
//! ([`TableDurability::pre_persist`]); its checkpoint
//! ([`TableDurability::checkpoint`], from `finish_merge` after the swap)
//! renames that blob into place, rewrites the WAL **in the new id space**
//! as one record of the delta, and flips the manifest entry — the single
//! atomic commit point — so the WAL never outlives its main store's id
//! space and stays O(delta), not O(history).
//!
//! Recovery ([`TableDurability::recover`]) inverts this: load (or, with a
//! buffer pool, mount cold) the manifest generation's main blob, decode
//! the WAL up to the last whole checksum-valid record (a torn tail is the
//! crash point, not an error), apply each record through the same commit
//! step — which reads no main-store row, so a cold main stays cold — and
//! hand back the finished table with its durability attached.

use crate::table::VersionedTable;
use crate::version::{Form, OverlayData};
use pdsm_pool::{BufferPool, ColdTable};
use pdsm_storage::{persist, Error, Result, Table};
use pdsm_store::{
    decode_stream, fsync_dir, remove_temp_files, sanitize_name, write_atomic, write_temp,
    FsyncMode, Manifest, Wal, WalRecord, WalStats,
};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Durability counters for one table (aggregated per-database by
/// `pdsm-core`'s `storage_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL counters, summed across every WAL generation this table has
    /// had since open (appends, bytes, fsyncs, group sizes).
    pub wal: WalStats,
    /// Bytes currently in the live WAL file.
    pub wal_len: u64,
    /// Checkpoints taken (one per merge while durable).
    pub checkpoints: u64,
    /// WAL records replayed by the most recent recovery.
    pub last_recovery_replay_ops: u64,
}

/// One table's WAL + checkpoint + manifest glue. Shared as
/// `Arc<TableDurability>` between the owning `VersionedTable` and the
/// database-level stats aggregation; all methods take `&self`.
pub struct TableDurability {
    dir: PathBuf,
    name: String,
    manifest: Arc<Manifest>,
    fsync: FsyncMode,
    /// The live WAL (of generation `G` = the manifest entry). Replaced at
    /// every checkpoint; the mutex also covers the swap.
    wal: Mutex<Wal>,
    /// Counters folded in from WALs retired by checkpoints.
    retired: Mutex<WalStats>,
    checkpoints: AtomicU64,
    last_recovery_replay_ops: AtomicU64,
    /// The in-flight background deletion pass, if any (old generations
    /// are scrubbed off the checkpoint path).
    cleaner: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TableDurability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableDurability")
            .field("dir", &self.dir)
            .field("name", &self.name)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

fn io_err(ctx: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{ctx}: {e}"))
}

fn main_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("main.{generation}.tbl"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// Generation `generation`'s main blob before it is committed under
/// [`main_path`]. Contains `.tmp`, so crash leftovers are scrubbed by
/// [`remove_temp_files`].
fn temp_main_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("main.{generation}.tbl.tmp"))
}

/// Stream `table` as generation `generation`'s main blob to its temp
/// name, durable (`write_temp`). On any error the partial file is
/// removed: a half-written blob must never be renamed into a committed
/// name.
fn write_temp_main(dir: &Path, table: &Table, generation: u64) -> Result<()> {
    write_temp(&temp_main_path(dir, generation), |mut out| {
        persist::write_extents(table, generation, persist::extent_rows_from_env(), &mut out)
    })
    .map_err(|e| io_err("persist main store", e))
}

/// Commit generation `generation`'s temp blob under its final name.
fn commit_main(dir: &Path, generation: u64) -> Result<()> {
    std::fs::rename(temp_main_path(dir, generation), main_path(dir, generation))
        .and_then(|()| fsync_dir(dir))
        .map_err(|e| io_err("commit main store", e))
}

/// Parse `main.<G>.tbl` / `wal.<G>.log` file names back to generations.
fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("main.")
        .and_then(|r| r.strip_suffix(".tbl"))
        .or_else(|| name.strip_prefix("wal.")?.strip_suffix(".log"))?
        .parse()
        .ok()
}

/// Drop every generation-stamped file except generation `keep`, plus any
/// temp leftovers. Best-effort: old generations are garbage either way.
fn cleanup(dir: &Path, keep: u64) {
    remove_temp_files(dir);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let name = name.to_string_lossy();
        if parse_generation(&name).is_some_and(|g| g != keep) {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

impl TableDurability {
    /// Bootstrap durability for a table that exists only in memory:
    /// persist `table` as its generation-0 main store, start an empty WAL,
    /// commit the manifest entry, and return it as a versioned table with
    /// the handle attached.
    pub fn create(
        data_dir: &Path,
        manifest: Arc<Manifest>,
        fsync: FsyncMode,
        table: Table,
    ) -> Result<VersionedTable> {
        let (name, generation) = (table.name().to_string(), 0);
        let dir = data_dir.join(sanitize_name(&name));
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create table dir", e))?;
        write_temp_main(&dir, &table, generation)?;
        // The WAL is created before the blob is renamed in, so one
        // directory fsync makes both names durable before the manifest
        // entry points at them.
        let wal = Wal::create(&wal_path(&dir, generation), fsync)
            .inspect_err(|_| {
                let _ = std::fs::remove_file(temp_main_path(&dir, generation));
            })
            .map_err(|e| io_err("create wal", e))?;
        commit_main(&dir, generation)?;
        manifest
            .set(&name, generation)
            .map_err(|e| io_err("commit manifest", e))?;
        cleanup(&dir, generation);
        let mut table = VersionedTable::from_table(table);
        table.set_durability(Arc::new(Self::handle(dir, &name, manifest, fsync, wal, 0)));
        Ok(table)
    }

    fn handle(
        dir: PathBuf,
        name: &str,
        manifest: Arc<Manifest>,
        fsync: FsyncMode,
        wal: Wal,
        replayed: u64,
    ) -> TableDurability {
        TableDurability {
            dir,
            name: name.to_string(),
            manifest,
            fsync,
            wal: Mutex::new(wal),
            retired: Mutex::new(WalStats::default()),
            checkpoints: AtomicU64::new(0),
            last_recovery_replay_ops: AtomicU64::new(replayed),
            cleaner: Mutex::new(None),
        }
    }

    /// Recover the table's durable state at `generation` (the manifest
    /// entry): the checkpointed main store — mapped whole from its blob
    /// (`persist::read_file`), or with `pool`
    /// mounted as a header-only [`ColdTable`] whose extents fault in on
    /// demand — with the WAL, decoded up to the last whole checksum-valid
    /// record, replayed over it through the table's commit step.
    /// Durability is attached last, so the replay is not logged again. A
    /// short or corrupt WAL *tail* is the crash point and is truncated
    /// away; a corrupt *committed* main blob, or a whole WAL record that
    /// does not decode (`unsupported WAL record …`, file left untouched),
    /// is a hard error.
    pub fn recover(
        data_dir: &Path,
        name: &str,
        generation: u64,
        manifest: Arc<Manifest>,
        fsync: FsyncMode,
        pool: Option<Arc<BufferPool>>,
    ) -> Result<VersionedTable> {
        let dir = data_dir.join(sanitize_name(name));
        // Temp files are crash artifacts of unfinished writes: scrub them
        // before they can be mistaken for real state.
        remove_temp_files(&dir);
        let path = main_path(&dir, generation);
        let (form, on_disk_gen) = match pool {
            Some(pool) => {
                let cold = ColdTable::open(&path, pool)?;
                let on_disk_gen = cold.generation();
                (Form::Cold(Arc::new(cold)), on_disk_gen)
            }
            None => {
                let file = File::open(&path).map_err(|e| io_err("read main store", e))?;
                let (table, on_disk_gen) = persist::read_file(&file)?;
                (Form::Resident(Arc::new(table)), on_disk_gen)
            }
        };
        if on_disk_gen != generation {
            return Err(Error::Io(format!(
                "main store generation mismatch for table {name}: manifest says {generation}, \
                 blob says {on_disk_gen}"
            )));
        }
        let (records, wal) = recover_wal(&wal_path(&dir, generation), fsync)?;
        cleanup(&dir, generation);
        let mut table = VersionedTable::at_generation(form, generation);
        let replayed = records.len() as u64;
        replay(&mut table, records)?;
        table.set_durability(Arc::new(Self::handle(
            dir, name, manifest, fsync, wal, replayed,
        )));
        Ok(table)
    }

    fn wal_lock(&self) -> MutexGuard<'_, Wal> {
        self.wal.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one commit's record to the live WAL. Called only from the
    /// `VersionedTable` commit step, with the table write lock held,
    /// before the commit applies.
    pub fn log(&self, record: &WalRecord) -> Result<()> {
        let bytes = record.encode();
        self.wal_lock()
            .append(&bytes)
            .map_err(|e| io_err("wal append", e))
    }

    /// Force the live WAL to disk regardless of fsync mode (clean
    /// shutdown, checkpoint barriers).
    pub fn sync(&self) -> Result<()> {
        self.wal_lock().sync().map_err(|e| io_err("wal sync", e))
    }

    /// Serialize a merge's freshly built main store as generation
    /// `generation`'s temp blob — from the build, off the table lock — for
    /// the checkpoint inside `finish_merge` to rename. Merges of one table
    /// run one at a time, so no other build writes that name meanwhile.
    pub fn pre_persist(&self, table: &Table, generation: u64) -> Result<()> {
        // The previous checkpoint's deletion pass would scrub this blob.
        self.wait_cleanup();
        write_temp_main(&self.dir, table, generation)
    }

    /// Checkpoint the post-merge state. Called from `finish_merge` with
    /// the table write lock held, *after* the swap: `main` is the fresh
    /// main store at `generation`, whose blob the build pre-persisted, and
    /// `delta` the new (post-cut) one.
    ///
    /// Steps, in crash-safe order: (1) the pre-persisted blob is renamed
    /// to its generation-stamped name; (2) the WAL for the new generation
    /// is written as one record of the delta in the new id space; (3) the
    /// manifest entry flips — the commit point; (4) the live WAL handle
    /// moves to the new file; (5) stale generations are scrubbed. A crash
    /// anywhere before (3) recovers from the previous generation, whose
    /// main + WAL are an equivalent un-merged description of the same
    /// rows.
    pub fn checkpoint(&self, main: &Table, generation: u64, delta: &OverlayData) -> Result<()> {
        // (1) main.<G>.tbl — the build already wrote and fsynced it, after
        // the previous checkpoint's deletion pass had finished (no other
        // checkpoint of this table can run in between), so this
        // generation's files are safe from that pass.
        commit_main(&self.dir, generation)?;
        // (2) wal.<G>.log — the delta in the new id space as one record:
        // every tail row appended (dead ones too, so tail ids stay put),
        // then the tombstoned main and tail rows. Replayed through the
        // commit step it reproduces the overlay exactly, with the same
        // row ids, so later records keep addressing correctly.
        let dead_tail = delta.tail_alive.iter().map(|alive| !alive).enumerate();
        let tombstones: Vec<u64> = (delta.dead.iter().copied().enumerate())
            .chain(dead_tail.map(|(j, dead)| (main.len() + j, dead)))
            .filter_map(|(id, dead)| dead.then_some(id as u64))
            .collect();
        let buf = if delta.tail.is_empty() && tombstones.is_empty() {
            Vec::new()
        } else {
            WalRecord::encode_rows(delta.tail.iter().map(|r| &**r), &tombstones)
        };
        let wal_dest = wal_path(&self.dir, generation);
        write_atomic(
            &wal_dest,
            &self.dir.join(format!("wal.{generation}.log.tmp")),
            &buf,
        )
        .map_err(|e| io_err("write checkpoint wal", e))?;
        // (3) the commit point.
        self.manifest
            .set(&self.name, generation)
            .map_err(|e| io_err("commit manifest", e))?;
        // (4) swap the live WAL handle and, still under its lock (so
        // `stats` never misses them), fold the retired one's counters.
        let new_wal = Wal::open_append(&wal_dest, buf.len() as u64, self.fsync)
            .map_err(|e| io_err("reopen checkpoint wal", e))?;
        let mut live = self.wal_lock();
        let retired = std::mem::replace(&mut *live, new_wal);
        self.retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&retired.stats());
        // (5) previous generations are now unreachable: the old main blob
        // and WAL die on a background thread, off the merge-swap critical
        // path.
        let dir = self.dir.clone();
        *self.cleaner.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(std::thread::spawn(move || cleanup(&dir, generation)));
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Block until the background deletion pass from the last checkpoint
    /// (if any) has finished. Tests and clean shutdown use this.
    pub fn wait_cleanup(&self) {
        let mut cleaner = self.cleaner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = cleaner.take() {
            let _ = h.join();
        }
    }

    /// Current counters (live WAL + everything retired by checkpoints).
    pub fn stats(&self) -> DurabilityStats {
        let wal = self.wal_lock();
        let mut merged = *self.retired.lock().unwrap_or_else(|e| e.into_inner());
        merged.merge(&wal.stats());
        DurabilityStats {
            wal: merged,
            wal_len: wal.len(),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_recovery_replay_ops: self.last_recovery_replay_ops.load(Ordering::Relaxed),
        }
    }
}

impl Drop for TableDurability {
    fn drop(&mut self) {
        self.wait_cleanup();
    }
}

/// Decode the WAL at `path` and reopen it for appending, truncated to its
/// last whole record; a whole record that does not decode fails before
/// anything touches the file.
fn recover_wal(path: &Path, fsync: FsyncMode) -> Result<(Vec<WalRecord>, Wal)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        // The WAL is written before the manifest flips, so this should be
        // impossible — but an empty log is the safe reading.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let wal = Wal::create(path, fsync).map_err(|e| io_err("create wal", e))?;
            return Ok((Vec::new(), wal));
        }
        Err(e) => return Err(io_err("read wal", e)),
    };
    let (records, valid) =
        decode_stream(&bytes).map_err(|e| Error::Io(format!("{e} in {}", path.display())))?;
    let wal = Wal::open_append(path, valid as u64, fsync).map_err(|e| io_err("reopen wal", e))?;
    Ok((records, wal))
}

/// Replay recovered records through the table's commit step, exactly as
/// they were committed. The table must not have durability attached yet
/// (replay must not be re-logged).
fn replay(table: &mut VersionedTable, records: Vec<WalRecord>) -> Result<()> {
    debug_assert!(table.durability().is_none(), "replay would be re-logged");
    for record in records {
        table.commit(record)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::{ColumnDef, DataType, Layout, Row, Schema, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdsm-dur-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int32),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::nullable("price", DataType::Float64),
        ])
    }

    fn durable_table(dir: &Path, name: &str) -> (VersionedTable, Arc<Manifest>) {
        let manifest = Arc::new(Manifest::open(dir.join("MANIFEST")).unwrap());
        let table = Table::new(name, schema());
        let t = TableDurability::create(dir, Arc::clone(&manifest), FsyncMode::Off, table).unwrap();
        (t, manifest)
    }

    /// What a fresh process does: reload the manifest, recover the table.
    fn reopen(dir: &Path, name: &str) -> VersionedTable {
        let manifest = Arc::new(Manifest::open(dir.join("MANIFEST")).unwrap());
        let generation = manifest.get(name).unwrap();
        TableDurability::recover(dir, name, generation, manifest, FsyncMode::Off, None).unwrap()
    }

    fn all_rows(t: &VersionedTable) -> Vec<Row> {
        t.rows().collect()
    }

    #[test]
    fn dml_survives_reopen() {
        let dir = tmpdir("dml");
        let (mut t, _manifest) = durable_table(&dir, "orders");
        t.insert(&[Value::Int32(1), Value::Str("a".into()), Value::Null])
            .unwrap();
        t.insert(&[Value::Int32(2), Value::Str("b".into()), Value::Float64(2.5)])
            .unwrap();
        let id = t
            .insert(&[Value::Int32(3), Value::Str("c".into()), Value::Null])
            .unwrap();
        t.delete(id).unwrap();
        t.update(0, 1, &Value::Str("a2".into())).unwrap();
        let before = all_rows(&t);
        drop(t);
        let r = reopen(&dir, "orders");
        assert_eq!(all_rows(&r), before);
        assert_eq!(r.durability().unwrap().stats().last_recovery_replay_ops, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_on_merge_shrinks_wal_and_survives() {
        let dir = tmpdir("ckpt");
        let (mut t, manifest) = durable_table(&dir, "t");
        for i in 0..50 {
            t.insert(&[Value::Int32(i), Value::Str(format!("r{i}")), Value::Null])
                .unwrap();
        }
        t.delete(3).unwrap();
        let wal_before = t.durability().unwrap().stats().wal_len;
        assert!(wal_before > 0);
        t.merge().unwrap();
        let d = t.durability().unwrap();
        assert_eq!(d.stats().checkpoints, 1);
        assert_eq!(d.stats().wal_len, 0, "empty delta => empty wal");
        assert_eq!(manifest.get("t"), Some(1));
        // post-checkpoint ops land in the new WAL and replay on reopen
        t.update(0, 1, &Value::Str("post".into())).unwrap();
        let before = all_rows(&t);
        drop(d);
        drop(t);
        let r = reopen(&dir, "t");
        assert_eq!(r.generation(), 1);
        assert_eq!(all_rows(&r), before);
        // replay is O(ops since checkpoint): exactly the one update
        assert_eq!(r.durability().unwrap().stats().last_recovery_replay_ops, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn three_phase_merge_checkpoint_carries_post_cut_delta() {
        let dir = tmpdir("bg");
        let (mut t, _manifest) = durable_table(&dir, "t");
        for i in 0..10 {
            t.insert(&[Value::Int32(i), Value::Str("x".into()), Value::Null])
                .unwrap();
        }
        let ticket = t.begin_merge();
        // ops landing during the build: a delete of a cut row, an insert,
        // and an update — all must survive the checkpointed swap.
        t.delete(2).unwrap();
        t.insert(&[Value::Int32(100), Value::Str("post".into()), Value::Null])
            .unwrap();
        t.update(4, 2, &Value::Float64(9.5)).unwrap();
        let built = ticket.build(Layout::column(3)).unwrap();
        t.finish_merge(built).unwrap();
        let before = all_rows(&t);
        drop(t);
        let r = reopen(&dir, "t");
        assert_eq!(r.generation(), 1);
        assert_eq!(all_rows(&r), before);
        // The checkpoint rewrote the post-cut delta as one record.
        assert_eq!(r.durability().unwrap().stats().last_recovery_replay_ops, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_recovers_to_last_whole_record() {
        let dir = tmpdir("torn");
        let (mut t, _manifest) = durable_table(&dir, "t");
        t.insert(&[Value::Int32(1), Value::Str("a".into()), Value::Null])
            .unwrap();
        t.insert(&[Value::Int32(2), Value::Str("b".into()), Value::Null])
            .unwrap();
        let survivors = all_rows(&t);
        t.insert(&[Value::Int32(3), Value::Str("lost".into()), Value::Null])
            .unwrap();
        let wal = wal_path(&dir.join(sanitize_name("t")), 0);
        drop(t);
        // tear the last record: recovery must stop before it
        let len = std::fs::metadata(&wal).unwrap().len();
        pdsm_store::truncate_at(&wal, len - 3).unwrap();
        let r = reopen(&dir, "t");
        assert_eq!(all_rows(&r), survivors);
        assert_eq!(r.durability().unwrap().stats().last_recovery_replay_ops, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn update_logs_a_single_op() {
        let dir = tmpdir("oneop");
        let (mut t, _manifest) = durable_table(&dir, "t");
        t.insert(&[Value::Int32(1), Value::Str("a".into()), Value::Null])
            .unwrap();
        let appends_before = t.durability().unwrap().stats().wal.appends;
        t.update(0, 1, &Value::Str("b".into())).unwrap();
        let appends_after = t.durability().unwrap().stats().wal.appends;
        assert_eq!(
            appends_after - appends_before,
            1,
            "update must log one op, not its delete + append decomposition"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn half_written_pre_persist_blob_is_never_committed() {
        let dir = tmpdir("halfblob");
        let (mut t, _manifest) = durable_table(&dir, "t");
        for i in 0..5 {
            t.insert(&[Value::Int32(i), Value::Str("x".into()), Value::Null])
                .unwrap();
        }
        // Simulate a crash that left a torn pre-persist temp file from an
        // unfinished merge: recovery must scrub it, not read it.
        let tdir = dir.join(sanitize_name("t"));
        std::fs::write(temp_main_path(&tdir, 1), b"torn garbage").unwrap();
        let before = all_rows(&t);
        drop(t);
        let r = reopen(&dir, "t");
        assert_eq!(all_rows(&r), before);
        assert!(!temp_main_path(&tdir, 1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_committed_main_blob_is_a_hard_error() {
        let dir = tmpdir("hard");
        let (t, _manifest) = durable_table(&dir, "t");
        drop(t);
        let blob = main_path(&dir.join(sanitize_name("t")), 0);
        pdsm_store::flip_bit(&blob, 12).unwrap();
        let manifest = Arc::new(Manifest::open(dir.join("MANIFEST")).unwrap());
        let res = TableDurability::recover(&dir, "t", 0, manifest, FsyncMode::Off, None);
        assert!(res.is_err(), "bit rot in a committed blob must not pass");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reopened main's arenas are its blob's mapped pages. The next
    /// checkpoint's deletion pass unlinks that blob; a snapshot still
    /// holding the old main reads every row as before.
    #[test]
    fn a_mapped_main_outlives_its_unlinked_blob() {
        let dir = tmpdir("mapped");
        let (mut t, _manifest) = durable_table(&dir, "t");
        for i in 0..3000 {
            let price = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Float64(i as f64 / 4.0)
            };
            t.insert(&[Value::Int32(i), Value::Str(format!("n{}", i % 7)), price])
                .unwrap();
        }
        t.merge().unwrap();
        let want = all_rows(&t);
        drop(t);
        let mut r = reopen(&dir, "t");
        let old = r.snapshot();
        let Form::Resident(main) = old.store().form() else {
            panic!("recovered without a pool, yet not resident");
        };
        assert!(main.partitions().iter().all(|p| p.is_mapped()));
        r.insert(&[Value::Int32(-1), Value::Str("new".into()), Value::Null])
            .unwrap();
        r.merge().unwrap();
        r.durability().unwrap().wait_cleanup();
        let tdir = dir.join(sanitize_name("t"));
        assert!(!main_path(&tdir, old.generation()).exists(), "not unlinked");
        assert!(main.partitions().iter().all(|p| p.is_mapped()));
        assert_eq!(old.rows(), want);
        assert_eq!(main.rows().collect::<Vec<_>>(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_scrubs_previous_generation() {
        let dir = tmpdir("scrub");
        let (mut t, _manifest) = durable_table(&dir, "t");
        t.insert(&[Value::Int32(1), Value::Str("a".into()), Value::Null])
            .unwrap();
        t.merge().unwrap();
        t.durability().unwrap().wait_cleanup();
        let tdir = dir.join(sanitize_name("t"));
        assert!(main_path(&tdir, 1).exists());
        assert!(!main_path(&tdir, 0).exists(), "gen 0 blob scrubbed");
        assert!(!wal_path(&tdir, 0).exists(), "gen 0 wal scrubbed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Back-to-back checkpoints: the deletion pass of one must never scrub
    /// the temp file — or the committed generation — of the next.
    #[test]
    fn consecutive_checkpoints_do_not_race_the_cleaner() {
        let dir = tmpdir("ckpt-race");
        let (mut t, manifest) = durable_table(&dir, "t");
        for i in 0..200 {
            t.insert(&[Value::Int32(i), Value::Str("x".into()), Value::Null])
                .unwrap();
            t.merge().unwrap();
            t.merge().unwrap();
        }
        assert_eq!(manifest.get("t"), Some(400));
        let before = all_rows(&t);
        drop(t);
        assert_eq!(all_rows(&reopen(&dir, "t")), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reopen over a cold main: replay must run without hydration, reads
    /// must match the resident path byte-for-byte, and a merge must retire
    /// the superseded generation's frames from the pool.
    #[test]
    fn cold_recovery_replays_unhydrated_and_matches_resident() {
        let dir = tmpdir("cold");
        let (mut t, _manifest) = durable_table(&dir, "t");
        for i in 0..40 {
            t.insert(&[Value::Int32(i), Value::Str(format!("r{i}")), Value::Null])
                .unwrap();
        }
        t.merge().unwrap(); // checkpoint at generation 1
        t.insert(&[Value::Int32(100), Value::Str("post".into()), Value::Null])
            .unwrap();
        t.delete(3).unwrap();
        t.update(5, 1, &Value::Str("upd".into())).unwrap();
        let before = all_rows(&t);
        t.durability().unwrap().wait_cleanup();
        drop(t);

        let reopen_cold = || {
            let pool = pdsm_pool::BufferPool::new(16 << 20);
            let manifest = Arc::new(Manifest::open(dir.join("MANIFEST")).unwrap());
            let generation = manifest.get("t").unwrap();
            let t = TableDurability::recover(
                &dir,
                "t",
                generation,
                manifest,
                FsyncMode::Off,
                Some(Arc::clone(&pool)),
            )
            .unwrap();
            (t, pool)
        };

        let (t, pool) = reopen_cold();
        assert!(
            t.store().cold().is_some(),
            "WAL replay must not hydrate the cold main"
        );
        assert_eq!(t.snapshot().generation(), 1);
        assert!(
            t.store().cold().is_some(),
            "pinning a snapshot faults nothing"
        );
        assert_eq!(t.len(), before.len());
        assert_eq!(t.schema(), &schema());
        // A full scan walks the extents, matches the resident replay
        // exactly, and leaves the main cold.
        assert_eq!(all_rows(&t), before);
        assert!(t.store().cold().is_some(), "a scan converted the main");
        assert!(pool.stats().misses > 0, "the scan faults through the pool");
        drop(t);

        // A merge over a still-cold main retires the old generation's
        // frames; nothing stays pinned at quiesce.
        let (mut t, pool) = reopen_cold();
        // Pinning the merge's cut reads nothing; the fold walks the
        // extents and leaves the main it folded cold.
        let recovered = pool.stats();
        let ticket = t.begin_merge();
        assert_eq!(pool.stats(), recovered, "begin_merge touched the pool");
        assert!(t.store().cold().is_some(), "begin_merge converted the main");
        let built = ticket.build(t.store().layout().clone()).unwrap();
        assert!(t.store().cold().is_some(), "the build converted the main");
        assert_eq!(pool.stats().pinned_frames, 0, "the fold leaked a pin");
        t.finish_merge(built).unwrap();
        assert_eq!(t.generation(), 2);
        assert_eq!(all_rows(&t), before);
        assert_eq!(pool.resident_frames("t", 1), 0, "gen-1 frames retired");
        assert_eq!(pool.stats().pinned_frames, 0, "pin leak");
        t.durability().unwrap().wait_cleanup();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
