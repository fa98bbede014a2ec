//! The per-table write-ahead log: an append-only file of framed records
//! (see [`crate::record`]) with three durability disciplines.
//!
//! Appends always go straight to the `File` via `write_all` — there is no
//! user-space buffering, so a SIGKILL can never lose an acknowledged
//! append (only an OS crash can, bounded by the fsync policy):
//!
//! * [`FsyncMode::Always`] — fsync inline before the append returns.
//!   Every acknowledged write survives power loss; latency = disk sync.
//! * [`FsyncMode::Batch`] — the append returns after `write_all`; a
//!   background flusher coalesces outstanding appends into one fsync
//!   (group commit). Process crash loses nothing; power loss is bounded
//!   by one coalesce window. This keeps the µs write path.
//! * [`FsyncMode::Group`] — group-commit *acknowledgement*: writes
//!   coalesce into one fsync exactly as in Batch, but each append blocks
//!   until the group fsync covering it lands. Acknowledged writes survive
//!   power loss (like Always) at Batch's fsync rate; latency = one
//!   coalesce window.
//! * [`FsyncMode::Off`] — never fsync (tests, bulk loads).
//!
//! The flusher syncs through a cloned file handle *outside* the append
//! lock, so appenders never wait behind a disk flush.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// When the WAL calls fsync. Parsed from `PDSM_FSYNC`
/// (`always` | `batch` | `group` | `off`); the default is `batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// fsync before every append returns.
    Always,
    /// Group commit: a background flusher coalesces appends into one
    /// fsync; appends return immediately after the write.
    #[default]
    Batch,
    /// Group-commit *acknowledgement*: appends coalesce into one fsync
    /// exactly as in Batch, but each append blocks until the fsync
    /// covering it has landed — `Always` durability at `Batch` fsync
    /// rates.
    Group,
    /// Never fsync.
    Off,
}

impl FsyncMode {
    /// Read `PDSM_FSYNC` ([`FsyncMode::parse`]).
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::var("PDSM_FSYNC").ok().as_deref())
    }

    /// The policy a `PDSM_FSYNC` setting names (`always` | `batch` |
    /// `group` | `off`), [`FsyncMode::Batch`] when unset. Any other value
    /// is an error naming it: a typo must not quietly weaken durability.
    pub fn parse(setting: Option<&str>) -> Result<Self, String> {
        match setting {
            None | Some("batch") => Ok(FsyncMode::Batch),
            Some("always") => Ok(FsyncMode::Always),
            Some("group") => Ok(FsyncMode::Group),
            Some("off") => Ok(FsyncMode::Off),
            Some(other) => Err(format!("PDSM_FSYNC={other:?}: not always|batch|group|off")),
        }
    }
}

/// Counters one WAL has accumulated. Group-commit effectiveness is
/// `appends_synced / fsyncs`; [`crate::wal::WalStats::max_group`] is the
/// largest single group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Record bytes appended.
    pub bytes_appended: u64,
    /// Records appended.
    pub appends: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Appends covered by an fsync so far (Batch mode; `appends` in
    /// Always mode).
    pub appends_synced: u64,
    /// Largest number of appends one fsync covered.
    pub max_group: u64,
}

impl WalStats {
    /// Fold another WAL's counters into this one (for per-database
    /// aggregation).
    pub fn merge(&mut self, other: &WalStats) {
        self.bytes_appended += other.bytes_appended;
        self.appends += other.appends;
        self.fsyncs += other.fsyncs;
        self.appends_synced += other.appends_synced;
        self.max_group = self.max_group.max(other.max_group);
    }
}

struct WalInner {
    file: File,
    len: u64,
    /// Appends since the last fsync (what the next group will cover).
    pending: u64,
    /// File length covered by a completed fsync (Group-mode ack point).
    synced_len: u64,
    /// A flusher fsync failed; Group-mode appenders must error, not hang.
    sync_failed: bool,
    stats: WalStats,
    stop: bool,
}

struct WalShared {
    inner: Mutex<WalInner>,
    /// Signalled on append (work for the flusher) and on stop.
    work: Condvar,
    /// Signalled when `synced_len` advances (Group-mode acks).
    synced: Condvar,
}

/// One append-only log file. Cheap to clone-share via `Arc`; dropped, it
/// joins its flusher (Batch mode) after a final fsync.
pub struct Wal {
    shared: Arc<WalShared>,
    mode: FsyncMode,
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// Create (or truncate) the log at `path`.
    pub fn create(path: &Path, mode: FsyncMode) -> std::io::Result<Wal> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Wal::from_file(file, 0, mode))
    }

    /// Open an existing log for appending, trusting exactly `valid_len`
    /// bytes: anything past it (a torn tail found during recovery) is
    /// truncated away first.
    pub fn open_append(path: &Path, valid_len: u64, mode: FsyncMode) -> std::io::Result<Wal> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::Start(valid_len))?;
        Ok(Wal::from_file(file, valid_len, mode))
    }

    fn from_file(file: File, len: u64, mode: FsyncMode) -> Wal {
        let shared = Arc::new(WalShared {
            inner: Mutex::new(WalInner {
                file,
                len,
                pending: 0,
                synced_len: len,
                sync_failed: false,
                stats: WalStats::default(),
                stop: false,
            }),
            work: Condvar::new(),
            synced: Condvar::new(),
        });
        let flusher = matches!(mode, FsyncMode::Batch | FsyncMode::Group).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pdsm-wal-flush".into())
                .spawn(move || flusher_loop(&shared))
                .expect("spawn wal flusher")
        });
        Wal {
            shared,
            mode,
            flusher,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.shared.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one framed record. The bytes hit the file (not a user-space
    /// buffer) before this returns; whether they are also fsynced depends
    /// on the mode.
    pub fn append(&self, record: &[u8]) -> std::io::Result<()> {
        let mut g = self.lock();
        g.file.write_all(record)?;
        g.len += record.len() as u64;
        g.stats.bytes_appended += record.len() as u64;
        g.stats.appends += 1;
        match self.mode {
            FsyncMode::Always => {
                g.file.sync_data()?;
                g.stats.fsyncs += 1;
                g.stats.appends_synced += 1;
                g.stats.max_group = g.stats.max_group.max(1);
            }
            FsyncMode::Batch => {
                g.pending += 1;
                let first = g.pending == 1;
                drop(g);
                // Only the append that opens a group needs to wake the
                // flusher; later appends just join the pending group.
                if first {
                    self.shared.work.notify_one();
                }
            }
            FsyncMode::Group => {
                g.pending += 1;
                let my_len = g.len;
                if g.pending == 1 {
                    self.shared.work.notify_one();
                }
                // Ack only once the group fsync covering this record has
                // landed. Everyone who raced into the same coalesce window
                // wakes together off a single fsync.
                while g.synced_len < my_len && !g.sync_failed && !g.stop {
                    g = self
                        .shared
                        .synced
                        .wait(g)
                        .unwrap_or_else(|e| e.into_inner());
                }
                if g.synced_len < my_len {
                    return Err(std::io::Error::other("wal group fsync failed"));
                }
            }
            FsyncMode::Off => {}
        }
        Ok(())
    }

    /// Force everything appended so far to disk (checkpoint barriers and
    /// clean shutdown), regardless of mode.
    pub fn sync(&self) -> std::io::Result<()> {
        let mut g = self.lock();
        let group = g.pending;
        let up_to = g.len;
        g.pending = 0;
        let file = g.file.try_clone()?;
        drop(g);
        file.sync_data()?;
        let mut g = self.lock();
        g.stats.fsyncs += 1;
        g.stats.appends_synced += group;
        g.stats.max_group = g.stats.max_group.max(group);
        g.synced_len = g.synced_len.max(up_to);
        drop(g);
        self.shared.synced.notify_all();
        Ok(())
    }

    /// Bytes appended to the file so far.
    pub fn len(&self) -> u64 {
        self.lock().len
    }

    /// True iff nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> WalStats {
        self.lock().stats
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut g = self.lock();
            g.stop = true;
        }
        self.shared.work.notify_all();
        self.shared.synced.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

/// How long the flusher waits after the first append of a group before
/// fsyncing, so racing writers coalesce into one sync. This is also the
/// power-loss exposure window in Batch mode (a process crash still loses
/// nothing — appends hit the file before returning); cf. PostgreSQL's
/// `commit_delay`.
const COALESCE_WINDOW: Duration = Duration::from_millis(20);

/// Group-commit loop: wait for appends, give concurrent writers a short
/// coalesce window, then fsync once for the whole group — through a
/// cloned handle, off the append lock.
fn flusher_loop(shared: &WalShared) {
    loop {
        let (group, up_to, file) = {
            let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            while g.pending == 0 && !g.stop {
                g = shared.work.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            if g.pending == 0 && g.stop {
                return;
            }
            drop(g);
            // Coalesce: let the writers that raced us land too. The window
            // bounds power-loss exposure AND the fsync rate — on a machine
            // where fdatasync costs ~250µs, a too-eager flusher would eat
            // a whole core (and the write path's tail latency) in syncs.
            std::thread::sleep(COALESCE_WINDOW);
            let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let group = g.pending;
            let up_to = g.len;
            g.pending = 0;
            let file = g.file.try_clone();
            (group, up_to, file)
        };
        let synced = match file {
            Ok(f) => f.sync_data().is_ok(),
            Err(_) => false,
        };
        let mut g = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if synced {
            g.stats.fsyncs += 1;
            g.stats.appends_synced += group;
            g.stats.max_group = g.stats.max_group.max(group);
            g.synced_len = g.synced_len.max(up_to);
        } else {
            g.sync_failed = true;
        }
        let stop = g.stop && g.pending == 0;
        drop(g);
        shared.synced.notify_all();
        if stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_stream, WalRecord};

    fn tombstone(row: u64) -> WalRecord {
        WalRecord {
            appends: Vec::new(),
            tombstones: vec![row],
        }
    }

    #[test]
    fn fsync_setting_parses_the_four_names_and_refuses_anything_else() {
        for (setting, mode) in [
            (None, FsyncMode::Batch),
            (Some("batch"), FsyncMode::Batch),
            (Some("always"), FsyncMode::Always),
            (Some("group"), FsyncMode::Group),
            (Some("off"), FsyncMode::Off),
        ] {
            assert_eq!(FsyncMode::parse(setting), Ok(mode), "{setting:?}");
        }
        for typo in ["alwyas", "Always", "", " batch", "none"] {
            let err = FsyncMode::parse(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("{typo:?}")), "{err}");
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pdsm-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let records: Vec<WalRecord> = (0..100).map(tombstone).collect();
        {
            let wal = Wal::create(&path, FsyncMode::Batch).unwrap();
            for rec in &records {
                wal.append(&rec.encode()).unwrap();
            }
            wal.sync().unwrap();
            let stats = wal.stats();
            assert_eq!(stats.appends, 100);
            assert!(stats.fsyncs >= 1);
            assert!(stats.max_group >= 1);
        }
        let bytes = std::fs::read(&path).unwrap();
        let (decoded, valid) = decode_stream(&bytes).unwrap();
        assert_eq!(valid, bytes.len());
        assert_eq!(decoded, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_truncates_the_torn_tail() {
        let dir = tmpdir("truncate");
        let path = dir.join("wal.log");
        let rec = tombstone(1).encode();
        {
            let wal = Wal::create(&path, FsyncMode::Off).unwrap();
            wal.append(&rec).unwrap();
            wal.append(&rec).unwrap();
        }
        // Simulate a crash half-way through the second record.
        let torn_len = rec.len() as u64 + 3;
        {
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(torn_len).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (decoded, valid) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(valid as u64, rec.len() as u64);
        let wal = Wal::open_append(&path, valid as u64, FsyncMode::Always).unwrap();
        wal.append(&rec).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let (decoded, valid) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(valid, bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_mode_acks_only_after_the_covering_fsync() {
        let dir = tmpdir("groupack");
        let path = dir.join("wal.log");
        let wal = std::sync::Arc::new(Wal::create(&path, FsyncMode::Group).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        wal.append(&tombstone(t * 1000 + i).encode()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, 200);
        // Every append that returned was covered by a completed fsync —
        // that is the Group contract (vs Batch, where synced lags).
        assert_eq!(stats.appends_synced, 200);
        // ... and the acks still coalesced instead of syncing per append.
        assert!(stats.fsyncs < 200, "fsyncs = {}", stats.fsyncs);
        assert!(stats.max_group > 1, "no coalescing happened");
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let (decoded, valid) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded.len(), 200);
        assert_eq!(valid, bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_land_and_coalesce() {
        let dir = tmpdir("group");
        let path = dir.join("wal.log");
        let wal = std::sync::Arc::new(Wal::create(&path, FsyncMode::Batch).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        wal.append(&tombstone(t * 1000 + i).encode()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        wal.sync().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.appends, 1000);
        // Group commit must have coalesced: far fewer fsyncs than appends.
        assert!(stats.fsyncs < 1000, "fsyncs = {}", stats.fsyncs);
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        let (decoded, valid) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded.len(), 1000);
        assert_eq!(valid, bytes.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
