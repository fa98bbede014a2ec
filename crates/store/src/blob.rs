//! Atomic blob I/O: write-temp-then-rename with fsync barriers. Used for
//! checkpointed main stores and the manifest, so a crash at any byte
//! leaves either the old file or the new one — never a half of each.

use crate::failpoint::{hold_blob, take_blob_fault, BlobFault};
use pdsm_storage::start_write_back;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Bytes of a blob between two write-back hints.
const WRITE_BACK_PIECE: u64 = 1 << 20;

/// A blob file being written: each write passes through whole, but never
/// across a [`WRITE_BACK_PIECE`] boundary, and as each whole piece is
/// written its write-back is started, so the device works while the next
/// piece is written.
struct Pieces {
    file: File,
    at: u64,
    fault: Option<BlobFault>,
}

impl Write for Pieces {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = WRITE_BACK_PIECE - self.at % WRITE_BACK_PIECE;
        let buf = &buf[..buf.len().min(room as usize)];
        if let Some(BlobFault::WriteAt(fail)) = self.fault {
            if (self.at..self.at + buf.len() as u64).contains(&fail) {
                return Err(io::Error::other("injected blob write failure"));
            }
        }
        let n = self.file.write(buf)?;
        self.at += n as u64;
        let whole = n > 0 && self.at.is_multiple_of(WRITE_BACK_PIECE);
        if whole && self.fault != Some(BlobFault::RefuseHints) {
            // Only a hint: a refusal leaves the bytes to `sync_data`.
            let _ = start_write_back(&self.file, self.at - WRITE_BACK_PIECE, WRITE_BACK_PIECE);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Write a blob to `path` through `fill`, then `sync_data` it: on `Ok` its
/// bytes are durable. The bytes go out in 1 MiB pieces, each one's
/// write-back started as soon as it is written (see `start_write_back`), so
/// the closing sync waits for the tail, not the whole blob. On any error
/// the partial file is removed.
pub fn write_temp(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let fault = take_blob_fault();
    if fault == Some(BlobFault::Hold) {
        hold_blob();
    }
    let res = (|| {
        let file = File::create(path)?;
        let mut out = BufWriter::new(Pieces { file, at: 0, fault });
        fill(&mut out)?;
        let pieces = out.into_inner().map_err(|e| e.into_error())?;
        if fault == Some(BlobFault::Sync) {
            return Err(io::Error::other("injected blob sync failure"));
        }
        pieces.file.sync_data()
    })();
    if res.is_err() {
        let _ = std::fs::remove_file(path);
    }
    res
}

/// Write `bytes` to `tmp` ([`write_temp`]), rename it over `dest`, and
/// fsync the containing directory so the rename itself is durable. On
/// return the blob is atomically visible under `dest`; on a crash before
/// the rename only the temp file (ignored by recovery) is affected.
pub fn write_atomic(dest: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    write_temp(tmp, |out| out.write_all(bytes))?;
    std::fs::rename(tmp, dest)?;
    if let Some(dir) = dest.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// fsync a directory, making prior renames/creates in it durable. A
/// no-op error on platforms that refuse to open directories is ignored —
/// atomicity (old file or new) still holds; only power-loss durability
/// of the rename itself would degrade.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Scrub stale temp files (`*.tmp*` leftovers from a crash mid-write) in
/// `dir`. Best-effort: unreadable entries are skipped.
pub fn remove_temp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        if name.to_string_lossy().contains(".tmp") {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

/// Map a table name onto a filesystem-safe directory name: ASCII
/// alphanumerics, `_` and `-` pass through; every other byte is escaped
/// as `%XX`. Injective, so distinct tables never collide on disk.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_is_injective_on_tricky_names() {
        let names = ["a/b", "a%2Fb", "a_b", "A-1", "caché", "..", "a b"];
        let mut seen = std::collections::HashSet::new();
        for n in names {
            let s = sanitize_name(n);
            assert!(
                s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'%'),
                "{s}"
            );
            assert!(seen.insert(s), "collision for {n}");
        }
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("pdsm-blob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("blob.bin");
        let tmp = dir.join("blob.tmp.bin");
        write_atomic(&dest, &tmp, b"first version").unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"first version");
        write_atomic(&dest, &tmp, b"v2").unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"v2");
        assert!(!tmp.exists());
        remove_temp_files(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
