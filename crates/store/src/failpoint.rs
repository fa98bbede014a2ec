//! Fault injection for durability tests. **Test-only tooling** — it lives
//! in the public API (not behind `cfg(test)`) so downstream crates'
//! integration tests can crash-test recovery. The engine proper consults
//! one seam of it, [`BlobFault`], which is never armed outside tests.
//!
//! Three families:
//!
//! * [`FailpointFile`]: an `io::Write` wrapper that silently stops
//!   persisting after byte `N`, simulating a process killed mid-write —
//!   the file ends up with a torn tail exactly where a real crash would
//!   leave one.
//! * [`arm_blob_fault`]: the next blob this thread writes
//!   (`blob::write_temp`) fails a write or its `sync_data`, or has its
//!   write-back hints refused, as a failing device would.
//! * [`truncate_at`] / [`flip_bit`]: post-hoc damage to files already on
//!   disk, simulating torn appends and media bit rot.

use std::cell::Cell;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// An `io::Write` that forwards bytes to `inner` until `fail_at` total
/// bytes have been written, then silently swallows the rest (reporting
/// success to the caller, as a killed process's page cache would).
pub struct FailpointFile<W: Write> {
    inner: W,
    written: u64,
    fail_at: u64,
}

impl<W: Write> FailpointFile<W> {
    /// Wrap `inner`; bytes past offset `fail_at` are dropped.
    pub fn new(inner: W, fail_at: u64) -> Self {
        FailpointFile {
            inner,
            written: 0,
            fail_at,
        }
    }

    /// Bytes the caller believes it wrote (persisted or not).
    pub fn claimed_len(&self) -> u64 {
        self.written
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailpointFile<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let persist = (self.fail_at.saturating_sub(self.written) as usize).min(buf.len());
        if persist > 0 {
            self.inner.write_all(&buf[..persist])?;
        }
        self.written += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A fault for the next blob one thread writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobFault {
    /// Every write-back hint is refused.
    RefuseHints,
    /// The write that would put byte `N` of the blob fails.
    WriteAt(u64),
    /// The closing `sync_data` fails, every byte written.
    Sync,
}

thread_local! {
    static BLOB_FAULT: Cell<Option<BlobFault>> = const { Cell::new(None) };
}

/// Arm `fault` for the next blob write on this thread; that write disarms
/// it as it starts.
pub fn arm_blob_fault(fault: BlobFault) {
    BLOB_FAULT.set(Some(fault));
}

/// The fault armed for this thread's next blob write, disarmed.
pub(crate) fn take_blob_fault() -> Option<BlobFault> {
    BLOB_FAULT.take()
}

/// Truncate the file at `path` to `len` bytes (a crash that lost the
/// tail of an append).
pub fn truncate_at(path: &Path, len: u64) -> std::io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)
}

/// Flip one bit (`byte_idx`, low bit 0x01) in the file at `path` —
/// media corruption a checksum must catch.
pub fn flip_bit(path: &Path, byte_idx: u64) -> std::io::Result<()> {
    let mut f = OpenOptions::new().read(true).write(true).open(path)?;
    let mut b = [0u8; 1];
    f.seek(SeekFrom::Start(byte_idx))?;
    f.read_exact(&mut b)?;
    b[0] ^= 0x01;
    f.seek(SeekFrom::Start(byte_idx))?;
    f.write_all(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failpoint_drops_everything_past_the_cut() {
        let mut sink = Vec::new();
        {
            let mut f = FailpointFile::new(&mut sink, 5);
            f.write_all(b"abc").unwrap();
            f.write_all(b"defg").unwrap(); // crosses the cut at 5
            f.write_all(b"hij").unwrap(); // entirely past it
            assert_eq!(f.claimed_len(), 10);
        }
        assert_eq!(sink, b"abcde");
    }

    #[test]
    fn file_damage_helpers() {
        let dir = std::env::temp_dir().join(format!("pdsm-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, b"0123456789").unwrap();
        truncate_at(&path, 4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        flip_bit(&path, 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"1123");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
