//! [`ColdTable`]: a checkpointed main store opened *header-only*. Row data
//! stays on disk until a reader pins the extents it walks; each extent is
//! one pool frame, faulted by one read and decoded once into the mini
//! table readers borrow. A caller that must have one whole table gets a
//! copy assembled for it ([`ColdTable::hydrate`]); the mount stays cold.
//! The open file handle is kept for the table's lifetime, so a later
//! checkpoint unlinking this generation's file cannot invalidate in-flight
//! faults (POSIX keeps the inode alive).

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pdsm_storage::persist::{self, TableHeader};
use pdsm_storage::{Error, Result, Row, Table, ZonePred};

use crate::pool::{BufferPool, FrameKey, PinnedFrame};

pub struct ColdTable {
    header: Arc<TableHeader>,
    file: Arc<File>,
    pool: Arc<BufferPool>,
}

fn io_err(e: io::Error) -> Error {
    Error::Io(format!("cold table read: {e}"))
}

/// One extent fault: exactly `len` bytes at `offset`, on the faulting
/// thread (it would block on the read either way), with the wall-clock
/// latency in nanoseconds the query observed. A short read — a directory
/// entry reaching past EOF — is an error, never a partial payload.
fn read_timed(file: &File, offset: u64, len: usize) -> io::Result<(Vec<u8>, u64)> {
    let started = Instant::now();
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, offset)?;
    Ok((buf, started.elapsed().as_nanos() as u64))
}

impl ColdTable {
    /// Open a v3 extent checkpoint without reading any payload: the header
    /// (schema, layout, dicts, zone map, extent directory) is validated
    /// against its CRC; everything else faults in on demand.
    pub fn open(path: &Path, pool: Arc<BufferPool>) -> Result<ColdTable> {
        let file = File::open(path).map_err(io_err)?;
        let mut prefix = [0u8; 16];
        file.read_exact_at(&mut prefix, 0).map_err(io_err)?;
        let header_len = u32::from_le_bytes(prefix[12..16].try_into().unwrap()) as usize;
        let mut head = vec![0u8; header_len.clamp(16, 1 << 28)];
        file.read_exact_at(&mut head, 0).map_err(io_err)?;
        let header = persist::read_header(&head)?;
        Ok(ColdTable {
            header: Arc::new(header),
            file: Arc::new(file),
            pool,
        })
    }

    pub fn header(&self) -> &Arc<TableHeader> {
        &self.header
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn generation(&self) -> u64 {
        self.header.generation
    }

    pub fn len(&self) -> usize {
        self.header.len
    }

    pub fn is_empty(&self) -> bool {
        self.header.len == 0
    }

    pub fn n_extents(&self) -> usize {
        self.header.n_extents()
    }

    /// Is extent `e` refuted for the conjunction `preds`? True only when
    /// *every* zone block the extent covers is refuted — the scan can then
    /// skip the extent without faulting a single byte of it.
    pub fn extent_refuted(&self, e: usize, preds: &[ZonePred]) -> bool {
        if preds.is_empty() {
            return false;
        }
        let zones = match &self.header.zones {
            Some(z) => z,
            None => return false,
        };
        let (lo, hi) = self.header.extent_row_range(e);
        let b0 = lo / pdsm_storage::ZONE_BLOCK_ROWS;
        let b1 = hi.div_ceil(pdsm_storage::ZONE_BLOCK_ROWS);
        (b0..b1).all(|b| zones.block_refuted(b, preds))
    }

    /// Which extents are resident right now? Indexed by extent, length
    /// [`ColdTable::n_extents`]. Advisory: residency can change as soon as
    /// the pool lock drops — used only for planner pricing and `explain`.
    pub fn resident_extents(&self) -> Vec<bool> {
        let h = &self.header;
        let ready = self.pool.ready_extents(&h.name, h.generation);
        (0..self.n_extents())
            .map(|e| ready.contains(&(e as u32)))
            .collect()
    }

    /// Pin extent `e`: on a miss, one read of its directory range, decoded
    /// into the frame's scan-ready table. Scans read that table in place
    /// for exactly the time they hold the pin.
    pub fn pin(&self, e: usize) -> Result<PinnedFrame> {
        let key = FrameKey {
            table: self.header.name.clone(),
            generation: self.header.generation,
            extent: e as u32,
        };
        let header = Arc::clone(&self.header);
        let file = Arc::clone(&self.file);
        self.pool
            .pin(&key, move || {
                let (start, end) = header.extent_span(e);
                let (bytes, ns) = read_timed(&file, start, end.saturating_sub(start) as usize)?;
                let table = persist::decode_extent(&header, e, start, &bytes)
                    .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
                Ok((table, header.extent_bytes(e), ns))
            })
            .map_err(io_err)
    }

    /// Fault in the whole table and assemble a copy of it — bit-identical
    /// to a `persist::from_bytes` load. Every extent still moves through
    /// the pool (so budgets, stats, and eviction apply), but the assembled
    /// table is the caller's alone: nothing caches it, and this mount stays
    /// cold.
    pub fn hydrate(&self) -> Result<Table> {
        // Each pin drops at once: its table's `Arc` outlives an eviction
        // until the assembly has copied it.
        let extents = (0..self.n_extents()).map(|e| Ok(Arc::clone(self.pin(e)?.table())));
        persist::assemble_table(&self.header, extents)
    }

    /// Point read of main-store row `id` — faults only the one extent the
    /// row lives in. Used by the delta layer for cold `get`/`update`.
    pub fn row(&self, id: usize) -> Result<Row> {
        if id >= self.header.len {
            return Err(Error::RowOutOfRange {
                row: id,
                len: self.header.len,
            });
        }
        let e = id / self.header.extent_rows;
        let (lo, _) = self.header.extent_row_range(e);
        self.pin(e)?.table().row(id - lo)
    }

    /// Drop this generation's frames from the pool (merge retired the
    /// checkpoint).
    pub fn retire(&self) {
        self.pool.retire(&self.header.name, self.header.generation);
    }
}

impl std::fmt::Debug for ColdTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdTable")
            .field("name", &self.header.name)
            .field("generation", &self.header.generation)
            .field("len", &self.header.len)
            .field("extents", &self.n_extents())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn reads_land_byte_exact() {
        let dir = std::env::temp_dir().join(format!("pdsm-cold-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        let mut f = File::create(&path).unwrap();
        f.write_all(&(0..=255u8).collect::<Vec<_>>()).unwrap();
        f.sync_all().unwrap();
        let f = File::open(&path).unwrap();
        let (bytes, _ns) = read_timed(&f, 10, 5).unwrap();
        assert_eq!(bytes, vec![10, 11, 12, 13, 14]);
        assert!(read_timed(&f, 250, 10).is_err()); // past EOF
        let _ = std::fs::remove_dir_all(&dir);
    }
}
