//! [`ColdTable`]: a checkpointed main store opened *header-only*. Row data
//! stays on disk until a reader pins the extents it walks; each extent is
//! one pool frame, its run slices read straight into the arenas of the mini
//! table readers borrow and verified there. A caller that must have one
//! whole table gets a copy assembled for it ([`ColdTable::hydrate`]); the
//! mount stays cold.
//! The open file handle is kept for the table's lifetime, so a later
//! checkpoint unlinking this generation's file cannot invalidate in-flight
//! faults (POSIX keeps the inode alive).

use std::fs::File;
use std::io;
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

impl ColdTable {
    /// Open a checkpoint without reading any run: the header
    /// (schema, layout, dicts, zone map, extent directory) is validated
    /// against its CRC; everything else faults in on demand.
    pub fn open(path: &Path, pool: Arc<BufferPool>) -> Result<ColdTable> {
        let file = File::open(path).map_err(io_err)?;
        let header = persist::read_header_from(&file)?;
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

    /// Pin extent `e`: on a miss, its run slices are read on the faulting
    /// thread (it would block on the read either way) straight into the
    /// frame's scan-ready table; a short read — a file cut inside the
    /// extent's slices — is an error, never a partial slice. Scans read that
    /// table in place for exactly the time they hold the pin. The fault's
    /// latency covers the whole miss the query waits on: read, checksum
    /// and decode.
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
                let started = Instant::now();
                let table = persist::decode_extent(&header, e, &*file)
                    .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
                let ns = started.elapsed().as_nanos() as u64;
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
    use pdsm_storage::{ColumnDef, DataType, Layout, Schema, Value, ZONE_BLOCK_ROWS};

    /// 2 500 rows at 1 024-row extents: two full extents and a short last
    /// one of 452 rows, which ends inside a 64-row validity word. Two of
    /// the four columns are nullable.
    fn nullable_rows(layout: Layout) -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int32),
            ColumnDef::nullable("name", DataType::Str),
            ColumnDef::nullable("price", DataType::Float64),
            ColumnDef::new("qty", DataType::Int64),
        ]);
        let mut t = Table::with_layout("t", schema, layout).unwrap();
        for i in 0..2500 {
            t.insert(&[
                Value::Int32(i),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("s{}", i % 7))
                },
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 / 4.0)
                },
                Value::Int64(i as i64 * 11),
            ])
            .unwrap();
        }
        t
    }

    fn layouts() -> [Layout; 3] {
        [
            Layout::row(4),
            Layout::column(4),
            Layout::from_groups(vec![vec![0, 2], vec![1, 3]], 4).unwrap(),
        ]
    }

    /// `blob` written to a fresh file and mounted cold behind a pool that
    /// holds one extent at a time.
    fn mount(tag: &str, blob: &[u8]) -> (std::path::PathBuf, ColdTable) {
        let dir = std::env::temp_dir().join(format!("pdsm-cold-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        std::fs::write(&path, blob).unwrap();
        let cold = ColdTable::open(&path, BufferPool::new(16 << 10)).unwrap();
        (dir, cold)
    }

    #[test]
    fn resident_load_and_cold_hydrate_are_bit_identical() {
        for (i, layout) in layouts().into_iter().enumerate() {
            let t = nullable_rows(layout);
            let blob = persist::to_bytes_extents(&t, 4, ZONE_BLOCK_ROWS);
            let (resident, _) = persist::from_bytes(&blob).unwrap();
            let (dir, cold) = mount(&format!("parity-{i}"), &blob);
            assert_eq!(cold.n_extents(), 3);
            let hydrated = cold.hydrate().unwrap();
            for back in [&resident, &hydrated] {
                assert_eq!(back.len(), t.len());
                for (a, b) in t.partitions().iter().zip(back.partitions()) {
                    assert_eq!(a.raw_bytes(), b.raw_bytes());
                    for slot in 0..a.cols().len() {
                        assert_eq!(a.validity(slot), b.validity(slot));
                    }
                }
                for r in 0..t.len() {
                    assert_eq!(back.row(r).unwrap(), t.row(r).unwrap());
                }
                assert_eq!(**back.zone_map(), **t.zone_map());
                // Validity words, dictionaries and zones re-serialize to
                // the very blob they came from.
                assert!(persist::to_bytes_extents(back, 4, ZONE_BLOCK_ROWS) == blob);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn one_flipped_bit_in_an_extent_is_refused_by_load_and_fault() {
        let t = nullable_rows(Layout::column(4));
        let blob = persist::to_bytes_extents(&t, 2, ZONE_BLOCK_ROWS);
        let h = persist::read_header(&blob).unwrap();
        // The short last extent's `price` slices: an arena of 452 f64s
        // and 8 validity words, checked by one directory CRC.
        let (e, g) = (2, 2);
        let [(off, len), (words, words_len)] = h.extent_slices(e, g);
        let (off, words) = (off as usize, words as usize);
        assert_eq!((len, words_len), (452 * 8, 8 * 8));
        for (what, pos, bit) in [("arena", off + 100, 3), ("validity word", words + 7 * 8, 0)] {
            let mut bad = blob.clone();
            bad[pos] ^= 1 << bit;
            let err = persist::from_bytes(&bad).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{what}: {err}");
            let (dir, cold) = mount(&format!("flip-{bit}"), &bad);
            assert!(cold.pin(0).is_ok() && cold.pin(1).is_ok(), "{what}");
            let err = cold.pin(e).map(|_| ()).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{what}: {err}");
            assert!(cold.hydrate().is_err(), "{what}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A dictionary `["xé", "y"]` re-cut in the header as `["x\xC3",
    /// "\xA9y"]`, header CRC made good: each string is invalid UTF-8
    /// although their concatenation is valid, and the mount refuses it.
    #[test]
    fn a_character_split_across_two_dictionary_strings_is_refused_by_a_mount() {
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Str)]);
        let mut t = Table::with_layout("split", schema, Layout::column(1)).unwrap();
        t.insert(&[Value::from("xé")]).unwrap();
        t.insert(&[Value::from("y")]).unwrap();
        let mut blob = persist::to_bytes_extents(&t, 1, ZONE_BLOCK_ROWS);
        let whole = [3, 0, 0, 0, b'x', 0xC3, 0xA9, 1, 0, 0, 0, b'y'];
        let at = blob.windows(whole.len()).position(|w| w == whole).unwrap();
        blob[at..at + 12].copy_from_slice(&[2, 0, 0, 0, b'x', 0xC3, 2, 0, 0, 0, 0xA9, b'y']);
        let header_len = u32::from_le_bytes(blob[12..16].try_into().unwrap()) as usize;
        let crc = pdsm_storage::crc32(&blob[..header_len - 4]);
        blob[header_len - 4..header_len].copy_from_slice(&crc.to_le_bytes());
        let dir = std::env::temp_dir().join(format!("pdsm-cold-split-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob");
        std::fs::write(&path, &blob).unwrap();
        let err = ColdTable::open(&path, BufferPool::new(16 << 10)).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
