//! The manifest: the one file whose atomic replacement commits a
//! checkpoint. It maps table names to their current durable generation;
//! everything else on disk (main blobs, WAL files) is named by
//! generation, so flipping the manifest entry is the single commit point
//! — a crash on either side of the rename recovers a consistent state.

use crate::blob::write_atomic;
use pdsm_storage::{crc32, ByteReader};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

const MAGIC: &[u8; 8] = b"PDSMMAN1";

/// The durable table → generation map. Interior-mutable and shared
/// (`Arc<Manifest>`) across all tables of one database; [`Manifest::set`]
/// serializes writers internally and rewrites the file atomically.
pub struct Manifest {
    path: PathBuf,
    tmp: PathBuf,
    entries: Mutex<BTreeMap<String, u64>>,
}

impl Manifest {
    /// Load the manifest at `path`, or start empty if the file does not
    /// exist. A file that exists but fails its checksum is a hard error:
    /// the manifest is always written atomically, so corruption here is
    /// real damage, not a crash artifact.
    pub fn open(path: PathBuf) -> std::io::Result<Manifest> {
        let entries = match std::fs::read(&path) {
            Ok(bytes) => decode(&bytes).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt manifest at {}", path.display()),
                )
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(e),
        };
        let tmp = path.with_extension("tmp");
        Ok(Manifest {
            path,
            tmp,
            entries: Mutex::new(entries),
        })
    }

    /// Current durable generation of `table`, if any.
    pub fn get(&self, table: &str) -> Option<u64> {
        self.lock().get(table).copied()
    }

    /// Every `(table, generation)` pair, name-ordered.
    pub fn tables(&self) -> Vec<(String, u64)> {
        self.lock().iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Commit `table` at `generation`: update the map and atomically
    /// rewrite the file. When this returns, the checkpoint is durable.
    pub fn set(&self, table: &str, generation: u64) -> std::io::Result<()> {
        let mut g = self.lock();
        g.insert(table.to_string(), generation);
        let bytes = encode(&g);
        // Hold the map lock across the file write so concurrent `set`s
        // cannot persist an older map over a newer one.
        write_atomic(&self.path, &self.tmp, &bytes)
    }

    /// Drop `table` from the manifest (table deletion; currently unused
    /// by the engine but kept symmetric).
    pub fn remove(&self, table: &str) -> std::io::Result<()> {
        let mut g = self.lock();
        g.remove(table);
        let bytes = encode(&g);
        write_atomic(&self.path, &self.tmp, &bytes)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, u64>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn encode(entries: &BTreeMap<String, u64>) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, gen) in entries {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&gen.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn decode(bytes: &[u8]) -> Option<BTreeMap<String, u64>> {
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let want = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(body) != want {
        return None;
    }
    let mut r = ByteReader::new(body, MAGIC.len());
    let count = r.u32().ok()?;
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let name = r.str().ok()?;
        entries.insert(name, r.u64().ok()?);
    }
    (r.pos() == body.len()).then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pdsm-man-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn set_get_survives_reopen() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("MANIFEST");
        {
            let m = Manifest::open(path.clone()).unwrap();
            assert!(m.tables().is_empty());
            m.set("orders", 3).unwrap();
            m.set("lineitem", 1).unwrap();
            m.set("orders", 4).unwrap();
        }
        let m = Manifest::open(path).unwrap();
        assert_eq!(m.get("orders"), Some(4));
        assert_eq!(m.get("lineitem"), Some(1));
        assert_eq!(
            m.tables(),
            vec![("lineitem".to_string(), 1), ("orders".to_string(), 4)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_hard_error() {
        let dir = tmpdir("corrupt");
        let path = dir.join("MANIFEST");
        {
            let m = Manifest::open(path.clone()).unwrap();
            m.set("t", 1).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(Manifest::open(path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
