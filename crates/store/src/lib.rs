//! `pdsm-store` — durability primitives for the PDSM engine.
//!
//! The main+delta design (see `pdsm-txn`) already has the shape of a
//! checkpointing system: the immutable main store is a checkpoint, the
//! generation number is its id, and the delta tail is exactly what a WAL
//! must replay. This crate supplies the missing on-disk pieces, all
//! dependency-free:
//!
//! * [`record`] — one length-prefixed, CRC32-checksummed WAL record per
//!   committed statement (appends, then tombstones), with a decoder that
//!   tolerates a torn tail (a half-written tail is the crash point, not
//!   an error) and refuses a whole record it cannot parse;
//! * [`wal`] — the append-only log with group commit
//!   (`PDSM_FSYNC=always|batch|group|off`), one file per generation;
//! * [`blob`] — write-temp-then-rename atomic blob I/O for checkpointed
//!   main stores, written back to the device as they stream;
//! * [`manifest`] — the atomically-replaced table → generation map whose
//!   rename is the checkpoint commit point;
//! * [`failpoint`] — fault injection (torn writes, failed blob writes
//!   and syncs, truncation, bit flips) for crash-recovery tests.
//!
//! Layering: this crate depends only on `pdsm-storage` (for the
//! `Row`/`Value` vocabulary WAL records carry). `pdsm-txn` wires the WAL
//! into the commit path and checkpoints on merge; `pdsm-core` drives
//! recovery from `Database::open`.

pub mod blob;
pub mod failpoint;
pub mod manifest;
pub mod record;
pub mod wal;

pub use blob::{fsync_dir, remove_temp_files, sanitize_name, write_atomic, write_temp};
pub use failpoint::{arm_blob_fault, flip_bit, truncate_at, BlobFault, FailpointFile};
pub use manifest::Manifest;
pub use pdsm_storage::crc32;
pub use record::{decode_stream, WalRecord};
pub use wal::{FsyncMode, Wal, WalStats};
