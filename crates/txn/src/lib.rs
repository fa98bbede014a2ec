//! # pdsm-txn — the versioned write path
//!
//! The paper's partially decomposed layouts trade scan cost against update
//! cost, so a reproduction needs an update side: this crate makes every
//! table writable *while it is being queried*, following the
//! delta-plus-read-optimized-main design of push-based storage managers.
//!
//! A [`VersionedTable`] is:
//!
//! * an **immutable main store** — the existing partitioned
//!   [`pdsm_storage::Table`], shared by `Arc` so merges never copy it under
//!   a reader;
//! * an **append-only delta** — decoded rows ([`pdsm_storage::Row`])
//!   appended after the main store, plus tombstone masks over both the main
//!   store and the delta itself. Updates are delete + re-insert, so a row
//!   once appended never changes, only its liveness;
//! * a **merge** operation ([`VersionedTable::merge`] /
//!   [`VersionedTable::merge_with_layout`]) that folds the delta into a
//!   fresh main store — optionally under a different layout, which is how
//!   the layout advisor re-optimizes a table as its workload evolves — and
//!   bumps the version generation.
//!
//! ## Snapshots
//!
//! Readers take [`Snapshot`] handles: a snapshot pins the generation's
//! [`MainStore`] handle — resident, or on disk behind the buffer pool, a
//! [`Form`] that is never converted: readers walk a cold main an extent at
//! a time, and pinning faults nothing (module [`version`]) — plus the
//! table's live delta ([`OverlayData`]), shared by `Arc`. Writes go
//! through `Arc::make_mut`: the first write after a snapshot that is still
//! alive copies the delta away from it, so queries running on a snapshot
//! see a consistent version no matter what writers do afterwards. Taking
//! a snapshot is therefore O(1) and copies nothing; a write under a live
//! snapshot copies pointers, not rows: every tail row sits behind its own
//! `Arc`, so the copy clones the tombstone masks and one pointer per tail
//! row, and no `Value`.
//!
//! Engines never learn about versioning: a snapshot (or a live
//! `VersionedTable` behind `&self`) presents itself through
//! [`pdsm_exec::TableProvider`], whose [`pdsm_exec::Overlay`] extension
//! tells each engine which main rows are tombstoned and which decoded tail
//! rows follow the main store. Scanning `main − tombstones` then the live
//! tail yields exactly the rows — in exactly the order — of a
//! merged-then-scanned table.
//!
//! ## Merges
//!
//! A merge is three phases (module [`merge`]):
//! [`VersionedTable::begin_merge`] pins a snapshot *cut* and starts a
//! replay log, [`MergeTicket::build`] folds the cut into a fresh main store
//! on any thread — and, for a durable table, writes it as the next
//! generation's blob — and [`VersionedTable::finish_merge`] replays the
//! ops that landed meanwhile (O(ops since cut)), swaps the new main in and
//! checkpoints by renaming the blob. [`VersionedTable::merge`] runs the
//! three back-to-back for a single owner.
//!
//! ## Version reclamation
//!
//! A snapshot pins its generation's main store by `Arc`, so a superseded
//! main is freed as soon as its last snapshot drops, and a long-lived
//! snapshot across N merges pins exactly one old version.
//! [`VersionedTable::version_stats`] is the witness — live main stores,
//! pinned generations, bytes held by superseded versions — read off weak
//! handles to the superseded mains, with no per-snapshot bookkeeping, and
//! asserted by the test suites.
//!
//! ## Concurrency
//!
//! [`SharedTable`] wraps a `VersionedTable` in an `RwLock`: writers take
//! the write lock per operation (appends are O(1)); readers take the read
//! lock only long enough to clone a snapshot and then query entirely
//! lock-free. [`SharedTable::merge`] is the one concurrent merge: one per
//! table at a time, holding the write lock only for the begin and finish
//! phases, folding off-lock while writers and readers proceed.
//!
//! ```
//! use pdsm_txn::VersionedTable;
//! use pdsm_storage::{ColumnDef, DataType, Schema, Value};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::new("k", DataType::Int32),
//!     ColumnDef::new("v", DataType::Int64),
//! ]);
//! let mut t = VersionedTable::new("kv", schema);
//! let a = t.insert(&[Value::Int32(1), Value::Int64(10)]).unwrap();
//! let snap = t.snapshot(); // pins version: sees exactly one row
//! t.delete(a).unwrap();
//! t.insert(&[Value::Int32(2), Value::Int64(20)]).unwrap();
//! assert_eq!(snap.len(), 1);
//! assert_eq!(t.len(), 1);
//! let stats = t.merge().unwrap(); // fold delta into a fresh main store
//! assert_eq!(stats.rows_after, 1);
//! assert_eq!(snap.len(), 1); // old snapshot unaffected
//! ```

pub mod durability;
pub mod merge;
pub mod shared;
pub mod table;
pub mod version;

pub use durability::{DurabilityStats, TableDurability};
pub use merge::{BuiltMain, MergeTicket};
pub use shared::SharedTable;
pub use table::{MergeStats, RowId, VersionStats, VersionedTable};
pub use version::{Form, MainStore, OverlayData, Snapshot};
