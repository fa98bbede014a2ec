//! # pdsm-pool
//!
//! Extent-granular buffer pool over the checkpoints written by
//! `pdsm-store`/`pdsm-txn` — the "larger than memory" layer. The
//! decomposition is the classical one (frame table + replacer): a
//! [`BufferPool`] with a `PDSM_POOL_BYTES` budget hands out pinned frames,
//! each one whole extent decoded once at fault time into a scan-ready mini
//! table; an LRU-K replacer picks eviction victims among unpinned frames,
//! and the faulting thread reads its extent itself, one `pread` per run
//! slice (`Loading` slots keep two scans from faulting the same frame twice).
//!
//! [`ColdTable`] is the integration point: a checkpoint opened header-only
//! whose extents fault in on first touch. `pdsm-txn` mounts one as the
//! cold main store of a recovered table, and it stays cold until a merge
//! replaces it. Every whole-table reader — the compiled and parallel
//! engines, the merge fold, index builds — walks it extent-at-a-time,
//! reading each pinned frame in place (scans skip zone-refuted extents
//! without faulting them), and the planner prices the cold fraction via
//! the disk tier in `pdsm-cost`.

pub mod cold;
pub mod lru_k;
pub mod pool;

pub use cold::ColdTable;
pub use lru_k::LruKReplacer;
pub use pool::{BufferPool, FrameKey, PinnedFrame, PoolStats};
