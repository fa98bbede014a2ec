//! The buffer pool proper: a frame table over decoded checkpoint extents,
//! pin counts, an LRU-K replacer, and a byte budget (`PDSM_POOL_BYTES`).
//!
//! A *frame* holds one extent of a checkpointed main store, every layout
//! group of it, decoded once at fault time into the scan-ready mini
//! [`Table`] a scan reads in place. Queries pin the frames they scan and
//! unpin on pipeline exit (RAII — [`PinnedFrame`]); the pool evicts
//! unpinned frames in LRU-K order whenever resident bytes exceed the
//! budget. If every frame is pinned the pool *overcommits* rather than
//! deadlocks — the budget is a target, correctness never depends on it.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::{Arc, Condvar, Mutex};

use pdsm_storage::Table;

use crate::lru_k::LruKReplacer;

/// Identity of one pool frame: a single extent of a generation-stamped
/// checkpoint. Generations are immutable, so a frame never needs
/// invalidation — stale generations are dropped wholesale by
/// [`BufferPool::retire`] after a merge publishes a fresh checkpoint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FrameKey {
    pub table: String,
    pub generation: u64,
    pub extent: u32,
}

/// Counters exposed through `Database::pool_stats()` and SQL `STATS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    pub budget_bytes: usize,
    pub resident_bytes: usize,
    pub peak_resident_bytes: usize,
    pub frames: usize,
    pub pinned_frames: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Times the pool exceeded its budget because every frame was pinned.
    pub overcommits: u64,
    /// Extents a scan skipped entirely (zone-refuted — never faulted).
    pub skipped_faults: u64,
    /// Wall-clock nanoseconds spent in faults, summed and at most: each
    /// fault is timed whole — the extent's read, its checksums and its
    /// decode into the frame's table — on the thread that waits for it.
    pub fault_ns_total: u64,
    pub fault_ns_max: u64,
}

struct Frame {
    table: Arc<Table>,
    bytes: usize,
    pins: u32,
}

enum Slot {
    /// A fault for this key is in flight; waiters block on the condvar.
    Loading,
    Ready(Frame),
}

#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    overcommits: u64,
    skipped_faults: u64,
    fault_ns_total: u64,
    fault_ns_max: u64,
}

struct Inner {
    frames: HashMap<FrameKey, Slot>,
    replacer: LruKReplacer<FrameKey>,
    resident: usize,
    peak: usize,
    stats: Counters,
}

pub struct BufferPool {
    budget: usize,
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl BufferPool {
    pub fn new(budget_bytes: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                frames: HashMap::new(),
                replacer: LruKReplacer::new(2),
                resident: 0,
                peak: 0,
                stats: Counters::default(),
            }),
            cond: Condvar::new(),
        })
    }

    /// `PDSM_POOL_BYTES` (plain bytes, or with a `k`/`m`/`g` suffix).
    /// Unset, unparsable, or zero = pooling disabled.
    pub fn from_env() -> Option<Arc<BufferPool>> {
        let raw = std::env::var("PDSM_POOL_BYTES").ok()?;
        let budget = parse_bytes(&raw)?;
        if budget == 0 {
            return None;
        }
        Some(BufferPool::new(budget))
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Pin the frame for `key`, faulting it in via `load` on a miss.
    /// `load` runs on the calling thread without the pool lock held (the
    /// `Loading` slot makes concurrent pins of the same key wait instead of
    /// faulting twice) and returns the decoded extent, the bytes to charge
    /// for it, and the observed fault latency in nanoseconds.
    pub fn pin(
        self: &Arc<Self>,
        key: &FrameKey,
        load: impl FnOnce() -> io::Result<(Table, usize, u64)>,
    ) -> io::Result<PinnedFrame> {
        let mut g = self.inner.lock().unwrap();
        loop {
            match g.frames.get_mut(key) {
                Some(Slot::Ready(f)) => {
                    f.pins += 1;
                    let table = Arc::clone(&f.table);
                    g.replacer.record_access(key);
                    g.replacer.set_evictable(key, false);
                    g.stats.hits += 1;
                    return Ok(PinnedFrame {
                        pool: Arc::clone(self),
                        key: key.clone(),
                        table,
                    });
                }
                Some(Slot::Loading) => g = self.cond.wait(g).unwrap(),
                None => break,
            }
        }
        g.frames.insert(key.clone(), Slot::Loading);
        g.stats.misses += 1;
        drop(g);
        let loaded = load();
        let mut g = self.inner.lock().unwrap();
        match loaded {
            Err(e) => {
                g.frames.remove(key);
                self.cond.notify_all();
                Err(e)
            }
            Ok((table, bytes, fault_ns)) => {
                g.stats.fault_ns_total += fault_ns;
                g.stats.fault_ns_max = g.stats.fault_ns_max.max(fault_ns);
                let table = Arc::new(table);
                g.frames.insert(
                    key.clone(),
                    Slot::Ready(Frame {
                        table: Arc::clone(&table),
                        bytes,
                        pins: 1,
                    }),
                );
                g.resident += bytes;
                g.replacer.record_access(key);
                g.replacer.set_evictable(key, false);
                Self::evict_over_budget(self.budget, &mut g);
                // Sampled after eviction: the new frame and its victims
                // change hands under one lock hold, so the pre-eviction
                // sum is never resident outside it. The peak exceeds the
                // budget only when an overcommit was counted.
                g.peak = g.peak.max(g.resident);
                self.cond.notify_all();
                Ok(PinnedFrame {
                    pool: Arc::clone(self),
                    key: key.clone(),
                    table,
                })
            }
        }
    }

    /// Release one pin of `key`'s frame — only if that frame still holds
    /// `table`: a retired frame is gone, and one faulted again since is
    /// not the pin's.
    fn unpin(&self, key: &FrameKey, table: &Arc<Table>) {
        let mut g = self.inner.lock().unwrap();
        if let Some(Slot::Ready(f)) = g.frames.get_mut(key) {
            if !Arc::ptr_eq(&f.table, table) {
                return;
            }
            debug_assert!(f.pins > 0, "unpin without pin");
            f.pins -= 1;
            if f.pins == 0 {
                g.replacer.set_evictable(key, true);
                Self::evict_over_budget(self.budget, &mut g);
            }
        }
    }

    /// Evict unpinned frames in LRU-K order until resident ≤ budget. When
    /// everything left is pinned, give up and count the overcommit — the
    /// budget bounds steady state, never correctness.
    fn evict_over_budget(budget: usize, g: &mut Inner) {
        while g.resident > budget {
            match g.replacer.evict() {
                Some(victim) => {
                    if let Some(Slot::Ready(f)) = g.frames.remove(&victim) {
                        debug_assert_eq!(f.pins, 0, "evicted a pinned frame");
                        g.resident -= f.bytes;
                        g.stats.evictions += 1;
                    }
                }
                None => {
                    g.stats.overcommits += 1;
                    break;
                }
            }
        }
    }

    /// Record a fault a scan avoided entirely (zone-refuted cold extent).
    pub fn note_skipped_fault(&self) {
        self.inner.lock().unwrap().stats.skipped_faults += 1;
    }

    /// Drop every resident frame of `(table, generation)`, pinned or not —
    /// called when a merge retires a checkpoint generation. A scan still
    /// holding a pin keeps reading its extent through the pin's `Arc`; the
    /// pool stops charging for it now.
    pub fn retire(&self, table: &str, generation: u64) {
        let mut g = self.inner.lock().unwrap();
        let victims: Vec<FrameKey> = Self::ready(&g, table, generation).cloned().collect();
        for k in victims {
            if let Some(Slot::Ready(f)) = g.frames.remove(&k) {
                g.resident -= f.bytes;
            }
            g.replacer.remove(&k);
        }
    }

    /// The extents of `(table, generation)` with a Ready (decoded,
    /// resident) frame. Advisory — residency can change the moment the
    /// lock drops — used by the planner's disk pricing.
    pub fn ready_extents(&self, table: &str, generation: u64) -> HashSet<u32> {
        let g = self.inner.lock().unwrap();
        Self::ready(&g, table, generation)
            .map(|k| k.extent)
            .collect()
    }

    /// The keys of `(table, generation)`'s Ready frames.
    fn ready<'a>(
        g: &'a Inner,
        table: &'a str,
        generation: u64,
    ) -> impl Iterator<Item = &'a FrameKey> + 'a {
        (g.frames.iter())
            .filter(move |(k, slot)| {
                k.table == table && k.generation == generation && matches!(slot, Slot::Ready(_))
            })
            .map(|(k, _)| k)
    }

    /// Resident frame count for `(table, generation)` — the planner's
    /// residency estimate.
    pub fn resident_frames(&self, table: &str, generation: u64) -> usize {
        let g = self.inner.lock().unwrap();
        g.frames
            .keys()
            .filter(|k| k.table == table && k.generation == generation)
            .count()
    }

    pub fn stats(&self) -> PoolStats {
        let g = self.inner.lock().unwrap();
        let pinned = g
            .frames
            .values()
            .filter(|s| matches!(s, Slot::Ready(f) if f.pins > 0))
            .count();
        PoolStats {
            budget_bytes: self.budget,
            resident_bytes: g.resident,
            peak_resident_bytes: g.peak,
            frames: g.frames.len(),
            pinned_frames: pinned,
            hits: g.stats.hits,
            misses: g.stats.misses,
            evictions: g.stats.evictions,
            overcommits: g.stats.overcommits,
            skipped_faults: g.stats.skipped_faults,
            fault_ns_total: g.stats.fault_ns_total,
            fault_ns_max: g.stats.fault_ns_max,
        }
    }
}

fn parse_bytes(raw: &str) -> Option<usize> {
    let s = raw.trim().to_ascii_lowercase();
    let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match s.as_bytes()[s.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (s.as_str(), 1),
    };
    digits.trim().parse::<usize>().ok().map(|n| n * mult)
}

/// RAII pin on one pool frame. While alive the frame cannot be evicted;
/// dropping it unpins (and may trigger eviction if the pool is over
/// budget). The table `Arc` stays valid even across eviction.
pub struct PinnedFrame {
    pool: Arc<BufferPool>,
    key: FrameKey,
    table: Arc<Table>,
}

impl PinnedFrame {
    /// The extent, scan-ready: borrowed straight from the frame.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }
}

impl Drop for PinnedFrame {
    fn drop(&mut self) {
        self.pool.unpin(&self.key, &self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pdsm_storage::{ColumnDef, DataType, Schema, Value};

    fn key(e: u32) -> FrameKey {
        FrameKey {
            table: "t".into(),
            generation: 1,
            extent: e,
        }
    }

    /// A fault of a one-column `Int64` extent of `bytes / 8` rows, charged
    /// its arena, after `ns` nanoseconds.
    fn payload(bytes: usize, ns: u64) -> io::Result<(Table, usize, u64)> {
        let schema = Schema::new(vec![ColumnDef::new("x", DataType::Int64)]);
        let mut t = Table::new("t", schema);
        for i in 0..bytes / 8 {
            t.insert(&[Value::Int64(i as i64)]).unwrap();
        }
        let charge = t.byte_size();
        Ok((t, charge, ns))
    }

    #[test]
    fn eviction_keeps_resident_within_budget_once_unpinned() {
        let pool = BufferPool::new(250);
        for e in 0..5 {
            let f = pool.pin(&key(e), || payload(100, 5)).unwrap();
            drop(f);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 5);
        assert!(s.evictions >= 3, "evictions: {}", s.evictions);
        assert!(s.resident_bytes <= 250);
        assert_eq!(s.overcommits, 0);
        assert!(
            s.peak_resident_bytes <= s.budget_bytes,
            "peak {} over budget {} without an overcommit",
            s.peak_resident_bytes,
            s.budget_bytes
        );
        assert_eq!(s.pinned_frames, 0);
        assert_eq!(s.fault_ns_total, 25);
    }

    #[test]
    fn pinned_frames_overcommit_instead_of_deadlocking() {
        let pool = BufferPool::new(150);
        let a = pool.pin(&key(0), || payload(96, 0)).unwrap();
        let b = pool.pin(&key(1), || payload(96, 0)).unwrap();
        let s = pool.stats();
        assert_eq!(s.resident_bytes, 192); // over budget, both pinned
        assert!(s.overcommits >= 1);
        drop(a);
        drop(b);
        assert!(pool.stats().resident_bytes <= 150);
    }

    #[test]
    fn repinning_is_a_hit_and_returns_the_same_table() {
        let pool = BufferPool::new(1 << 20);
        let a = pool.pin(&key(3), || payload(64, 0)).unwrap();
        let first = Arc::clone(a.table());
        drop(a);
        let b = pool.pin(&key(3), || panic!("must not refault")).unwrap();
        assert!(Arc::ptr_eq(b.table(), &first));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn retire_drops_a_generation() {
        let pool = BufferPool::new(1 << 20);
        drop(pool.pin(&key(0), || payload(16, 0)).unwrap());
        drop(pool.pin(&key(1), || payload(16, 0)).unwrap());
        assert_eq!(pool.resident_frames("t", 1), 2);
        pool.retire("t", 1);
        assert_eq!(pool.resident_frames("t", 1), 0);
        assert_eq!(pool.stats().resident_bytes, 0);
    }

    /// A frame a scan still pins when its generation retires leaves the
    /// pool at once; the scan keeps its table, and its unpin — like a
    /// later pin of the same key faulting a fresh frame — is not
    /// confused by the frame being gone.
    #[test]
    fn retire_drops_pinned_frames_too() {
        let pool = BufferPool::new(1 << 20);
        let gone = |pool: &BufferPool| {
            assert_eq!(pool.resident_frames("t", 1), 0);
            assert_eq!(pool.stats().resident_bytes, 0);
        };
        let pinned = pool.pin(&key(0), || payload(16, 0)).unwrap();
        pool.retire("t", 1);
        gone(&pool);
        assert_eq!(pinned.table().len(), 2);
        drop(pinned);
        gone(&pool);

        let pinned = pool.pin(&key(0), || payload(16, 0)).unwrap();
        pool.retire("t", 1);
        let refaulted = pool.pin(&key(0), || payload(16, 0)).unwrap();
        drop(pinned);
        assert_eq!(
            pool.stats().pinned_frames,
            1,
            "the old pin released the new frame"
        );
        drop(refaulted);
        assert_eq!(pool.stats().pinned_frames, 0);
    }

    #[test]
    fn failed_fault_clears_the_loading_slot() {
        let pool = BufferPool::new(1 << 20);
        let err = pool.pin(&key(9), || Err(io::Error::other("boom")));
        assert!(err.is_err());
        // A retry faults cleanly instead of waiting forever on Loading.
        let ok = pool.pin(&key(9), || payload(8, 0)).unwrap();
        assert_eq!(ok.table().len(), 1);
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("8M"), Some(8 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("nope"), None);
    }
}
