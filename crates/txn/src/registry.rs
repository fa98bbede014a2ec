//! Epoch-based version reclamation: the [`VersionRegistry`] every
//! [`crate::VersionedTable`] owns.
//!
//! Each merge publishes a new immutable main store; snapshots pin the one
//! they were cut from via `Arc`. Reclamation itself is therefore automatic
//! — when the last snapshot of a superseded version drops, so does that
//! version's main store. What `Arc` alone cannot answer is *whether that is
//! actually happening*: how many full main stores are allocated right now,
//! which generations still have readers, and how many bytes the superseded
//! ones pin. The registry is that witness:
//!
//! * every published main store registers a `Weak<Table>` under its
//!   generation — upgradeable iff the version is still allocated;
//! * every snapshot holds a [`VersionTicket`] that counts it as a reader of
//!   its generation until the last clone drops;
//! * [`VersionRegistry::stats`] folds both into a [`VersionStats`], and the
//!   test suites assert the bound the design promises: the number of live
//!   main stores never exceeds *distinct pinned generations + 1* (the
//!   current one), no matter how many merges a long-lived snapshot spans.

use pdsm_storage::Table;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

/// One generation's record: how many readers pin it, and a weak handle to
/// its main store that tells whether the allocation is still alive.
#[derive(Debug, Default)]
struct VersionEntry {
    readers: usize,
    main: Weak<Table>,
}

/// Aggregate view of a table's version chain right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Snapshot handles currently registered (clones of one snapshot count
    /// once; distinct snapshots of the same version count separately).
    pub registered_readers: usize,
    /// Distinct generations with at least one registered reader.
    pub pinned_versions: usize,
    /// Distinct main stores still allocated, including the current one.
    pub live_mains: usize,
    /// Bytes held by *superseded* main stores that are still allocated
    /// (the current generation's main is excluded: it is not garbage).
    pub pinned_bytes: usize,
}

/// Per-table version bookkeeping. Shared by the table and all its
/// snapshots via `Arc`; all operations are O(versions alive), and the set
/// of versions alive is bounded by the reclamation property this registry
/// exists to assert.
#[derive(Debug, Default)]
pub struct VersionRegistry {
    inner: Mutex<HashMap<u64, VersionEntry>>,
}

impl VersionRegistry {
    /// Record a newly published main store for `generation` (table
    /// creation, every merge and the hydration of a cold main call this). Entries whose version is both
    /// reader-free and deallocated are pruned on the way.
    pub(crate) fn publish(&self, generation: u64, main: &Arc<Table>) {
        let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        m.retain(|_, e| e.readers > 0 || e.main.strong_count() > 0);
        m.entry(generation).or_default().main = Arc::downgrade(main);
    }

    /// Register one reader of `generation`, returning the ticket whose
    /// drop releases it. A generation whose main store is still cold has
    /// no published main yet; its entry starts without one and the
    /// hydration's `publish` fills it in.
    pub(crate) fn register(self: &Arc<Self>, generation: u64) -> Arc<VersionTicket> {
        {
            let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            m.entry(generation).or_default().readers += 1;
        }
        Arc::new(VersionTicket {
            registry: self.clone(),
            generation,
        })
    }

    fn release(&self, generation: u64) {
        let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = m.get_mut(&generation) {
            e.readers = e.readers.saturating_sub(1);
            if e.readers == 0 && e.main.strong_count() == 0 {
                m.remove(&generation);
            }
        }
    }

    /// Current chain statistics. `current_generation` marks which live
    /// main is the table's own (excluded from `pinned_bytes`).
    pub fn stats(&self, current_generation: u64) -> VersionStats {
        let m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = VersionStats::default();
        for (gen, e) in m.iter() {
            s.registered_readers += e.readers;
            if e.readers > 0 {
                s.pinned_versions += 1;
            }
            if let Some(t) = e.main.upgrade() {
                s.live_mains += 1;
                if *gen != current_generation {
                    s.pinned_bytes += t.byte_size();
                }
            }
        }
        s
    }
}

/// A reader registration: one per snapshot acquisition, shared by clones
/// of that snapshot, released (decrementing the version's reader count)
/// when the last clone drops.
#[derive(Debug)]
pub struct VersionTicket {
    registry: Arc<VersionRegistry>,
    generation: u64,
}

impl Drop for VersionTicket {
    fn drop(&mut self) {
        self.registry.release(self.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::{ColumnDef, DataType, Schema};

    fn table() -> Arc<Table> {
        Arc::new(Table::new(
            "t",
            Schema::new(vec![ColumnDef::new("x", DataType::Int32)]),
        ))
    }

    #[test]
    fn tickets_count_and_release() {
        let reg = Arc::new(VersionRegistry::default());
        let t0 = table();
        reg.publish(0, &t0);
        let a = reg.register(0);
        let b = a.clone(); // clone of the same snapshot: same ticket
        let c = reg.register(0); // a distinct snapshot
        assert_eq!(reg.stats(0).registered_readers, 2);
        drop(b);
        assert_eq!(reg.stats(0).registered_readers, 2, "clone shares ticket");
        drop(a);
        drop(c);
        let s = reg.stats(0);
        assert_eq!(s.registered_readers, 0);
        assert_eq!(s.pinned_versions, 0);
        assert_eq!(s.live_mains, 1, "current main still allocated");
    }

    #[test]
    fn superseded_unpinned_versions_vanish() {
        let reg = Arc::new(VersionRegistry::default());
        let t0 = table();
        reg.publish(0, &t0);
        let pin = reg.register(0);
        let t1 = table();
        reg.publish(1, &t1);
        drop(t0); // table swapped its Arc; only `pin`'s... nothing pins it
        assert_eq!(reg.stats(1).live_mains, 1, "gen-0 main reclaimed");
        assert_eq!(reg.stats(1).pinned_versions, 1, "reader still registered");
        drop(pin);
        assert_eq!(reg.stats(1).pinned_versions, 0);
    }
}
