//! Morsels: cache-sized row ranges claimed dynamically by workers, and
//! the scoped workers that claim them.
//!
//! A morsel is a contiguous range of row ids within one table. Because PDSM
//! partitions are fixed-stride arrays, a row range addresses a contiguous
//! byte range *in every partition* — a morsel's working set is
//! `rows × Σ stride(partition)` bytes regardless of layout, so sizing
//! morsels by bytes keeps each unit of work cache-resident whether the
//! table is row-, column- or hybrid-partitioned.
//!
//! Dispatch is a single atomic cursor ([`MorselQueue::claim`]): workers pull
//! the next morsel when they finish their current one, so skew (e.g. a
//! selective predicate matching only one region) self-balances without any
//! static assignment.
//!
//! Workers are scoped `std::thread`s spawned per piece walk (not kept hot
//! across queries): they borrow the table, the kernels' readers and the
//! shared queue directly, and the scope itself is the barrier. Spawn cost
//! (~10 µs/thread) is noise against the scans that fan out; a piece of
//! one morsel never spawns at all.

use pdsm_storage::Table;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Target working-set bytes per morsel. Half a typical L2 so the scanned
/// fragments and the worker's output both stay cache-resident.
pub const MORSEL_TARGET_BYTES: usize = 512 * 1024;

/// Minimum rows per morsel: below this, claim overhead dominates.
pub const MIN_MORSEL_ROWS: usize = 1_024;

/// Maximum rows per morsel: above this, dynamic balancing degrades.
pub const MAX_MORSEL_ROWS: usize = 1 << 20;

/// A claimed unit of scan work: rows `start..end` of one table.
/// `index` is the morsel's position in scan order, used to stitch
/// per-morsel outputs back into the sequential row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    pub index: usize,
    pub start: usize,
    pub end: usize,
}

/// Rows per morsel for `table`, from its per-row footprint across all
/// partitions (clamped to [`MIN_MORSEL_ROWS`]..=[`MAX_MORSEL_ROWS`]).
pub fn rows_per_morsel(table: &Table) -> usize {
    let bytes_per_row: usize = table.partitions().iter().map(|p| p.stride()).sum();
    (MORSEL_TARGET_BYTES / bytes_per_row.max(1)).clamp(MIN_MORSEL_ROWS, MAX_MORSEL_ROWS)
}

/// A lock-free dispenser of morsels over `0..n_rows`. Zone-map pruning is
/// not the queue's business: the survivor loop every worker runs
/// ([`crate::pipeline::Scan`]) refutes blocks inside whatever range it is
/// handed, before touching the block's memory.
pub struct MorselQueue {
    cursor: AtomicUsize,
    n_rows: usize,
    rows_per: usize,
}

impl MorselQueue {
    /// Queue over `n_rows` rows in chunks of `rows_per`.
    pub fn new(n_rows: usize, rows_per: usize) -> Self {
        MorselQueue {
            cursor: AtomicUsize::new(0),
            n_rows,
            rows_per: rows_per.max(1),
        }
    }

    /// Queue sized for `table` via [`rows_per_morsel`].
    pub fn for_table(table: &Table) -> Self {
        Self::new(table.len(), rows_per_morsel(table))
    }

    /// Total number of morsels this queue dispenses.
    pub fn n_morsels(&self) -> usize {
        self.n_rows.div_ceil(self.rows_per)
    }

    /// Claim the next morsel, or `None` when the scan is exhausted. Safe
    /// to call from any number of threads; each morsel is handed out
    /// exactly once. The morsels one caller claims ascend: a group-join
    /// partial takes a group's first match it sees as its least.
    pub fn claim(&self) -> Option<Morsel> {
        let index = self.cursor.fetch_add(1, Ordering::Relaxed);
        let start = index.checked_mul(self.rows_per)?;
        if start >= self.n_rows {
            return None;
        }
        Some(Morsel {
            index,
            start,
            end: (start + self.rows_per).min(self.n_rows),
        })
    }
}

/// Run `worker(worker_id)` on `threads` scoped workers and return their
/// results in worker-id order. `threads == 1` runs inline on the caller's
/// thread.
pub fn run_workers<R, W>(threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|id| {
                let worker = &worker;
                scope.spawn(move || worker(id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_all_rows_exactly_once() {
        let q = MorselQueue::new(10_500, 1_000);
        assert_eq!(q.n_morsels(), 11);
        let mut seen = vec![false; 10_500];
        while let Some(m) = q.claim() {
            assert!(m.start < m.end);
            for (r, flag) in seen.iter_mut().enumerate().take(m.end).skip(m.start) {
                assert!(!*flag, "row {r} dispensed twice");
                *flag = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all rows covered");
        assert!(q.claim().is_none(), "exhausted queue stays exhausted");
    }

    #[test]
    fn empty_table_yields_no_morsels() {
        let q = MorselQueue::new(0, 4_096);
        assert_eq!(q.n_morsels(), 0);
        assert!(q.claim().is_none());
    }

    #[test]
    fn concurrent_claims_partition_the_scan() {
        let q = std::sync::Arc::new(MorselQueue::new(100_000, 64));
        let counted: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let q = std::sync::Arc::clone(&q);
                    s.spawn(move || {
                        let mut rows = 0;
                        while let Some(m) = q.claim() {
                            rows += m.end - m.start;
                        }
                        rows
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(counted, 100_000);
    }

    #[test]
    fn results_arrive_in_worker_order() {
        let out = run_workers(8, |id| id * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn workers_share_a_queue() {
        let q = MorselQueue::new(50_000, 128);
        let partial_sums = run_workers(4, |_| {
            let mut local = 0u64;
            while let Some(m) = q.claim() {
                for r in m.start..m.end {
                    local += r as u64;
                }
            }
            local
        });
        let total: u64 = partial_sums.iter().sum();
        assert_eq!(total, (0..50_000u64).sum());
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let out = run_workers(1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }
}
