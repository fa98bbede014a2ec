//! The disk tier below the memory hierarchy: what a scan pays to *fault*
//! cold checkpoint extents through the buffer pool before the in-memory
//! cost model (Eq. 5–6) even starts.
//!
//! The paper's hierarchy stops at main memory because its tables are
//! memory-resident; with the buffer pool a table may be partially on disk,
//! and the planner must price the difference between a resident scan and
//! one that faults. The model is the classical two-parameter one: a fixed
//! per-request cost (submission, seek/queue latency, page-cache miss) plus
//! a sequential-transfer cost per byte, both expressed in CPU cycles so
//! they add directly onto [`crate::cost::Estimate::total_cycles`].

/// Cycle costs of faulting cold bytes from the checkpoint files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskTier {
    /// Fixed cycles per fault request (one extent read): syscall +
    /// device/page-cache latency. ~80 µs at 3 GHz.
    pub seek_cycles: f64,
    /// Cycles per sequentially transferred byte. ~2 GB/s effective NVMe
    /// read at 3 GHz ⇒ 1.5 cycles/byte.
    pub cycles_per_byte: f64,
}

impl Default for DiskTier {
    fn default() -> Self {
        DiskTier {
            seek_cycles: 240_000.0,
            cycles_per_byte: 1.5,
        }
    }
}

impl DiskTier {
    /// Predicted cycles to fault `requests` cold extents totalling `bytes`.
    /// Zero requests ⇒ zero cost (fully resident or fully pruned scans pay
    /// nothing here).
    pub fn fault_cycles(&self, requests: u64, bytes: u64) -> f64 {
        self.seek_cycles * requests as f64 + self.cycles_per_byte * bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cost_scales_with_requests_and_bytes() {
        let d = DiskTier::default();
        assert_eq!(d.fault_cycles(0, 0), 0.0);
        let one = d.fault_cycles(1, 1 << 20);
        let two = d.fault_cycles(2, 2 << 20);
        assert!(two > one * 1.9 && two < one * 2.1);
        // a single fault is dominated by the fixed cost for tiny extents
        assert!(d.fault_cycles(1, 64) > d.seek_cycles);
    }
}
