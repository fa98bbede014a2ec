//! # pdsm-index
//!
//! The secondary index behind the §VI-B "Indexes" experiments (Fig. 10):
//! hash-style identity selects on primary keys (the paper's Q7) and the
//! ordered index on `VBAP(VBELN)` (Q8) are both served by one
//! [`SortedIndex`].
//!
//! It maps an `i64` key to the row ids (`u32`) holding it. Strings index by
//! their dictionary code, integers by value; the mapping is done by the
//! catalog layer in `pdsm-core`. An index is built once from an immutable
//! main store and never inserted into: rows written since land in the
//! delta, which the probe scans beside the hits, and a merge builds the
//! next main store's index afresh.

/// A build-once index: the distinct keys in ascending order, and for each
/// one a run of row ids, ascending, in one shared array. Three heap
/// blocks whatever the key count; a point lookup is a binary search and a
/// range is one contiguous slice.
#[derive(Debug, Clone)]
pub struct SortedIndex {
    /// Distinct keys, ascending.
    keys: Vec<i64>,
    /// `rows[offsets[i]..offsets[i + 1]]` are the rows of `keys[i]`;
    /// `keys.len() + 1` entries.
    offsets: Vec<u32>,
    /// Row ids grouped by key in key order, ascending within each key.
    rows: Vec<u32>,
}

impl SortedIndex {
    /// The index of `(key, row)` pairs in any order, sorted once.
    pub fn from_pairs(mut pairs: Vec<(i64, u32)>) -> Self {
        pairs.sort_unstable();
        let distinct = pairs.len().min(1) + pairs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        let mut keys = Vec::with_capacity(distinct);
        let mut offsets = Vec::with_capacity(distinct + 1);
        let mut rows = Vec::with_capacity(pairs.len());
        for (i, &(key, row)) in pairs.iter().enumerate() {
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(i as u32);
            }
            rows.push(row);
        }
        offsets.push(rows.len() as u32);
        SortedIndex {
            keys,
            offsets,
            rows,
        }
    }

    /// Row ids with exactly this key, ascending.
    pub fn lookup(&self, key: i64) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(i) => self.span(i, i + 1),
            Err(_) => &[],
        }
    }

    /// Row ids with keys in `[lo, hi]`, grouped by key in key order (empty
    /// when `lo > hi`).
    pub fn lookup_range(&self, lo: i64, hi: i64) -> &[u32] {
        if lo > hi {
            return &[];
        }
        let from = self.keys.partition_point(|&k| k < lo);
        let to = self.keys.partition_point(|&k| k <= hi);
        self.span(from, to)
    }

    /// The rows of keys `from..to`.
    fn span(&self, from: usize, to: usize) -> &[u32] {
        &self.rows[self.offsets[from] as usize..self.offsets[to] as usize]
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_ranges_and_duplicates() {
        let idx = SortedIndex::from_pairs(vec![(50, 4), (10, 1), (50, 2), (30, 3), (10, 0)]);
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.lookup(10), &[0, 1]);
        assert_eq!(idx.lookup(50), &[2, 4]);
        assert!(idx.lookup(20).is_empty());
        assert_eq!(idx.lookup_range(11, 50), &[3, 2, 4]);
        assert_eq!(idx.lookup_range(i64::MIN, i64::MAX), &[0, 1, 3, 2, 4]);
        assert!(idx.lookup_range(31, 49).is_empty());
        assert!(idx.lookup_range(50, 10).is_empty());
    }

    #[test]
    fn empty_and_extreme_keys() {
        let empty = SortedIndex::from_pairs(Vec::new());
        assert_eq!(empty.key_count(), 0);
        assert!(empty.lookup(0).is_empty());
        assert!(empty.lookup_range(i64::MIN, i64::MAX).is_empty());
        let idx = SortedIndex::from_pairs(vec![(i64::MAX, 1), (i64::MIN, 0)]);
        assert_eq!(idx.lookup(i64::MIN), &[0]);
        assert_eq!(idx.lookup(i64::MAX), &[1]);
        assert_eq!(idx.lookup_range(i64::MIN, i64::MIN), &[0]);
    }
}
