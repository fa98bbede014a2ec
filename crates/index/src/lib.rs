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

    /// The index of keys drawn from the dense domain `lo..lo + span`,
    /// built by counting instead of sorting: `walk(sink)` hands every
    /// `(key, row)` pair to `sink`, rows ascending, and is called twice
    /// with the same pairs — once to count each key's rows, once to place
    /// them. Beside the index it holds one `u32` count per domain key, and
    /// never the pairs. A key outside the domain panics.
    pub fn from_dense<E>(
        lo: i64,
        span: usize,
        mut walk: impl FnMut(&mut dyn FnMut(i64, u32)) -> Result<(), E>,
    ) -> Result<Self, E> {
        let slot = |key: i64| key.wrapping_sub(lo) as u64 as usize;
        // Each key's row count, then the start of its run.
        let mut next = vec![0u32; span];
        walk(&mut |key, _| next[slot(key)] += 1)?;
        let mut total = 0u32;
        for at in &mut next {
            (*at, total) = (total, total + *at);
        }
        let mut rows = vec![0u32; total as usize];
        walk(&mut |key, row| {
            let at = &mut next[slot(key)];
            rows[*at as usize] = row;
            *at += 1;
        })?;
        // `next[k]` is now the end of key `k`'s run, and the start of the
        // next key's.
        let starts = std::iter::once(&0).chain(&next);
        let distinct = starts.zip(&next).filter(|(start, end)| end > start).count();
        let mut keys = Vec::with_capacity(distinct);
        let mut offsets = Vec::with_capacity(distinct + 1);
        let mut start = 0;
        for (k, &end) in next.iter().enumerate() {
            if end > start {
                keys.push(lo + k as i64);
                offsets.push(start);
            }
            start = end;
        }
        offsets.push(total);
        Ok(SortedIndex {
            keys,
            offsets,
            rows,
        })
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

    /// Counting over a dense domain builds the index sorting builds, for
    /// the same pairs: duplicates, keys absent from the domain, the
    /// domain's ends, and no pairs at all.
    #[test]
    fn counting_builds_what_sorting_builds() {
        let pairs = vec![(-3, 0), (4, 1), (-3, 2), (0, 3), (4, 4), (-3, 5), (1, 6)];
        let walk = |sink: &mut dyn FnMut(i64, u32)| {
            pairs.iter().for_each(|&(k, r)| sink(k, r));
            Ok::<_, ()>(())
        };
        let dense = SortedIndex::from_dense(-3, 8, walk).unwrap();
        let sorted = SortedIndex::from_pairs(pairs.clone());
        assert_eq!(
            (&dense.keys, &dense.offsets, &dense.rows),
            (&sorted.keys, &sorted.offsets, &sorted.rows)
        );
        assert_eq!(dense.lookup(-3), &[0, 2, 5]);
        assert_eq!(dense.lookup_range(0, 4), &[3, 6, 1, 4]);
        let none = |_: &mut dyn FnMut(i64, u32)| Ok::<_, ()>(());
        let empty = SortedIndex::from_dense(10, 5, none).unwrap();
        assert_eq!((empty.key_count(), empty.offsets.as_slice()), (0, &[0][..]));
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
