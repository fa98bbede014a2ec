//! Zone maps: per-block min/max summaries of the immutable main store.
//!
//! The main store is horizontally divided into fixed-size *zone blocks* of
//! [`ZONE_BLOCK_ROWS`] rows. For every numeric column the zone map records,
//! per block, the minimum and maximum non-NULL value plus two presence bits
//! (any NULL? any non-NULL?). A selective scan consults the map before
//! entering a block: if the conjunction of its predicates cannot hold for
//! any row of the block, the block is *refuted* and skipped entirely —
//! the "fewer partitions entered" half of the SIMD + pruning work (the
//! other half being wider inner loops, `pdsm-exec`'s `simd` module).
//!
//! Soundness notes, encoded in the refutation rules below:
//!
//! * NULL never satisfies a comparison, so min/max over the **non-NULL**
//!   values refutes comparisons even in blocks that contain NULLs, and an
//!   all-NULL block (`has_value == false`) refutes *every* comparison.
//! * Tombstones only remove rows, so a refuted block stays refuted no
//!   matter which of its rows are dead — pruning needs no tombstone mask.
//! * The delta tail is never covered: zone maps describe the immutable
//!   main only, and every scan still walks the tail scalar-style.
//! * `f64` blocks that contain a NaN are recorded as unbounded
//!   (`-inf..inf`), because NaN's comparison semantics differ per operator.
//! * String columns are skipped (dictionary codes are assigned in intern
//!   order, so code ranges carry no value order); a [`ColZone::Skipped`]
//!   column never refutes anything.

use crate::bitmap::Bitmap;
use crate::partition::Partition;
use crate::schema::ColId;
use crate::table::Table;
use crate::types::DataType;

/// Rows per zone block. Matches the low end of the morsel size range so a
/// morsel always covers whole blocks.
pub const ZONE_BLOCK_ROWS: usize = 1024;

/// Per-block summary of one numeric column. `min`/`max` range over the
/// non-NULL values and are `T::default()` when the block is all-NULL
/// (`has_value == false`) — a fixed value keeps serialization
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneBlock<T> {
    pub min: T,
    pub max: T,
    pub has_null: bool,
    pub has_value: bool,
}

/// The zone summary of one column across all blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum ColZone {
    /// `Int32` / `Int64` columns, widened to `i64`.
    Int(Vec<ZoneBlock<i64>>),
    /// `Float64` columns.
    Float(Vec<ZoneBlock<f64>>),
    /// Columns zone maps do not summarize (strings).
    Skipped,
}

/// Comparison operator of a zone predicate (mirrors the planner's `CmpOp`;
/// duplicated here so storage stays independent of the plan crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A predicate conjunct in the reduced form zone maps can test. Callers
/// (the compiled engine, the morsel dispatcher, the planner) translate
/// their own predicate representations into these; anything that does not
/// fit simply contributes no `ZonePred` and never prunes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZonePred {
    /// `col OP v` over an integer column.
    I64Cmp { col: ColId, op: ZoneOp, v: i64 },
    /// `col OP v` over a float column.
    F64Cmp { col: ColId, op: ZoneOp, v: f64 },
    /// `col IS [NOT] NULL`.
    IsNull { col: ColId, negate: bool },
}

fn cmp_refuted<T: Copy + PartialOrd + PartialEq>(b: &ZoneBlock<T>, op: ZoneOp, v: T) -> bool {
    if !b.has_value {
        // Only NULLs here, and NULL satisfies no comparison.
        return true;
    }
    match op {
        ZoneOp::Eq => v < b.min || v > b.max,
        ZoneOp::Ne => b.min == v && b.max == v,
        ZoneOp::Lt => b.min >= v,
        ZoneOp::Le => b.min > v,
        ZoneOp::Gt => b.max <= v,
        ZoneOp::Ge => b.max < v,
    }
}

/// Min/max-per-block summary of a whole table (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    n_rows: usize,
    cols: Vec<ColZone>,
}

impl ZoneMap {
    /// Build the zone map of `t`: `ZoneFold` over every zone block of
    /// every layout group, the fold a checkpoint's seal runs extent by
    /// extent.
    pub fn build(t: &Table) -> ZoneMap {
        let mut fold = ZoneFold::new(t);
        for p in t.partitions() {
            for lo in (0..t.len()).step_by(ZONE_BLOCK_ROWS) {
                fold.block(p, lo, (lo + ZONE_BLOCK_ROWS).min(t.len()));
            }
        }
        fold.finish()
    }

    /// Construct from already-materialized parts (persistence only).
    pub(crate) fn from_parts(n_rows: usize, cols: Vec<ColZone>) -> ZoneMap {
        ZoneMap { n_rows, cols }
    }

    /// Rows covered (the main store's length at build time).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Zone map restricted to the row range `[lo, hi)`, which must start
    /// on a [`ZONE_BLOCK_ROWS`] boundary. Used by the buffer pool to give
    /// each checkpoint extent a self-contained map whose block stats are
    /// bit-identical to the corresponding slice of the full-table map.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> ZoneMap {
        assert!(lo.is_multiple_of(ZONE_BLOCK_ROWS) && lo <= hi && hi <= self.n_rows);
        let b0 = lo / ZONE_BLOCK_ROWS;
        let b1 = hi.div_ceil(ZONE_BLOCK_ROWS);
        let cols = self
            .cols
            .iter()
            .map(|c| match c {
                ColZone::Skipped => ColZone::Skipped,
                ColZone::Int(blocks) => ColZone::Int(blocks[b0..b1].to_vec()),
                ColZone::Float(blocks) => ColZone::Float(blocks[b0..b1].to_vec()),
            })
            .collect();
        ZoneMap {
            n_rows: hi - lo,
            cols,
        }
    }

    /// Number of zone blocks (`ceil(n_rows / ZONE_BLOCK_ROWS)`).
    pub fn n_blocks(&self) -> usize {
        self.n_rows.div_ceil(ZONE_BLOCK_ROWS)
    }

    /// Per-column summaries, schema order.
    pub fn cols(&self) -> &[ColZone] {
        &self.cols
    }

    /// The least and greatest non-NULL value of integer column `c` over
    /// all rows; `None` for any other column, or one with no value.
    pub fn int_range(&self, c: usize) -> Option<(i64, i64)> {
        let ColZone::Int(blocks) = &self.cols[c] else {
            return None;
        };
        let held = blocks.iter().filter(|b| b.has_value);
        Some((
            held.clone().map(|b| b.min).min()?,
            held.map(|b| b.max).max()?,
        ))
    }

    /// Row range `[start, end)` of block `b`.
    pub fn block_range(&self, b: usize) -> (usize, usize) {
        let start = b * ZONE_BLOCK_ROWS;
        (start, ((b + 1) * ZONE_BLOCK_ROWS).min(self.n_rows))
    }

    /// Can `pred` hold for some row of block `b`? (False = refuted.)
    pub fn block_maybe(&self, b: usize, pred: &ZonePred) -> bool {
        let zone = |col: ColId| self.cols.get(col);
        let refuted = match *pred {
            ZonePred::I64Cmp { col, op, v } => match zone(col) {
                Some(ColZone::Int(blocks)) => cmp_refuted(&blocks[b], op, v),
                _ => false,
            },
            ZonePred::F64Cmp { col, op, v } => match zone(col) {
                Some(ColZone::Float(blocks)) => cmp_refuted(&blocks[b], op, v),
                _ => false,
            },
            ZonePred::IsNull { col, negate } => match zone(col) {
                Some(ColZone::Int(blocks)) => {
                    let blk = &blocks[b];
                    if negate {
                        !blk.has_value
                    } else {
                        !blk.has_null
                    }
                }
                Some(ColZone::Float(blocks)) => {
                    let blk = &blocks[b];
                    if negate {
                        !blk.has_value
                    } else {
                        !blk.has_null
                    }
                }
                _ => false,
            },
        };
        !refuted
    }

    /// Is block `b` refuted by the conjunction `preds`? (Any single
    /// impossible conjunct refutes the whole block.)
    pub fn block_refuted(&self, b: usize, preds: &[ZonePred]) -> bool {
        preds.iter().any(|p| !self.block_maybe(b, p))
    }

    /// Per-block refutation bitmap for the conjunction `preds`.
    pub fn pruned_blocks(&self, preds: &[ZonePred]) -> Vec<bool> {
        (0..self.n_blocks())
            .map(|b| self.block_refuted(b, preds))
            .collect()
    }

    /// `(total blocks, refuted blocks)` for the conjunction `preds`.
    pub fn prune_stats(&self, preds: &[ZonePred]) -> (usize, usize) {
        let total = self.n_blocks();
        let pruned = (0..total).filter(|&b| self.block_refuted(b, preds)).count();
        (total, pruned)
    }
}

/// Rows each field is folded over at a time: one validity word's worth,
/// so a row-major group's chunk of fragments stays in L1 while all its
/// fields are folded.
const CHUNK_ROWS: usize = 64;

/// A zone map folded one zone block of one layout group at a time, in row
/// order within each group. The block is walked chunk by chunk, and each
/// numeric field of a chunk is folded by one typed stride walk, so a
/// row-major group's bytes are read into cache once for all its fields,
/// not once per column.
pub(crate) struct ZoneFold {
    n_rows: usize,
    cols: Vec<ColZone>,
}

impl ZoneFold {
    /// An empty fold for `t`'s schema and length.
    pub(crate) fn new(t: &Table) -> ZoneFold {
        let blocks = t.len().div_ceil(ZONE_BLOCK_ROWS);
        let cols = (t.schema().columns().iter())
            .map(|c| match c.ty {
                DataType::Int32 | DataType::Int64 => ColZone::Int(Vec::with_capacity(blocks)),
                DataType::Float64 => ColZone::Float(Vec::with_capacity(blocks)),
                DataType::Str => ColZone::Skipped,
            })
            .collect();
        ZoneFold {
            n_rows: t.len(),
            cols,
        }
    }

    /// Fold rows `lo..hi` of partition `p`: one zone block, so `lo` is on
    /// a block boundary and `hi` is the block's end or the table's.
    pub(crate) fn block(&mut self, p: &Partition, lo: usize, hi: usize) {
        debug_assert!(lo.is_multiple_of(ZONE_BLOCK_ROWS) && lo < hi && hi - lo <= ZONE_BLOCK_ROWS);
        // Each field's block starts with bounds every value moves.
        for &c in p.cols() {
            match &mut self.cols[c] {
                ColZone::Int(blocks) => blocks.push(empty(i64::MAX, i64::MIN)),
                ColZone::Float(blocks) => blocks.push(empty(f64::INFINITY, f64::NEG_INFINITY)),
                ColZone::Skipped => {}
            }
        }
        for at in (lo..hi).step_by(CHUNK_ROWS) {
            let end = (at + CHUNK_ROWS).min(hi);
            for (slot, &c) in p.cols().iter().enumerate() {
                // The chunk's validity bits; without a bitmap every row is
                // valid.
                let valid = p.validity(slot).map_or(!0, |bm| bm.words()[at / 64]);
                match (&mut self.cols[c], p.types()[slot]) {
                    (ColZone::Int(blocks), DataType::Int32) => {
                        let r = p.i32_col(slot);
                        fold_ints(last(blocks), |i| r.get(i) as i64, valid, at, end);
                    }
                    (ColZone::Int(blocks), _) => {
                        let r = p.i64_col(slot);
                        fold_ints(last(blocks), |i| r.get(i), valid, at, end);
                    }
                    (ColZone::Float(blocks), _) => {
                        let r = p.f64_col(slot);
                        fold_floats(last(blocks), |i| r.get(i), valid, at, end);
                    }
                    (ColZone::Skipped, _) => {}
                }
            }
        }
        for (slot, &c) in p.cols().iter().enumerate() {
            let valid = p.validity(slot);
            match &mut self.cols[c] {
                ColZone::Int(blocks) => settle(last(blocks), valid, lo, hi),
                ColZone::Float(blocks) => settle(last(blocks), valid, lo, hi),
                ColZone::Skipped => {}
            }
        }
    }

    /// The zone map, once every block of every group is folded.
    pub(crate) fn finish(self) -> ZoneMap {
        ZoneMap {
            n_rows: self.n_rows,
            cols: self.cols,
        }
    }
}

fn empty<T>(min: T, max: T) -> ZoneBlock<T> {
    ZoneBlock {
        min,
        max,
        has_null: false,
        has_value: false,
    }
}

fn last<T>(blocks: &mut [ZoneBlock<T>]) -> &mut ZoneBlock<T> {
    blocks.last_mut().expect("pushed as the block began")
}

/// Hand `add` the value of each row of `lo..hi` (at most 64 rows) whose
/// bit is set in `valid` (bit 0 is row `lo`), in row order.
#[inline(always)]
fn each_valid<T>(
    get: impl Fn(usize) -> T,
    valid: u64,
    lo: usize,
    hi: usize,
    mut add: impl FnMut(T),
) {
    let all = u64::MAX >> (64 - (hi - lo));
    if valid & all == all {
        (lo..hi).for_each(|i| add(get(i)));
    } else {
        (lo..hi)
            .filter(|i| valid >> (i - lo) & 1 == 1)
            .for_each(|i| add(get(i)));
    }
}

fn fold_ints(z: &mut ZoneBlock<i64>, get: impl Fn(usize) -> i64, valid: u64, lo: usize, hi: usize) {
    let (mut min, mut max) = (z.min, z.max);
    each_valid(get, valid, lo, hi, |v| {
        min = min.min(v);
        max = max.max(v);
    });
    (z.min, z.max) = (min, max);
}

fn fold_floats(
    z: &mut ZoneBlock<f64>,
    get: impl Fn(usize) -> f64,
    valid: u64,
    lo: usize,
    hi: usize,
) {
    let (mut min, mut max, mut nan) = (z.min, z.max, false);
    // Strict comparisons: a NaN moves neither bound, and of equal values
    // (±0) the first folded stays.
    each_valid(get, valid, lo, hi, |v: f64| {
        nan |= v.is_nan();
        min = if v < min { v } else { min };
        max = if v > max { v } else { max };
    });
    // NaN compares unpredictably per operator: it widens the block to
    // unbounded, which no later value can narrow, so no comparison is
    // ever refuted.
    (z.min, z.max) = if nan {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (min, max)
    };
}

/// Finish block `lo..hi`'s summary from its validity: an all-NULL block
/// is bounded by `T::default()`, so its bytes are fixed.
fn settle<T: Default>(z: &mut ZoneBlock<T>, valid: Option<&Bitmap>, lo: usize, hi: usize) {
    let rows = hi - lo;
    let values = valid.map_or(rows, |bm| {
        (bm.words()[lo / 64..hi.div_ceil(64)].iter())
            .map(|w| w.count_ones() as usize)
            .sum()
    });
    z.has_null = values < rows;
    z.has_value = values > 0;
    if !z.has_value {
        (z.min, z.max) = (T::default(), T::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::schema::{ColumnDef, Schema};
    use crate::types::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Int32),
            ColumnDef::nullable("b", DataType::Int64),
            ColumnDef::nullable("f", DataType::Float64),
            ColumnDef::new("s", DataType::Str),
        ])
    }

    fn eq(col: ColId, v: i64) -> ZonePred {
        ZonePred::I64Cmp {
            col,
            op: ZoneOp::Eq,
            v,
        }
    }

    #[test]
    fn blocks_cover_rows_and_ranges_are_tight() {
        let mut t = Table::with_layout("t", schema(), Layout::column(4)).unwrap();
        for i in 0..(ZONE_BLOCK_ROWS as i64 * 2 + 100) {
            t.insert(&[
                Value::Int32(i as i32),
                Value::Int64(i * 10),
                Value::Float64(i as f64),
                Value::Str(format!("s{i}")),
            ])
            .unwrap();
        }
        let z = ZoneMap::build(&t);
        assert_eq!(z.n_blocks(), 3);
        assert_eq!(z.block_range(2), (2 * ZONE_BLOCK_ROWS, t.len()));
        // Column a is monotonic, so a value from the last block refutes the
        // first two blocks and only those.
        let preds = [eq(0, (ZONE_BLOCK_ROWS as i64 * 2) + 5)];
        assert!(z.block_refuted(0, &preds));
        assert!(z.block_refuted(1, &preds));
        assert!(!z.block_refuted(2, &preds));
        assert_eq!(z.prune_stats(&preds), (3, 2));
    }

    #[test]
    fn all_null_block_refutes_every_comparison_but_not_is_null() {
        let mut t = Table::with_layout("t", schema(), Layout::row(4)).unwrap();
        for i in 0..10 {
            t.insert(&[
                Value::Int32(i),
                Value::Null,
                Value::Null,
                Value::Str("x".into()),
            ])
            .unwrap();
        }
        let z = ZoneMap::build(&t);
        assert_eq!(z.n_blocks(), 1);
        for op in [
            ZoneOp::Eq,
            ZoneOp::Ne,
            ZoneOp::Lt,
            ZoneOp::Le,
            ZoneOp::Gt,
            ZoneOp::Ge,
        ] {
            assert!(z.block_refuted(0, &[ZonePred::I64Cmp { col: 1, op, v: 0 }]));
            assert!(z.block_refuted(0, &[ZonePred::F64Cmp { col: 2, op, v: 0.0 }]));
        }
        // IS NULL can hold; IS NOT NULL cannot.
        assert!(!z.block_refuted(
            0,
            &[ZonePred::IsNull {
                col: 1,
                negate: false
            }]
        ));
        assert!(z.block_refuted(
            0,
            &[ZonePred::IsNull {
                col: 1,
                negate: true
            }]
        ));
    }

    #[test]
    fn single_value_block_degenerate_min_eq_max() {
        let mut t = Table::with_layout("t", schema(), Layout::row(4)).unwrap();
        t.insert(&[
            Value::Int32(7),
            Value::Int64(7),
            Value::Float64(7.0),
            Value::Str("x".into()),
        ])
        .unwrap();
        let z = ZoneMap::build(&t);
        // min == max == 7: Eq 7 possible, Eq 8 refuted, Ne 7 refuted,
        // Ne 8 possible, Lt 7 refuted, Le 7 possible.
        assert!(!z.block_refuted(0, &[eq(0, 7)]));
        assert!(z.block_refuted(0, &[eq(0, 8)]));
        let ne7 = ZonePred::I64Cmp {
            col: 0,
            op: ZoneOp::Ne,
            v: 7,
        };
        let ne8 = ZonePred::I64Cmp {
            col: 0,
            op: ZoneOp::Ne,
            v: 8,
        };
        assert!(z.block_refuted(0, &[ne7]));
        assert!(!z.block_refuted(0, &[ne8]));
        let lt7 = ZonePred::I64Cmp {
            col: 0,
            op: ZoneOp::Lt,
            v: 7,
        };
        let le7 = ZonePred::I64Cmp {
            col: 0,
            op: ZoneOp::Le,
            v: 7,
        };
        assert!(z.block_refuted(0, &[lt7]));
        assert!(!z.block_refuted(0, &[le7]));
    }

    #[test]
    fn string_columns_are_skipped_and_never_refute() {
        let mut t = Table::with_layout("t", schema(), Layout::column(4)).unwrap();
        t.insert(&[
            Value::Int32(1),
            Value::Int64(1),
            Value::Float64(1.0),
            Value::Str("only".into()),
        ])
        .unwrap();
        let z = ZoneMap::build(&t);
        assert!(matches!(z.cols()[3], ColZone::Skipped));
        // Predicates aimed at the string column never refute, whatever shape.
        assert!(!z.block_refuted(0, &[eq(3, 999)]));
        assert!(!z.block_refuted(
            0,
            &[ZonePred::IsNull {
                col: 3,
                negate: false
            }]
        ));
    }

    #[test]
    fn mixed_null_block_still_refutes_by_value_range() {
        let mut t = Table::with_layout("t", schema(), Layout::row(4)).unwrap();
        for i in 0..20i64 {
            t.insert(&[
                Value::Int32(i as i32),
                if i % 2 == 0 {
                    Value::Null
                } else {
                    Value::Int64(i)
                },
                Value::Float64(0.5),
                Value::Str("x".into()),
            ])
            .unwrap();
        }
        let z = ZoneMap::build(&t);
        // Non-NULL b values are 1..=19 odd: b = 100 refuted, b = 3 not.
        assert!(z.block_refuted(0, &[eq(1, 100)]));
        assert!(!z.block_refuted(0, &[eq(1, 3)]));
        // The block has NULLs, so IS NULL is possible.
        assert!(!z.block_refuted(
            0,
            &[ZonePred::IsNull {
                col: 1,
                negate: false
            }]
        ));
    }

    #[test]
    fn nan_widens_float_block_to_unbounded() {
        let mut t = Table::with_layout("t", schema(), Layout::row(4)).unwrap();
        t.insert(&[
            Value::Int32(0),
            Value::Int64(0),
            Value::Float64(f64::NAN),
            Value::Str("x".into()),
        ])
        .unwrap();
        let z = ZoneMap::build(&t);
        for op in [ZoneOp::Eq, ZoneOp::Lt, ZoneOp::Gt, ZoneOp::Ne] {
            assert!(
                !z.block_refuted(0, &[ZonePred::F64Cmp { col: 2, op, v: 1.0 }]),
                "{op:?}"
            );
        }
    }

    #[test]
    fn empty_table_has_no_blocks() {
        let t = Table::with_layout("t", schema(), Layout::row(4)).unwrap();
        let z = ZoneMap::build(&t);
        assert_eq!(z.n_blocks(), 0);
        assert_eq!(z.prune_stats(&[eq(0, 1)]), (0, 0));
    }

    #[test]
    fn build_is_deterministic() {
        let mut t = Table::with_layout("t", schema(), Layout::row(4)).unwrap();
        for i in 0..100 {
            t.insert(&[
                Value::Int32(i % 13),
                Value::Int64(i as i64),
                Value::Float64(i as f64 / 3.0),
                Value::Str(format!("s{}", i % 5)),
            ])
            .unwrap();
        }
        assert_eq!(ZoneMap::build(&t), ZoneMap::build(&t));
    }
}
