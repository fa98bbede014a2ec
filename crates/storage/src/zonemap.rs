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
    /// Build the zone map of `t` in one typed pass per column.
    pub fn build(t: &Table) -> ZoneMap {
        let n = t.len();
        let cols = (0..t.schema().len())
            .map(|c| {
                let (pi, slot) = t.col_location(c);
                let validity = t.partition(pi).validity(slot);
                match t.schema().columns()[c].ty {
                    DataType::Int32 => {
                        let r = t.i32_reader(c);
                        ColZone::Int(int_blocks(n, validity, |i| r.get(i) as i64))
                    }
                    DataType::Int64 => {
                        let r = t.i64_reader(c);
                        ColZone::Int(int_blocks(n, validity, |i| r.get(i)))
                    }
                    DataType::Float64 => {
                        let r = t.f64_reader(c);
                        ColZone::Float(float_blocks(n, validity, |i| r.get(i)))
                    }
                    DataType::Str => ColZone::Skipped,
                }
            })
            .collect();
        ZoneMap { n_rows: n, cols }
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

    /// Per-column summaries, schema order (persistence only).
    pub(crate) fn cols(&self) -> &[ColZone] {
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

fn int_blocks(
    n: usize,
    validity: Option<&Bitmap>,
    get: impl Fn(usize) -> i64,
) -> Vec<ZoneBlock<i64>> {
    let mut out = Vec::with_capacity(n.div_ceil(ZONE_BLOCK_ROWS));
    let mut start = 0;
    while start < n {
        let end = (start + ZONE_BLOCK_ROWS).min(n);
        let mut blk = ZoneBlock {
            min: 0i64,
            max: 0i64,
            has_null: false,
            has_value: false,
        };
        for i in start..end {
            if validity.is_some_and(|bm| !bm.get(i)) {
                blk.has_null = true;
                continue;
            }
            let v = get(i);
            if blk.has_value {
                blk.min = blk.min.min(v);
                blk.max = blk.max.max(v);
            } else {
                blk.min = v;
                blk.max = v;
                blk.has_value = true;
            }
        }
        out.push(blk);
        start = end;
    }
    out
}

fn float_blocks(
    n: usize,
    validity: Option<&Bitmap>,
    get: impl Fn(usize) -> f64,
) -> Vec<ZoneBlock<f64>> {
    let mut out = Vec::with_capacity(n.div_ceil(ZONE_BLOCK_ROWS));
    let mut start = 0;
    while start < n {
        let end = (start + ZONE_BLOCK_ROWS).min(n);
        let mut blk = ZoneBlock {
            min: 0f64,
            max: 0f64,
            has_null: false,
            has_value: false,
        };
        for i in start..end {
            if validity.is_some_and(|bm| !bm.get(i)) {
                blk.has_null = true;
                continue;
            }
            let v = get(i);
            if v.is_nan() {
                // NaN compares unpredictably per operator: widen the block
                // to unbounded so no comparison is ever refuted.
                blk.min = f64::NEG_INFINITY;
                blk.max = f64::INFINITY;
                blk.has_value = true;
                continue;
            }
            if blk.has_value {
                blk.min = blk.min.min(v);
                blk.max = blk.max.max(v);
            } else {
                blk.min = v;
                blk.max = v;
                blk.has_value = true;
            }
        }
        out.push(blk);
        start = end;
    }
    out
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
