//! Tables: a schema, a partitioning layout, and the partitions themselves.

use crate::dictionary::Dictionary;
use crate::error::{Error, Result};
use crate::layout::Layout;
use crate::partition::{Partition, RawVal};
use crate::row::Row;
use crate::schema::{ColId, Schema};
use crate::stats::ColumnStats;
use crate::types::{DataType, Value};
use crate::zonemap::ZoneMap;
use std::sync::{Arc, OnceLock};

/// A memory-resident table stored according to a vertical-partitioning
/// [`Layout`]. Dictionaries for `Str` columns live at the table level so that
/// relayouting never re-encodes strings, behind one `Arc` copied on write:
/// a relayout, and every extent of a checkpoint, shares them.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    layout: Layout,
    partitions: Vec<Partition>,
    /// `col_loc[c] = (partition index, slot within partition)`.
    col_loc: Vec<(usize, usize)>,
    /// One dictionary per `Str` column (index = ColId), `None` otherwise.
    dicts: Arc<Vec<Option<Dictionary>>>,
    len: usize,
    /// Lazily built zone map (see [`crate::zonemap`]). Every `&mut` path
    /// that can change stored values clears it; cloning a table with a
    /// built map shares it (it is immutable once built).
    zones: OnceLock<Arc<ZoneMap>>,
}

impl Table {
    /// New table in row-store (NSM) layout.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let layout = Layout::row(schema.len());
        Self::with_layout(name, schema, layout).expect("row layout is always valid")
    }

    /// New table with an explicit layout.
    pub fn with_layout(name: impl Into<String>, schema: Schema, layout: Layout) -> Result<Self> {
        if layout.n_cols() != schema.len() {
            return Err(Error::InvalidLayout(format!(
                "layout covers {} columns, schema has {}",
                layout.n_cols(),
                schema.len()
            )));
        }
        let mut partitions = Vec::with_capacity(layout.n_groups());
        let mut col_loc = vec![(0usize, 0usize); schema.len()];
        for (pi, group) in layout.groups().iter().enumerate() {
            let types: Vec<DataType> = group.iter().map(|&c| schema.columns()[c].ty).collect();
            let nullable: Vec<bool> = group
                .iter()
                .map(|&c| schema.columns()[c].nullable)
                .collect();
            for (slot, &c) in group.iter().enumerate() {
                col_loc[c] = (pi, slot);
            }
            partitions.push(Partition::new(group.clone(), types, nullable));
        }
        let dicts = Arc::new(
            schema
                .columns()
                .iter()
                .map(|c| (c.ty == DataType::Str).then(Dictionary::new))
                .collect(),
        );
        Ok(Table {
            name: name.into(),
            schema,
            layout,
            partitions,
            col_loc,
            dicts,
            len: 0,
            zones: OnceLock::new(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The active layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All partitions, in layout group order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Partition `i`.
    pub fn partition(&self, i: usize) -> &Partition {
        &self.partitions[i]
    }

    /// `(partition index, slot)` of column `c`.
    pub fn col_location(&self, c: ColId) -> (usize, usize) {
        self.col_loc[c]
    }

    /// Dictionary of a `Str` column.
    pub fn dict(&self, c: ColId) -> Option<&Dictionary> {
        self.dicts.get(c).and_then(|d| d.as_ref())
    }

    /// A zero-row table with this table's name, schema, layout and
    /// (shared) dictionaries.
    pub fn skeleton(&self) -> Table {
        let mut t = Table::with_layout(self.name.clone(), self.schema.clone(), self.layout.clone())
            .expect("a table's own layout is valid");
        t.dicts = Arc::clone(&self.dicts);
        t
    }

    /// Heap bytes held by the string dictionaries
    /// ([`Dictionary::byte_size`]), which every table sharing them (a
    /// skeleton, an extent decoded from a checkpoint) shares too.
    pub fn dict_bytes(&self) -> usize {
        self.dicts.iter().flatten().map(Dictionary::byte_size).sum()
    }

    /// Drop the growth slack of the string dictionaries, so a table built
    /// by inserting holds them as tightly as one loaded from its blob.
    pub fn shrink_dicts(&mut self) {
        for d in Arc::make_mut(&mut self.dicts).iter_mut().flatten() {
            d.shrink_to_fit();
        }
    }

    /// Total bytes held by all partition arenas.
    pub fn byte_size(&self) -> usize {
        self.partitions.iter().map(|p| p.byte_size()).sum()
    }

    /// Pre-allocate space for `additional` rows in every partition.
    pub fn reserve(&mut self, additional: usize) {
        for p in &mut self.partitions {
            p.reserve(additional);
        }
    }

    /// Encode a [`Value`] for column `c` into the partition representation,
    /// interning strings into the column dictionary.
    fn encode(&mut self, c: ColId, v: &Value) -> Result<RawVal> {
        let def = &self.schema.columns()[c];
        match (v, def.ty) {
            (Value::Null, _) => {
                if def.nullable {
                    Ok(RawVal::Null)
                } else {
                    Err(Error::NullViolation(def.name.clone()))
                }
            }
            (Value::Int32(x), DataType::Int32) => Ok(RawVal::I32(*x)),
            (Value::Int64(x), DataType::Int64) => Ok(RawVal::I64(*x)),
            (Value::Int32(x), DataType::Int64) => Ok(RawVal::I64(*x as i64)),
            (Value::Float64(x), DataType::Float64) => Ok(RawVal::F64(*x)),
            (Value::Int32(x), DataType::Float64) => Ok(RawVal::F64(*x as f64)),
            (Value::Str(s), DataType::Str) => {
                let dict = Arc::make_mut(&mut self.dicts)[c]
                    .as_mut()
                    .expect("Str column has dictionary");
                Ok(RawVal::U32(dict.intern(s)))
            }
            (v, ty) => Err(Error::TypeMismatch {
                column: def.name.clone(),
                expected: ty.name(),
                got: v.type_name(),
            }),
        }
    }

    /// Insert one row (values in schema column order). Returns the new row id.
    pub fn insert(&mut self, values: &[Value]) -> Result<usize> {
        if values.len() != self.schema.len() {
            return Err(Error::ArityMismatch {
                expected: self.schema.len(),
                got: values.len(),
            });
        }
        // Encode first so a failure cannot leave partitions inconsistent.
        let mut encoded = Vec::with_capacity(values.len());
        for (c, v) in values.iter().enumerate() {
            encoded.push(self.encode(c, v)?);
        }
        for p in &mut self.partitions {
            let frag: Vec<RawVal> = p.cols().iter().map(|&c| encoded[c]).collect();
            p.push_row(&frag)
                .expect("encoded fragment matches partition types");
        }
        self.len += 1;
        self.invalidate_zones();
        Ok(self.len - 1)
    }

    /// Insert many rows atomically: every row is validated and encoded
    /// before any is stored, so one bad row leaves the table unchanged.
    /// (Strings of rejected rows may still have been interned — dictionary
    /// growth is harmless, codes are only referenced by stored rows.)
    pub fn insert_batch(&mut self, rows: &[Vec<Value>]) -> Result<()> {
        let mut encoded_rows = Vec::with_capacity(rows.len());
        for values in rows {
            if values.len() != self.schema.len() {
                return Err(Error::ArityMismatch {
                    expected: self.schema.len(),
                    got: values.len(),
                });
            }
            let mut encoded = Vec::with_capacity(values.len());
            for (c, v) in values.iter().enumerate() {
                encoded.push(self.encode(c, v)?);
            }
            encoded_rows.push(encoded);
        }
        self.reserve(encoded_rows.len());
        for encoded in &encoded_rows {
            for p in &mut self.partitions {
                let frag: Vec<RawVal> = p.cols().iter().map(|&c| encoded[c]).collect();
                p.push_row(&frag)
                    .expect("encoded fragment matches partition types");
            }
            self.len += 1;
        }
        self.invalidate_zones();
        Ok(())
    }

    /// Read one cell, decoding dictionary codes back to strings.
    pub fn get(&self, row: usize, c: ColId) -> Result<Value> {
        if row >= self.len {
            return Err(Error::RowOutOfRange { row, len: self.len });
        }
        if c >= self.schema.len() {
            return Err(Error::UnknownColumn(c));
        }
        let (pi, slot) = self.col_loc[c];
        let raw = self.partitions[pi].get_raw(row, slot)?;
        Ok(self.decode(c, raw))
    }

    /// Decode a partition-level value of column `c` into a [`Value`].
    pub fn decode(&self, c: ColId, raw: RawVal) -> Value {
        match raw {
            RawVal::Null => Value::Null,
            RawVal::I32(x) => Value::Int32(x),
            RawVal::I64(x) => Value::Int64(x),
            RawVal::F64(x) => Value::Float64(x),
            RawVal::U32(code) => {
                let dict = self.dicts[c].as_ref().expect("Str column has dictionary");
                Value::Str(dict.decode(code).to_owned())
            }
        }
    }

    /// Overwrite one cell.
    pub fn update(&mut self, row: usize, c: ColId, v: &Value) -> Result<()> {
        if row >= self.len {
            return Err(Error::RowOutOfRange { row, len: self.len });
        }
        if c >= self.schema.len() {
            return Err(Error::UnknownColumn(c));
        }
        let raw = self.encode(c, v)?;
        let (pi, slot) = self.col_loc[c];
        self.invalidate_zones();
        self.partitions[pi].set_raw(row, slot, raw)
    }

    /// Materialize row `row` as a [`Row`] of decoded values.
    pub fn row(&self, row: usize) -> Result<Row> {
        (0..self.schema.len())
            .map(|c| self.get(row, c))
            .collect::<Result<Vec<_>>>()
            .map(Row)
    }

    /// Iterate all rows (decoded). Intended for tests and small results, not
    /// for engine hot paths.
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len).map(move |r| self.row(r).expect("in-range"))
    }

    /// Rebuild this table's data under a different layout. Dictionaries are
    /// shared, so codes remain stable across layouts — a property the
    /// differential tests rely on.
    pub fn relayout(&self, layout: Layout) -> Result<Table> {
        if layout.n_cols() != self.schema.len() {
            return Err(Error::InvalidLayout(format!(
                "layout covers {} columns, schema has {}",
                layout.n_cols(),
                self.schema.len()
            )));
        }
        let mut out = Table::with_layout(self.name.clone(), self.schema.clone(), layout)?;
        out.dicts = Arc::clone(&self.dicts);
        out.reserve(self.len);
        for p_out in &mut out.partitions {
            let srcs: Vec<(usize, usize)> = p_out.cols().iter().map(|&c| self.col_loc[c]).collect();
            for row in 0..self.len {
                let frag: Vec<RawVal> = srcs
                    .iter()
                    .map(|&(pi, slot)| self.partitions[pi].get_raw(row, slot).expect("in-range"))
                    .collect();
                p_out.push_row(&frag).expect("same types");
            }
        }
        out.len = self.len;
        Ok(out)
    }

    /// Compute statistics of column `c` (one full decode pass).
    pub fn col_stats(&self, c: ColId) -> ColumnStats {
        ColumnStats::compute((0..self.len).map(move |r| self.get(r, c).expect("in-range")))
    }

    /// Typed reader over column `c`, which must be `Int32`.
    pub fn i32_reader(&self, c: ColId) -> crate::partition::I32Col<'_> {
        let (pi, slot) = self.col_loc[c];
        self.partitions[pi].i32_col(slot)
    }

    /// Typed reader over column `c`, which must be `Int64`.
    pub fn i64_reader(&self, c: ColId) -> crate::partition::I64Col<'_> {
        let (pi, slot) = self.col_loc[c];
        self.partitions[pi].i64_col(slot)
    }

    /// Typed reader over column `c`, which must be `Float64`.
    pub fn f64_reader(&self, c: ColId) -> crate::partition::F64Col<'_> {
        let (pi, slot) = self.col_loc[c];
        self.partitions[pi].f64_col(slot)
    }

    /// Typed reader over the dictionary codes of `Str` column `c`.
    pub fn str_code_reader(&self, c: ColId) -> crate::partition::U32Col<'_> {
        let (pi, slot) = self.col_loc[c];
        self.partitions[pi].u32_col(slot)
    }

    /// Validity check for one cell without decoding.
    pub fn is_valid(&self, row: usize, c: ColId) -> bool {
        let (pi, slot) = self.col_loc[c];
        self.partitions[pi].is_valid(row, slot)
    }

    /// The table's zone map (per-block min/max summaries, see
    /// [`crate::zonemap`]), built on first use and cached until the next
    /// mutation. An `Arc` so merge/checkpoint paths can warm and hand the
    /// map across clones for free.
    pub fn zone_map(&self) -> &Arc<ZoneMap> {
        self.zones.get_or_init(|| Arc::new(ZoneMap::build(self)))
    }

    /// The zone map, if one is built and cached.
    pub(crate) fn cached_zones(&self) -> Option<&Arc<ZoneMap>> {
        self.zones.get()
    }

    /// Install a pre-built zone map (persistence / merge warm-up only).
    /// No-op if a map is already cached. The caller asserts `z` describes
    /// exactly this table's contents.
    pub(crate) fn install_zones(&self, z: ZoneMap) {
        debug_assert_eq!(z.n_rows(), self.len);
        let _ = self.zones.set(Arc::new(z));
    }

    /// Drop the cached zone map; called by every mutating path.
    fn invalidate_zones(&mut self) {
        self.zones = OnceLock::new();
    }

    /// All per-column dictionaries, schema order (persistence only).
    pub(crate) fn dicts(&self) -> &[Option<Dictionary>] {
        &self.dicts
    }

    /// Install persisted dictionaries (persistence only).
    pub(crate) fn restore_dicts(&mut self, dicts: Arc<Vec<Option<Dictionary>>>) {
        assert_eq!(dicts.len(), self.schema.len(), "dictionary arity mismatch");
        self.dicts = dicts;
    }

    /// Set the row count of restored partitions (persistence only).
    pub(crate) fn restore_len(&mut self, len: usize) {
        self.len = len;
        self.invalidate_zones();
    }

    /// Mutable partitions (persistence only).
    pub(crate) fn partitions_mut(&mut self) -> &mut [Partition] {
        self.invalidate_zones();
        &mut self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int32),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::nullable("price", DataType::Float64),
            ColumnDef::new("qty", DataType::Int64),
        ])
    }

    fn demo_table(layout: Layout) -> Table {
        let mut t = Table::with_layout("demo", demo_schema(), layout).unwrap();
        for i in 0..50i32 {
            t.insert(&[
                Value::Int32(i),
                Value::Str(format!("item-{}", i % 7)),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 * 1.25)
                },
                Value::Int64(i as i64 * 10),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_get_roundtrip_all_layouts() {
        for layout in [
            Layout::row(4),
            Layout::column(4),
            Layout::from_groups(vec![vec![0, 3], vec![1], vec![2]], 4).unwrap(),
        ] {
            let t = demo_table(layout);
            assert_eq!(t.len(), 50);
            assert_eq!(t.get(13, 0).unwrap(), Value::Int32(13));
            assert_eq!(t.get(13, 1).unwrap(), Value::Str("item-6".into()));
            assert_eq!(t.get(10, 2).unwrap(), Value::Null);
            assert_eq!(t.get(13, 3).unwrap(), Value::Int64(130));
        }
    }

    #[test]
    fn relayout_roundtrip_preserves_rows() {
        let row_t = demo_table(Layout::row(4));
        let col_t = row_t.relayout(Layout::column(4)).unwrap();
        let hyb = col_t
            .relayout(Layout::from_groups(vec![vec![1, 2], vec![0], vec![3]], 4).unwrap())
            .unwrap();
        let back = hyb.relayout(Layout::row(4)).unwrap();
        for r in 0..row_t.len() {
            assert_eq!(row_t.row(r).unwrap(), col_t.row(r).unwrap());
            assert_eq!(row_t.row(r).unwrap(), hyb.row(r).unwrap());
            assert_eq!(row_t.row(r).unwrap(), back.row(r).unwrap());
        }
    }

    #[test]
    fn typed_readers_work_across_layouts() {
        for layout in [
            Layout::row(4),
            Layout::column(4),
            Layout::from_groups(vec![vec![0, 2], vec![1, 3]], 4).unwrap(),
        ] {
            let t = demo_table(layout);
            let ids = t.i32_reader(0);
            let qty = t.i64_reader(3);
            let sum: i64 = (0..t.len()).map(|r| ids.get(r) as i64 + qty.get(r)).sum();
            assert_eq!(sum, (0..50i64).map(|i| i + i * 10).sum::<i64>());
        }
    }

    #[test]
    fn update_and_null_handling() {
        let mut t = demo_table(Layout::column(4));
        t.update(3, 2, &Value::Null).unwrap();
        assert_eq!(t.get(3, 2).unwrap(), Value::Null);
        assert!(!t.is_valid(3, 2));
        t.update(3, 2, &Value::Float64(8.5)).unwrap();
        assert_eq!(t.get(3, 2).unwrap(), Value::Float64(8.5));
        assert!(t.update(3, 0, &Value::Null).is_err(), "id not nullable");
        assert!(t.update(999, 0, &Value::Int32(0)).is_err());
    }

    #[test]
    fn insert_errors_are_atomic() {
        let mut t = demo_table(Layout::row(4));
        let before = t.len();
        assert!(t.insert(&[Value::Int32(1)]).is_err(), "arity");
        assert!(t
            .insert(&[
                Value::Str("wrong".into()),
                Value::Str("x".into()),
                Value::Null,
                Value::Int64(0)
            ])
            .is_err());
        assert_eq!(t.len(), before);
        assert_eq!(t.partitions()[0].len(), before);
    }

    #[test]
    fn insert_batch_is_atomic() {
        let mut t = demo_table(Layout::column(4));
        let before = t.len();
        let rows = vec![
            vec![
                Value::Int32(100),
                Value::Str("ok".into()),
                Value::Null,
                Value::Int64(1),
            ],
            vec![Value::Int32(101)], // arity error
        ];
        assert!(matches!(
            t.insert_batch(&rows),
            Err(Error::ArityMismatch { .. })
        ));
        assert_eq!(t.len(), before, "no partial batch");
        for p in t.partitions() {
            assert_eq!(p.len(), before);
        }
        let rows = vec![
            vec![
                Value::Int32(100),
                Value::Str("ok".into()),
                Value::Null,
                Value::Int64(1),
            ],
            vec![
                Value::Int32(101),
                Value::Str("ok2".into()),
                Value::Float64(2.0),
                Value::Int64(2),
            ],
        ];
        t.insert_batch(&rows).unwrap();
        assert_eq!(t.len(), before + 2);
        assert_eq!(t.get(before + 1, 0).unwrap(), Value::Int32(101));
    }

    #[test]
    fn column_bounds_are_errors_not_panics() {
        let mut t = demo_table(Layout::row(4));
        assert!(matches!(t.get(0, 99), Err(Error::UnknownColumn(99))));
        assert!(matches!(
            t.update(0, 99, &Value::Int32(1)),
            Err(Error::UnknownColumn(99))
        ));
        assert!(matches!(
            t.update(999, 0, &Value::Int32(1)),
            Err(Error::RowOutOfRange { .. })
        ));
        assert!(matches!(
            t.update(0, 1, &Value::Int64(5)),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn widening_int_to_float_and_i64() {
        let mut t = Table::new(
            "w",
            Schema::new(vec![
                ColumnDef::new("f", DataType::Float64),
                ColumnDef::new("l", DataType::Int64),
            ]),
        );
        t.insert(&[Value::Int32(3), Value::Int32(4)]).unwrap();
        assert_eq!(t.get(0, 0).unwrap(), Value::Float64(3.0));
        assert_eq!(t.get(0, 1).unwrap(), Value::Int64(4));
    }

    #[test]
    fn stats_and_sizes() {
        let t = demo_table(Layout::row(4));
        let s = t.col_stats(1);
        assert_eq!(s.distinct_count, 7);
        assert_eq!(s.null_count, 0);
        let s = t.col_stats(2);
        assert_eq!(s.null_count, 10);
        assert!(t.byte_size() >= 50 * (4 + 4 + 8 + 8));
        // row layout: one partition, stride = padded fragment
        assert_eq!(t.partitions().len(), 1);
    }

    #[test]
    fn dictionary_shared_across_relayout() {
        let t = demo_table(Layout::row(4));
        let c = t.relayout(Layout::column(4)).unwrap();
        // same code must decode to the same string in both layouts
        let code_row = t.str_code_reader(1).get(5);
        let code_col = c.str_code_reader(1).get(5);
        assert_eq!(code_row, code_col);
        assert_eq!(
            t.dict(1).unwrap().decode(code_row),
            c.dict(1).unwrap().decode(code_col)
        );
    }
}
