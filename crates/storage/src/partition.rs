//! A vertical partition: a fixed-stride array of tuple fragments.
//!
//! This is the paper's unit of storage. A partition holding columns
//! `[B,C,D,E]` of 4-byte ints has `R.w = 16`; scanning only `B` touches every
//! fragment but uses `u = 4` bytes of each — exactly the situation the
//! `s_trav_cr` access pattern models.
//!
//! Values are stored little-endian at fixed offsets inside each fragment.
//! Field offsets are padded to the field's natural alignment and the stride
//! to the fragment's maximal alignment, as a row store would.

use crate::bitmap::Bitmap;
use crate::error::{Error, Result};
use crate::mapping::Arena;
use crate::schema::ColId;
use crate::types::DataType;
use std::marker::PhantomData;

/// An untyped fixed-width field value, the partition-level currency.
/// Strings appear here as dictionary codes (`U32`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawVal {
    Null,
    I32(i32),
    I64(i64),
    F64(f64),
    U32(u32),
}

/// One vertical partition of a table.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Table-level column ids, in fragment field order.
    cols: Vec<ColId>,
    /// Types per field.
    types: Vec<DataType>,
    /// Byte offset of each field inside a fragment.
    offsets: Vec<usize>,
    /// Fragment width in bytes (`R.w`), padded to max field alignment.
    stride: usize,
    /// The arena: `len * stride` bytes, owned or a range of a loaded
    /// checkpoint's pages (copied out before any write).
    data: Arena,
    /// Number of fragments (`R.n`).
    len: usize,
    /// Validity bitmap per field; `None` for non-nullable fields.
    validity: Vec<Option<Bitmap>>,
}

impl Partition {
    /// Create an empty partition for the given member columns.
    /// `nullable[i]` states whether field `i` needs a validity bitmap.
    pub fn new(cols: Vec<ColId>, types: Vec<DataType>, nullable: Vec<bool>) -> Self {
        assert_eq!(cols.len(), types.len());
        assert_eq!(cols.len(), nullable.len());
        let mut offsets = Vec::with_capacity(types.len());
        let mut off = 0usize;
        let mut max_align = 1usize;
        for t in &types {
            let a = t.align();
            max_align = max_align.max(a);
            off = off.next_multiple_of(a);
            offsets.push(off);
            off += t.width();
        }
        let stride = off.next_multiple_of(max_align);
        let validity = nullable
            .into_iter()
            .map(|n| if n { Some(Bitmap::new()) } else { None })
            .collect();
        Partition {
            cols,
            types,
            offsets,
            stride,
            data: Arena::default(),
            len: 0,
            validity,
        }
    }

    /// Member column ids in fragment order.
    pub fn cols(&self) -> &[ColId] {
        &self.cols
    }

    /// Field types in fragment order.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Fragment width in bytes (the cost model's `R.w`).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Byte offset of field `slot` inside a fragment.
    #[inline]
    pub fn offset(&self, slot: usize) -> usize {
        self.offsets[slot]
    }

    /// Number of stored fragments (the cost model's `R.n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no fragments stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes held by the value arena.
    pub fn byte_size(&self) -> usize {
        self.data.len()
    }

    /// Position of table column `col` within this partition's fields.
    pub fn slot_of(&self, col: ColId) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// Reserve space for `additional` more fragments.
    pub fn reserve(&mut self, additional: usize) {
        self.data.to_mut().reserve(additional * self.stride);
    }

    /// Append one fragment. `vals` must be in field order with types matching
    /// the partition's field types (`U32` for `Str` fields).
    pub fn push_row(&mut self, vals: &[RawVal]) -> Result<()> {
        if vals.len() != self.cols.len() {
            return Err(Error::ArityMismatch {
                expected: self.cols.len(),
                got: vals.len(),
            });
        }
        let data = self.data.to_mut();
        let start = data.len();
        data.resize(start + self.stride, 0);
        for (slot, v) in vals.iter().enumerate() {
            let off = start + self.offsets[slot];
            let ty = self.types[slot];
            let valid = !matches!(v, RawVal::Null);
            match (v, ty) {
                (RawVal::Null, _) => {} // leave zeroed
                (RawVal::I32(x), DataType::Int32) => {
                    data[off..off + 4].copy_from_slice(&x.to_le_bytes())
                }
                (RawVal::I64(x), DataType::Int64) => {
                    data[off..off + 8].copy_from_slice(&x.to_le_bytes())
                }
                (RawVal::F64(x), DataType::Float64) => {
                    data[off..off + 8].copy_from_slice(&x.to_le_bytes())
                }
                (RawVal::U32(x), DataType::Str) => {
                    data[off..off + 4].copy_from_slice(&x.to_le_bytes())
                }
                (v, ty) => {
                    // roll back the partial fragment before erroring
                    data.truncate(start);
                    return Err(Error::TypeMismatch {
                        column: format!("col#{}", self.cols[slot]),
                        expected: ty.name(),
                        got: match v {
                            RawVal::I32(_) => "I32",
                            RawVal::I64(_) => "I64",
                            RawVal::F64(_) => "F64",
                            RawVal::U32(_) => "U32",
                            RawVal::Null => "Null",
                        },
                    });
                }
            }
            if let Some(bm) = &mut self.validity[slot] {
                bm.push(valid);
            } else if !valid {
                data.truncate(start);
                return Err(Error::NullViolation(format!("col#{}", self.cols[slot])));
            }
        }
        self.len += 1;
        Ok(())
    }

    /// Read field `slot` of fragment `row` as an untyped value.
    pub fn get_raw(&self, row: usize, slot: usize) -> Result<RawVal> {
        if row >= self.len {
            return Err(Error::RowOutOfRange { row, len: self.len });
        }
        if let Some(bm) = &self.validity[slot] {
            if !bm.get(row) {
                return Ok(RawVal::Null);
            }
        }
        let off = row * self.stride + self.offsets[slot];
        Ok(match self.types[slot] {
            DataType::Int32 => RawVal::I32(i32::from_le_bytes(
                self.data[off..off + 4].try_into().unwrap(),
            )),
            DataType::Int64 => RawVal::I64(i64::from_le_bytes(
                self.data[off..off + 8].try_into().unwrap(),
            )),
            DataType::Float64 => RawVal::F64(f64::from_le_bytes(
                self.data[off..off + 8].try_into().unwrap(),
            )),
            DataType::Str => RawVal::U32(u32::from_le_bytes(
                self.data[off..off + 4].try_into().unwrap(),
            )),
        })
    }

    /// Overwrite field `slot` of fragment `row`.
    pub fn set_raw(&mut self, row: usize, slot: usize, v: RawVal) -> Result<()> {
        if row >= self.len {
            return Err(Error::RowOutOfRange { row, len: self.len });
        }
        let off = row * self.stride + self.offsets[slot];
        let ty = self.types[slot];
        let valid = !matches!(v, RawVal::Null);
        let mut put =
            |bytes: &[u8]| self.data.to_mut()[off..off + bytes.len()].copy_from_slice(bytes);
        match (v, ty) {
            (RawVal::Null, _) => {
                if self.validity[slot].is_none() {
                    return Err(Error::NullViolation(format!("col#{}", self.cols[slot])));
                }
            }
            (RawVal::I32(x), DataType::Int32) => put(&x.to_le_bytes()),
            (RawVal::I64(x), DataType::Int64) => put(&x.to_le_bytes()),
            (RawVal::F64(x), DataType::Float64) => put(&x.to_le_bytes()),
            (RawVal::U32(x), DataType::Str) => put(&x.to_le_bytes()),
            _ => {
                return Err(Error::TypeMismatch {
                    column: format!("col#{}", self.cols[slot]),
                    expected: ty.name(),
                    got: "incompatible RawVal",
                })
            }
        }
        if let Some(bm) = &mut self.validity[slot] {
            bm.set(row, valid);
        }
        Ok(())
    }

    /// Validity of field `slot` at `row` (true = non-NULL).
    #[inline]
    pub fn is_valid(&self, row: usize, slot: usize) -> bool {
        match &self.validity[slot] {
            Some(bm) => bm.get(row),
            None => true,
        }
    }

    /// Validity bitmap of field `slot`, if the field is nullable.
    pub fn validity(&self, slot: usize) -> Option<&Bitmap> {
        self.validity[slot].as_ref()
    }

    /// Raw arena bytes (used by the trace generator in `pdsm-cachesim`).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.data
    }

    /// True while the arena is a range of a checkpoint mapped from its
    /// file: a load's state until the first write copies it out.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Overwrite this (empty, freshly constructed) partition's contents
    /// from persisted state. Geometry (cols/types/offsets/stride) is
    /// derived deterministically by [`Partition::new`], so only the arena
    /// and validity bitmaps travel to disk.
    pub(crate) fn restore(&mut self, data: Arena, len: usize, validity: Vec<Option<Bitmap>>) {
        assert_eq!(data.len(), len * self.stride, "arena size mismatch");
        assert_eq!(validity.len(), self.cols.len(), "validity arity mismatch");
        for (slot, v) in validity.iter().enumerate() {
            assert_eq!(
                v.is_some(),
                self.validity[slot].is_some(),
                "nullability mismatch at slot {slot}"
            );
            if let Some(bm) = v {
                assert_eq!(bm.len(), len, "validity length mismatch at slot {slot}");
            }
        }
        self.data = data;
        self.len = len;
        self.validity = validity;
    }

    fn typed_col<T>(&self, slot: usize, want: &[DataType]) -> TypedCol<'_, T> {
        let ty = self.types[slot];
        assert!(
            want.contains(&ty),
            "field {slot} has type {ty}, reader wants {want:?}"
        );
        TypedCol {
            data: &self.data,
            offset: self.offsets[slot],
            stride: self.stride,
            len: self.len,
            _t: PhantomData,
        }
    }

    /// Zero-cost typed reader over an `Int32` field.
    pub fn i32_col(&self, slot: usize) -> I32Col<'_> {
        self.typed_col(slot, &[DataType::Int32])
    }

    /// Zero-cost typed reader over an `Int64` field.
    pub fn i64_col(&self, slot: usize) -> I64Col<'_> {
        self.typed_col(slot, &[DataType::Int64])
    }

    /// Zero-cost typed reader over a `Float64` field.
    pub fn f64_col(&self, slot: usize) -> F64Col<'_> {
        self.typed_col(slot, &[DataType::Float64])
    }

    /// Zero-cost typed reader over a `Str` field's dictionary codes.
    pub fn u32_col(&self, slot: usize) -> U32Col<'_> {
        self.typed_col(slot, &[DataType::Str])
    }
}

/// A strided typed view over one field of a partition. `get` compiles to a
/// single unaligned load — the inner-loop primitive of the compiled engine.
#[derive(Clone, Copy)]
pub struct TypedCol<'a, T> {
    data: &'a [u8],
    offset: usize,
    stride: usize,
    len: usize,
    _t: PhantomData<T>,
}

/// Reader over `i32` fields.
pub type I32Col<'a> = TypedCol<'a, i32>;
/// Reader over `i64` fields.
pub type I64Col<'a> = TypedCol<'a, i64>;
/// Reader over `f64` fields.
pub type F64Col<'a> = TypedCol<'a, f64>;
/// Reader over dictionary-code fields.
pub type U32Col<'a> = TypedCol<'a, u32>;

macro_rules! impl_typed_col {
    ($t:ty) => {
        impl<'a> TypedCol<'a, $t> {
            /// Number of rows.
            #[inline(always)]
            pub fn len(&self) -> usize {
                self.len
            }

            /// True iff the view has no rows.
            #[inline(always)]
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Read the value at `row`.
            ///
            /// Bounds are checked only via `debug_assert`: the view was
            /// constructed over a well-formed arena (`len * stride` bytes)
            /// and engines iterate `0..len`, so a release-mode check in the
            /// innermost loop would only tax the very loops the paper's CPU
            /// efficiency argument is about.
            #[inline(always)]
            pub fn get(&self, row: usize) -> $t {
                debug_assert!(row < self.len);
                const W: usize = std::mem::size_of::<$t>();
                let off = row * self.stride + self.offset;
                debug_assert!(off + W <= self.data.len());
                unsafe {
                    let p = self.data.as_ptr().add(off) as *const $t;
                    p.read_unaligned()
                }
            }

            /// Iterate all values in row order.
            pub fn iter(&self) -> impl Iterator<Item = $t> + '_ {
                (0..self.len).map(move |i| self.get(i))
            }

            /// Byte distance between consecutive values (the partition's
            /// fragment stride).
            #[inline(always)]
            pub fn stride(&self) -> usize {
                self.stride
            }

            /// The values as one contiguous typed slice, when the field is
            /// densely packed (the column lives alone in its partition, so
            /// stride == value width) *and* the arena happens to be aligned
            /// for the type. This is the entry ticket to the SIMD kernels
            /// in `pdsm-exec`; callers fall back to strided `get` loops
            /// when it returns `None`.
            pub fn as_slice(&self) -> Option<&'a [$t]> {
                const W: usize = std::mem::size_of::<$t>();
                if self.stride != W {
                    return None;
                }
                let bytes = self.data.get(self.offset..self.offset + self.len * W)?;
                // SAFETY: every $t bit pattern is a valid value; align_to
                // only yields the middle when alignment holds.
                let (pre, mid, _) = unsafe { bytes.align_to::<$t>() };
                if pre.is_empty() && mid.len() == self.len {
                    Some(mid)
                } else {
                    None
                }
            }
        }
    };
}

impl_typed_col!(i32);
impl_typed_col!(i64);
impl_typed_col!(f64);
impl_typed_col!(u32);

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> Partition {
        // (i32, f64, str-code) fragment: offsets 0, 8, 16; stride 24.
        Partition::new(
            vec![0, 1, 2],
            vec![DataType::Int32, DataType::Float64, DataType::Str],
            vec![false, true, false],
        )
    }

    #[test]
    fn offsets_respect_alignment() {
        let p = part();
        assert_eq!(p.offset(0), 0);
        assert_eq!(p.offset(1), 8); // padded past the i32
        assert_eq!(p.offset(2), 16);
        assert_eq!(p.stride(), 24); // padded to 8-byte alignment
    }

    #[test]
    fn push_and_read_back() {
        let mut p = part();
        p.push_row(&[RawVal::I32(7), RawVal::F64(1.5), RawVal::U32(3)])
            .unwrap();
        p.push_row(&[RawVal::I32(-1), RawVal::Null, RawVal::U32(0)])
            .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.get_raw(0, 0).unwrap(), RawVal::I32(7));
        assert_eq!(p.get_raw(0, 1).unwrap(), RawVal::F64(1.5));
        assert_eq!(p.get_raw(1, 1).unwrap(), RawVal::Null);
        assert!(!p.is_valid(1, 1));
        assert!(p.is_valid(0, 1));
        assert!(matches!(
            p.get_raw(5, 0),
            Err(Error::RowOutOfRange { row: 5, len: 2 })
        ));
    }

    #[test]
    fn null_in_non_nullable_rejected_and_rolled_back() {
        let mut p = part();
        let err = p
            .push_row(&[RawVal::Null, RawVal::F64(0.0), RawVal::U32(0)])
            .unwrap_err();
        assert!(matches!(err, Error::NullViolation(_)));
        assert_eq!(p.len(), 0);
        assert_eq!(p.byte_size(), 0, "partial fragment must be rolled back");
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut p = part();
        let err = p
            .push_row(&[RawVal::F64(1.0), RawVal::F64(0.0), RawVal::U32(0)])
            .unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn typed_readers_see_strided_values() {
        let mut p = part();
        for i in 0..100 {
            p.push_row(&[
                RawVal::I32(i),
                RawVal::F64(i as f64 * 0.5),
                RawVal::U32(i as u32 * 2),
            ])
            .unwrap();
        }
        let a = p.i32_col(0);
        let b = p.f64_col(1);
        let c = p.u32_col(2);
        for i in 0..100usize {
            assert_eq!(a.get(i), i as i32);
            assert_eq!(b.get(i), i as f64 * 0.5);
            assert_eq!(c.get(i), i as u32 * 2);
        }
        assert_eq!(a.iter().map(|v| v as i64).sum::<i64>(), 4950);
    }

    #[test]
    fn set_raw_updates_in_place() {
        let mut p = part();
        p.push_row(&[RawVal::I32(1), RawVal::F64(2.0), RawVal::U32(3)])
            .unwrap();
        p.set_raw(0, 0, RawVal::I32(42)).unwrap();
        p.set_raw(0, 1, RawVal::Null).unwrap();
        assert_eq!(p.get_raw(0, 0).unwrap(), RawVal::I32(42));
        assert_eq!(p.get_raw(0, 1).unwrap(), RawVal::Null);
        // writing a value again revalidates
        p.set_raw(0, 1, RawVal::F64(9.0)).unwrap();
        assert_eq!(p.get_raw(0, 1).unwrap(), RawVal::F64(9.0));
        assert!(p.set_raw(0, 0, RawVal::Null).is_err());
        assert!(p.set_raw(3, 0, RawVal::I32(0)).is_err());
    }

    #[test]
    fn as_slice_only_for_densely_packed_fields() {
        // Multi-field partition: stride 24 ≠ 4, so no contiguous view.
        let mut p = part();
        p.push_row(&[RawVal::I32(1), RawVal::F64(2.0), RawVal::U32(3)])
            .unwrap();
        assert!(p.i32_col(0).as_slice().is_none());
        assert!(p.f64_col(1).as_slice().is_none());

        // Single-column partition: stride == width, contiguous view works.
        let mut lone = Partition::new(vec![0], vec![DataType::Int32], vec![false]);
        for i in 0..1000 {
            lone.push_row(&[RawVal::I32(i)]).unwrap();
        }
        let col = lone.i32_col(0);
        let s = col.as_slice().expect("packed i32 column is contiguous");
        assert_eq!(s.len(), 1000);
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as i32));
        assert_eq!(col.stride(), 4);

        // Empty packed column: a Some(&[]) view, not a None.
        let empty = Partition::new(vec![0], vec![DataType::Int64], vec![false]);
        assert_eq!(empty.i64_col(0).as_slice(), Some(&[][..]));
    }

    #[test]
    #[should_panic(expected = "reader wants")]
    fn typed_reader_type_checked() {
        let mut p = part();
        p.push_row(&[RawVal::I32(1), RawVal::F64(2.0), RawVal::U32(3)])
            .unwrap();
        let _ = p.i64_col(0);
    }
}
