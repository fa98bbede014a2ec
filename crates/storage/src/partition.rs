//! A vertical partition: a fixed-stride array of tuple fragments.
//!
//! This is the paper's unit of storage. A partition holding columns
//! `[B,C,D,E]` of 4-byte ints has `R.w = 16`; scanning only `B` touches every
//! fragment but uses `u = 4` bytes of each — exactly the situation the
//! `s_trav_cr` access pattern models.
//!
//! Values are stored little-endian at fixed offsets inside each fragment,
//! packed back to back with no padding: every read and write is an
//! unaligned access. A number field is as wide as its type; a `Str`
//! field's dictionary code is 1, 2 or 4 bytes, the narrowest that holds
//! every code its dictionary has handed out ([`code_width`]). A field
//! widens, in one rewrite of the partition, when a code outgrows it —
//! at most twice in its life.

use crate::bitmap::Bitmap;
use crate::error::{Error, Result};
use crate::mapping::Arena;
use crate::schema::ColId;
use crate::types::DataType;
use std::marker::PhantomData;
use std::mem::size_of;

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

/// The narrowest code width, in bytes, that holds every code below `n`:
/// the width a dictionary of `n` strings needs.
pub fn code_width(n: usize) -> usize {
    match n {
        0..=0x100 => size_of::<u8>(),
        0x101..=0x1_0000 => size_of::<u16>(),
        _ => size_of::<u32>(),
    }
}

/// A new field's width in bytes: its type's, or one byte of code for a
/// `Str` field (it widens as its dictionary grows).
fn initial_width(ty: DataType) -> usize {
    match ty {
        DataType::Int32 => size_of::<i32>(),
        DataType::Int64 => size_of::<i64>(),
        DataType::Float64 => size_of::<f64>(),
        DataType::Str => code_width(0),
    }
}

/// Each field's offset in a fragment of fields `widths` wide, back to
/// back, and the fragment's stride.
fn place(widths: &[usize]) -> (Vec<usize>, usize) {
    let mut at = 0;
    let offsets = widths
        .iter()
        .map(|w| {
            at += w;
            at - w
        })
        .collect();
    (offsets, at)
}

/// `v`'s bits, zero-extended, when it is a value of a `ty` field.
fn bits_of(v: RawVal, ty: DataType) -> Option<u64> {
    Some(match (v, ty) {
        (RawVal::I32(x), DataType::Int32) => x as u32 as u64,
        (RawVal::I64(x), DataType::Int64) => x as u64,
        (RawVal::F64(x), DataType::Float64) => x.to_bits(),
        (RawVal::U32(x), DataType::Str) => x as u64,
        _ => return None,
    })
}

/// One vertical partition of a table.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Table-level column ids, in fragment field order.
    cols: Vec<ColId>,
    /// Types per field.
    types: Vec<DataType>,
    /// Physical width of each field in bytes (a `Str` field's code width).
    widths: Vec<usize>,
    /// Byte offset of each field inside a fragment.
    offsets: Vec<usize>,
    /// Fragment width in bytes (`R.w`): the sum of the field widths.
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
        let widths: Vec<usize> = types.iter().map(|&t| initial_width(t)).collect();
        let (offsets, stride) = place(&widths);
        let validity = nullable
            .into_iter()
            .map(|n| if n { Some(Bitmap::new()) } else { None })
            .collect();
        Partition {
            cols,
            types,
            widths,
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

    /// Physical width of field `slot` in bytes.
    #[inline]
    pub fn field_width(&self, slot: usize) -> usize {
        self.widths[slot]
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

    /// Widen `Str` field `slot` to at least `width` bytes of code. A wider
    /// field moves every fragment: the partition is rewritten once, each
    /// code zero-extended in place and the later fields shifted up.
    pub(crate) fn widen_codes(&mut self, slot: usize, width: usize) {
        assert_eq!(self.types[slot], DataType::Str, "only codes widen");
        let old = self.widths[slot];
        if width <= old {
            return;
        }
        let mut widths = self.widths.clone();
        widths[slot] = width;
        let (offsets, stride) = place(&widths);
        let end = self.offsets[slot] + old;
        let mut data = vec![0; self.len * stride];
        if self.len > 0 {
            for (from, to) in self
                .data
                .chunks_exact(self.stride)
                .zip(data.chunks_exact_mut(stride))
            {
                to[..end].copy_from_slice(&from[..end]);
                to[end + width - old..].copy_from_slice(&from[end..]);
            }
        }
        self.data = Arena::Owned(data);
        (self.widths, self.offsets, self.stride) = (widths, offsets, stride);
    }

    /// Widen `Str` field `slot`, if it must, to hold `code`.
    #[inline]
    pub(crate) fn fit_code(&mut self, slot: usize, code: u32) {
        let width = code_width(code as usize + 1);
        if width > self.widths[slot] {
            self.widen_codes(slot, width);
        }
    }

    /// Field `slot` of the fragment at arena byte `at`, zero-extended.
    #[inline]
    fn load(&self, at: usize, slot: usize) -> u64 {
        let (off, w) = (at + self.offsets[slot], self.widths[slot]);
        let mut b = [0; size_of::<u64>()];
        b[..w].copy_from_slice(&self.data[off..off + w]);
        u64::from_le_bytes(b)
    }

    /// Store the low bytes of `bits` as field `slot` of the fragment at
    /// arena byte `at`.
    #[inline]
    fn store(&mut self, at: usize, slot: usize, bits: u64) {
        let (off, w) = (at + self.offsets[slot], self.widths[slot]);
        self.data.to_mut()[off..off + w].copy_from_slice(&bits.to_le_bytes()[..w]);
    }

    /// Append one fragment. `vals` must be in field order with types matching
    /// the partition's field types (`U32` for `Str` fields); a code too wide
    /// for its field widens the field first.
    pub fn push_row(&mut self, vals: &[RawVal]) -> Result<()> {
        if vals.len() != self.cols.len() {
            return Err(Error::ArityMismatch {
                expected: self.cols.len(),
                got: vals.len(),
            });
        }
        for (slot, v) in vals.iter().enumerate() {
            if let (RawVal::U32(code), DataType::Str) = (v, self.types[slot]) {
                self.fit_code(slot, *code);
            }
        }
        let start = self.data.len();
        self.data.to_mut().resize(start + self.stride, 0);
        for (slot, &v) in vals.iter().enumerate() {
            let ty = self.types[slot];
            let valid = !matches!(v, RawVal::Null);
            match bits_of(v, ty) {
                Some(bits) => self.store(start, slot, bits),
                None if !valid => {} // leave zeroed
                None => {
                    // roll back the partial fragment before erroring
                    self.data.to_mut().truncate(start);
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
                self.data.to_mut().truncate(start);
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
        let bits = self.load(row * self.stride, slot);
        Ok(match self.types[slot] {
            DataType::Int32 => RawVal::I32(bits as u32 as i32),
            DataType::Int64 => RawVal::I64(bits as i64),
            DataType::Float64 => RawVal::F64(f64::from_bits(bits)),
            DataType::Str => RawVal::U32(bits as u32),
        })
    }

    /// Overwrite field `slot` of fragment `row`; a code too wide for its
    /// field widens the field first.
    pub fn set_raw(&mut self, row: usize, slot: usize, v: RawVal) -> Result<()> {
        if row >= self.len {
            return Err(Error::RowOutOfRange { row, len: self.len });
        }
        let ty = self.types[slot];
        match (bits_of(v, ty), v) {
            (Some(bits), _) => {
                if let RawVal::U32(code) = v {
                    self.fit_code(slot, code);
                }
                self.store(row * self.stride, slot, bits);
            }
            (None, RawVal::Null) => {
                if self.validity[slot].is_none() {
                    return Err(Error::NullViolation(format!("col#{}", self.cols[slot])));
                }
            }
            (None, _) => {
                return Err(Error::TypeMismatch {
                    column: format!("col#{}", self.cols[slot]),
                    expected: ty.name(),
                    got: "incompatible RawVal",
                })
            }
        }
        if let Some(bm) = &mut self.validity[slot] {
            bm.set(row, !matches!(v, RawVal::Null));
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
    /// from persisted state. Geometry (cols/types/widths/offsets/stride)
    /// is set beforehand — by [`Partition::new`] and, for the code widths
    /// a checkpoint records, [`Partition::widen_codes`] — so only the
    /// arena and validity bitmaps travel here.
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

    /// A typed view of field `slot`, which must be of a type in `want` and
    /// exactly `T` wide.
    fn typed_col<T: Copy>(&self, slot: usize, want: &[DataType]) -> TypedCol<'_, T> {
        let ty = self.types[slot];
        assert!(
            want.contains(&ty) && self.widths[slot] == size_of::<T>(),
            "field {slot} has type {ty} ({} bytes), reader wants {want:?} of {} bytes",
            self.widths[slot],
            size_of::<T>()
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

    /// Reader over a `Str` field's dictionary codes, at the field's width.
    pub fn code_col(&self, slot: usize) -> CodeCol<'_> {
        let want = &[DataType::Str];
        match self.widths[slot] {
            1 => CodeCol::U8(self.typed_col(slot, want)),
            2 => CodeCol::U16(self.typed_col(slot, want)),
            _ => CodeCol::U32(self.typed_col(slot, want)),
        }
    }
}

/// A strided typed view over one field of a partition. `get` compiles to a
/// single unaligned load — the inner-loop primitive of the compiled engine.
/// Only [`Partition`] builds one, for `i32`, `i64`, `f64` and the code
/// widths `u8`, `u16` and `u32`: types every bit pattern of which is a
/// valid value.
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

impl<'a, T: Copy> TypedCol<'a, T> {
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
    pub fn get(&self, row: usize) -> T {
        debug_assert!(row < self.len);
        let off = row * self.stride + self.offset;
        debug_assert!(off + size_of::<T>() <= self.data.len());
        // SAFETY: `off` lies inside the arena (see above), the read is
        // unaligned, and every bit pattern of `T` is valid (see the type).
        unsafe {
            let p = self.data.as_ptr().add(off) as *const T;
            p.read_unaligned()
        }
    }

    /// Iterate all values in row order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
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
    pub fn as_slice(&self) -> Option<&'a [T]> {
        let w = size_of::<T>();
        if self.stride != w {
            return None;
        }
        let bytes = self.data.get(self.offset..self.offset + self.len * w)?;
        // SAFETY: every bit pattern of `T` is a valid value; align_to
        // only yields the middle when alignment holds.
        let (pre, mid, _) = unsafe { bytes.align_to::<T>() };
        if pre.is_empty() && mid.len() == self.len {
            Some(mid)
        } else {
            None
        }
    }
}

impl<T: Copy + Into<u32>> TypedCol<'_, T> {
    /// The dictionary code at `row`, widened to `u32`.
    #[inline(always)]
    pub fn code(&self, row: usize) -> u32 {
        self.get(row).into()
    }
}

/// Reader over a `Str` field's dictionary codes: one variant per code
/// width. [`CodeCol::get`] widens any of them to `u32`; a hot loop instead
/// matches once, with [`with_codes!`](crate::with_codes), and runs on the
/// width's own [`TypedCol`].
#[derive(Clone, Copy)]
pub enum CodeCol<'a> {
    U8(TypedCol<'a, u8>),
    U16(TypedCol<'a, u16>),
    U32(TypedCol<'a, u32>),
}

/// `with_codes!(col, r => body)`: `body` with `r` bound to the
/// [`CodeCol`]'s width-specific [`TypedCol`] — one match on the width,
/// then a loop in `body` monomorphized per width (`r.code(i)` reads a code
/// as `u32`).
#[macro_export]
macro_rules! with_codes {
    ($col:expr, $r:ident => $body:expr) => {
        match $col {
            $crate::partition::CodeCol::U8($r) => $body,
            $crate::partition::CodeCol::U16($r) => $body,
            $crate::partition::CodeCol::U32($r) => $body,
        }
    };
}

impl CodeCol<'_> {
    /// The code at `row`.
    #[inline(always)]
    pub fn get(&self, row: usize) -> u32 {
        with_codes!(self, r => r.code(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> Partition {
        // (i32, f64, str-code) fragment: offsets 0, 4, 12; stride 13.
        Partition::new(
            vec![0, 1, 2],
            vec![DataType::Int32, DataType::Float64, DataType::Str],
            vec![false, true, false],
        )
    }

    #[test]
    fn fields_pack_back_to_back() {
        let p = part();
        assert_eq!(p.offset(0), 0);
        assert_eq!(p.offset(1), 4); // no padding after the i32
        assert_eq!(p.offset(2), 12);
        assert_eq!(p.field_width(2), 1); // an empty dictionary's code
        assert_eq!(p.stride(), 13);
    }

    #[test]
    fn code_widths_follow_the_dictionary_size() {
        assert_eq!(code_width(0), 1);
        assert_eq!(code_width(256), 1);
        assert_eq!(code_width(257), 2);
        assert_eq!(code_width(65_536), 2);
        assert_eq!(code_width(65_537), 4);
    }

    /// A code past a field's width widens it in one rewrite: every earlier
    /// fragment reads back, the fields after it shift up, and the field
    /// never narrows again.
    #[test]
    fn an_outgrown_code_widens_its_field_once() {
        let mut p = Partition::new(
            vec![0, 1, 2],
            vec![DataType::Str, DataType::Int32, DataType::Str],
            vec![true, false, false],
        );
        let code = |i: u32| {
            if i.is_multiple_of(7) {
                i * 300
            } else {
                i % 250
            }
        };
        for i in 0..300u32 {
            let first = if i.is_multiple_of(5) {
                RawVal::Null
            } else {
                RawVal::U32(code(i))
            };
            p.push_row(&[first, RawVal::I32(-(i as i32)), RawVal::U32(i)])
                .unwrap();
        }
        assert_eq!((p.field_width(0), p.field_width(2)), (4, 2));
        assert_eq!((p.offset(1), p.offset(2), p.stride()), (4, 8, 10));
        assert_eq!(p.byte_size(), 300 * 10);
        for i in 0..300u32 {
            let first = if i.is_multiple_of(5) {
                RawVal::Null
            } else {
                RawVal::U32(code(i))
            };
            assert_eq!(p.get_raw(i as usize, 0).unwrap(), first);
            assert_eq!(p.get_raw(i as usize, 1).unwrap(), RawVal::I32(-(i as i32)));
            assert_eq!(p.code_col(2).get(i as usize), i);
        }
        assert!(matches!(p.code_col(2), CodeCol::U16(_)));
        // An update widens too; a small code narrows nothing.
        p.set_raw(3, 2, RawVal::U32(70_000)).unwrap();
        p.set_raw(4, 2, RawVal::U32(1)).unwrap();
        assert_eq!((p.field_width(2), p.stride()), (4, 12));
        assert_eq!(p.code_col(2).get(3), 70_000);
        assert_eq!(p.code_col(2).get(4), 1);
        assert_eq!(p.code_col(2).get(299), 299);
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
        let c = p.code_col(2);
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
        // Multi-field partition: stride 13 ≠ 4, so no contiguous view.
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
