//! Canonical group/join keys shared by all engines, and the hasher the
//! pipeline's hash maps use.
//!
//! Engines must agree byte-for-byte on key identity so differential tests
//! hold. Keys serialize values into a compact byte form: integers widen to
//! `i64`, floats keep their bit pattern, strings are length-prefixed UTF-8.
//!
//! [`FastHash`] is the process-seeded folded-multiply hasher of
//! `pdsm_storage::hash`, re-exported here: every pipeline map and every
//! dictionary's code index hash with it.

pub use pdsm_storage::hash::{fast_map, FastHash, FastHasher, FastMap};
use pdsm_storage::Value;
use std::borrow::Borrow;

/// A hashable, equality-comparable key over a tuple of values.
///
/// It hashes and compares as its encoded bytes, so a map keyed by
/// `GroupKey` is probed with a reused byte buffer ([`encode`],
/// [`encode_int`], [`encode_str`]) and allocates a key only on insert.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey(Vec<u8>);

impl Borrow<[u8]> for GroupKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl GroupKey {
    /// Build from a slice of values.
    pub fn of(values: &[Value]) -> Self {
        let mut buf = Vec::with_capacity(values.len() * 9);
        for v in values {
            encode(v, &mut buf);
        }
        GroupKey(buf)
    }

    /// Build from one value.
    pub fn single(v: &Value) -> Self {
        Self::of(std::slice::from_ref(v))
    }

    /// Take an encoded buffer as a key.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        GroupKey(bytes.to_vec())
    }
}

/// Append the encoding of one integer of either width.
pub fn encode_int(x: i64, buf: &mut Vec<u8>) {
    buf.push(1); // one tag for Int32 and Int64: cross-width equality
    buf.extend(x.to_le_bytes());
}

/// Append the encoding of one string.
pub fn encode_str(s: &str, buf: &mut Vec<u8>) {
    buf.push(3);
    buf.extend((s.len() as u32).to_le_bytes());
    buf.extend(s.as_bytes());
}

/// Append the encoding of `v`; a tuple's key is its values' encodings in
/// order.
pub fn encode(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(0),
        Value::Int32(x) => encode_int(*x as i64, buf),
        Value::Int64(x) => encode_int(*x, buf),
        Value::Float64(x) => {
            buf.push(2);
            // normalize -0.0 so join keys match arithmetic results
            let x = if *x == 0.0 { 0.0 } else { *x };
            buf.extend(x.to_bits().to_le_bytes());
        }
        Value::Str(s) => encode_str(s, buf),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_values_equal_keys() {
        assert_eq!(
            GroupKey::of(&[Value::Int32(5), Value::from("a")]),
            GroupKey::of(&[Value::Int32(5), Value::from("a")])
        );
        assert_ne!(
            GroupKey::of(&[Value::Int32(5)]),
            GroupKey::of(&[Value::Int32(6)])
        );
    }

    #[test]
    fn int_widths_unify() {
        assert_eq!(
            GroupKey::single(&Value::Int32(7)),
            GroupKey::single(&Value::Int64(7))
        );
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(
            GroupKey::single(&Value::Float64(-0.0)),
            GroupKey::single(&Value::Float64(0.0))
        );
    }

    #[test]
    fn null_distinct_from_zero() {
        assert_ne!(
            GroupKey::single(&Value::Null),
            GroupKey::single(&Value::Int32(0))
        );
    }

    #[test]
    fn string_lengths_prefixed() {
        // ("ab","c") must differ from ("a","bc")
        assert_ne!(
            GroupKey::of(&[Value::from("ab"), Value::from("c")]),
            GroupKey::of(&[Value::from("a"), Value::from("bc")])
        );
    }

    #[test]
    fn equal_keys_hash_equal_whatever_their_form() {
        let h = FastHash::default();
        let key = GroupKey::of(&[Value::Int32(7), Value::from("seven")]);
        let bytes: &[u8] = key.borrow();
        assert_eq!(h.hash_one(&key), h.hash_one(bytes));
        assert_ne!(
            h.hash_one(&key),
            h.hash_one(GroupKey::single(&Value::Int32(7)))
        );
    }
}
