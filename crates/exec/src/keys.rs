//! Canonical group/join keys shared by all engines, and the hasher the
//! pipeline's hash maps use.
//!
//! Engines must agree byte-for-byte on key identity so differential tests
//! hold. Keys serialize values into a compact byte form: integers widen to
//! `i64`, floats keep their bit pattern, strings are length-prefixed UTF-8.
//!
//! [`FastHash`] is a folded-multiply hasher (the construction of
//! `foldhash`): each 64-bit word of input is XORed into the state and
//! folded by one 64×64→128-bit multiply whose halves are XORed, and the
//! state is folded once more to finish, so that input bits anywhere reach
//! both a table's bucket bits (the low ones) and its tag bits (the high
//! ones). It is keyed by three words drawn once per process from the
//! standard library's randomly seeded `RandomState`, so which keys
//! collide, and the order a map iterates in, cannot be predicted from
//! outside the process, as with the default SipHash — at a fraction of
//! its cost per key.

use pdsm_storage::Value;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A hash map under the process-seeded [`FastHash`].
pub type FastMap<K, V> = HashMap<K, V, FastHash>;

/// An empty [`FastMap`] with room for `n` entries.
pub fn fast_map<K, V>(n: usize) -> FastMap<K, V> {
    HashMap::with_capacity_and_hasher(n, FastHash::default())
}

/// The folded-multiply [`BuildHasher`]: the initial state, the word
/// multiplier and the finishing one, all from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct FastHash {
    seed: u64,
    mul: u64,
    fin: u64,
}

impl Default for FastHash {
    fn default() -> Self {
        static SEED: OnceLock<FastHash> = OnceLock::new();
        *SEED.get_or_init(|| {
            let s = RandomState::new();
            FastHash::with_seed([0u64, 1, 2].map(|i| s.hash_one(i)))
        })
    }
}

impl FastHash {
    /// A hasher with explicit key words.
    fn with_seed([seed, mul, fin]: [u64; 3]) -> Self {
        FastHash { seed, mul, fin }
    }
}

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            acc: self.seed,
            mul: self.mul,
            fin: self.fin,
        }
    }
}

/// The running state of one [`FastHash`] hash.
pub struct FastHasher {
    acc: u64,
    mul: u64,
    fin: u64,
}

/// The 128-bit product of `a` and `b`, its halves XORed.
#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = (a as u128).wrapping_mul(b as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

impl Hasher for FastHasher {
    #[inline(always)]
    fn write_u64(&mut self, x: u64) {
        self.acc = folded_multiply(self.acc ^ x, self.mul);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // At most 7 bytes: the top byte is free to carry their count.
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(w) | (rest.len() as u64) << 56);
        }
    }

    #[inline(always)]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    #[inline(always)]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline(always)]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline(always)]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, self.fin)
    }
}

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
    use std::hash::Hash;

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

    /// The fullest of `2^k` buckets when `keys` are spread by the low `k`
    /// bits of their hash (a hash table's bucket index), or by the high
    /// `k` bits (the tag byte a SwissTable compares first).
    fn max_loads<T: Hash>(hash: &dyn Fn(&T) -> u64, keys: &[T], k: u32) -> (usize, usize) {
        let (mut low, mut high) = (vec![0usize; 1 << k], vec![0usize; 1 << k]);
        for key in keys {
            let h = hash(key);
            low[(h & ((1 << k) - 1)) as usize] += 1;
            high[(h >> (64 - k)) as usize] += 1;
        }
        (
            low.into_iter().max().unwrap_or(0),
            high.into_iter().max().unwrap_or(0),
        )
    }

    /// Structured key sets a hash table meets in practice, eight keys per
    /// bucket of `2^k`.
    fn key_sets(k: u32) -> Vec<(&'static str, Vec<u64>)> {
        let n = 8u64 << k;
        vec![
            ("sequential", (0..n).collect()),
            ("strided", (0..n).map(|i| i << k).collect()),
            ("high bits only", (0..n).map(|i| i << 40).collect()),
            (
                "negative",
                (0..n).map(|i| (-(i as i64) - 1) as u64).collect(),
            ),
        ]
    }

    /// No bucket may hold more than four times its share: for a random
    /// function that bound fails with probability far below 1e-6.
    fn spreads(hash: &dyn Fn(&u64) -> u64, bytes: &dyn Fn(&GroupKey) -> u64) -> bool {
        [6, 10].into_iter().all(|k| {
            let words = key_sets(k).into_iter().all(|(_, keys)| {
                let (lo, hi) = max_loads(hash, &keys, k);
                lo.max(hi) <= 32
            });
            let short: Vec<GroupKey> = (0..8i64 << k)
                .map(|i| GroupKey::of(&[Value::Int64(i), Value::from(format!("c{}", i % 7))]))
                .collect();
            let (lo, hi) = max_loads(bytes, &short, k);
            words && lo.max(hi) <= 32
        })
    }

    #[test]
    fn fast_hash_spreads_structured_keys_and_identity_does_not() {
        let seeds = [
            FastHash::default(),
            FastHash::with_seed([0, 0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d]),
            FastHash::with_seed([!0, 0x2545_f491_4f6c_dd1d, 0x9e37_79b9_7f4a_7c15]),
        ];
        for h in seeds {
            assert!(spreads(&|x| h.hash_one(x), &|g| h.hash_one(g)), "{h:?}");
        }
        // The negative control: the identity piles strided and high-bit
        // keys into one bucket.
        let identity = |x: &u64| *x;
        let first_word = |g: &GroupKey| {
            let b: &[u8] = g.borrow();
            u64::from_le_bytes(b[..8].try_into().unwrap())
        };
        assert!(!spreads(&identity, &first_word));
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
