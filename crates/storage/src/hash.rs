//! The hasher behind a dictionary's code index here and behind every map
//! of the execution pipeline (`pdsm_exec::keys` re-exports it).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

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

    /// Short byte keys: an integer's eight bytes and a short string, as a
    /// group key or a dictionary string with a counter in it looks.
    fn byte_keys(k: u32) -> Vec<Vec<u8>> {
        (0..8i64 << k)
            .map(|i| {
                let mut b = i.to_le_bytes().to_vec();
                b.extend(format!("c{}", i % 7).bytes());
                b
            })
            .collect()
    }

    /// No bucket may hold more than four times its share: for a random
    /// function that bound fails with probability far below 1e-6.
    fn spreads(hash: &dyn Fn(&u64) -> u64, bytes: &dyn Fn(&Vec<u8>) -> u64) -> bool {
        [6, 10].into_iter().all(|k| {
            let words = key_sets(k).into_iter().all(|(_, keys)| {
                let (lo, hi) = max_loads(hash, &keys, k);
                lo.max(hi) <= 32
            });
            let (lo, hi) = max_loads(bytes, &byte_keys(k), k);
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
            assert!(spreads(&|x| h.hash_one(x), &|b| h.hash_one(b)), "{h:?}");
        }
        // The negative control: the identity piles strided and high-bit
        // keys into one bucket.
        let identity = |x: &u64| *x;
        let first_word = |b: &Vec<u8>| u64::from_le_bytes(b[..8].try_into().unwrap());
        assert!(!spreads(&identity, &first_word));
    }
}
