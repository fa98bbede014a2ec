//! Per-column string dictionaries.
//!
//! Strings are stored out-of-line: each distinct string gets a dense `u32`
//! code, and partitions store only the code. This keeps partition strides
//! fixed (the cost model's `R.w`) and makes equality predicates on strings a
//! single integer comparison. `LIKE`-style predicates are evaluated against
//! the dictionary once and then reduce to a code-set membership test — the
//! same trick used by the column stores the paper compares against.

use crate::hash::FastHash;
use std::hash::BuildHasher;

/// An order-preserving-insertion string dictionary.
///
/// Codes are assigned in first-seen order, so they are *not* sorted; range
/// predicates on strings go through [`Dictionary::codes_matching`].
///
/// Each distinct string is stored once: back to back in one byte arena in
/// code order, with one end offset per code, and found by content through
/// an open-addressed table of codes (linear probing under the process-
/// seeded [`FastHash`], at most half full). Three heap blocks per
/// dictionary, whatever its size.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Every string, in code order.
    bytes: String,
    /// `ends[c]` is where string `c` ends in `bytes`; it starts where
    /// string `c - 1` ends.
    ends: Vec<u32>,
    /// Code + 1 per slot, 0 for an empty slot. Empty, or a power of two
    /// at least twice the number of codes.
    slots: Vec<u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty dictionary with room for `n` strings of `bytes` bytes in
    /// all, so that interning them allocates nothing more.
    pub(crate) fn with_capacity(n: usize, bytes: usize) -> Self {
        Dictionary {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(n),
            slots: vec![0; slots_for(n)],
        }
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff no strings interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes held: the capacities of the arena, the offsets and the
    /// slot table.
    pub fn byte_size(&self) -> usize {
        self.bytes.capacity() + (self.ends.capacity() + self.slots.capacity()) * 4
    }

    /// Drop the arena's and the offsets' growth slack. The slot table is
    /// sized by the code count alone, as a loaded dictionary's is.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Intern `s`, returning its code (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        let slot = match self.find(s) {
            Ok(code) => return code,
            Err(slot) => slot,
        };
        let code = u32::try_from(self.ends.len()).expect("dictionary overflow");
        let end = u32::try_from(self.bytes.len() + s.len()).expect("dictionary overflow");
        self.bytes.push_str(s);
        self.ends.push(end);
        if self.slots.len() < 2 * self.ends.len() {
            self.rehash(slots_for(self.ends.len()));
        } else {
            self.slots[slot] = code + 1;
        }
        code
    }

    /// Code of `s` if it has been interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.find(s).ok()
    }

    /// The string behind `code`. Panics on an unknown code (storage-internal
    /// codes are always valid by construction).
    pub fn decode(&self, code: u32) -> &str {
        let c = code as usize;
        let start = c.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.bytes[start..self.ends[c] as usize]
    }

    /// Codes of all strings satisfying `pred` (used for LIKE / prefix / range
    /// predicates: one pass over the dictionary instead of one per row).
    pub fn codes_matching(&self, mut pred: impl FnMut(&str) -> bool) -> Vec<u32> {
        self.iter()
            .filter(|&(_, s)| pred(s))
            .map(|(c, _)| c)
            .collect()
    }

    /// Iterate `(code, string)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        (self.ends.iter().zip(starts).enumerate())
            .map(|(c, (&end, start))| (c as u32, &self.bytes[start as usize..end as usize]))
    }

    /// `Ok(code)` of `s`, or `Err(slot)`: the empty slot where it would
    /// go (0 when the table has no slots yet).
    fn find(&self, s: &str) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = FastHash::default().hash_one(s.as_bytes()) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                c if self.decode(c - 1) == s => return Ok(c - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Rebuild the slot table at `n` slots from the arena.
    fn rehash(&mut self, n: usize) {
        self.slots = vec![0; n];
        for c in 0..self.ends.len() as u32 {
            if let Err(slot) = self.find(self.decode(c)) {
                self.slots[slot] = c + 1;
            }
        }
    }
}

/// Slots for `n` codes: a power of two, at least twice `n` (and 8).
fn slots_for(n: usize) -> usize {
    (2 * n).max(8).next_power_of_two()
}

/// SQL `LIKE` with `%` (any run) and `_` (any single char), ASCII semantics.
///
/// Implemented with the standard two-pointer backtracking algorithm; linear
/// in practice for the catalog-style patterns the benchmarks use.
pub fn like_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut star_ti) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = pi;
            star_ti = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            star_ti += 1;
            ti = star_ti;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        assert_ne!(a, b);
        assert_eq!(d.intern("alpha"), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.decode(a), "alpha");
        assert_eq!(d.code_of("beta"), Some(b));
        assert_eq!(d.code_of("gamma"), None);
    }

    #[test]
    fn codes_matching_prefix() {
        let mut d = Dictionary::new();
        for s in ["apple", "apricot", "banana", "avocado"] {
            d.intern(s);
        }
        let codes = d.codes_matching(|s| s.starts_with("ap"));
        let names: Vec<&str> = codes.iter().map(|&c| d.decode(c)).collect();
        assert_eq!(names, vec!["apple", "apricot"]);
    }

    #[test]
    fn like_basics() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(like_match("a%", "abc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("%b%", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "x"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
    }

    #[test]
    fn like_backtracking() {
        assert!(like_match("%ab%ab%", "xxabyyabzz"));
        assert!(!like_match("%ab%ab%", "xxabyy"));
        assert!(like_match("a%b%c", "a123b456c"));
        assert!(!like_match("a%b%c", "a123c456b"));
    }

    #[test]
    fn iter_in_code_order() {
        let mut d = Dictionary::new();
        d.intern("z");
        d.intern("a");
        let pairs: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "z"), (1, "a")]);
    }

    #[test]
    fn loading_sized_allocates_no_more() {
        let words: Vec<_> = (0..300).map(|i| format!("w{i}")).collect();
        let bytes = words.iter().map(String::len).sum();
        let mut d = Dictionary::with_capacity(words.len(), bytes);
        let before = (d.bytes.as_ptr(), d.ends.as_ptr(), d.slots.as_ptr());
        for (c, w) in words.iter().enumerate() {
            assert_eq!(d.intern(w), c as u32);
        }
        assert_eq!(
            (d.bytes.as_ptr(), d.ends.as_ptr(), d.slots.as_ptr()),
            before
        );
        assert_eq!(d.byte_size(), bytes + 300 * 4 + 1024 * 4);
    }
}
