//! CRC-32 (IEEE 802.3): the one checksum behind every durable byte in the
//! workspace — checkpoint headers and extent payloads here, WAL records
//! and the MANIFEST in `pdsm-store` (which re-exports [`crc32`]).
//!
//! Two kernels compute it, picked per call at run time the way
//! `pdsm-exec`'s SIMD kernels pick their level:
//!
//! * **portable slicing-by-16** — sixteen 256-entry tables, sixteen input
//!   bytes per step, on every platform;
//! * **carry-less-multiply folding** on x86_64 CPUs with PCLMULQDQ and
//!   SSE4.1 (Gopal et al., "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction", Intel 2009): four 128-bit lanes fold 64
//!   bytes per step, then a Barrett reduction; the tail under 16 bytes
//!   goes through the portable kernel.
//!
//! Both return the same value for every input, so nothing on disk records
//! which one ran. Every table and folding constant is derived from
//! [`POLY`] at compile time.

/// The reflected polynomial `x^32 + x^26 + … + 1`.
const POLY: u32 = 0xEDB8_8320;

/// CRC-32 of `bytes`: reflected polynomial `0xEDB8_8320`, initial value
/// and final XOR `0xFFFF_FFFF`. Uses the folding kernel when the CPU has
/// PCLMULQDQ and SSE4.1 and the input spans at least one 64-byte fold,
/// slicing-by-16 otherwise; both produce the same output.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A CRC-32 fed its bytes in pieces, for a writer that streams what it
/// checksums: after [`Crc32::update`] with each piece in order,
/// [`Crc32::finish`] equals [`crc32`] of their concatenation. Each piece
/// goes through the same kernel choice as [`crc32`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    /// The register, before the final XOR.
    reg: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Crc32 { reg: !0 }
    }

    /// Advance over the next piece.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= fold::MIN_LEN && fold::available() {
            // SAFETY: `available` confirmed the CPU features `update` enables.
            self.reg = unsafe { fold::update(self.reg, bytes) };
            return;
        }
        self.reg = slice16(self.reg, bytes);
    }

    /// The checksum of every piece so far.
    pub fn finish(self) -> u32 {
        !self.reg
    }
}

/// `TABLES[k][b]`: the register after byte `b` and then `k` zero bytes.
static TABLES: [[u32; 256]; 16] = slice_tables();

const fn slice_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        // Eight shifts of byte `b` alone: x^32 · b(x) mod P(x).
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Advance register `crc` over `bytes`, sixteen bytes per table step.
fn slice16(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{slice16, POLY};
    use std::arch::x86_64::*;

    /// The shortest input the folding kernel takes: four 128-bit lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// The CRC register of `x^n mod P(x)`, bit-reflected: `x^0` is bit 31.
    const fn xpow_mod(n: u32) -> u32 {
        let mut v = 1u32 << 31;
        let mut i = 0;
        while i < n {
            v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
            i += 1;
        }
        v
    }

    /// Fold constants `(x^n mod P(x))'` shifted left by one, the form the
    /// reflected carry-less product expects. `n` is the fold distance in
    /// bits plus or minus 32.
    const fn k(n: u32) -> i64 {
        (xpow_mod(n) as i64) << 1
    }
    /// Fold four lanes across 512 bits.
    const K1: i64 = k(4 * 128 + 32);
    const K2: i64 = k(4 * 128 - 32);
    /// Fold one lane across 128 bits.
    const K3: i64 = k(128 + 32);
    const K4: i64 = k(128 - 32);
    /// Reduce 96 bits to 64.
    const K5: i64 = k(64);
    /// `P(x)'`, all 33 coefficients.
    const P_X: i64 = ((POLY as i64) << 1) | 1;
    /// `(x^64 / P(x))'`: Barrett's quotient, 33 coefficients.
    const MU: i64 = {
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        let mut i = 64;
        while i >= 32 {
            if (rem >> i) & 1 != 0 {
                rem ^= p << (i - 32);
                q |= 1 << (i - 32);
            }
            i -= 1;
        }
        (q.reverse_bits() >> 31) as i64
    };

    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Advance register `crc` over `bytes` by carry-less-multiply folding.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`available`]), and
    /// `bytes.len()` must be at least [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= MIN_LEN, "folding needs four lanes");
        let mut chunks = bytes.chunks_exact(16);
        // SAFETY: every chunk is exactly 16 bytes, and `loadu` takes any
        // alignment.
        let mut next = || unsafe { _mm_loadu_si128(chunks.next().unwrap().as_ptr().cast()) };
        let mut x3 = _mm_xor_si128(next(), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = next();
        let mut x1 = next();
        let mut x0 = next();
        let mut left = bytes.len() / 16 - 4;

        let k1k2 = _mm_set_epi64x(K2, K1);
        while left >= 4 {
            x3 = fold_lane(x3, next(), k1k2);
            x2 = fold_lane(x2, next(), k1k2);
            x1 = fold_lane(x1, next(), k1k2);
            x0 = fold_lane(x0, next(), k1k2);
            left -= 4;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_lane(x3, x2, k3k4);
        x = fold_lane(x, x1, k3k4);
        x = fold_lane(x, x0, k3k4);
        for _ in 0..left {
            x = fold_lane(x, next(), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits, reflected: the register is the
        // high half of the low 64 bits.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        slice16(reg, &bytes[bytes.len() / 16 * 16..])
    }

    /// `acc · k` folded onto `next`: the low lane by `k`'s low half, the
    /// high lane by its high half.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one byte per step and one shift per bit, with no
    /// table: what every kernel must reproduce.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes starting `skew` bytes past a 16-byte
    /// boundary.
    fn skewed(len: usize, skew: usize, seed: u64) -> (Vec<u8>, usize) {
        let mut state = seed;
        let buf: Vec<u8> = (0..len + skew + 16)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        let from = buf.as_ptr().align_offset(16) + skew;
        (buf, from)
    }

    /// Both kernels, each called directly, against the definition.
    fn assert_kernels_match(data: &[u8]) {
        let want = bytewise(data);
        assert_eq!(
            !slice16(!0, data),
            want,
            "slicing-by-16, len {}",
            data.len()
        );
        #[cfg(target_arch = "x86_64")]
        if data.len() >= fold::MIN_LEN && fold::available() {
            // SAFETY: `available` confirmed the features; the length is
            // checked above.
            let got = !unsafe { fold::update(!0, data) };
            assert_eq!(got, want, "folding, len {}", data.len());
        }
        assert_eq!(crc32(data), want);
    }

    #[test]
    fn crc_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernels_match_the_bytewise_definition(
            len in 0usize..=4096,
            skew in 0usize..16,
            seed in any::<u64>(),
        ) {
            let (buf, from) = skewed(len, skew, seed);
            assert_kernels_match(&buf[from..from + len]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any split into pieces, each short enough for either kernel,
        /// checksums like the whole.
        #[test]
        fn pieces_checksum_like_the_whole(
            len in 0usize..=1024,
            cuts in proptest::collection::vec(0usize..=1024, 0..6),
            seed in any::<u64>(),
        ) {
            let (buf, from) = skewed(len, 3, seed);
            let data = &buf[from..from + len];
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                crc.update(&data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(crc.finish(), bytewise(data));
        }
    }

    #[test]
    fn a_mebibyte_at_every_misalignment() {
        for skew in 0..16 {
            let (buf, from) = skewed(1 << 20, skew, skew as u64);
            assert_kernels_match(&buf[from..from + (1 << 20)]);
        }
    }
}
