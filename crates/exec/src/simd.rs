//! Explicit-SIMD inner loops for the compiled engine's hottest kernels.
//!
//! The paper's CPU-efficiency argument is about what the innermost scan
//! loop does per tuple. This module widens that loop: predicate evaluation
//! and the fused filter+aggregate kernels process the immutable main store
//! in fixed-size chunks, as
//!
//! * a **chunked scalar** baseline — branch-free, autovectorization
//!   friendly, bit-identical to the row-at-a-time loops on every platform,
//!   and
//! * an `unsafe` **x86_64 SSE2/AVX2** path behind runtime feature
//!   detection, used only when the column is densely packed
//!   (`TypedCol::as_slice`, i.e. the column lives alone in its partition).
//!
//! Only integer comparisons and integer sums go wide: integer addition is
//! associative, so chunk-reordered accumulation is exactly the scalar
//! result. Float aggregation, tombstoned regions, and the decoded delta
//! tail keep the scalar path — that is what keeps every engine
//! byte-identical (the same reasoning `pdsm-par` applies to
//! float-sensitive aggregates).
//!
//! The `PDSM_SIMD` knob selects the dispatch (`auto` | `scalar`); global
//! counters record engaged SIMD vs scalar chunks and scanned vs
//! zone-pruned blocks so benches and CI can assert the fast path actually
//! ran (surfaced as `Database::scan_stats()`).

use pdsm_plan::expr::CmpOp;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// How wide kernels are dispatched (the `PDSM_SIMD` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Runtime feature detection; wide path when the data allows it.
    Auto,
    /// Chunked scalar only — the differential-testing baseline.
    Scalar,
}

impl SimdMode {
    fn parse(s: &str) -> Option<SimdMode> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(SimdMode::Auto),
            "scalar" => Some(SimdMode::Scalar),
            _ => None,
        }
    }
}

/// Process-wide programmatic override (tests, benches): 0 = none.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Override the `PDSM_SIMD` environment knob for this process. `None`
/// restores environment dispatch. Benches use this to compare scalar and
/// wide kernels in one process without mutating the environment.
pub fn set_mode_override(mode: Option<SimdMode>) {
    let v = match mode {
        None => 0,
        Some(SimdMode::Auto) => 1,
        Some(SimdMode::Scalar) => 2,
    };
    MODE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The active dispatch mode: programmatic override, else `PDSM_SIMD`,
/// else `auto`. Unrecognized values fall back to `auto`.
pub fn mode() -> SimdMode {
    match MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => return SimdMode::Auto,
        2 => return SimdMode::Scalar,
        _ => {}
    }
    std::env::var("PDSM_SIMD")
        .ok()
        .and_then(|s| SimdMode::parse(&s))
        .unwrap_or(SimdMode::Auto)
}

/// Is the wide path allowed and available?
pub fn wide_enabled(mode: SimdMode) -> bool {
    match mode {
        SimdMode::Scalar => false,
        SimdMode::Auto => cfg!(target_arch = "x86_64"),
    }
}

// ---------------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------------

static SIMD_CHUNKS: AtomicU64 = AtomicU64::new(0);
static SCALAR_CHUNKS: AtomicU64 = AtomicU64::new(0);
static BLOCKS_SCANNED: AtomicU64 = AtomicU64::new(0);
static BLOCKS_PRUNED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide scan counters (`Database::scan_stats()`).
/// "Partitions" are the zone blocks of `pdsm_storage::zonemap` — the
/// horizontal row ranges a scan can skip; a "chunk" is one vectorized
/// inner-loop block (64 rows for predicate masks, [`CHUNK_ROWS`] for the
/// fused kernels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Chunks processed by the wide (SSE2/AVX2) path.
    pub simd_chunks: u64,
    /// Chunks processed by the chunked-scalar path.
    pub scalar_chunks: u64,
    /// Zone blocks entered by scans.
    pub partitions_scanned: u64,
    /// Zone blocks skipped entirely via zone-map refutation.
    pub partitions_pruned: u64,
}

/// Read the counters.
pub fn scan_counters() -> ScanCounters {
    ScanCounters {
        simd_chunks: SIMD_CHUNKS.load(Ordering::Relaxed),
        scalar_chunks: SCALAR_CHUNKS.load(Ordering::Relaxed),
        partitions_scanned: BLOCKS_SCANNED.load(Ordering::Relaxed),
        partitions_pruned: BLOCKS_PRUNED.load(Ordering::Relaxed),
    }
}

/// Zero the counters (benches and tests bracket runs with this).
pub fn reset_scan_counters() {
    SIMD_CHUNKS.store(0, Ordering::Relaxed);
    SCALAR_CHUNKS.store(0, Ordering::Relaxed);
    BLOCKS_SCANNED.store(0, Ordering::Relaxed);
    BLOCKS_PRUNED.store(0, Ordering::Relaxed);
}

/// Batched chunk tally — kernels accumulate locally and flush once per
/// call so the hot loops never touch shared cache lines.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChunkStats {
    pub simd: u64,
    pub scalar: u64,
}

impl ChunkStats {
    pub fn flush(self) {
        if self.simd != 0 {
            SIMD_CHUNKS.fetch_add(self.simd, Ordering::Relaxed);
        }
        if self.scalar != 0 {
            SCALAR_CHUNKS.fetch_add(self.scalar, Ordering::Relaxed);
        }
    }
}

/// Record zone blocks entered / skipped by one scan.
pub fn note_blocks(scanned: u64, pruned: u64) {
    if scanned != 0 {
        BLOCKS_SCANNED.fetch_add(scanned, Ordering::Relaxed);
    }
    if pruned != 0 {
        BLOCKS_PRUNED.fetch_add(pruned, Ordering::Relaxed);
    }
}

/// Rows per fused-kernel chunk (the 128–1024 band the cache hierarchy
/// favors; also the unit [`ScanCounters`] tallies for the fused kernels).
pub const CHUNK_ROWS: usize = 256;

// ---------------------------------------------------------------------------
// predicate normalization
// ---------------------------------------------------------------------------

/// An `i32`-domain comparison, normalized from the kernel's `i64` literal.
/// Literals outside the `i32` range make the predicate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormCmp {
    Never,
    Always,
    Cmp(CmpOp, i32),
}

/// Normalize `x as i64 OP v` (x an `i32`) into the `i32` domain.
pub fn normalize_i32_cmp(op: CmpOp, v: i64) -> NormCmp {
    if let Ok(v32) = i32::try_from(v) {
        return NormCmp::Cmp(op, v32);
    }
    let above = v > i32::MAX as i64;
    match op {
        CmpOp::Eq => NormCmp::Never,
        CmpOp::Ne => NormCmp::Always,
        CmpOp::Lt | CmpOp::Le => {
            if above {
                NormCmp::Always
            } else {
                NormCmp::Never
            }
        }
        CmpOp::Gt | CmpOp::Ge => {
            if above {
                NormCmp::Never
            } else {
                NormCmp::Always
            }
        }
    }
}

#[inline(always)]
fn cmp_i32(x: i32, op: CmpOp, v: i32) -> bool {
    match op {
        CmpOp::Eq => x == v,
        CmpOp::Ne => x != v,
        CmpOp::Lt => x < v,
        CmpOp::Le => x <= v,
        CmpOp::Gt => x > v,
        CmpOp::Ge => x >= v,
    }
}

#[inline(always)]
fn cmp_i64(x: i64, op: CmpOp, v: i64) -> bool {
    match op {
        CmpOp::Eq => x == v,
        CmpOp::Ne => x != v,
        CmpOp::Lt => x < v,
        CmpOp::Le => x <= v,
        CmpOp::Gt => x > v,
        CmpOp::Ge => x >= v,
    }
}

// ---------------------------------------------------------------------------
// predicate masks (≤ 64 rows per call)
// ---------------------------------------------------------------------------

/// Evaluate `data[j] OP v` for `j < data.len() (≤ 64)`; bit `j` of the
/// result is the verdict. Dispatches to AVX2/SSE2 when allowed.
pub fn mask_i32(data: &[i32], op: CmpOp, v: i64, wide: bool, stats: &mut ChunkStats) -> u64 {
    debug_assert!(data.len() <= 64);
    let (op, v32) = match normalize_i32_cmp(op, v) {
        NormCmp::Never => return 0,
        NormCmp::Always => return ones(data.len()),
        NormCmp::Cmp(op, v32) => (op, v32),
    };
    #[cfg(target_arch = "x86_64")]
    if wide {
        stats.simd += 1;
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence just checked.
            return unsafe { mask_i32_avx2(data, op, v32) };
        }
        // SAFETY: SSE2 is baseline on x86_64.
        return unsafe { mask_i32_sse2(data, op, v32) };
    }
    let _ = wide;
    stats.scalar += 1;
    let mut m = 0u64;
    for (j, &x) in data.iter().enumerate() {
        m |= (cmp_i32(x, op, v32) as u64) << j;
    }
    m
}

/// `i64` variant of [`mask_i32`]. Goes wide only under AVX2 (SSE2 lacks
/// 64-bit compares).
pub fn mask_i64(data: &[i64], op: CmpOp, v: i64, wide: bool, stats: &mut ChunkStats) -> u64 {
    debug_assert!(data.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if wide && std::arch::is_x86_feature_detected!("avx2") {
        stats.simd += 1;
        // SAFETY: AVX2 presence just checked.
        return unsafe { mask_i64_avx2(data, op, v) };
    }
    let _ = wide;
    stats.scalar += 1;
    let mut m = 0u64;
    for (j, &x) in data.iter().enumerate() {
        m |= (cmp_i64(x, op, v) as u64) << j;
    }
    m
}

/// The all-ones mask of `len` bits.
#[inline(always)]
pub fn ones(len: usize) -> u64 {
    debug_assert!(len <= 64);
    if len == 64 {
        !0
    } else {
        (1u64 << len) - 1
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_i32_avx2(data: &[i32], op: CmpOp, v: i32) -> u64 {
    use std::arch::x86_64::*;
    let vv = _mm256_set1_epi32(v);
    let mut m = 0u64;
    let mut j = 0;
    while j + 8 <= data.len() {
        let x = _mm256_loadu_si256(data.as_ptr().add(j) as *const __m256i);
        let hit = match op {
            CmpOp::Eq => _mm256_cmpeq_epi32(x, vv),
            CmpOp::Ne => not256(_mm256_cmpeq_epi32(x, vv)),
            CmpOp::Gt => _mm256_cmpgt_epi32(x, vv),
            CmpOp::Le => not256(_mm256_cmpgt_epi32(x, vv)),
            CmpOp::Lt => _mm256_cmpgt_epi32(vv, x),
            CmpOp::Ge => not256(_mm256_cmpgt_epi32(vv, x)),
        };
        let bits = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32 as u64;
        m |= bits << j;
        j += 8;
    }
    for (k, &x) in data.iter().enumerate().skip(j) {
        m |= (cmp_i32(x, op, v) as u64) << k;
    }
    m
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn not256(x: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    _mm256_xor_si256(x, _mm256_set1_epi32(-1))
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn mask_i32_sse2(data: &[i32], op: CmpOp, v: i32) -> u64 {
    use std::arch::x86_64::*;
    let vv = _mm_set1_epi32(v);
    let not = |x| _mm_xor_si128(x, _mm_set1_epi32(-1));
    let mut m = 0u64;
    let mut j = 0;
    while j + 4 <= data.len() {
        let x = _mm_loadu_si128(data.as_ptr().add(j) as *const __m128i);
        let hit = match op {
            CmpOp::Eq => _mm_cmpeq_epi32(x, vv),
            CmpOp::Ne => not(_mm_cmpeq_epi32(x, vv)),
            CmpOp::Gt => _mm_cmpgt_epi32(x, vv),
            CmpOp::Le => not(_mm_cmpgt_epi32(x, vv)),
            CmpOp::Lt => _mm_cmplt_epi32(x, vv),
            CmpOp::Ge => not(_mm_cmplt_epi32(x, vv)),
        };
        let bits = _mm_movemask_ps(_mm_castsi128_ps(hit)) as u32 as u64;
        m |= bits << j;
        j += 4;
    }
    for (k, &x) in data.iter().enumerate().skip(j) {
        m |= (cmp_i32(x, op, v) as u64) << k;
    }
    m
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mask_i64_avx2(data: &[i64], op: CmpOp, v: i64) -> u64 {
    use std::arch::x86_64::*;
    let vv = _mm256_set1_epi64x(v);
    let mut m = 0u64;
    let mut j = 0;
    while j + 4 <= data.len() {
        let x = _mm256_loadu_si256(data.as_ptr().add(j) as *const __m256i);
        let hit = match op {
            CmpOp::Eq => _mm256_cmpeq_epi64(x, vv),
            CmpOp::Ne => not256(_mm256_cmpeq_epi64(x, vv)),
            CmpOp::Gt => _mm256_cmpgt_epi64(x, vv),
            CmpOp::Le => not256(_mm256_cmpgt_epi64(x, vv)),
            CmpOp::Lt => _mm256_cmpgt_epi64(vv, x),
            CmpOp::Ge => not256(_mm256_cmpgt_epi64(vv, x)),
        };
        let bits = _mm256_movemask_pd(_mm256_castsi256_pd(hit)) as u32 as u64;
        m |= bits << j;
        j += 4;
    }
    for (k, &x) in data.iter().enumerate().skip(j) {
        m |= (cmp_i64(x, op, v) as u64) << k;
    }
    m
}

// ---------------------------------------------------------------------------
// fused filter + sum (the Fig. 2c inner loop)
// ---------------------------------------------------------------------------

/// Fused filter-count / filter-sum over densely packed `i32` columns:
/// returns the number of rows of `pred` satisfying `OP v` and adds each
/// qualifying row's `aggs[k]` value into `sums[k]`. All slices share
/// indexing (`aggs[k].len() == pred.len()`). Masked integer adds make the
/// wide path exactly the scalar result in any chunk order.
pub fn fused_filter_sum_i32(
    pred: &[i32],
    op: CmpOp,
    v: i64,
    aggs: &[&[i32]],
    sums: &mut [i64],
    wide: bool,
    stats: &mut ChunkStats,
) -> u64 {
    debug_assert_eq!(aggs.len(), sums.len());
    debug_assert!(aggs.iter().all(|a| a.len() == pred.len()));
    let chunks = pred.len().div_ceil(CHUNK_ROWS).max(1) as u64;
    let (op, v32) = match normalize_i32_cmp(op, v) {
        NormCmp::Never => {
            stats.scalar += 1;
            return 0;
        }
        NormCmp::Always => {
            stats.scalar += chunks;
            for (s, a) in sums.iter_mut().zip(aggs) {
                *s += a.iter().map(|&x| x as i64).sum::<i64>();
            }
            return pred.len() as u64;
        }
        NormCmp::Cmp(op, v32) => (op, v32),
    };
    #[cfg(target_arch = "x86_64")]
    if wide {
        stats.simd += chunks;
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence just checked.
            return unsafe { fused_avx2(pred, op, v32, aggs, sums) };
        }
        // SAFETY: SSE2 is baseline on x86_64.
        return unsafe { fused_sse2(pred, op, v32, aggs, sums) };
    }
    let _ = wide;
    stats.scalar += chunks;
    fused_scalar(pred, op, v32, aggs, sums)
}

/// The chunked, branch-free scalar baseline: the qualifying mask becomes a
/// 0/−1 multiplier, so the loop has no data-dependent branches and the
/// compiler is free to autovectorize it.
fn fused_scalar(pred: &[i32], op: CmpOp, v: i32, aggs: &[&[i32]], sums: &mut [i64]) -> u64 {
    let mut hits = 0u64;
    match aggs {
        [] => {
            for &x in pred {
                hits += cmp_i32(x, op, v) as u64;
            }
        }
        [a] => {
            let (mut h, mut s) = (0u64, sums[0]);
            for (&x, &y) in pred.iter().zip(a.iter()) {
                let m = cmp_i32(x, op, v) as i64; // 0 or 1
                h += m as u64;
                s += m * y as i64;
            }
            hits = h;
            sums[0] = s;
        }
        _ => {
            for (i, &x) in pred.iter().enumerate() {
                let m = cmp_i32(x, op, v) as i64;
                hits += m as u64;
                for (s, a) in sums.iter_mut().zip(aggs) {
                    *s += m * a[i] as i64;
                }
            }
        }
    }
    hits
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fused_avx2(pred: &[i32], op: CmpOp, v: i32, aggs: &[&[i32]], sums: &mut [i64]) -> u64 {
    use std::arch::x86_64::*;
    let vv = _mm256_set1_epi32(v);
    let mut hits = 0u64;
    // One 4×i64 accumulator per aggregate column (≤ 8 in practice; spill
    // to a heap vec beyond a small stack arity is not worth the bother).
    let mut accs = vec![_mm256_setzero_si256(); aggs.len()];
    let n8 = pred.len() - pred.len() % 8;
    let mut i = 0;
    while i < n8 {
        let x = _mm256_loadu_si256(pred.as_ptr().add(i) as *const __m256i);
        let hit = match op {
            CmpOp::Eq => _mm256_cmpeq_epi32(x, vv),
            CmpOp::Ne => not256(_mm256_cmpeq_epi32(x, vv)),
            CmpOp::Gt => _mm256_cmpgt_epi32(x, vv),
            CmpOp::Le => not256(_mm256_cmpgt_epi32(x, vv)),
            CmpOp::Lt => _mm256_cmpgt_epi32(vv, x),
            CmpOp::Ge => not256(_mm256_cmpgt_epi32(vv, x)),
        };
        let bits = _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32;
        hits += bits.count_ones() as u64;
        if bits != 0 {
            for (k, a) in aggs.iter().enumerate() {
                let y = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
                let ym = _mm256_and_si256(y, hit); // losers become 0
                let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(ym));
                let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(ym, 1));
                accs[k] = _mm256_add_epi64(accs[k], _mm256_add_epi64(lo, hi));
            }
        }
        i += 8;
    }
    for (k, acc) in accs.iter().enumerate() {
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, *acc);
        sums[k] += lanes.iter().sum::<i64>();
    }
    if n8 < pred.len() {
        hits += fused_scalar(&pred[n8..], op, v, &tails(aggs, n8), &mut sums[..]);
    }
    hits
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn fused_sse2(pred: &[i32], op: CmpOp, v: i32, aggs: &[&[i32]], sums: &mut [i64]) -> u64 {
    use std::arch::x86_64::*;
    let vv = _mm_set1_epi32(v);
    let not = |x| _mm_xor_si128(x, _mm_set1_epi32(-1));
    let mut hits = 0u64;
    let mut accs = vec![_mm_setzero_si128(); aggs.len()];
    let n4 = pred.len() - pred.len() % 4;
    let mut i = 0;
    while i < n4 {
        let x = _mm_loadu_si128(pred.as_ptr().add(i) as *const __m128i);
        let hit = match op {
            CmpOp::Eq => _mm_cmpeq_epi32(x, vv),
            CmpOp::Ne => not(_mm_cmpeq_epi32(x, vv)),
            CmpOp::Gt => _mm_cmpgt_epi32(x, vv),
            CmpOp::Le => not(_mm_cmpgt_epi32(x, vv)),
            CmpOp::Lt => _mm_cmplt_epi32(x, vv),
            CmpOp::Ge => not(_mm_cmplt_epi32(x, vv)),
        };
        let bits = _mm_movemask_ps(_mm_castsi128_ps(hit)) as u32;
        hits += bits.count_ones() as u64;
        if bits != 0 {
            for (k, a) in aggs.iter().enumerate() {
                let y = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
                let ym = _mm_and_si128(y, hit);
                // Sign-extend the four masked i32 lanes into 2×2 i64 lanes.
                let sign = _mm_srai_epi32::<31>(ym);
                let lo = _mm_unpacklo_epi32(ym, sign);
                let hi = _mm_unpackhi_epi32(ym, sign);
                accs[k] = _mm_add_epi64(accs[k], _mm_add_epi64(lo, hi));
            }
        }
        i += 4;
    }
    for (k, acc) in accs.iter().enumerate() {
        let mut lanes = [0i64; 2];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, *acc);
        sums[k] += lanes[0] + lanes[1];
    }
    if n4 < pred.len() {
        hits += fused_scalar(&pred[n4..], op, v, &tails(aggs, n4), &mut sums[..]);
    }
    hits
}

#[cfg(target_arch = "x86_64")]
fn tails<'a>(aggs: &[&'a [i32]], from: usize) -> Vec<&'a [i32]> {
    aggs.iter().map(|a| &a[from..]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_mask(data: &[i32], op: CmpOp, v: i64) -> u64 {
        let mut m = 0u64;
        for (j, &x) in data.iter().enumerate() {
            if op.matches((x as i64).cmp(&v)) {
                m |= 1 << j;
            }
        }
        m
    }

    fn ref_fused(pred: &[i32], op: CmpOp, v: i64, aggs: &[&[i32]]) -> (u64, Vec<i64>) {
        let mut hits = 0u64;
        let mut sums = vec![0i64; aggs.len()];
        for (i, &x) in pred.iter().enumerate() {
            if op.matches((x as i64).cmp(&v)) {
                hits += 1;
                for (s, a) in sums.iter_mut().zip(aggs) {
                    *s += a[i] as i64;
                }
            }
        }
        (hits, sums)
    }

    fn ops() -> [CmpOp; 6] {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]
    }

    /// Deterministic pseudo-random i32s (SplitMix-ish).
    fn gen(n: usize, seed: u64, span: i32) -> Vec<i32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 27;
                (z as i32) % span
            })
            .collect()
    }

    #[test]
    fn masks_agree_with_reference_all_ops_and_lengths() {
        let mut stats = ChunkStats::default();
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 31, 33, 63, 64] {
            let data = gen(len, len as u64 + 1, 50);
            for op in ops() {
                for v in [-3i64, 0, 7, 49, i32::MAX as i64 + 5, i32::MIN as i64 - 5] {
                    let want = ref_mask(&data, op, v);
                    for wide in [false, true] {
                        assert_eq!(
                            mask_i32(&data, op, v, wide, &mut stats),
                            want,
                            "i32 len={len} op={op:?} v={v} wide={wide}"
                        );
                    }
                    let data64: Vec<i64> = data.iter().map(|&x| x as i64).collect();
                    let mut want64 = 0u64;
                    for (j, &x) in data64.iter().enumerate() {
                        if op.matches(x.cmp(&v)) {
                            want64 |= 1 << j;
                        }
                    }
                    for wide in [false, true] {
                        assert_eq!(
                            mask_i64(&data64, op, v, wide, &mut stats),
                            want64,
                            "i64 len={len} op={op:?} v={v} wide={wide}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_agrees_with_reference_across_tail_lengths_and_arities() {
        let mut stats = ChunkStats::default();
        for len in [0usize, 1, 5, 8, 17, 64, 255, 256, 1000, 1024] {
            let pred = gen(len, 42, 10);
            let a = gen(len, 43, 1000);
            let b = gen(len, 44, 1000);
            let c: Vec<i32> = gen(len, 45, 2).iter().map(|&x| x * i32::MAX).collect();
            for op in ops() {
                for v in [0i64, 4, 9, i32::MAX as i64 + 1] {
                    for aggs in [vec![], vec![&a[..]], vec![&a[..], &b[..], &c[..]]] {
                        let (want_hits, want_sums) = ref_fused(&pred, op, v, &aggs);
                        for wide in [false, true] {
                            let mut sums = vec![0i64; aggs.len()];
                            let hits = fused_filter_sum_i32(
                                &pred, op, v, &aggs, &mut sums, wide, &mut stats,
                            );
                            assert_eq!(hits, want_hits, "len={len} op={op:?} v={v} wide={wide}");
                            assert_eq!(sums, want_sums, "len={len} op={op:?} v={v} wide={wide}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_accumulates_on_top_of_existing_sums() {
        let pred = vec![1i32; 100];
        let a = vec![2i32; 100];
        let mut stats = ChunkStats::default();
        for wide in [false, true] {
            let mut sums = vec![10i64];
            let hits =
                fused_filter_sum_i32(&pred, CmpOp::Eq, 1, &[&a[..]], &mut sums, wide, &mut stats);
            assert_eq!(hits, 100);
            assert_eq!(sums, vec![210]);
        }
    }

    #[test]
    fn mode_parse_and_override() {
        assert_eq!(SimdMode::parse("auto"), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse("SCALAR"), Some(SimdMode::Scalar));
        assert_eq!(SimdMode::parse("forced"), None);
        assert_eq!(SimdMode::parse("bogus"), None);
        set_mode_override(Some(SimdMode::Scalar));
        assert_eq!(mode(), SimdMode::Scalar);
        assert!(!wide_enabled(mode()));
        set_mode_override(None);
    }

    #[test]
    fn counters_tick_and_reset() {
        reset_scan_counters();
        let mut stats = ChunkStats::default();
        let data = gen(64, 7, 100);
        let _ = mask_i32(&data, CmpOp::Lt, 50, false, &mut stats);
        let _ = mask_i32(
            &data,
            CmpOp::Lt,
            50,
            cfg!(target_arch = "x86_64"),
            &mut stats,
        );
        stats.flush();
        note_blocks(3, 5);
        let c = scan_counters();
        assert!(c.scalar_chunks >= 1);
        #[cfg(target_arch = "x86_64")]
        assert!(c.simd_chunks >= 1);
        assert_eq!(c.partitions_scanned, 3);
        assert_eq!(c.partitions_pruned, 5);
        reset_scan_counters();
        assert_eq!(scan_counters(), ScanCounters::default());
    }
}
