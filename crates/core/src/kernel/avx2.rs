//! AVX2 production kernels.
//!
//! The materialization of the paper's Figure 3 tile on x86: one `PSHUFB`
//! performs 32 table lookups, results accumulate in `i16`, and each scale
//! block folds into `f32` output accumulators with two FMAs (its half
//! scales widened by `vcvtph2ps` on load). Each Figure 10 rung maps to a
//! kernel, so every plan has one here:
//!
//! | rung | kernel |
//! |---|---|
//! | T-MAC (paired stream) | `mtile_paired_bits<BITS>` |
//! | T-MAC, multi-row | `gemm_mtile_bits<BITS>` |
//! | `+Perm.` (sequential stream) | `mtile_permuted` |
//! | `+TQ` (flat, `i8` tables) | `mtile_flat_quant` |
//! | TM-base (flat, `f32` tables) | `mtile_flat_gather` |
//!
//! # The paired inner loop
//!
//! The paired stream ([`crate::plan`], DESIGN.md §3b) puts a k-group pair
//! in the two 128-bit lanes and a bit-plane pair in adjacent bytes, so per
//! 32-byte weight load (64 lookups) the kernel issues `vpand`,
//! `vpsrlw`+`vpand`, **2 `vpshufb`** against one plain 32-byte table load,
//! **2 `vpmaddubsw`** against `(1, 2)` / `(4, 8)` — widening to `i16` *and*
//! applying the bit-serial weights — and 2 `vpaddw`: ≤ 11 uops, 2 on the
//! shuffle port (the sequential stream: 14 and 6). Integer sums are exact
//! and the `f32` fold is operation-for-operation the sequential kernel's.
//!
//! The table precompute has its AVX2 builder here too, [`build_block`].
//!
//! Everything here is `#[target_feature(enable = "avx2,fma,f16c")]`; the
//! driver runs it only under a kernel family that includes AVX2+FMA+F16C
//! (`Avx2` or `Avx512`, see `tmac_simd::Isa`). The `Avx512` family's `zmm` kernels
//! (`kernel::avx512`) share this module's stream geometry and prefetch.

#![allow(clippy::needless_range_loop)] // Index loops follow the kernel structure.

use crate::opts::{LUT_GROUP, TILE_M};
use crate::plan::WeightPlan;
use crate::table::{self, ActTables, TABLE_LEN};
use std::arch::x86_64::*;
use std::ops::Range;
use tmac_simd::avx2 as simd;

/// The results of one m-tile for one activation row.
pub type Tile = [f32; TILE_M];

/// Maximum k-groups per scale block (`group_size / 4`) of the multi-row
/// sweep, which buffers a whole block.
pub const MAX_KG_PER_BLOCK: usize = 64;

/// Whether the multi-row mpGEMM kernel ([`gemm_mtile`]) serves this plan.
///
/// The kernel exists for the paired stream with scale blocks it can
/// buffer. The sequential/flat layouts and `f32` tables stay on the
/// per-row sweep.
pub fn gemm_supported(plan: &WeightPlan) -> bool {
    plan.opts().interleave() && plan.group_size / LUT_GROUP <= MAX_KG_PER_BLOCK
}

/// Executes one m-tile for row `r` of `tables`, dispatching to the right
/// monomorphized kernel.
///
/// # Safety
///
/// The caller must have verified that the host CPU supports AVX2, FMA and
/// F16C
/// (e.g. via `tmac_simd::Isa::available`).
#[target_feature(enable = "avx2,fma,f16c")]
pub fn gemv_mtile(plan: &WeightPlan, tables: &ActTables, r: usize, mt: usize, out: &mut Tile) {
    let opts = plan.opts();
    debug_assert_eq!(tables.quantized, opts.table_quant());
    if opts.interleave() {
        for_bits!(plan.bits, mtile_paired_bits(plan, tables, r, mt, out));
    } else if opts.permute() {
        mtile_permuted(plan, tables, r, mt, out);
    } else if tables.quantized {
        mtile_flat_quant(plan, tables, r, mt, out);
    } else {
        mtile_flat_gather(plan, tables, r, mt, out);
    }
}

/// Executes one m-tile for the rows `rows` of `tables` on the kernel the
/// plan and the row count call for: `outs` receives the row-major
/// `rows.len() × TILE_M` results.
///
/// Several rows of a plan with a multi-row kernel ([`gemm_supported`]) take
/// [`gemm_mtile`]. One row — a decode step, which streams every weight once
/// and has nothing to amortize a decoded block over — and plans without a
/// multi-row kernel take [`gemv_mtile`] per row (the weight tile is re-read
/// from cache for each). Row for row the two are bit-identical, so the
/// choice never shows in the result.
///
/// # Safety
///
/// The caller must have verified AVX2+FMA+F16C support (e.g. via
/// `tmac_simd::Isa::available`).
///
/// # Panics
///
/// Panics if `outs` is shorter than `rows.len() × TILE_M`.
#[target_feature(enable = "avx2,fma,f16c")]
pub fn mtile(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    mt: usize,
    outs: &mut [f32],
) {
    if rows.len() > 1 && gemm_supported(plan) {
        return gemm_mtile(plan, tables, rows, mt, outs);
    }
    assert!(outs.len() >= rows.len() * TILE_M, "outs too short");
    for (r, out) in rows.zip(outs.chunks_exact_mut(TILE_M)) {
        gemv_mtile(plan, tables, r, mt, out.try_into().expect("TILE_M floats"));
    }
}

/// Loads the 16-entry table at `base`, duplicated into both lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn load_table(tables: &[i8], base: usize) -> __m256i {
    let slice = &tables[base..base + 16];
    // SAFETY: `slice` is exactly 16 readable bytes; unaligned load allowed.
    _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(slice.as_ptr() as *const __m128i) })
}

/// Four f32 output accumulators covering the 32 tile rows.
#[derive(Clone, Copy)]
struct OutAcc(__m256, __m256, __m256, __m256);

impl OutAcc {
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    fn zero() -> Self {
        OutAcc(
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        )
    }

    /// `out += scales * (block * sc + bias)` — the per-scale-block fold,
    /// widening the 32 half `scales` as it loads them (4 × `vcvtph2ps`).
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    fn fold(&mut self, blk: &OutAcc, sc: __m256, bias: __m256, scales: &[u16]) {
        let t0 = _mm256_fmadd_ps(blk.0, sc, bias);
        let t1 = _mm256_fmadd_ps(blk.1, sc, bias);
        let t2 = _mm256_fmadd_ps(blk.2, sc, bias);
        let t3 = _mm256_fmadd_ps(blk.3, sc, bias);
        self.0 = _mm256_fmadd_ps(t0, simd::loadu_ph(&scales[0..]), self.0);
        self.1 = _mm256_fmadd_ps(t1, simd::loadu_ph(&scales[8..]), self.1);
        self.2 = _mm256_fmadd_ps(t2, simd::loadu_ph(&scales[16..]), self.2);
        self.3 = _mm256_fmadd_ps(t3, simd::loadu_ph(&scales[24..]), self.3);
    }

    /// Accumulates `weight * f32(acc_i16_pair)` into the block
    /// (row-linear accumulator layout: `.0` = rows 0..16, `.1` = 16..32).
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    fn add_weighted_i16(&mut self, acc: (__m256i, __m256i), weight: __m256) {
        let (f0, f1) = simd::i16_to_f32x2(acc.0);
        let (f2, f3) = simd::i16_to_f32x2(acc.1);
        self.0 = _mm256_fmadd_ps(weight, f0, self.0);
        self.1 = _mm256_fmadd_ps(weight, f1, self.1);
        self.2 = _mm256_fmadd_ps(weight, f2, self.2);
        self.3 = _mm256_fmadd_ps(weight, f3, self.3);
    }

    /// Accumulates `weight * f32(acc_i16_pair)` for the *paired* layout the
    /// `maddubs` accumulation produces: `.0` = rows [0..8 | 16..24], `.1` =
    /// rows [8..16 | 24..32].
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    fn add_weighted_i16_paired(&mut self, acc: (__m256i, __m256i), weight: __m256) {
        let (f0, f1) = simd::i16_to_f32x2(acc.0);
        let (f2, f3) = simd::i16_to_f32x2(acc.1);
        self.0 = _mm256_fmadd_ps(weight, f0, self.0);
        self.2 = _mm256_fmadd_ps(weight, f1, self.2);
        self.1 = _mm256_fmadd_ps(weight, f2, self.1);
        self.3 = _mm256_fmadd_ps(weight, f3, self.3);
    }

    /// Stores into a `TILE_M`-float slice prefix.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(&self, out: &mut [f32]) {
        simd::storeu_ps(&mut out[0..], self.0);
        simd::storeu_ps(&mut out[8..], self.1);
        simd::storeu_ps(&mut out[16..], self.2);
        simd::storeu_ps(&mut out[24..], self.3);
    }

    /// Resumes the accumulator from a partial-output row.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(src: &[f32]) -> Self {
        OutAcc(
            simd::loadu_ps(&src[0..]),
            simd::loadu_ps(&src[8..]),
            simd::loadu_ps(&src[16..]),
            simd::loadu_ps(&src[24..]),
        )
    }
}

/// Streaming kernel over the *sequential* permuted stream (the `+Perm.`
/// ablation stage, exact aggregation).
///
/// One step is 16 stream bytes: one (k-group, bit plane), rows `2j`/`2j+1`
/// per byte. Consecutive steps of a plane cover adjacent k-groups, so one
/// 256-bit load feeds two lookups — but the nibbles must be re-ordered
/// (`vpunpck*` + `vperm2i128`) before the lookup and the two results
/// byte-interleaved again so `maddubs(1, ·)` can widen them: 6 shuffle-port
/// uops per 64 lookups, the cost the paired stream removes. The paired
/// accumulator rows are [0..8 | 16..24] in `.0` and [8..16 | 24..32] in
/// `.1`; the fold stage un-permutes when converting to `f32`.
#[target_feature(enable = "avx2,fma,f16c")]
fn mtile_permuted(plan: &WeightPlan, tables: &ActTables, r: usize, mt: usize, out: &mut Tile) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    let stream = plan.mtile_stream(mt);
    let mut off = 0usize;
    let mut outacc = OutAcc::zero();
    // Worst-case |combined| = kgb * 127 * (2^bits - 1) must fit i16 for the
    // integer bit-serial combine; otherwise planes combine in f32 (exact).
    let i16_combine_safe = kgb as u32 * 127 * ((1u32 << bits) - 1) <= i16::MAX as u32;

    let table_for = |kg: usize| load_table(tables.q_tables(), tables.kg_offset(r, kg));
    let ones = _mm256_set1_epi8(1);
    for sb in 0..gpr {
        let kg0 = sb * kgb;
        let mut acc = [(_mm256_setzero_si256(), _mm256_setzero_si256()); 4];
        for acc_bit in acc.iter_mut().take(bits) {
            let mut kgi = 0;
            while kgi < kgb {
                let pair = kgi + 1 < kgb;
                let kg_a = kg0 + kgi;
                let (vals_a, vals_b);
                if pair {
                    // One 32-byte load covers k-groups `kg_a` and `kg_a+1`.
                    let raw2 = simd::loadu_256(&stream[off..]);
                    off += TILE_M;
                    let mask = _mm256_set1_epi8(0x0F);
                    let lo_nib = _mm256_and_si256(raw2, mask);
                    let hi_nib = _mm256_and_si256(_mm256_srli_epi16::<4>(raw2), mask);
                    // Lane 0 of lo/hi belongs to kg_a, lane 1 to kg_a+1.
                    let even_odd_lo = _mm256_unpacklo_epi8(lo_nib, hi_nib);
                    let even_odd_hi = _mm256_unpackhi_epi8(lo_nib, hi_nib);
                    let idx_a = _mm256_permute2x128_si256::<0x20>(even_odd_lo, even_odd_hi);
                    let idx_b = _mm256_permute2x128_si256::<0x31>(even_odd_lo, even_odd_hi);
                    vals_a = simd::tbl32(table_for(kg_a), idx_a);
                    vals_b = simd::tbl32(table_for(kg_a + 1), idx_b);
                    kgi += 2;
                } else {
                    let raw = simd::loadu_128(&stream[off..]);
                    off += TILE_M / 2;
                    let idx = simd::unpack_nibbles_sequential(raw);
                    vals_a = simd::tbl32(table_for(kg_a), idx);
                    vals_b = _mm256_setzero_si256();
                    kgi += 1;
                }
                // Byte-interleave the two lookups so each i16 lane holds one
                // row's pair sum.
                let inter_lo = _mm256_unpacklo_epi8(vals_a, vals_b);
                let inter_hi = _mm256_unpackhi_epi8(vals_a, vals_b);
                acc_bit.0 = _mm256_add_epi16(acc_bit.0, _mm256_maddubs_epi16(ones, inter_lo));
                acc_bit.1 = _mm256_add_epi16(acc_bit.1, _mm256_maddubs_epi16(ones, inter_hi));
            }
        }
        let mut blk = OutAcc::zero();
        if i16_combine_safe {
            let mut lo = acc[0].0;
            let mut hi = acc[0].1;
            for (bit, a) in acc.iter().enumerate().take(bits).skip(1) {
                let sh = bit as i32;
                lo = _mm256_add_epi16(lo, _mm256_sll_epi16(a.0, _mm_cvtsi32_si128(sh)));
                hi = _mm256_add_epi16(hi, _mm256_sll_epi16(a.1, _mm_cvtsi32_si128(sh)));
            }
            blk.add_weighted_i16_paired((lo, hi), _mm256_set1_ps(1.0));
        } else {
            for (bit, a) in acc.iter().enumerate().take(bits) {
                blk.add_weighted_i16_paired(*a, _mm256_set1_ps((1u32 << bit) as f32));
            }
        }
        let (q_scale, asum) = tables.block_scales(sb, r..r + 1);
        let sc = _mm256_set1_ps(0.5 * q_scale[0]);
        let bias = _mm256_set1_ps(plan.cz * asum[0]);
        outacc.fold(&blk, sc, bias, plan.tile_scales(mt, sb));
    }
    outacc.store(out);
}

/// Look-ahead of the software prefetch on the weight and scale streams.
/// A decode step streams every weight once, from DRAM on hosts whose
/// last-level cache is smaller than the model, where the hardware
/// prefetchers restart at each 4 KiB page: measured on such a host, a page
/// of look-ahead takes the 2-bit 4096² GEMV from 7.5 to 9.9 GB/s.
const STREAM_PREFETCH: usize = 4096;

/// Prefetches the cache lines [`STREAM_PREFETCH`] bytes past `block` —
/// the same block of a later scale block or m-tile of a contiguous stream.
#[inline]
#[target_feature(enable = "avx2")]
pub(super) fn prefetch_ahead<T>(block: &[T]) {
    let base = block.as_ptr() as *const i8;
    for line in (0..std::mem::size_of_val(block)).step_by(64) {
        // Past the end of the stream this is a hint about memory nobody
        // reads: a prefetch never faults, and `wrapping_add` is defined.
        _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(STREAM_PREFETCH + line));
    }
}

/// Loads the adjacent 16-entry tables of a k-group pair (lane = k-group).
#[inline]
#[target_feature(enable = "avx2")]
fn load_table_pair(q_tables: &[i8], base: usize) -> __m256i {
    let slice = &q_tables[base..base + 32];
    // SAFETY: `slice` is exactly 32 readable bytes; unaligned load allowed.
    unsafe { _mm256_loadu_si256(slice.as_ptr() as *const __m256i) }
}

/// Splits a 32-byte paired step into its low- and high-nibble indices.
#[inline]
#[target_feature(enable = "avx2")]
fn split_nibbles(raw: __m256i) -> (__m256i, __m256i) {
    let mask = _mm256_set1_epi8(0x0F);
    (
        _mm256_and_si256(raw, mask),
        _mm256_and_si256(_mm256_srli_epi16::<4>(raw), mask),
    )
}

/// Scale-block geometry of the paired stream (see [`crate::plan`]).
#[derive(Clone, Copy)]
pub(super) struct PairedGeom {
    /// K-group pairs per scale block (every block is whole pairs).
    kg_pairs: usize,
    /// k-group pairs an `i16` lane absorbs between flushes to `i32`.
    flush_every: usize,
    /// Whether even the whole block's sum fits `i16` (the common shapes):
    /// the tail then adds the two lanes in `i16` and widens once.
    pub(super) narrow: bool,
}

impl PairedGeom {
    pub(super) fn of(plan: &WeightPlan) -> Self {
        let kgb = plan.group_size / LUT_GROUP;
        // The exactness bound: one k-group adds at most `127 · Σ_p 2^p` to
        // an `i16` lane (the planes share it, weighted by `vpmaddubsw`); a
        // lane sees one k-group per pair.
        let groups = i16::MAX as usize / (127 * ((1 << plan.bits) - 1));
        PairedGeom {
            kg_pairs: kgb / 2,
            flush_every: groups,
            narrow: kgb <= groups,
        }
    }
}

/// The four `i16` accumulators of a tile: `a[i]` holds rows `8i..8i+8`,
/// one k-group parity per lane.
type Acc16 = [__m256i; 4];

/// `acc += vpmaddubsw(w, vals)`: widens looked-up bytes to `i16` applying
/// the per-byte weights `w` (the bit-serial `2^plane` factors).
#[inline]
#[target_feature(enable = "avx2")]
fn madd(acc: &mut __m256i, w: __m256i, vals: __m256i) {
    *acc = _mm256_add_epi16(*acc, _mm256_maddubs_epi16(w, vals));
}

/// Adds both lanes of each `i16` accumulator into its `i32` row sums.
#[inline]
#[target_feature(enable = "avx2")]
fn flush_lanes(a: &Acc16, sums: &mut [__m256i; 4]) {
    for (a, s) in a.iter().zip(sums) {
        let even = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(*a));
        let odd = _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(*a));
        *s = _mm256_add_epi32(*s, _mm256_add_epi32(even, odd));
    }
}

/// The paired-stream `vpmaddubsw` weights of a `BITS`-plane block:
/// `pair[p]` = planes `(2p, 2p+1)` of a pair step; a lone plane is widened
/// through the even (`lone.0`) or odd (`lone.1`) byte of each `i16`.
#[inline]
#[target_feature(enable = "avx2")]
fn plane_weights<const BITS: usize>() -> ([__m256i; 2], (__m256i, __m256i)) {
    let lone = 1i16 << (BITS - 1);
    (
        [_mm256_set1_epi16(0x0201), _mm256_set1_epi16(0x0804)],
        (_mm256_set1_epi16(lone), _mm256_set1_epi16(lone << 8)),
    )
}

/// Accumulates whole k-group pairs of a scale block: `tbl` holds the
/// pairs' tables and `idx` their steps (`BITS` per pair, `STEP` bytes each,
/// turned into low/high nibble indices by `split`).
#[inline]
#[target_feature(enable = "avx2")]
fn paired_groups<const BITS: usize, const STEP: usize>(
    tbl: &[i8],
    idx: &[u8],
    split: impl Fn(&[u8]) -> (__m256i, __m256i),
) -> Acc16 {
    let (pair_w, lone_w) = plane_weights::<BITS>();
    let mut a = [_mm256_setzero_si256(); 4];
    for (t, steps) in tbl.chunks_exact(32).zip(idx.chunks_exact(BITS * STEP)) {
        let t = load_table_pair(t, 0);
        let step = |i: usize| split(&steps[i * STEP..(i + 1) * STEP]);
        for (p, w) in pair_w.iter().enumerate().take(BITS / 2) {
            for h in 0..2 {
                let (lo, hi) = step(2 * p + h);
                madd(&mut a[2 * h], *w, simd::tbl32(t, lo));
                madd(&mut a[2 * h + 1], *w, simd::tbl32(t, hi));
            }
        }
        if BITS % 2 == 1 {
            let (lo, hi) = step(BITS - 1);
            let lo = simd::tbl32(t, lo);
            let hi = simd::tbl32(t, hi);
            madd(&mut a[0], lone_w.0, lo);
            madd(&mut a[1], lone_w.1, lo);
            madd(&mut a[2], lone_w.0, hi);
            madd(&mut a[3], lone_w.1, hi);
        }
    }
    a
}

/// One scale block of the paired stream against one row's tables `tbl`:
/// returns `Σ_bit 2^bit · L_bit` per tile row, exactly, as `f32`.
///
/// `idx` holds the block's steps, `STEP` bytes per 32-byte stream step:
/// the GEMV kernel passes the stream itself (`split` = nibble split) and
/// the mpGEMM kernel the indices it split once (`split` = two loads), so
/// the two share every arithmetic operation.
#[inline]
#[target_feature(enable = "avx2,fma,f16c")]
fn paired_block<const BITS: usize, const STEP: usize>(
    g: &PairedGeom,
    tbl: &[i8],
    idx: &[u8],
    split: impl Fn(&[u8]) -> (__m256i, __m256i),
) -> OutAcc {
    let ps = BITS * STEP;
    let groups = |from: usize, to: usize| {
        paired_groups::<BITS, STEP>(&tbl[from * 32..to * 32], &idx[from * ps..to * ps], &split)
    };
    // The first `flush_every` pairs need no `i32` sums yet — in every
    // common shape that is the whole block, and the loop below is cold.
    let mut done = g.flush_every.min(g.kg_pairs);
    let mut a = groups(0, done);
    let mut sums = [_mm256_setzero_si256(); 4];
    while done < g.kg_pairs {
        flush_lanes(&a, &mut sums);
        let to = (done + g.flush_every).min(g.kg_pairs);
        a = groups(done, to);
        done = to;
    }
    if g.narrow {
        let lanes =
            |a: __m256i| _mm_add_epi16(_mm256_castsi256_si128(a), _mm256_extracti128_si256::<1>(a));
        sums = a.map(|a| _mm256_cvtepi16_epi32(lanes(a)));
    } else {
        flush_lanes(&a, &mut sums);
    }
    OutAcc(
        _mm256_cvtepi32_ps(sums[0]),
        _mm256_cvtepi32_ps(sums[1]),
        _mm256_cvtepi32_ps(sums[2]),
        _mm256_cvtepi32_ps(sums[3]),
    )
}

/// Streaming GEMV kernel over the paired stream (exact aggregation) for a
/// fixed plane count: see the module docs for the inner loop. The per-block
/// `f32` fold is the sequential kernel's, so the two layouts agree
/// bit-for-bit.
#[inline(never)] // A stable symbol for the disassembly test.
#[target_feature(enable = "avx2,fma,f16c")]
fn mtile_paired_bits<const BITS: usize>(
    plan: &WeightPlan,
    tables: &ActTables,
    r: usize,
    mt: usize,
    out: &mut Tile,
) {
    let g = PairedGeom::of(plan);
    let gpr = plan.groups_per_row();
    let bb = plan.block_bytes();
    let stream = plan.mtile_stream(mt);
    let mut outacc = OutAcc::zero();
    for sb in 0..gpr {
        let src = &stream[sb * bb..(sb + 1) * bb];
        let scales = plan.tile_scales(mt, sb);
        let tbl = tables.block_tables(sb, r..r + 1);
        let (q_scale, asum) = tables.block_scales(sb, r..r + 1);
        let (q_scale, asum) = (q_scale[0], asum[0]);
        prefetch_ahead(src);
        prefetch_ahead(scales);
        let blk = paired_block::<BITS, 32>(&g, tbl, src, |s| split_nibbles(simd::loadu_256(s)));
        let sc = _mm256_set1_ps(0.5 * q_scale);
        let bias = _mm256_set1_ps(plan.cz * asum);
        outacc.fold(&blk, sc, bias, scales);
    }
    outacc.store(out);
}

/// Nibble-split indices of one scale block (`2 ×` its stream bytes).
#[repr(align(32))]
struct BlockIdx([u8; MAX_KG_PER_BLOCK * 4 * TILE_M]);

/// Executes one m-tile for the rows `rows` of `tables`: `outs` receives the
/// row-major `rows.len() × TILE_M` results.
///
/// This is the mpGEMM kernel, scale-block-outer: each scale block's weight
/// indices are nibble-split **once** into a small stack buffer, then a
/// run-time loop over the rows looks them up against each row's tables of
/// that block (adjacent in [`ActTables`]: one forward stream) with the
/// four `i16` accumulators in registers and the per-row `f32` partial sums
/// living in `outs` between blocks. Per row every operation is
/// [`gemv_mtile`]'s (the two share `paired_block`) in the same block order,
/// so the result is bit-identical to `rows` independent GEMV calls.
///
/// # Safety
///
/// The caller must have verified AVX2+FMA+F16C support (e.g. via
/// `tmac_simd::Isa::available`).
///
/// # Panics
///
/// Panics if [`gemm_supported`] does not hold for the plan or `outs` is
/// shorter than `rows.len() × TILE_M`.
#[target_feature(enable = "avx2,fma,f16c")]
pub fn gemm_mtile(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    mt: usize,
    outs: &mut [f32],
) {
    assert!(gemm_supported(plan), "no multi-row kernel for this plan");
    assert!(outs.len() >= rows.len() * TILE_M, "outs too short");
    for_bits!(plan.bits, gemm_mtile_bits(plan, tables, rows, mt, outs))
}

/// Multi-row kernel body (see [`gemm_mtile`]).
#[inline(never)] // A stable symbol for the disassembly test.
#[target_feature(enable = "avx2,fma,f16c")]
fn gemm_mtile_bits<const BITS: usize>(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    mt: usize,
    outs: &mut [f32],
) {
    let g = PairedGeom::of(plan);
    let (bb, tb) = (plan.block_bytes(), tables.block_len());
    let stream = plan.mtile_stream(mt);
    let mut idx = BlockIdx([0; MAX_KG_PER_BLOCK * 4 * TILE_M]);
    let outs = &mut outs[..rows.len() * TILE_M];
    outs.fill(0.0);
    for sb in 0..plan.groups_per_row() {
        let src = &stream[sb * bb..(sb + 1) * bb];
        for (raw, dst) in src.chunks_exact(32).zip(idx.0.chunks_exact_mut(64)) {
            let (lo, hi) = split_nibbles(simd::loadu_256(raw));
            simd::storeu_256(&mut dst[..32], lo);
            simd::storeu_256(&mut dst[32..], hi);
        }
        let idx = &idx.0[..2 * bb];
        let scales = plan.tile_scales(mt, sb);
        let (q_scales, asums) = tables.block_scales(sb, rows.clone());
        let units = tables.block_tables(sb, rows.clone()).chunks_exact(tb);
        for (((out, tbl), q_scale), asum) in outs
            .chunks_exact_mut(TILE_M)
            .zip(units)
            .zip(q_scales)
            .zip(asums)
        {
            let blk = paired_block::<BITS, 64>(&g, tbl, idx, |s| {
                (simd::loadu_256(&s[..32]), simd::loadu_256(&s[32..]))
            });
            let sc = _mm256_set1_ps(0.5 * q_scale);
            let bias = _mm256_set1_ps(plan.cz * asum);
            let mut acc = OutAcc::load(out);
            acc.fold(&blk, sc, bias, scales);
            acc.store(out);
        }
    }
}

/// Assembles the interleaved 16-byte index step for `(kg, bit)` from the
/// flat nibble planes — the per-step gather cost that the offline
/// permutation removes (paper §3.2).
#[inline]
fn assemble_flat_step(plan: &WeightPlan, bit: usize, m0: usize, kg: usize, buf: &mut [u8; 16]) {
    let plane = plan.flat_plane(bit);
    let rb = plan.flat_row_bytes();
    let byte_off = kg / 2;
    let shift = 4 * (kg & 1);
    for j in 0..TILE_M / 2 {
        let lo = (plane[(m0 + j) * rb + byte_off] >> shift) & 0x0F;
        let hi = (plane[(m0 + j + TILE_M / 2) * rb + byte_off] >> shift) & 0x0F;
        buf[j] = lo | (hi << 4);
    }
}

/// Gathers the 32 per-row half weight scales of a scale block on the flat
/// layout (the fold widens them).
#[inline]
fn assemble_flat_scales(plan: &WeightPlan, m0: usize, sb: usize, buf: &mut [u16; TILE_M]) {
    for (r, b) in buf.iter_mut().enumerate() {
        *b = plan.scale_bits(m0 + r, sb);
    }
}

/// Quantized-table kernel over the flat layout (the `+TQ` ladder stage):
/// `PSHUFB` lookups but strided index assembly every step.
#[target_feature(enable = "avx2,fma,f16c")]
fn mtile_flat_quant(plan: &WeightPlan, tables: &ActTables, r: usize, mt: usize, out: &mut Tile) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    let m0 = mt * TILE_M;
    let mut outacc = OutAcc::zero();
    let mut buf = [0u8; 16];
    let mut sbuf = [0u16; TILE_M];

    for sb in 0..gpr {
        let mut acc = [(_mm256_setzero_si256(), _mm256_setzero_si256()); 4];
        for kgi in 0..kgb {
            let kg = sb * kgb + kgi;
            let tbl = load_table(tables.q_tables(), tables.kg_offset(r, kg));
            for bit in 0..bits {
                assemble_flat_step(plan, bit, m0, kg, &mut buf);
                let raw = simd::loadu_128(&buf);
                let idx = simd::unpack_nibbles_interleaved(raw);
                let vals = simd::tbl32(tbl, idx);
                acc[bit] = simd::accumulate_i8_into_i16(acc[bit], vals);
            }
        }
        let mut blk = OutAcc::zero();
        for bit in 0..bits {
            blk.add_weighted_i16(acc[bit], _mm256_set1_ps((1u32 << bit) as f32));
        }
        let (q_scale, asum) = tables.block_scales(sb, r..r + 1);
        let sc = _mm256_set1_ps(0.5 * q_scale[0]);
        let bias = _mm256_set1_ps(plan.cz * asum[0]);
        assemble_flat_scales(plan, m0, sb, &mut sbuf);
        outacc.fold(&blk, sc, bias, &sbuf);
    }
    outacc.store(out);
}

/// TM-base kernel: `f32` tables accessed with hardware gathers
/// (`vgatherdps`) — a real lookup intrinsic, but neither in-register tables
/// nor optimized memory access.
#[target_feature(enable = "avx2,fma,f16c")]
fn mtile_flat_gather(plan: &WeightPlan, tables: &ActTables, r: usize, mt: usize, out: &mut Tile) {
    let bits = plan.bits;
    let gpr = plan.groups_per_row();
    let kgb = plan.group_size / LUT_GROUP;
    let m0 = mt * TILE_M;
    let mut outacc = OutAcc::zero();
    let mut buf = [0u8; 16];
    let mut sbuf = [0u16; TILE_M];

    for sb in 0..gpr {
        let mut blk = OutAcc::zero();
        for kgi in 0..kgb {
            let kg = sb * kgb + kgi;
            let table = &tables.f32_tables[tables.kg_offset(r, kg)..][..16];
            for bit in 0..bits {
                assemble_flat_step(plan, bit, m0, kg, &mut buf);
                let raw = simd::loadu_128(&buf);
                let idx = simd::unpack_nibbles_interleaved(raw);
                let lanes_lo = _mm256_castsi256_si128(idx); // rows 0..16
                let lanes_hi = _mm256_extracti128_si256(idx, 1); // rows 16..32
                let (i0, i1) = simd::widen_u8_to_i32(lanes_lo);
                let (i2, i3) = simd::widen_u8_to_i32(lanes_hi);
                let w = _mm256_set1_ps((1u32 << bit) as f32);
                blk.0 = _mm256_fmadd_ps(w, simd::gather_f32(table, i0), blk.0);
                blk.1 = _mm256_fmadd_ps(w, simd::gather_f32(table, i1), blk.1);
                blk.2 = _mm256_fmadd_ps(w, simd::gather_f32(table, i2), blk.2);
                blk.3 = _mm256_fmadd_ps(w, simd::gather_f32(table, i3), blk.3);
            }
        }
        let sc = _mm256_set1_ps(0.5);
        let bias = _mm256_set1_ps(plan.cz * tables.block_scales(sb, r..r + 1).1[0]);
        assemble_flat_scales(plan, m0, sb, &mut sbuf);
        outacc.fold(&blk, sc, bias, &sbuf);
    }
    outacc.store(out);
}

/// Builds one scale block's tables from its activations `block`: the AVX2
/// twin of `table::build_block` (same arguments, same bytes, scale and
/// return value, bit for bit).
///
/// `block_entries` makes the raw entries in `raw_table`'s add order and
/// their abs-max. Quantization divides by the scale (`vdivps`, as the scalar
/// `v / scale`; a reciprocal multiply rounds differently) and rounds half
/// away from zero like `f32::round`, which no AVX2 rounding mode does:
/// truncate, then step away from zero where the dropped fraction is ≥ 0.5.
/// A block whose scale is not a normal float — entries that overflowed to
/// infinity, or subnormal activations — takes the scalar quantizer, whose
/// NaN and infinity handling the integer path does not reproduce.
///
/// # Safety
///
/// The caller must have verified that the host CPU supports AVX2, FMA and
/// F16C
/// (e.g. via [`tmac_simd::avx2::available`]).
///
/// # Panics
///
/// Panics if the buffers do not have `build_block`'s lengths.
#[target_feature(enable = "avx2,fma,f16c")]
pub fn build_block(block: &[f32], raw: &mut [f32], q: &mut [i8]) -> f32 {
    let amax = block_entries(block, raw);
    if q.is_empty() {
        return 0.0;
    }
    let scale = table::table_scale(amax);
    if scale.is_normal() {
        quantize_block(raw, scale, q);
    } else {
        table::quantize_block(raw, scale, q);
    }
    scale
}

/// Writes the raw tables of `block`'s k-groups into `raw` and returns their
/// largest magnitude.
///
/// A k-group's entries `0..8` and `8..16` are two registers: from `t[0]` in
/// every lane, bits 0, 1 and 2 each add `2 a_b` to the lanes whose index has
/// the bit (`add` + `blend`), and bit 3 adds `2 a_3` to all of them — per
/// entry exactly `raw_table`'s sequence of additions.
#[inline(never)] // A stable symbol for the disassembly test.
#[target_feature(enable = "avx2")]
fn block_entries(block: &[f32], raw: &mut [f32]) -> f32 {
    assert_eq!(raw.len(), block.len() / LUT_GROUP * TABLE_LEN, "raw length");
    let sign = _mm256_set1_ps(-0.0);
    let two = _mm256_set1_ps(2.0);
    let mut amax = _mm256_setzero_ps();
    for (a, t) in block
        .chunks_exact(LUT_GROUP)
        .zip(raw.chunks_exact_mut(TABLE_LEN))
    {
        // The activations are one vector, splatted by in-lane permutes:
        // adds of scalars broadcast one by one are what LLVM turns back
        // into scalar `vaddss`.
        // SAFETY: `a` is exactly 4 readable floats; unaligned load allowed.
        let v = _mm256_broadcast_ps(&unsafe { _mm_loadu_ps(a.as_ptr()) });
        // Lane 0 of each half ends as `((a0 + a1) + a2) + a3`.
        let sum = _mm256_add_ps(v, _mm256_permute_ps::<0x55>(v));
        let sum = _mm256_add_ps(sum, _mm256_permute_ps::<0xAA>(v));
        let sum = _mm256_add_ps(sum, _mm256_permute_ps::<0xFF>(v));
        let t0 = _mm256_xor_ps(_mm256_permute_ps::<0x00>(sum), sign);
        let steps = _mm256_mul_ps(two, v);
        let lo = _mm256_blend_ps::<0xAA>(t0, _mm256_add_ps(t0, _mm256_permute_ps::<0x00>(steps)));
        let lo = _mm256_blend_ps::<0xCC>(lo, _mm256_add_ps(lo, _mm256_permute_ps::<0x55>(steps)));
        let lo = _mm256_blend_ps::<0xF0>(lo, _mm256_add_ps(lo, _mm256_permute_ps::<0xAA>(steps)));
        let hi = _mm256_add_ps(lo, _mm256_permute_ps::<0xFF>(steps));
        // `max(|t|, amax)` keeps `amax` where `|t|` is NaN, as `f32::max`.
        amax = _mm256_max_ps(_mm256_andnot_ps(sign, lo), amax);
        amax = _mm256_max_ps(_mm256_andnot_ps(sign, hi), amax);
        simd::storeu_ps(&mut t[..8], lo);
        simd::storeu_ps(&mut t[8..], hi);
    }
    let m = _mm_max_ps(
        _mm256_castps256_ps128(amax),
        _mm256_extractf128_ps::<1>(amax),
    );
    let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps::<0x55>(m, m)))
}

/// Quantizes a block's raw entries with a normal `scale` into its stored
/// tables `q`, 8 entries per `quantize8` and four of those (32 bytes) per
/// step.
#[target_feature(enable = "avx2")]
fn quantize_block(raw: &[f32], scale: f32, q: &mut [i8]) {
    assert!(
        q.len().is_multiple_of(16) && q.len() == raw.len(),
        "stored table length"
    );
    let sc = _mm256_set1_ps(scale);
    let half = |i: usize| quantize8(simd::loadu_ps(&raw[i * 8..]), sc);
    for (c, dst) in q.chunks_mut(32).enumerate() {
        let h = 4 * c;
        let bytes = if dst.len() == 32 {
            pack_i8(half(h), half(h + 1), half(h + 2), half(h + 3))
        } else {
            // An even number of halves: the tail is two.
            let (a, b) = (half(h), half(h + 1));
            pack_i8(a, b, a, b)
        };
        store_bytes(dst, bytes);
    }
}

/// `(v / scale).round().clamp(-127.0, 127.0)` per lane, as `i32`, for
/// quotients well inside the `i32` range (a normal scale of the block's own
/// entries keeps them within ±128).
#[inline]
#[target_feature(enable = "avx2")]
fn quantize8(v: __m256, scale: __m256) -> __m256i {
    let x = _mm256_div_ps(v, scale);
    let trunc = _mm256_cvttps_epi32(x);
    // Exact: `x` and its truncation share sign and binade or `trunc` is 0.
    let frac = _mm256_sub_ps(x, _mm256_cvtepi32_ps(trunc));
    let abs_frac = _mm256_andnot_ps(_mm256_set1_ps(-0.0), frac);
    let up = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(abs_frac, _mm256_set1_ps(0.5)));
    // ±1 with the sign of `x`.
    let away = _mm256_or_si256(
        _mm256_srai_epi32::<31>(_mm256_castps_si256(x)),
        _mm256_set1_epi32(1),
    );
    let rounded = _mm256_add_epi32(trunc, _mm256_and_si256(up, away));
    _mm256_max_epi32(
        _mm256_min_epi32(rounded, _mm256_set1_epi32(127)),
        _mm256_set1_epi32(-127),
    )
}

/// Packs four 8-lane `i32` vectors of `i8` values into 32 bytes, in the
/// order `a, b, c, d`.
#[inline]
#[target_feature(enable = "avx2")]
fn pack_i8(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> __m256i {
    // The packs work per 128-bit lane: their dwords hold `a0..4 b0..4 c0..4
    // d0..4 | a4..8 b4..8 c4..8 d4..8`, which one permute puts in order.
    let bytes = _mm256_packs_epi16(_mm256_packs_epi32(a, b), _mm256_packs_epi32(c, d));
    _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7))
}

/// Stores the first `dst.len()` bytes of `v`: all 32, or the low 16.
#[inline]
#[target_feature(enable = "avx2")]
fn store_bytes(dst: &mut [i8], v: __m256i) {
    match dst.len() {
        // SAFETY: `dst` is exactly 32 writable bytes; unaligned store allowed.
        32 => unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v) },
        // SAFETY: `dst` is exactly 16 writable bytes; unaligned store allowed.
        16 => unsafe {
            _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, _mm256_castsi256_si128(v))
        },
        n => panic!("store_bytes stores 16 or 32 bytes, got {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::scalar;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn setup(m: usize, k: usize, bits: u8, gs: usize) -> (tmac_quant::QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.17).sin()) * 0.7 + ((i % 13) as f32 - 6.0) * 0.03)
            .collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32 * 0.41).cos()) * 0.9).collect();
        (rtn::quantize(&w, m, k, bits, gs).unwrap(), act)
    }

    fn compare_opts(opts: KernelOpts, bits: u8, tol: f32) {
        if !simd::available() {
            return;
        }
        let (qm, act) = setup(96, 256, bits, 32);
        let plan = WeightPlan::new(&qm, opts).unwrap();
        let tables = ActTables::build(&act, 1, 32, &opts).unwrap();
        for mt in 0..plan.m_tiles() {
            let mut want = [0f32; TILE_M];
            scalar::plan_mtile(&plan, &tables, 0..1, mt, &mut want);
            let mut got = [0f32; TILE_M];
            // SAFETY: AVX2+FMA+F16C verified by `simd::available()` above.
            unsafe { gemv_mtile(&plan, &tables, 0, mt, &mut got) };
            for r in 0..TILE_M {
                assert!(
                    (want[r] - got[r]).abs() <= tol * (1.0 + want[r].abs()),
                    "opts={opts:?} bits={bits} mt={mt} r={r}: {} vs {}",
                    want[r],
                    got[r]
                );
            }
        }
    }

    #[test]
    fn permuted_matches_scalar_all_bits() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::plus_permute(), bits, 1e-5);
        }
    }

    #[test]
    fn interleaved_matches_scalar() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::tmac(), bits, 1e-5);
        }
    }

    #[test]
    fn flat_quant_matches_scalar() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::plus_table_quant(), bits, 1e-5);
        }
    }

    #[test]
    fn tm_base_gather_matches_scalar() {
        for bits in 1..=4u8 {
            compare_opts(KernelOpts::tm_base(), bits, 1e-4);
        }
    }

    /// One-row tables of each of `rows` generated rows, and the same rows'
    /// tables built as one batch.
    fn block_tables(
        rows: usize,
        k: usize,
        gs: usize,
        opts: &KernelOpts,
    ) -> (Vec<ActTables>, ActTables) {
        let acts: Vec<f32> = (0..rows * k)
            .map(|i| (((i % k) as f32 * 0.41 + (i / k) as f32 * 2.3).cos()) * 0.9)
            .collect();
        let per_row = acts
            .chunks_exact(k)
            .map(|act| ActTables::build(act, 1, gs, opts).unwrap())
            .collect();
        (per_row, ActTables::build(&acts, rows, gs, opts).unwrap())
    }

    /// The multi-row kernel must be *bit-identical* to per-row `gemv_mtile`
    /// calls — the property that keeps batched forwards equal to independent
    /// single-token forwards — for every supported option combination, any
    /// row count, and block shapes with lone planes / three k-group quads
    /// (g48) / a mid-block `i32` flush.
    #[test]
    fn gemm_mtile_bit_identical_to_gemv_mtile() {
        if !simd::available() {
            return;
        }
        let opts = KernelOpts::tmac();
        for bits in 1..=4u8 {
            for gs in [48usize, 32, 256] {
                let k = if gs == 48 { 96 } else { 256 };
                let (qm, _) = setup(96, k, bits, gs);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                assert!(gemm_supported(&plan), "{opts:?}");
                for rows in [1usize, 3, 8, 11] {
                    let (per_row, batch) = block_tables(rows, k, gs, &opts);
                    for mt in 0..plan.m_tiles() {
                        // Each row through the GEMV kernel: over the
                        // row's own tables, and as row `r` of the batch.
                        let mut want = vec![0f32; rows * TILE_M];
                        for (r, t) in per_row.iter().enumerate() {
                            let (mut own, mut of_batch) = ([0f32; TILE_M], [0f32; TILE_M]);
                            // SAFETY: AVX2+FMA+F16C verified above.
                            unsafe {
                                gemv_mtile(&plan, t, 0, mt, &mut own);
                                gemv_mtile(&plan, &batch, r, mt, &mut of_batch);
                            }
                            assert_eq!(own, of_batch, "row {r} of the batch");
                            want[r * TILE_M..(r + 1) * TILE_M].copy_from_slice(&own);
                        }
                        // Stale `outs` contents must not leak through,
                        // and a sub-range reads its own rows' tables.
                        let mut got = vec![3f32; rows * TILE_M];
                        let mut tail = vec![3f32; rows * TILE_M];
                        // SAFETY: AVX2+FMA+F16C verified above.
                        unsafe {
                            gemm_mtile(&plan, &batch, 0..rows, mt, &mut got);
                            gemm_mtile(&plan, &batch, rows / 2..rows, mt, &mut tail);
                        }
                        let what = format!("bits={bits} gs={gs} rows={rows} mt={mt}");
                        assert_eq!(got, want, "{what}");
                        let tail_rows = rows - rows / 2;
                        assert_eq!(
                            tail[..tail_rows * TILE_M],
                            want[rows / 2 * TILE_M..],
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    /// And against the portable oracle (tolerance: the scalar fold is not
    /// FMA-fused, so f32 rounding may differ in the last ulp).
    #[test]
    fn gemm_mtile_matches_scalar_oracle() {
        if !simd::available() {
            return;
        }
        let opts = KernelOpts::tmac();
        for bits in [2u8, 3] {
            let (qm, _) = setup(64, 128, bits, 32);
            let plan = WeightPlan::new(&qm, opts).unwrap();
            let (_, batch) = block_tables(5, 128, 32, &opts);
            for mt in 0..plan.m_tiles() {
                let mut want = vec![0f32; 5 * TILE_M];
                scalar::plan_mtile(&plan, &batch, 0..5, mt, &mut want);
                let mut got = vec![0f32; 5 * TILE_M];
                // SAFETY: AVX2+FMA+F16C verified above.
                unsafe { gemm_mtile(&plan, &batch, 0..5, mt, &mut got) };
                for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
                    assert!(
                        (w - g).abs() <= 1e-5 * (1.0 + w.abs()),
                        "opts={opts:?} bits={bits} mt={mt} i={i}: {w} vs {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_supported_gates_correctly() {
        let plan = |opts: KernelOpts, gs: usize| {
            let (qm, _) = setup(32, 512, 2, gs);
            WeightPlan::new(&qm, opts).unwrap()
        };
        assert!(gemm_supported(&plan(KernelOpts::tmac(), 32)));
        assert!(gemm_supported(&plan(KernelOpts::tmac(), 256)));
        // Blocks too long to buffer, the sequential stream, flat layouts
        // and f32 tables stay per-row.
        assert!(!gemm_supported(&plan(KernelOpts::tmac(), 512)));
        assert!(!gemm_supported(&plan(KernelOpts::plus_permute(), 32)));
        assert!(!gemm_supported(&plan(KernelOpts::plus_table_quant(), 32)));
        assert!(!gemm_supported(&plan(KernelOpts::tm_base(), 32)));
    }
}
