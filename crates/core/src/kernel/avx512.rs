//! AVX-512 kernels: the paired-stream GEMV kernel on `zmm` registers, and
//! two `vpermb` + `vpdpbusd` multi-row kernels.
//!
//! Three `zmm` kernels serve a range of the paired stream, by its row
//! count:
//!
//! | rows | kernel |
//! |---|---|
//! | 1 | `mtile_paired_bits`: [`super::avx2`]'s paired GEMV, 64 bytes at a time, one m-tile a call |
//! | 2..=`REG_ROWS` (4) | `gemm_regs_bits`: the `vpermb` kernel, register-resident, one m-tile a call |
//! | more | `gemm_run_bits`: the `vpermb` kernel over a run of up to `TILE_RUN` (4) m-tiles, indices buffered per block |
//!
//! Every plan's scale blocks are whole quads of k-groups ([`crate::plan`]),
//! so the `vpermb` kernels take every multi-row range of a paired plan.
//! The AVX2 kernels take the rest ([`serves`]): the sequential and flat
//! rungs, blocks of more than `MAX_KG_PER_BLOCK` (64) k-groups, and the
//! one-row GEMV of a plan whose block sum overflows `i16` (not `narrow`:
//! W4 from g128, W3 from g256), which the AVX2 GEMV flushes to `i32`.
//!
//! # The `zmm` inner loop
//!
//! The paired stream needs no new byte order. A plane pair's `h = 0` and
//! `h = 1` steps (rows `0..16` and `16..32` of the tile) are adjacent
//! 32-byte steps, so one 64-byte load holds both, and the k-group pair's
//! 32-byte table is a `vbroadcasti64x4` into both halves. Per 64-byte
//! weight load (128 lookups) the GEMV loop issues `vpandd`, `vpsrlw` +
//! `vpandd`, 2 `vpshufb zmm`, 2 `vpmaddubsw zmm` against `(1, 2)` / `(4, 8)`
//! and 2 `vpaddw zmm`: the AVX2 loop's uops for half the loads. Two `i16`
//! accumulators hold the AVX2 kernel's four: `lo` = `[a0 | a2]` (the low
//! nibbles, rows `0..8` and `16..24`) and `hi` = `[a1 | a3]`, one k-group
//! parity per 128-bit lane as before.
//!
//! * A lone plane (odd bit widths) is one 32-byte step of 32 rows: it is
//!   broadcast, its upper half shifted to the high nibbles (a masked
//!   `vpsrlw`), and looked up once as `[lo | hi]`; the two `lone_w`
//!   weights then widen its even and odd bytes into `lo` and `hi`.
//! * The block tail regroups the four lanes of `lo`/`hi` into row order
//!   (two `vpermt2q`), adds the k-group parities in `i16` and widens once.
//!
//! # The `vpermb` multi-row kernel
//!
//! From two rows on, the `vpermb` kernels move the work around the lookups
//! out of the row loop. An `ActTables` unit holds its k-groups' 16-byte
//! tables in order, so one 64-byte load is the table of a *quad* of four
//! k-groups, and `vpermb` looks 64 indices up in it when each index byte
//! carries its k-group in bits 4–5. Once per (m-tile, scale block) the
//! kernel turns the stream into such indices (`QUAD_SOURCES`): per
//! 64-byte *source* of two stream steps, one `vpternlogd` each for the low
//! and the high nibbles (`(raw & 0x0F) | select`), then one `vpermt2b` per
//! index vector, which gathers into dword `r` the four lookups of tile row
//! `r` that one `vpdpbusd` combines:
//!
//! * a plane pair `p` of k-group pair `kp`: `[kg 2kp plane 2p, 2p+1, kg
//!   2kp+1 plane 2p, 2p+1]`, weights `4^p · (1, 2, 1, 2)` — W2 is one such
//!   source per k-group pair, W4 two;
//! * the lone plane (W1, W3) of both k-group pairs: the quad's four
//!   k-groups, weights `2^(bits−1) · (1, 1, 1, 1)`.
//!
//! Each source gives two index vectors, tile rows `0..16` and `16..32`. Per
//! row and quad the row loop is then one 64-byte table load, and per index
//! vector one `vpermb` and one `vpdpbusd` into `i32` accumulators: `2·bits`
//! of each, where a `vpshufb` loop spends a `vpshufb`, a `vpmaddubsw` and a
//! `vpaddw` per 64 lookups and a `vpermt2q` + `vpmovsxwd` tail per block.
//!
//! The two kernels differ in where the indices live and in what a table
//! load serves. `gemm_regs_bits` (2..=`REG_ROWS` rows, a const generic)
//! builds each quad's index vectors in registers and looks each one up
//! against every row's table at once, so nothing is buffered: the rows'
//! block accumulators are independent chains, and their outputs stay in
//! registers for the whole m-tile. It also prefetches the weight stream
//! per block, as the GEMV kernel does. At five rows and more its registers
//! run out (see `REG_ROWS`) and `gemm_run_bits` takes over.
//!
//! `gemm_run_bits` takes a *run* of `MT` consecutive m-tiles of one plan
//! (`MT` ≤ `TILE_RUN`, a const generic; the sweep hands each thread's tiles
//! over in runs). The tables are the reused operand (§3.2), so it reuses
//! each table load across the whole run: per scale block it writes each
//! tile's indices to that tile's stack buffer, widens each tile's 32 half
//! scales and computes every row's `0.5·q_scale` and `cz·asum`, once; then
//! it walks the rows two at a time. Per quad the row pair's two tables are
//! loaded once and looked up against every tile's index vectors, `MT·2·bits`
//! index loads and `2·MT·2·bits` `vpermb` + `vpdpbusd` into `2·MT·2` `i32`
//! accumulators held in registers (16 at `MT` = 4). Each (row, tile) block
//! sum is then folded into the run's outputs, loaded and stored per block.
//! A lone last row of an odd range takes the same loop with one table.
//!
//! # Bit-identity with AVX2
//!
//! Every `i16` lane of the `zmm` GEMV sums the same looked-up bytes with
//! the same `vpmaddubsw` weights as the AVX2 lane it replaces, and it runs
//! only where a whole block fits `i16`. The `vpermb` kernels sum the same
//! bytes with the same weights in `i32` through `vpdpbusd`, which no block
//! can overflow (`MAX_KG_PER_BLOCK` k-groups at W4 are far inside `i32`, a
//! `const` assertion below), so they take every block, `narrow` or not.
//! All the sums are exact, so their order does not matter. The
//! per-scale-block `f32` fold is AVX2's per element: `t = fma(blk,
//! 0.5·q_scale, cz·asum)`, `out = fma(t, scale, out)`. So `Avx512` results
//! equal `Avx2` results bit for bit.
//!
//! Everything here is `#[target_feature(enable =
//! "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]`; the driver
//! runs it only under the `Avx512` family (`tmac_simd::Isa`), which
//! guarantees all seven.

use super::avx2::{self, PairedGeom, MAX_KG_PER_BLOCK};
use crate::opts::{N_BLOCK, QUAD, TILE_M, TILE_RUN};
use crate::plan::{self, WeightPlan};
use crate::table::ActTables;
use std::arch::x86_64::*;
use std::ops::Range;
use tmac_simd::avx512 as simd;

/// Whether the `zmm` kernels serve `rows` rows of `plan`, the predicate
/// [`mtile`] routes on: every range of the paired stream that the AVX2
/// multi-row kernel takes from two rows on, and one row where a whole
/// block fits the GEMV's `i16` lanes (every common shape).
pub fn serves(plan: &WeightPlan, rows: usize) -> bool {
    avx2::gemm_supported(plan) && (rows > 1 || PairedGeom::of(plan).narrow)
}

/// Executes a run of consecutive m-tiles `tiles` for the rows `rows` of
/// `tables`: `outs` receives, tile after tile, each tile's row-major
/// `rows.len() × TILE_M` results, bit-identical to [`avx2::mtile`]'s.
///
/// A range the `zmm` kernels serve ([`serves`]) takes the `zmm` GEMV
/// kernel for one row and `gemm_regs_bits` for 2..=`REG_ROWS` rows, tile
/// by tile, and the multi-tile `gemm_run_bits` for more, the whole run in
/// one call (see the module docs); every other range takes
/// [`avx2::mtile`] tile by tile.
///
/// # Safety
///
/// The caller must have verified that the host CPU supports AVX-512 F, BW,
/// VBMI and VNNI, AVX2, FMA and F16C (e.g. via
/// `tmac_simd::Isa::available`).
///
/// # Panics
///
/// Panics if the plan has no AVX2 kernel, a tile is out of range, the run
/// is empty or longer than [`TILE_RUN`], or `outs` is shorter than
/// `tiles.len() × rows.len() × TILE_M`.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]
pub fn mtile(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    tiles: Range<usize>,
    outs: &mut [f32],
) {
    let tile_len = rows.len() * TILE_M;
    assert!(
        (1..=TILE_RUN).contains(&tiles.len()),
        "a run of 1..=TILE_RUN tiles"
    );
    assert!(outs.len() >= tiles.len() * tile_len, "outs too short");
    let per_tile = tiles.clone().zip(outs.chunks_exact_mut(tile_len));
    let bits = plan.bits;
    if !serves(plan, rows.len()) {
        for (mt, out) in per_tile {
            avx2::mtile(plan, tables, rows.clone(), mt, out);
        }
        return;
    }
    if rows.len() <= REG_ROWS {
        for (mt, out) in per_tile {
            match rows.len() {
                1 => for_bits!(bits, mtile_paired_bits(plan, tables, rows.start, mt, out)),
                2 => for_bits!(bits, gemm_regs_bits<2>(plan, tables, rows.clone(), mt, out)),
                3 => for_bits!(bits, gemm_regs_bits<3>(plan, tables, rows.clone(), mt, out)),
                _ => for_bits!(bits, gemm_regs_bits<REG_ROWS>(plan, tables, rows.clone(), mt, out)),
            }
        }
        return;
    }
    match tiles.len() {
        1 => for_bits!(bits, gemm_run_bits<1>(plan, tables, rows, tiles.start, outs)),
        2 => for_bits!(bits, gemm_run_bits<2>(plan, tables, rows, tiles.start, outs)),
        3 => for_bits!(bits, gemm_run_bits<3>(plan, tables, rows, tiles.start, outs)),
        _ => for_bits!(bits, gemm_run_bits<TILE_RUN>(plan, tables, rows, tiles.start, outs)),
    }
}

/// Two `f32` output accumulators covering the 32 tile rows in order.
#[derive(Clone, Copy)]
struct OutAcc(__m512, __m512);

impl OutAcc {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn zero() -> Self {
        OutAcc(_mm512_setzero_ps(), _mm512_setzero_ps())
    }

    /// `out += scales * (block * sc + bias)` — the AVX2 kernels'
    /// per-scale-block fold, element for element, widening the 32 half
    /// `scales` as it loads them (2 × `vcvtph2ps zmm`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn fold(&mut self, blk: (__m512, __m512), sc: f32, bias: f32, scales: &[u16]) {
        let (sc, bias) = (_mm512_set1_ps(sc), _mm512_set1_ps(bias));
        let t0 = _mm512_fmadd_ps(blk.0, sc, bias);
        let t1 = _mm512_fmadd_ps(blk.1, sc, bias);
        self.0 = _mm512_fmadd_ps(t0, simd::loadu_ph(&scales[..16]), self.0);
        self.1 = _mm512_fmadd_ps(t1, simd::loadu_ph(&scales[16..]), self.1);
    }

    /// [`Self::fold`] with the 32 scales already widened: the same three
    /// `fma`s per element. (`fold` keeps its own body: routed through here,
    /// it made `gemm_regs_bits`' W2 block loop spill.)
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fold_wide(&mut self, blk: (__m512, __m512), sc: f32, bias: f32, scales: [__m512; 2]) {
        let (sc, bias) = (_mm512_set1_ps(sc), _mm512_set1_ps(bias));
        let t0 = _mm512_fmadd_ps(blk.0, sc, bias);
        let t1 = _mm512_fmadd_ps(blk.1, sc, bias);
        self.0 = _mm512_fmadd_ps(t0, scales[0], self.0);
        self.1 = _mm512_fmadd_ps(t1, scales[1], self.1);
    }

    /// Stores into a `TILE_M`-float slice prefix.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn store(&self, out: &mut [f32]) {
        simd::storeu_ps(&mut out[..16], self.0);
        simd::storeu_ps(&mut out[16..], self.1);
    }

    /// Resumes the accumulator from a partial-output row.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load(src: &[f32]) -> Self {
        OutAcc(simd::loadu_ps(&src[..16]), simd::loadu_ps(&src[16..]))
    }
}

/// Splits a plane pair's two 32-byte steps into their low- and high-nibble
/// indices: `[lo(h = 0) | lo(h = 1)]`, `[hi(h = 0) | hi(h = 1)]`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn split_nibbles(raw: __m512i) -> (__m512i, __m512i) {
    let mask = _mm512_set1_epi8(0x0F);
    (
        _mm512_and_si512(raw, mask),
        _mm512_and_si512(_mm512_srli_epi16::<4>(raw), mask),
    )
}

/// A lone plane's 32-byte step as `[lo | hi]`: the step in both halves,
/// the upper half shifted down to its high nibbles.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn split_lone(step: &[u8]) -> __m512i {
    let raw = simd::broadcast_256(step);
    let shifted = _mm512_mask_srli_epi16::<4>(raw, 0xFFFF_0000, raw);
    _mm512_and_si512(shifted, _mm512_set1_epi8(0x0F))
}

/// `acc += vpmaddubsw(w, vals)`: widens looked-up bytes to `i16` applying
/// the per-byte weights `w` (the bit-serial `2^plane` factors).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn madd(acc: &mut __m512i, w: __m512i, vals: __m512i) {
    *acc = _mm512_add_epi16(*acc, _mm512_maddubs_epi16(w, vals));
}

/// One scale block of whole k-group pairs against one row's tables `tbl`
/// and the block's stream bytes `src`: returns `Σ_bit 2^bit · L_bit` per
/// tile row, exactly, as `f32` (rows `0..16`, `16..32`). The block's sums
/// must fit `i16` (`narrow`, which [`serves`] checks at one row).
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]
fn paired_block<const BITS: usize>(tbl: &[i8], src: &[u8]) -> (__m512, __m512) {
    let pair_w = [_mm512_set1_epi16(0x0201), _mm512_set1_epi16(0x0804)];
    let lone_w = 1i16 << (BITS - 1);
    let lone_w = (_mm512_set1_epi16(lone_w), _mm512_set1_epi16(lone_w << 8));
    let (mut lo, mut hi) = (_mm512_setzero_si512(), _mm512_setzero_si512());
    for (t, steps) in tbl.chunks_exact(32).zip(src.chunks_exact(32 * BITS)) {
        // The k-group pair's two tables in both halves: lane `L` holds
        // k-group parity `L % 2`.
        let t = simd::broadcast_256(t);
        for (p, w) in pair_w.iter().enumerate().take(BITS / 2) {
            let (l, h) = split_nibbles(simd::loadu_512(&steps[64 * p..]));
            madd(&mut lo, *w, _mm512_shuffle_epi8(t, l));
            madd(&mut hi, *w, _mm512_shuffle_epi8(t, h));
        }
        if BITS % 2 == 1 {
            let vals = _mm512_shuffle_epi8(t, split_lone(&steps[64 * (BITS / 2)..]));
            madd(&mut lo, lone_w.0, vals);
            madd(&mut hi, lone_w.1, vals);
        }
    }
    // Lanes of `lo` = rows [0..8, 0..8, 16..24, 16..24], of `hi` = [8..16,
    // 8..16, 24..32, 24..32], k-group parity alternating: gather each
    // parity in row order, add them, widen.
    let even = _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13), hi);
    let odd = _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15), hi);
    let sums = _mm512_add_epi16(even, odd);
    let widen = |half: __m256i| _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(half));
    (
        widen(_mm512_castsi512_si256(sums)),
        widen(_mm512_extracti64x4_epi64::<1>(sums)),
    )
}

/// Streaming GEMV kernel over the paired stream on `zmm` registers: see
/// the module docs for the inner loop. Writes the first `TILE_M` floats of
/// `out`.
#[inline(never)] // A stable symbol for the disassembly test.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]
fn mtile_paired_bits<const BITS: usize>(
    plan: &WeightPlan,
    tables: &ActTables,
    r: usize,
    mt: usize,
    out: &mut [f32],
) {
    let bb = plan.block_bytes();
    let stream = plan.mtile_stream(mt);
    let mut outacc = OutAcc::zero();
    for sb in 0..plan.groups_per_row() {
        let src = &stream[sb * bb..(sb + 1) * bb];
        let scales = plan.tile_scales(mt, sb);
        let (q_scale, asum) = tables.block_scales(sb, r..r + 1);
        avx2::prefetch_ahead(src);
        avx2::prefetch_ahead(scales);
        let blk = paired_block::<BITS>(tables.block_tables(sb, r..r + 1), src);
        outacc.fold(blk, 0.5 * q_scale[0], plan.cz * asum[0], scales);
    }
    outacc.store(out);
}

/// The `vpermb` indices of one scale block (`2 ×` its stream bytes), on a
/// cache line: every 64-byte index load is aligned.
#[repr(align(64))]
struct BlockIdx([u8; MAX_KG_PER_BLOCK * 4 * TILE_M]);

// An `i32` lane of the `vpermb` kernels' block accumulators sums one tile
// row's lookups over one block: at most `MAX_KG_PER_BLOCK` k-groups, each
// adding at most `127 · (2^4 − 1)` at W4. It never wraps, so every block
// sum is exact and no plan needs the `i16` kernels' flush.
const _: () = assert!(MAX_KG_PER_BLOCK * 127 * ((1 << 4) - 1) <= i32::MAX as usize);

/// One source of a quad's `vpermb` indices: two 32-byte stream steps whose
/// split nibbles `vpermt2b` gathers into two index vectors, tile rows
/// `0..16` and `16..32`.
#[derive(Clone, Copy)]
struct QuadSource {
    /// Quad-relative stream offsets of the two steps (the source's low and
    /// high 32 bytes).
    at: [usize; 2],
    /// Per source byte: its k-group within the quad, in bits 4–5 (the
    /// `vpermb` table select).
    select: [u8; 64],
    /// Per index vector: the `vpermt2b` indices into `(lo, hi)`, the
    /// source's low nibbles (`0..64`) and high nibbles (`64..128`).
    perm: [[u8; 64]; 2],
    /// The `vpdpbusd` weights of every index dword: the bit-serial `2^bit`
    /// factor of each of its four lookups.
    weights: i32,
}

/// The `bits` sources of a quad (the rest of the array is unused), in the
/// order the index buffer holds them: for each k-group pair `kp`, for each
/// plane pair `p`, the pair's `h = 0` and `h = 1` steps (dword `[kg 2kp
/// plane 2p, 2p+1, kg 2kp+1 plane 2p, 2p+1]`); then, for odd `bits`, the
/// lone-plane steps of both k-group pairs (dword: the four k-groups).
///
/// Derived from [`plan::permuted_nibble`], the one definition of the stream
/// order, at compile time: a lookup outside its source's steps, or a source
/// byte claimed by two k-groups, fails the build.
const fn quad_sources(bits: usize) -> [QuadSource; 4] {
    let empty = QuadSource {
        at: [0; 2],
        select: [0; 64],
        perm: [[0; 64]; 2],
        weights: 0,
    };
    let mut out = [empty; 4];
    let pairs = bits / 2;
    let mut j = 0;
    while j < bits {
        let lone = j == 2 * pairs;
        let (kp, p) = if lone { (0, 0) } else { (j / pairs, j % pairs) };
        let src = &mut out[j];
        let lone_step = 32 * (bits - 1);
        src.at = if lone {
            [lone_step, 32 * bits + lone_step]
        } else {
            let a = 32 * bits * kp + 64 * p;
            [a, a + 32]
        };
        src.weights = if lone {
            0x0101_0101 << (bits - 1)
        } else {
            0x0201_0201 << (2 * p)
        };
        // Which k-group (plus one) each source byte belongs to.
        let mut owner = [0usize; 64];
        let mut h = 0;
        while h < 2 {
            let mut i = 0;
            while i < 16 {
                let mut c = 0;
                while c < 4 {
                    let (kg, bit) = if lone {
                        (c, bits - 1)
                    } else {
                        (2 * kp + c / 2, 2 * p + c % 2)
                    };
                    let (off, high) = plan::permuted_nibble(true, bits, QUAD, bit, 16 * h + i, kg);
                    let s = if off >= src.at[0] && off < src.at[0] + 32 {
                        off - src.at[0]
                    } else if off >= src.at[1] && off < src.at[1] + 32 {
                        32 + off - src.at[1]
                    } else {
                        panic!("a lookup outside its source's steps")
                    };
                    assert!(
                        owner[s] == 0 || owner[s] == kg + 1,
                        "a byte of two k-groups"
                    );
                    owner[s] = kg + 1;
                    src.select[s] = (16 * kg) as u8;
                    src.perm[h][4 * i + c] = (s + 64 * high as usize) as u8;
                    c += 1;
                }
                i += 1;
            }
            h += 1;
        }
        j += 1;
    }
    out
}

/// [`quad_sources`] of bit widths 1–4.
static QUAD_SOURCES: [[QuadSource; 4]; 4] = [
    quad_sources(1),
    quad_sources(2),
    quad_sources(3),
    quad_sources(4),
];

/// The two index vectors of `source` in the quad whose stream bytes `raw`
/// starts: `(nibble & 0x0F) | select` per byte for the low and the high
/// nibbles (one `vpternlogd` each), then one `vpermt2b` per tile-row half.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx2")]
fn quad_indices(source: &QuadSource, raw: &[u8]) -> [__m512i; 2] {
    let [a, b] = source.at;
    let steps = if b == a + 32 {
        simd::loadu_512(&raw[a..])
    } else {
        let lo = _mm512_castsi256_si512(tmac_simd::avx2::loadu_256(&raw[a..]));
        _mm512_inserti64x4::<1>(lo, tmac_simd::avx2::loadu_256(&raw[b..]))
    };
    let (mask, select) = (_mm512_set1_epi8(0x0F), simd::loadu_512(&source.select));
    let lo = _mm512_ternarylogic_epi32::<0xEA>(steps, mask, select);
    let hi = _mm512_srli_epi16::<4>(steps);
    let hi = _mm512_ternarylogic_epi32::<0xEA>(hi, mask, select);
    source
        .perm
        .map(|perm| _mm512_permutex2var_epi8(lo, simd::loadu_512(&perm), hi))
}

/// Most rows [`gemm_regs_bits`] takes: as many as its registers hold. Per
/// row it keeps two `i32` block accumulators, an `OutAcc` (two `zmm`) and
/// the quad's table, 5 of the 32 `zmm`, beside the index vectors and
/// constants. At 4 rows the W1 and W2 instances keep all of them across
/// the m-tile; at 5 every instance spills once per block, at 8 the W4 quad
/// loop itself. The measured table (DESIGN.md §3b): 0.76–0.83× of the
/// buffered one-tile kernel that [`gemm_run_bits`] replaced at 2–4 rows,
/// 0.78–0.89× at 5 (spilling), 0.92–1.07× at 6 and 8.
const REG_ROWS: usize = 4;

/// Multi-row kernel for 2..=[`REG_ROWS`] rows (`R`): [`gemm_run_bits`]'s
/// lookups with nothing buffered, one m-tile a call. Per quad it loads the
/// `R` rows' tables, builds the quad's `2·BITS` index vectors in registers
/// and runs `R·2·BITS` `vpermb` + `vpdpbusd`; the block and output
/// accumulators of every row stay in registers across the whole m-tile,
/// and the weight stream is prefetched per block as the GEMV kernel does.
/// Every output element sees `OutAcc::fold`'s sequence.
#[inline(never)] // A stable symbol for the disassembly test.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]
fn gemm_regs_bits<const BITS: usize, const R: usize>(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    mt: usize,
    outs: &mut [f32],
) {
    debug_assert_eq!(rows.len(), R);
    let (bb, tb) = (plan.block_bytes(), tables.block_len());
    let stream = plan.mtile_stream(mt);
    let sources = &QUAD_SOURCES[BITS - 1][..BITS];
    let w = QUAD_SOURCES[BITS - 1].map(|s| _mm512_set1_epi32(s.weights));
    let mut out = [OutAcc::zero(); R];
    for sb in 0..plan.groups_per_row() {
        let src = &stream[sb * bb..(sb + 1) * bb];
        let scales = plan.tile_scales(mt, sb);
        avx2::prefetch_ahead(src);
        avx2::prefetch_ahead(scales);
        let block = tables.block_tables(sb, rows.clone());
        let mut units = [&block[..0]; R];
        for (u, unit) in units.iter_mut().zip(block.chunks_exact(tb)) {
            *u = unit;
        }
        let mut acc = [[_mm512_setzero_si512(); 2]; R];
        for (q, raw) in src.chunks_exact(64 * BITS).enumerate() {
            let t = units.map(|u| simd::loadu_512(&u[64 * q..]));
            for (s, w) in sources.iter().zip(w) {
                for (h, v) in quad_indices(s, raw).into_iter().enumerate() {
                    for (acc, t) in acc.iter_mut().zip(t) {
                        acc[h] = _mm512_dpbusd_epi32(acc[h], w, _mm512_permutexvar_epi8(v, t));
                    }
                }
            }
        }
        let (q_scales, asums) = tables.block_scales(sb, rows.clone());
        let [q_scales, asums] = [q_scales, asums].map(|v| *v.first_chunk::<R>().expect("R rows"));
        for (((o, acc), q_scale), asum) in out.iter_mut().zip(acc).zip(q_scales).zip(asums) {
            let blk = (_mm512_cvtepi32_ps(acc[0]), _mm512_cvtepi32_ps(acc[1]));
            o.fold(blk, 0.5 * q_scale, plan.cz * asum, scales);
        }
    }
    for (o, dst) in out.iter().zip(outs.chunks_exact_mut(TILE_M)) {
        o.store(dst);
    }
}

/// Turns one scale block's stream bytes `src` into its `vpermb` indices
/// (see the module docs): per quad, source after source, the source's two
/// index vectors, `2 ×` the block's bytes in all.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx2")]
fn block_indices<const BITS: usize>(src: &[u8], idx: &mut BlockIdx) {
    let sources = &QUAD_SOURCES[BITS - 1][..BITS];
    for (raw, dst) in src
        .chunks_exact(64 * BITS)
        .zip(idx.0.chunks_exact_mut(128 * BITS))
    {
        for (s, dst) in sources.iter().zip(dst.chunks_exact_mut(128)) {
            for (v, dst) in quad_indices(s, raw)
                .into_iter()
                .zip(dst.chunks_exact_mut(64))
            {
                simd::storeu_512(dst, v);
            }
        }
    }
}

/// Multi-row kernel for more than [`REG_ROWS`] rows over a run of `MT`
/// consecutive m-tiles `mt0..mt0 + MT`, scale-block-outer like
/// [`avx2::gemm_mtile`]. Per scale block it turns each tile's stream into
/// `vpermb` indices in the tile's own buffer ([`block_indices`]), widens
/// each tile's 32 half scales and computes each row's fold scalars, once;
/// then it walks the rows two at a time ([`rows_block`]), loading each
/// quad's tables once for all `MT` tiles. `outs` holds the run's results
/// tile-major (see [`mtile`]); every element sees `OutAcc::fold`'s
/// sequence, as in the GEMV kernel.
#[inline(never)] // A stable symbol for the disassembly test.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]
fn gemm_run_bits<const BITS: usize, const MT: usize>(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    mt0: usize,
    outs: &mut [f32],
) {
    let (bb, tb, n) = (plan.block_bytes(), tables.block_len(), rows.len());
    debug_assert!(n <= N_BLOCK);
    let streams: [&[u8]; MT] = std::array::from_fn(|t| plan.mtile_stream(mt0 + t));
    let w = QUAD_SOURCES[BITS - 1].map(|s| _mm512_set1_epi32(s.weights));
    let mut idx = [const { BlockIdx([0; MAX_KG_PER_BLOCK * 4 * TILE_M]) }; MT];
    let outs = &mut outs[..MT * n * TILE_M];
    outs.fill(0.0);
    for sb in 0..plan.groups_per_row() {
        let mut scales = [[_mm512_setzero_ps(); 2]; MT];
        for (t, (idx, scales)) in idx.iter_mut().zip(&mut scales).enumerate() {
            block_indices::<BITS>(&streams[t][sb * bb..(sb + 1) * bb], idx);
            let s = plan.tile_scales(mt0 + t, sb);
            *scales = [simd::loadu_ph(&s[..16]), simd::loadu_ph(&s[16..])];
        }
        let idx = idx.each_ref().map(|i| &i.0[..2 * bb]);
        let (q_scales, asums) = tables.block_scales(sb, rows.clone());
        let mut folds = [(0f32, 0f32); N_BLOCK];
        for (f, (q_scale, asum)) in folds.iter_mut().zip(q_scales.iter().zip(asums)) {
            *f = (0.5 * q_scale, plan.cz * asum);
        }
        let units = tables.block_tables(sb, rows.clone());
        let unit = |r: usize| &units[r * tb..(r + 1) * tb];
        for r in (0..n - 1).step_by(2) {
            let (units, folds) = ([unit(r), unit(r + 1)], [folds[r], folds[r + 1]]);
            rows_block::<BITS, MT, 2>(&w, units, &idx, folds, &scales, outs, r);
        }
        if n % 2 == 1 {
            let r = n - 1;
            rows_block::<BITS, MT, 1>(&w, [unit(r)], &idx, [folds[r]], &scales, outs, r);
        }
    }
}

/// One scale block of the `RP` rows `r..r + RP` against every tile of a
/// run: per quad the rows' tables are loaded once and looked up against
/// each tile's `2·BITS` index vectors (`idx[t]`), one `vpermb` and one
/// `vpdpbusd` per (row, index vector), into `RP·MT·2` `i32` accumulators
/// held in registers; then each (row, tile) block sum is folded into its
/// output row (`folds`: the rows' `(0.5·q_scale, cz·asum)`, `scales`: the
/// tiles' widened scales; `outs` tile-major).
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni,avx2,fma,f16c")]
fn rows_block<const BITS: usize, const MT: usize, const RP: usize>(
    w: &[__m512i; 4],
    units: [&[i8]; RP],
    idx: &[&[u8]; MT],
    folds: [(f32, f32); RP],
    scales: &[[__m512; 2]; MT],
    outs: &mut [f32],
    r: usize,
) {
    let mut acc = [[[_mm512_setzero_si512(); 2]; MT]; RP];
    for q in 0..units[0].len() / 64 {
        let t = units.map(|u| simd::loadu_512(&u[64 * q..64 * (q + 1)]));
        for (tile, idx) in idx.iter().enumerate() {
            let vecs = &idx[128 * BITS * q..128 * BITS * (q + 1)];
            for (w, src) in w.iter().zip(vecs.chunks_exact(128)) {
                for (h, v) in src.chunks_exact(64).enumerate() {
                    let v = simd::loadu_512(v);
                    for (acc, t) in acc.iter_mut().zip(t) {
                        let vals = _mm512_permutexvar_epi8(v, t);
                        acc[tile][h] = _mm512_dpbusd_epi32(acc[tile][h], *w, vals);
                    }
                }
            }
        }
    }
    let n = outs.len() / (MT * TILE_M);
    for (i, (acc, (sc, bias))) in acc.iter().zip(folds).enumerate() {
        for (t, (acc, scales)) in acc.iter().zip(scales).enumerate() {
            let out = &mut outs[(t * n + r + i) * TILE_M..][..TILE_M];
            let blk = (_mm512_cvtepi32_ps(acc[0]), _mm512_cvtepi32_ps(acc[1]));
            let mut o = OutAcc::load(out);
            o.fold_wide(blk, sc, bias, *scales);
            o.store(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::{KernelOpts, LUT_GROUP};
    use tmac_quant::rtn;

    fn plan(bits: u8, gs: usize, opts: KernelOpts) -> WeightPlan {
        let (m, k) = (96, 8 * gs);
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.17).sin()) * 0.7 + ((i % 13) as f32 - 6.0) * 0.03)
            .collect();
        WeightPlan::new(&rtn::quantize(&w, m, k, bits, gs).unwrap(), opts).unwrap()
    }

    /// The `zmm` kernels serve every range of the paired plans at the
    /// common group sizes, the one-row GEMV only where a block fits `i16`,
    /// and leave the non-paired plans and unbufferable blocks to AVX2.
    #[test]
    fn supported_covers_the_paired_exact_plans() {
        for bits in 1..=4u8 {
            for gs in [16usize, 32, 64] {
                let p = plan(bits, gs, KernelOpts::tmac());
                for rows in [1, 2, REG_ROWS, REG_ROWS + 1, TILE_M] {
                    assert!(serves(&p, rows), "W{bits} g{gs} rows {rows}");
                }
            }
            for opts in [
                KernelOpts::plus_permute(),
                KernelOpts::plus_table_quant(),
                KernelOpts::tm_base(),
            ] {
                let p = plan(bits, 32, opts);
                for rows in [1, 2, TILE_M] {
                    assert!(!serves(&p, rows), "{opts:?} rows {rows}");
                }
            }
        }
        // More k-groups per block than the AVX2 sweep buffers.
        let wide = 2 * MAX_KG_PER_BLOCK * LUT_GROUP;
        assert!(!serves(&plan(2, wide, KernelOpts::tmac()), 2));
        // W4 at group 128: 32 k-groups overflow an `i16` lane (17 fit), so
        // only the one-row GEMV falls back; W3 from g256 likewise.
        assert!(serves(&plan(3, 128, KernelOpts::tmac()), 1));
        let w4 = plan(4, 128, KernelOpts::tmac());
        assert!(!serves(&w4, 1) && 128 / LUT_GROUP > 17);
        assert!(serves(&w4, 2) && serves(&w4, TILE_M));
        assert!(!serves(&plan(3, 256, KernelOpts::tmac()), 1));
    }
}
