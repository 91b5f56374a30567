//! x86-64 AVX2 backend.
//!
//! Implements the paper's Table 1 look-up for x86: `_mm256_shuffle_epi8`
//! (`PSHUFB`). AVX2 is 256 bits wide but `PSHUFB` shuffles within each
//! 128-bit lane, so — exactly as §4 of the paper describes — the 16-entry
//! table is *duplicated* into both lanes and one instruction then looks up 32
//! independent `u8` indices.
//!
//! Every function here is `#[target_feature(enable = "avx2")]` (plus `fma`
//! or `f16c` where it uses them): it is a safe call from another function
//! with the same feature set, and an `unsafe` call otherwise (the caller
//! must have checked [`available`]). Raw-pointer loads
//! and stores are the only `unsafe` operations inside, each justified with a
//! `// SAFETY:` comment and guarded by slice-length assertions.

#![allow(clippy::missing_safety_doc)] // Safety contract is the module-level target-feature rule.

use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Number of parallel byte lanes of this backend.
pub const LANES: usize = 32;

/// Returns `true` if the running CPU supports AVX2, FMA *and* F16C (the
/// half-precision weight scales are widened with `vcvtph2ps`).
///
/// The result is computed once and cached. All other functions in this
/// module may only be invoked when this returns `true`.
pub fn available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("fma")
            && std::is_x86_feature_detected!("f16c")
    })
}

// ---------------------------------------------------------------------------
// Loads / stores (length-checked slice wrappers around unaligned intrinsics).
// ---------------------------------------------------------------------------

/// Loads 32 bytes from `src` (unaligned).
///
/// # Panics
///
/// Panics if `src.len() < 32`.
#[inline]
#[target_feature(enable = "avx2")]
pub fn loadu_256(src: &[u8]) -> __m256i {
    assert!(src.len() >= 32, "loadu_256 needs 32 bytes");
    // SAFETY: `src` has at least 32 readable bytes; unaligned load allowed.
    unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) }
}

/// Loads 16 bytes from `src` (unaligned) into an `__m128i`.
///
/// # Panics
///
/// Panics if `src.len() < 16`.
#[inline]
#[target_feature(enable = "avx2")]
pub fn loadu_128(src: &[u8]) -> __m128i {
    assert!(src.len() >= 16, "loadu_128 needs 16 bytes");
    // SAFETY: `src` has at least 16 readable bytes; unaligned load allowed.
    unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) }
}

/// Stores 32 bytes to `dst` (unaligned).
///
/// # Panics
///
/// Panics if `dst.len() < 32`.
#[inline]
#[target_feature(enable = "avx2")]
pub fn storeu_256(dst: &mut [u8], v: __m256i) {
    assert!(dst.len() >= 32, "storeu_256 needs 32 bytes");
    // SAFETY: `dst` has at least 32 writable bytes; unaligned store allowed.
    unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, v) }
}

/// Loads 8 `f32` from `src` (unaligned).
///
/// # Panics
///
/// Panics if `src.len() < 8`.
#[inline]
#[target_feature(enable = "avx2")]
pub fn loadu_ps(src: &[f32]) -> __m256 {
    assert!(src.len() >= 8, "loadu_ps needs 8 floats");
    // SAFETY: `src` has at least 8 readable floats; unaligned load allowed.
    unsafe { _mm256_loadu_ps(src.as_ptr()) }
}

/// Loads 8 IEEE halves from `src` (unaligned) and widens them to `f32`
/// (`vcvtph2ps`).
///
/// # Panics
///
/// Panics if `src.len() < 8`.
#[inline]
#[target_feature(enable = "avx2,f16c")]
pub fn loadu_ph(src: &[u16]) -> __m256 {
    assert!(src.len() >= 8, "loadu_ph needs 8 halves");
    // SAFETY: `src` has at least 8 readable halves (16 bytes); unaligned
    // load allowed.
    _mm256_cvtph_ps(unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) })
}

/// Stores 8 `f32` to `dst` (unaligned).
///
/// # Panics
///
/// Panics if `dst.len() < 8`.
#[inline]
#[target_feature(enable = "avx2")]
pub fn storeu_ps(dst: &mut [f32], v: __m256) {
    assert!(dst.len() >= 8, "storeu_ps needs 8 floats");
    // SAFETY: `dst` has at least 8 writable floats; unaligned store allowed.
    unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
}

// ---------------------------------------------------------------------------
// Table lookup (the T-MAC core primitive).
// ---------------------------------------------------------------------------

/// 32-way parallel 8-bit table lookup (`PSHUFB`).
///
/// Paper §4: "we duplicate the table to fill the 256-bit LUT register and
/// look up 32 different int8 weight indices with a single instruction":
/// `table` must hold the same 16 entries in both lanes; `idx` holds 32
/// indices, each `< 16` (high bit clear).
#[inline]
#[target_feature(enable = "avx2")]
pub fn tbl32(table: __m256i, idx: __m256i) -> __m256i {
    _mm256_shuffle_epi8(table, idx)
}

/// Unpacks 16 nibble-packed bytes into 32 byte indices.
///
/// Input byte `j` holds row `j` in its low nibble and row `j + 16` in its
/// high nibble (T-MAC's interleaved weight layout, paper Figure 4), so the
/// result places rows `0..16` in the low lane and rows `16..32` in the high
/// lane with nothing but `AND`/`SHR` — no reordering shuffle is needed.
#[inline]
#[target_feature(enable = "avx2")]
pub fn unpack_nibbles_interleaved(bytes: __m128i) -> __m256i {
    let mask = _mm_set1_epi8(0x0F);
    let lo = _mm_and_si128(bytes, mask);
    let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
    _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1)
}

/// Unpacks 16 *sequentially* packed bytes into 32 byte indices in row order.
///
/// Without the offline interleave, byte `j` holds rows `2j` (low nibble) and
/// `2j + 1` (high nibble). Restoring row order costs an extra per-lane
/// interleave (`punpcklbw`/`punpckhbw`) on top of the `AND`/`SHR` — this is
/// the overhead the interleaving optimization removes, kept here so the
/// ablation (Figure 10, "IL") measures something real.
#[inline]
#[target_feature(enable = "avx2")]
pub fn unpack_nibbles_sequential(bytes: __m128i) -> __m256i {
    let mask = _mm_set1_epi8(0x0F);
    let lo = _mm_and_si128(bytes, mask); // rows 0,2,4,..,30
    let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask); // rows 1,3,5,..,31
                                                            // Interleave to restore row order: [r0 r1 r2 r3 ...].
    let even_odd_lo = _mm_unpacklo_epi8(lo, hi); // rows 0..16
    let even_odd_hi = _mm_unpackhi_epi8(lo, hi); // rows 16..32
    _mm256_inserti128_si256(_mm256_castsi128_si256(even_odd_lo), even_odd_hi, 1)
}

// ---------------------------------------------------------------------------
// Accumulation.
// ---------------------------------------------------------------------------

/// Widens 32 `i8` lanes and adds them into two 16-lane `i16` accumulators.
///
/// `acc.0` accumulates bytes `0..16` (rows `m..m+16`), `acc.1` bytes
/// `16..32`. This is the exact-precision aggregation path: `i8` values sum
/// into `i16` without overflow for up to 256 addends.
#[inline]
#[target_feature(enable = "avx2")]
pub fn accumulate_i8_into_i16(acc: (__m256i, __m256i), vals: __m256i) -> (__m256i, __m256i) {
    let lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vals));
    let hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vals, 1));
    (_mm256_add_epi16(acc.0, lo), _mm256_add_epi16(acc.1, hi))
}

/// Converts 16 `i16` lanes to two 8-lane `f32` vectors (low, high).
#[inline]
#[target_feature(enable = "avx2")]
pub fn i16_to_f32x2(v: __m256i) -> (__m256, __m256) {
    let lo = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_castsi256_si128(v)));
    let hi = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(_mm256_extracti128_si256(v, 1)));
    (lo, hi)
}

/// Horizontal sum of 8 `f32` lanes.
#[inline]
#[target_feature(enable = "avx2")]
pub fn hsum_ps(v: __m256) -> f32 {
    let hi = _mm256_extractf128_ps(v, 1);
    let lo = _mm256_castps256_ps128(v);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    _mm_cvtss_f32(s)
}

/// Horizontal sum of 8 `i32` lanes.
#[inline]
#[target_feature(enable = "avx2")]
pub fn hsum_epi32(v: __m256i) -> i32 {
    let hi = _mm256_extracti128_si256(v, 1);
    let lo = _mm256_castsi256_si128(v);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_11_10));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    _mm_cvtsi128_si32(s)
}

/// Gathers 8 `f32` values `table[idx[i]]` (TM-base lookup path).
///
/// This is the *unoptimized* table access that the paper's breakdown starts
/// from: a hardware gather from an in-memory `f32` table, before table
/// quantization makes in-register `PSHUFB` lookups possible.
///
/// # Panics
///
/// Panics in debug builds if any index is out of bounds.
///
/// The caller must guarantee every `idx` lane indexes within `table`.
#[inline]
#[target_feature(enable = "avx2")]
pub fn gather_f32(table: &[f32], idx: __m256i) -> __m256 {
    #[cfg(debug_assertions)]
    {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` is exactly 32 writable bytes.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, idx) };
        for &l in &lanes {
            assert!((l as usize) < table.len(), "gather_f32 index out of range");
        }
    }
    // SAFETY: all 8 indices address valid `f32` elements of `table` (asserted
    // above in debug builds; guaranteed by kernel construction in release:
    // indices are 4-bit values < 16 == table length).
    unsafe { _mm256_i32gather_ps::<4>(table.as_ptr(), idx) }
}

/// Widens the low/high 8 bytes of a 16-byte vector to `i32` lanes.
#[inline]
#[target_feature(enable = "avx2")]
pub fn widen_u8_to_i32(v: __m128i) -> (__m256i, __m256i) {
    let lo = _mm256_cvtepu8_epi32(v);
    let hi = _mm256_cvtepu8_epi32(_mm_srli_si128(v, 8));
    (lo, hi)
}

// ---------------------------------------------------------------------------
// f32 vector helpers (AVX2 + FMA).
// ---------------------------------------------------------------------------

/// Dot product of two equal-length `f32` slices.
///
/// # Panics
///
/// Panics if lengths differ.
#[target_feature(enable = "avx2,fma")]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f32 length mismatch");
    let n = a.len();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        let x0 = loadu_ps(&a[i..]);
        let y0 = loadu_ps(&b[i..]);
        let x1 = loadu_ps(&a[i + 8..]);
        let y1 = loadu_ps(&b[i + 8..]);
        acc0 = _mm256_fmadd_ps(x0, y0, acc0);
        acc1 = _mm256_fmadd_ps(x1, y1, acc1);
        i += 16;
    }
    while i + 8 <= n {
        let x = loadu_ps(&a[i..]);
        let y = loadu_ps(&b[i..]);
        acc0 = _mm256_fmadd_ps(x, y, acc0);
        i += 8;
    }
    let mut sum = hsum_ps(_mm256_add_ps(acc0, acc1));
    while i < n {
        sum += a[i] * b[i];
        i += 1;
    }
    sum
}

/// `y[i] += a * x[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
#[target_feature(enable = "avx2,fma")]
pub fn axpy_f32(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy_f32 length mismatch");
    let n = y.len();
    let av = _mm256_set1_ps(a);
    let mut i = 0;
    while i + 8 <= n {
        let xv = loadu_ps(&x[i..]);
        let yv = loadu_ps(&y[i..]);
        storeu_ps(&mut y[i..], _mm256_fmadd_ps(av, xv, yv));
        i += 8;
    }
    while i < n {
        y[i] += a * x[i];
        i += 1;
    }
}

/// `y[i] += x[i]` (plain add, no FMA — bit-identical to the scalar path).
///
/// # Panics
///
/// Panics if lengths differ.
#[target_feature(enable = "avx2")]
pub fn add_f32(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_f32 length mismatch");
    let n = y.len();
    let mut i = 0;
    while i + 8 <= n {
        let yv = loadu_ps(&y[i..]);
        let xv = loadu_ps(&x[i..]);
        storeu_ps(&mut y[i..], _mm256_add_ps(yv, xv));
        i += 8;
    }
    while i < n {
        y[i] += x[i];
        i += 1;
    }
}

/// In-place elementwise product `y[i] *= x[i]` (bit-identical to scalar).
///
/// # Panics
///
/// Panics if lengths differ.
#[target_feature(enable = "avx2")]
pub fn mul_assign_f32(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "mul_assign_f32 length mismatch");
    let n = y.len();
    let mut i = 0;
    while i + 8 <= n {
        let yv = loadu_ps(&y[i..]);
        let xv = loadu_ps(&x[i..]);
        storeu_ps(&mut y[i..], _mm256_mul_ps(yv, xv));
        i += 8;
    }
    while i < n {
        y[i] *= x[i];
        i += 1;
    }
}

/// `out[i] = (x[i] * s) * g[i]` with the same evaluation order as
/// [`crate::scalar::scaled_mul_f32`] (two rounded multiplies, no FMA), so
/// the two paths agree bit-for-bit.
///
/// # Panics
///
/// Panics if lengths differ.
#[target_feature(enable = "avx2")]
pub fn scaled_mul_f32(out: &mut [f32], x: &[f32], g: &[f32], s: f32) {
    assert_eq!(x.len(), g.len(), "scaled_mul_f32 length mismatch");
    assert_eq!(out.len(), x.len(), "scaled_mul_f32 out length mismatch");
    let sv = _mm256_set1_ps(s);
    let n = out.len();
    let mut i = 0;
    while i + 8 <= n {
        let xv = loadu_ps(&x[i..]);
        let gv = loadu_ps(&g[i..]);
        storeu_ps(&mut out[i..], _mm256_mul_ps(_mm256_mul_ps(xv, sv), gv));
        i += 8;
    }
    while i < n {
        out[i] = (x[i] * s) * g[i];
        i += 1;
    }
}

/// `v[i] *= s` (bit-identical to scalar).
#[target_feature(enable = "avx2")]
pub fn scale_f32(v: &mut [f32], s: f32) {
    let sv = _mm256_set1_ps(s);
    let n = v.len();
    let mut i = 0;
    while i + 8 <= n {
        let xv = loadu_ps(&v[i..]);
        storeu_ps(&mut v[i..], _mm256_mul_ps(xv, sv));
        i += 8;
    }
    while i < n {
        v[i] *= s;
        i += 1;
    }
}

/// Maximum value of a `f32` slice (`-inf` if empty).
#[target_feature(enable = "avx2")]
pub fn max_f32(v: &[f32]) -> f32 {
    let n = v.len();
    let mut i = 0;
    let mut best = f32::NEG_INFINITY;
    if n >= 8 {
        let mut acc = loadu_ps(v);
        i = 8;
        while i + 8 <= n {
            acc = _mm256_max_ps(acc, loadu_ps(&v[i..]));
            i += 8;
        }
        let hi = _mm256_extractf128_ps(acc, 1);
        let lo = _mm256_castps256_ps128(acc);
        let m = _mm_max_ps(lo, hi);
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55));
        best = _mm_cvtss_f32(m);
    }
    while i < n {
        best = best.max(v[i]);
        i += 1;
    }
    best
}

// ---------------------------------------------------------------------------
// i8 helpers (attention over a quantized KV cache).
// ---------------------------------------------------------------------------

/// Signed 8-bit dot product via the `maddubs` sign trick (llama.cpp style).
///
/// Requires every element of both slices to be `> -128` (quantized codes
/// are clamped to `-127..=127`, so this holds for the quantized KV cache).
/// Violating that wraps the sign of `(-128)·(-128)` terms.
///
/// # Panics
///
/// Panics if lengths differ; debug builds also panic on `-128` inputs.
#[target_feature(enable = "avx2")]
pub fn dot_i8_maddubs(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8_maddubs length mismatch");
    debug_assert!(
        a.iter().chain(b).all(|&x| x != i8::MIN),
        "dot_i8_maddubs requires values > -128"
    );
    let n = a.len();
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 32 <= n {
        // SAFETY: both slices have at least `i + 32` elements, and `i8` has
        // the same layout as `u8` for raw loads.
        let (va, vb) = unsafe {
            (
                _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i),
                _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i),
            )
        };
        let abs_a = _mm256_sign_epi8(va, va);
        let sgn_b = _mm256_sign_epi8(vb, va);
        let prod = _mm256_maddubs_epi16(abs_a, sgn_b);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(prod, ones));
        i += 32;
    }
    let mut sum = hsum_epi32(acc);
    while i < n {
        sum += (a[i] as i32) * (b[i] as i32);
        i += 1;
    }
    sum
}

/// `y[i] += a * (x[i] as f32)`: scaled `i8` accumulate into `f32`.
///
/// Widens 8 codes per step (`cvtepi8_epi32` → `cvtepi32_ps`, both exact)
/// and combines with a separate multiply and add — *not* an FMA — so the
/// per-element rounding matches [`crate::scalar::axpy_f32_i8`] bit-for-bit.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[target_feature(enable = "avx2")]
pub fn axpy_f32_i8(y: &mut [f32], a: f32, x: &[i8]) {
    assert_eq!(y.len(), x.len(), "axpy_f32_i8 length mismatch");
    let n = y.len();
    let av = _mm256_set1_ps(a);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `x` has at least `i + 8` readable bytes (`i8` loads as raw
        // bytes); only the low 8 bytes of the vector are consumed.
        let raw = unsafe { _mm_loadl_epi64(x.as_ptr().add(i) as *const __m128i) };
        let xf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
        let yv = loadu_ps(&y[i..]);
        storeu_ps(&mut y[i..], _mm256_add_ps(yv, _mm256_mul_ps(av, xf)));
        i += 8;
    }
    while i < n {
        y[i] += a * (x[i] as f32);
        i += 1;
    }
}

/// `y[i] = (y[i] * c) + a * (x[i] as f32)`: fused online-softmax rescale +
/// `i8` accumulate, bit-identical to [`crate::scalar::scale_axpy_f32_i8`]
/// (three rounded multiply/add steps in the same order, no FMA).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[target_feature(enable = "avx2")]
pub fn scale_axpy_f32_i8(y: &mut [f32], c: f32, a: f32, x: &[i8]) {
    assert_eq!(y.len(), x.len(), "scale_axpy_f32_i8 length mismatch");
    let n = y.len();
    let av = _mm256_set1_ps(a);
    let cv = _mm256_set1_ps(c);
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: `x` has at least `i + 8` readable bytes.
        let raw = unsafe { _mm_loadl_epi64(x.as_ptr().add(i) as *const __m128i) };
        let xf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
        let yv = loadu_ps(&y[i..]);
        storeu_ps(
            &mut y[i..],
            _mm256_add_ps(_mm256_mul_ps(yv, cv), _mm256_mul_ps(av, xf)),
        );
        i += 8;
    }
    while i < n {
        y[i] = (y[i] * c) + a * (x[i] as f32);
        i += 1;
    }
}

/// RoPE rotation over interleaved pairs with duplicated-pair tables (see
/// [`crate::scalar::rope_apply_f32`] for the table layout). The pair swap is
/// one in-lane `permute`; the combine is multiply/multiply/add in the scalar
/// path's exact order, so the two paths agree bit-for-bit.
///
/// # Panics
///
/// Panics on length mismatch or an odd vector length.
#[target_feature(enable = "avx2")]
pub fn rope_apply_f32(v: &mut [f32], cos_dup: &[f32], sin_dup: &[f32]) {
    assert_eq!(v.len(), cos_dup.len(), "rope_apply_f32 cos length");
    assert_eq!(v.len(), sin_dup.len(), "rope_apply_f32 sin length");
    assert!(v.len().is_multiple_of(2), "rope_apply_f32 needs pairs");
    let n = v.len();
    let mut i = 0;
    while i + 8 <= n {
        let xv = loadu_ps(&v[i..]);
        let cv = loadu_ps(&cos_dup[i..]);
        let sv = loadu_ps(&sin_dup[i..]);
        // Swap each (a, b) pair: lane selector [1, 0, 3, 2] per 128-bit half.
        let sw = _mm256_permute_ps(xv, 0b10_11_00_01);
        storeu_ps(
            &mut v[i..],
            _mm256_add_ps(_mm256_mul_ps(xv, cv), _mm256_mul_ps(sw, sv)),
        );
        i += 8;
    }
    while i < n {
        let (a, b) = (v[i], v[i + 1]);
        v[i] = a * cos_dup[i] + b * sin_dup[i];
        v[i + 1] = b * cos_dup[i + 1] + a * sin_dup[i + 1];
        i += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;

    fn skip() -> bool {
        !available()
    }

    fn to_bytes(v: __m256i) -> [u8; 32] {
        let mut out = [0u8; 32];
        // SAFETY: out is 32 writable bytes; test runs only when AVX2 exists.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, v) };
        out
    }

    /// `vcvtph2ps` and the scalar twin agree on all 65 536 half bit
    /// patterns (a NaN only has to stay a NaN).
    #[test]
    fn f16_to_f32_matches_scalar_exhaustively() {
        if skip() {
            return;
        }
        for h in 0..=u16::MAX {
            let want = scalar::f16_to_f32(h);
            let mut loaded = [0f32; 8];
            // SAFETY: AVX2 and F16C checked by `skip`.
            let one = unsafe {
                storeu_ps(&mut loaded, loadu_ph(&[h; 8]));
                _mm_cvtss_f32(_mm_cvtph_ps(_mm_set1_epi16(h as i16)))
            };
            for got in std::iter::once(one).chain(loaded) {
                if want.is_nan() {
                    assert!(got.is_nan(), "{h:#06x}: {got} is not a NaN");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "{h:#06x}");
                }
            }
        }
    }

    /// `vcvtps2ph` (round to nearest even) and the scalar rounding the
    /// quantizers use agree at every half value of all 65 536 bit patterns,
    /// at each midpoint to the next half up and one `f32` ulp either side
    /// of it, and past the range ends.
    #[test]
    fn f32_to_f16_matches_scalar_at_every_rounding_boundary() {
        if skip() {
            return;
        }
        let hw = |x: f32| -> u16 {
            // SAFETY: AVX2 and F16C checked by `skip`.
            unsafe { _mm_extract_epi16::<0>(_mm_cvtps_ph::<0>(_mm_set1_ps(x))) as u16 }
        };
        let check = |x: f32| {
            let (got, want) = (scalar::f32_to_f16(x), hw(x));
            if x.is_nan() {
                assert!(scalar::f16_to_f32(got).is_nan(), "{x:?}");
            } else {
                assert_eq!(got, want, "{x:e} ({:#010x})", x.to_bits());
            }
        };
        for h in 0..=u16::MAX {
            let x = scalar::f16_to_f32(h);
            check(x);
            if h & 0x7fff >= 0x7c00 {
                continue;
            }
            // The midpoint to the next half away from zero (12 significant
            // bits: exact in f32); the largest finite half's is checked
            // below with the overflow cases.
            let next = scalar::f16_to_f32(h + 1);
            if next.is_infinite() {
                continue;
            }
            let mid = ((x as f64 + next as f64) / 2.0) as f32;
            for bits in [mid.to_bits() - 1, mid.to_bits(), mid.to_bits() + 1] {
                check(f32::from_bits(bits));
            }
        }
        for x in [
            65519.0f32,
            65520.0,
            1e6,
            f32::MAX,
            f32::INFINITY,
            1e-10,
            f32::MIN_POSITIVE,
        ] {
            check(x);
            check(-x);
        }
    }

    #[test]
    fn tbl32_matches_scalar() {
        if skip() {
            return;
        }
        let mut table = [0i8; 16];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i as i8).wrapping_mul(7) - 50;
        }
        let idx: Vec<u8> = (0..32).map(|i| (i * 5) % 16).collect();
        // SAFETY: AVX2 checked by `skip`; `table` is 16 readable bytes, the
        // table duplicated into both lanes.
        let got = unsafe {
            let t = _mm256_setr_m128i(
                _mm_loadu_si128(table.as_ptr().cast()),
                _mm_loadu_si128(table.as_ptr().cast()),
            );
            let iv = loadu_256(&idx);
            to_bytes(tbl32(t, iv))
        };
        let mut want = vec![0i8; 32];
        scalar::tbl16(&table, &idx, &mut want);
        assert_eq!(got.map(|b| b as i8).to_vec(), want);
    }

    #[test]
    fn unpack_interleaved_matches_scalar() {
        if skip() {
            return;
        }
        let packed: Vec<u8> = (0..16).map(|i| (i * 37 + 11) as u8).collect();
        // SAFETY: AVX2 checked by `skip`.
        let got = unsafe {
            let b = loadu_128(&packed);
            to_bytes(unpack_nibbles_interleaved(b))
        };
        let (mut lo, mut hi) = (vec![0u8; 16], vec![0u8; 16]);
        scalar::unpack_nibbles(&packed, &mut lo, &mut hi);
        assert_eq!(&got[..16], &lo[..]);
        assert_eq!(&got[16..], &hi[..]);
    }

    #[test]
    fn unpack_sequential_restores_row_order() {
        if skip() {
            return;
        }
        // Rows 0..32 packed sequentially: byte j = row 2j | row 2j+1 << 4.
        let rows: Vec<u8> = (0..32).map(|r| (r * 3) % 16).collect();
        let packed: Vec<u8> = (0..16)
            .map(|j| rows[2 * j] | (rows[2 * j + 1] << 4))
            .collect();
        // SAFETY: AVX2 checked by `skip`.
        let got = unsafe {
            let b = loadu_128(&packed);
            to_bytes(unpack_nibbles_sequential(b))
        };
        assert_eq!(got.to_vec(), rows);
    }

    #[test]
    fn accumulate_i16_exact() {
        if skip() {
            return;
        }
        let vals: Vec<i8> = (0..32).map(|i| (i as i8) - 16).collect();
        // SAFETY: AVX2 checked by `skip`.
        let (lo, hi) = unsafe {
            let v = loadu_256(&vals.iter().map(|&x| x as u8).collect::<Vec<_>>());
            let acc = (_mm256_setzero_si256(), _mm256_setzero_si256());
            let (a0, a1) = accumulate_i8_into_i16(acc, v);
            let (a0, a1) = accumulate_i8_into_i16((a0, a1), v);
            let mut lo16 = [0i16; 16];
            let mut hi16 = [0i16; 16];
            _mm256_storeu_si256(lo16.as_mut_ptr() as *mut __m256i, a0);
            _mm256_storeu_si256(hi16.as_mut_ptr() as *mut __m256i, a1);
            (lo16, hi16)
        };
        for i in 0..16 {
            assert_eq!(lo[i], 2 * (vals[i] as i16));
            assert_eq!(hi[i], 2 * (vals[16 + i] as i16));
        }
    }

    #[test]
    fn gather_matches_table() {
        if skip() {
            return;
        }
        let table: Vec<f32> = (0..16).map(|i| i as f32 * 1.5 - 8.0).collect();
        let idx8: Vec<u8> = (0..16).map(|i| ((i * 11) % 16) as u8).collect();
        // SAFETY: AVX2 checked by `skip`.
        let (g0, g1) = unsafe {
            let raw = loadu_128(&idx8);
            let (i0, i1) = widen_u8_to_i32(raw);
            let g0 = gather_f32(&table, i0);
            let g1 = gather_f32(&table, i1);
            let mut o0 = [0f32; 8];
            let mut o1 = [0f32; 8];
            _mm256_storeu_ps(o0.as_mut_ptr(), g0);
            _mm256_storeu_ps(o1.as_mut_ptr(), g1);
            (o0, o1)
        };
        for i in 0..8 {
            assert_eq!(g0[i], table[idx8[i] as usize]);
            assert_eq!(g1[i], table[idx8[8 + i] as usize]);
        }
    }

    #[test]
    fn f32_ops_match_scalar() {
        if skip() {
            return;
        }
        let a: Vec<f32> = (0..103).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..103).map(|i| (i as f32 * 0.3).cos()).collect();
        // SAFETY: AVX2+FMA checked by `skip`.
        let d = unsafe { dot_f32(&a, &b) };
        assert!((d - scalar::dot_f32(&a, &b)).abs() < 1e-3);
        let mut y1 = b.clone();
        let mut y2 = b.clone();
        // SAFETY: AVX2+FMA checked by `skip`.
        unsafe { axpy_f32(&mut y1, 1.37, &a) };
        scalar::axpy_f32(&mut y2, 1.37, &a);
        for (x, y) in y1.iter().zip(&y2) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn dot_i8_matches_scalar() {
        if skip() {
            return;
        }
        // Clamped codes (-127..=127), the `maddubs` kernel's domain.
        let a: Vec<i8> = (0..131).map(|i| ((i * 37) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..131).map(|i| ((i * 91) % 255 - 127) as i8).collect();
        // SAFETY: AVX2 checked by `skip`.
        let got = unsafe { dot_i8_maddubs(&a, &b) };
        assert_eq!(got, scalar::dot_i8(&a, &b));
    }

    #[test]
    fn i8_accumulates_bit_match_scalar() {
        if skip() {
            return;
        }
        // Length 77 exercises both the 8-wide body and the scalar tail.
        let x: Vec<i8> = (0..77).map(|i| ((i * 53) % 255 - 127) as i8).collect();
        let y0: Vec<f32> = (0..77).map(|i| ((i as f32) * 0.41).sin() * 2.3).collect();

        let mut y1 = y0.clone();
        let mut y2 = y0.clone();
        // SAFETY: AVX2 checked by `skip`.
        unsafe { axpy_f32_i8(&mut y1, 0.173, &x) };
        scalar::axpy_f32_i8(&mut y2, 0.173, &x);
        assert_eq!(y1, y2, "axpy_f32_i8");

        let mut y1 = y0.clone();
        let mut y2 = y0;
        // SAFETY: AVX2 checked by `skip`.
        unsafe { scale_axpy_f32_i8(&mut y1, 0.61, -0.83, &x) };
        scalar::scale_axpy_f32_i8(&mut y2, 0.61, -0.83, &x);
        assert_eq!(y1, y2, "scale_axpy_f32_i8");
    }

    #[test]
    fn rope_apply_bit_matches_scalar() {
        if skip() {
            return;
        }
        // 22 elements: one 8-wide body step plus a 6-element pair tail.
        for n in [8usize, 22, 64] {
            let mut v1: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.7).sin() * 1.9).collect();
            let mut v2 = v1.clone();
            let mut cos_dup = vec![0f32; n];
            let mut sin_dup = vec![0f32; n];
            for i in 0..n / 2 {
                let (s, c) = ((i as f32) * 0.37 + 0.2).sin_cos();
                cos_dup[2 * i] = c;
                cos_dup[2 * i + 1] = c;
                sin_dup[2 * i] = -s;
                sin_dup[2 * i + 1] = s;
            }
            // SAFETY: AVX2 checked by `skip`.
            unsafe { rope_apply_f32(&mut v1, &cos_dup, &sin_dup) };
            scalar::rope_apply_f32(&mut v2, &cos_dup, &sin_dup);
            assert_eq!(v1, v2, "n = {n}");
        }
    }
}
