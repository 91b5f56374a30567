//! AVX2 `vec_dot` kernels for the dequantization baseline.
//!
//! Faithful to llama.cpp's AVX2 path: per 32-weight block, SIMD-unpack the
//! packed codes to centered `i8`, integer-dot them against the `Q8_0`
//! activation codes with the `maddubs` sign trick, and fold the combined
//! scale — the block's half `d` widened by a lookup in the 65 536-entry
//! `tmac_simd::scalar::f16_table`, as llama.cpp's `GGML_FP16_TO_FP32` reads
//! `ggml_table_f32_f16` — with one FMA into eight persistent `f32`
//! accumulator lanes. (A `vcvtph2ps` per block costs two vector uops on a
//! loop of about twenty and measured 15 % slower on a 1024 × 4096 W2 GEMV.)
//!
//! The per-format unpack costs are the point of the comparison (paper §5.2):
//! 4-bit is one `AND`/`SHR` pair, 2-bit is four shift/mask passes, 3-bit
//! additionally merges a separate high-bit mask (llama.cpp's 2+1 split) —
//! and none of them get cheaper as bits shrink, unlike T-MAC's lookups.

#![allow(clippy::missing_safety_doc)] // Module rule: call only after `available()`.

use std::arch::x86_64::*;
use tmac_quant::formats::{BlockQ1_0, BlockQ2_0, BlockQ3S, BlockQ4_0, BlockQ8_0};
use tmac_simd::avx2 as simd;

/// Returns true if these kernels may be called.
pub fn available() -> bool {
    simd::available()
}

/// Integer block dot: centered weight codes (`> -128`) times activation
/// codes, returning 8 partial `i32` lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn block_dot_i32(w: __m256i, a: __m256i) -> __m256i {
    let abs_w = _mm256_sign_epi8(w, w);
    let sgn_a = _mm256_sign_epi8(a, w);
    let prod = _mm256_maddubs_epi16(abs_w, sgn_a);
    _mm256_madd_epi16(prod, _mm256_set1_epi16(1))
}

/// Loads the 32 activation codes of a `Q8_0` block.
#[inline]
#[target_feature(enable = "avx2")]
fn load_act(b: &BlockQ8_0) -> __m256i {
    // SAFETY: `qs` is exactly 32 readable bytes.
    unsafe { _mm256_loadu_si256(b.qs.as_ptr() as *const __m256i) }
}

/// `Q4_0` unpack: 16 bytes -> 32 centered codes (llama.cpp split halves).
#[inline]
#[target_feature(enable = "avx2")]
fn unpack_q4(b: &BlockQ4_0) -> __m256i {
    let raw = simd::loadu_128(&b.qs);
    let mask = _mm_set1_epi8(0x0F);
    let lo = _mm_and_si128(raw, mask);
    let hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    let codes = _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
    _mm256_sub_epi8(codes, _mm256_set1_epi8(8))
}

/// Plane-strided 2-bit unpack: 8 bytes -> 32 codes in natural order.
#[inline]
#[target_feature(enable = "avx2")]
fn unpack_2bit_fields(qs: &[u8; 8]) -> __m256i {
    let raw = _mm_set_epi64x(0, i64::from_le_bytes(*qs));
    let mask = _mm_set1_epi8(0x3);
    let f0 = _mm_and_si128(raw, mask);
    let f1 = _mm_and_si128(_mm_srli_epi64(raw, 2), mask);
    let f2 = _mm_and_si128(_mm_srli_epi64(raw, 4), mask);
    let f3 = _mm_and_si128(_mm_srli_epi64(raw, 6), mask);
    let lo = _mm_unpacklo_epi64(f0, f1); // codes 0..16
    let hi = _mm_unpacklo_epi64(f2, f3); // codes 16..32
    _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1)
}

/// Expands a 32-bit mask to bytes: lane `l` = `0xFF` if bit `l` set.
#[inline]
#[target_feature(enable = "avx2")]
fn expand_bits32(mask: u32) -> __m256i {
    let v = _mm256_set1_epi32(mask as i32);
    // Byte l of each 128-bit lane must pick source byte l/8 (bytes 0,1 in
    // the low lane, 2,3 in the high lane of the replicated u32).
    let sel = _mm256_set_epi8(
        3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, //
        1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0,
    );
    let bytes = _mm256_shuffle_epi8(v, sel);
    let bits = _mm256_set_epi8(
        -128, 64, 32, 16, 8, 4, 2, 1, -128, 64, 32, 16, 8, 4, 2, 1, //
        -128, 64, 32, 16, 8, 4, 2, 1, -128, 64, 32, 16, 8, 4, 2, 1,
    );
    _mm256_cmpeq_epi8(_mm256_and_si256(bytes, bits), bits)
}

/// `Q4_0 × Q8_0` row dot.
///
/// # Panics
///
/// Panics if the rows have different block counts.
#[target_feature(enable = "avx2,fma")]
pub fn vec_dot_q4(w: &[BlockQ4_0], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let half = tmac_simd::scalar::f16_table();
    let mut acc = _mm256_setzero_ps();
    for (wb, ab) in w.iter().zip(a) {
        let sumi = block_dot_i32(unpack_q4(wb), load_act(ab));
        let d = _mm256_set1_ps(half[wb.d as usize] * ab.d);
        acc = _mm256_fmadd_ps(d, _mm256_cvtepi32_ps(sumi), acc);
    }
    simd::hsum_ps(acc)
}

/// `Q3S × Q8_0` row dot (2-bit planes plus high-bit mask merge).
///
/// # Panics
///
/// Panics if the rows have different block counts.
#[target_feature(enable = "avx2,fma")]
pub fn vec_dot_q3(w: &[BlockQ3S], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let half = tmac_simd::scalar::f16_table();
    let mut acc = _mm256_setzero_ps();
    for (wb, ab) in w.iter().zip(a) {
        let lo = unpack_2bit_fields(&wb.qlo);
        let himask = expand_bits32(u32::from_le_bytes(wb.qhi));
        let hi = _mm256_and_si256(himask, _mm256_set1_epi8(4));
        let codes = _mm256_sub_epi8(_mm256_or_si256(lo, hi), _mm256_set1_epi8(4));
        let sumi = block_dot_i32(codes, load_act(ab));
        let d = _mm256_set1_ps(half[wb.d as usize] * ab.d);
        acc = _mm256_fmadd_ps(d, _mm256_cvtepi32_ps(sumi), acc);
    }
    simd::hsum_ps(acc)
}

/// `Q2_0 × Q8_0` row dot.
///
/// # Panics
///
/// Panics if the rows have different block counts.
#[target_feature(enable = "avx2,fma")]
pub fn vec_dot_q2(w: &[BlockQ2_0], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let half = tmac_simd::scalar::f16_table();
    let mut acc = _mm256_setzero_ps();
    for (wb, ab) in w.iter().zip(a) {
        let codes = _mm256_sub_epi8(unpack_2bit_fields(&wb.qs), _mm256_set1_epi8(2));
        let sumi = block_dot_i32(codes, load_act(ab));
        let d = _mm256_set1_ps(half[wb.d as usize] * ab.d);
        acc = _mm256_fmadd_ps(d, _mm256_cvtepi32_ps(sumi), acc);
    }
    simd::hsum_ps(acc)
}

/// `Q1_0 × Q8_0` row dot (sign weights, `±1` codes, scale halved).
///
/// # Panics
///
/// Panics if the rows have different block counts.
#[target_feature(enable = "avx2,fma")]
pub fn vec_dot_q1(w: &[BlockQ1_0], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let half = tmac_simd::scalar::f16_table();
    let mut acc = _mm256_setzero_ps();
    for (wb, ab) in w.iter().zip(a) {
        let mask = expand_bits32(u32::from_le_bytes(wb.qs));
        // 0xFF -> +1, 0x00 -> -1: (mask & 2) - 1.
        let codes = _mm256_sub_epi8(
            _mm256_and_si256(mask, _mm256_set1_epi8(2)),
            _mm256_set1_epi8(1),
        );
        let sumi = block_dot_i32(codes, load_act(ab));
        let d = _mm256_set1_ps(half[wb.d as usize] * 0.5 * ab.d);
        acc = _mm256_fmadd_ps(d, _mm256_cvtepi32_ps(sumi), acc);
    }
    simd::hsum_ps(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use tmac_quant::formats::{
        pack_row_q1_0, pack_row_q2_0, pack_row_q3s, pack_row_q4_0, quantize_q8_0,
    };
    use tmac_quant::rtn;

    #[test]
    fn avx2_matches_scalar_all_formats() {
        if !available() {
            return;
        }
        let k = 320;
        let w: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.19).sin() * 1.1).collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.07).cos() * 0.8).collect();
        let aq = quantize_q8_0(&act);
        for bits in 1..=4u8 {
            let qm = rtn::quantize(&w, 1, k, bits, 32).unwrap();
            // SAFETY: AVX2+FMA checked by `available()`.
            let (got, want) = unsafe {
                match bits {
                    4 => {
                        let b = pack_row_q4_0(&qm, 0).unwrap();
                        (vec_dot_q4(&b, &aq), kernels::vec_dot_q4(&b, &aq))
                    }
                    3 => {
                        let b = pack_row_q3s(&qm, 0).unwrap();
                        (vec_dot_q3(&b, &aq), kernels::vec_dot_q3(&b, &aq))
                    }
                    2 => {
                        let b = pack_row_q2_0(&qm, 0).unwrap();
                        (vec_dot_q2(&b, &aq), kernels::vec_dot_q2(&b, &aq))
                    }
                    1 => {
                        let b = pack_row_q1_0(&qm, 0).unwrap();
                        (vec_dot_q1(&b, &aq), kernels::vec_dot_q1(&b, &aq))
                    }
                    _ => unreachable!(),
                }
            };
            assert!(
                (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                "bits={bits}: avx2 {got} vs scalar {want}"
            );
        }
    }

    #[test]
    fn expand_bits_matches_scalar() {
        if !available() {
            return;
        }
        let mask = 0xA5C3_0F71u32;
        // SAFETY: AVX2 checked by `available()`.
        let got = unsafe {
            let v = expand_bits32(mask);
            let mut out = [0u8; 32];
            _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, v);
            out
        };
        for (l, &g) in got.iter().enumerate() {
            let want = if (mask >> l) & 1 == 1 { 0xFF } else { 0 };
            assert_eq!(g, want, "lane {l}");
        }
    }
}
