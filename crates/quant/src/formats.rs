//! llama.cpp-style packed block formats.
//!
//! The baseline system (`tmac-baseline`) follows llama.cpp's mixed-precision
//! path: activations are quantized on the fly to 32-element `Q8_0` blocks and
//! weights are stored in per-bit-width packed blocks, each carrying one IEEE
//! half scale `d` per 32 weights (llama.cpp's `ggml_half`; the
//! [`QuantizedMatrix`] scales are halves already, so packing is exact). The
//! activation blocks keep an `f32` scale: they are made per call, never
//! streamed from memory. The packings reproduce the *layout properties* that
//! drive llama.cpp's performance behaviour:
//!
//! * [`BlockQ4_0`] — nibble `j` of the 16 data bytes holds weight `j` (low)
//!   and weight `j + 16` (high), llama.cpp's split-halves convention that
//!   lets one `AND`/`SHR` pair unpack a whole register.
//! * [`BlockQ2_0`] — four 2-bit codes per byte, sequential.
//! * [`BlockQ3S`] — the **2+1 split** for 3-bit: low 2 bits packed like
//!   `Q2_0` plus a separate high-bit bitmask. "llama.cpp attempts to
//!   optimize it by separately packing 2 bits and the remaining 1 bit, but
//!   it still results in significant overhead" (paper §5.2) — this format
//!   exists precisely so that overhead is measurable here.
//! * [`BlockQ1_0`] — one sign bit per weight (llama.cpp has no 1-bit format;
//!   the paper deduces 1-bit baseline performance from 2-bit. This format
//!   lets us measure an actual 1-bit dequant kernel as well).
//!
//! All block formats hold exactly [`QK`] = 32 weights.

use crate::{QuantError, QuantizedMatrix};
use tmac_simd::scalar::f32_to_f16;

/// Weights (and activation elements) per block, llama.cpp's `QK8_0`/`QK4_0`.
pub const QK: usize = 32;

/// One block of `Q8_0`-quantized activations: `x[i] ≈ d * qs[i]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockQ8_0 {
    /// Scale.
    pub d: f32,
    /// Codes in `-127..=127`.
    pub qs: [i8; QK],
}

/// One block of 4-bit weights: `w[j] ≈ d * (code_j - 8)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockQ4_0 {
    /// Scale, IEEE half bits.
    pub d: u16,
    /// Byte `j` holds weight `j` in its low nibble, weight `j + 16` high.
    pub qs: [u8; QK / 2],
}

/// One block of 2-bit weights: `w[j] ≈ d * (code_j - 2)`.
///
/// Plane-strided packing (as llama.cpp's `Q2_K` data bytes): byte `j` holds
/// codes `j`, `j + 8`, `j + 16`, `j + 24` in its four 2-bit fields, so a
/// SIMD unpack is four uniform `SHR`/`AND` passes over the same bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockQ2_0 {
    /// Scale, IEEE half bits.
    pub d: u16,
    /// Byte `j`, field `f` (bits `2f..2f+2`) holds code `8f + j`.
    pub qs: [u8; QK / 4],
}

/// One block of 3-bit weights in llama.cpp's 2+1 split: low two bits packed
/// like [`BlockQ2_0`], high bit in a 32-bit mask. `w[j] ≈ d * (code_j - 4)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockQ3S {
    /// Scale, IEEE half bits.
    pub d: u16,
    /// Low 2 bits of each code, plane-strided like [`BlockQ2_0::qs`].
    pub qlo: [u8; QK / 4],
    /// High (third) bit of each code: bit `j % 8` of byte `j / 8` for
    /// weight `j` (so byte `f` covers the same codes as field `f` of
    /// `qlo`).
    pub qhi: [u8; QK / 8],
}

/// One block of 1-bit weights: `w[j] ≈ d * (code_j - 0.5)`, i.e. `±d/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockQ1_0 {
    /// Scale, IEEE half bits.
    pub d: u16,
    /// Sign bits, bit `j` of the mask for weight `j`.
    pub qs: [u8; QK / 8],
}

/// Quantizes a `f32` slice into `Q8_0` blocks (llama.cpp's activation path).
///
/// # Panics
///
/// Panics if `src.len()` is not a multiple of [`QK`].
pub fn quantize_q8_0(src: &[f32]) -> Vec<BlockQ8_0> {
    assert_eq!(src.len() % QK, 0, "Q8_0 needs a multiple of {QK} values");
    src.chunks(QK)
        .map(|chunk| {
            let mut qs = [0i8; QK];
            let d = tmac_simd::scalar::quantize_i8(chunk, &mut qs);
            BlockQ8_0 { d, qs }
        })
        .collect()
}

/// Dequantizes `Q8_0` blocks back to `f32` (testing/reference).
pub fn dequantize_q8_0(blocks: &[BlockQ8_0]) -> Vec<f32> {
    let mut out = Vec::with_capacity(blocks.len() * QK);
    for b in blocks {
        out.extend(b.qs.iter().map(|&q| b.d * q as f32));
    }
    out
}

fn row_groups(qm: &QuantizedMatrix, bits: u8) -> Result<(), QuantError> {
    if qm.bits != bits {
        return Err(QuantError::Shape(format!(
            "matrix is {}-bit, format needs {bits}-bit",
            qm.bits
        )));
    }
    if qm.group_size != QK {
        return Err(QuantError::Shape(format!(
            "block formats need group_size {QK}, got {}",
            qm.group_size
        )));
    }
    qm.validate()
}

/// Checks `qm` against the format **once** (a full scan of every code, and
/// every scale a half), then packs `rows` of it, turning each 32-code group
/// and its half scale into one block with `block`.
fn pack_rows<B>(
    qm: &QuantizedMatrix,
    bits: u8,
    rows: std::ops::Range<usize>,
    block: impl Fn(&[u8], u16) -> B,
) -> Result<Vec<B>, QuantError> {
    row_groups(qm, bits)?;
    let gpr = qm.groups_per_row();
    let mut out = Vec::with_capacity(rows.len() * gpr);
    for row in rows {
        let codes = &qm.codes[row * qm.cols..(row + 1) * qm.cols];
        let scales = &qm.scales[row * gpr..(row + 1) * gpr];
        out.extend(
            codes
                .chunks_exact(QK)
                .zip(scales)
                .map(|(c, &d)| block(c, f32_to_f16(d))),
        );
    }
    Ok(out)
}

fn block_q4_0(c: &[u8], d: u16) -> BlockQ4_0 {
    let mut qs = [0u8; QK / 2];
    for j in 0..QK / 2 {
        qs[j] = c[j] | (c[j + QK / 2] << 4);
    }
    BlockQ4_0 { d, qs }
}

/// Packs one row of a 4-bit [`QuantizedMatrix`] into `Q4_0` blocks.
///
/// # Errors
///
/// Fails unless `qm.bits == 4` and `qm.group_size == 32`.
pub fn pack_row_q4_0(qm: &QuantizedMatrix, row: usize) -> Result<Vec<BlockQ4_0>, QuantError> {
    pack_rows(qm, 4, row..row + 1, block_q4_0)
}

/// Packs every row of a 4-bit [`QuantizedMatrix`] into `Q4_0` blocks,
/// row-major (the concatenation of [`pack_row_q4_0`] over all rows, with the
/// matrix validated once instead of once per row).
///
/// # Errors
///
/// Fails unless `qm.bits == 4` and `qm.group_size == 32`.
pub fn pack_q4_0(qm: &QuantizedMatrix) -> Result<Vec<BlockQ4_0>, QuantError> {
    pack_rows(qm, 4, 0..qm.rows, block_q4_0)
}

/// Unpacks a `Q4_0` block to centered codes `code - 8 ∈ [-8, 7]`.
pub fn unpack_q4_0(b: &BlockQ4_0, out: &mut [i8; QK]) {
    for j in 0..QK / 2 {
        out[j] = (b.qs[j] & 0x0F) as i8 - 8;
        out[j + QK / 2] = (b.qs[j] >> 4) as i8 - 8;
    }
}

fn block_q2_0(c: &[u8], d: u16) -> BlockQ2_0 {
    let mut qs = [0u8; QK / 4];
    for (j, q) in qs.iter_mut().enumerate() {
        *q = c[j] | (c[8 + j] << 2) | (c[16 + j] << 4) | (c[24 + j] << 6);
    }
    BlockQ2_0 { d, qs }
}

/// Packs one row of a 2-bit [`QuantizedMatrix`] into `Q2_0` blocks.
///
/// # Errors
///
/// Fails unless `qm.bits == 2` and `qm.group_size == 32`.
pub fn pack_row_q2_0(qm: &QuantizedMatrix, row: usize) -> Result<Vec<BlockQ2_0>, QuantError> {
    pack_rows(qm, 2, row..row + 1, block_q2_0)
}

/// Packs every row of a 2-bit [`QuantizedMatrix`] into `Q2_0` blocks,
/// row-major (see [`pack_q4_0`]).
///
/// # Errors
///
/// Fails unless `qm.bits == 2` and `qm.group_size == 32`.
pub fn pack_q2_0(qm: &QuantizedMatrix) -> Result<Vec<BlockQ2_0>, QuantError> {
    pack_rows(qm, 2, 0..qm.rows, block_q2_0)
}

/// Unpacks a `Q2_0` block to centered codes `code - 2 ∈ [-2, 1]`.
pub fn unpack_q2_0(b: &BlockQ2_0, out: &mut [i8; QK]) {
    for f in 0..4 {
        for j in 0..QK / 4 {
            out[8 * f + j] = ((b.qs[j] >> (2 * f)) & 0x3) as i8 - 2;
        }
    }
}

fn block_q3s(c: &[u8], d: u16) -> BlockQ3S {
    let mut qlo = [0u8; QK / 4];
    let mut qhi = [0u8; QK / 8];
    for (j, q) in qlo.iter_mut().enumerate() {
        *q = (c[j] & 0x3)
            | ((c[8 + j] & 0x3) << 2)
            | ((c[16 + j] & 0x3) << 4)
            | ((c[24 + j] & 0x3) << 6);
    }
    for (j, &code) in c.iter().enumerate() {
        if code & 0x4 != 0 {
            qhi[j / 8] |= 1 << (j % 8);
        }
    }
    BlockQ3S { d, qlo, qhi }
}

/// Packs one row of a 3-bit [`QuantizedMatrix`] into 2+1-split blocks.
///
/// # Errors
///
/// Fails unless `qm.bits == 3` and `qm.group_size == 32`.
pub fn pack_row_q3s(qm: &QuantizedMatrix, row: usize) -> Result<Vec<BlockQ3S>, QuantError> {
    pack_rows(qm, 3, row..row + 1, block_q3s)
}

/// Packs every row of a 3-bit [`QuantizedMatrix`] into 2+1-split blocks,
/// row-major (see [`pack_q4_0`]).
///
/// # Errors
///
/// Fails unless `qm.bits == 3` and `qm.group_size == 32`.
pub fn pack_q3s(qm: &QuantizedMatrix) -> Result<Vec<BlockQ3S>, QuantError> {
    pack_rows(qm, 3, 0..qm.rows, block_q3s)
}

/// Unpacks a `Q3S` block to centered codes `code - 4 ∈ [-4, 3]`.
///
/// This is deliberately the multi-step decode (low bits, then OR in the high
/// bit from the mask) whose cost the paper attributes llama.cpp's 3-bit
/// slowdown to.
pub fn unpack_q3s(b: &BlockQ3S, out: &mut [i8; QK]) {
    for f in 0..4 {
        for j in 0..QK / 4 {
            out[8 * f + j] = ((b.qlo[j] >> (2 * f)) & 0x3) as i8;
        }
    }
    for (j, o) in out.iter_mut().enumerate() {
        let hi = (b.qhi[j / 8] >> (j % 8)) & 1;
        *o |= (hi << 2) as i8;
        *o -= 4;
    }
}

fn block_q1_0(c: &[u8], d: u16) -> BlockQ1_0 {
    let mut qs = [0u8; QK / 8];
    for (j, &code) in c.iter().enumerate() {
        if code != 0 {
            qs[j / 8] |= 1 << (j % 8);
        }
    }
    BlockQ1_0 { d, qs }
}

/// Packs one row of a 1-bit [`QuantizedMatrix`] into sign-bit blocks.
///
/// # Errors
///
/// Fails unless `qm.bits == 1` and `qm.group_size == 32`.
pub fn pack_row_q1_0(qm: &QuantizedMatrix, row: usize) -> Result<Vec<BlockQ1_0>, QuantError> {
    pack_rows(qm, 1, row..row + 1, block_q1_0)
}

/// Packs every row of a 1-bit [`QuantizedMatrix`] into sign-bit blocks,
/// row-major (see [`pack_q4_0`]).
///
/// # Errors
///
/// Fails unless `qm.bits == 1` and `qm.group_size == 32`.
pub fn pack_q1_0(qm: &QuantizedMatrix) -> Result<Vec<BlockQ1_0>, QuantError> {
    pack_rows(qm, 1, 0..qm.rows, block_q1_0)
}

/// Unpacks a `Q1_0` block to doubled centered codes `2*code - 1 ∈ {-1, 1}`.
///
/// Centered 1-bit codes are `±0.5`; doubling keeps them integral for `i8`
/// arithmetic, so callers must halve the scale (`d/2`) when accumulating.
pub fn unpack_q1_0(b: &BlockQ1_0, out: &mut [i8; QK]) {
    for (j, o) in out.iter_mut().enumerate() {
        let bit = (b.qs[j / 8] >> (j % 8)) & 1;
        *o = (2 * bit as i8) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtn;
    use tmac_simd::scalar::f16_to_f32;

    /// A half `d` makes the weight blocks ggml's sizes: `Q4_0` is 18 bytes
    /// (4.5 bits per weight), `Q2_0` 10, the 2+1 split 14, `Q1_0` 6.
    #[test]
    fn weight_blocks_store_a_two_byte_scale() {
        use std::mem::size_of;
        assert_eq!(size_of::<BlockQ4_0>(), 2 + QK / 2);
        assert_eq!(size_of::<BlockQ2_0>(), 2 + QK / 4);
        assert_eq!(size_of::<BlockQ3S>(), 2 + QK / 4 + QK / 8);
        assert_eq!(size_of::<BlockQ1_0>(), 2 + QK / 8);
    }

    fn weights(cols: usize) -> Vec<f32> {
        (0..cols).map(|i| ((i as f32) * 0.71).sin() * 1.4).collect()
    }

    fn check_roundtrip(bits: u8) {
        let cols = 128;
        let w = weights(cols);
        let qm = rtn::quantize(&w, 1, cols, bits, QK).unwrap();
        let reference = qm.dequantize();
        let mut got = vec![0.0f32; cols];
        match bits {
            4 => {
                for (g, b) in pack_row_q4_0(&qm, 0).unwrap().iter().enumerate() {
                    let mut codes = [0i8; QK];
                    unpack_q4_0(b, &mut codes);
                    for (j, &c) in codes.iter().enumerate() {
                        got[g * QK + j] = f16_to_f32(b.d) * c as f32;
                    }
                }
            }
            3 => {
                for (g, b) in pack_row_q3s(&qm, 0).unwrap().iter().enumerate() {
                    let mut codes = [0i8; QK];
                    unpack_q3s(b, &mut codes);
                    for (j, &c) in codes.iter().enumerate() {
                        got[g * QK + j] = f16_to_f32(b.d) * c as f32;
                    }
                }
            }
            2 => {
                for (g, b) in pack_row_q2_0(&qm, 0).unwrap().iter().enumerate() {
                    let mut codes = [0i8; QK];
                    unpack_q2_0(b, &mut codes);
                    for (j, &c) in codes.iter().enumerate() {
                        got[g * QK + j] = f16_to_f32(b.d) * c as f32;
                    }
                }
            }
            1 => {
                for (g, b) in pack_row_q1_0(&qm, 0).unwrap().iter().enumerate() {
                    let mut codes = [0i8; QK];
                    unpack_q1_0(b, &mut codes);
                    for (j, &c) in codes.iter().enumerate() {
                        got[g * QK + j] = f16_to_f32(b.d) * 0.5 * c as f32;
                    }
                }
            }
            _ => unreachable!(),
        }
        for (k, (&r, &g)) in reference.iter().zip(&got).enumerate() {
            assert!((r - g).abs() < 1e-6, "bits={bits} k={k}: {r} vs {g}");
        }
    }

    #[test]
    fn q4_pack_unpack_matches_dequant() {
        check_roundtrip(4);
    }

    #[test]
    fn q3_pack_unpack_matches_dequant() {
        check_roundtrip(3);
    }

    #[test]
    fn q2_pack_unpack_matches_dequant() {
        check_roundtrip(2);
    }

    #[test]
    fn q1_pack_unpack_matches_dequant() {
        check_roundtrip(1);
    }

    #[test]
    fn q8_roundtrip_error_bounded() {
        let src = weights(96);
        let blocks = quantize_q8_0(&src);
        assert_eq!(blocks.len(), 3);
        let back = dequantize_q8_0(&blocks);
        for (bi, b) in blocks.iter().enumerate() {
            for j in 0..QK {
                let i = bi * QK + j;
                assert!((src[i] - back[i]).abs() <= b.d * 0.5 + 1e-7);
            }
        }
    }

    #[test]
    fn format_bit_mismatch_rejected() {
        let w = weights(32);
        let qm = rtn::quantize(&w, 1, 32, 2, QK).unwrap();
        assert!(pack_row_q4_0(&qm, 0).is_err());
        assert!(pack_row_q3s(&qm, 0).is_err());
        assert!(pack_row_q1_0(&qm, 0).is_err());
        assert!(pack_row_q2_0(&qm, 0).is_ok());
    }

    #[test]
    fn group_size_mismatch_rejected() {
        let w = weights(64);
        let qm = rtn::quantize(&w, 1, 64, 4, 64).unwrap();
        assert!(pack_row_q4_0(&qm, 0).is_err());
    }
}
