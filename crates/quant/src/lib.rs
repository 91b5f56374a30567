//! Quantization substrate for the T-MAC reproduction.
//!
//! Low-bit LLM inference (paper §2.2) starts from *weight-only* quantization:
//! weights are stored as `bits ∈ {1, 2, 3, 4}`-bit codes with per-group
//! scales while activations stay in high precision. This crate provides:
//!
//! * [`QuantizedMatrix`] — the canonical interchange form: one code byte per
//!   weight plus per-`group_size` scales, each an IEEE half value (see
//!   "Scale precision" below). Both the T-MAC kernels
//!   (`tmac-core`) and the llama.cpp-style baseline (`tmac-baseline`)
//!   consume *the same* quantized matrix, so speed comparisons are apples to
//!   apples and outputs can be cross-checked.
//! * [`rtn`] — round-to-nearest group quantization (the GPTQ/AWQ storage
//!   format's arithmetic without the Hessian machinery).
//! * [`bitnet`] — BitNet b1.58 ternary quantization; ternary weights are
//!   "interpreted as 2-bit and decomposed into two 1-bit matrices" (§5.1).
//! * [`formats`] — llama.cpp-style block formats (`Q8_0` activations,
//!   `Q4_0`/`Q3_S`/`Q2_0`/`Q1_0` weights) used by the baseline kernels.
//!
//! # Code ↔ value convention
//!
//! A code `q ∈ [0, 2^bits)` in group `g` of row `m` represents
//! `w = scale[m][g] * (q - zero)`, with `zero` fixed per matrix:
//! `2^(bits-1)` for `bits ≥ 2` (llama.cpp `Q4_0`-style) and `0.5` for
//! `bits == 1` (sign quantization, OneBit-style). The T-MAC bit-serial
//! decomposition (paper Eq. 1 plus the `{-1,+1}` linear transform of §4)
//! consumes exactly this convention; see `tmac-core`.
//!
//! # Scale precision
//!
//! Every packed form stores a scale in 2 bytes, as an IEEE binary16 value
//! (llama.cpp's `ggml_half`). The quantizers round each scale to the
//! nearest half (ties to even, [`tmac_simd::scalar::round_to_f16`]) and
//! compute the codes from the *rounded* scale, and
//! [`QuantizedMatrix::validate`] refuses a scale no half holds. So the
//! `f32` scales of a matrix are exactly what every packed form stores, and
//! each consumer — the T-MAC plans, the dequantization baseline, the
//! reference kernels — computes with the same numbers.

#![forbid(unsafe_code)]

pub mod bitnet;
pub mod formats;
pub mod rtn;

use tmac_simd::scalar::{round_to_f16, F16_MAX};

/// Errors produced by quantization APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// Bit width outside the supported `1..=4` range.
    UnsupportedBits(u8),
    /// A dimension/length invariant was violated; the message names it.
    Shape(String),
    /// A group scale is not an IEEE half value — past the half range
    /// ([`tmac_simd::scalar::F16_MAX`]), between two halves, or a NaN; the
    /// message names it.
    Scale(String),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::UnsupportedBits(b) => {
                write!(f, "unsupported weight bit-width {b} (supported: 1..=4)")
            }
            QuantError::Shape(msg) => write!(f, "shape error: {msg}"),
            QuantError::Scale(msg) => write!(f, "scale error: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// The canonical weight-only quantized matrix (row-major, `rows × cols`).
///
/// Codes are stored one per byte for interchange simplicity; packed kernel
/// layouts (nibble planes, llama.cpp blocks) are derived from this form
/// offline, which matches the paper's offline weight preprocessing stage
/// (Figure 2, "OFFLINE").
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Output features, `M`.
    pub rows: usize,
    /// Input features, `K` (the reduction axis).
    pub cols: usize,
    /// Weight bit-width `∈ 1..=4`.
    pub bits: u8,
    /// Number of consecutive `K` elements sharing one scale.
    pub group_size: usize,
    /// `rows * cols` codes, each `< 2^bits`.
    pub codes: Vec<u8>,
    /// `rows * cols / group_size` scales, row-major, each an IEEE half
    /// value widened to `f32`.
    pub scales: Vec<f32>,
    /// Uniform zero point in code space.
    pub zero: f32,
}

impl QuantizedMatrix {
    /// The zero point this crate uses for a bit width.
    pub fn default_zero(bits: u8) -> f32 {
        if bits == 1 {
            0.5
        } else {
            (1u32 << (bits - 1)) as f32
        }
    }

    /// Validates the internal invariants, returning a descriptive error.
    pub fn validate(&self) -> Result<(), QuantError> {
        if !(1..=4).contains(&self.bits) {
            return Err(QuantError::UnsupportedBits(self.bits));
        }
        if self.group_size == 0 || !self.cols.is_multiple_of(self.group_size) {
            return Err(QuantError::Shape(format!(
                "cols {} not divisible by group_size {}",
                self.cols, self.group_size
            )));
        }
        if self.codes.len() != self.rows * self.cols {
            return Err(QuantError::Shape(format!(
                "codes len {} != rows*cols {}",
                self.codes.len(),
                self.rows * self.cols
            )));
        }
        let expect_scales = self.rows * self.cols / self.group_size;
        if self.scales.len() != expect_scales {
            return Err(QuantError::Shape(format!(
                "scales len {} != {}",
                self.scales.len(),
                expect_scales
            )));
        }
        // The largest code, not the first offender: a max fold vectorizes.
        let max_code = (1u16 << self.bits) as u8;
        let largest = self.codes.iter().fold(0u8, |m, &c| m.max(c));
        if largest >= max_code {
            return Err(QuantError::Shape(format!(
                "code {largest} out of range for {} bits",
                self.bits
            )));
        }
        let half = |s: f32| !s.is_nan() && round_to_f16(s).to_bits() == s.to_bits();
        if let Some(i) = self.scales.iter().position(|&s| !half(s)) {
            return Err(QuantError::Scale(format!(
                "scales[{i}] = {:e} is not an f16 value",
                self.scales[i]
            )));
        }
        Ok(())
    }

    /// Number of scale groups along `K`.
    pub fn groups_per_row(&self) -> usize {
        self.cols / self.group_size
    }

    /// Scale of `(row, k)`.
    #[inline]
    pub fn scale_at(&self, row: usize, k: usize) -> f32 {
        self.scales[row * self.groups_per_row() + k / self.group_size]
    }

    /// Dequantized value of `(row, k)`.
    #[inline]
    pub fn value(&self, row: usize, k: usize) -> f32 {
        let code = self.codes[row * self.cols + k] as f32;
        self.scale_at(row, k) * (code - self.zero)
    }

    /// Dequantizes one row into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols` or `row >= rows`.
    pub fn dequantize_row(&self, row: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "dequantize_row output length");
        let gpr = self.groups_per_row();
        let codes = &self.codes[row * self.cols..(row + 1) * self.cols];
        let scales = &self.scales[row * gpr..(row + 1) * gpr];
        for (g, chunk) in codes.chunks(self.group_size).enumerate() {
            let s = scales[g];
            let base = g * self.group_size;
            for (j, &c) in chunk.iter().enumerate() {
                out[base + j] = s * (c as f32 - self.zero);
            }
        }
    }

    /// Dequantizes the whole matrix (row-major).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            self.dequantize_row(r, &mut out[r * self.cols..(r + 1) * self.cols]);
        }
        out
    }

    /// Bytes this matrix occupies in *packed* deployment form
    /// (`bits` bits per weight plus one 2-byte half scale per group).
    pub fn packed_bytes(&self) -> usize {
        self.rows * self.cols * self.bits as usize / 8 + self.scales.len() * 2
    }
}

/// Rounds a group scale to the nearest IEEE half value (ties to even) —
/// the precision every packed form stores — for the quantizers, which then
/// compute codes from the rounded value.
///
/// # Errors
///
/// [`QuantError::Scale`] if `scale` is NaN or its magnitude exceeds
/// [`tmac_simd::scalar::F16_MAX`] (65504); `what` names the group.
pub(crate) fn half_scale(scale: f32, what: impl FnOnce() -> String) -> Result<f32, QuantError> {
    if scale.abs() <= F16_MAX {
        Ok(round_to_f16(scale))
    } else {
        Err(QuantError::Scale(format!(
            "{}: scale {scale:e} exceeds the f16 maximum {F16_MAX}",
            what()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QuantizedMatrix {
        QuantizedMatrix {
            rows: 2,
            cols: 8,
            bits: 2,
            group_size: 4,
            codes: vec![0, 1, 2, 3, 3, 2, 1, 0, 1, 1, 1, 1, 2, 2, 2, 2],
            scales: vec![1.0, 0.5, 2.0, 0.25],
            zero: 2.0,
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bits() {
        let mut q = tiny();
        q.bits = 5;
        assert_eq!(q.validate(), Err(QuantError::UnsupportedBits(5)));
    }

    #[test]
    fn validate_rejects_ragged_groups() {
        let mut q = tiny();
        q.group_size = 3;
        assert!(matches!(q.validate(), Err(QuantError::Shape(_))));
    }

    #[test]
    fn validate_rejects_code_overflow() {
        let mut q = tiny();
        q.codes[3] = 4; // 2-bit max is 3
        assert!(matches!(q.validate(), Err(QuantError::Shape(_))));
    }

    #[test]
    fn value_and_dequantize_agree() {
        let q = tiny();
        let d = q.dequantize();
        for r in 0..q.rows {
            for k in 0..q.cols {
                assert_eq!(d[r * q.cols + k], q.value(r, k));
            }
        }
        // Spot-check: row 0, k 0: code 0, scale 1.0, zero 2 -> -2.0.
        assert_eq!(q.value(0, 0), -2.0);
        // Row 1, k 4: code 2, group 1 scale 0.25 -> 0.0.
        assert_eq!(q.value(1, 4), 0.0);
    }

    #[test]
    fn default_zero_convention() {
        assert_eq!(QuantizedMatrix::default_zero(1), 0.5);
        assert_eq!(QuantizedMatrix::default_zero(2), 2.0);
        assert_eq!(QuantizedMatrix::default_zero(3), 4.0);
        assert_eq!(QuantizedMatrix::default_zero(4), 8.0);
    }

    #[test]
    fn packed_bytes_counts_bits() {
        let q = tiny();
        // 16 codes at 2 bits = 4 bytes, 4 half scales = 8 bytes.
        assert_eq!(q.packed_bytes(), 12);
    }

    /// A scale no half holds would be rounded by every packed form, so the
    /// matrix is refused instead; half values — subnormal, zero, the
    /// maximum — pass.
    #[test]
    fn validate_rejects_scales_that_are_not_halves() {
        for bad in [0.1f32, 1.0 + 2f32.powi(-12), 65505.0, 1e-8, f32::NAN] {
            let mut q = tiny();
            q.scales[2] = bad;
            assert!(
                matches!(q.validate(), Err(QuantError::Scale(ref m)) if m.contains("scales[2]")),
                "{bad:e}"
            );
        }
        for good in [
            0.0f32,
            -0.0,
            2f32.powi(-24),
            1638.0 / 16384.0,
            65504.0,
            f32::INFINITY,
        ] {
            let mut q = tiny();
            q.scales[2] = good;
            assert_eq!(q.validate(), Ok(()), "{good:e}");
        }
    }

    #[test]
    fn half_scale_rounds_and_bounds() {
        assert_eq!(half_scale(0.1, String::new), Ok(1638.0 / 16384.0));
        assert_eq!(half_scale(65504.0, String::new), Ok(65504.0));
        assert_eq!(half_scale(1e-8, String::new), Ok(0.0));
        for bad in [65505.0f32, -1e6, f32::INFINITY, f32::NAN] {
            assert!(matches!(
                half_scale(bad, || "row 3 group 1".into()),
                Err(QuantError::Scale(m)) if m.starts_with("row 3 group 1")
            ));
        }
    }

    #[test]
    fn error_display() {
        let e = QuantError::UnsupportedBits(7);
        assert!(e.to_string().contains('7'));
    }
}
