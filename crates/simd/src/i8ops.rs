//! Runtime-dispatched `i8` vector operations.
//!
//! Used by the `i8` KV cache and its attention path (`tmac-llm`): symmetric
//! quantization of K/V rows and queries, the score dot product, and the
//! scaled value accumulates.

use crate::scalar;

/// Signed 8-bit dot product via the `maddubs` sign trick where available.
///
/// Requires every element of both slices to be `> -128` — quantized codes
/// from [`quantize`] are clamped to `-127..=127`, so attention over a
/// quantized KV cache always satisfies this. The scalar fallback computes
/// the identical integer sum, so the result does not depend on the host
/// ISA.
///
/// # Panics
///
/// Panics if the slices differ in length; AVX2 debug builds also panic on
/// `-128` inputs.
///
/// # Examples
///
/// ```
/// assert_eq!(tmac_simd::i8ops::dot_maddubs(&[2, -3], &[4, 5]), -7);
/// ```
pub fn dot_maddubs(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        return unsafe { crate::avx2::dot_i8_maddubs(a, b) };
    }
    scalar::dot_i8(a, b)
}

/// `y[i] += a * (x[i] as f32)`: scaled `i8` accumulate into `f32` (the
/// attention value-gather over a quantized KV cache). Bit-identical across
/// the SIMD and scalar paths (multiply then add, no FMA).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(y: &mut [f32], a: f32, x: &[i8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::axpy_f32_i8(y, a, x) };
        return;
    }
    scalar::axpy_f32_i8(y, a, x);
}

/// `y[i] = (y[i] * c) + a * (x[i] as f32)`: the streaming-softmax rescale +
/// accumulate step (see [`crate::f32ops::OnlineSoftmax`]), fused into one
/// sweep. Bit-identical across the SIMD and scalar paths.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn scale_axpy(y: &mut [f32], c: f32, a: f32, x: &[i8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::avx2::available() {
        // SAFETY: AVX2 support verified by `available()`.
        unsafe { crate::avx2::scale_axpy_f32_i8(y, c, a, x) };
        return;
    }
    scalar::scale_axpy_f32_i8(y, c, a, x);
}

/// Quantizes `src` to `i8` with symmetric scale `max|x| / 127`.
///
/// Returns the scale such that `src[i] ≈ scale * dst[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn quantize(src: &[f32], dst: &mut [i8]) -> f32 {
    scalar::quantize_i8(src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maddubs_dot_matches_exact_dot_on_clamped_codes() {
        // The full clamped code range (-127..=127), odd length for the tail.
        let a: Vec<i8> = (0..333).map(|i| ((i * 37) % 255 - 127) as i8).collect();
        let b: Vec<i8> = (0..333).map(|i| ((i * 91) % 255 - 127) as i8).collect();
        assert_eq!(dot_maddubs(&a, &b), scalar::dot_i8(&a, &b));
    }

    #[test]
    fn i8_accumulates_match_scalar_bitwise() {
        let x: Vec<i8> = (0..100).map(|i| ((i * 29) % 255 - 127) as i8).collect();
        let y0: Vec<f32> = (0..100).map(|i| ((i as f32) * 0.3).cos()).collect();
        let mut y1 = y0.clone();
        let mut y2 = y0.clone();
        axpy(&mut y1, 1.37, &x);
        scalar::axpy_f32_i8(&mut y2, 1.37, &x);
        assert_eq!(y1, y2);
        let mut y1 = y0.clone();
        let mut y2 = y0;
        scale_axpy(&mut y1, 0.25, -2.1, &x);
        scalar::scale_axpy_f32_i8(&mut y2, 0.25, -2.1, &x);
        assert_eq!(y1, y2);
    }
}
