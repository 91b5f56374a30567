//! Round-to-nearest (RTN) group quantization.
//!
//! The storage arithmetic shared by GPTQ, AWQ and llama.cpp's `Q*_0`
//! formats: per-group symmetric scale chosen from the group's max
//! magnitude, codes rounded to nearest.

use crate::{half_scale, QuantError, QuantizedMatrix};

/// Quantizes a row-major `rows × cols` matrix to `bits` with per-`group_size`
/// scales.
///
/// The scale maps the group's maximum magnitude to the most negative code
/// (`-zero`), matching llama.cpp's `Q4_0` convention, so the representable
/// range is `[-amax, amax * (2^bits - 1 - zero) / zero]`. It is rounded to
/// the nearest IEEE half value (the crate's "Scale precision") before the
/// codes are computed from it. A group whose scale is 0 — all zeros, or
/// magnitudes below half precision — gets code `round(zero)` throughout,
/// the code of the value 0.
///
/// # Errors
///
/// Returns [`QuantError`] if `bits ∉ 1..=4`, dimensions don't match
/// `weights.len()`, `cols` is not divisible by `group_size`, or a group's
/// scale exceeds the half range ([`QuantError::Scale`]).
///
/// # Examples
///
/// ```
/// let w: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.1).collect();
/// let q = tmac_quant::rtn::quantize(&w, 2, 32, 4, 32).unwrap();
/// let d = q.dequantize();
/// for (x, y) in w.iter().zip(&d) {
///     // Worst-case error is one step (scale = amax/8 = 0.4 here).
///     assert!((x - y).abs() <= 0.4 + 1e-6);
/// }
/// ```
pub fn quantize(
    weights: &[f32],
    rows: usize,
    cols: usize,
    bits: u8,
    group_size: usize,
) -> Result<QuantizedMatrix, QuantError> {
    if !(1..=4).contains(&bits) {
        return Err(QuantError::UnsupportedBits(bits));
    }
    if weights.len() != rows * cols {
        return Err(QuantError::Shape(format!(
            "weights len {} != rows*cols {}",
            weights.len(),
            rows * cols
        )));
    }
    if group_size == 0 || !cols.is_multiple_of(group_size) {
        return Err(QuantError::Shape(format!(
            "cols {cols} not divisible by group_size {group_size}"
        )));
    }
    let zero = QuantizedMatrix::default_zero(bits);
    let max_code = ((1u16 << bits) - 1) as f32;
    let mut codes = vec![0u8; rows * cols];
    let mut scales = vec![0f32; rows * cols / group_size];
    let gpr = cols / group_size;
    for r in 0..rows {
        let wrow = &weights[r * cols..(r + 1) * cols];
        let srow = &mut scales[r * gpr..(r + 1) * gpr];
        // A row's scales first, then its codes: two loops of independent
        // groups rather than one chain of max → scale → codes per group.
        for (g, (s, grp)) in srow
            .iter_mut()
            .zip(wrow.chunks_exact(group_size))
            .enumerate()
        {
            *s = half_scale(amax(grp) / zero, || format!("row {r} group {g}"))?;
        }
        let crow = codes[r * cols..(r + 1) * cols].chunks_exact_mut(group_size);
        for ((group_codes, grp), &scale) in crow.zip(wrow.chunks_exact(group_size)).zip(&*srow) {
            if scale == 0.0 {
                group_codes.fill(zero.round() as u8);
                continue;
            }
            let inv = 1.0 / scale;
            for (c, &w) in group_codes.iter_mut().zip(grp) {
                *c = round_code(w * inv + zero, max_code);
            }
        }
    }
    let qm = QuantizedMatrix {
        rows,
        cols,
        bits,
        group_size,
        codes,
        scales,
        zero,
    };
    debug_assert!(qm.validate().is_ok());
    Ok(qm)
}

/// The largest magnitude of `grp` (0 for an empty group; NaNs are
/// skipped). Eight running maxima, so the loop vectorizes; `max` is
/// order-independent, so the result is the sequential fold's.
fn amax(grp: &[f32]) -> f32 {
    let mut lanes = [0f32; 8];
    let mut chunks = grp.chunks_exact(8);
    for c in &mut chunks {
        for (m, &x) in lanes.iter_mut().zip(c) {
            *m = m.max(x.abs());
        }
    }
    let tail = chunks.remainder().iter().fold(0f32, |m, &x| m.max(x.abs()));
    lanes.iter().fold(tail, |m, &x| m.max(x))
}

/// `x.round().clamp(0.0, max_code) as u8` (`max_code` a whole number up
/// to 15) without a libm call or a saturating cast per weight, so the
/// per-weight loop vectorizes. Clamp first: rounding is monotone and both
/// bounds are integers, so clamping before or after rounding agrees (a NaN
/// lands on 0, as the cast of a NaN does). Adding `2^23` then rounds the
/// clamped value to an integer, ties to even, which lands in the low
/// mantissa bits; a tie that went down to even steps up, so halves round
/// away from zero as `f32::round` rounds them. Every step is exact: the
/// sum is rounded once, and `x - even` is a difference of nearby floats.
/// `0.49999997` stays 0 (`floor(x + 0.5)` would give 1).
#[inline]
fn round_code(x: f32, max_code: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let x = x.max(0.0).min(max_code);
    let shifted = x + TWO_23;
    let even = shifted.to_bits() - TWO_23.to_bits();
    let tie_down = x - (shifted - TWO_23) == 0.5;
    (even + tie_down as u32) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i as f32 * 0.618).sin()) * (1.0 + (i % 7) as f32 * 0.3))
            .collect()
    }

    #[test]
    fn roundtrip_error_bounded_all_bitwidths() {
        let (rows, cols, gs) = (4, 64, 32);
        let w = ramp(rows, cols);
        for bits in 1..=4u8 {
            let q = quantize(&w, rows, cols, bits, gs).unwrap();
            let d = q.dequantize();
            for r in 0..rows {
                for k in 0..cols {
                    let s = q.scale_at(r, k);
                    let err = (w[r * cols + k] - d[r * cols + k]).abs();
                    // Codes at the clamped positive edge can carry up to one
                    // full step of error (range asymmetry), otherwise half.
                    // Rounding the scale to a half (relative error ≤ 2^-11)
                    // moves the clamped ends by up to `zero · 2^-11 · s`.
                    let clamp = q.zero * 2f32.powi(-11) * s;
                    assert!(
                        err <= s * 1.0 + clamp + 1e-6,
                        "bits={bits} r={r} k={k} err={err} s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_bit_is_more_accurate_than_one_bit() {
        let (rows, cols, gs) = (2, 128, 32);
        let w = ramp(rows, cols);
        let errs: Vec<f32> = [1u8, 4]
            .iter()
            .map(|&bits| {
                let q = quantize(&w, rows, cols, bits, gs).unwrap();
                let d = q.dequantize();
                w.iter()
                    .zip(&d)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
            })
            .collect();
        assert!(
            errs[1] < errs[0] * 0.25,
            "4-bit {} vs 1-bit {}",
            errs[1],
            errs[0]
        );
    }

    #[test]
    fn zero_group_is_stable() {
        let w = vec![0.0f32; 64];
        let q = quantize(&w, 1, 64, 4, 32).unwrap();
        let d = q.dequantize();
        assert!(d.iter().all(|&x| x.abs() < 1e-6));
    }

    /// A zero group — all zeros, or magnitudes that round to a zero half
    /// scale — gets scale 0 and the zero point's code, at every bit width
    /// (bits = 1: `round(0.5)` = 1), next to an ordinary group.
    #[test]
    fn zero_group_gets_scale_zero_and_the_zero_code() {
        for tiny in [0.0f32, 1e-9, -1e-8] {
            let mut w = vec![tiny; 64];
            w[32..]
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = i as f32 - 16.0);
            for bits in 1..=4u8 {
                let q = quantize(&w, 1, 64, bits, 32).unwrap();
                assert_eq!(q.scales[0], 0.0, "bits={bits} tiny={tiny:e}");
                let zero_code = if bits == 1 { 1 } else { 1 << (bits - 1) };
                assert!(
                    q.codes[..32].iter().all(|&c| c == zero_code),
                    "bits={bits} tiny={tiny:e}: {:?}",
                    &q.codes[..32]
                );
                assert!(q.scales[1] > 0.0);
                assert!(q.dequantize()[..32].iter().all(|&x| x == 0.0));
            }
        }
    }

    /// Scales are halves, and the codes come from the rounded scale: the
    /// group maximum lands exactly on code 0.
    #[test]
    fn scales_are_rounded_to_halves_before_coding() {
        let w: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.37).sin() * 0.3).collect();
        for bits in 1..=4u8 {
            let q = quantize(&w, 2, 128, bits, 32).unwrap();
            assert_eq!(q.validate(), Ok(()));
            for (i, &s) in q.scales.iter().enumerate() {
                let grp = &w[i * 32..(i + 1) * 32];
                let amax = grp.iter().fold(0f32, |m, &x| m.max(x.abs()));
                assert_eq!(s, tmac_simd::scalar::round_to_f16(amax / q.zero));
            }
        }
    }

    #[test]
    fn scale_past_the_half_range_is_refused() {
        // amax / zero = 1e6 / 8 at W4: beyond 65504.
        let mut w = vec![1.0f32; 64];
        w[40] = -1e6;
        assert!(matches!(
            quantize(&w, 1, 64, 4, 32),
            Err(QuantError::Scale(m)) if m.contains("row 0 group 1")
        ));
        // The largest half scale still quantizes.
        w[40] = -65504.0 * 8.0;
        assert_eq!(quantize(&w, 1, 64, 4, 32).unwrap().scales[1], 65504.0);
    }

    /// The per-weight rounding is `f32::round` then the clamp, bit for bit:
    /// at exact halves, just below a half, around both clamp bounds, on
    /// negative and non-finite inputs, and over a dense sweep.
    #[test]
    fn round_code_matches_f32_round() {
        let reference = |x: f32, max: f32| x.round().clamp(0.0, max) as u8;
        for bits in 1..=4u8 {
            let max = ((1u16 << bits) - 1) as f32;
            let mut xs = vec![
                0.0,
                -0.0,
                0.5,
                1.5,
                2.5,
                0.49999997,
                1.4999999,
                -0.49999997,
                -0.5,
                -1.5,
                -7.5,
                max - 0.5,
                max + 0.5,
                max - 0.50000006,
                max + 0.49999997,
                max,
                1e9,
                -1e9,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::MIN_POSITIVE,
            ];
            xs.extend((0..=4 * 256).map(|i| i as f32 / 64.0 - 4.0));
            for h in 0..=(2 * max as i32 + 2) {
                let half = h as f32 * 0.5 - 0.5;
                xs.extend([half, half.next_up(), half.next_down()]);
            }
            for x in xs {
                assert_eq!(round_code(x, max), reference(x, max), "bits={bits} x={x:e}");
            }
        }
    }

    /// The codes `quantize` writes are the reference rounding's, for every
    /// bit width, next to a zero-scale group.
    #[test]
    fn codes_match_the_round_reference() {
        let mut w = ramp(3, 96);
        w[32..64].fill(0.0);
        for bits in 1..=4u8 {
            let q = quantize(&w, 3, 96, bits, 32).unwrap();
            let max = ((1u16 << bits) - 1) as f32;
            for (i, (&c, &x)) in q.codes.iter().zip(&w).enumerate() {
                let s = q.scales[i / 32];
                let want = if s == 0.0 {
                    q.zero.round() as u8
                } else {
                    (x * (1.0 / s) + q.zero).round().clamp(0.0, max) as u8
                };
                assert_eq!(c, want, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn amax_is_the_sequential_fold() {
        let w = ramp(1, 45);
        for n in [0, 1, 7, 8, 9, 32, 45] {
            let fold = w[..n].iter().fold(0f32, |m, &x| m.max(x.abs()));
            assert_eq!(amax(&w[..n]), fold, "n={n}");
        }
        assert_eq!(amax(&[f32::NAN, -2.0, 1.0]), 2.0);
    }

    #[test]
    fn rejects_bad_shapes() {
        let w = vec![0.0f32; 64];
        assert!(quantize(&w, 1, 64, 5, 32).is_err());
        assert!(quantize(&w, 1, 64, 4, 33).is_err());
        assert!(quantize(&w, 2, 64, 4, 32).is_err()); // len mismatch
    }

    #[test]
    fn one_bit_codes_are_signs() {
        let w: Vec<f32> = (0..32)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let q = quantize(&w, 1, 32, 1, 32).unwrap();
        for (i, &c) in q.codes.iter().enumerate() {
            assert_eq!(c, if i % 2 == 0 { 1 } else { 0 });
        }
        let d = q.dequantize();
        for (x, y) in w.iter().zip(&d) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
