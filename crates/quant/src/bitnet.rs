//! BitNet b1.58 ternary quantization.
//!
//! BitNet b1.58 trains LLMs with ternary weights `{-1, 0, +1}` scaled by a
//! per-tensor (here: per-group) factor computed from the mean magnitude
//! ("absmean" quantization). The paper evaluates BitNet-b1.58-3B by
//! *interpreting ternary weights as 2-bit* and decomposing them into two
//! one-bit matrices (§5.1, "Kernels and models"), which is exactly what
//! T-MAC's bit-serial pipeline does with the [`QuantizedMatrix`] this module
//! produces.

use crate::{half_scale, QuantError, QuantizedMatrix};

/// Quantizes to ternary `{-1, 0, +1}` codes stored as 2-bit values
/// `{1, 2, 3} - zero` with `zero = 2.0`.
///
/// Per group, the scale is the absmean `mean(|w|)` (BitNet b1.58's
/// quantizer), rounded to the nearest IEEE half value; weights round to
/// `scale * t` for `t ∈ {-1, 0, 1}` against the rounded scale. A group
/// whose scale is 0 gets `t = 0` throughout.
///
/// The returned matrix has `bits == 2` and codes restricted to `{1, 2, 3}`
/// (never 0), so every downstream 2-bit kernel runs unmodified.
///
/// # Errors
///
/// Returns [`QuantError::Shape`] on dimension mismatches and
/// [`QuantError::Scale`] for a scale beyond the half range.
///
/// # Examples
///
/// ```
/// let w = vec![0.9f32, -1.1, 0.02, 0.7, -0.8, 0.0, 1.3, -0.05];
/// let q = tmac_quant::bitnet::quantize(&w, 1, 8, 8).unwrap();
/// assert_eq!(q.bits, 2);
/// assert!(q.codes.iter().all(|&c| (1..=3).contains(&c)));
/// ```
pub fn quantize(
    weights: &[f32],
    rows: usize,
    cols: usize,
    group_size: usize,
) -> Result<QuantizedMatrix, QuantError> {
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
    let zero = 2.0f32;
    let mut codes = vec![0u8; rows * cols];
    let mut scales = vec![0f32; rows * cols / group_size];
    let gpr = cols / group_size;
    for r in 0..rows {
        let wrow = &weights[r * cols..(r + 1) * cols];
        for g in 0..gpr {
            let grp = &wrow[g * group_size..(g + 1) * group_size];
            let absmean = grp.iter().map(|x| x.abs()).sum::<f32>() / group_size as f32;
            let scale = half_scale(absmean, || format!("row {r} group {g}"))?;
            scales[r * gpr + g] = scale;
            let group_codes = &mut codes[r * cols + g * group_size..][..group_size];
            if scale == 0.0 {
                group_codes.fill(zero as u8);
                continue;
            }
            for (c, &w) in group_codes.iter_mut().zip(grp) {
                // Round w/scale to the nearest of {-1, 0, 1}.
                let t = (w / scale).round().clamp(-1.0, 1.0);
                *c = (t + zero) as u8;
            }
        }
    }
    let qm = QuantizedMatrix {
        rows,
        cols,
        bits: 2,
        group_size,
        codes,
        scales,
        zero,
    };
    debug_assert!(qm.validate().is_ok());
    Ok(qm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_values_only() {
        let w: Vec<f32> = (0..128)
            .map(|i| ((i * 31) % 17) as f32 * 0.2 - 1.6)
            .collect();
        let q = quantize(&w, 2, 64, 32).unwrap();
        let d = q.dequantize();
        for r in 0..2 {
            for k in 0..64 {
                let s = q.scale_at(r, k);
                let v = d[r * 64 + k];
                let t = v / s;
                assert!(
                    (t - t.round()).abs() < 1e-5 && (-1.0..=1.0).contains(&t.round()),
                    "non-ternary value {v} (t={t})"
                );
            }
        }
    }

    #[test]
    fn near_zero_maps_to_zero_code() {
        let w = vec![1.0f32, -1.0, 0.001, 1.0, -1.0, 0.0, 1.0, -1.0];
        let q = quantize(&w, 1, 8, 8).unwrap();
        assert_eq!(q.codes[2], 2); // 0.001 / absmean rounds to 0 -> code 2
        assert_eq!(q.codes[5], 2);
    }

    #[test]
    fn absmean_scale() {
        let w = vec![2.0f32; 8];
        let q = quantize(&w, 1, 8, 8).unwrap();
        assert!((q.scales[0] - 2.0).abs() < 1e-6);
        let d = q.dequantize();
        for &v in &d {
            assert!((v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_group_gets_scale_zero_and_code_two() {
        let mut w = vec![0.0f32; 16];
        w[8..].copy_from_slice(&[1.0, -1.0, 0.5, 0.0, 2.0, -2.0, 1.0, 1e-9]);
        let q = quantize(&w, 1, 16, 8).unwrap();
        assert_eq!(q.scales[0], 0.0);
        assert_eq!(&q.codes[..8], &[2; 8]);
        assert_eq!(q.scales[1], 0.9375);
        assert!(q.dequantize()[..8].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scales_are_halves_and_bounded() {
        let w: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).cos() * 0.3).collect();
        let q = quantize(&w, 1, 64, 32).unwrap();
        assert_eq!(q.validate(), Ok(()));
        let absmean = w[..32].iter().map(|x| x.abs()).sum::<f32>() / 32.0;
        assert_eq!(q.scales[0], tmac_simd::scalar::round_to_f16(absmean));
        assert!(matches!(
            quantize(&[1e5f32; 8], 1, 8, 8),
            Err(QuantError::Scale(_))
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(quantize(&[0.0; 8], 1, 8, 3).is_err());
        assert!(quantize(&[0.0; 8], 2, 8, 4).is_err());
    }
}
