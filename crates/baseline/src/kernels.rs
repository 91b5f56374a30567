//! Scalar reference `vec_dot` kernels (oracle + portable fallback).
//!
//! Each kernel computes one output element: the dot product of one packed
//! weight row with a `Q8_0`-quantized activation row, following llama.cpp's
//! structure — per 32-element block: unpack weights to centered `i8`,
//! integer dot against activation codes, one `f32` FMA with the combined
//! scale (the weight block's half `d` widened to `f32`).

use tmac_quant::formats::{
    unpack_q1_0, unpack_q2_0, unpack_q3s, unpack_q4_0, BlockQ1_0, BlockQ2_0, BlockQ3S, BlockQ4_0,
    BlockQ8_0, QK,
};
use tmac_simd::scalar::f16_to_f32;

fn dot_codes(w: &[i8; QK], a: &[i8; QK]) -> i32 {
    let mut s = 0i32;
    for j in 0..QK {
        s += (w[j] as i32) * (a[j] as i32);
    }
    s
}

/// `Q4_0 × Q8_0` row dot product.
///
/// # Panics
///
/// Panics if the rows have different block counts.
pub fn vec_dot_q4(w: &[BlockQ4_0], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let mut acc = 0f32;
    let mut codes = [0i8; QK];
    for (wb, ab) in w.iter().zip(a) {
        unpack_q4_0(wb, &mut codes);
        acc += f16_to_f32(wb.d) * ab.d * dot_codes(&codes, &ab.qs) as f32;
    }
    acc
}

/// `Q3S × Q8_0` row dot product (the 2+1-split decode path).
///
/// # Panics
///
/// Panics if the rows have different block counts.
pub fn vec_dot_q3(w: &[BlockQ3S], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let mut acc = 0f32;
    let mut codes = [0i8; QK];
    for (wb, ab) in w.iter().zip(a) {
        unpack_q3s(wb, &mut codes);
        acc += f16_to_f32(wb.d) * ab.d * dot_codes(&codes, &ab.qs) as f32;
    }
    acc
}

/// `Q2_0 × Q8_0` row dot product.
///
/// # Panics
///
/// Panics if the rows have different block counts.
pub fn vec_dot_q2(w: &[BlockQ2_0], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let mut acc = 0f32;
    let mut codes = [0i8; QK];
    for (wb, ab) in w.iter().zip(a) {
        unpack_q2_0(wb, &mut codes);
        acc += f16_to_f32(wb.d) * ab.d * dot_codes(&codes, &ab.qs) as f32;
    }
    acc
}

/// `Q1_0 × Q8_0` row dot product (sign weights; scale halved because the
/// unpacked codes are doubled to `±1`).
///
/// # Panics
///
/// Panics if the rows have different block counts.
pub fn vec_dot_q1(w: &[BlockQ1_0], a: &[BlockQ8_0]) -> f32 {
    assert_eq!(w.len(), a.len(), "block count mismatch");
    let mut acc = 0f32;
    let mut codes = [0i8; QK];
    for (wb, ab) in w.iter().zip(a) {
        unpack_q1_0(wb, &mut codes);
        acc += f16_to_f32(wb.d) * 0.5 * ab.d * dot_codes(&codes, &ab.qs) as f32;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::formats::{
        pack_row_q1_0, pack_row_q2_0, pack_row_q3s, pack_row_q4_0, quantize_q8_0,
    };
    use tmac_quant::rtn;

    fn reference(qm: &tmac_quant::QuantizedMatrix, act: &[f32]) -> f32 {
        let d = qm.dequantize();
        d.iter().zip(act).map(|(w, a)| w * a).sum()
    }

    #[test]
    fn vec_dots_track_f32_reference() {
        let k = 256;
        let w: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.11).sin()).collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.23).cos() * 1.2).collect();
        let aq = quantize_q8_0(&act);
        for bits in 1..=4u8 {
            let qm = rtn::quantize(&w, 1, k, bits, 32).unwrap();
            let want = reference(&qm, &act);
            let got = match bits {
                4 => vec_dot_q4(&pack_row_q4_0(&qm, 0).unwrap(), &aq),
                3 => vec_dot_q3(&pack_row_q3s(&qm, 0).unwrap(), &aq),
                2 => vec_dot_q2(&pack_row_q2_0(&qm, 0).unwrap(), &aq),
                1 => vec_dot_q1(&pack_row_q1_0(&qm, 0).unwrap(), &aq),
                _ => unreachable!(),
            };
            // Only activation-quantization error separates them.
            assert!(
                (want - got).abs() < 0.05 * (1.0 + want.abs()),
                "bits={bits}: {want} vs {got}"
            );
        }
    }

    #[test]
    fn exact_when_activations_are_exact() {
        // Activations representable exactly in Q8 (integers scaled by the
        // block max) make the integer path exact.
        let k = 64;
        let act: Vec<f32> = (0..k).map(|i| ((i % 7) as f32) - 3.0).collect();
        let aq = quantize_q8_0(&act);
        let back: Vec<f32> = aq
            .iter()
            .flat_map(|b| b.qs.iter().map(move |&q| b.d * q as f32))
            .collect();
        let w: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.31).sin()).collect();
        let qm = rtn::quantize(&w, 1, k, 4, 32).unwrap();
        let want = reference(&qm, &back);
        let got = vec_dot_q4(&pack_row_q4_0(&qm, 0).unwrap(), &aq);
        assert!((want - got).abs() < 1e-4 * (1.0 + want.abs()));
    }
}
