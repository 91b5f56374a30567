//! Dequantize-to-`f32` + blocked SGEMM: the llama.cpp (BLAS) mpGEMM path.
//!
//! For large GEMMs (prefill), llama.cpp dequantizes the weight matrix and
//! calls a BLAS `sgemm` (Accelerate on Apple, OpenBLAS elsewhere — paper
//! §5.1). This module implements that route: per `K`-block, weight row
//! segments are dequantized on the fly into a stack buffer and dotted
//! against the cached activation block, so the packed weights stream from
//! DRAM exactly once and the activation block stays cache-resident.

use crate::DequantLinear;
use tmac_core::ExecCtx;
use tmac_quant::QuantError;
use tmac_simd::f32ops;
use tmac_threadpool::SharedMut;

/// `K`-block length for the cache-blocked SGEMM.
const KB: usize = 256;

/// mpGEMM via dequantization and blocked `f32` SGEMM.
///
/// `act` is row-major `n × K`; `out` is row-major `n × M`.
///
/// # Errors
///
/// Returns [`QuantError::Shape`] on dimension mismatches or `n == 0`.
pub fn gemm_blas(
    lin: &DequantLinear,
    act: &[f32],
    n: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), QuantError> {
    let (m_total, k_total) = (lin.rows(), lin.cols());
    if n == 0 {
        return Err(QuantError::Shape("gemm_blas needs n >= 1".into()));
    }
    if act.len() != n * k_total || out.len() != n * m_total {
        return Err(QuantError::Shape(format!(
            "gemm_blas shapes: act {} (want {}), out {} (want {})",
            act.len(),
            n * k_total,
            out.len(),
            n * m_total
        )));
    }
    let qm = lin.quantized();
    let out = SharedMut::new(out);
    ctx.pool().chunks(m_total, 8, |rows| {
        let mut acc = vec![0f32; rows.len() * n];
        let mut wrow = vec![0f32; k_total];
        let mut k0 = 0;
        while k0 < k_total {
            let kb = KB.min(k_total - k0);
            for (ri, m) in rows.clone().enumerate() {
                // Dequantize this row's K-segment once.
                dequant_segment(qm, m, k0, kb, &mut wrow[..kb]);
                for ni in 0..n {
                    let aseg = &act[ni * k_total + k0..ni * k_total + k0 + kb];
                    acc[ri * n + ni] += f32ops::dot(aseg, &wrow[..kb]);
                }
            }
            k0 += kb;
        }
        for ni in 0..n {
            // SAFETY: this thread owns the weight rows `rows` of every
            // activation row's output.
            let part = unsafe { out.slice(ni * m_total + rows.start, rows.len()) };
            for (ri, o) in part.iter_mut().enumerate() {
                *o = acc[ri * n + ni];
            }
        }
    });
    Ok(())
}

/// Dequantizes `len` weights of row `m` starting at column `k0`.
fn dequant_segment(
    qm: &tmac_quant::QuantizedMatrix,
    m: usize,
    k0: usize,
    len: usize,
    out: &mut [f32],
) {
    debug_assert!(k0.is_multiple_of(qm.group_size));
    let gpr = qm.cols / qm.group_size;
    let codes = &qm.codes[m * qm.cols + k0..m * qm.cols + k0 + len];
    for (j, &c) in codes.iter().enumerate() {
        let g = (k0 + j) / qm.group_size;
        out[j] = qm.scales[m * gpr + g] * (c as f32 - qm.zero);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::rtn;

    #[test]
    fn blas_matches_mixed_path() {
        let (m, k, n) = (48, 512, 5);
        let w: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.13).sin()).collect();
        let qm = rtn::quantize(&w, m, k, 4, 32).unwrap();
        let lin = DequantLinear::new(&qm).unwrap();
        let ctx = ExecCtx::new(2);
        let act: Vec<f32> = (0..n * k).map(|i| ((i as f32) * 0.07).cos()).collect();
        let mut blas = vec![0f32; n * m];
        gemm_blas(&lin, &act, n, &mut blas, &ctx).unwrap();
        // Reference through dequantized weights (f32 exact, no act quant).
        let d = qm.dequantize();
        for ni in 0..n {
            for mi in 0..m {
                let want: f32 = d[mi * k..(mi + 1) * k]
                    .iter()
                    .zip(&act[ni * k..(ni + 1) * k])
                    .map(|(x, y)| x * y)
                    .sum();
                let got = blas[ni * m + mi];
                assert!(
                    (want - got).abs() < 1e-2 * (1.0 + want.abs()),
                    "n={ni} m={mi}: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let w: Vec<f32> = (0..32 * 64).map(|i| i as f32 * 0.01).collect();
        let qm = rtn::quantize(&w, 32, 64, 2, 32).unwrap();
        let lin = DequantLinear::new(&qm).unwrap();
        let ctx = ExecCtx::new(1);
        let act = vec![0f32; 2 * 64];
        let mut out = vec![0f32; 2 * 32];
        assert!(gemm_blas(&lin, &act, 0, &mut out, &ctx).is_err());
        assert!(gemm_blas(&lin, &act[..64], 2, &mut out, &ctx).is_err());
    }

    #[test]
    fn single_row_matches_gemv_closely() {
        let (m, k) = (32, 256);
        let w: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.19).sin()).collect();
        let qm = rtn::quantize(&w, m, k, 2, 32).unwrap();
        let lin = DequantLinear::new(&qm).unwrap();
        let ctx = ExecCtx::new(1);
        let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.11).cos()).collect();
        let mut a = vec![0f32; m];
        let mut b = vec![0f32; m];
        lin.gemv(&act, &mut a, &ctx).unwrap();
        gemm_blas(&lin, &act, 1, &mut b, &ctx).unwrap();
        // gemv quantizes activations; blas does not — close but not equal.
        for i in 0..m {
            assert!((a[i] - b[i]).abs() < 0.05 * (1.0 + b[i].abs()), "m={i}");
        }
    }
}
