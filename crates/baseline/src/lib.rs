//! llama.cpp-style dequantization baseline for mixed-precision GEMM.
//!
//! This crate is the comparator system of the paper's evaluation: the
//! "general practice" path of Figure 1(a) and Figure 3 (right). Weights are
//! stored in packed per-bit-width block formats; at inference time
//! activations are quantized to `Q8_0`, weights are *decoded* back to `i8`,
//! and the product is an integer dot plus per-block scale FMAs. Two mpGEMM
//! strategies are provided, matching llama.cpp's behaviour:
//!
//! * [`DequantLinear::gemv`]-per-row mixed-precision kernels — fastest for
//!   GEMV (token generation);
//! * [`sgemm::gemm_blas`] — dequantize to `f32` and run a blocked SGEMM,
//!   which llama.cpp (BLAS) uses for big GEMMs (prefill): "llama.cpp (BLAS)
//!   is slower for mpGEMV but faster for mpGEMM" (§5.1).
//!
//! The kernels deliberately reproduce llama.cpp's cost structure: decode
//! work per weight does **not** shrink with bit-width (and grows for 3-bit
//! due to the 2+1 split), which is the baseline behaviour T-MAC's Figure 6
//! is contrasted against.

pub mod avx2;
pub mod kernels;
pub mod sgemm;

use tmac_core::ExecCtx;
use tmac_quant::formats::{
    pack_q1_0, pack_q2_0, pack_q3s, pack_q4_0, quantize_q8_0, BlockQ1_0, BlockQ2_0, BlockQ3S,
    BlockQ4_0, BlockQ8_0, QK,
};
use tmac_quant::{QuantError, QuantizedMatrix};
use tmac_simd::Isa;
use tmac_threadpool::SharedMut;

/// Packed weight rows in one of the llama.cpp-style formats.
#[derive(Debug, Clone)]
pub enum PackedRows {
    /// 1-bit sign blocks.
    Q1(Vec<BlockQ1_0>),
    /// 2-bit blocks.
    Q2(Vec<BlockQ2_0>),
    /// 3-bit 2+1-split blocks.
    Q3(Vec<BlockQ3S>),
    /// 4-bit split-halves blocks.
    Q4(Vec<BlockQ4_0>),
}

/// A dequantization-baseline linear layer (row-major `rows × cols`).
#[derive(Debug, Clone)]
pub struct DequantLinear {
    rows: usize,
    cols: usize,
    bits: u8,
    blocks_per_row: usize,
    packed: PackedRows,
    /// Retained for the BLAS path (on-the-fly dequantization).
    qm: QuantizedMatrix,
}

impl DequantLinear {
    /// Packs a canonical quantized matrix into the baseline's block format.
    ///
    /// # Errors
    ///
    /// Fails if `qm` is malformed or `group_size != 32` (block formats are
    /// 32-wide, like llama.cpp's `QK`).
    pub fn new(qm: &QuantizedMatrix) -> Result<Self, QuantError> {
        qm.validate()?;
        let blocks_per_row = qm.cols / QK;
        let packed = match qm.bits {
            1 => PackedRows::Q1(pack_q1_0(qm)?),
            2 => PackedRows::Q2(pack_q2_0(qm)?),
            3 => PackedRows::Q3(pack_q3s(qm)?),
            4 => PackedRows::Q4(pack_q4_0(qm)?),
            b => return Err(QuantError::UnsupportedBits(b)),
        };
        Ok(DequantLinear {
            rows: qm.rows,
            cols: qm.cols,
            bits: qm.bits,
            blocks_per_row,
            packed,
            qm: qm.clone(),
        })
    }

    /// Output features `M`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input features `K`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Weight bit-width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The canonical matrix this layer was packed from.
    pub fn quantized(&self) -> &QuantizedMatrix {
        &self.qm
    }

    /// One output row's dot product against pre-quantized activations.
    fn row_dot(&self, row: usize, aq: &[BlockQ8_0], use_avx2: bool) -> f32 {
        let b0 = row * self.blocks_per_row;
        let b1 = b0 + self.blocks_per_row;
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: `use_avx2` is set only under a context's `Avx2` or
            // `Avx512` family, which the host executes (AVX2 + FMA).
            unsafe {
                return match &self.packed {
                    PackedRows::Q1(v) => avx2::vec_dot_q1(&v[b0..b1], aq),
                    PackedRows::Q2(v) => avx2::vec_dot_q2(&v[b0..b1], aq),
                    PackedRows::Q3(v) => avx2::vec_dot_q3(&v[b0..b1], aq),
                    PackedRows::Q4(v) => avx2::vec_dot_q4(&v[b0..b1], aq),
                };
            }
        }
        let _ = use_avx2;
        match &self.packed {
            PackedRows::Q1(v) => kernels::vec_dot_q1(&v[b0..b1], aq),
            PackedRows::Q2(v) => kernels::vec_dot_q2(&v[b0..b1], aq),
            PackedRows::Q3(v) => kernels::vec_dot_q3(&v[b0..b1], aq),
            PackedRows::Q4(v) => kernels::vec_dot_q4(&v[b0..b1], aq),
        }
    }

    /// Mixed-precision GEMV (llama.cpp's token-generation path): quantizes
    /// `act` to `Q8_0` and runs [`DequantLinear::gemv_q8`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Shape`] on length mismatches.
    pub fn gemv(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), QuantError> {
        if act.len() != self.cols {
            return Err(QuantError::Shape(format!(
                "activation length {} != K {}",
                act.len(),
                self.cols
            )));
        }
        self.gemv_q8(&quantize_q8_0(act), out, ctx)
    }

    /// [`DequantLinear::gemv`] of an activation already quantized by
    /// [`quantize_q8_0`], so the matrices that read one activation
    /// quantize it once, as llama.cpp does.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Shape`] unless `aq` holds `K / 32` blocks and
    /// `out` `M` floats.
    pub fn gemv_q8(
        &self,
        aq: &[BlockQ8_0],
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), QuantError> {
        if aq.len() != self.blocks_per_row {
            return Err(QuantError::Shape(format!(
                "activation blocks {} != K / {QK} = {}",
                aq.len(),
                self.blocks_per_row
            )));
        }
        if out.len() != self.rows {
            return Err(QuantError::Shape(format!(
                "output length {} != M {}",
                out.len(),
                self.rows
            )));
        }
        // There is no AVX-512 dequant kernel: `Avx512` runs the AVX2 one.
        let use_avx2 = matches!(ctx.isa(), Isa::Avx2 | Isa::Avx512);
        let out = SharedMut::new(out);
        ctx.pool().chunks(self.rows, 8, |range| {
            // SAFETY: `chunks` hands each thread a disjoint row range.
            let part = unsafe { out.slice(range.start, range.len()) };
            for (m, o) in range.zip(part) {
                *o = self.row_dot(m, aq, use_avx2);
            }
        });
        Ok(())
    }

    /// Mixed-precision GEMM of every layer of `group` over the same `n`
    /// activation rows, as `n` rounds of GEMVs (llama.cpp's non-BLAS path;
    /// see [`sgemm::gemm_blas`] for the BLAS route): each row is quantized
    /// to `Q8_0` once and run through [`DequantLinear::gemv_q8`] for every
    /// layer, so the matrices that read one activation quantize it once.
    /// `outs[i]` receives layer `i`'s `n × M` product; one layer is a plain
    /// batched GEMM.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Shape`] unless `outs` has one buffer per layer
    /// and every length matches; no output is written then.
    pub fn gemm_mixed(
        group: &[&DequantLinear],
        act: &[f32],
        n: usize,
        outs: &mut [&mut [f32]],
        ctx: &ExecCtx,
    ) -> Result<(), QuantError> {
        let Some(k) = group.first().map(|l| l.cols) else {
            return Ok(());
        };
        let lengths_match = group.len() == outs.len()
            && act.len() == n * k
            && group
                .iter()
                .zip(outs.iter())
                .all(|(l, o)| l.cols == k && o.len() == n * l.rows);
        if !lengths_match {
            return Err(QuantError::Shape("gemm_mixed length mismatch".into()));
        }
        for (r, row) in act.chunks_exact(k).enumerate() {
            let aq = quantize_q8_0(row);
            for (l, out) in group.iter().zip(outs.iter_mut()) {
                l.gemv_q8(&aq, &mut out[r * l.rows..(r + 1) * l.rows], ctx)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::rtn;

    fn setup(m: usize, k: usize, bits: u8) -> (QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32) * 0.17).sin() * 0.8)
            .collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.09).cos()).collect();
        (rtn::quantize(&w, m, k, bits, 32).unwrap(), act)
    }

    #[test]
    fn gemv_tracks_f32_reference_all_bits() {
        let ctx = ExecCtx::new(2);
        for bits in 1..=4u8 {
            let (qm, act) = setup(64, 128, bits);
            let lin = DequantLinear::new(&qm).unwrap();
            let mut out = vec![0f32; 64];
            lin.gemv(&act, &mut out, &ctx).unwrap();
            // Reference: dequantized weights x f32 activations.
            let d = qm.dequantize();
            let reference: Vec<f32> = (0..64)
                .map(|m| {
                    d[m * 128..(m + 1) * 128]
                        .iter()
                        .zip(&act)
                        .map(|(w, a)| w * a)
                        .sum()
                })
                .collect();
            let nmse = tmac_simd::f32ops::nmse(&out, &reference);
            // Activation quantization (Q8) is the only error source.
            assert!(nmse < 1e-4, "bits={bits} nmse={nmse}");
        }
    }

    #[test]
    fn gemm_mixed_matches_gemv_rows() {
        // A group of two layers (M 32 and 64) over the same rows: each
        // layer's product equals its per-row `gemv`.
        let (qa, _) = setup(32, 64, 2);
        let (qb, _) = setup(64, 64, 3);
        let (a, b) = (
            DequantLinear::new(&qa).unwrap(),
            DequantLinear::new(&qb).unwrap(),
        );
        let ctx = ExecCtx::new(1);
        let n = 3;
        let act: Vec<f32> = (0..n * 64).map(|i| ((i as f32) * 0.21).sin()).collect();
        let (mut oa, mut ob) = (vec![0f32; n * 32], vec![0f32; n * 64]);
        DequantLinear::gemm_mixed(&[&a, &b], &act, n, &mut [&mut oa, &mut ob], &ctx).unwrap();
        for (lin, out) in [(&a, &oa), (&b, &ob)] {
            let m = lin.rows();
            for ni in 0..n {
                let mut row = vec![0f32; m];
                lin.gemv(&act[ni * 64..(ni + 1) * 64], &mut row, &ctx)
                    .unwrap();
                assert_eq!(&out[ni * m..(ni + 1) * m], &row[..]);
            }
        }
        // A short output leaves every output untouched.
        let (mut oa, mut short) = (vec![7.5f32; n * 32], vec![7.5f32; n * 64 - 1]);
        let err = DequantLinear::gemm_mixed(&[&a, &b], &act, n, &mut [&mut oa, &mut short], &ctx);
        assert!(err.is_err());
        assert!(oa.iter().chain(&short).all(|&v| v == 7.5));
    }

    #[test]
    fn rejects_group_size_other_than_32() {
        let w: Vec<f32> = (0..64 * 64).map(|i| i as f32 * 0.01).collect();
        let qm = rtn::quantize(&w, 64, 64, 4, 64).unwrap();
        assert!(DequantLinear::new(&qm).is_err());
    }

    #[test]
    fn new_packs_like_the_per_row_packers_and_keeps_their_checks() {
        use tmac_quant::formats::{pack_row_q1_0, pack_row_q2_0, pack_row_q3s, pack_row_q4_0};
        // Whole-matrix packing (one validation) == per-row packing (one
        // validation per row), block for block.
        fn rows<B>(qm: &QuantizedMatrix, row: impl Fn(usize) -> Vec<B>) -> Vec<B> {
            (0..qm.rows).flat_map(row).collect()
        }
        for bits in 1..=4u8 {
            let (qm, _) = setup(5, 96, bits);
            match DequantLinear::new(&qm).unwrap().packed {
                PackedRows::Q1(v) => assert_eq!(v, rows(&qm, |r| pack_row_q1_0(&qm, r).unwrap())),
                PackedRows::Q2(v) => assert_eq!(v, rows(&qm, |r| pack_row_q2_0(&qm, r).unwrap())),
                PackedRows::Q3(v) => assert_eq!(v, rows(&qm, |r| pack_row_q3s(&qm, r).unwrap())),
                PackedRows::Q4(v) => assert_eq!(v, rows(&qm, |r| pack_row_q4_0(&qm, r).unwrap())),
            }
        }
        // An out-of-range code in the *last* row is still caught.
        let (mut qm, _) = setup(5, 96, 2);
        *qm.codes.last_mut().unwrap() = 4;
        assert!(DequantLinear::new(&qm).is_err());
        // A `bits` the codes do not fit, and one no format exists for.
        let (mut qm, _) = setup(5, 96, 4);
        assert!(qm.codes.iter().any(|&c| c >= 4));
        qm.bits = 2;
        assert!(DequantLinear::new(&qm).is_err());
        qm.bits = 5;
        assert!(DequantLinear::new(&qm).is_err());
        // A group size the 32-wide blocks cannot hold.
        let (mut qm, _) = setup(5, 96, 4);
        qm.group_size = 96;
        qm.scales.truncate(5);
        assert!(DequantLinear::new(&qm).is_err());
    }

    #[test]
    fn rejects_length_mismatches() {
        let (qm, act) = setup(32, 64, 4);
        let lin = DequantLinear::new(&qm).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; 32];
        assert!(lin.gemv(&act[..32], &mut out, &ctx).is_err());
        let mut short = vec![0f32; 31];
        assert!(lin.gemv(&act, &mut short, &ctx).is_err());
        let aq = quantize_q8_0(&act);
        assert!(lin.gemv_q8(&aq[..1], &mut out, &ctx).is_err());
        assert!(lin.gemv_q8(&aq, &mut short, &ctx).is_err());
    }
}
