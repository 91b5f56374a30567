//! Portable reference kernels.
//!
//! [`gemv_reference`] computes the ground truth from dequantized weights in
//! `f64` (no T-MAC machinery at all). [`plan_mtile`] executes the full T-MAC
//! pipeline — plan layouts, quantized tables — in scalar code, matching the
//! SIMD kernels' arithmetic exactly so the two can be compared bit-for-bit
//! in integer space.

use crate::opts::{LUT_GROUP, TILE_M};
use crate::plan::WeightPlan;
use crate::table::ActTables;
use crate::TmacError;
use std::ops::Range;
use tmac_quant::QuantizedMatrix;

/// Ground-truth mpGEMV: `out = act × dequant(W)^T` in `f64` accumulation.
///
/// # Panics
///
/// Panics if `act.len() != qm.cols`.
pub fn gemv_reference(qm: &QuantizedMatrix, act: &[f32]) -> Vec<f32> {
    assert_eq!(act.len(), qm.cols, "activation length mismatch");
    let mut row = vec![0f32; qm.cols];
    let mut out = vec![0f32; qm.rows];
    for (m, o) in out.iter_mut().enumerate() {
        qm.dequantize_row(m, &mut row);
        let mut acc = 0f64;
        for (a, w) in act.iter().zip(&row) {
            acc += (*a as f64) * (*w as f64);
        }
        *o = acc as f32;
    }
    out
}

/// One quantized scale block of one output row, before the weight scale:
/// `0.5 · q_scale · Σ_bit 2^bit · L_bit + bias`, with `lookup(kg, idx)` the
/// row's quantized table entry.
fn quant_block_term(
    plan: &WeightPlan,
    sb: usize,
    m: usize,
    lut_scale: f32,
    asum: f32,
    lookup: impl Fn(usize, u8) -> i8,
) -> f32 {
    let kg_per_block = plan.group_size / LUT_GROUP;
    let kg0 = sb * kg_per_block;
    let mut block = 0f32;
    for bit in 0..plan.bits {
        let kgs = kg0..kg0 + kg_per_block;
        let lq: i32 = kgs
            .map(|kg| lookup(kg, plan.index(bit, m, kg)) as i32)
            .sum();
        block += (1u32 << bit) as f32 * lq as f32;
    }
    0.5 * lut_scale * block + plan.cz * asum
}

/// Executes one m-tile of the T-MAC kernel in scalar code for the rows
/// `rows` of `tables`: `outs` receives the row-major `rows.len() × TILE_M`
/// results of tile `mt`.
///
/// The arithmetic — integer accumulation widths, per-block application
/// order — replicates the AVX2 kernels exactly, and each row's is
/// independent of the others in the range, so a multi-row call is
/// bit-identical to one call per row.
///
/// # Panics
///
/// Panics if `rows` exceeds the tables' rows or `outs` is shorter than
/// `rows.len() × TILE_M`.
pub fn plan_mtile(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    mt: usize,
    outs: &mut [f32],
) {
    let kg_per_block = plan.group_size / LUT_GROUP;
    let m0 = mt * TILE_M;
    let outs = &mut outs[..rows.len() * TILE_M];
    debug_assert_eq!((tables.k, tables.group_size), (plan.k, plan.group_size));
    outs.fill(0.0);

    for sb in 0..plan.groups_per_row() {
        let (q_scales, asums) = tables.block_scales(sb, rows.clone());
        for (i, out_row) in outs.chunks_exact_mut(TILE_M).enumerate() {
            let r = rows.start + i;
            for (lane, o) in out_row.iter_mut().enumerate() {
                let m = m0 + lane;
                let term = if tables.quantized {
                    quant_block_term(plan, sb, m, q_scales[i], asums[i], |kg, idx| {
                        tables.lookup_q(r, kg, idx)
                    })
                } else {
                    let mut block = 0f32;
                    for bit in 0..plan.bits {
                        let mut l = 0f32;
                        for kg in sb * kg_per_block..(sb + 1) * kg_per_block {
                            l += tables.lookup_f32(r, kg, plan.index(bit, m, kg));
                        }
                        block += (1u32 << bit) as f32 * l;
                    }
                    0.5 * block + plan.cz * asums[i]
                };
                *o += plan.scale(m, sb) * term;
            }
        }
    }
}

/// Full scalar GEMV of the tables' first row over all tiles
/// (single-threaded helper; the driver parallelizes over tiles itself).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] on length mismatches.
pub fn gemv_plan(plan: &WeightPlan, tables: &ActTables, out: &mut [f32]) -> Result<(), TmacError> {
    if out.len() != plan.m {
        return Err(TmacError::Shape(format!(
            "output length {} != M {}",
            out.len(),
            plan.m
        )));
    }
    if tables.k != plan.k {
        return Err(TmacError::Shape(format!(
            "tables built for K {} but plan has K {}",
            tables.k, plan.k
        )));
    }
    let mut buf = [0f32; TILE_M];
    for mt in 0..plan.m_tiles() {
        plan_mtile(plan, tables, 0..1, mt, &mut buf);
        let m0 = mt * TILE_M;
        let take = TILE_M.min(plan.m - m0);
        out[m0..m0 + take].copy_from_slice(&buf[..take]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn setup(m: usize, k: usize, bits: u8, gs: usize) -> (QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.13).sin() * 0.9) + ((i % 5) as f32 - 2.0) * 0.05)
            .collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32 * 0.29).cos()) * 1.1).collect();
        (rtn::quantize(&w, m, k, bits, gs).unwrap(), act)
    }

    /// The plan kernel with *unquantized* tables must equal the dequantized
    /// reference to f32 round-off: the bit-serial identity (Eq. 1 plus the
    /// {-1,+1} transform) is exact.
    #[test]
    fn bit_serial_identity_exact_all_bits() {
        for bits in 1..=4u8 {
            let (qm, act) = setup(48, 128, bits, 32);
            let reference = gemv_reference(&qm, &act);
            let plan = WeightPlan::new(&qm, KernelOpts::tm_base()).unwrap();
            let tables = ActTables::build(&act, 1, 32, &KernelOpts::tm_base()).unwrap();
            let mut out = vec![0f32; 48];
            gemv_plan(&plan, &tables, &mut out).unwrap();
            for (m, (&r, &o)) in reference.iter().zip(&out).enumerate() {
                let tol = 1e-3 * (1.0 + r.abs());
                assert!((r - o).abs() < tol, "bits={bits} m={m}: {r} vs {o}");
            }
        }
    }

    /// Table quantization introduces only a bounded, small error.
    #[test]
    fn table_quantization_error_small() {
        let (qm, act) = setup(64, 256, 4, 32);
        let reference = gemv_reference(&qm, &act);
        for opts in [
            KernelOpts::plus_table_quant(),
            KernelOpts::plus_permute(),
            KernelOpts::tmac(),
        ] {
            let plan = WeightPlan::new(&qm, opts).unwrap();
            let tables = ActTables::build(&act, 1, 32, &opts).unwrap();
            let mut out = vec![0f32; 64];
            gemv_plan(&plan, &tables, &mut out).unwrap();
            let nmse = tmac_simd::f32ops::nmse(&out, &reference);
            assert!(nmse < 1e-4, "opts={opts:?} nmse={nmse}");
        }
    }

    /// All layout variants compute the identical result (integer paths are
    /// bit-identical; the f32 fold order is the same).
    #[test]
    fn layouts_agree_exactly() {
        let (qm, act) = setup(40, 128, 3, 32);
        let base = {
            let o = KernelOpts::plus_table_quant();
            let plan = WeightPlan::new(&qm, o).unwrap();
            let t = ActTables::build(&act, 1, 32, &o).unwrap();
            let mut out = vec![0f32; 40];
            gemv_plan(&plan, &t, &mut out).unwrap();
            out
        };
        for opts in [KernelOpts::plus_permute(), KernelOpts::tmac()] {
            let plan = WeightPlan::new(&qm, opts).unwrap();
            let t = ActTables::build(&act, 1, 32, &opts).unwrap();
            let mut out = vec![0f32; 40];
            gemv_plan(&plan, &t, &mut out).unwrap();
            for (m, (&b, &o)) in base.iter().zip(&out).enumerate() {
                assert_eq!(b, o, "opts={opts:?} m={m}");
            }
        }
    }

    /// A multi-row call must be bit-identical to one call per row (over
    /// that row's own one-row tables), for every option combination.
    #[test]
    fn gemm_mtile_bit_identical_to_per_row_gemv() {
        let rows = 3;
        for opts in [
            KernelOpts::tm_base(),
            KernelOpts::plus_table_quant(),
            KernelOpts::plus_permute(),
            KernelOpts::tmac(),
        ] {
            for bits in [1u8, 2, 4] {
                let (qm, _) = setup(40, 128, bits, 32);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let acts: Vec<f32> = (0..rows * 128)
                    .map(|i| ((i % 128) as f32 * 0.29 + (i / 128) as f32).cos() * 1.1)
                    .collect();
                let batch = ActTables::build(&acts, rows, 32, &opts).unwrap();
                for mt in 0..plan.m_tiles() {
                    let mut want = vec![0f32; rows * TILE_M];
                    for (r, buf) in want.chunks_exact_mut(TILE_M).enumerate() {
                        let one = ActTables::build(&acts[r * 128..][..128], 1, 32, &opts).unwrap();
                        plan_mtile(&plan, &one, 0..1, mt, buf);
                    }
                    // Stale contents of `outs` must not leak into the result.
                    let mut got = vec![7f32; rows * TILE_M];
                    plan_mtile(&plan, &batch, 0..rows, mt, &mut got);
                    assert_eq!(got, want, "opts={opts:?} bits={bits} mt={mt}");
                    // A sub-range reads its own rows' tables.
                    plan_mtile(&plan, &batch, 1..rows, mt, &mut got);
                    assert_eq!(got[..(rows - 1) * TILE_M], want[TILE_M..]);
                }
            }
        }
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let (qm, act) = setup(32, 64, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let tables = ActTables::build(&act, 1, 32, &KernelOpts::tmac()).unwrap();
        let mut bad = vec![0f32; 31];
        assert!(gemv_plan(&plan, &tables, &mut bad).is_err());
    }
}
