//! mpGEMM driver (`N > 1`, e.g. prefill with a 256-token sequence).
//!
//! The lookup table is the reusable operand (§3.2: "the weight `W[M, K]` can
//! share the same pre-computed lookup table"), so the driver blocks the
//! sequence dimension by **`n_block`**: the rows of a block have their
//! tables built (in parallel) and cached together, re-laid per scale block
//! ([`BatchTables`]), and swept over the weights as one unit — the multi-row
//! kernel decodes each scale block's weight indices once and looks them up
//! against every row of the block.
//!
//! Per row the kernel applies the GEMV kernel's operations in the GEMV
//! kernel's order, so the blocking never changes a bit of the result.

use crate::exec::ExecCtx;
use crate::gemv::{avx2_for, build_tables, run_mtile, OutPtr};
use crate::kernel;
use crate::opts::TILE_M;
use crate::plan::WeightPlan;
use crate::table::{ActTables, BatchTables};
use crate::TmacError;
use std::sync::OnceLock;

/// Builds the tables of every row of a row-major `n × K` batch, fanning the
/// (independent) rows out over the context's pool. Rows fail in row order.
pub(crate) fn build_tables_batch(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    ctx: &ExecCtx,
) -> Result<Vec<ActTables>, TmacError> {
    let k = plan.k;
    if n == 1 {
        // Not worth a pool dispatch.
        return Ok(vec![build_tables(plan, act)?]);
    }
    let slots: Vec<OnceLock<Result<ActTables, TmacError>>> =
        (0..n).map(|_| OnceLock::new()).collect();
    ctx.pool().chunks(n, 1, |rows| {
        for r in rows {
            let built = build_tables(plan, &act[r * k..(r + 1) * k]);
            slots[r].set(built).expect("each row is built once");
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every row was built"))
        .collect()
}

/// Whether a multi-row kernel (rather than the per-row GEMV sweep) serves
/// `plan`. The invariant that keeps batched forwards bit-identical to
/// independent single-row forwards: whatever kernel family (AVX2 or scalar)
/// serves the GEMV path on this host must also serve the GEMM path — the
/// multi-row kernels replicate their single-row siblings' arithmetic
/// exactly, but AVX2 and scalar differ in `f32` fold rounding.
fn multi_row(plan: &WeightPlan) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_for(plan) {
        return kernel::avx2::gemm_supported(plan);
    }
    // The scalar multi-row kernel covers every quantized layout (including
    // fast aggregation and flat planes).
    plan.opts.table_quant
}

/// Validates the `n × K` / `n × M` shapes shared by every mpGEMM entry.
fn check_shapes(
    plan: &WeightPlan,
    act_len: usize,
    n: usize,
    out_len: usize,
) -> Result<(), TmacError> {
    if n == 0 {
        return Err(TmacError::Shape("mpgemm needs n >= 1".into()));
    }
    if act_len != n * plan.k {
        return Err(TmacError::Shape(format!(
            "activation length {act_len} != n*K = {}",
            n * plan.k
        )));
    }
    if out_len != n * plan.m {
        return Err(TmacError::Shape(format!(
            "output length {out_len} != n*M = {}",
            n * plan.m
        )));
    }
    Ok(())
}

/// Sweeps all m-tiles for one `n_block` chunk of rows. `tables[i]` belongs
/// to output row `n0 + i` of `out`.
fn sweep_block(plan: &WeightPlan, tables: &[ActTables], n0: usize, out: &mut [f32], ctx: &ExecCtx) {
    if multi_row(plan) {
        let batch = BatchTables::interleave(tables)
            .expect("multi-row path requires compatible quantized tables");
        sweep_batch(plan, &batch, n0, out, ctx);
    } else {
        sweep_block_per_row(plan, tables, n0, out, ctx);
    }
}

/// The per-row sweep: each weight tile is read once per chunk and applied
/// to every row's tables in turn (cache-level reuse only).
fn sweep_block_per_row(
    plan: &WeightPlan,
    tables: &[ActTables],
    n0: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) {
    let m = plan.m;
    let use_avx2 = avx2_for(plan);
    let out_ptr = OutPtr(out.as_mut_ptr());
    let out_ref = &out_ptr;
    ctx.pool().chunks(plan.m_tiles(), 1, |tiles| {
        let mut buf = [0f32; TILE_M];
        for mt in tiles {
            let m0 = mt * TILE_M;
            let take = TILE_M.min(m - m0);
            for (ni, t) in tables.iter().enumerate() {
                run_mtile(plan, t, mt, &mut buf, use_avx2);
                // SAFETY: this thread owns tile `mt`; the destination lies
                // in row `n0 + ni` of `out`, within bounds.
                unsafe { out_ref.write((n0 + ni) * m + m0, &buf[..take]) };
            }
        }
    });
}

/// Sweeps one re-laid row block over all m-tiles with the multi-row kernel.
fn sweep_batch(plan: &WeightPlan, batch: &BatchTables, n0: usize, out: &mut [f32], ctx: &ExecCtx) {
    let m = plan.m;
    let rows = batch.rows;
    let use_avx2 = avx2_for(plan);
    let out_ptr = OutPtr(out.as_mut_ptr());
    let out_ref = &out_ptr;
    ctx.pool().chunks(plan.m_tiles(), 1, |tiles| {
        let mut outs = ctx.take_buf(rows * TILE_M);
        // One sweep of this thread's tiles (`id` = first tile, `arg` = rows).
        let _sweep = tmac_trace::span("gemm", "sweep", tiles.start as u64, rows as u64);
        for mt in tiles {
            match use_avx2 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `avx2_for` passed the runtime AVX2+FMA check, and
                // `multi_row` then required `gemm_supported`.
                true => unsafe { kernel::avx2::gemm_mtile(plan, batch, mt, &mut outs) },
                _ => kernel::scalar::gemm_plan_mtile(plan, batch, mt, &mut outs),
            }
            let m0 = mt * TILE_M;
            let take = TILE_M.min(m - m0);
            for r in 0..rows {
                // SAFETY: this thread owns tile `mt`; the destination lies
                // in row `n0 + r` of `out`, within bounds.
                unsafe { out_ref.write((n0 + r) * m + m0, &outs[r * TILE_M..][..take]) };
            }
        }
        ctx.put_buf(outs);
    });
}

/// Computes `out[n][m] = Σ_k act[n][k] · W[m][k]`.
///
/// `act` is row-major `n × K`; `out` is row-major `n × M`. Tables are built
/// fresh per call; use [`mpgemm_cached`] when several weight matrices
/// consume the same activation batch (batched QKV projections).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] on dimension mismatches or `n == 0`.
pub fn mpgemm(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    check_shapes(plan, act.len(), n, out.len())?;
    let nb = plan.opts.n_block.max(1);
    let k = plan.k;
    for n0 in (0..n).step_by(nb) {
        let nblk = nb.min(n - n0);
        // Online stage: tables for this block of activation rows.
        let tables = build_tables_batch(plan, &act[n0 * k..(n0 + nblk) * k], nblk, ctx)?;
        sweep_block(plan, &tables, n0, out, ctx);
    }
    Ok(())
}

/// [`mpgemm`] through the context's batched activation-table cache.
///
/// Within one [`ExecCtx::next_activation`] scope, every plan with the same
/// table profile consuming the same `n × K` activation batch shares one set
/// of per-row table builds — the QKV / gate-up amortization of the decode
/// path, extended to batched serving (see [`ExecCtx::batch_tables_for`]).
///
/// # Errors
///
/// Same contract as [`mpgemm`].
pub fn mpgemm_cached(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    check_shapes(plan, act.len(), n, out.len())?;
    if multi_row(plan) {
        // Multi-row path: pull the re-laid row blocks from the context
        // cache (QKV-style projection groups share both the per-row builds
        // *and* the re-lay work).
        let blocks = ctx.interleaved_tables_for(plan, act, n)?;
        let mut n0 = 0;
        for batch in blocks.iter() {
            sweep_batch(plan, batch, n0, out, ctx);
            n0 += batch.rows;
        }
        debug_assert_eq!(n0, n, "row blocks must partition the batch");
        return Ok(());
    }
    let tables = ctx.batch_tables_for(plan, act, n)?;
    mpgemm_with_tables(plan, &tables, out, ctx)
}

/// [`mpgemm`] with caller-provided per-row tables (`tables.len()` rows).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] if `out.len() != tables.len() · M` or any
/// table was built for a different `K` / group size / options.
pub fn mpgemm_with_tables(
    plan: &WeightPlan,
    tables: &[ActTables],
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    let n = tables.len();
    if n == 0 {
        return Err(TmacError::Shape("mpgemm needs n >= 1".into()));
    }
    if out.len() != n * plan.m {
        return Err(TmacError::Shape(format!(
            "output length {} != n*M = {}",
            out.len(),
            n * plan.m
        )));
    }
    for t in tables {
        crate::gemv::check_tables_compatible(plan, t)?;
    }
    let nb = plan.opts.n_block.max(1);
    for (i, chunk) in tables.chunks(nb).enumerate() {
        sweep_block(plan, chunk, i * nb, out, ctx);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::scalar::gemv_reference;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn setup(m: usize, k: usize, n: usize, bits: u8) -> (tmac_quant::QuantizedMatrix, Vec<f32>) {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32) * 0.31).sin() * 0.6)
            .collect();
        let act: Vec<f32> = (0..n * k)
            .map(|i| ((i as f32) * 0.17).cos() * 0.8)
            .collect();
        (rtn::quantize(&w, m, k, bits, 32).unwrap(), act)
    }

    #[test]
    fn gemm_rows_match_gemv_rows() {
        let (m, k, n) = (64, 128, 5);
        let (qm, act) = setup(m, k, n, 4);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut out = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
        for ni in 0..n {
            let mut row = vec![0f32; m];
            crate::gemv::mpgemv(&plan, &act[ni * k..(ni + 1) * k], &mut row, &ctx).unwrap();
            assert_eq!(&out[ni * m..(ni + 1) * m], &row[..], "row {ni}");
        }
    }

    #[test]
    fn gemm_matches_reference() {
        let (m, k, n) = (48, 96, 7);
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut out = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
        for ni in 0..n {
            let reference = gemv_reference(&qm, &act[ni * k..(ni + 1) * k]);
            let nmse = tmac_simd::f32ops::nmse(&out[ni * m..(ni + 1) * m], &reference);
            assert!(nmse < 2e-3, "row {ni} nmse={nmse}");
        }
    }

    #[test]
    fn cached_and_with_tables_match_fresh() {
        let (m, k, n) = (64, 128, 11); // crosses an n_block boundary
        let (qm, act) = setup(m, k, n, 3);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let mut fresh = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut fresh, &ctx).unwrap();

        ctx.next_activation();
        let mut cached = vec![0f32; n * m];
        mpgemm_cached(&plan, &act, n, &mut cached, &ctx).unwrap();
        assert_eq!(fresh, cached);

        let tables: Vec<ActTables> = (0..n)
            .map(|ni| build_tables(&plan, &act[ni * k..(ni + 1) * k]).unwrap())
            .collect();
        let mut with = vec![0f32; n * m];
        mpgemm_with_tables(&plan, &tables, &mut with, &ctx).unwrap();
        assert_eq!(fresh, with);
    }

    #[test]
    fn cached_shares_builds_across_plans() {
        // Batched QKV: two plans, one activation batch, one batched build.
        let (m, k, n) = (32, 64, 4);
        let (qm, act) = setup(m, k, n, 2);
        let (qm2, _) = setup(m, k, n, 4);
        let plan2 = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let plan4 = WeightPlan::new(&qm2, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        ctx.next_activation();
        let mut out = vec![0f32; n * m];
        mpgemm_cached(&plan2, &act, n, &mut out, &ctx).unwrap();
        mpgemm_cached(&plan4, &act, n, &mut out, &ctx).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 1), "second plan must reuse");
    }

    #[test]
    fn with_tables_rejects_incompatible() {
        let (m, k, n) = (32, 64, 2);
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; n * m];
        assert!(mpgemm_with_tables(&plan, &[], &mut out, &ctx).is_err());
        let t = build_tables(&plan, &act[..k]).unwrap();
        let mut short = vec![0f32; m];
        assert!(mpgemm_with_tables(&plan, &[t.clone(), t], &mut short, &ctx).is_err());
        // Tables built without quantization don't match a TQ plan.
        let wrong = ActTables::build(&act[..k], 32, &crate::opts::KernelOpts::tm_base()).unwrap();
        let mut one = vec![0f32; m];
        assert!(mpgemm_with_tables(&plan, &[wrong], &mut one, &ctx).is_err());
        // Mirror-consolidated tables have half the layout of full tables.
        let mirrored =
            ActTables::build(&act[..k], 32, &crate::opts::KernelOpts::tmac_mirror()).unwrap();
        assert!(mpgemm_with_tables(&plan, &[mirrored], &mut one, &ctx).is_err());
        // A fast-aggregation plan needs the offset u8 tables materialized.
        let fa_plan = WeightPlan::new(&qm, KernelOpts::tmac_fast_aggregation()).unwrap();
        let no_fa = build_tables(&plan, &act[..k]).unwrap();
        assert!(mpgemm_with_tables(&fa_plan, &[no_fa], &mut one, &ctx).is_err());
    }

    /// The multi-row sweep must be bit-identical to per-row GEMV for every
    /// option combination (exact, mirror, FA, flat-quantized, f32-table
    /// fallback), every bit-width, and shapes that straddle the
    /// `n_block` boundary.
    #[test]
    fn mpgemm_bit_identical_to_mpgemv_across_opts_and_shapes() {
        let combos = [
            KernelOpts::tm_base(),
            KernelOpts::plus_table_quant(),
            KernelOpts::plus_tiling(),
            KernelOpts::plus_permute(),
            KernelOpts::tmac(),
            KernelOpts::tmac_mirror(),
            KernelOpts::tmac_fast_aggregation(),
        ];
        let ctx = ExecCtx::new(2);
        for opts in combos {
            for bits in [1u8, 2, 4] {
                // n = 11 straddles n_block (8); m = 72 leaves a ragged final
                // tile.
                let (m, k, n) = (72, 128, 11);
                let (qm, act) = setup(m, k, n, bits);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let mut out = vec![0f32; n * m];
                mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
                for ni in 0..n {
                    let mut row = vec![0f32; m];
                    crate::gemv::mpgemv(&plan, &act[ni * k..(ni + 1) * k], &mut row, &ctx).unwrap();
                    assert_eq!(
                        &out[ni * m..(ni + 1) * m],
                        &row[..],
                        "opts={opts:?} bits={bits} row {ni}"
                    );
                }
            }
        }
    }

    /// Any `n_block` (row blocks of one row, odd sizes, larger than `n`)
    /// must not change a bit.
    #[test]
    fn n_block_boundaries_bit_exact() {
        let (m, k, n) = (64, 256, 13);
        for nb in [1, 2, 3, 5, 8, 16] {
            let mut opts = KernelOpts::tmac();
            opts.n_block = nb;
            let (qm, act) = setup(m, k, n, 3);
            let plan = WeightPlan::new(&qm, opts).unwrap();
            let ctx = ExecCtx::new(2);
            let mut out = vec![0f32; n * m];
            mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
            for ni in 0..n {
                let mut row = vec![0f32; m];
                crate::gemv::mpgemv(&plan, &act[ni * k..(ni + 1) * k], &mut row, &ctx).unwrap();
                assert_eq!(&out[ni * m..(ni + 1) * m], &row[..], "nb={nb} row {ni}");
            }
        }
    }

    #[test]
    fn cached_interleaved_path_matches_fresh_and_reuses() {
        let (m, k, n) = (64, 128, 9);
        let (qm, act) = setup(m, k, n, 2);
        let (qm4, _) = setup(m, k, n, 4);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let plan4 = WeightPlan::new(&qm4, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut fresh = vec![0f32; n * m];
        mpgemm(&plan, &act, n, &mut fresh, &ctx).unwrap();
        ctx.next_activation();
        let mut cached = vec![0f32; n * m];
        mpgemm_cached(&plan, &act, n, &mut cached, &ctx).unwrap();
        assert_eq!(fresh, cached);
        // A second plan with the same blocking reuses the re-lay work.
        let mut out4 = vec![0f32; n * m];
        mpgemm_cached(&plan4, &act, n, &mut out4, &ctx).unwrap();
        assert_eq!(ctx.interleave_stats(), (1, 1), "interleave must be shared");
    }

    #[test]
    fn n_not_multiple_of_block() {
        let (m, k, n) = (32, 64, 3); // n_block = 8 > n
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; n * m];
        assert!(mpgemm(&plan, &act, n, &mut out, &ctx).is_ok());
    }

    #[test]
    fn rejects_bad_shapes() {
        let (m, k, n) = (32, 64, 2);
        let (qm, act) = setup(m, k, n, 2);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(1);
        let mut out = vec![0f32; n * m];
        assert!(mpgemm(&plan, &act, 0, &mut out, &ctx).is_err());
        assert!(mpgemm(&plan, &act[..k], n, &mut out, &ctx).is_err());
        let mut short = vec![0f32; n * m - 1];
        assert!(mpgemm(&plan, &act, n, &mut short, &ctx).is_err());
    }
}
