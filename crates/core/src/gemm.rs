//! The mpGEMM driver: table precompute + parallel m-tile sweep, for any
//! number of activation rows. mpGEMV is the `n = 1` call.
//!
//! The lookup table is the reusable operand (§3.2: "the weight `W[M, K]` can
//! share the same pre-computed lookup table"): the tables of all `n` rows
//! are validated and built first, as one [`ActTables`] (rows in parallel),
//! then swept over the weights. Axis order follows §3.2: the temporal axis
//! `K` is innermost, the spatial axis `M` is split into tiles and
//! distributed over threads as static thread blocks, and the sequence axis
//! is walked in **[`N_BLOCK`]**-row ranges of the one table set.
//!
//! The context's kernel family ([`ExecCtx::isa`]) picks the kernels. Under
//! `Avx2` two kernels serve a range, chosen by [`kernel::avx2::mtile`] from
//! what it can see:
//!
//! * one row, or a plan without a multi-row kernel → the streaming GEMV
//!   m-tile kernel, once per row (a decode step streams every weight once;
//!   nothing is buffered);
//! * otherwise → the scale-block-outer multi-row kernel, which decodes each
//!   scale block's weight indices once and looks them up against every row
//!   of the range.
//!
//! Under `Avx512`, [`kernel::avx512::mtile`] runs the same two kernels on
//! `zmm` registers for the plans it serves and hands every other plan to
//! the AVX2 kernels; the two families agree bit for bit. Every
//! [`KernelOpts`](crate::KernelOpts) rung has an AVX2 kernel, so a plan
//! runs on its context's family, never on another.
//!
//! Per row the multi-row kernel applies the GEMV kernel's operations in the
//! GEMV kernel's order, so neither the choice nor the blocking ever changes
//! a bit of the result. (The scalar kernel is one loop for any row count.)

use crate::exec::{ExecCtx, SharedMut};
use crate::kernel;
use crate::opts::{N_BLOCK, TILE_M};
use crate::plan::WeightPlan;
use crate::table::ActTables;
use crate::TmacError;
use std::ops::Range;
use tmac_simd::Isa;

/// Builds the tables of a row-major `n × K` activation batch for `plan`
/// (the online stage): with a context, on its kernel family and with the
/// rows of a batch fanned out over its pool; without one, on the calling
/// thread and the detected family.
///
/// # Errors
///
/// Returns [`TmacError::Shape`] when `n == 0` or `act.len() != n·K`;
/// otherwise propagates [`ActTables::build`]'s failures (shape, non-finite
/// activations).
pub fn build_tables(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    ctx: Option<&ExecCtx>,
) -> Result<ActTables, TmacError> {
    if n == 0 || act.len() != n * plan.k {
        return Err(TmacError::Shape(format!(
            "activation length {} != n*K = {n}*{} (n >= 1)",
            act.len(),
            plan.k
        )));
    }
    let (pool, isa) = match ctx {
        Some(ctx) => (Some(ctx.pool()), ctx.isa()),
        None => (None, Isa::detect()),
    };
    ActTables::build_on(pool, isa, act, n, plan.group_size, &plan.opts())
}

/// Floats per 64-byte cache line.
const LINE_FLOATS: usize = 64 / std::mem::size_of::<f32>();

/// The `len` floats of `buf` from its first 64-byte boundary on, so that the
/// multi-row kernel's 32-byte row loads and stores never straddle a cache
/// line: the same code measured ±4 % at n ≥ 2 by where `malloc` put the
/// buffer. `buf` needs `LINE_FLOATS - 1` floats to spare.
fn line_aligned(buf: &mut [f32], len: usize) -> &mut [f32] {
    // `f32`s are 4-byte aligned, so the distance is whole floats.
    let skip = (buf.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<f32>();
    &mut buf[skip..skip + len]
}

/// Sweeps all m-tiles for the rows `rows` of `tables` (= of `out`).
///
/// What keeps batched forwards bit-identical to independent single-row
/// forwards: the kernel family (`Avx512`, `Avx2` or scalar) depends on the
/// context and the plan only, never on the row count — within a family
/// every row's arithmetic is the same however many rows a call takes.
/// `Avx512` and `Avx2` also agree with each other bit for bit; scalar
/// differs from them in `f32` fold rounding.
fn sweep(
    plan: &WeightPlan,
    tables: &ActTables,
    rows: Range<usize>,
    out: &SharedMut<'_, f32>,
    ctx: &ExecCtx,
) {
    let (m, isa) = (plan.m, ctx.isa());
    ctx.pool().chunks(plan.m_tiles(), 1, |tiles| {
        // One sweep of this thread's tiles (`id` = first tile, `arg` = rows).
        let _sweep = tmac_trace::span("gemm", "sweep", tiles.start as u64, rows.len() as u64);
        // One row's tile lives on the stack: the decode path takes no lock
        // on the scratch arena.
        let mut one = [0f32; TILE_M];
        let mut many = match rows.len() {
            1 => Vec::new(),
            n => ctx.take_buf(n * TILE_M + LINE_FLOATS - 1),
        };
        let outs = if rows.len() == 1 {
            &mut one[..]
        } else {
            line_aligned(&mut many, rows.len() * TILE_M)
        };
        for mt in tiles {
            match isa {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: a context holds only a family the host executes
                // (`Isa::available`): AVX-512F/BW + AVX2 + FMA + F16C.
                Isa::Avx512 => unsafe {
                    kernel::avx512::mtile(plan, tables, rows.clone(), mt, outs)
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above, AVX2 + FMA + F16C.
                Isa::Avx2 => unsafe { kernel::avx2::mtile(plan, tables, rows.clone(), mt, outs) },
                _ => kernel::scalar::plan_mtile(plan, tables, rows.clone(), mt, outs),
            }
            let m0 = mt * TILE_M;
            let take = TILE_M.min(m - m0);
            for (r, tile) in rows.clone().zip(outs.chunks_exact(TILE_M)) {
                // SAFETY: this thread owns tile `mt` of every row, and row
                // `r`'s lies within `out` (`mpgemm_with_tables` checked its
                // length).
                unsafe { out.slice(r * m + m0, take) }.copy_from_slice(&tile[..take]);
            }
        }
        ctx.put_buf(many);
    });
}

/// Computes `out[n][m] = Σ_k act[n][k] · W[m][k]` for an offline-planned
/// `W`.
///
/// `act` is row-major `n × K`; `out` is row-major `n × M`. Tables are built
/// fresh per call (the honest cost of a standalone call); use
/// [`mpgemm_cached`] when several weight matrices consume the same
/// activation batch (QKV projections).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] on dimension mismatches or `n == 0`, and
/// [`TmacError::Numeric`] on non-finite activations. On `Err`, `out` is
/// untouched: every row is validated and built before any sweep.
pub fn mpgemm(
    plan: &WeightPlan,
    act: &[f32],
    n: usize,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    let tables = build_tables(plan, act, n, Some(ctx))?;
    mpgemm_with_tables(plan, &tables, out, ctx)
}

/// [`mpgemm`] through the context's activation-table cache.
///
/// Within one [`ExecCtx::next_activation`] scope, every plan with the same
/// table profile (`K`, group size, table options) consuming the same
/// `n × K` activation batch shares one table build — the QKV / gate-up
/// reuse of §3.2 made automatic, for decode (`n = 1`) and batched serving
/// alike (see [`ExecCtx::tables_for`]).
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
    let tables = ctx.tables_for(plan, act, n)?;
    mpgemm_with_tables(plan, &tables, out, ctx)
}

/// [`mpgemm`] with caller-provided precomputed tables (`tables.rows` rows).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] if `out.len() != tables.rows · M` or the
/// tables do not match `plan`'s full table profile (shape *and* options):
/// every mismatch the kernels cannot tolerate — `K`, group size and
/// quantization — is rejected before dispatch.
pub fn mpgemm_with_tables(
    plan: &WeightPlan,
    tables: &ActTables,
    out: &mut [f32],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    let n = tables.rows;
    if out.len() != n * plan.m {
        return Err(TmacError::Shape(format!(
            "output length {} != n*M = {n}*{}",
            out.len(),
            plan.m
        )));
    }
    if (tables.k, tables.group_size, tables.quantized)
        != (plan.k, plan.group_size, plan.opts().table_quant())
    {
        return Err(TmacError::Shape(
            "tables do not match the plan's table profile (K, group size, quantization)".into(),
        ));
    }
    let out = SharedMut::new(out);
    for n0 in (0..n).step_by(N_BLOCK) {
        sweep(plan, tables, n0..n.min(n0 + N_BLOCK), &out, ctx);
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
    fn sweep_scratch_starts_on_a_cache_line() {
        let ctx = ExecCtx::new(1);
        let len = 3 * TILE_M;
        let mut buf = ctx.take_buf(len + 2 * LINE_FLOATS);
        // Every float offset a 4-byte-aligned allocation can start at.
        for at in 0..LINE_FLOATS {
            let outs = line_aligned(&mut buf[at..at + len + LINE_FLOATS - 1], len);
            assert_eq!(outs.as_ptr() as usize % 64, 0, "offset {at}");
            assert_eq!(outs.len(), len);
        }
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
            mpgemm(&plan, &act[ni * k..(ni + 1) * k], 1, &mut row, &ctx).unwrap();
            assert_eq!(&out[ni * m..(ni + 1) * m], &row[..], "row {ni}");
        }
    }

    #[test]
    fn gemm_matches_reference() {
        let ctx = ExecCtx::new(2);
        // The GEMV (n = 1; m = 100 leaves a ragged final tile) at every
        // bit-width, and a 7-row batch.
        let cases = (1..=4u8)
            .map(|bits| (100, 128, 1, bits))
            .chain([(48, 96, 7, 2)]);
        for (m, k, n, bits) in cases {
            let (qm, act) = setup(m, k, n, bits);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let mut out = vec![0f32; n * m];
            mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
            for ni in 0..n {
                let reference = gemv_reference(&qm, &act[ni * k..(ni + 1) * k]);
                let nmse = tmac_simd::f32ops::nmse(&out[ni * m..(ni + 1) * m], &reference);
                assert!(nmse < 2e-3, "bits={bits} n={n} row {ni} nmse={nmse}");
            }
        }
    }

    #[test]
    fn single_and_multi_thread_agree_exactly() {
        for n in [1, 5] {
            let (qm, act) = setup(96, 256, n, 4);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let mut a = vec![0f32; n * 96];
            let mut b = vec![0f32; n * 96];
            mpgemm(&plan, &act, n, &mut a, &ExecCtx::new(1)).unwrap();
            mpgemm(&plan, &act, n, &mut b, &ExecCtx::new(4)).unwrap();
            assert_eq!(a, b, "threading must not change results (n={n})");
        }
    }

    #[test]
    fn cached_and_with_tables_match_fresh() {
        // n = 11 crosses an N_BLOCK boundary; n = 1 is the GEMV.
        for (m, k, n) in [(64, 128, 11), (64, 128, 1)] {
            let (qm, act) = setup(m, k, n, 3);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let ctx = ExecCtx::new(2);
            let mut fresh = vec![0f32; n * m];
            mpgemm(&plan, &act, n, &mut fresh, &ctx).unwrap();

            ctx.next_activation();
            let mut cached = vec![0f32; n * m];
            mpgemm_cached(&plan, &act, n, &mut cached, &ctx).unwrap();
            assert_eq!(fresh, cached);

            let tables = build_tables(&plan, &act, n, None).unwrap();
            let mut with = vec![0f32; n * m];
            mpgemm_with_tables(&plan, &tables, &mut with, &ctx).unwrap();
            assert_eq!(fresh, with);
        }
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
        // `out` must hold one row per table row.
        let t = build_tables(&plan, &act, n, None).unwrap();
        let mut short = vec![0f32; m];
        assert!(mpgemm_with_tables(&plan, &t, &mut short, &ctx).is_err());
        assert!(mpgemm_with_tables(&plan, &t, &mut out, &ctx).is_ok());
        // Tables built for another K don't match.
        let half_k = ActTables::build(&act[..k / 2], 1, 32, &plan.opts()).unwrap();
        let mut one = vec![0f32; m];
        assert!(mpgemm_with_tables(&plan, &half_k, &mut one, &ctx).is_err());
        // Tables built without quantization don't match a TQ plan.
        let wrong = ActTables::build(&act[..k], 1, 32, &KernelOpts::tm_base()).unwrap();
        assert!(mpgemm_with_tables(&plan, &wrong, &mut one, &ctx).is_err());
    }

    /// The multi-row sweep must be bit-identical to per-row GEMV for every
    /// option combination (paired, sequential, flat-quantized, f32 tables),
    /// every bit-width, and shapes that straddle the `N_BLOCK` boundary.
    #[test]
    fn mpgemm_bit_identical_to_mpgemv_across_opts_and_shapes() {
        let ctx = ExecCtx::new(2);
        for (_, opts) in KernelOpts::breakdown_ladder() {
            for bits in [1u8, 2, 4] {
                // n = 11 straddles N_BLOCK (8); m = 72 leaves a ragged final
                // tile.
                let (m, k, n) = (72, 128, 11);
                let (qm, act) = setup(m, k, n, bits);
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let mut out = vec![0f32; n * m];
                mpgemm(&plan, &act, n, &mut out, &ctx).unwrap();
                for ni in 0..n {
                    let mut row = vec![0f32; m];
                    mpgemm(&plan, &act[ni * k..(ni + 1) * k], 1, &mut row, &ctx).unwrap();
                    assert_eq!(
                        &out[ni * m..(ni + 1) * m],
                        &row[..],
                        "opts={opts:?} bits={bits} row {ni}"
                    );
                }
            }
        }
    }

    /// The forced-family matrix: `Avx512` must equal `Avx2` bit for bit
    /// through `mpgemm` at every bit width, for the GEMV and multi-row
    /// kernels (`n` straddling `N_BLOCK`, a ragged last m-tile), and on the
    /// shapes the `zmm` kernels hand to AVX2: a lone k-group per block and
    /// the `i16` flush path.
    #[test]
    fn avx512_family_bit_identical_to_avx2() {
        let (Ok(zmm), Ok(ymm)) = (
            ExecCtx::with_isa(2, Isa::Avx512),
            ExecCtx::with_isa(2, Isa::Avx2),
        ) else {
            println!(
                "skipped: this host has no AVX-512BW (detected {})",
                Isa::detect()
            );
            return;
        };
        let m = 100;
        let mut cases: Vec<_> = (1..=4u8).map(|bits| (bits, 32, 256, true)).collect();
        cases.push((3, 12, 96, false));
        cases.push((4, 128, 256, false));
        for (bits, gs, k, zmm_serves) in cases {
            let n_max = 16;
            let w: Vec<f32> = (0..m * k)
                .map(|i| ((i as f32) * 0.31).sin() * 0.6)
                .collect();
            let act: Vec<f32> = (0..n_max * k)
                .map(|i| ((i as f32) * 0.17).cos() * 0.8 + (i / k) as f32 * 0.05)
                .collect();
            let qm = rtn::quantize(&w, m, k, bits, gs).unwrap();
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            #[cfg(target_arch = "x86_64")]
            assert_eq!(
                kernel::avx512::supported(&plan),
                zmm_serves,
                "W{bits} g{gs}"
            );
            for n in [1, 2, 5, 8, 11, 16] {
                let act = &act[..n * k];
                let (mut got, mut want) = (vec![0f32; n * m], vec![0f32; n * m]);
                mpgemm(&plan, act, n, &mut got, &zmm).unwrap();
                mpgemm(&plan, act, n, &mut want, &ymm).unwrap();
                let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits_of(&got), bits_of(&want), "W{bits} g{gs} n={n}");
            }
        }
    }

    #[test]
    fn with_isa_refuses_a_family_the_host_lacks() {
        for isa in Isa::ALL {
            match ExecCtx::with_isa(1, isa) {
                Ok(ctx) => assert!(isa.available() && ctx.isa() == isa),
                Err(e) => assert!(!isa.available() && e == TmacError::IsaUnavailable(isa)),
            }
        }
        assert_eq!(ExecCtx::new(1).isa(), Isa::detect());
        assert_eq!(
            ExecCtx::with_isa(1, Isa::Scalar).unwrap().isa(),
            Isa::Scalar
        );
    }

    /// Every row count up to two full `N_BLOCK` row blocks and one more
    /// (a partial block, whole blocks, a lone row past them) must not
    /// change a bit.
    #[test]
    fn n_block_boundaries_bit_exact() {
        let (m, k) = (64, 256);
        let n_max = 2 * N_BLOCK + 1;
        let (qm, act) = setup(m, k, n_max, 3);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let ctx = ExecCtx::new(2);
        let rows: Vec<Vec<f32>> = act
            .chunks_exact(k)
            .map(|a| {
                let mut row = vec![0f32; m];
                mpgemm(&plan, a, 1, &mut row, &ctx).unwrap();
                row
            })
            .collect();
        for n in 1..=n_max {
            let mut out = vec![0f32; n * m];
            mpgemm(&plan, &act[..n * k], n, &mut out, &ctx).unwrap();
            for (ni, row) in rows[..n].iter().enumerate() {
                assert_eq!(&out[ni * m..(ni + 1) * m], &row[..], "n={n} row {ni}");
            }
        }
    }

    /// Every row is validated and built before any sweep: a bad row past the
    /// first `N_BLOCK` rows (or the only row) leaves `out` untouched, through
    /// the fresh-build and the cached entry point alike.
    #[test]
    fn error_leaves_out_untouched() {
        let (m, k) = (64, 128);
        for (n, bad_row) in [(13, 12), (13, 9), (1, 0)] {
            let (qm, mut act) = setup(m, k, n, 2);
            act[bad_row * k + 5] = if n == 1 { f32::INFINITY } else { f32::NAN };
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            assert!(bad_row == 0 || bad_row >= N_BLOCK);
            let ctx = ExecCtx::new(2);
            type Entry =
                fn(&WeightPlan, &[f32], usize, &mut [f32], &ExecCtx) -> Result<(), TmacError>;
            for entry in [mpgemm as Entry, mpgemm_cached as Entry] {
                ctx.next_activation();
                let mut out = vec![7.5f32; n * m];
                let err = entry(&plan, &act, n, &mut out, &ctx);
                assert!(matches!(err, Err(TmacError::Numeric(_))), "n={n}: {err:?}");
                assert!(
                    out.iter().all(|&x| x == 7.5),
                    "n={n}: out written before the error"
                );
            }
        }
    }

    #[test]
    fn n_not_multiple_of_block() {
        let (m, k, n) = (32, 64, 3); // N_BLOCK = 8 > n
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
        // And at n = 1 (the GEMV): short activations, short output.
        assert!(mpgemm(&plan, &act[..k / 2], 1, &mut out[..m], &ctx).is_err());
        assert!(mpgemm(&plan, &act[..k], 1, &mut short[..m - 1], &ctx).is_err());
        assert!(mpgemm_cached(&plan, &act[..k], 1, &mut short[..m - 1], &ctx).is_err());
    }
}
