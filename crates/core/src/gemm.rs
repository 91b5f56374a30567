//! The mpGEMM driver: table precompute + parallel m-tile sweep, for any
//! number of activation rows and any number of weight matrices sharing
//! them. mpGEMV is the `n = 1` call; a lone matrix is the one-plan group.
//!
//! The lookup table is the reusable operand (§3.2: "the weight `W[M, K]` can
//! share the same pre-computed lookup table"): the tables of all `n` rows
//! are validated and built first, as one [`ActTables`] (rows in parallel),
//! then swept over the weights of every plan of the group
//! ([`mpgemm_group`]: the QKV projections, the FFN gate/up pair). Axis order
//! follows §3.2: the temporal axis `K` is innermost, the spatial axis `M` is
//! split into tiles — the group's m-tiles concatenated, plan after plan —
//! and distributed over threads as static thread blocks in one pool
//! dispatch, and the sequence axis is walked in **[`N_BLOCK`]**-row ranges
//! of the one table set. Each thread hands its tiles of a plan to the
//! kernel family in runs of up to **[`TILE_RUN`]** consecutive tiles; a run
//! never crosses a plan boundary or the thread's block.
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
//! Under `Avx512`, [`kernel::avx512::mtile`] serves the paired stream with
//! three `zmm` kernels: the GEMV kernel for one row, and for 2–4 rows (a
//! decode batch) and for more a `vpermb` + `vpdpbusd` kernel, the first
//! register-resident, the second buffering indices per block and taking a
//! whole *run* of m-tiles per call, so that each table load serves every
//! tile of the run. The other
//! rungs, blocks of more than 64 k-groups and the one-row GEMV of a plan
//! whose block sum overflows `i16` (W4 from g128) take the AVX2 kernels;
//! the two families agree bit for bit. Every
//! [`KernelOpts`](crate::KernelOpts) rung has an AVX2 kernel, so a plan
//! runs on its context's family, never on another.
//!
//! Per row a multi-row kernel sums exactly what the GEMV kernel sums and
//! folds it in the GEMV kernel's order, so neither the choice nor the blocking ever changes
//! a bit of the result. (The scalar kernel is one loop for any row count.)
//! An output tile depends only on its plan's indices and scales and on the
//! shared tables, so grouping plans changes no bit either.

use crate::exec::ExecCtx;
use crate::kernel;
use crate::opts::{N_BLOCK, TILE_M, TILE_RUN};
use crate::plan::WeightPlan;
use crate::table::ActTables;
use crate::TmacError;
use std::ops::Range;
use tmac_simd::Isa;
use tmac_threadpool::SharedMut;

/// Builds the tables of a row-major `n × K` activation batch for `plan`
/// (the online stage): with a context, on its kernel family and with the
/// rows of a batch fanned out over its pool, counted as one build in
/// [`ExecCtx::table_stats`]; without one, on the calling thread and the
/// detected family.
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
    let _build = ctx.map(|_| tmac_trace::span("exec", "table_build", 0, n as u64));
    let tables = ActTables::build_on(pool, isa, act, n, plan.group_size, &plan.opts())?;
    ctx.inspect(|ctx| ctx.count_build());
    Ok(tables)
}

/// What a plan needs of its tables: `K`, group size and table quantization
/// (the rung's one table switch). Weight bit-width is absent: tables are
/// built from the activation alone.
fn table_profile(plan: &WeightPlan) -> (usize, usize, bool) {
    (plan.k, plan.group_size, plan.opts().table_quant())
}

/// Checks that a group is non-empty, that its plans consume the tables of
/// the first plan's profile, and that `outs[i]` holds `n` rows of plan
/// `i`'s outputs.
fn check_group(plans: &[&WeightPlan], outs: &[&mut [f32]], n: usize) -> Result<(), TmacError> {
    let Some(first) = plans.first() else {
        return Err(TmacError::Shape("a group needs at least one plan".into()));
    };
    let profile = table_profile(first);
    if outs.len() != plans.len() {
        return Err(TmacError::Shape(format!(
            "{} plans but {} outputs",
            plans.len(),
            outs.len()
        )));
    }
    for (i, (plan, out)) in plans.iter().zip(outs).enumerate() {
        if table_profile(plan) != profile || out.len() != n * plan.m {
            return Err(TmacError::Shape(format!(
                "plan {i}: table profile (K, group size, table quantization) {:?} vs \
                 {profile:?}, output length {} vs n*M = {n}*{}",
                table_profile(plan),
                out.len(),
                plan.m
            )));
        }
    }
    Ok(())
}

/// One sweep thread's tile buffer: a run of up to [`TILE_RUN`] m-tiles of
/// up to [`N_BLOCK`] rows each, tile-major, on a 64-byte boundary so that
/// the kernels' row loads and stores never straddle a cache line (the same
/// code measured ±4 % at n ≥ 2 by where `malloc` put a heap buffer).
#[repr(align(64))]
struct TileBuf([f32; TILE_RUN * N_BLOCK * TILE_M]);

/// Sweeps the m-tiles of every plan of a group for the rows `rows` of
/// `tables` (= of each `outs[i]`) in one pool dispatch: the group's tiles
/// are one list, plan after plan, split into static thread blocks. Each
/// thread hands its tiles of a plan to the kernel family in runs of up to
/// [`TILE_RUN`] consecutive tiles: a run never crosses a plan boundary or
/// the thread's block. `Avx512` takes a run in one call (its 5–16-row
/// kernel loads each table once for the whole run); `Avx2` and scalar walk
/// it tile by tile.
///
/// What keeps batched forwards bit-identical to independent single-row
/// forwards: the kernel family (`Avx512`, `Avx2` or scalar) depends on the
/// context and the plan only, never on the row count — within a family
/// every row's arithmetic is the same however many rows a call takes, and
/// however many tiles. `Avx512` and `Avx2` also agree with each other bit
/// for bit; scalar differs from them in `f32` fold rounding.
fn sweep(
    plans: &[&WeightPlan],
    tables: &ActTables,
    rows: Range<usize>,
    outs: &[SharedMut<'_, f32>],
    ctx: &ExecCtx,
) {
    debug_assert!(rows.len() <= N_BLOCK, "a sweep covers at most N_BLOCK rows");
    let isa = ctx.isa();
    let total = plans.iter().map(|p| p.m_tiles()).sum();
    let tile_len = rows.len() * TILE_M;
    ctx.pool().chunks(total, 1, |tiles| {
        // One sweep of this thread's tiles (`id` = first tile of the group's
        // list, `arg` = rows).
        let _sweep = tmac_trace::span("gemm", "sweep", tiles.start as u64, rows.len() as u64);
        let mut buf = TileBuf([0f32; TILE_RUN * N_BLOCK * TILE_M]);
        let mut first = 0;
        for (plan, out) in plans.iter().zip(outs) {
            // This plan's tiles are `first..first + m_tiles` of the list.
            let own = first..first + plan.m_tiles();
            first = own.end;
            let mine = tiles.start.max(own.start)..tiles.end.min(own.end);
            for t0 in mine.clone().step_by(TILE_RUN) {
                let run = t0 - own.start..mine.end.min(t0 + TILE_RUN) - own.start;
                let scratch = &mut buf.0[..run.len() * tile_len];
                let per_tile = run.clone().zip(scratch.chunks_exact_mut(tile_len));
                match isa {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: a context holds only a family the host executes
                    // (`Isa::available`): AVX-512F/BW + AVX2 + FMA + F16C.
                    Isa::Avx512 => unsafe {
                        kernel::avx512::mtile(plan, tables, rows.clone(), run.clone(), scratch)
                    },
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2 => {
                        for (mt, tile) in per_tile {
                            // SAFETY: as above, AVX2 + FMA + F16C.
                            unsafe { kernel::avx2::mtile(plan, tables, rows.clone(), mt, tile) }
                        }
                    }
                    _ => {
                        for (mt, tile) in per_tile {
                            kernel::scalar::plan_mtile(plan, tables, rows.clone(), mt, tile);
                        }
                    }
                }
                for (mt, tile) in run.zip(buf.0.chunks_exact(tile_len)) {
                    let m0 = mt * TILE_M;
                    let take = TILE_M.min(plan.m - m0);
                    for (r, row) in rows.clone().zip(tile.chunks_exact(TILE_M)) {
                        // SAFETY: this thread owns tile `mt` of every row, and
                        // row `r`'s lies within `out` (`check_group` checked
                        // its length).
                        unsafe { out.slice(r * plan.m + m0, take) }.copy_from_slice(&row[..take]);
                    }
                }
            }
        }
    });
}

/// Computes `out[n][m] = Σ_k act[n][k] · W[m][k]` for an offline-planned
/// `W`: the one-plan [`mpgemm_group`].
///
/// `act` is row-major `n × K`; `out` is row-major `n × M`. Tables are built
/// fresh per call (the honest cost of a standalone call); pass the weight
/// matrices that consume the same activation batch (QKV projections) to
/// [`mpgemm_group`] together to build them once.
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
    mpgemm_group(&[plan], act, n, &mut [out], ctx)
}

/// [`mpgemm`] for every plan of `plans` over one activation batch:
/// `outs[i]` (row-major `n × M_i`) receives plan `i`'s product.
///
/// The `n`-row tables are built once for the whole group (counted as one
/// build plus `plans.len() − 1` shared uses in [`ExecCtx::table_stats`]),
/// and each [`N_BLOCK`]-row range sweeps the m-tiles of all plans in one
/// pool dispatch. Every output is bit-identical to a separate [`mpgemm`]
/// call of its plan.
///
/// # Errors
///
/// Returns [`TmacError::Shape`] unless `plans` is non-empty, `outs` has one
/// buffer of `n · M_i` floats per plan, and all plans share `K`, group size
/// and table quantization; otherwise [`mpgemm`]'s errors. On `Err`, every
/// output is untouched.
pub fn mpgemm_group(
    plans: &[&WeightPlan],
    act: &[f32],
    n: usize,
    outs: &mut [&mut [f32]],
    ctx: &ExecCtx,
) -> Result<(), TmacError> {
    check_group(plans, outs, n)?;
    let tables = build_tables(plans[0], act, n, Some(ctx))?;
    ctx.count_shared(plans.len() - 1);
    let outs: Vec<SharedMut<'_, f32>> = outs.iter_mut().map(|o| SharedMut::new(o)).collect();
    for n0 in (0..n).step_by(N_BLOCK) {
        sweep(plans, &tables, n0..n.min(n0 + N_BLOCK), &outs, ctx);
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
    fn one_build_swept_twice_matches_fresh() {
        // A group of one plan twice sweeps one table build twice: both
        // outputs equal the fresh build. N_BLOCK + 5 crosses an N_BLOCK
        // boundary into a range of the `vpermb` kernel; n = 1 is the GEMV.
        for (m, k, n) in [(64, 128, N_BLOCK + 5), (64, 128, 1)] {
            let (qm, act) = setup(m, k, n, 3);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let ctx = ExecCtx::new(2);
            let mut fresh = vec![0f32; n * m];
            mpgemm(&plan, &act, n, &mut fresh, &ctx).unwrap();

            let (mut first, mut second) = (vec![0f32; n * m], vec![0f32; n * m]);
            let outs: &mut [&mut [f32]] = &mut [&mut first, &mut second];
            mpgemm_group(&[&plan, &plan], &act, n, outs, &ctx).unwrap();
            assert_eq!((&fresh, &fresh), (&first, &second));
        }
    }

    /// A group mixing W1–W4 plans of different `M` (the last one ragged)
    /// equals separate `mpgemm` calls bit for bit, at n ∈ {1, 5, 16}, on
    /// every family the host executes and on 1 and 2 threads; one build
    /// serves the whole group.
    #[test]
    fn mpgemm_group_bit_identical_to_separate_calls() {
        let k = 128;
        let plans: Vec<WeightPlan> = [(64, 1u8), (96, 2), (32, 3), (72, 4)]
            .into_iter()
            .map(|(m, bits)| WeightPlan::new(&setup(m, k, 1, bits).0, KernelOpts::tmac()).unwrap())
            .collect();
        let group: Vec<&WeightPlan> = plans.iter().collect();
        let (_, act) = setup(1, k, 16, 2);
        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            for threads in [1, 2] {
                let ctx = ExecCtx::with_isa(threads, isa).unwrap();
                for n in [1, 5, 16] {
                    let act = &act[..n * k];
                    let mut outs: Vec<Vec<f32>> =
                        plans.iter().map(|p| vec![0f32; n * p.m]).collect();
                    let mut views: Vec<&mut [f32]> = outs.iter_mut().map(|o| &mut o[..]).collect();
                    ctx.reset_table_stats();
                    mpgemm_group(&group, act, n, &mut views, &ctx).unwrap();
                    let s = ctx.table_stats();
                    assert_eq!((s.hits, s.misses), (3, 1), "{isa} n={n}");
                    for (plan, got) in plans.iter().zip(&outs) {
                        let mut want = vec![0f32; n * plan.m];
                        mpgemm(plan, act, n, &mut want, &ctx).unwrap();
                        assert_eq!(
                            bits_of(got),
                            bits_of(&want),
                            "{isa} threads={threads} n={n} W{} M={}",
                            plan.bits,
                            plan.m
                        );
                    }
                }
            }
        }
    }

    /// A group refuses plans that cannot share tables (another `K`, group
    /// size or table rung), a missing or mis-sized output and a non-finite
    /// activation with a typed error, leaving every output untouched.
    #[test]
    fn mpgemm_group_errors_leave_every_output_untouched() {
        let (m, k, n) = (64, 128, 3);
        let plan_of = |k: usize, gs: usize, opts: KernelOpts| {
            let w: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.31).sin()).collect();
            WeightPlan::new(&rtn::quantize(&w, m, k, 2, gs).unwrap(), opts).unwrap()
        };
        let base = plan_of(k, 32, KernelOpts::tmac());
        let other_k = plan_of(2 * k, 32, KernelOpts::tmac());
        let other_gs = plan_of(k, 64, KernelOpts::tmac());
        let other_rung = plan_of(k, 32, KernelOpts::tm_base());
        let (_, act) = setup(m, k, n, 2);
        let mut nan = act.clone();
        nan[(n - 1) * k + 3] = f32::NAN;
        let ctx = ExecCtx::new(2);
        // (what, second plan, activation, second output's length; 0 = none,
        // whether the error is the numeric one).
        let cases = [
            ("K", &other_k, &act, n * m, false),
            ("group size", &other_gs, &act, n * m, false),
            ("rung", &other_rung, &act, n * m, false),
            ("short output", &base, &act, n * m - 1, false),
            ("missing output", &base, &act, 0, false),
            ("NaN activation", &base, &nan, n * m, true),
        ];
        for (what, second, act, len, numeric) in cases {
            let (mut a, mut b) = (vec![7.5f32; n * m], vec![7.5f32; len]);
            let mut both = [&mut a[..], &mut b[..]];
            let outs = if len == 0 {
                &mut both[..1]
            } else {
                &mut both[..]
            };
            let err = mpgemm_group(&[&base, second], act, n, outs, &ctx).expect_err(what);
            match err {
                TmacError::Numeric(_) => assert!(numeric, "{what}: {err:?}"),
                TmacError::Shape(_) => assert!(!numeric, "{what}: {err:?}"),
                _ => panic!("{what}: {err:?}"),
            }
            assert!(
                a.iter().chain(&b).all(|&x| x == 7.5),
                "{what}: output written before the error"
            );
        }
        assert!(mpgemm_group(&[], &act, n, &mut [], &ctx).is_err());
    }

    /// The multi-row sweep must be bit-identical to per-row GEMV for every
    /// option combination (paired, sequential, flat-quantized, f32 tables),
    /// every bit-width, and shapes that straddle the `N_BLOCK` boundary.
    #[test]
    fn mpgemm_bit_identical_to_mpgemv_across_opts_and_shapes() {
        let ctx = ExecCtx::new(2);
        for (_, opts) in KernelOpts::breakdown_ladder() {
            // 2 rows is the smallest multi-row range; past N_BLOCK the
            // second range is 1 row (the GEMV kernel) or 2; m = 72 leaves a
            // ragged final tile.
            for (bits, n) in [1u8, 2, 4]
                .into_iter()
                .flat_map(|bits| [2, 3, N_BLOCK + 1, N_BLOCK + 2].map(|n| (bits, n)))
            {
                let (m, k) = (72, 128);
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
                        "opts={opts:?} bits={bits} n={n} row {ni}"
                    );
                }
            }
        }
    }

    /// The forced-family matrix: `Avx512` must equal `Avx2` bit for bit
    /// through `mpgemm` at every bit width, for every kernel of the family
    /// — the GEMV (n = 1), the register-resident `vpermb` kernel (2–4 rows)
    /// and the multi-tile one (5 rows on, with the ranges that `N_BLOCK`
    /// leaves around it) — with a ragged last m-tile. Six group sizes: one
    /// quad (g16), g32, three quads (g48, an odd quad count), g64, and g128
    /// and g256, whose blocks
    /// overflow `i16` at W4 (and W3 at g256): their `vpermb` ranges sum in
    /// `i32`, their one-row GEMV is AVX2's `i16` flush. Each range's kernel
    /// is asserted through the predicate `avx512::mtile` routes on, and the
    /// other rungs never take a `zmm` kernel.
    #[test]
    fn avx512_family_bit_identical_to_avx2() {
        let (Ok(zmm), Ok(ymm)) = (
            ExecCtx::with_isa(2, Isa::Avx512),
            ExecCtx::with_isa(2, Isa::Avx2),
        ) else {
            println!(
                "skipped: this host has no AVX-512 F/BW/VBMI/VNNI (detected {})",
                Isa::detect()
            );
            return;
        };
        let m = 100;
        let ns = [
            1,
            2,
            3,
            4,
            5,
            8,
            N_BLOCK - 1,
            N_BLOCK,
            N_BLOCK + 1,
            2 * N_BLOCK + 1,
        ];
        let n_max = 2 * N_BLOCK + 1;
        for bits in 1..=4u8 {
            for gs in [16usize, 32, 48, 64, 128, 256] {
                let k = gs * (256 / gs).max(2);
                let w: Vec<f32> = (0..m * k)
                    .map(|i| ((i as f32) * 0.31).sin() * 0.6)
                    .collect();
                let act: Vec<f32> = (0..n_max * k)
                    .map(|i| ((i as f32) * 0.17).cos() * 0.8 + (i / k) as f32 * 0.05)
                    .collect();
                let qm = rtn::quantize(&w, m, k, bits, gs).unwrap();
                let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
                // Whether a whole block fits the `zmm` GEMV's `i16` lanes.
                let narrow = gs / crate::LUT_GROUP <= 32767 / (127 * ((1 << bits) - 1));
                for n in ns {
                    // Every `N_BLOCK`-row range takes a `zmm` kernel — the
                    // GEMV, `gemm_regs_bits` (2–4 rows) or `gemm_run_bits`
                    // — except a one-row range of a plan that is not narrow.
                    #[cfg(target_arch = "x86_64")]
                    for n0 in (0..n).step_by(N_BLOCK) {
                        let rows = N_BLOCK.min(n - n0);
                        assert_eq!(
                            kernel::avx512::serves(&plan, rows),
                            rows > 1 || narrow,
                            "W{bits} g{gs} n={n}: a {rows}-row range"
                        );
                    }
                    let act = &act[..n * k];
                    let (mut got, mut want) = (vec![0f32; n * m], vec![0f32; n * m]);
                    mpgemm(&plan, act, n, &mut got, &zmm).unwrap();
                    mpgemm(&plan, act, n, &mut want, &ymm).unwrap();
                    let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits_of(&got), bits_of(&want), "W{bits} g{gs} n={n}");
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        for opts in [
            KernelOpts::plus_permute(),
            KernelOpts::plus_table_quant(),
            KernelOpts::tm_base(),
        ] {
            let (qm, _) = setup(m, 128, 1, 2);
            let plan = WeightPlan::new(&qm, opts).unwrap();
            assert!(!(1..=N_BLOCK).any(|rows| kernel::avx512::serves(&plan, rows)));
        }
    }

    /// Tile runs: `Avx512`, which takes each thread's tiles of a plan in runs
    /// of up to `TILE_RUN` (W4: one tile a call), equals `Avx2`, which walks
    /// them one by one, bit for bit. On 1, 2 and 3 threads, `M` gives the
    /// first thread 1 to `TILE_RUN + 1` tiles and the last fewer (uneven
    /// static blocks, so runs end early), always with a ragged last tile
    /// inside a run; a
    /// group of `M` = 96, 64, 40 (3 + 2 + 2 tiles) has runs that would
    /// straddle its plans. Every row count of a multi-tile range (5–7,
    /// 15–17, 33: odd rows take the one-row pass), W1–W4, and group sizes
    /// g16, g32, g48 and the `i32`-only blocks of g128 and g256.
    #[test]
    fn avx512_tile_runs_bit_identical_to_avx2() {
        let ctxs = |threads| {
            let zmm = ExecCtx::with_isa(threads, Isa::Avx512).ok()?;
            Some((zmm, ExecCtx::with_isa(threads, Isa::Avx2).unwrap()))
        };
        if ctxs(1).is_none() {
            println!(
                "skipped: this host has no AVX-512 F/BW/VBMI/VNNI (detected {})",
                Isa::detect()
            );
            return;
        }
        let ns = [5, 6, 7, 15, N_BLOCK, N_BLOCK + 1, 2 * N_BLOCK + 1];
        let n_max = 2 * N_BLOCK + 1;
        let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut case = 0;
        for threads in 1..=3 {
            let (zmm, ymm) = ctxs(threads).unwrap();
            for bits in 1..=4u8 {
                for gs in [16usize, 32, 48, 128, 256] {
                    let k = gs * (256 / gs).max(2);
                    let act: Vec<f32> = (0..n_max * k)
                        .map(|i| ((i as f32) * 0.17).cos() * 0.8 + (i / k) as f32 * 0.05)
                        .collect();
                    let plan_of = |m: usize| {
                        let w: Vec<f32> = (0..m * k)
                            .map(|i| ((i as f32) * 0.31 + m as f32).sin() * 0.6)
                            .collect();
                        let qm = rtn::quantize(&w, m, k, bits, gs).unwrap();
                        WeightPlan::new(&qm, KernelOpts::tmac()).unwrap()
                    };
                    // 1..=TILE_RUN + 1 tiles on the first thread, fewer on
                    // the last (of 3), the last tile ragged; then the
                    // three-plan group.
                    let mut groups: Vec<Vec<WeightPlan>> = (1..=TILE_RUN + 1)
                        .map(|per| vec![plan_of((per * threads - threads + 1) * TILE_M - 7)])
                        .collect();
                    groups.push([96, 64, 40].map(plan_of).into());
                    for plans in &groups {
                        // Two row counts a case, so that every count meets
                        // every bit width and group size.
                        for n in [ns[case % ns.len()], ns[(case + 3) % ns.len()]] {
                            let group: Vec<&WeightPlan> = plans.iter().collect();
                            let run = |ctx: &ExecCtx| {
                                let mut outs: Vec<Vec<f32>> =
                                    plans.iter().map(|p| vec![0f32; n * p.m]).collect();
                                let mut views: Vec<&mut [f32]> =
                                    outs.iter_mut().map(|o| &mut o[..]).collect();
                                mpgemm_group(&group, &act[..n * k], n, &mut views, ctx).unwrap();
                                outs.iter().map(|o| bits_of(o)).collect::<Vec<_>>()
                            };
                            let ms: Vec<usize> = plans.iter().map(|p| p.m).collect();
                            assert_eq!(
                                run(&zmm),
                                run(&ymm),
                                "threads={threads} W{bits} g{gs} n={n} M={ms:?}"
                            );
                        }
                        case += 1;
                    }
                }
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
    /// first `N_BLOCK` rows (or the only row) leaves `out` untouched.
    #[test]
    fn error_leaves_out_untouched() {
        let (m, k) = (64, 128);
        let n = N_BLOCK + 5;
        for (n, bad_row) in [(n, n - 1), (n, N_BLOCK + 1), (1, 0)] {
            let (qm, mut act) = setup(m, k, n, 2);
            act[bad_row * k + 5] = if n == 1 { f32::INFINITY } else { f32::NAN };
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            assert!(bad_row == 0 || bad_row >= N_BLOCK);
            let ctx = ExecCtx::new(2);
            let mut out = vec![7.5f32; n * m];
            let err = mpgemm(&plan, &act, n, &mut out, &ctx);
            assert!(matches!(err, Err(TmacError::Numeric(_))), "n={n}: {err:?}");
            assert!(
                out.iter().all(|&x| x == 7.5),
                "n={n}: out written before the error"
            );
        }
    }

    #[test]
    fn n_not_multiple_of_block() {
        let (m, k, n) = (32, 64, 3); // n < N_BLOCK
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
    }
}
