//! Property-based tests for the core invariants. `proptest` is unavailable
//! offline, so cases are generated with the workspace's deterministic PRNG
//! (`tmac-rng`) — every invariant is checked across a seeded sweep of random
//! inputs rather than a single example:
//!
//! * Eq. 1 — bit-serial reconstruction is exact for arbitrary codes;
//! * the offline layouts (flat / permuted / interleaved) are bijective
//!   re-arrangements of the same indices;
//! * the raw table's sign identity `t[15 - i] = -t[i]`;
//! * table quantization error is bounded by half a step;
//! * the whole GEMV is linear in the activations;
//! * `gemv` == one table build swept twice **bit-exactly**, for all
//!   bit-widths and odd shapes (the table-reuse contract);
//! * the paired (`interleave`) stream is a faithful re-ordering: over
//!   generated `(bits, group_size, M, n, options)` its `mpgemm` rows (alone
//!   and grouped with the sequential plan), its one-row `mpgemm` and the
//!   sequential stream's agree
//!   **bit-exactly**, including
//!   worst-case saturated tables, on every kernel family the host executes
//!   (and the `Avx512` family's rows equal the `Avx2` family's);
//! * thread-pool chunking partitions exactly.

mod common;

use common::family_ctxs;
use tmac::core::kernel::scalar::gemv_reference;
use tmac::core::plan::index_from_codes;
use tmac::core::table::{raw_table, ActTables, TABLE_LEN};
use tmac::core::{gemm, ExecCtx, KernelOpts, TmacLinear, WeightPlan};
use tmac::quant::QuantizedMatrix;
use tmac::simd::scalar::round_to_f16;
use tmac::simd::Isa;
use tmac::threadpool::chunk_range;
use tmac_rng::Rng;

/// Cases per property (as the old `ProptestConfig::with_cases(24)`).
const CASES: u64 = 24;

fn arb_codes(rng: &mut Rng, m: usize, k: usize, bits: u8) -> Vec<u8> {
    (0..m * k).map(|_| rng.u32_below(1 << bits) as u8).collect()
}

/// Random scales, rounded to half values as the quantizers round them (a
/// plan refuses any other scale).
fn arb_scales(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| round_to_f16(rng.f32_range(0.01, 2.0)))
        .collect()
}

fn arb_acts(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.f32_range(lo, hi)).collect()
}

fn matrix(codes: Vec<u8>, scales: Vec<f32>, m: usize, k: usize, bits: u8) -> QuantizedMatrix {
    QuantizedMatrix {
        rows: m,
        cols: k,
        bits,
        group_size: 32,
        codes,
        scales,
        zero: QuantizedMatrix::default_zero(bits),
    }
}

/// Eq. 1: Σ_i 2^i · b_i reconstructs every code, bit-exactly, through the
/// plan's per-bit indices.
#[test]
fn bit_serial_reconstruction_exact() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x100 + case);
        let codes = arb_codes(&mut rng, 8, 64, 3);
        let scales = arb_scales(&mut rng, 8 * 2);
        let qm = matrix(codes, scales, 8, 64, 3);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        for row in 0..8 {
            for kg in 0..16 {
                for j in 0..4 {
                    let code = qm.codes[row * 64 + kg * 4 + j];
                    let mut rebuilt = 0u8;
                    for bit in 0..3 {
                        let idx = plan.index(bit, row, kg);
                        rebuilt |= ((idx >> j) & 1) << bit;
                    }
                    assert_eq!(rebuilt, code, "case {case} row {row} kg {kg} j {j}");
                }
            }
        }
    }
}

/// Every layout stores the same logical indices (bijective permutation).
#[test]
fn layouts_are_permutations() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x200 + case);
        let codes = arb_codes(&mut rng, 40, 64, 2);
        let scales = arb_scales(&mut rng, 40 * 2);
        let interleave = rng.u32_below(2) == 1;
        let qm = matrix(codes, scales, 40, 64, 2);
        let opts = if interleave {
            KernelOpts::tmac()
        } else {
            KernelOpts::plus_permute()
        };
        let perm = WeightPlan::new(&qm, opts).unwrap();
        let flat = WeightPlan::new(&qm, KernelOpts::plus_table_quant()).unwrap();
        for bit in 0..2 {
            for row in 0..40 {
                for kg in 0..16 {
                    assert_eq!(
                        perm.index(bit, row, kg),
                        flat.index(bit, row, kg),
                        "case {case} interleave {interleave}"
                    );
                    assert_eq!(
                        flat.index(bit, row, kg),
                        index_from_codes(&qm, bit, row, kg),
                        "case {case}"
                    );
                }
            }
        }
    }
}

/// `t[15 - i] == -t[i]` for the raw table, to rounding: the two entries
/// flip every activation's sign.
#[test]
fn raw_table_sign_identity() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x300 + case);
        let mut a = [0f32; 4];
        for x in &mut a {
            *x = rng.f32_range(-3.0, 3.0);
        }
        let t = raw_table(&a);
        for i in 0..TABLE_LEN / 2 {
            assert!(
                (t[i] + t[TABLE_LEN - 1 - i]).abs() < 1e-5,
                "case {case} i {i}"
            );
        }
    }
}

/// Quantized tables deviate from raw tables by at most half a step.
#[test]
fn table_quantization_bounded() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x400 + case);
        let acts = arb_acts(&mut rng, 64, -2.0, 2.0);
        let full = ActTables::build(&acts, 1, 32, &KernelOpts::plus_table_quant()).unwrap();
        for kg in 0..16 {
            let mut a = [0f32; 4];
            a.copy_from_slice(&acts[kg * 4..kg * 4 + 4]);
            let raw = raw_table(&a);
            let sb = kg / 8;
            for (i, &r) in raw.iter().enumerate() {
                let q = full.lookup_f32(0, kg, i as u8);
                assert!(
                    (q - r).abs() <= full.block_scales(sb, 0..1).0[0] * 0.5 + 1e-6,
                    "case {case} kg={kg} i={i} raw={r} quant={q}"
                );
            }
        }
    }
}

/// GEMV is linear in activations: f(αx) == α·f(x) for the *unquantized-
/// table* path (table quantization breaks exact homogeneity).
#[test]
fn gemv_linear_in_activations() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x500 + case);
        let codes = arb_codes(&mut rng, 32, 32, 2);
        let scales = arb_scales(&mut rng, 32);
        let alpha = rng.f32_range(0.25, 4.0);
        let qm = matrix(codes, scales, 32, 32, 2);
        let a: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.3).sin()).collect();
        let scaled: Vec<f32> = a.iter().map(|x| x * alpha).collect();
        let r1 = gemv_reference(&qm, &a);
        let r2 = gemv_reference(&qm, &scaled);
        for (x, y) in r1.iter().zip(&r2) {
            assert!(
                (x * alpha - y).abs() < 1e-2 * (1.0 + y.abs()),
                "case {case} alpha {alpha}"
            );
        }
    }
}

/// The kernel agrees with the dequantized reference for random codes (not
/// just RTN-produced ones).
#[test]
fn kernel_correct_on_arbitrary_codes() {
    let ctx = ExecCtx::new(1);
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x600 + case);
        let codes = arb_codes(&mut rng, 32, 64, 4);
        let scales = arb_scales(&mut rng, 32 * 2);
        let qm = matrix(codes, scales, 32, 64, 4);
        let a: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.21).cos()).collect();
        let reference = gemv_reference(&qm, &a);
        let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
        let mut out = vec![0f32; 32];
        tl.gemv(&a, &mut out, &ctx).unwrap();
        let e = tmac::simd::f32ops::nmse(&out, &reference);
        assert!(e < 5e-3, "case {case} nmse {e}");
    }
}

/// The table-reuse contract: `gemv` (fresh tables per call) and a group of
/// the same plan twice (one build, swept twice) are **bit-exact** equal —
/// for every bit-width and for odd, non-tile-aligned shapes.
#[test]
fn gemv_paths_bit_exact_across_bits_and_odd_shapes() {
    for &(m, k) in &[(33usize, 96usize), (50, 160), (97, 224), (64, 128)] {
        for bits in 1..=4u8 {
            let mut rng = Rng::seed_from_u64((m * k) as u64 ^ (bits as u64) << 48);
            let w: Vec<f32> = (0..m * k).map(|_| rng.f32_range(-0.8, 0.8)).collect();
            let qm = tmac::quant::rtn::quantize(&w, m, k, bits, 32).unwrap();
            let a = arb_acts(&mut rng, k, -1.0, 1.0);
            let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
            let ctx = ExecCtx::new(2);

            let mut fresh = vec![0f32; m];
            tl.gemv(&a, &mut fresh, &ctx).unwrap();

            let (mut first, mut second) = (vec![0f32; m], vec![0f32; m]);
            let outs: &mut [&mut [f32]] = &mut [&mut first, &mut second];
            gemm::mpgemm_group(&[tl.plan(), tl.plan()], &a, 1, outs, &ctx).unwrap();
            for (pass, held) in [first, second].iter().enumerate() {
                assert_eq!(
                    &fresh, held,
                    "m={m} k={k} bits={bits}: shared build #{pass}"
                );
            }
        }
    }
}

/// Group sizes the paired stream must cover: one and three k-group quads
/// (16, 48), the common shapes, and blocks long enough to need the
/// mid-block `i32` flush.
const GROUP_SIZES: [usize; 6] = [16, 48, 32, 64, 128, 256];

/// `mpgemm` row `i` (`gemm` ≡ the group of the paired and the sequential
/// plan), the GEMV of row `i`, and the GEMV through the same
/// matrix planned on the `+Perm.` rung (the sequential stream and its
/// untouched kernel), all bit-for-bit equal. Returns the `gemm` rows.
fn assert_paired_equals_sequential(
    qm: &QuantizedMatrix,
    acts: &[f32],
    n: usize,
    ctx: &ExecCtx,
    what: &str,
) -> Vec<f32> {
    let what = &format!("{what} isa={}", ctx.isa());
    let (m, k) = (qm.rows, qm.cols);
    let paired = TmacLinear::new(qm, KernelOpts::tmac()).unwrap();
    let sequential = TmacLinear::new(qm, KernelOpts::plus_permute()).unwrap();
    let mut gemm = vec![0f32; n * m];
    paired.gemm(acts, n, &mut gemm, ctx).unwrap();
    // Fresh tables and one build shared by both streams: one driver, the
    // same bits.
    let (mut grouped, mut grouped_seq) = (vec![0f32; n * m], vec![0f32; n * m]);
    let plans = [paired.plan(), sequential.plan()];
    let outs: &mut [&mut [f32]] = &mut [&mut grouped, &mut grouped_seq];
    gemm::mpgemm_group(&plans, acts, n, outs, ctx).unwrap();
    assert_eq!(gemm, grouped, "{what}: group");
    assert_eq!(gemm, grouped_seq, "{what}: group, sequential stream");
    for i in 0..n {
        let act = &acts[i * k..(i + 1) * k];
        let mut gemv = vec![0f32; m];
        paired.gemv(act, &mut gemv, ctx).unwrap();
        let mut seq = vec![0f32; m];
        sequential.gemv(act, &mut seq, ctx).unwrap();
        assert_eq!(&gemm[i * m..(i + 1) * m], &gemv[..], "{what}: gemm row {i}");
        assert_eq!(gemv, seq, "{what}: row {i} vs the sequential stream");
        assert!(gemv.iter().all(|x| x.is_finite()), "{what}: row {i}");
    }
    gemm
}

/// [`assert_paired_equals_sequential`] under every kernel family of
/// `ctxs`, and the `Avx512` family's rows bit-for-bit the `Avx2` family's.
fn assert_paired_on_every_family(
    qm: &QuantizedMatrix,
    acts: &[f32],
    n: usize,
    ctxs: &[ExecCtx],
    what: &str,
) {
    let mut avx = Vec::new();
    for ctx in ctxs {
        let rows = assert_paired_equals_sequential(qm, acts, n, ctx, what);
        if matches!(ctx.isa(), Isa::Avx2 | Isa::Avx512) {
            avx.push(rows.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }
    if let [ymm, zmm] = &avx[..] {
        assert_eq!(ymm, zmm, "{what}: Avx512 vs Avx2");
    }
}

/// The paired stream over generated shapes: bits 1–4 × every group size ×
/// ragged `M` × `n` in 1..=19.
#[test]
fn paired_stream_bit_exact_on_generated_shapes() {
    let ctxs = family_ctxs();
    for seed in 0..216u64 {
        let mut rng = Rng::seed_from_u64(0x900 + seed);
        // The first 24 seeds walk the (bits, group size) grid; the rest draw.
        let (bits, gs) = if seed < 24 {
            (1 + (seed % 4) as u8, GROUP_SIZES[seed as usize / 4])
        } else {
            (1 + rng.u32_below(4) as u8, GROUP_SIZES[rng.usize_below(6)])
        };
        let m = loop {
            let m = 1 + rng.usize_below(80);
            if !m.is_multiple_of(32) {
                break m;
            }
        };
        let k = gs * (1 + rng.usize_below(if gs >= 128 { 2 } else { 5 }));
        let n = 1 + rng.usize_below(19);
        let qm = QuantizedMatrix {
            group_size: gs,
            ..matrix(
                arb_codes(&mut rng, m, k, bits),
                arb_scales(&mut rng, m * k / gs),
                m,
                k,
                bits,
            )
        };

        // Layout: the paired decoder is the codes' index, and exactly so.
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        for bit in 0..bits as usize {
            for row in 0..plan.m_padded {
                for kg in 0..k / 4 {
                    let want = if row < m {
                        index_from_codes(&qm, bit, row, kg)
                    } else {
                        0
                    };
                    assert_eq!(
                        plan.index(bit, row, kg),
                        want,
                        "seed {seed} ({bit},{row},{kg})"
                    );
                }
            }
        }
        assert_eq!(plan.to_quantized(), qm, "seed {seed}");
        assert_eq!(
            plan.index_bytes(),
            plan.m_padded * k / 4 * bits as usize / 2
        );

        let acts = arb_acts(&mut rng, n * k, -2.0, 2.0);
        let what = format!("seed {seed} bits={bits} gs={gs} m={m} k={k} n={n}");
        assert_paired_on_every_family(&qm, &acts, n, &ctxs, &what);
    }
}

/// Worst case for the `i16` accumulators: every plane all ones (index 15
/// everywhere) against tables whose entry 15 quantizes to ±127, for every
/// `(bits, group_size)` — no lane may wrap.
#[test]
fn paired_stream_survives_saturated_tables() {
    let ctxs = family_ctxs();
    for bits in 1..=4u8 {
        for gs in GROUP_SIZES {
            let (m, k, n) = (33, 2 * gs, 3);
            let qm = QuantizedMatrix {
                group_size: gs,
                ..matrix(vec![(1 << bits) - 1; m * k], vec![0.5; m * 2], m, k, bits)
            };
            let lin = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
            for sign in [1.0f32, -1.0] {
                // Equal activations: entry 15 = 4a is the block's maximum,
                // so it quantizes to sign · 127 in every group.
                let acts = vec![sign * 0.75; n * k];
                let tables = lin.tables(&acts[..k]).unwrap();
                assert_eq!(tables.lookup_q(0, 0, 15), (sign * 127.0) as i8);
                let what = format!("bits={bits} gs={gs} sign={sign}");
                assert_paired_on_every_family(&qm, &acts, n, &ctxs, &what);
                // And the value itself: each row is Σ_blocks s · (0.5 ·
                // q_scale · 127 · kgb · (2^bits − 1) + cz · asum), a wrap
                // would be off by thousands.
                let want = gemv_reference(&qm, &acts[..k]);
                for ctx in &ctxs {
                    let mut out = vec![0f32; m];
                    lin.gemv(&acts[..k], &mut out, ctx).unwrap();
                    for (o, w) in out.iter().zip(&want) {
                        let isa = ctx.isa();
                        assert!((o - w).abs() <= 2e-3 * w.abs(), "{what} {isa}: {o} vs {w}");
                    }
                }
            }
        }
    }
}

/// chunk_range partitions [0, total) exactly, for any parameters.
#[test]
fn chunks_partition_exactly() {
    for case in 0..CASES * 4 {
        let mut rng = Rng::seed_from_u64(0x700 + case);
        let total = rng.usize_below(5000);
        let granule = 1 + rng.usize_below(63);
        let n = 1 + rng.usize_below(8);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for tid in 0..n {
            let r = chunk_range(total, granule, tid, n);
            assert!(r.start <= r.end);
            if !r.is_empty() {
                assert_eq!(r.start, prev_end, "case {case}");
                assert_eq!(r.start % granule, 0, "case {case}");
                prev_end = r.end;
                covered += r.len();
            }
        }
        assert_eq!(
            covered, total,
            "case {case} total={total} granule={granule} n={n}"
        );
    }
}

/// Nibble pack/unpack round-trips (the Figure 4 interleave primitive).
#[test]
fn nibble_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x800 + case);
        let lo: Vec<u8> = (0..16).map(|_| rng.u32_below(16) as u8).collect();
        let hi: Vec<u8> = (0..16).map(|_| rng.u32_below(16) as u8).collect();
        let mut packed = vec![0u8; 16];
        tmac::simd::scalar::pack_nibbles(&lo, &hi, &mut packed);
        let (mut l2, mut h2) = (vec![0u8; 16], vec![0u8; 16]);
        tmac::simd::scalar::unpack_nibbles(&packed, &mut l2, &mut h2);
        assert_eq!(lo, l2, "case {case}");
        assert_eq!(hi, h2, "case {case}");
    }
}
