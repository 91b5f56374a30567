//! Cross-crate integration tests: the T-MAC kernels, the dequantization
//! baseline and the f32 reference must agree on the *same* quantized
//! weights, across bit-widths, option sets, shapes and thread counts.

mod common;

use common::family_ctxs;
use tmac::baseline::DequantLinear;
use tmac::core::kernel::scalar::gemv_reference;
use tmac::core::{ExecCtx, KernelOpts, TmacLinear};
use tmac::quant::{bitnet, rtn};
use tmac::simd::f32ops::nmse;

fn weights(m: usize, k: usize, seed: u64) -> Vec<f32> {
    (0..m * k)
        .map(|i| {
            (((i as u64).wrapping_mul(seed * 2 + 1) % 97) as f32 / 48.5 - 1.0) * 0.4
                + ((i as f32) * 0.013).sin() * 0.3
        })
        .collect()
}

fn act(k: usize, seed: u64) -> Vec<f32> {
    (0..k)
        .map(|i| ((i as f32) * 0.029 + seed as f32).cos() * 0.8)
        .collect()
}

#[test]
fn tmac_tracks_reference_across_bits_and_shapes() {
    let ctx = ExecCtx::new(2);
    for &(m, k) in &[(64usize, 128usize), (96, 256), (33, 160)] {
        let w = weights(m, k, 3);
        let a = act(k, 3);
        for bits in 1..=4u8 {
            let qm = rtn::quantize(&w, m, k, bits, 32).unwrap();
            let reference = gemv_reference(&qm, &a);
            let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
            let mut out = vec![0f32; m];
            tl.gemv(&a, &mut out, &ctx).unwrap();
            let e = nmse(&out, &reference);
            assert!(e < 5e-3, "m={m} k={k} bits={bits} nmse={e}");
        }
    }
}

#[test]
fn tmac_and_baseline_agree_on_identical_weights() {
    // Both consume the same QuantizedMatrix; their only divergence is
    // activation quantization (baseline) vs table quantization (T-MAC).
    let ctx = ExecCtx::new(2);
    let (m, k) = (128, 256);
    let w = weights(m, k, 7);
    let a = act(k, 7);
    for bits in 1..=4u8 {
        let qm = rtn::quantize(&w, m, k, bits, 32).unwrap();
        let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
        let bl = DequantLinear::new(&qm).unwrap();
        let mut t_out = vec![0f32; m];
        let mut b_out = vec![0f32; m];
        tl.gemv(&a, &mut t_out, &ctx).unwrap();
        bl.gemv(&a, &mut b_out, &ctx).unwrap();
        let e = nmse(&t_out, &b_out);
        assert!(e < 2e-3, "bits={bits} cross-backend nmse={e}");
    }
}

/// Every Figure 10 rung tracks the reference on every kernel family the
/// host executes.
#[test]
fn every_opt_combination_matches_the_reference() {
    let (m, k) = (64, 128);
    let w = weights(m, k, 11);
    let a = act(k, 11);
    let qm = rtn::quantize(&w, m, k, 3, 32).unwrap();
    let reference = gemv_reference(&qm, &a);
    let rungs: Vec<_> = KernelOpts::breakdown_ladder()
        .into_iter()
        .map(|(name, opts)| (name, TmacLinear::new(&qm, opts).unwrap()))
        .collect();
    for ctx in family_ctxs() {
        for (name, tl) in &rungs {
            let mut out = vec![0f32; m];
            tl.gemv(&a, &mut out, &ctx).unwrap();
            let e = nmse(&out, &reference);
            assert!(e < 5e-3, "{name} isa={}: nmse={e}", ctx.isa());
        }
    }
}

#[test]
fn thread_counts_do_not_change_results() {
    let (m, k) = (160, 192);
    let w = weights(m, k, 13);
    let a = act(k, 13);
    let qm = rtn::quantize(&w, m, k, 2, 32).unwrap();
    let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
    let mut outs = Vec::new();
    for threads in [1usize, 2, 3, 5] {
        let ctx = ExecCtx::new(threads);
        let mut out = vec![0f32; m];
        tl.gemv(&a, &mut out, &ctx).unwrap();
        outs.push(out);
    }
    for o in &outs[1..] {
        assert_eq!(&outs[0], o, "thread count changed results");
    }
}

#[test]
fn gemm_equals_row_by_row_gemv() {
    let ctx = ExecCtx::new(2);
    let (m, k, n) = (96, 128, 11);
    let w = weights(m, k, 17);
    let acts: Vec<f32> = (0..n).flat_map(|s| act(k, s as u64 + 20)).collect();
    let qm = rtn::quantize(&w, m, k, 4, 32).unwrap();
    let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
    let mut gemm_out = vec![0f32; n * m];
    tl.gemm(&acts, n, &mut gemm_out, &ctx).unwrap();
    for ni in 0..n {
        let mut row = vec![0f32; m];
        tl.gemv(&acts[ni * k..(ni + 1) * k], &mut row, &ctx)
            .unwrap();
        assert_eq!(&gemm_out[ni * m..(ni + 1) * m], &row[..], "row {ni}");
    }
}

#[test]
fn bitnet_ternary_runs_as_two_bit() {
    let ctx = ExecCtx::new(2);
    let (m, k) = (96, 160);
    let w = weights(m, k, 29);
    let a = act(k, 29);
    let qm = bitnet::quantize(&w, m, k, 32).unwrap();
    assert_eq!(qm.bits, 2);
    let reference = gemv_reference(&qm, &a);
    let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
    let mut out = vec![0f32; m];
    tl.gemv(&a, &mut out, &ctx).unwrap();
    assert!(nmse(&out, &reference) < 5e-3);
}

#[test]
fn shape_errors_are_reported_not_panicked() {
    let ctx = ExecCtx::new(1);
    let (m, k) = (32, 64);
    let qm = rtn::quantize(&weights(m, k, 31), m, k, 2, 32).unwrap();
    let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
    let a = act(k, 31);
    // Wrong activation length.
    let mut out = vec![0f32; m];
    assert!(tl.gemv(&a[..32], &mut out, &ctx).is_err());
    // Wrong output length.
    let mut short = vec![0f32; m - 1];
    assert!(tl.gemv(&a, &mut short, &ctx).is_err());
    // Non-finite activations.
    let mut bad = a.clone();
    bad[0] = f32::NAN;
    assert!(tl.gemv(&bad, &mut out, &ctx).is_err());
    // K not a multiple of the quant group.
    assert!(rtn::quantize(&weights(4, 33, 1), 4, 33, 2, 32).is_err());
}

#[test]
fn non_divisible_m_is_padded_correctly() {
    // M = 50 pads to 64 internally; outputs beyond M must not be touched.
    let ctx = ExecCtx::new(2);
    let (m, k) = (50, 96);
    let w = weights(m, k, 41);
    let a = act(k, 41);
    let qm = rtn::quantize(&w, m, k, 4, 32).unwrap();
    let reference = gemv_reference(&qm, &a);
    let tl = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
    let mut out = vec![0f32; m];
    tl.gemv(&a, &mut out, &ctx).unwrap();
    assert!(nmse(&out, &reference) < 5e-3);
}
