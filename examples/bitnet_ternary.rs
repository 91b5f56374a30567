//! BitNet b1.58 scenario: ternary weights `{-1, 0, +1}` interpreted as
//! 2-bit codes and decomposed into two one-bit matrices (paper §5.1), the
//! configuration that reaches 11 tokens/s on a Raspberry Pi 5.
//!
//! Run with `cargo run --release --example bitnet_ternary`.

use tmac::core::ExecCtx;
use tmac::core::{KernelOpts, TmacLinear};
use tmac::quant::bitnet;

fn main() {
    let (m, k) = (512usize, 1024usize);
    let weights: Vec<f32> = (0..m * k)
        .map(|i| ((i as f32) * 0.71).sin() * 0.8 + ((i % 3) as f32 - 1.0) * 0.1)
        .collect();

    // BitNet's absmean quantizer: per-group scale = mean |w|, codes in
    // {-1, 0, +1} stored as 2-bit.
    let qm = bitnet::quantize(&weights, m, k, 32).expect("ternary quantize");
    let ternary_counts = qm.codes.iter().fold([0usize; 3], |mut acc, &c| {
        acc[(c - 1) as usize] += 1;
        acc
    });
    println!(
        "ternary distribution: -1: {}  0: {}  +1: {}",
        ternary_counts[0], ternary_counts[1], ternary_counts[2]
    );

    // The same T-MAC pipeline runs unmodified: 2 one-bit planes, LUT GEMV.
    let layer = TmacLinear::new(&qm, KernelOpts::tmac()).expect("plan");
    let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.05).sin()).collect();
    let ctx = ExecCtx::new(2);
    let mut out = vec![0f32; m];
    layer.gemv(&act, &mut out, &ctx).expect("gemv");

    let reference = tmac::core::kernel::scalar::gemv_reference(&qm, &act);
    let nmse = tmac::simd::f32ops::nmse(&out, &reference);
    println!("BitNet GEMV NMSE vs reference: {nmse:.2e}");
    // Table quantization is the only error source; ~1e-2 NMSE is the
    // expected magnitude for i8 tables over ternary weights at group 32.
    assert!(nmse < 1e-2);

    // Cost scales with the 2-bit interpretation: exactly two bit-planes,
    // one lookup per (row, 4-weight group, plane).
    let plan = layer.plan();
    let lookups = plan.m * plan.k / 4 * plan.bits;
    println!(
        "lookups per token for this layer: {} ({} per weight bit-plane)",
        lookups,
        lookups / 2
    );
    println!("ok");
}
