//! Kernel explorer: walks the paper's Figure 10 optimization ladder on a
//! user-chosen shape, printing latency and table-storage footprint per
//! stage.
//!
//! Run with `cargo run --release --example kernel_explorer -- [M] [K] [bits]`.

use std::time::Instant;
use tmac::core::ExecCtx;
use tmac::core::{gemm, ActTables, KernelOpts, WeightPlan};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let m: usize = args.get(1).map(|s| s.parse().expect("M")).unwrap_or(2048);
    let k: usize = args.get(2).map(|s| s.parse().expect("K")).unwrap_or(2048);
    let bits: u8 = args.get(3).map(|s| s.parse().expect("bits")).unwrap_or(2);
    let ctx = ExecCtx::new(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    let weights: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.23).sin()).collect();
    let qm = tmac::quant::rtn::quantize(&weights, m, k, bits, 32).expect("quantize");
    let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.17).cos()).collect();
    let mut out = vec![0f32; m];

    println!("shape {m}x{k}, {bits}-bit, {} threads\n", ctx.threads());
    println!(
        "{:<10} {:>12} {:>16}",
        "stage", "latency (ms)", "table bytes"
    );
    for (name, opts) in KernelOpts::breakdown_ladder() {
        let plan = WeightPlan::new(&qm, opts).expect("plan");
        let tables = ActTables::build(&act, 1, 32, &opts).expect("tables");
        // Warm-up + best-of-5.
        gemm::mpgemm_with_tables(&plan, &tables, &mut out, &ctx).expect("gemv");
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            gemm::mpgemm_with_tables(&plan, &tables, &mut out, &ctx).expect("gemv");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!(
            "{name:<10} {:>12.3} {:>16}",
            best * 1e3,
            tables.table_bytes()
        );
    }
}
