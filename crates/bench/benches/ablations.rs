//! Ablation benches for the design choices DESIGN.md calls out:
//! mirror consolidation, interleaving, fast aggregation, and `tile_k`.

use tmac_bench::{gaussian, quantized, BenchGroup, BENCH_K, BENCH_M};
use tmac_core::{gemm, ExecCtx, KernelOpts, WeightPlan};

fn main() {
    let ctx = ExecCtx::new(1);
    let act = gaussian(BENCH_K, 19);
    let mut out = vec![0f32; BENCH_M];
    let qm = quantized(BENCH_M, BENCH_K, 2, 21);
    let mut group = BenchGroup::new("ablations");

    let mut no_il = KernelOpts::tmac();
    no_il.interleave = false;
    let mut tk128 = KernelOpts::tmac();
    tk128.tile_k = 128;
    let mut tk1024 = KernelOpts::tmac();
    tk1024.tile_k = 1024;
    let cases: [(&str, KernelOpts); 6] = [
        ("tmac_default", KernelOpts::tmac()),
        ("mirror_on", KernelOpts::tmac_mirror()),
        ("interleave_off", no_il),
        ("fast_aggregation", KernelOpts::tmac_fast_aggregation()),
        ("tile_k_128", tk128),
        ("tile_k_1024", tk1024),
    ];
    for (name, opts) in cases {
        let plan = WeightPlan::new(&qm, opts).expect("plan");
        group.bench(name, || {
            gemm::mpgemm(&plan, &act, 1, &mut out, &ctx).expect("gemv");
        });
    }
    group.finish();
}
