//! Figure 10 bench: the cumulative optimization ladder
//! (TM-base → +TQ → +Tiling → +Perm. → +Tuning → T-MAC → TM+FA).

use tmac_bench::{gaussian, quantized, BenchGroup, BENCH_K, BENCH_M};
use tmac_core::{gemm, ExecCtx, KernelOpts, WeightPlan};

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let ctx = ExecCtx::new(threads);
    let act = gaussian(BENCH_K, 11);
    let mut out = vec![0f32; BENCH_M];
    let qm = quantized(BENCH_M, BENCH_K, 4, 13);
    let mut group = BenchGroup::new("fig10_breakdown");
    for (name, opts) in KernelOpts::breakdown_ladder() {
        let plan = WeightPlan::new(&qm, opts).expect("plan");
        group.bench(name, || {
            gemm::mpgemm(&plan, &act, 1, &mut out, &ctx).expect("gemv");
        });
    }
    group.finish();
}
