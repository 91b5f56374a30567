//! Figure 10: optimization breakdown — the cumulative ladder
//! `TM-base → +TQ → +Perm. → T-MAC → TM+FA`
//! on the Figure 6 shapes (S0–S5), with the llama.cpp baseline as the
//! reference line. The paper's `+Tiling` and `+Tuning` rungs have no
//! counterpart here (see `KernelOpts`'s module docs).
//!
//! Usage: `fig10_breakdown [--bits 4] [--threads max] [--quick]`

use tmac_baseline::DequantLinear;
use tmac_core::ExecCtx;
use tmac_core::{gemm, KernelOpts, WeightPlan};
use tmac_eval::{make_act, make_weights, ms, quick, time_best, Table, SHAPES};

fn main() {
    let bits: u8 = tmac_eval::arg("bits", "4").parse().expect("--bits");
    let threads_arg = tmac_eval::arg("threads", "max");
    let threads = if threads_arg == "max" {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads_arg.parse().expect("--threads")
    };
    let iters: usize = tmac_eval::arg("iters", "10").parse().expect("--iters");
    let ctx = ExecCtx::new(threads);
    let shapes: &[(usize, usize)] = if quick() { &SHAPES[..2] } else { &SHAPES };

    let ladder = KernelOpts::breakdown_ladder();
    let mut headers: Vec<&str> = vec!["shape", "llama.cpp"];
    for (name, _) in &ladder {
        headers.push(name);
    }
    let mut table = Table::new(&headers);

    for (si, &(m, k)) in shapes.iter().enumerate() {
        let w = make_weights(m, k, 17);
        let act = make_act(k, 17);
        let mut out = vec![0f32; m];
        let qm = tmac_quant::rtn::quantize(&w, m, k, bits, 32).expect("quantize");
        let bl = DequantLinear::new(&qm).expect("pack");
        let t_base = time_best(|| bl.gemv(&act, &mut out, &ctx).expect("gemv"), 3, iters);
        let mut cells = vec![format!("S{si} {m}x{k}"), ms(t_base)];
        for (_, opts) in &ladder {
            let plan = WeightPlan::new(&qm, *opts).expect("plan");
            let t = time_best(
                || gemm::mpgemm(&plan, &act, 1, &mut out, &ctx).expect("gemv"),
                2,
                iters,
            );
            cells.push(ms(t));
        }
        table.row(cells);
    }
    println!("Figure 10: optimization breakdown, {bits}-bit GEMV, {threads} threads (ms)\n");
    table.emit("fig10_breakdown");
    println!(
        "Paper shape check: TM-base lands at or below the llama.cpp line; +TQ\n\
         makes it competitive; permutation and IL each buy more (paper: 1.39x,\n\
         1.42x). FA is a lossy opt-in: it helps on NEON's half-throughput\n\
         int16 pipes and can regress on AVX2."
    );
}
