//! `paper` — regenerates the paper's evaluation on this host, one
//! subcommand per figure or table, and checks the paper's claims.
//!
//! ```text
//! paper <fig6|fig7|fig10|table3|scorecard> [--quick]
//! paper <fig8|table1|table4>
//! paper gate [--bits N]
//! ```
//!
//! Each subcommand prints its table, then its [`Claim`]s as markdown rows.
//! `--quick` runs fewer shapes (and `n` 64 in fig7); every other setting
//! is a constant below.
//!
//! - `gate` scores teacher-forced perplexity and argmax agreement of the
//!   T-MAC backend against the un-quantized reference through
//!   `Model::forward_batch` (the serving code path; the report is
//!   bit-identical at every batch size and thread count), checks the
//!   `quality_*` metrics against `results/quality_thresholds.json`
//!   (compiled in) and exits 1 on a miss. `--bits 1` (default 4) degrades
//!   the weights past the thresholds; CI runs it to prove the gate trips.
//! - `scorecard` runs every subcommand, then the gate at 4 bits, and
//!   writes `results/SCORECARD.md`. It exits 1 only when a row measured
//!   nothing: speed verdicts depend on the host.
//!
//! Kernel and serving speed is measured by `benchmark/`; these rows check
//! the paper's direction on synthetic weights.

use std::fmt;
use std::process::ExitCode;
use tmac_baseline::{sgemm, DequantLinear};
use tmac_core::{gemm, ActTables, ExecCtx, KernelOpts, TmacLinear, WeightPlan};
use tmac_eval::{
    all_threads, full_depth_seconds, make_act, make_weights, ms, time_medians, Flags, Table, SHAPES,
};
use tmac_llm::eval as quality;
use tmac_llm::{
    BackendKind, BatchScratch, Engine, KvCache, KvPrecision, Model, ModelConfig, WeightQuant,
    PREFILL_CHUNK,
};
use tmac_quant::rtn::quantize;
use tmac_serve::Json;
use tmac_simd::{f32ops::nmse, Isa};
use Bound::{Max, Min};

const USAGE: &str = "usage: paper <fig6|fig7|fig10|table3|scorecard> [--quick]\n       \
                     paper <fig8|table1|table4>\n       paper gate [--bits N]";

/// A subcommand besides `gate` and `scorecard`: it prints its table and
/// checks its claims, taking `--quick` if it is one of [`QUICK`].
type Run = fn(bool) -> Vec<Claim>;

/// `scorecard` runs them all, then [`gate`] at [`GATE_BITS`].
const SUBCOMMANDS: [(&str, Run); 7] = [
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig10", fig10),
    ("table1", table1),
    ("table3", table3),
    ("table4", table4),
];

/// The subcommands that take `--quick`.
const QUICK: [&str; 5] = ["fig6", "fig7", "fig10", "table3", "scorecard"];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let run = SUBCOMMANDS.iter().find(|(name, _)| *name == cmd);
    let flags = flags(&cmd);
    if run.is_none() && cmd != "gate" && cmd != "scorecard" {
        flags.exit(&format!("unknown subcommand {cmd:?}"));
    }
    let args = flags.parse_or_exit(argv);
    let quick = args.switch("quick");
    let claims = match run {
        Some((_, run)) => run(quick),
        None if cmd == "gate" => gate(args.num("bits", GATE_BITS)),
        None => return scorecard(quick),
    };
    report(&claims);
    if cmd == "gate" && !claims.iter().all(Claim::met) {
        eprintln!("paper gate: a quality bound was missed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The flags `cmd` takes: `--bits` for `gate`, `--quick` for [`QUICK`].
fn flags(cmd: &str) -> Flags {
    Flags {
        usage: USAGE,
        valued: if cmd == "gate" { "bits" } else { "" },
        switches: if QUICK.contains(&cmd) { "quick" } else { "" },
    }
}

/// Which side of a bound a measurement must fall on (inclusive).
#[derive(Clone, Copy)]
enum Bound {
    Min(f64),
    Max(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Min(b) => write!(f, ">= {b}"),
            Max(b) => write!(f, "<= {b}"),
        }
    }
}

/// A claim of the paper: what it claims and where it is measured here,
/// the paper's value, the metric (a `benchmark/` key where one measures
/// the same quantity, else `paper.<name>`), and the bound this host's
/// value must meet. Each bound is the direction the paper claims, not its
/// ARM magnitudes.
type Row = (&'static str, &'static str, &'static str, Bound);

/// A checked claim: a row of `results/SCORECARD.md`, or one bound of the
/// quality gate.
struct Claim {
    claim: &'static str,
    paper: &'static str,
    metric: String,
    /// This host's value; NaN when nothing was measured.
    measured: f64,
    bound: Bound,
    /// Why a recorded row is missed: its code path was deleted, and
    /// `measured` is the value recorded before the deletion.
    note: Option<&'static str>,
}

impl Claim {
    /// The one verdict: met when `measured` lies on the bound's side. A NaN
    /// measurement or bound fails either comparison, so it is missed.
    fn met(&self) -> bool {
        match self.bound {
            Min(b) => self.measured >= b,
            Max(b) => self.measured <= b,
        }
    }
}

/// The claim's markdown row under [`COLUMNS`].
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.met() { "met" } else { "**missed**" };
        let (claim, paper, metric, bound) = (self.claim, self.paper, &self.metric, self.bound);
        let measured = self.measured;
        let note = self.note.map(|n| format!(" ({n})")).unwrap_or_default();
        write!(
            f,
            "| {claim} | {paper} | {measured:.4} | `{metric}` | {bound} | {verdict}{note} |"
        )
    }
}

const COLUMNS: &str = "| claim | paper | measured | metric | met when | verdict |\n\
                       |---|---|---|---|---|---|";

/// `rows`, each checked against its measured value.
fn checked<const N: usize>(rows: &[Row; N], measured: [f64; N]) -> Vec<Claim> {
    let claim = |(&(claim, paper, metric, bound), measured): (&Row, f64)| Claim {
        claim,
        paper,
        metric: metric.into(),
        measured,
        bound,
        note: None,
    };
    rows.iter().zip(measured).map(claim).collect()
}

/// Prints `claims` as a markdown table.
fn report(claims: &[Claim]) {
    println!("{COLUMNS}");
    claims.iter().for_each(|c| println!("{c}"));
    println!();
}

const FIG6_ITERS: usize = 15;
const FIG6_NOTE: &str = "measured (paper deduces from 2-bit)";
#[rustfmt::skip]
const FIG6_CLAIMS: [Row; 5] = [
    ("Fig 6 mpGEMV vs dequant, W1, 4096², 1 thread", "11.2x (ARM best)", "paper.fig6_w1_vs_dequant_x", Min(1.0)),
    ("Fig 6 mpGEMV vs dequant, W2, 4096², 1 thread", "5.8x (ARM best)", "core.gemv_w2_vs_dequant_x", Min(1.0)),
    ("Fig 6 mpGEMV vs dequant, W3, 4096², 1 thread", "4.7x (ARM best)", "paper.fig6_w3_vs_dequant_x", Min(1.0)),
    ("Fig 6 mpGEMV vs dequant, W4, 4096², 1 thread", "3.1x (ARM best)", "paper.fig6_w4_vs_dequant_x", Min(1.0)),
    ("Fig 6 bit scaling t(W4) ÷ t(W1), 4096², 1 thread", "4 (linear)", "core.bits_scaling_w4_vs_w1_x", Max(4.6)),
];

/// Figure 6's table on `threads` threads: mpGEMV latency, llama.cpp vs
/// T-MAC, bits 1–4. Also returns the (llama.cpp, T-MAC) seconds per bit
/// width at 4096².
fn fig6_table(shapes: &[(usize, usize)], threads: usize) -> (Table, [(f64, f64); 4]) {
    let ctx = ExecCtx::new(threads);
    // A decode batch of two shares one weight pass: the last timed column is
    // T-MAC's cost per activation row at n = 1 and at n = 2.
    let headers = ["shape", "bits", "llama.cpp (ms)", "T-MAC (ms)", "speedup"];
    let tail = ["T-MAC us/row n=1 / n=2", "note"];
    let mut table = Table::new(&[&headers[..], &tail[..]].concat());
    let mut s0 = [(f64::NAN, f64::NAN); 4];
    for &(m, k) in shapes {
        let (w, act, mut out) = (
            make_weights(m, k, 11),
            make_act(2 * k, 11),
            vec![0f32; 2 * m],
        );
        let act1 = &act[..k];
        for bits in 1..=4u8 {
            let qm = quantize(&w, m, k, bits, 32).expect("quantize");
            let tl = TmacLinear::new(&qm, KernelOpts::tmac()).expect("plan");
            let bl = DequantLinear::new(&qm).expect("pack");
            let [t_tmac, t_base, t_two] = time_medians(3, FIG6_ITERS, |side| match side {
                0 => tl.gemv(act1, &mut out[..m], &ctx).expect("T-MAC GEMV"),
                1 => bl.gemv(act1, &mut out[..m], &ctx).expect("dequant GEMV"),
                _ => tl
                    .gemm(&act, 2, &mut out, &ctx)
                    .expect("T-MAC 2-row mpGEMM"),
            });
            if (m, k) == SHAPES[0] {
                s0[bits as usize - 1] = (t_base, t_tmac);
            }
            // llama.cpp has no 1-bit kernel; the paper deduces its 1-bit
            // line from 2-bit, whereas this baseline really measures one.
            let note = if bits == 1 { FIG6_NOTE } else { "" };
            let speedup = format!("{:.2}x", t_base / t_tmac);
            let per_row = format!("{:.0} / {:.0}", t_tmac * 1e6, t_two * 1e6 / 2.0);
            let (shape, bits, note) = (format!("{m}x{k}"), bits.to_string(), note.into());
            table.row(vec![
                shape,
                bits,
                ms(t_base),
                ms(t_tmac),
                speedup,
                per_row,
                note,
            ]);
        }
    }
    (table, s0)
}

/// Figure 6: mpGEMV latency on 1 thread (6a) and on every thread (6b).
fn fig6(quick: bool) -> Vec<Claim> {
    let shapes = if quick { &SHAPES[..2] } else { &SHAPES[..] };
    let (table, s0) = fig6_table(shapes, 1);
    println!("Figure 6 (a: single-thread) mpGEMV latency, 1 thread\n\n{table}");
    let threads = all_threads();
    if threads > 1 {
        let (table, _) = fig6_table(shapes, threads);
        println!("Figure 6 (b: multi-thread) mpGEMV latency, {threads} threads\n\n{table}");
    }
    let speedup = |(base, tmac): (f64, f64)| base / tmac;
    let [w1, w2, w3, w4] = s0.map(speedup);
    checked(&FIG6_CLAIMS, [w1, w2, w3, w4, s0[3].1 / s0[0].1])
}

const FIG7_N: usize = 256;
const FIG7_N_QUICK: usize = 64;
const FIG7_ITERS: usize = 3;
#[rustfmt::skip]
const FIG7_CLAIMS: [Row; 1] = [
    ("Fig 7 mpGEMM vs dequant + SGEMM, W2, 4096²", "up to 4–5.3x", "paper.fig7_w2_vs_blas_x", Min(1.0)),
];

/// Figure 7: mpGEMM on every thread, llama.cpp's dequantize + SGEMM route
/// ("llama.cpp uses BLAS for mpGEMM", §5.2) vs T-MAC's n-blocked LUT GEMM,
/// bits 1–4.
fn fig7(quick: bool) -> Vec<Claim> {
    let (n, shapes) = if quick {
        (FIG7_N_QUICK, &SHAPES[..1])
    } else {
        (FIG7_N, &SHAPES[..])
    };
    let threads = all_threads();
    let ctx = ExecCtx::new(threads);
    // The T-MAC column per activation row: the 16-row ranges of the
    // multi-tile `vpermb` kernel under `Avx512`.
    let mut table = Table::new(&[
        "shape",
        "bits",
        "llama.cpp BLAS (ms)",
        "T-MAC (ms)",
        "T-MAC us/row",
        "speedup",
    ]);
    let mut w2_s0 = f64::NAN;
    for &(m, k) in shapes {
        let (w, act) = (make_weights(m, k, 13), make_act(n * k, 13));
        let mut out = vec![0f32; n * m];
        for bits in 1..=4u8 {
            let qm = quantize(&w, m, k, bits, 32).expect("quantize");
            let tl = TmacLinear::new(&qm, KernelOpts::tmac()).expect("plan");
            let bl = DequantLinear::new(&qm).expect("pack");
            let [t_tmac, t_blas] = time_medians(1, FIG7_ITERS, |side| match side {
                0 => tl.gemm(&act, n, &mut out, &ctx).expect("T-MAC GEMM"),
                _ => sgemm::gemm_blas(&bl, &act, n, &mut out, &ctx).expect("SGEMM"),
            });
            if bits == 2 && (m, k) == SHAPES[0] {
                w2_s0 = t_blas / t_tmac;
            }
            let speedup = format!("{:.2}x", t_blas / t_tmac);
            let (shape, bits) = (format!("{m}x{k}x{n}"), bits.to_string());
            let per_row = format!("{:.0}", t_tmac * 1e6 / n as f64);
            table.row(vec![shape, bits, ms(t_blas), ms(t_tmac), per_row, speedup]);
        }
    }
    println!("Figure 7: mpGEMM (seq len {n}), {threads} threads\n\n{table}");
    checked(&FIG7_CLAIMS, [w2_s0])
}

const FIG8_LAYERS: usize = 2;
/// Timed rounds of Fig 8 and Table 4; each model first prefills
/// `FIG8_TOKENS / 2` positions and then re-runs the step at the next one.
const FIG8_TOKENS: usize = 16;
/// The paper's Fig 8 speedups are single-thread on RBP5; here they run on
/// every thread.
#[rustfmt::skip]
const FIG8_CLAIMS: [Row; 3] = [
    ("Fig 8 decode tok/s vs dequant, M1 Llama-2-7B W4", "2.8x (RBP5)", "paper.fig8_m1_vs_dequant_x", Min(1.0)),
    ("Fig 8 decode tok/s vs dequant, M2 Llama-2-7B W2", "6.7x (RBP5)", "paper.fig8_m2_vs_dequant_x", Min(1.0)),
    ("Fig 8 decode tok/s vs dequant, M3 BitNet-3B", "5.8x (RBP5)", "paper.fig8_m3_vs_dequant_x", Min(1.0)),
];

/// One model's decode step, ready to time: `FIG8_TOKENS / 2` positions
/// are prefilled, and [`DecodeStep::step`] re-runs `Model::forward` at the
/// next position. Every call overwrites the same KV row, so every call
/// does the same work.
struct DecodeStep {
    model: Model,
    cache: KvCache,
    scratch: BatchScratch,
    head_out: Vec<f32>,
}

impl DecodeStep {
    const POS: usize = FIG8_TOKENS / 2;

    fn new(model: Model, ctx: &ExecCtx) -> Self {
        let mut cache = KvCache::new(&model.cfg);
        let mut scratch = BatchScratch::new(&model.cfg, PREFILL_CHUNK);
        let prompt: Vec<u32> = (1..=Self::POS as u32).collect();
        let prefill = model.prefill_chunked(&prompt, 0, 0, &mut cache, &mut scratch, ctx);
        prefill.expect("prefill");
        let head_out = vec![0f32; model.cfg.vocab];
        DecodeStep {
            model,
            cache,
            scratch,
            head_out,
        }
    }

    /// One decode step: every layer, then the head.
    fn step(&mut self, ctx: &ExecCtx) {
        let (cache, scratch) = (&mut self.cache, &mut self.scratch);
        let step = self.model.forward(1, Self::POS, cache, scratch, ctx);
        step.expect("decode step");
    }

    /// The LM head alone, building its own tables as the step does.
    fn head(&mut self, ctx: &ExecCtx) {
        let act = &self.model.embed[..self.model.cfg.dim];
        let head = self
            .model
            .head
            .forward_batch(act, 1, &mut self.head_out, ctx);
        head.expect("head");
    }
}

/// Figure 8: decode tok/s, llama.cpp vs T-MAC, for M1 = Llama-2-7B-4bit,
/// M2 = Llama-2-7B-2bit and M3 = BitNet-3B on every thread. Each model
/// runs with its full per-layer shapes but `FIG8_LAYERS` layers; the two
/// frameworks' steps and heads are timed together ([`time_medians`]) and
/// per-token time extrapolates by layer count ([`full_depth_seconds`],
/// DESIGN.md §8).
fn fig8(_quick: bool) -> Vec<Claim> {
    let threads = all_threads();
    let ctx = ExecCtx::new(threads);
    let (llama, bitnet) = (ModelConfig::llama2_7b(), ModelConfig::bitnet_3b());
    let models = [
        ("M1 Llama-2-7B-4bit", &llama, WeightQuant::Rtn(4)),
        ("M2 Llama-2-7B-2bit", &llama, WeightQuant::Rtn(2)),
        (
            "M3 BitNet-3B (ternary as 2-bit)",
            &bitnet,
            WeightQuant::BitnetTernary,
        ),
    ];
    let headers = [
        "model",
        "framework",
        "step (ms)",
        "head (ms)",
        "tokens/s (extrapolated)",
        "speedup",
    ];
    let mut table = Table::new(&headers);
    let speedups = models.map(|(label, cfg, quant)| {
        let scaled = cfg.scaled(FIG8_LAYERS, 2048, 128);
        let kinds = [BackendKind::Dequant, BackendKind::Tmac(KernelOpts::tmac())];
        let mut sides = kinds.map(|kind| {
            let model = Model::synthetic(&scaled, quant, kind, 21, &ctx).expect("model build");
            DecodeStep::new(model, &ctx)
        });
        // Sides 0 and 1 are the steps, 2 and 3 the heads.
        let [step_d, step_t, head_d, head_t] = time_medians(1, FIG8_TOKENS, |i| match i {
            0 | 1 => sides[i].step(&ctx),
            _ => sides[i - 2].head(&ctx),
        });
        let times = [(step_d, head_d), (step_t, head_t)];
        let rates = times
            .map(|(step, head)| 1.0 / full_depth_seconds(step, head, FIG8_LAYERS, cfg.n_layers));
        for ((kind, (step, head)), rate) in kinds.iter().zip(times).zip(rates) {
            let (rate, speedup) = (format!("{rate:.2}"), format!("{:.2}x", rate / rates[0]));
            let framework = kind.label().into();
            table.row(vec![
                label.into(),
                framework,
                ms(step),
                ms(head),
                rate,
                speedup,
            ]);
        }
        rates[1] / rates[0]
    });
    println!(
        "Figure 8: e2e token generation, {threads} thread(s), {FIG8_LAYERS}-layer scaled\n\
         models extrapolated to full depth\n\n{table}"
    );
    checked(&FIG8_CLAIMS, speedups)
}

const FIG10_BITS: u8 = 4;
const FIG10_ITERS: usize = 10;
#[rustfmt::skip]
const FIG10_CLAIMS: [Row; 4] = [
    ("Fig 10, S0 W4: +TQ ÷ TM-base time", "< 1 (cumulative)", "paper.fig10_tq_vs_base_x", Max(1.0)),
    ("Fig 10, S0 W4: +Perm. ÷ +TQ time", "< 1 (cumulative)", "paper.fig10_perm_vs_tq_x", Max(1.0)),
    ("Fig 10, S0 W4: T-MAC ÷ +Perm. time", "< 1 (cumulative)", "paper.fig10_tmac_vs_perm_x", Max(1.0)),
    ("Fig 10, S0 W4: TM+FA ÷ T-MAC time", "< 1 (cumulative)", "paper.fig10_fa_vs_tmac_x", Max(1.0)),
];
/// The paper's last rung, `TM+FA` (fast 8-bit aggregation), was deleted:
/// its row keeps the S0 ratio `paper fig10` measured at the last revision
/// that had it, on a 2-vCPU Xeon with AVX-512 and a 105 MiB L3.
const FIG10_FA_RECORDED: f64 = 5.0618;
const FIG10_FA_NOTE: &str = "not reproduced on x86; deleted, recorded at 084dc3e, DESIGN.md §9";

/// [`FIG10_CLAIMS`] checked against the measured S0 ratios of the three
/// cumulative steps and the recorded `TM+FA` one.
fn fig10_claims(steps: [f64; 3]) -> Vec<Claim> {
    let [tq, perm, tmac] = steps;
    let mut claims = checked(&FIG10_CLAIMS, [tq, perm, tmac, FIG10_FA_RECORDED]);
    claims[3].note = Some(FIG10_FA_NOTE);
    claims
}

/// Figure 10: the cumulative ladder `TM-base → +TQ → +Perm. → T-MAC` of
/// `KernelOpts::breakdown_ladder` against the llama.cpp line on every
/// thread, and each rung's activation-table bytes. The paper's `+Tiling`
/// and `+Tuning` rungs have no counterpart here (DESIGN.md §3b), and its
/// `TM+FA` rung was deleted (DESIGN.md §9).
fn fig10(quick: bool) -> Vec<Claim> {
    let shapes = if quick { &SHAPES[..2] } else { &SHAPES[..] };
    let threads = all_threads();
    let ctx = ExecCtx::new(threads);
    let ladder = KernelOpts::breakdown_ladder();
    let rungs: Vec<&str> = ladder.iter().map(|(name, _)| *name).collect();
    let mut times = Table::new(&[&["shape", "llama.cpp"], &rungs[..]].concat());
    let mut bytes = Table::new(&[&["shape"], &rungs[..]].concat());
    let mut s0 = [f64::NAN; 4];
    for (si, &(m, k)) in shapes.iter().enumerate() {
        let (w, act, mut out) = (make_weights(m, k, 17), make_act(k, 17), vec![0f32; m]);
        let qm = quantize(&w, m, k, FIG10_BITS, 32).expect("quantize");
        let bl = DequantLinear::new(&qm).expect("pack");
        let plan = |(_, opts): &(_, KernelOpts)| WeightPlan::new(&qm, *opts).expect("plan");
        let plans: Vec<WeightPlan> = ladder.iter().map(plan).collect();
        // Kernel 0 is the llama.cpp line, kernel `r + 1` rung `r`.
        let [t_base, t_rungs @ ..] = time_medians::<5>(3, FIG10_ITERS, |i| match i {
            0 => bl.gemv(&act, &mut out, &ctx).expect("dequant GEMV"),
            r => gemm::mpgemm(&plans[r - 1], &act, 1, &mut out, &ctx).expect("T-MAC GEMV"),
        });
        if si == 0 {
            s0 = t_rungs;
        }
        let shape = format!("S{si} {m}x{k}");
        let (mut t_row, mut b_row) = (vec![shape.clone(), ms(t_base)], vec![shape]);
        t_row.extend(t_rungs.map(ms));
        for (_, opts) in &ladder {
            let tables = ActTables::build(&act, 1, 32, opts).expect("tables");
            b_row.push(tables.table_bytes().to_string());
        }
        times.row(t_row);
        bytes.row(b_row);
    }
    println!(
        "Figure 10: optimization breakdown, {FIG10_BITS}-bit GEMV, {threads} threads (ms)\n\n\
         {times}\nActivation-table bytes per rung\n\n{bytes}"
    );
    fig10_claims([1, 2, 3].map(|r| s0[r] / s0[r - 1]))
}

/// Table 1: the look-up intrinsic per instruction set, and the kernel
/// family this host runs. The paper's fast-aggregation column has no
/// counterpart: its kernels were deleted (DESIGN.md §9). It checks nothing.
fn table1(_quick: bool) -> Vec<Claim> {
    let mut table = Table::new(&["instruction set", "look-up", "lanes"]);
    for isa in [Isa::Neon, Isa::Avx2, Isa::Avx512, Isa::Scalar] {
        let name = isa.name().to_uppercase();
        let lanes = isa.lookups_per_instr().to_string();
        table.row(vec![name, isa.lookup_intrinsic().into(), lanes]);
    }
    let active = Isa::detect();
    println!(
        "Table 1: look-up intrinsics per ISA\n\n{table}\n\
         Kernel family on this host: {} ({} parallel 8-bit lookups per instruction)\n",
        active.name(),
        active.lookups_per_instr()
    );
    Vec::new()
}

#[rustfmt::skip]
const TABLE3_CLAIMS: [Row; 1] = [
    ("Table 3 NMSE, T-MAC ÷ llama.cpp, 4096² W4", "1.006", "paper.table3_tmac_vs_dequant_nmse_x", Max(1.05)),
];

/// Table 3: NMSE of 4-bit mpGEMV outputs against the unquantized
/// `W_fp A_fp` product, for llama.cpp and T-MAC, on the Llama-2-7B GEMV
/// shapes with Gaussian inputs. The paper's `T-MAC (+FA)` column moved to
/// DESIGN.md §9 with its kernel.
fn table3(quick: bool) -> Vec<Claim> {
    let ctx = ExecCtx::new(all_threads());
    let shapes = if quick { &SHAPES[..1] } else { &SHAPES[..3] };
    // The paper's llama.cpp / T-MAC values at the three shapes.
    let paper = [
        "3.33e-3 / 3.35e-3",
        "3.44e-3 / 3.46e-3",
        "4.13e-3 / 4.15e-3",
    ];
    let headers = ["MxKxN", "llama.cpp", "T-MAC", "paper (llama.cpp / T-MAC)"];
    let mut table = Table::new(&headers);
    let mut s0 = f64::NAN;
    for (&(m, k), paper) in shapes.iter().zip(paper) {
        let (w, act, mut out) = (make_weights(m, k, 31), make_act(k, 31), vec![0f32; m]);
        // Unquantized ground truth in f64.
        let dot = |row: &[f32]| -> f64 {
            let products = row.iter().zip(&act).map(|(&w, &a)| w as f64 * a as f64);
            products.sum()
        };
        let reference: Vec<f32> = w.chunks(k).map(|row| dot(row) as f32).collect();
        let qm = quantize(&w, m, k, 4, 32).expect("quantize");
        let dequant = DequantLinear::new(&qm).expect("pack");
        dequant.gemv(&act, &mut out, &ctx).expect("gemv");
        let mut errors = vec![nmse(&out, &reference)];
        let tmac = TmacLinear::new(&qm, KernelOpts::tmac()).expect("plan");
        tmac.gemv(&act, &mut out, &ctx).expect("gemv");
        errors.push(nmse(&out, &reference));
        if (m, k) == SHAPES[0] {
            s0 = errors[1] / errors[0];
        }
        let mut row = vec![format!("{m}x{k}x1")];
        row.extend(errors.iter().map(|e| format!("{e:.2e}")));
        row.push(paper.into());
        table.row(row);
    }
    println!("Table 3: NMSE vs unquantized GEMV (4-bit weights)\n\n{table}");
    checked(&TABLE3_CLAIMS, [s0])
}

/// A mini-Llama for the quality experiments: width, depth, and the number
/// and length of the reference model's teacher sequences.
struct QualitySetup {
    dim: usize,
    layers: usize,
    seqs: usize,
    len: usize,
}

impl QualitySetup {
    /// The model config, the F32 reference model (seed 77) and its greedy
    /// teacher sequences (seed 5), which set the perplexity denominator.
    fn build(&self, ctx: &ExecCtx) -> (ModelConfig, Model, Vec<Vec<u32>>) {
        let (dim, heads) = (self.dim, (self.dim / 64).max(1));
        let cfg = ModelConfig {
            name: format!("mini-llama-{dim}d{}L", self.layers),
            dim,
            n_layers: self.layers,
            n_heads: heads,
            n_kv_heads: heads,
            ffn_dim: dim * 11 / 4 / 32 * 32,
            vocab: 1024,
            seq_max: 128,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        };
        cfg.validate().expect("config");
        let reference = Model::synthetic(&cfg, WeightQuant::Rtn(4), BackendKind::F32, 77, ctx);
        let reference = reference.expect("reference model");
        let mut engine = Engine::new(reference.clone());
        let seqs = quality::teacher_sequences(&mut engine, self.seqs, self.len, 5, ctx);
        (cfg, reference, seqs.expect("sequences"))
    }
}

/// Table 4's mini-Llama, run on 1 thread as in the paper.
const TABLE4: QualitySetup = QualitySetup {
    dim: 512,
    layers: 4,
    seqs: 4,
    len: 24,
};
const TABLE4_TASKS: usize = 40;
#[rustfmt::skip]
const TABLE4_CLAIMS: [Row; 2] = [
    ("Table 4 perplexity, T-MAC ÷ llama.cpp", "1.00", "paper.table4_ppl_tmac_vs_dequant_x", Max(1.01)),
    ("Table 4 tok/s, T-MAC ÷ llama.cpp", "1.30", "paper.table4_tok_s_tmac_vs_dequant_x", Min(1.0)),
];

/// Table 4: decode throughput and quality (teacher-forced perplexity, and
/// two-way choice agreement with the reference) for the un-quantized
/// reference, llama.cpp and T-MAC, 1 thread. The three decode steps are
/// timed together ([`time_medians`], as in Fig 8); perplexity is
/// [`quality::batched_quality`]'s. The synthetic evaluations stand in for
/// WikiText-2 / lambada / WinoGrande. The paper's `T-MAC (+FA)` row moved
/// to DESIGN.md §9 with its kernel.
fn table4(_quick: bool) -> Vec<Claim> {
    let ctx = ExecCtx::new(1);
    let (cfg, reference, seqs) = TABLE4.build(&ctx);
    let mut reference = Engine::new(reference);
    let tmac = BackendKind::Tmac(KernelOpts::tmac());
    let backends = [
        ("Un-quantized", BackendKind::F32, "3.79, 5.80, 71.0"),
        ("llama.cpp", BackendKind::Dequant, "5.65, 5.96, 70.8"),
        ("T-MAC", tmac, "7.34, 5.96, 70.8"),
    ];
    let headers = [
        "framework",
        "tokens/s",
        "PPL (synthetic LM)",
        "choice acc. (%)",
    ];
    let paper = "paper (7B: tok/s, WikiText2 PPL, WinoGrande acc)";
    let mut table = Table::new(&[&headers[..], &[paper]].concat());
    let mut sides = backends.map(|(_, kind, _)| {
        let model = Model::synthetic(&cfg, WeightQuant::Rtn(4), kind, 77, &ctx).expect("model");
        DecodeStep::new(model, &ctx)
    });
    let step_s: [f64; 3] = time_medians(1, FIG8_TOKENS, |i| sides[i].step(&ctx));
    let tasks = quality::choice_tasks(&mut reference, TABLE4_TASKS, 9, &ctx).expect("tasks");
    // (tok/s, perplexity) per backend.
    let measured = [0, 1, 2].map(|i| {
        let (label, _, paper) = backends[i];
        let (model, tok_s) = (&sides[i].model, 1.0 / step_s[i]);
        let report = quality::batched_quality(model, &seqs, 2, TABLE4.seqs, &ctx);
        let ppl = report.expect("perplexity").perplexity;
        let mut candidate = Engine::new(model.clone());
        let acc = quality::choice_agreement(&tasks, &mut candidate, &ctx);
        let (label, acc) = (label.into(), acc.expect("agreement"));
        let cells = [
            format!("{tok_s:.2}"),
            format!("{ppl:.3}"),
            format!("{acc:.1}"),
        ];
        table.row([&[label], &cells[..], &[paper.into()]].concat());
        (tok_s, ppl)
    });
    println!(
        "Table 4: throughput and quality, {} ({}d x {}L, vocab {}), 1 thread\n\n{table}",
        cfg.name, cfg.dim, cfg.n_layers, cfg.vocab
    );
    let [_, (dequant_tok_s, dequant_ppl), (tmac_tok_s, tmac_ppl)] = measured;
    let ratios = [tmac_ppl / dequant_ppl, tmac_tok_s / dequant_tok_s];
    checked(&TABLE4_CLAIMS, ratios)
}

/// The gate's mini-Llama; the thresholds are calibrated to it.
const GATE: QualitySetup = QualitySetup {
    dim: 256,
    layers: 2,
    seqs: 4,
    len: 20,
};
const GATE_BATCH: usize = 4;
const GATE_THREADS: usize = 2;
/// The weight width `gate` checks unless `--bits` says otherwise, and the
/// one `scorecard` checks.
const GATE_BITS: u8 = 4;
const THRESHOLDS: &str = include_str!("../../../../results/quality_thresholds.json");

/// The quality gate: measures the `quality_*` metrics of `bits`-bit T-MAC
/// weights and checks them against `results/quality_thresholds.json`.
fn gate(bits: u8) -> Vec<Claim> {
    let ctx = ExecCtx::new(GATE_THREADS);
    let (cfg, reference, seqs) = GATE.build(&ctx);
    let tmac = BackendKind::Tmac(KernelOpts::tmac());
    let candidate = Model::synthetic(&cfg, WeightQuant::Rtn(bits), tmac, 77, &ctx).expect("model");
    // Prompt length 2 matches `teacher_sequences` (2 random prompt tokens,
    // then greedy continuation): agreement scores only generated positions.
    let eval =
        |model| quality::batched_quality(model, &seqs, 2, GATE_BATCH, &ctx).expect("quality eval");
    let (ref_report, report) = (eval(&reference), eval(&candidate));
    let ppl_ratio = report.perplexity / ref_report.perplexity;
    let (name, seqs, len) = (&cfg.name, GATE.seqs, GATE.len);
    println!(
        "Quality gate: {name} bits={bits} ({seqs} seqs x {len} tokens, batch {GATE_BATCH}, \
         {GATE_THREADS} threads)"
    );
    for (name, r) in [("reference", ref_report), ("T-MAC    ", report)] {
        let (ppl, agreement, positions) = (r.perplexity, r.agreement_pct, r.positions);
        println!("  {name} : ppl {ppl:.4}  agreement {agreement:.1}%  positions {positions}");
    }
    println!("  ppl ratio : {ppl_ratio:.4}\n");
    let measured = [
        ("quality_ppl_ratio", ppl_ratio),
        ("quality_agreement_pct", report.agreement_pct),
        ("quality_positions", report.positions as f64),
    ];
    let thresholds = Json::parse(THRESHOLDS).expect("thresholds JSON");
    gate_claims(&thresholds, &measured)
}

/// One claim per key of the `thresholds` object: `min_<metric>` and
/// `max_<metric>` bound `measured`'s `<metric>`. A metric missing from
/// `measured`, a bound that is not a number, or a key with neither prefix
/// becomes a NaN, so its row is missed.
fn gate_claims(thresholds: &Json, measured: &[(&str, f64)]) -> Vec<Claim> {
    let Json::Obj(bounds) = thresholds else {
        panic!("the thresholds must be a JSON object");
    };
    let claim = |(key, bound): &(String, Json)| {
        let bound = bound.as_f64().unwrap_or(f64::NAN);
        let (metric, bound) = match (key.strip_prefix("min_"), key.strip_prefix("max_")) {
            (Some(metric), _) => (metric, Min(bound)),
            (_, Some(metric)) => (metric, Max(bound)),
            _ => (key.as_str(), Min(f64::NAN)),
        };
        let value = measured.iter().find(|(m, _)| *m == metric);
        let (claim, paper, metric) = ("quality gate", "—", metric.into());
        let measured = value.map_or(f64::NAN, |m| m.1);
        Claim {
            claim,
            paper,
            metric,
            measured,
            bound,
            note: None,
        }
    };
    bounds.iter().map(claim).collect()
}

/// Runs every subcommand, then the gate at [`GATE_BITS`], and writes
/// `results/SCORECARD.md`.
fn scorecard(quick: bool) -> ExitCode {
    let runs = SUBCOMMANDS.iter().map(|(_, run)| run(quick));
    let runs = runs.chain(std::iter::once_with(|| gate(GATE_BITS)));
    let claims: Vec<Claim> = runs.inspect(|c| report(c)).flatten().collect();
    let path = "results/SCORECARD.md";
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(path, scorecard_md(&host_line(), quick, &claims)))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    let met = claims.iter().filter(|c| c.met()).count();
    println!("wrote {path}: {met} of {} rows met", claims.len());
    if claims.iter().any(|c| !c.measured.is_finite()) {
        eprintln!("paper scorecard: a row measured nothing");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// CPU model, logical CPUs, L3 size and the dispatched ISA.
fn host_line() -> String {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo.lines().find_map(|l| l.strip_prefix("model name"));
    let cpu = cpu.map_or("unknown CPU", |v| v.trim_start_matches([' ', '\t', ':']));
    let l3 = read("/sys/devices/system/cpu/cpu0/cache/index3/size");
    let l3 = if l3.trim().is_empty() {
        "unknown"
    } else {
        l3.trim()
    };
    let isa = Isa::detect().name();
    format!("{cpu}, {} logical CPUs, L3 {l3}, ISA {isa}", all_threads())
}

fn scorecard_md(host: &str, quick: bool, claims: &[Claim]) -> String {
    let run = if quick {
        "paper scorecard --quick"
    } else {
        "paper scorecard"
    };
    let rows: String = claims.iter().map(|c| format!("{c}\n")).collect();
    format!(
        "# Paper scorecard\n\n\
         Host: {host}. Written by `{run}`.\n\n\
         Each row checks the direction the paper claims, not its ARM magnitudes,\n\
         so a speed verdict holds for this host only. The bit-scaling row reads\n\
         its weights from L3 on any host whose L3 holds a 4096² plan; the\n\
         DRAM-tier form waits for ROADMAP's DRAM item. The dequant baseline\n\
         (llama.cpp's kernels) is AVX2-only: on an `avx512` host the T-MAC side\n\
         of the Fig 6/7/8 ratios runs `zmm` kernels, so those rows compare\n\
         unequal ISAs. The Fig 10 TM+FA row is recorded, not measured: its\n\
         kernel was deleted after it measured slower than T-MAC (DESIGN.md §9).\n\n\
         {COLUMNS}\n{rows}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failures(thresholds: &str, measured: &[(&str, f64)]) -> usize {
        let claims = gate_claims(&Json::parse(thresholds).unwrap(), measured);
        claims.iter().filter(|c| !c.met()).count()
    }

    #[test]
    fn threshold_check_verdicts() {
        let good = [
            ("quality_ppl_ratio", 1.0),
            ("quality_agreement_pct", 90.0),
            ("quality_positions", 64.0),
        ];
        // The checked-in bounds pass a healthy report.
        assert_eq!(failures(THRESHOLDS, &good), 0);
        let bounds = r#"{"min_a": 1.0, "max_b": 2.0}"#;
        assert_eq!(failures(bounds, &[("a", 1.0), ("b", 2.0)]), 0);
        assert_eq!(failures(bounds, &[("a", 0.5), ("b", 2.0)]), 1, "min_");
        assert_eq!(failures(bounds, &[("a", 1.0), ("b", 2.5)]), 1, "max_");
        assert_eq!(failures(bounds, &[("a", f64::NAN), ("b", 2.0)]), 1, "NaN");
        assert_eq!(failures(bounds, &[("a", 1.0)]), 1, "missing metric");
        let unprefixed = r#"{"min_a": 1.0, "a": 1.0}"#;
        assert_eq!(failures(unprefixed, &[("a", 1.0)]), 1, "no min_/max_");
        assert_eq!(failures(r#"{"min_a": "x"}"#, &[("a", 1.0)]), 1, "bound");
        // A scorecard row that measured nothing is missed.
        let rows = checked(&TABLE4_CLAIMS, [1.0, f64::NAN]);
        assert!(rows[0].met() && !rows[1].met());
    }

    #[test]
    fn gate_passes_4_bit_weights_and_catches_1_bit() {
        assert!(gate(GATE_BITS).iter().all(Claim::met));
        assert!(!gate(1).iter().all(Claim::met));
    }

    #[test]
    fn scorecard_renders_host_and_rows() {
        let rows = checked(&FIG6_CLAIMS, [1.5, 1.0, 0.5, 1.0, 5.0]);
        let md = scorecard_md("cpu", true, &rows);
        assert!(md.contains("Host: cpu. Written by `paper scorecard --quick`."));
        let w1 = "| Fig 6 mpGEMV vs dequant, W1, 4096², 1 thread | 11.2x (ARM best) | 1.5000 \
                  | `paper.fig6_w1_vs_dequant_x` | >= 1 | met |\n";
        assert!(md.contains(w1), "{md}");
        assert!(md.contains("| 5.0000 | `core.bits_scaling_w4_vs_w1_x` | <= 4.6 | **missed** |"));
        // The recorded Fig 10 TM+FA row: missed, with its reason, and a
        // measured value, so `scorecard` does not count it as empty.
        let rows = fig10_claims([0.8, 0.2, 0.15]);
        let md = scorecard_md("cpu", false, &rows);
        let fa = format!(
            "| Fig 10, S0 W4: TM+FA ÷ T-MAC time | < 1 (cumulative) | 5.0618 \
             | `paper.fig10_fa_vs_tmac_x` | <= 1 | **missed** ({FIG10_FA_NOTE}) |\n"
        );
        assert!(md.contains(&fa), "{md}");
        assert!(md.contains("| 0.2000 | `paper.fig10_perm_vs_tq_x` | <= 1 | met |\n"));
        assert!(rows.iter().all(|c| c.measured.is_finite()));
        assert!(!rows[3].met() && rows[..3].iter().all(Claim::met));
    }

    #[test]
    fn only_gate_takes_bits_and_only_the_shape_sweeps_take_quick() {
        let parse = |cmd, argv: &str| flags(cmd).parse(argv.split(' ').map(String::from)).is_ok();
        assert!(parse("gate", "--bits 1") && parse("fig6", "--quick"));
        assert!(parse("scorecard", "--quick") && !parse("scorecard", "--bits 1"));
        assert!(!parse("fig6", "--bits 1") && !parse("gate", "--quick"));
        assert!(!parse("table4", "--quick") && !parse("fig8", "--quick"));
    }
}
