//! One benchmark run: set-up, timed window(s), output check, report.

use crate::daemon::{self, Bins, Daemon};
use crate::direct::{self, Offline};
use crate::measure::{Metric, Rec, Run, Window};
use crate::stats::{median, percentile_of};
use crate::workload::{Request, Workload, WARMUP_BASE, WORKLOADS};
use crate::{probes, served, Args};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tmac_llm::{LoadMode, Model};

/// Times the model is converted and the server booted per run; `setup_s`
/// uses the median. Two, not more: a repetition costs 2.5–4.5 s and the
/// driver's 92 runs share 57 minutes.
const SETUP_REPS: usize = 2;
/// Timed requests whose tokens are compared with the reference (plus
/// every set-up request).
const CHECKED_TIMED: usize = 4;
/// `--seconds` when not given: BENCHMARK.json's `run_seconds`, or one
/// second for `--smoke`.
pub fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        1.0
    } else {
        8.0
    }
}

/// Longest direct replay in a traced run, seconds.
const REPLAY_SECONDS: f64 = 4.0;

/// Every per-layer metric, in reporting order. BENCHMARK.json lists the
/// same names (a unit test compares them); a traced run prints them all,
/// with 0 where a layer is not on the workload's path.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.stream_gbs_t1", "GB/s"),
    ("host.stream_gbs_tN", "GB/s"),
    ("core.gemv_w2_4096_us", "us"),
    ("core.gemv_w2_ffn_us", "us"),
    ("core.gemv_w2_gbs", "GB/s"),
    ("core.gemv_w2_roofline_share", "ratio"),
    ("core.gemm16_w2_ffn_us", "us"),
    ("core.gemm16_w2_gbs", "GB/s"),
    ("core.gemm16_vs_gemv16_x", "x"),
    ("core.table_build_4096_us", "us"),
    ("core.table_hit_share", "ratio"),
    ("core.gemv_w1_4096_us", "us"),
    ("core.gemv_w4_4096_us", "us"),
    ("core.bits_scaling_w4_vs_w1_x", "x"),
    ("core.gemv_w2_vs_dequant_x", "x"),
    ("threadpool.dispatch_us", "us"),
    ("threadpool.gemv_scaling_x", "x"),
    ("llm.step_b1_ms", "ms"),
    ("llm.step_b16_ms", "ms"),
    ("llm.step_prefill16_ms", "ms"),
    ("llm.step_closure_b1_share", "ratio"),
    ("llm.step_closure_b16_share", "ratio"),
    ("llm.sched_self_share", "ratio"),
    ("llm.attn_ctx64_us", "us"),
    ("llm.attn_ctx1536_us", "us"),
    ("llm.attn_ctx1536_gbs", "GB/s"),
    ("llm.attn_i8_ctx1536_us", "us"),
    ("llm.kv_prefix_match_us", "us"),
    ("llm.kv_prefix_insert_64_us", "us"),
    ("llm.kv_store_us", "us"),
    ("llm.prefix_hit_share", "ratio"),
    ("llm.kv_cow_forks", "count"),
    ("llm.kv_evictions", "count"),
    ("llm.kv_resident_mb", "MiB"),
    ("llm.kv_pages_used_share", "ratio"),
    ("llm.batch_occupancy_mean", "count"),
    ("llm.step_ms_mean", "ms"),
    ("llm.queue_ms_p50", "ms"),
    ("llm.prefill_ms_p50", "ms"),
    ("llm.decode_ms_p50", "ms"),
    ("llm.prefill_share_of_e2e", "ratio"),
    ("llm.decode_share_of_e2e", "ratio"),
    ("llm.sample_greedy_us", "us"),
    ("llm.sample_t1_us", "us"),
    ("llm.sample_t1_32k_us", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p90", "ms"),
    ("serve.first_byte_gap_ms_p50", "ms"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.send_ms_p50", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.sse_event_us", "us"),
    ("serve.served_vs_direct_x", "x"),
    ("io.file_mb", "MiB"),
    ("io.convert_s", "s"),
    ("io.load_mmap_ms", "ms"),
    ("io.load_copy_ms", "ms"),
    ("io.boot_to_healthy_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("client.ttft_ms_p90", "ms"),
    ("client.itl_ms_p99", "ms"),
    ("client.e2e_ms_p90", "ms"),
    ("client.prompt_tok_s", "tok/s"),
];

/// Removes the per-run model file on every exit path the process
/// controls.
struct ModelFile(PathBuf);

/// Deletes model files whose run was killed before it could (the file
/// name carries the pid): a driver that times runs out would otherwise
/// leave 107 MiB behind each time.
fn sweep_stale_models(out_dir: &Path) {
    for entry in std::fs::read_dir(out_dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let pid = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit_once('-'))
            .filter(|_| path.extension().is_some_and(|e| e == "tmac"))
            .and_then(|(_, pid)| pid.parse::<u32>().ok());
        if pid.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

impl Drop for ModelFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Per-repetition set-up times.
#[derive(Default)]
struct SetupTimes {
    convert_s: Vec<f64>,
    boot_ms: Vec<f64>,
    /// Warm-up (and prefix population), done once on the last instance.
    warm_s: f64,
}

impl SetupTimes {
    /// Median of (convert + boot) over the repetitions, plus the warm-up.
    fn setup_s(&self) -> f64 {
        let reps = self
            .convert_s
            .iter()
            .zip(&self.boot_ms)
            .map(|(c, b)| c + b / 1e3)
            .collect();
        median(reps) + self.warm_s
    }
}

/// Converts the model and boots the serving side `reps` times, keeping
/// the last instance. The previous instance is dropped *before* the file
/// is rewritten (it may have it mapped).
fn set_up<T>(
    bins: &Bins,
    model: &Path,
    reps: usize,
    mut boot: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        daemon::convert(bins, model)?;
        times.convert_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        last = Some(boot()?);
        times.boot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((last.expect("at least one set-up repetition"), times))
}

/// The request that publishes the shared prefix during set-up.
fn populate(w: Workload, seed: u64) -> Option<Request> {
    (w.prefix_len > 0).then(|| Request {
        idx: WARMUP_BASE - 1,
        prompt: w.prefix(seed),
        max_tokens: 4,
        temperature: 0.0,
        sample_seed: 0,
        cache_prompt: true,
    })
}

/// What one run measured, before printing.
struct Report {
    /// Set-up requests (prefix population, warm-up), in issue order.
    warm: Vec<Rec>,
    /// Traced runs only: the untraced first half window.
    head: Option<Window>,
    /// The window the metrics come from (traced with `--trace 1`).
    timed: Window,
    times: SetupTimes,
    /// Output tokens per second of the direct replay (traced runs).
    direct_tok_s: f64,
    probes: Vec<Metric>,
    /// Checked requests whose tokens differ from the reference.
    wrong: u64,
}

impl Report {
    /// The window holding the run's first timed requests.
    fn first(&self) -> &Window {
        self.head.as_ref().unwrap_or(&self.timed)
    }
}

fn require_ok(phase: &str, recs: &[Rec]) -> Result<(), String> {
    match recs.iter().find(|r| !r.ok()) {
        None => Ok(()),
        Some(r) => Err(format!(
            "{phase} request {} failed: status {}, {} of {} tokens",
            r.req.idx,
            r.out.status,
            r.out.tokens.len(),
            r.req.max_tokens
        )),
    }
}

/// Compares set-up requests and the first timed ones token for token
/// with the in-process reference; returns how many differ.
fn check(model: &Model, warm: &[Rec], first: &Window, n_timed: usize) -> Result<u64, String> {
    let checked: Vec<&Rec> = warm
        .iter()
        .chain(first.recs.iter().take(n_timed))
        .filter(|r| r.ok())
        .collect();
    let reqs: Vec<Request> = checked.iter().map(|r| r.req.clone()).collect();
    let want = direct::reference(model, &reqs)?;
    let mut wrong = 0;
    for (rec, want) in checked.iter().zip(&want) {
        if &rec.out.tokens != want {
            wrong += 1;
            eprintln!(
                "tmac-benchmark: request {} output differs from the reference\n  got  {:?}\n  want {:?}",
                rec.req.idx, rec.out.tokens, want
            );
        }
    }
    Ok(wrong)
}

struct Plan<'a> {
    run: Run,
    bins: &'a Bins,
    model: &'a Path,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

impl Plan<'_> {
    fn reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// One full window, or with `--trace 1` an untraced and a traced half
    /// window on the same serving instance (requests keep counting up).
    fn windows(
        &self,
        mut window: impl FnMut(u64, f64, bool) -> Result<Window, String>,
    ) -> Result<(Option<Window>, Window), String> {
        if !self.traced {
            return Ok((None, window(0, self.seconds, false)?));
        }
        let head = window(0, self.seconds / 2.0, false)?;
        let timed = window(head.recs.len() as u64, self.seconds / 2.0, true)?;
        Ok((Some(head), timed))
    }

    /// After the serving side is gone: the output check against the
    /// in-process reference and, for a traced run, the direct replay, the
    /// probes and the trace file.
    fn finish(
        &self,
        warm: Vec<Rec>,
        (head, timed): (Option<Window>, Window),
        times: SetupTimes,
        replay_warm: &[Request],
    ) -> Result<Report, String> {
        let model = direct::load(self.model, LoadMode::Mmap)?;
        let mut rep = Report {
            warm,
            head,
            timed,
            times,
            direct_tok_s: 0.0,
            probes: Vec::new(),
            wrong: 0,
        };
        // The offline warm-up round's sixteen requests differ only in
        // their prompts; two of them are enough.
        let n_warm = if self.run.w.served { rep.warm.len() } else { 2 };
        let n_timed = if self.smoke { 2 } else { CHECKED_TIMED };
        rep.wrong = check(&model, &rep.warm[..n_warm], rep.first(), n_timed)?;
        if self.traced {
            if self.run.w.served {
                let seconds = (self.seconds / 2.0).min(REPLAY_SECONDS);
                rep.direct_tok_s = direct::replay_tok_s(&model, &self.run, replay_warm, seconds)?;
            }
            rep.probes = probes::all(self.model, &model, self.run.threads)?;
            let path = self
                .model
                .with_file_name(format!("trace_{}.json", self.run.w.name));
            std::fs::write(&path, rep.timed.spans.chrome_json())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(rep)
    }
}

fn served_run(p: &Plan) -> Result<Report, String> {
    let run = &p.run;
    let (daemon, mut times) = set_up(p.bins, p.model, p.reps(), || {
        Daemon::spawn(p.bins, p.model, run.threads)
    })?;
    let t = Instant::now();
    let populate: Vec<Request> = populate(run.w, run.seed).into_iter().collect();
    let mut warm = served::send_all(&daemon, populate.clone(), run);
    let warmups = (0..run.threads as u64).map(|k| run.w.warmup(run.seed, k));
    warm.extend(served::send_all(&daemon, warmups.collect(), run));
    times.warm_s = t.elapsed().as_secs_f64();
    require_ok("set-up", &warm)?;

    let windows = p.windows(|start, seconds, traced| {
        // `/metrics` is scraped around a traced window only.
        let before = if traced {
            daemon.metrics()?
        } else {
            Default::default()
        };
        let mut win = served::drive(&daemon, run, start, seconds, traced);
        if traced {
            win.layer = served::layer_counts(&before, &daemon.metrics()?);
        }
        Ok(win)
    })?;
    drop(daemon); // free the cores before the in-process work
    p.finish(warm, windows, times, &populate)
}

fn offline_run(p: &Plan) -> Result<Report, String> {
    let run = &p.run;
    let (mut offline, mut times) = set_up(p.bins, p.model, p.reps(), || {
        let model = direct::load(p.model, LoadMode::Mmap)?;
        Ok(Offline::new(model, run.threads))
    })?;
    // Warm-up: one round of sixteen two-token requests.
    let t = Instant::now();
    let warm_run = Run {
        w: Workload {
            max_tokens: 2,
            ..run.w
        },
        ..*run
    };
    let warm = offline.rounds(&warm_run, WARMUP_BASE, 0.0, false)?.recs;
    times.warm_s = t.elapsed().as_secs_f64();
    require_ok("set-up", &warm)?;

    let windows =
        p.windows(|start, seconds, traced| offline.rounds(run, start, seconds, traced))?;
    drop(offline);
    p.finish(warm, windows, times, &[])
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(p: &Plan, rep: &Report) -> Vec<Metric> {
    let win = &rep.timed;
    let mut found: Vec<Metric> = rep.probes.clone();
    let mut put = |n: &str, v: f64| found.push((n.to_string(), v, ""));
    let ok: Vec<&Rec> = win.recs.iter().filter(|r| r.ok()).collect();
    let wire = |f: fn(&crate::client::Timings) -> f64| -> Vec<f64> {
        ok.iter()
            .filter_map(|r| r.out.timings.as_ref().map(f))
            .collect()
    };
    let e2e = |r: &Rec| (r.out.end - r.out.start) * 1e3;
    let busy = |r: &Rec| {
        let t = r.out.timings.unwrap_or_default();
        t.queue_ms + t.prefill_ms + t.decode_ms
    };
    let prompt_positions: usize = ok.iter().map(|r| r.req.prompt.len()).sum();
    put(
        "llm.prefix_hit_share",
        win.layer.prefix_hit_positions / prompt_positions.max(1) as f64,
    );
    put("llm.kv_cow_forks", win.layer.cow_forks);
    put("llm.kv_evictions", win.layer.evictions);
    put("llm.kv_resident_mb", win.layer.kv_resident_mb);
    put("llm.kv_pages_used_share", win.layer.pages_used_share);
    put("llm.batch_occupancy_mean", win.layer.occupancy_mean);
    put("llm.step_ms_mean", win.layer.step_ms_mean);
    put("llm.queue_ms_p50", percentile_of(wire(|t| t.queue_ms), 50));
    put(
        "llm.prefill_ms_p50",
        percentile_of(wire(|t| t.prefill_ms), 50),
    );
    put(
        "llm.decode_ms_p50",
        percentile_of(wire(|t| t.decode_ms), 50),
    );
    let share = |f: fn(&crate::client::Timings) -> f64| {
        median(
            ok.iter()
                .map(|r| f(&r.out.timings.unwrap_or_default()) / e2e(r))
                .collect(),
        )
    };
    put("llm.prefill_share_of_e2e", share(|t| t.prefill_ms));
    put("llm.decode_share_of_e2e", share(|t| t.decode_ms));
    // Per request, queue + prefill + decode + overhead = client e2e.
    let overhead: Vec<f64> = ok.iter().map(|r| e2e(r) - busy(r)).collect();
    put("serve.overhead_ms_p50", percentile_of(overhead.clone(), 50));
    put("serve.overhead_ms_p90", percentile_of(overhead, 90));
    let own = win.spans.self_ms_by_name();
    let own_p50 = |name: &str| percentile_of(own.get(name).cloned().unwrap_or_default(), 50);
    put("serve.first_byte_gap_ms_p50", own_p50("wait_first_token"));
    put("serve.connect_ms_p50", own_p50("connect"));
    put("serve.send_ms_p50", own_p50("send"));
    put(
        "serve.served_vs_direct_x",
        if p.run.w.served {
            win.out_tok_s() / rep.direct_tok_s
        } else {
            1.0 // this workload is the direct drive
        },
    );
    // What a client sees but no bound can hold on this host: the tails
    // (A/A spreads up to 0.3), and the prompt rate, which in a closed loop
    // of same-shaped requests is out_tok_s times a constant.
    put("client.ttft_ms_p90", percentile_of(win.ttft_ms(), 90));
    put("client.itl_ms_p99", percentile_of(win.itl_ms(), 99));
    put("client.e2e_ms_p90", percentile_of(win.e2e_ms(), 90));
    put("client.prompt_tok_s", win.prompt_tok_s());
    put("io.convert_s", median(rep.times.convert_s.clone()));
    put("io.boot_to_healthy_ms", median(rep.times.boot_ms.clone()));
    put(
        "trace.overhead_share",
        1.0 - win.out_tok_s() / rep.first().out_tok_s(),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = found.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            (name.to_string(), v, unit)
        })
        .collect()
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let parts: Result<Vec<String>, String> = metrics
        .iter()
        .map(|(n, v, u)| {
            if v.is_finite() {
                Ok(format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            } else {
                Err(format!("metric {n} is not a finite number ({v})"))
            }
        })
        .collect();
    Ok(format!("{{{}}}", parts?.join(",")))
}

/// `git rev-parse HEAD`, or "unknown" outside a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown".into(), |(_, m)| m.trim().replace('"', "'"))
}

fn phase_counts(recs: &[Rec]) -> String {
    let ok = recs.iter().filter(|r| r.ok()).count();
    let shed = recs.iter().filter(|r| r.out.status == 429).count();
    format!(
        "{{\"sent\":{},\"ok\":{ok},\"failed\":{},\"shed_429\":{shed}}}",
        recs.len(),
        recs.len() - ok
    )
}

/// Runs one workload as BENCHMARK.json's command asks and prints the
/// context line followed by the result line.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.text("workload").ok_or("--workload is required")?;
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let seed: u64 = args.num("seed", 1)?;
    let smoke = args.flag("smoke");
    let seconds: f64 = args.num("seconds", default_seconds(smoke))?;
    let traced = args.num("trace", 0u8)? != 0;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc.min(4);

    let bins = daemon::build_bins()?;
    let out_dir = Path::new("benchmark/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    sweep_stale_models(out_dir);
    let model = ModelFile(out_dir.join(format!("{}-{}.tmac", w.name, std::process::id())));
    let plan = Plan {
        run: Run {
            w,
            seed,
            threads,
            epoch: Instant::now(),
        },
        bins: &bins,
        model: &model.0,
        seconds,
        traced,
        smoke,
    };
    let rep = if w.served {
        served_run(&plan)?
    } else {
        offline_run(&plan)?
    };

    let metrics = if traced {
        per_layer(&plan, &rep)
    } else {
        rep.timed.end_to_end(rep.times.setup_s())
    };
    let head = rep.head.as_ref();
    let attempted =
        (rep.warm.len() + head.map_or(0, |h| h.recs.len()) + rep.timed.recs.len()) as u64;
    let failed = rep.timed.failed() + head.map_or(0, Window::failed) + rep.wrong;
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(","))
    };
    println!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\
         \"comparable\":{},\"nproc\":{nproc},\"T\":{threads},\"C\":{threads},\"commit\":\"{}\",\
         \"cpu\":\"{}\",\"samples\":{},\"phases\":{{\"warmup\":{},\"timed\":{}}},\"wrong_output\":{},\
         \"setup\":{{\"convert_s\":{},\"boot_ms\":{},\"warm_s\":{}}}}}}}",
        w.name,
        u8::from(traced),
        !smoke,
        git_commit(),
        cpu_model(),
        rep.timed.sample_note(),
        phase_counts(&rep.warm),
        phase_counts(&rep.timed.recs),
        rep.wrong,
        list(&rep.times.convert_s),
        list(&rep.times.boot_ms),
        rep.times.warm_s,
    );
    let correct = rep.wrong == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(&metrics)?
    );
    Ok(if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_serve::Json;

    fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), per_layer);
        let e2e: Vec<_> = Window::default()
            .end_to_end(1.0)
            .into_iter()
            .map(|(n, _, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name.to_string()));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(default_seconds(false))
        );
    }

    #[test]
    fn setup_is_the_median_repetition_plus_the_warm_up() {
        let t = SetupTimes {
            convert_s: vec![3.0, 2.0, 9.0],
            boot_ms: vec![500.0, 100.0, 200.0],
            warm_s: 1.0,
        };
        assert_eq!(t.setup_s(), 3.5 + 1.0);
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        assert!(json_metrics(&[("a".into(), f64::NAN, "ms")]).is_err());
        assert_eq!(
            json_metrics(&[("a".into(), 1.5, "ms"), ("b".into(), 2.0, "x")]).unwrap(),
            "{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"x\"}}"
        );
    }
}
