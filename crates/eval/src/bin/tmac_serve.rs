//! `tmac_serve` — the serving daemon: loads (or synthesizes) a model and
//! exposes it over HTTP until SIGINT/SIGTERM triggers a graceful drain.
//!
//! ```text
//! tmac_convert --model 7b --layers 1 --bits 2 --out m.tmac   # once
//! tmac_serve --model m.tmac --addr 127.0.0.1:8080
//! curl -N localhost:8080/v1/completions -d '{"prompt":[1,2,3],"stream":true}'
//! ```
//!
//! Flags: `--model tiny|<path>` (synthetic tiny model or a `.tmac`
//! container, served on the T-MAC backend),
//! `--addr host:port` (default `127.0.0.1:8080`), `--threads N` (step-loop
//! ExecCtx threads), `--batch B` (KV slots), `--pending Q` (admission queue
//! bound; 0 = unbounded), `--max-tokens N`
//! (default when a request omits `max_tokens`), `--deadline-ms D`
//! (default deadline; 0 = none), `--kv f32|i8`,
//! `--trace-out DIR` (dump the in-memory span rings as Chrome-trace JSON
//! into `DIR` on every SIGUSR1 and once more when the drain completes;
//! load the files in Perfetto or `chrome://tracing`).
//!
//! On SIGINT or SIGTERM the server stops accepting, finishes every
//! in-flight sequence, then exits 0 (second signal: immediate abort).

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;
use tmac_core::ExecCtx;
use tmac_eval::{ArgError, Flags};
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_llm::{BackendKind, KvPrecision, LoadMode, Model, ModelConfig, WeightQuant};
use tmac_serve::ServerConfig;

static SIGNALS: AtomicU32 = AtomicU32::new(0);
static TRACE_DUMPS: AtomicU32 = AtomicU32::new(0);

#[cfg(unix)]
fn install_signal_handlers() {
    use std::os::raw::c_int;
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_sig: c_int) {
        SIGNALS.fetch_add(1, Ordering::SeqCst);
    }
    extern "C" fn on_sigusr1(_sig: c_int) {
        TRACE_DUMPS.fetch_add(1, Ordering::SeqCst);
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    const SIGUSR1: c_int = 10;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGUSR1, on_sigusr1 as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Writes the current span rings to `dir/trace-<n>.json` (Chrome Trace
/// Event Format). Serving continues; the rings are not reset, so later
/// dumps are supersets until the per-thread buffers wrap.
fn dump_trace(dir: &str, n: u32) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("tmac_serve: cannot create --trace-out dir {dir:?}: {e}");
        return;
    }
    let path = format!("{dir}/trace-{n}.json");
    match std::fs::write(&path, tmac_trace::chrome_trace_json()) {
        Ok(()) => eprintln!("tmac_serve: wrote {path}"),
        Err(e) => eprintln!("tmac_serve: cannot write {path}: {e}"),
    }
}

static FLAGS: Flags = Flags {
    usage: "usage: tmac_serve [--model tiny|PATH] [--addr HOST:PORT] [--threads N] [--batch B] \
            [--pending Q] [--max-tokens N] [--deadline-ms D] [--kv f32|i8] [--trace-out DIR]",
    valued: "model addr threads batch pending max-tokens deadline-ms kv trace-out",
    switches: "",
};

fn main() {
    let args = FLAGS.parse_or_exit(std::env::args().skip(1));
    let model_name = args.text("model", "tiny");
    let addr = args.text("addr", "127.0.0.1:8080");
    let threads: usize = args.num("threads", 1);
    let max_batch: usize = args.num("batch", 4);
    let max_pending: usize = args.num("pending", 64);
    let default_max_tokens: usize = args.num("max-tokens", 16);
    let default_deadline_ms: u64 = args.num("deadline-ms", 0);
    let kv = match args.text("kv", "f32").as_str() {
        "f32" => KvPrecision::F32,
        "i8" => KvPrecision::I8,
        other => FLAGS.exit(&ArgError::BadValue("--kv".into(), other.into())),
    };
    let trace_out = args.text("trace-out", "");

    let backend = BackendKind::Tmac(tmac_core::KernelOpts::tmac());
    let mut model = if model_name == "tiny" {
        Model::synthetic(
            &ModelConfig::tiny().scaled(2, 96, 256),
            WeightQuant::Rtn(2),
            backend,
            7,
        )
        .expect("synthetic model")
    } else {
        let t0 = std::time::Instant::now();
        let model = Model::from_file(std::path::Path::new(&model_name), &backend, LoadMode::Mmap)
            .unwrap_or_else(|e| panic!("--model {model_name}: {e}"));
        eprintln!(
            "loaded {} from {model_name} in {:.3}s ({} backend)",
            model.cfg.name,
            t0.elapsed().as_secs_f64(),
            model.backend_label()
        );
        model
    };
    model.cfg.kv_precision = kv;

    let sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            max_pending,
            ..SchedulerConfig::default()
        },
    );
    install_signal_handlers();
    let server = tmac_serve::start(
        sched,
        ExecCtx::new(threads),
        ServerConfig {
            addr,
            default_max_tokens,
            default_deadline_ms,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    eprintln!(
        "tmac_serve listening on http://{} ({} slots, {} queue, {} thread(s))",
        server.addr(),
        max_batch,
        max_pending,
        threads
    );

    let mut dumps_seen = 0u32;
    while SIGNALS.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(100));
        // SIGUSR1: snapshot the trace without disturbing serving.
        let dumps = TRACE_DUMPS.load(Ordering::SeqCst);
        if dumps > dumps_seen && !trace_out.is_empty() {
            for n in dumps_seen..dumps {
                dump_trace(&trace_out, n);
            }
        }
        dumps_seen = dumps;
    }
    eprintln!("tmac_serve: draining (signal again to abort)...");
    server.drain();
    // Poll for a second signal while the drain completes.
    let abort = std::thread::spawn({
        let metrics = server.metrics();
        move || {
            while SIGNALS.load(Ordering::SeqCst) < 2 {
                std::thread::sleep(Duration::from_millis(50));
                // The drain is done once nothing is queued, active, or open.
                if metrics.queue_depth.get() == 0
                    && metrics.active_seqs.get() == 0
                    && metrics.connections.get() == 0
                {
                    return false;
                }
            }
            true
        }
    });
    if abort.join().unwrap_or(true) {
        eprintln!("tmac_serve: aborting");
        server.abort();
    } else {
        server.join();
    }
    // Final snapshot once all in-flight work has finished, so a plain
    // SIGTERM run still leaves a loadable trace behind.
    if !trace_out.is_empty() {
        dump_trace(&trace_out, dumps_seen);
    }
    eprintln!("tmac_serve: bye");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_benchmark_and_ci_command_lines() {
        // The benchmark's daemon flags, plus CI's `--trace-out`.
        let argv = "--model m.tmac --addr 127.0.0.1:9 --threads 2 --batch 8 --pending 64 --kv f32 \
                    --trace-out target/traces";
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let args = FLAGS
            .parse(argv.clone())
            .expect("the benchmark's and CI's flags");
        for pair in argv.chunks(2) {
            assert_eq!(args.text(&pair[0][2..], ""), pair[1]);
        }
    }
}
