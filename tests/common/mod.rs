//! Helpers shared by the serving e2e suites (`serve_http`, `chaos`,
//! `trace_e2e`): the synthetic models, server start-up, a minimal blocking
//! HTTP client, and the Scheduler-direct reference.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tmac::core::ExecCtx;
use tmac::llm::{
    BackendKind, Model, ModelConfig, Scheduler, SchedulerConfig, SubmitRequest, WeightQuant,
};
use tmac::serve::{ConnMode, Json, ServerConfig, ServerHandle};

pub const SEED: u64 = 42;

pub fn tiny_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        SEED,
    )
    .unwrap()
}

/// A tiny-shaped model with a long context, so cancellation/deadline tests
/// get hundreds of decode steps to interrupt and prompts can span KV pages
/// (the prefix cache matches page-granular).
pub fn long_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny().scaled(2, 96, 512),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        SEED,
    )
    .unwrap()
}

pub fn start_server_cfg(
    model: Model,
    max_batch: usize,
    max_pending: usize,
    cfg: ServerConfig,
) -> ServerHandle {
    let sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            max_pending,
            ..SchedulerConfig::default()
        },
    );
    tmac::serve::start(sched, ExecCtx::new(1), cfg).unwrap()
}

/// A server with a short idle timeout, so the 408 cases finish quickly.
pub fn start_server_with(
    model: Model,
    max_batch: usize,
    max_pending: usize,
    mode: ConnMode,
) -> ServerHandle {
    let cfg = ServerConfig {
        mode,
        idle_conn_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    start_server_cfg(model, max_batch, max_pending, cfg)
}

pub fn start_server(max_batch: usize, max_pending: usize, mode: ConnMode) -> ServerHandle {
    start_server_with(tiny_model(), max_batch, max_pending, mode)
}

pub fn both_modes() -> Vec<ConnMode> {
    if cfg!(target_os = "linux") {
        vec![ConnMode::Epoll, ConnMode::Threads]
    } else {
        vec![ConnMode::Threads]
    }
}

/// Scheduler-direct reference output for one prompt.
pub fn direct_tokens_on(model: Model, prompt: &[u32], max_new: usize) -> Vec<u32> {
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(model, SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(prompt, max_new))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    done.into_iter().find(|f| f.id == id).unwrap().tokens
}

pub fn direct_tokens(prompt: &[u32], max_new: usize) -> Vec<u32> {
    direct_tokens_on(tiny_model(), prompt, max_new)
}

pub fn prompt_json(prompt: &[u32], max_tokens: usize, stream: bool) -> String {
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":{stream}}}",
        ids.join(",")
    )
}

/// Minimal blocking HTTP client: one request, `Connection: close`, returns
/// the whole raw response.
pub fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    String::from_utf8_lossy(&raw).into_owned()
}

/// [`raw_request`] split into (status, head, body).
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    parse_response(raw_request(addr, method, path, body).as_bytes())
}

/// (status, head, body) from raw response bytes.
pub fn parse_response(raw: &[u8]) -> (u16, String, String) {
    let text = String::from_utf8_lossy(raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    (status, head.to_string(), body.to_string())
}

/// The `error.type` of a typed error body.
pub fn error_type(body: &str) -> String {
    let doc = Json::parse(body).expect("typed error body");
    let kind = doc.get("error").unwrap().get("type").unwrap();
    kind.as_str().unwrap().to_string()
}
