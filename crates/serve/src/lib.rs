//! `tmac-serve`: an HTTP/SSE serving front-end over the continuous-batching
//! [`Scheduler`](tmac_llm::batch::Scheduler).
//!
//! The T-MAC stack so far ends at the scheduler: callers hand it token
//! prompts and drive `step_batch` themselves. This crate puts a production
//! shaped front door on top — an OpenAI-style `POST /v1/completions`
//! endpoint (JSON in, JSON or SSE out), `GET /metrics`, and `GET /healthz`
//! — while keeping the scheduler single-threaded on a dedicated step-loop
//! thread, exactly as the batching design assumes.
//!
//! Everything is hand-rolled on `std`, matching the repo's no-external-
//! crates rule: [`json`] is the wire codec, [`http`] the HTTP/1.1 + SSE
//! layer, [`bridge`] the bounded submission channel into the step loop,
//! and [`server`] the listener, request routing and connection driver.
//! Every connection is one socket-free `Conn` state machine (`conn.rs`:
//! pipelining, keep-alive, 408, drain, disconnect → cancel, slow-consumer
//! cap, typed endings), driven by one OS thread that moves bytes between
//! it and a blocking socket.
//!
//! Serving semantics:
//!
//! * **Backpressure** — admission reserves one of
//!   `SchedulerConfig::max_pending` queue seats synchronously; a full
//!   queue is an HTTP 429 with `Retry-After`.
//! * **Deadlines** — `deadline_ms` (or a server default) cancels the
//!   sequence mid-flight and returns a typed `deadline_exceeded` error
//!   (504) with the partial output.
//! * **Cancellation** — a client disconnect flips the request's cancel
//!   flag; the step loop frees the KV slot on its next iteration.
//! * **Graceful drain** — `ServerHandle::drain` stops accepting, lets
//!   in-flight sequences finish, then the step loop and connection threads
//!   exit.
//! * **Supervision** — a watchdog thread respawns the step loop after a
//!   panic (bounded restarts with exponential backoff); `GET /healthz`
//!   degrades to 503 when the loop stalls or dies. See
//!   [`bridge::SupervisorOpts`].
//!
//! ```no_run
//! use tmac_llm::batch::{Scheduler, SchedulerConfig};
//! use tmac_llm::{BackendKind, ExecCtx, Model, ModelConfig, WeightQuant};
//!
//! let model = Model::synthetic(
//!     &ModelConfig::tiny(),
//!     WeightQuant::Rtn(2),
//!     BackendKind::F32,
//!     7,
//!     &ExecCtx::new(2),
//! )
//! .unwrap();
//! let sched = Scheduler::new(model, SchedulerConfig::default());
//! let server = tmac_serve::start(
//!     sched,
//!     tmac_core::ExecCtx::new(1),
//!     tmac_serve::ServerConfig::default(),
//! )
//! .unwrap();
//! println!("listening on http://{}", server.addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
mod conn;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;

pub use bridge::{BridgeHandle, EndReason, HealthState, SeqEvent, SubmitError, SupervisorOpts};
pub use http::Limits;
pub use json::Json;
pub use metrics::Metrics;
pub use server::{start, ServerConfig, ServerHandle};
