//! Epoll shim (Linux): one thread multiplexes the listener and every
//! connection's non-blocking socket.
//!
//! All protocol state lives in [`Conn`]; this file is readiness plumbing.
//! Each wake-up reads what arrived into the `Conn`s, services every one of
//! them (the step loop nudges the poller through its self-pipe waker
//! whenever it queues events, so completions land here too), writes what
//! the sockets accept, keeps `EPOLLOUT` interest in sync with unflushed
//! output, and reaps the connections that report `finished`.

#![cfg(target_os = "linux")]

use crate::bridge::WakeFn;
use crate::conn::Conn;
use crate::poll::{Event, Interest, Poller};
use crate::server::{read_some, write_some, Io, Shared};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Instant;
use tmac_core::failpoint::{self, FailAction};

const LISTEN_TOKEN: u64 = 0;

struct Slot {
    stream: TcpStream,
    conn: Conn,
    want_write: bool,
    /// The last read hit EOF or an error. Acted on after the next
    /// service + write, so requests that arrived ahead of the FIN are
    /// still answered.
    eof: bool,
}

impl Slot {
    /// The peer is gone: tell the `Conn` and stop polling the dead socket,
    /// which would otherwise report its hang-up on every wait while the
    /// `Conn` is still owed a terminal event.
    fn hang_up(&mut self, poller: &Poller) {
        self.conn.peer_gone();
        poller.delete(self.stream.as_raw_fd());
        self.want_write = false;
    }
}

/// Runs the event loop until stop, or drain completes.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>, poller: Poller) {
    // The listener was made non-blocking by `server::start` before this
    // thread was spawned. Registering a fresh fd with a fresh epoll
    // instance only fails on fd/memory exhaustion at startup, before any
    // request is accepted — failing fast there beats serving blind.
    poller
        .add(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READ)
        .expect("register listener");
    let waker = poller.waker();
    let wake: WakeFn = Arc::new(move || waker.wake());

    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Slot> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<Event> = Vec::new();

    while !shared.is_stopped() {
        events.clear();
        let _ = poller.wait(&mut events, 100);
        if shared.is_draining() {
            if let Some(l) = listener.take() {
                poller.delete(l.as_raw_fd());
            }
        }

        for ev in &events {
            if ev.token == LISTEN_TOKEN {
                if let Some(l) = &listener {
                    accept_ready(l, &poller, &shared, &mut conns, &mut next_token);
                }
                continue;
            }
            let Some(s) = conns.get_mut(&ev.token) else {
                continue;
            };
            let mut io = Io::Ready;
            while ev.readable && io == Io::Ready {
                io = read_some(&mut s.stream, &mut s.conn, &shared);
            }
            s.eof |= ev.closed || io == Io::Closed;
        }

        let now = Instant::now();
        conns.retain(|&tok, s| {
            s.conn.service(&shared, &wake, now);
            let torn = write_some(&mut s.stream, &mut s.conn) == Io::Closed;
            if std::mem::take(&mut s.eof) || torn {
                s.hang_up(&poller);
            }
            if s.conn.finished() {
                poller.delete(s.stream.as_raw_fd());
                shared.metrics.connections.dec();
                return false;
            }
            let needs_write = !s.conn.pending_output().is_empty();
            if needs_write != s.want_write {
                let interest = if needs_write {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if poller.modify(s.stream.as_raw_fd(), tok, interest).is_ok() {
                    s.want_write = needs_write;
                }
            }
            true
        });

        if shared.is_draining() && listener.is_none() && conns.is_empty() {
            return;
        }
    }

    for (_, mut s) in conns.drain() {
        s.conn.peer_gone(); // abort: cancel whatever is still in flight
        shared.metrics.connections.dec();
    }
}

fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Shared,
    conns: &mut HashMap<u64, Slot>,
    next_token: &mut u64,
) {
    while let Ok((stream, _)) = listener.accept() {
        if failpoint::fire("serve/accept") == Some(FailAction::Error) {
            continue; // injected accept failure: the client sees a hang-up
        }
        tmac_trace::instant("serve", "accept", 0, 0);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let tok = *next_token;
        // Skip the reserved tokens on wrap (practically unreachable).
        *next_token = next_token.wrapping_add(1).max(1);
        if poller.add(stream.as_raw_fd(), tok, Interest::READ).is_ok() {
            shared.metrics.connections.inc();
            conns.insert(
                tok,
                Slot {
                    stream,
                    conn: Conn::new(Instant::now()),
                    want_write: false,
                    eof: false,
                },
            );
        }
    }
}
