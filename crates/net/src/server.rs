//! The network server: a TCP accept loop in front of one serving runtime.
//!
//! ```text
//!  clients (TCP)          fir-net                      fir-serve
//!  ─────────────          ───────                      ─────────
//!  frame ──► accept loop ──► conn queue ──► handler threads
//!                                             │ decode + tenant admit
//!                                             ▼
//!                                       one `Server` (dispatcher, bounded
//!                                        queues, static `BatchPolicy`,
//!                                        Engine + compiled-program cache)
//! ```
//!
//! **Connections** are handled one thread per active connection (from a
//! bounded handler pool), with *pipelining*: a client may stream many
//! requests without waiting; responses return in request order per
//! connection. Handlers poll the socket with a short read timeout so a
//! stalled peer never wedges shutdown.
//!
//! **Admission** happens before a request touches the server: the
//! [`TenantGov`] spends a token and takes an in-flight fairness slot, or
//! sheds with a typed `overloaded` error naming the tenant.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fir::ir::Fun;
use fir_api::{Engine, GradOutput};
use fir_serve::{
    BatchPolicy, MetricsSnapshot, NetStatsSnapshot, Request, Server, ServerBuilder, Ticket,
    Transform,
};
use interp::Value;

use crate::error::{NetError, WireError};
use crate::tenant::{TenantGov, TenantPolicy};
use crate::wire::{
    decode_request, encode_response, write_frame, FrameReader, Poll, WireRequest, WireResponse,
};

/// How long a connection handler blocks in one socket read before
/// re-checking shutdown and pending pipelined responses.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Configures and starts a [`NetServer`].
pub struct NetServerBuilder {
    server: ServerBuilder,
    handlers: usize,
    tenant_policy: TenantPolicy,
}

impl NetServerBuilder {
    /// A builder over `engine`.
    pub fn new(engine: Engine) -> NetServerBuilder {
        NetServerBuilder {
            server: ServerBuilder::new(engine),
            handlers: 8,
            tenant_policy: TenantPolicy::default(),
        }
    }

    /// Number of connection-handler threads (bounds concurrently served
    /// connections). Clamped to at least 1.
    pub fn handlers(mut self, n: usize) -> NetServerBuilder {
        self.handlers = n.max(1);
        self
    }

    /// Default batching policy (see [`ServerBuilder::batch_policy`]).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> NetServerBuilder {
        self.server = self.server.batch_policy(policy);
        self
    }

    /// Per-function admission queue bound (see
    /// [`ServerBuilder::queue_capacity`]).
    pub fn queue_capacity(mut self, capacity: usize) -> NetServerBuilder {
        self.server = self.server.queue_capacity(capacity);
        self
    }

    /// Register `fun` under `key`.
    pub fn register(mut self, key: &str, fun: &Fun) -> NetServerBuilder {
        self.server = self.server.register(key, fun);
        self
    }

    /// Register with a function-specific batching policy.
    pub fn register_with(mut self, key: &str, fun: &Fun, policy: BatchPolicy) -> NetServerBuilder {
        self.server = self.server.register_with(key, fun, policy);
        self
    }

    /// Precompile these transform stacks for every function before the
    /// listener opens (see [`ServerBuilder::warmup`]).
    pub fn warmup(mut self, stacks: &[&[Transform]]) -> NetServerBuilder {
        self.server = self.server.warmup(stacks);
        self
    }

    /// Per-tenant quotas and fairness weights.
    pub fn tenant_policy(mut self, policy: TenantPolicy) -> NetServerBuilder {
        self.tenant_policy = policy;
        self
    }

    /// Build the server (compiling + warming every function), bind
    /// `addr`, and start the accept loop and handler pool. Returns once
    /// the server is reachable.
    pub fn bind(self, addr: &str) -> Result<NetServer, NetError> {
        let server = self.server.build()?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            server,
            gov: TenantGov::new(self.tenant_policy, Instant::now()),
            stats: NetCounters::default(),
            shutdown: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(VecDeque::new()),
            conns_cv: Condvar::new(),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fir-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| NetError::Config {
                    what: format!("could not spawn accept loop: {e}"),
                })?
        };
        let mut handlers = Vec::with_capacity(self.handlers);
        for i in 0..self.handlers {
            let shared = Arc::clone(&shared);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("fir-net-conn-{i}"))
                    .spawn(move || handler_loop(&shared))
                    .map_err(|e| NetError::Config {
                        what: format!("could not spawn handler: {e}"),
                    })?,
            );
        }
        Ok(NetServer {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
            handlers: Mutex::new(handlers),
        })
    }
}

// ---------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------

#[derive(Default)]
struct NetCounters {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    connections_closed: AtomicU64,
    frames_received: AtomicU64,
    frames_sent: AtomicU64,
    protocol_errors: AtomicU64,
}

struct Shared {
    server: Server,
    gov: TenantGov,
    stats: NetCounters,
    shutdown: AtomicBool,
    /// Set when a client sends the `shutdown` op; observed by
    /// [`NetServer::run_until_shutdown_requested`].
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Accepted connections waiting for a handler thread.
    conns: Mutex<VecDeque<TcpStream>>,
    conns_cv: Condvar,
}

impl Shared {
    fn net_snapshot(&self) -> NetStatsSnapshot {
        let s = &self.stats;
        NetStatsSnapshot {
            connections_accepted: s.connections_accepted.load(Ordering::Relaxed),
            connections_active: s.connections_active.load(Ordering::Relaxed),
            connections_closed: s.connections_closed.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            protocol_errors: s.protocol_errors.load(Ordering::Relaxed),
            tenants: self.gov.snapshot(),
        }
    }

    /// `snap` with the network-layer counters attached.
    fn with_net(&self, mut snap: MetricsSnapshot) -> MetricsSnapshot {
        snap.net = Some(self.net_snapshot());
        snap
    }
}

// ---------------------------------------------------------------------
// Server handle
// ---------------------------------------------------------------------

/// A running network server. Dropping it shuts it down gracefully.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl NetServer {
    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live metrics snapshot, with the network-layer counters attached.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.with_net(self.shared.server.metrics())
    }

    /// Block until some client sends the `shutdown` op (or the server is
    /// shut down locally). Does not itself shut down — callers follow up
    /// with [`NetServer::shutdown_within`].
    pub fn run_until_shutdown_requested(&self) {
        let mut requested = self.shared.shutdown_requested.lock().unwrap();
        while !*requested && !self.shared.shutdown.load(Ordering::SeqCst) {
            requested = self.shared.shutdown_cv.wait(requested).unwrap();
        }
    }

    /// Graceful shutdown: stop accepting, flush every connection's
    /// pipeline, drain the server, and return the final metrics.
    pub fn shutdown(&self) -> MetricsSnapshot {
        self.stop_network();
        self.shared.with_net(self.shared.server.shutdown())
    }

    /// Bounded shutdown: like [`NetServer::shutdown`], but queued work
    /// that cannot drain by the deadline is shed (see
    /// [`Server::shutdown_within`]).
    pub fn shutdown_within(&self, timeout: Duration) -> MetricsSnapshot {
        let deadline = Instant::now() + timeout;
        self.stop_network();
        let left = deadline.saturating_duration_since(Instant::now());
        self.shared
            .with_net(self.shared.server.shutdown_within(left))
    }

    /// Stop the accept loop and handler pool. Idempotent; server
    /// shutdown is the caller's next step.
    fn stop_network(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake anyone parked in run_until_shutdown_requested.
        self.shared.shutdown_cv.notify_all();
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.lock().unwrap().take() {
            let _ = h.join();
        }
        self.shared.conns_cv.notify_all();
        for h in self.handlers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// Accept loop and handler pool
// ---------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up poke (or a late client) — drop it and leave.
            return;
        }
        shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let mut q = shared.conns.lock().unwrap();
        q.push_back(stream);
        drop(q);
        shared.conns_cv.notify_one();
    }
}

fn handler_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.conns.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .conns_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap();
                q = guard;
            }
        };
        shared
            .stats
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        let trace_id = fir_trace::next_id();
        fir_trace::async_begin("net", "connection", trace_id);
        let _ = handle_conn(shared, stream);
        fir_trace::async_end("net", "connection", trace_id, 0);
        shared
            .stats
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
        shared
            .stats
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

/// One pipelined request awaiting its in-order response.
enum Outstanding {
    /// Already resolved (ops, sheds, malformed requests).
    Ready(u64, u64, WireResponse),
    /// An in-flight `call` on the server.
    Call(u64, u64, String, Ticket<Vec<Value>>),
    /// An in-flight `grad` on the server.
    Grad(u64, u64, String, Ticket<GradOutput>),
}

impl Outstanding {
    fn is_ready(&self) -> bool {
        match self {
            Outstanding::Ready(..) => true,
            Outstanding::Call(_, _, _, t) => t.is_ready(),
            Outstanding::Grad(_, _, _, t) => t.is_ready(),
        }
    }

    /// Resolve into a response, blocking if needed. Server shutdown
    /// fulfills every ticket, so the wait is bounded by drain time.
    fn resolve(self, shared: &Shared) -> (u64, u64, WireResponse) {
        match self {
            Outstanding::Ready(id, trace, resp) => (id, trace, resp),
            Outstanding::Call(id, trace, tenant, t) => {
                let resp = match t.wait() {
                    Ok(values) => WireResponse::Values(values),
                    Err(e) => WireResponse::Error(WireError::from_serve(&e)),
                };
                shared.gov.release(&tenant);
                (id, trace, resp)
            }
            Outstanding::Grad(id, trace, tenant, t) => {
                let resp = match t.wait() {
                    Ok(g) => WireResponse::Grad {
                        value: g.value,
                        grads: g.grads,
                    },
                    Err(e) => WireResponse::Error(WireError::from_serve(&e)),
                };
                shared.gov.release(&tenant);
                (id, trace, resp)
            }
        }
    }

    /// Wait up to `timeout` for readiness (true if ready).
    fn wait_for(&self, timeout: Duration) -> bool {
        match self {
            Outstanding::Ready(..) => true,
            Outstanding::Call(_, _, _, t) => t.wait_for(timeout),
            Outstanding::Grad(_, _, _, t) => t.wait_for(timeout),
        }
    }

    fn abandon(self, shared: &Shared) {
        match self {
            Outstanding::Ready(..) => {}
            Outstanding::Call(_, _, tenant, _) => shared.gov.release(&tenant),
            Outstanding::Grad(_, _, tenant, _) => shared.gov.release(&tenant),
        }
    }
}

fn send(shared: &Shared, stream: &mut TcpStream, id: u64, trace: u64, resp: &WireResponse) -> bool {
    let payload = match encode_response(id, trace, resp) {
        Ok(p) => p,
        Err(_) => {
            // Unencodable response (should not happen): degrade to a
            // typed internal error rather than desyncing the stream.
            let e = WireResponse::Error(WireError {
                code: "internal".to_string(),
                message: "response could not be encoded".to_string(),
                tenant: None,
            });
            encode_response(id, trace, &e).expect("error responses always encode")
        }
    };
    if write_frame(stream, &payload).is_err() {
        return false;
    }
    shared.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
    true
}

fn handle_conn(shared: &Shared, stream: TcpStream) -> Result<(), NetError> {
    stream.set_read_timeout(Some(POLL_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    // O_NONBLOCK is per-socket (shared by the dups): toggled through
    // `writer` while `reader` owns the stream for reads. With the
    // pipeline empty the handler parks in a blocking timed read; with
    // responses pending it drains whatever is already buffered without
    // blocking, then waits on the *ticket* (a condvar — wakes in
    // microseconds) instead of the socket. Waiting on the socket there
    // would add read-timeout granularity (jiffies — milliseconds) to
    // every response.
    let mut nonblocking = false;
    let mut reader = FrameReader::new(stream);
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let mut open = true;

    let fail = |shared: &Shared, outstanding: &mut VecDeque<Outstanding>| {
        for o in outstanding.drain(..) {
            o.abandon(shared);
        }
    };

    while open || !outstanding.is_empty() {
        // Flush every response that is ready, in request order. Writes
        // must not see O_NONBLOCK (a full send buffer would error
        // instead of blocking).
        if outstanding.front().is_some_and(Outstanding::is_ready) && nonblocking {
            writer.set_nonblocking(false)?;
            nonblocking = false;
        }
        while outstanding.front().is_some_and(Outstanding::is_ready) {
            let (id, trace, resp) = outstanding.pop_front().unwrap().resolve(shared);
            fir_trace::async_end("net", "request", trace, id);
            if !send(shared, &mut writer, id, trace, &resp) {
                fail(shared, &mut outstanding);
                return Ok(());
            }
        }
        if !open || shared.shutdown.load(Ordering::SeqCst) {
            // Not reading anymore (peer EOF or server shutdown): block
            // on the pipeline head until everything has flushed.
            match outstanding.pop_front() {
                None => break,
                Some(o) => {
                    if nonblocking {
                        writer.set_nonblocking(false)?;
                        nonblocking = false;
                    }
                    let (id, trace, resp) = o.resolve(shared);
                    fir_trace::async_end("net", "request", trace, id);
                    if !send(shared, &mut writer, id, trace, &resp) {
                        fail(shared, &mut outstanding);
                        return Ok(());
                    }
                    continue;
                }
            }
        }
        // Read: blocking (with timeout) when idle, nonblocking drain
        // when responses are pending.
        let want_nonblocking = !outstanding.is_empty();
        if want_nonblocking != nonblocking {
            writer.set_nonblocking(want_nonblocking)?;
            nonblocking = want_nonblocking;
        }
        match reader.poll() {
            Ok(Poll::Frame(payload)) => {
                shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
                outstanding.push_back(dispatch(shared, &payload));
            }
            Ok(Poll::Idle) => {
                // Nothing buffered. If a response is pending, park on
                // the pipeline head's ticket — bounded so shutdown and
                // new socket data are noticed.
                if let Some(front) = outstanding.front() {
                    front.wait_for(Duration::from_millis(5));
                }
            }
            Ok(Poll::Eof) => open = false,
            Err(e) => {
                // Framing is broken: report once (the stream cannot be
                // re-synchronized) and close.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let err = WireResponse::Error(WireError::bad_frame(&e.to_string()));
                if nonblocking {
                    let _ = writer.set_nonblocking(false);
                    nonblocking = false;
                }
                let _ = send(shared, &mut writer, 0, 0, &err);
                open = false;
            }
        }
    }
    Ok(())
}

/// Decode one request payload and start it: ops answer immediately,
/// `call`/`grad` pass tenant admission and are submitted to the server.
fn dispatch(shared: &Shared, payload: &str) -> Outstanding {
    let (id, req) = decode_request(payload);
    let trace = fir_trace::next_id();
    fir_trace::async_begin("net", "request", trace);
    let req = match req {
        Ok(r) => r,
        Err(e) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return Outstanding::Ready(
                id,
                trace,
                WireResponse::Error(WireError::bad_request(&e.to_string())),
            );
        }
    };
    match req {
        WireRequest::Ping => Outstanding::Ready(id, trace, WireResponse::Pong),
        WireRequest::Metrics => Outstanding::Ready(
            id,
            trace,
            WireResponse::MetricsJson(shared.with_net(shared.server.metrics()).to_json()),
        ),
        WireRequest::Shutdown => {
            let mut requested = shared.shutdown_requested.lock().unwrap();
            *requested = true;
            shared.shutdown_cv.notify_all();
            Outstanding::Ready(id, trace, WireResponse::Bye)
        }
        WireRequest::Call(c) => {
            if let Err(e) = shared.gov.admit(&c.tenant) {
                return Outstanding::Ready(id, trace, WireResponse::Error(e));
            }
            let tenant = c.tenant.clone();
            match shared.server.submit(to_request(c)) {
                Ok(ticket) => Outstanding::Call(id, trace, tenant, ticket),
                Err(e) => {
                    shared.gov.release(&tenant);
                    Outstanding::Ready(id, trace, WireResponse::Error(WireError::from_serve(&e)))
                }
            }
        }
        WireRequest::Grad(c) => {
            if let Err(e) = shared.gov.admit(&c.tenant) {
                return Outstanding::Ready(id, trace, WireResponse::Error(e));
            }
            let tenant = c.tenant.clone();
            match shared.server.submit_grad(to_request(c)) {
                Ok(ticket) => Outstanding::Grad(id, trace, tenant, ticket),
                Err(e) => {
                    shared.gov.release(&tenant);
                    Outstanding::Ready(id, trace, WireResponse::Error(WireError::from_serve(&e)))
                }
            }
        }
    }
}

fn to_request(c: crate::wire::CallRequest) -> Request {
    let mut req = Request::new(c.fn_key, c.args).with_transforms(c.transforms);
    if let Some(ms) = c.deadline_ms {
        req = req.with_deadline(Duration::from_millis(ms));
    }
    req
}
