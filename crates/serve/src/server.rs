//! The serving runtime: registration, admission, batching, dispatch.
//!
//! One [`Server`] owns a set of compiled functions (all sharing one
//! [`Engine`] and therefore one fingerprint cache), a bounded queue per
//! function, and a single dispatcher thread. Clients submit
//! [`Request`]s from any thread and get [`Ticket`]s back; the dispatcher
//! coalesces queued requests into micro-batches under each function's
//! [`BatchPolicy`] and submits batch execution onto the persistent
//! `firvm` worker pool ([`firvm::pool::submit`]) — the same workers that
//! run SOAC chunks, so there is exactly one thread pool in the process.
//!
//! Request lifecycle:
//!
//! 1. **Admission.** Unknown keys and shut-down servers are rejected;
//!    a full queue sheds the request with [`ServeError::Overloaded`].
//! 2. **Batching.** A batch is cut when the queue reaches
//!    `max_batch_size` or its oldest request has waited `max_wait`
//!    (whichever comes first). Batches are homogeneous in request kind
//!    (primal calls vs. gradients) and never cross functions.
//! 3. **Execution.** The batch runs through
//!    `CompiledFn::call_batch` / `grad_batch`: one independent execution
//!    per request, fanned over the worker pool, and each request resolves
//!    with its *own* result or error, so one malformed request cannot
//!    fail its batchmates. Requests whose deadline passed while queued
//!    are dropped at the cut with [`ServeError::DeadlineExceeded`].
//! 4. **Shutdown.** [`Server::shutdown`] stops admission, drains every
//!    queue through the normal batch path, waits for in-flight batches,
//!    and returns the final metrics snapshot.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fir::ir::Fun;
use fir_api::{CompiledFn, Engine, GradOutput, Transform};
use interp::Value;

use crate::error::ServeError;
use crate::metrics::{FnMetrics, MetricsSnapshot};
use crate::ticket::{Ticket, TicketState};

// ---------------------------------------------------------------------
// Policy and requests
// ---------------------------------------------------------------------

/// When the micro-batcher cuts a batch for one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Cut as soon as this many requests are queued. `1` disables
    /// coalescing (every request is its own batch).
    pub max_batch_size: usize,
    /// Cut when the oldest queued request has waited this long, even if
    /// the batch is not full. `Duration::ZERO` cuts eagerly.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch_size: 32,
            max_wait: Duration::from_micros(500),
        }
    }
}

impl BatchPolicy {
    /// A policy that never coalesces: batch size 1 (the "unbatched"
    /// baseline configuration of the serving benchmark).
    pub fn unbatched() -> BatchPolicy {
        BatchPolicy {
            max_batch_size: 1,
            max_wait: Duration::ZERO,
        }
    }
}

/// One serving request: a registered function key, a transform stack to
/// apply to it, the argument list, and an optional deadline relative to
/// submission. Requests still queued when their deadline passes are
/// dropped (ticket resolves [`ServeError::DeadlineExceeded`]) instead of
/// executed.
#[derive(Debug, Clone)]
pub struct Request {
    /// The key the target function was registered under.
    pub fn_key: String,
    /// The transform stack applied to the registered function before
    /// execution, left to right (empty: the function itself). The
    /// arguments must match the *transformed* signature — e.g. a
    /// `[Vjp]` request passes the original arguments plus the adjoint
    /// seeds. The micro-batcher only coalesces requests that share both
    /// the key and the stack, and the derived program is compiled once
    /// per `(key, stack)` through the engine cache.
    pub transforms: Vec<Transform>,
    /// The argument list, validated at execution (not admission).
    pub args: Vec<Value>,
    /// Give up if the request has not started executing within this long.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request for the registered function itself, with no deadline.
    pub fn new(fn_key: impl Into<String>, args: Vec<Value>) -> Request {
        Request {
            fn_key: fn_key.into(),
            transforms: Vec::new(),
            args,
            deadline: None,
        }
    }

    /// Attach a deadline relative to submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Target a transformed program: the stack is applied to the
    /// registered function left to right (`[Vjp, Vmap]` serves
    /// `vmap(vjp(f))`).
    pub fn with_transforms(mut self, transforms: impl Into<Vec<Transform>>) -> Request {
        self.transforms = transforms.into();
        self
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Builds a [`Server`]: one engine, many registered functions, one
/// dispatcher.
///
/// ```
/// use fir::builder::Builder;
/// use fir::types::Type;
/// use fir_api::Engine;
/// use fir_serve::{Request, ServerBuilder};
/// use interp::Value;
///
/// let mut b = Builder::new();
/// let dot = b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
///     let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
///         vec![b.fmul(es[0].into(), es[1].into())]
///     });
///     vec![b.sum(prods).into()]
/// });
///
/// let server = ServerBuilder::new(Engine::new()).register("dot", &dot).build()?;
/// let args = vec![Value::from(vec![1.0, 2.0]), Value::from(vec![3.0, 4.0])];
/// let ticket = server.submit(Request::new("dot", args))?;
/// assert_eq!(ticket.wait()?[0].as_f64(), 11.0);
/// server.shutdown();
/// # Ok::<(), fir_serve::ServeError>(())
/// ```
pub struct ServerBuilder {
    engine: Engine,
    default_policy: BatchPolicy,
    queue_capacity: usize,
    fns: Vec<(String, Fun, Option<BatchPolicy>)>,
    warmup: Vec<Vec<Transform>>,
}

impl ServerBuilder {
    /// A builder over `engine`. Every registered function compiles
    /// through (and shares) this engine's fingerprint cache.
    pub fn new(engine: Engine) -> ServerBuilder {
        ServerBuilder {
            engine,
            default_policy: BatchPolicy::default(),
            queue_capacity: 1024,
            fns: Vec::new(),
            warmup: Vec::new(),
        }
    }

    /// Precompile the given transform stacks for **every** registered
    /// function during [`ServerBuilder::build`], before any traffic is
    /// admitted — so the first request of each `(fn, stack)` lane is a
    /// cache hit instead of paying derivation + compilation inline. Each
    /// warmed lane is recorded as a `serve`/`warmup` trace span. Stacks
    /// that do not apply to a function are skipped (their requests will
    /// report the derivation error at execution, as without warmup).
    pub fn warmup(mut self, stacks: &[&[Transform]]) -> ServerBuilder {
        self.warmup.extend(stacks.iter().map(|s| s.to_vec()));
        self
    }

    /// The batching policy for functions registered without their own.
    pub fn batch_policy(mut self, policy: BatchPolicy) -> ServerBuilder {
        self.default_policy = policy;
        self
    }

    /// Bound each function's admission queue (default 1024, clamped to at
    /// least 1). Submissions beyond the bound are shed with
    /// [`ServeError::Overloaded`].
    pub fn queue_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Register `fun` under `key` with the default policy. Compilation
    /// happens in [`ServerBuilder::build`].
    pub fn register(self, key: &str, fun: &Fun) -> ServerBuilder {
        self.register_impl(key, fun, None)
    }

    /// Register with a function-specific batching policy.
    pub fn register_with(self, key: &str, fun: &Fun, policy: BatchPolicy) -> ServerBuilder {
        self.register_impl(key, fun, Some(policy))
    }

    fn register_impl(mut self, key: &str, fun: &Fun, policy: Option<BatchPolicy>) -> ServerBuilder {
        self.fns.push((key.to_string(), fun.clone(), policy));
        self
    }

    /// Compile every registered function, warm its gradient handle, and
    /// start the dispatcher. Duplicate keys and programs that do not
    /// compile are [`ServeError::Config`].
    pub fn build(self) -> Result<Server, ServeError> {
        let mut fns = Vec::with_capacity(self.fns.len());
        let mut index = HashMap::new();
        for (key, fun, policy) in self.fns {
            if index.contains_key(&key) {
                return Err(ServeError::Config {
                    what: format!("function key {key:?} registered twice"),
                });
            }
            let cf = self.engine.compile(&fun).map_err(|e| ServeError::Config {
                what: format!("function {key:?} does not compile: {e}"),
            })?;
            // Warm the reverse-mode handle so the first gradient request
            // does not pay derivation+compilation inside a batch. Funs
            // without a usable vjp still serve primal calls; their
            // gradient requests resolve with the derivation error.
            let _ = cf.vjp();
            // Requested warmup lanes: compile each stack now, before the
            // server exists and can admit traffic.
            for stack in &self.warmup {
                let _sp = fir_trace::span("serve", "warmup");
                let _ = cf.transform(stack);
            }
            index.insert(key.clone(), fns.len());
            let mut policy = policy.unwrap_or(self.default_policy);
            // A batch size of zero could never cut.
            policy.max_batch_size = policy.max_batch_size.max(1);
            fns.push(FnEntry {
                key,
                cf,
                policy,
                capacity: self.queue_capacity,
                metrics: FnMetrics::default(),
            });
        }
        let nfns = fns.len();
        let inner = Arc::new(Inner {
            engine: self.engine,
            fns,
            index,
            queues: Mutex::new(Queues {
                shutdown: false,
                drain_deadline: None,
                qs: (0..nfns).map(|_| VecDeque::new()).collect(),
            }),
            work_cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            idle_mu: Mutex::new(()),
            idle_cv: Condvar::new(),
            start: Instant::now(),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("fir-serve-dispatch".to_string())
                .spawn(move || dispatcher_loop(&inner))
                .map_err(|e| ServeError::Config {
                    what: format!("could not spawn dispatcher: {e}"),
                })?
        };
        Ok(Server {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }
}

// ---------------------------------------------------------------------
// Server internals
// ---------------------------------------------------------------------

struct FnEntry {
    key: String,
    cf: CompiledFn,
    policy: BatchPolicy,
    capacity: usize,
    metrics: FnMetrics,
}

/// A queued request: its payload/ticket, plus the timing the batcher and
/// the metrics need.
struct Pending {
    job: Job,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Trace id of the request's async track (0 when tracing is off):
    /// opened at admission, closed at ticket fulfillment, so one Perfetto
    /// track shows the request's whole life across threads.
    trace_id: u64,
}

/// The two request kinds a server accepts: primal calls
/// ([`Server::submit`]) and reverse-mode gradients
/// ([`Server::submit_grad`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestKind {
    Call,
    Grad,
}

/// The two request kinds, each carrying the transform stack it targets.
/// Batches are homogeneous in `(kind, stack)` so one engine-level batch
/// call on one derived program resolves the whole cut.
enum Job {
    Call {
        stack: Vec<Transform>,
        args: Vec<Value>,
        ticket: Arc<TicketState<Vec<Value>>>,
    },
    Grad {
        stack: Vec<Transform>,
        args: Vec<Value>,
        ticket: Arc<TicketState<GradOutput>>,
    },
}

impl Job {
    /// The batching key: requests coalesce only when this matches.
    fn kind(&self) -> (RequestKind, &[Transform]) {
        match self {
            Job::Call { stack, .. } => (RequestKind::Call, stack),
            Job::Grad { stack, .. } => (RequestKind::Grad, stack),
        }
    }
}

struct Queues {
    shutdown: bool,
    /// Set by [`Server::shutdown_within`]: once this instant passes, the
    /// dispatcher sheds still-queued requests instead of dispatching
    /// them, so a bounded shutdown cannot hang on a deep queue.
    drain_deadline: Option<Instant>,
    qs: Vec<VecDeque<Pending>>,
}

struct Inner {
    /// The engine every registered function compiled through — retained
    /// so [`Server::metrics`] can surface its cache counters (in-memory
    /// and, when configured, the persistent on-disk tier).
    engine: Engine,
    fns: Vec<FnEntry>,
    index: HashMap<String, usize>,
    queues: Mutex<Queues>,
    /// Wakes the dispatcher on submissions and shutdown.
    work_cv: Condvar,
    /// Batches dispatched to the pool but not yet resolved.
    in_flight: AtomicUsize,
    idle_mu: Mutex<()>,
    idle_cv: Condvar,
    start: Instant,
}

/// A concurrent serving runtime over one [`Engine`].
///
/// Cheap to share by reference across client threads ([`Server::submit`]
/// takes `&self`). Dropping the server shuts it down gracefully (drains
/// queues, waits for in-flight batches).
pub struct Server {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("fns", &self.fn_keys())
            .finish()
    }
}

impl Server {
    /// The registered function keys, in registration order.
    pub fn fn_keys(&self) -> Vec<String> {
        self.inner.fns.iter().map(|f| f.key.clone()).collect()
    }

    /// Submit a primal-call request; the ticket resolves with the
    /// function's results.
    pub fn submit(&self, req: Request) -> Result<Ticket<Vec<Value>>, ServeError> {
        let idx = self.resolve(&req.fn_key)?;
        let (ticket, state) = Ticket::new();
        self.enqueue(
            idx,
            Job::Call {
                stack: req.transforms,
                args: req.args,
                ticket: state,
            },
            req.deadline,
        )?;
        Ok(ticket)
    }

    /// Submit a reverse-mode gradient request; the ticket resolves with
    /// the typed [`GradOutput`] (auto-derived unit seeds, like
    /// `CompiledFn::grad`). If the request names a transform stack, the
    /// gradient is taken of the *transformed* program.
    pub fn submit_grad(&self, req: Request) -> Result<Ticket<GradOutput>, ServeError> {
        let idx = self.resolve(&req.fn_key)?;
        let (ticket, state) = Ticket::new();
        self.enqueue(
            idx,
            Job::Grad {
                stack: req.transforms,
                args: req.args,
                ticket: state,
            },
            req.deadline,
        )?;
        Ok(ticket)
    }

    /// Submit a primal call and block for its result.
    pub fn call(&self, fn_key: &str, args: Vec<Value>) -> Result<Vec<Value>, ServeError> {
        self.submit(Request::new(fn_key, args))?.wait()
    }

    /// Submit a gradient request and block for its result.
    pub fn grad(&self, fn_key: &str, args: Vec<Value>) -> Result<GradOutput, ServeError> {
        self.submit_grad(Request::new(fn_key, args))?.wait()
    }

    /// A point-in-time snapshot of every function's serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let uptime = self.inner.start.elapsed();
        MetricsSnapshot {
            uptime,
            pool: firvm::pool::WorkerPool::global().utilization(),
            fns: self
                .inner
                .fns
                .iter()
                .map(|f| f.metrics.snapshot(&f.key, uptime))
                .collect(),
            alloc: interp::alloc_stats(),
            cache: Some(self.inner.engine.cache_stats()),
            net: None,
        }
    }

    /// Stop admitting requests, drain every queue through the normal
    /// batch path, wait for in-flight batches to resolve, and return the
    /// final metrics. Every ticket issued before shutdown resolves.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) -> MetricsSnapshot {
        {
            let mut q = self.inner.queues.lock().unwrap();
            q.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        if let Some(handle) = self.dispatcher.lock().unwrap().take() {
            let _ = handle.join();
        }
        // The dispatcher has exited, so every queued request has been
        // dispatched; wait for the pool to resolve the in-flight batches.
        let mut guard = self.inner.idle_mu.lock().unwrap();
        while self.inner.in_flight.load(Ordering::Acquire) != 0 {
            let (g, _) = self
                .inner
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
            guard = g;
        }
        drop(guard);
        self.metrics()
    }

    /// [`Server::shutdown`] with a drain budget: requests still queued
    /// when `timeout` passes are shed (their tickets resolve
    /// [`ServeError::ShuttingDown`], counted in the `shed` metric)
    /// instead of executed, and the wait for in-flight batches is bounded
    /// by the same deadline — so shutdown cannot hang behind a deep queue
    /// or a wedged batch. `Duration::ZERO` sheds everything still queued.
    pub fn shutdown_within(&self, timeout: Duration) -> MetricsSnapshot {
        let deadline = Instant::now() + timeout;
        {
            let mut q = self.inner.queues.lock().unwrap();
            q.shutdown = true;
            q.drain_deadline = Some(deadline);
            self.inner.work_cv.notify_all();
        }
        if let Some(handle) = self.dispatcher.lock().unwrap().take() {
            let _ = handle.join();
        }
        // Bounded in-flight wait: batches already on the pool cannot be
        // recalled, but we stop waiting for them at the deadline (their
        // tickets still resolve whenever the pool gets to them).
        let mut guard = self.inner.idle_mu.lock().unwrap();
        while self.inner.in_flight.load(Ordering::Acquire) != 0 && Instant::now() < deadline {
            let (g, _) = self
                .inner
                .idle_cv
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
            guard = g;
        }
        drop(guard);
        self.metrics()
    }

    fn resolve(&self, fn_key: &str) -> Result<usize, ServeError> {
        self.inner
            .index
            .get(fn_key)
            .copied()
            .ok_or_else(|| ServeError::UnknownFn {
                fn_key: fn_key.to_string(),
                known: self.fn_keys(),
            })
    }

    fn enqueue(&self, idx: usize, job: Job, deadline: Option<Duration>) -> Result<(), ServeError> {
        let entry = &self.inner.fns[idx];
        // Every arrival counts as submitted, and every refusal below as
        // shed, so `submitted == completed + failed + expired + shed`
        // holds once the server is idle.
        entry.metrics.submitted.inc();
        let now = Instant::now();
        let mut q = self.inner.queues.lock().unwrap();
        if q.shutdown {
            entry.metrics.shed.inc();
            return Err(ServeError::ShuttingDown);
        }
        let queue = &mut q.qs[idx];
        if queue.len() >= entry.capacity {
            entry.metrics.shed.inc();
            return Err(ServeError::Overloaded {
                fn_key: entry.key.clone(),
                capacity: entry.capacity,
            });
        }
        let trace_id = if fir_trace::enabled() {
            let id = fir_trace::next_id();
            fir_trace::async_begin("serve", "request", id);
            id
        } else {
            0
        };
        queue.push_back(Pending {
            job,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            trace_id,
        });
        let len = queue.len();
        entry.metrics.queue_depth.set(len);
        drop(q);
        // Wake the dispatcher only on transitions it must see: the first
        // request of an empty queue arms the max_wait timer, and a full
        // batch is ready to cut. Intermediate submissions ride the armed
        // timer — waking the dispatcher per request would burn a core's
        // worth of wakeups exactly when batching is supposed to save it.
        if len == 1 || len >= entry.policy.max_batch_size {
            self.inner.work_cv.notify_all();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Skip if a shutdown (graceful or bounded) already ran — a
        // bounded shutdown's decision not to wait out in-flight batches
        // must not be overridden by an unbounded wait here.
        if self.dispatcher.lock().unwrap().is_some() {
            self.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// Pop a batch homogeneous in `(kind, transform stack)` (at most `max`)
/// off the queue front.
fn cut_batch(queue: &mut VecDeque<Pending>, max: usize) -> Vec<Pending> {
    let (kind, stack) = queue.front().expect("cut of empty queue").job.kind();
    let (kind, stack) = (kind, stack.to_vec());
    let mut batch = Vec::new();
    while batch.len() < max
        && queue
            .front()
            .is_some_and(|p| p.job.kind() == (kind, stack.as_slice()))
    {
        batch.push(queue.pop_front().expect("front checked"));
    }
    batch
}

/// Resolve every still-queued request with [`ServeError::ShuttingDown`]:
/// the bounded-shutdown path for work that could not drain in time. Each
/// shed request counts toward its function's `shed` metric, exactly like
/// a refusal at admission.
fn shed_all(inner: &Inner, q: &mut Queues) {
    for (idx, entry) in inner.fns.iter().enumerate() {
        let queue = &mut q.qs[idx];
        while let Some(p) = queue.pop_front() {
            entry.metrics.shed.inc();
            fir_trace::async_end("serve", "request", p.trace_id, 0);
            match p.job {
                Job::Call { ticket, .. } => ticket.fulfill(Err(ServeError::ShuttingDown)),
                Job::Grad { ticket, .. } => ticket.fulfill(Err(ServeError::ShuttingDown)),
            }
        }
        entry.metrics.queue_depth.set(0);
    }
}

/// The single dispatcher thread: waits for work, cuts ready batches, and
/// submits their execution onto the persistent worker pool. Exits once
/// shutdown is requested and every queue has drained.
fn dispatcher_loop(inner: &Arc<Inner>) {
    let mut q = inner.queues.lock().unwrap();
    loop {
        let now = Instant::now();
        let shutting = q.shutdown;
        // A bounded shutdown whose drain deadline has passed: shed
        // everything still queued instead of dispatching it, and exit.
        if shutting && q.drain_deadline.is_some_and(|d| d <= now) {
            shed_all(inner, &mut q);
            return;
        }
        let mut next_due: Option<Instant> = None;
        let mut cut: Option<(usize, Vec<Pending>)> = None;
        for (idx, entry) in inner.fns.iter().enumerate() {
            let queue = &mut q.qs[idx];
            let Some(front) = queue.front() else { continue };
            let pol = entry.policy;
            let due = front.enqueued + pol.max_wait;
            if shutting || queue.len() >= pol.max_batch_size || due <= now {
                let batch = cut_batch(queue, pol.max_batch_size);
                entry.metrics.queue_depth.set(queue.len());
                cut = Some((idx, batch));
                break;
            }
            next_due = Some(next_due.map_or(due, |d: Instant| d.min(due)));
        }
        if let Some((idx, batch)) = cut {
            // Count the batch in-flight *before* releasing the queue lock
            // so shutdown cannot observe "queues empty, nothing in
            // flight" between the cut and the pool submission.
            inner.in_flight.fetch_add(1, Ordering::AcqRel);
            drop(q);
            let inner2 = Arc::clone(inner);
            firvm::pool::submit(move || execute_batch(&inner2, idx, batch));
            q = inner.queues.lock().unwrap();
            continue;
        }
        if q.shutdown {
            // Shutdown requested and every queue is empty: done.
            return;
        }
        q = match next_due {
            // A queue is non-empty but not yet due: sleep until its
            // max_wait expires (or a submission wakes us early).
            Some(due) => {
                let timeout = due.saturating_duration_since(now);
                inner.work_cv.wait_timeout(q, timeout).unwrap().0
            }
            None => inner.work_cv.wait(q).unwrap(),
        };
    }
}

/// Execute one homogeneous micro-batch on the pool: drop expired
/// requests, run the engine batch call on the requested transform stack,
/// resolve every ticket with its own outcome, and record metrics.
/// One request's completion context within a lane: its enqueue time,
/// trace id, and the ticket to fulfill.
type Slot<T> = (Instant, u64, Arc<TicketState<T>>);

/// One `(kind, stack)`'s share of a cut batch: the argument lists plus
/// each request's completion slot.
type Lane<T> = (Vec<Vec<Value>>, Vec<Slot<T>>);

/// The lane for `stack` in `lanes`, created on first use. (cut_batch
/// produces stack-homogeneous batches, so in practice there is exactly
/// one lane per kind — but the executor does not rely on it.)
fn lane_for<T>(lanes: &mut Vec<(Vec<Transform>, Lane<T>)>, stack: Vec<Transform>) -> &mut Lane<T> {
    if let Some(i) = lanes.iter().position(|(s, _)| *s == stack) {
        return &mut lanes[i].1;
    }
    lanes.push((stack, Default::default()));
    &mut lanes.last_mut().expect("just pushed").1
}

fn execute_batch(inner: &Inner, idx: usize, batch: Vec<Pending>) {
    let entry = &inner.fns[idx];
    let now = Instant::now();
    // Partition the cut: expired requests resolve immediately, the rest
    // split by (kind, transform stack). (cut_batch produces homogeneous
    // batches, but the executor does not rely on it — nothing here can
    // panic, so every ticket provably reaches one of the resolution
    // paths below.)
    let mut calls: Vec<(Vec<Transform>, Lane<Vec<Value>>)> = Vec::new();
    let mut grads: Vec<(Vec<Transform>, Lane<GradOutput>)> = Vec::new();
    let mut live = 0usize;
    for p in batch {
        if p.deadline.is_some_and(|d| d <= now) {
            entry.metrics.expired.inc();
            let waited = now.saturating_duration_since(p.enqueued);
            let err = ServeError::DeadlineExceeded {
                fn_key: entry.key.clone(),
                waited,
            };
            fir_trace::async_end("serve", "request", p.trace_id, 0);
            match p.job {
                Job::Call { ticket, .. } => ticket.fulfill(Err(err)),
                Job::Grad { ticket, .. } => ticket.fulfill(Err(err)),
            }
        } else {
            live += 1;
            match p.job {
                Job::Call {
                    stack,
                    args,
                    ticket,
                } => {
                    let lane = lane_for(&mut calls, stack);
                    lane.0.push(args);
                    lane.1.push((p.enqueued, p.trace_id, ticket));
                }
                Job::Grad {
                    stack,
                    args,
                    ticket,
                } => {
                    let lane = lane_for(&mut grads, stack);
                    lane.0.push(args);
                    lane.1.push((p.enqueued, p.trace_id, ticket));
                }
            }
        }
    }
    if live > 0 {
        entry.metrics.batches.inc();
        entry.metrics.batch_sizes.record(live as u64);
        // The batch id ties each request's async track to the span of the
        // batch it rode in (the span's `id`, each request's end `arg`).
        let batch_id = if fir_trace::enabled() {
            fir_trace::next_id()
        } else {
            0
        };
        let _batch_span = fir_trace::span_with_id("serve", "batch", batch_id).with_arg(live as u64);
        for (stack, (argss, tickets)) in calls {
            run_calls(entry, &stack, &argss, tickets, batch_id);
        }
        for (stack, (argss, tickets)) in grads {
            run_grads(entry, &stack, &argss, tickets, batch_id);
        }
    }
    if inner.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _guard = inner.idle_mu.lock().unwrap();
        inner.idle_cv.notify_all();
    }
}

/// The error every ticket of a batch receives when the engine call
/// panicked (contained by `catch_unwind`): the server stays up, the
/// requests fail loudly instead of hanging their clients.
fn panic_error(fn_key: &str) -> ServeError {
    ServeError::Internal {
        what: format!("batch execution for {fn_key:?} panicked"),
    }
}

fn resolve_one<T>(
    entry: &FnEntry,
    enqueued: Instant,
    trace_id: u64,
    batch_id: u64,
    ticket: &TicketState<T>,
    result: Result<T, ServeError>,
) {
    if result.is_ok() {
        entry.metrics.completed.inc();
    } else {
        entry.metrics.failed.inc();
    }
    entry
        .metrics
        .latency_us
        .record(enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64);
    fir_trace::async_end("serve", "request", trace_id, batch_id);
    ticket.fulfill(result);
}

fn run_calls(
    entry: &FnEntry,
    stack: &[Transform],
    argss: &[Vec<Value>],
    tickets: Vec<Slot<Vec<Value>>>,
    batch_id: u64,
) {
    // Both backends catch residual panics, but a panic escaping here
    // would strand every ticket of the batch (clients and shutdown would
    // wait forever) — contain it and fail the requests instead.
    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The derived program compiles once per (key, stack) and is
        // answered from the engine cache on every later batch.
        entry.cf.transform(stack).map(|cf| cf.call_batch(argss))
    }));
    match results {
        Ok(Ok(results)) => {
            for ((enqueued, tid, ticket), result) in tickets.into_iter().zip(results) {
                resolve_one(
                    entry,
                    enqueued,
                    tid,
                    batch_id,
                    &ticket,
                    result.map_err(ServeError::Exec),
                );
            }
        }
        // Transform-level failure (the stack does not apply to this
        // function): every request in the lane fails the same way.
        Ok(Err(e)) => {
            for (enqueued, tid, ticket) in tickets {
                resolve_one(
                    entry,
                    enqueued,
                    tid,
                    batch_id,
                    &ticket,
                    Err(ServeError::Exec(e.clone())),
                );
            }
        }
        Err(_) => {
            for (enqueued, tid, ticket) in tickets {
                resolve_one(
                    entry,
                    enqueued,
                    tid,
                    batch_id,
                    &ticket,
                    Err(panic_error(&entry.key)),
                );
            }
        }
    }
}

fn run_grads(
    entry: &FnEntry,
    stack: &[Transform],
    argss: &[Vec<Value>],
    tickets: Vec<Slot<GradOutput>>,
    batch_id: u64,
) {
    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        entry
            .cf
            .transform(stack)
            .and_then(|cf| cf.grad_batch(argss))
    }));
    match results {
        Ok(Ok(results)) => {
            for ((enqueued, tid, ticket), result) in tickets.into_iter().zip(results) {
                resolve_one(
                    entry,
                    enqueued,
                    tid,
                    batch_id,
                    &ticket,
                    result.map_err(ServeError::Exec),
                );
            }
        }
        // Function-level failure (the stack does not apply, vjp does not
        // compile, nothing to seed): every request fails the same way.
        Ok(Err(e)) => {
            for (enqueued, tid, ticket) in tickets {
                resolve_one(
                    entry,
                    enqueued,
                    tid,
                    batch_id,
                    &ticket,
                    Err(ServeError::Exec(e.clone())),
                );
            }
        }
        Err(_) => {
            for (enqueued, tid, ticket) in tickets {
                resolve_one(
                    entry,
                    enqueued,
                    tid,
                    batch_id,
                    &ticket,
                    Err(panic_error(&entry.key)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    fn dot() -> Fun {
        let mut b = Builder::new();
        b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), es[1].into())]
            });
            vec![b.sum(prods).into()]
        })
    }

    fn dot_args(x: f64) -> Vec<Value> {
        vec![
            Value::from(vec![x, 2.0, 3.0]),
            Value::from(vec![4.0, 5.0, 6.0]),
        ]
    }

    fn server() -> Server {
        ServerBuilder::new(Engine::new())
            .register("dot", &dot())
            .build()
            .unwrap()
    }

    #[test]
    fn call_and_grad_resolve_with_engine_parity() {
        let srv = server();
        let out = srv.call("dot", dot_args(1.0)).unwrap();
        assert_eq!(out[0].as_f64(), 32.0);
        let g = srv.grad("dot", dot_args(1.0)).unwrap();
        assert_eq!(g.scalar(), 32.0);
        assert_eq!(g.grads[0].as_arr().f64s(), &[4.0, 5.0, 6.0]);
        let m = srv.shutdown();
        assert_eq!(m.fns[0].completed, 2);
        assert_eq!(m.fns[0].failed, 0);
        assert!(m.fns[0].batches >= 1);
    }

    #[test]
    fn unknown_keys_and_shutdown_are_rejected() {
        let srv = server();
        match srv.call("nope", vec![]) {
            Err(ServeError::UnknownFn { fn_key, known }) => {
                assert_eq!(fn_key, "nope");
                assert_eq!(known, vec!["dot".to_string()]);
            }
            other => panic!("expected UnknownFn, got {other:?}"),
        }
        srv.shutdown();
        assert_eq!(
            srv.submit(Request::new("dot", dot_args(1.0))).err(),
            Some(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn duplicate_keys_fail_at_build() {
        let err = ServerBuilder::new(Engine::new())
            .register("dot", &dot())
            .register("dot", &dot())
            .build()
            .expect_err("duplicate key must be rejected");
        assert!(matches!(err, ServeError::Config { .. }), "{err}");
    }

    #[test]
    fn a_bad_request_does_not_fail_its_batchmates() {
        // A long max_wait coalesces the three requests into one batch.
        let srv = ServerBuilder::new(Engine::new())
            .batch_policy(BatchPolicy {
                max_batch_size: 8,
                max_wait: Duration::from_millis(100),
            })
            .register("dot", &dot())
            .build()
            .unwrap();
        let good1 = srv.submit(Request::new("dot", dot_args(1.0))).unwrap();
        let bad = srv
            .submit(Request::new("dot", vec![Value::F64(13.0)]))
            .unwrap();
        let good2 = srv.submit(Request::new("dot", dot_args(10.0))).unwrap();
        assert_eq!(good1.wait().unwrap()[0].as_f64(), 32.0);
        assert!(matches!(bad.wait(), Err(ServeError::Exec(_))));
        assert_eq!(good2.wait().unwrap()[0].as_f64(), 68.0);
        let m = srv.shutdown();
        assert_eq!((m.fns[0].completed, m.fns[0].failed), (2, 1));
        // One coalesced batch of three (the dispatcher may legitimately
        // cut earlier under load, so allow 1..=3).
        assert!((1..=3).contains(&m.fns[0].batches));
    }

    #[test]
    fn full_queues_shed_with_overloaded() {
        // max_wait keeps the dispatcher asleep while we overfill.
        let srv = ServerBuilder::new(Engine::new())
            .batch_policy(BatchPolicy {
                max_batch_size: 64,
                max_wait: Duration::from_millis(250),
            })
            .queue_capacity(2)
            .register("dot", &dot())
            .build()
            .unwrap();
        let mut tickets = Vec::new();
        let mut shed = 0;
        for i in 0..6 {
            match srv.submit(Request::new("dot", dot_args(i as f64))) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Overloaded { fn_key, capacity }) => {
                    assert_eq!((fn_key.as_str(), capacity), ("dot", 2));
                    shed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(shed >= 1, "capacity-2 queue must shed some of 6 submits");
        // Admitted requests still resolve (shutdown drains the queue).
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        let m = srv.shutdown();
        assert_eq!(m.fns[0].shed, shed);
    }

    #[test]
    fn zero_deadline_requests_expire_instead_of_executing() {
        let srv = ServerBuilder::new(Engine::new())
            .batch_policy(BatchPolicy {
                max_batch_size: 8,
                max_wait: Duration::from_millis(20),
            })
            .register("dot", &dot())
            .build()
            .unwrap();
        let t = srv
            .submit(Request::new("dot", dot_args(1.0)).with_deadline(Duration::ZERO))
            .unwrap();
        match t.wait() {
            Err(ServeError::DeadlineExceeded { fn_key, .. }) => assert_eq!(fn_key, "dot"),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let m = srv.shutdown();
        assert_eq!(m.fns[0].expired, 1);
        assert_eq!(m.fns[0].completed, 0);
    }

    #[test]
    fn transformed_requests_resolve_against_the_engine_transform() {
        // One server, a long max_wait so same-stack requests coalesce.
        let engine = Engine::new();
        let srv = ServerBuilder::new(engine.clone())
            .batch_policy(BatchPolicy {
                max_batch_size: 8,
                max_wait: Duration::from_millis(50),
            })
            .register("dot", &dot())
            .build()
            .unwrap();
        let reference = engine.compile(&dot()).unwrap();
        // A [Vjp] request passes explicit seeds and gets primal+adjoints.
        let mut seeded = dot_args(1.0);
        seeded.push(Value::F64(1.0));
        let vjp_t = srv
            .submit(Request::new("dot", seeded.clone()).with_transforms([Transform::Vjp]))
            .unwrap();
        // An untransformed request from the same window batches separately.
        let plain_t = srv.submit(Request::new("dot", dot_args(1.0))).unwrap();
        let want = reference.vjp().unwrap().call(&seeded).unwrap();
        let got = vjp_t.wait().unwrap();
        assert_eq!(got.len(), want.len());
        for (w, g) in want.iter().zip(&got) {
            match (w, g) {
                (Value::F64(a), Value::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (Value::Arr(a), Value::Arr(b)) => assert_eq!(a.f64s(), b.f64s()),
                other => panic!("unexpected pair {other:?}"),
            }
        }
        assert_eq!(plain_t.wait().unwrap()[0].as_f64(), 32.0);
        srv.shutdown();
    }

    #[test]
    fn a_stack_that_does_not_apply_fails_its_own_tickets_only() {
        // vmap of a nullary function cannot derive: the transformed
        // request resolves with the derivation error while plain requests
        // to the same key keep succeeding.
        let mut b = Builder::new();
        let konst = b.build_fun("konst", &[], |_, _| vec![fir::ir::Atom::f64(7.0)]);
        let srv = ServerBuilder::new(Engine::new())
            .register("konst", &konst)
            .build()
            .unwrap();
        let doomed = srv
            .submit(Request::new("konst", vec![]).with_transforms([Transform::Vmap]))
            .unwrap();
        let fine = srv.submit(Request::new("konst", vec![])).unwrap();
        assert!(matches!(doomed.wait(), Err(ServeError::Exec(_))));
        assert_eq!(fine.wait().unwrap()[0].as_f64(), 7.0);
        srv.shutdown();
    }

    #[test]
    fn mixed_stacks_batch_homogeneously() {
        // Same function, two different stacks + plain calls submitted in
        // one wait window: every ticket resolves with its own stack's
        // result (the cut never mixes stacks into one engine call).
        let engine = Engine::new();
        let srv = ServerBuilder::new(engine.clone())
            .batch_policy(BatchPolicy {
                max_batch_size: 16,
                max_wait: Duration::from_millis(80),
            })
            .register("dot", &dot())
            .build()
            .unwrap();
        let reference = engine.compile(&dot()).unwrap();
        let mut tickets = Vec::new();
        for i in 0..4 {
            let args = dot_args(i as f64);
            let mut seeded = args.clone();
            seeded.push(Value::F64(1.0));
            tickets.push((
                args.clone(),
                srv.submit(Request::new("dot", args.clone())).unwrap(),
                srv.submit(Request::new("dot", seeded).with_transforms([Transform::Vjp]))
                    .unwrap(),
            ));
        }
        for (args, plain, vjp) in tickets {
            let want = reference.call(&args).unwrap();
            assert_eq!(
                plain.wait().unwrap()[0].as_f64().to_bits(),
                want[0].as_f64().to_bits()
            );
            let g = reference.grad(&args).unwrap();
            let got = vjp.wait().unwrap();
            assert_eq!(got[0].as_f64().to_bits(), g.scalar().to_bits());
            assert_eq!(got[1].as_arr().f64s(), g.grads[0].as_arr().f64s());
        }
        srv.shutdown();
    }

    #[test]
    fn registered_fns_share_the_engine_cache() {
        let engine = Engine::new();
        let srv = ServerBuilder::new(engine.clone())
            .register("a", &dot())
            .register("b", &dot()) // structurally identical: cache hit
            .build()
            .unwrap();
        assert!(engine.cache_stats().hits >= 1);
        srv.shutdown();
    }
}
