//! `fir-serve` — a concurrent serving runtime over the staged
//! [`fir_api::Engine`]: dynamic micro-batching, admission control, and
//! live metrics.
//!
//! PR 2's `CompiledFn::call_batch`/`grad_batch` proved that batching
//! amortizes dispatch across the persistent worker pool — but only for a
//! caller that already *has* a batch in hand. This crate closes the gap
//! between "fast compiled kernels" and "fast service": many client
//! threads submit small independent requests (the paper's GMM / k-means
//! / LSTM objective and gradient evaluations are exactly this shape),
//! and the runtime coalesces them into engine-level batches.
//!
//! ```text
//!  clients                server                       firvm runtime
//!  ───────                ──────                       ─────────────
//!  submit(Request)──► [bounded queue per fn]
//!  submit(Request)──► [bounded queue per fn] ──► dispatcher thread
//!       ▲  shed:            │                        │ cuts micro-batches
//!       │  Overloaded       │ max_batch_size /       │ (homogeneous kind)
//!    Ticket::wait ◄─────────┘ max_wait policy        ▼
//!       ▲                                    pool::submit(batch)
//!       │                                            │
//!       └──── per-request Result ◄── call_batch / grad_batch
//!                                     (one bad request ≠ failed batch)
//! ```
//!
//! * [`ServerBuilder`] registers many compiled functions behind one
//!   runtime; all of them share one engine (and its fingerprint cache).
//! * The **micro-batcher** cuts a batch per function when
//!   [`BatchPolicy::max_batch_size`] requests are queued or the oldest
//!   has waited [`BatchPolicy::max_wait`]. Execution is scheduled on the
//!   persistent `firvm` worker pool — the same workers that run SOAC
//!   chunks, so the process has exactly one thread pool.
//! * **Admission control**: bounded per-function queues shed with
//!   [`ServeError::Overloaded`]; [`Server::shutdown`] stops admission and
//!   drains everything in flight. Per-request deadlines expire queued
//!   work with [`ServeError::DeadlineExceeded`].
//! * **Metrics**: lock-free counters and log-scaled histograms per
//!   function — throughput, queue depth, batch-size distribution,
//!   p50/p95/p99 latency — snapshotted as a machine-readable JSON
//!   ([`MetricsSnapshot::to_json`]).
//!
//! # Example
//!
//! ```
//! use fir::builder::Builder;
//! use fir::types::Type;
//! use fir_api::Engine;
//! use fir_serve::{BatchPolicy, Request, ServerBuilder};
//! use interp::Value;
//! use std::time::Duration;
//!
//! let mut b = Builder::new();
//! let sq = b.build_fun("sqsum", &[Type::arr_f64(1)], |b, ps| {
//!     let s = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
//!         vec![b.fmul(es[0].into(), es[0].into())]
//!     });
//!     vec![b.sum(s).into()]
//! });
//!
//! let server = ServerBuilder::new(Engine::new())
//!     .batch_policy(BatchPolicy { max_batch_size: 16, max_wait: Duration::from_micros(200) })
//!     .register("sqsum", &sq)
//!     .build()?;
//!
//! // Submit from any thread; the ticket is a typed future.
//! let ticket = server.submit_grad(Request::new("sqsum", vec![Value::from(vec![1.0, 2.0])]))?;
//! let grad = ticket.wait()?;
//! assert_eq!(grad.scalar(), 5.0);
//! assert_eq!(grad.grads[0].as_arr().f64s(), &[2.0, 4.0]);
//!
//! let metrics = server.shutdown(); // graceful: drains, then reports
//! assert_eq!(metrics.completed(), 1);
//! # Ok::<(), fir_serve::ServeError>(())
//! ```

pub mod error;
pub mod metrics;
pub mod server;
pub mod ticket;

pub use error::ServeError;
pub use fir_api::Transform;
pub use metrics::{
    FnMetricsSnapshot, HistogramSnapshot, MetricsSnapshot, NetStatsSnapshot, TenantCountersSnapshot,
};
pub use server::{BatchPolicy, Request, Server, ServerBuilder};
pub use ticket::Ticket;
