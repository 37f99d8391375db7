//! `futhark-ad-repro` — umbrella crate for the reproduction of
//! *"AD for an Array Language with Nested Parallelism"* (SC 2022).
//!
//! The **primary entry point** is the staged API of [`fir_api`], re-exported
//! here: build IR with [`fir`]'s `Builder`, compile it with an
//! [`Engine`], and use the [`CompiledFn`] handle to execute, batch, and
//! derive AD transforms:
//!
//! ```
//! use fir::builder::Builder;
//! use fir::types::Type;
//! use futhark_ad_repro::Engine;
//! use interp::Value;
//!
//! let mut b = Builder::new();
//! let square_sum = b.build_fun("sqsum", &[Type::arr_f64(1)], |b, ps| {
//!     let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
//!         vec![b.fmul(es[0].into(), es[0].into())]
//!     });
//!     vec![b.sum(sq).into()]
//! });
//!
//! let engine = Engine::new();
//! let f = engine.compile(&square_sum)?;
//! let g = f.grad(&[Value::from(vec![1.0, 2.0, 3.0])])?;
//! assert_eq!(g.scalar(), 14.0);
//! assert_eq!(g.grads[0].as_arr().f64s(), &[2.0, 4.0, 6.0]);
//! # Ok::<(), futhark_ad_repro::FirError>(())
//! ```
//!
//! The crates of the workspace are re-exported as well, for callers that
//! work below the staged API:
//!
//! * [`fir`] — the nested-parallel array IR,
//! * [`fir_api`] — the staged `Engine`/`CompiledFn` API (this crate's
//!   primary surface),
//! * [`interp`] — the bulk-parallel tree-walking evaluator,
//! * [`firvm`] — the compiled register-bytecode VM backend (both execution
//!   backends implement the two-phase [`interp::Backend`] trait),
//! * [`futhark_ad`] — forward (`jvp`) and reverse (`vjp`) AD (the paper's
//!   contribution),
//! * [`fir_opt`] — simplification passes,
//! * [`fir_cache`] — the persistent on-disk compile cache (versioned
//!   bytecode codec + fingerprint-keyed store) behind
//!   [`EngineBuilder::persistent_cache`],
//! * [`fir_serve`] — the concurrent serving runtime (dynamic
//!   micro-batching, admission control, live metrics) over an `Engine`,
//! * [`fir_net`] — the network-facing tier over `fir_serve`: TCP wire
//!   protocol, pipelined connections, per-tenant fairness,
//! * [`fir_trace`] — structured tracing/profiling (Chrome trace export,
//!   per-phase profile reports) recorded by every layer above,
//! * [`tape_ad`] — the tape-based (Tapenade-like) baseline,
//! * [`tensor`] — the eager autograd (PyTorch-like) baseline,
//! * [`workloads`] — the nine evaluation benchmarks.

pub use fir;
pub use fir_api;
pub use fir_cache;
pub use fir_net;
pub use fir_opt;
pub use fir_serve;
pub use fir_trace;
pub use firvm;
pub use futhark_ad;
pub use interp;
pub use tape_ad;
pub use tensor;
pub use workloads;

pub use fir_api::{
    CacheStats, CompiledFn, Dual, Engine, EngineBuilder, FirError, GradOutput, OptStats, Pass,
    PassPipeline, PersistentStats, PipelineStats, Transform, BACKEND_NAMES,
};
pub use fir_net::{NetClient, NetError, NetServer, NetServerBuilder, TenantConfig, TenantPolicy};
pub use fir_serve::{BatchPolicy, Request, ServeError, Server, ServerBuilder, Ticket};
