//! `fir-api` — the staged public API of the reproduction: compile once,
//! derive AD transforms lazily, execute hot (and batched) through one
//! engine.
//!
//! The paper's workflow is inherently staged — build IR, apply `vjp`/`jvp`,
//! simplify, then execute repeatedly on a parallel backend. This crate is
//! that workflow as a first-class API:
//!
//! * [`Engine`] owns an execution backend (selected through the single
//!   [`backend_by_name`] registry), a configurable [`PassPipeline`] of
//!   `fir_opt` simplification passes, and a structural-fingerprint cache
//!   of compiled programs.
//! * [`Engine::compile`] type-checks up front and returns a
//!   [`CompiledFn`]; malformed IR and malformed arguments surface as
//!   [`FirError`] — never a panic.
//! * [`CompiledFn::transform`] applies a stack of [`Transform`]s (`Vjp`,
//!   `Jvp`, `Vmap`) left to right — `f.vjp()?.vmap()?` is the
//!   per-example-gradient program `vmap(vjp(f))` — each derived from the
//!   pre-pipeline source and compiled once per distinct
//!   `(source fingerprint, stack)` through the shared engine cache. The
//!   seeded wrappers [`CompiledFn::grad`], [`CompiledFn::pushforward`]
//!   and [`CompiledFn::hvp`] insert unit adjoint seeds and zero tangents
//!   automatically, returning the typed [`GradOutput`] / [`Dual`] structs.
//! * [`CompiledFn::call_batch`] / [`CompiledFn::grad_batch`] execute a
//!   batch of independent requests concurrently on the persistent worker
//!   pool, one `Result` per request — the building blocks for
//!   serving-scale deployments.
//!
//! # Example
//!
//! ```
//! use fir::builder::Builder;
//! use fir::types::Type;
//! use fir_api::Engine;
//! use interp::Value;
//!
//! // f(xs, ys) = Σ xs·ys
//! let mut b = Builder::new();
//! let dot = b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
//!     let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
//!         vec![b.fmul(es[0].into(), es[1].into())]
//!     });
//!     vec![b.sum(prods).into()]
//! });
//!
//! let engine = Engine::new(); // compiled VM backend, standard pipeline
//! let f = engine.compile(&dot)?;
//! let xs = Value::from(vec![1.0, 2.0, 3.0]);
//! let ys = Value::from(vec![4.0, 5.0, 6.0]);
//! assert_eq!(f.call_scalar(&[xs.clone(), ys.clone()])?, 32.0);
//!
//! // Reverse mode with an auto-derived unit seed:
//! let g = f.grad(&[xs, ys])?;
//! assert_eq!(g.scalar(), 32.0);
//! assert_eq!(g.grads[0].as_arr().f64s(), &[4.0, 5.0, 6.0]); // d/dxs = ys
//! assert_eq!(g.grads[1].as_arr().f64s(), &[1.0, 2.0, 3.0]); // d/dys = xs
//! # Ok::<(), fir_api::FirError>(())
//! ```
//!
//! Unknown backend names are errors that list the valid names:
//!
//! ```
//! use fir_api::{Engine, FirError};
//!
//! match Engine::by_name("cuda") {
//!     Err(FirError::UnknownBackend { name, known }) => {
//!         assert_eq!(name, "cuda");
//!         assert!(known.contains(&"vm"));
//!     }
//!     Ok(_) => panic!("\"cuda\" should not resolve"),
//!     Err(e) => panic!("{e}"),
//! }
//! ```

pub mod batch;
pub mod engine;
pub mod error;
pub mod pipeline;
pub mod registry;
pub mod transform;

pub use engine::{
    CacheStats, CompiledFn, Dual, Engine, EngineBuilder, GradOutput, OptStats, TierStats,
    DEFAULT_CACHE_CAPACITY,
};
pub use error::FirError;
pub use fir_cache::PersistentStats;
pub use pipeline::{Pass, PassPipeline, PipelineStats};
pub use registry::{backend_by_name, default_backend_name, BACKEND_ENV_VAR, BACKEND_NAMES};
pub use transform::Transform;
