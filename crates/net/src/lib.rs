//! `fir-net` — the network-facing serving tier: a TCP wire protocol in
//! front of one [`fir_serve`] runtime, with per-tenant fairness.
//!
//! The layers, bottom to top:
//!
//! * [`wire`] — length-prefixed JSON frames; a value codec that
//!   round-trips every [`interp::Value`] **bitwise** (NaN, `-0.0`, and
//!   full 64-bit integers included); typed errors on hostile input,
//!   never panics. Zero dependencies: frames are parsed with the strict
//!   [`fir_trace::json`] parser.
//! * [`NetServer`] / [`NetServerBuilder`] — an accept loop and
//!   connection-handler pool over one [`fir_serve::Server`] (one
//!   dispatcher, bounded per-function queues, a static
//!   [`fir_serve::BatchPolicy`]).
//! * [`tenant`] — token-bucket quotas plus weighted fair-sharing of
//!   in-flight capacity; sheds are typed `overloaded` errors naming the
//!   throttled tenant.
//! * [`NetClient`] — a blocking client with optional pipelining.
//!
//! # Example
//!
//! ```
//! use fir::builder::Builder;
//! use fir::types::Type;
//! use fir_api::Engine;
//! use fir_net::{NetClient, NetServerBuilder};
//! use interp::Value;
//!
//! let mut b = Builder::new();
//! let sq = b.build_fun("sqsum", &[Type::arr_f64(1)], |b, ps| {
//!     let s = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
//!         vec![b.fmul(es[0].into(), es[0].into())]
//!     });
//!     vec![b.sum(s).into()]
//! });
//!
//! let server = NetServerBuilder::new(Engine::new())
//!     .register("sqsum", &sq)
//!     .bind("127.0.0.1:0")?;
//!
//! let mut client = NetClient::connect(&server.local_addr().to_string())?;
//! let out = client.call("sqsum", vec![Value::from(vec![1.0, 2.0])])?;
//! assert_eq!(out[0].as_f64(), 5.0);
//! let g = client.grad("sqsum", vec![Value::from(vec![1.0, 2.0])])?;
//! assert_eq!(g.grads[0].as_arr().f64s(), &[2.0, 4.0]);
//! server.shutdown();
//! # Ok::<(), fir_net::NetError>(())
//! ```

pub mod client;
pub mod error;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::NetClient;
pub use error::{FrameError, NetError, WireError};
pub use fir_serve::Transform;
pub use server::{NetServer, NetServerBuilder};
pub use tenant::{TenantConfig, TenantGov, TenantPolicy};
pub use wire::{WireRequest, WireResponse, MAX_FRAME};
