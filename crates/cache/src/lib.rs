//! # fir-cache — persistent on-disk compile cache
//!
//! Compiling a function is the expensive part of serving it: typecheck,
//! derivative transforms, the optimization pipeline, and bytecode
//! compilation together dwarf the cost of reading a few kilobytes back
//! from disk. This crate makes compilation results durable across
//! processes:
//!
//! - `codec`: a versioned binary codec for [`firvm::Program`] bytecode
//!   and `fir` IR — framed documents with a magic header, an explicit
//!   format version, and a payload checksum. Decoding hostile, truncated,
//!   or corrupt bytes returns a typed [`CacheError`], never a panic, and
//!   every decoded program is structurally validated before the VM sees
//!   it.
//! - `store`: a directory of atomically-written entries keyed by
//!   `(structural fingerprint, transform stack, pipeline, backend)`. Any
//!   mismatch — including a format-version bump or an entry another
//!   compiler revision wrote — falls back to a recompile that overwrites
//!   the stale entry.
//!
//! The engine integration (consulting the store before `prepare`,
//! writing back after, warmup) lives in `fir-api`/`fir-serve`; this crate
//! deliberately depends only on `fir` and `firvm` so it can be reused by
//! any embedder.

mod codec;
mod store;

pub use codec::{
    decode_fun, decode_program, encode_fun, encode_program, fnv1a, validate_program, CacheError,
    FORMAT_VERSION, MAGIC,
};
pub use store::{
    decode_entry, encode_entry, CachedEntry, PersistentStats, Store, StoreKey, COMPILER_REVISION,
};
