//! The compiled-program cache.
//!
//! `vjp`/`jvp` are IR-to-IR transformations: callers typically transform an
//! objective once and then run the derivative thousands of times (training
//! loops, Newton iterations, benchmark reps). The cache makes the backend
//! match that usage: programs are keyed by a structural fingerprint of the
//! function, so repeated `Vm::run` calls with the same (or a re-built but
//! identical) `Fun` compile exactly once. Colliding fingerprints fall back
//! to a full structural comparison, so a hash collision can cost a
//! recompile but never run the wrong program.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use fir::ir::{Atom, Body, Const, Exp, Fun, Lambda, Param, Stm};

use crate::bytecode::Program;
use crate::compile::compile;

/// All distinct programs sharing one primary fingerprint, disambiguated by
/// an independent secondary fingerprint. Identity needs 128 matching hash
/// bits, so collisions are out of reach; hashing (over `f64::to_bits`) also
/// identifies NaN constants correctly, which derived `PartialEq` on `Fun`
/// would not (a NaN-containing function would never equal itself and would
/// recompile on every run).
type FingerprintBucket = Vec<(u64, Arc<Program>)>;

/// Default capacity bound: enough for every workload, AD transform and
/// benchmark in this repository at once, small enough that a process
/// generating unbounded fresh IR (e.g. a fuzzer) cannot leak memory
/// through the cache.
const DEFAULT_CAPACITY: usize = 512;

/// A cache of compiled programs, bounded by a program count: when an
/// insertion would exceed the capacity the cache is flushed wholesale
/// (compilation is milliseconds; an LRU would be complexity without a
/// workload that needs it).
#[derive(Debug)]
pub struct ProgramCache {
    map: Mutex<HashMap<u64, FingerprintBucket>>,
    capacity: usize,
}

impl Default for ProgramCache {
    fn default() -> ProgramCache {
        ProgramCache::new()
    }
}

impl ProgramCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> ProgramCache {
        ProgramCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache that holds at most `capacity` programs.
    pub fn with_capacity(capacity: usize) -> ProgramCache {
        ProgramCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
        }
    }

    /// The shared process-wide cache.
    pub fn global() -> &'static ProgramCache {
        static GLOBAL: OnceLock<ProgramCache> = OnceLock::new();
        GLOBAL.get_or_init(ProgramCache::new)
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().values().map(|v| v.len()).sum()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the compiled program for `fun`, compiling on first sight.
    pub fn get_or_compile(&self, fun: &Fun) -> Arc<Program> {
        let key = fingerprint_salted(fun, 0);
        let key2 = fingerprint_salted(fun, 1);
        {
            let map = self.map.lock().unwrap();
            if let Some(entries) = map.get(&key) {
                for (fp2, prog) in entries {
                    if *fp2 == key2 {
                        return Arc::clone(prog);
                    }
                }
            }
        }
        // Compile outside the lock: compilation can be slow and other
        // threads may want unrelated programs meanwhile.
        self.insert(key, key2, compile(fun))
    }

    /// Insert an externally compiled program (e.g. decoded from a
    /// persistent on-disk cache) under `fun`'s fingerprint. On a race with
    /// a concurrent compile or adopt of the same function, the first entry
    /// wins and is returned.
    pub fn adopt(&self, fun: &Fun, prog: Program) -> Arc<Program> {
        self.insert(fingerprint_salted(fun, 0), fingerprint_salted(fun, 1), prog)
    }

    fn insert(&self, key: u64, key2: u64, prog: Program) -> Arc<Program> {
        let prog = Arc::new(prog);
        let mut map = self.map.lock().unwrap();
        let entries = map.entry(key).or_default();
        // Re-check: another thread may have inserted the same function.
        for (fp2, cached) in entries.iter() {
            if *fp2 == key2 {
                return Arc::clone(cached);
            }
        }
        entries.push((key2, Arc::clone(&prog)));
        let total: usize = map.values().map(|v| v.len()).sum();
        if total > self.capacity {
            // Bound the cache: flush everything but the entry just
            // inserted. Outstanding Arc<Program> handles stay valid.
            map.retain(|_, v| {
                v.retain(|(_, p)| Arc::ptr_eq(p, &prog));
                !v.is_empty()
            });
        }
        prog
    }
}

/// A structural fingerprint of a function: stable across identically
/// re-built IR (same names, constants, structure), independent of heap
/// addresses.
pub fn fingerprint(fun: &Fun) -> u64 {
    fingerprint_salted(fun, 0)
}

/// The 128-bit structural identity used by the caches: two independent
/// salted fingerprints. Exposed so higher layers (the `fir-api` engine's
/// compiled-function cache) key on the same identity as this crate.
pub fn fingerprint_pair(fun: &Fun) -> (u64, u64) {
    (fingerprint_salted(fun, 0), fingerprint_salted(fun, 1))
}

/// Fingerprint with a salt: different salts give (effectively) independent
/// hash functions, which the cache combines into a 128-bit identity.
fn fingerprint_salted(fun: &Fun, salt: u64) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    fun.name.hash(&mut h);
    hash_params(&fun.params, &mut h);
    hash_body(&fun.body, &mut h);
    fun.ret.len().hash(&mut h);
    for t in &fun.ret {
        t.hash(&mut h);
    }
    h.finish()
}

fn hash_params(ps: &[Param], h: &mut DefaultHasher) {
    ps.len().hash(h);
    for p in ps {
        p.var.hash(h);
        p.ty.hash(h);
    }
}

fn hash_atom(a: &Atom, h: &mut DefaultHasher) {
    match a {
        Atom::Var(v) => {
            0u8.hash(h);
            v.hash(h);
        }
        Atom::Const(Const::F64(x)) => {
            1u8.hash(h);
            x.to_bits().hash(h);
        }
        Atom::Const(Const::I64(x)) => {
            2u8.hash(h);
            x.hash(h);
        }
        Atom::Const(Const::Bool(x)) => {
            3u8.hash(h);
            x.hash(h);
        }
    }
}

fn hash_lambda(l: &Lambda, h: &mut DefaultHasher) {
    hash_params(&l.params, h);
    hash_body(&l.body, h);
    for t in &l.ret {
        t.hash(h);
    }
}

fn hash_body(b: &Body, h: &mut DefaultHasher) {
    b.stms.len().hash(h);
    for Stm { pat, exp } in &b.stms {
        hash_params(pat, h);
        hash_exp(exp, h);
    }
    b.result.len().hash(h);
    for a in &b.result {
        hash_atom(a, h);
    }
}

fn hash_exp(e: &Exp, h: &mut DefaultHasher) {
    e.kind().hash(h);
    match e {
        Exp::Atom(a) | Exp::Iota(a) => hash_atom(a, h),
        Exp::UnOp(op, a) => {
            op.hash(h);
            hash_atom(a, h);
        }
        Exp::BinOp(op, a, b) => {
            op.hash(h);
            hash_atom(a, h);
            hash_atom(b, h);
        }
        Exp::Select { cond, t, f } => {
            hash_atom(cond, h);
            hash_atom(t, h);
            hash_atom(f, h);
        }
        Exp::Index { arr, idx } => {
            arr.hash(h);
            for a in idx {
                hash_atom(a, h);
            }
        }
        Exp::Update { arr, idx, val } => {
            arr.hash(h);
            for a in idx {
                hash_atom(a, h);
            }
            hash_atom(val, h);
        }
        Exp::Len(v) | Exp::Reverse(v) | Exp::Copy(v) => v.hash(h),
        Exp::Replicate { n, val } => {
            hash_atom(n, h);
            hash_atom(val, h);
        }
        Exp::If {
            cond,
            then_br,
            else_br,
        } => {
            hash_atom(cond, h);
            hash_body(then_br, h);
            hash_body(else_br, h);
        }
        Exp::Loop {
            params,
            index,
            count,
            body,
        } => {
            params.len().hash(h);
            for (p, init) in params {
                p.var.hash(h);
                p.ty.hash(h);
                hash_atom(init, h);
            }
            index.hash(h);
            hash_atom(count, h);
            hash_body(body, h);
        }
        Exp::Map { lam, args } => {
            hash_lambda(lam, h);
            args.hash(h);
        }
        Exp::Reduce { lam, neutral, args } | Exp::Scan { lam, neutral, args } => {
            hash_lambda(lam, h);
            for a in neutral {
                hash_atom(a, h);
            }
            args.hash(h);
        }
        Exp::Redomap {
            red_lam,
            map_lam,
            neutral,
            args,
        } => {
            hash_lambda(red_lam, h);
            hash_lambda(map_lam, h);
            for a in neutral {
                hash_atom(a, h);
            }
            args.hash(h);
        }
        Exp::Hist {
            op,
            num_bins,
            inds,
            vals,
        } => {
            op.hash(h);
            hash_atom(num_bins, h);
            inds.hash(h);
            vals.hash(h);
        }
        Exp::Scatter { dest, inds, vals } => {
            dest.hash(h);
            inds.hash(h);
            vals.hash(h);
        }
        Exp::WithAcc { arrs, lam } => {
            arrs.hash(h);
            hash_lambda(lam, h);
        }
        Exp::UpdAcc { acc, idx, val } => {
            acc.hash(h);
            for a in idx {
                hash_atom(a, h);
            }
            hash_atom(val, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    fn square_fun() -> Fun {
        let mut b = Builder::new();
        b.build_fun("sq", &[Type::F64], |b, ps| {
            vec![b.fmul(ps[0].into(), ps[0].into())]
        })
    }

    #[test]
    fn identical_rebuilds_share_one_compilation() {
        let cache = ProgramCache::new();
        let p1 = cache.get_or_compile(&square_fun());
        let p2 = cache.get_or_compile(&square_fun());
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_functions_get_different_programs() {
        let cache = ProgramCache::new();
        let p1 = cache.get_or_compile(&square_fun());
        let mut b = Builder::new();
        let cube = b.build_fun("cube", &[Type::F64], |b, ps| {
            let sq = b.fmul(ps[0].into(), ps[0].into());
            vec![b.fmul(sq, ps[0].into())]
        });
        let p2 = cache.get_or_compile(&cube);
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bound_flushes_but_keeps_the_newest_program() {
        let cache = ProgramCache::with_capacity(3);
        let mut funs = Vec::new();
        for i in 0..5 {
            let mut b = Builder::new();
            let f = b.build_fun(&format!("f{i}"), &[Type::F64], |b, ps| {
                vec![b.fadd(ps[0].into(), Atom::f64(i as f64))]
            });
            funs.push(f);
        }
        for f in &funs {
            cache.get_or_compile(f);
        }
        // Bounded: never more than capacity + the flush survivor.
        assert!(cache.len() <= 3, "cache holds {} programs", cache.len());
        // The most recently inserted program survived the flush.
        let last = cache.get_or_compile(&funs[4]);
        assert_eq!(last.name, "f4");
    }

    #[test]
    fn fingerprints_are_structural() {
        assert_eq!(fingerprint(&square_fun()), fingerprint(&square_fun()));
        let mut b = Builder::new();
        let other = b.build_fun("sq", &[Type::F64], |b, ps| {
            vec![b.fadd(ps[0].into(), ps[0].into())]
        });
        assert_ne!(fingerprint(&square_fun()), fingerprint(&other));
    }
}
