//! `firvm` — a register-based bytecode compiler and persistent parallel VM
//! for the `fir` IR.
//!
//! The paper's headline numbers come from executing AD-transformed IR on an
//! aggressively optimizing bulk-parallel backend; a tree-walking interpreter
//! caps every benchmark at dispatch overhead instead. This crate is the
//! compiled CPU backend of the reproduction — one VM, one kernel form:
//!
//! * [`compile`](compile::compile) lowers a type-checked [`Fun`] into a flat
//!   register [`Program`]: variable slots are resolved at
//!   compile time (no hash-map environments at runtime), `if`/`loop` become
//!   jumps within one frame, and every SOAC lambda becomes a reusable
//!   [`Kernel`] whose free variables are captured once per
//!   SOAC invocation instead of re-resolved per element.
//! * `tape` then lowers every kernel whose body fits — and every
//!   straight-line scalar run of the main body — to a **monomorphic tape**
//!   over flat `f64`/`bool`/`i64` register files and `f64` array views,
//!   from the first call: no hotness counting, no second tier. A body may
//!   contain inner `map`/`reduce`/`redomap`s over kernels that are tapes
//!   themselves, read the rows of a matrix argument and return rows, so a
//!   `map` nest over regular arrays is one kernel over flat row-major
//!   data. A kernel outside the fragment (`if`/`loop`, `scan`/`hist`/
//!   `withacc` in the body, `i64` results, `iota`/`update`) keeps a
//!   [`Fallback`] reason ([`Program::tape_report`]) and runs as generic
//!   bytecode — the one fallback.
//! * [`vm`] executes programs: tapes on the block executor in `exec`
//!   (a block is as wide as what is left of the stream, up to 16 lanes;
//!   arguments borrowed from the frame, nothing allocated but outputs,
//!   single-operator folds as native loops; accumulator adds are CAS only
//!   inside the chunks of a parallel SOAC), everything else instruction
//!   by instruction, both scheduling parallel
//!   SOAC chunks on the persistent [`WorkerPool`](interp::WorkerPool)
//!   shared with the interpreter — no thread spawn per SOAC — and both
//!   bitwise equal (same chunking, same fold and combine order).
//! * [`cache`] memoizes compilation by structural fingerprint, so the
//!   outputs of `vjp`/`jvp` compile once and run many times.
//!
//! [`Vm`] ties it together and implements the shared
//! `interp::Backend` trait, making the VM a drop-in replacement
//! for the interpreter everywhere a backend is selectable.
//!
//! # Example
//!
//! ```
//! use fir::builder::Builder;
//! use fir::types::Type;
//! use firvm::Vm;
//! use interp::{Backend, Value};
//!
//! let mut b = Builder::new();
//! let dot = b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
//!     let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
//!         vec![b.fmul(es[0].into(), es[1].into())]
//!     });
//!     vec![b.sum(prods).into()]
//! });
//! let vm = Vm::new();
//! let out = vm.run(&dot, &[Value::from(vec![1.0, 2.0]), Value::from(vec![3.0, 4.0])]);
//! assert_eq!(out[0].as_f64(), 11.0);
//! ```

pub mod bytecode;
pub mod cache;
pub mod compile;
mod exec;
pub mod kernel;
pub mod pool;
mod region;
mod tape;
pub mod vm;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fir::ir::Fun;
use fir::types::Type;
use interp::{validate_args, Backend, ExecConfig, ExecError, Executable, Value};

pub use bytecode::Program;
pub use cache::{fingerprint_pair, ProgramCache};
pub use compile::compile;
pub use kernel::Kernel;
pub use tape::{Fallback, KernelForm};
pub use vm::DispatchCounts;

/// What a [`Vm`] (and its clones) has prepared and run so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeStats {
    /// Programs prepared with at least one tape.
    pub taped_programs: usize,
    /// SOAC dispatches and main-body regions run as tapes.
    pub tape_dispatches: usize,
    /// SOAC dispatches and main-body regions run as generic bytecode.
    pub generic_dispatches: usize,
}

#[derive(Debug, Default)]
struct Counters {
    taped_programs: AtomicUsize,
    tape_dispatches: AtomicUsize,
    generic_dispatches: AtomicUsize,
}

/// The bytecode VM backend: compiles on first sight (through the shared
/// [`ProgramCache`], or a scoped one via [`Vm::with_cache`]) and executes
/// on the persistent worker pool.
#[derive(Debug, Clone, Default)]
pub struct Vm {
    cfg: ExecConfig,
    /// `None` uses the bounded process-wide cache.
    cache: Option<Arc<ProgramCache>>,
    /// Shared by clones; runs add to it once each, not once per dispatch.
    counters: Arc<Counters>,
}

impl Vm {
    /// A VM with the default (parallel) configuration.
    pub fn new() -> Vm {
        Vm::with_config(ExecConfig::default())
    }

    /// A VM that executes every SOAC sequentially.
    pub fn sequential() -> Vm {
        Vm::with_config(ExecConfig::sequential())
    }

    /// A VM with an explicit execution configuration.
    pub fn with_config(cfg: ExecConfig) -> Vm {
        Vm {
            cfg,
            cache: None,
            counters: Arc::default(),
        }
    }

    /// Use a private program cache instead of the process-wide one (e.g. to
    /// bound the lifetime of compiled programs to a request's).
    pub fn with_cache(mut self, cache: Arc<ProgramCache>) -> Vm {
        self.cache = Some(cache);
        self
    }

    fn cache(&self) -> &ProgramCache {
        self.cache
            .as_deref()
            .unwrap_or_else(|| ProgramCache::global())
    }

    /// Compile (or fetch from the cache) and run `fun` on `args`.
    pub fn run(&self, fun: &Fun, args: &[Value]) -> Vec<Value> {
        self.run_program(&self.cache().get_or_compile(fun), args)
    }

    /// Run an already-compiled program (for callers managing their own
    /// cache or inspecting bytecode).
    pub fn run_program(&self, prog: &Program, args: &[Value]) -> Vec<Value> {
        run_counted(prog, &self.cfg, &self.counters, args)
    }

    /// Counters of this VM and its clones: programs prepared with tapes,
    /// and how dispatches ran.
    pub fn tape_stats(&self) -> TapeStats {
        let c = &self.counters;
        TapeStats {
            taped_programs: c.taped_programs.load(Ordering::Relaxed),
            tape_dispatches: c.tape_dispatches.load(Ordering::Relaxed),
            generic_dispatches: c.generic_dispatches.load(Ordering::Relaxed),
        }
    }

    /// Prepare an executable from an already-compiled [`Program`] (e.g.
    /// decoded from a persistent on-disk cache), adopting it into this
    /// VM's program cache instead of compiling `fun`; if a program for
    /// `fun` is already cached, that one is used instead.
    /// The caller is responsible for `prog` actually being a compilation
    /// of the type-correct `fun` — the persistent-cache load path
    /// guarantees this via fingerprint verification and decode-time
    /// structural validation.
    pub fn prepare_adopted(&self, fun: &Fun, prog: Program) -> Arc<dyn Executable> {
        self.prepared(fun, self.cache().adopt(fun, prog))
    }

    fn prepared(&self, fun: &Fun, prog: Arc<Program>) -> Arc<dyn Executable> {
        if prog.num_tapes() > 0 {
            self.counters.taped_programs.fetch_add(1, Ordering::Relaxed);
        }
        Arc::new(PreparedVm {
            cfg: self.cfg.clone(),
            prog,
            counters: Arc::clone(&self.counters),
            name: fun.name.clone(),
            params: fun.params.iter().map(|p| p.ty).collect(),
            ret: fun.ret.clone(),
        })
    }

    /// The compiled bytecode behind an executable this backend prepared,
    /// `None` for executables of other backends. The persistent-cache
    /// store path uses this to serialize exactly what `prepare` compiled.
    pub fn program_of(exec: &dyn Executable) -> Option<Arc<Program>> {
        exec.as_any()
            .downcast_ref::<PreparedVm>()
            .map(|p| Arc::clone(&p.prog))
    }
}

/// Run `prog` and add its dispatch counts to `counters` — two relaxed adds
/// per run, none per dispatch.
fn run_counted(
    prog: &Program,
    cfg: &ExecConfig,
    counters: &Counters,
    args: &[Value],
) -> Vec<Value> {
    let (out, counts) = vm::run_program_counted(prog, cfg, args);
    let add = |c: &AtomicUsize, n: u64| c.fetch_add(n as usize, Ordering::Relaxed);
    add(&counters.tape_dispatches, counts.tapes);
    add(&counters.generic_dispatches, counts.generic);
    out
}

/// A function compiled to bytecode, ready for repeated execution: the
/// cached [`Program`] plus the signature used for argument validation.
struct PreparedVm {
    cfg: ExecConfig,
    prog: Arc<Program>,
    counters: Arc<Counters>,
    name: String,
    params: Vec<Type>,
    ret: Vec<Type>,
}

impl Executable for PreparedVm {
    fn fun_name(&self) -> &str {
        &self.name
    }

    fn param_types(&self) -> &[Type] {
        &self.params
    }

    fn result_types(&self) -> &[Type] {
        &self.ret
    }

    fn run(&self, args: &[Value]) -> Result<Vec<Value>, ExecError> {
        validate_args(&self.name, &self.params, args)?;
        catch_unwind(AssertUnwindSafe(|| {
            run_counted(&self.prog, &self.cfg, &self.counters, args)
        }))
        .map_err(|p| ExecError::Runtime {
            fun: self.name.clone(),
            message: interp::error::panic_message(p),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Backend for Vm {
    fn name(&self) -> &'static str {
        "firvm"
    }

    fn prepare(&self, fun: &Fun) -> Result<Arc<dyn Executable>, ExecError> {
        fir::typecheck::check_fun(fun)?;
        // Compilation of a type-checked function must not fail; a panic
        // here is a compiler bug, reported as a runtime error rather than
        // unwinding through the caller.
        let prog =
            catch_unwind(AssertUnwindSafe(|| self.cache().get_or_compile(fun))).map_err(|p| {
                ExecError::Runtime {
                    fun: fun.name.clone(),
                    message: interp::error::panic_message(p),
                }
            })?;
        Ok(self.prepared(fun, prog))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::B;
    use fir::builder::Builder;
    use fir::ir::{Atom, ReduceOp};
    use fir::types::Type;
    use interp::{Array, Interp};

    fn both(fun: &Fun, args: &[Value]) -> (Vec<Value>, Vec<Value>) {
        let i = Interp::sequential().run(fun, args);
        let v = Vm::sequential().run(fun, args);
        (i, v)
    }

    fn assert_close(a: &Value, b: &Value) {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => assert!((x - y).abs() < 1e-12, "{x} vs {y}"),
            (Value::I64(x), Value::I64(y)) => assert_eq!(x, y),
            (Value::Bool(x), Value::Bool(y)) => assert_eq!(x, y),
            (Value::Arr(x), Value::Arr(y)) => {
                assert_eq!(x.shape, y.shape);
                assert_eq!(x.elem(), y.elem());
                match x.elem() {
                    fir::types::ScalarType::F64 => {
                        for (u, w) in x.f64s().iter().zip(y.f64s()) {
                            assert!((u - w).abs() < 1e-12, "{u} vs {w}");
                        }
                    }
                    fir::types::ScalarType::I64 => assert_eq!(x.i64s(), y.i64s()),
                    fir::types::ScalarType::Bool => assert_eq!(x.bools(), y.bools()),
                }
            }
            (a, b) => panic!("value kind mismatch: {a:?} vs {b:?}"),
        }
    }

    fn assert_agree(fun: &Fun, args: &[Value]) {
        let (i, v) = both(fun, args);
        assert_eq!(i.len(), v.len());
        for (a, b) in i.iter().zip(&v) {
            assert_close(a, b);
        }
    }

    #[test]
    fn scalar_arithmetic_and_select() {
        let mut b = Builder::new();
        let f = b.build_fun("f", &[Type::F64, Type::F64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let y = Atom::Var(ps[1]);
            let s = b.fsin(x);
            let p = b.fmul(y, s);
            let c = b.lt(p, Atom::f64(0.0));
            let r = b.select(c, Atom::f64(-1.0), p);
            vec![b.fadd(r, Atom::f64(1.0))]
        });
        assert_agree(&f, &[Value::F64(0.5), Value::F64(2.0)]);
        assert_agree(&f, &[Value::F64(-0.5), Value::F64(2.0)]);
    }

    #[test]
    fn map_reduce_scan_pipeline() {
        let mut b = Builder::new();
        let f = b.build_fun("pipeline", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            let ssum = b.sum(sq);
            let sc = b.scan_add(sq);
            let mx = b.maximum(sc);
            vec![Atom::Var(ssum), Atom::Var(mx), Atom::Var(sc)]
        });
        assert_agree(&f, &[Value::from(vec![1.0, -2.0, 3.0, 0.5])]);
        assert_agree(&f, &[Value::from(vec![0.25; 100])]);
    }

    #[test]
    fn ifs_and_loops() {
        let mut b = Builder::new();
        let f = b.build_fun("collatzish", &[Type::I64], |b, ps| {
            let n = Atom::Var(ps[0]);
            let r = b.loop_(&[(Type::I64, Atom::i64(1))], n, |b, i, acc| {
                let rem = b.irem(Atom::Var(i), Atom::i64(2));
                let even = b.eq(rem, Atom::i64(0));
                let v = b.if_(
                    even,
                    &[Type::I64],
                    |b| vec![b.imul(acc[0].into(), Atom::i64(3))],
                    |b| vec![b.iadd(acc[0].into(), Atom::i64(7))],
                );
                vec![v[0].into()]
            });
            vec![r[0].into()]
        });
        assert_agree(&f, &[Value::I64(9)]);
        assert_agree(&f, &[Value::I64(0)]);
    }

    #[test]
    fn loop_with_swapped_state_needs_parallel_moves() {
        // Fibonacci by swapping loop-carried registers: exercises the
        // temp-staged parallel move in the loop lowering.
        let mut b = Builder::new();
        let f = b.build_fun("fib", &[Type::I64], |b, ps| {
            let n = Atom::Var(ps[0]);
            let r = b.loop_(
                &[(Type::I64, Atom::i64(0)), (Type::I64, Atom::i64(1))],
                n,
                |b, _i, st| {
                    let next = b.iadd(st[0].into(), st[1].into());
                    vec![st[1].into(), next]
                },
            );
            vec![r[0].into()]
        });
        let out = Vm::sequential().run(&f, &[Value::I64(10)]);
        assert_eq!(out[0].as_i64(), 55);
        assert_agree(&f, &[Value::I64(15)]);
    }

    #[test]
    fn loop_returning_its_own_index_keeps_the_counter_alive() {
        // The body returns the loop index itself: the compiler must not
        // `Take` the index register (the increment still needs it).
        let mut b = Builder::new();
        let f = b.build_fun("lastidx", &[Type::I64], |b, ps| {
            let n = Atom::Var(ps[0]);
            let r = b.loop_(&[(Type::I64, Atom::i64(-1))], n, |_b, i, _acc| {
                vec![Atom::Var(i)]
            });
            vec![r[0].into()]
        });
        let out = Vm::sequential().run(&f, &[Value::I64(5)]);
        assert_eq!(out[0].as_i64(), 4);
        assert_agree(&f, &[Value::I64(7)]);
        assert_agree(&f, &[Value::I64(0)]);
    }

    #[test]
    fn loop_carried_in_place_updates_stay_in_place() {
        // A loop threading an array through per-iteration updates: the
        // copy-back must not leave stale Arc clones (that would degrade
        // every update to a full copy). Semantics checked here; the
        // performance property is what the Take instructions exist for.
        let mut b = Builder::new();
        let f = b.build_fun("updloop", &[Type::arr_f64(1), Type::I64], |b, ps| {
            let n = Atom::Var(ps[1]);
            let r = b.loop_(&[(Type::arr_f64(1), Atom::Var(ps[0]))], n, |b, i, st| {
                let idx = b.irem(Atom::Var(i), Atom::i64(8));
                let old = b.index(st[0], &[idx]);
                let inc = b.fadd(old.into(), Atom::f64(1.0));
                let upd = b.update(st[0], &[idx], inc);
                vec![Atom::Var(upd)]
            });
            vec![Atom::Var(r[0])]
        });
        let xs = Value::from(vec![0.0; 8]);
        assert_agree(&f, &[xs, Value::I64(40)]);
    }

    #[test]
    fn index_update_iota_replicate_reverse() {
        let mut b = Builder::new();
        let f = b.build_fun("arrops", &[Type::arr_f64(1)], |b, ps| {
            let xs = ps[0];
            let n = b.len(xs);
            let i = b.iota(n);
            let r = b.replicate(n, Atom::f64(2.0));
            let orig = b.index(xs, &[Atom::i64(1)]);
            let xs2 = b.update(xs, &[Atom::i64(1)], Atom::f64(42.0));
            let rev = b.reverse(xs2);
            let first = b.index(rev, &[Atom::i64(0)]);
            vec![
                Atom::Var(i),
                Atom::Var(r),
                Atom::Var(orig),
                Atom::Var(first),
                Atom::Var(rev),
            ]
        });
        assert_agree(&f, &[Value::from(vec![1.0, 2.0, 3.0])]);
    }

    #[test]
    fn hist_scatter_withacc() {
        let mut b = Builder::new();
        let f = b.build_fun(
            "hsa",
            &[Type::arr_f64(1), Type::arr_i64(1), Type::arr_f64(1)],
            |b, ps| {
                let dst = ps[0];
                let inds = ps[1];
                let vals = ps[2];
                let h = b.hist(ReduceOp::Add, Atom::i64(3), inds, vals);
                let hmax = b.hist(ReduceOp::Max, Atom::i64(3), inds, vals);
                let sc = b.scatter(dst, inds, vals);
                let acc_out = b.with_acc(&[sc], |b, accs| {
                    let r = b.map1(b.ty_of(accs[0]), &[inds, vals, accs[0]], |b, es| {
                        vec![b.upd_acc(es[2], &[es[0].into()], es[1].into()).into()]
                    });
                    vec![r.into()]
                });
                vec![Atom::Var(h), Atom::Var(hmax), Atom::Var(acc_out[0])]
            },
        );
        let dst = Value::from(vec![0.0; 3]);
        // Out-of-bounds bins/targets must be ignored; negative indices are
        // rejected by `upd_acc` in both backends, so only use high ones.
        let inds = Value::from(vec![0i64, 2, 0, 1, 7, 5]);
        let vals = Value::from(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_agree(&f, &[dst, inds, vals]);
    }

    #[test]
    fn nested_maps_over_matrices() {
        let mut b = Builder::new();
        let f = b.build_fun("rowsums", &[Type::arr_f64(2)], |b, ps| {
            let sums = b.map1(Type::arr_f64(1), &[ps[0]], |b, rows| {
                vec![Atom::Var(b.sum(rows[0]))]
            });
            let sq = b.map1(Type::arr_f64(2), &[ps[0]], |b, rows| {
                let r = b.map1(Type::arr_f64(1), &[rows[0]], |b, xs| {
                    vec![b.fmul(xs[0].into(), xs[0].into())]
                });
                vec![Atom::Var(r)]
            });
            vec![Atom::Var(sums), Atom::Var(sq)]
        });
        let m = Value::Arr(Array::from_f64(
            vec![3, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ));
        assert_agree(&f, &[m]);
    }

    #[test]
    fn empty_arrays() {
        let mut b = Builder::new();
        let f = b.build_fun("empty", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            let s = b.sum(ps[0]);
            let sc = b.scan_add(ps[0]);
            vec![Atom::Var(sq), Atom::Var(s), Atom::Var(sc)]
        });
        assert_agree(&f, &[Value::from(Vec::<f64>::new())]);
    }

    #[test]
    fn empty_scans_keep_their_element_type() {
        use fir::types::ScalarType;
        let mut b = Builder::new();
        let f = b.build_fun("iscan", &[Type::arr_i64(1)], |b, ps| {
            let s = b.scan(&[Type::arr_i64(1)], &[Atom::i64(0)], &[ps[0]], |b, es| {
                vec![b.iadd(es[0].into(), es[1].into())]
            });
            vec![Atom::Var(s[0])]
        });
        let args = [Value::from(Vec::<i64>::new())];
        for out in [
            Interp::sequential().run(&f, &args),
            Vm::sequential().run(&f, &args),
        ] {
            let arr = out[0].as_arr();
            assert_eq!(arr.elem(), ScalarType::I64);
            assert!(arr.is_empty());
        }
        assert_agree(&f, &[Value::from(vec![1i64, 2, 3])]);
    }

    #[test]
    fn parallel_vm_matches_sequential_vm() {
        let mut b = Builder::new();
        let f = b.build_fun("sumsq", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            vec![Atom::Var(b.sum(sq))]
        });
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.001).collect();
        let seq = Vm::sequential().run(&f, &[Value::from(data.clone())])[0].as_f64();
        let par = Vm::with_config(ExecConfig {
            parallel: true,
            num_threads: 4,
            parallel_threshold: 16,
        })
        .run(&f, &[Value::from(data)])[0]
            .as_f64();
        assert!((seq - par).abs() < 1e-6 * seq.abs());
    }

    #[test]
    fn gradients_of_vjp_output_run_on_the_vm() {
        use futhark_ad::vjp;
        let mut b = Builder::new();
        let f = b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), es[1].into())]
            });
            vec![b.sum(prods).into()]
        });
        let df = vjp(&f);
        let xs = Value::from(vec![1.0, 2.0, 3.0]);
        let ys = Value::from(vec![4.0, 5.0, 6.0]);
        let args = [xs, ys, Value::F64(1.0)];
        assert_agree(&df, &args);
    }

    #[test]
    fn scoped_cache_is_used_instead_of_the_global_one() {
        let cache = std::sync::Arc::new(ProgramCache::new());
        let vm = Vm::sequential().with_cache(std::sync::Arc::clone(&cache));
        let mut b = Builder::new();
        let f = b.build_fun("scoped_cache_probe", &[Type::F64], |b, ps| {
            vec![b.fadd(ps[0].into(), Atom::f64(1.0))]
        });
        assert!(cache.is_empty());
        assert_eq!(vm.run(&f, &[Value::F64(1.0)])[0].as_f64(), 2.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prepare_compiles_once_and_runs_fallibly() {
        let mut b = Builder::new();
        let f = b.build_fun("sq", &[Type::F64], |b, ps| {
            vec![b.fmul(ps[0].into(), ps[0].into())]
        });
        let cache = std::sync::Arc::new(ProgramCache::new());
        let vm = Vm::sequential().with_cache(std::sync::Arc::clone(&cache));
        let exec = vm.prepare(&f).unwrap();
        assert_eq!(cache.len(), 1, "prepare compiles through the cache");
        assert_eq!(exec.fun_name(), "sq");
        assert_eq!(exec.run_scalar(&[Value::F64(4.0)]).unwrap(), 16.0);
        // Malformed arguments are errors, not panics.
        assert!(matches!(
            exec.run(&[Value::I64(4)]),
            Err(ExecError::ArgType { index: 0, .. })
        ));
        assert!(matches!(
            exec.run(&[]),
            Err(ExecError::Arity {
                expected: 1,
                got: 0,
                ..
            })
        ));
        // Running again does not recompile.
        assert_eq!(cache.len(), 1);
    }

    // -----------------------------------------------------------------
    // Tapes against generic bytecode: the same program run with its tapes
    // and with them dropped must agree bit for bit, sequentially and under
    // forced chunking.
    // -----------------------------------------------------------------

    fn assert_bitwise_eq(a: &[Value], b: &[Value]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (Value::F64(u), Value::F64(w)) => {
                    assert_eq!(u.to_bits(), w.to_bits(), "{u} vs {w}")
                }
                (Value::I64(u), Value::I64(w)) => assert_eq!(u, w),
                (Value::Bool(u), Value::Bool(w)) => assert_eq!(u, w),
                (Value::Arr(u), Value::Arr(w)) => {
                    assert_eq!(u.shape, w.shape);
                    assert_eq!(u.elem(), w.elem());
                    match u.elem() {
                        fir::types::ScalarType::F64 => {
                            for (p, q) in u.f64s().iter().zip(w.f64s()) {
                                assert_eq!(p.to_bits(), q.to_bits(), "{p} vs {q}");
                            }
                        }
                        fir::types::ScalarType::I64 => assert_eq!(u.i64s(), w.i64s()),
                        fir::types::ScalarType::Bool => assert_eq!(u.bools(), w.bools()),
                    }
                }
                _ => panic!("value kind mismatch: {x:?} vs {y:?}"),
            }
        }
    }

    /// Run `fun` with its tapes and as all-generic bytecode (sequentially
    /// and under a low-threshold parallel configuration), require bitwise
    /// agreement, and return the sequential taped run's dispatch counts.
    fn assert_tape_parity(fun: &Fun, args: &[Value]) -> DispatchCounts {
        let prog = compile(fun);
        let generic = prog.without_tapes();
        let seq = ExecConfig::sequential();
        let (taped, counts) = vm::run_program_counted(&prog, &seq, args);
        let (plain, plain_counts) = vm::run_program_counted(&generic, &seq, args);
        assert_bitwise_eq(&plain, &taped);
        assert_eq!(plain_counts.tapes, 0, "the reference must not run tapes");

        let par = ExecConfig {
            parallel: true,
            num_threads: 4,
            parallel_threshold: 8,
        };
        assert_bitwise_eq(
            &vm::run_program(&generic, &par, args),
            &vm::run_program(&prog, &par, args),
        );
        counts
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.37 - 3.0).collect()
    }

    /// Stream extents around the block edge — a block is up to `B` live
    /// lanes — plus empty, the old 4-lane edge, 13 and 25 (sparse k-means'
    /// and GMM's extents) and two that are past the forced-parallel
    /// threshold of [`assert_tape_parity`] (so an inner fold is chunked
    /// inside its tape).
    const EDGES: [usize; 12] = [0, 1, 3, 4, 5, 13, B - 1, B, B + 1, 25, 2 * B + 1, 40];

    #[test]
    fn map_kernels_match_bitwise_including_tails() {
        let mut b = Builder::new();
        let f = b.build_fun("act", &[Type::arr_f64(1), Type::F64], |b, ps| {
            let y = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let s = b.fsigmoid(es[0].into());
                let t = b.ftanh(s);
                let c = b.lt(t, Atom::f64(0.25));
                let sel = b.select(c, Atom::f64(-1.0), t);
                vec![b.fmul(sel, ps[1].into())]
            });
            vec![Atom::Var(y)]
        });
        for n in EDGES.into_iter().chain([100]) {
            let counts = assert_tape_parity(&f, &[Value::from(data(n)), Value::F64(1.75)]);
            assert_eq!((counts.tapes, counts.generic), (1, 0), "n = {n}");
        }
    }

    #[test]
    fn reduce_and_redomap_keep_the_vm_accumulation_order() {
        let mut b = Builder::new();
        let f = b.build_fun("sumsq", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            let s = b.sum(sq);
            let m = b.maximum(ps[0]);
            vec![Atom::Var(s), Atom::Var(m)]
        });
        for n in EDGES.into_iter().chain([100, 10_000]) {
            let counts = assert_tape_parity(&f, &[Value::from(data(n))]);
            assert_eq!((counts.tapes, counts.generic), (3, 0), "n = {n}");
        }
        // The fused form (redomap) after SOAC fusion.
        let fused = fir_opt::fuse_soacs(&f);
        for n in EDGES.into_iter().chain([100, 10_000]) {
            let counts = assert_tape_parity(&fused, &[Value::from(data(n))]);
            assert_eq!((counts.tapes, counts.generic), (2, 0), "n = {n}");
        }
    }

    #[test]
    fn scans_stay_sequential_and_bitwise() {
        let mut b = Builder::new();
        let f = b.build_fun("cumsum", &[Type::arr_f64(1)], |b, ps| {
            vec![Atom::Var(b.scan_add(ps[0]))]
        });
        for n in [0usize, 1, 4, 9, 1000] {
            let counts = assert_tape_parity(&f, &[Value::from(data(n))]);
            assert_eq!((counts.tapes, counts.generic), (1, 0), "n = {n}");
        }
    }

    #[test]
    fn unsupported_kernels_fall_back_per_kernel() {
        // The inner kernel constructs an array in its body (iota) — array
        // construction is outside the tape fragment — while the sibling
        // kernel is pure scalar math. The scalar kernel must still run as a
        // tape, the other as generic bytecode with its reason on record,
        // and the whole must match the all-generic run bitwise.
        let mut b = Builder::new();
        let f = b.build_fun("mixed", &[Type::arr_f64(1)], |b, ps| {
            let gathered = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let i = b.to_i64(es[0].into());
                let im = b.irem(i, Atom::i64(4));
                let tbl = b.iota(Atom::i64(4));
                let e = b.index(tbl, &[im]);
                vec![b.to_f64(e.into())]
            });
            let scaled = b.map1(Type::arr_f64(1), &[gathered], |b, es| {
                let e = b.fexp(es[0].into());
                vec![b.fadd(e, Atom::f64(0.5))]
            });
            vec![Atom::Var(scaled)]
        });
        assert_eq!(
            compile(&f).tape_report(),
            [
                KernelForm::Generic(Fallback::ArrayConstruction),
                KernelForm::Tape
            ]
        );
        let xs = Value::from(vec![0.0, 1.0, 2.0, 3.0, 5.0, 6.0]);
        let counts = assert_tape_parity(&f, &[xs]);
        assert_eq!((counts.tapes, counts.generic), (1, 1));
    }

    #[test]
    fn iota_driven_gather_kernels_match_bitwise() {
        // The hot pattern vjp transposition emits: a map over iota whose
        // body gathers from captured arrays at arithmetic of the i64
        // stream element. The i64 stream, the scalar i64 capture (the
        // length) and the borrowed gather tables all ride the tape.
        let mut b = Builder::new();
        let f = b.build_fun("gather", &[Type::arr_f64(1)], |b, ps| {
            let n = b.len(ps[0]);
            let is = b.iota(n);
            let g = b.map1(Type::arr_f64(1), &[is], |b, es| {
                let last = b.isub(n, Atom::i64(1));
                let j = b.isub(last, es[0].into());
                let x = b.index(ps[0], &[j]);
                let y = b.index(ps[0], &[es[0].into()]);
                vec![b.fmul(x.into(), y.into())]
            });
            vec![b.sum(g).into()]
        });
        for n in EDGES.into_iter().chain([100]) {
            let counts = assert_tape_parity(&f, &[Value::from(data(n))]);
            assert_eq!((counts.tapes, counts.generic), (2, 0), "n = {n}");
        }
    }

    #[test]
    fn rank2_gather_kernels_match_bitwise() {
        // The LSTM-vjp hot pattern: a map whose body reads `w[i][j]` from a
        // captured rank-2 weight matrix (and `v[i]` from a rank-1 one),
        // with both indices computed in i64 arithmetic on the stream.
        let mut b = Builder::new();
        let f = b.build_fun(
            "g2",
            &[Type::arr_f64(1), Type::arr_f64(2), Type::arr_f64(1)],
            |b, ps| {
                let n = b.len(ps[0]);
                let is = b.iota(n);
                let g = b.map1(Type::arr_f64(1), &[is], |b, es| {
                    let row = b.irem(es[0].into(), Atom::i64(3));
                    let col = b.irem(es[0].into(), Atom::i64(4));
                    let w = b.index(ps[1], &[row, col]);
                    let v = b.index(ps[2], &[col]);
                    vec![b.fmul(w.into(), v.into())]
                });
                vec![b.sum(g).into()]
            },
        );
        let w = Value::Arr(Array::from_f64(
            vec![3, 4],
            (0..12).map(|i| i as f64 * 1.5 - 4.0).collect(),
        ));
        let v = Value::from(vec![2.0, -1.0, 0.25, 7.0]);
        for n in EDGES.into_iter().chain([100]) {
            let counts = assert_tape_parity(&f, &[Value::from(data(n)), w.clone(), v.clone()]);
            assert_eq!((counts.tapes, counts.generic), (2, 0), "n = {n}");
        }
    }

    #[test]
    fn main_body_scalar_regions_compile_and_match() {
        // Straight-line scalar glue in the main body, big enough to clear
        // the region admission bar.
        let mut b = Builder::new();
        let f = b.build_fun("glue", &[Type::F64, Type::F64], |b, ps| {
            let s = b.fsin(ps[0].into());
            let c = b.fcos(ps[1].into());
            let p = b.fmul(s, c);
            let q = b.fadd(p, Atom::f64(2.5));
            let r = b.fsqrt(q);
            let lt = b.lt(r, Atom::f64(1.0));
            let sel = b.select(lt, s, r);
            vec![b.fdiv(sel, Atom::f64(3.0))]
        });
        assert!(
            !compile(&f).lowered.regions.is_empty(),
            "main body should yield a region"
        );
        for (a, b2) in [(0.3, 0.7), (-1.2, 2.0), (5.5, -0.1)] {
            let counts = assert_tape_parity(&f, &[Value::F64(a), Value::F64(b2)]);
            assert_eq!((counts.tapes, counts.generic), (1, 0));
        }
    }

    #[test]
    fn gradients_of_vjp_programs_match_bitwise() {
        use futhark_ad::vjp;
        let mut b = Builder::new();
        let f = b.build_fun("obj", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                let m = b.fmul(es[0].into(), es[1].into());
                vec![b.ftanh(m)]
            });
            vec![b.sum(prods).into()]
        });
        let df = vjp(&f);
        let opt = fir_opt::cse(&fir_opt::fuse_soacs(&df));
        let xs = Value::from(data(37));
        let ys = Value::from(data(37).iter().map(|x| x * 0.5 + 1.0).collect::<Vec<_>>());
        let args = [xs, ys, Value::F64(1.0)];
        assert!(assert_tape_parity(&df, &args).tapes >= 1);
        assert!(assert_tape_parity(&opt, &args).tapes >= 1);
    }

    #[test]
    fn zero_extent_maps_return_their_accumulators() {
        // A map over no elements still has to return its accumulator
        // results: the handles it was given, whether as an argument or as
        // a capture, threaded directly or through a nested map — on the
        // interpreter, the generic path and the tape path alike.
        let mut b = Builder::new();
        let f = b.build_fun(
            "acc0",
            &[Type::arr_f64(1), Type::arr_i64(1), Type::arr_f64(1)],
            |b, ps| {
                let (dst, inds, vals) = (ps[0], ps[1], ps[2]);
                let out = b.with_acc(&[dst], |b, accs| {
                    let acc_ty = b.ty_of(accs[0]);
                    // Accumulator as an argument: lowers to a tape.
                    let as_arg = b.map1(acc_ty, &[inds, vals, accs[0]], |b, es| {
                        vec![b.upd_acc(es[2], &[es[0].into()], es[1].into()).into()]
                    });
                    // As a capture, through an inner map: a nest, one tape.
                    let nested = b.map1(acc_ty, &[inds], |b, outer| {
                        let inner = b.map1(acc_ty, &[vals], |b, es| {
                            vec![b.upd_acc(as_arg, &[outer[0].into()], es[0].into()).into()]
                        });
                        vec![inner.into()]
                    });
                    // The same with an `iota` in the body: generic.
                    let generic = b.map1(acc_ty, &[inds], |b, outer| {
                        let one = b.iota(Atom::i64(1));
                        let i = b.index(one, &[Atom::i64(0)]);
                        let at = b.iadd(outer[0].into(), i.into());
                        let inner = b.map1(acc_ty, &[vals], |b, es| {
                            vec![b.upd_acc(nested, &[at], es[0].into()).into()]
                        });
                        vec![inner.into()]
                    });
                    vec![generic.into()]
                });
                vec![Atom::Var(out[0])]
            },
        );
        let empty = [
            Value::from(vec![1.0, 2.0, 3.0]),
            Value::from(Vec::<i64>::new()),
            Value::from(Vec::<f64>::new()),
        ];
        let want = Interp::sequential().run(&f, &empty);
        assert_eq!(want[0].as_arr().f64s(), &[1.0, 2.0, 3.0]);
        let counts = assert_tape_parity(&f, &empty);
        assert_eq!((counts.tapes, counts.generic), (2, 1));
        assert_bitwise_eq(&want, &Vm::sequential().run(&f, &empty));
        // And the same program over real elements.
        let full = [
            Value::from(vec![1.0, 2.0, 3.0]),
            Value::from(vec![0i64, 2]),
            Value::from(vec![0.5, 0.25]),
        ];
        assert_tape_parity(&f, &full);
        assert_agree(&f, &full);
    }

    // -----------------------------------------------------------------
    // Nests: inner SOACs, rows and temporaries inside one tape.
    // -----------------------------------------------------------------

    fn matrix(n: usize, m: usize) -> Value {
        Value::Arr(Array::from_f64(vec![n, m], data(n * m)))
    }

    fn all_tapes(fun: &Fun) -> Program {
        let prog = compile(fun);
        let report = prog.tape_report();
        assert!(
            report.iter().all(|k| *k == KernelForm::Tape),
            "{}: {report:?}",
            fun.name
        );
        prog
    }

    #[test]
    fn map_of_redomap_over_matrix_rows_is_one_tape_dispatch() {
        // `map (\\row -> redomap (+) (\\x -> x * x + c) row) xss`: the rows are
        // views of the matrix, the inner redomap runs in the tape.
        let mut b = Builder::new();
        let f = b.build_fun("rowsq", &[Type::arr_f64(2), Type::F64], |b, ps| {
            let sums = b.map1(Type::arr_f64(1), &[ps[0]], |b, rows| {
                let s = b.redomap(
                    &[Type::F64],
                    &[Atom::f64(0.0)],
                    &[rows[0]],
                    |b, es| {
                        let sq = b.fmul(es[0].into(), es[0].into());
                        vec![b.fadd(sq, ps[1].into())]
                    },
                    |b, es| vec![b.fadd(es[0].into(), es[1].into())],
                );
                vec![s[0].into()]
            });
            vec![Atom::Var(sums)]
        });
        all_tapes(&f);
        // Inner lengths around the block edge (33, 40: past the
        // forced-parallel threshold, so the inner fold is chunked inside
        // the tape), outer lengths around nothing.
        for n in [0usize, 1, 7] {
            for m in EDGES {
                let counts = assert_tape_parity(&f, &[matrix(n, m), Value::F64(0.25)]);
                assert_eq!((counts.tapes, counts.generic), (1, 0), "[{n}, {m}]");
            }
        }
    }

    /// GMM's primal in small: three maps deep, the row of the outer map
    /// captured by the middle one and streamed by the innermost.
    fn small_gmm() -> Fun {
        let mut b = Builder::new();
        b.build_fun(
            "small_gmm",
            &[Type::arr_f64(2), Type::arr_f64(1), Type::arr_f64(2)],
            |b, ps| {
                let (xs, alphas, means) = (ps[0], ps[1], ps[2]);
                let lls = b.map1(Type::arr_f64(1), &[xs], |b, x| {
                    let comps = b.map1(Type::arr_f64(1), &[alphas, means], |b, es| {
                        let quad = b.redomap(
                            &[Type::F64],
                            &[Atom::f64(0.0)],
                            &[x[0], es[1]],
                            |b, ts| {
                                let d = b.fsub(ts[0].into(), ts[1].into());
                                vec![b.fmul(d, d)]
                            },
                            |b, ts| vec![b.fadd(ts[0].into(), ts[1].into())],
                        );
                        let half = b.fmul(Atom::f64(0.5), quad[0].into());
                        vec![b.fsub(es[0].into(), half)]
                    });
                    let mx = b.maximum(comps);
                    let shifted = b.map1(Type::arr_f64(1), &[comps], |b, cs| {
                        let d = b.fsub(cs[0].into(), mx.into());
                        vec![b.fexp(d)]
                    });
                    let s = b.sum(shifted);
                    let l = b.flog(s.into());
                    vec![b.fadd(mx.into(), l)]
                });
                vec![b.sum(lls).into()]
            },
        )
    }

    #[test]
    fn three_deep_nests_run_inside_one_tape() {
        let f = fir_opt::fuse_soacs(&small_gmm());
        all_tapes(&f);
        let shapes = [(0usize, 3usize, 2usize), (1, 1, 1), (5, 4, 3), (9, 33, 10)];
        // Both inner extents (d under the redomap, K under the maps and
        // folds over components) around the block edge.
        let edges = EDGES.into_iter().skip(1).map(|e| (3, e, e));
        for (n, d, k) in shapes.into_iter().chain(edges) {
            let args = [
                matrix(n, d),
                Value::from(data(k)),
                Value::Arr(Array::from_f64(
                    vec![k, d],
                    data(k * d).iter().map(|x| x * 0.5).collect(),
                )),
            ];
            let counts = assert_tape_parity(&f, &args);
            // The whole objective is one redomap from the main body.
            assert_eq!((counts.tapes, counts.generic), (1, 0), "{n} {d} {k}");
        }
    }

    #[test]
    fn inner_map_columns_feed_a_reduce_and_a_row_result() {
        // Two columns of one inner map: one is consumed by a reduce in the
        // body (a temporary), the other is the row the kernel returns.
        let mut b = Builder::new();
        let f = b.build_fun("cols", &[Type::arr_f64(2), Type::F64], |b, ps| {
            let outs = b.map(
                &[Type::arr_f64(1), Type::arr_f64(2)],
                &[ps[0]],
                |b, rows| {
                    let cols = b.map(
                        &[Type::arr_f64(1), Type::arr_f64(1)],
                        &[rows[0]],
                        |b, es| {
                            let t = b.ftanh(es[0].into());
                            let u = b.fmul(es[0].into(), ps[1].into());
                            vec![t, u]
                        },
                    );
                    let s = b.sum(cols[0]);
                    vec![s.into(), cols[1].into()]
                },
            );
            vec![outs[0].into(), outs[1].into()]
        });
        all_tapes(&f);
        let shapes = [(0usize, 3usize), (1, 1), (3, 4), (7, 5), (2, 33)];
        for (n, m) in shapes.into_iter().chain(EDGES.map(|m| (2, m))) {
            let args = [matrix(n, m), Value::F64(-1.5)];
            let counts = assert_tape_parity(&f, &args);
            assert_eq!((counts.tapes, counts.generic), (1, 0), "[{n}, {m}]");
            // `[n, m]`, or the repo's `[0]` when there is no row.
            let out = vm::run_program(&compile(&f), &ExecConfig::sequential(), &args);
            let want = if n == 0 { vec![0] } else { vec![n, m] };
            assert_eq!(out[1].as_arr().shape, want);
        }
    }

    #[test]
    fn replicate_and_whole_row_accumulator_updates_run_in_a_tape() {
        // The reverse of a map whose lambda has a row free in it (GMM's
        // `x` under the map over components): the row's adjoint is an
        // accumulator updated a whole row at a time, fed by a `replicate`d
        // seed through an inner map.
        use crate::tape::Op;
        use futhark_ad::vjp;
        let mut b = Builder::new();
        let f = b.build_fun("dist", &[Type::arr_f64(2), Type::arr_f64(2)], |b, ps| {
            let per_x = b.map1(Type::arr_f64(1), &[ps[0]], |b, x| {
                let per_mu = b.map1(Type::arr_f64(1), &[ps[1]], |b, mu| {
                    let sq = b.map1(Type::arr_f64(1), &[x[0], mu[0]], |b, es| {
                        let d = b.fsub(es[0].into(), es[1].into());
                        vec![b.fmul(d, d)]
                    });
                    // `sum mu`: its adjoint is a `replicate`d seed, added to
                    // the row's other contribution by an inner map.
                    let (quad, lin) = (b.sum(sq), b.sum(mu[0]));
                    vec![b.fsub(quad.into(), lin.into())]
                });
                vec![b.sum(per_mu).into()]
            });
            vec![b.sum(per_x).into()]
        });
        // Copy propagation first: a move of an array value is outside the
        // fragment, and `vjp` emits them freely.
        let df = fir_opt::copy_propagation(&vjp(&f));
        let df = fir_opt::dead_code_elimination(&fir_opt::cse(&fir_opt::fuse_soacs(&df)));
        let prog = compile(&df);
        let has = |pred: &dyn Fn(&Op) -> bool| {
            let tapes = prog.lowered.kernels.iter().flatten();
            tapes.flat_map(|k| &k.tape.ops).any(pred)
        };
        assert!(has(&|op| matches!(op, Op::UpdAccRow(..))), "{df:?}");
        assert!(has(&|op| matches!(op, Op::Replicate(..))));
        assert!(has(&|op| matches!(op, Op::Inner(_))));
        let shapes = [(1usize, 1usize, 1usize), (3, 4, 2), (5, 33, 3)];
        let edges = EDGES.into_iter().skip(1).map(|d| (2, d, 2));
        for (n, d, k) in shapes.into_iter().chain(edges) {
            let means = Value::Arr(Array::from_f64(
                vec![k, d],
                data(k * d).iter().map(|x| 1.0 - x).collect(),
            ));
            let counts = assert_tape_parity(&df, &[matrix(n, d), means, Value::F64(1.0)]);
            assert!(counts.tapes >= 1);
        }
    }

    /// `map (\\row -> reduce op ne row) xss` with an arbitrary operator.
    fn row_folds(name: &str, ne: f64, op: impl Fn(&mut Builder, Atom, Atom) -> Atom + Copy) -> Fun {
        let mut b = Builder::new();
        b.build_fun(name, &[Type::arr_f64(2)], |b, ps| {
            let folded = b.map1(Type::arr_f64(1), &[ps[0]], |b, rows| {
                let r = b.reduce(&[Type::F64], &[Atom::f64(ne)], &[rows[0]], |b, es| {
                    vec![op(b, es[0].into(), es[1].into())]
                });
                vec![r[0].into()]
            });
            vec![Atom::Var(folded)]
        })
    }

    #[test]
    fn inner_folds_are_chunked_and_combined_inside_the_tape() {
        // Inner length 40 under a threshold of 8: four chunks of ten, each
        // folded from the neutral element, combined in order. `-` is not
        // associative, so a different chunking would show in the bits.
        let f = row_folds("rowsub", 0.0, |b, a, x| b.fsub(a, x));
        let prog = all_tapes(&f);
        let args = [matrix(3, 40)];
        let counts = assert_tape_parity(&f, &args);
        assert_eq!((counts.tapes, counts.generic), (1, 0));
        let par = ExecConfig {
            parallel: true,
            num_threads: 4,
            parallel_threshold: 8,
        };
        let chunked = vm::run_program(&prog, &par, &args);
        let whole = vm::run_program(&prog, &ExecConfig::sequential(), &args);
        assert_ne!(
            chunked[0].as_arr().f64s(),
            whole[0].as_arr().f64s(),
            "the inner fold was not chunked"
        );
    }

    /// A flat `redomap` — blocks of the map feeding the fold `op` lane by
    /// lane — with a NaN on each side of the first block edge in turn: the
    /// fold's operand order across the edge shows in the bits.
    fn assert_redomap_parity_across_the_block_edge(
        ne: f64,
        op: impl Fn(&mut Builder, Atom, Atom) -> Atom,
    ) {
        let mut b = Builder::new();
        let f = b.build_fun("edge", &[Type::arr_f64(1)], |b, ps| {
            let r = b.redomap(
                &[Type::F64],
                &[Atom::f64(ne)],
                &[ps[0]],
                |b, es| vec![b.fmul(es[0].into(), Atom::f64(1.5))],
                |b, es| vec![op(b, es[0].into(), es[1].into())],
            );
            vec![r[0].into()]
        });
        all_tapes(&f);
        for n in EDGES {
            for nan_at in [B - 1, B] {
                let mut xs = data(n);
                if let Some(x) = xs.get_mut(nan_at) {
                    *x = f64::NAN;
                }
                let counts = assert_tape_parity(&f, &[Value::from(xs)]);
                assert_eq!((counts.tapes, counts.generic), (1, 0), "n = {n}");
            }
        }
    }

    #[test]
    fn native_and_interpreted_folds_keep_the_operand_order() {
        let with_nan = |n: usize, m: usize| {
            let mut xs = data(n * m);
            for i in (2..xs.len()).step_by(5) {
                xs[i] = f64::NAN;
            }
            Value::Arr(Array::from_f64(vec![n, m], xs))
        };
        type Op = fn(&mut Builder, Atom, Atom) -> Atom;
        let native: [(&str, f64, Op); 5] = [
            ("sub", 0.0, |b, a, x| b.fsub(a, x)),
            ("bus", 0.0, |b, a, x| b.fsub(x, a)),
            ("min", f64::INFINITY, |b, a, x| b.fmin(a, x)),
            ("max", f64::NEG_INFINITY, |b, a, x| b.fmax(a, x)),
            ("xam", f64::NEG_INFINITY, |b, a, x| b.fmax(x, a)),
        ];
        for (name, ne, op) in native {
            let f = row_folds(name, ne, op);
            let prog = all_tapes(&f);
            let fold = prog.lowered.kernels[0].as_ref().unwrap();
            assert!(fold.native.is_some(), "{name} folds natively");
            for (n, m) in [(2usize, 1usize), (3, 7), (2, 40)] {
                assert_tape_parity(&f, &[with_nan(n, m)]);
                assert_tape_parity(&f, &[matrix(n, m)]);
            }
            assert_redomap_parity_across_the_block_edge(ne, op);
        }
        // Two ops: no native loop, one tape run per element.
        let f = row_folds("halfsum", 0.0, |b, a, x| {
            let s = b.fadd(a, x);
            b.fmul(s, Atom::f64(0.5))
        });
        let prog = all_tapes(&f);
        assert!(prog.lowered.kernels[0].as_ref().unwrap().native.is_none());
        for (n, m) in [(2usize, 1usize), (3, 7), (2, 40)] {
            let counts = assert_tape_parity(&f, &[with_nan(n, m)]);
            assert_eq!((counts.tapes, counts.generic), (1, 0));
        }
        assert_redomap_parity_across_the_block_edge(0.0, |b, a, x| {
            let s = b.fadd(a, x);
            b.fmul(s, Atom::f64(0.5))
        });
        // The same operators from the main body (no nest).
        let mut b = Builder::new();
        let flat = b.build_fun("flat", &[Type::arr_f64(1)], |b, ps| {
            let sub = b.reduce(&[Type::F64], &[Atom::f64(0.0)], &[ps[0]], |b, es| {
                vec![b.fsub(es[1].into(), es[0].into())]
            });
            let half = b.reduce(&[Type::F64], &[Atom::f64(0.0)], &[ps[0]], |b, es| {
                let s = b.fadd(es[0].into(), es[1].into());
                vec![b.fmul(s, Atom::f64(0.5))]
            });
            let run = b.scan(
                &[Type::arr_f64(1)],
                &[Atom::f64(f64::INFINITY)],
                &[ps[0]],
                |b, es| vec![b.fmin(es[0].into(), es[1].into())],
            );
            vec![sub[0].into(), half[0].into(), run[0].into()]
        });
        for n in [0usize, 1, 9, 100] {
            let mut xs = data(n);
            if n > 3 {
                xs[3] = f64::NAN;
            }
            let counts = assert_tape_parity(&flat, &[Value::from(xs)]);
            assert_eq!((counts.tapes, counts.generic), (3, 0), "n = {n}");
        }
    }

    #[test]
    fn kernels_past_the_dispatch_bounds_fall_back() {
        // Nine element streams: one more than a dispatch binds on its stack.
        let mut b = Builder::new();
        let f = b.build_fun("wide", &[Type::arr_f64(1); 9], |b, ps| {
            let y = b.map1(Type::arr_f64(1), ps, |b, es| {
                let sum = es[1..]
                    .iter()
                    .fold(Atom::Var(es[0]), |acc, e| b.fadd(acc, (*e).into()));
                vec![sum]
            });
            vec![Atom::Var(y)]
        });
        assert_eq!(
            compile(&f).tape_report(),
            [KernelForm::Generic(Fallback::TooLarge)]
        );
        let args: Vec<Value> = (0..9)
            .map(|i| Value::from(data(5 + i)[i..].to_vec()))
            .collect();
        let counts = assert_tape_parity(&f, &args);
        assert_eq!((counts.tapes, counts.generic), (0, 1));
        assert_agree(&f, &args);
    }

    #[test]
    fn vm_counts_taped_programs_and_dispatches_per_run() {
        let mut b = Builder::new();
        let f = b.build_fun("hot", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            vec![b.sum(sq).into()]
        });
        let vm = Vm::sequential().with_cache(Arc::new(ProgramCache::new()));
        assert_eq!(vm.tape_stats(), TapeStats::default());
        let exec = vm.prepare(&f).unwrap();
        assert_eq!(vm.tape_stats().taped_programs, 1);
        let args = [Value::from(data(16))];
        exec.run(&args).unwrap();
        exec.run(&args).unwrap();
        let stats = vm.tape_stats();
        assert_eq!((stats.tape_dispatches, stats.generic_dispatches), (4, 0));
    }

    // -----------------------------------------------------------------
    // Live lanes: a block computes the lanes it has elements for, no more.
    // -----------------------------------------------------------------

    /// What running `prog` fails with.
    fn failure(prog: &Program, args: &[Value]) -> String {
        let run = || vm::run_program(prog, &ExecConfig::sequential(), args);
        let panic = catch_unwind(AssertUnwindSafe(run)).expect_err("the run must fail");
        interp::error::panic_message(panic)
    }

    #[test]
    fn gathers_fail_like_the_generic_path_in_every_lane_and_in_no_dead_one() {
        // `map (\i -> table[i]) is`: an `i64` stream gathered with.
        let mut b = Builder::new();
        let gather = b.build_fun("pick", &[Type::arr_i64(1), Type::arr_f64(1)], |b, ps| {
            let g = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.index(ps[1], &[es[0].into()]).into()]
            });
            vec![Atom::Var(g)]
        });
        let prog = all_tapes(&gather);
        let table = Value::from(data(8));
        // Out of bounds in the first lane, in the last live lane of a
        // partial block, and in the first lane of the second block.
        for (n, bad) in [(5, 0), (B - 3, B - 4), (B + 3, B)] {
            let mut is = vec![1i64; n];
            is[bad] = 8;
            let args = [Value::from(is), table.clone()];
            let message = failure(&prog, &args);
            assert_eq!(message, "index 8 out of bounds for dim of size 8");
            assert_eq!(message, failure(&prog.without_tapes(), &args), "n = {n}");
        }

        // Two gathers through the same register files: a full block leaves
        // the indices `13..B` in the lanes the second one — 13 elements
        // over a table of 13 — has no element for. Computing a dead lane
        // would read them and fail.
        let mut b = Builder::new();
        let params = [Type::arr_f64(1), Type::arr_f64(1)];
        let twice = b.build_fun("twice", &params, |b, ps| {
            let sums: Vec<Atom> = ps
                .iter()
                .map(|table| {
                    let n = b.len(*table);
                    let is = b.iota(n);
                    let g = b.map1(Type::arr_f64(1), &[is], |b, es| {
                        vec![b.index(*table, &[es[0].into()]).into()]
                    });
                    b.sum(g).into()
                })
                .collect();
            sums
        });
        let counts = assert_tape_parity(&twice, &[Value::from(data(B)), Value::from(data(13))]);
        assert_eq!((counts.tapes, counts.generic), (4, 0));
    }

    // -----------------------------------------------------------------
    // Owned and shared accumulator adds: a strand adds without CAS only
    // while nothing runs beside it.
    // -----------------------------------------------------------------

    /// Every SOAC of two or more elements forks into chunks.
    fn forced_parallel() -> ExecConfig {
        ExecConfig {
            parallel: true,
            num_threads: 4,
            parallel_threshold: 2,
        }
    }

    /// `withacc dst (\acc -> map (\i acc -> upd_acc acc [i] 1.0) is acc)`;
    /// with `generic`, an `iota` in the body keeps the kernel off the tape.
    fn count_into_cells(generic: bool) -> Fun {
        let mut b = Builder::new();
        let params = [Type::arr_f64(1), Type::arr_i64(1)];
        b.build_fun("count", &params, |b, ps| {
            let out = b.with_acc(&[ps[0]], |b, accs| {
                let acc_ty = b.ty_of(accs[0]);
                let acc = b.map1(acc_ty, &[ps[1], accs[0]], |b, es| {
                    let at = if generic {
                        let one = b.iota(Atom::i64(1));
                        let zero = b.index(one, &[Atom::i64(0)]);
                        b.iadd(es[0].into(), zero.into())
                    } else {
                        es[0].into()
                    };
                    vec![b.upd_acc(es[1], &[at], Atom::f64(1.0)).into()]
                });
                vec![acc.into()]
            });
            vec![out[0].into()]
        })
    }

    #[test]
    fn chunks_of_a_parallel_map_lose_no_accumulator_update() {
        let args = [Value::from(vec![0.0]), Value::from(vec![0i64; 20_000])];
        for generic in [false, true] {
            let f = count_into_cells(generic);
            let form = compile(&f).tape_report()[0];
            assert_eq!(form == KernelForm::Tape, !generic, "{form:?}");
            let vm = Vm::with_config(forced_parallel());
            for _ in 0..20 {
                let out = vm.run(&f, &args);
                assert_eq!(out[0].as_arr().f64s(), [20_000.0], "generic: {generic}");
            }
            assert_tape_parity(&f, &args);
        }
    }

    /// Per `loop` iteration, a `map` of extent 1 — inline on the root
    /// strand — whose body adds to cell 0 itself and then runs an inner
    /// `map` over `inner` (cell numbers as floats: the array slots of a tape
    /// are `f64`) adding to the same accumulator.
    fn owner_then_chunks() -> Fun {
        let mut b = Builder::new();
        let params = [
            Type::arr_f64(1),
            Type::arr_i64(1),
            Type::arr_f64(1),
            Type::I64,
        ];
        b.build_fun("mixed", &params, |b, ps| {
            let (dst, outer, inner, iters) = (ps[0], ps[1], ps[2], ps[3]);
            let total = b.loop_(
                &[(Type::arr_f64(1), dst.into())],
                iters.into(),
                |b, _, st| {
                    let out = b.with_acc(&[st[0]], |b, accs| {
                        let acc_ty = b.ty_of(accs[0]);
                        let acc = b.map1(acc_ty, &[outer, accs[0]], |b, es| {
                            let own = b.upd_acc(es[1], &[es[0].into()], Atom::f64(1.0));
                            let forked = b.map1(acc_ty, &[inner], |b, js| {
                                let j = b.to_i64(js[0].into());
                                vec![b.upd_acc(own, &[j], Atom::f64(1.0)).into()]
                            });
                            vec![forked.into()]
                        });
                        vec![acc.into()]
                    });
                    vec![out[0].into()]
                },
            );
            vec![total[0].into()]
        })
    }

    #[test]
    fn a_strand_adds_plainly_between_its_forks_and_atomically_inside_them() {
        let f = owner_then_chunks();
        let prog = compile(&f);
        assert_eq!(prog.tape_report()[..2], [KernelForm::Tape; 2]);
        let args = [
            Value::from(vec![0.0]),
            Value::from(vec![0i64]),
            Value::from(vec![0.0; 5_000]),
            Value::I64(50),
        ];
        // The nest as one tape, and as generic bytecode re-entering the VM
        // for the inner map: an owned add, then a fork of shared ones.
        for prog in [&prog, &prog.without_tapes()] {
            let out = vm::run_program(prog, &forced_parallel(), &args);
            assert_eq!(out[0].as_arr().f64s(), [50.0 * 5_001.0]);
        }
        let counts = assert_tape_parity(&f, &args);
        assert_eq!((counts.tapes, counts.generic), (50, 0));
    }

    #[test]
    fn a_slice_add_of_the_wrong_extent_fails_alike_owned_and_shared() {
        // `acc[i] += row` with a 3-element row into rows of 2.
        let mut b = Builder::new();
        let params = [Type::arr_f64(2), Type::arr_i64(1), Type::arr_f64(1)];
        let f = b.build_fun("rows", &params, |b, ps| {
            let out = b.with_acc(&[ps[0]], |b, accs| {
                let acc_ty = b.ty_of(accs[0]);
                let acc = b.map1(acc_ty, &[ps[1], accs[0]], |b, es| {
                    let n = b.len(ps[2]);
                    let zero = b.isub(n, n);
                    let at = b.iadd(es[0].into(), zero);
                    vec![b.upd_acc(es[1], &[at], ps[2].into()).into()]
                });
                vec![acc.into()]
            });
            vec![out[0].into()]
        });
        let prog = compile(&f);
        assert_eq!(prog.tape_report()[0], KernelForm::Tape);
        let args = [
            matrix(2, 2),
            Value::from(vec![0i64, 1, 0, 1]),
            Value::from(data(3)),
        ];
        let want = "upd_acc: value has 3 elements, the addressed slice has 2";
        for prog in [&prog, &prog.without_tapes()] {
            assert_eq!(failure(prog, &args), want);
            let run = || vm::run_program(prog, &forced_parallel(), &args);
            let panic = catch_unwind(AssertUnwindSafe(run)).expect_err("must fail");
            assert!(interp::error::panic_message(panic).contains(want));
        }
    }
}
