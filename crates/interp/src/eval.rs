//! Evaluation of `fir` programs.
//!
//! The evaluator executes programs either sequentially or with bulk-parallel
//! SOACs spread over OS threads (the stand-in for Futhark's GPU backend in
//! this reproduction). Accumulator updates use atomic adds, mirroring
//! `atomicAdd`-based code generation. Programs are assumed to be well-typed
//! (see `fir::typecheck`); the evaluator panics on malformed input.

use std::collections::HashMap;

use fir::ir::{Atom, BinOp, Body, Const, Exp, Fun, Lambda, ReduceOp, Stm, UnOp, VarId};
use fir::types::ScalarType;

use crate::acc::Accum;
use crate::value::{Array, Value};

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Execute SOACs over multiple threads when they are large enough.
    pub parallel: bool,
    /// Maximum number of worker threads.
    pub num_threads: usize,
    /// Minimum outer size of a SOAC before it is executed in parallel.
    pub parallel_threshold: usize,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            parallel: true,
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            parallel_threshold: 2048,
        }
    }
}

impl ExecConfig {
    /// A configuration that always runs sequentially (used for the
    /// "sequential CPU" rows of the evaluation, e.g. ADBench Table 1).
    pub fn sequential() -> ExecConfig {
        ExecConfig {
            parallel: false,
            num_threads: 1,
            parallel_threshold: usize::MAX,
        }
    }

    /// Whether a bulk operation of outer size `n` should be spread over the
    /// worker pool under this configuration. The single gating policy for
    /// every backend.
    pub fn should_parallelize(&self, n: usize) -> bool {
        self.parallel && self.num_threads > 1 && n >= self.parallel_threshold
    }
}

/// A lexical environment frame. Lambdas, loops and branches evaluate their
/// bodies in child frames so bindings never leak and nothing needs cloning.
struct Env<'p> {
    parent: Option<&'p Env<'p>>,
    vars: HashMap<VarId, Value>,
}

impl<'p> Env<'p> {
    fn root() -> Env<'static> {
        Env {
            parent: None,
            vars: HashMap::new(),
        }
    }

    fn child(&'p self) -> Env<'p> {
        Env {
            parent: Some(self),
            vars: HashMap::new(),
        }
    }

    fn bind(&mut self, v: VarId, val: Value) {
        self.vars.insert(v, val);
    }

    fn lookup(&self, v: VarId) -> &Value {
        let mut cur = Some(self);
        while let Some(e) = cur {
            if let Some(val) = e.vars.get(&v) {
                return val;
            }
            cur = e.parent;
        }
        panic!("unbound variable {v} at runtime")
    }

    /// Take ownership of a consumed array (for in-place updates): if the
    /// variable is bound in the *current* frame it is removed (its unique
    /// buffer can then be mutated without copying); otherwise the value is
    /// cloned from an ancestor frame. This mirrors Futhark's uniqueness
    /// semantics: the consumed name must not be used again.
    fn take_consumed(&mut self, v: VarId) -> Value {
        if let Some(val) = self.vars.remove(&v) {
            return val;
        }
        self.lookup(v).clone()
    }
}

/// The interpreter.
#[derive(Debug, Clone, Default)]
pub struct Interp {
    cfg: ExecConfig,
}

impl Interp {
    /// An interpreter with the default (parallel) configuration.
    pub fn new() -> Interp {
        Interp {
            cfg: ExecConfig::default(),
        }
    }

    /// An interpreter that runs everything sequentially.
    pub fn sequential() -> Interp {
        Interp {
            cfg: ExecConfig::sequential(),
        }
    }

    /// An interpreter with an explicit configuration.
    pub fn with_config(cfg: ExecConfig) -> Interp {
        Interp { cfg }
    }

    /// Run a function on the given argument values.
    pub fn run(&self, fun: &Fun, args: &[Value]) -> Vec<Value> {
        assert_eq!(
            fun.params.len(),
            args.len(),
            "{}: expected {} arguments, got {}",
            fun.name,
            fun.params.len(),
            args.len()
        );
        let mut env = Env::root();
        for (p, a) in fun.params.iter().zip(args) {
            env.bind(p.var, a.clone());
        }
        self.eval_body(&mut env, &fun.body)
    }

    fn atom(&self, env: &Env, a: &Atom) -> Value {
        match a {
            Atom::Var(v) => env.lookup(*v).clone(),
            Atom::Const(Const::F64(x)) => Value::F64(*x),
            Atom::Const(Const::I64(x)) => Value::I64(*x),
            Atom::Const(Const::Bool(x)) => Value::Bool(*x),
        }
    }

    fn eval_body(&self, env: &mut Env, body: &Body) -> Vec<Value> {
        for Stm { pat, exp } in &body.stms {
            let vals = self.eval_exp(&mut *env, exp);
            assert_eq!(vals.len(), pat.len(), "{}: arity mismatch", exp.kind());
            for (p, v) in pat.iter().zip(vals) {
                env.bind(p.var, v);
            }
        }
        body.result.iter().map(|a| self.atom(env, a)).collect()
    }

    fn eval_in_child(&self, env: &Env, body: &Body) -> Vec<Value> {
        let mut inner = env.child();
        self.eval_body(&mut inner, body)
    }

    fn eval_lambda(&self, env: &Env, lam: &Lambda, args: Vec<Value>) -> Vec<Value> {
        assert_eq!(lam.params.len(), args.len(), "lambda arity mismatch");
        let mut inner = env.child();
        for (p, a) in lam.params.iter().zip(args) {
            inner.bind(p.var, a);
        }
        self.eval_body(&mut inner, &lam.body)
    }

    /// Run `f` for every index in `0..n`, in parallel when allowed and
    /// worthwhile, returning the results in index order. Parallel execution
    /// is chunked over the persistent [`WorkerPool`](crate::WorkerPool) —
    /// no threads are spawned per SOAC.
    fn par_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if !self.cfg.parallel || n < self.cfg.parallel_threshold || self.cfg.num_threads <= 1 {
            return (0..n).map(f).collect();
        }
        let chunks =
            crate::pool::WorkerPool::global().run_chunked(n, self.cfg.num_threads, &|lo, hi| {
                (lo..hi).map(&f).collect::<Vec<R>>()
            });
        let mut out = Vec::with_capacity(n);
        for c in chunks {
            out.extend(c);
        }
        out
    }

    fn index_values(&self, env: &Env, idx: &[Atom]) -> Vec<usize> {
        idx.iter()
            .map(|a| {
                let i = self.atom(env, a).as_i64();
                assert!(i >= 0, "negative index {i}");
                i as usize
            })
            .collect()
    }

    fn eval_exp(&self, env: &mut Env, exp: &Exp) -> Vec<Value> {
        match exp {
            Exp::Atom(a) => vec![self.atom(env, a)],
            Exp::UnOp(op, a) => vec![eval_unop(*op, self.atom(env, a))],
            Exp::BinOp(op, a, b) => {
                vec![eval_binop(*op, self.atom(env, a), self.atom(env, b))]
            }
            Exp::Select { cond, t, f } => {
                let c = self.atom(env, cond).as_bool();
                vec![if c {
                    self.atom(env, t)
                } else {
                    self.atom(env, f)
                }]
            }
            Exp::Index { arr, idx } => {
                let a = env.lookup(*arr).as_arr().clone();
                let idx = self.index_values(env, idx);
                vec![a.index(&idx)]
            }
            Exp::Update { arr, idx, val } => {
                let idx = self.index_values(env, idx);
                let v = self.atom(env, val);
                let mut a = env.take_consumed(*arr).into_arr();
                a.write(&idx, &v);
                vec![Value::Arr(a)]
            }
            Exp::Len(v) => vec![Value::I64(env.lookup(*v).as_arr().len() as i64)],
            Exp::Iota(n) => {
                let n = self.atom(env, n).as_i64().max(0) as usize;
                vec![Value::Arr(Array::vec_i64((0..n as i64).collect()))]
            }
            Exp::Replicate { n, val } => {
                let n = self.atom(env, n).as_i64().max(0) as usize;
                let v = self.atom(env, val);
                vec![Value::Arr(replicate(n, &v))]
            }
            Exp::Reverse(v) => vec![Value::Arr(env.lookup(*v).as_arr().reverse())],
            Exp::Copy(v) => vec![env.lookup(*v).clone()],
            Exp::If {
                cond,
                then_br,
                else_br,
            } => {
                if self.atom(env, cond).as_bool() {
                    self.eval_in_child(env, then_br)
                } else {
                    self.eval_in_child(env, else_br)
                }
            }
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => {
                let n = self.atom(env, count).as_i64().max(0);
                let mut state: Vec<Value> = params
                    .iter()
                    .map(|(_, init)| self.atom(env, init))
                    .collect();
                for i in 0..n {
                    // Loop-variant values are *moved* into the iteration's
                    // frame so in-place updates on them need not copy.
                    let mut inner = env.child();
                    for ((p, _), v) in params.iter().zip(std::mem::take(&mut state)) {
                        inner.bind(p.var, v);
                    }
                    inner.bind(*index, Value::I64(i));
                    state = self.eval_body(&mut inner, body);
                }
                state
            }
            Exp::Map { lam, args } => self.eval_map(env, lam, args),
            Exp::Reduce { lam, neutral, args } => self.eval_reduce(env, lam, neutral, args),
            Exp::Scan { lam, neutral, args } => self.eval_scan(env, lam, neutral, args),
            Exp::Redomap {
                red_lam,
                map_lam,
                neutral,
                args,
            } => self.eval_redomap(env, red_lam, map_lam, neutral, args),
            Exp::Hist {
                op,
                num_bins,
                inds,
                vals,
            } => self.eval_hist(env, *op, num_bins, *inds, *vals),
            Exp::Scatter { dest, inds, vals } => {
                let inds = env.lookup(*inds).as_arr().clone();
                let vals = env.lookup(*vals).as_arr().clone();
                let mut dest = env.take_consumed(*dest).into_arr();
                let n = inds.len().min(vals.len());
                for k in 0..n {
                    let j = inds.i64s()[k];
                    if j >= 0 && (j as usize) < dest.len() {
                        dest.write(&[j as usize], &vals.index(&[k]));
                    }
                }
                vec![Value::Arr(dest)]
            }
            Exp::WithAcc { arrs, lam } => self.eval_withacc(env, arrs, lam),
            Exp::UpdAcc { acc, idx, val } => {
                let acc = env.lookup(*acc).as_acc().clone();
                let idx = self.index_values(env, idx);
                if acc.in_bounds(&idx) {
                    let (off, span) = acc.offset_of(&idx);
                    match self.atom(env, val) {
                        Value::F64(x) => {
                            debug_assert_eq!(span, 1);
                            acc.add_at(off, x);
                        }
                        Value::Arr(a) => acc.add_slice(off, span, a.f64s()),
                        other => panic!("upd_acc with non-float value {other:?}"),
                    }
                }
                vec![Value::Acc(acc)]
            }
        }
    }

    fn eval_map(&self, env: &Env, lam: &Lambda, args: &[VarId]) -> Vec<Value> {
        let argvals: Vec<Value> = args.iter().map(|v| env.lookup(*v).clone()).collect();
        let n = argvals
            .iter()
            .find_map(|v| match v {
                Value::Arr(a) => Some(a.len()),
                _ => None,
            })
            .expect("map needs at least one array argument");
        let results: Vec<Vec<Value>> = self.par_map(n, |i| {
            let elems: Vec<Value> = argvals
                .iter()
                .map(|v| match v {
                    Value::Arr(a) => a.index(&[i]),
                    Value::Acc(acc) => Value::Acc(acc.clone()),
                    other => panic!("map over non-array {other:?}"),
                })
                .collect();
            self.eval_lambda(env, lam, elems)
        });
        let width = lam.ret.len();
        let mut out = Vec::with_capacity(width);
        for j in 0..width {
            if lam.ret[j].is_acc() {
                // All iterations share the same accumulator buffer; return
                // the handle itself ("array of accumulators" = accumulator).
                // Over no elements, which handle is still a static fact
                // about the lambda: a map of extent zero returns its
                // accumulators unchanged.
                let acc = match results.first() {
                    Some(r) => r[j].clone(),
                    None => {
                        let src = acc_result_source(lam, j)
                            .expect("map with accumulator result over an empty array");
                        match lam.params.iter().position(|p| p.var == src) {
                            Some(p) => argvals[p].clone(),
                            None => env.lookup(src).clone(),
                        }
                    }
                };
                assert!(
                    matches!(acc, Value::Acc(_)),
                    "map declared accumulator result, got {acc:?}"
                );
                out.push(acc);
            } else if n == 0 {
                out.push(Value::Arr(Array::zeros(lam.ret[j].elem(), vec![0])));
            } else {
                let column: Vec<Value> = results.iter().map(|r| r[j].clone()).collect();
                out.push(Value::Arr(Array::stack(&column)));
            }
        }
        out
    }

    fn eval_reduce(&self, env: &Env, lam: &Lambda, neutral: &[Atom], args: &[VarId]) -> Vec<Value> {
        let argvals: Vec<Array> = args
            .iter()
            .map(|v| env.lookup(*v).as_arr().clone())
            .collect();
        let n = argvals[0].len();
        let ne: Vec<Value> = neutral.iter().map(|a| self.atom(env, a)).collect();
        let fold_range = |lo: usize, hi: usize| -> Vec<Value> {
            let mut acc = ne.clone();
            for i in lo..hi {
                let mut lam_args = acc;
                lam_args.extend(argvals.iter().map(|a| a.index(&[i])));
                acc = self.eval_lambda(env, lam, lam_args);
            }
            acc
        };
        if !self.cfg.should_parallelize(n) {
            return fold_range(0, n);
        }
        // Parallel tree reduction: fold chunks independently (starting from
        // the neutral element), then combine the per-chunk results with the
        // same operator. Requires associativity, as the language does.
        let partials: Vec<Vec<Value>> =
            crate::pool::WorkerPool::global()
                .run_chunked(n, self.cfg.num_threads, &|lo, hi| fold_range(lo, hi));
        let mut acc = ne.clone();
        for p in partials {
            let mut lam_args = acc;
            lam_args.extend(p);
            acc = self.eval_lambda(env, lam, lam_args);
        }
        acc
    }

    /// Fused `reduce ∘ map`: per element, apply `map_lam`, then fold the
    /// results into the accumulator with `red_lam`. Per-chunk folds start
    /// from the neutral element and partials combine with `red_lam` alone,
    /// exactly as [`Interp::eval_reduce`] does — so a fused program is
    /// bitwise identical to the `reduce (map ...)` it was fused from, in
    /// both sequential and parallel configurations.
    fn eval_redomap(
        &self,
        env: &Env,
        red_lam: &Lambda,
        map_lam: &Lambda,
        neutral: &[Atom],
        args: &[VarId],
    ) -> Vec<Value> {
        let argvals: Vec<Array> = args
            .iter()
            .map(|v| env.lookup(*v).as_arr().clone())
            .collect();
        let n = argvals[0].len();
        let ne: Vec<Value> = neutral.iter().map(|a| self.atom(env, a)).collect();
        let fold_range = |lo: usize, hi: usize| -> Vec<Value> {
            let mut acc = ne.clone();
            for i in lo..hi {
                let elems: Vec<Value> = argvals.iter().map(|a| a.index(&[i])).collect();
                let vals = self.eval_lambda(env, map_lam, elems);
                let mut lam_args = acc;
                lam_args.extend(vals);
                acc = self.eval_lambda(env, red_lam, lam_args);
            }
            acc
        };
        if !self.cfg.should_parallelize(n) {
            return fold_range(0, n);
        }
        let partials: Vec<Vec<Value>> =
            crate::pool::WorkerPool::global()
                .run_chunked(n, self.cfg.num_threads, &|lo, hi| fold_range(lo, hi));
        let mut acc = ne.clone();
        for p in partials {
            let mut lam_args = acc;
            lam_args.extend(p);
            acc = self.eval_lambda(env, red_lam, lam_args);
        }
        acc
    }

    fn eval_scan(&self, env: &Env, lam: &Lambda, neutral: &[Atom], args: &[VarId]) -> Vec<Value> {
        let argvals: Vec<Array> = args
            .iter()
            .map(|v| env.lookup(*v).as_arr().clone())
            .collect();
        let n = argvals[0].len();
        let mut acc: Vec<Value> = neutral.iter().map(|a| self.atom(env, a)).collect();
        let width = acc.len();
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(n); width];
        for i in 0..n {
            let mut lam_args = acc;
            lam_args.extend(argvals.iter().map(|a| a.index(&[i])));
            acc = self.eval_lambda(env, lam, lam_args);
            for (j, v) in acc.iter().enumerate() {
                cols[j].push(v.clone());
            }
        }
        cols.into_iter()
            .zip(&lam.ret)
            .map(|(col, ty)| {
                if col.is_empty() {
                    Value::Arr(Array::zeros(ty.elem(), vec![0]))
                } else {
                    Value::Arr(Array::stack(&col))
                }
            })
            .collect()
    }

    fn eval_hist(
        &self,
        env: &Env,
        op: ReduceOp,
        num_bins: &Atom,
        inds: VarId,
        vals: VarId,
    ) -> Vec<Value> {
        let m = self.atom(env, num_bins).as_i64().max(0) as usize;
        let inds = env.lookup(inds).as_arr().clone();
        let vals = env.lookup(vals).as_arr().clone();
        let stride = vals.stride();
        let mut shape = vals.shape.clone();
        shape[0] = m;
        let n = inds.len().min(vals.len());
        if op == ReduceOp::Add && self.cfg.parallel && n >= self.cfg.parallel_threshold {
            // Parallel histogram with atomic adds, as generated for GPUs.
            let acc = Accum::zeros(shape);
            let idata = inds.i64s();
            let vdata = vals.f64s();
            self.par_map(n, |k| {
                let bin = idata[k];
                if bin >= 0 && (bin as usize) < m {
                    let row = &vdata[k * stride..(k + 1) * stride];
                    acc.add_slice(bin as usize * stride, stride, row);
                }
            });
            return vec![Value::Arr(acc.to_array())];
        }
        let total: usize = shape.iter().product();
        let mut out = vec![op.neutral_f64(); total];
        let idata = inds.i64s();
        let vdata = vals.f64s();
        for k in 0..n {
            let bin = idata[k];
            if bin >= 0 && (bin as usize) < m {
                let off = bin as usize * stride;
                for j in 0..stride {
                    out[off + j] = op.apply_f64(out[off + j], vdata[k * stride + j]);
                }
            }
        }
        vec![Value::Arr(Array::from_f64(shape, out))]
    }

    fn eval_withacc(&self, env: &Env, arrs: &[VarId], lam: &Lambda) -> Vec<Value> {
        let accs: Vec<Accum> = arrs
            .iter()
            .map(|v| Accum::from_array(env.lookup(*v).as_arr()))
            .collect();
        let lam_args: Vec<Value> = accs.iter().map(|a| Value::Acc(a.clone())).collect();
        let results = self.eval_lambda(env, lam, lam_args);
        let mut out: Vec<Value> = accs.iter().map(|a| Value::Arr(a.to_array())).collect();
        out.extend(results.into_iter().skip(arrs.len()));
        out
    }
}

/// `replicate n v` as a fresh array (shared with the bytecode VM).
pub fn replicate(n: usize, v: &Value) -> Array {
    match v {
        Value::F64(x) => Array::vec_f64(vec![*x; n]),
        Value::I64(x) => Array::vec_i64(vec![*x; n]),
        Value::Bool(x) => Array::from_bool(vec![n], vec![*x; n]),
        Value::Arr(a) => {
            let mut shape = vec![n];
            shape.extend_from_slice(&a.shape);
            match a.elem() {
                ScalarType::F64 => Array::from_f64(shape, a.f64s().repeat(n)),
                ScalarType::I64 => Array::from_i64(shape, a.i64s().repeat(n)),
                ScalarType::Bool => Array::from_bool(shape, a.bools().repeat(n)),
            }
        }
        Value::Acc(_) => panic!("replicate of accumulator"),
    }
}

/// The variable — a parameter of `lam` or one free in it — whose
/// accumulator `lam` returns as result `j`: the result followed back
/// through `upd_acc`, aliases, `if`/`loop` results and the accumulator
/// results of inner `map`s. `None` when the handle takes a route this does
/// not follow.
fn acc_result_source(lam: &Lambda, j: usize) -> Option<VarId> {
    match lam.body.result.get(j)? {
        Atom::Var(v) => acc_source_in(&lam.body, *v),
        Atom::Const(_) => None,
    }
}

/// [`acc_result_source`] for variable `v` at the end of `body`: the
/// variable bound outside `body` that `v`'s handle came from.
fn acc_source_in(body: &Body, mut v: VarId) -> Option<VarId> {
    // A handle's definition precedes its use, so one backwards walk finds
    // every link of the chain.
    for stm in body.stms.iter().rev() {
        let Some(k) = stm.pat.iter().position(|p| p.var == v) else {
            continue;
        };
        v = match &stm.exp {
            Exp::UpdAcc { acc, .. } => *acc,
            Exp::Atom(Atom::Var(src)) => *src,
            Exp::Map { lam, args } => {
                let inner = acc_result_source(lam, k)?;
                match lam.params.iter().position(|p| p.var == inner) {
                    Some(p) => args[p],
                    None => inner,
                }
            }
            Exp::Loop { params, .. } => match params.get(k)?.1 {
                Atom::Var(init) => init,
                Atom::Const(_) => return None,
            },
            Exp::If { then_br, .. } => match then_br.result.get(k)? {
                Atom::Var(r) => acc_source_in(then_br, *r)?,
                Atom::Const(_) => return None,
            },
            _ => return None,
        };
    }
    Some(v)
}

/// Apply a unary scalar primitive (shared with the bytecode VM).
pub fn eval_unop(op: UnOp, a: Value) -> Value {
    match (op, a) {
        (UnOp::Neg, Value::F64(x)) => Value::F64(-x),
        (UnOp::Neg, Value::I64(x)) => Value::I64(-x),
        (UnOp::Sin, Value::F64(x)) => Value::F64(x.sin()),
        (UnOp::Cos, Value::F64(x)) => Value::F64(x.cos()),
        (UnOp::Exp, Value::F64(x)) => Value::F64(x.exp()),
        (UnOp::Log, Value::F64(x)) => Value::F64(x.ln()),
        (UnOp::Sqrt, Value::F64(x)) => Value::F64(x.sqrt()),
        (UnOp::Tanh, Value::F64(x)) => Value::F64(x.tanh()),
        (UnOp::Sigmoid, Value::F64(x)) => Value::F64(1.0 / (1.0 + (-x).exp())),
        (UnOp::Abs, Value::F64(x)) => Value::F64(x.abs()),
        (UnOp::Abs, Value::I64(x)) => Value::I64(x.abs()),
        (UnOp::Recip, Value::F64(x)) => Value::F64(1.0 / x),
        (UnOp::Not, Value::Bool(x)) => Value::Bool(!x),
        (UnOp::ToF64, Value::I64(x)) => Value::F64(x as f64),
        (UnOp::ToF64, Value::F64(x)) => Value::F64(x),
        (UnOp::ToI64, Value::F64(x)) => Value::I64(x as i64),
        (UnOp::ToI64, Value::I64(x)) => Value::I64(x),
        (op, a) => panic!("unop {op:?} on {a:?}"),
    }
}

/// Apply a binary scalar primitive (shared with the bytecode VM).
pub fn eval_binop(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => match op {
            Add => Value::F64(x + y),
            Sub => Value::F64(x - y),
            Mul => Value::F64(x * y),
            Div => Value::F64(x / y),
            Pow => Value::F64(x.powf(y)),
            Min => Value::F64(x.min(y)),
            Max => Value::F64(x.max(y)),
            Rem => Value::F64(x % y),
            Eq => Value::Bool(x == y),
            Neq => Value::Bool(x != y),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            And | Or => panic!("logical operator on floats"),
        },
        (Value::I64(x), Value::I64(y)) => match op {
            Add => Value::I64(x + y),
            Sub => Value::I64(x - y),
            Mul => Value::I64(x * y),
            Div => Value::I64(x / y),
            Pow => Value::I64(x.pow(y.max(0) as u32)),
            Min => Value::I64(x.min(y)),
            Max => Value::I64(x.max(y)),
            Rem => Value::I64(x % y),
            Eq => Value::Bool(x == y),
            Neq => Value::Bool(x != y),
            Lt => Value::Bool(x < y),
            Le => Value::Bool(x <= y),
            Gt => Value::Bool(x > y),
            Ge => Value::Bool(x >= y),
            And | Or => panic!("logical operator on ints"),
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            And => Value::Bool(x && y),
            Or => Value::Bool(x || y),
            Eq => Value::Bool(x == y),
            Neq => Value::Bool(x != y),
            _ => panic!("arithmetic operator on bools"),
        },
        (a, b) => panic!("binop {op:?} on mismatched operands {a:?} and {b:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    fn run1(fun: &Fun, args: &[Value]) -> Value {
        Interp::sequential().run(fun, args).remove(0)
    }

    #[test]
    fn scalar_arithmetic() {
        let mut b = Builder::new();
        let f = b.build_fun("f", &[Type::F64, Type::F64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let y = Atom::Var(ps[1]);
            let s = b.fsin(x);
            let p = b.fmul(y, s);
            vec![b.fadd(p, Atom::f64(1.0))]
        });
        let r = run1(&f, &[Value::F64(0.5), Value::F64(2.0)]);
        assert!((r.as_f64() - (2.0 * 0.5f64.sin() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn map_reduce_dot_product() {
        let mut b = Builder::new();
        let f = b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), es[1].into())]
            });
            vec![Atom::Var(b.sum(prods))]
        });
        let x = Value::from(vec![1.0, 2.0, 3.0]);
        let y = Value::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(run1(&f, &[x, y]).as_f64(), 32.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut b = Builder::new();
        let f = b.build_fun("sumsq", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            vec![Atom::Var(b.sum(sq))]
        });
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.001).collect();
        let seq = Interp::sequential().run(&f, &[Value::from(data.clone())])[0].as_f64();
        let par = Interp::with_config(ExecConfig {
            parallel: true,
            num_threads: 4,
            parallel_threshold: 16,
        })
        .run(&f, &[Value::from(data)])[0]
            .as_f64();
        assert!((seq - par).abs() < 1e-6 * seq.abs());
    }

    #[test]
    fn loop_computes_power() {
        let mut b = Builder::new();
        let f = b.build_fun("pow", &[Type::F64, Type::I64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let n = Atom::Var(ps[1]);
            let r = b.loop_(&[(Type::F64, Atom::f64(1.0))], n, |b, _i, acc| {
                vec![b.fmul(acc[0].into(), x)]
            });
            vec![r[0].into()]
        });
        assert_eq!(
            run1(&f, &[Value::F64(2.0), Value::I64(10)]).as_f64(),
            1024.0
        );
    }

    #[test]
    fn if_and_select() {
        let mut b = Builder::new();
        let f = b.build_fun("absish", &[Type::F64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let c = b.lt(x, Atom::f64(0.0));
            let r = b.if_(c, &[Type::F64], |b| vec![b.fneg(x)], |_b| vec![x]);
            vec![r[0].into()]
        });
        assert_eq!(run1(&f, &[Value::F64(-3.0)]).as_f64(), 3.0);
        assert_eq!(run1(&f, &[Value::F64(4.0)]).as_f64(), 4.0);
    }

    #[test]
    fn scan_and_reverse() {
        let mut b = Builder::new();
        let f = b.build_fun("scanrev", &[Type::arr_f64(1)], |b, ps| {
            let s = b.scan_add(ps[0]);
            let r = b.reverse(s);
            vec![Atom::Var(r)]
        });
        let out = run1(&f, &[Value::from(vec![1.0, 2.0, 3.0])]);
        assert_eq!(out.as_arr().f64s(), &[6.0, 3.0, 1.0]);
    }

    #[test]
    fn hist_add_and_max() {
        let mut b = Builder::new();
        let f = b.build_fun("h", &[Type::arr_i64(1), Type::arr_f64(1)], |b, ps| {
            let h1 = b.hist(ReduceOp::Add, Atom::i64(3), ps[0], ps[1]);
            let h2 = b.hist(ReduceOp::Max, Atom::i64(3), ps[0], ps[1]);
            vec![Atom::Var(h1), Atom::Var(h2)]
        });
        let inds = Value::from(vec![0i64, 1, 0, 2, 1]);
        let vals = Value::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let out = Interp::sequential().run(&f, &[inds, vals]);
        assert_eq!(out[0].as_arr().f64s(), &[4.0, 7.0, 4.0]);
        assert_eq!(out[1].as_arr().f64s(), &[3.0, 5.0, 4.0]);
    }

    #[test]
    fn scatter_ignores_out_of_bounds() {
        let mut b = Builder::new();
        let f = b.build_fun(
            "sc",
            &[Type::arr_f64(1), Type::arr_i64(1), Type::arr_f64(1)],
            |b, ps| {
                let r = b.scatter(ps[0], ps[1], ps[2]);
                vec![Atom::Var(r)]
            },
        );
        let dest = Value::from(vec![0.0; 4]);
        let inds = Value::from(vec![2i64, -1, 5, 0]);
        let vals = Value::from(vec![10.0, 20.0, 30.0, 40.0]);
        let out = run1(&f, &[dest, inds, vals]);
        assert_eq!(out.as_arr().f64s(), &[40.0, 0.0, 10.0, 0.0]);
    }

    #[test]
    fn withacc_updacc_accumulates() {
        let mut b = Builder::new();
        let f = b.build_fun(
            "acc",
            &[Type::arr_f64(1), Type::arr_i64(1), Type::arr_f64(1)],
            |b, ps| {
                let dst = ps[0];
                let inds = ps[1];
                let vals = ps[2];
                let out = b.with_acc(&[dst], |b, accs| {
                    let acc = accs[0];
                    let r = b.map1(b.ty_of(acc), &[inds, vals, acc], |b, es| {
                        let i = es[0];
                        let v = es[1];
                        let a = es[2];
                        vec![b.upd_acc(a, &[i.into()], v.into()).into()]
                    });
                    vec![r.into()]
                });
                vec![out[0].into()]
            },
        );
        let dst = Value::from(vec![1.0, 1.0, 1.0]);
        let inds = Value::from(vec![0i64, 2, 0]);
        let vals = Value::from(vec![5.0, 7.0, 3.0]);
        let out = run1(&f, &[dst, inds, vals]);
        assert_eq!(out.as_arr().f64s(), &[9.0, 1.0, 8.0]);
    }

    #[test]
    fn nested_map_over_matrix() {
        let mut b = Builder::new();
        let f = b.build_fun("rowsums", &[Type::arr_f64(2)], |b, ps| {
            let sums = b.map1(Type::arr_f64(1), &[ps[0]], |b, rows| {
                vec![Atom::Var(b.sum(rows[0]))]
            });
            vec![Atom::Var(sums)]
        });
        let m = Value::Arr(Array::from_f64(
            vec![2, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ));
        let out = run1(&f, &[m]);
        assert_eq!(out.as_arr().f64s(), &[6.0, 15.0]);
    }

    #[test]
    fn update_and_index() {
        // In-place updates consume their operand (uniqueness semantics): the
        // read of the original value happens before the update.
        let mut b = Builder::new();
        let f = b.build_fun("updidx", &[Type::arr_f64(1)], |b, ps| {
            let xs = ps[0];
            let orig = b.index(xs, &[Atom::i64(1)]);
            let xs2 = b.update(xs, &[Atom::i64(1)], Atom::f64(42.0));
            let x = b.index(xs2, &[Atom::i64(1)]);
            let y = b.index(xs2, &[Atom::i64(0)]);
            vec![Atom::Var(x), Atom::Var(orig), Atom::Var(y)]
        });
        let out = Interp::sequential().run(&f, &[Value::from(vec![1.0, 2.0, 3.0])]);
        assert_eq!(out[0].as_f64(), 42.0);
        assert_eq!(out[1].as_f64(), 2.0);
        assert_eq!(out[2].as_f64(), 1.0);
    }

    #[test]
    fn replicate_and_iota() {
        let mut b = Builder::new();
        let f = b.build_fun("ri", &[Type::I64], |b, ps| {
            let n = Atom::Var(ps[0]);
            let i = b.iota(n);
            let r = b.replicate(n, Atom::f64(2.5));
            vec![Atom::Var(i), Atom::Var(r)]
        });
        let out = Interp::sequential().run(&f, &[Value::I64(3)]);
        assert_eq!(out[0].as_arr().i64s(), &[0, 1, 2]);
        assert_eq!(out[1].as_arr().f64s(), &[2.5, 2.5, 2.5]);
    }
}
