//! `fir-proptest` — a sized random generator of *well-typed* `fir`
//! programs, with matching argument values, for property-based and
//! differential testing.
//!
//! The generator draws from an expression/SOAC grammar over `f64`/`i64`
//! scalars and rank-1/rank-2 `f64` arrays: scalar arithmetic and
//! transcendentals, `select`, constant indexing, `len`/`replicate`,
//! `map` (including nested maps over matrix rows, with captured outer
//! scalars — fodder for the hoisting pass —, gathers `row[j]` on a
//! matrix row at a literal or clamped data-dependent position, optionally
//! from inside a `loop`: the shape `fir::lower::forward_row_reads`
//! rewrites, and *row nests* `map (\row -> let ys = map f row in …)` that
//! return the inner map's row, fold it in the body, or both: the shape the
//! VM runs inside one kernel), `reduce` with recognized
//! associative operators, prefix sums, `if` over scalar conditions,
//! bounded sequential `loop`s, and `copy` + constant-index `update`
//! pairs (fodder for the memory-planning pass's in-place lowering). Every rank-1 array in a generated program
//! shares one outer length — zero in one program out of eight — and every
//! rank-2 array one shape, and indices are constants within bounds or
//! clamped into them (and not generated over empty arrays), so programs
//! never trap at runtime.
//!
//! Determinism: generation consumes only the caller's [`TestRng`] (the
//! fixed-seed splitmix64 stream of the vendored `proptest` stand-in), so a
//! given seed always yields the same program — CI reruns and failure
//! reproduction are exact.
//!
//! Two profiles:
//!
//! * [`GenConfig::default`] — the full grammar; results may legitimately be
//!   non-finite (`1/0`, `log` of a negative), which bitwise differential
//!   harnesses handle fine.
//! * [`GenConfig::smooth`] — restricts to operations that are smooth and
//!   bounded on the generated input ranges (no `min`/`max`/`select`/`if`,
//!   no `exp`/`log`/`div`), and returns a single scalar — suitable for
//!   finite-difference gradient checking of the AD transforms. (A gather's
//!   data-dependent position is a step function of its input, which only
//!   ever feeds an index, never a value.)

use fir::builder::Builder;
use fir::ir::{Atom, Fun, ReduceOp, VarId};
use fir::types::Type;
use interp::{Array, Value};
use proptest::{Strategy, TestRng};

/// Tuning knobs for the generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Statements generated in the function body (before the result
    /// combine); nested lambda bodies draw their own small budgets.
    pub max_stms: usize,
    /// Maximum SOAC nesting depth (2 = maps over matrix rows containing
    /// inner maps/reductions).
    pub max_depth: usize,
    /// Restrict to smooth, bounded operations (see module docs) and return
    /// a single scalar, for gradient checking.
    pub smooth: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_stms: 8,
            max_depth: 2,
            smooth: false,
        }
    }
}

impl GenConfig {
    /// The gradient-checkable profile.
    pub fn smooth() -> GenConfig {
        GenConfig {
            smooth: true,
            ..GenConfig::default()
        }
    }
}

/// Generate one well-typed function plus matching argument values.
///
/// The returned program type-checks by construction (the harnesses assert
/// it anyway) and runs without panicking on the returned arguments on every
/// backend.
pub fn arbitrary_fun(name: &str, rng: &mut TestRng, cfg: &GenConfig) -> (Fun, Vec<Value>) {
    // The shared rank-1 length (and outer length of rank-2 arrays): one
    // program in eight is generated over zero-extent arrays, so every
    // executor's empty-SOAC conventions face the differential harnesses.
    let n = if rng.below(0, 8) == 0 {
        0
    } else {
        rng.below(2, 5)
    };
    let m = rng.below(2, 4); // shared inner length of rank-2 arrays
    let num_f64 = rng.below(1, 3);
    let num_arr1 = rng.below(1, 3);
    let num_arr2 = usize::from(rng.below(0, 2) == 1);

    let mut param_tys = Vec::new();
    let mut args = Vec::new();
    for _ in 0..num_f64 {
        param_tys.push(Type::F64);
        args.push(Value::F64(unit_range(rng)));
    }
    for _ in 0..num_arr1 {
        param_tys.push(Type::arr_f64(1));
        args.push(Value::Arr(Array::from_f64(
            vec![n],
            (0..n).map(|_| unit_range(rng)).collect(),
        )));
    }
    for _ in 0..num_arr2 {
        param_tys.push(Type::arr_f64(2));
        args.push(Value::Arr(Array::from_f64(
            vec![n, m],
            (0..n * m).map(|_| unit_range(rng)).collect(),
        )));
    }

    let mut b = Builder::new();
    let fun = b.build_fun(name, &param_tys, |b, ps| {
        let mut g = Gen {
            rng,
            cfg,
            n,
            m,
            f64s: Vec::new(),
            arr1: Vec::new(),
            arr2: Vec::new(),
        };
        for (p, ty) in ps.iter().zip(&param_tys) {
            match ty {
                Type::Scalar(_) => g.f64s.push(*p),
                Type::Array { rank: 1, .. } => g.arr1.push(*p),
                _ => g.arr2.push(*p),
            }
        }
        for _ in 0..g.rng.below(3, cfg.max_stms.max(4)) {
            g.stm(b, cfg.max_depth);
        }
        g.result(b)
    });
    (fun, args)
}

/// A `proptest` strategy producing `(Fun, args)` pairs; usable in
/// `proptest!` bodies from any test crate.
pub struct FunStrategy(pub GenConfig);

impl Strategy for FunStrategy {
    type Value = (Fun, Vec<Value>);
    fn generate(&self, rng: &mut TestRng) -> (Fun, Vec<Value>) {
        arbitrary_fun("fuzz", rng, &self.0)
    }
}

fn unit_range(rng: &mut TestRng) -> f64 {
    rng.unit_f64() * 3.0 - 1.5
}

struct Gen<'a> {
    rng: &'a mut TestRng,
    cfg: &'a GenConfig,
    /// The shared outer length of every rank-1 array in the program.
    n: usize,
    /// The shared inner length of every rank-2 array in the program.
    m: usize,
    f64s: Vec<VarId>,
    arr1: Vec<VarId>,
    arr2: Vec<VarId>,
}

impl Gen<'_> {
    fn pick(&mut self, pool_len: usize) -> usize {
        self.rng.below(0, pool_len)
    }

    fn scalar(&mut self, _b: &mut Builder) -> Atom {
        if self.f64s.is_empty() || self.rng.below(0, 4) == 0 {
            Atom::f64(unit_range(self.rng))
        } else {
            let i = self.pick(self.f64s.len());
            Atom::Var(self.f64s[i])
        }
    }

    fn unop(&mut self, b: &mut Builder, x: Atom) -> Atom {
        let smooth_ops = 5usize;
        let all_ops = 9usize;
        let k = self
            .rng
            .below(0, if self.cfg.smooth { smooth_ops } else { all_ops });
        match k {
            0 => b.fsin(x),
            1 => b.fcos(x),
            2 => b.ftanh(x),
            3 => b.fsigmoid(x),
            4 => b.fneg(x),
            5 => b.fexp(x),
            6 => b.flog(x),
            7 => b.fsqrt(x),
            _ => b.fabs(x),
        }
    }

    fn binop(&mut self, b: &mut Builder, x: Atom, y: Atom) -> Atom {
        let smooth_ops = 3usize;
        let all_ops = 6usize;
        let k = self
            .rng
            .below(0, if self.cfg.smooth { smooth_ops } else { all_ops });
        match k {
            0 => b.fadd(x, y),
            1 => b.fsub(x, y),
            2 => b.fmul(x, y),
            3 => b.fdiv(x, y),
            4 => b.fmin(x, y),
            _ => b.fmax(x, y),
        }
    }

    /// A short chain of scalar operations over the given element variables
    /// and the enclosing scalar pool (captures exercise hoisting), ending
    /// in a single atom.
    fn scalar_chain(&mut self, b: &mut Builder, elems: &[VarId]) -> Atom {
        let mut cur: Atom = if elems.is_empty() {
            self.scalar(b)
        } else {
            let i = self.pick(elems.len());
            Atom::Var(elems[i])
        };
        for _ in 0..self.rng.below(1, 4) {
            cur = if self.rng.below(0, 3) == 0 {
                self.unop(b, cur)
            } else {
                let rhs = if !elems.is_empty() && self.rng.below(0, 2) == 0 {
                    let i = self.pick(elems.len());
                    Atom::Var(elems[i])
                } else {
                    self.scalar(b)
                };
                self.binop(b, cur, rhs)
            };
        }
        cur
    }

    fn reduce_op(&mut self) -> ReduceOp {
        if self.cfg.smooth {
            ReduceOp::Add
        } else {
            match self.rng.below(0, 4) {
                0 => ReduceOp::Add,
                1 => ReduceOp::Mul,
                2 => ReduceOp::Min,
                _ => ReduceOp::Max,
            }
        }
    }

    /// Emit one random statement into the current scope.
    fn stm(&mut self, b: &mut Builder, depth: usize) {
        let has_arr1 = !self.arr1.is_empty();
        let has_arr2 = !self.arr2.is_empty();
        // The copy+update arm (the last one) only exists in the full
        // profile.
        let choices = if self.cfg.smooth { 12 } else { 13 };
        let choice = self.rng.below(0, choices);
        match choice {
            // Scalar chain.
            0 | 1 => {
                let v = self.scalar_chain(b, &[]);
                if let Atom::Var(v) = v {
                    self.f64s.push(v);
                }
            }
            // Map over one or two rank-1 arrays.
            2..=4 if has_arr1 && depth > 0 => {
                let nargs = 1 + usize::from(self.arr1.len() > 1 && self.rng.below(0, 2) == 1);
                let mut soac_args = Vec::new();
                for _ in 0..nargs {
                    let i = self.pick(self.arr1.len());
                    soac_args.push(self.arr1[i]);
                }
                let out = b.map1(Type::arr_f64(1), &soac_args, |b, es| {
                    vec![self.scalar_chain(b, es)]
                });
                self.arr1.push(out);
            }
            // Reduce a rank-1 array with a recognized operator.
            5 if has_arr1 => {
                let op = self.reduce_op();
                let i = self.pick(self.arr1.len());
                let arr = self.arr1[i];
                let r = b.reduce_op(op, arr);
                self.f64s.push(r);
            }
            // Prefix sum (scan +) keeps the shared length.
            6 if has_arr1 && !self.cfg.smooth => {
                let i = self.pick(self.arr1.len());
                let arr = self.arr1[i];
                let out = b.scan_add(arr);
                self.arr1.push(out);
            }
            // Constant in-bounds index.
            6 if has_arr1 && self.cfg.smooth && self.n > 0 => {
                let i = self.pick(self.arr1.len());
                let arr = self.arr1[i];
                let c = self.rng.below(0, self.n) as i64;
                let x = b.index(arr, &[Atom::i64(c)]);
                self.f64s.push(x);
            }
            // replicate (len a) s — a fresh rank-1 array of the shared length.
            7 if has_arr1 => {
                let i = self.pick(self.arr1.len());
                let arr = self.arr1[i];
                let l = b.len(arr);
                let s = self.scalar(b);
                let out = b.replicate(l, s);
                self.arr1.push(out);
            }
            // Scalar `if` (non-smooth: a kink) or a constant index (smooth).
            8 => {
                if self.cfg.smooth {
                    if has_arr1 && self.n > 0 {
                        let i = self.pick(self.arr1.len());
                        let arr = self.arr1[i];
                        let c = self.rng.below(0, self.n) as i64;
                        let x = b.index(arr, &[Atom::i64(c)]);
                        self.f64s.push(x);
                    }
                } else {
                    let x = self.scalar(b);
                    let y = self.scalar(b);
                    let cond = b.lt(x, y);
                    b.begin_scope();
                    let t = self.scalar_chain(b, &[]);
                    let tstms = b.end_scope();
                    b.begin_scope();
                    let e = self.scalar_chain(b, &[]);
                    let estms = b.end_scope();
                    let r = b.bind(
                        &[Type::F64],
                        fir::ir::Exp::If {
                            cond,
                            then_br: fir::ir::Body::new(tstms, vec![t]),
                            else_br: fir::ir::Body::new(estms, vec![e]),
                        },
                    );
                    self.f64s.push(r[0]);
                }
            }
            // Bounded sequential loop carrying one f64.
            9 => {
                let init = self.scalar(b);
                let count = Atom::i64(self.rng.below(1, 4) as i64);
                let r = b.loop_(&[(Type::F64, init)], count, |b, _i, acc| {
                    let chain = self.scalar_chain(b, acc);
                    vec![b.fadd(chain, Atom::Var(acc[0]))]
                });
                self.f64s.push(r[0]);
            }
            // Map over matrix rows: a gather `row[j]` (the shape
            // `forward_row_reads` rewrites), or a nested reduction of the
            // whole row (which it must leave alone).
            10 if has_arr2 && depth > 1 => {
                let i = self.pick(self.arr2.len());
                let mat = self.arr2[i];
                if self.rng.below(0, 4) == 0 {
                    let out = b.map1(Type::arr_f64(1), &[mat], |b, rows| {
                        let sq = b.map1(Type::arr_f64(1), &[rows[0]], |b, es| {
                            vec![self.scalar_chain(b, es)]
                        });
                        vec![Atom::Var(b.sum(sq))]
                    });
                    self.arr1.push(out);
                    return;
                }
                let i = self.pick(self.arr1.len());
                let xs = self.arr1[i];
                let last = Atom::i64(self.m as i64 - 1);
                let literal = Atom::i64(self.rng.below(0, self.m) as i64);
                let data_dependent = self.rng.below(0, 3) != 0;
                let trips = self.rng.below(0, 3) as i64; // 0: no loop
                let out = b.map1(Type::arr_f64(1), &[mat, xs], |b, es| {
                    let (row, x) = (es[0], es[1]);
                    // |x| * 2 truncated and clamped: an in-bounds position
                    // that depends on the data, piecewise constant in it.
                    let j = if data_dependent {
                        let a = b.fabs(x.into());
                        let s = b.fmul(a, Atom::f64(2.0));
                        let t = b.to_i64(s);
                        b.imin(t, last)
                    } else {
                        literal
                    };
                    if trips == 0 {
                        let e = b.index(row, &[j]);
                        return vec![self.scalar_chain(b, &[e, x])];
                    }
                    let init = Atom::f64(0.0);
                    let r = b.loop_(&[(Type::F64, init)], Atom::i64(trips), |b, t, acc| {
                        let jt = b.iadd(j, t.into());
                        let jj = b.imin(jt, last);
                        let e = b.index(row, &[jj]);
                        let chain = self.scalar_chain(b, &[e, x]);
                        vec![b.fadd(chain, Atom::Var(acc[0]))]
                    });
                    vec![r[0].into()]
                });
                self.arr1.push(out);
            }
            // Copy then constant-index update: the functional in-place
            // pair the memory planner rewrites into a true in-place write
            // whenever the copy's source is dead after the update.
            // A row nest: the inner map's row returned, folded, or both.
            11 if has_arr2 && depth > 1 => {
                let i = self.pick(self.arr2.len());
                let mat = self.arr2[i];
                self.row_nest(b, mat);
            }
            12 if has_arr1 && self.n > 0 => {
                let i = self.pick(self.arr1.len());
                let arr = self.arr1[i];
                let y = b.copy(arr);
                let c = self.rng.below(0, self.n) as i64;
                let v = self.scalar(b);
                let out = b.update(y, &[Atom::i64(c)], v);
                self.arr1.push(out);
            }
            _ => {
                let v = self.scalar_chain(b, &[]);
                if let Atom::Var(v) = v {
                    self.f64s.push(v);
                }
            }
        }
    }

    /// `map (\row [row'] -> let ys = map f row [row'] in …) mat [mat']`: an
    /// inner map over the row whose result is the lambda's row result, is
    /// folded in the body, or both. `f` has a captured outer scalar and an
    /// element of a captured rank-1 array among its free variables; the
    /// second stream of the inner map is the row of a second matrix or one
    /// fixed row captured from outside the nest (whose adjoint is then a
    /// whole-row accumulator update inside the reverse map).
    fn row_nest(&mut self, b: &mut Builder, mat: VarId) {
        let i = self.pick(self.arr2.len());
        let other = self.arr2[i];
        // One stream, the rows of `other` beside it, or (half the time,
        // when there is a row to take) one captured row of `other`.
        let second = match self.rng.below(0, 4) {
            0 => Ok(None),
            1 => Ok(Some(other)),
            _ if self.n > 0 => {
                let c = self.rng.below(0, self.n) as i64;
                Err(b.index(other, &[Atom::i64(c)]))
            }
            _ => Ok(None),
        };
        let scale = match self.f64s.len() {
            0 => None,
            len => {
                let i = self.pick(len);
                Some(self.f64s[i])
            }
        };
        let table = if self.n > 0 {
            let i = self.pick(self.arr1.len());
            Some((self.arr1[i], self.rng.below(0, self.n) as i64))
        } else {
            None
        };
        let ending = self.rng.below(0, 3); // 0: the row, 1: its fold, 2: both
        let op = self.reduce_op();
        let mut out_tys = Vec::new();
        if ending != 0 {
            out_tys.push(Type::arr_f64(1));
        }
        if ending != 1 {
            out_tys.push(Type::arr_f64(2));
        }
        let mut args = vec![mat];
        args.extend(second.ok().flatten());
        let outs = b.map(&out_tys, &args, |b, rows| {
            let mut streams = rows.to_vec();
            streams.extend(second.err());
            let ys = b.map1(Type::arr_f64(1), &streams, |b, es| {
                let mut v = self.scalar_chain(b, es);
                if let Some((xs, c)) = table {
                    let t = b.index(xs, &[Atom::i64(c)]);
                    v = b.fadd(v, t.into());
                }
                if let Some(s) = scale {
                    v = b.fmul(v, s.into());
                }
                vec![v]
            });
            let mut results = Vec::new();
            if ending != 0 {
                results.push(b.reduce_op(op, ys).into());
            }
            if ending != 1 {
                results.push(ys.into());
            }
            results
        });
        if ending != 0 {
            self.arr1.push(outs[0]);
        }
        if ending != 1 {
            self.arr2.push(*outs.last().expect("a row result"));
        }
    }

    /// Combine live values into the results: a scalar that depends on a
    /// random subset of everything generated (and, in the non-smooth
    /// profile, additionally a rank-1 array result).
    fn result(&mut self, b: &mut Builder) -> Vec<Atom> {
        let mut acc = self.scalar(b);
        let picks = self.rng.below(1, 4);
        for _ in 0..picks {
            let use_arr = !self.arr1.is_empty() && self.rng.below(0, 2) == 0;
            let term = if use_arr {
                let i = self.pick(self.arr1.len());
                let s = b.sum(self.arr1[i]);
                Atom::Var(s)
            } else {
                self.scalar(b)
            };
            acc = b.fadd(acc, term);
        }
        // Always fold in one array sum so every program exercises a SOAC.
        if let Some(&arr) = self.arr1.first() {
            let s = b.sum(arr);
            acc = b.fadd(acc, Atom::Var(s));
        }
        if self.cfg.smooth {
            vec![acc]
        } else if let Some(&arr) = self.arr1.last() {
            vec![acc, Atom::Var(arr)]
        } else {
            vec![acc]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::typecheck::check_fun;
    use interp::Interp;

    #[test]
    fn generated_programs_typecheck_and_run() {
        let mut rng = TestRng::deterministic();
        for case in 0..64 {
            let (fun, args) = arbitrary_fun(&format!("g{case}"), &mut rng, &GenConfig::default());
            check_fun(&fun).unwrap_or_else(|e| panic!("case {case}: {e}\n{fun}"));
            let out = Interp::sequential().run(&fun, &args);
            assert!(!out.is_empty(), "case {case} returned nothing");
        }
    }

    #[test]
    fn smooth_profile_is_finite_and_scalar() {
        let mut rng = TestRng::deterministic();
        for case in 0..64 {
            let (fun, args) = arbitrary_fun(&format!("s{case}"), &mut rng, &GenConfig::smooth());
            check_fun(&fun).unwrap_or_else(|e| panic!("case {case}: {e}\n{fun}"));
            assert_eq!(fun.ret, vec![Type::F64]);
            let out = Interp::sequential().run(&fun, &args);
            assert!(
                out[0].as_f64().is_finite(),
                "case {case} produced {:?}",
                out[0]
            );
        }
    }

    /// The corpora `tests/opt_fuzz.rs` draws (256 full-profile programs, 64
    /// smooth ones, each from a fresh deterministic stream) must contain
    /// the pattern `forward_row_reads` rewrites, with and without a loop
    /// around the gather — otherwise the fuzz square never holds the
    /// rewrite to its bitwise contract.
    #[test]
    fn corpora_contain_zero_extent_programs() {
        // Both fuzz corpora (256 default, 64 smooth programs off the
        // deterministic stream) must include programs over empty arrays,
        // and those must run.
        for (cfg, cases) in [(GenConfig::default(), 256), (GenConfig::smooth(), 64)] {
            let mut rng = TestRng::deterministic();
            let mut empty = 0;
            for i in 0..cases {
                let (fun, args) = arbitrary_fun(&format!("z{i}"), &mut rng, &cfg);
                let is_empty = |v: &Value| matches!(v, Value::Arr(a) if a.is_empty());
                if args.iter().any(is_empty) {
                    empty += 1;
                    Interp::sequential().run(&fun, &args);
                }
            }
            assert!(empty >= cases / 16, "{empty} of {cases} programs are empty");
        }
    }

    #[test]
    fn corpora_contain_gathers_on_map_rows() {
        use fir::ir::{Body, Exp};
        /// Is there a forwarded read (`xs[i, j]`, two indices) under a loop?
        fn gathers_in_loop(body: &Body, in_loop: bool) -> bool {
            body.stms.iter().any(|s| match &s.exp {
                Exp::Index { idx, .. } => in_loop && idx.len() == 2,
                Exp::Loop { body, .. } => gathers_in_loop(body, true),
                Exp::Map { lam, .. } => gathers_in_loop(&lam.body, in_loop),
                _ => false,
            })
        }
        for (profile, cfg, cases) in [
            ("full", GenConfig::default(), 256),
            ("smooth", GenConfig::smooth(), 64),
        ] {
            let mut rng = TestRng::deterministic();
            let (mut gathers, mut in_loops, mut rank2) = (0, 0, 0);
            for case in 0..cases {
                let (fun, _) = arbitrary_fun(&format!("c{case}"), &mut rng, &cfg);
                rank2 += usize::from(fun.params.iter().any(|p| p.ty == Type::arr_f64(2)));
                let (out, n) = fir::lower::forward_row_reads_counted(&fun);
                if n > 0 {
                    check_fun(&out).unwrap_or_else(|e| panic!("case {case}: {e}\n{out}"));
                    gathers += 1;
                    in_loops += usize::from(gathers_in_loop(&out.body, false));
                }
            }
            println!(
                "{profile}: {cases} programs, {rank2} with a rank-2 array, \
                 {gathers} with a forwardable row gather, {in_loops} of those inside a loop"
            );
            assert!(gathers >= cases / 32, "{profile}: {gathers} of {cases}");
            assert!(in_loops > 0, "{profile}: no gather nested with a loop");
        }
    }

    /// The corpora must contain row nests — an inner map over a matrix row
    /// whose result the outer lambda returns as a row or folds in its body
    /// — so that the fuzz square holds the VM's nested kernels to the
    /// bitwise contract, and their vjps must contain the whole-array
    /// `upd_acc` inside a `map` that a free array of a nest produces.
    #[test]
    fn corpora_contain_row_nests() {
        use fir::ir::{Body, Exp, Lambda};
        use std::collections::HashMap;
        /// `(returns the inner map's row, folds it in the body)` for the
        /// first row nest found.
        fn nest_of(lam: &Lambda) -> Option<(bool, bool)> {
            let params: Vec<VarId> = lam.params.iter().map(|p| p.var).collect();
            lam.body.stms.iter().find_map(|s| match &s.exp {
                Exp::Map { args, .. } if args.iter().any(|a| params.contains(a)) => {
                    let ys = s.pat[0].var;
                    let row = lam.body.result.contains(&Atom::Var(ys));
                    let fold =
                        lam.body.stms.iter().any(
                            |t| matches!(&t.exp, Exp::Reduce { args, .. } if args.contains(&ys)),
                        );
                    (row || fold).then_some((row, fold))
                }
                _ => None,
            })
        }
        fn find_nest(body: &Body) -> Option<(bool, bool)> {
            body.stms.iter().find_map(|s| match &s.exp {
                Exp::Map { lam, .. } => nest_of(lam).or_else(|| find_nest(&lam.body)),
                Exp::Loop { body, .. } => find_nest(body),
                _ => None,
            })
        }
        /// Is there an `upd_acc` with fewer indices than its accumulator
        /// has dimensions (an array-valued update) inside a `map`?
        fn row_update(body: &Body, in_map: bool, accs: &mut HashMap<VarId, usize>) -> bool {
            body.stms.iter().any(|s| {
                for p in &s.pat {
                    if let Type::Acc { rank, .. } = p.ty {
                        accs.insert(p.var, rank);
                    }
                }
                let mut lambda = |lam: &Lambda, in_map: bool| {
                    for p in &lam.params {
                        if let Type::Acc { rank, .. } = p.ty {
                            accs.insert(p.var, rank);
                        }
                    }
                    row_update(&lam.body, in_map, accs)
                };
                match &s.exp {
                    Exp::UpdAcc { acc, idx, .. } => {
                        in_map && accs.get(acc).is_some_and(|rank| idx.len() < *rank)
                    }
                    Exp::Map { lam, .. } => lambda(lam, true),
                    Exp::WithAcc { lam, .. } => lambda(lam, in_map),
                    Exp::Loop { params, body, .. } => {
                        for (p, _) in params {
                            if let Type::Acc { rank, .. } = p.ty {
                                accs.insert(p.var, rank);
                            }
                        }
                        row_update(body, in_map, accs)
                    }
                    Exp::If {
                        then_br, else_br, ..
                    } => row_update(then_br, in_map, accs) || row_update(else_br, in_map, accs),
                    _ => false,
                }
            })
        }
        for (profile, cfg, cases) in [
            ("full", GenConfig::default(), 256),
            ("smooth", GenConfig::smooth(), 64),
        ] {
            let mut rng = TestRng::deterministic();
            let (mut nests, mut rows, mut folds, mut updates) = (0, 0, 0, 0);
            for case in 0..cases {
                let (fun, _) = arbitrary_fun(&format!("n{case}"), &mut rng, &cfg);
                let Some((row, fold)) = find_nest(&fun.body) else {
                    continue;
                };
                nests += 1;
                rows += usize::from(row);
                folds += usize::from(fold);
                let dfun = futhark_ad::vjp(&fun);
                check_fun(&dfun).unwrap_or_else(|e| panic!("case {case}: {e}\n{dfun}"));
                updates += usize::from(row_update(&dfun.body, false, &mut HashMap::new()));
            }
            println!(
                "{profile}: {cases} programs, {nests} with a row nest ({rows} returning \
                 the row, {folds} folding it), {updates} of their vjps with a whole-row \
                 upd_acc inside a map"
            );
            assert!(nests >= cases / 32, "{profile}: {nests} of {cases}");
            assert!(
                rows > 0 && folds > 0,
                "{profile}: {rows} rows, {folds} folds"
            );
            assert!(updates > 0, "{profile}: no whole-row upd_acc in any vjp");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mk = || {
            let mut rng = TestRng::deterministic();
            arbitrary_fun("d", &mut rng, &GenConfig::default())
        };
        let (f1, a1) = mk();
        let (f2, a2) = mk();
        assert_eq!(f1, f2);
        assert_eq!(format!("{a1:?}"), format!("{a2:?}"));
    }
}
