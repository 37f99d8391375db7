//! `tape-ad` — a classical tape-based reverse-mode AD over the `fir` IR.
//!
//! This is the reproduction's stand-in for Tapenade/ADOL-C in Table 1 of the
//! paper: the program is evaluated *sequentially* while every scalar
//! floating-point operation is recorded on a global tape (value + local
//! partials w.r.t. its operands); the gradient is then obtained by a single
//! reverse sweep over the tape. The defining cost — every intermediate
//! scalar goes through tape memory, with no recomputation and no
//! exploitation of parallel structure — is exactly what the paper contrasts
//! its redundant-execution approach against.

use std::collections::HashMap;

use fir::ir::{Atom, BinOp, Body, Const, Exp, Fun, Lambda, ReduceOp, Stm, UnOp, VarId};
use fir::types::{ScalarType, Type};
use interp::Value;

/// One recorded scalar operation: up to two parents with their local
/// partial derivatives.
#[derive(Debug, Clone, Copy)]
struct Node {
    parents: [usize; 2],
    weights: [f64; 2],
}

/// The tape: values and dependency records for every scalar ever computed.
#[derive(Debug, Default)]
pub struct Tape {
    vals: Vec<f64>,
    nodes: Vec<Node>,
}

impl Tape {
    fn constant(&mut self, x: f64) -> usize {
        self.push(x, [0, 0], [0.0, 0.0])
    }

    fn push(&mut self, val: f64, parents: [usize; 2], weights: [f64; 2]) -> usize {
        self.vals.push(val);
        self.nodes.push(Node { parents, weights });
        self.vals.len() - 1
    }

    fn unary(&mut self, a: usize, val: f64, da: f64) -> usize {
        self.push(val, [a, a], [da, 0.0])
    }

    fn binary(&mut self, a: usize, b: usize, val: f64, da: f64, db: f64) -> usize {
        self.push(val, [a, b], [da, db])
    }

    /// Number of scalars recorded (the tape length).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Reverse sweep: the adjoint of every tape position given a seed at
    /// `output`.
    fn reverse(&self, output: usize, seed: f64) -> Vec<f64> {
        let mut adj = vec![0.0; self.vals.len()];
        adj[output] = seed;
        for i in (0..=output).rev() {
            let a = adj[i];
            if a == 0.0 {
                continue;
            }
            let n = self.nodes[i];
            adj[n.parents[0]] += n.weights[0] * a;
            adj[n.parents[1]] += n.weights[1] * a;
        }
        adj
    }
}

/// A runtime value of the tape interpreter: scalars carry tape indices.
#[derive(Debug, Clone)]
enum TVal {
    F64(usize),
    I64(i64),
    Bool(bool),
    /// An `f64` array of tape indices with a shape.
    ArrF64(Vec<usize>, Vec<usize>),
    ArrI64(Vec<i64>, Vec<usize>),
    ArrBool(Vec<bool>, Vec<usize>),
}

impl TVal {
    fn as_f64(&self) -> usize {
        match self {
            TVal::F64(i) => *i,
            other => panic!("expected f64 tape value, got {other:?}"),
        }
    }
    fn as_i64(&self) -> i64 {
        match self {
            TVal::I64(i) => *i,
            other => panic!("expected i64, got {other:?}"),
        }
    }
    fn as_bool(&self) -> bool {
        match self {
            TVal::Bool(b) => *b,
            other => panic!("expected bool, got {other:?}"),
        }
    }
    fn outer_len(&self) -> usize {
        match self {
            TVal::ArrF64(_, s) | TVal::ArrI64(_, s) | TVal::ArrBool(_, s) => s[0],
            other => panic!("expected array, got {other:?}"),
        }
    }
    fn stride(&self) -> usize {
        match self {
            TVal::ArrF64(_, s) | TVal::ArrI64(_, s) | TVal::ArrBool(_, s) => {
                s.iter().skip(1).product()
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
    fn index_outer(&self, i: usize) -> TVal {
        let stride = self.stride();
        match self {
            TVal::ArrF64(d, s) => {
                if s.len() == 1 {
                    TVal::F64(d[i])
                } else {
                    TVal::ArrF64(d[i * stride..(i + 1) * stride].to_vec(), s[1..].to_vec())
                }
            }
            TVal::ArrI64(d, s) => {
                if s.len() == 1 {
                    TVal::I64(d[i])
                } else {
                    TVal::ArrI64(d[i * stride..(i + 1) * stride].to_vec(), s[1..].to_vec())
                }
            }
            TVal::ArrBool(d, s) => {
                if s.len() == 1 {
                    TVal::Bool(d[i])
                } else {
                    TVal::ArrBool(d[i * stride..(i + 1) * stride].to_vec(), s[1..].to_vec())
                }
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct TapeInterp<'a> {
    tape: &'a mut Tape,
    env: HashMap<VarId, TVal>,
}

impl TapeInterp<'_> {
    fn atom(&mut self, a: &Atom) -> TVal {
        match a {
            Atom::Var(v) => self
                .env
                .get(v)
                .unwrap_or_else(|| panic!("unbound {v}"))
                .clone(),
            Atom::Const(Const::F64(x)) => TVal::F64(self.tape.constant(*x)),
            Atom::Const(Const::I64(x)) => TVal::I64(*x),
            Atom::Const(Const::Bool(x)) => TVal::Bool(*x),
        }
    }

    fn body(&mut self, b: &Body) -> Vec<TVal> {
        for Stm { pat, exp } in &b.stms {
            let vals = self.exp(exp);
            for (p, v) in pat.iter().zip(vals) {
                self.env.insert(p.var, v);
            }
        }
        b.result.iter().map(|a| self.atom(a)).collect()
    }

    fn lambda(&mut self, lam: &Lambda, args: Vec<TVal>) -> Vec<TVal> {
        for (p, a) in lam.params.iter().zip(args) {
            self.env.insert(p.var, a);
        }
        self.body(&lam.body)
    }

    fn index(&mut self, arr: &TVal, idx: &[i64]) -> TVal {
        let mut cur = arr.clone();
        for i in idx {
            cur = cur.index_outer(*i as usize);
        }
        cur
    }

    fn flat_f64(&self, v: &TVal) -> Vec<usize> {
        match v {
            TVal::F64(i) => vec![*i],
            TVal::ArrF64(d, _) => d.clone(),
            other => panic!("expected f64 data, got {other:?}"),
        }
    }

    fn exp(&mut self, e: &Exp) -> Vec<TVal> {
        match e {
            Exp::Atom(a) => vec![self.atom(a)],
            Exp::UnOp(op, a) => {
                let va = self.atom(a);
                vec![self.unop(*op, va)]
            }
            Exp::BinOp(op, a, b) => {
                let va = self.atom(a);
                let vb = self.atom(b);
                vec![self.binop(*op, va, vb)]
            }
            Exp::Select { cond, t, f } => {
                let c = self.atom(cond).as_bool();
                vec![if c { self.atom(t) } else { self.atom(f) }]
            }
            Exp::Index { arr, idx } => {
                let a = self.env[arr].clone();
                let idx: Vec<i64> = idx.iter().map(|i| self.atom(i).as_i64()).collect();
                vec![self.index(&a, &idx)]
            }
            Exp::Update { arr, idx, val } => {
                let a = self.env[arr].clone();
                let idx: Vec<i64> = idx.iter().map(|i| self.atom(i).as_i64()).collect();
                let v = self.atom(val);
                vec![self.update(a, &idx, v)]
            }
            Exp::Len(v) => vec![TVal::I64(self.env[v].outer_len() as i64)],
            Exp::Iota(n) => {
                let n = self.atom(n).as_i64().max(0);
                vec![TVal::ArrI64((0..n).collect(), vec![n as usize])]
            }
            Exp::Replicate { n, val } => {
                let n = self.atom(n).as_i64().max(0) as usize;
                let v = self.atom(val);
                vec![match v {
                    TVal::F64(i) => TVal::ArrF64(vec![i; n], vec![n]),
                    TVal::I64(i) => TVal::ArrI64(vec![i; n], vec![n]),
                    TVal::Bool(b) => TVal::ArrBool(vec![b; n], vec![n]),
                    TVal::ArrF64(d, s) => {
                        let mut shape = vec![n];
                        shape.extend(s);
                        TVal::ArrF64(d.repeat(n), shape)
                    }
                    TVal::ArrI64(d, s) => {
                        let mut shape = vec![n];
                        shape.extend(s);
                        TVal::ArrI64(d.repeat(n), shape)
                    }
                    TVal::ArrBool(d, s) => {
                        let mut shape = vec![n];
                        shape.extend(s);
                        TVal::ArrBool(d.repeat(n), shape)
                    }
                }]
            }
            Exp::Reverse(v) => {
                let a = self.env[v].clone();
                let n = a.outer_len();
                if n == 0 {
                    return vec![a];
                }
                let parts: Vec<TVal> = (0..n).rev().map(|i| a.index_outer(i)).collect();
                vec![self.stack(&parts, Type::F64)]
            }
            Exp::Copy(v) => vec![self.env[v].clone()],
            Exp::If {
                cond,
                then_br,
                else_br,
            } => {
                if self.atom(cond).as_bool() {
                    self.body(then_br)
                } else {
                    self.body(else_br)
                }
            }
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => {
                let n = self.atom(count).as_i64().max(0);
                let mut state: Vec<TVal> = params.iter().map(|(_, i)| self.atom(i)).collect();
                for i in 0..n {
                    for ((p, _), v) in params.iter().zip(state.iter()) {
                        self.env.insert(p.var, v.clone());
                    }
                    self.env.insert(*index, TVal::I64(i));
                    state = self.body(body);
                }
                state
            }
            Exp::Map { lam, args } => {
                let arrs: Vec<TVal> = args.iter().map(|a| self.env[a].clone()).collect();
                let n = arrs[0].outer_len();
                let width = lam.ret.len();
                let mut cols: Vec<Vec<TVal>> = vec![Vec::with_capacity(n); width];
                for i in 0..n {
                    let elems: Vec<TVal> = arrs.iter().map(|a| a.index_outer(i)).collect();
                    let outs = self.lambda(lam, elems);
                    for (c, o) in cols.iter_mut().zip(outs) {
                        c.push(o);
                    }
                }
                cols.iter()
                    .zip(&lam.ret)
                    .map(|(c, t)| self.stack(c, *t))
                    .collect()
            }
            Exp::Reduce { lam, neutral, args } => {
                let arrs: Vec<TVal> = args.iter().map(|a| self.env[a].clone()).collect();
                let n = arrs[0].outer_len();
                let mut acc: Vec<TVal> = neutral.iter().map(|a| self.atom(a)).collect();
                for i in 0..n {
                    let mut lam_args = acc;
                    lam_args.extend(arrs.iter().map(|a| a.index_outer(i)));
                    acc = self.lambda(lam, lam_args);
                }
                acc
            }
            Exp::Redomap {
                red_lam,
                map_lam,
                neutral,
                args,
            } => {
                let arrs: Vec<TVal> = args.iter().map(|a| self.env[a].clone()).collect();
                let n = arrs[0].outer_len();
                let mut acc: Vec<TVal> = neutral.iter().map(|a| self.atom(a)).collect();
                for i in 0..n {
                    let vals =
                        self.lambda(map_lam, arrs.iter().map(|a| a.index_outer(i)).collect());
                    let mut lam_args = acc;
                    lam_args.extend(vals);
                    acc = self.lambda(red_lam, lam_args);
                }
                acc
            }
            Exp::Scan { lam, neutral, args } => {
                let arrs: Vec<TVal> = args.iter().map(|a| self.env[a].clone()).collect();
                let n = arrs[0].outer_len();
                let width = neutral.len();
                let mut acc: Vec<TVal> = neutral.iter().map(|a| self.atom(a)).collect();
                let mut cols: Vec<Vec<TVal>> = vec![Vec::with_capacity(n); width];
                for i in 0..n {
                    let mut lam_args = acc;
                    lam_args.extend(arrs.iter().map(|a| a.index_outer(i)));
                    acc = self.lambda(lam, lam_args);
                    for (c, o) in cols.iter_mut().zip(acc.iter()) {
                        c.push(o.clone());
                    }
                }
                cols.iter()
                    .zip(&lam.ret)
                    .map(|(c, t)| self.stack(c, *t))
                    .collect()
            }
            Exp::Hist {
                op,
                num_bins,
                inds,
                vals,
            } => {
                assert_eq!(
                    *op,
                    ReduceOp::Add,
                    "tape-ad: only + histograms are supported"
                );
                let m = self.atom(num_bins).as_i64().max(0) as usize;
                let inds = match &self.env[inds] {
                    TVal::ArrI64(d, _) => d.clone(),
                    other => panic!("hist indices must be i64, got {other:?}"),
                };
                let vals = self.flat_f64(&self.env[vals].clone());
                let mut bins: Vec<usize> = (0..m).map(|_| self.tape.constant(0.0)).collect();
                for (k, bin) in inds.iter().enumerate() {
                    if *bin >= 0 && (*bin as usize) < m {
                        let b = *bin as usize;
                        let v = vals[k];
                        let sum = self.tape.vals[bins[b]] + self.tape.vals[v];
                        bins[b] = self.tape.binary(bins[b], v, sum, 1.0, 1.0);
                    }
                }
                vec![TVal::ArrF64(bins, vec![m])]
            }
            Exp::Scatter { dest, inds, vals } => {
                let d = self.env[dest].clone();
                let inds = match &self.env[inds] {
                    TVal::ArrI64(v, _) => v.clone(),
                    other => panic!("scatter indices must be i64, got {other:?}"),
                };
                let v = self.env[vals].clone();
                let mut out = d;
                for (k, j) in inds.iter().enumerate() {
                    if *j >= 0 && (*j as usize) < out.outer_len() {
                        let elem = v.index_outer(k);
                        out = self.update(out, &[*j], elem);
                    }
                }
                vec![out]
            }
            Exp::WithAcc { .. } | Exp::UpdAcc { .. } => {
                panic!("tape-ad does not evaluate accumulator constructs")
            }
        }
    }

    /// Stack equally-shaped values of type `elem` into one array. No
    /// values give an empty array of `elem`'s element type with shape
    /// `[0]`, as the interpreter returns it.
    fn stack(&self, parts: &[TVal], elem: Type) -> TVal {
        let Some(first) = parts.first() else {
            return match elem.elem() {
                ScalarType::F64 => TVal::ArrF64(Vec::new(), vec![0]),
                ScalarType::I64 => TVal::ArrI64(Vec::new(), vec![0]),
                ScalarType::Bool => TVal::ArrBool(Vec::new(), vec![0]),
            };
        };
        match first {
            TVal::F64(_) => TVal::ArrF64(
                parts.iter().map(|p| p.as_f64()).collect(),
                vec![parts.len()],
            ),
            TVal::I64(_) => TVal::ArrI64(
                parts.iter().map(|p| p.as_i64()).collect(),
                vec![parts.len()],
            ),
            TVal::Bool(_) => TVal::ArrBool(
                parts.iter().map(|p| p.as_bool()).collect(),
                vec![parts.len()],
            ),
            TVal::ArrF64(_, s) => {
                let mut shape = vec![parts.len()];
                shape.extend(s.clone());
                let mut data = Vec::new();
                for p in parts {
                    match p {
                        TVal::ArrF64(d, _) => data.extend_from_slice(d),
                        other => panic!("ragged stack: {other:?}"),
                    }
                }
                TVal::ArrF64(data, shape)
            }
            TVal::ArrI64(_, s) => {
                let mut shape = vec![parts.len()];
                shape.extend(s.clone());
                let mut data = Vec::new();
                for p in parts {
                    match p {
                        TVal::ArrI64(d, _) => data.extend_from_slice(d),
                        other => panic!("ragged stack: {other:?}"),
                    }
                }
                TVal::ArrI64(data, shape)
            }
            TVal::ArrBool(_, s) => {
                let mut shape = vec![parts.len()];
                shape.extend(s.clone());
                let mut data = Vec::new();
                for p in parts {
                    match p {
                        TVal::ArrBool(d, _) => data.extend_from_slice(d),
                        other => panic!("ragged stack: {other:?}"),
                    }
                }
                TVal::ArrBool(data, shape)
            }
        }
    }

    fn update(&mut self, arr: TVal, idx: &[i64], val: TVal) -> TVal {
        match arr {
            TVal::ArrF64(mut d, s) => {
                let (off, span) = offset(&s, idx);
                match val {
                    TVal::F64(i) => d[off] = i,
                    TVal::ArrF64(vd, _) => d[off..off + span].copy_from_slice(&vd),
                    other => panic!("type mismatch in update: {other:?}"),
                }
                TVal::ArrF64(d, s)
            }
            TVal::ArrI64(mut d, s) => {
                let (off, span) = offset(&s, idx);
                match val {
                    TVal::I64(i) => d[off] = i,
                    TVal::ArrI64(vd, _) => d[off..off + span].copy_from_slice(&vd),
                    other => panic!("type mismatch in update: {other:?}"),
                }
                TVal::ArrI64(d, s)
            }
            other => panic!("update on non-array {other:?}"),
        }
    }

    fn unop(&mut self, op: UnOp, a: TVal) -> TVal {
        match op {
            UnOp::Not => return TVal::Bool(!a.as_bool()),
            UnOp::ToF64 => {
                return match a {
                    TVal::I64(i) => TVal::F64(self.tape.constant(i as f64)),
                    TVal::F64(i) => TVal::F64(i),
                    other => panic!("to_f64 on {other:?}"),
                }
            }
            UnOp::ToI64 => {
                return match a {
                    TVal::F64(i) => TVal::I64(self.tape.vals[i] as i64),
                    TVal::I64(i) => TVal::I64(i),
                    other => panic!("to_i64 on {other:?}"),
                }
            }
            UnOp::Neg => {
                if let TVal::I64(i) = a {
                    return TVal::I64(-i);
                }
            }
            UnOp::Abs => {
                if let TVal::I64(i) = a {
                    return TVal::I64(i.abs());
                }
            }
            _ => {}
        }
        let ia = a.as_f64();
        let x = self.tape.vals[ia];
        let (val, d) = match op {
            UnOp::Neg => (-x, -1.0),
            UnOp::Sin => (x.sin(), x.cos()),
            UnOp::Cos => (x.cos(), -x.sin()),
            UnOp::Exp => (x.exp(), x.exp()),
            UnOp::Log => (x.ln(), 1.0 / x),
            UnOp::Sqrt => (x.sqrt(), 0.5 / x.sqrt()),
            UnOp::Tanh => (x.tanh(), 1.0 - x.tanh() * x.tanh()),
            UnOp::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                (s, s * (1.0 - s))
            }
            UnOp::Abs => (x.abs(), if x >= 0.0 { 1.0 } else { -1.0 }),
            UnOp::Recip => (1.0 / x, -1.0 / (x * x)),
            _ => unreachable!(),
        };
        TVal::F64(self.tape.unary(ia, val, d))
    }

    fn binop(&mut self, op: BinOp, a: TVal, b: TVal) -> TVal {
        // Integer and boolean operations do not touch the tape.
        if let (TVal::I64(x), TVal::I64(y)) = (&a, &b) {
            let (x, y) = (*x, *y);
            return match op {
                BinOp::Add => TVal::I64(x + y),
                BinOp::Sub => TVal::I64(x - y),
                BinOp::Mul => TVal::I64(x * y),
                BinOp::Div => TVal::I64(x / y),
                BinOp::Rem => TVal::I64(x % y),
                BinOp::Min => TVal::I64(x.min(y)),
                BinOp::Max => TVal::I64(x.max(y)),
                BinOp::Pow => TVal::I64(x.pow(y.max(0) as u32)),
                BinOp::Eq => TVal::Bool(x == y),
                BinOp::Neq => TVal::Bool(x != y),
                BinOp::Lt => TVal::Bool(x < y),
                BinOp::Le => TVal::Bool(x <= y),
                BinOp::Gt => TVal::Bool(x > y),
                BinOp::Ge => TVal::Bool(x >= y),
                BinOp::And | BinOp::Or => panic!("logical op on ints"),
            };
        }
        if let (TVal::Bool(x), TVal::Bool(y)) = (&a, &b) {
            return match op {
                BinOp::And => TVal::Bool(*x && *y),
                BinOp::Or => TVal::Bool(*x || *y),
                BinOp::Eq => TVal::Bool(x == y),
                BinOp::Neq => TVal::Bool(x != y),
                _ => panic!("arith op on bools"),
            };
        }
        let ia = a.as_f64();
        let ib = b.as_f64();
        let x = self.tape.vals[ia];
        let y = self.tape.vals[ib];
        if op.is_predicate() {
            return TVal::Bool(match op {
                BinOp::Eq => x == y,
                BinOp::Neq => x != y,
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            });
        }
        let (val, da, db) = match op {
            BinOp::Add => (x + y, 1.0, 1.0),
            BinOp::Sub => (x - y, 1.0, -1.0),
            BinOp::Mul => (x * y, y, x),
            BinOp::Div => (x / y, 1.0 / y, -x / (y * y)),
            BinOp::Pow => (x.powf(y), y * x.powf(y - 1.0), x.powf(y) * x.ln()),
            BinOp::Min => {
                if x <= y {
                    (x, 1.0, 0.0)
                } else {
                    (y, 0.0, 1.0)
                }
            }
            BinOp::Max => {
                if x >= y {
                    (x, 1.0, 0.0)
                } else {
                    (y, 0.0, 1.0)
                }
            }
            BinOp::Rem => (x % y, 1.0, 0.0),
            _ => unreachable!(),
        };
        TVal::F64(self.tape.binary(ia, ib, val, da, db))
    }
}

fn offset(shape: &[usize], idx: &[i64]) -> (usize, usize) {
    let mut off = 0usize;
    let mut stride: usize = shape.iter().product();
    for (k, i) in idx.iter().enumerate() {
        stride /= shape[k];
        off += (*i as usize) * stride;
    }
    (off, stride)
}

fn load(tape: &mut Tape, v: &Value) -> TVal {
    match v {
        Value::F64(x) => TVal::F64(tape.constant(*x)),
        Value::I64(x) => TVal::I64(*x),
        Value::Bool(x) => TVal::Bool(*x),
        Value::Arr(a) => match a.elem() {
            fir::types::ScalarType::F64 => {
                let idxs = a.f64s().iter().map(|x| tape.constant(*x)).collect();
                TVal::ArrF64(idxs, a.shape.clone())
            }
            fir::types::ScalarType::I64 => TVal::ArrI64(a.i64s().to_vec(), a.shape.clone()),
            fir::types::ScalarType::Bool => TVal::ArrBool(a.bools().to_vec(), a.shape.clone()),
        },
        Value::Acc(_) => panic!("tape-ad cannot load accumulators"),
    }
}

/// The result of a tape-based gradient computation.
pub struct TapeGradient {
    /// The primal (scalar) value.
    pub value: f64,
    /// The gradient with respect to every differentiable (`f64`) input, in
    /// parameter order, flattened.
    pub gradient: Vec<f64>,
    /// The number of scalars stored on the tape (the memory the approach
    /// fundamentally needs).
    pub tape_len: usize,
}

/// Evaluate a scalar-valued function and its gradient with tape-based
/// reverse AD.
pub fn gradient(fun: &Fun, args: &[Value]) -> TapeGradient {
    assert_eq!(fun.params.len(), args.len(), "argument count mismatch");
    let mut tape = Tape::default();
    // Load inputs, remembering which tape slots are differentiable inputs.
    let mut input_slots: Vec<usize> = Vec::new();
    let mut env = HashMap::new();
    for (p, a) in fun.params.iter().zip(args) {
        let tv = load(&mut tape, a);
        match &tv {
            TVal::F64(i) => input_slots.push(*i),
            TVal::ArrF64(d, _) => input_slots.extend(d.iter().copied()),
            _ => {}
        }
        env.insert(p.var, tv);
    }
    let mut ti = TapeInterp {
        tape: &mut tape,
        env,
    };
    let out = ti.body(&fun.body);
    let out_idx = out[0].as_f64();
    let value = tape.vals[out_idx];
    let adj = tape.reverse(out_idx, 1.0);
    let gradient = input_slots.iter().map(|i| adj[*i]).collect();
    TapeGradient {
        value,
        gradient,
        tape_len: tape.len(),
    }
}

/// Evaluate only the primal value with the same sequential evaluator (used
/// for the objective-time denominator of Table 1, so both numerator and
/// denominator share an execution substrate).
pub fn primal(fun: &Fun, args: &[Value]) -> f64 {
    gradient(fun, args).value
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::ir::Atom;
    use fir::types::Type;

    #[test]
    fn tape_gradient_of_dot_product() {
        let mut b = Builder::new();
        let f = b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), es[1].into())]
            });
            vec![Atom::Var(b.sum(prods))]
        });
        let g = gradient(
            &f,
            &[
                Value::from(vec![1.0, 2.0, 3.0]),
                Value::from(vec![4.0, 5.0, 6.0]),
            ],
        );
        assert_eq!(g.value, 32.0);
        assert_eq!(g.gradient, vec![4.0, 5.0, 6.0, 1.0, 2.0, 3.0]);
        assert!(g.tape_len > 6);
    }

    #[test]
    fn tape_handles_loops_branches_scans() {
        let mut b = Builder::new();
        let f = b.build_fun("mix", &[Type::arr_f64(1), Type::F64, Type::I64], |b, ps| {
            let c = Atom::Var(ps[1]);
            let n = Atom::Var(ps[2]);
            let ys = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let t = b.fsin(es[0].into());
                vec![b.fmul(t, c)]
            });
            let s = b.scan_add(ys);
            let total = b.sum(s);
            let r = b.loop_(&[(Type::F64, total.into())], n, |b, _i, acc| {
                let cnd = b.gt(acc[0].into(), Atom::f64(10.0));
                let nxt = b.if_(
                    cnd,
                    &[Type::F64],
                    |b| vec![b.fmul(acc[0].into(), Atom::f64(0.5))],
                    |b| vec![b.fmul(acc[0].into(), Atom::f64(1.5))],
                );
                vec![nxt[0].into()]
            });
            vec![r[0].into()]
        });
        let args = [
            Value::from(vec![0.1, 0.5, 0.9, 1.3]),
            Value::F64(0.7),
            Value::I64(3),
        ];
        let g = gradient(&f, &args);
        // Cross-check against the redundant-execution AD.
        let interp = interp::Interp::sequential();
        let (val, grad) = futhark_ad::gradcheck::reverse_gradient(&interp, &f, &args);
        assert!((g.value - val).abs() < 1e-12);
        for (a, b) in g.gradient.iter().zip(&grad) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
