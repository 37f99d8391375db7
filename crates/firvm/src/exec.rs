//! Tape execution: lane-unrolled interpretation over flat register files.
//!
//! The inner loop is monomorphized over a const lane width `W`: maps run
//! `W = 4` blocks (each op processes four elements as a `[f64; 4]`, which
//! the optimizer turns into SIMD) with a `W = 1` tail; order-sensitive
//! forms (reduce folds, scans) run `W = 1`. Bitwise equality with the
//! generic bytecode path holds by construction for maps — lanes are
//! independent elements put through the identical op sequence — and
//! chunking uses the same [`run_chunked`] policy under the caller's
//! [`ExecConfig`], so chunk boundaries, the one-partial shortcut and the
//! sequential partial combine all match the generic reduce/redomap
//! exactly.
//!
//! A dispatch ([`map`], [`reduce`], [`redomap`], [`scan`]) allocates
//! nothing but its outputs: arguments and captures are borrowed from the
//! frame, gather tables and accumulator handles are bound in stack arrays,
//! and register files come from a [`Scratch`] the caller reuses across
//! dispatches. Each returns `false`, having touched nothing, when a value
//! in the frame is outside the tape's shape class (the half of the
//! contract bytecode does not record: ranks and element types); the
//! caller then runs the generic path.

use fir::types::ScalarType;
use interp::{arena, Accum, Array, ExecConfig, Value};

use crate::bytecode::{Opnd, Reg};
use crate::pool::{run_chunked, should_parallelize};
use crate::tape::{
    BBin, Cls, FBin, FCmp, FUn, IBin, ICmp, IUn, Op, Tape, TapeKernel, MAX_ACCS, MAX_STREAMS,
    MAX_TABLES,
};

/// A borrowed `f64` gather table with its leading dimensions: `d0` is the
/// outer dim, `d1` the row length for rank-2 tables (`1` otherwise), so
/// `t.data[i0 * d1 + i1]` is exactly `Array::offset_of`'s row-major walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table<'a> {
    pub data: &'a [f64],
    pub d0: usize,
    pub d1: usize,
}

impl Table<'_> {
    const EMPTY: Table<'static> = Table {
        data: &[],
        d0: 0,
        d1: 1,
    };
}

/// One element stream of a map/redomap: the per-position scalar class was
/// checked against the tape's input classes at dispatch.
#[derive(Debug, Clone, Copy)]
enum Stream<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
    /// An accumulator argument: the shared handle goes to every element
    /// (the generic `write_elem_params` clones it per element), so it is
    /// lane-uniform like a capture and lives in the accumulator table.
    Acc,
}

/// Run the op sequence over `W`-lane register files. `arrs` is the borrowed
/// input-array table for gathers; it is lane-uniform (arrays are inputs,
/// never per-element values).
#[inline]
fn run_ops<const W: usize>(
    ops: &[Op],
    f: &mut [[f64; W]],
    b: &mut [[bool; W]],
    ii: &mut [[i64; W]],
    arrs: &[Table],
    accs: &[Option<&Accum>],
) {
    for op in ops {
        match *op {
            Op::MovF(d, s) => f[d as usize] = f[s as usize],
            Op::MovB(d, s) => b[d as usize] = b[s as usize],
            Op::MovI(d, s) => ii[d as usize] = ii[s as usize],
            Op::Un(u, d, a) => {
                let x = f[a as usize];
                let o = &mut f[d as usize];
                match u {
                    FUn::Neg => {
                        for l in 0..W {
                            o[l] = -x[l];
                        }
                    }
                    FUn::Sin => {
                        for l in 0..W {
                            o[l] = x[l].sin();
                        }
                    }
                    FUn::Cos => {
                        for l in 0..W {
                            o[l] = x[l].cos();
                        }
                    }
                    FUn::Exp => {
                        for l in 0..W {
                            o[l] = x[l].exp();
                        }
                    }
                    FUn::Log => {
                        for l in 0..W {
                            o[l] = x[l].ln();
                        }
                    }
                    FUn::Sqrt => {
                        for l in 0..W {
                            o[l] = x[l].sqrt();
                        }
                    }
                    FUn::Tanh => {
                        for l in 0..W {
                            o[l] = x[l].tanh();
                        }
                    }
                    FUn::Sigmoid => {
                        for l in 0..W {
                            o[l] = 1.0 / (1.0 + (-x[l]).exp());
                        }
                    }
                    FUn::Abs => {
                        for l in 0..W {
                            o[l] = x[l].abs();
                        }
                    }
                    FUn::Recip => {
                        for l in 0..W {
                            o[l] = 1.0 / x[l];
                        }
                    }
                }
            }
            Op::Bin(op2, d, a, bb) => {
                let x = f[a as usize];
                let y = f[bb as usize];
                let o = &mut f[d as usize];
                match op2 {
                    FBin::Add => {
                        for l in 0..W {
                            o[l] = x[l] + y[l];
                        }
                    }
                    FBin::Sub => {
                        for l in 0..W {
                            o[l] = x[l] - y[l];
                        }
                    }
                    FBin::Mul => {
                        for l in 0..W {
                            o[l] = x[l] * y[l];
                        }
                    }
                    FBin::Div => {
                        for l in 0..W {
                            o[l] = x[l] / y[l];
                        }
                    }
                    FBin::Pow => {
                        for l in 0..W {
                            o[l] = x[l].powf(y[l]);
                        }
                    }
                    FBin::Min => {
                        for l in 0..W {
                            o[l] = x[l].min(y[l]);
                        }
                    }
                    FBin::Max => {
                        for l in 0..W {
                            o[l] = x[l].max(y[l]);
                        }
                    }
                    FBin::Rem => {
                        for l in 0..W {
                            o[l] = x[l] % y[l];
                        }
                    }
                }
            }
            Op::Cmp(c, d, a, bb) => {
                let x = f[a as usize];
                let y = f[bb as usize];
                let o = &mut b[d as usize];
                match c {
                    FCmp::Eq => {
                        for l in 0..W {
                            o[l] = x[l] == y[l];
                        }
                    }
                    FCmp::Neq => {
                        for l in 0..W {
                            o[l] = x[l] != y[l];
                        }
                    }
                    FCmp::Lt => {
                        for l in 0..W {
                            o[l] = x[l] < y[l];
                        }
                    }
                    FCmp::Le => {
                        for l in 0..W {
                            o[l] = x[l] <= y[l];
                        }
                    }
                    FCmp::Gt => {
                        for l in 0..W {
                            o[l] = x[l] > y[l];
                        }
                    }
                    FCmp::Ge => {
                        for l in 0..W {
                            o[l] = x[l] >= y[l];
                        }
                    }
                }
            }
            Op::BoolBin(c, d, a, bb) => {
                let x = b[a as usize];
                let y = b[bb as usize];
                let o = &mut b[d as usize];
                match c {
                    BBin::And => {
                        for l in 0..W {
                            o[l] = x[l] && y[l];
                        }
                    }
                    BBin::Or => {
                        for l in 0..W {
                            o[l] = x[l] || y[l];
                        }
                    }
                    BBin::Eq => {
                        for l in 0..W {
                            o[l] = x[l] == y[l];
                        }
                    }
                    BBin::Neq => {
                        for l in 0..W {
                            o[l] = x[l] != y[l];
                        }
                    }
                }
            }
            Op::Not(d, a) => {
                let x = b[a as usize];
                let o = &mut b[d as usize];
                for l in 0..W {
                    o[l] = !x[l];
                }
            }
            Op::Sel(d, c, t, e) => {
                let cc = b[c as usize];
                let tv = f[t as usize];
                let ev = f[e as usize];
                let o = &mut f[d as usize];
                for l in 0..W {
                    o[l] = if cc[l] { tv[l] } else { ev[l] };
                }
            }
            Op::SelB(d, c, t, e) => {
                let cc = b[c as usize];
                let tv = b[t as usize];
                let ev = b[e as usize];
                let o = &mut b[d as usize];
                for l in 0..W {
                    o[l] = if cc[l] { tv[l] } else { ev[l] };
                }
            }
            Op::IntUn(u, d, a) => {
                let x = ii[a as usize];
                let o = &mut ii[d as usize];
                match u {
                    IUn::Neg => {
                        for l in 0..W {
                            o[l] = -x[l];
                        }
                    }
                    IUn::Abs => {
                        for l in 0..W {
                            o[l] = x[l].abs();
                        }
                    }
                }
            }
            Op::IntBin(op2, d, a, bb) => {
                let x = ii[a as usize];
                let y = ii[bb as usize];
                let o = &mut ii[d as usize];
                match op2 {
                    IBin::Add => {
                        for l in 0..W {
                            o[l] = x[l] + y[l];
                        }
                    }
                    IBin::Sub => {
                        for l in 0..W {
                            o[l] = x[l] - y[l];
                        }
                    }
                    IBin::Mul => {
                        for l in 0..W {
                            o[l] = x[l] * y[l];
                        }
                    }
                    IBin::Div => {
                        for l in 0..W {
                            o[l] = x[l] / y[l];
                        }
                    }
                    IBin::Pow => {
                        for l in 0..W {
                            o[l] = x[l].pow(y[l].max(0) as u32);
                        }
                    }
                    IBin::Min => {
                        for l in 0..W {
                            o[l] = x[l].min(y[l]);
                        }
                    }
                    IBin::Max => {
                        for l in 0..W {
                            o[l] = x[l].max(y[l]);
                        }
                    }
                    IBin::Rem => {
                        for l in 0..W {
                            o[l] = x[l] % y[l];
                        }
                    }
                }
            }
            Op::IntCmp(c, d, a, bb) => {
                let x = ii[a as usize];
                let y = ii[bb as usize];
                let o = &mut b[d as usize];
                match c {
                    ICmp::Eq => {
                        for l in 0..W {
                            o[l] = x[l] == y[l];
                        }
                    }
                    ICmp::Neq => {
                        for l in 0..W {
                            o[l] = x[l] != y[l];
                        }
                    }
                    ICmp::Lt => {
                        for l in 0..W {
                            o[l] = x[l] < y[l];
                        }
                    }
                    ICmp::Le => {
                        for l in 0..W {
                            o[l] = x[l] <= y[l];
                        }
                    }
                    ICmp::Gt => {
                        for l in 0..W {
                            o[l] = x[l] > y[l];
                        }
                    }
                    ICmp::Ge => {
                        for l in 0..W {
                            o[l] = x[l] >= y[l];
                        }
                    }
                }
            }
            Op::SelI(d, c, t, e) => {
                let cc = b[c as usize];
                let tv = ii[t as usize];
                let ev = ii[e as usize];
                let o = &mut ii[d as usize];
                for l in 0..W {
                    o[l] = if cc[l] { tv[l] } else { ev[l] };
                }
            }
            Op::CastF(d, s) => {
                let x = ii[s as usize];
                let o = &mut f[d as usize];
                for l in 0..W {
                    o[l] = x[l] as f64;
                }
            }
            Op::CastI(d, s) => {
                let x = f[s as usize];
                let o = &mut ii[d as usize];
                for l in 0..W {
                    o[l] = x[l] as i64;
                }
            }
            Op::IndexF(d, a, s) => {
                let t = arrs[a as usize];
                let x = ii[s as usize];
                let o = &mut f[d as usize];
                for l in 0..W {
                    let i = x[l];
                    assert!(i >= 0, "negative index {i}");
                    let u = i as usize;
                    assert!(u < t.d0, "index {u} out of bounds for dim of size {}", t.d0);
                    o[l] = t.data[u];
                }
            }
            Op::Index2F(d, a, s0, s1) => {
                let t = arrs[a as usize];
                let x0 = ii[s0 as usize];
                let x1 = ii[s1 as usize];
                let o = &mut f[d as usize];
                for l in 0..W {
                    let (i0, i1) = (x0[l], x1[l]);
                    // The VM converts every index (rejecting negatives)
                    // before walking the dims; keep its panic order.
                    assert!(i0 >= 0, "negative index {i0}");
                    assert!(i1 >= 0, "negative index {i1}");
                    let (u0, u1) = (i0 as usize, i1 as usize);
                    assert!(
                        u0 < t.d0,
                        "index {u0} out of bounds for dim of size {}",
                        t.d0
                    );
                    assert!(
                        u1 < t.d1,
                        "index {u1} out of bounds for dim of size {}",
                        t.d1
                    );
                    o[l] = t.data[u0 * t.d1 + u1];
                }
            }
            Op::LenA(d, a) => {
                ii[d as usize] = [arrs[a as usize].d0 as i64; W];
            }
            // Scatter-adds call `Accum::add_at` directly: same negative-index
            // panic as `read_usizes`, same silent out-of-bounds skip, same
            // zero-skipping CAS add as the generic `UpdAcc`. Tapes with these
            // ops run at `W = 1` (see `map_chunk`), so lane order is element
            // order and adds land exactly as the generic per-element loop.
            Op::UpdAcc1(c, i_src, v) => {
                let acc = accs[c as usize].expect("accumulator slot bound at dispatch");
                let x = ii[i_src as usize];
                let vals = f[v as usize];
                for l in 0..W {
                    let i = x[l];
                    assert!(i >= 0, "negative index {i}");
                    let idx = [i as usize];
                    if acc.in_bounds(&idx) {
                        let (off, _) = acc.offset_of(&idx);
                        acc.add_at(off, vals[l]);
                    }
                }
            }
            Op::UpdAcc2(c, s0, s1, v) => {
                let acc = accs[c as usize].expect("accumulator slot bound at dispatch");
                let x0 = ii[s0 as usize];
                let x1 = ii[s1 as usize];
                let vals = f[v as usize];
                for l in 0..W {
                    let (i0, i1) = (x0[l], x1[l]);
                    assert!(i0 >= 0, "negative index {i0}");
                    assert!(i1 >= 0, "negative index {i1}");
                    let idx = [i0 as usize, i1 as usize];
                    if acc.in_bounds(&idx) {
                        let (off, _) = acc.offset_of(&idx);
                        acc.add_at(off, vals[l]);
                    }
                }
            }
        }
    }
}

/// Region entry point: run over caller-provided register files (stack
/// arrays, sized at lowering time). Regions are scalar-only — admission
/// rejects tapes with `i64` or array registers.
#[inline]
pub(crate) fn run_region_ops(ops: &[Op], f: &mut [[f64; 1]], b: &mut [[bool; 1]]) {
    run_ops::<1>(ops, f, b, &mut [], &[], &[]);
}

/// One set of `W`-lane register files.
#[derive(Default)]
struct Files<const W: usize> {
    f: Vec<[f64; W]>,
    b: Vec<[bool; W]>,
    i: Vec<[i64; W]>,
}

/// The buffers tape dispatches run in, reused from one dispatch to the next
/// by whoever owns the strand of execution (a `run_program`, or one chunk
/// of a parallel SOAC): after the first few dispatches nothing here
/// allocates.
#[derive(Default)]
pub(crate) struct Scratch {
    /// 4-lane files of a map tape (loaded only for chunks of ≥ 4 elements).
    wide: Files<4>,
    /// 1-lane files: a map tape's tail, or a reduce/scan operator.
    one: Files<1>,
    /// The reduce tape of a redomap (its map tape holds the other two).
    red: Files<1>,
    /// Fold state: the running accumulator (a fold's result) and the
    /// element tuple fed to the operator.
    acc: Vec<f64>,
    elems: Vec<f64>,
    /// A map's or scan's output columns, moved out into the results.
    cols: Vec<Vec<f64>>,
}

/// One kernel's side of a dispatch: its tape and what it borrows from the
/// frame — the capture values, with `f64` arrays bound as gather tables
/// and accumulator handles bound by slot.
struct Call<'a> {
    k: &'a TapeKernel,
    regs: &'a [Value],
    captures: &'a [Reg],
    tables: [Table<'a>; MAX_TABLES],
    accs: [Option<&'a Accum>; MAX_ACCS],
}

impl<'a> Call<'a> {
    /// Bind an accumulator handle to table slot `c`, checking it against
    /// the rank the tape's scatter-adds require (`0`: passed through only).
    fn bind_acc(&mut self, c: u16, h: &'a Accum) -> Option<()> {
        let need = self.k.tape.c_ranks[c as usize] as usize;
        if need != 0 && h.shape().len() != need {
            return None;
        }
        self.accs[c as usize] = Some(h);
        Some(())
    }

    /// Check the capture values against the tape's inferred classes and
    /// borrow the arrays and accumulators among them. Captured `f64`
    /// arrays are borrowed whole as gather tables; their rank must match
    /// what the tape's gathers require (`a_ranks`, with `0` = any rank,
    /// for slots only `Len` touches).
    fn bind(k: &'a TapeKernel, regs: &'a [Value], captures: &'a [Reg]) -> Option<Call<'a>> {
        let slots = &k.tape.inputs[k.num_params..];
        if slots.len() != captures.len() {
            return None;
        }
        let mut call = Call {
            k,
            regs,
            captures,
            tables: [Table::EMPTY; MAX_TABLES],
            accs: [None; MAX_ACCS],
        };
        for (slot, r) in slots.iter().zip(captures) {
            match (*slot, &regs[*r as usize]) {
                (None, _)
                | (Some((Cls::F, _)), Value::F64(_))
                | (Some((Cls::B, _)), Value::Bool(_))
                | (Some((Cls::I, _)), Value::I64(_)) => {}
                (Some((Cls::C, c)), Value::Acc(h)) => call.bind_acc(c, h)?,
                (Some((Cls::A, a)), Value::Arr(arr)) if arr.elem() == ScalarType::F64 => {
                    let need = k.tape.a_ranks[a as usize];
                    let (d0, d1) = match arr.shape[..] {
                        [d0] if need <= 1 => (d0, 1),
                        [d0, d1] if need == 0 || need == 2 => (d0, d1),
                        _ => return None,
                    };
                    call.tables[a as usize] = Table {
                        data: arr.f64s(),
                        d0,
                        d1,
                    };
                }
                _ => return None,
            }
        }
        Some(call)
    }

    /// Reset `files` to the tape's template (constants preloaded) and
    /// broadcast the scalar captures into their registers.
    fn load<const W: usize>(&self, files: &mut Files<W>) {
        let t = &self.k.tape;
        files.f.clear();
        files.f.extend(t.f_init.iter().map(|&x| [x; W]));
        files.b.clear();
        files.b.extend(t.b_init.iter().map(|&x| [x; W]));
        files.i.clear();
        files.i.extend(t.i_init.iter().map(|&x| [x; W]));
        for (slot, r) in t.inputs[self.k.num_params..].iter().zip(self.captures) {
            match (*slot, &self.regs[*r as usize]) {
                (Some((Cls::F, t)), Value::F64(x)) => files.f[t as usize] = [*x; W],
                (Some((Cls::B, t)), Value::Bool(x)) => files.b[t as usize] = [*x; W],
                (Some((Cls::I, t)), Value::I64(x)) => files.i[t as usize] = [*x; W],
                _ => {} // dead, or bound in a table
            }
        }
    }

    fn run<const W: usize>(&self, files: &mut Files<W>) {
        let (tables, accs) = (&self.tables, &self.accs);
        let ops = &self.k.tape.ops;
        run_ops::<W>(ops, &mut files.f, &mut files.b, &mut files.i, tables, accs);
    }

    /// Borrow map/redomap element streams as rank-1 slices of one common
    /// length, each matching the class the tape inferred for its parameter
    /// slot (`f64` or `i64` — `i64` streams are how iota-driven gather
    /// kernels get their index argument). Accumulator arguments bind their
    /// shared handle (lane-uniform) and do not contribute a length; at
    /// least one real array stream is required. Dead slots accept either
    /// element type.
    fn bind_streams(&mut self, args: &[Reg]) -> Option<(usize, [Stream<'a>; MAX_STREAMS])> {
        let mut streams = [Stream::Acc; MAX_STREAMS];
        let mut n: Option<usize> = None;
        let regs = self.regs;
        for (p, r) in args.iter().enumerate() {
            streams[p] = match (self.k.tape.inputs[p], &regs[*r as usize]) {
                (Some((Cls::C, c)), Value::Acc(h)) => {
                    self.bind_acc(c, h)?;
                    Stream::Acc
                }
                (cls, Value::Arr(a)) => {
                    if a.shape.len() != 1 || *n.get_or_insert(a.shape[0]) != a.shape[0] {
                        return None;
                    }
                    match (cls, a.elem()) {
                        (Some((Cls::F, _)) | None, ScalarType::F64) => Stream::F(a.f64s()),
                        (Some((Cls::I, _)) | None, ScalarType::I64) => Stream::I(a.i64s()),
                        _ => return None,
                    }
                }
                _ => return None,
            };
        }
        Some((n?, streams))
    }
}

/// Borrow every argument as a rank-1 `f64` slice of one common length —
/// the shape class of order-sensitive streams (reduce/scan elements).
fn f64_arrays<'a>(regs: &'a [Value], args: &[Reg]) -> Option<(usize, [&'a [f64]; MAX_STREAMS])> {
    let mut arrs: [&[f64]; MAX_STREAMS] = [&[]; MAX_STREAMS];
    let mut n: Option<usize> = None;
    for (j, r) in args.iter().enumerate() {
        match &regs[*r as usize] {
            Value::Arr(a)
                if a.shape.len() == 1
                    && a.elem() == ScalarType::F64
                    && *n.get_or_insert(a.shape[0]) == a.shape[0] =>
            {
                arrs[j] = a.f64s()
            }
            _ => return None,
        }
    }
    Some((n?, arrs))
}

/// Read the neutral element as flat floats.
fn neutral_f64(regs: &[Value], neutral: &[Opnd]) -> Option<[f64; MAX_STREAMS]> {
    let mut ne = [0.0; MAX_STREAMS];
    for (x, o) in ne.iter_mut().zip(neutral) {
        *x = match o {
            Opnd::F64(x) => *x,
            Opnd::Reg(r) => match regs[*r as usize] {
                Value::F64(x) => x,
                _ => return None,
            },
            Opnd::I64(_) | Opnd::Bool(_) => return None,
        };
    }
    Some(ne)
}

/// Load one 4-lane block of every element stream into its parameter slot.
#[inline]
fn load_block4(tape: &Tape, files: &mut Files<4>, args: &[Stream], i: usize) {
    for (p, s) in args.iter().enumerate() {
        match (tape.inputs[p], s) {
            (Some((Cls::F, r)), Stream::F(a)) => {
                files.f[r as usize] = [a[i], a[i + 1], a[i + 2], a[i + 3]]
            }
            (Some((Cls::I, r)), Stream::I(a)) => {
                files.i[r as usize] = [a[i], a[i + 1], a[i + 2], a[i + 3]]
            }
            (Some((Cls::C, _)), Stream::Acc) | (None, _) => {}
            _ => unreachable!("stream class checked at dispatch"),
        }
    }
}

/// Load one element of every stream into its parameter slot (`W = 1`).
#[inline]
fn load_one(tape: &Tape, files: &mut Files<1>, args: &[Stream], i: usize) {
    for (p, s) in args.iter().enumerate() {
        match (tape.inputs[p], s) {
            (Some((Cls::F, r)), Stream::F(a)) => files.f[r as usize][0] = a[i],
            (Some((Cls::I, r)), Stream::I(a)) => files.i[r as usize][0] = a[i],
            (Some((Cls::C, _)), Stream::Acc) | (None, _) => {}
            _ => unreachable!("stream class checked at dispatch"),
        }
    }
}

/// Elements `lo..hi` of a `map`, leaving one flat buffer per float result
/// in `cols`: 4-lane blocks with a 1-lane tail. Tapes with scatter-adds
/// run every element at lane width 1 so the add order is exactly the
/// generic per-element order. Each register file is loaded only if the
/// chunk uses it.
fn map_chunk(
    call: &Call,
    args: &[Stream],
    lo: usize,
    hi: usize,
    wide: &mut Files<4>,
    one: &mut Files<1>,
    cols: &mut Vec<Vec<f64>>,
) {
    let k = call.k;
    cols.clear();
    cols.extend(k.f_rets.iter().map(|_| arena::take_f64(hi - lo)));
    let mut i = lo;
    if k.tape.c_ranks.is_empty() && hi - lo >= 4 {
        call.load(wide);
        while i + 4 <= hi {
            load_block4(&k.tape, wide, args, i);
            call.run(wide);
            for (col, &r) in cols.iter_mut().zip(&k.f_rets) {
                col.extend_from_slice(&wide.f[r as usize]);
            }
            i += 4;
        }
    }
    if i < hi {
        call.load(one);
        while i < hi {
            load_one(&k.tape, one, args, i);
            call.run(one);
            for (col, &r) in cols.iter_mut().zip(&k.f_rets) {
                col.push(one.f[r as usize][0]);
            }
            i += 1;
        }
    }
}

/// Write a `map`'s or `scan`'s results into the frame: float columns
/// become rank-1 arrays, accumulator results pass their (shared) handle
/// through from the argument or capture it came in on.
fn write_columns(
    k: &TapeKernel,
    regs: &mut [Value],
    dsts: &[Reg],
    args: &[Reg],
    captures: &[Reg],
    n: usize,
    cols: &mut Vec<Vec<f64>>,
) {
    let mut cols = cols.drain(..);
    for (d, acc) in dsts.iter().zip(&k.acc_rets) {
        regs[*d as usize] = match acc {
            None => {
                let col = cols.next().expect("one column per float result");
                Value::Arr(Array::from_f64(vec![n], col))
            }
            Some(slot) => {
                let mut inputs = args.iter().chain(captures);
                let r = inputs.nth(*slot).expect("result slot is an input");
                regs[*r as usize].clone()
            }
        };
    }
}

/// `map`. `false` (frame untouched): run the generic path.
pub(crate) fn map(
    k: &TapeKernel,
    cfg: &ExecConfig,
    regs: &mut [Value],
    dsts: &[Reg],
    args: &[Reg],
    captures: &[Reg],
    scratch: &mut Scratch,
) -> bool {
    let n = {
        let Some(mut call) = Call::bind(k, regs, captures) else {
            return false;
        };
        let Some((n, streams)) = call.bind_streams(args) else {
            return false;
        };
        let streams = &streams[..args.len()];
        let Scratch {
            wide, one, cols, ..
        } = scratch;
        if !should_parallelize(cfg, n) {
            map_chunk(&call, streams, 0, n, wide, one, cols);
        } else {
            let mut chunks = run_chunked(cfg, n, &|lo, hi| {
                let mut s = Scratch::default();
                map_chunk(&call, streams, lo, hi, &mut s.wide, &mut s.one, &mut s.cols);
                s.cols
            });
            if let [_] = chunks[..] {
                *cols = chunks.swap_remove(0);
            } else {
                cols.clear();
                cols.extend(k.f_rets.iter().map(|_| arena::take_f64(n)));
                for chunk in chunks {
                    for (col, mut part) in cols.iter_mut().zip(chunk) {
                        col.append(&mut part);
                        arena::give_f64(part);
                    }
                }
            }
        }
        n
    };
    write_columns(k, regs, dsts, args, captures, n, &mut scratch.cols);
    true
}

/// Write one fold input into a `W = 1` frame (skipping dead slots).
#[inline]
fn set_in1(tape: &Tape, files: &mut Files<1>, slot: usize, x: f64) {
    if let Some((Cls::F, r)) = tape.inputs[slot] {
        files.f[r as usize][0] = x;
    }
}

/// Fold one partial (or element tuple) into the accumulator via the reduce
/// tape. `elems` are the values for the slots after the accumulator slots.
#[inline]
fn fold_step(call: &Call, files: &mut Files<1>, acc: &mut [f64], elems: &[f64]) {
    let tape = &call.k.tape;
    let width = acc.len();
    for (j, a) in acc.iter().enumerate() {
        set_in1(tape, files, j, *a);
    }
    for (j, x) in elems.iter().enumerate() {
        set_in1(tape, files, width + j, *x);
    }
    call.run(files);
    for (a, &(_, r)) in acc.iter_mut().zip(&tape.rets) {
        *a = files.f[r as usize][0];
    }
}

/// Start a fold: the accumulator at the neutral element, the operator's
/// files loaded.
fn fold_start(call: &Call, files: &mut Files<1>, ne: &[f64], acc: &mut Vec<f64>) {
    acc.clear();
    acc.extend_from_slice(ne);
    call.load(files);
}

/// Combine per-chunk partials sequentially in chunk order into `s.acc` —
/// the exact mirror of the generic reduce/redomap partial combine
/// (including the single-partial shortcut).
fn combine_partials(
    call: &Call,
    files: &mut Files<1>,
    ne: &[f64],
    mut partials: Vec<Vec<f64>>,
    acc: &mut Vec<f64>,
) {
    if let [_] = partials[..] {
        *acc = partials.swap_remove(0);
        return;
    }
    fold_start(call, files, ne, acc);
    for p in partials {
        fold_step(call, files, acc, &p);
    }
}

/// Fold elements `lo..hi` of `arrs` from the neutral element into `s.acc`.
fn reduce_chunk(call: &Call, ne: &[f64], arrs: &[&[f64]], lo: usize, hi: usize, s: &mut Scratch) {
    let Scratch {
        one, acc, elems, ..
    } = s;
    fold_start(call, one, ne, acc);
    elems.clear();
    elems.resize(arrs.len(), 0.0);
    for i in lo..hi {
        for (x, arr) in elems.iter_mut().zip(arrs) {
            *x = arr[i];
        }
        fold_step(call, one, acc, elems);
    }
}

/// `reduce`: per-chunk sequential folds, then the sequential combine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reduce(
    k: &TapeKernel,
    cfg: &ExecConfig,
    regs: &mut [Value],
    dsts: &[Reg],
    neutral: &[Opnd],
    args: &[Reg],
    captures: &[Reg],
    scratch: &mut Scratch,
) -> bool {
    {
        let Some(call) = Call::bind(k, regs, captures) else {
            return false;
        };
        let Some(ne) = neutral_f64(regs, neutral) else {
            return false;
        };
        let ne = &ne[..neutral.len()];
        let Some((n, arrs)) = f64_arrays(regs, args) else {
            return false;
        };
        let arrs = &arrs[..args.len()];
        if !should_parallelize(cfg, n) {
            reduce_chunk(&call, ne, arrs, 0, n, scratch);
        } else {
            let partials = run_chunked(cfg, n, &|lo, hi| {
                let mut s = Scratch::default();
                reduce_chunk(&call, ne, arrs, lo, hi, &mut s);
                s.acc
            });
            combine_partials(&call, &mut scratch.one, ne, partials, &mut scratch.acc);
        }
    }
    for (d, x) in dsts.iter().zip(&scratch.acc) {
        regs[*d as usize] = Value::F64(*x);
    }
    true
}

/// Elements `lo..hi` of a fused `reduce ∘ map` into `s.acc`: 4-lane map
/// blocks feeding a strictly sequential in-order fold, so the accumulation
/// order is element order exactly as in the generic redomap.
fn redomap_chunk(
    red: &Call,
    map: &Call,
    ne: &[f64],
    args: &[Stream],
    lo: usize,
    hi: usize,
    s: &mut Scratch,
) {
    let Scratch {
        wide,
        one,
        red: rfiles,
        acc,
        elems,
        ..
    } = s;
    let mk = map.k;
    fold_start(red, rfiles, ne, acc);
    elems.clear();
    elems.resize(mk.f_rets.len(), 0.0);
    let mut i = lo;
    if hi - lo >= 4 {
        map.load(wide);
        while i + 4 <= hi {
            load_block4(&mk.tape, wide, args, i);
            map.run(wide);
            for l in 0..4 {
                for (x, &r) in elems.iter_mut().zip(&mk.f_rets) {
                    *x = wide.f[r as usize][l];
                }
                fold_step(red, rfiles, acc, elems);
            }
            i += 4;
        }
    }
    if i < hi {
        map.load(one);
        while i < hi {
            load_one(&mk.tape, one, args, i);
            map.run(one);
            for (x, &r) in elems.iter_mut().zip(&mk.f_rets) {
                *x = one.f[r as usize][0];
            }
            fold_step(red, rfiles, acc, elems);
            i += 1;
        }
    }
}

/// Fused `reduce ∘ map`, chunked and combined like [`reduce`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn redomap(
    rk: &TapeKernel,
    mk: &TapeKernel,
    cfg: &ExecConfig,
    regs: &mut [Value],
    dsts: &[Reg],
    neutral: &[Opnd],
    args: &[Reg],
    red_captures: &[Reg],
    map_captures: &[Reg],
    scratch: &mut Scratch,
) -> bool {
    {
        let Some(red) = Call::bind(rk, regs, red_captures) else {
            return false;
        };
        let Some(mut map) = Call::bind(mk, regs, map_captures) else {
            return false;
        };
        let Some(ne) = neutral_f64(regs, neutral) else {
            return false;
        };
        let ne = &ne[..neutral.len()];
        let Some((n, streams)) = map.bind_streams(args) else {
            return false;
        };
        let streams = &streams[..args.len()];
        if !should_parallelize(cfg, n) {
            redomap_chunk(&red, &map, ne, streams, 0, n, scratch);
        } else {
            let partials = run_chunked(cfg, n, &|lo, hi| {
                let mut s = Scratch::default();
                redomap_chunk(&red, &map, ne, streams, lo, hi, &mut s);
                s.acc
            });
            combine_partials(&red, &mut scratch.red, ne, partials, &mut scratch.acc);
        }
    }
    for (d, x) in dsts.iter().zip(&scratch.acc) {
        regs[*d as usize] = Value::F64(*x);
    }
    true
}

/// Inclusive `scan`: strictly sequential, like the generic one.
pub(crate) fn scan(
    k: &TapeKernel,
    regs: &mut [Value],
    dsts: &[Reg],
    neutral: &[Opnd],
    args: &[Reg],
    captures: &[Reg],
    scratch: &mut Scratch,
) -> bool {
    let n = {
        let Some(call) = Call::bind(k, regs, captures) else {
            return false;
        };
        let Some(ne) = neutral_f64(regs, neutral) else {
            return false;
        };
        let Some((n, arrs)) = f64_arrays(regs, args) else {
            return false;
        };
        let arrs = &arrs[..args.len()];
        let Scratch {
            one,
            acc,
            elems,
            cols,
            ..
        } = scratch;
        fold_start(&call, one, &ne[..neutral.len()], acc);
        elems.clear();
        elems.resize(arrs.len(), 0.0);
        cols.clear();
        cols.extend(acc.iter().map(|_| arena::take_f64(n)));
        for i in 0..n {
            for (x, arr) in elems.iter_mut().zip(arrs) {
                *x = arr[i];
            }
            fold_step(&call, one, acc, elems);
            for (col, a) in cols.iter_mut().zip(acc.iter()) {
                col.push(*a);
            }
        }
        n
    };
    write_columns(k, regs, dsts, &[], &[], n, &mut scratch.cols);
    true
}
