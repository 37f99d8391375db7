//! Tape execution: a stream-block at a time over flat register files.
//!
//! The inner loop ([`run_ops`]) is monomorphized over a const lane width
//! `W` and takes the number of *live* lanes `w ≤ W` with it. A tape that is
//! not serial — a flat `map`, the innermost bodies of a nest — runs in
//! registers of [`B`] lanes, one block of `min(remaining, B)` live lanes
//! after another: a 13-element stream is one block of 13, a 32-element row
//! two full ones, and no lane past the live count is ever computed (so a
//! dead lane cannot fail a gather). Order-sensitive forms (reduce folds,
//! scans), regions and *serial* tapes — those with inner SOACs, rows, local
//! temporaries or accumulators — run `W = 1`. Bitwise equality with the
//! generic bytecode path holds by construction for maps — lanes are
//! independent elements put through the identical op sequence — and
//! chunking uses the same [`run_chunked`] policy under the caller's
//! [`ExecConfig`], so chunk boundaries, the one-partial shortcut and the
//! sequential partial combine all match the generic reduce/redomap
//! exactly. A fold whose operator is one float binary op
//! ([`TapeKernel::native`]) runs as a native loop with the tape's operand
//! order — over the live lanes of each block of a redomap — instead of one
//! tape run per element.
//!
//! **Set-up that does not grow with the lane width.** [`Call::load`] writes
//! the tape's constants and broadcasts its scalar captures over the lanes
//! the dispatch can use (`min(n, B)`), and nothing else: a register is
//! never read before it is written, except constants, captures and the
//! inputs the block loop writes, so files are sized but never cleared and a
//! two-element inner dispatch pays for two lanes.
//!
//! **Owned and shared accumulator adds.** A strand of execution knows
//! whether it is one of several chunks running concurrently — the
//! [`Scratch`] a parallel arm makes for its chunk is *shared*
//! ([`Scratch::shared`]; `vm::chunked` does the same for generic kernels),
//! the one a `run_program` starts with, and every inner dispatch it makes
//! inline, is not — and that is the only place the decision is made. On a
//! shared strand `upd_acc` is a CAS loop (the paper's `atomicAdd`); on an
//! owned one it is load, add, store on the same cells, like the paper's
//! sequential rows. Fork–join makes this sound: while chunks run, the
//! strand that forked them is blocked inside [`run_chunked`] and adds
//! nothing, and a chunk's own inner dispatches inherit its flag.
//!
//! **One dispatch path at every nest depth.** A dispatch takes its
//! operands from an [`Operands`] source: the VM frame for a SOAC
//! instruction of the main body or of a generic kernel ([`map`],
//! [`reduce`], [`redomap`], [`scan`]), the registers of the enclosing tape
//! for an [`Op::Inner`]. Both go through the same binder ([`Call`]) and the
//! same chunk functions, so an inner `reduce` of extent 40 under a
//! threshold of 8 is chunked, folded and combined exactly as it would be
//! from the main body. A `map` nest therefore runs inside one kernel: the
//! rows of a rank-2 stream are views re-pointed per element, the columns
//! of an inner `map` are temporaries owned by the [`Scratch`], and a row
//! result is written at `[i·len .. (i+1)·len]` of one flat buffer.
//!
//! A dispatch allocates nothing but its outputs: operands are borrowed
//! from their source, array views and accumulator handles are bound in
//! stack arrays, and register files and temporaries come from a
//! [`Scratch`] — one per nest depth — the caller reuses across dispatches
//! (and a thread across runs); an inner dispatch has no outputs to
//! allocate. A dispatch from a frame
//! returns `false`, having touched nothing, when a value in the frame is
//! outside the tape's shape class (the half of the contract bytecode does
//! not record: ranks and element types); the caller then runs the generic
//! path. An inner dispatch had its classes settled at lowering.

use std::cell::Cell;

use interp::value::Data;
use interp::{arena, Accum, Array, ExecConfig, Value};

use crate::bytecode::{Opnd, Reg};
use crate::pool::{run_chunked, should_parallelize};
use crate::tape::{
    BBin, Cls, Col, FBin, FCmp, FUn, IBin, ICmp, IUn, InnerOp, NativeFold, Op, Slot, Tape,
    TapeKernel, LOCAL, MAX_ACCS, MAX_STREAMS, MAX_TABLES,
};

/// The lane width of the register files a tape that is not serial runs in:
/// a block is `min(remaining, B)` live lanes of them.
pub(crate) const B: usize = 16;

/// A view of `f64` data with its leading dimensions: `d0` is the outer
/// dim, `d1` the row length for rank-2 views (`1` otherwise), so
/// `t.data[i0 * d1 + i1]` is exactly `Array::offset_of`'s row-major walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table<'a> {
    pub data: &'a [f64],
    pub d0: usize,
    pub d1: usize,
}

impl<'a> Table<'a> {
    const EMPTY: Table<'static> = Table {
        data: &[],
        d0: 0,
        d1: 1,
    };

    fn rank1(data: &'a [f64]) -> Table<'a> {
        Table {
            data,
            d0: data.len(),
            d1: 1,
        }
    }
}

/// The array slots of a running tape: the views bound for this element
/// (`ext`) and the tape's local temporaries (slots with [`LOCAL`] set).
#[derive(Clone, Copy)]
struct Views<'e> {
    ext: &'e [Table<'e>],
    temps: &'e [Vec<f64>],
}

impl<'e> Views<'e> {
    #[inline]
    fn get(&self, a: u16) -> Table<'e> {
        if a & LOCAL != 0 {
            Table::rank1(&self.temps[(a & !LOCAL) as usize])
        } else {
            self.ext[a as usize]
        }
    }
}

/// `acc[idx] += v`, skipping an out-of-bounds index: by CAS when the adding
/// strand is `shared` (one of several chunks running concurrently), by
/// load–add–store on the same cell when it is not.
pub(crate) fn acc_add(acc: &Accum, shared: bool, idx: &[usize], v: f64) {
    if acc.in_bounds(idx) {
        let (off, _) = acc.offset_of(idx);
        if shared {
            acc.add_at(off, v);
        } else {
            acc.add_at_owned(off, v);
        }
    }
}

/// `acc[idx] += vs` for a whole sub-array, like [`acc_add`]; `vs` must be
/// exactly the extent `idx` addresses (`Accum` panics otherwise).
pub(crate) fn acc_add_slice(acc: &Accum, shared: bool, idx: &[usize], vs: &[f64]) {
    if acc.in_bounds(idx) {
        let (off, span) = acc.offset_of(idx);
        if shared {
            acc.add_slice(off, span, vs);
        } else {
            acc.add_slice_owned(off, span, vs);
        }
    }
}

/// The accumulator slots of a running tape and whether its strand is
/// shared (see [`Scratch::shared`]) — read where an add happens.
#[derive(Clone, Copy)]
struct Accs<'e> {
    slots: &'e [Option<&'e Accum>],
    shared: bool,
}

impl Accs<'_> {
    /// For tapes that cannot hold an accumulator op: fold operators,
    /// regions, the blocks of a tape that is not serial.
    const NONE: Accs<'static> = Accs {
        slots: &[],
        shared: true,
    };

    fn get(&self, c: u16) -> &Accum {
        self.slots[c as usize].expect("accumulator slot bound at dispatch")
    }

    fn add_at(&self, c: u16, idx: &[usize], v: f64) {
        acc_add(self.get(c), self.shared, idx, v);
    }

    fn add_slice(&self, c: u16, idx: &[usize], vs: &[f64]) {
        acc_add_slice(self.get(c), self.shared, idx, vs);
    }
}

/// One operand of a dispatch — an argument, a capture — as its source
/// presents it.
pub(crate) enum Arg<'a> {
    F(f64),
    I(i64),
    B(bool),
    /// `f64` data of the given rank (`1` or `2`; `0` for a slot of an
    /// enclosing tape that nothing requires a rank of).
    Arr(Table<'a>, u8),
    /// A rank-1 `i64` array.
    Ints(&'a [i64]),
    Acc(&'a Accum),
    /// Anything a tape has no class for.
    Other,
}

/// Where a dispatch's operands live: one binder ([`Call`]) serves a SOAC
/// instruction reading a VM frame and an inner SOAC reading the registers
/// of the tape it sits in.
pub(crate) trait Operands<'a>: Copy + Sync {
    /// How the dispatching instruction names an operand.
    type Ref: Copy + Sync + 'static;
    /// Whether result columns become array values (and so come from the
    /// arena) rather than staying in the scratch.
    const PUBLISH: bool;
    fn get(self, r: Self::Ref) -> Arg<'a>;
}

impl<'a> Operands<'a> for &'a [Value] {
    type Ref = Reg;
    const PUBLISH: bool = true;

    fn get(self, r: Reg) -> Arg<'a> {
        match &self[r as usize] {
            Value::F64(x) => Arg::F(*x),
            Value::I64(x) => Arg::I(*x),
            Value::Bool(x) => Arg::B(*x),
            Value::Acc(h) => Arg::Acc(h),
            Value::Arr(arr) => match (&arr.data, &arr.shape[..]) {
                (Data::F64(v), &[d0]) => Arg::Arr(Table { data: v, d0, d1: 1 }, 1),
                (Data::F64(v), &[d0, d1]) => Arg::Arr(Table { data: v, d0, d1 }, 2),
                (Data::I64(v), [_]) => Arg::Ints(v),
                _ => Arg::Other,
            },
        }
    }
}

/// The registers of a tape mid-element, as the operand source of its inner
/// SOACs: classes and ranks were unified at lowering, so binding against
/// this source cannot fail on them.
#[derive(Clone, Copy)]
struct Regs<'e> {
    /// Lane width 1: register `r` is `files.f[r]`.
    files: &'e Files,
    arrs: Views<'e>,
    ranks: &'e [u8],
    accs: &'e [Option<&'e Accum>],
}

impl<'e> Operands<'e> for Regs<'e> {
    type Ref = Slot;
    const PUBLISH: bool = false;

    fn get(self, r: Slot) -> Arg<'e> {
        match r {
            None => Arg::Other,
            Some((Cls::F, i)) => Arg::F(self.files.f[i as usize]),
            Some((Cls::I, i)) => Arg::I(self.files.i[i as usize]),
            Some((Cls::B, i)) => Arg::B(self.files.b[i as usize]),
            Some((Cls::A, a)) if a & LOCAL != 0 => Arg::Arr(self.arrs.get(a), 1),
            Some((Cls::A, a)) => Arg::Arr(self.arrs.get(a), self.ranks[a as usize]),
            Some((Cls::C, c)) => {
                Arg::Acc(self.accs[c as usize].expect("accumulator slot bound at dispatch"))
            }
        }
    }
}

/// One element stream of a map/redomap: the per-position class was checked
/// against the tape's input classes at dispatch.
#[derive(Debug, Clone, Copy)]
enum Stream<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
    /// The rows (of length `d1`) of a rank-2 `f64` array: the parameter's
    /// array slot is re-pointed at row `i` for element `i`.
    Rows {
        data: &'a [f64],
        d1: usize,
    },
    /// An accumulator argument: the shared handle goes to every element
    /// (the generic `write_elem_params` clones it per element), so it is
    /// lane-uniform like a capture and lives in the accumulator table.
    Acc,
}

/// `x op y` on `f64`, exactly as `run_ops` computes a lane of [`Op::Bin`].
#[inline(always)]
fn fbin(op: FBin, x: f64, y: f64) -> f64 {
    match op {
        FBin::Add => x + y,
        FBin::Sub => x - y,
        FBin::Mul => x * y,
        FBin::Div => x / y,
        FBin::Pow => x.powf(y),
        FBin::Min => x.min(y),
        FBin::Max => x.max(y),
        FBin::Rem => x % y,
    }
}

impl NativeFold {
    /// One fold step, in the operator's operand order.
    #[inline]
    fn step(self, acc: f64, x: f64) -> f64 {
        if self.swapped {
            fbin(self.op, x, acc)
        } else {
            fbin(self.op, acc, x)
        }
    }

    /// Fold a slice in element order, the operator chosen outside the loop
    /// (each arm inlines `fbin` at a constant operator).
    fn fold(self, acc: f64, xs: &[f64]) -> f64 {
        macro_rules! fold {
            ($op:expr) => {
                if self.swapped {
                    xs.iter().fold(acc, |a, &x| fbin($op, x, a))
                } else {
                    xs.iter().fold(acc, |a, &x| fbin($op, a, x))
                }
            };
        }
        match self.op {
            FBin::Add => fold!(FBin::Add),
            FBin::Sub => fold!(FBin::Sub),
            FBin::Mul => fold!(FBin::Mul),
            FBin::Div => fold!(FBin::Div),
            FBin::Pow => fold!(FBin::Pow),
            FBin::Min => fold!(FBin::Min),
            FBin::Max => fold!(FBin::Max),
            FBin::Rem => fold!(FBin::Rem),
        }
    }
}

/// Run `ops[pc..]` over `W`-lane register files, up to the end or to the
/// next op that needs more than registers and views (an inner SOAC, a
/// local temporary being built: [`Call::run_one`] handles those and
/// resumes); returns where it stopped. `arrs` holds the array slots; they
/// are lane-uniform (a tape whose arrays differ per element runs at
/// `W = 1`).
#[inline]
fn run_ops<const W: usize>(
    ops: &[Op],
    pc: usize,
    lanes: Lanes<W>,
    w: usize,
    arrs: Views,
    accs: Accs,
) -> usize {
    /// `o[l] <- lane(l)` for every live lane `l`.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    fn each<T, const W: usize>(o: &[Cell<T>; W], w: usize, lane: impl Fn(usize) -> T) {
        // A range loop, not an iterator over `o[..w]`: `l < w ≤ W` stays
        // visible where `lane` indexes its operand registers (measured: 7%
        // of a GMM gradient).
        for l in 0..w {
            o[l].set(lane(l));
        }
    }
    let Lanes { f, b, i: ii } = lanes;
    // A constant at lane width 1; never past the registers' width.
    let w = if W == 1 { 1 } else { w.min(W) };
    for (at, op) in ops.iter().enumerate().skip(pc) {
        match *op {
            Op::Inner(_) | Op::Replicate(..) => return at,
            Op::MovF(d, s) => each(&f[d as usize], w, |l| f[s as usize][l].get()),
            Op::MovB(d, s) => each(&b[d as usize], w, |l| b[s as usize][l].get()),
            Op::MovI(d, s) => each(&ii[d as usize], w, |l| ii[s as usize][l].get()),
            Op::Un(u, d, a) => {
                let x = &f[a as usize];
                let o = &f[d as usize];
                match u {
                    FUn::Neg => each(o, w, |l| -x[l].get()),
                    FUn::Sin => each(o, w, |l| x[l].get().sin()),
                    FUn::Cos => each(o, w, |l| x[l].get().cos()),
                    FUn::Exp => each(o, w, |l| x[l].get().exp()),
                    FUn::Log => each(o, w, |l| x[l].get().ln()),
                    FUn::Sqrt => each(o, w, |l| x[l].get().sqrt()),
                    FUn::Tanh => each(o, w, |l| x[l].get().tanh()),
                    FUn::Sigmoid => each(o, w, |l| 1.0 / (1.0 + (-x[l].get()).exp())),
                    FUn::Abs => each(o, w, |l| x[l].get().abs()),
                    FUn::Recip => each(o, w, |l| 1.0 / x[l].get()),
                }
            }
            Op::Bin(op2, d, a, bb) => {
                let x = &f[a as usize];
                let y = &f[bb as usize];
                let o = &f[d as usize];
                match op2 {
                    FBin::Add => each(o, w, |l| x[l].get() + y[l].get()),
                    FBin::Sub => each(o, w, |l| x[l].get() - y[l].get()),
                    FBin::Mul => each(o, w, |l| x[l].get() * y[l].get()),
                    FBin::Div => each(o, w, |l| x[l].get() / y[l].get()),
                    FBin::Pow => each(o, w, |l| x[l].get().powf(y[l].get())),
                    FBin::Min => each(o, w, |l| x[l].get().min(y[l].get())),
                    FBin::Max => each(o, w, |l| x[l].get().max(y[l].get())),
                    FBin::Rem => each(o, w, |l| x[l].get() % y[l].get()),
                }
            }
            Op::Cmp(c, d, a, bb) => {
                let x = &f[a as usize];
                let y = &f[bb as usize];
                let o = &b[d as usize];
                match c {
                    FCmp::Eq => each(o, w, |l| x[l].get() == y[l].get()),
                    FCmp::Neq => each(o, w, |l| x[l].get() != y[l].get()),
                    FCmp::Lt => each(o, w, |l| x[l].get() < y[l].get()),
                    FCmp::Le => each(o, w, |l| x[l].get() <= y[l].get()),
                    FCmp::Gt => each(o, w, |l| x[l].get() > y[l].get()),
                    FCmp::Ge => each(o, w, |l| x[l].get() >= y[l].get()),
                }
            }
            Op::BoolBin(c, d, a, bb) => {
                let x = &b[a as usize];
                let y = &b[bb as usize];
                let o = &b[d as usize];
                match c {
                    BBin::And => each(o, w, |l| x[l].get() && y[l].get()),
                    BBin::Or => each(o, w, |l| x[l].get() || y[l].get()),
                    BBin::Eq => each(o, w, |l| x[l].get() == y[l].get()),
                    BBin::Neq => each(o, w, |l| x[l].get() != y[l].get()),
                }
            }
            Op::Not(d, a) => {
                let x = &b[a as usize];
                let o = &b[d as usize];
                each(o, w, |l| !x[l].get());
            }
            Op::Sel(d, c, t, e) => {
                let cc = &b[c as usize];
                let tv = &f[t as usize];
                let ev = &f[e as usize];
                let o = &f[d as usize];
                each(o, w, |l| {
                    if cc[l].get() {
                        tv[l].get()
                    } else {
                        ev[l].get()
                    }
                });
            }
            Op::SelB(d, c, t, e) => {
                let cc = &b[c as usize];
                let tv = &b[t as usize];
                let ev = &b[e as usize];
                let o = &b[d as usize];
                each(o, w, |l| {
                    if cc[l].get() {
                        tv[l].get()
                    } else {
                        ev[l].get()
                    }
                });
            }
            Op::IntUn(u, d, a) => {
                let x = &ii[a as usize];
                let o = &ii[d as usize];
                match u {
                    IUn::Neg => each(o, w, |l| -x[l].get()),
                    IUn::Abs => each(o, w, |l| x[l].get().abs()),
                }
            }
            Op::IntBin(op2, d, a, bb) => {
                let x = &ii[a as usize];
                let y = &ii[bb as usize];
                let o = &ii[d as usize];
                match op2 {
                    IBin::Add => each(o, w, |l| x[l].get() + y[l].get()),
                    IBin::Sub => each(o, w, |l| x[l].get() - y[l].get()),
                    IBin::Mul => each(o, w, |l| x[l].get() * y[l].get()),
                    IBin::Div => each(o, w, |l| x[l].get() / y[l].get()),
                    IBin::Pow => each(o, w, |l| x[l].get().pow(y[l].get().max(0) as u32)),
                    IBin::Min => each(o, w, |l| x[l].get().min(y[l].get())),
                    IBin::Max => each(o, w, |l| x[l].get().max(y[l].get())),
                    IBin::Rem => each(o, w, |l| x[l].get() % y[l].get()),
                }
            }
            Op::IntCmp(c, d, a, bb) => {
                let x = &ii[a as usize];
                let y = &ii[bb as usize];
                let o = &b[d as usize];
                match c {
                    ICmp::Eq => each(o, w, |l| x[l].get() == y[l].get()),
                    ICmp::Neq => each(o, w, |l| x[l].get() != y[l].get()),
                    ICmp::Lt => each(o, w, |l| x[l].get() < y[l].get()),
                    ICmp::Le => each(o, w, |l| x[l].get() <= y[l].get()),
                    ICmp::Gt => each(o, w, |l| x[l].get() > y[l].get()),
                    ICmp::Ge => each(o, w, |l| x[l].get() >= y[l].get()),
                }
            }
            Op::SelI(d, c, t, e) => {
                let cc = &b[c as usize];
                let tv = &ii[t as usize];
                let ev = &ii[e as usize];
                let o = &ii[d as usize];
                each(o, w, |l| {
                    if cc[l].get() {
                        tv[l].get()
                    } else {
                        ev[l].get()
                    }
                });
            }
            Op::CastF(d, s) => {
                let x = &ii[s as usize];
                let o = &f[d as usize];
                each(o, w, |l| x[l].get() as f64);
            }
            Op::CastI(d, s) => {
                let x = &f[s as usize];
                let o = &ii[d as usize];
                each(o, w, |l| x[l].get() as i64);
            }
            Op::IndexF(d, a, s) => {
                let t = arrs.get(a);
                let x = &ii[s as usize];
                let o = &f[d as usize];
                for l in 0..w {
                    let i = x[l].get();
                    assert!(i >= 0, "negative index {i}");
                    let u = i as usize;
                    assert!(u < t.d0, "index {u} out of bounds for dim of size {}", t.d0);
                    o[l].set(t.data[u]);
                }
            }
            Op::Index2F(d, a, s0, s1) => {
                let t = arrs.get(a);
                let x0 = &ii[s0 as usize];
                let x1 = &ii[s1 as usize];
                let o = &f[d as usize];
                for l in 0..w {
                    let (i0, i1) = (x0[l].get(), x1[l].get());
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
                    o[l].set(t.data[u0 * t.d1 + u1]);
                }
            }
            Op::LenA(d, a) => {
                let len = arrs.get(a).d0 as i64;
                each(&ii[d as usize], w, |_| len);
            }
            // Scatter-adds go to the accumulator's cells directly: same
            // negative-index panic as `read_usizes`, same silent out-of-bounds
            // skip, same zero-skipping add as the generic `UpdAcc` (CAS on a
            // shared strand, load–add–store on an owned one). Tapes with
            // these ops run at `W = 1` (see `map_chunk`), so lane order is
            // element order and adds land exactly as the generic per-element
            // loop.
            Op::UpdAcc1(c, i_src, v) => {
                let x = &ii[i_src as usize];
                let vals = &f[v as usize];
                for l in 0..w {
                    assert!(x[l].get() >= 0, "negative index {}", x[l].get());
                    accs.add_at(c, &[x[l].get() as usize], vals[l].get());
                }
            }
            Op::UpdAcc2(c, s0, s1, v) => {
                let x0 = &ii[s0 as usize];
                let x1 = &ii[s1 as usize];
                let vals = &f[v as usize];
                for l in 0..w {
                    let (i0, i1) = (x0[l].get(), x1[l].get());
                    assert!(i0 >= 0, "negative index {i0}");
                    assert!(i1 >= 0, "negative index {i1}");
                    accs.add_at(c, &[i0 as usize, i1 as usize], vals[l].get());
                }
            }
            // Whole-row adds: one slice add from the row's offset, like the
            // generic `UpdAcc` with an array value (same bounds skip, same
            // extent check, same per-cell zero-skipping add in cell order).
            Op::UpdAccRow(c, a) => {
                for _ in 0..w {
                    accs.add_slice(c, &[], arrs.get(a).data);
                }
            }
            Op::UpdAccRow1(c, i_src, a) => {
                for i in &ii[i_src as usize][..w] {
                    let i = i.get();
                    assert!(i >= 0, "negative index {i}");
                    accs.add_slice(c, &[i as usize], arrs.get(a).data);
                }
            }
        }
    }
    ops.len()
}

/// Region entry point: run over caller-provided register files (stack
/// arrays, sized at lowering time). Regions are scalar-only — admission
/// rejects tapes with `i64` or array registers.
#[inline]
pub(crate) fn run_region_ops(ops: &[Op], f: &mut [f64], b: &mut [bool]) {
    let none = Views {
        ext: &[],
        temps: &[],
    };
    let lanes = Lanes {
        f: cells(f),
        b: cells(b),
        i: &[],
    };
    let end = run_ops::<1>(ops, 0, lanes, 1, none, Accs::NONE);
    debug_assert_eq!(end, ops.len(), "regions are straight-line scalar code");
}

/// One set of register files, flat: whoever loads them ([`Call::load`])
/// picks the lane width `W`, and register `r` is then `[r·W .. (r+1)·W]`.
/// They only grow, and nothing clears them between dispatches: a register
/// is never read before it is written, except the constants and captures
/// `load` writes and the inputs the block loop writes.
#[derive(Default)]
struct Files {
    f: Vec<f64>,
    b: Vec<bool>,
    i: Vec<i64>,
}

/// Register files as `run_ops` sees them at lane width `W`: cells, so that
/// an op borrows its source and destination registers — which may be the
/// same one — side by side instead of copying `W` lanes of each operand.
#[derive(Clone, Copy)]
struct Lanes<'f, const W: usize> {
    f: &'f [[Cell<f64>; W]],
    b: &'f [[Cell<bool>; W]],
    i: &'f [[Cell<i64>; W]],
}

/// A flat register file as `W`-lane registers of cells.
fn cells<T, const W: usize>(file: &mut [T]) -> &[[Cell<T>; W]] {
    Cell::from_mut(file).as_slice_of_cells().as_chunks().0
}

/// Where the first `w` lanes of register `r` are in a flat file at lane
/// width `W`.
#[inline]
fn span<const W: usize>(r: u16, w: usize) -> std::ops::Range<usize> {
    r as usize * W..r as usize * W + w
}

/// Grow `file` to `regs` registers of `W` lanes, with room for [`B`] lanes
/// of each: a depth whose first tape is serial does not allocate again for
/// a block tape of as many registers.
fn fit<T: Clone, const W: usize>(file: &mut Vec<T>, regs: usize, zero: T) {
    if file.len() < regs * W {
        file.reserve(regs * B - file.len());
        file.resize(regs * W, zero);
    }
}

impl Files {
    fn lanes<const W: usize>(&mut self) -> Lanes<'_, W> {
        Lanes {
            f: cells(&mut self.f),
            b: cells(&mut self.b),
            i: cells(&mut self.i),
        }
    }
}

/// One collected result column: the flat row-major data and, for a row
/// column, the row length once an element has said it.
#[derive(Default)]
struct OutCol {
    data: Vec<f64>,
    row: Option<usize>,
}

impl OutCol {
    /// Append element `i`'s row; `lo..hi` are the chunk's elements. Every
    /// row of a column has the first one's length.
    fn push_row(&mut self, row: &[f64], i: usize, lo: usize, hi: usize, publish: bool) {
        match self.row {
            None => {
                self.row = Some(row.len());
                if publish {
                    self.data = arena::take_f64((hi - lo) * row.len());
                } else {
                    self.data.reserve((hi - lo) * row.len());
                }
            }
            Some(len) if len != row.len() => irregular(i, row.len(), lo, len),
            Some(_) => {}
        }
        self.data.extend_from_slice(row);
    }
}

/// The first `n` columns of `cols`, which only ever grows: the buffers of a
/// kernel with fewer columns stay allocated for the next one with more.
fn first_cols(cols: &mut Vec<OutCol>, n: usize) -> &mut [OutCol] {
    if cols.len() < n {
        cols.resize_with(n, OutCol::default);
    }
    &mut cols[..n]
}

/// The panic of a `map` whose rows differ in length — `Array::stack`'s, so
/// the tape and generic paths fail alike.
fn irregular(i: usize, len: usize, first: usize, first_len: usize) -> ! {
    panic!("irregular array: row {i} has shape [{len}], row {first} has [{first_len}]")
}

/// The buffers tape dispatches run in, reused from one dispatch to the next
/// by whoever owns the strand of execution (a `run_program`, which hands
/// it to the thread's next run, or one chunk of a parallel SOAC): after
/// the first few dispatches nothing here allocates. One `Scratch` serves one nest depth; the inner SOACs of a
/// tape running here run in `inner`.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Whether this strand is one of several chunks running concurrently,
    /// so that its accumulator adds must be atomic. Decided where the
    /// strand is created and nowhere else: [`Scratch::shared`] in the arm
    /// of a parallel SOAC, `default()` for a `run_program`; the scratch of
    /// the next nest depth inherits it.
    pub(crate) shared: bool,
    /// The files of a map tape ([`B`] lanes, or 1 for a serial tape) or of
    /// a reduce/scan operator (1 lane).
    files: Files,
    /// The reduce tape of a redomap (its map tape runs in `files`).
    red: Files,
    /// Fold state: the running accumulator (a fold's result) and the
    /// element tuple fed to the operator.
    acc: Vec<f64>,
    elems: Vec<f64>,
    /// A map's or scan's output columns (see [`first_cols`]).
    cols: Vec<OutCol>,
    /// The local temporaries of the serial map tape running here, indexed
    /// by array slot.
    temps: Vec<Vec<f64>>,
    inner: Option<Box<Scratch>>,
}

impl Scratch {
    /// The scratch of one chunk of a parallel SOAC.
    pub(crate) fn shared() -> Scratch {
        Scratch {
            shared: true,
            ..Scratch::default()
        }
    }
}

/// One kernel's side of a dispatch: its tape and what it borrows from its
/// operand source — the capture values, with `f64` arrays bound as views
/// and accumulator handles bound by slot.
struct Call<'a, S: Operands<'a>> {
    k: &'a TapeKernel,
    cfg: &'a ExecConfig,
    src: S,
    captures: &'a [S::Ref],
    tables: [Table<'a>; MAX_TABLES],
    accs: [Option<&'a Accum>; MAX_ACCS],
}

impl<'a, S: Operands<'a>> Call<'a, S> {
    /// Bind an accumulator handle to table slot `c`, checking it against
    /// the rank the tape's adds require (`0`: passed through only).
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
    /// arrays are borrowed whole; their rank must match what the tape
    /// requires (`a_ranks`, with `0` = any rank, for slots only `Len`
    /// touches).
    fn bind(
        k: &'a TapeKernel,
        cfg: &'a ExecConfig,
        src: S,
        captures: &'a [S::Ref],
    ) -> Option<Call<'a, S>> {
        let slots = &k.tape.inputs[k.num_params..];
        if slots.len() != captures.len() {
            return None;
        }
        let mut call = Call {
            k,
            cfg,
            src,
            captures,
            tables: [Table::EMPTY; MAX_TABLES],
            accs: [None; MAX_ACCS],
        };
        for (slot, r) in slots.iter().zip(captures) {
            let Some((cls, i)) = *slot else { continue };
            match (cls, src.get(*r)) {
                (Cls::F, Arg::F(_)) | (Cls::B, Arg::B(_)) | (Cls::I, Arg::I(_)) => {}
                (Cls::C, Arg::Acc(h)) => call.bind_acc(i, h)?,
                (Cls::A, Arg::Arr(t, rank)) => {
                    let need = k.tape.a_ranks[i as usize];
                    if need != 0 && need != rank {
                        return None;
                    }
                    call.tables[i as usize] = t;
                }
                _ => return None,
            }
        }
        Some(call)
    }

    /// Size `files` for the tape at lane width `W`, then write its
    /// constants and broadcast the scalar captures over the first `w` lanes
    /// — all this dispatch can use — and nothing else (see [`Files`]).
    fn load<const W: usize>(&self, files: &mut Files, w: usize) {
        let t = &self.k.tape;
        fit::<_, W>(&mut files.f, t.f_init.len(), 0.0);
        fit::<_, W>(&mut files.b, t.b_init.len(), false);
        fit::<_, W>(&mut files.i, t.i_init.len(), 0);
        let Files { f, b, i } = files;
        for &r in &t.f_consts {
            f[span::<W>(r, w)].fill(t.f_init[r as usize]);
        }
        for &r in &t.b_consts {
            b[span::<W>(r, w)].fill(t.b_init[r as usize]);
        }
        for &r in &t.i_consts {
            i[span::<W>(r, w)].fill(t.i_init[r as usize]);
        }
        for (slot, r) in t.inputs[self.k.num_params..].iter().zip(self.captures) {
            match (*slot, self.src.get(*r)) {
                (Some((Cls::F, t)), Arg::F(x)) => f[span::<W>(t, w)].fill(x),
                (Some((Cls::B, t)), Arg::B(x)) => b[span::<W>(t, w)].fill(x),
                (Some((Cls::I, t)), Arg::I(x)) => i[span::<W>(t, w)].fill(x),
                _ => {} // dead, or bound in a table
            }
        }
    }

    /// Run `w` live lanes of a tape that is not serial (a block of a map,
    /// a fold operator): registers and the views bound at dispatch are all
    /// it touches.
    fn run<const W: usize>(&self, files: &mut Files, w: usize) {
        let tape = &self.k.tape;
        let arrs = Views {
            ext: &self.tables,
            temps: &[],
        };
        let end = run_ops::<W>(&tape.ops, 0, files.lanes(), w, arrs, Accs::NONE);
        debug_assert_eq!(end, tape.ops.len(), "a serial tape outside `run_one`");
    }

    /// Run the tape for one element at lane width 1: `tables` are this
    /// element's views (row slots re-pointed), `temps` the tape's local
    /// temporaries, `inner` the scratch of the next nest depth (created
    /// as `shared` as this strand is). Scalar runs go through `run_ops`;
    /// in between, an inner SOAC dispatches through the same entry points
    /// as one from a frame, and `replicate` fills a temporary.
    fn run_one(
        &self,
        tables: &[Table; MAX_TABLES],
        files: &mut Files,
        temps: &mut [Vec<f64>],
        inner: &mut Option<Box<Scratch>>,
        shared: bool,
    ) {
        let tape = &self.k.tape;
        let accs = Accs {
            slots: &self.accs,
            shared,
        };
        let mut pc = 0;
        loop {
            let arrs = Views { ext: tables, temps };
            pc = run_ops::<1>(&tape.ops, pc, files.lanes(), 1, arrs, accs);
            match tape.ops.get(pc) {
                None => return,
                Some(&Op::Inner(j)) => {
                    let child = inner.get_or_insert_with(|| {
                        Box::new(Scratch {
                            shared,
                            ..Scratch::default()
                        })
                    });
                    self.run_inner(&tape.inner[j as usize], tables, files, temps, child);
                }
                Some(&Op::Replicate(a, n, x)) => {
                    let n = files.i[n as usize].max(0) as usize;
                    let t = &mut temps[(a & !LOCAL) as usize];
                    t.clear();
                    t.resize(n, files.f[x as usize]);
                }
                Some(op) => unreachable!("run_ops stopped at {op:?}"),
            }
            pc += 1;
        }
    }

    /// Borrow map/redomap element streams of one common length, each
    /// matching the class the tape inferred for its parameter slot: a
    /// rank-1 `f64` or `i64` array for a scalar (`i64` streams are how
    /// iota-driven gather kernels get their index argument), a rank-2 `f64`
    /// array for a row. Accumulator arguments bind their shared handle
    /// (lane-uniform) and do not contribute a length; at least one real
    /// array stream is required. Dead slots accept any of these.
    fn bind_streams(
        &mut self,
        args: &[S::Ref],
        streams: &mut [Stream<'a>; MAX_STREAMS],
    ) -> Option<usize> {
        let mut n: Option<usize> = None;
        let tape = &self.k.tape;
        for (p, r) in args.iter().enumerate() {
            let (len, stream) = match (tape.inputs[p], self.src.get(*r)) {
                (Some((Cls::C, c)), Arg::Acc(h)) => {
                    self.bind_acc(c, h)?;
                    continue;
                }
                (None, Arg::Acc(_)) => continue,
                (Some((Cls::F, _)), Arg::Arr(t, 1)) => (t.d0, Stream::F(t.data)),
                (Some((Cls::A, a)), Arg::Arr(t, 2)) if tape.a_ranks[a as usize] <= 1 => (
                    t.d0,
                    Stream::Rows {
                        data: t.data,
                        d1: t.d1,
                    },
                ),
                (Some((Cls::I, _)), Arg::Ints(xs)) => (xs.len(), Stream::I(xs)),
                // Never read: only the extent matters.
                (None, Arg::Arr(t, _)) => (t.d0, Stream::F(&[])),
                (None, Arg::Ints(xs)) => (xs.len(), Stream::I(&[])),
                _ => return None,
            };
            if *n.get_or_insert(len) != len {
                return None;
            }
            streams[p] = stream;
        }
        n
    }

    /// Borrow every argument as a rank-1 `f64` slice of one common length —
    /// the shape class of order-sensitive streams (reduce/scan elements).
    fn f64_streams(&self, args: &[S::Ref]) -> Option<(usize, [&'a [f64]; MAX_STREAMS])> {
        let mut arrs: [&[f64]; MAX_STREAMS] = [&[]; MAX_STREAMS];
        let mut n: Option<usize> = None;
        for (j, r) in args.iter().enumerate() {
            match self.src.get(*r) {
                Arg::Arr(t, 1) if *n.get_or_insert(t.d0) == t.d0 => arrs[j] = t.data,
                _ => return None,
            }
        }
        Some((n?, arrs))
    }

    /// Run one inner SOAC of this tape mid-element: operands from the
    /// tape's registers, the dispatch itself through the entry points a
    /// frame uses, results into the tape's `f64` registers (folds) or local
    /// temporaries (map columns, swapped with the child's column buffers so
    /// neither side allocates).
    fn run_inner(
        &self,
        op: &InnerOp,
        tables: &[Table; MAX_TABLES],
        files: &mut Files,
        temps: &mut [Vec<f64>],
        child: &mut Scratch,
    ) {
        fn regs<'e>(
            tape: &'e Tape,
            tables: &'e [Table<'e>],
            accs: &'e [Option<&'e Accum>],
            files: &'e Files,
            temps: &'e [Vec<f64>],
        ) -> Regs<'e> {
            Regs {
                files,
                arrs: Views { ext: tables, temps },
                ranks: &tape.a_ranks,
                accs,
            }
        }
        fn neutral(files: &Files, regs: &[u16]) -> [f64; MAX_STREAMS] {
            let mut ne = [0.0; MAX_STREAMS];
            for (x, r) in ne.iter_mut().zip(regs) {
                *x = files.f[*r as usize];
            }
            ne
        }
        // Classes and ranks were settled at lowering; what is left to go
        // wrong is streams of different extents, which the generic path
        // meets as an out-of-bounds read.
        fn ragged<T>() -> T {
            panic!("inner SOAC over arrays of different lengths")
        }
        let (cfg, tape, accs) = (self.cfg, &self.k.tape, &self.accs);
        match op {
            InnerOp::Map {
                k,
                args,
                captures,
                dsts,
            } => {
                let src = regs(tape, tables, accs, files, temps);
                map_into(k, cfg, src, args, captures, child).unwrap_or_else(ragged);
                for (col, a) in child.cols.iter_mut().zip(dsts) {
                    std::mem::swap(&mut col.data, &mut temps[(*a & !LOCAL) as usize]);
                }
            }
            InnerOp::Reduce {
                k,
                neutral: ne,
                args,
                captures,
                dsts,
            } => {
                let ne = &neutral(files, ne)[..ne.len()];
                let src = regs(tape, tables, accs, files, temps);
                reduce_into(k, cfg, src, ne, args, captures, child).unwrap_or_else(ragged);
                for (d, x) in dsts.iter().zip(&child.acc) {
                    files.f[*d as usize] = *x;
                }
            }
            InnerOp::Redomap {
                rk,
                mk,
                neutral: ne,
                args,
                red_captures,
                map_captures,
                dsts,
            } => {
                let ne = &neutral(files, ne)[..ne.len()];
                let src = regs(tape, tables, accs, files, temps);
                redomap_into(
                    rk,
                    mk,
                    cfg,
                    src,
                    ne,
                    args,
                    red_captures,
                    map_captures,
                    child,
                )
                .unwrap_or_else(ragged);
                for (d, x) in dsts.iter().zip(&child.acc) {
                    files.f[*d as usize] = *x;
                }
            }
        }
    }
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

/// Load elements `i..i + w` of every stream into the first `w` lanes of
/// its parameter slot.
#[inline]
fn load_block(tape: &Tape, files: &mut Files, args: &[Stream], i: usize, w: usize) {
    let Files { f, i: ii, .. } = files;
    for (p, s) in args.iter().enumerate() {
        match (tape.inputs[p], s) {
            (Some((Cls::F, r)), Stream::F(a)) => f[span::<B>(r, w)].copy_from_slice(&a[i..i + w]),
            (Some((Cls::I, r)), Stream::I(a)) => ii[span::<B>(r, w)].copy_from_slice(&a[i..i + w]),
            (Some((Cls::C, _)), Stream::Acc) | (None, _) => {}
            _ => unreachable!("stream class checked at dispatch"),
        }
    }
}

/// Load element `i` of every stream into its parameter slot (`W = 1`): a
/// scalar into its register, a row by re-pointing its array slot.
#[inline]
fn load_one<'a>(
    tape: &Tape,
    files: &mut Files,
    tables: &mut [Table<'a>; MAX_TABLES],
    args: &[Stream<'a>],
    i: usize,
) {
    for (p, s) in args.iter().enumerate() {
        match (tape.inputs[p], s) {
            (Some((Cls::F, r)), Stream::F(a)) => files.f[r as usize] = a[i],
            (Some((Cls::I, r)), Stream::I(a)) => files.i[r as usize] = a[i],
            (Some((Cls::A, a)), Stream::Rows { data, d1 }) => {
                tables[a as usize] = Table::rank1(&data[i * d1..(i + 1) * d1])
            }
            (Some((Cls::C, _)), Stream::Acc) | (None, _) => {}
            _ => unreachable!("stream class checked at dispatch"),
        }
    }
}

/// Size the temporaries for `tape`.
fn size_temps(temps: &mut Vec<Vec<f64>>, tape: &Tape) {
    if temps.len() < tape.num_locals {
        temps.resize_with(tape.num_locals, Vec::new);
    }
}

/// Elements `lo..hi` of a `map`, leaving one flat buffer per float or row
/// result in `s.cols`: blocks of up to [`B`] live lanes — as wide as what
/// is left of the stream, so there is no tail — or, for a serial tape,
/// every element at lane width 1 (so that scatter-adds land in the generic
/// per-element order, and rows and temporaries are per element).
fn map_chunk<'a, S: Operands<'a>>(
    call: &Call<'a, S>,
    args: &[Stream<'a>],
    lo: usize,
    hi: usize,
    s: &mut Scratch,
) {
    let k = call.k;
    let Scratch {
        shared,
        files,
        cols,
        temps,
        inner,
        ..
    } = s;
    let cols = first_cols(cols, k.cols.len());
    for (col, c) in cols.iter_mut().zip(&k.cols) {
        col.row = None;
        match c {
            Col::F(_) if S::PUBLISH => col.data = arena::take_f64(hi - lo),
            Col::F(_) => {
                col.data.clear();
                col.data.reserve(hi - lo);
            }
            // Sized by the first row.
            Col::Row(_) if S::PUBLISH => col.data = Vec::new(),
            Col::Row(_) => col.data.clear(),
        }
    }
    if !k.tape.serial {
        call.load::<B>(files, (hi - lo).min(B));
        let mut i = lo;
        while i < hi {
            let w = (hi - i).min(B);
            load_block(&k.tape, files, args, i, w);
            call.run::<B>(files, w);
            for (col, c) in cols.iter_mut().zip(&k.cols) {
                let Col::F(r) = *c else {
                    unreachable!("a row result makes the tape serial")
                };
                col.data.extend_from_slice(&files.f[span::<B>(r, w)]);
            }
            i += w;
        }
        return;
    }
    call.load::<1>(files, 1);
    size_temps(temps, &k.tape);
    let mut tables = call.tables;
    for i in lo..hi {
        load_one(&k.tape, files, &mut tables, args, i);
        call.run_one(&tables, files, temps, inner, *shared);
        for (col, c) in cols.iter_mut().zip(&k.cols) {
            match *c {
                Col::F(r) => col.data.push(files.f[r as usize]),
                Col::Row(a) => {
                    let arrs = Views {
                        ext: &tables,
                        temps,
                    };
                    col.push_row(arrs.get(a).data, i, lo, hi, S::PUBLISH);
                }
            }
        }
    }
}

/// `map` over operands from `src`, leaving the float and row columns in
/// `s.cols`; returns the extent. `None` (nothing touched): an operand is
/// outside the tape's shape class.
fn map_into<'a, S: Operands<'a>>(
    k: &'a TapeKernel,
    cfg: &'a ExecConfig,
    src: S,
    args: &'a [S::Ref],
    captures: &'a [S::Ref],
    s: &mut Scratch,
) -> Option<usize> {
    let mut call = Call::bind(k, cfg, src, captures)?;
    let mut streams = [Stream::Acc; MAX_STREAMS];
    let n = call.bind_streams(args, &mut streams)?;
    let streams = &streams[..args.len()];
    if !should_parallelize(cfg, n) {
        map_chunk(&call, streams, 0, n, s);
        return Some(n);
    }
    let mut chunks = run_chunked(cfg, n, &|lo, hi| {
        let mut c = Scratch::shared();
        map_chunk(&call, streams, lo, hi, &mut c);
        (lo, c.cols)
    });
    if let [_] = chunks[..] {
        s.cols = chunks.swap_remove(0).1;
        return Some(n);
    }
    for (j, col) in first_cols(&mut s.cols, k.cols.len()).iter_mut().enumerate() {
        col.row = chunks.first().and_then(|(_, c)| c[j].row);
        col.data = arena::take_f64(n * col.row.unwrap_or(1));
        for (lo, chunk) in &mut chunks {
            let part = &mut chunk[j];
            if let (Some(len), Some(first_len)) = (part.row, col.row) {
                if len != first_len {
                    irregular(*lo, len, 0, first_len);
                }
            }
            col.data.append(&mut part.data);
            arena::give_f64(std::mem::take(&mut part.data));
        }
    }
    Some(n)
}

/// Write a `map`'s or `scan`'s results into the frame: float columns
/// become rank-1 arrays, row columns `[n, len]` arrays (`[0]` when there
/// was no element to say `len`), accumulator results pass their (shared)
/// handle through from the argument or capture it came in on.
fn write_columns(
    k: &TapeKernel,
    regs: &mut [Value],
    dsts: &[Reg],
    args: &[Reg],
    captures: &[Reg],
    n: usize,
    cols: &mut [OutCol],
) {
    let mut cols = cols.iter_mut();
    for (d, acc) in dsts.iter().zip(&k.acc_rets) {
        regs[*d as usize] = match acc {
            None => {
                let col = cols.next().expect("one column per float or row result");
                let shape = match col.row {
                    Some(len) => vec![n, len],
                    None => vec![n],
                };
                Value::Arr(Array::from_f64(shape, std::mem::take(&mut col.data)))
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
    let Some(n) = map_into(k, cfg, &*regs, args, captures, scratch) else {
        return false;
    };
    write_columns(k, regs, dsts, args, captures, n, &mut scratch.cols);
    true
}

/// Write one fold input into a `W = 1` frame (skipping dead slots).
#[inline]
fn set_in1(tape: &Tape, files: &mut Files, slot: usize, x: f64) {
    if let Some((Cls::F, r)) = tape.inputs[slot] {
        files.f[r as usize] = x;
    }
}

/// Fold one partial (or element tuple) into the accumulator: natively for
/// a single-operator fold, else via the reduce tape. `elems` are the values
/// for the slots after the accumulator slots.
#[inline]
fn fold_step<'a, S: Operands<'a>>(
    call: &Call<'a, S>,
    files: &mut Files,
    acc: &mut [f64],
    elems: &[f64],
) {
    if let (Some(native), [a], [x]) = (call.k.native, &mut *acc, elems) {
        *a = native.step(*a, *x);
        return;
    }
    let tape = &call.k.tape;
    let width = acc.len();
    for (j, a) in acc.iter().enumerate() {
        set_in1(tape, files, j, *a);
    }
    for (j, x) in elems.iter().enumerate() {
        set_in1(tape, files, width + j, *x);
    }
    call.run::<1>(files, 1);
    for (a, &(_, r)) in acc.iter_mut().zip(&tape.rets) {
        *a = files.f[r as usize];
    }
}

/// Start a fold: the accumulator at the neutral element, the operator's
/// files loaded (a native fold has none to load).
fn fold_start<'a, S: Operands<'a>>(
    call: &Call<'a, S>,
    files: &mut Files,
    ne: &[f64],
    acc: &mut Vec<f64>,
) {
    acc.clear();
    acc.extend_from_slice(ne);
    if call.k.native.is_none() {
        call.load::<1>(files, 1);
    }
}

/// Combine per-chunk partials sequentially in chunk order into `acc` —
/// the exact mirror of the generic reduce/redomap partial combine
/// (including the single-partial shortcut).
fn combine_partials<'a, S: Operands<'a>>(
    call: &Call<'a, S>,
    files: &mut Files,
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
fn reduce_chunk<'a, S: Operands<'a>>(
    call: &Call<'a, S>,
    ne: &[f64],
    arrs: &[&[f64]],
    lo: usize,
    hi: usize,
    s: &mut Scratch,
) {
    let Scratch {
        files, acc, elems, ..
    } = s;
    if let (Some(native), [ne], [arr]) = (call.k.native, ne, arrs) {
        acc.clear();
        acc.push(native.fold(*ne, &arr[lo..hi]));
        return;
    }
    fold_start(call, files, ne, acc);
    elems.clear();
    elems.resize(arrs.len(), 0.0);
    for i in lo..hi {
        for (x, arr) in elems.iter_mut().zip(arrs) {
            *x = arr[i];
        }
        fold_step(call, files, acc, elems);
    }
}

/// `reduce` over operands from `src` into `s.acc`: per-chunk sequential
/// folds, then the sequential combine.
fn reduce_into<'a, S: Operands<'a>>(
    k: &'a TapeKernel,
    cfg: &'a ExecConfig,
    src: S,
    ne: &[f64],
    args: &'a [S::Ref],
    captures: &'a [S::Ref],
    s: &mut Scratch,
) -> Option<()> {
    let call = Call::bind(k, cfg, src, captures)?;
    let (n, arrs) = call.f64_streams(args)?;
    let arrs = &arrs[..args.len()];
    if !should_parallelize(cfg, n) {
        reduce_chunk(&call, ne, arrs, 0, n, s);
    } else {
        let partials = run_chunked(cfg, n, &|lo, hi| {
            let mut c = Scratch::shared();
            reduce_chunk(&call, ne, arrs, lo, hi, &mut c);
            c.acc
        });
        combine_partials(&call, &mut s.files, ne, partials, &mut s.acc);
    }
    Some(())
}

/// `reduce`. `false` (frame untouched): run the generic path.
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
    let Some(ne) = neutral_f64(regs, neutral) else {
        return false;
    };
    let ne = &ne[..neutral.len()];
    if reduce_into(k, cfg, &*regs, ne, args, captures, scratch).is_none() {
        return false;
    }
    for (d, x) in dsts.iter().zip(&scratch.acc) {
        regs[*d as usize] = Value::F64(*x);
    }
    true
}

/// Elements `lo..hi` of a fused `reduce ∘ map` into `s.acc`: map blocks of
/// up to [`B`] live lanes (lane width 1 for a serial map tape — a nest)
/// feeding a strictly sequential in-order fold, so the accumulation order
/// is element order exactly as in the generic redomap.
fn redomap_chunk<'a, S: Operands<'a>>(
    red: &Call<'a, S>,
    map: &Call<'a, S>,
    ne: &[f64],
    args: &[Stream<'a>],
    lo: usize,
    hi: usize,
    s: &mut Scratch,
) {
    let Scratch {
        shared,
        files,
        red: rfiles,
        acc,
        elems,
        temps,
        inner,
        ..
    } = s;
    let mk = map.k;
    let f_col = |c: &Col| match *c {
        Col::F(r) => r,
        Col::Row(_) => unreachable!("the map side of a redomap returns floats"),
    };
    fold_start(red, rfiles, ne, acc);
    elems.clear();
    elems.resize(mk.cols.len(), 0.0);
    if !mk.tape.serial {
        map.load::<B>(files, (hi - lo).min(B));
        let mut i = lo;
        while i < hi {
            let w = (hi - i).min(B);
            load_block(&mk.tape, files, args, i, w);
            map.run::<B>(files, w);
            if let (Some(native), [c], [a]) = (red.k.native, &mk.cols[..], &mut acc[..]) {
                *a = native.fold(*a, &files.f[span::<B>(f_col(c), w)]);
            } else {
                for l in 0..w {
                    for (x, c) in elems.iter_mut().zip(&mk.cols) {
                        *x = files.f[span::<B>(f_col(c), w)][l];
                    }
                    fold_step(red, rfiles, acc, elems);
                }
            }
            i += w;
        }
        return;
    }
    map.load::<1>(files, 1);
    size_temps(temps, &mk.tape);
    let mut tables = map.tables;
    for i in lo..hi {
        load_one(&mk.tape, files, &mut tables, args, i);
        map.run_one(&tables, files, temps, inner, *shared);
        for (x, c) in elems.iter_mut().zip(&mk.cols) {
            *x = files.f[f_col(c) as usize];
        }
        fold_step(red, rfiles, acc, elems);
    }
}

/// Fused `reduce ∘ map` over operands from `src` into `s.acc`, chunked and
/// combined like [`reduce_into`].
#[allow(clippy::too_many_arguments)]
fn redomap_into<'a, S: Operands<'a>>(
    rk: &'a TapeKernel,
    mk: &'a TapeKernel,
    cfg: &'a ExecConfig,
    src: S,
    ne: &[f64],
    args: &'a [S::Ref],
    red_captures: &'a [S::Ref],
    map_captures: &'a [S::Ref],
    s: &mut Scratch,
) -> Option<()> {
    let red = Call::bind(rk, cfg, src, red_captures)?;
    let mut map = Call::bind(mk, cfg, src, map_captures)?;
    let mut streams = [Stream::Acc; MAX_STREAMS];
    let n = map.bind_streams(args, &mut streams)?;
    let streams = &streams[..args.len()];
    if !should_parallelize(cfg, n) {
        redomap_chunk(&red, &map, ne, streams, 0, n, s);
    } else {
        let partials = run_chunked(cfg, n, &|lo, hi| {
            let mut c = Scratch::shared();
            redomap_chunk(&red, &map, ne, streams, lo, hi, &mut c);
            c.acc
        });
        combine_partials(&red, &mut s.red, ne, partials, &mut s.acc);
    }
    Some(())
}

/// `redomap`. `false` (frame untouched): run the generic path.
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
    let Some(ne) = neutral_f64(regs, neutral) else {
        return false;
    };
    let ne = &ne[..neutral.len()];
    let frame = &*regs;
    if redomap_into(
        rk,
        mk,
        cfg,
        frame,
        ne,
        args,
        red_captures,
        map_captures,
        scratch,
    )
    .is_none()
    {
        return false;
    }
    for (d, x) in dsts.iter().zip(&scratch.acc) {
        regs[*d as usize] = Value::F64(*x);
    }
    true
}

/// Inclusive `scan`: strictly sequential, like the generic one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan(
    k: &TapeKernel,
    cfg: &ExecConfig,
    regs: &mut [Value],
    dsts: &[Reg],
    neutral: &[Opnd],
    args: &[Reg],
    captures: &[Reg],
    scratch: &mut Scratch,
) -> bool {
    let n = {
        let Some(call) = Call::bind(k, cfg, &*regs, captures) else {
            return false;
        };
        let Some(ne) = neutral_f64(regs, neutral) else {
            return false;
        };
        let Some((n, arrs)) = call.f64_streams(args) else {
            return false;
        };
        let arrs = &arrs[..args.len()];
        let Scratch {
            files,
            acc,
            elems,
            cols,
            ..
        } = scratch;
        fold_start(&call, files, &ne[..neutral.len()], acc);
        elems.clear();
        elems.resize(arrs.len(), 0.0);
        let cols = first_cols(cols, acc.len());
        for col in cols.iter_mut() {
            *col = OutCol {
                data: arena::take_f64(n),
                row: None,
            };
        }
        for i in 0..n {
            for (x, arr) in elems.iter_mut().zip(arrs) {
                *x = arr[i];
            }
            fold_step(&call, files, acc, elems);
            for (col, a) in cols.iter_mut().zip(acc.iter()) {
                col.data.push(*a);
            }
        }
        n
    };
    write_columns(k, regs, dsts, &[], &[], n, &mut scratch.cols);
    true
}
