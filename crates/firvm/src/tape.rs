//! Lowering kernel bytecode to monomorphic tapes.
//!
//! A [`Tape`] is the VM's kernel form: a flat sequence of register ops
//! over three monomorphic scalar register files (`f64`, `bool` and `i64`)
//! plus a table of `f64` array *views* and a table of shared accumulator
//! handles — no `Value` boxing, no enum-typed registers, no `Drop` glue on
//! writes. [`lower_program`] runs once per [`Program`](crate::Program),
//! from `compile` and from `Program::assemble`, and decides for every
//! kernel whether it runs as a tape or on the generic bytecode path — with
//! a [`Fallback`] reason recorded for the latter. Lowering is a single
//! forward pass over straight-line bytecode that infers each register's
//! class from how it is used, per kernel, not all-or-nothing.
//!
//! An array slot ([`Cls::A`]) is a view `(data, d0, d1)` of one of three
//! things: a captured `f64` array (a gather table), **a row** of a rank-2
//! `f64` element stream (re-pointed per element, never copied), or a
//! **tape-local rank-1 temporary** (an output column of an inner `map`,
//! `replicate n x` of a scalar). A body may contain inner `map`, `reduce`
//! and `redomap` instructions whose own kernels have tapes: they become
//! [`Op::Inner`] and run inside the tape, over array slots, through the
//! same chunk functions as a dispatch from the main body — so a perfect
//! `map` nest over regular arrays is **one** kernel over flat row-major
//! data. A result may be a rank-1 `f64` row, written into one flat buffer.
//! A reduce/scan operator that is a single float binary op over its two
//! parameters is recognised here ([`TapeKernel::native`]) and folded by a
//! native loop.
//!
//! Still outside the fragment: jumps (`if`/`loop`), `scan`/`hist`/
//! `scatter`/`withacc` in a body, `iota`/`update`/`reverse`/array moves,
//! `i64`/`bool` result columns and fold state, rows of rank ≥ 2, indexing
//! past rank 2.
//!
//! Every op reproduces `interp::eval`'s `f64`/`bool`/`i64` semantics
//! exactly (same intrinsics, same operand order), so a tape run is bitwise
//! identical to interpreting the same instructions.

use std::collections::HashMap;
use std::sync::Arc;

use fir::ir::{BinOp, UnOp};
use fir::types::{ScalarType, Type};

use crate::bytecode::{CodeObject, Instr, Opnd, Reg};
use crate::kernel::Kernel;
use crate::region::{lower_regions, Region};

/// Class of a tape register: the three scalar files plus array views and
/// shared accumulator handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cls {
    F,
    B,
    I,
    /// A view of `f64` data: a captured array, a row of a rank-2 element
    /// stream, or a tape-local rank-1 temporary (slot numbers with
    /// [`LOCAL`] set).
    A,
    /// A shared accumulator handle (scatter-add target).
    C,
}

/// Set in the slot number of a tape-local array temporary; the rest of the
/// number indexes the executor's temporaries. Slots without it index the
/// views a dispatch binds.
pub(crate) const LOCAL: u16 = 0x8000;

/// Float unary intrinsics, mirroring `eval_unop` on `Value::F64`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FUn {
    Neg,
    Sin,
    Cos,
    Exp,
    Log,
    Sqrt,
    Tanh,
    Sigmoid,
    Abs,
    Recip,
}

/// Float binary ops, mirroring `eval_binop` on `(Value::F64, Value::F64)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FBin {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Min,
    Max,
    Rem,
}

/// Float comparisons (result is a bool register).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FCmp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Bool-typed binary ops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BBin {
    And,
    Or,
    Eq,
    Neq,
}

/// Integer unary ops, mirroring `eval_unop` on `Value::I64`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IUn {
    Neg,
    Abs,
}

/// Integer binary ops, mirroring `eval_binop` on `(Value::I64, Value::I64)`
/// — plain Rust operators, so division by zero panics exactly like the VM.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IBin {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Min,
    Max,
    Rem,
}

/// Integer comparisons (result is a bool register).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ICmp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One tape op. Register operands index the `f64` or `bool` file as the op
/// dictates; constants live in dedicated registers preloaded at frame
/// setup, so the hot loop never branches on operand kind.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `f[0] <- f[1]`
    MovF(u16, u16),
    /// `b[0] <- b[1]`
    MovB(u16, u16),
    /// `f[1] <- op f[2]`
    Un(FUn, u16, u16),
    /// `f[1] <- f[2] op f[3]`
    Bin(FBin, u16, u16, u16),
    /// `b[1] <- f[2] cmp f[3]`
    Cmp(FCmp, u16, u16, u16),
    /// `b[1] <- b[2] op b[3]`
    BoolBin(BBin, u16, u16, u16),
    /// `b[0] <- !b[1]`
    Not(u16, u16),
    /// `f[0] <- b[1] ? f[2] : f[3]`
    Sel(u16, u16, u16, u16),
    /// `b[0] <- b[1] ? b[2] : b[3]`
    SelB(u16, u16, u16, u16),
    /// `i[0] <- i[1]`
    MovI(u16, u16),
    /// `i[1] <- op i[2]`
    IntUn(IUn, u16, u16),
    /// `i[1] <- i[2] op i[3]`
    IntBin(IBin, u16, u16, u16),
    /// `b[1] <- i[2] cmp i[3]`
    IntCmp(ICmp, u16, u16, u16),
    /// `i[0] <- b[1] ? i[2] : i[3]`
    SelI(u16, u16, u16, u16),
    /// `f[0] <- i[1] as f64`
    CastF(u16, u16),
    /// `i[0] <- f[1] as i64`
    CastI(u16, u16),
    /// `f[0] <- arrays[1][i[2]]` — single-index gather into a rank-1 `f64`
    /// input array; bounds-checked with the VM's exact panic conditions.
    IndexF(u16, u16, u16),
    /// `f[0] <- arrays[1][i[2]][i[3]]` — two-index gather into a rank-2
    /// `f64` input array (row-major, like `Array::offset_of`).
    Index2F(u16, u16, u16, u16),
    /// `i[0] <- arrays[1].len() as i64` (the outer dimension)
    LenA(u16, u16),
    /// `accs[0][i[1]] += f[2]` — scatter-add into a rank-1 accumulator.
    /// Side-effecting: tapes containing these run at lane width 1 so the
    /// add order is exactly the VM's per-element order.
    UpdAcc1(u16, u16, u16),
    /// `accs[0][i[1]][i[2]] += f[3]` — scatter-add into a rank-2
    /// accumulator (row-major, like `Accum::offset_of`).
    UpdAcc2(u16, u16, u16, u16),
    /// Run inner SOAC number `0` of the body ([`Tape::inner`]): its element
    /// streams are array slots of this tape, its captures and neutral
    /// elements this tape's registers, its results land in this tape's
    /// `f64` registers (folds), fresh array slots (map columns) or alias
    /// an accumulator slot. Like the three ops below it only occurs in
    /// [`Tape::serial`] tapes, which run at lane width 1.
    Inner(u16),
    /// `arrays[0] <- replicate i[1] f[2]` — a tape-local rank-1 temporary.
    Replicate(u16, u16, u16),
    /// `accs[0] += arrays[1]` — a whole-row add into a rank-1 accumulator
    /// (`Accum::add_slice` from offset 0).
    UpdAccRow(u16, u16),
    /// `accs[0][i[1]] += arrays[2]` — a whole-row add into row `i[1]` of a
    /// rank-2 accumulator.
    UpdAccRow1(u16, u16, u16),
}

/// A register of the enclosing tape an inner SOAC reads an operand from;
/// `None` for an operand the inner kernel never reads.
pub(crate) type Slot = Option<(Cls, u16)>;

/// One inner SOAC of a tape body: the kernels it dispatches (tapes
/// themselves) and where its operands and results live in the enclosing
/// tape. Element streams are array slots (accumulator arguments:
/// accumulator slots), neutral elements `f64` registers (immediates are
/// preloaded constants).
#[derive(Debug, Clone)]
pub(crate) enum InnerOp {
    Map {
        k: Arc<TapeKernel>,
        args: Vec<Slot>,
        captures: Vec<Slot>,
        /// The array slot each float result column becomes (accumulator
        /// results alias the slot they came in on at lowering time).
        dsts: Vec<u16>,
    },
    Reduce {
        k: Arc<TapeKernel>,
        neutral: Vec<u16>,
        args: Vec<Slot>,
        captures: Vec<Slot>,
        /// The `f64` register of each result.
        dsts: Vec<u16>,
    },
    Redomap {
        rk: Arc<TapeKernel>,
        mk: Arc<TapeKernel>,
        neutral: Vec<u16>,
        args: Vec<Slot>,
        red_captures: Vec<Slot>,
        map_captures: Vec<Slot>,
        dsts: Vec<u16>,
    },
}

/// Why a kernel runs on the generic bytecode path instead of as a tape.
/// Decided once per kernel by `lower_program` and reported by
/// [`Program::tape_report`](crate::Program::tape_report); the variants are
/// named after what the lowering rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// A result that is not an `f64` scalar, a rank-1 `f64` row or an
    /// `f64` accumulator: `i64`/`bool` columns, rows of rank ≥ 2 (the row
    /// result of an inner `map` included), rows of other element types.
    ResultType,
    /// `if`/`loop` in the body (jumps and their `Take` result moves).
    ControlFlow,
    /// A `scan`, `hist`, `scatter` or `withacc` in the body.
    NestedSoac,
    /// An inner `map`, `reduce` or `redomap` whose own kernel has no tape
    /// (its report entry says why).
    InnerKernel,
    /// Array construction in the body: `iota`, `reverse`, `update`,
    /// `replicate` of anything but an `f64` scalar, or a move of an array
    /// value.
    ArrayConstruction,
    /// An index with more than two indices.
    IndexRank,
    /// An `upd_acc` of a scalar with more than two indices, or of a row
    /// with more than one.
    AccumulatorShape,
    /// A register used at two classes (an `i64` where the inference had
    /// settled on `f64`, one array gathered at two ranks) or read before
    /// anything defines it.
    ClassConflict,
    /// An element parameter that is neither a scalar of a rank-1
    /// `f64`/`i64` stream nor a rank-1 `f64` row of a rank-2 one: a row
    /// gathered from at two indices (the rows of a rank ≥ 3 argument), a
    /// parameter used as a `bool`, an `i64` stream of an inner SOAC (the
    /// array slots of a tape are `f64`).
    ArrayParam,
    /// A reduce/scan operator, or the kernels of a redomap, outside what
    /// the fold executor runs: non-`f64` operands or neutral elements, a
    /// result count different from the neutral count, accumulators, rows
    /// or inner SOACs.
    OperatorShape,
    /// The other kernel of this `redomap` has no tape.
    RedomapPartner,
    /// The body of a `withacc`: it runs once, not per element.
    WithAccBody,
    /// More registers than a tape addresses (`u16`), or more element
    /// streams, gather tables or accumulators than a dispatch binds on its
    /// stack.
    TooLarge,
    /// Bytecode no compiler emits (a register or kernel index out of
    /// range, a kernel no instruction dispatches); the cache decoder
    /// rejects such programs right after assembling them.
    Malformed,
}

/// The form one kernel runs in, as [`Program::tape_report`](crate::Program::tape_report)
/// lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelForm {
    /// A monomorphic tape.
    Tape,
    /// Generic bytecode, and why.
    Generic(Fallback),
}

/// A compiled tape.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    pub ops: Vec<Op>,
    /// The inner SOACs [`Op::Inner`] refers to, in body order.
    pub inner: Vec<InnerOp>,
    /// The three scalar register files as templates: one entry per
    /// register, constants preloaded and zero elsewhere. A dispatch copies
    /// them into its scratch files; constant registers are never written,
    /// so one copy serves every element.
    pub f_init: Vec<f64>,
    pub b_init: Vec<bool>,
    pub i_init: Vec<i64>,
    /// The constant registers of each file, in register order: all of the
    /// template a dispatch writes (nothing reads any other register before
    /// writing it).
    pub f_consts: Vec<u16>,
    pub b_consts: Vec<u16>,
    pub i_consts: Vec<u16>,
    /// Per bound array slot: the rank its uses require — gathers, and the
    /// streams and captures of inner SOACs it feeds (`0` when only `Len`
    /// touches it, which accepts any rank). A parameter slot is a row, so
    /// it admits `0` and `1` only.
    pub a_ranks: Vec<u8>,
    /// How many tape-local rank-1 temporaries the executor's scratch holds
    /// for this tape (their slots are `LOCAL | 0..num_locals`).
    pub num_locals: usize,
    /// Per accumulator-table slot: the rank its scatter-adds require (`0`
    /// when the handle is only passed through to a result).
    pub c_ranks: Vec<u8>,
    /// For kernel tapes: where each kernel-frame slot (parameters, then
    /// captures) lands in the tape register file. `None` means the slot is
    /// never read by the body.
    pub inputs: Vec<Option<(Cls, u16)>>,
    /// For kernel tapes: the result registers — float outputs and rank-1
    /// rows collected per element, or accumulator handles passed through.
    pub rets: Vec<(Cls, u16)>,
    /// Number of `Un`/`Bin`/`Cmp`/`BoolBin`/`Sel` ops (region admission).
    pub compute_ops: usize,
    /// Whether the tape runs its own ops at lane width 1 only: it has
    /// inner SOACs, local temporaries, row parameters or results, or
    /// accumulators (whose adds must land in element order).
    pub serial: bool,
}

/// The forward lowering pass. `num_inputs` marks the VM register prefix
/// that may be read before being written (kernel parameters + captures; for
/// main-body regions, every register).
pub(crate) struct Lowerer<'p> {
    /// The form of every kernel lowered so far — all a body can dispatch,
    /// since the compiler emits a lambda's inner kernels before the lambda.
    forms: &'p [Form],
    /// Where each VM register currently lives in the tape.
    map: Vec<Option<(Cls, u16)>>,
    num_inputs: usize,
    /// `(vm reg, class, tape reg)` for every input actually read.
    pub inputs: Vec<(Reg, Cls, u16)>,
    /// VM registers written by the lowered code, in first-write order.
    pub writes: Vec<Reg>,
    f_init: Vec<f64>,
    b_init: Vec<bool>,
    i_init: Vec<i64>,
    a_ranks: Vec<u8>,
    num_locals: u16,
    c_ranks: Vec<u8>,
    f_const_ix: HashMap<u64, u16>,
    b_const_ix: [Option<u16>; 2],
    i_const_ix: HashMap<i64, u16>,
    ops: Vec<Op>,
    inner: Vec<InnerOp>,
    compute_ops: usize,
}

type Lower<T> = Result<T, Fallback>;

/// A kernel's tape, or why it has none.
pub(crate) type Form = Result<Arc<TapeKernel>, Fallback>;

impl<'p> Lowerer<'p> {
    pub(crate) fn new(num_regs: usize, num_inputs: usize, forms: &'p [Form]) -> Lowerer<'p> {
        Lowerer {
            forms,
            map: vec![None; num_regs],
            num_inputs,
            inputs: Vec::new(),
            writes: Vec::new(),
            f_init: Vec::new(),
            b_init: Vec::new(),
            i_init: Vec::new(),
            a_ranks: Vec::new(),
            num_locals: 0,
            c_ranks: Vec::new(),
            f_const_ix: HashMap::new(),
            b_const_ix: [None; 2],
            i_const_ix: HashMap::new(),
            ops: Vec::new(),
            inner: Vec::new(),
            compute_ops: 0,
        }
    }

    /// A fresh register of class `cls` (`rank` is what a table slot's
    /// first use requires; scalars ignore it).
    fn alloc(&mut self, cls: Cls, rank: u8) -> Lower<u16> {
        let len = match cls {
            Cls::F => {
                self.f_init.push(0.0);
                self.f_init.len()
            }
            Cls::B => {
                self.b_init.push(false);
                self.b_init.len()
            }
            Cls::I => {
                self.i_init.push(0);
                self.i_init.len()
            }
            // Bound slots stay below the `LOCAL` bit.
            Cls::A if self.a_ranks.len() == LOCAL as usize => return Err(Fallback::TooLarge),
            Cls::A => {
                self.a_ranks.push(rank);
                self.a_ranks.len()
            }
            Cls::C => {
                self.c_ranks.push(rank);
                self.c_ranks.len()
            }
        };
        u16::try_from(len - 1).map_err(|_| Fallback::TooLarge)
    }

    fn const_f(&mut self, x: f64) -> Lower<u16> {
        if let Some(&r) = self.f_const_ix.get(&x.to_bits()) {
            return Ok(r);
        }
        let r = self.alloc(Cls::F, 0)?;
        self.f_init[r as usize] = x;
        self.f_const_ix.insert(x.to_bits(), r);
        Ok(r)
    }

    fn const_b(&mut self, x: bool) -> Lower<u16> {
        if let Some(r) = self.b_const_ix[x as usize] {
            return Ok(r);
        }
        let r = self.alloc(Cls::B, 0)?;
        self.b_init[r as usize] = x;
        self.b_const_ix[x as usize] = Some(r);
        Ok(r)
    }

    fn const_i(&mut self, x: i64) -> Lower<u16> {
        if let Some(&r) = self.i_const_ix.get(&x) {
            return Ok(r);
        }
        let r = self.alloc(Cls::I, 0)?;
        self.i_init[r as usize] = x;
        self.i_const_ix.insert(x, r);
        Ok(r)
    }

    /// Current tape-side binding of a VM register.
    pub(crate) fn binding(&self, r: Reg) -> Lower<Option<(Cls, u16)>> {
        self.map.get(r as usize).copied().ok_or(Fallback::Malformed)
    }

    /// Read VM register `r` at class `cls`. A first read classifies it:
    /// inputs get an input binding, anything else is ill-formed
    /// straight-line code and rejects the tape. Accumulator handles only
    /// ever enter as inputs, arrays as inputs or as local temporaries;
    /// `rank` is the rank this use requires of the slot (`0` for a
    /// rank-agnostic use such as `Len` or a pass-through), and one slot
    /// used at two ranks — which could not type-check anyway — rejects.
    fn reg(&mut self, r: Reg, cls: Cls, rank: u8) -> Lower<u16> {
        match self.binding(r)? {
            // A local temporary is rank 1.
            Some((Cls::A, i)) if cls == Cls::A && i & LOCAL != 0 => {
                if rank <= 1 {
                    Ok(i)
                } else {
                    Err(Fallback::ClassConflict)
                }
            }
            Some((c, i)) if c == cls => {
                let known = match cls {
                    Cls::A => &mut self.a_ranks[i as usize],
                    Cls::C => &mut self.c_ranks[i as usize],
                    Cls::F | Cls::B | Cls::I => return Ok(i),
                };
                if *known == 0 {
                    *known = rank;
                }
                if rank == 0 || *known == rank {
                    Ok(i)
                } else {
                    Err(Fallback::ClassConflict)
                }
            }
            None if (r as usize) < self.num_inputs => {
                let i = self.alloc(cls, rank)?;
                self.map[r as usize] = Some((cls, i));
                self.inputs.push((r, cls, i));
                Ok(i)
            }
            _ => Err(Fallback::ClassConflict),
        }
    }

    /// Read an operand at a scalar class: a register, or an immediate of
    /// that class preloaded into a constant register.
    fn opnd(&mut self, o: &Opnd, cls: Cls) -> Lower<u16> {
        match (o, cls) {
            (Opnd::Reg(r), _) => self.reg(*r, cls, 0),
            (Opnd::F64(x), Cls::F) => self.const_f(*x),
            (Opnd::Bool(x), Cls::B) => self.const_b(*x),
            (Opnd::I64(x), Cls::I) => self.const_i(*x),
            _ => Err(Fallback::ClassConflict),
        }
    }

    /// The class an operand is already known to have (no classification).
    fn known_cls(&self, o: &Opnd) -> Lower<Option<Cls>> {
        Ok(match o {
            Opnd::Reg(r) => self.binding(*r)?.map(|(c, _)| c),
            Opnd::F64(_) => Some(Cls::F),
            Opnd::Bool(_) => Some(Cls::B),
            Opnd::I64(_) => Some(Cls::I),
        })
    }

    /// Whether either operand is already known to have class `cls` (a
    /// well-typed program then forces the other to have it too).
    fn either_is(&self, a: &Opnd, b: &Opnd, cls: Cls) -> Lower<bool> {
        Ok(self.known_cls(a)? == Some(cls) || self.known_cls(b)? == Some(cls))
    }

    /// Bind VM register `r` as written by the lowered code.
    fn bind(&mut self, r: Reg, cls: Cls, i: u16) -> Lower<()> {
        *self.map.get_mut(r as usize).ok_or(Fallback::Malformed)? = Some((cls, i));
        if !self.writes.contains(&r) {
            self.writes.push(r);
        }
        Ok(())
    }

    /// Define VM register `r` at a scalar class, reusing its tape register
    /// when the class is unchanged (straight-line code, so overwriting is
    /// safe).
    fn def(&mut self, r: Reg, cls: Cls) -> Lower<u16> {
        let i = match self.binding(r)? {
            Some((c, i)) if c == cls => i,
            _ => self.alloc(cls, 0)?,
        };
        self.bind(r, cls, i)?;
        Ok(i)
    }

    fn push_compute(&mut self, op: Op) {
        self.ops.push(op);
        self.compute_ops += 1;
    }

    /// Bind VM register `r` to a fresh tape-local rank-1 array slot.
    fn def_local(&mut self, r: Reg) -> Lower<u16> {
        if self.num_locals == LOCAL {
            return Err(Fallback::TooLarge);
        }
        let a = LOCAL | self.num_locals;
        self.num_locals += 1;
        self.bind(r, Cls::A, a)?;
        Ok(a)
    }

    /// The tape of kernel `k`, dispatched by an inner SOAC of this body.
    fn inner_kernel(&self, k: usize) -> Lower<Arc<TapeKernel>> {
        match self.forms.get(k) {
            Some(Ok(t)) => Ok(Arc::clone(t)),
            Some(Err(_)) => Err(Fallback::InnerKernel),
            None => Err(Fallback::Malformed),
        }
    }

    /// The element streams of an inner `map`/`redomap` over kernel `k`,
    /// as slots of this tape: a scalar parameter streams a rank-1 array
    /// slot, a row parameter the rows of a rank-2 one, an accumulator
    /// parameter takes the handle.
    fn inner_streams(&mut self, k: &TapeKernel, args: &[Reg]) -> Lower<Vec<Slot>> {
        let mut slots = Vec::with_capacity(args.len());
        for (param, r) in k.tape.inputs.iter().zip(args) {
            slots.push(Some(match *param {
                Some((Cls::C, c)) => (Cls::C, self.reg(*r, Cls::C, k.tape.c_ranks[c as usize])?),
                Some((Cls::F, _)) => (Cls::A, self.reg(*r, Cls::A, 1)?),
                Some((Cls::A, _)) => (Cls::A, self.reg(*r, Cls::A, 2)?),
                Some((Cls::I | Cls::B, _)) => return Err(Fallback::ArrayParam),
                // Never read, but an array stream still gives the extent.
                None => match self.binding(*r)? {
                    Some(acc @ (Cls::C, _)) => acc,
                    _ => (Cls::A, self.reg(*r, Cls::A, 0)?),
                },
            }));
        }
        Ok(slots)
    }

    /// The `f64` streams of an inner `reduce`.
    fn inner_f64_streams(&mut self, args: &[Reg]) -> Lower<Vec<Slot>> {
        let slot = |r: &Reg| Ok(Some((Cls::A, self.reg(*r, Cls::A, 1)?)));
        args.iter().map(slot).collect()
    }

    /// The captures of inner kernel `k` as registers of this tape, each at
    /// the class (and, for arrays and accumulators, rank) `k` inferred.
    fn inner_captures(&mut self, k: &TapeKernel, captures: &[Reg]) -> Lower<Vec<Slot>> {
        let wanted = &k.tape.inputs[k.num_params..];
        if wanted.len() != captures.len() {
            return Err(Fallback::Malformed);
        }
        let mut slots = Vec::with_capacity(captures.len());
        for (want, r) in wanted.iter().zip(captures) {
            slots.push(match *want {
                None => None,
                Some((cls, i)) => {
                    let rank = match cls {
                        Cls::A => k.tape.a_ranks[i as usize],
                        Cls::C => k.tape.c_ranks[i as usize],
                        Cls::F | Cls::B | Cls::I => 0,
                    };
                    Some((cls, self.reg(*r, cls, rank)?))
                }
            });
        }
        Ok(slots)
    }

    fn inner_neutral(&mut self, neutral: &[Opnd]) -> Lower<Vec<u16>> {
        neutral.iter().map(|o| self.opnd(o, Cls::F)).collect()
    }

    fn inner_fold_dsts(&mut self, dsts: &[Reg]) -> Lower<Vec<u16>> {
        dsts.iter().map(|d| self.def(*d, Cls::F)).collect()
    }

    fn push_inner(&mut self, op: InnerOp) -> Lower<()> {
        let j = u16::try_from(self.inner.len()).map_err(|_| Fallback::TooLarge)?;
        self.inner.push(op);
        self.ops.push(Op::Inner(j));
        Ok(())
    }

    /// Lower one instruction, or say why the tape is rejected.
    pub(crate) fn lower_instr(&mut self, instr: &Instr) -> Lower<()> {
        use Cls::{A, B, C, F, I};
        match instr {
            Instr::Mov { dst, src } => match (src, self.known_cls(src)?) {
                // Aliasing an input array would need array-typed defs.
                (_, Some(A)) => return Err(Fallback::ArrayConstruction),
                // An accumulator `Mov` aliases the shared handle (the VM
                // clones the `Arc`) — pure re-binding, no op emitted.
                (Opnd::Reg(r), Some(C)) => {
                    let c = self.reg(*r, C, 0)?;
                    self.bind(*dst, C, c)?;
                }
                (_, cls) => {
                    let cls = cls.unwrap_or(F);
                    let s = self.opnd(src, cls)?;
                    let d = self.def(*dst, cls)?;
                    self.ops.push(match cls {
                        B => Op::MovB(d, s),
                        I => Op::MovI(d, s),
                        _ => Op::MovF(d, s),
                    });
                }
            },
            Instr::Un { op, dst, a } => {
                let known = self.known_cls(a)?;
                match op {
                    UnOp::Not => {
                        let s = self.opnd(a, B)?;
                        let d = self.def(*dst, B)?;
                        self.push_compute(Op::Not(d, s));
                    }
                    // `(ToF64, F64 x) -> F64(x)` is the identity; an unknown
                    // operand classifies as i64 — the conversion's only
                    // non-trivial source type.
                    UnOp::ToF64 if known == Some(F) => {
                        let s = self.opnd(a, F)?;
                        let d = self.def(*dst, F)?;
                        self.ops.push(Op::MovF(d, s));
                    }
                    UnOp::ToF64 => {
                        let s = self.opnd(a, I)?;
                        let d = self.def(*dst, F)?;
                        self.push_compute(Op::CastF(d, s));
                    }
                    // Dually, `(ToI64, I64 x)` is the identity and an
                    // unknown operand classifies as f64.
                    UnOp::ToI64 if known == Some(I) => {
                        let s = self.opnd(a, I)?;
                        let d = self.def(*dst, I)?;
                        self.ops.push(Op::MovI(d, s));
                    }
                    UnOp::ToI64 => {
                        let s = self.opnd(a, F)?;
                        let d = self.def(*dst, I)?;
                        self.push_compute(Op::CastI(d, s));
                    }
                    _ if known == Some(I) => {
                        let iu = match op {
                            UnOp::Neg => IUn::Neg,
                            UnOp::Abs => IUn::Abs,
                            _ => return Err(Fallback::ClassConflict),
                        };
                        let s = self.opnd(a, I)?;
                        let d = self.def(*dst, I)?;
                        self.push_compute(Op::IntUn(iu, d, s));
                    }
                    _ => {
                        let fun = match op {
                            UnOp::Neg => FUn::Neg,
                            UnOp::Sin => FUn::Sin,
                            UnOp::Cos => FUn::Cos,
                            UnOp::Exp => FUn::Exp,
                            UnOp::Log => FUn::Log,
                            UnOp::Sqrt => FUn::Sqrt,
                            UnOp::Tanh => FUn::Tanh,
                            UnOp::Sigmoid => FUn::Sigmoid,
                            UnOp::Abs => FUn::Abs,
                            UnOp::Recip => FUn::Recip,
                            UnOp::Not | UnOp::ToF64 | UnOp::ToI64 => {
                                unreachable!("handled above")
                            }
                        };
                        let s = self.opnd(a, F)?;
                        let d = self.def(*dst, F)?;
                        self.push_compute(Op::Un(fun, d, s));
                    }
                }
            }
            Instr::Bin { op, dst, a, b } => {
                // The operand class: `i64` or `bool` when either operand is
                // already known to be, `f64` otherwise. `and`/`or` are
                // bool-only; `==`/`!=` are overloaded over all three.
                let cls = if matches!(op, BinOp::And | BinOp::Or) {
                    B
                } else if self.either_is(a, b, I)? {
                    I
                } else if matches!(op, BinOp::Eq | BinOp::Neq) && self.either_is(a, b, B)? {
                    B
                } else {
                    F
                };
                let x = self.opnd(a, cls)?;
                let y = self.opnd(b, cls)?;
                let predicate = matches!(
                    op,
                    BinOp::Eq
                        | BinOp::Neq
                        | BinOp::Lt
                        | BinOp::Le
                        | BinOp::Gt
                        | BinOp::Ge
                        | BinOp::And
                        | BinOp::Or
                );
                let d = self.def(*dst, if predicate { B } else { cls })?;
                self.push_compute(match (cls, op) {
                    (B, BinOp::And) => Op::BoolBin(BBin::And, d, x, y),
                    (B, BinOp::Or) => Op::BoolBin(BBin::Or, d, x, y),
                    (B, BinOp::Eq) => Op::BoolBin(BBin::Eq, d, x, y),
                    (B, _) => Op::BoolBin(BBin::Neq, d, x, y),
                    (I, BinOp::Eq) => Op::IntCmp(ICmp::Eq, d, x, y),
                    (I, BinOp::Neq) => Op::IntCmp(ICmp::Neq, d, x, y),
                    (I, BinOp::Lt) => Op::IntCmp(ICmp::Lt, d, x, y),
                    (I, BinOp::Le) => Op::IntCmp(ICmp::Le, d, x, y),
                    (I, BinOp::Gt) => Op::IntCmp(ICmp::Gt, d, x, y),
                    (I, BinOp::Ge) => Op::IntCmp(ICmp::Ge, d, x, y),
                    (I, BinOp::Add) => Op::IntBin(IBin::Add, d, x, y),
                    (I, BinOp::Sub) => Op::IntBin(IBin::Sub, d, x, y),
                    (I, BinOp::Mul) => Op::IntBin(IBin::Mul, d, x, y),
                    (I, BinOp::Div) => Op::IntBin(IBin::Div, d, x, y),
                    (I, BinOp::Pow) => Op::IntBin(IBin::Pow, d, x, y),
                    (I, BinOp::Min) => Op::IntBin(IBin::Min, d, x, y),
                    (I, BinOp::Max) => Op::IntBin(IBin::Max, d, x, y),
                    (I, BinOp::Rem) => Op::IntBin(IBin::Rem, d, x, y),
                    (_, BinOp::Eq) => Op::Cmp(FCmp::Eq, d, x, y),
                    (_, BinOp::Neq) => Op::Cmp(FCmp::Neq, d, x, y),
                    (_, BinOp::Lt) => Op::Cmp(FCmp::Lt, d, x, y),
                    (_, BinOp::Le) => Op::Cmp(FCmp::Le, d, x, y),
                    (_, BinOp::Gt) => Op::Cmp(FCmp::Gt, d, x, y),
                    (_, BinOp::Ge) => Op::Cmp(FCmp::Ge, d, x, y),
                    (_, BinOp::Add) => Op::Bin(FBin::Add, d, x, y),
                    (_, BinOp::Sub) => Op::Bin(FBin::Sub, d, x, y),
                    (_, BinOp::Mul) => Op::Bin(FBin::Mul, d, x, y),
                    (_, BinOp::Div) => Op::Bin(FBin::Div, d, x, y),
                    (_, BinOp::Pow) => Op::Bin(FBin::Pow, d, x, y),
                    (_, BinOp::Min) => Op::Bin(FBin::Min, d, x, y),
                    (_, BinOp::Max) => Op::Bin(FBin::Max, d, x, y),
                    (_, BinOp::Rem) => Op::Bin(FBin::Rem, d, x, y),
                    (_, BinOp::And | BinOp::Or) => unreachable!("bool-classified above"),
                });
            }
            Instr::Select { dst, cond, t, f } => {
                let c = self.opnd(cond, B)?;
                let cls = if self.either_is(t, f, B)? {
                    B
                } else if self.either_is(t, f, I)? {
                    I
                } else {
                    F
                };
                let tv = self.opnd(t, cls)?;
                let fv = self.opnd(f, cls)?;
                let d = self.def(*dst, cls)?;
                self.push_compute(match cls {
                    B => Op::SelB(d, c, tv, fv),
                    I => Op::SelI(d, c, tv, fv),
                    _ => Op::Sel(d, c, tv, fv),
                });
            }
            // Scalar gathers into f64 input arrays — the access pattern vjp
            // transposition produces for every array read: `a[i]` on rank-1
            // cotangents and `w[i][j]` on rank-2 weight matrices.
            Instr::Index { dst, arr, idx } => match &idx[..] {
                [i] => {
                    let a = self.reg(*arr, A, 1)?;
                    let i = self.opnd(i, I)?;
                    let d = self.def(*dst, F)?;
                    self.push_compute(Op::IndexF(d, a, i));
                }
                [i0, i1] => {
                    let a = self.reg(*arr, A, 2)?;
                    let i0 = self.opnd(i0, I)?;
                    let i1 = self.opnd(i1, I)?;
                    let d = self.def(*dst, F)?;
                    self.push_compute(Op::Index2F(d, a, i0, i1));
                }
                _ => return Err(Fallback::IndexRank),
            },
            Instr::Len { dst, arr } => {
                let a = self.reg(*arr, A, 0)?;
                let d = self.def(*dst, I)?;
                self.ops.push(Op::LenA(d, a));
            }
            // A whole-row add — `val` is an array slot (a row, a temporary):
            // one `Accum::add_slice`, like the generic `UpdAcc` with an
            // array value.
            Instr::UpdAcc { dst, acc, idx, val } if self.known_cls(val)? == Some(A) => {
                let Opnd::Reg(row) = val else {
                    return Err(Fallback::Malformed);
                };
                let a = self.reg(*row, A, 1)?;
                let c = match &idx[..] {
                    [] => {
                        let c = self.reg(*acc, C, 1)?;
                        self.ops.push(Op::UpdAccRow(c, a));
                        c
                    }
                    [i] => {
                        let c = self.reg(*acc, C, 2)?;
                        let i = self.opnd(i, I)?;
                        self.ops.push(Op::UpdAccRow1(c, i, a));
                        c
                    }
                    _ => return Err(Fallback::AccumulatorShape),
                };
                self.bind(*dst, C, c)?;
            }
            // Scatter-adds into shared accumulators — the write half of vjp
            // transposition (`dst[i] += v`, `w[i][j] += v`). The executor
            // adds through the same helper as the generic `UpdAcc`, so the
            // negative-index panic, the silent out-of-bounds skip and the
            // zero-skipping add (CAS or plain, by strand) all match it bit
            // for bit; lane width is pinned to 1 for tapes containing these
            // (see `exec::map`) so adds land in per-element order. The
            // updated handle is the same shared handle: `dst` re-binds as an
            // alias of the slot.
            Instr::UpdAcc { dst, acc, idx, val } => {
                let v = self.opnd(val, F)?;
                let c = match &idx[..] {
                    [i] => {
                        let c = self.reg(*acc, C, 1)?;
                        let i = self.opnd(i, I)?;
                        self.push_compute(Op::UpdAcc1(c, i, v));
                        c
                    }
                    [i0, i1] => {
                        let c = self.reg(*acc, C, 2)?;
                        let i0 = self.opnd(i0, I)?;
                        let i1 = self.opnd(i1, I)?;
                        self.push_compute(Op::UpdAcc2(c, i0, i1, v));
                        c
                    }
                    _ => return Err(Fallback::AccumulatorShape),
                };
                self.bind(*dst, C, c)?;
            }
            Instr::Jmp { .. } | Instr::JmpIfNot { .. } | Instr::Take { .. } => {
                return Err(Fallback::ControlFlow)
            }
            // `replicate n x` of an `f64` scalar: a local temporary.
            Instr::Replicate { dst, n, val } => {
                if !matches!(self.known_cls(val)?, None | Some(F)) {
                    return Err(Fallback::ArrayConstruction);
                }
                let v = self.opnd(val, F)?;
                let n = self.opnd(n, I)?;
                let a = self.def_local(*dst)?;
                self.ops.push(Op::Replicate(a, n, v));
            }
            Instr::Update { .. } | Instr::Iota { .. } | Instr::Reverse { .. } => {
                return Err(Fallback::ArrayConstruction)
            }
            // Inner SOACs over kernels that are tapes themselves. Every
            // operand is resolved to a register of this tape at the class
            // the inner tape inferred, so an inner dispatch has nothing left
            // to check but stream extents.
            Instr::Map {
                kernel,
                dsts,
                args,
                captures,
            } => {
                let k = self.inner_kernel(*kernel)?;
                let args = self.inner_streams(&k, args)?;
                let captures = self.inner_captures(&k, captures)?;
                if dsts.len() != k.tape.rets.len() {
                    return Err(Fallback::Malformed);
                }
                let mut cols = Vec::with_capacity(k.cols.len());
                for ((dst, ret), acc) in dsts.iter().zip(&k.tape.rets).zip(&k.acc_rets) {
                    match (ret.0, acc) {
                        (F, _) => cols.push(self.def_local(*dst)?),
                        // The handle that came in is the handle that
                        // comes out: `dst` aliases its slot.
                        (C, Some(slot)) => match args.iter().chain(&captures).nth(*slot) {
                            Some(Some((C, c))) => self.bind(*dst, C, *c)?,
                            _ => return Err(Fallback::Malformed),
                        },
                        // A row column would be a rank-2 temporary.
                        _ => return Err(Fallback::ResultType),
                    }
                }
                self.push_inner(InnerOp::Map {
                    k,
                    args,
                    captures,
                    dsts: cols,
                })?;
            }
            Instr::Reduce {
                kernel,
                dsts,
                neutral,
                args,
                captures,
            } => {
                let k = self.inner_kernel(*kernel)?;
                let op = InnerOp::Reduce {
                    neutral: self.inner_neutral(neutral)?,
                    args: self.inner_f64_streams(args)?,
                    captures: self.inner_captures(&k, captures)?,
                    dsts: self.inner_fold_dsts(dsts)?,
                    k,
                };
                self.push_inner(op)?;
            }
            Instr::Redomap {
                red_kernel,
                map_kernel,
                dsts,
                neutral,
                args,
                red_captures,
                map_captures,
            } => {
                let rk = self.inner_kernel(*red_kernel)?;
                let mk = self.inner_kernel(*map_kernel)?;
                let op = InnerOp::Redomap {
                    neutral: self.inner_neutral(neutral)?,
                    args: self.inner_streams(&mk, args)?,
                    red_captures: self.inner_captures(&rk, red_captures)?,
                    map_captures: self.inner_captures(&mk, map_captures)?,
                    dsts: self.inner_fold_dsts(dsts)?,
                    rk,
                    mk,
                };
                self.push_inner(op)?;
            }
            Instr::Scan { .. }
            | Instr::Hist { .. }
            | Instr::Scatter { .. }
            | Instr::WithAcc { .. } => return Err(Fallback::NestedSoac),
        }
        Ok(())
    }

    /// Resolve a kernel result operand of declared type `ty`: a float
    /// register or a rank-1 array slot (collected per element), or an
    /// accumulator slot (handle passed through).
    fn ret_slot(&mut self, o: &Opnd, ty: &Type) -> Lower<(Cls, u16)> {
        match (ty, o) {
            (Type::Acc { .. }, Opnd::Reg(r)) => Ok((Cls::C, self.reg(*r, Cls::C, 0)?)),
            (Type::Array { .. }, Opnd::Reg(r)) => Ok((Cls::A, self.reg(*r, Cls::A, 1)?)),
            (Type::Scalar(_), _) => Ok((Cls::F, self.opnd(o, Cls::F)?)),
            _ => Err(Fallback::Malformed),
        }
    }

    /// Finish into a tape whose `inputs` are indexed by kernel frame slot
    /// (`num_inputs` of them; regions pass `0` and track their inputs and
    /// outputs through [`Lowerer::inputs`]/[`Lowerer::writes`] instead).
    pub(crate) fn finish(self, num_inputs: usize, rets: Vec<(Cls, u16)>) -> Tape {
        let mut inputs = vec![None; num_inputs];
        for (r, cls, i) in &self.inputs {
            if let Some(slot) = inputs.get_mut(*r as usize) {
                *slot = Some((*cls, *i));
            }
        }
        fn sorted(regs: impl Iterator<Item = u16>) -> Vec<u16> {
            let mut regs: Vec<u16> = regs.collect();
            regs.sort_unstable();
            regs
        }
        Tape {
            ops: self.ops,
            inner: self.inner,
            f_consts: sorted(self.f_const_ix.into_values()),
            b_consts: sorted(self.b_const_ix.into_iter().flatten()),
            i_consts: sorted(self.i_const_ix.into_values()),
            f_init: self.f_init,
            b_init: self.b_init,
            i_init: self.i_init,
            a_ranks: self.a_ranks,
            num_locals: self.num_locals as usize,
            c_ranks: self.c_ranks,
            inputs,
            rets,
            compute_ops: self.compute_ops,
            serial: false,
        }
    }
}

/// How many element streams, array views and accumulators one dispatch
/// binds (on its stack, so that binding allocates nothing; local
/// temporaries live in the scratch and do not count). The ten workloads
/// and their vjps peak at 5, 3 and 2; a kernel past a bound falls back with
/// [`Fallback::TooLarge`].
pub(crate) const MAX_STREAMS: usize = 8;
pub(crate) const MAX_TABLES: usize = 8;
pub(crate) const MAX_ACCS: usize = 8;

/// One collected result column of a kernel: a float register, or an array
/// slot holding a rank-1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Col {
    F(u16),
    Row(u16),
}

/// A fold operator that is exactly `acc op x` (or `x op acc`) on `f64`:
/// folded by a native loop instead of one tape run per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NativeFold {
    pub op: FBin,
    /// The operator reads the element first: `x op acc`.
    pub swapped: bool,
}

/// A kernel lowered to a tape. The shape-class contract checked at each
/// dispatch from a frame is what the bytecode does not record: element
/// streams whose rank and element type match each parameter slot's
/// inferred class (rank-1 `f64`/`i64` for scalars, rank-2 `f64` for rows),
/// and capture values matching theirs — scalars broadcast, `f64` arrays of
/// the required rank borrowed whole. A dispatch from inside another tape
/// had all of this settled when that tape was lowered.
#[derive(Debug, Clone)]
pub(crate) struct TapeKernel {
    pub tape: Tape,
    pub num_params: usize,
    /// The float and row results, in result order.
    pub cols: Vec<Col>,
    /// Per result column: `None` for a float or row column, `Some(slot)`
    /// for an accumulator passed through, `slot` being the kernel-frame
    /// slot (parameter, then capture) its handle came in on.
    pub acc_rets: Vec<Option<usize>>,
    /// Set when the tape is one float binary op over its two parameters.
    pub native: Option<NativeFold>,
}

impl TapeKernel {
    /// Whether kernel-frame slots `lo..hi` are all float-classified or
    /// dead, so flat `f64` values can feed them.
    fn slots_are_f64(&self, lo: usize, hi: usize) -> bool {
        (lo..hi).all(|p| matches!(self.tape.inputs.get(p), Some(None | Some((Cls::F, _)))))
    }

    /// The static half of the `map` contract: every element parameter is
    /// an `f64`/`i64` scalar, a rank-1 `f64` row, an accumulator, or dead.
    fn check_map(&self, num_args: usize) -> Lower<()> {
        if num_args != self.num_params {
            return Err(Fallback::Malformed);
        }
        let bad = |s: &Option<(Cls, u16)>| match *s {
            Some((Cls::B, _)) => true,
            Some((Cls::A, a)) => self.tape.a_ranks[a as usize] > 1,
            _ => false,
        };
        if self.tape.inputs[..self.num_params].iter().any(bad) {
            return Err(Fallback::ArrayParam);
        }
        Ok(())
    }

    /// The map side of a `redomap`: a `map` whose results are all float
    /// scalars (they are the fold's elements) and that threads no
    /// accumulator.
    fn check_redomap_map(&self, num_args: usize) -> Lower<()> {
        self.check_map(num_args)?;
        if !self.tape.c_ranks.is_empty() || self.cols.iter().any(|c| matches!(c, Col::Row(_))) {
            return Err(Fallback::OperatorShape);
        }
        Ok(())
    }

    /// The static half of the fold contract (`reduce`, `scan`, the reduce
    /// side of a `redomap`): `width` float accumulators and `num_elems`
    /// float elements in, `width` floats out, straight-line scalar code.
    fn check_fold(&self, neutral: &[Opnd], num_elems: usize) -> Lower<()> {
        let width = neutral.len();
        if self.num_params != width + num_elems {
            return Err(Fallback::Malformed);
        }
        if self.tape.rets.len() != width
            || self.tape.serial
            || !self.slots_are_f64(0, self.num_params)
            || neutral
                .iter()
                .any(|o| matches!(o, Opnd::I64(_) | Opnd::Bool(_)))
        {
            return Err(Fallback::OperatorShape);
        }
        Ok(())
    }
}

/// Whether `tape` is exactly one float binary op over its two parameters
/// (no captures), and in which operand order.
fn native_fold(tape: &Tape, num_params: usize) -> Option<NativeFold> {
    let [Op::Bin(op, d, x, y)] = tape.ops[..] else {
        return None;
    };
    let [Some((Cls::F, p0)), Some((Cls::F, p1))] = tape.inputs[..] else {
        return None;
    };
    if num_params != 2 || tape.rets[..] != [(Cls::F, d)] {
        return None;
    }
    match (x, y) {
        _ if (x, y) == (p0, p1) => Some(NativeFold { op, swapped: false }),
        _ if (x, y) == (p1, p0) => Some(NativeFold { op, swapped: true }),
        _ => None,
    }
}

/// Lower a SOAC kernel body, or say which part of it is outside the tape
/// fragment. `forms` holds the kernels lowered before it.
fn lower_kernel(k: &Kernel, forms: &[Form]) -> Lower<TapeKernel> {
    // Results must be scalar f64 or rank-1 f64 rows (flat output buffers)
    // or f64 accumulators (the shared handle is passed through, never
    // materialized per element).
    if !k.ret.iter().all(|t| {
        matches!(
            t,
            Type::Scalar(ScalarType::F64)
                | Type::Array {
                    elem: ScalarType::F64,
                    rank: 1
                }
                | Type::Acc {
                    elem: ScalarType::F64,
                    ..
                }
        )
    }) {
        return Err(Fallback::ResultType);
    }
    let num_inputs = k.num_params + k.num_captures;
    if num_inputs > k.code.num_regs || k.code.ret.len() != k.ret.len() {
        return Err(Fallback::Malformed);
    }
    let mut lo = Lowerer::new(k.code.num_regs, num_inputs, forms);
    for instr in &k.code.instrs {
        lo.lower_instr(instr)?;
    }
    let rets = k
        .code
        .ret
        .iter()
        .zip(&k.ret)
        .map(|(o, ty)| lo.ret_slot(o, ty))
        .collect::<Lower<Vec<(Cls, u16)>>>()?;
    let mut tape = lo.finish(num_inputs, rets);
    if k.num_params > MAX_STREAMS
        || tape.a_ranks.len() > MAX_TABLES
        || tape.c_ranks.len() > MAX_ACCS
    {
        return Err(Fallback::TooLarge);
    }
    let is_array = |s: &Option<(Cls, u16)>| matches!(s, Some((Cls::A, _)));
    tape.serial = !tape.inner.is_empty()
        || !tape.c_ranks.is_empty()
        || tape.num_locals > 0
        || tape.inputs[..k.num_params].iter().any(is_array)
        || tape.rets.iter().any(|r| r.0 == Cls::A);
    let cols = tape
        .rets
        .iter()
        .filter_map(|&(c, r)| match c {
            Cls::F => Some(Col::F(r)),
            Cls::A => Some(Col::Row(r)),
            _ => None,
        })
        .collect();
    let acc_rets = tape
        .rets
        .iter()
        .map(|&ret| match ret {
            // Handles only enter as inputs, so the slot has exactly one.
            (Cls::C, _) => tape.inputs.iter().position(|&s| s == Some(ret)),
            _ => None,
        })
        .collect();
    Ok(TapeKernel {
        native: native_fold(&tape, k.num_params),
        tape,
        num_params: k.num_params,
        cols,
        acc_rets,
    })
}

/// Lower one straight-line run of main-body instructions; used by the
/// region scanner.
pub(crate) fn lower_straight_line(
    code: &CodeObject,
    lo_pc: usize,
    hi_pc: usize,
) -> Lower<Lowerer<'static>> {
    let mut lo = Lowerer::new(code.num_regs, code.num_regs, &[]);
    for instr in &code.instrs[lo_pc..hi_pc] {
        lo.lower_instr(instr)?;
    }
    Ok(lo)
}

/// Everything [`lower_program`] derives from a program's bytecode. None of
/// it is serialized: the cache decoder re-derives it, like the `profile`
/// kernel labels.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lowered {
    /// Per kernel: its tape, or why it runs as generic bytecode.
    pub kernels: Vec<Form>,
    /// Per kernel and result column: the kernel-frame slot (parameter,
    /// then capture) an accumulator result is threaded from; `None` for
    /// other columns. What a `map` of extent zero returns for the column.
    pub acc_inputs: Vec<Vec<Option<usize>>>,
    /// Compiled straight-line scalar regions of the main body.
    pub regions: Vec<Region>,
    /// `starts[pc]` is `region + 1` where a region begins, `0` elsewhere.
    pub region_starts: Vec<u32>,
}

/// Hold every SOAC instruction of `code` against the kernels it dispatches
/// (the static half of the shape contract): a kernel whose tape the
/// dispatching instruction cannot run loses it, the first reason found
/// staying. Kernels `code` cannot refer to yet (`forms` is shorter) are
/// left alone.
fn assign_roles(
    code: &CodeObject,
    kernels: &[Kernel],
    forms: &mut [Form],
    dispatched: &mut [bool],
) {
    let mut role = |forms: &mut [Form], k: usize, check: &dyn Fn(&TapeKernel) -> Lower<()>| {
        if let Some(form) = forms.get_mut(k) {
            dispatched[k] = true;
            if let Err(why) = form.as_deref().map_err(|e| *e).and_then(check) {
                *form = Err(why);
            }
        }
    };
    for instr in &code.instrs {
        match instr {
            Instr::Map { kernel, args, .. } => role(forms, *kernel, &|t| t.check_map(args.len())),
            Instr::Reduce {
                kernel,
                neutral,
                args,
                ..
            }
            | Instr::Scan {
                kernel,
                neutral,
                args,
                ..
            } => role(forms, *kernel, &|t| t.check_fold(neutral, args.len())),
            Instr::Redomap {
                red_kernel,
                map_kernel,
                neutral,
                args,
                ..
            } => {
                role(forms, *map_kernel, &|t| t.check_redomap_map(args.len()));
                let elems = kernels.get(*map_kernel).map_or(0, |k| k.code.ret.len());
                role(forms, *red_kernel, &|t| t.check_fold(neutral, elems));
                // A redomap runs both kernels as tapes or neither.
                let pair = [*red_kernel, *map_kernel];
                if !pair.iter().all(|k| matches!(forms.get(*k), Some(Ok(_)))) {
                    for k in pair {
                        if let Some(form @ Ok(_)) = forms.get_mut(k) {
                            *form = Err(Fallback::RedomapPartner);
                        }
                    }
                }
            }
            Instr::WithAcc { kernel, .. } => role(forms, *kernel, &|_| Err(Fallback::WithAccBody)),
            _ => {}
        }
    }
}

/// Lower every kernel and every main-body region of a program — the one
/// place tapes are built, called by `compile` and `Program::assemble`.
/// A kernel gets a tape when its body fits the fragment *and* the SOAC
/// instruction dispatching it can run one (the static half of the shape
/// contract); otherwise it gets the reason, also emitted as a `compile`
/// trace instant. Kernels are lowered in index order — the compiler emits
/// a lambda's inner kernels before the lambda itself — and a body's SOAC
/// instructions are held against the kernels they dispatch before the body
/// is lowered, so an inner SOAC sees the final form of its kernels.
pub(crate) fn lower_program(main: &CodeObject, kernels: &[Kernel]) -> Lowered {
    let mut forms: Vec<Form> = Vec::with_capacity(kernels.len());
    let mut dispatched = vec![false; kernels.len()];
    for k in kernels {
        assign_roles(&k.code, kernels, &mut forms, &mut dispatched);
        let form = lower_kernel(k, &forms).map(Arc::new);
        forms.push(form);
    }
    assign_roles(main, kernels, &mut forms, &mut dispatched);
    for (form, seen) in forms.iter_mut().zip(dispatched) {
        if !seen {
            *form = Err(Fallback::Malformed);
        }
    }
    if fir_trace::enabled() {
        for why in forms.iter().filter_map(|f| f.as_ref().err()) {
            let name = fir_trace::intern(&format!("generic-kernel:{why:?}"));
            fir_trace::instant("compile", name);
        }
    }
    let mut acc_inputs: Vec<Vec<Option<usize>>> = Vec::with_capacity(kernels.len());
    for k in kernels {
        let cols = acc_result_inputs(k, kernels, &acc_inputs);
        acc_inputs.push(cols);
    }
    let (region_starts, regions) = lower_regions(main);
    Lowered {
        kernels: forms,
        acc_inputs,
        regions,
        region_starts,
    }
}

/// For each accumulator-typed result of `k`, the kernel-frame slot its
/// handle entered on: one forward walk following the handle through
/// `upd_acc`, moves (`if`/`loop` results) and the accumulator results of
/// inner `map`s. `inner` holds the answers for the kernels before `k` —
/// the compiler emits a lambda's inner kernels before the lambda itself.
fn acc_result_inputs(
    k: &Kernel,
    kernels: &[Kernel],
    inner: &[Vec<Option<usize>>],
) -> Vec<Option<usize>> {
    if !k.ret.iter().any(Type::is_acc) {
        return vec![None; k.ret.len()];
    }
    let num_inputs = k.num_params + k.num_captures;
    // The input slot each register's handle came from; only ever followed
    // from accumulator-typed values, so seeding every input is harmless.
    let mut origin: Vec<Option<usize>> = (0..k.code.num_regs)
        .map(|r| (r < num_inputs).then_some(r))
        .collect();
    let at = |origin: &[Option<usize>], r: Reg| origin.get(r as usize).copied().flatten();
    for instr in &k.code.instrs {
        let (dst, from) = match instr {
            Instr::Mov {
                dst,
                src: Opnd::Reg(src),
            }
            | Instr::Take { dst, src }
            | Instr::UpdAcc { dst, acc: src, .. } => (*dst, at(&origin, *src)),
            Instr::Map {
                kernel,
                dsts,
                args,
                captures,
            } => {
                for (j, dst) in dsts.iter().enumerate() {
                    let is_acc = kernels
                        .get(*kernel)
                        .and_then(|ik| ik.ret.get(j))
                        .is_some_and(Type::is_acc);
                    if !is_acc {
                        continue;
                    }
                    let from = inner
                        .get(*kernel)
                        .and_then(|cols| cols.get(j).copied().flatten())
                        .and_then(|slot| args.iter().chain(captures.iter()).nth(slot))
                        .and_then(|r| at(&origin, *r));
                    if let Some(o) = origin.get_mut(*dst as usize) {
                        *o = from;
                    }
                }
                continue;
            }
            _ => continue,
        };
        if let Some(o) = origin.get_mut(dst as usize) {
            *o = from;
        }
    }
    k.ret
        .iter()
        .zip(&k.code.ret)
        .map(|(ty, o)| match o {
            Opnd::Reg(r) if ty.is_acc() => at(&origin, *r),
            _ => None,
        })
        .collect()
}
