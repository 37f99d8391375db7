//! Lowering kernel bytecode to monomorphic scalar tapes.
//!
//! A [`Tape`] is the VM's kernel form: a flat sequence of register ops
//! over three monomorphic register files (`f64`, `bool` and `i64`) plus
//! tables of borrowed `f64` input arrays and shared accumulator handles —
//! no `Value` boxing, no enum-typed registers, no `Drop` glue on writes.
//! [`lower_program`] runs once per [`Program`](crate::Program), from
//! `compile` and from `Program::assemble`, and decides for every kernel
//! whether it runs as a tape or on the generic bytecode path — with a
//! [`Fallback`] reason recorded for the latter. Lowering is a single
//! forward pass over straight-line bytecode that infers each register's
//! class from how it is used; anything outside the supported fragment
//! (jumps, array *construction*, nested SOACs, indexing past rank 2)
//! rejects the kernel, per kernel, not all-or-nothing. Arrays enter a tape
//! only as inputs (parameters or captures) and are read through gathers
//! ([`Op::IndexF`], [`Op::Index2F`]) and [`Op::LenA`]; this covers the
//! `a[i]` access pattern AD transposition produces in abundance.
//!
//! Every op reproduces `interp::eval`'s `f64`/`bool`/`i64` semantics
//! exactly (same intrinsics, same operand order), so a tape run is bitwise
//! identical to interpreting the same instructions.

use std::collections::HashMap;

use fir::ir::{BinOp, UnOp};
use fir::types::{ScalarType, Type};

use crate::bytecode::{CodeObject, Instr, Opnd, Reg};
use crate::kernel::Kernel;
use crate::region::{lower_regions, Region};

/// Class of a tape register: the three scalar files plus borrowed arrays
/// and shared accumulator handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cls {
    F,
    B,
    I,
    /// A borrowed `f64` input array (gather table).
    A,
    /// A shared accumulator handle (scatter-add target).
    C,
}

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
#[derive(Debug, Clone, Copy)]
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
}

/// Why a kernel runs on the generic bytecode path instead of as a tape.
/// Decided once per kernel by `lower_program` and reported by
/// [`Program::tape_report`](crate::Program::tape_report); the variants are
/// named after what the lowering rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// A result that is neither an `f64` scalar nor an `f64` accumulator
    /// (array rows, `i64`/`bool` columns).
    ResultType,
    /// `if`/`loop` in the body (jumps and their `Take` result moves).
    ControlFlow,
    /// A SOAC, `hist`, `scatter` or `withacc` in the body.
    NestedSoac,
    /// Array construction in the body: `iota`, `replicate`, `reverse`,
    /// `update`, or a move of an array value.
    ArrayConstruction,
    /// An index with more than two indices.
    IndexRank,
    /// An `upd_acc` with more than two indices.
    AccumulatorShape,
    /// A register used at two classes (an `i64` where the inference had
    /// settled on `f64`, one array gathered at two ranks) or read before
    /// anything defines it.
    ClassConflict,
    /// An element parameter gathered from as an array (the rows of a
    /// rank ≥ 2 argument) or used as a `bool`: element streams are rank-1
    /// `f64`/`i64` arrays only.
    ArrayParam,
    /// A reduce/scan operator, or the kernels of a redomap, outside what
    /// the fold executor runs: non-`f64` operands or neutral elements, a
    /// result count different from the neutral count, accumulators.
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

/// A compiled scalar tape.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    pub ops: Vec<Op>,
    /// The three scalar register files as templates: one entry per
    /// register, constants preloaded and zero elsewhere. A dispatch copies
    /// them into its scratch files; constant registers are never written,
    /// so one copy serves every element.
    pub f_init: Vec<f64>,
    pub b_init: Vec<bool>,
    pub i_init: Vec<i64>,
    /// Per array-table slot: the rank its gathers require (`0` when only
    /// `Len` touches it, which accepts any rank).
    pub a_ranks: Vec<u8>,
    /// Per accumulator-table slot: the rank its scatter-adds require (`0`
    /// when the handle is only passed through to a result).
    pub c_ranks: Vec<u8>,
    /// For kernel tapes: where each kernel-frame slot (parameters, then
    /// captures) lands in the tape register file. `None` means the slot is
    /// never read by the body.
    pub inputs: Vec<Option<(Cls, u16)>>,
    /// For kernel tapes: the result registers — float outputs collected
    /// per element, or accumulator handles passed through.
    pub rets: Vec<(Cls, u16)>,
    /// Number of `Un`/`Bin`/`Cmp`/`BoolBin`/`Sel` ops (region admission).
    pub compute_ops: usize,
}

/// The forward lowering pass. `num_inputs` marks the VM register prefix
/// that may be read before being written (kernel parameters + captures; for
/// main-body regions, every register).
pub(crate) struct Lowerer {
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
    c_ranks: Vec<u8>,
    f_const_ix: HashMap<u64, u16>,
    b_const_ix: [Option<u16>; 2],
    i_const_ix: HashMap<i64, u16>,
    ops: Vec<Op>,
    compute_ops: usize,
}

type Lower<T> = Result<T, Fallback>;

impl Lowerer {
    pub(crate) fn new(num_regs: usize, num_inputs: usize) -> Lowerer {
        Lowerer {
            map: vec![None; num_regs],
            num_inputs,
            inputs: Vec::new(),
            writes: Vec::new(),
            f_init: Vec::new(),
            b_init: Vec::new(),
            i_init: Vec::new(),
            a_ranks: Vec::new(),
            c_ranks: Vec::new(),
            f_const_ix: HashMap::new(),
            b_const_ix: [None; 2],
            i_const_ix: HashMap::new(),
            ops: Vec::new(),
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
    /// straight-line code and rejects the tape. Arrays and accumulator
    /// handles only ever enter as inputs; `rank` is the number of indices
    /// this use gathers or scatter-adds at (`0` for a rank-agnostic use
    /// such as `Len` or a pass-through), and one slot used at two ranks —
    /// which could not type-check anyway — rejects.
    fn reg(&mut self, r: Reg, cls: Cls, rank: u8) -> Lower<u16> {
        match self.binding(r)? {
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
            // Scatter-adds into shared accumulators — the write half of vjp
            // transposition (`dst[i] += v`, `w[i][j] += v`). The executor
            // calls `Accum::add_at` directly, so the negative-index panic,
            // the silent out-of-bounds skip and the zero-skip CAS add all
            // match the generic `UpdAcc` bit for bit; lane width is pinned
            // to 1 for tapes containing these (see `exec::map`) so adds land
            // in per-element order. The updated handle is the same shared
            // handle: `dst` re-binds as an alias of the slot.
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
            Instr::Update { .. }
            | Instr::Iota { .. }
            | Instr::Replicate { .. }
            | Instr::Reverse { .. } => return Err(Fallback::ArrayConstruction),
            Instr::Map { .. }
            | Instr::Reduce { .. }
            | Instr::Scan { .. }
            | Instr::Redomap { .. }
            | Instr::Hist { .. }
            | Instr::Scatter { .. }
            | Instr::WithAcc { .. } => return Err(Fallback::NestedSoac),
        }
        Ok(())
    }

    /// Resolve a kernel result operand: a float register (collected per
    /// element) or an accumulator slot (handle passed through).
    fn ret_slot(&mut self, o: &Opnd) -> Lower<(Cls, u16)> {
        if let Opnd::Reg(r) = o {
            if let Some((Cls::C, i)) = self.binding(*r)? {
                return Ok((Cls::C, i));
            }
        }
        Ok((Cls::F, self.opnd(o, Cls::F)?))
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
        Tape {
            ops: self.ops,
            f_init: self.f_init,
            b_init: self.b_init,
            i_init: self.i_init,
            a_ranks: self.a_ranks,
            c_ranks: self.c_ranks,
            inputs,
            rets,
            compute_ops: self.compute_ops,
        }
    }
}

/// How many element streams, gather tables and accumulators one dispatch
/// binds (on its stack, so that binding allocates nothing). The ten
/// workloads and their vjps peak at 5, 2 and 2; a kernel past a bound
/// falls back with [`Fallback::TooLarge`].
pub(crate) const MAX_STREAMS: usize = 8;
pub(crate) const MAX_TABLES: usize = 8;
pub(crate) const MAX_ACCS: usize = 8;

/// A kernel lowered to a tape. The shape-class contract checked at each
/// dispatch is what the bytecode does not record: rank-1 element streams
/// whose element type matches each parameter slot's inferred class (`f64`
/// or `i64`), and capture values matching theirs — scalars broadcast,
/// `f64` arrays of the gathered rank borrowed whole as gather tables.
#[derive(Debug, Clone)]
pub(crate) struct TapeKernel {
    pub tape: Tape,
    pub num_params: usize,
    /// The float result registers in result order.
    pub f_rets: Vec<u16>,
    /// Per result column: `None` for a float column, `Some(slot)` for an
    /// accumulator passed through, `slot` being the kernel-frame slot
    /// (parameter, then capture) its handle came in on.
    pub acc_rets: Vec<Option<usize>>,
}

impl TapeKernel {
    /// Whether kernel-frame slots `lo..hi` are all float-classified or
    /// dead, so flat `f64` values can feed them.
    fn slots_are_f64(&self, lo: usize, hi: usize) -> bool {
        (lo..hi).all(|p| matches!(self.tape.inputs.get(p), Some(None | Some((Cls::F, _)))))
    }

    /// The static half of the `map` contract: every element parameter is
    /// an `f64`/`i64` stream, an accumulator, or dead.
    fn check_map(&self, num_args: usize) -> Lower<()> {
        if num_args != self.num_params {
            return Err(Fallback::Malformed);
        }
        let streams = &self.tape.inputs[..self.num_params];
        if streams
            .iter()
            .any(|s| matches!(s, Some((Cls::A | Cls::B, _))))
        {
            return Err(Fallback::ArrayParam);
        }
        Ok(())
    }

    /// The static half of the fold contract (`reduce`, `scan`, the reduce
    /// side of a `redomap`): `width` float accumulators and `num_elems`
    /// float elements in, `width` floats out, no accumulator handles.
    fn check_fold(&self, neutral: &[Opnd], num_elems: usize) -> Lower<()> {
        let width = neutral.len();
        if self.num_params != width + num_elems {
            return Err(Fallback::Malformed);
        }
        if self.tape.rets.len() != width
            || !self.tape.c_ranks.is_empty()
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

/// Lower a SOAC kernel body, or say which part of it is outside the tape
/// fragment.
fn lower_kernel(k: &Kernel) -> Lower<TapeKernel> {
    // Results must be scalar f64 (flat output buffers) or f64 accumulators
    // (the shared handle is passed through, never materialized per element).
    if !k.ret.iter().all(|t| {
        matches!(
            t,
            Type::Scalar(ScalarType::F64)
                | Type::Acc {
                    elem: ScalarType::F64,
                    ..
                }
        )
    }) {
        return Err(Fallback::ResultType);
    }
    let num_inputs = k.num_params + k.num_captures;
    if num_inputs > k.code.num_regs {
        return Err(Fallback::Malformed);
    }
    let mut lo = Lowerer::new(k.code.num_regs, num_inputs);
    for instr in &k.code.instrs {
        lo.lower_instr(instr)?;
    }
    let rets = k
        .code
        .ret
        .iter()
        .map(|o| lo.ret_slot(o))
        .collect::<Lower<Vec<(Cls, u16)>>>()?;
    let tape = lo.finish(num_inputs, rets);
    if k.num_params > MAX_STREAMS
        || tape.a_ranks.len() > MAX_TABLES
        || tape.c_ranks.len() > MAX_ACCS
    {
        return Err(Fallback::TooLarge);
    }
    let f_rets = tape
        .rets
        .iter()
        .filter_map(|&(c, r)| (c == Cls::F).then_some(r))
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
        tape,
        num_params: k.num_params,
        f_rets,
        acc_rets,
    })
}

/// Lower one straight-line run of main-body instructions; used by the
/// region scanner.
pub(crate) fn lower_straight_line(code: &CodeObject, lo_pc: usize, hi_pc: usize) -> Lower<Lowerer> {
    let mut lo = Lowerer::new(code.num_regs, code.num_regs);
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
    pub kernels: Vec<Result<TapeKernel, Fallback>>,
    /// Per kernel and result column: the kernel-frame slot (parameter,
    /// then capture) an accumulator result is threaded from; `None` for
    /// other columns. What a `map` of extent zero returns for the column.
    pub acc_inputs: Vec<Vec<Option<usize>>>,
    /// Compiled straight-line scalar regions of the main body.
    pub regions: Vec<Region>,
    /// `starts[pc]` is `region + 1` where a region begins, `0` elsewhere.
    pub region_starts: Vec<u32>,
}

/// Lower every kernel and every main-body region of a program — the one
/// place tapes are built, called by `compile` and `Program::assemble`.
/// A kernel gets a tape when its body fits the fragment *and* the SOAC
/// instruction dispatching it can run one (the static half of the shape
/// contract); otherwise it gets the reason, also emitted as a `compile`
/// trace instant.
pub(crate) fn lower_program(main: &CodeObject, kernels: &[Kernel]) -> Lowered {
    let mut forms: Vec<Result<TapeKernel, Fallback>> = kernels.iter().map(lower_kernel).collect();
    let mut dispatched = vec![false; kernels.len()];
    // Hold the dispatching instruction's side of the contract against
    // kernel `k` (the first reason found stays).
    let mut role = |forms: &mut [Result<TapeKernel, Fallback>],
                    k: usize,
                    check: &dyn Fn(&TapeKernel) -> Lower<()>| {
        if let Some(seen) = dispatched.get_mut(k) {
            *seen = true;
            if let Err(why) = forms[k].as_ref().map_err(|e| *e).and_then(check) {
                forms[k] = Err(why);
            }
        }
    };
    for code in std::iter::once(main).chain(kernels.iter().map(|k| &k.code)) {
        for instr in &code.instrs {
            match instr {
                Instr::Map { kernel, args, .. } => {
                    role(&mut forms, *kernel, &|t| t.check_map(args.len()))
                }
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
                } => role(&mut forms, *kernel, &|t| t.check_fold(neutral, args.len())),
                Instr::Redomap {
                    red_kernel,
                    map_kernel,
                    neutral,
                    args,
                    ..
                } => {
                    role(&mut forms, *map_kernel, &|t| {
                        t.check_map(args.len())?;
                        if t.tape.c_ranks.is_empty() {
                            Ok(())
                        } else {
                            Err(Fallback::OperatorShape)
                        }
                    });
                    let elems = kernels.get(*map_kernel).map_or(0, |k| k.code.ret.len());
                    role(&mut forms, *red_kernel, &|t| t.check_fold(neutral, elems));
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
                Instr::WithAcc { kernel, .. } => {
                    role(&mut forms, *kernel, &|_| Err(Fallback::WithAccBody))
                }
                _ => {}
            }
        }
    }
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
