//! Lowering `fir` functions to register bytecode.
//!
//! The compiler performs, in one pass over the (alpha-renamed) IR:
//!
//! * **Slot allocation** — every variable gets a dense register index in its
//!   frame; all runtime lookups become array indexing.
//! * **Control-flow flattening** — `if` and `loop` compile to conditional
//!   jumps *within the same frame*; no environments or scopes exist at
//!   runtime. Loop-carried values live in fixed registers that each
//!   iteration overwrites (through temporaries, so that permuted results
//!   are moved in parallel).
//! * **Kernel extraction** — every SOAC lambda compiles once into a
//!   [`Kernel`] with its free variables turned into capture registers,
//!   resolved at the call site. Re-running a kernel for the next element is
//!   a frame write plus a jump to instruction 0 — the IR tree is never
//!   walked again. Every kernel whose body fits is then lowered once more,
//!   to a monomorphic tape (`tape.rs`) — the form the VM runs it in;
//!   the rest keep a recorded reason and run as the bytecode compiled here.
//! * **Consume analysis** — `update`/`scatter` destinations are consumed
//!   (moved out of their register, enabling in-place mutation) exactly when
//!   the interpreter's uniqueness semantics would take them from the
//!   current environment frame: the variable must be bound in the same
//!   scope as the consuming statement. Anything bound in an outer scope
//!   (or captured by a kernel) is cloned instead, which degrades to
//!   copy-on-write, never to incorrectness.

use std::collections::HashMap;

use fir::free_vars::FreeVars;
use fir::ir::{Atom, BinOp, Body, Const, Exp, Fun, Lambda, Param, VarId};

use crate::bytecode::{CodeObject, Instr, Opnd, Program, Reg};
use crate::kernel::Kernel;

/// Compile a (type-checked) function into a [`Program`].
pub fn compile(fun: &Fun) -> Program {
    // Alpha-rename so every binder in the function is unique: flat register
    // allocation then needs no shadowing logic.
    let fun = alpha_rename(fun);
    let mut kernels = Vec::new();
    let mut fc = FrameCompiler::new();
    for p in &fun.params {
        fc.define(p.var);
    }
    let ret = fc.compile_body(&mut kernels, &fun.body);
    let main = fc.finish(ret);
    Program {
        name: fun.name.clone(),
        lowered: crate::tape::lower_program(&main, &kernels),
        main,
        #[cfg(feature = "profile")]
        kernel_labels: (0..kernels.len())
            .map(|i| fir_trace::intern(&format!("{}#k{i}", fun.name)))
            .collect(),
        kernels,
        num_params: fun.params.len(),
    }
}

/// Freshen every bound variable of `fun` (parameters keep their names).
fn alpha_rename(fun: &Fun) -> Fun {
    fir::rename::uniquify_fun(fun)
}

/// Scope id given to capture registers: never equal to any statement scope,
/// so captures are never consumed.
const CAPTURE_SCOPE: u32 = u32::MAX;

/// Per-frame compilation state (one per function body or kernel body).
struct FrameCompiler {
    /// Variable -> (register, scope in which it was bound).
    slots: HashMap<VarId, (Reg, u32)>,
    next_reg: Reg,
    cur_scope: u32,
    next_scope: u32,
    instrs: Vec<Instr>,
}

impl FrameCompiler {
    fn new() -> FrameCompiler {
        FrameCompiler {
            slots: HashMap::new(),
            next_reg: 0,
            cur_scope: 0,
            next_scope: 1,
            instrs: Vec::new(),
        }
    }

    /// Allocate the register for a newly-bound variable in the current scope.
    fn define(&mut self, v: VarId) -> Reg {
        let r = self.alloc();
        self.slots.insert(v, (r, self.cur_scope));
        r
    }

    /// Allocate a register for a kernel capture (never consumable).
    fn define_capture(&mut self, v: VarId) -> Reg {
        let r = self.alloc();
        self.slots.insert(v, (r, CAPTURE_SCOPE));
        r
    }

    /// Allocate an anonymous temporary register.
    fn alloc(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn slot(&self, v: VarId) -> Reg {
        self.slots
            .get(&v)
            .unwrap_or_else(|| panic!("firvm compile: unbound variable {v}"))
            .0
    }

    /// Whether uniqueness semantics let a consuming statement in the current
    /// scope move the variable out of its register.
    fn consumable(&self, v: VarId) -> bool {
        self.slots
            .get(&v)
            .unwrap_or_else(|| panic!("firvm compile: unbound variable {v}"))
            .1
            == self.cur_scope
    }

    fn opnd(&self, a: &Atom) -> Opnd {
        match a {
            Atom::Var(v) => Opnd::Reg(self.slot(*v)),
            Atom::Const(Const::F64(x)) => Opnd::F64(*x),
            Atom::Const(Const::I64(x)) => Opnd::I64(*x),
            Atom::Const(Const::Bool(x)) => Opnd::Bool(*x),
        }
    }

    fn opnds(&self, atoms: &[Atom]) -> Box<[Opnd]> {
        atoms.iter().map(|a| self.opnd(a)).collect()
    }

    fn regs(&self, vars: &[VarId]) -> Box<[Reg]> {
        vars.iter().map(|v| self.slot(*v)).collect()
    }

    fn emit(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Emit a jump whose target is patched later; returns its index.
    fn emit_patchable(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    fn patch_target(&mut self, at: usize) {
        let target = self.instrs.len();
        match &mut self.instrs[at] {
            Instr::Jmp { target: t } | Instr::JmpIfNot { target: t, .. } => *t = target,
            other => panic!("patch_target on non-jump {other:?}"),
        }
    }

    /// Enter a child scope (an `if` branch or a loop iteration); returns the
    /// previous scope id for [`FrameCompiler::exit_scope`].
    fn enter_scope(&mut self) -> u32 {
        let old = self.cur_scope;
        self.cur_scope = self.next_scope;
        self.next_scope += 1;
        old
    }

    fn exit_scope(&mut self, old: u32) {
        self.cur_scope = old;
    }

    /// Move a body-result value into `dst`. A variable bound in the current
    /// (branch/iteration) scope is dead after this move, so it is *taken* —
    /// leaving no stale `Arc` clone that would force copy-on-write on a
    /// later consuming update of the moved array. Outer variables, repeated
    /// results and constants are copied.
    fn emit_result_move(&mut self, dst: Reg, a: &Atom, counts: &HashMap<VarId, usize>) {
        if let Atom::Var(v) = a {
            let (src, scope) = *self
                .slots
                .get(v)
                .unwrap_or_else(|| panic!("firvm compile: unbound variable {v}"));
            if scope == self.cur_scope && counts.get(v) == Some(&1) {
                self.emit(Instr::Take { dst, src });
                return;
            }
        }
        let src = self.opnd(a);
        self.emit(Instr::Mov { dst, src });
    }

    /// Occurrence counts of result variables (a register feeding two results
    /// must not be taken twice).
    fn result_counts(result: &[Atom]) -> HashMap<VarId, usize> {
        let mut counts: HashMap<VarId, usize> = HashMap::new();
        for a in result {
            if let Atom::Var(v) = a {
                *counts.entry(*v).or_default() += 1;
            }
        }
        counts
    }

    fn finish(self, ret: Vec<Opnd>) -> CodeObject {
        CodeObject {
            instrs: self.instrs,
            num_regs: self.next_reg as usize,
            ret,
        }
    }

    /// Compile a body's statements; returns the result operands.
    fn compile_body(&mut self, kernels: &mut Vec<Kernel>, body: &Body) -> Vec<Opnd> {
        for stm in &body.stms {
            self.compile_stm(kernels, &stm.pat, &stm.exp);
        }
        body.result.iter().map(|a| self.opnd(a)).collect()
    }

    fn compile_stm(&mut self, kernels: &mut Vec<Kernel>, pat: &[Param], exp: &Exp) {
        match exp {
            Exp::Atom(a) => {
                let src = self.opnd(a);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Mov { dst, src });
            }
            Exp::UnOp(op, a) => {
                let a = self.opnd(a);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Un { op: *op, dst, a });
            }
            Exp::BinOp(op, a, b) => {
                let (a, b) = (self.opnd(a), self.opnd(b));
                let dst = self.define(pat[0].var);
                self.emit(Instr::Bin { op: *op, dst, a, b });
            }
            Exp::Select { cond, t, f } => {
                let (cond, t, f) = (self.opnd(cond), self.opnd(t), self.opnd(f));
                let dst = self.define(pat[0].var);
                self.emit(Instr::Select { dst, cond, t, f });
            }
            Exp::Index { arr, idx } => {
                let arr = self.slot(*arr);
                let idx = self.opnds(idx);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Index { dst, arr, idx });
            }
            Exp::Update { arr, idx, val } => {
                let consume = self.consumable(*arr);
                let arr_r = self.slot(*arr);
                let idx = self.opnds(idx);
                let val = self.opnd(val);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Update {
                    dst,
                    arr: arr_r,
                    idx,
                    val,
                    consume,
                });
            }
            Exp::Len(v) => {
                let arr = self.slot(*v);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Len { dst, arr });
            }
            Exp::Iota(n) => {
                let n = self.opnd(n);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Iota { dst, n });
            }
            Exp::Replicate { n, val } => {
                let (n, val) = (self.opnd(n), self.opnd(val));
                let dst = self.define(pat[0].var);
                self.emit(Instr::Replicate { dst, n, val });
            }
            Exp::Reverse(v) => {
                let arr = self.slot(*v);
                let dst = self.define(pat[0].var);
                self.emit(Instr::Reverse { dst, arr });
            }
            Exp::Copy(v) => {
                // Values are copy-on-write at runtime; an explicit copy is a
                // register move whose clone breaks uniqueness, exactly like
                // the interpreter's `lookup().clone()`.
                let src = Opnd::Reg(self.slot(*v));
                let dst = self.define(pat[0].var);
                self.emit(Instr::Mov { dst, src });
            }
            Exp::If {
                cond,
                then_br,
                else_br,
            } => {
                let cond = self.opnd(cond);
                let dsts: Vec<Reg> = pat.iter().map(|p| self.define(p.var)).collect();
                let jz = self.emit_patchable(Instr::JmpIfNot {
                    cond,
                    target: usize::MAX,
                });
                let mut jend_slot = None;
                for (branch, end_jump) in [(then_br, true), (else_br, false)] {
                    let old = self.enter_scope();
                    for stm in &branch.stms {
                        self.compile_stm(kernels, &stm.pat, &stm.exp);
                    }
                    let counts = Self::result_counts(&branch.result);
                    for (d, a) in dsts.iter().zip(&branch.result) {
                        self.emit_result_move(*d, a, &counts);
                    }
                    self.exit_scope(old);
                    if end_jump {
                        let jend = self.emit_patchable(Instr::Jmp { target: usize::MAX });
                        self.patch_target(jz);
                        jend_slot = Some(jend);
                    }
                }
                self.patch_target(jend_slot.expect("then-branch emitted"));
            }
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => {
                let count = self.opnd(count);
                let inits: Vec<Opnd> = params.iter().map(|(_, init)| self.opnd(init)).collect();
                // Loop-carried registers are bound in the iteration scope:
                // the interpreter rebinds them in each iteration's frame, so
                // the body may consume them.
                let old = self.enter_scope();
                let pregs: Vec<Reg> = params.iter().map(|(p, _)| self.define(p.var)).collect();
                for (r, init) in pregs.iter().zip(inits) {
                    self.emit(Instr::Mov { dst: *r, src: init });
                }
                let idx = self.define(*index);
                self.emit(Instr::Mov {
                    dst: idx,
                    src: Opnd::I64(0),
                });
                let start = self.instrs.len();
                let cond = self.alloc();
                self.emit(Instr::Bin {
                    op: BinOp::Lt,
                    dst: cond,
                    a: Opnd::Reg(idx),
                    b: count,
                });
                let jend = self.emit_patchable(Instr::JmpIfNot {
                    cond: Opnd::Reg(cond),
                    target: usize::MAX,
                });
                for stm in &body.stms {
                    self.compile_stm(kernels, &stm.pat, &stm.exp);
                }
                // Parallel move: results may permute the carried registers,
                // so stage them in temporaries first. Locally-bound results
                // are *taken* into the temporaries (and the temporaries into
                // the carried registers), so a loop-carried array stays
                // uniquely owned and consuming updates mutate in place.
                let mut counts = Self::result_counts(&body.result);
                // The index register must stay live for the increment below
                // even if the body returns it: never take it.
                counts.insert(*index, usize::MAX);
                let temps: Vec<Reg> = body
                    .result
                    .iter()
                    .map(|a| {
                        let t = self.alloc();
                        self.emit_result_move(t, a, &counts);
                        t
                    })
                    .collect();
                for (p, t) in pregs.iter().zip(temps) {
                    self.emit(Instr::Take { dst: *p, src: t });
                }
                self.emit(Instr::Bin {
                    op: BinOp::Add,
                    dst: idx,
                    a: Opnd::Reg(idx),
                    b: Opnd::I64(1),
                });
                self.emit(Instr::Jmp { target: start });
                self.patch_target(jend);
                self.exit_scope(old);
                // The carried registers are dead once the loop exits.
                for (p, src) in pat.iter().zip(pregs) {
                    let dst = self.define(p.var);
                    self.emit(Instr::Take { dst, src });
                }
            }
            Exp::Map { lam, args } => {
                let (kernel, captures) = self.compile_kernel(kernels, lam);
                let args = self.regs(args);
                let dsts: Box<[Reg]> = pat.iter().map(|p| self.define(p.var)).collect();
                self.emit(Instr::Map {
                    kernel,
                    dsts,
                    args,
                    captures,
                });
            }
            Exp::Reduce { lam, neutral, args } => {
                let (kernel, captures) = self.compile_kernel(kernels, lam);
                let neutral = self.opnds(neutral);
                let args = self.regs(args);
                let dsts: Box<[Reg]> = pat.iter().map(|p| self.define(p.var)).collect();
                self.emit(Instr::Reduce {
                    kernel,
                    dsts,
                    neutral,
                    args,
                    captures,
                });
            }
            Exp::Scan { lam, neutral, args } => {
                let (kernel, captures) = self.compile_kernel(kernels, lam);
                let neutral = self.opnds(neutral);
                let args = self.regs(args);
                let dsts: Box<[Reg]> = pat.iter().map(|p| self.define(p.var)).collect();
                self.emit(Instr::Scan {
                    kernel,
                    dsts,
                    neutral,
                    args,
                    captures,
                });
            }
            Exp::Redomap {
                red_lam,
                map_lam,
                neutral,
                args,
            } => {
                let (red_kernel, red_captures) = self.compile_kernel(kernels, red_lam);
                let (map_kernel, map_captures) = self.compile_kernel(kernels, map_lam);
                let neutral = self.opnds(neutral);
                let args = self.regs(args);
                let dsts: Box<[Reg]> = pat.iter().map(|p| self.define(p.var)).collect();
                self.emit(Instr::Redomap {
                    red_kernel,
                    map_kernel,
                    dsts,
                    neutral,
                    args,
                    red_captures,
                    map_captures,
                });
            }
            Exp::Hist {
                op,
                num_bins,
                inds,
                vals,
            } => {
                let num_bins = self.opnd(num_bins);
                let (inds, vals) = (self.slot(*inds), self.slot(*vals));
                let dst = self.define(pat[0].var);
                self.emit(Instr::Hist {
                    op: *op,
                    dst,
                    num_bins,
                    inds,
                    vals,
                });
            }
            Exp::Scatter { dest, inds, vals } => {
                let consume = self.consumable(*dest);
                let dest = self.slot(*dest);
                let (inds, vals) = (self.slot(*inds), self.slot(*vals));
                let dst = self.define(pat[0].var);
                self.emit(Instr::Scatter {
                    dst,
                    dest,
                    inds,
                    vals,
                    consume,
                });
            }
            Exp::WithAcc { arrs, lam } => {
                let (kernel, captures) = self.compile_kernel(kernels, lam);
                let arrs = self.regs(arrs);
                let dsts: Box<[Reg]> = pat.iter().map(|p| self.define(p.var)).collect();
                self.emit(Instr::WithAcc {
                    kernel,
                    dsts,
                    arrs,
                    captures,
                });
            }
            Exp::UpdAcc { acc, idx, val } => {
                let acc = self.slot(*acc);
                let idx = self.opnds(idx);
                let val = self.opnd(val);
                let dst = self.define(pat[0].var);
                self.emit(Instr::UpdAcc { dst, acc, idx, val });
            }
        }
    }

    /// Compile a SOAC lambda into a kernel; returns its index and the
    /// registers (in this frame) holding its captured free variables.
    fn compile_kernel(&mut self, kernels: &mut Vec<Kernel>, lam: &Lambda) -> (usize, Box<[Reg]>) {
        let free: Vec<VarId> = lam.free_vars().into_iter().collect();
        let captures: Box<[Reg]> = free.iter().map(|v| self.slot(*v)).collect();
        let mut kc = FrameCompiler::new();
        for p in &lam.params {
            kc.define(p.var);
        }
        for v in &free {
            kc.define_capture(*v);
        }
        let ret = kc.compile_body(kernels, &lam.body);
        let code = kc.finish(ret);
        kernels.push(Kernel {
            code,
            num_params: lam.params.len(),
            num_captures: free.len(),
            ret: lam.ret.clone(),
        });
        (kernels.len() - 1, captures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    #[test]
    fn straight_line_code_compiles_to_flat_instrs() {
        let mut b = Builder::new();
        let f = b.build_fun("poly", &[Type::F64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let s = b.fsin(x);
            let p = b.fmul(s, x);
            vec![b.fadd(p, Atom::f64(1.0))]
        });
        let prog = compile(&f);
        assert_eq!(prog.kernels.len(), 0);
        assert_eq!(prog.main.instrs.len(), 3);
        assert_eq!(prog.main.ret.len(), 1);
    }

    #[test]
    fn map_lambdas_become_kernels_with_captures() {
        let mut b = Builder::new();
        let f = b.build_fun("scale", &[Type::arr_f64(1), Type::F64], |b, ps| {
            let c = Atom::Var(ps[1]);
            let ys = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), c)]
            });
            vec![Atom::Var(ys)]
        });
        let prog = compile(&f);
        assert_eq!(prog.kernels.len(), 1);
        let k = &prog.kernels[0];
        assert_eq!(k.num_params, 1);
        // The scale factor is captured once, not re-resolved per element.
        assert_eq!(k.num_captures, 1);
    }

    #[test]
    fn nested_maps_compile_to_nested_kernels() {
        let mut b = Builder::new();
        let f = b.build_fun("sq2", &[Type::arr_f64(2)], |b, ps| {
            let out = b.map1(Type::arr_f64(2), &[ps[0]], |b, rows| {
                let r = b.map1(Type::arr_f64(1), &[rows[0]], |b, xs| {
                    vec![b.fmul(xs[0].into(), xs[0].into())]
                });
                vec![Atom::Var(r)]
            });
            vec![Atom::Var(out)]
        });
        let prog = compile(&f);
        assert_eq!(prog.kernels.len(), 2);
    }

    #[test]
    fn loops_compile_to_backward_jumps() {
        let mut b = Builder::new();
        let f = b.build_fun("pow", &[Type::F64, Type::I64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let n = Atom::Var(ps[1]);
            let r = b.loop_(&[(Type::F64, Atom::f64(1.0))], n, |b, _i, acc| {
                vec![b.fmul(acc[0].into(), x)]
            });
            vec![r[0].into()]
        });
        let prog = compile(&f);
        let has_backjump = prog
            .main
            .instrs
            .iter()
            .enumerate()
            .any(|(at, i)| matches!(i, Instr::Jmp { target } if *target < at));
        assert!(has_backjump, "loop lowering must produce a backward jump");
    }

    #[test]
    fn update_consumes_only_same_scope_bindings() {
        // xs is a function parameter (same scope as the update): consumed.
        let mut b = Builder::new();
        let f = b.build_fun("upd", &[Type::arr_f64(1)], |b, ps| {
            let xs2 = b.update(ps[0], &[Atom::i64(0)], Atom::f64(9.0));
            vec![Atom::Var(xs2)]
        });
        let prog = compile(&f);
        assert!(matches!(
            prog.main.instrs[0],
            Instr::Update { consume: true, .. }
        ));

        // ys is bound outside the loop body that updates it: cloned.
        let mut b = Builder::new();
        let g = b.build_fun("updloop", &[Type::arr_f64(1)], |b, ps| {
            let r = b.loop_(&[(Type::F64, Atom::f64(0.0))], Atom::i64(3), |b, i, acc| {
                let ys2 = b.update(ps[0], &[Atom::Var(i)], Atom::f64(1.0));
                let y0 = b.index(ys2, &[Atom::i64(0)]);
                vec![b.fadd(acc[0].into(), y0.into())]
            });
            vec![r[0].into()]
        });
        let prog = compile(&g);
        let consume_flags: Vec<bool> = prog
            .main
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Update { consume, .. } => Some(*consume),
                _ => None,
            })
            .collect();
        assert_eq!(consume_flags, vec![false]);
    }
}
