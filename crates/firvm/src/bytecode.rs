//! The register bytecode.
//!
//! A [`Program`] is the unit of compilation: one flat instruction stream for
//! the function body ([`CodeObject`]) plus one pre-compiled
//! [`Kernel`] per SOAC lambda anywhere in the
//! function. Registers are dense `u32` slots into a per-invocation frame of
//! [`Value`](interp::Value)s — variable lookups cost an array index instead
//! of a hash-map probe, and control flow (`if`, `loop`) is lowered to jumps
//! inside the same frame, so no environments are allocated at runtime.

use fir::ir::{BinOp, ReduceOp, UnOp};

use crate::kernel::Kernel;
use crate::tape::{lower_program, KernelForm, Lowered};

/// A register index into the current frame.
pub type Reg = u32;

/// An instruction operand: a register or an immediate scalar constant.
/// Immediates keep constants out of the register file entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Opnd {
    /// Read the register.
    Reg(Reg),
    /// An `f64` immediate.
    F64(f64),
    /// An `i64` immediate.
    I64(i64),
    /// A `bool` immediate.
    Bool(bool),
}

/// One bytecode instruction. SOAC instructions reference kernels by index
/// into [`Program::kernels`]; `captures` lists the registers whose values
/// the kernel's free variables take, copied into the kernel frame once per
/// SOAC invocation (not once per element, as the tree-walking interpreter
/// effectively does via environment chains).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst <- src`.
    Mov { dst: Reg, src: Opnd },
    /// `dst <- take src`: move the value out of `src`, leaving a
    /// placeholder. Emitted for loop/branch result moves of locally-bound
    /// values so no stale `Arc` clone survives in a dead register — a stale
    /// clone would force copy-on-write on every consuming `Update` of a
    /// loop-carried array, turning O(iterations) in-place updates into
    /// O(iterations × length) copies.
    Take { dst: Reg, src: Reg },
    /// `dst <- op a`.
    Un { op: UnOp, dst: Reg, a: Opnd },
    /// `dst <- a op b`.
    Bin {
        op: BinOp,
        dst: Reg,
        a: Opnd,
        b: Opnd,
    },
    /// `dst <- if cond then t else f` (both operands already evaluated).
    Select {
        dst: Reg,
        cond: Opnd,
        t: Opnd,
        f: Opnd,
    },
    /// `dst <- arr[idx...]` (partial indexing yields a sub-array).
    Index {
        dst: Reg,
        arr: Reg,
        idx: Box<[Opnd]>,
    },
    /// `dst <- arr with [idx...] <- val`. When `consume` is set (decided by
    /// the compiler's uniqueness analysis) the source register is moved out,
    /// so a uniquely-held buffer is updated in place without copying;
    /// otherwise the value is cloned and copy-on-write applies.
    Update {
        dst: Reg,
        arr: Reg,
        idx: Box<[Opnd]>,
        val: Opnd,
        consume: bool,
    },
    /// `dst <- length arr`.
    Len { dst: Reg, arr: Reg },
    /// `dst <- iota n`.
    Iota { dst: Reg, n: Opnd },
    /// `dst <- replicate n val`.
    Replicate { dst: Reg, n: Opnd, val: Opnd },
    /// `dst <- reverse arr`.
    Reverse { dst: Reg, arr: Reg },
    /// Unconditional jump to an instruction index.
    Jmp { target: usize },
    /// Jump when `cond` is false.
    JmpIfNot { cond: Opnd, target: usize },
    /// Bulk-parallel `map` of a kernel over the outer dimension of `args`.
    Map {
        kernel: usize,
        dsts: Box<[Reg]>,
        args: Box<[Reg]>,
        captures: Box<[Reg]>,
    },
    /// `reduce` with a kernel operator and neutral element(s).
    Reduce {
        kernel: usize,
        dsts: Box<[Reg]>,
        neutral: Box<[Opnd]>,
        args: Box<[Reg]>,
        captures: Box<[Reg]>,
    },
    /// Inclusive `scan`.
    Scan {
        kernel: usize,
        dsts: Box<[Reg]>,
        neutral: Box<[Opnd]>,
        args: Box<[Reg]>,
        captures: Box<[Reg]>,
    },
    /// Fused `reduce ∘ map` (`redomap`): apply the map kernel per element
    /// and fold its results with the reduce kernel, without materializing
    /// the intermediate arrays. Chunked like `Reduce`; partials combine
    /// with the reduce kernel alone.
    Redomap {
        red_kernel: usize,
        map_kernel: usize,
        dsts: Box<[Reg]>,
        neutral: Box<[Opnd]>,
        args: Box<[Reg]>,
        red_captures: Box<[Reg]>,
        map_captures: Box<[Reg]>,
    },
    /// `reduce_by_index` with a recognized operator.
    Hist {
        op: ReduceOp,
        dst: Reg,
        num_bins: Opnd,
        inds: Reg,
        vals: Reg,
    },
    /// `scatter` — `dest` is consumed (or cloned) like `Update`'s array.
    Scatter {
        dst: Reg,
        dest: Reg,
        inds: Reg,
        vals: Reg,
        consume: bool,
    },
    /// `withacc`: turn `arrs` into accumulators, run the kernel once, write
    /// the final arrays (and secondary kernel results) to `dsts`.
    WithAcc {
        kernel: usize,
        dsts: Box<[Reg]>,
        arrs: Box<[Reg]>,
        captures: Box<[Reg]>,
    },
    /// `upd_acc acc idx val`.
    UpdAcc {
        dst: Reg,
        acc: Reg,
        idx: Box<[Opnd]>,
        val: Opnd,
    },
}

/// A compiled body: a flat instruction stream over `num_regs` registers,
/// returning the values of `ret` when execution falls off the end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeObject {
    pub instrs: Vec<Instr>,
    pub num_regs: usize,
    /// Operands of the (multi-valued) result.
    pub ret: Vec<Opnd>,
}

/// A fully compiled function: the main code object, every SOAC kernel it
/// (transitively) contains, and the parameter count for frame setup —
/// plus what `tape::lower_program` derives from those: a monomorphic tape for
/// every kernel that has one (the form the VM runs it in) and a reason for
/// every kernel that does not.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub main: CodeObject,
    pub kernels: Vec<Kernel>,
    pub num_params: usize,
    /// Tapes, fallback reasons and main-body regions. Derived, never
    /// serialized, and not part of a program's identity.
    pub(crate) lowered: Lowered,
    /// Per-kernel trace labels (`"<name>#k<i>"`), interned at compile time
    /// so the per-dispatch span cost is two timestamps and a ring push.
    #[cfg(feature = "profile")]
    pub kernel_labels: Vec<&'static str>,
}

impl PartialEq for Program {
    /// Equality of the bytecode; tapes are a function of it.
    fn eq(&self, other: &Program) -> bool {
        self.name == other.name
            && self.main == other.main
            && self.kernels == other.kernels
            && self.num_params == other.num_params
    }
}

impl Program {
    /// Assemble a program from parts (the persistent-cache decode path).
    /// Tapes and kernel trace labels are re-derived here rather than
    /// carried in the serialized form, so the on-disk format holds bytecode
    /// only and is identical with and without the `profile` feature. The
    /// parts may be unvalidated (the decoder validates the assembled
    /// program): lowering rejects malformed kernels instead of panicking.
    pub fn assemble(
        name: String,
        main: CodeObject,
        kernels: Vec<Kernel>,
        num_params: usize,
    ) -> Program {
        #[cfg(feature = "profile")]
        let kernel_labels = (0..kernels.len())
            .map(|i| fir_trace::intern(&format!("{name}#k{i}")))
            .collect();
        Program {
            lowered: lower_program(&main, &kernels),
            name,
            main,
            kernels,
            num_params,
            #[cfg(feature = "profile")]
            kernel_labels,
        }
    }

    /// The form each kernel runs in: a tape, or generic bytecode and why.
    /// A kernel slower than its neighbours is usually a `Generic` one.
    pub fn tape_report(&self) -> Vec<KernelForm> {
        let form = |k: &Result<_, _>| match k {
            Ok(_) => KernelForm::Tape,
            Err(why) => KernelForm::Generic(*why),
        };
        self.lowered.kernels.iter().map(form).collect()
    }

    /// How many kernels have a tape.
    pub fn num_tapes(&self) -> usize {
        self.lowered.kernels.iter().filter(|k| k.is_ok()).count()
    }

    /// How many of the tapes are serial — inner SOACs, rows, temporaries or
    /// accumulators in the body, so they run one element at a time; the
    /// others run in blocks as wide as the stream.
    pub fn num_serial_tapes(&self) -> usize {
        let tapes = self.lowered.kernels.iter().flatten();
        tapes.filter(|k| k.tape.serial).count()
    }

    /// This program with every tape and region dropped, so that all of it
    /// runs as generic bytecode — the reference the tape executor is held
    /// bitwise equal to.
    #[cfg(test)]
    pub(crate) fn without_tapes(&self) -> Program {
        let mut generic = self.clone();
        for k in &mut generic.lowered.kernels {
            *k = Err(crate::tape::Fallback::Malformed);
        }
        generic.lowered.regions.clear();
        generic.lowered.region_starts.clear();
        generic
    }

    /// The trace label of kernel `i`.
    #[cfg(feature = "profile")]
    pub fn kernel_label(&self, i: usize) -> &'static str {
        self.kernel_labels.get(i).copied().unwrap_or("kernel")
    }

    /// Total instruction count, kernels included (diagnostics/tests).
    pub fn num_instrs(&self) -> usize {
        self.main.instrs.len()
            + self
                .kernels
                .iter()
                .map(|k| k.code.instrs.len())
                .sum::<usize>()
    }
}
