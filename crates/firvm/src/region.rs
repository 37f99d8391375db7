//! Straight-line scalar regions of a program's main body.
//!
//! SOAC kernels cover the per-element math; this module covers the scalar
//! glue between SOACs (loss combination, step-size arithmetic, loop-carried
//! scalar state). The scanner finds maximal runs of taped-fragment
//! instructions in the main code object, lowers each run to a [`Tape`],
//! and records where the run starts so the executor can swap `run` ops in
//! for interpretation. Classes are inferred statically but checked
//! dynamically at every entry — a register that turns out to hold an array
//! or an `i64` makes the region decline, and the VM interprets the same
//! (unmodified, still in place) instructions. Jumps into the middle of a
//! region need no special handling for the same reason.

use fir::ir::UnOp;
use interp::Value;

use crate::bytecode::{CodeObject, Instr, Opnd, Reg};
use crate::exec::run_region_ops;
use crate::tape::{lower_straight_line, Cls, Tape};

/// Register-file bounds for regions: execution uses stack arrays of these
/// sizes, so admission rejects anything larger (such straight-line scalar
/// blobs do not occur in practice).
pub(crate) const MAX_F: usize = 64;
pub(crate) const MAX_B: usize = 16;

/// Minimum compute ops for a region to be worth the entry checks.
const MIN_COMPUTE_OPS: usize = 4;

/// One compiled main-body region.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    pub tape: Tape,
    /// `(vm reg, class, tape reg)` checked and loaded at entry.
    pub inputs: Vec<(Reg, Cls, u16)>,
    /// `(vm reg, class, tape reg)` written back on success.
    pub outputs: Vec<(Reg, Cls, u16)>,
    /// Continuation pc (one past the last covered instruction).
    pub end: usize,
}

impl Region {
    /// Run against the main frame; `None` leaves the frame untouched.
    pub(crate) fn run(&self, regs: &mut [Value]) -> Option<usize> {
        let mut f = [0.0f64; MAX_F];
        let mut b = [false; MAX_B];
        f[..self.tape.f_init.len()].copy_from_slice(&self.tape.f_init);
        b[..self.tape.b_init.len()].copy_from_slice(&self.tape.b_init);
        for &(vr, cls, tr) in &self.inputs {
            match (cls, &regs[vr as usize]) {
                (Cls::F, Value::F64(x)) => f[tr as usize] = *x,
                (Cls::B, Value::Bool(x)) => b[tr as usize] = *x,
                _ => return None,
            }
        }
        run_region_ops(
            &self.tape.ops,
            &mut f[..self.tape.f_init.len()],
            &mut b[..self.tape.b_init.len()],
        );
        for &(vr, cls, tr) in &self.outputs {
            regs[vr as usize] = match cls {
                Cls::F => Value::F64(f[tr as usize]),
                Cls::B => Value::Bool(b[tr as usize]),
                Cls::I | Cls::A | Cls::C => {
                    unreachable!("regions admit scalar f64/bool tapes only")
                }
            };
        }
        Some(self.end)
    }
}

/// Kind-level pre-filter: could this instruction belong to a region?
/// (Class conflicts are caught by the lowering attempt afterwards.)
fn candidate(i: &Instr) -> bool {
    fn scalar(o: &Opnd) -> bool {
        !matches!(o, Opnd::I64(_))
    }
    match i {
        Instr::Mov { src, .. } => scalar(src),
        Instr::Un { op, a, .. } => !matches!(op, UnOp::ToF64 | UnOp::ToI64) && scalar(a),
        Instr::Bin { a, b, .. } => scalar(a) && scalar(b),
        Instr::Select { cond, t, f, .. } => scalar(cond) && scalar(t) && scalar(f),
        _ => false,
    }
}

/// Scan the main body: returns the per-pc start table (`region_id + 1` at
/// each region start, `0` elsewhere) and the compiled regions.
pub(crate) fn lower_regions(code: &CodeObject) -> (Vec<u32>, Vec<Region>) {
    let mut starts = vec![0u32; code.instrs.len()];
    let mut regions: Vec<Region> = Vec::new();
    let mut pc = 0usize;
    while pc < code.instrs.len() {
        if !candidate(&code.instrs[pc]) {
            pc += 1;
            continue;
        }
        let mut hi = pc + 1;
        while hi < code.instrs.len() && candidate(&code.instrs[hi]) {
            hi += 1;
        }
        if let Ok(mut lo) = lower_straight_line(code, pc, hi) {
            let inputs = std::mem::take(&mut lo.inputs);
            let outputs: Vec<(Reg, Cls, u16)> = std::mem::take(&mut lo.writes)
                .into_iter()
                .map(|r| {
                    let (cls, tr) = lo
                        .binding(r)
                        .ok()
                        .flatten()
                        .expect("written register has a binding");
                    (r, cls, tr)
                })
                .collect();
            let tape = lo.finish(0, Vec::new());
            if tape.compute_ops >= MIN_COMPUTE_OPS
                && tape.f_init.len() <= MAX_F
                && tape.b_init.len() <= MAX_B
                // Regions execute on scalar f64/bool stack files only; the
                // candidate filter keeps i64 and arrays out, this re-checks.
                && tape.i_init.is_empty()
                && tape.a_ranks.is_empty()
                && tape.c_ranks.is_empty()
                && regions.len() < u32::MAX as usize
            {
                starts[pc] = regions.len() as u32 + 1;
                regions.push(Region {
                    tape,
                    inputs,
                    outputs,
                    end: hi,
                });
            }
        }
        pc = hi;
    }
    (starts, regions)
}
