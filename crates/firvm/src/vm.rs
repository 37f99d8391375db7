//! The bytecode executor.
//!
//! Straight-line code is a tight `match` over [`Instr`] with register reads
//! and writes; control flow is jump-based within one frame. A SOAC
//! instruction picks its kernel's form statically: a kernel with a tape
//! ([`Program::tape_report`]) runs on the monomorphic tape executor
//! (`exec.rs`), which borrows its arguments from the frame and
//! allocates nothing but its outputs — and runs the inner `map`/`reduce`/
//! `redomap`s of the kernel body itself, over row views and scratch-owned
//! temporaries, so a whole `map` nest is **one** dispatch from here; a
//! kernel without a tape — or a dispatch whose values are outside the
//! tape's shape class — runs the generic path here, which sets up the
//! kernel frame **once** (captures included) and drives the compiled kernel
//! body per element or per chunk, re-entering this dispatcher for every
//! SOAC in it. Both schedule chunks on the shared persistent worker pool
//! with the same policy, and both are bitwise equal by construction and by
//! test. Scalar kernel outputs are written to flat typed buffers, so a
//! `map` producing `f64`s never boxes per-element values.

use fir::ir::ReduceOp;
use fir::types::{ScalarType, Type};
use interp::eval::{eval_binop, eval_unop, replicate};
use interp::{arena, Accum, Array, ExecConfig, Value};

use crate::bytecode::{CodeObject, Instr, Opnd, Program, Reg};
use crate::exec::{self, Scratch};
use crate::pool::{run_chunked, should_parallelize};

/// Everything an executing frame needs to reach besides its registers.
pub(crate) struct ExecCtx<'a> {
    pub prog: &'a Program,
    pub cfg: &'a ExecConfig,
}

/// How many SOAC dispatches (and main-body regions) of a run executed as
/// tapes, and how many as generic bytecode. These are VM-level dispatches —
/// SOAC instructions of the main body or of a generic kernel body: a `map`
/// nest that runs inside one tape counts once, however many inner SOACs
/// the tape runs per element.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    pub tapes: u64,
    pub generic: u64,
}

/// What one strand of execution — a `run_program`, or one chunk of a
/// parallel generic SOAC — carries from dispatch to dispatch: the tape
/// executor's scratch buffers (one set per nest depth) and the dispatch
/// counts. Plain fields, no atomics: a strand belongs to one thread, and a
/// parallel SOAC adds its chunks' counts to the dispatching strand when
/// they return.
///
/// The scratch also says whether the strand is *shared* — one of several
/// chunks running concurrently ([`Strand::shared`], made in [`chunked`]'s
/// parallel arm and nowhere else) — or owned (`default()`: a
/// `run_program`, and everything it runs inline). `upd_acc` adds by CAS on
/// a shared strand and by load–add–store on an owned one; while its chunks
/// run, the strand that forked them waits in `run_chunked` and adds
/// nothing, which is what makes the plain add sound.
#[derive(Default)]
pub(crate) struct Strand {
    scratch: Scratch,
    counts: DispatchCounts,
}

impl Strand {
    /// The strand of one chunk of a parallel SOAC.
    fn shared() -> Strand {
        Strand {
            scratch: Scratch::shared(),
            counts: DispatchCounts::default(),
        }
    }

    fn count(&mut self, ran_as_tape: bool) {
        if ran_as_tape {
            self.counts.tapes += 1;
        } else {
            self.counts.generic += 1;
        }
    }
}

/// Run a compiled program on argument values.
pub fn run_program(prog: &Program, cfg: &ExecConfig, args: &[Value]) -> Vec<Value> {
    run_program_counted(prog, cfg, args).0
}

/// Run a compiled program; also say how its dispatches executed.
pub fn run_program_counted(
    prog: &Program,
    cfg: &ExecConfig,
    args: &[Value],
) -> (Vec<Value>, DispatchCounts) {
    assert_eq!(
        prog.num_params,
        args.len(),
        "{}: expected {} arguments, got {}",
        prog.name,
        prog.num_params,
        args.len()
    );
    let _span = fir_trace::span_str("vm", &prog.name);
    let ctx = ExecCtx { prog, cfg };
    let mut strand = Strand {
        scratch: SCRATCH.take(),
        counts: DispatchCounts::default(),
    };
    let mut regs = new_frame(prog.main.num_regs);
    regs[..args.len()].clone_from_slice(args);
    exec(&ctx, &prog.main, &mut regs, &mut strand);
    SCRATCH.set(strand.scratch);
    (read_ret(&prog.main, &regs), strand.counts)
}

thread_local! {
    /// The scratch of the last `run_program` on this thread, so a warm run
    /// allocates none of its dispatches' buffers: a run takes it and puts
    /// it back when it returns (a run nested in another starts empty). It
    /// is owned, never shared — the strands of parallel chunks make their
    /// own.
    static SCRATCH: std::cell::Cell<Scratch> = std::cell::Cell::default();
}

/// Run `f(lo, hi, strand)` over a chunking of `0..n` (the [`run_chunked`]
/// policy): inline on the caller's strand when one chunk suffices, else on
/// the pool with a fresh strand per chunk whose counts are added back.
fn chunked<R: Send>(
    ctx: &ExecCtx,
    n: usize,
    strand: &mut Strand,
    f: &(dyn Fn(usize, usize, &mut Strand) -> R + Sync),
) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    if !should_parallelize(ctx.cfg, n) {
        return vec![f(0, n, strand)];
    }
    let chunks = run_chunked(ctx.cfg, n, &|lo, hi| {
        let mut s = Strand::shared();
        (f(lo, hi, &mut s), s.counts)
    });
    let absorb = |(r, c): (R, DispatchCounts)| {
        strand.counts.tapes += c.tapes;
        strand.counts.generic += c.generic;
        r
    };
    chunks.into_iter().map(absorb).collect()
}

fn new_frame(num_regs: usize) -> Vec<Value> {
    vec![Value::I64(0); num_regs]
}

fn read(regs: &[Value], o: &Opnd) -> Value {
    match o {
        Opnd::Reg(r) => regs[*r as usize].clone(),
        Opnd::F64(x) => Value::F64(*x),
        Opnd::I64(x) => Value::I64(*x),
        Opnd::Bool(x) => Value::Bool(*x),
    }
}

fn read_ret(code: &CodeObject, regs: &[Value]) -> Vec<Value> {
    code.ret.iter().map(|o| read(regs, o)).collect()
}

fn read_usizes(regs: &[Value], idx: &[Opnd]) -> Vec<usize> {
    idx.iter()
        .map(|o| {
            let i = read(regs, o).as_i64();
            assert!(i >= 0, "negative index {i}");
            i as usize
        })
        .collect()
}

/// Take an array out of a register (consume) or clone it, per the compiled
/// uniqueness decision.
fn take_arr(regs: &mut [Value], r: Reg, consume: bool) -> Array {
    if consume {
        std::mem::replace(&mut regs[r as usize], Value::I64(0)).into_arr()
    } else {
        regs[r as usize].as_arr().clone()
    }
}

/// Execute a code object over the given frame until it falls off the end.
pub(crate) fn exec(ctx: &ExecCtx, code: &CodeObject, regs: &mut [Value], strand: &mut Strand) {
    let mut pc = 0usize;
    let instrs = &code.instrs;
    let lowered = &ctx.prog.lowered;
    // Compiled scalar regions only exist for the program's main body
    // (kernel bodies are lowered wholesale instead).
    let region_starts: &[u32] = if std::ptr::eq(code, &ctx.prog.main) {
        &lowered.region_starts
    } else {
        &[]
    };
    while pc < instrs.len() {
        if let Some(&rid) = region_starts.get(pc) {
            if rid != 0 {
                let next = lowered.regions[rid as usize - 1].run(regs);
                strand.count(next.is_some());
                if let Some(next) = next {
                    pc = next;
                    continue;
                }
                // Input class mismatch: interpret the same instructions.
            }
        }
        match &instrs[pc] {
            Instr::Mov { dst, src } => regs[*dst as usize] = read(regs, src),
            Instr::Take { dst, src } => {
                let v = std::mem::replace(&mut regs[*src as usize], Value::I64(0));
                regs[*dst as usize] = v;
            }
            Instr::Un { op, dst, a } => {
                regs[*dst as usize] = eval_unop(*op, read(regs, a));
            }
            Instr::Bin { op, dst, a, b } => {
                regs[*dst as usize] = eval_binop(*op, read(regs, a), read(regs, b));
            }
            Instr::Select { dst, cond, t, f } => {
                let c = read(regs, cond).as_bool();
                regs[*dst as usize] = if c { read(regs, t) } else { read(regs, f) };
            }
            Instr::Index { dst, arr, idx } => {
                let idx = read_usizes(regs, idx);
                let v = regs[*arr as usize].as_arr().index(&idx);
                regs[*dst as usize] = v;
            }
            Instr::Update {
                dst,
                arr,
                idx,
                val,
                consume,
            } => {
                let idx = read_usizes(regs, idx);
                let v = read(regs, val);
                let mut a = take_arr(regs, *arr, *consume);
                a.write(&idx, &v);
                regs[*dst as usize] = Value::Arr(a);
            }
            Instr::Len { dst, arr } => {
                let n = regs[*arr as usize].as_arr().len() as i64;
                regs[*dst as usize] = Value::I64(n);
            }
            Instr::Iota { dst, n } => {
                let n = read(regs, n).as_i64().max(0);
                let mut data = arena::take_i64(n as usize);
                data.extend(0..n);
                regs[*dst as usize] = Value::Arr(Array::vec_i64(data));
            }
            Instr::Replicate { dst, n, val } => {
                let n = read(regs, n).as_i64().max(0) as usize;
                let v = read(regs, val);
                regs[*dst as usize] = Value::Arr(replicate(n, &v));
            }
            Instr::Reverse { dst, arr } => {
                let v = Value::Arr(regs[*arr as usize].as_arr().reverse());
                regs[*dst as usize] = v;
            }
            Instr::Jmp { target } => {
                pc = *target;
                continue;
            }
            Instr::JmpIfNot { cond, target } => {
                if !read(regs, cond).as_bool() {
                    pc = *target;
                    continue;
                }
            }
            Instr::Map {
                kernel,
                dsts,
                args,
                captures,
            } => {
                #[cfg(feature = "profile")]
                let _k = fir_trace::span("kernel", ctx.prog.kernel_label(*kernel));
                let taped = lowered.kernels[*kernel].as_ref().is_ok_and(|k| {
                    exec::map(k, ctx.cfg, regs, dsts, args, captures, &mut strand.scratch)
                });
                strand.count(taped);
                if !taped {
                    let outs = exec_map(ctx, *kernel, args, captures, regs, strand);
                    write_outs(regs, dsts, outs);
                }
            }
            Instr::Reduce {
                kernel,
                dsts,
                neutral,
                args,
                captures,
            } => {
                #[cfg(feature = "profile")]
                let _k = fir_trace::span("kernel", ctx.prog.kernel_label(*kernel));
                let taped = lowered.kernels[*kernel].as_ref().is_ok_and(|k| {
                    let scratch = &mut strand.scratch;
                    exec::reduce(k, ctx.cfg, regs, dsts, neutral, args, captures, scratch)
                });
                strand.count(taped);
                if !taped {
                    let outs = exec_reduce(ctx, *kernel, neutral, args, captures, regs, strand);
                    write_outs(regs, dsts, outs);
                }
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
                #[cfg(feature = "profile")]
                let _k = fir_trace::span("kernel", ctx.prog.kernel_label(*red_kernel));
                let taped = match (&lowered.kernels[*red_kernel], &lowered.kernels[*map_kernel]) {
                    (Ok(rk), Ok(mk)) => exec::redomap(
                        rk,
                        mk,
                        ctx.cfg,
                        regs,
                        dsts,
                        neutral,
                        args,
                        red_captures,
                        map_captures,
                        &mut strand.scratch,
                    ),
                    _ => false,
                };
                strand.count(taped);
                if !taped {
                    let outs = exec_redomap(
                        ctx,
                        *red_kernel,
                        *map_kernel,
                        neutral,
                        args,
                        red_captures,
                        map_captures,
                        regs,
                        strand,
                    );
                    write_outs(regs, dsts, outs);
                }
            }
            Instr::Scan {
                kernel,
                dsts,
                neutral,
                args,
                captures,
            } => {
                #[cfg(feature = "profile")]
                let _k = fir_trace::span("kernel", ctx.prog.kernel_label(*kernel));
                let taped = lowered.kernels[*kernel].as_ref().is_ok_and(|k| {
                    let scratch = &mut strand.scratch;
                    exec::scan(k, ctx.cfg, regs, dsts, neutral, args, captures, scratch)
                });
                strand.count(taped);
                if !taped {
                    let outs = exec_scan(ctx, *kernel, neutral, args, captures, regs, strand);
                    write_outs(regs, dsts, outs);
                }
            }
            Instr::Hist {
                op,
                dst,
                num_bins,
                inds,
                vals,
            } => {
                #[cfg(feature = "profile")]
                let _k = fir_trace::span("kernel", "hist");
                let v = exec_hist(ctx, *op, num_bins, *inds, *vals, regs);
                regs[*dst as usize] = v;
            }
            Instr::Scatter {
                dst,
                dest,
                inds,
                vals,
                consume,
            } => {
                let inds = regs[*inds as usize].as_arr().clone();
                let vals = regs[*vals as usize].as_arr().clone();
                let mut dest = take_arr(regs, *dest, *consume);
                let n = inds.len().min(vals.len());
                for k in 0..n {
                    let j = inds.i64s()[k];
                    if j >= 0 && (j as usize) < dest.len() {
                        dest.write(&[j as usize], &vals.index(&[k]));
                    }
                }
                regs[*dst as usize] = Value::Arr(dest);
            }
            Instr::WithAcc {
                kernel,
                dsts,
                arrs,
                captures,
            } => {
                #[cfg(feature = "profile")]
                let _k = fir_trace::span("kernel", ctx.prog.kernel_label(*kernel));
                let outs = exec_withacc(ctx, *kernel, arrs, captures, regs, strand);
                write_outs(regs, dsts, outs);
            }
            Instr::UpdAcc { dst, acc, idx, val } => {
                let handle = regs[*acc as usize].as_acc().clone();
                let idx = read_usizes(regs, idx);
                let shared = strand.scratch.shared;
                match read(regs, val) {
                    Value::F64(x) => exec::acc_add(&handle, shared, &idx, x),
                    Value::Arr(a) => exec::acc_add_slice(&handle, shared, &idx, a.f64s()),
                    other => panic!("upd_acc with non-float value {other:?}"),
                }
                regs[*dst as usize] = Value::Acc(handle);
            }
        }
        pc += 1;
    }
}

/// A typed per-output buffer for SOAC results: scalar outputs go to flat
/// vectors (no per-element `Value` boxing); array outputs are stacked;
/// accumulator outputs collapse to the shared handle.
enum OutBuf {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
    Vals(Vec<Value>),
    Acc(Option<Accum>),
}

impl OutBuf {
    fn for_type(ty: &Type, cap: usize) -> OutBuf {
        match ty {
            Type::Acc { .. } => OutBuf::Acc(None),
            Type::Scalar(ScalarType::F64) => OutBuf::F64(arena::take_f64(cap)),
            Type::Scalar(ScalarType::I64) => OutBuf::I64(arena::take_i64(cap)),
            Type::Scalar(ScalarType::Bool) => OutBuf::Bool(arena::take_bool(cap)),
            Type::Array { .. } => OutBuf::Vals(Vec::with_capacity(cap)),
        }
    }

    fn push(&mut self, v: Value) {
        match self {
            OutBuf::F64(buf) => buf.push(v.as_f64()),
            OutBuf::I64(buf) => buf.push(v.as_i64()),
            OutBuf::Bool(buf) => buf.push(v.as_bool()),
            OutBuf::Vals(buf) => buf.push(v),
            OutBuf::Acc(slot) => {
                if slot.is_none() {
                    match v {
                        Value::Acc(a) => *slot = Some(a),
                        other => panic!("kernel declared accumulator result, got {other:?}"),
                    }
                }
            }
        }
    }
}

/// Merge per-chunk buffers of one output into its final value. `n` is the
/// SOAC's outer size.
fn assemble_output(ty: &Type, n: usize, chunks: Vec<OutBuf>) -> Value {
    if matches!(ty, Type::Acc { .. }) {
        let handle = chunks
            .into_iter()
            .find_map(|c| match c {
                OutBuf::Acc(h) => h,
                _ => None,
            })
            .expect("map with accumulator result over an empty array");
        return Value::Acc(handle);
    }
    if n == 0 {
        return Value::Arr(Array::zeros(ty.elem(), vec![0]));
    }
    match &chunks[0] {
        OutBuf::F64(_) => {
            // The single-chunk case (sequential execution, the serving hot
            // path) promotes the chunk buffer to the result directly.
            let mut data = arena::take_f64(if chunks.len() == 1 { 0 } else { n });
            for c in chunks {
                match c {
                    OutBuf::F64(mut v) => {
                        if data.is_empty() && data.capacity() == 0 {
                            data = v;
                        } else {
                            data.append(&mut v);
                            arena::give_f64(v);
                        }
                    }
                    _ => unreachable!("mixed chunk buffer types"),
                }
            }
            Value::Arr(Array::from_f64(vec![n], data))
        }
        OutBuf::I64(_) => {
            let mut data = arena::take_i64(if chunks.len() == 1 { 0 } else { n });
            for c in chunks {
                match c {
                    OutBuf::I64(mut v) => {
                        if data.is_empty() && data.capacity() == 0 {
                            data = v;
                        } else {
                            data.append(&mut v);
                            arena::give_i64(v);
                        }
                    }
                    _ => unreachable!("mixed chunk buffer types"),
                }
            }
            Value::Arr(Array::from_i64(vec![n], data))
        }
        OutBuf::Bool(_) => {
            let mut data = arena::take_bool(if chunks.len() == 1 { 0 } else { n });
            for c in chunks {
                match c {
                    OutBuf::Bool(mut v) => {
                        if data.is_empty() && data.capacity() == 0 {
                            data = v;
                        } else {
                            data.append(&mut v);
                            arena::give_bool(v);
                        }
                    }
                    _ => unreachable!("mixed chunk buffer types"),
                }
            }
            Value::Arr(Array::from_bool(vec![n], data))
        }
        OutBuf::Vals(_) => {
            let mut vals = Vec::with_capacity(n);
            for c in chunks {
                match c {
                    OutBuf::Vals(mut v) => vals.append(&mut v),
                    _ => unreachable!("mixed chunk buffer types"),
                }
            }
            Value::Arr(Array::stack(&vals))
        }
        OutBuf::Acc(_) => unreachable!("handled above"),
    }
}

/// Clone SOAC argument values and capture values out of the frame.
fn gather(regs: &[Value], rs: &[Reg]) -> Vec<Value> {
    rs.iter().map(|r| regs[*r as usize].clone()).collect()
}

fn write_outs(regs: &mut [Value], dsts: &[Reg], outs: Vec<Value>) {
    for (d, v) in dsts.iter().zip(outs) {
        regs[*d as usize] = v;
    }
}

/// Write one element's parameters into a kernel frame: arrays are indexed at
/// `i`, accumulators pass their (shared) handle through.
fn write_elem_params(frame: &mut [Value], argvals: &[Value], i: usize) {
    for (p, v) in argvals.iter().enumerate() {
        frame[p] = match v {
            Value::Arr(a) => a.index(&[i]),
            Value::Acc(acc) => Value::Acc(acc.clone()),
            other => panic!("map over non-array {other:?}"),
        };
    }
}

fn exec_map(
    ctx: &ExecCtx,
    kernel: usize,
    args: &[Reg],
    captures: &[Reg],
    regs: &[Value],
    strand: &mut Strand,
) -> Vec<Value> {
    let k = &ctx.prog.kernels[kernel];
    let argvals = gather(regs, args);
    let caps = gather(regs, captures);
    let n = argvals
        .iter()
        .find_map(|v| match v {
            Value::Arr(a) => Some(a.len()),
            _ => None,
        })
        .expect("map needs at least one array argument");
    let chunk_bufs: Vec<Vec<OutBuf>> = chunked(ctx, n, strand, &|lo, hi, strand| {
        let mut frame = k.new_frame(&caps);
        let mut bufs: Vec<OutBuf> = k.ret.iter().map(|t| OutBuf::for_type(t, hi - lo)).collect();
        for i in lo..hi {
            write_elem_params(&mut frame, &argvals, i);
            exec(ctx, &k.code, &mut frame, strand);
            for (j, o) in k.code.ret.iter().enumerate() {
                bufs[j].push(read(&frame, o));
            }
        }
        bufs
    });
    // Transpose chunk-major buffers into one final value per kernel output.
    let mut columns: Vec<Vec<OutBuf>> = k.ret.iter().map(|_| Vec::new()).collect();
    for chunk in chunk_bufs {
        for (column, buf) in columns.iter_mut().zip(chunk) {
            column.push(buf);
        }
    }
    let acc_inputs = &ctx.prog.lowered.acc_inputs[kernel];
    k.ret
        .iter()
        .zip(columns)
        .zip(acc_inputs)
        .map(|((ty, chunks), acc_input)| match acc_input {
            // An accumulator column is the handle that came in: which
            // argument or capture is a compile-time fact, so a map of
            // extent zero returns its accumulators unchanged.
            Some(slot) => {
                let mut inputs = argvals.iter().chain(&caps);
                inputs.nth(*slot).expect("result slot is an input").clone()
            }
            None => assemble_output(ty, n, chunks),
        })
        .collect()
}

fn exec_reduce(
    ctx: &ExecCtx,
    kernel: usize,
    neutral: &[Opnd],
    args: &[Reg],
    captures: &[Reg],
    regs: &[Value],
    strand: &mut Strand,
) -> Vec<Value> {
    let k = &ctx.prog.kernels[kernel];
    let caps = gather(regs, captures);
    let argarrs: Vec<Array> = args
        .iter()
        .map(|r| regs[*r as usize].as_arr().clone())
        .collect();
    let ne: Vec<Value> = neutral.iter().map(|o| read(regs, o)).collect();
    let n = argarrs[0].len();
    let width = ne.len();
    // Fold each chunk through the kernel starting from the neutral values.
    let partials: Vec<Vec<Value>> = chunked(ctx, n, strand, &|lo, hi, strand| {
        let mut frame = k.new_frame(&caps);
        let mut acc = ne.clone();
        for i in lo..hi {
            for (j, a) in acc.drain(..).enumerate() {
                frame[j] = a;
            }
            for (j, arr) in argarrs.iter().enumerate() {
                frame[width + j] = arr.index(&[i]);
            }
            exec(ctx, &k.code, &mut frame, strand);
            acc = read_ret(&k.code, &frame);
        }
        acc
    });
    if partials.len() == 1 {
        return partials.into_iter().next().unwrap();
    }
    // Combine per-chunk partials with the same (associative) operator.
    let mut frame = k.new_frame(&caps);
    let mut acc = ne;
    for p in partials {
        for (j, a) in acc.drain(..).enumerate() {
            frame[j] = a;
        }
        for (j, v) in p.into_iter().enumerate() {
            frame[width + j] = v;
        }
        exec(ctx, &k.code, &mut frame, strand);
        acc = read_ret(&k.code, &frame);
    }
    acc
}

/// Fused `reduce ∘ map`: the map kernel runs per element, its results are
/// folded with the reduce kernel. Chunking and the partial-combine both
/// mirror [`exec_reduce`] exactly, so a fused program stays bitwise
/// identical to the `reduce (map ...)` it replaced in every configuration.
#[allow(clippy::too_many_arguments)]
fn exec_redomap(
    ctx: &ExecCtx,
    red_kernel: usize,
    map_kernel: usize,
    neutral: &[Opnd],
    args: &[Reg],
    red_captures: &[Reg],
    map_captures: &[Reg],
    regs: &[Value],
    strand: &mut Strand,
) -> Vec<Value> {
    let rk = &ctx.prog.kernels[red_kernel];
    let mk = &ctx.prog.kernels[map_kernel];
    let rcaps = gather(regs, red_captures);
    let mcaps = gather(regs, map_captures);
    let argvals = gather(regs, args);
    let ne: Vec<Value> = neutral.iter().map(|o| read(regs, o)).collect();
    let n = argvals
        .iter()
        .find_map(|v| match v {
            Value::Arr(a) => Some(a.len()),
            _ => None,
        })
        .expect("redomap needs at least one array argument");
    let width = ne.len();
    let partials: Vec<Vec<Value>> = chunked(ctx, n, strand, &|lo, hi, strand| {
        let mut mframe = mk.new_frame(&mcaps);
        let mut rframe = rk.new_frame(&rcaps);
        let mut acc = ne.clone();
        for i in lo..hi {
            write_elem_params(&mut mframe, &argvals, i);
            exec(ctx, &mk.code, &mut mframe, strand);
            let vals = read_ret(&mk.code, &mframe);
            for (j, a) in acc.drain(..).enumerate() {
                rframe[j] = a;
            }
            for (j, v) in vals.into_iter().enumerate() {
                rframe[width + j] = v;
            }
            exec(ctx, &rk.code, &mut rframe, strand);
            acc = read_ret(&rk.code, &rframe);
        }
        acc
    });
    if partials.len() == 1 {
        return partials.into_iter().next().unwrap();
    }
    let mut frame = rk.new_frame(&rcaps);
    let mut acc = ne;
    for p in partials {
        for (j, a) in acc.drain(..).enumerate() {
            frame[j] = a;
        }
        for (j, v) in p.into_iter().enumerate() {
            frame[width + j] = v;
        }
        exec(ctx, &rk.code, &mut frame, strand);
        acc = read_ret(&rk.code, &frame);
    }
    acc
}

fn exec_scan(
    ctx: &ExecCtx,
    kernel: usize,
    neutral: &[Opnd],
    args: &[Reg],
    captures: &[Reg],
    regs: &[Value],
    strand: &mut Strand,
) -> Vec<Value> {
    let k = &ctx.prog.kernels[kernel];
    let caps = gather(regs, captures);
    let argarrs: Vec<Array> = args
        .iter()
        .map(|r| regs[*r as usize].as_arr().clone())
        .collect();
    let mut acc: Vec<Value> = neutral.iter().map(|o| read(regs, o)).collect();
    let width = acc.len();
    let n = argarrs[0].len();
    let mut frame = k.new_frame(&caps);
    let mut bufs: Vec<OutBuf> = k.ret.iter().map(|t| OutBuf::for_type(t, n)).collect();
    for i in 0..n {
        for (j, a) in acc.drain(..).enumerate() {
            frame[j] = a;
        }
        for (j, arr) in argarrs.iter().enumerate() {
            frame[width + j] = arr.index(&[i]);
        }
        exec(ctx, &k.code, &mut frame, strand);
        acc = read_ret(&k.code, &frame);
        for (j, v) in acc.iter().enumerate() {
            bufs[j].push(v.clone());
        }
    }
    if n == 0 {
        // Empty scans are empty rank-1 arrays of the result element type
        // (matching the interpreter and the n > 0 result type).
        return k
            .ret
            .iter()
            .map(|ty| Value::Arr(Array::zeros(ty.elem(), vec![0])))
            .collect();
    }
    k.ret
        .iter()
        .zip(bufs)
        .map(|(ty, buf)| assemble_output(ty, n, vec![buf]))
        .collect()
}

fn exec_hist(
    ctx: &ExecCtx,
    op: ReduceOp,
    num_bins: &Opnd,
    inds: Reg,
    vals: Reg,
    regs: &[Value],
) -> Value {
    let m = read(regs, num_bins).as_i64().max(0) as usize;
    let inds = regs[inds as usize].as_arr().clone();
    let vals = regs[vals as usize].as_arr().clone();
    let stride = vals.stride();
    let mut shape = vals.shape.clone();
    shape[0] = m;
    let n = inds.len().min(vals.len());
    let idata = inds.i64s();
    let vdata = vals.f64s();
    if op == ReduceOp::Add && crate::pool::should_parallelize(ctx.cfg, n) {
        // Parallel histogram with atomic adds, as generated for GPUs.
        let acc = Accum::zeros(shape);
        run_chunked(ctx.cfg, n, &|lo, hi| {
            for kk in lo..hi {
                let bin = idata[kk];
                if bin >= 0 && (bin as usize) < m {
                    let row = &vdata[kk * stride..(kk + 1) * stride];
                    acc.add_slice(bin as usize * stride, stride, row);
                }
            }
        });
        return Value::Arr(acc.to_array());
    }
    let total: usize = shape.iter().product();
    let mut out = arena::take_f64(total);
    out.resize(total, op.neutral_f64());
    for kk in 0..n {
        let bin = idata[kk];
        if bin >= 0 && (bin as usize) < m {
            let off = bin as usize * stride;
            for j in 0..stride {
                out[off + j] = op.apply_f64(out[off + j], vdata[kk * stride + j]);
            }
        }
    }
    Value::Arr(Array::from_f64(shape, out))
}

fn exec_withacc(
    ctx: &ExecCtx,
    kernel: usize,
    arrs: &[Reg],
    captures: &[Reg],
    regs: &[Value],
    strand: &mut Strand,
) -> Vec<Value> {
    let k = &ctx.prog.kernels[kernel];
    let caps = gather(regs, captures);
    let accs: Vec<Accum> = arrs
        .iter()
        .map(|r| Accum::from_array(regs[*r as usize].as_arr()))
        .collect();
    let mut frame = k.new_frame(&caps);
    for (j, a) in accs.iter().enumerate() {
        frame[j] = Value::Acc(a.clone());
    }
    exec(ctx, &k.code, &mut frame, strand);
    let results = read_ret(&k.code, &frame);
    let mut out: Vec<Value> = accs.iter().map(|a| Value::Arr(a.to_array())).collect();
    out.extend(results.into_iter().skip(arrs.len()));
    out
}
