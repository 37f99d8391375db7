//! Reverse-mode AD (`vjp`) by redundant execution.
//!
//! This module implements the paper's core contribution: a tape-free
//! reverse-mode transformation over the `fir` IR. The transformation of a
//! scope (a body of statements) is organised as
//!
//! 1. a *forward sweep* that re-emits the scope's statements (checkpointing
//!    loops, and computing auxiliary values such as arg-extrema for
//!    `min`/`max` reductions), followed by
//! 2. a *return sweep* that walks the statements in reverse, emitting
//!    adjoint code for each.
//!
//! Whenever the return sweep enters a nested scope (a branch, a loop body,
//! or a `map` lambda) it first redundantly re-executes that scope's forward
//! sweep so every intermediate value the adjoint code may need is in scope —
//! this is what removes the need for a tape (§4 of the paper). Sequential
//! loops are the only construct whose loop-variant values are checkpointed
//! (§4.2, Fig. 3/4).
//!
//! The per-construct rewrite rules of §5 are implemented in the `rev_*`
//! methods: `reduce` (general rule via exclusive scans, plus special cases
//! for `+`, `min`/`max`), `scan` (special case for `+`, general
//! linear-recurrence rule via a `lin_o` scan), `reduce_by_index`
//! (histogram), `scatter`, and `map`, whose free array variables become
//! accumulators (`withacc`/`upd_acc`).

use std::collections::HashMap;

use fir::builder::Builder;
use fir::free_vars::FreeVars;
use fir::ir::{Atom, BinOp, Body, Exp, Fun, Lambda, Param, ReduceOp, Stm, UnOp, VarId};
use fir::rename::Renamer;
use fir::types::Type;

use crate::helpers::{add_values, recognize_reduce_op, register_fun_types, zero_like};

/// Apply reverse-mode AD to a function.
///
/// For a function `f : (x_1, ..., x_n) -> (y_1, ..., y_m)` the result is
///
/// `f_vjp : (x_1, ..., x_n, ȳ_1, ..., ȳ_k) -> (y_1, ..., y_m, x̄_1, ..., x̄_j)`
///
/// where the seed parameters `ȳ` are added for every *differentiable*
/// (`f64`-typed) result, and adjoints `x̄` are returned for every
/// differentiable parameter (in parameter order). The primal results are
/// returned as well, matching the paper's `vjp` interface.
pub fn vjp(fun: &Fun) -> Fun {
    // The optimizer may have fused `reduce ∘ map` into `redomap`; the
    // per-construct rules below differentiate the unfused form (the derived
    // function is re-fused when it passes through the pipeline again).
    let fun = &fir::lower::unfuse(fun);
    // A gather on a `map` row reads the mapped array instead, so that array
    // is free in the lambda and `rev_map` makes its adjoint an accumulator
    // (the accumulator arm of `add_index_to_adjoint`); left as a parameter
    // the gather's adjoint is a dense row per element, which breaks the
    // O(primal) work guarantee.
    let fun = &fir::lower::forward_row_reads(fun);
    let mut b = Builder::for_fun(fun);
    register_fun_types(&mut b, fun);
    let mut rev = Rev {
        b,
        adj: HashMap::new(),
    };

    // Seed parameters: one adjoint per differentiable result.
    let mut seed_params: Vec<Param> = Vec::new();
    let mut seeds: Vec<Option<Atom>> = Vec::new();
    for rt in &fun.ret {
        if rt.is_differentiable() {
            let v = rev.b.fresh(*rt);
            seed_params.push(Param::new(v, *rt));
            seeds.push(Some(Atom::Var(v)));
        } else {
            seeds.push(None);
        }
    }

    let wanted: Vec<VarId> = fun
        .params
        .iter()
        .filter(|p| p.ty.is_differentiable())
        .map(|p| p.var)
        .collect();

    rev.b.begin_scope();
    let param_adjs = rev.vjp_body(&fun.body, &seeds, &wanted);
    let stms = rev.b.end_scope();

    let mut result = fun.body.result.clone();
    let mut ret = fun.ret.clone();
    for (adj, p) in param_adjs
        .iter()
        .zip(fun.params.iter().filter(|p| p.ty.is_differentiable()))
    {
        result.push(Atom::Var(*adj));
        ret.push(p.ty);
    }
    let mut params = fun.params.clone();
    params.extend(seed_params);
    Fun {
        name: format!("{}_vjp", fun.name),
        params,
        body: Body::new(stms, result),
        ret,
    }
}

/// Bookkeeping produced by the forward sweep of a single statement and
/// consumed by its return sweep.
// The `stm` payload embeds an `Exp` (which grew with `Redomap`'s two
// lambdas); the enum is short-lived per-statement bookkeeping, not stored
// in bulk, so the size imbalance is harmless.
#[allow(clippy::large_enum_variant)]
enum FwdInfo {
    /// The forward sweep was the statement itself.
    Simple,
    /// The statement is (or was lowered to) a sequential loop; the forward
    /// sweep emitted a checkpointing version. `stm` is the loop statement the
    /// return sweep should differentiate, `checkpoints` are the arrays (one
    /// per loop parameter) holding the parameter value at entry of every
    /// iteration.
    CheckpointedLoop { stm: Stm, checkpoints: Vec<VarId> },
    /// A `min`/`max` reduction; `iext` is the index of the extremal element
    /// computed on the forward sweep (the "argmin" of §5.1.1).
    ReduceMinMax { iext: VarId },
}

struct Rev {
    b: Builder,
    /// The current adjoint of each differentiable variable. The adjoint
    /// variable is either of the same type as the primal (scalar or array)
    /// or an accumulator (inside `map` lambdas).
    adj: HashMap<VarId, VarId>,
}

impl Rev {
    // -----------------------------------------------------------------
    // Adjoint bookkeeping
    // -----------------------------------------------------------------

    fn adjoint_or_zero(&mut self, v: VarId) -> VarId {
        if let Some(a) = self.adj.get(&v) {
            return *a;
        }
        let z = zero_like(&mut self.b, v);
        self.adj.insert(v, z);
        z
    }

    /// Add `contrib` (same type as `v`) to the adjoint of `v`.
    fn add_to_adjoint(&mut self, v: VarId, contrib: Atom) {
        let ty = self.b.ty_of(v);
        if !ty.is_differentiable() {
            return;
        }
        match self.adj.get(&v).copied() {
            None => {
                let a = match contrib {
                    Atom::Var(w) if self.b.ty_of(w) == ty => w,
                    _ => self.b.bind1(ty, Exp::Atom(contrib)),
                };
                self.adj.insert(v, a);
            }
            Some(old) => {
                let old_ty = self.b.ty_of(old);
                if old_ty.is_acc() {
                    let new = self.b.bind1(
                        old_ty,
                        Exp::UpdAcc {
                            acc: old,
                            idx: vec![],
                            val: contrib,
                        },
                    );
                    self.adj.insert(v, new);
                } else {
                    let sum = add_values(&mut self.b, Atom::Var(old), contrib);
                    let sv = match sum {
                        Atom::Var(w) => w,
                        _ => self.b.bind1(ty, Exp::Atom(sum)),
                    };
                    self.adj.insert(v, sv);
                }
            }
        }
    }

    /// Add `contrib` to the adjoint of `v` at index `idx` (the adjoint of an
    /// array read `v[idx]`).
    ///
    /// * Accumulator arm — reached when `v` is *free* in an enclosing `map`
    ///   lambda (`rev_map` bound its adjoint to a `withacc` accumulator, or
    ///   passed an enclosing one through): one `upd_acc`, work proportional
    ///   to the cells read.
    /// * Dense arm — reached when `v` is local to the scope being
    ///   differentiated (a lambda parameter, a `let`, a loop parameter): an
    ///   index/add/update on a full-size adjoint of `v`, zero-initialised on
    ///   first use. A gather on a `map` *parameter* would land here with one
    ///   dense row per element; `vjp` runs `fir::lower::forward_row_reads`
    ///   first so such a gather reads the free mapped array and takes the
    ///   accumulator arm instead.
    fn add_index_to_adjoint(&mut self, v: VarId, idx: &[Atom], contrib: Atom) {
        let ty = self.b.ty_of(v);
        if !ty.is_differentiable() {
            return;
        }
        let adj = self.adjoint_or_zero(v);
        let adj_ty = self.b.ty_of(adj);
        if adj_ty.is_acc() {
            let new = self.b.bind1(
                adj_ty,
                Exp::UpdAcc {
                    acc: adj,
                    idx: idx.to_vec(),
                    val: contrib,
                },
            );
            self.adj.insert(v, new);
        } else {
            let elem_ty = adj_ty.index(idx.len());
            let old = self.b.bind1(
                elem_ty,
                Exp::Index {
                    arr: adj,
                    idx: idx.to_vec(),
                },
            );
            let new = add_values(&mut self.b, Atom::Var(old), contrib);
            let upd = self.b.bind1(
                adj_ty,
                Exp::Update {
                    arr: adj,
                    idx: idx.to_vec(),
                    val: new,
                },
            );
            self.adj.insert(v, upd);
        }
    }

    /// Add a contribution to the adjoint of whatever an atom names (no-op
    /// for constants and non-differentiable variables).
    fn add_to_atom_adjoint(&mut self, a: Atom, contrib: Atom) {
        if let Atom::Var(v) = a {
            self.add_to_adjoint(v, contrib);
        }
    }

    fn adjoint_of_pat(&self, p: &Param) -> Option<VarId> {
        if p.ty.is_differentiable() {
            self.adj.get(&p.var).copied()
        } else {
            None
        }
    }

    // -----------------------------------------------------------------
    // The scope rule (vjp_body): forward sweep, seeding, return sweep.
    // -----------------------------------------------------------------

    /// Differentiate a body in the current builder scope.
    ///
    /// `res_adj[i]` is the adjoint of the body's `i`-th result (if any), and
    /// `wanted` lists the variables whose final adjoints the caller needs;
    /// the returned vector holds one adjoint variable per wanted variable
    /// (zero-valued if the body contributed nothing).
    ///
    /// The caller is responsible for saving/restoring `self.adj` around the
    /// call when the body constitutes a separate runtime scope (branches,
    /// loop bodies, lambdas).
    fn vjp_body(&mut self, body: &Body, res_adj: &[Option<Atom>], wanted: &[VarId]) -> Vec<VarId> {
        // Forward sweep.
        let infos: Vec<FwdInfo> = body.stms.iter().map(|s| self.fwd_stm(s)).collect();
        // Seed the adjoints of the body results.
        for (atom, adj) in body.result.iter().zip(res_adj) {
            if let (Atom::Var(v), Some(a)) = (atom, adj) {
                self.add_to_adjoint(*v, *a);
            }
        }
        // Return sweep.
        for (stm, info) in body.stms.iter().zip(&infos).rev() {
            self.rev_stm(stm, info);
        }
        wanted.iter().map(|v| self.adjoint_or_zero(*v)).collect()
    }

    // -----------------------------------------------------------------
    // Forward sweep
    // -----------------------------------------------------------------

    fn fwd_stm(&mut self, stm: &Stm) -> FwdInfo {
        match &stm.exp {
            Exp::Loop { .. } => self.fwd_loop(stm.clone()),
            Exp::Reduce { lam, args, .. } => {
                let scalar_single =
                    args.len() == 1 && stm.pat.len() == 1 && stm.pat[0].ty == Type::F64;
                let op_has_diff_free = lam
                    .free_vars()
                    .iter()
                    .any(|v| self.b.ty_of(*v).is_differentiable());
                if !scalar_single || op_has_diff_free {
                    let lowered = self.lower_reduce_to_loop(stm);
                    return self.fwd_loop(lowered);
                }
                match recognize_reduce_op(lam) {
                    Some(ReduceOp::Min) => {
                        self.b.push_stm(stm.clone());
                        let iext = self.emit_argext(ReduceOp::Min, args[0]);
                        FwdInfo::ReduceMinMax { iext }
                    }
                    Some(ReduceOp::Max) => {
                        self.b.push_stm(stm.clone());
                        let iext = self.emit_argext(ReduceOp::Max, args[0]);
                        FwdInfo::ReduceMinMax { iext }
                    }
                    _ => {
                        self.b.push_stm(stm.clone());
                        FwdInfo::Simple
                    }
                }
            }
            Exp::Scan { lam, args, .. } => {
                let scalar_single =
                    args.len() == 1 && stm.pat.len() == 1 && stm.pat[0].ty == Type::arr_f64(1);
                let op_has_diff_free = lam
                    .free_vars()
                    .iter()
                    .any(|v| self.b.ty_of(*v).is_differentiable());
                assert!(
                    scalar_single && !op_has_diff_free,
                    "vjp: only single-array scans over f64 scalars with closed operators are supported"
                );
                self.b.push_stm(stm.clone());
                FwdInfo::Simple
            }
            Exp::Hist { op, .. } => {
                if *op == ReduceOp::Add {
                    self.b.push_stm(stm.clone());
                    FwdInfo::Simple
                } else {
                    let lowered = self.lower_hist_to_loop(stm);
                    self.fwd_loop(lowered)
                }
            }
            Exp::WithAcc { .. } | Exp::UpdAcc { .. } => {
                panic!("vjp: differentiating accumulator constructs is not supported")
            }
            _ => {
                self.b.push_stm(stm.clone());
                FwdInfo::Simple
            }
        }
    }

    /// Forward sweep of a loop: the loop itself, extended to checkpoint the
    /// value of every loop parameter at the entry of each iteration.
    fn fwd_loop(&mut self, stm: Stm) -> FwdInfo {
        let (params, index, count, body) = match &stm.exp {
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => (params.clone(), *index, *count, body.clone()),
            _ => unreachable!("fwd_loop on non-loop"),
        };
        // Allocate the checkpoint arrays (shape: one slot per iteration).
        let mut ckpt_inits: Vec<(Type, VarId)> = Vec::new();
        for (p, init) in &params {
            let arr_ty = p.ty.lift();
            let c0 = self.b.bind1(
                arr_ty,
                Exp::Replicate {
                    n: count,
                    val: *init,
                },
            );
            ckpt_inits.push((arr_ty, c0));
        }
        let ckpt_params: Vec<Param> = ckpt_inits
            .iter()
            .map(|(t, _)| Param::new(self.b.fresh(*t), *t))
            .collect();
        // The checkpointing body: record each parameter, then run the
        // original body.
        let mut stms: Vec<Stm> = Vec::new();
        let mut ckpt_results: Vec<Atom> = Vec::new();
        for ((p, _), cp) in params.iter().zip(&ckpt_params) {
            let upd = self.b.fresh(cp.ty);
            stms.push(Stm::new(
                vec![Param::new(upd, cp.ty)],
                Exp::Update {
                    arr: cp.var,
                    idx: vec![Atom::Var(index)],
                    val: Atom::Var(p.var),
                },
            ));
            ckpt_results.push(Atom::Var(upd));
        }
        stms.extend(body.stms.clone());
        let mut result = body.result.clone();
        result.extend(ckpt_results);
        let new_body = Body::new(stms, result);
        let mut new_params = params.clone();
        for (cp, (_, c0)) in ckpt_params.iter().zip(&ckpt_inits) {
            new_params.push((*cp, Atom::Var(*c0)));
        }
        let ckpt_out: Vec<VarId> = ckpt_inits.iter().map(|(t, _)| self.b.fresh(*t)).collect();
        let mut pat = stm.pat.clone();
        for (v, (t, _)) in ckpt_out.iter().zip(&ckpt_inits) {
            pat.push(Param::new(*v, *t));
        }
        self.b.push_stm(Stm::new(
            pat,
            Exp::Loop {
                params: new_params,
                index,
                count,
                body: new_body,
            },
        ));
        FwdInfo::CheckpointedLoop {
            stm,
            checkpoints: ckpt_out,
        }
    }

    /// Compute the index of the extremal element of a rank-1 `f64` array
    /// (the "argmin"/"argmax" needed by the `min`/`max` reduce rule).
    fn emit_argext(&mut self, op: ReduceOp, arr: VarId) -> VarId {
        let n = self.b.bind1(Type::I64, Exp::Len(arr));
        let iot = self.b.bind1(Type::arr_i64(1), Exp::Iota(Atom::Var(n)));
        // Operator over (value, index) pairs.
        let pv1 = self.b.fresh(Type::F64);
        let pi1 = self.b.fresh(Type::I64);
        let pv2 = self.b.fresh(Type::F64);
        let pi2 = self.b.fresh(Type::I64);
        self.b.begin_scope();
        let cond = match op {
            ReduceOp::Min => self.b.lt(Atom::Var(pv2), Atom::Var(pv1)),
            ReduceOp::Max => self.b.gt(Atom::Var(pv2), Atom::Var(pv1)),
            _ => unreachable!(),
        };
        let rv = self.b.select(cond, Atom::Var(pv2), Atom::Var(pv1));
        let ri = self.b.select(cond, Atom::Var(pi2), Atom::Var(pi1));
        let stms = self.b.end_scope();
        let lam = Lambda {
            params: vec![
                Param::new(pv1, Type::F64),
                Param::new(pi1, Type::I64),
                Param::new(pv2, Type::F64),
                Param::new(pi2, Type::I64),
            ],
            body: Body::new(stms, vec![rv, ri]),
            ret: vec![Type::F64, Type::I64],
        };
        let neutral = vec![Atom::f64(op.neutral_f64()), Atom::i64(-1)];
        let out = self.b.bind(
            &[Type::F64, Type::I64],
            Exp::Reduce {
                lam,
                neutral,
                args: vec![arr, iot],
            },
        );
        out[1]
    }

    /// Lower a general (multi-value or free-variable-capturing) reduce to an
    /// equivalent sequential loop so the loop rule can differentiate it.
    fn lower_reduce_to_loop(&mut self, stm: &Stm) -> Stm {
        let (lam, neutral, args) = match &stm.exp {
            Exp::Reduce { lam, neutral, args } => (lam, neutral, args),
            _ => unreachable!(),
        };
        let k = args.len();
        let n = self.b.bind1(Type::I64, Exp::Len(args[0]));
        let index = self.b.fresh(Type::I64);
        let acc_params: Vec<Param> = lam
            .ret
            .iter()
            .map(|t| Param::new(self.b.fresh(*t), *t))
            .collect();
        let mut ren = Renamer::new();
        let fresh = ren.lambda(&mut self.b, lam);
        let mut stms: Vec<Stm> = Vec::new();
        for j in 0..k {
            let p = fresh.params[j];
            stms.push(Stm::new(vec![p], Exp::Atom(Atom::Var(acc_params[j].var))));
        }
        for j in 0..k {
            let p = fresh.params[k + j];
            stms.push(Stm::new(
                vec![p],
                Exp::Index {
                    arr: args[j],
                    idx: vec![Atom::Var(index)],
                },
            ));
        }
        stms.extend(fresh.body.stms);
        let body = Body::new(stms, fresh.body.result);
        let params: Vec<(Param, Atom)> = acc_params
            .into_iter()
            .zip(neutral.iter().copied())
            .collect();
        Stm::new(
            stm.pat.clone(),
            Exp::Loop {
                params,
                index,
                count: Atom::Var(n),
                body,
            },
        )
    }

    /// Lower a `reduce_by_index` with a non-`+` operator to a sequential
    /// loop of in-place updates (the fallback discussed in §5.1.2).
    fn lower_hist_to_loop(&mut self, stm: &Stm) -> Stm {
        let (op, num_bins, inds, vals) = match &stm.exp {
            Exp::Hist {
                op,
                num_bins,
                inds,
                vals,
            } => (*op, *num_bins, *inds, *vals),
            _ => unreachable!(),
        };
        let init = self.b.bind1(
            Type::arr_f64(1),
            Exp::Replicate {
                n: num_bins,
                val: Atom::f64(op.neutral_f64()),
            },
        );
        let n = self.b.bind1(Type::I64, Exp::Len(inds));
        let hs = Param::new(self.b.fresh(Type::arr_f64(1)), Type::arr_f64(1));
        let index = self.b.fresh(Type::I64);
        let bin = self.b.fresh(Type::I64);
        let v = self.b.fresh(Type::F64);
        let cur = self.b.fresh(Type::F64);
        let comb = self.b.fresh(Type::F64);
        let upd = self.b.fresh(Type::arr_f64(1));
        let stms = vec![
            Stm::new(
                vec![Param::new(bin, Type::I64)],
                Exp::Index {
                    arr: inds,
                    idx: vec![Atom::Var(index)],
                },
            ),
            Stm::new(
                vec![Param::new(v, Type::F64)],
                Exp::Index {
                    arr: vals,
                    idx: vec![Atom::Var(index)],
                },
            ),
            Stm::new(
                vec![Param::new(cur, Type::F64)],
                Exp::Index {
                    arr: hs.var,
                    idx: vec![Atom::Var(bin)],
                },
            ),
            Stm::new(
                vec![Param::new(comb, Type::F64)],
                Exp::BinOp(op.binop(), Atom::Var(cur), Atom::Var(v)),
            ),
            Stm::new(
                vec![Param::new(upd, Type::arr_f64(1))],
                Exp::Update {
                    arr: hs.var,
                    idx: vec![Atom::Var(bin)],
                    val: Atom::Var(comb),
                },
            ),
        ];
        let body = Body::new(stms, vec![Atom::Var(upd)]);
        Stm::new(
            stm.pat.clone(),
            Exp::Loop {
                params: vec![(hs, Atom::Var(init))],
                index,
                count: Atom::Var(n),
                body,
            },
        )
    }

    // -----------------------------------------------------------------
    // Return sweep
    // -----------------------------------------------------------------

    fn rev_stm(&mut self, stm: &Stm, info: &FwdInfo) {
        match info {
            FwdInfo::CheckpointedLoop {
                stm: loop_stm,
                checkpoints,
            } => {
                self.rev_loop(loop_stm, checkpoints);
                return;
            }
            FwdInfo::ReduceMinMax { iext } => {
                self.rev_reduce_minmax(stm, *iext);
                return;
            }
            FwdInfo::Simple => {}
        }
        match &stm.exp {
            Exp::Redomap { .. } => {
                unreachable!("redomap is unfused (fir::lower::unfuse) before AD")
            }
            Exp::Atom(a) => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    self.add_to_atom_adjoint(*a, Atom::Var(adj));
                }
            }
            Exp::UnOp(op, a) => self.rev_unop(stm, *op, *a),
            Exp::BinOp(op, x, y) => self.rev_binop(stm, *op, *x, *y),
            Exp::Select { cond, t, f } => {
                if stm.pat[0].ty != Type::F64 {
                    return;
                }
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    let ct = self.b.select(*cond, Atom::Var(adj), Atom::f64(0.0));
                    self.add_to_atom_adjoint(*t, ct);
                    let cf = self.b.select(*cond, Atom::f64(0.0), Atom::Var(adj));
                    self.add_to_atom_adjoint(*f, cf);
                }
            }
            Exp::Index { arr, idx } => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    self.add_index_to_adjoint(*arr, idx, Atom::Var(adj));
                }
            }
            Exp::Update { arr, idx, val } => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    // Contribution to the written value.
                    let elem_ty = stm.pat[0].ty.index(idx.len());
                    let g = self.b.bind1(
                        elem_ty,
                        Exp::Index {
                            arr: adj,
                            idx: idx.clone(),
                        },
                    );
                    self.add_to_atom_adjoint(*val, Atom::Var(g));
                    // Contribution to the array: the adjoint with the
                    // written position zeroed out.
                    let zero: Atom = if elem_ty.is_scalar() {
                        Atom::f64(0.0)
                    } else {
                        Atom::Var(zero_like(&mut self.b, g))
                    };
                    let zeroed = self.b.bind1(
                        stm.pat[0].ty,
                        Exp::Update {
                            arr: adj,
                            idx: idx.clone(),
                            val: zero,
                        },
                    );
                    self.add_to_adjoint(*arr, Atom::Var(zeroed));
                }
            }
            Exp::Len(_) | Exp::Iota(_) => {}
            Exp::Replicate { val, .. } => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    if let Atom::Var(v) = val {
                        if self.b.ty_of(*v) == Type::F64 {
                            let s = self.b.sum(adj);
                            self.add_to_adjoint(*v, Atom::Var(s));
                        } else if self.b.ty_of(*v).is_differentiable() {
                            // replicate of an array: the contribution is the
                            // sum of the adjoint's outer slices, accumulated
                            // with a sequential loop.
                            let val_ty = self.b.ty_of(*v);
                            let n = self.b.bind1(Type::I64, Exp::Len(adj));
                            let zero = zero_like(&mut self.b, *v);
                            let acc = Param::new(self.b.fresh(val_ty), val_ty);
                            let idx = self.b.fresh(Type::I64);
                            self.b.begin_scope();
                            let slice = self.b.bind1(
                                val_ty,
                                Exp::Index {
                                    arr: adj,
                                    idx: vec![Atom::Var(idx)],
                                },
                            );
                            let s = add_values(&mut self.b, Atom::Var(acc.var), Atom::Var(slice));
                            let stms = self.b.end_scope();
                            let out = self.b.bind1(
                                val_ty,
                                Exp::Loop {
                                    params: vec![(acc, Atom::Var(zero))],
                                    index: idx,
                                    count: Atom::Var(n),
                                    body: Body::new(stms, vec![s]),
                                },
                            );
                            self.add_to_adjoint(*v, Atom::Var(out));
                        }
                    }
                }
            }
            Exp::Reverse(v) => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    let r = self.b.bind1(stm.pat[0].ty, Exp::Reverse(adj));
                    self.add_to_adjoint(*v, Atom::Var(r));
                }
            }
            Exp::Copy(v) => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    self.add_to_adjoint(*v, Atom::Var(adj));
                }
            }
            Exp::If {
                cond,
                then_br,
                else_br,
            } => self.rev_if(stm, *cond, then_br, else_br),
            Exp::Map { lam, args } => self.rev_map(stm, lam, args),
            Exp::Reduce { lam, neutral, args } => {
                // Only the scalar single-array case reaches here.
                match recognize_reduce_op(lam) {
                    Some(ReduceOp::Add) => self.rev_reduce_add(stm, args[0]),
                    _ => self.rev_reduce_general(stm, lam, &neutral[0], args[0]),
                }
            }
            Exp::Scan { lam, neutral, args } => match recognize_reduce_op(lam) {
                Some(ReduceOp::Add) => self.rev_scan_add(stm, args[0]),
                _ => self.rev_scan_general(stm, lam, &neutral[0], args[0]),
            },
            Exp::Hist {
                num_bins,
                inds,
                vals,
                ..
            } => {
                // Only the `+` operator reaches here: v̄als_k += h̄s[inds_k],
                // with out-of-range bins contributing nothing (they were
                // ignored by the forward histogram as well).
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    let m = *num_bins;
                    let pi = self.b.fresh(Type::I64);
                    self.b.begin_scope();
                    let nonneg = self.b.ge(Atom::Var(pi), Atom::i64(0));
                    let below = self.b.lt(Atom::Var(pi), m);
                    let ok = self.b.and(nonneg, below);
                    let zero = self.b.bind1(Type::I64, Exp::Atom(Atom::i64(0)));
                    let safe = self.b.select(ok, Atom::Var(pi), Atom::Var(zero));
                    let h = self.b.bind1(
                        Type::F64,
                        Exp::Index {
                            arr: adj,
                            idx: vec![safe],
                        },
                    );
                    let out = self.b.select(ok, Atom::Var(h), Atom::f64(0.0));
                    let stms = self.b.end_scope();
                    let lam = Lambda {
                        params: vec![Param::new(pi, Type::I64)],
                        body: Body::new(stms, vec![out]),
                        ret: vec![Type::F64],
                    };
                    let g = self.b.bind1(
                        Type::arr_f64(1),
                        Exp::Map {
                            lam,
                            args: vec![*inds],
                        },
                    );
                    self.add_to_adjoint(*vals, Atom::Var(g));
                }
            }
            Exp::Scatter { dest, inds, vals } => {
                if let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) {
                    // Contribution to the scattered values.
                    let g = crate::helpers::gather(&mut self.b, adj, *inds);
                    self.add_to_adjoint(*vals, Atom::Var(g));
                    // Contribution to the destination: the result adjoint
                    // with the scattered positions zeroed out.
                    let zeros = zero_like(&mut self.b, *vals);
                    let zeroed = self.b.bind1(
                        stm.pat[0].ty,
                        Exp::Scatter {
                            dest: adj,
                            inds: *inds,
                            vals: zeros,
                        },
                    );
                    self.add_to_adjoint(*dest, Atom::Var(zeroed));
                }
            }
            Exp::Loop { .. } | Exp::WithAcc { .. } | Exp::UpdAcc { .. } => {
                unreachable!("handled by FwdInfo or rejected in fwd_stm")
            }
        }
    }

    fn rev_unop(&mut self, stm: &Stm, op: UnOp, a: Atom) {
        if stm.pat[0].ty != Type::F64 {
            return;
        }
        let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        let x = Atom::Var(stm.pat[0].var); // primal result, in scope
        let adj = Atom::Var(adj);
        let contrib = match op {
            UnOp::Neg => Some(self.b.fneg(adj)),
            UnOp::Sin => {
                let c = self.b.fcos(a);
                Some(self.b.fmul(c, adj))
            }
            UnOp::Cos => {
                let s = self.b.fsin(a);
                let ns = self.b.fneg(s);
                Some(self.b.fmul(ns, adj))
            }
            UnOp::Exp => Some(self.b.fmul(x, adj)),
            UnOp::Log => Some(self.b.fdiv(adj, a)),
            UnOp::Sqrt => {
                let two_x = self.b.fmul(Atom::f64(2.0), x);
                Some(self.b.fdiv(adj, two_x))
            }
            UnOp::Tanh => {
                let xx = self.b.fmul(x, x);
                let one_minus = self.b.fsub(Atom::f64(1.0), xx);
                Some(self.b.fmul(one_minus, adj))
            }
            UnOp::Sigmoid => {
                let one_minus = self.b.fsub(Atom::f64(1.0), x);
                let sx = self.b.fmul(x, one_minus);
                Some(self.b.fmul(sx, adj))
            }
            UnOp::Abs => {
                let cond = self.b.ge(a, Atom::f64(0.0));
                let neg = self.b.fneg(adj);
                Some(self.b.select(cond, adj, neg))
            }
            UnOp::Recip => {
                let xx = self.b.fmul(x, x);
                let nxx = self.b.fneg(xx);
                Some(self.b.fmul(nxx, adj))
            }
            UnOp::Not | UnOp::ToF64 | UnOp::ToI64 => None,
        };
        if let Some(c) = contrib {
            self.add_to_atom_adjoint(a, c);
        }
    }

    fn rev_binop(&mut self, stm: &Stm, op: BinOp, x: Atom, y: Atom) {
        if stm.pat[0].ty != Type::F64 {
            return;
        }
        let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        let r = Atom::Var(stm.pat[0].var);
        let adj = Atom::Var(adj);
        match op {
            BinOp::Add => {
                self.add_to_atom_adjoint(x, adj);
                self.add_to_atom_adjoint(y, adj);
            }
            BinOp::Sub => {
                self.add_to_atom_adjoint(x, adj);
                let n = self.b.fneg(adj);
                self.add_to_atom_adjoint(y, n);
            }
            BinOp::Mul => {
                let cx = self.b.fmul(y, adj);
                self.add_to_atom_adjoint(x, cx);
                let cy = self.b.fmul(x, adj);
                self.add_to_atom_adjoint(y, cy);
            }
            BinOp::Div => {
                let cx = self.b.fdiv(adj, y);
                self.add_to_atom_adjoint(x, cx);
                let rdiv = self.b.fdiv(r, y);
                let neg = self.b.fneg(rdiv);
                let cy = self.b.fmul(neg, adj);
                self.add_to_atom_adjoint(y, cy);
            }
            BinOp::Pow => {
                let ym1 = self.b.fsub(y, Atom::f64(1.0));
                let powm1 = self.b.fpow(x, ym1);
                let t = self.b.fmul(y, powm1);
                let cx = self.b.fmul(t, adj);
                self.add_to_atom_adjoint(x, cx);
                let lx = self.b.flog(x);
                let t2 = self.b.fmul(r, lx);
                let cy = self.b.fmul(t2, adj);
                self.add_to_atom_adjoint(y, cy);
            }
            BinOp::Min | BinOp::Max => {
                let cond = if op == BinOp::Min {
                    self.b.le(x, y)
                } else {
                    self.b.ge(x, y)
                };
                let cx = self.b.select(cond, adj, Atom::f64(0.0));
                self.add_to_atom_adjoint(x, cx);
                let cy = self.b.select(cond, Atom::f64(0.0), adj);
                self.add_to_atom_adjoint(y, cy);
            }
            BinOp::Rem => {
                self.add_to_atom_adjoint(x, adj);
            }
            _ => {}
        }
    }

    // -----------------------------------------------------------------
    // if-then-else
    // -----------------------------------------------------------------

    fn rev_if(&mut self, stm: &Stm, cond: Atom, then_br: &Body, else_br: &Body) {
        // Adjoints of the branch results.
        let res_adj: Vec<Option<Atom>> = stm
            .pat
            .iter()
            .map(|p| self.adjoint_of_pat(p).map(Atom::Var))
            .collect();
        if res_adj.iter().all(Option::is_none) {
            return;
        }
        // Free differentiable variables of either branch.
        let mut wanted: Vec<VarId> = then_br
            .free_vars()
            .union(&else_br.free_vars())
            .copied()
            .filter(|v| self.b.ty_of(*v).is_differentiable())
            .collect();
        wanted.sort();
        if wanted.is_empty() {
            return;
        }
        let saved = self.adj.clone();
        // Then branch.
        self.b.begin_scope();
        let adjs_t = self.vjp_body(then_br, &res_adj, &wanted);
        let then_stms = self.b.end_scope();
        let then_tys: Vec<Type> = adjs_t.iter().map(|v| self.b.ty_of(*v)).collect();
        let then_body = Body::new(then_stms, adjs_t.iter().map(|v| Atom::Var(*v)).collect());
        self.adj = saved.clone();
        // Else branch.
        self.b.begin_scope();
        let adjs_e = self.vjp_body(else_br, &res_adj, &wanted);
        let else_stms = self.b.end_scope();
        let else_body = Body::new(else_stms, adjs_e.iter().map(|v| Atom::Var(*v)).collect());
        self.adj = saved;
        let outs = self.b.bind(
            &then_tys,
            Exp::If {
                cond,
                then_br: then_body,
                else_br: else_body,
            },
        );
        for (w, o) in wanted.iter().zip(outs) {
            self.adj.insert(*w, o);
        }
    }

    // -----------------------------------------------------------------
    // Sequential loops (Fig. 3 / Fig. 4)
    // -----------------------------------------------------------------

    fn rev_loop(&mut self, stm: &Stm, checkpoints: &[VarId]) {
        let (params, index, count, body) = match &stm.exp {
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => (params, *index, *count, body),
            _ => unreachable!(),
        };
        // Which loop parameters carry derivatives.
        let diff_idx: Vec<usize> = (0..params.len())
            .filter(|j| params[*j].0.ty.is_differentiable())
            .collect();
        // Adjoints of the loop outputs (order: differentiable params only).
        let out_adj_exists = diff_idx
            .iter()
            .any(|j| self.adjoint_of_pat(&stm.pat[*j]).is_some());
        // Free differentiable variables of the loop body (excluding params/index).
        let mut fvs: Vec<VarId> = stm
            .exp
            .free_vars()
            .into_iter()
            .filter(|v| self.b.ty_of(*v).is_differentiable())
            .collect();
        fvs.sort();
        if !out_adj_exists && fvs.is_empty() {
            return;
        }
        // Initial values of the loop-carried adjoints.
        let init_out_adj: Vec<VarId> = diff_idx
            .iter()
            .map(|j| self.adjoint_or_zero(stm.pat[*j].var))
            .collect();
        let init_fv_adj: Vec<VarId> = fvs.iter().map(|v| self.adjoint_or_zero(*v)).collect();

        // Loop-carried adjoint parameters.
        let pbar_params: Vec<Param> = init_out_adj
            .iter()
            .map(|init| {
                let ty = self.b.ty_of(*init);
                Param::new(self.b.fresh(ty), ty)
            })
            .collect();
        let fvbar_params: Vec<Param> = init_fv_adj
            .iter()
            .map(|init| {
                let ty = self.b.ty_of(*init);
                Param::new(self.b.fresh(ty), ty)
            })
            .collect();
        let ridx = self.b.fresh(Type::I64);

        let saved = self.adj.clone();
        self.b.begin_scope();
        // i = count - 1 - ridx: iterate the original iterations in reverse.
        let cm1 = self.b.isub(count, Atom::i64(1));
        let i = self.b.isub(cm1, Atom::Var(ridx));
        // Re-install the checkpointed loop parameters for iteration i.
        for ((p, _), ck) in params.iter().zip(checkpoints) {
            let stm_reinstall = Stm::new(
                vec![*p],
                Exp::Index {
                    arr: *ck,
                    idx: vec![i],
                },
            );
            self.b.push_stm(stm_reinstall);
        }
        // Bind the original loop index to i as well.
        self.b
            .push_stm(Stm::new(vec![Param::new(index, Type::I64)], Exp::Atom(i)));
        // Adjoint environment for the loop body scope.
        self.adj = HashMap::new();
        for (fv, fp) in fvs.iter().zip(&fvbar_params) {
            self.adj.insert(*fv, fp.var);
        }
        // Seeds: the adjoint of the body's results are the carried adjoints.
        let mut res_adj: Vec<Option<Atom>> = vec![None; body.result.len()];
        for (k, j) in diff_idx.iter().enumerate() {
            res_adj[*j] = Some(Atom::Var(pbar_params[k].var));
        }
        let mut wanted: Vec<VarId> = diff_idx.iter().map(|j| params[*j].0.var).collect();
        wanted.extend(fvs.iter().copied());
        let adjs = self.vjp_body(body, &res_adj, &wanted);
        let rev_stms = self.b.end_scope();
        let rev_body = Body::new(rev_stms, adjs.iter().map(|v| Atom::Var(*v)).collect());
        self.adj = saved;

        // Assemble the reverse loop.
        let mut rev_params: Vec<(Param, Atom)> = Vec::new();
        for (p, init) in pbar_params.iter().zip(&init_out_adj) {
            rev_params.push((*p, Atom::Var(*init)));
        }
        for (p, init) in fvbar_params.iter().zip(&init_fv_adj) {
            rev_params.push((*p, Atom::Var(*init)));
        }
        let out_tys: Vec<Type> = rev_params.iter().map(|(p, _)| p.ty).collect();
        let outs = self.b.bind(
            &out_tys,
            Exp::Loop {
                params: rev_params,
                index: ridx,
                count,
                body: rev_body,
            },
        );
        // The first group of outputs are the adjoints of the loop-variant
        // initializers; the rest are the final free-variable adjoints. The
        // free-variable adjoints are installed first: an initializer may
        // itself be a free variable of the body (e.g. `loop (x = xs) ...`
        // where `xs` is also read inside), and its initializer contribution
        // must be added on top of the carried adjoint, not overwritten by it.
        for (k, fv) in fvs.iter().enumerate() {
            self.adj.insert(*fv, outs[diff_idx.len() + k]);
        }
        for (k, j) in diff_idx.iter().enumerate() {
            let init_atom = params[*j].1;
            self.add_to_atom_adjoint(init_atom, Atom::Var(outs[k]));
        }
    }

    // -----------------------------------------------------------------
    // map (§5.4): free array variables become accumulators.
    // -----------------------------------------------------------------

    fn rev_map(&mut self, stm: &Stm, lam: &Lambda, args: &[VarId]) {
        // Adjoints of the map outputs.
        let diff_out: Vec<usize> = (0..stm.pat.len())
            .filter(|j| stm.pat[*j].ty.is_differentiable())
            .collect();
        if diff_out.is_empty()
            || diff_out
                .iter()
                .all(|j| self.adjoint_of_pat(&stm.pat[*j]).is_none())
        {
            return;
        }
        let out_adj: Vec<VarId> = diff_out
            .iter()
            .map(|j| self.adjoint_or_zero(stm.pat[*j].var))
            .collect();

        // Free differentiable variables of the lambda.
        let mut fvs: Vec<VarId> = lam
            .free_vars()
            .into_iter()
            .filter(|v| self.b.ty_of(*v).is_differentiable())
            .collect();
        fvs.sort();
        let sfv: Vec<VarId> = fvs
            .iter()
            .copied()
            .filter(|v| self.b.ty_of(*v).is_scalar())
            .collect();
        let afv: Vec<VarId> = fvs
            .iter()
            .copied()
            .filter(|v| self.b.ty_of(*v).is_array())
            .collect();
        // Partition array free variables: those whose adjoint is already an
        // accumulator are passed through; the rest get wrapped in `withacc`.
        let mut wrap: Vec<VarId> = Vec::new();
        let mut pass: Vec<(VarId, VarId)> = Vec::new();
        for v in &afv {
            match self.adj.get(v).copied() {
                Some(a) if self.b.ty_of(a).is_acc() => pass.push((*v, a)),
                _ => wrap.push(*v),
            }
        }
        let wrap_adj: Vec<VarId> = wrap.iter().map(|v| self.adjoint_or_zero(*v)).collect();

        // Differentiable map arguments (positions).
        let diff_args: Vec<usize> = (0..args.len())
            .filter(|j| self.b.ty_of(args[*j]).is_differentiable())
            .collect();

        // ---- Build the inner reverse lambda -------------------------------
        // Parameters: one element per original argument, one adjoint element
        // per differentiable output, one accumulator per wrapped array free
        // variable, one per passed-through accumulator.
        let elem_params: Vec<Param> = args
            .iter()
            .map(|a| {
                let t = self.b.ty_of(*a).peel();
                Param::new(self.b.fresh(t), t)
            })
            .collect();
        let outadj_params: Vec<Param> = diff_out
            .iter()
            .map(|j| {
                let t = stm.pat[*j].ty.peel();
                Param::new(self.b.fresh(t), t)
            })
            .collect();
        let wrapacc_params: Vec<Param> = wrap
            .iter()
            .map(|v| {
                let t = self.b.ty_of(*v).to_acc();
                Param::new(self.b.fresh(t), t)
            })
            .collect();
        let passacc_params: Vec<Param> = pass
            .iter()
            .map(|(_, a)| {
                let t = self.b.ty_of(*a);
                Param::new(self.b.fresh(t), t)
            })
            .collect();

        let saved = self.adj.clone();
        self.b.begin_scope();
        // Bind the original lambda parameters to the element parameters so
        // the re-executed body refers to the right values.
        for (orig, elem) in lam.params.iter().zip(&elem_params) {
            self.b
                .push_stm(Stm::new(vec![*orig], Exp::Atom(Atom::Var(elem.var))));
        }
        // Adjoint environment for this scope: only the accumulators.
        self.adj = HashMap::new();
        for (v, p) in wrap.iter().zip(&wrapacc_params) {
            self.adj.insert(*v, p.var);
        }
        for ((v, _), p) in pass.iter().zip(&passacc_params) {
            self.adj.insert(*v, p.var);
        }
        // Seeds for the lambda results.
        let mut res_adj: Vec<Option<Atom>> = vec![None; lam.ret.len()];
        for (k, j) in diff_out.iter().enumerate() {
            res_adj[*j] = Some(Atom::Var(outadj_params[k].var));
        }
        // Wanted adjoints: lambda parameters (for differentiable arguments),
        // scalar free variables, then the accumulators.
        let mut wanted: Vec<VarId> = diff_args.iter().map(|j| lam.params[*j].var).collect();
        wanted.extend(sfv.iter().copied());
        wanted.extend(wrap.iter().copied());
        wanted.extend(pass.iter().map(|(v, _)| *v));
        let adjs = self.vjp_body(&lam.body, &res_adj, &wanted);
        let inner_stms = self.b.end_scope();
        self.adj = saved;

        let inner_result: Vec<Atom> = adjs.iter().map(|v| Atom::Var(*v)).collect();
        let inner_ret: Vec<Type> = adjs.iter().map(|v| self.b.ty_of(*v)).collect();
        let mut inner_params = elem_params.clone();
        inner_params.extend(outadj_params.iter().copied());
        inner_params.extend(wrapacc_params.iter().copied());
        inner_params.extend(passacc_params.iter().copied());
        let inner_lam = Lambda {
            params: inner_params,
            body: Body::new(inner_stms, inner_result),
            ret: inner_ret.clone(),
        };

        // Result layout of the inner map:
        //   [0 .. n_args)                adjoint elements of differentiable args
        //   [n_args .. +n_sfv)           per-element scalar free-var contributions
        //   [.. +n_wrap)                 wrapped accumulators
        //   [.. +n_pass)                 passed-through accumulators
        let n_arg = diff_args.len();
        let n_sfv = sfv.len();
        let n_wrap = wrap.len();

        // Output types of the map: lift arrays, keep accumulators.
        let map_out_tys: Vec<Type> = inner_ret
            .iter()
            .map(|t| if t.is_acc() { *t } else { t.lift() })
            .collect();

        if wrap.is_empty() {
            // No withacc needed: emit the map directly.
            let mut map_args: Vec<VarId> = args.to_vec();
            map_args.extend(out_adj.iter().copied());
            map_args.extend(pass.iter().map(|(_, a)| *a));
            let outs = self.b.bind(
                &map_out_tys,
                Exp::Map {
                    lam: inner_lam,
                    args: map_args,
                },
            );
            self.finish_map_adjoints(&outs, &diff_args, args, &sfv, n_arg);
            // Passed-through accumulators: keep the freshest handle.
            for (k, (v, _)) in pass.iter().enumerate() {
                self.adj.insert(*v, outs[n_arg + n_sfv + n_wrap + k]);
            }
        } else {
            // Wrap the map in withacc over the wrapped adjoint arrays.
            let acc_lam_params: Vec<Param> = wrap_adj
                .iter()
                .map(|a| {
                    let t = self.b.ty_of(*a).to_acc();
                    Param::new(self.b.fresh(t), t)
                })
                .collect();
            self.b.begin_scope();
            let mut map_args: Vec<VarId> = args.to_vec();
            map_args.extend(out_adj.iter().copied());
            map_args.extend(acc_lam_params.iter().map(|p| p.var));
            map_args.extend(pass.iter().map(|(_, a)| *a));
            let map_outs = self.b.bind(
                &map_out_tys,
                Exp::Map {
                    lam: inner_lam,
                    args: map_args,
                },
            );
            let with_stms = self.b.end_scope();
            // withacc lambda result: the wrapped accumulators first, then the
            // secondary (array) results.
            let mut acc_result: Vec<Atom> = Vec::new();
            let mut acc_ret: Vec<Type> = Vec::new();
            for k in 0..n_wrap {
                let v = map_outs[n_arg + n_sfv + k];
                acc_result.push(Atom::Var(v));
                acc_ret.push(self.b.ty_of(v));
            }
            for k in 0..n_arg + n_sfv {
                let v = map_outs[k];
                acc_result.push(Atom::Var(v));
                acc_ret.push(self.b.ty_of(v));
            }
            let with_lam = Lambda {
                params: acc_lam_params,
                body: Body::new(with_stms, acc_result),
                ret: acc_ret,
            };
            // withacc returns the updated arrays followed by the secondary
            // results.
            let mut with_out_tys: Vec<Type> = wrap_adj.iter().map(|a| self.b.ty_of(*a)).collect();
            for k in 0..n_arg + n_sfv {
                with_out_tys.push(self.b.ty_of(map_outs[k]));
            }
            let outs = self.b.bind(
                &with_out_tys,
                Exp::WithAcc {
                    arrs: wrap_adj.clone(),
                    lam: with_lam,
                },
            );
            // Updated adjoints of the wrapped free variables.
            for (k, v) in wrap.iter().enumerate() {
                self.adj.insert(*v, outs[k]);
            }
            let secondary: Vec<VarId> = outs[n_wrap..].to_vec();
            self.finish_map_adjoints(&secondary, &diff_args, args, &sfv, n_arg);
            // Passed-through accumulators keep their (shared) handles; the
            // buffer updates are already visible through them.
        }
    }

    /// Add the per-element argument adjoints and the summed scalar free
    /// variable contributions produced by a reverse map.
    fn finish_map_adjoints(
        &mut self,
        outs: &[VarId],
        diff_args: &[usize],
        args: &[VarId],
        sfv: &[VarId],
        n_arg: usize,
    ) {
        for (k, j) in diff_args.iter().enumerate() {
            self.add_to_adjoint(args[*j], Atom::Var(outs[k]));
        }
        for (k, v) in sfv.iter().enumerate() {
            let s = self.b.sum(outs[n_arg + k]);
            self.add_to_adjoint(*v, Atom::Var(s));
        }
    }

    // -----------------------------------------------------------------
    // reduce (§5.1)
    // -----------------------------------------------------------------

    fn rev_reduce_add(&mut self, stm: &Stm, arr: VarId) {
        let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        let n = self.b.bind1(Type::I64, Exp::Len(arr));
        let rep = self.b.bind1(
            Type::arr_f64(1),
            Exp::Replicate {
                n: Atom::Var(n),
                val: Atom::Var(adj),
            },
        );
        self.add_to_adjoint(arr, Atom::Var(rep));
    }

    fn rev_reduce_minmax(&mut self, stm: &Stm, iext: VarId) {
        let arr = match &stm.exp {
            Exp::Reduce { args, .. } => args[0],
            _ => unreachable!(),
        };
        let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        self.add_index_to_adjoint(arr, &[Atom::Var(iext)], Atom::Var(adj));
    }

    /// The general reduce rule: exclusive prefix products from the left and
    /// right, then a map applying the operator's vjp per element (§5.1).
    fn rev_reduce_general(&mut self, stm: &Stm, lam: &Lambda, neutral: &Atom, arr: VarId) {
        let Some(yadj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        let ne = *neutral;
        let n = self.b.bind1(Type::I64, Exp::Len(arr));
        // ls_i = a_0 ⊙ ... ⊙ a_{i-1}   (exclusive scan from the left)
        let mut ren = Renamer::new();
        let lam1 = ren.lambda(&mut self.b, lam);
        let incl = self.b.bind1(
            Type::arr_f64(1),
            Exp::Scan {
                lam: lam1,
                neutral: vec![ne],
                args: vec![arr],
            },
        );
        let iot = self.b.bind1(Type::arr_i64(1), Exp::Iota(Atom::Var(n)));
        let ls = self.exclusive_from_inclusive(incl, iot, ne, true, n);
        // rs_i = a_{i+1} ⊙ ... ⊙ a_{n-1}  (exclusive scan from the right,
        // computed as a flipped-operator scan over the reversed array).
        let rarr = self.b.bind1(Type::arr_f64(1), Exp::Reverse(arr));
        let flipped = self.flip_operator(lam);
        let rincl = self.b.bind1(
            Type::arr_f64(1),
            Exp::Scan {
                lam: flipped,
                neutral: vec![ne],
                args: vec![rarr],
            },
        );
        let rs = self.exclusive_from_right(rincl, iot, ne, n);
        // Per-element contribution: vjp of (\l a r -> (l ⊙ a) ⊙ r) w.r.t. a.
        let contrib = self.map_reduce_contrib(lam, ls, arr, rs, yadj);
        self.add_to_adjoint(arr, Atom::Var(contrib));
    }

    /// Build `map (\i incl -> if i == 0 then ne else incl[i-1]) (iota n)`
    /// (the exclusive scan from the inclusive one).
    fn exclusive_from_inclusive(
        &mut self,
        incl: VarId,
        iot: VarId,
        ne: Atom,
        _from_left: bool,
        _n: VarId,
    ) -> VarId {
        let pi = self.b.fresh(Type::I64);
        self.b.begin_scope();
        let is_first = self.b.eq(Atom::Var(pi), Atom::i64(0));
        let im1 = self.b.isub(Atom::Var(pi), Atom::i64(1));
        let clamped = self
            .b
            .bind1(Type::I64, Exp::BinOp(BinOp::Max, im1, Atom::i64(0)));
        let prev = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: incl,
                idx: vec![Atom::Var(clamped)],
            },
        );
        let out = self.b.select(is_first, ne, Atom::Var(prev));
        let stms = self.b.end_scope();
        let lam = Lambda {
            params: vec![Param::new(pi, Type::I64)],
            body: Body::new(stms, vec![out]),
            ret: vec![Type::F64],
        };
        self.b.bind1(
            Type::arr_f64(1),
            Exp::Map {
                lam,
                args: vec![iot],
            },
        )
    }

    /// rs_i = a_{i+1} ⊙ ... ⊙ a_{n-1} from the inclusive flipped scan of the
    /// reversed array: rs_i = rincl[n-2-i] for i < n-1, ne for i = n-1.
    fn exclusive_from_right(&mut self, rincl: VarId, iot: VarId, ne: Atom, n: VarId) -> VarId {
        let pi = self.b.fresh(Type::I64);
        self.b.begin_scope();
        let nm1 = self.b.isub(Atom::Var(n), Atom::i64(1));
        let is_last = self.b.eq(Atom::Var(pi), nm1);
        let nm2 = self.b.isub(Atom::Var(n), Atom::i64(2));
        let idx = self.b.isub(nm2, Atom::Var(pi));
        let clamped = self
            .b
            .bind1(Type::I64, Exp::BinOp(BinOp::Max, idx, Atom::i64(0)));
        let v = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: rincl,
                idx: vec![Atom::Var(clamped)],
            },
        );
        let out = self.b.select(is_last, ne, Atom::Var(v));
        let stms = self.b.end_scope();
        let lam = Lambda {
            params: vec![Param::new(pi, Type::I64)],
            body: Body::new(stms, vec![out]),
            ret: vec![Type::F64],
        };
        self.b.bind1(
            Type::arr_f64(1),
            Exp::Map {
                lam,
                args: vec![iot],
            },
        )
    }

    /// `λ x y -> y ⊙ x` for a binary scalar operator lambda.
    fn flip_operator(&mut self, lam: &Lambda) -> Lambda {
        let mut ren = Renamer::new();
        let fresh = ren.lambda(&mut self.b, lam);
        let px = self.b.fresh(Type::F64);
        let py = self.b.fresh(Type::F64);
        let mut stms = vec![
            Stm::new(vec![fresh.params[0]], Exp::Atom(Atom::Var(py))),
            Stm::new(vec![fresh.params[1]], Exp::Atom(Atom::Var(px))),
        ];
        stms.extend(fresh.body.stms);
        Lambda {
            params: vec![Param::new(px, Type::F64), Param::new(py, Type::F64)],
            body: Body::new(stms, fresh.body.result),
            ret: vec![Type::F64],
        }
    }

    /// `map (\l a r ybar -> vjp_a((l ⊙ a) ⊙ r) ybar) ls as rs` with `ybar`
    /// a free scalar.
    fn map_reduce_contrib(
        &mut self,
        lam: &Lambda,
        ls: VarId,
        arr: VarId,
        rs: VarId,
        yadj: VarId,
    ) -> VarId {
        let pl = self.b.fresh(Type::F64);
        let pa = self.b.fresh(Type::F64);
        let pr = self.b.fresh(Type::F64);
        // Compose (l ⊙ a) ⊙ r as an inline body with fresh copies of the
        // operator, then differentiate it w.r.t. `a` with seed ybar.
        let mut ren1 = Renamer::new();
        let op1 = ren1.lambda(&mut self.b, lam);
        let mut ren2 = Renamer::new();
        let op2 = ren2.lambda(&mut self.b, lam);
        let mut stms: Vec<Stm> = vec![
            Stm::new(vec![op1.params[0]], Exp::Atom(Atom::Var(pl))),
            Stm::new(vec![op1.params[1]], Exp::Atom(Atom::Var(pa))),
        ];
        stms.extend(op1.body.stms.clone());
        stms.push(Stm::new(vec![op2.params[0]], Exp::Atom(op1.body.result[0])));
        stms.push(Stm::new(vec![op2.params[1]], Exp::Atom(Atom::Var(pr))));
        stms.extend(op2.body.stms.clone());
        let mini = Body::new(stms, vec![op2.body.result[0]]);

        let saved = self.adj.clone();
        self.b.begin_scope();
        self.adj = HashMap::new();
        let adjs = self.vjp_body(&mini, &[Some(Atom::Var(yadj))], &[pa]);
        let inner_stms = self.b.end_scope();
        self.adj = saved;
        let inner = Lambda {
            params: vec![
                Param::new(pl, Type::F64),
                Param::new(pa, Type::F64),
                Param::new(pr, Type::F64),
            ],
            body: Body::new(inner_stms, vec![Atom::Var(adjs[0])]),
            ret: vec![Type::F64],
        };
        self.b.bind1(
            Type::arr_f64(1),
            Exp::Map {
                lam: inner,
                args: vec![ls, arr, rs],
            },
        )
    }

    // -----------------------------------------------------------------
    // scan (§5.2)
    // -----------------------------------------------------------------

    fn rev_scan_add(&mut self, stm: &Stm, arr: VarId) {
        let Some(adj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        // as̄ += reverse (scan (+) 0 (reverse ȳs))
        let r = self.b.bind1(Type::arr_f64(1), Exp::Reverse(adj));
        let s = self.b.scan_add(r);
        let rr = self.b.bind1(Type::arr_f64(1), Exp::Reverse(s));
        self.add_to_adjoint(arr, Atom::Var(rr));
    }

    /// The general scan rule: solve the backward linear recurrence
    /// `r̄s_i = ȳs_i + c_i · r̄s_{i+1}` with a scan over linear-function
    /// composition (`lin_o`), then map the operator's vjp over the elements.
    fn rev_scan_general(&mut self, stm: &Stm, lam: &Lambda, _neutral: &Atom, arr: VarId) {
        let Some(yadj) = self.adjoint_of_pat(&stm.pat[0]) else {
            return;
        };
        let ys = stm.pat[0].var; // primal scan result, in scope
        let n = self.b.bind1(Type::I64, Exp::Len(arr));
        let iot = self.b.bind1(Type::arr_i64(1), Exp::Iota(Atom::Var(n)));
        let nm1 = self.b.isub(Atom::Var(n), Atom::i64(1));

        // (ds, cs): ds_i = ȳs_i, c_i = ∂(ys_i ⊙ as_{i+1})/∂ys_i, except at
        // the last position where (0, 1).
        let pi = self.b.fresh(Type::I64);
        let saved = self.adj.clone();
        self.b.begin_scope();
        let is_last = self.b.eq(Atom::Var(pi), nm1);
        let d_here = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: yadj,
                idx: vec![Atom::Var(pi)],
            },
        );
        let y_here = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: ys,
                idx: vec![Atom::Var(pi)],
            },
        );
        let ip1 = self.b.iadd(Atom::Var(pi), Atom::i64(1));
        let ip1c = self.b.bind1(Type::I64, Exp::BinOp(BinOp::Min, ip1, nm1));
        let a_next = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr,
                idx: vec![Atom::Var(ip1c)],
            },
        );
        // c = ∂(y ⊙ a_next)/∂y with seed 1.
        self.adj = HashMap::new();
        let (dx, _dy) = self.op_partials(lam, Atom::Var(y_here), Atom::Var(a_next), Atom::f64(1.0));
        self.adj = saved.clone();
        let d_out = self.b.select(is_last, Atom::f64(0.0), Atom::Var(d_here));
        let c_out = self.b.select(is_last, Atom::f64(1.0), Atom::Var(dx));
        let stms = self.b.end_scope();
        let dclam = Lambda {
            params: vec![Param::new(pi, Type::I64)],
            body: Body::new(stms, vec![d_out, c_out]),
            ret: vec![Type::F64, Type::F64],
        };
        let dc = self.b.bind(
            &[Type::arr_f64(1), Type::arr_f64(1)],
            Exp::Map {
                lam: dclam,
                args: vec![iot],
            },
        );
        let (ds, cs) = (dc[0], dc[1]);

        // Solve the recurrence with a scan of linear-function composition
        // over the reversed sequences.
        let rds = self.b.bind1(Type::arr_f64(1), Exp::Reverse(ds));
        let rcs = self.b.bind1(Type::arr_f64(1), Exp::Reverse(cs));
        let lin = self.lin_o_operator();
        let scanned = self.b.bind(
            &[Type::arr_f64(1), Type::arr_f64(1)],
            Exp::Scan {
                lam: lin,
                neutral: vec![Atom::f64(0.0), Atom::f64(1.0)],
                args: vec![rds, rcs],
            },
        );
        // r̄s = reverse (map (\d c -> d + c * ȳs[n-1]) scanned)
        let ylast = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: yadj,
                idx: vec![nm1],
            },
        );
        let pd = self.b.fresh(Type::F64);
        let pc = self.b.fresh(Type::F64);
        self.b.begin_scope();
        let t = self.b.fmul(Atom::Var(pc), Atom::Var(ylast));
        let o = self.b.fadd(Atom::Var(pd), t);
        let stms = self.b.end_scope();
        let finlam = Lambda {
            params: vec![Param::new(pd, Type::F64), Param::new(pc, Type::F64)],
            body: Body::new(stms, vec![o]),
            ret: vec![Type::F64],
        };
        let rbar_rev = self.b.bind1(
            Type::arr_f64(1),
            Exp::Map {
                lam: finlam,
                args: vec![scanned[0], scanned[1]],
            },
        );
        let rbar = self.b.bind1(Type::arr_f64(1), Exp::Reverse(rbar_rev));

        // ās_i += if i == 0 then r̄s_0 else ∂(ys_{i-1} ⊙ a_i)/∂a_i · r̄s_i
        let qi = self.b.fresh(Type::I64);
        let qa = self.b.fresh(Type::F64);
        self.b.begin_scope();
        let is_first = self.b.eq(Atom::Var(qi), Atom::i64(0));
        let im1 = self.b.isub(Atom::Var(qi), Atom::i64(1));
        let im1c = self
            .b
            .bind1(Type::I64, Exp::BinOp(BinOp::Max, im1, Atom::i64(0)));
        let y_prev = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: ys,
                idx: vec![Atom::Var(im1c)],
            },
        );
        let r_here = self.b.bind1(
            Type::F64,
            Exp::Index {
                arr: rbar,
                idx: vec![Atom::Var(qi)],
            },
        );
        self.adj = HashMap::new();
        let (_dx, dy) = self.op_partials(lam, Atom::Var(y_prev), Atom::Var(qa), Atom::Var(r_here));
        self.adj = saved.clone();
        let out = self.b.select(is_first, Atom::Var(r_here), Atom::Var(dy));
        let stms = self.b.end_scope();
        self.adj = saved;
        let contriblam = Lambda {
            params: vec![Param::new(qi, Type::I64), Param::new(qa, Type::F64)],
            body: Body::new(stms, vec![out]),
            ret: vec![Type::F64],
        };
        let contrib = self.b.bind1(
            Type::arr_f64(1),
            Exp::Map {
                lam: contriblam,
                args: vec![iot, arr],
            },
        );
        self.add_to_adjoint(arr, Atom::Var(contrib));
    }

    /// The `lin_o` operator of §5.2: `(d1,c1) ⊕ (d2,c2) = (d2 + c2·d1, c2·c1)`.
    fn lin_o_operator(&mut self) -> Lambda {
        let d1 = self.b.fresh(Type::F64);
        let c1 = self.b.fresh(Type::F64);
        let d2 = self.b.fresh(Type::F64);
        let c2 = self.b.fresh(Type::F64);
        self.b.begin_scope();
        let t = self.b.fmul(Atom::Var(c2), Atom::Var(d1));
        let d = self.b.fadd(Atom::Var(d2), t);
        let c = self.b.fmul(Atom::Var(c2), Atom::Var(c1));
        let stms = self.b.end_scope();
        Lambda {
            params: vec![
                Param::new(d1, Type::F64),
                Param::new(c1, Type::F64),
                Param::new(d2, Type::F64),
                Param::new(c2, Type::F64),
            ],
            body: Body::new(stms, vec![d, c]),
            ret: vec![Type::F64, Type::F64],
        }
    }

    /// Differentiate a binary scalar operator at the point `(x, y)` with the
    /// given output seed, returning the two partial-derivative variables.
    /// Emits the forward and reverse code for the operator inline in the
    /// current scope. The caller manages `self.adj`.
    fn op_partials(&mut self, lam: &Lambda, x: Atom, y: Atom, seed: Atom) -> (VarId, VarId) {
        let mut ren = Renamer::new();
        let fresh = ren.lambda(&mut self.b, lam);
        let px = fresh.params[0];
        let py = fresh.params[1];
        let mut stms = vec![
            Stm::new(vec![px], Exp::Atom(x)),
            Stm::new(vec![py], Exp::Atom(y)),
        ];
        stms.extend(fresh.body.stms.clone());
        let mini = Body::new(stms, vec![fresh.body.result[0]]);
        let adjs = self.vjp_body(&mini, &[Some(seed)], &[px.var, py.var]);
        (adjs[0], adjs[1])
    }
}
