//! The baseline simplification repertoire: dead-code elimination, copy
//! propagation and constant folding, plus their fixed-point combination
//! [`simplify`].
//!
//! Reverse-mode AD by redundant execution deliberately emits code that
//! re-executes enclosing scopes; the paper's claim (§4.1) is that for
//! perfectly-nested scopes those re-executed bindings are dead and are
//! removed by ordinary compiler simplification. The `counted` variants
//! report how many rewrites fired, feeding the pass-statistics layer
//! (`fir-api`'s `PassPipeline`).

use std::collections::{BTreeSet, HashMap};

use fir::free_vars::FreeVars;
use fir::ir::{Atom, BinOp, Body, Const, Exp, Fun, Lambda, Param, Stm, UnOp, VarId};

/// Apply the full simplification pipeline until a fixed point (bounded by a
/// small iteration limit).
pub fn simplify(fun: &Fun) -> Fun {
    let mut cur = fun.clone();
    for _ in 0..8 {
        let folded = constant_fold(&copy_propagation(&cur));
        let next = dead_code_elimination(&folded);
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

// ---------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------

/// Remove bindings whose variables are never used. Statements that merely
/// open nested scopes are themselves removed when all their results are
/// dead; side-effect-free by construction (the IR is pure).
pub fn dead_code_elimination(fun: &Fun) -> Fun {
    dead_code_elimination_counted(fun).0
}

/// [`dead_code_elimination`], also returning the number of removed
/// statements (at any nesting depth).
pub fn dead_code_elimination_counted(fun: &Fun) -> (Fun, usize) {
    let mut removed = 0;
    let body = dce_body(&fun.body, &mut removed);
    (
        Fun {
            name: fun.name.clone(),
            params: fun.params.clone(),
            body,
            ret: fun.ret.clone(),
        },
        removed,
    )
}

fn dce_body(body: &Body, removed: &mut usize) -> Body {
    // Process statements bottom-up, keeping those with at least one live
    // binding.
    let mut live: BTreeSet<VarId> = BTreeSet::new();
    for a in &body.result {
        if let Atom::Var(v) = a {
            live.insert(*v);
        }
    }
    let mut kept: Vec<Stm> = Vec::new();
    for stm in body.stms.iter().rev() {
        let is_live = stm.pat.iter().any(|p| live.contains(&p.var));
        if !is_live {
            *removed += 1;
            continue;
        }
        let exp = dce_exp(&stm.exp, removed);
        for v in exp.free_vars() {
            live.insert(v);
        }
        kept.push(Stm::new(stm.pat.clone(), exp));
    }
    kept.reverse();
    Body::new(kept, body.result.clone())
}

fn dce_lambda(lam: &Lambda, removed: &mut usize) -> Lambda {
    Lambda {
        params: lam.params.clone(),
        body: dce_body(&lam.body, removed),
        ret: lam.ret.clone(),
    }
}

/// Drop the stream arguments of a `map` lambda that its body no longer
/// reads, with their parameters. Accumulators stay, and so does one
/// array, so the extent is still defined.
fn dce_streams(lam: Lambda, args: &[VarId], removed: &mut usize) -> (Lambda, Vec<VarId>) {
    let read = lam.body.free_vars();
    let reads_a_stream = lam
        .params
        .iter()
        .any(|p| !p.ty.is_acc() && read.contains(&p.var));
    let first = lam.params.iter().position(|p| !p.ty.is_acc());
    let keep = |i: usize, p: &Param| {
        p.ty.is_acc() || read.contains(&p.var) || (!reads_a_stream && Some(i) == first)
    };
    let (params, args): (Vec<Param>, Vec<VarId>) = (lam.params.iter().zip(args).enumerate())
        .filter(|(i, (p, _))| keep(*i, p))
        .map(|(_, (p, a))| (*p, *a))
        .unzip();
    *removed += lam.params.len() - params.len();
    (Lambda { params, ..lam }, args)
}

fn dce_exp(e: &Exp, removed: &mut usize) -> Exp {
    match e {
        Exp::If {
            cond,
            then_br,
            else_br,
        } => Exp::If {
            cond: *cond,
            then_br: dce_body(then_br, removed),
            else_br: dce_body(else_br, removed),
        },
        Exp::Loop {
            params,
            index,
            count,
            body,
        } => Exp::Loop {
            params: params.clone(),
            index: *index,
            count: *count,
            body: dce_body(body, removed),
        },
        Exp::Map { lam, args } => {
            let (lam, args) = dce_streams(dce_lambda(lam, removed), args, removed);
            Exp::Map { lam, args }
        }
        Exp::Reduce { lam, neutral, args } => Exp::Reduce {
            lam: dce_lambda(lam, removed),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::Scan { lam, neutral, args } => Exp::Scan {
            lam: dce_lambda(lam, removed),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::Redomap {
            red_lam,
            map_lam,
            neutral,
            args,
        } => {
            let (map_lam, args) = dce_streams(dce_lambda(map_lam, removed), args, removed);
            Exp::Redomap {
                red_lam: dce_lambda(red_lam, removed),
                map_lam,
                neutral: neutral.clone(),
                args,
            }
        }
        Exp::WithAcc { arrs, lam } => Exp::WithAcc {
            arrs: arrs.clone(),
            lam: dce_lambda(lam, removed),
        },
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// Copy propagation
// ---------------------------------------------------------------------

/// Replace uses of variables bound by `let y = x` with `x` directly, and
/// a gather `row[j]` on a `map` row with the read `xs[i, j]` of the mapped
/// array it is an element of ([`fir::lower::forward_row_reads`]) — either
/// way a read is forwarded to its source, and the second stops the
/// executors copying a row out of `xs` per element only to read a cell.
///
/// Scope-correct under shadowing: the `vjp` transformation legally re-emits
/// statements with their original binder ids into sibling scopes, so an
/// alias recorded in one scope must neither survive a rebinding of its name
/// nor leak into sibling scopes. Nested scopes therefore work on a copy of
/// the substitution, and any kept statement removes its binders from it.
pub fn copy_propagation(fun: &Fun) -> Fun {
    copy_propagation_counted(fun).0
}

/// [`copy_propagation`], also returning the number of aliases eliminated
/// plus the number of row reads forwarded.
pub fn copy_propagation_counted(fun: &Fun) -> (Fun, usize) {
    let (fun, mut count) = fir::lower::forward_row_reads_counted(fun);
    let mut subst: HashMap<VarId, Atom> = HashMap::new();
    let body = cp_body(&fun.body, &mut subst, &mut count);
    (
        Fun {
            name: fun.name.clone(),
            params: fun.params.clone(),
            body,
            ret: fun.ret.clone(),
        },
        count,
    )
}

fn cp_atom(a: &Atom, subst: &HashMap<VarId, Atom>) -> Atom {
    match a {
        Atom::Var(v) => subst.get(v).copied().unwrap_or(*a),
        c => *c,
    }
}

fn cp_body(body: &Body, subst: &mut HashMap<VarId, Atom>, count: &mut usize) -> Body {
    let mut stms = Vec::new();
    for stm in &body.stms {
        let exp = cp_exp(&stm.exp, subst, count);
        if let Exp::Atom(a) = &exp {
            if stm.pat.len() == 1 {
                subst.insert(stm.pat[0].var, *a);
                *count += 1;
                continue;
            }
        }
        // A kept statement rebinds its pattern: stale aliases for those
        // names (from an enclosing or earlier scope) must not apply to
        // later uses.
        for p in &stm.pat {
            subst.remove(&p.var);
        }
        stms.push(Stm::new(stm.pat.clone(), exp));
    }
    let result = body.result.iter().map(|a| cp_atom(a, subst)).collect();
    Body::new(stms, result)
}

/// Run a nested scope on a copy of the substitution with the scope's own
/// binders removed, so nothing it records leaks to siblings.
fn cp_child_body(
    body: &Body,
    binders: &[VarId],
    subst: &HashMap<VarId, Atom>,
    count: &mut usize,
) -> Body {
    let mut inner = subst.clone();
    for v in binders {
        inner.remove(v);
    }
    cp_body(body, &mut inner, count)
}

fn cp_var(v: VarId, subst: &HashMap<VarId, Atom>) -> VarId {
    match subst.get(&v) {
        Some(Atom::Var(w)) => *w,
        _ => v,
    }
}

fn cp_lambda(lam: &Lambda, subst: &HashMap<VarId, Atom>, count: &mut usize) -> Lambda {
    let binders: Vec<VarId> = lam.params.iter().map(|p| p.var).collect();
    Lambda {
        params: lam.params.clone(),
        body: cp_child_body(&lam.body, &binders, subst, count),
        ret: lam.ret.clone(),
    }
}

fn cp_exp(e: &Exp, subst: &HashMap<VarId, Atom>, count: &mut usize) -> Exp {
    let at = |a: &Atom, s: &HashMap<VarId, Atom>| cp_atom(a, s);
    match e {
        Exp::Atom(a) => Exp::Atom(at(a, subst)),
        Exp::UnOp(op, a) => Exp::UnOp(*op, at(a, subst)),
        Exp::BinOp(op, a, b) => Exp::BinOp(*op, at(a, subst), at(b, subst)),
        Exp::Select { cond, t, f } => Exp::Select {
            cond: at(cond, subst),
            t: at(t, subst),
            f: at(f, subst),
        },
        Exp::Index { arr, idx } => Exp::Index {
            arr: cp_var(*arr, subst),
            idx: idx.iter().map(|a| at(a, subst)).collect(),
        },
        Exp::Update { arr, idx, val } => Exp::Update {
            arr: cp_var(*arr, subst),
            idx: idx.iter().map(|a| at(a, subst)).collect(),
            val: at(val, subst),
        },
        Exp::Len(v) => Exp::Len(cp_var(*v, subst)),
        Exp::Iota(n) => Exp::Iota(at(n, subst)),
        Exp::Replicate { n, val } => Exp::Replicate {
            n: at(n, subst),
            val: at(val, subst),
        },
        Exp::Reverse(v) => Exp::Reverse(cp_var(*v, subst)),
        Exp::Copy(v) => Exp::Copy(cp_var(*v, subst)),
        Exp::If {
            cond,
            then_br,
            else_br,
        } => Exp::If {
            cond: at(cond, subst),
            then_br: cp_child_body(then_br, &[], subst, count),
            else_br: cp_child_body(else_br, &[], subst, count),
        },
        Exp::Loop {
            params,
            index,
            count: loop_count,
            body,
        } => {
            let mut binders: Vec<VarId> = params.iter().map(|(p, _)| p.var).collect();
            binders.push(*index);
            Exp::Loop {
                params: params
                    .iter()
                    .map(|(p, init)| (*p, at(init, subst)))
                    .collect(),
                index: *index,
                count: at(loop_count, subst),
                body: cp_child_body(body, &binders, subst, count),
            }
        }
        Exp::Map { lam, args } => Exp::Map {
            lam: cp_lambda(lam, subst, count),
            args: args.iter().map(|v| cp_var(*v, subst)).collect(),
        },
        Exp::Reduce { lam, neutral, args } => Exp::Reduce {
            lam: cp_lambda(lam, subst, count),
            neutral: neutral.iter().map(|a| at(a, subst)).collect(),
            args: args.iter().map(|v| cp_var(*v, subst)).collect(),
        },
        Exp::Scan { lam, neutral, args } => Exp::Scan {
            lam: cp_lambda(lam, subst, count),
            neutral: neutral.iter().map(|a| at(a, subst)).collect(),
            args: args.iter().map(|v| cp_var(*v, subst)).collect(),
        },
        Exp::Redomap {
            red_lam,
            map_lam,
            neutral,
            args,
        } => Exp::Redomap {
            red_lam: cp_lambda(red_lam, subst, count),
            map_lam: cp_lambda(map_lam, subst, count),
            neutral: neutral.iter().map(|a| at(a, subst)).collect(),
            args: args.iter().map(|v| cp_var(*v, subst)).collect(),
        },
        Exp::Hist {
            op,
            num_bins,
            inds,
            vals,
        } => Exp::Hist {
            op: *op,
            num_bins: at(num_bins, subst),
            inds: cp_var(*inds, subst),
            vals: cp_var(*vals, subst),
        },
        Exp::Scatter { dest, inds, vals } => Exp::Scatter {
            dest: cp_var(*dest, subst),
            inds: cp_var(*inds, subst),
            vals: cp_var(*vals, subst),
        },
        Exp::WithAcc { arrs, lam } => Exp::WithAcc {
            arrs: arrs.iter().map(|v| cp_var(*v, subst)).collect(),
            lam: cp_lambda(lam, subst, count),
        },
        Exp::UpdAcc { acc, idx, val } => Exp::UpdAcc {
            acc: cp_var(*acc, subst),
            idx: idx.iter().map(|a| at(a, subst)).collect(),
            val: at(val, subst),
        },
    }
}

// ---------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------

/// Fold scalar operations on constants and simplify additions with zero
/// and multiplications/divisions with one (which the adjoint code produces
/// in abundance). `x * 0.0` is deliberately *not* folded to `0.0` — that
/// identity is not value-preserving (`inf * 0 = NaN`).
pub fn constant_fold(fun: &Fun) -> Fun {
    constant_fold_counted(fun).0
}

/// [`constant_fold`], also returning the number of folds fired.
pub fn constant_fold_counted(fun: &Fun) -> (Fun, usize) {
    let mut count = 0;
    let body = cf_body(&fun.body, &mut count);
    (
        Fun {
            name: fun.name.clone(),
            params: fun.params.clone(),
            body,
            ret: fun.ret.clone(),
        },
        count,
    )
}

fn cf_body(body: &Body, count: &mut usize) -> Body {
    let stms = body
        .stms
        .iter()
        .map(|s| Stm::new(s.pat.clone(), cf_exp(&s.exp, count)))
        .collect();
    Body::new(stms, body.result.clone())
}

fn cf_lambda(lam: &Lambda, count: &mut usize) -> Lambda {
    Lambda {
        params: lam.params.clone(),
        body: cf_body(&lam.body, count),
        ret: lam.ret.clone(),
    }
}

fn f64_of(a: &Atom) -> Option<f64> {
    match a {
        Atom::Const(Const::F64(x)) => Some(*x),
        _ => None,
    }
}

// The `x if x == 0.0` guards are deliberate: float-literal patterns would
// be equivalent here but read worse for the 0.0/1.0 algebraic identities.
#[allow(clippy::redundant_guards)]
fn cf_exp(e: &Exp, count: &mut usize) -> Exp {
    match e {
        Exp::BinOp(op, a, b) => {
            if let (Some(x), Some(y)) = (f64_of(a), f64_of(b)) {
                let folded = match op {
                    BinOp::Add => Some(x + y),
                    BinOp::Sub => Some(x - y),
                    BinOp::Mul => Some(x * y),
                    BinOp::Div => Some(x / y),
                    BinOp::Min => Some(x.min(y)),
                    BinOp::Max => Some(x.max(y)),
                    BinOp::Pow => Some(x.powf(y)),
                    _ => None,
                };
                if let Some(v) = folded {
                    *count += 1;
                    return Exp::Atom(Atom::f64(v));
                }
            }
            // Note the identities that are deliberately *absent*:
            // `x * 0.0 -> 0.0` is not value-preserving (`inf * 0 = NaN`,
            // `NaN * 0 = NaN`, `-x * 0 = -0.0`), and `x - x`/`x / x` never
            // fold for the same reason. The zero identities are restricted
            // to the operand signs that are *bitwise* exact under
            // round-to-nearest: `x + (-0.0) -> x` holds for every `x`
            // (including `x = -0.0`), but `x + (+0.0)` clears a negative
            // zero's sign bit, so a positive-zero addend never folds.
            // Dually, `x - (+0.0) -> x` (bit pattern 0) is exact while
            // `x - (-0.0)` would clear the sign of `x = -0.0`.
            let neg_zero = (-0.0f64).to_bits();
            let simplified = match (op, f64_of(a), f64_of(b)) {
                (BinOp::Add, Some(x), _) if x.to_bits() == neg_zero => Some(Exp::Atom(*b)),
                (BinOp::Add, _, Some(y)) if y.to_bits() == neg_zero => Some(Exp::Atom(*a)),
                (BinOp::Sub, _, Some(y)) if y.to_bits() == 0 => Some(Exp::Atom(*a)),
                (BinOp::Mul, Some(x), _) if x == 1.0 => Some(Exp::Atom(*b)),
                (BinOp::Mul, _, Some(y)) if y == 1.0 => Some(Exp::Atom(*a)),
                (BinOp::Div, _, Some(y)) if y == 1.0 => Some(Exp::Atom(*a)),
                _ => None,
            };
            match simplified {
                Some(s) => {
                    *count += 1;
                    s
                }
                None => e.clone(),
            }
        }
        Exp::UnOp(op, a) => {
            if let Some(x) = f64_of(a) {
                let folded = match op {
                    UnOp::Neg => Some(-x),
                    UnOp::Exp => Some(x.exp()),
                    UnOp::Log => Some(x.ln()),
                    UnOp::Sqrt => Some(x.sqrt()),
                    UnOp::Sin => Some(x.sin()),
                    UnOp::Cos => Some(x.cos()),
                    UnOp::Abs => Some(x.abs()),
                    _ => None,
                };
                if let Some(v) = folded {
                    *count += 1;
                    return Exp::Atom(Atom::f64(v));
                }
            }
            e.clone()
        }
        Exp::Select { cond, t, f } => match cond {
            Atom::Const(Const::Bool(true)) => {
                *count += 1;
                Exp::Atom(*t)
            }
            Atom::Const(Const::Bool(false)) => {
                *count += 1;
                Exp::Atom(*f)
            }
            _ => e.clone(),
        },
        Exp::If {
            cond,
            then_br,
            else_br,
        } => Exp::If {
            cond: *cond,
            then_br: cf_body(then_br, count),
            else_br: cf_body(else_br, count),
        },
        Exp::Loop {
            params,
            index,
            count: loop_count,
            body,
        } => Exp::Loop {
            params: params.clone(),
            index: *index,
            count: *loop_count,
            body: cf_body(body, count),
        },
        Exp::Map { lam, args } => Exp::Map {
            lam: cf_lambda(lam, count),
            args: args.clone(),
        },
        Exp::Reduce { lam, neutral, args } => Exp::Reduce {
            lam: cf_lambda(lam, count),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::Scan { lam, neutral, args } => Exp::Scan {
            lam: cf_lambda(lam, count),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::Redomap {
            red_lam,
            map_lam,
            neutral,
            args,
        } => Exp::Redomap {
            red_lam: cf_lambda(red_lam, count),
            map_lam: cf_lambda(map_lam, count),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::WithAcc { arrs, lam } => Exp::WithAcc {
            arrs: arrs.clone(),
            lam: cf_lambda(lam, count),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_stms;
    use fir::builder::Builder;
    use fir::typecheck::check_fun;
    use fir::types::Type;
    use interp::{Interp, Value};

    fn sum_squares() -> Fun {
        let mut b = Builder::new();
        b.build_fun("sumsq", &[Type::arr_f64(1)], |b, ps| {
            // A dead binding and a copy that the passes should remove.
            let dead = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fadd(es[0].into(), Atom::f64(0.0))]
            });
            let _ = dead;
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let one = b.fmul(es[0].into(), Atom::f64(1.0));
                vec![b.fmul(one, es[0].into())]
            });
            let alias = b.bind1(Type::arr_f64(1), Exp::Atom(Atom::Var(sq)));
            vec![Atom::Var(b.sum(alias))]
        })
    }

    #[test]
    fn simplify_preserves_semantics_and_removes_code() {
        let fun = sum_squares();
        let simplified = simplify(&fun);
        check_fun(&simplified).unwrap();
        assert!(count_stms(&simplified) < count_stms(&fun));
        let args = [Value::from(vec![1.0, 2.0, 3.0])];
        let a = Interp::sequential().run(&fun, &args)[0].as_f64();
        let b = Interp::sequential().run(&simplified, &args)[0].as_f64();
        assert_eq!(a, b);
    }

    #[test]
    fn add_negative_zero_folds_and_positive_zero_does_not() {
        // `x + (-0.0) -> x` is bitwise-exact for every x under
        // round-to-nearest, so the fold fires and the binding vanishes.
        let mut b = Builder::new();
        let neg = b.build_fun("addneg", &[Type::F64], |b, ps| {
            vec![b.fadd(ps[0].into(), Atom::f64(-0.0))]
        });
        let simplified = simplify(&neg);
        check_fun(&simplified).unwrap();
        assert!(
            count_stms(&simplified) < count_stms(&neg),
            "x + (-0.0) must fold away"
        );
        let r = Interp::sequential().run(&simplified, &[Value::F64(-0.0)])[0].as_f64();
        assert_eq!(r.to_bits(), (-0.0f64).to_bits());

        // `x + (+0.0)` clears the sign of x = -0.0, so it must survive.
        let mut b = Builder::new();
        let pos = b.build_fun("addpos", &[Type::F64], |b, ps| {
            vec![b.fadd(ps[0].into(), Atom::f64(0.0))]
        });
        let simplified = simplify(&pos);
        check_fun(&simplified).unwrap();
        assert_eq!(
            count_stms(&simplified),
            count_stms(&pos),
            "x + (+0.0) must NOT fold: it would pin -0.0's sign bit"
        );
        let r = Interp::sequential().run(&simplified, &[Value::F64(-0.0)])[0].as_f64();
        assert_eq!(r.to_bits(), 0u64, "-0.0 + 0.0 is +0.0 in hardware");
    }

    #[test]
    fn dce_removes_redundant_forward_sweep_of_perfect_nests() {
        // vjp of a perfect map nest re-executes the primal map; after DCE the
        // primal result is only computed once per scope that needs it.
        let mut b = Builder::new();
        let fun = b.build_fun("nest", &[Type::arr_f64(2)], |b, ps| {
            let out = b.map1(Type::arr_f64(2), &[ps[0]], |b, rows| {
                let r = b.map1(Type::arr_f64(1), &[rows[0]], |b, es| {
                    vec![b.fmul(es[0].into(), es[0].into())]
                });
                vec![Atom::Var(r)]
            });
            let sums = b.map1(Type::arr_f64(1), &[out], |b, rs| {
                vec![Atom::Var(b.sum(rs[0]))]
            });
            vec![Atom::Var(b.sum(sums))]
        });
        let dfun = futhark_ad::vjp(&fun);
        let simplified = simplify(&dfun);
        check_fun(&simplified).unwrap();
        assert!(count_stms(&simplified) <= count_stms(&dfun));
        // Semantics preserved.
        let args = [
            Value::Arr(interp::Array::from_f64(
                vec![2, 2],
                vec![1.0, 2.0, 3.0, 4.0],
            )),
            Value::F64(1.0),
        ];
        let a = Interp::sequential().run(&dfun, &args);
        let b2 = Interp::sequential().run(&simplified, &args);
        assert_eq!(a[1].as_arr().f64s(), b2[1].as_arr().f64s());
    }

    #[test]
    fn constant_folding_collapses_identities() {
        let mut b = Builder::new();
        let fun = b.build_fun("ids", &[Type::F64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let a = b.fadd(x, Atom::f64(0.0));
            let m = b.fmul(a, Atom::f64(1.0));
            let z = b.fmul(m, Atom::f64(0.0));
            let c = b.fadd(Atom::f64(2.0), Atom::f64(3.0));
            let t = b.fadd(z, c);
            vec![b.fadd(t, m)]
        });
        let simplified = simplify(&fun);
        check_fun(&simplified).unwrap();
        let out = Interp::sequential().run(&simplified, &[Value::F64(7.0)]);
        assert_eq!(out[0].as_f64(), 12.0);
        assert!(count_stms(&simplified) < count_stms(&fun));
    }

    #[test]
    fn counted_passes_report_their_rewrites() {
        let fun = sum_squares();
        let (_, copies) = copy_propagation_counted(&fun);
        assert!(copies >= 1, "the alias binding must be propagated");
        let (folded, folds) = constant_fold_counted(&copy_propagation(&fun));
        assert!(folds >= 1, "the *1.0 identity must fold");
        let (_, removed) = dead_code_elimination_counted(&folded);
        assert!(removed >= 1, "the dead map must be removed");
    }
}
