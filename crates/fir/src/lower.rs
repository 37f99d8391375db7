//! Whole-function lowerings on the core IR.
//!
//! Three lowerings live here today:
//!
//! * [`unfuse`] replaces every [`Exp::Redomap`] (produced by `fir-opt`
//!   producer–consumer fusion) by the equivalent `map` + `reduce` pair.
//!   The AD transformations (`futhark-ad`) have per-construct rules for
//!   `map` and `reduce` but not for their fusion, so they unfuse a
//!   function first; the derived function is re-fused when it passes
//!   through the optimization pipeline again.
//! * [`forward_row_reads`] turns a gather on a `map` row, `row[j]` with
//!   `row` an element of the mapped array `xs`, into the read `xs[i, j]`
//!   of the array itself, so `xs` is a free variable of the lambda and
//!   reverse AD delivers the adjoint of the gather through an accumulator
//!   instead of a dense per-element row (paper §5.4).
//! * [`vmap`] is the vectorizing-map transform: every parameter and
//!   result type is promoted one rank ([`crate::types::Type::lift`]) and
//!   the original body becomes the lambda of a single outer `map` —
//!   `vmap f : ([B]T_1, ..., [B]T_k) -> ([B]R_1, ..., [B]R_m)`. Because
//!   types in this IR carry only rank, the derived program serves every
//!   outer length `B`. Composed with the AD transforms it yields
//!   per-example gradients and Jacobians (`vmap ∘ vjp`, `vjp ∘ vmap`).

use std::borrow::Cow;
use std::fmt;

use crate::builder::Builder;
use crate::ir::{Atom, Body, Exp, Fun, Lambda, Param, Stm, VarId};
use crate::rename::Renamer;
use crate::types::Type;

/// Replace every `redomap` in `fun` by the equivalent `map` + `reduce`
/// pair (materializing the intermediate arrays). The common no-`redomap`
/// case (every function AD derives from pre-pipeline source IR) borrows
/// the input instead of copying it.
pub fn unfuse(fun: &Fun) -> Cow<'_, Fun> {
    if !any_exp(&fun.body, &|e| matches!(e, Exp::Redomap { .. })) {
        return Cow::Borrowed(fun);
    }
    let mut b = Builder::for_fun(fun);
    Cow::Owned(Fun {
        name: fun.name.clone(),
        params: fun.params.clone(),
        body: unfuse_body(&mut b, &fun.body),
        ret: fun.ret.clone(),
    })
}

/// Does `pred` hold for some expression of `body`, at any nesting depth?
fn any_exp(body: &Body, pred: &impl Fn(&Exp) -> bool) -> bool {
    body.stms.iter().any(|s| {
        pred(&s.exp)
            || match &s.exp {
                Exp::If {
                    then_br, else_br, ..
                } => any_exp(then_br, pred) || any_exp(else_br, pred),
                Exp::Loop { body: b, .. } => any_exp(b, pred),
                Exp::Map { lam, .. }
                | Exp::Reduce { lam, .. }
                | Exp::Scan { lam, .. }
                | Exp::WithAcc { lam, .. } => any_exp(&lam.body, pred),
                Exp::Redomap {
                    red_lam, map_lam, ..
                } => any_exp(&red_lam.body, pred) || any_exp(&map_lam.body, pred),
                _ => false,
            }
    })
}

fn unfuse_body(b: &mut Builder, body: &Body) -> Body {
    let mut stms = Vec::with_capacity(body.stms.len());
    for stm in &body.stms {
        match map_bodies(&stm.exp, &mut |inner| unfuse_body(b, inner)) {
            Exp::Redomap {
                red_lam,
                map_lam,
                neutral,
                args,
            } => {
                let tmp_pat: Vec<Param> = map_lam
                    .ret
                    .iter()
                    .map(|t| {
                        let ty = t.lift();
                        Param::new(b.fresh(ty), ty)
                    })
                    .collect();
                let tmp_vars: Vec<VarId> = tmp_pat.iter().map(|p| p.var).collect();
                stms.push(Stm::new(tmp_pat, Exp::Map { lam: map_lam, args }));
                stms.push(Stm::new(
                    stm.pat.clone(),
                    Exp::Reduce {
                        lam: red_lam,
                        neutral,
                        args: tmp_vars,
                    },
                ));
            }
            other => stms.push(Stm::new(stm.pat.clone(), other)),
        }
    }
    Body::new(stms, body.result.clone())
}

/// Rebuild `e` with every directly nested body (branches, loop body,
/// lambda bodies) replaced by `f` of it; everything else is cloned.
fn map_bodies(e: &Exp, f: &mut impl FnMut(&Body) -> Body) -> Exp {
    fn lambda(lam: &Lambda, f: &mut impl FnMut(&Body) -> Body) -> Lambda {
        Lambda {
            params: lam.params.clone(),
            body: f(&lam.body),
            ret: lam.ret.clone(),
        }
    }
    match e {
        Exp::If {
            cond,
            then_br,
            else_br,
        } => Exp::If {
            cond: *cond,
            then_br: f(then_br),
            else_br: f(else_br),
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
            body: f(body),
        },
        Exp::Map { lam, args } => Exp::Map {
            lam: lambda(lam, f),
            args: args.clone(),
        },
        Exp::Reduce { lam, neutral, args } => Exp::Reduce {
            lam: lambda(lam, f),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::Scan { lam, neutral, args } => Exp::Scan {
            lam: lambda(lam, f),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::Redomap {
            red_lam,
            map_lam,
            neutral,
            args,
        } => Exp::Redomap {
            red_lam: lambda(red_lam, f),
            map_lam: lambda(map_lam, f),
            neutral: neutral.clone(),
            args: args.clone(),
        },
        Exp::WithAcc { arrs, lam } => Exp::WithAcc {
            arrs: arrs.clone(),
            lam: lambda(lam, f),
        },
        other => other.clone(),
    }
}

// ---------------------------------------------------------------------
// forward_row_reads: gathers on map rows read the mapped array instead
// ---------------------------------------------------------------------

/// Forward gathers on `map` rows to the mapped array:
///
/// ```text
///   map (\x ys.. -> .. x[j] ..) xs yss..
///     ==>
///   let n = len xs  let is = iota n
///   map (\i ys.. -> .. xs[i, j] ..) is yss..
/// ```
///
/// A lambda parameter `x` over the array argument `xs` is forwarded when
/// **every** use of `x` in the lambda body, at any nesting depth, is as
/// the array of an `Index`, and at least one of those reads is a gather
/// (an index that is not a literal). Any other use of `x` — `len`, a SOAC
/// argument, a result, `update`, `copy`, a loop initialiser — leaves the
/// map exactly as it was, and so does a row read only at literal
/// positions (`p[0]`, `p[1]`, `p[2]`): that is a record being unpacked,
/// every field it names is read and a dense row is the right size for
/// its adjoint.
///
/// Why it exists: `xs` becomes a *free variable* of the lambda, so
/// reverse AD's `map` rule (paper §5.4) turns its adjoint into an
/// accumulator and the adjoint of the gather is one `upd_acc xs̄ [i, j]`.
/// Left as a parameter, the adjoint of `x` is a dense zeroed row per
/// element and the reverse map returns a whole `[len xs][len x]` array to
/// deliver a handful of cells — work the primal never did. The primal
/// gains too: the executors copy a row out of `xs` for each element of a
/// mapped rank-2 array, and no longer do.
///
/// Semantics are preserved exactly. `iota (len xs)` stands in for `xs` in
/// the map's extent check; each index is still bounds-checked against its
/// own dimension, so an out-of-range `j` fails as it did and never reads
/// into row `i + 1`. Same contract as [`unfuse`]: `Cow::Borrowed` when
/// nothing fires, which is also what a second application returns (the
/// introduced `len xs` is a non-index use, so one pass is the fixpoint).
pub fn forward_row_reads(fun: &Fun) -> Cow<'_, Fun> {
    forward_row_reads_counted(fun).0
}

/// [`forward_row_reads`], also returning the number of parameters
/// forwarded (the rewrite count `fir-opt` reports).
pub fn forward_row_reads_counted(fun: &Fun) -> (Cow<'_, Fun>, usize) {
    let fires = |e: &Exp| match e {
        Exp::Map { lam, args } => forwardable_rows(lam, args).next().is_some(),
        _ => false,
    };
    if !any_exp(&fun.body, &fires) {
        return (Cow::Borrowed(fun), 0);
    }
    let mut b = Builder::for_fun(fun);
    let mut count = 0;
    let body = forward_body(&mut b, &fun.body, &mut count);
    let fun = Fun {
        name: fun.name.clone(),
        params: fun.params.clone(),
        body,
        ret: fun.ret.clone(),
    };
    (Cow::Owned(fun), count)
}

/// Positions of the `map` parameters [`forward_row_reads`] forwards.
fn forwardable_rows<'a>(lam: &'a Lambda, args: &'a [VarId]) -> impl Iterator<Item = usize> + 'a {
    (0..args.len()).filter(move |&j| {
        let (x, xs) = (lam.params[j], args[j]);
        // Under shadowing (vjp re-emits binders into sibling scopes) the
        // forwarded read must still name the mapped array and nothing else.
        let unique = lam
            .params
            .iter()
            .filter(|p| p.var == x.var || p.var == xs)
            .count()
            == 1;
        let mut gather = false;
        x.ty.is_array() && unique && only_indexed(&lam.body, x.var, xs, &mut gather) && gather
    })
}

/// Is every occurrence of `x` in `body`, at any depth, the array of an
/// `Index`, with neither `x` nor `xs` rebound there? Sets `gather` when
/// one of those reads has a non-literal index.
fn only_indexed(body: &Body, x: VarId, xs: VarId, gather: &mut bool) -> bool {
    let at = |a: &Atom| a.as_var() == Some(x);
    let binds = |v: VarId| v == x || v == xs;
    let lambda = |lam: &Lambda, gather: &mut bool| {
        !lam.params.iter().any(|p| binds(p.var)) && only_indexed(&lam.body, x, xs, gather)
    };
    for stm in &body.stms {
        let ok = match &stm.exp {
            Exp::Index { arr, idx } => {
                if *arr == x {
                    *gather |= idx.iter().any(|a| a.as_var().is_some());
                }
                !idx.iter().any(at)
            }
            Exp::Atom(a) | Exp::UnOp(_, a) | Exp::Iota(a) => !at(a),
            Exp::BinOp(_, a, b) | Exp::Replicate { n: a, val: b } => !at(a) && !at(b),
            Exp::Select { cond, t, f } => !at(cond) && !at(t) && !at(f),
            Exp::Update { arr, idx, val } | Exp::UpdAcc { acc: arr, idx, val } => {
                *arr != x && !idx.iter().any(at) && !at(val)
            }
            Exp::Len(v) | Exp::Reverse(v) | Exp::Copy(v) => *v != x,
            Exp::Hist {
                num_bins,
                inds,
                vals,
                ..
            } => !at(num_bins) && *inds != x && *vals != x,
            Exp::Scatter { dest, inds, vals } => *dest != x && *inds != x && *vals != x,
            Exp::If {
                cond,
                then_br,
                else_br,
            } => {
                !at(cond)
                    && only_indexed(then_br, x, xs, gather)
                    && only_indexed(else_br, x, xs, gather)
            }
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => {
                !binds(*index)
                    && !at(count)
                    && !params.iter().any(|(p, init)| binds(p.var) || at(init))
                    && only_indexed(body, x, xs, gather)
            }
            Exp::Map { lam, args } => !args.contains(&x) && lambda(lam, gather),
            Exp::Reduce { lam, neutral, args } | Exp::Scan { lam, neutral, args } => {
                !args.contains(&x) && !neutral.iter().any(at) && lambda(lam, gather)
            }
            Exp::Redomap {
                red_lam,
                map_lam,
                neutral,
                args,
            } => {
                !args.contains(&x)
                    && !neutral.iter().any(at)
                    && lambda(red_lam, gather)
                    && lambda(map_lam, gather)
            }
            Exp::WithAcc { arrs, lam } => !arrs.contains(&x) && lambda(lam, gather),
        };
        if !ok || stm.pat.iter().any(|p| binds(p.var)) {
            return false;
        }
    }
    !body.result.iter().any(at)
}

fn forward_body(b: &mut Builder, body: &Body, count: &mut usize) -> Body {
    let mut stms = Vec::with_capacity(body.stms.len());
    for stm in &body.stms {
        let mut exp = map_bodies(&stm.exp, &mut |inner| forward_body(b, inner, count));
        if let Exp::Map { lam, args } = &mut exp {
            let rows: Vec<usize> = forwardable_rows(lam, args).collect();
            for j in rows {
                let (x, xs) = (lam.params[j].var, args[j]);
                let n = b.fresh(Type::I64);
                stms.push(Stm::new(vec![Param::new(n, Type::I64)], Exp::Len(xs)));
                let is = b.fresh(Type::arr_i64(1));
                stms.push(Stm::new(
                    vec![Param::new(is, Type::arr_i64(1))],
                    Exp::Iota(Atom::Var(n)),
                ));
                let i = b.fresh(Type::I64);
                lam.params[j] = Param::new(i, Type::I64);
                args[j] = is;
                lam.body = redirect_reads(&lam.body, x, xs, i);
                *count += 1;
            }
        }
        stms.push(Stm::new(stm.pat.clone(), exp));
    }
    Body::new(stms, body.result.clone())
}

/// Rewrite every `x[idx]` in `body` to `xs[i, idx]`.
fn redirect_reads(body: &Body, x: VarId, xs: VarId, i: VarId) -> Body {
    let stms = body
        .stms
        .iter()
        .map(|s| {
            let exp = match &s.exp {
                Exp::Index { arr, idx } if *arr == x => Exp::Index {
                    arr: xs,
                    idx: std::iter::once(Atom::Var(i))
                        .chain(idx.iter().copied())
                        .collect(),
                },
                e => map_bodies(e, &mut |inner| redirect_reads(inner, x, xs, i)),
            };
            Stm::new(s.pat.clone(), exp)
        })
        .collect();
    Body::new(stms, body.result.clone())
}

// ---------------------------------------------------------------------
// vmap: rank-promotion of a whole function
// ---------------------------------------------------------------------

/// Why a function cannot be [`vmap`]ped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmapError {
    /// The function has no parameters, so there is nothing to map over.
    NoParams {
        /// The function name.
        fun: String,
    },
    /// The function has accumulator parameters or results; accumulators
    /// are write-only views without a liftable array type.
    Acc {
        /// The function name.
        fun: String,
    },
}

impl fmt::Display for VmapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmapError::NoParams { fun } => {
                write!(f, "`{fun}` has no parameters to vmap over")
            }
            VmapError::Acc { fun } => write!(
                f,
                "`{fun}` has accumulator parameters or results, cannot vmap"
            ),
        }
    }
}

impl std::error::Error for VmapError {}

/// Derive the vectorized-map transform of `fun`: every parameter and
/// result type promoted one rank, the body wrapped in one outer `map`.
///
/// ```text
///   f      : (p_1: T_1, ..., p_k: T_k) -> (R_1, ..., R_m)
///   vmap f : ([B]T_1, ..., [B]T_k)     -> ([B]R_1, ..., [B]R_m)
///          = \xs_1 ... xs_k. map (\e_1 ... e_k. f-body) xs_1 ... xs_k
/// ```
///
/// Per-element arithmetic is the original body's, evaluated in the same
/// order, so element `i` of every result is bitwise identical to running
/// `f` on the `i`-th slice of every argument. The derivation is
/// deterministic: structurally identical inputs produce structurally
/// identical (fingerprint-equal) outputs.
pub fn vmap(fun: &Fun) -> Result<Fun, VmapError> {
    if fun.params.is_empty() {
        return Err(VmapError::NoParams {
            fun: fun.name.clone(),
        });
    }
    if fun.params.iter().any(|p| p.ty.is_acc()) || fun.ret.iter().any(|t| t.is_acc()) {
        return Err(VmapError::Acc {
            fun: fun.name.clone(),
        });
    }
    let mut b = Builder::for_fun(fun);
    let lifted: Vec<Type> = fun.params.iter().map(|p| p.ty.lift()).collect();
    let out_tys: Vec<Type> = fun.ret.iter().map(|t| t.lift()).collect();
    Ok(
        b.build_fun(&format!("{}_vmap", fun.name), &lifted, |b, ps| {
            let outs = b.map(&out_tys, ps, |b, es| {
                // Inline the original body with its parameters redirected to
                // the map's element variables, all bindings freshened.
                let mut r = Renamer::new();
                for (p, e) in fun.params.iter().zip(es) {
                    r.insert(p.var, *e);
                }
                let body = r.body(b, &fun.body);
                for s in body.stms {
                    b.push_stm(s);
                }
                body.result
            });
            outs.into_iter().map(Atom::Var).collect()
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Atom;
    use crate::typecheck::check_fun;
    use crate::types::Type;

    #[test]
    fn unfused_redomap_typechecks_as_map_reduce() {
        // sum (map (\x -> x*x) xs) written as a redomap.
        let mut b = Builder::new();
        let fun = b.build_fun("sumsq", &[Type::arr_f64(1)], |b, ps| {
            let r = b.redomap(
                &[Type::F64],
                &[Atom::f64(0.0)],
                &[ps[0]],
                |b, es| vec![b.fmul(es[0].into(), es[0].into())],
                |b, rs| vec![b.fadd(rs[0].into(), rs[1].into())],
            );
            vec![r[0].into()]
        });
        check_fun(&fun).unwrap();
        let lowered = unfuse(&fun);
        check_fun(&lowered).unwrap();
        let kinds: Vec<&str> = lowered.body.stms.iter().map(|s| s.exp.kind()).collect();
        assert_eq!(kinds, vec!["map", "reduce"]);
    }

    /// `map (\row j -> row[j]) xs js` — the minimal gather on a map row.
    fn gather_rows() -> Fun {
        let mut b = Builder::new();
        b.build_fun(
            "gather_rows",
            &[Type::arr_f64(2), Type::arr_i64(1)],
            |b, ps| {
                let out = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                    vec![b.index(es[0], &[es[1].into()]).into()]
                });
                vec![out.into()]
            },
        )
    }

    #[test]
    fn forward_row_reads_turns_the_row_into_a_read_of_the_mapped_array() {
        let fun = gather_rows();
        let (out, count) = forward_row_reads_counted(&fun);
        assert!(matches!(out, Cow::Owned(_)));
        assert_eq!(count, 1);
        check_fun(&out).unwrap();
        let xs = fun.params[0].var;
        let kinds: Vec<&str> = out.body.stms.iter().map(|s| s.exp.kind()).collect();
        assert_eq!(kinds, vec!["len", "iota", "map"]);
        assert_eq!(out.body.stms[0].exp, Exp::Len(xs));
        let Exp::Map { lam, args } = &out.body.stms[2].exp else {
            unreachable!()
        };
        // The row parameter is gone: an index over `iota (len xs)` took
        // its place (same position), and the read names `xs` itself.
        assert_eq!(args[0], out.body.stms[1].pat[0].var);
        assert_eq!(args[1], fun.params[1].var);
        assert_eq!(lam.params[0].ty, Type::I64);
        let (i, j) = (lam.params[0].var, lam.params[1].var);
        assert_eq!(
            lam.body.stms[0].exp,
            Exp::Index {
                arr: xs,
                idx: vec![Atom::Var(i), Atom::Var(j)],
            }
        );
    }

    #[test]
    fn forward_row_reads_is_idempotent_and_the_second_call_borrows() {
        let fun = gather_rows();
        let once = forward_row_reads(&fun).into_owned();
        let twice = forward_row_reads(&once);
        assert!(matches!(twice, Cow::Borrowed(_)));
        assert_eq!(twice.as_ref(), &once);
    }

    /// One map over `[xs, js]` whose body is built by `use_row(b, row, j)`.
    fn row_user(use_row: impl Fn(&mut Builder, VarId, VarId) -> Atom) -> Fun {
        let mut b = Builder::new();
        b.build_fun(
            "row_user",
            &[Type::arr_f64(2), Type::arr_i64(1)],
            |b, ps| {
                let out = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                    vec![use_row(b, es[0], es[1])]
                });
                vec![out.into()]
            },
        )
    }

    #[test]
    fn any_use_other_than_an_index_leaves_the_map_alone() {
        let gather =
            |b: &mut Builder, row: VarId, j: VarId| -> Atom { b.index(row, &[j.into()]).into() };
        let blocked: Vec<(&str, Fun)> = vec![
            (
                "len",
                row_user(|b, row, j| {
                    let n = b.len(row);
                    let nf = b.to_f64(n);
                    let g = gather(b, row, j);
                    b.fadd(g, nf)
                }),
            ),
            (
                "soac argument",
                row_user(|b, row, j| {
                    let s = b.sum(row);
                    let g = gather(b, row, j);
                    b.fadd(g, s.into())
                }),
            ),
            (
                "update",
                row_user(|b, row, j| {
                    let g = gather(b, row, j);
                    let c = b.copy(row);
                    let u = b.update(c, &[j.into()], Atom::f64(0.0));
                    let s = b.sum(u);
                    b.fadd(g, s.into())
                }),
            ),
            (
                "loop initialiser",
                row_user(|b, row, j| {
                    let g = gather(b, row, j);
                    let r = b.loop_(
                        &[(Type::arr_f64(1), Atom::Var(row))],
                        Atom::i64(1),
                        |_, _, st| vec![st[0].into()],
                    );
                    let h = b.index(r[0], &[j.into()]);
                    b.fadd(g, h.into())
                }),
            ),
            // A record being unpacked, not a gather: literal positions only.
            (
                "literal indices",
                row_user(|b, row, _| {
                    let x = b.index(row, &[Atom::i64(0)]);
                    let y = b.index(row, &[Atom::i64(1)]);
                    b.fadd(x.into(), y.into())
                }),
            ),
            ("unused", row_user(|b, _, j| b.to_f64(j.into()))),
        ];
        for (what, fun) in &blocked {
            check_fun(fun).unwrap();
            assert!(
                matches!(forward_row_reads(fun), Cow::Borrowed(_)),
                "a row with a `{what}` use must stay a parameter"
            );
        }
        // A row that is the map's result is not forwarded either.
        let mut b = Builder::new();
        let result = b.build_fun("result", &[Type::arr_f64(2)], |b, ps| {
            let out = b.map1(Type::arr_f64(2), &[ps[0]], |_, es| vec![es[0].into()]);
            vec![out.into()]
        });
        assert!(matches!(forward_row_reads(&result), Cow::Borrowed(_)));
    }

    #[test]
    fn a_nest_two_maps_deep_forwards_its_innermost_row() {
        // map (\xs -> sum (map (\x -> x[j]) xs)) xss. The inner row becomes
        // `xs[i', j]`; the `len xs` that stands in for the inner extent is
        // a non-index use of `xs` — a row's extent has no spelling in this
        // IR that does not slice the row — so `xs` stays a parameter.
        let mut b = Builder::new();
        let fun = b.build_fun("deep", &[Type::arr_f64(3), Type::I64], |b, ps| {
            let j = ps[1];
            let out = b.map1(Type::arr_f64(1), &[ps[0]], |b, xs| {
                let picked = b.map1(Type::arr_f64(1), &[xs[0]], |b, x| {
                    vec![b.index(x[0], &[j.into()]).into()]
                });
                vec![b.sum(picked).into()]
            });
            vec![out.into()]
        });
        let (out, count) = forward_row_reads_counted(&fun);
        assert_eq!(count, 1);
        check_fun(&out).unwrap();
        let Exp::Map { lam, args } = &out.body.stms[0].exp else {
            unreachable!()
        };
        assert_eq!(args, &[fun.params[0].var]);
        let kinds: Vec<&str> = lam.body.stms.iter().map(|s| s.exp.kind()).collect();
        assert_eq!(kinds, vec!["len", "iota", "map", "reduce"]);
        assert!(matches!(forward_row_reads(&out), Cow::Borrowed(_)));
    }

    #[test]
    fn vmap_lifts_every_param_and_result_one_rank() {
        let mut b = Builder::new();
        let fun = b.build_fun(
            "axpy",
            &[Type::F64, Type::arr_f64(1), Type::I64],
            |b, ps| {
                let scaled = b.map1(Type::arr_f64(1), &[ps[1]], |b, es| {
                    vec![b.fmul(ps[0].into(), es[0].into())]
                });
                vec![b.sum(scaled).into(), ps[2].into()]
            },
        );
        let v = vmap(&fun).unwrap();
        check_fun(&v).unwrap();
        assert_eq!(v.name, "axpy_vmap");
        let ptys: Vec<Type> = v.params.iter().map(|p| p.ty).collect();
        assert_eq!(
            ptys,
            vec![Type::arr_f64(1), Type::arr_f64(2), Type::arr_i64(1)]
        );
        assert_eq!(v.ret, vec![Type::arr_f64(1), Type::arr_i64(1)]);
        // One outer map, driven by the lifted parameters.
        assert_eq!(v.body.stms.len(), 1);
        assert!(matches!(v.body.stms[0].exp, Exp::Map { .. }));
        // Deterministic: two derivations are structurally identical.
        assert_eq!(format!("{}", vmap(&fun).unwrap()), format!("{v}"));
    }

    #[test]
    fn vmap_rejects_nullary_and_accumulator_functions() {
        let mut b = Builder::new();
        let nullary = b.build_fun("k", &[], |_, _| vec![Atom::f64(1.0)]);
        assert!(matches!(vmap(&nullary), Err(VmapError::NoParams { .. })));
        let mut b = Builder::new();
        let acc = b.build_fun("acc", &[Type::acc_f64(1)], |_, ps| vec![ps[0].into()]);
        assert!(matches!(vmap(&acc), Err(VmapError::Acc { .. })));
    }
}
