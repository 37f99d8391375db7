//! Loop-, map- and stream-invariant code motion.
//!
//! **Invariant statements.** A statement inside a SOAC lambda or a
//! sequential loop whose free variables are all bound *outside* that scope
//! computes the same value on every iteration; hoisting it into the
//! enclosing body executes it once. Reverse-mode AD's redundant scope
//! re-execution produces exactly such statements in imperfect nests (the
//! perfectly-nested ones are dead and fall to DCE instead).
//!
//! **Stream-invariant statements.** In the lambda of a `map` (or the map
//! part of a `redomap`), a statement is *stream-invariant* when every
//! variable it reads that the lambda binds is a non-accumulator stream
//! parameter or the result of an earlier stream-invariant statement: it is
//! a function of the stream elements alone. GMM's `exp (neg ls[j])` inside
//! the per-point, per-component nest is one; so is `reduce (+) ls`. Such a
//! group becomes one `map` over just the stream arguments it reads, placed
//! before the SOAC, and its results come back into the lambda as new
//! stream parameters. The new `map` is in turn a statement of the
//! enclosing body, so it hoists or joins that lambda's group the same way:
//! two maps deep, `exp (neg ls)` lands at the top as one `map` over the
//! rows of `ls`, and the whole nest reads the `[K][d]` result instead of
//! recomputing it per point.
//!
//! **Destinations and the cost rule.** A group is extracted only when its
//! `map` leaves at least one scope that *repeats* — a `map`/`reduce`/
//! `scan`/`redomap` lambda or a `loop` body — either because it is
//! invariant there or because it is stream-invariant there and that
//! lambda's group leaves one in turn. Splitting a map in place (pure
//! fission) never fires: it would store an array and save no work. Each
//! statement's *destination* is the body its `map` finally lands in;
//! statements of one lambda with the same destination share one `map`, so
//! a chain like `neg` then `exp` is one kernel, not two for fusion to
//! merge. Only per-element float work moves this way: a float unary or
//! binary operator or an inner `map`/`reduce`/`redomap`, every result
//! `f64` data, so the new `map` lowers to a tape; an index, `length`,
//! `iota`, `replicate` or `select` stays where it is. The stored array is
//! never larger than the one it maps over, and the work drops by the extent
//! of every repeating scope the group leaves.
//!
//! **Scopes.** `map`/`reduce`/`scan`/`redomap` lambdas and `loop` bodies
//! are hoisting boundaries. A `withacc` body runs exactly once, so it is
//! transparent: a statement that reads none of its bindings moves out. `if`
//! branches stay opaque: moving code out of a branch would execute the
//! untaken side. Because an enclosing scope may run zero times (empty
//! array, zero-trip loop), only *speculatable* statements move:
//! expressions that cannot trap on any well-typed input (no indexing, no
//! integer division/remainder/power, no consumption, no accumulator
//! effects). Moved statements cascade within one pass: each is placed in
//! the innermost body it can reach before the next statement is read.
//!
//! **Bitwise.** Every moved statement computes the same scalar operations
//! on the same operands in the same order; only where its result is stored
//! changes. An extracted inner `reduce` still runs sequentially inside the
//! new `map`'s lambda, exactly as it did inside the old one. So every
//! primal and gradient is bitwise what it was without the pass.

use std::collections::{BTreeMap, BTreeSet};

use fir::builder::Builder;
use fir::free_vars::FreeVars;
use fir::ir::{Atom, BinOp, Body, Exp, Fun, Lambda, Param, Stm, VarId};
use fir::rename::Renamer;
use fir::types::{ScalarType, Type};

/// Apply invariant and stream-invariant code motion everywhere in `fun`.
pub fn hoist_invariants(fun: &Fun) -> Fun {
    hoist_invariants_counted(fun).0
}

/// [`hoist_invariants`], also returning the number of statements moved
/// (counting each scope boundary crossed, and each statement extracted
/// into a stream-invariant `map`).
///
/// Hoisting moves binders into enclosing scopes, so shadowed binders (as
/// `vjp`'s redundant re-execution produces) could collide after the move;
/// such input is alpha-renamed to unique binders first.
pub fn hoist_invariants_counted(fun: &Fun) -> (Fun, usize) {
    let renamed;
    let fun = if fir::rename::has_unique_binders(fun) {
        fun
    } else {
        renamed = fir::rename::uniquify_fun(fun);
        &renamed
    };
    let mut cx = Hoist {
        fun,
        b: None,
        count: 0,
        frames: Vec::new(),
    };
    let top = cx.scope(Kind::Opaque, BTreeSet::new(), BTreeMap::new(), &fun.body);
    (
        Fun {
            name: fun.name.clone(),
            params: fun.params.clone(),
            body: top.body(&fun.body.result),
            ret: fun.ret.clone(),
        },
        cx.count,
    )
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Nothing leaves it: the function body, an `if` branch.
    Opaque,
    /// Runs once; statements that read none of its bindings leave it.
    WithAcc,
    /// A SOAC lambda or `loop` body: runs once per element or trip.
    Repeats,
}

/// One enclosing scope while its body is being rewritten.
struct Frame {
    kind: Kind,
    /// Variables the scope binds so far (parameters and kept statements).
    bound: BTreeSet<VarId>,
    /// The stream-invariant variables of a `map` lambda: each non-
    /// accumulator stream parameter and each stream-invariant statement's
    /// result, with the variables from outside the lambda it is computed
    /// from (for a parameter, the array it streams over).
    streams: BTreeMap<VarId, BTreeSet<VarId>>,
    /// The rewritten body, in order, each statement with its free
    /// variables (computed once, bottom-up).
    stms: Vec<(Stm, BTreeSet<VarId>)>,
}

impl Frame {
    /// The free variables of the scope whose body ends in `result`.
    fn free(&self, result: &[Atom]) -> BTreeSet<VarId> {
        let mut free: BTreeSet<VarId> = result.iter().filter_map(Atom::as_var).collect();
        for (_, f) in &self.stms {
            free.extend(f);
        }
        free.retain(|v| !self.bound.contains(v));
        free
    }

    fn body(self, result: &[Atom]) -> Body {
        Body::new(
            self.stms.into_iter().map(|(s, _)| s).collect(),
            result.to_vec(),
        )
    }
}

struct Hoist<'f> {
    fun: &'f Fun,
    /// Fresh names, made on the first extraction.
    b: Option<Builder>,
    count: usize,
    frames: Vec<Frame>,
}

impl Hoist<'_> {
    /// Rewrite `body` as a scope of the given kind; statements that leave
    /// it are placed in the enclosing frames on the way.
    fn scope(
        &mut self,
        kind: Kind,
        bound: BTreeSet<VarId>,
        streams: BTreeMap<VarId, BTreeSet<VarId>>,
        body: &Body,
    ) -> Frame {
        self.frames.push(Frame {
            kind,
            bound,
            streams,
            stms: Vec::with_capacity(body.stms.len()),
        });
        for stm in &body.stms {
            let (exp, free) = self.exp(&stm.exp);
            let j = self.frames.len() - 1;
            self.place(Stm::new(stm.pat.clone(), exp), free, j);
        }
        self.frames.pop().expect("scope frame")
    }

    /// Rewrite a lambda as a scope of the given kind; also returns its free
    /// variables. `streams` are the arguments of a `map` lambda (or of the
    /// map part of a `redomap`) and empty for any other: its stream-
    /// invariant groups leave as `map`s placed in the enclosing frame, and
    /// the arrays they compute join `streams`.
    fn lambda(
        &mut self,
        kind: Kind,
        lam: &Lambda,
        streams: &mut Vec<VarId>,
    ) -> (Lambda, BTreeSet<VarId>) {
        let elems = lam
            .params
            .iter()
            .zip(streams.iter())
            .filter(|(p, _)| !p.ty.is_acc())
            .map(|(p, a)| (p.var, BTreeSet::from([*a])))
            .collect();
        let bound = lam.params.iter().map(|p| p.var).collect();
        let mut frame = self.scope(kind, bound, elems, &lam.body);
        let mut params = lam.params.clone();
        self.extract(&mut frame, &lam.body.result, &mut params, streams);
        let free = frame.free(&lam.body.result);
        let lam = Lambda {
            params,
            body: frame.body(&lam.body.result),
            ret: lam.ret.clone(),
        };
        (lam, free)
    }

    fn builder(&mut self) -> &mut Builder {
        let fun = self.fun;
        self.b.get_or_insert_with(|| Builder::for_fun(fun))
    }

    /// Place `s`, whose free variables are `free`, in the innermost frame
    /// it can reach from frame `j`.
    fn place(&mut self, s: Stm, free: BTreeSet<VarId>, mut j: usize) {
        let mut moves = None;
        while self.frames[j].kind != Kind::Opaque
            && free.is_disjoint(&self.frames[j].bound)
            && *moves.get_or_insert_with(|| speculatable(&s.exp, &s.pat))
        {
            self.count += 1;
            j -= 1;
        }
        let f = &mut self.frames[j];
        let stream_invariant = !f.streams.is_empty()
            && free
                .iter()
                .all(|v| f.streams.contains_key(v) || !f.bound.contains(v));
        if stream_invariant && extractable(&s) {
            let mut from = BTreeSet::new();
            for v in &free {
                match f.streams.get(v) {
                    Some(outer) => from.extend(outer),
                    None => drop(from.insert(*v)),
                }
            }
            for p in &s.pat {
                f.streams.insert(p.var, from.clone());
            }
        }
        f.bound.extend(s.pat.iter().map(|p| p.var));
        f.stms.push((s, free));
    }

    /// The frame a `map` reading `vars` lands in when placed in frame `j`,
    /// if it leaves a repeating scope on the way (`escaped` says whether
    /// it already has).
    fn land(&self, vars: &BTreeSet<VarId>, j: usize, escaped: bool) -> Option<usize> {
        let f = &self.frames[j];
        let stay = escaped.then_some(j);
        if f.kind == Kind::Opaque {
            return stay;
        }
        if vars.is_disjoint(&f.bound) {
            return self.land(vars, j - 1, escaped || f.kind == Kind::Repeats);
        }
        let mut outer = BTreeSet::new();
        for v in vars {
            match f.streams.get(v) {
                Some(from) => outer.extend(from),
                None if f.bound.contains(v) => return stay,
                None => drop(outer.insert(*v)),
            }
        }
        self.land(&outer, j - 1, false).or(stay)
    }

    /// Move the stream-invariant statements of a finished `map` lambda
    /// frame that leave a repeating scope into one `map` per destination,
    /// placed in the enclosing frame; their results become new parameters.
    fn extract(
        &mut self,
        frame: &mut Frame,
        result: &[Atom],
        params: &mut Vec<Param>,
        args: &mut Vec<VarId>,
    ) {
        let outer = self.frames.len() - 1;
        let dest: Vec<Option<usize>> = frame
            .stms
            .iter()
            .map(|(s, _)| {
                let from = frame.streams.get(&s.pat.first()?.var)?;
                self.land(from, outer, false)
            })
            .collect();
        let dests: BTreeSet<usize> = dest.iter().flatten().copied().collect();
        if dests.is_empty() {
            return;
        }
        let mut stms: Vec<_> = dest
            .into_iter()
            .zip(std::mem::take(&mut frame.stms))
            .collect();
        for d in dests {
            let (group, rest): (Vec<_>, Vec<_>) =
                stms.into_iter().partition(|(t, _)| *t == Some(d));
            stms = rest;
            let mut read_after: BTreeSet<VarId> = result.iter().filter_map(Atom::as_var).collect();
            for (_, (_, free)) in &stms {
                read_after.extend(free);
            }
            let outputs: Vec<Param> = group
                .iter()
                .flat_map(|(_, (s, _))| &s.pat)
                .filter(|p| read_after.contains(&p.var))
                .copied()
                .collect();
            if outputs.is_empty() {
                // Dead already: DCE removes it where it is.
                stms.extend(group.into_iter().map(|(_, s)| (None, s)));
                continue;
            }
            let body = Body::new(
                group.into_iter().map(|(_, (s, _))| s).collect(),
                outputs.iter().map(|r| r.var.into()).collect(),
            );
            let mut reads = body.free_vars();
            let (q, over): (Vec<Param>, Vec<VarId>) = params
                .iter()
                .zip(args.iter())
                .filter(|(p, _)| reads.remove(&p.var))
                .unzip();
            reads.extend(&over);
            self.count += body.stms.len();
            let lam = Lambda {
                params: q,
                body,
                ret: outputs.iter().map(|r| r.ty).collect(),
            };
            let lam = Renamer::new().lambda(self.builder(), &lam);
            let at = params
                .iter()
                .position(|p| p.ty.is_acc())
                .unwrap_or(params.len());
            let mut pat = Vec::with_capacity(outputs.len());
            for (i, r) in outputs.iter().enumerate() {
                let arr = Param::new(self.builder().fresh(r.ty.lift()), r.ty.lift());
                pat.push(arr);
                params.insert(at + i, *r);
                args.insert(at + i, arr.var);
            }
            self.place(Stm::new(pat, Exp::Map { lam, args: over }), reads, outer);
        }
        frame.stms = stms.into_iter().map(|(_, s)| s).collect();
    }

    /// Rewrite `e`; also returns its free variables.
    fn exp(&mut self, e: &Exp) -> (Exp, BTreeSet<VarId>) {
        let vars = |atoms: &[Atom]| atoms.iter().filter_map(Atom::as_var).collect::<Vec<_>>();
        match e {
            Exp::If {
                cond,
                then_br,
                else_br,
            } => {
                let mut free: BTreeSet<VarId> = cond.as_var().into_iter().collect();
                let mut branch = |b: &Body| {
                    let f = self.scope(Kind::Opaque, BTreeSet::new(), BTreeMap::new(), b);
                    free.extend(f.free(&b.result));
                    f.body(&b.result)
                };
                let (then_br, else_br) = (branch(then_br), branch(else_br));
                let e = Exp::If {
                    cond: *cond,
                    then_br,
                    else_br,
                };
                (e, free)
            }
            Exp::Loop {
                params,
                index,
                count,
                body,
            } => {
                let mut bound: BTreeSet<VarId> = params.iter().map(|(p, _)| p.var).collect();
                bound.insert(*index);
                let f = self.scope(Kind::Repeats, bound, BTreeMap::new(), body);
                let mut free = f.free(&body.result);
                free.extend(params.iter().filter_map(|(_, a)| a.as_var()));
                free.extend(count.as_var());
                let e = Exp::Loop {
                    params: params.clone(),
                    index: *index,
                    count: *count,
                    body: f.body(&body.result),
                };
                (e, free)
            }
            Exp::Map { lam, args } => {
                let mut args = args.clone();
                let (lam, mut free) = self.lambda(Kind::Repeats, lam, &mut args);
                free.extend(&args);
                (Exp::Map { lam, args }, free)
            }
            Exp::Reduce { lam, neutral, args } | Exp::Scan { lam, neutral, args } => {
                let (lam, mut free) = self.lambda(Kind::Repeats, lam, &mut Vec::new());
                free.extend(vars(neutral));
                free.extend(args);
                let (neutral, args) = (neutral.clone(), args.clone());
                let e = match e {
                    Exp::Reduce { .. } => Exp::Reduce { lam, neutral, args },
                    _ => Exp::Scan { lam, neutral, args },
                };
                (e, free)
            }
            Exp::Redomap {
                red_lam,
                map_lam,
                neutral,
                args,
            } => {
                let (red_lam, mut free) = self.lambda(Kind::Repeats, red_lam, &mut Vec::new());
                let mut args = args.clone();
                let (map_lam, map_free) = self.lambda(Kind::Repeats, map_lam, &mut args);
                free.extend(map_free);
                free.extend(vars(neutral));
                free.extend(&args);
                let e = Exp::Redomap {
                    red_lam,
                    map_lam,
                    neutral: neutral.clone(),
                    args,
                };
                (e, free)
            }
            Exp::WithAcc { arrs, lam } => {
                let (lam, mut free) = self.lambda(Kind::WithAcc, lam, &mut Vec::new());
                free.extend(arrs);
                let e = Exp::WithAcc {
                    arrs: arrs.clone(),
                    lam,
                };
                (e, free)
            }
            other => (other.clone(), other.free_vars()),
        }
    }
}

/// Whether `s` is per-element float work a stream-invariant `map` may
/// take: a float operator, or an inner `map`/`reduce`/`redomap`, with only
/// `f64` results.
fn extractable(s: &Stm) -> bool {
    let f64_data = s
        .pat
        .iter()
        .all(|p| !p.ty.is_acc() && p.ty.elem() == ScalarType::F64);
    let float_work = match &s.exp {
        Exp::UnOp(op, _) => op.is_float_op(),
        Exp::BinOp(..) => s.pat[0].ty == Type::F64,
        Exp::Map { .. } | Exp::Reduce { .. } | Exp::Redomap { .. } => true,
        _ => false,
    };
    f64_data && float_work && speculatable(&s.exp, &s.pat)
}

/// Whether evaluating this expression can never trap (panic) on well-typed
/// operands — the requirement for executing it speculatively when its
/// enclosing scope would have run zero times.
fn speculatable(e: &Exp, pat: &[Param]) -> bool {
    fn body_ok(b: &Body) -> bool {
        b.stms.iter().all(|s| speculatable(&s.exp, &s.pat))
    }
    match e {
        Exp::Atom(_) | Exp::Select { .. } | Exp::Len(_) | Exp::Reverse(_) => true,
        Exp::UnOp(..) => true,
        Exp::BinOp(op, ..) => {
            // Integer division/remainder by zero and integer `pow` trap;
            // their float counterparts produce inf/NaN instead. Integer
            // add/sub/mul stay: the IR's arithmetic is wrapping-equivalent
            // for the value ranges the workloads use.
            !(matches!(op, BinOp::Div | BinOp::Rem | BinOp::Pow) && pat[0].ty == Type::I64)
        }
        Exp::Iota(_) | Exp::Replicate { .. } => true, // negative sizes clamp to 0
        Exp::Index { .. }
        | Exp::Update { .. }
        | Exp::Copy(_)
        | Exp::Hist { .. }
        | Exp::Scatter { .. }
        | Exp::WithAcc { .. }
        | Exp::UpdAcc { .. } => false,
        Exp::If {
            then_br, else_br, ..
        } => body_ok(then_br) && body_ok(else_br),
        Exp::Loop { body, .. } => body_ok(body),
        Exp::Map { lam, .. } | Exp::Reduce { lam, .. } | Exp::Scan { lam, .. } => {
            !lam.params.iter().any(|p| p.ty.is_acc()) && body_ok(&lam.body)
        }
        Exp::Redomap {
            red_lam, map_lam, ..
        } => body_ok(&red_lam.body) && body_ok(&map_lam.body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_stms;
    use fir::builder::Builder;
    use fir::ir::Atom;
    use fir::typecheck::check_fun;
    use interp::{Interp, Value};

    #[test]
    fn invariant_scalar_work_leaves_the_map() {
        let mut b = Builder::new();
        let fun = b.build_fun("inv", &[Type::F64, Type::arr_f64(1)], |b, ps| {
            let x = Atom::Var(ps[0]);
            let m = b.map1(Type::arr_f64(1), &[ps[1]], |b, es| {
                let e = b.fexp(x); // invariant: recomputed per element
                let s = b.fsin(e); // invariant, depends on a hoisted stm
                vec![b.fmul(es[0].into(), s)]
            });
            vec![b.sum(m).into()]
        });
        let (out, n) = hoist_invariants_counted(&fun);
        assert_eq!(n, 2, "both invariant statements must hoist");
        check_fun(&out).unwrap();
        // The map's lambda now holds a single multiply.
        let map_stm = out
            .body
            .stms
            .iter()
            .find(|s| matches!(s.exp, Exp::Map { .. }))
            .expect("map survives");
        match &map_stm.exp {
            Exp::Map { lam, .. } => assert_eq!(lam.body.stms.len(), 1),
            _ => unreachable!(),
        }
        let args = [Value::F64(0.7), Value::from(vec![1.0, 2.0, 3.0])];
        let a = Interp::sequential().run(&fun, &args)[0].as_f64();
        let b2 = Interp::sequential().run(&out, &args)[0].as_f64();
        assert_eq!(a.to_bits(), b2.to_bits());
    }

    #[test]
    fn hoisting_cascades_through_nested_scopes_in_one_pass() {
        // exp(x) is invariant two maps deep; it must reach the top level.
        let mut b = Builder::new();
        let fun = b.build_fun("deep", &[Type::F64, Type::arr_f64(2)], |b, ps| {
            let x = Atom::Var(ps[0]);
            let m = b.map1(Type::arr_f64(2), &[ps[1]], |b, rows| {
                let inner = b.map1(Type::arr_f64(1), &[rows[0]], |b, es| {
                    let e = b.fexp(x);
                    vec![b.fmul(es[0].into(), e)]
                });
                vec![Atom::Var(inner)]
            });
            let sums = b.map1(Type::arr_f64(1), &[m], |b, rs| {
                vec![Atom::Var(b.sum(rs[0]))]
            });
            vec![b.sum(sums).into()]
        });
        let (out, n) = hoist_invariants_counted(&fun);
        assert!(n >= 1);
        check_fun(&out).unwrap();
        assert!(
            matches!(out.body.stms[0].exp, Exp::UnOp(fir::ir::UnOp::Exp, _)),
            "exp(x) must land at the top of the function body"
        );
        let args = [
            Value::F64(0.3),
            Value::Arr(interp::Array::from_f64(
                vec![2, 2],
                vec![1.0, 2.0, 3.0, 4.0],
            )),
        ];
        let a = Interp::sequential().run(&fun, &args)[0].as_f64();
        let b2 = Interp::sequential().run(&out, &args)[0].as_f64();
        assert_eq!(a.to_bits(), b2.to_bits());
    }

    #[test]
    fn loop_invariants_and_trapping_ops_are_handled() {
        let mut b = Builder::new();
        let fun = b.build_fun("loopinv", &[Type::F64, Type::I64], |b, ps| {
            let x = Atom::Var(ps[0]);
            let n = Atom::Var(ps[1]);
            let r = b.loop_(&[(Type::F64, Atom::f64(0.0))], n, |b, _i, acc| {
                let e = b.fsqrt(x); // invariant, safe: hoists
                let d = b.idiv(n, Atom::i64(2)); // invariant but can trap: stays
                let df = b.to_f64(d);
                let t = b.fadd(e, df);
                vec![b.fadd(acc[0].into(), t)]
            });
            vec![r[0].into()]
        });
        let (out, _) = hoist_invariants_counted(&fun);
        check_fun(&out).unwrap();
        match &out.body.stms.last().unwrap().exp {
            Exp::Loop { body, .. } => {
                assert!(
                    body.stms
                        .iter()
                        .any(|s| matches!(s.exp, Exp::BinOp(BinOp::Div, ..))),
                    "integer division must not be speculated"
                );
                assert!(
                    !body
                        .stms
                        .iter()
                        .any(|s| matches!(s.exp, Exp::UnOp(fir::ir::UnOp::Sqrt, _))),
                    "sqrt(x) must hoist out of the loop"
                );
            }
            other => panic!("expected loop, got {}", other.kind()),
        }
        let args = [Value::F64(2.0), Value::I64(5)];
        let a = Interp::sequential().run(&fun, &args)[0].as_f64();
        let b2 = Interp::sequential().run(&out, &args)[0].as_f64();
        assert_eq!(a.to_bits(), b2.to_bits());
        // Zero-trip loop: the hoisted sqrt now runs, the division must not.
        let a0 = Interp::sequential().run(&out, &[Value::F64(2.0), Value::I64(0)]);
        assert_eq!(a0[0].as_f64(), 0.0);
    }

    #[test]
    fn if_branches_are_not_hoisting_boundaries() {
        let mut b = Builder::new();
        let fun = b.build_fun("branchy", &[Type::F64, Type::BOOL], |b, ps| {
            let x = Atom::Var(ps[0]);
            let r = b.if_(
                Atom::Var(ps[1]),
                &[Type::F64],
                |b| vec![b.flog(x)],
                |_b| vec![Atom::f64(0.0)],
            );
            vec![r[0].into()]
        });
        let (out, n) = hoist_invariants_counted(&fun);
        assert_eq!(n, 0);
        assert_eq!(out, fun);
        assert!(count_stms(&out) == count_stms(&fun));
    }

    /// Outputs of `fun` on the sequential interpreter and the sequential
    /// VM, printed so `==` compares every `f64` by its shortest exact form.
    fn outputs(fun: &Fun, args: &[Value]) -> [String; 2] {
        check_fun(fun).unwrap();
        [
            format!("{:?}", Interp::sequential().run(fun, args)),
            format!("{:?}", firvm::Vm::sequential().run(fun, args)),
        ]
    }

    /// Bitwise agreement of `fun` and its hoisted (and DCE'd) form on both
    /// sequential backends; returns the hoisted form.
    fn hoisted_bitwise(fun: &Fun, args: &[Value]) -> Fun {
        let (out, _) = hoist_invariants_counted(fun);
        let out = crate::dead_code_elimination(&out);
        let want = outputs(fun, args);
        assert_eq!(want[0], want[1], "the backends disagree on {fun}");
        assert_eq!(outputs(&out, args), want, "{out}");
        out
    }

    fn mat(rows: usize, cols: usize, seed: f64) -> Value {
        let data = (0..rows * cols).map(|i| ((i as f64 + seed) * 0.37).sin());
        Value::Arr(interp::Array::from_f64(vec![rows, cols], data.collect()))
    }

    /// Every expression in `body`, at any depth, with the number of
    /// `withacc` bodies around it.
    fn walk<'a>(body: &'a Body, depth: usize, out: &mut Vec<(usize, &'a Exp)>) {
        for s in &body.stms {
            out.push((depth, &s.exp));
            let d = depth + usize::from(matches!(s.exp, Exp::WithAcc { .. }));
            match &s.exp {
                Exp::If {
                    then_br, else_br, ..
                } => {
                    walk(then_br, d, out);
                    walk(else_br, d, out);
                }
                Exp::Loop { body, .. } => walk(body, d, out),
                Exp::Map { lam, .. }
                | Exp::Reduce { lam, .. }
                | Exp::Scan { lam, .. }
                | Exp::WithAcc { lam, .. } => walk(&lam.body, d, out),
                Exp::Redomap {
                    red_lam, map_lam, ..
                } => {
                    walk(&red_lam.body, d, out);
                    walk(&map_lam.body, d, out);
                }
                _ => {}
            }
        }
    }

    fn exps(body: &Body) -> Vec<(usize, &Exp)> {
        let mut out = Vec::new();
        walk(body, 0, &mut out);
        out
    }

    fn is_exp(e: &Exp) -> bool {
        matches!(e, Exp::UnOp(fir::ir::UnOp::Exp, _))
    }

    /// GMM's nest: per point `x`, per component `(μ, ls)`,
    /// `Σ_j ((x_j − μ_j) · exp(−ls_j))²  −  Σ_j ls_j`.
    fn gmm_nest() -> Fun {
        let mut b = Builder::new();
        let m2 = Type::arr_f64(2);
        b.build_fun("gmm_nest", &[m2, m2, m2], |b, ps| {
            let (means, log_sigmas) = (ps[1], ps[2]);
            let lls = b.map1(Type::arr_f64(1), &[ps[0]], |b, xrow| {
                let x = xrow[0];
                let comps = b.map1(Type::arr_f64(1), &[means, log_sigmas], |b, es| {
                    let terms = b.map1(Type::arr_f64(1), &[x, es[0], es[1]], |b, ts| {
                        let diff = b.fsub(ts[0].into(), ts[1].into());
                        let nls = b.fneg(ts[2].into());
                        let inv_sigma = b.fexp(nls);
                        let z = b.fmul(diff, inv_sigma);
                        vec![b.fmul(z, z)]
                    });
                    let quad = b.sum(terms);
                    let slog = b.sum(es[1]);
                    vec![b.fsub(quad.into(), slog.into())]
                });
                vec![Atom::Var(b.sum(comps))]
            });
            vec![b.sum(lls).into()]
        })
    }

    fn gmm_args(n: usize, d: usize, k: usize) -> Vec<Value> {
        vec![mat(n, d, 0.0), mat(k, d, 1.0), mat(k, d, 2.0)]
    }

    #[test]
    fn stream_invariant_work_leaves_a_gmm_nest_as_one_map_over_the_rows_of_ls() {
        let fun = gmm_nest();
        let out = hoisted_bitwise(&fun, &gmm_args(5, 3, 4));
        // Exactly one top-level map reads `ls` (the function's third
        // parameter), and it holds both `exp (neg ls)` and `Σ ls`.
        let ls = fun.params[2].var;
        let readers: Vec<&Stm> = out
            .body
            .stms
            .iter()
            .filter(|s| s.exp.free_vars().contains(&ls))
            .collect();
        assert_eq!(readers.len(), 1, "{out}");
        let Exp::Map { lam, args } = &readers[0].exp else {
            panic!("expected a map over the rows of ls in {out}")
        };
        assert_eq!(args, &vec![ls]);
        let inner = exps(&lam.body);
        assert!(inner.iter().any(|(_, e)| is_exp(e)), "{out}");
        assert!(
            inner.iter().any(|(_, e)| matches!(e, Exp::Reduce { .. })),
            "{out}"
        );
        // The nest keeps `x − μ` and reads the stored `exp (neg ls)`.
        let nest = out
            .body
            .stms
            .iter()
            .find(|s| s.exp.free_vars().contains(&fun.params[0].var));
        let nest = exps(
            std::slice::from_ref(nest.unwrap())
                .first()
                .map(|s| match &s.exp {
                    Exp::Map { lam, .. } => &lam.body,
                    other => panic!("expected the point map, got {}", other.kind()),
                })
                .unwrap(),
        );
        assert!(!nest.iter().any(|(_, e)| is_exp(e)), "{out}");
        assert!(
            nest.iter()
                .any(|(_, e)| matches!(e, Exp::BinOp(BinOp::Sub, ..))),
            "x − μ reads the outer element and stays in {out}"
        );
        for (n, d, k) in [(4, 2, 2), (16, 4, 3), (7, 3, 4), (0, 3, 2), (3, 2, 0)] {
            hoisted_bitwise(&fun, &gmm_args(n, d, k));
        }
    }

    #[test]
    fn a_zero_extent_map_speculates_float_work_but_never_an_integer_division() {
        let mut b = Builder::new();
        let fun = b.build_fun(
            "zero",
            &[Type::arr_i64(1), Type::arr_f64(1), Type::arr_i64(1)],
            |b, ps| {
                let (ys, ks) = (ps[1], ps[2]);
                let m = b.map1(Type::arr_f64(1), &[ps[0]], |b, ns| {
                    let nf = b.to_f64(ns[0].into());
                    let row = b.map1(Type::arr_f64(1), &[ys, ks], |b, es| {
                        let e = b.fexp(es[0].into()); // leaves the nest
                        let q = b.idiv(Atom::i64(10), es[1].into()); // may trap: stays
                        let qf = b.to_f64(q);
                        let t = b.fmul(e, qf);
                        vec![b.fadd(t, nf)]
                    });
                    vec![Atom::Var(b.sum(row))]
                });
                vec![m.into()]
            },
        );
        let ints = |v: &[i64]| Value::Arr(interp::Array::from_i64(vec![v.len()], v.to_vec()));
        let ys = Value::from(vec![0.5, -1.25]);
        let out = hoisted_bitwise(&fun, &[ints(&[1, 2, 3]), ys.clone(), ints(&[3, -7])]);
        let top = exps(&out.body);
        assert!(
            out.body.stms.iter().any(
                |s| matches!(&s.exp, Exp::Map { args, .. } if *args == vec![fun.params[1].var])
            ),
            "exp(y) must leave the nest as a map over ys: {out}"
        );
        let div_depth = top
            .iter()
            .filter(|(_, e)| matches!(e, Exp::BinOp(BinOp::Div, ..)))
            .count();
        assert_eq!(div_depth, 1);
        assert!(
            !out.body
                .stms
                .iter()
                .any(|s| matches!(s.exp, Exp::BinOp(BinOp::Div, ..))),
            "{out}"
        );
        // No points: the extracted exp runs, harmlessly; the division by a
        // zero `k` must not.
        let empty = [ints(&[]), ys, ints(&[0, 2])];
        assert_eq!(outputs(&out, &empty), outputs(&fun, &empty));
    }

    #[test]
    fn accumulator_updates_and_row_lengths_stay_in_the_nest() {
        let mut b = Builder::new();
        let m2 = Type::arr_f64(2);
        let fun = b.build_fun("accs", &[Type::arr_f64(1), m2, m2], |b, ps| {
            let (rows, dst) = (ps[1], ps[2]);
            let out = b.with_acc(&[dst], |b, accs| {
                let acc_ty = Type::acc_f64(2);
                let accs2 = b.map(&[acc_ty], &[ps[0], accs[0]], |b, es| {
                    let x = es[0];
                    let inner = b.map(&[acc_ty], &[rows, es[1]], |b, rs| {
                        let n = b.len(rs[0]); // i64: stays
                        let nf = b.to_f64(n);
                        let scaled = b.map1(Type::arr_f64(1), &[rs[0]], |b, e| {
                            let t = b.fmul(e[0].into(), nf);
                            vec![b.fmul(t, x.into())]
                        });
                        vec![b.upd_acc(rs[1], &[Atom::i64(0)], scaled.into()).into()]
                    });
                    vec![inner[0].into()]
                });
                vec![accs2[0].into()]
            });
            vec![out[0].into()]
        });
        let out = hoisted_bitwise(
            &fun,
            &[
                Value::from(vec![0.5, 2.0, -1.0]),
                mat(2, 3, 0.5),
                mat(2, 3, 0.0),
            ],
        );
        let top = exps(&out.body);
        assert!(
            !out.body
                .stms
                .iter()
                .any(|s| matches!(s.exp, Exp::Len(_) | Exp::Map { .. })),
            "{out}"
        );
        assert_eq!(
            top.iter().filter(|(_, e)| matches!(e, Exp::Len(_))).count(),
            1
        );
        assert_eq!(
            top.iter()
                .filter(|(_, e)| matches!(e, Exp::UpdAcc { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn a_stream_invariant_group_leaves_a_loop_body() {
        let mut b = Builder::new();
        let fun = b.build_fun("steps", &[Type::arr_f64(1), Type::I64], |b, ps| {
            let r = b.loop_(
                &[(Type::F64, Atom::f64(1.0))],
                Atom::Var(ps[1]),
                |b, _i, st| {
                    let ys = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                        let n = b.fneg(es[0].into());
                        let e = b.fexp(n);
                        vec![b.fmul(e, st[0].into())]
                    });
                    vec![Atom::Var(b.sum(ys))]
                },
            );
            vec![r[0].into()]
        });
        let xs = Value::from(vec![0.25, -0.5, 1.5]);
        let out = hoisted_bitwise(&fun, &[xs.clone(), Value::I64(4)]);
        hoisted_bitwise(&fun, &[xs, Value::I64(0)]);
        let Exp::Map { lam, args } = &out.body.stms[0].exp else {
            panic!("expected the extracted map first in {out}")
        };
        assert_eq!(args, &vec![fun.params[0].var]);
        assert_eq!(lam.body.stms.len(), 2, "neg and exp in one map: {out}");
        let Exp::Loop { body, .. } = &out.body.stms[1].exp else {
            panic!("expected the loop in {out}")
        };
        assert!(!exps(body).iter().any(|(_, e)| is_exp(e)), "{out}");
    }

    #[test]
    fn the_reverse_sweeps_exp_crosses_both_withacc_bodies() {
        let fun = gmm_nest();
        // Copy propagation first, as in the pipeline: the raw vjp reads
        // the stream elements through aliases.
        let grad = crate::copy_propagation(&futhark_ad::vjp(&fun));
        let in_withacc = |body: &Body| {
            exps(body)
                .iter()
                .filter(|(d, e)| *d > 0 && is_exp(e))
                .count()
        };
        let nested = exps(&grad.body).iter().map(|(d, _)| *d).max().unwrap();
        assert!(nested >= 2, "the vjp nests two withaccs");
        assert!(in_withacc(&grad.body) > 0);
        let mut args = gmm_args(6, 3, 2);
        args.push(Value::F64(1.0));
        let out = hoisted_bitwise(&grad, &args);
        assert_eq!(in_withacc(&out.body), 0, "{out}");
        for (n, d, k) in [(4, 2, 2), (16, 4, 3), (0, 2, 2)] {
            let mut args = gmm_args(n, d, k);
            args.push(Value::F64(0.5));
            hoisted_bitwise(&grad, &args);
        }
    }

    #[test]
    fn pure_fission_never_fires() {
        // `exp x` reads only the stream, but the map is at the top: taking
        // it out would store an array and save nothing.
        let mut b = Builder::new();
        let fun = b.build_fun("flat", &[Type::arr_f64(1)], |b, ps| {
            let m = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let e = b.fexp(es[0].into());
                vec![b.fmul(e, es[0].into())]
            });
            vec![b.sum(m).into()]
        });
        assert_eq!(hoist_invariants_counted(&fun), (fun.clone(), 0));
    }
}
