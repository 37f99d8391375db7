//! `fir::lower::forward_row_reads` end to end: the rewrite keeps every
//! observable — values bitwise, extent and bounds failures, gradients — and
//! fires only where a `map` row is gathered from.

use std::borrow::Cow;

use fir::builder::Builder;
use fir::ir::{Atom, Exp, Fun, Lambda};
use fir::lower::{forward_row_reads, forward_row_reads_counted};
use fir::typecheck::check_fun;
use fir::types::Type;
use futhark_ad_repro::{Engine, FirError, PassPipeline};
use interp::{Array, ExecError, Interp, Value};
use workloads::{adbench, gmm, kmeans, lstm, mc};

/// The three backends of the matrix; on the VM the tape kernels (rank-2
/// gathers, accumulator scatter-adds) execute in every case.
fn backends(pipeline: PassPipeline) -> Vec<(&'static str, Engine)> {
    ["interp", "vm", "vm-seq"]
        .into_iter()
        .map(|name| {
            let engine = Engine::by_name(name).unwrap();
            (name, engine.with_pipeline(pipeline.clone()))
        })
        .collect()
}

fn bits(vs: &[Value]) -> Vec<Vec<u64>> {
    vs.iter()
        .map(|v| match v {
            Value::F64(x) => vec![x.to_bits()],
            Value::I64(x) => vec![*x as u64],
            Value::Bool(x) => vec![*x as u64],
            Value::Arr(a) if a.elem() == fir::types::ScalarType::F64 => {
                let mut out: Vec<u64> = a.shape.iter().map(|s| *s as u64).collect();
                out.extend(a.f64s().iter().map(|x| x.to_bits()));
                out
            }
            other => panic!("unexpected result {other:?}"),
        })
        .collect()
}

fn mat(shape: &[usize], f: impl Fn(usize) -> f64) -> Value {
    let n = shape.iter().product();
    Value::Arr(Array::from_f64(shape.to_vec(), (0..n).map(f).collect()))
}

// ---------------------------------------------------------------------
// (c) shapes the rewrite must get right, against the interp oracle
// ---------------------------------------------------------------------

/// Reads of one row directly, in a nested lambda, in a loop and in a
/// branch, plus a second forwarded row of the same map.
fn nested_reads() -> Fun {
    let mut b = Builder::new();
    b.build_fun(
        "nested_reads",
        &[Type::arr_f64(2), Type::arr_f64(2), Type::arr_i64(1)],
        |b, ps| {
            let js = ps[2];
            let out = b.map1(Type::arr_f64(1), &[ps[0], ps[1], js], |b, es| {
                let (row, other, j) = (es[0], es[1], es[2]);
                let direct = b.index(row, &[j.into()]);
                let inner = b.map1(Type::arr_f64(1), &[js], |b, ks| {
                    let a = b.index(row, &[ks[0].into()]);
                    let c = b.index(other, &[ks[0].into()]);
                    vec![b.fmul(a.into(), c.into())]
                });
                let looped = b.loop_(&[(Type::F64, Atom::f64(0.0))], Atom::i64(2), |b, t, st| {
                    let a = b.index(row, &[t.into()]);
                    vec![b.fadd(st[0].into(), a.into())]
                });
                let pos = b.gt(j.into(), Atom::i64(0));
                let branch = b.if_(
                    pos,
                    &[Type::F64],
                    |b| vec![b.index(row, &[Atom::i64(0)]).into()],
                    |b| vec![b.index(row, &[j.into()]).into()],
                );
                let s = b.sum(inner);
                let t = b.fadd(direct.into(), s.into());
                let u = b.fadd(t, looped[0].into());
                vec![b.fadd(u, branch[0].into())]
            });
            vec![b.sum(out).into(), out.into()]
        },
    )
}

/// `map (\xs -> sum (map (\x -> x[j] * x[j]) xs)) xss` — two maps deep.
fn two_deep() -> Fun {
    let mut b = Builder::new();
    b.build_fun("two_deep", &[Type::arr_f64(3), Type::I64], |b, ps| {
        let j = ps[1];
        let out = b.map1(Type::arr_f64(1), &[ps[0]], |b, xs| {
            let picked = b.map1(Type::arr_f64(1), &[xs[0]], |b, x| {
                let e = b.index(x[0], &[j.into()]);
                vec![b.fmul(e.into(), e.into())]
            });
            vec![b.sum(picked).into()]
        });
        vec![b.sum(out).into(), out.into()]
    })
}

/// A row parameter the lambda never looks at, beside one it gathers from.
fn unused_row() -> Fun {
    let mut b = Builder::new();
    b.build_fun(
        "unused_row",
        &[Type::arr_f64(2), Type::arr_f64(2), Type::arr_i64(1)],
        |b, ps| {
            let out = b.map1(Type::arr_f64(1), &[ps[0], ps[1], ps[2]], |b, es| {
                vec![b.index(es[1], &[es[2].into()]).into()]
            });
            vec![b.sum(out).into(), out.into()]
        },
    )
}

#[test]
fn rewritten_programs_evaluate_bitwise_equal_on_the_oracle() {
    let js = |n: usize| Value::from((0..n).map(|i| ((i * 7 + 1) % 3) as i64).collect::<Vec<_>>());
    let xs = |n: usize| mat(&[n, 3], |i| (i as f64 * 0.37).sin());
    let ys = |n: usize| mat(&[n, 3], |i| (i as f64 * 0.11).cos() - 0.5);
    let cases: Vec<(&str, Fun, Vec<Value>, usize)> = vec![
        ("nested", nested_reads(), vec![xs(4), ys(4), js(4)], 2),
        ("zero rows", nested_reads(), vec![xs(0), ys(0), js(0)], 2),
        (
            "two deep",
            two_deep(),
            vec![mat(&[3, 2, 4], |i| 1.0 / (i as f64 + 1.0)), Value::I64(2)],
            1,
        ),
        ("unused", unused_row(), vec![xs(4), ys(4), js(4)], 1),
    ];
    let oracle = Interp::sequential();
    for (name, fun, args, forwarded) in &cases {
        check_fun(fun).unwrap();
        let (out, count) = forward_row_reads_counted(fun);
        assert_eq!(count, *forwarded, "{name}: parameters forwarded");
        check_fun(&out).unwrap_or_else(|e| panic!("{name}: ill-typed after rewrite: {e}\n{out}"));
        assert!(
            matches!(forward_row_reads(&out), Cow::Borrowed(_)),
            "{name}"
        );
        assert_eq!(
            bits(&oracle.run(fun, args)),
            bits(&oracle.run(&out, args)),
            "{name}: values"
        );
        if *name == "zero rows" {
            // A map of extent zero returns its accumulators unchanged — on
            // the interpreter, the VM's generic path and its tape path —
            // so the gradient is an empty adjoint per (empty) parameter,
            // bitwise the same everywhere.
            let grads = |backend: &str| {
                let g = Engine::by_name(backend)
                    .unwrap()
                    .compile(fun)
                    .unwrap()
                    .grad(args)
                    .unwrap_or_else(|e| panic!("{name} on {backend}: {e:?}"));
                assert!(g.grads.iter().all(|v| v.as_arr().is_empty()), "{name}");
                bits(&g.grads)
            };
            let want = grads("interp-seq");
            assert_eq!(want.len(), 2, "{name}: one adjoint per float parameter");
            for backend in ["vm", "vm-seq"] {
                assert_eq!(grads(backend), want, "{name}: adjoints on {backend}");
            }
            continue;
        }
        // Reverse AD of both spellings (vjp forwards the first itself; the
        // second is already forwarded, so `vjp` sees it unchanged).
        let mut dargs = args.clone();
        dargs.push(Value::F64(1.0));
        dargs.push(match &oracle.run(fun, args)[1] {
            Value::Arr(a) => mat(&a.shape, |i| 0.25 * i as f64 - 1.0),
            other => panic!("{name}: {other:?}"),
        });
        assert_eq!(
            bits(&oracle.run(&futhark_ad::vjp(fun), &dargs)),
            bits(&oracle.run(&futhark_ad::vjp(&out), &dargs)),
            "{name}: adjoints"
        );
    }
}

// ---------------------------------------------------------------------
// (a) extent check, (b) bounds check
// ---------------------------------------------------------------------

fn runtime_error(name: &str, r: Result<Vec<Value>, FirError>) -> String {
    match r {
        Err(FirError::Exec(ExecError::Runtime { message, .. })) => message,
        other => panic!("{name}: expected a runtime error, got {other:?}"),
    }
}

#[test]
fn unequal_map_extents_fail_the_same_way_before_and_after() {
    let fun = unused_row();
    let forwarded = forward_row_reads(&fun).into_owned();
    // `ys` (the forwarded row's array) is one row short of `xs` and `js`.
    let args = vec![
        mat(&[4, 3], |i| i as f64),
        mat(&[3, 3], |i| i as f64),
        Value::from(vec![0i64, 1, 2, 0]),
    ];
    for (backend, engine) in backends(PassPipeline::none()) {
        let before = runtime_error(backend, engine.compile(&fun).unwrap().call(&args));
        let after = runtime_error(backend, engine.compile(&forwarded).unwrap().call(&args));
        assert_eq!(before, after, "{backend}");
    }
}

#[test]
fn out_of_bounds_columns_fail_per_dimension_before_and_after() {
    let fun = kmeans::sparse_objective_ir();
    let forwarded = forward_row_reads(&fun).into_owned();
    let good = kmeans::SparseKmeansData::generate(6, 8, 3, 4, 7);
    for bad_col in [good.d as i64, -1] {
        // The first non-zero is read against centre 0 first: as a flat
        // offset `centers[0, d]` would be the valid cell `centers[1, 0]`,
        // so an error here shows each dimension is checked on its own.
        let mut data = good.clone();
        data.col_idx[0] = bad_col;
        let args = data.ir_args();
        for (backend, engine) in backends(PassPipeline::none()) {
            let name = format!("{backend}, col {bad_col}");
            let (before, after) = (
                engine.compile(&fun).unwrap(),
                engine.compile(&forwarded).unwrap(),
            );
            let b = runtime_error(&name, before.call(&args));
            let a = runtime_error(&name, after.call(&args));
            for m in [&b, &a] {
                assert!(
                    m.contains("out of bounds") || m.contains("negative"),
                    "{name}: {m}"
                );
            }
            // The gradient re-executes the gather and fails likewise.
            assert!(
                matches!(
                    before.grad(&args),
                    Err(FirError::Exec(ExecError::Runtime { .. }))
                ),
                "{name}"
            );
        }
        // Under the standard pipeline the primal is rewritten in place.
        for (backend, engine) in backends(PassPipeline::standard()) {
            runtime_error(backend, engine.compile(&fun).unwrap().call(&args));
        }
    }
}

// ---------------------------------------------------------------------
// Irregular nests
// ---------------------------------------------------------------------

/// A `map` whose rows differ in length has no regular array to return: it
/// is a runtime error on every backend, on the generic path (`i64` rows
/// stacked by `Array::stack`) and on the tape path (`f64` rows written into
/// one flat buffer) alike — never an `Ok` with a shape its data does not
/// fill.
#[test]
fn irregular_rows_are_a_runtime_error_on_every_backend_and_path() {
    let mut b = Builder::new();
    let iotas = b.build_fun("iotas", &[Type::arr_i64(1)], |b, ps| {
        let rows = b.map1(Type::arr_i64(2), &[ps[0]], |b, ns| {
            vec![b.iota(ns[0].into()).into()]
        });
        vec![rows.into()]
    });
    let mut b = Builder::new();
    let replicas = b.build_fun("replicas", &[Type::arr_i64(1), Type::F64], |b, ps| {
        let rows = b.map1(Type::arr_f64(2), &[ps[0]], |b, ns| {
            vec![b.replicate(ns[0].into(), ps[1].into()).into()]
        });
        vec![rows.into()]
    });
    for fun in [&iotas, &replicas] {
        check_fun(fun).unwrap();
    }
    // The `f64` rows are a tape with a row result; the `i64` rows are not.
    let forms = |fun: &Fun| futhark_ad_repro::firvm::compile(fun).tape_report();
    assert_eq!(
        forms(&replicas),
        [futhark_ad_repro::firvm::KernelForm::Tape]
    );
    assert!(forms(&iotas)[0] != futhark_ad_repro::firvm::KernelForm::Tape);

    let ragged = Value::from(vec![1i64, 2, 3]);
    let regular = Value::from(vec![2i64, 2, 2]);
    for name in ["interp-seq", "vm-seq", "vm"] {
        let engine = Engine::by_name(name)
            .unwrap()
            .with_pipeline(PassPipeline::none());
        for (fun, extra) in [(&iotas, vec![]), (&replicas, vec![Value::F64(0.5)])] {
            let what = format!("{name}, {}", fun.name);
            let f = engine.compile(fun).unwrap();
            let args = |ns: &Value| [vec![ns.clone()], extra.clone()].concat();
            let message = runtime_error(&what, f.call(&args(&ragged)));
            assert!(message.contains("irregular array"), "{what}: {message}");
            // The same program over equal extents is a regular `[3, 2]`.
            let out = f.call(&args(&regular)).unwrap();
            assert_eq!(out[0].as_arr().shape, [3, 2], "{what}");
            assert_eq!(out[0].as_arr().data.len(), 6, "{what}");
        }
    }
}

/// An `upd_acc` whose value is not the extent its index addresses has no
/// cells to go to: a runtime error — never a row spilling into the next
/// one, or a prefix of one — on every backend, from the generic `upd_acc`
/// (the body of a `withacc`) and from the tape's whole-row adds (with one
/// index and with none) alike, in debug and release builds.
#[test]
fn upd_acc_of_the_wrong_extent_is_a_runtime_error_on_every_backend_and_path() {
    use futhark_ad_repro::firvm::{compile, KernelForm};
    // `acc[i] += row` for every `i` of `is`, from a `map` (a tape) or, for
    // `i = 0` alone, straight from the `withacc` body (generic bytecode).
    let indexed = |name: &str, in_map: bool| {
        let params = [Type::arr_f64(2), Type::arr_i64(1), Type::arr_f64(1)];
        Builder::new().build_fun(name, &params, |b, ps| {
            let out = b.with_acc(&[ps[0]], |b, accs| {
                if !in_map {
                    return vec![b.upd_acc(accs[0], &[Atom::i64(0)], ps[2].into()).into()];
                }
                let acc_ty = b.ty_of(accs[0]);
                let acc = b.map1(acc_ty, &[ps[1], accs[0]], |b, es| {
                    // `len row` first: the tape knows `row` as an array.
                    let n = b.len(ps[2]);
                    let zero = b.isub(n, n);
                    let at = b.iadd(es[0].into(), zero);
                    vec![b.upd_acc(es[1], &[at], ps[2].into()).into()]
                });
                vec![acc.into()]
            });
            vec![out[0].into()]
        })
    };
    // `acc += row`, the whole accumulator at once.
    let params = [Type::arr_f64(1), Type::arr_i64(1), Type::arr_f64(1)];
    let whole = Builder::new().build_fun("whole", &params, |b, ps| {
        let out = b.with_acc(&[ps[0]], |b, accs| {
            let acc_ty = b.ty_of(accs[0]);
            let acc = b.map1(acc_ty, &[ps[1], accs[0]], |b, es| {
                let n = b.len(ps[2]);
                let acc = b.upd_acc(es[1], &[], ps[2].into());
                // Keep `n` alive: one more scalar add at `acc[n - n]`.
                let zero = b.isub(n, n);
                vec![b.upd_acc(acc, &[zero], Atom::f64(0.0)).into()]
            });
            vec![acc.into()]
        });
        vec![out[0].into()]
    });
    let (generic, tape) = (indexed("generic", false), indexed("tape", true));
    let forms = |fun: &Fun| {
        check_fun(fun).unwrap();
        compile(fun).tape_report()
    };
    assert!(forms(&generic).iter().all(|k| *k != KernelForm::Tape));
    assert_eq!(forms(&tape)[0], KernelForm::Tape);
    assert_eq!(forms(&whole)[0], KernelForm::Tape);

    for name in ["interp-seq", "vm-seq", "vm"] {
        let engine = Engine::by_name(name)
            .unwrap()
            .with_pipeline(PassPipeline::none());
        for (fun, init) in [
            (&generic, mat(&[2, 2], |_| 0.0)),
            (&tape, mat(&[2, 2], |_| 0.0)),
            (&whole, mat(&[2], |_| 0.0)),
        ] {
            let f = engine.compile(fun).unwrap();
            for len in [1usize, 2, 3, 5] {
                let what = format!("{name}, {}, {len} elements", fun.name);
                let is = Value::from(vec![0i64]);
                let tapes = || engine.cache_stats().tier.map_or(0, |t| t.jit_hits);
                let before = tapes();
                let r = f.call(&[init.clone(), is, mat(&[len], |_| 1.0)]);
                if len == 2 {
                    let out = r.unwrap_or_else(|e| panic!("{what}: {e:?}"));
                    assert_eq!(out[0].as_arr().f64s()[..2], [1.0, 1.0], "{what}");
                    assert!(out[0].as_arr().f64s()[2..].iter().all(|x| *x == 0.0));
                    // The `map` ran as a tape wherever there is one to run.
                    let ran_as_tape = name != "interp-seq" && fun.name != "generic";
                    assert_eq!(tapes() - before, ran_as_tape as usize, "{what}");
                    continue;
                }
                let want = format!("upd_acc: value has {len} elements, the addressed slice has 2");
                let message = runtime_error(&what, r);
                assert!(message.contains(&want), "{what}: {message}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Where it must not fire
// ---------------------------------------------------------------------

#[test]
fn programs_without_row_gathers_are_borrowed_before_and_after_vjp() {
    let untouched: Vec<(&str, Fun)> = vec![
        ("gmm", gmm::objective_ir()),
        ("kmeans-dense", kmeans::dense_objective_ir()),
        ("lstm", lstm::objective_ir(4, 2)),
        ("d-lstm", adbench::dlstm_objective_ir(5)),
        ("ba", adbench::ba_objective_ir()),
        ("hand-simple", adbench::hand_objective_ir(false)),
        ("hand-complicated", adbench::hand_objective_ir(true)),
    ];
    for (name, fun) in &untouched {
        assert!(matches!(forward_row_reads(fun), Cow::Borrowed(_)), "{name}");
        let dfun = futhark_ad::vjp(fun);
        assert!(
            matches!(forward_row_reads(&dfun), Cow::Borrowed(_)),
            "{name}: vjp"
        );
    }
    let rewritten = [
        ("kmeans-sparse", kmeans::sparse_objective_ir(), 1),
        ("xsbench", mc::xsbench_ir(16), 1),
        ("rsbench", mc::rsbench_ir(4, 3), 3),
    ];
    for (name, fun, rows) in &rewritten {
        assert_eq!(forward_row_reads_counted(fun).1, *rows, "{name}");
    }
}

// ---------------------------------------------------------------------
// Two spellings, one answer
// ---------------------------------------------------------------------

/// `kmeans::sparse_objective_ir` written by hand the way the rewrite leaves
/// it: the inner map runs over `iota k` and reads the free `centers[c, col]`.
fn sparse_kmeans_hand_forwarded() -> Fun {
    let mut b = Builder::new();
    b.build_fun(
        "kmeans_sparse_cost",
        &[
            Type::arr_f64(1),
            Type::arr_i64(1),
            Type::arr_i64(1),
            Type::arr_f64(2),
        ],
        |b, ps| {
            let (values, col_idx, row_ptr, centers) = (ps[0], ps[1], ps[2], ps[3]);
            let cnorms = b.map1(Type::arr_f64(1), &[centers], |b, crow| {
                let sq = b.map1(Type::arr_f64(1), &[crow[0]], |b, es| {
                    vec![b.fmul(es[0].into(), es[0].into())]
                });
                vec![Atom::Var(b.sum(sq))]
            });
            let nrows = b.len(row_ptr);
            let n = b.isub(nrows, Atom::i64(1));
            let rows = b.iota(n);
            let per_row = b.map1(Type::arr_f64(1), &[rows], |b, iv| {
                let i = iv[0];
                let start = b.index(row_ptr, &[i.into()]);
                let ip1 = b.iadd(i.into(), Atom::i64(1));
                let stop = b.index(row_ptr, &[ip1]);
                let nnz = b.isub(stop.into(), start.into());
                let kcount = b.len(centers);
                let zero_dots = b.replicate(kcount, Atom::f64(0.0));
                let acc = b.loop_(
                    &[
                        (Type::F64, Atom::f64(0.0)),
                        (Type::arr_f64(1), Atom::Var(zero_dots)),
                    ],
                    nnz,
                    |b, j, state| {
                        let (pnorm, dots) = (state[0], state[1]);
                        let idx = b.iadd(start.into(), j.into());
                        let v = b.index(values, &[idx]);
                        let col = b.index(col_idx, &[idx]);
                        let vv = b.fmul(v.into(), v.into());
                        let pnorm2 = b.fadd(pnorm.into(), vv);
                        let k = b.len(centers);
                        let cs = b.iota(k);
                        let dots2 = b.map1(Type::arr_f64(1), &[cs, dots], |b, es| {
                            let c_col = b.index(centers, &[es[0].into(), col.into()]);
                            let contrib = b.fmul(v.into(), c_col.into());
                            vec![b.fadd(es[1].into(), contrib)]
                        });
                        vec![pnorm2, Atom::Var(dots2)]
                    },
                );
                let (pnorm, dots) = (acc[0], acc[1]);
                let dists = b.map1(Type::arr_f64(1), &[dots, cnorms], |b, es| {
                    let two = b.fmul(Atom::f64(2.0), es[0].into());
                    let t = b.fsub(Atom::Var(pnorm), two);
                    vec![b.fadd(t, es[1].into())]
                });
                vec![Atom::Var(b.minimum(dists))]
            });
            vec![Atom::Var(b.sum(per_row))]
        },
    )
}

#[test]
fn committed_and_hand_forwarded_sparse_kmeans_agree_bitwise_everywhere() {
    let committed = kmeans::sparse_objective_ir();
    let by_hand = sparse_kmeans_hand_forwarded();
    // The rewrite produces exactly the hand-written program (compared up to
    // binder names, as one closed lambda under the structural hash).
    let closed = |f: &Fun| {
        fir::hash::exp_key(&Exp::WithAcc {
            arrs: vec![],
            lam: Lambda {
                params: f.params.clone(),
                body: f.body.clone(),
                ret: f.ret.clone(),
            },
        })
    };
    assert_eq!(closed(&forward_row_reads(&committed)), closed(&by_hand));
    assert!(matches!(forward_row_reads(&by_hand), Cow::Borrowed(_)));
    let data = kmeans::SparseKmeansData::generate(30, 40, 5, 6, 11);
    let args = data.ir_args();
    let mut reference: Option<Vec<Vec<u64>>> = None;
    for pipeline in [PassPipeline::standard(), PassPipeline::none()] {
        for (backend, engine) in backends(pipeline.clone()) {
            for (spelling, fun) in [("committed", &committed), ("by hand", &by_hand)] {
                let cf = engine.compile(fun).unwrap();
                let cost = bits(&cf.call(&args).unwrap());
                let g = cf.grad(&args).unwrap();
                assert_eq!(bits(&g.value), cost, "{backend}: {spelling}");
                let mut got = cost;
                got.extend(bits(&g.grads));
                let want = reference.get_or_insert_with(|| got.clone());
                assert_eq!(
                    want,
                    &got,
                    "{backend}, {}: {spelling}",
                    pipeline.cache_key()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// jvp / vjp duality on the three programs the rewrite changes
// ---------------------------------------------------------------------

#[test]
fn jvp_and_vjp_are_dual_on_the_gather_workloads() {
    let cases: Vec<(&str, Fun, Vec<Value>)> = vec![
        {
            let d = kmeans::SparseKmeansData::generate(20, 30, 4, 5, 3);
            ("kmeans-sparse", kmeans::sparse_objective_ir(), d.ir_args())
        },
        {
            let d = mc::XsData::generate(12, 5, 40, 4);
            ("xsbench", mc::xsbench_ir(d.g), d.ir_args())
        },
        {
            let d = mc::RsData::generate(4, 4, 3, 30, 5);
            ("rsbench", mc::rsbench_ir(4, 3), d.ir_args())
        },
    ];
    for pipeline in [PassPipeline::standard(), PassPipeline::none()] {
        let engine = Engine::by_name("vm-seq").unwrap().with_pipeline(pipeline);
        for (name, fun, args) in &cases {
            let cf = engine.compile(fun).unwrap();
            // A fixed pseudo-random direction on every f64 parameter.
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let dir: Vec<(usize, Value)> = args
                .iter()
                .enumerate()
                .filter_map(|(i, a)| match a {
                    Value::Arr(a) if a.elem() == fir::types::ScalarType::F64 => {
                        let data = (0..a.f64s().len()).map(|_| next()).collect();
                        Some((i, Value::Arr(Array::from_f64(a.shape.clone(), data))))
                    }
                    _ => None,
                })
                .collect();
            // <J v, 1> on the scalar result ...
            let jv = cf.pushforward(args, &dir).unwrap().flat_tangents()[0];
            // ... equals <v, J^T 1>.
            let grads = cf.grad(args).unwrap().grads;
            assert_eq!(grads.len(), dir.len(), "{name}");
            let vjt: f64 = dir
                .iter()
                .zip(&grads)
                .map(|((_, v), g)| {
                    let (v, g) = (v.as_arr().f64s(), g.as_arr().f64s());
                    v.iter().zip(g).map(|(a, b)| a * b).sum::<f64>()
                })
                .sum();
            assert!(
                (jv - vjt).abs() <= 1e-9 * jv.abs().max(1.0),
                "{name}: <Jv,w> = {jv:?} but <v,J^T w> = {vjt:?}"
            );
        }
    }
}
