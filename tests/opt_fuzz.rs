//! Semantics-preservation fuzzing of the optimization pipeline.
//!
//! For every randomly generated well-typed program (see `fir-proptest`),
//! the six configurations {standard pipeline, standard + memory planning
//! (`memplan`), no pipeline} × {tree-walking interpreter, firvm VM (tape
//! kernels wherever a kernel lowers, generic bytecode elsewhere)} must
//! agree **bitwise** on every result —
//! the optimizer may only rearrange *which* computations run, never a
//! single floating-point rounding. Gradients get the same treatment: the
//! engine derives `vjp` from the pre-pipeline source, so optimized and
//! unoptimized gradients are bitwise comparable too, and on the smooth
//! generator profile the optimized reverse-mode gradient is additionally
//! validated against central finite differences and against the optimized
//! forward-mode directional derivative.
//!
//! Case counts: 256 bitwise cases and 64 gradient cases by default
//! (`OPT_FUZZ_CASES` scales the bitwise count down to a bound in CI-smoke
//! contexts or up for soak runs). Generation is driven by the fixed-seed
//! deterministic `TestRng`, so every run — local or CI — sees the same
//! programs.

use fir::ir::Fun;
use fir::typecheck::check_fun;
use fir_proptest::{arbitrary_fun, GenConfig};
use futhark_ad::gradcheck::{finite_diff_gradient, max_rel_error};
use futhark_ad_repro::{Engine, PassPipeline};
use interp::Value;
use proptest::TestRng;

fn cases_from_env(default: usize) -> usize {
    std::env::var("OPT_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The six engines of the differential square, sharing nothing. The
/// interpreter is the bitwise oracle; the VM runs every kernel that lowers
/// as a tape from the first call (the tape-vs-generic-bytecode property
/// itself is `firvm`'s own unit tests). The `+mem` column runs the
/// standard pipeline with the `memplan` pass appended, so dead-source copy
/// elimination and arena-backed buffer reuse face the same bitwise bar as
/// every other rewrite.
fn engines() -> [(&'static str, Engine); 6] {
    let mk = |backend: &str, pipeline: PassPipeline| {
        Engine::by_name(backend).unwrap().with_pipeline(pipeline)
    };
    [
        ("interp+std", mk("interp-seq", PassPipeline::standard())),
        ("interp+none", mk("interp-seq", PassPipeline::none())),
        ("vm+std", mk("vm-seq", PassPipeline::standard())),
        ("vm+none", mk("vm-seq", PassPipeline::none())),
        // Appended after the original four so positional references (the
        // forward-mode check compiles on engines[2] = vm+std) stay stable.
        ("interp+mem", mk("interp-seq", PassPipeline::standard_mem())),
        ("vm+mem", mk("vm-seq", PassPipeline::standard_mem())),
    ]
}

/// Per-backend *parallel* standard-vs-none pairs, with the parallelism
/// threshold forced low enough that the generator's tiny arrays actually
/// take the chunked code paths. Comparisons are within one backend (the
/// two backends may chunk differently from each other), pinning down that
/// a fused `redomap`'s parallel fold-and-combine is bitwise identical to
/// the `reduce (map ...)` it replaced — on the VM, through the tape
/// executor's chunked folds wherever the kernels lower.
fn parallel_pairs() -> [(&'static str, Engine, Engine); 2] {
    use interp::{ExecConfig, Interp};
    let cfg = ExecConfig {
        parallel: true,
        num_threads: 4,
        parallel_threshold: 2,
    };
    let interp_std = Engine::with_backend(Box::new(Interp::with_config(cfg.clone())))
        .with_pipeline(PassPipeline::standard());
    let interp_none = Engine::with_backend(Box::new(Interp::with_config(cfg.clone())))
        .with_pipeline(PassPipeline::none());
    let vm_std = Engine::with_backend(Box::new(firvm::Vm::with_config(cfg.clone())))
        .with_pipeline(PassPipeline::standard());
    let vm_none = Engine::with_backend(Box::new(firvm::Vm::with_config(cfg)))
        .with_pipeline(PassPipeline::none());
    [
        ("interp-par", interp_std, interp_none),
        ("vm-par", vm_std, vm_none),
    ]
}

fn assert_bitwise_eq(case: &str, config: &str, want: &[Value], got: &[Value]) {
    assert_eq!(want.len(), got.len(), "{case}: arity under {config}");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        match (w, g) {
            (Value::F64(a), Value::F64(b)) => assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{case}: result {i} differs under {config}: {a:?} vs {b:?}"
            ),
            (Value::I64(a), Value::I64(b)) => {
                assert_eq!(a, b, "{case}: result {i} under {config}")
            }
            (Value::Bool(a), Value::Bool(b)) => {
                assert_eq!(a, b, "{case}: result {i} under {config}")
            }
            (Value::Arr(a), Value::Arr(b)) => {
                assert_eq!(a.shape, b.shape, "{case}: result {i} shape under {config}");
                assert_eq!(a.elem(), b.elem(), "{case}: result {i} elem under {config}");
                if a.elem() == fir::types::ScalarType::F64 {
                    for (j, (x, y)) in a.f64s().iter().zip(b.f64s()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{case}: result {i}[{j}] differs under {config}: {x:?} vs {y:?}"
                        );
                    }
                } else {
                    assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "{case}: result {i} under {config}"
                    );
                }
            }
            other => panic!("{case}: unexpected result pair {other:?}"),
        }
    }
}

#[test]
fn random_programs_agree_bitwise_across_pipelines_and_backends() {
    let cases = cases_from_env(256);
    let mut rng = TestRng::deterministic();
    let engines = engines();
    let parallel = parallel_pairs();
    for case in 0..cases {
        let name = format!("fuzz{case}");
        let (fun, args) = arbitrary_fun(&name, &mut rng, &GenConfig::default());
        check_fun(&fun).unwrap_or_else(|e| panic!("{name}: generator emitted ill-typed IR: {e}"));
        let reference = engines[0].1.compile(&fun).unwrap().call(&args).unwrap();
        for (config, engine) in &engines[1..] {
            let got = engine.compile(&fun).unwrap().call(&args).unwrap();
            assert_bitwise_eq(&name, config, &reference, &got);
        }
        // Parallel chunked paths: standard vs none within each backend
        // (primal only — the generator emits no accumulators, so parallel
        // primal execution is deterministic).
        for (config, std_engine, none_engine) in &parallel {
            let a = std_engine.compile(&fun).unwrap().call(&args).unwrap();
            let b = none_engine.compile(&fun).unwrap().call(&args).unwrap();
            assert_bitwise_eq(&name, config, &b, &a);
        }
    }
}

#[test]
fn random_gradients_agree_bitwise_and_pass_gradcheck() {
    let cases = cases_from_env(64).clamp(1, 64);
    let mut rng = TestRng::deterministic();
    let engines = engines();
    for case in 0..cases {
        let name = format!("grad{case}");
        let (fun, args) = arbitrary_fun(&name, &mut rng, &GenConfig::smooth());
        check_fun(&fun).unwrap_or_else(|e| panic!("{name}: ill-typed: {e}"));

        // Reverse mode, bitwise across all six configurations (vjp is
        // derived from the pre-pipeline source, then optimized per engine).
        let reference = engines[0].1.compile(&fun).unwrap().grad(&args).unwrap();
        for (config, engine) in &engines[1..] {
            let got = engine.compile(&fun).unwrap().grad(&args).unwrap();
            assert_eq!(
                reference.scalar().to_bits(),
                got.scalar().to_bits(),
                "{name}: primal under {config}"
            );
            let (a, b) = (reference.flat_grads(), got.flat_grads());
            assert_eq!(a.len(), b.len(), "{name}: gradient arity under {config}");
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name}: grad[{i}] differs under {config}: {x:?} vs {y:?}"
                );
            }
        }

        // The fully-optimized gradient still matches finite differences.
        let fd = finite_diff_gradient(&interp::Interp::sequential(), &fun, &args, 1e-6);
        let err = max_rel_error(&reference.flat_grads(), &fd);
        assert!(
            err < 1e-4,
            "{name}: gradcheck failed after the full pipeline, max rel err {err:.3e}\n{fun}"
        );

        // Forward mode through the pipeline: the directional derivative
        // along each parameter must match the reverse-mode block sums.
        let cf = engines[2].1.compile(&fun).unwrap();
        for (i, arg) in args.iter().enumerate() {
            let ones = match arg {
                Value::F64(_) => Value::F64(1.0),
                Value::Arr(a) => Value::Arr(interp::Array::from_f64(
                    a.shape.clone(),
                    vec![1.0; a.f64s().len()],
                )),
                other => panic!("unexpected arg {other:?}"),
            };
            let dual = cf.pushforward(&args, &[(i, ones)]).unwrap();
            let grads = reference.grads[i].clone();
            let want: f64 = match grads {
                Value::F64(x) => x,
                Value::Arr(a) => a.f64s().iter().sum(),
                other => panic!("unexpected grad {other:?}"),
            };
            let got = dual.flat_tangents()[0];
            let denom = want.abs().max(1.0);
            assert!(
                ((got - want) / denom).abs() < 1e-9,
                "{name}: jvp/vjp disagree on param {i}: {got:?} vs {want:?}"
            );
        }
    }
}

/// A pinned (non-random) case for the signed-zero constant folds: the
/// standard pipeline folds `x + (-0.0)` but must leave `x + (+0.0)`
/// intact, and all six configurations have to agree bitwise on a program
/// whose inputs and intermediates include `-0.0` itself — the exact value
/// the fold's restriction to negative-zero addends protects.
#[test]
fn negative_zero_addend_pin_case_stays_bitwise() {
    use fir::ir::Atom;
    use fir::types::Type;
    let mut b = fir::builder::Builder::new();
    let fun = b.build_fun("negzero", &[Type::F64, Type::arr_f64(1)], |b, ps| {
        let folds = b.fadd(ps[0].into(), Atom::f64(-0.0));
        let stays = b.fadd(ps[0].into(), Atom::f64(0.0));
        let m = b.map1(Type::arr_f64(1), &[ps[1]], |b, es| {
            vec![b.fadd(es[0].into(), Atom::f64(-0.0))]
        });
        let s = b.sum(m);
        let t = b.fadd(folds, stays);
        vec![b.fadd(t, Atom::Var(s)), Atom::Var(m)]
    });
    check_fun(&fun).unwrap();
    let args = vec![
        Value::F64(-0.0),
        Value::Arr(interp::Array::from_f64(vec![3], vec![-0.0, 0.0, -1.5])),
    ];
    let engines = engines();
    let reference = engines[0].1.compile(&fun).unwrap().call(&args).unwrap();
    for (config, engine) in &engines[1..] {
        let got = engine.compile(&fun).unwrap().call(&args).unwrap();
        assert_bitwise_eq("negzero", config, &reference, &got);
    }
    // The mapped `e + (-0.0)` keeps -0.0 elements bit-exactly (an
    // optimizer that folded it to identity and one that executed the add
    // agree only because the identity is bitwise-true).
    let Value::Arr(arr) = &reference[1] else {
        panic!("negzero: expected an array result");
    };
    assert_eq!(arr.f64s()[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(arr.f64s()[1].to_bits(), 0u64);
}

/// The vmap transform over the generated programs: for every random
/// well-typed function, `vmap f` applied to a stacked batch of three
/// (deterministically perturbed) argument sets must agree **bitwise**,
/// element by element, with running `f` per example — across
/// {standard, standard+memplan, none} × {interp, firvm}. This pins down that the
/// rank-promotion lowering and the re-optimization of the vmapped
/// program never change a single floating-point rounding.
#[test]
fn random_programs_vmap_agrees_with_per_example_execution_bitwise() {
    let cases = cases_from_env(64).clamp(1, 128);
    let mut rng = TestRng::deterministic();
    let engines = engines();
    let mut vmapped = 0usize;
    for case in 0..cases {
        let name = format!("vmap{case}");
        let (fun, args) = arbitrary_fun(&name, &mut rng, &GenConfig::default());
        check_fun(&fun).unwrap_or_else(|e| panic!("{name}: ill-typed: {e}"));
        if fun.params.is_empty() {
            continue; // nothing to map over
        }
        // A batch of three: the original arguments plus two copies with
        // every f64 leaf deterministically perturbed (shapes and integer
        // data unchanged, so control flow stays in bounds).
        let batch: Vec<Vec<Value>> = (0..3)
            .map(|r| {
                args.iter()
                    .map(|v| match v {
                        Value::F64(x) => Value::F64(x + 0.125 * r as f64),
                        Value::Arr(a) if a.elem() == fir::types::ScalarType::F64 => {
                            let data = a.f64s().iter().map(|x| x + 0.125 * r as f64).collect();
                            Value::Arr(interp::Array::from_f64(a.shape.clone(), data))
                        }
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect();
        let Some(stacked) = fir_api::batch::stack_args(&batch) else {
            panic!("{name}: same-shape batch must stack");
        };
        vmapped += 1;
        for (config, engine) in &engines {
            let cf = engine.compile(&fun).unwrap();
            let vf = cf.vmap().unwrap_or_else(|e| panic!("{name}: vmap: {e}"));
            let outs = vf
                .call(&stacked)
                .unwrap_or_else(|e| panic!("{name}: vmap call under {config}: {e}"));
            let rows = fir_api::batch::unstack_results(&fun.ret, &outs, batch.len());
            for (i, example) in batch.iter().enumerate() {
                let want = cf.call(example).unwrap();
                assert_bitwise_eq(
                    &format!("{name}[{i}]"),
                    &format!("{config} vmap"),
                    &want,
                    &rows[i],
                );
            }
        }
    }
    assert!(vmapped > 0, "generator produced no vmappable programs");
}

/// The ten workloads at test sizes.
fn workloads() -> Vec<(&'static str, Fun, Vec<Value>)> {
    use workloads::{adbench, gmm, kmeans, lstm, mc};
    vec![
        {
            let d = gmm::GmmData::generate(25, 4, 4, 21);
            ("gmm", gmm::objective_ir(), d.ir_args())
        },
        {
            let d = kmeans::KmeansData::generate(80, 4, 4, 22);
            ("kmeans-dense", kmeans::dense_objective_ir(), d.ir_args())
        },
        {
            let d = kmeans::SparseKmeansData::generate(60, 12, 4, 4, 23);
            ("kmeans-sparse", kmeans::sparse_objective_ir(), d.ir_args())
        },
        {
            let d = lstm::LstmData::generate(5, 4, 4, 2, 24);
            ("lstm", lstm::objective_ir(d.h, d.bs), d.ir_args())
        },
        {
            let d = adbench::BaData::generate(6, 24, 96, 25);
            ("ba", adbench::ba_objective_ir(), d.ir_args())
        },
        {
            let d = adbench::HandData::generate(12, 4, 26);
            (
                "hand-simple",
                adbench::hand_objective_ir(false),
                d.ir_args(false),
            )
        },
        {
            let d = adbench::HandData::generate(12, 4, 27);
            (
                "hand-complicated",
                adbench::hand_objective_ir(true),
                d.ir_args(true),
            )
        },
        {
            let d = adbench::DlstmData::generate(8, 5, 5, 28);
            ("d-lstm", adbench::dlstm_objective_ir(d.h), d.ir_args())
        },
        {
            let d = mc::XsData::generate(12, 5, 128, 29);
            ("xsbench", mc::xsbench_ir(d.g), d.ir_args())
        },
        {
            let d = mc::RsData::generate(5, 4, 3, 96, 30);
            ("rsbench", mc::rsbench_ir(4, 3), d.ir_args())
        },
    ]
}

/// All ten workload instances (the paper's nine benchmarks, with HAND in
/// both its simple and complicated variants), bitwise across
/// optimized/memplanned/unoptimized × interp/firvm (sequential configurations, where
/// float reassociation cannot occur) — the acceptance bar for every pass
/// in the pipeline.
#[test]
fn all_workloads_agree_bitwise_across_pipelines_and_backends() {
    let workloads = workloads();
    let engines = engines();
    for (name, fun, args) in &workloads {
        let reference = engines[0].1.compile(fun).unwrap().call(args).unwrap();
        for (config, engine) in &engines[1..] {
            let got = engine.compile(fun).unwrap().call(args).unwrap();
            assert_bitwise_eq(name, config, &reference, &got);
        }
        // Gradients too: vjp derives from the same source everywhere.
        let gref = engines[0].1.compile(fun).unwrap().grad(args).unwrap();
        for (config, engine) in &engines[1..] {
            let got = engine.compile(fun).unwrap().grad(args).unwrap();
            assert_eq!(
                gref.scalar().to_bits(),
                got.scalar().to_bits(),
                "{name}: vjp primal under {config}"
            );
            for (i, (x, y)) in gref.flat_grads().iter().zip(&got.flat_grads()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}: grad[{i}] under {config}");
            }
        }
    }
}

/// The acceptance bar of the pass suite: the GMM D=5 gradient executes with
/// at least 20% fewer (statically counted, per the pass-stats layer) VM
/// statements under the standard pipeline than under `PassPipeline::none`.
#[test]
fn gmm_d5_gradient_shrinks_at_least_20_percent() {
    use workloads::gmm;
    let fun = gmm::objective_ir();
    let engine = Engine::by_name("vm-seq")
        .unwrap()
        .with_pipeline(PassPipeline::standard());
    let cf = engine.compile(&fun).unwrap();
    let vjp = cf.vjp().unwrap();
    let stats = engine.opt_stats();
    // Both the primal and its vjp went through the pipeline.
    assert_eq!(stats.functions, 2);
    let unopt = fir_opt::count_stms(&futhark_ad::vjp(&fun));
    let opt = fir_opt::count_stms(vjp.fun());
    assert!(
        (opt as f64) <= 0.8 * (unopt as f64),
        "GMM gradient: expected >= 20% fewer statements, got {opt} vs {unopt} \
         (pipeline stats: {stats:?})"
    );
    // The stats layer must account for exactly this reduction.
    assert_eq!(stats.stms_after, fir_opt::count_stms(cf.fun()) + opt);
    assert!(stats.total_rewrites() > 0);
    // And the optimized gradient still computes the same numbers (D=5).
    let d = gmm::GmmData::generate(30, 5, 3, 31);
    let unopt_engine = Engine::by_name("vm-seq")
        .unwrap()
        .with_pipeline(PassPipeline::none());
    let g_opt = cf.grad(&d.ir_args()).unwrap();
    let g_ref = unopt_engine
        .compile(&fun)
        .unwrap()
        .grad(&d.ir_args())
        .unwrap();
    assert_eq!(g_opt.scalar().to_bits(), g_ref.scalar().to_bits());
    for (x, y) in g_opt.flat_grads().iter().zip(&g_ref.flat_grads()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// `map` statements in `fun`, at any depth.
fn maps(fun: &Fun) -> usize {
    fn body(b: &fir::ir::Body) -> usize {
        use fir::ir::Exp;
        b.stms
            .iter()
            .map(|s| {
                usize::from(matches!(s.exp, Exp::Map { .. }))
                    + match &s.exp {
                        Exp::If {
                            then_br, else_br, ..
                        } => body(then_br) + body(else_br),
                        Exp::Loop { body: b, .. } => body(b),
                        Exp::Map { lam, .. }
                        | Exp::Reduce { lam, .. }
                        | Exp::Scan { lam, .. }
                        | Exp::WithAcc { lam, .. } => body(&lam.body),
                        Exp::Redomap {
                            red_lam, map_lam, ..
                        } => body(&red_lam.body) + body(&map_lam.body),
                        _ => 0,
                    }
            })
            .sum()
    }
    body(&fun.body)
}

/// The standard pipeline stops at its fixed point: applied to its own
/// output it makes no rewrite and returns the same program. No workload,
/// primal or vjp, needs the round cap. The fuzz corpus is the one the
/// bitwise test above runs, and the stream-invariant extraction (a
/// `hoist` rewrite that adds a `map`) must fire on some of it.
#[test]
fn the_standard_pipeline_is_a_fixed_point_of_its_own_output() {
    let pipeline = PassPipeline::standard();
    let settle = |name: &str, fun: &Fun| {
        let (once, stats) = pipeline.apply_with_stats(fun);
        let (twice, again) = pipeline.apply_with_stats(&once);
        assert_eq!(again.rewrites(), 0, "{name}: {:?}", again.runs);
        // Compared as printed: a `NaN` constant is never `==` itself.
        assert_eq!(format!("{twice:?}"), format!("{once:?}"), "{name}");
        stats.iterations
    };
    for (name, fun, _) in workloads() {
        for (what, f) in [("primal", fun.clone()), ("vjp", futhark_ad::vjp(&fun))] {
            let rounds = settle(&format!("{name} {what}"), &f);
            assert!(
                rounds < pipeline.max_iterations(),
                "{name} {what}: {rounds} rounds reach the cap"
            );
        }
    }
    let cases = cases_from_env(256);
    let mut rng = TestRng::deterministic();
    let mut extracted = 0;
    for case in 0..cases {
        let name = format!("fuzz{case}");
        let (fun, _) = arbitrary_fun(&name, &mut rng, &GenConfig::default());
        settle(&name, &fun);
        let plain = fir_opt::copy_propagation(&fun);
        extracted += usize::from(maps(&fir_opt::hoist_invariants(&plain)) > maps(&plain));
    }
    println!("stream-invariant extraction rewrote {extracted} of {cases} fuzz programs");
    assert!(extracted > 0);
}
