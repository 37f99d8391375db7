//! Property-based tests (proptest): randomized programs and inputs, with
//! reverse-mode AD (through the staged `Engine` API) checked against finite
//! differences and against the tape-based baseline, and the engine checked
//! for parallel/sequential and raw/simplified agreement.

use fir::builder::Builder;
use fir::ir::{Atom, Fun};
use fir::types::Type;
use futhark_ad::gradcheck::{finite_diff_gradient, max_rel_error};
use futhark_ad_repro::{Engine, PassPipeline};
use interp::{ExecConfig, Interp, Value};
use proptest::prelude::*;

/// A small random scalar expression DAG over two inputs, interpreted as a
/// chain of binary operations chosen by `ops`.
fn build_scalar_chain(ops: &[u8]) -> Fun {
    let mut b = Builder::new();
    b.build_fun("chain", &[Type::F64, Type::F64], |b, ps| {
        let mut vals = vec![Atom::Var(ps[0]), Atom::Var(ps[1])];
        for (i, op) in ops.iter().enumerate() {
            let a = vals[i % vals.len()];
            let c = vals[(i + 1) % vals.len()];
            let v = match op % 6 {
                0 => b.fadd(a, c),
                1 => b.fmul(a, c),
                2 => b.fsub(a, c),
                3 => {
                    let s = b.fsin(a);
                    b.fadd(s, c)
                }
                4 => {
                    let e = b.fmul(a, Atom::f64(0.25));
                    let ex = b.fexp(e);
                    b.fadd(ex, c)
                }
                _ => {
                    let m = b.fmax(a, c);
                    b.fadd(m, Atom::f64(0.5))
                }
            };
            vals.push(v);
        }
        vec![*vals.last().unwrap()]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reverse_ad_matches_finite_differences_on_random_scalar_chains(
        ops in proptest::collection::vec(any::<u8>(), 1..12),
        x in -1.5f64..1.5,
        y in -1.5f64..1.5,
    ) {
        let fun = build_scalar_chain(&ops);
        let args = [Value::F64(x), Value::F64(y)];
        let engine = Engine::by_name("interp-seq").unwrap();
        let ad = engine.compile(&fun).unwrap().grad(&args).unwrap().flat_grads();
        let fd = finite_diff_gradient(&Interp::sequential(), &fun, &args, 1e-6);
        prop_assert!(max_rel_error(&ad, &fd) < 1e-3);
    }

    #[test]
    fn reverse_ad_matches_tape_baseline_on_array_programs(
        xs in proptest::collection::vec(-2.0f64..2.0, 1..24),
        c in -1.0f64..1.0,
    ) {
        let mut b = Builder::new();
        let fun = b.build_fun("arrprog", &[Type::arr_f64(1), Type::F64], |b, ps| {
            let cv = Atom::Var(ps[1]);
            let ys = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let t = b.ftanh(es[0].into());
                vec![b.fmul(t, cv)]
            });
            let s = b.scan_add(ys);
            let m = b.maximum(s);
            let total = b.sum(s);
            vec![b.fadd(m.into(), total.into())]
        });
        let args = [Value::from(xs), Value::F64(c)];
        let engine = Engine::by_name("interp-seq").unwrap();
        let g = engine.compile(&fun).unwrap().grad(&args).unwrap();
        let tape = tape_ad::gradient(&fun, &args);
        prop_assert!((g.scalar() - tape.value).abs() < 1e-9);
        prop_assert!(max_rel_error(&g.flat_grads(), &tape.gradient) < 1e-7);
    }

    #[test]
    fn parallel_and_sequential_execution_agree(
        xs in proptest::collection::vec(-1.0f64..1.0, 8..64),
    ) {
        let mut b = Builder::new();
        let fun = b.build_fun("sumexp", &[Type::arr_f64(1)], |b, ps| {
            let ys = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let e = b.fexp(es[0].into());
                vec![b.fmul(e, es[0].into())]
            });
            vec![b.sum(ys).into()]
        });
        let args = [Value::from(xs)];
        let a = Engine::by_name("interp-seq").unwrap()
            .compile(&fun).unwrap().call_scalar(&args).unwrap();
        let par = Engine::with_backend(Box::new(Interp::with_config(
            ExecConfig { parallel: true, num_threads: 4, parallel_threshold: 4 },
        )));
        let p = par.compile(&fun).unwrap().call_scalar(&args).unwrap();
        prop_assert!((a - p).abs() <= 1e-9 * a.abs().max(1.0));
    }

    #[test]
    fn simplification_preserves_random_program_semantics(
        ops in proptest::collection::vec(any::<u8>(), 1..10),
        x in -1.0f64..1.0,
        y in -1.0f64..1.0,
    ) {
        let fun = build_scalar_chain(&ops);
        let dfun = futhark_ad::vjp(&fun);
        let raw = Engine::by_name("interp-seq").unwrap()
            .with_pipeline(PassPipeline::none());
        let simplified = Engine::by_name("interp-seq").unwrap();
        let args = [Value::F64(x), Value::F64(y), Value::F64(1.0)];
        let a = raw.compile(&dfun).unwrap().call(&args).unwrap();
        let b2 = simplified.compile(&dfun).unwrap().call(&args).unwrap();
        for (u, v) in a.iter().zip(&b2) {
            prop_assert!((u.as_f64() - v.as_f64()).abs() < 1e-12);
        }
    }
}

/// `tape-ad` on programs over empty arrays: one generated smooth program
/// in eight or nine has a zero extent somewhere, and an empty `map` or
/// `scan` result used to panic ("stack of zero values"). It must return,
/// typed like the interpreter's empty result, and agree with `vjp`.
#[test]
fn tape_ad_differentiates_zero_extent_programs_like_vjp() {
    use fir_proptest::{arbitrary_fun, GenConfig};
    use proptest::TestRng;
    let engine = Engine::by_name("vm-seq").unwrap();
    let mut rng = TestRng::deterministic();
    let config = GenConfig {
        max_stms: 8,
        ..GenConfig::smooth()
    };
    let mut empty = 0;
    for case in 0..400 {
        let (fun, args) = arbitrary_fun(&format!("zero{case}"), &mut rng, &config);
        let zero_extent = args
            .iter()
            .any(|a| matches!(a, Value::Arr(arr) if arr.shape.contains(&0)));
        if !zero_extent {
            continue;
        }
        empty += 1;
        let tape = tape_ad::gradient(&fun, &args);
        let g = engine.compile(&fun).unwrap().grad(&args).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
        assert!(
            close(g.scalar(), tape.value),
            "zero{case}: {} vs {}",
            g.scalar(),
            tape.value
        );
        let vjp = g.flat_grads();
        assert_eq!(vjp.len(), tape.gradient.len(), "zero{case}");
        for (i, (a, b)) in vjp.iter().zip(&tape.gradient).enumerate() {
            assert!(close(*a, *b), "zero{case}: grad[{i}] {a} vs {b}");
        }
    }
    assert!(empty > 20, "only {empty} zero-extent programs in 400");
}
