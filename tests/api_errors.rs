//! Error-path coverage for the staged API: arity mismatches, argument type
//! mismatches, and ill-typed IR must surface as `Err(FirError)` through
//! `Engine::compile` and the `CompiledFn` call surface on **both**
//! backends — never a panic. (The seed backends panicked on all three.)

use fir::builder::Builder;
use fir::ir::{Atom, Body, Exp, Fun, Param, Stm, UnOp, VarId};
use fir::types::Type;
use futhark_ad_repro::{Engine, FirError, BACKEND_NAMES};
use interp::{ExecError, Value};

fn square() -> Fun {
    let mut b = Builder::new();
    b.build_fun("sq", &[Type::F64], |b, ps| {
        vec![b.fmul(ps[0].into(), ps[0].into())]
    })
}

fn dot() -> Fun {
    let mut b = Builder::new();
    b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
        let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
            vec![b.fmul(es[0].into(), es[1].into())]
        });
        vec![b.sum(prods).into()]
    })
}

/// An IR function referring to an unbound variable (structurally invalid).
fn ill_typed() -> Fun {
    Fun {
        name: "unbound".into(),
        params: vec![],
        body: Body::new(
            vec![Stm::new(
                vec![Param::new(VarId(1), Type::F64)],
                Exp::UnOp(UnOp::Sin, Atom::Var(VarId(99))),
            )],
            vec![Atom::Var(VarId(1))],
        ),
        ret: vec![Type::F64],
    }
}

#[test]
fn arity_mismatch_is_an_error_on_both_backends() {
    for name in ["interp-seq", "vm-seq"] {
        let cf = Engine::by_name(name).unwrap().compile(&square()).unwrap();
        match cf.call(&[]) {
            Err(FirError::Exec(ExecError::Arity {
                expected: 1,
                got: 0,
                ..
            })) => {}
            other => panic!("{name}: expected arity error, got {other:?}"),
        }
        match cf.call(&[Value::F64(1.0), Value::F64(2.0)]) {
            Err(FirError::Exec(ExecError::Arity {
                expected: 1,
                got: 2,
                ..
            })) => {}
            other => panic!("{name}: expected arity error, got {other:?}"),
        }
        // The seeded conveniences validate too.
        assert!(cf.grad(&[]).is_err());
        assert!(cf.pushforward(&[], &[]).is_err());
        assert!(cf.hvp(&[], &[]).is_err());
    }
}

#[test]
fn argument_type_mismatch_is_an_error_on_both_backends() {
    for name in ["interp-seq", "vm-seq"] {
        let cf = Engine::by_name(name).unwrap().compile(&square()).unwrap();
        match cf.call(&[Value::I64(3)]) {
            Err(FirError::Exec(ExecError::ArgType { index: 0, .. })) => {}
            other => panic!("{name}: expected type error, got {other:?}"),
        }
        // Rank mismatch: a matrix where a vector is expected.
        let cf = Engine::by_name(name).unwrap().compile(&dot()).unwrap();
        let mat = Value::Arr(interp::Array::zeros(
            fir::types::ScalarType::F64,
            vec![2, 2],
        ));
        match cf.call(&[mat, Value::from(vec![1.0])]) {
            Err(FirError::Exec(ExecError::ArgType { index: 0, .. })) => {}
            other => panic!("{name}: expected rank error, got {other:?}"),
        }
    }
}

#[test]
fn ill_typed_ir_is_rejected_at_compile_on_both_backends() {
    for name in ["interp-seq", "vm-seq"] {
        let engine = Engine::by_name(name).unwrap();
        match engine.compile(&ill_typed()) {
            Err(FirError::Type(e)) => {
                assert_eq!(e.in_fun.as_deref(), Some("unbound"));
                assert!(e.message.contains("unbound variable"), "{e}");
            }
            Ok(_) => panic!("{name}: ill-typed IR must not compile"),
            Err(e) => panic!("{name}: expected Type error, got {e:?}"),
        }
    }
}

#[test]
fn backend_prepare_rejects_ill_typed_ir_directly() {
    // The two-phase trait itself (below the Engine) is fallible too.
    for name in ["interp-seq", "vm-seq"] {
        let backend = futhark_ad_repro::fir_api::backend_by_name(name).unwrap();
        match backend.prepare(&ill_typed()) {
            Err(ExecError::IllTyped(_)) => {}
            Ok(_) => panic!("{name}: prepare must reject ill-typed IR"),
            Err(e) => panic!("{name}: expected IllTyped, got {e:?}"),
        }
    }
}

#[test]
fn unknown_backend_name_lists_the_valid_names() {
    match Engine::by_name("cuda") {
        Err(FirError::UnknownBackend { name, known }) => {
            assert_eq!(name, "cuda");
            assert_eq!(known, BACKEND_NAMES);
            for n in known {
                assert!(Engine::by_name(n).is_ok(), "registered name {n} must work");
            }
        }
        Ok(_) => panic!("\"cuda\" must not resolve"),
        Err(e) => panic!("expected UnknownBackend, got {e:?}"),
    }
    // The error renders the listing for FIR_BACKEND users.
    let msg = match Engine::by_name("cuda") {
        Err(e) => e.to_string(),
        Ok(_) => unreachable!(),
    };
    assert!(msg.contains("vm"), "{msg}");
    assert!(msg.contains("interp-seq"), "{msg}");
}

#[test]
fn grad_of_a_non_differentiable_function_is_unsupported() {
    let mut b = Builder::new();
    let f = b.build_fun("count", &[Type::arr_i64(1)], |b, ps| vec![b.len(ps[0])]);
    let cf = Engine::new().compile(&f).unwrap();
    let args = [Value::from(vec![1i64, 2, 3])];
    assert_eq!(cf.call(&args).unwrap()[0].as_i64(), 3);
    match cf.grad(&args) {
        Err(FirError::Unsupported { what }) => assert!(what.contains("count"), "{what}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn batch_calls_report_the_failing_request() {
    let cf = Engine::by_name("vm-seq").unwrap().compile(&dot()).unwrap();
    let good = vec![Value::from(vec![1.0, 2.0]), Value::from(vec![3.0, 4.0])];
    let bad = vec![Value::from(vec![1.0, 2.0])];
    let out = cf.call_batch(&[good.clone(), bad, good]);
    assert_eq!(out.len(), 3);
    assert_eq!(out[0].as_ref().unwrap()[0].as_f64(), 11.0);
    assert!(matches!(
        out[1],
        Err(FirError::Exec(ExecError::Arity {
            expected: 2,
            got: 1,
            ..
        }))
    ));
    assert_eq!(out[2].as_ref().unwrap()[0].as_f64(), 11.0);
}
