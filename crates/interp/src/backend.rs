//! The two-phase execution-backend abstraction.
//!
//! The paper's evaluation hinges on executing AD-transformed IR with an
//! aggressively optimizing parallel backend; this reproduction has two:
//! the tree-walking `Interp` in this crate and the
//! compiled bytecode VM in the `firvm` crate. Both implement [`Backend`],
//! which splits execution into two phases:
//!
//! 1. [`Backend::prepare`] type-checks (and, for compiled backends, lowers)
//!    a function **once**, returning a shared [`Executable`];
//! 2. [`Executable::run`] executes the prepared function on arguments,
//!    validating arity and argument types and returning `Err` instead of
//!    panicking on malformed input.
//!
//! The split matches the staged workflow of the `fir-api` crate — compile
//! once, run hot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fir::ir::Fun;
use fir::types::Type;

use crate::error::{panic_message, ExecError};
use crate::value::Value;
use crate::Interp;

/// A function prepared for repeated execution on a backend.
///
/// Implementations are `Send + Sync` so one prepared program can serve
/// concurrent callers (this is what `fir-api`'s `call_batch` relies on).
pub trait Executable: Send + Sync {
    /// The name of the prepared function.
    fn fun_name(&self) -> &str;

    /// The declared parameter types, used for argument validation and for
    /// deriving adjoint seeds / tangents in higher layers.
    fn param_types(&self) -> &[Type];

    /// The declared result types.
    fn result_types(&self) -> &[Type];

    /// Execute on `args`, returning the results. Arity and argument-type
    /// mismatches, and any runtime failure of the executor, are reported as
    /// `Err` — never a panic.
    fn run(&self, args: &[Value]) -> Result<Vec<Value>, ExecError>;

    /// Execute a function whose first result is a scalar `f64`.
    fn run_scalar(&self, args: &[Value]) -> Result<f64, ExecError> {
        let out = self.run(args)?;
        match out.first() {
            Some(Value::F64(x)) => Ok(*x),
            other => Err(ExecError::NotScalar {
                fun: self.fun_name().to_string(),
                got: format!("{other:?}"),
            }),
        }
    }

    /// The concrete prepared value, for layers that can exploit a specific
    /// backend's representation (e.g. persisting a VM's compiled bytecode).
    /// Callers must treat a failed downcast as "not that backend", never an
    /// error.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// An executor of type-checked `fir` functions.
pub trait Backend: Send + Sync {
    /// A short human-readable backend name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Type-check and prepare `fun` for repeated execution. Ill-typed IR is
    /// rejected here (`ExecError::IllTyped`), so [`Executable::run`] never
    /// sees a malformed program.
    fn prepare(&self, fun: &Fun) -> Result<Arc<dyn Executable>, ExecError>;

    /// The concrete backend value, for layers that can exploit a specific
    /// backend (see [`Executable::as_any`]).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Validate a call's arguments against the declared parameter types.
/// Shared by every backend so error messages are uniform.
pub fn validate_args(fun: &str, params: &[Type], args: &[Value]) -> Result<(), ExecError> {
    if args.len() != params.len() {
        return Err(ExecError::Arity {
            fun: fun.to_string(),
            expected: params.len(),
            got: args.len(),
        });
    }
    for (i, (arg, want)) in args.iter().zip(params).enumerate() {
        let got = arg.ty();
        if got != *want {
            return Err(ExecError::ArgType {
                fun: fun.to_string(),
                index: i,
                expected: *want,
                got,
            });
        }
    }
    Ok(())
}

/// A function prepared for the tree-walking interpreter: the (type-checked)
/// IR plus the execution configuration.
struct PreparedInterp {
    interp: Interp,
    fun: Arc<Fun>,
    params: Vec<Type>,
}

impl Executable for PreparedInterp {
    fn fun_name(&self) -> &str {
        &self.fun.name
    }

    fn param_types(&self) -> &[Type] {
        &self.params
    }

    fn result_types(&self) -> &[Type] {
        &self.fun.ret
    }

    fn run(&self, args: &[Value]) -> Result<Vec<Value>, ExecError> {
        validate_args(&self.fun.name, &self.params, args)?;
        catch_unwind(AssertUnwindSafe(|| self.interp.run(&self.fun, args))).map_err(|p| {
            ExecError::Runtime {
                fun: self.fun.name.clone(),
                message: panic_message(p),
            }
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Backend for Interp {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn prepare(&self, fun: &Fun) -> Result<Arc<dyn Executable>, ExecError> {
        fir::typecheck::check_fun(fun)?;
        Ok(Arc::new(PreparedInterp {
            interp: self.clone(),
            params: fun.params.iter().map(|p| p.ty).collect(),
            fun: Arc::new(fun.clone()),
        }))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    fn square() -> Fun {
        let mut b = Builder::new();
        b.build_fun("sq", &[Type::F64], |b, ps| {
            vec![b.fmul(ps[0].into(), ps[0].into())]
        })
    }

    #[test]
    fn prepare_then_run() {
        let backend: &dyn Backend = &Interp::new();
        assert_eq!(backend.name(), "interp");
        let exec = backend.prepare(&square()).unwrap();
        assert_eq!(exec.fun_name(), "sq");
        assert_eq!(exec.param_types(), &[Type::F64]);
        assert_eq!(exec.result_types(), &[Type::F64]);
        assert_eq!(exec.run_scalar(&[Value::F64(3.0)]).unwrap(), 9.0);
    }

    #[test]
    fn arity_and_type_mismatches_are_errors() {
        let exec = Interp::sequential().prepare(&square()).unwrap();
        match exec.run(&[]) {
            Err(ExecError::Arity {
                expected: 1,
                got: 0,
                ..
            }) => {}
            other => panic!("expected arity error, got {other:?}"),
        }
        match exec.run(&[Value::I64(3)]) {
            Err(ExecError::ArgType { index: 0, .. }) => {}
            other => panic!("expected argument type error, got {other:?}"),
        }
    }

    #[test]
    fn ill_typed_ir_is_rejected_at_prepare() {
        use fir::ir::{Atom, Body, Exp, Param, Stm, UnOp, VarId};
        let bad = Fun {
            name: "bad".into(),
            params: vec![],
            body: Body::new(
                vec![Stm::new(
                    vec![Param::new(VarId(1), Type::F64)],
                    Exp::UnOp(UnOp::Sin, Atom::Var(VarId(99))),
                )],
                vec![Atom::Var(VarId(1))],
            ),
            ret: vec![Type::F64],
        };
        match Interp::new().prepare(&bad) {
            Err(ExecError::IllTyped(e)) => assert_eq!(e.in_fun.as_deref(), Some("bad")),
            Err(e) => panic!("expected IllTyped, got {e:?}"),
            Ok(_) => panic!("ill-typed IR must not prepare"),
        }
    }
}
