//! Value-level companions of the [`Transform::Vmap`](crate::Transform::Vmap)
//! transform: stack a batch of same-shaped argument lists into the
//! argument list of a vmapped program, and split its results back per
//! example.
//!
//! `vmap` lifts every parameter and result type by one leading (batch)
//! dimension:
//!
//! ```text
//!   f      : (p_1: T_1, ..., p_k: T_k) -> (R_1, ..., R_m)
//!   vmap f : ([B]T_1, ..., [B]T_k)     -> ([B]R_1, ..., [B]R_m)
//! ```
//!
//! so a caller holding per-example values (a per-example-gradient stack
//! `[Vjp, Vmap]`, a remote `"vmap"` request) needs exactly these two
//! conversions around the call. Shapes in this IR are dynamic (types
//! carry only rank), so one vmapped program serves every batch size.

use fir::types::Type;
use interp::{Array, Value};

/// Whether every request shares the arity, element types, and shapes of
/// the first — the precondition for stacking.
fn stackable(batch: &[impl AsRef<[Value]>]) -> bool {
    let first = batch[0].as_ref();
    batch[1..].iter().all(|req| {
        let req = req.as_ref();
        req.len() == first.len()
            && req.iter().zip(first).all(|(v, f)| match (v, f) {
                (Value::F64(_), Value::F64(_))
                | (Value::I64(_), Value::I64(_))
                | (Value::Bool(_), Value::Bool(_)) => true,
                (Value::Arr(a), Value::Arr(b)) => a.shape == b.shape && a.elem() == b.elem(),
                _ => false,
            })
    })
}

/// Stack per-request argument lists into the vmapped program's argument
/// list (one array of outer length `batch.len()` per parameter). Returns
/// `None` when the batch is empty or the requests' shapes disagree.
pub fn stack_args(batch: &[impl AsRef<[Value]>]) -> Option<Vec<Value>> {
    if batch.is_empty() || !stackable(batch) {
        return None;
    }
    let arity = batch[0].as_ref().len();
    Some(
        (0..arity)
            .map(|j| {
                let col: Vec<Value> = batch.iter().map(|req| req.as_ref()[j].clone()).collect();
                Value::Arr(Array::stack(&col))
            })
            .collect(),
    )
}

/// Split the vmapped program's results back into per-request result
/// lists by indexing each output along its leading (batch) dimension —
/// the splitting itself is shape-driven, so each slot comes back as a
/// scalar or array according to the stacked value's rank. `ret` is the
/// *original* (pre-vmap) function's result signature and is checked
/// against the outputs (arity and lifted rank); it panics on mismatch,
/// catching callers that hand results of the wrong program.
pub fn unstack_results(ret: &[Type], outs: &[Value], batch: usize) -> Vec<Vec<Value>> {
    assert_eq!(
        ret.len(),
        outs.len(),
        "unstack_results: {} result types for {} outputs",
        ret.len(),
        outs.len()
    );
    for (t, o) in ret.iter().zip(outs) {
        assert_eq!(
            t.rank() + 1,
            o.as_arr().shape.len(),
            "unstack_results: output rank does not match the lifted signature"
        );
    }
    (0..batch)
        .map(|i| outs.iter().map(|o| o.as_arr().index(&[i])).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacking_round_trips_scalars_and_arrays() {
        let batch: Vec<Vec<Value>> = (0..3)
            .map(|i| {
                vec![
                    Value::F64(i as f64),
                    Value::from(vec![i as f64, 1.0]),
                    Value::I64(i),
                ]
            })
            .collect();
        let stacked = stack_args(&batch).expect("equal shapes must stack");
        assert_eq!(stacked.len(), 3);
        assert_eq!(stacked[0].as_arr().shape, vec![3]);
        assert_eq!(stacked[1].as_arr().shape, vec![3, 2]);
        let ret = [Type::F64, Type::arr_f64(1), Type::I64];
        let back = unstack_results(&ret, &stacked, 3);
        for (orig, got) in batch.iter().zip(&back) {
            assert_eq!(orig[0].as_f64(), got[0].as_f64());
            assert_eq!(orig[1].as_arr().f64s(), got[1].as_arr().f64s());
            assert_eq!(orig[2].as_i64(), got[2].as_i64());
        }
    }

    #[test]
    fn mismatched_shapes_do_not_stack() {
        let batch = vec![
            vec![Value::from(vec![1.0, 2.0])],
            vec![Value::from(vec![1.0, 2.0, 3.0])],
        ];
        assert!(stack_args(&batch).is_none());
        let batch = vec![vec![Value::F64(1.0)], vec![Value::I64(1)]];
        assert!(stack_args(&batch).is_none());
    }
}
