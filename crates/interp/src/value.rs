//! Runtime values: scalars, regular multi-dimensional arrays and
//! accumulators.
//!
//! Arrays are stored flat in row-major order behind an `Arc`, giving cheap
//! clones and copy-on-write in-place updates (`Arc::make_mut`), which mirrors
//! Futhark's uniqueness-typed in-place updates closely enough for
//! benchmarking purposes.

use std::sync::Arc;

use fir::types::{ScalarType, Type};

use crate::acc::Accum;
use crate::arena;

/// The flat element storage of an array.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    F64(Arc<Vec<f64>>),
    I64(Arc<Vec<i64>>),
    Bool(Arc<Vec<bool>>),
}

impl Data {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Data::F64(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn elem(&self) -> ScalarType {
        match self {
            Data::F64(_) => ScalarType::F64,
            Data::I64(_) => ScalarType::I64,
            Data::Bool(_) => ScalarType::Bool,
        }
    }
}

/// A regular (rectangular) multi-dimensional array.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    pub shape: Vec<usize>,
    pub data: Data,
}

impl Array {
    /// Construct an `f64` array; panics if `data.len() != product(shape)`.
    pub fn from_f64(shape: Vec<usize>, data: Vec<f64>) -> Array {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Array {
            shape,
            data: Data::F64(arena::publish_f64(data)),
        }
    }

    /// Construct an `i64` array.
    pub fn from_i64(shape: Vec<usize>, data: Vec<i64>) -> Array {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Array {
            shape,
            data: Data::I64(arena::publish_i64(data)),
        }
    }

    /// Construct a `bool` array.
    pub fn from_bool(shape: Vec<usize>, data: Vec<bool>) -> Array {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Array {
            shape,
            data: Data::Bool(arena::publish_bool(data)),
        }
    }

    /// A rank-1 `f64` array.
    pub fn vec_f64(data: Vec<f64>) -> Array {
        let n = data.len();
        Array::from_f64(vec![n], data)
    }

    /// A rank-1 `i64` array.
    pub fn vec_i64(data: Vec<i64>) -> Array {
        let n = data.len();
        Array::from_i64(vec![n], data)
    }

    /// An array of zeros of the given element type and shape.
    pub fn zeros(elem: ScalarType, shape: Vec<usize>) -> Array {
        let n: usize = shape.iter().product();
        let data = match elem {
            ScalarType::F64 => {
                let mut v = arena::take_f64(n);
                v.resize(n, 0.0);
                Data::F64(arena::publish_f64(v))
            }
            ScalarType::I64 => {
                let mut v = arena::take_i64(n);
                v.resize(n, 0);
                Data::I64(arena::publish_i64(v))
            }
            ScalarType::Bool => {
                let mut v = arena::take_bool(n);
                v.resize(n, false);
                Data::Bool(arena::publish_bool(v))
            }
        };
        Array { shape, data }
    }

    /// The rank of the array.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The outer length.
    pub fn len(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// True when the outer dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn elem(&self) -> ScalarType {
        self.data.elem()
    }

    /// Number of scalars in one outer element.
    pub fn stride(&self) -> usize {
        self.shape.iter().skip(1).product()
    }

    /// The `f64` data; panics on other element types.
    pub fn f64s(&self) -> &[f64] {
        match &self.data {
            Data::F64(v) => v,
            other => panic!("expected f64 array, got {:?}", other.elem()),
        }
    }

    /// The `i64` data; panics on other element types.
    pub fn i64s(&self) -> &[i64] {
        match &self.data {
            Data::I64(v) => v,
            other => panic!("expected i64 array, got {:?}", other.elem()),
        }
    }

    /// The `bool` data; panics on other element types.
    pub fn bools(&self) -> &[bool] {
        match &self.data {
            Data::Bool(v) => v,
            other => panic!("expected bool array, got {:?}", other.elem()),
        }
    }

    /// Mutable `f64` data (copy-on-write; an arena-lent reference that is
    /// the only other owner is dropped first so the write is in-place).
    pub fn f64s_mut(&mut self) -> &mut Vec<f64> {
        match &mut self.data {
            Data::F64(v) => {
                arena::disown_f64(v);
                Arc::make_mut(v)
            }
            other => panic!("expected f64 array, got {:?}", other.elem()),
        }
    }

    /// Mutable `i64` data (copy-on-write).
    pub fn i64s_mut(&mut self) -> &mut Vec<i64> {
        match &mut self.data {
            Data::I64(v) => {
                arena::disown_i64(v);
                Arc::make_mut(v)
            }
            other => panic!("expected i64 array, got {:?}", other.elem()),
        }
    }

    /// Mutable `bool` data (copy-on-write).
    pub fn bools_mut(&mut self) -> &mut Vec<bool> {
        match &mut self.data {
            Data::Bool(v) => {
                arena::disown_bool(v);
                Arc::make_mut(v)
            }
            other => panic!("expected bool array, got {:?}", other.elem()),
        }
    }

    /// The flat offset and sub-shape selected by `idx` (partial or full
    /// indexing along the outermost dimensions).
    pub fn offset_of(&self, idx: &[usize]) -> (usize, Vec<usize>) {
        assert!(idx.len() <= self.rank(), "too many indices");
        let mut off = 0;
        let mut stride: usize = self.shape.iter().product();
        for (k, &i) in idx.iter().enumerate() {
            assert!(
                i < self.shape[k],
                "index {i} out of bounds for dim of size {}",
                self.shape[k]
            );
            stride /= self.shape[k];
            off += i * stride;
        }
        (off, self.shape[idx.len()..].to_vec())
    }

    /// Index with `idx`, returning a scalar or sub-array value.
    pub fn index(&self, idx: &[usize]) -> Value {
        let (off, sub_shape) = self.offset_of(idx);
        if sub_shape.is_empty() {
            match &self.data {
                Data::F64(v) => Value::F64(v[off]),
                Data::I64(v) => Value::I64(v[off]),
                Data::Bool(v) => Value::Bool(v[off]),
            }
        } else {
            let n: usize = sub_shape.iter().product();
            fn slice<T: Copy>(src: &[T], take: impl Fn(usize) -> Vec<T>) -> Vec<T> {
                let mut out = take(src.len());
                out.extend_from_slice(src);
                out
            }
            let data = match &self.data {
                Data::F64(v) => {
                    Data::F64(arena::publish_f64(slice(&v[off..off + n], arena::take_f64)))
                }
                Data::I64(v) => {
                    Data::I64(arena::publish_i64(slice(&v[off..off + n], arena::take_i64)))
                }
                Data::Bool(v) => Data::Bool(arena::publish_bool(slice(
                    &v[off..off + n],
                    arena::take_bool,
                ))),
            };
            Value::Arr(Array {
                shape: sub_shape,
                data,
            })
        }
    }

    /// Write `val` (a scalar or sub-array) at `idx`, in place.
    pub fn write(&mut self, idx: &[usize], val: &Value) {
        let (off, sub_shape) = self.offset_of(idx);
        let n: usize = sub_shape.iter().product();
        match (&mut self.data, val) {
            (Data::F64(v), Value::F64(x)) => {
                arena::disown_f64(v);
                Arc::make_mut(v)[off] = *x;
            }
            (Data::I64(v), Value::I64(x)) => {
                arena::disown_i64(v);
                Arc::make_mut(v)[off] = *x;
            }
            (Data::Bool(v), Value::Bool(x)) => {
                arena::disown_bool(v);
                Arc::make_mut(v)[off] = *x;
            }
            (Data::F64(v), Value::Arr(a)) => {
                arena::disown_f64(v);
                Arc::make_mut(v)[off..off + n].copy_from_slice(a.f64s())
            }
            (Data::I64(v), Value::Arr(a)) => {
                arena::disown_i64(v);
                Arc::make_mut(v)[off..off + n].copy_from_slice(a.i64s())
            }
            (Data::Bool(v), Value::Arr(a)) => {
                arena::disown_bool(v);
                Arc::make_mut(v)[off..off + n].copy_from_slice(a.bools())
            }
            (d, v) => panic!("write: element type mismatch {:?} <- {:?}", d.elem(), v),
        }
    }

    /// Reverse along the outer dimension.
    pub fn reverse(&self) -> Array {
        let n = self.len();
        let stride = self.stride();
        fn rev<T: Copy>(
            src: &[T],
            n: usize,
            stride: usize,
            take: impl Fn(usize) -> Vec<T>,
        ) -> Vec<T> {
            let mut out = take(src.len());
            for i in (0..n).rev() {
                out.extend_from_slice(&src[i * stride..(i + 1) * stride]);
            }
            out
        }
        let data = match &self.data {
            Data::F64(v) => Data::F64(arena::publish_f64(rev(v, n, stride, arena::take_f64))),
            Data::I64(v) => Data::I64(arena::publish_i64(rev(v, n, stride, arena::take_i64))),
            Data::Bool(v) => Data::Bool(arena::publish_bool(rev(v, n, stride, arena::take_bool))),
        };
        Array {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Stack `n` equally-shaped element values into an array with outer
    /// length `n`. All elements must have the same type and shape; rows of
    /// different shapes panic (arrays are regular).
    pub fn stack(elems: &[Value]) -> Array {
        assert!(!elems.is_empty(), "Array::stack of zero elements");
        match &elems[0] {
            Value::F64(_) => {
                let data: Vec<f64> = elems.iter().map(|v| v.as_f64()).collect();
                Array::vec_f64(data)
            }
            Value::I64(_) => {
                let data: Vec<i64> = elems.iter().map(|v| v.as_i64()).collect();
                Array::vec_i64(data)
            }
            Value::Bool(_) => {
                let data: Vec<bool> = elems.iter().map(|v| v.as_bool()).collect();
                Array::from_bool(vec![elems.len()], data)
            }
            Value::Arr(a0) => {
                for (i, v) in elems.iter().enumerate() {
                    let row = &v.as_arr().shape;
                    assert!(
                        *row == a0.shape,
                        "irregular array: row {i} has shape {row:?}, row 0 has {:?}",
                        a0.shape
                    );
                }
                let mut shape = vec![elems.len()];
                shape.extend_from_slice(&a0.shape);
                match &a0.data {
                    Data::F64(_) => {
                        let mut data = arena::take_f64(shape.iter().product());
                        for v in elems {
                            data.extend_from_slice(v.as_arr().f64s());
                        }
                        Array {
                            shape,
                            data: Data::F64(arena::publish_f64(data)),
                        }
                    }
                    Data::I64(_) => {
                        let mut data = arena::take_i64(shape.iter().product());
                        for v in elems {
                            data.extend_from_slice(v.as_arr().i64s());
                        }
                        Array {
                            shape,
                            data: Data::I64(arena::publish_i64(data)),
                        }
                    }
                    Data::Bool(_) => {
                        let mut data = arena::take_bool(shape.iter().product());
                        for v in elems {
                            data.extend_from_slice(v.as_arr().bools());
                        }
                        Array {
                            shape,
                            data: Data::Bool(arena::publish_bool(data)),
                        }
                    }
                }
            }
            Value::Acc(_) => panic!("Array::stack of accumulators"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    F64(f64),
    I64(i64),
    Bool(bool),
    Arr(Array),
    /// An accumulator handle (shared, atomically updated).
    Acc(Accum),
}

impl Value {
    /// The `f64` payload; panics otherwise.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(x) => *x,
            other => panic!("expected f64 value, got {other:?}"),
        }
    }

    /// The `i64` payload; panics otherwise.
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(x) => *x,
            other => panic!("expected i64 value, got {other:?}"),
        }
    }

    /// The `bool` payload; panics otherwise.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(x) => *x,
            other => panic!("expected bool value, got {other:?}"),
        }
    }

    /// The array payload; panics otherwise.
    pub fn as_arr(&self) -> &Array {
        match self {
            Value::Arr(a) => a,
            other => panic!("expected array value, got {other:?}"),
        }
    }

    /// The array payload by value; panics otherwise.
    pub fn into_arr(self) -> Array {
        match self {
            Value::Arr(a) => a,
            other => panic!("expected array value, got {other:?}"),
        }
    }

    /// The accumulator payload; panics otherwise.
    pub fn as_acc(&self) -> &Accum {
        match self {
            Value::Acc(a) => a,
            other => panic!("expected accumulator value, got {other:?}"),
        }
    }

    /// The type of this value (array ranks are taken from the shape).
    pub fn ty(&self) -> Type {
        match self {
            Value::F64(_) => Type::F64,
            Value::I64(_) => Type::I64,
            Value::Bool(_) => Type::BOOL,
            Value::Arr(a) => Type::Array {
                elem: a.elem(),
                rank: a.rank(),
            },
            Value::Acc(a) => Type::Acc {
                elem: ScalarType::F64,
                rank: a.shape().len(),
            },
        }
    }

    /// A zero value of the given type and (for arrays) shape.
    pub fn zero_of(ty: &Type, shape: &[usize]) -> Value {
        match ty {
            Type::Scalar(ScalarType::F64) => Value::F64(0.0),
            Type::Scalar(ScalarType::I64) => Value::I64(0),
            Type::Scalar(ScalarType::Bool) => Value::Bool(false),
            Type::Array { elem, rank } => {
                assert_eq!(shape.len(), *rank, "zero_of: shape rank mismatch");
                Value::Arr(Array::zeros(*elem, shape.to_vec()))
            }
            Type::Acc { .. } => panic!("zero_of accumulator"),
        }
    }

    /// A zero value with the same type and shape as `self`.
    pub fn zero_like(&self) -> Value {
        match self {
            Value::F64(_) => Value::F64(0.0),
            Value::I64(_) => Value::I64(0),
            Value::Bool(_) => Value::Bool(false),
            Value::Arr(a) => Value::Arr(Array::zeros(a.elem(), a.shape.clone())),
            Value::Acc(_) => panic!("zero_like of accumulator"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Value {
        Value::I64(x)
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}

impl From<Array> for Value {
    fn from(a: Array) -> Value {
        Value::Arr(a)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Value {
        Value::Arr(Array::vec_f64(v))
    }
}

impl From<Vec<i64>> for Value {
    fn from(v: Vec<i64>) -> Value {
        Value::Arr(Array::vec_i64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_full_and_partial() {
        let a = Array::from_f64(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.index(&[1, 2]).as_f64(), 6.0);
        let row = a.index(&[0]).into_arr();
        assert_eq!(row.shape, vec![3]);
        assert_eq!(row.f64s(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn write_scalar_and_row() {
        let mut a = Array::zeros(ScalarType::F64, vec![2, 2]);
        a.write(&[0, 1], &Value::F64(5.0));
        a.write(&[1], &Value::Arr(Array::vec_f64(vec![7.0, 8.0])));
        assert_eq!(a.f64s(), &[0.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn copy_on_write_preserves_original() {
        let a = Array::vec_f64(vec![1.0, 2.0]);
        let mut b = a.clone();
        b.f64s_mut()[0] = 9.0;
        assert_eq!(a.f64s(), &[1.0, 2.0]);
        assert_eq!(b.f64s(), &[9.0, 2.0]);
    }

    #[test]
    fn stack_scalars_and_rows() {
        let s = Array::stack(&[Value::F64(1.0), Value::F64(2.0)]);
        assert_eq!(s.shape, vec![2]);
        let rows = Array::stack(&[
            Value::Arr(Array::vec_f64(vec![1.0, 2.0])),
            Value::Arr(Array::vec_f64(vec![3.0, 4.0])),
        ]);
        assert_eq!(rows.shape, vec![2, 2]);
        assert_eq!(rows.f64s(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "irregular array: row 1 has shape [2], row 0 has [1]")]
    fn stack_rejects_rows_of_different_shapes() {
        Array::stack(&[
            Value::Arr(Array::vec_i64(vec![0])),
            Value::Arr(Array::vec_i64(vec![0, 1])),
        ]);
    }

    #[test]
    fn reverse_outer_dimension() {
        let a = Array::from_f64(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = a.reverse();
        assert_eq!(r.f64s(), &[5.0, 6.0, 3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::F64(1.0).ty(), Type::F64);
        let a = Value::Arr(Array::zeros(ScalarType::I64, vec![2, 2]));
        assert_eq!(a.ty(), Type::arr_i64(2));
    }
}
