//! Accumulators: `f64` buffers that many strands of execution may add into.
//!
//! Accumulators are the runtime realization of the paper's `withacc`/`upd`
//! constructs (§5.4): a write-only view of an array into which many parallel
//! threads may add contributions. On GPUs these become `atomicAdd`; here the
//! cells are `AtomicU64`s holding the `f64` bit pattern, and an add comes in
//! two forms over the same cells:
//!
//! * [`Accum::add_at`]/[`Accum::add_slice`] — a CAS loop, for callers that
//!   may run concurrently with other adders (the chunks of a parallel SOAC);
//! * [`Accum::add_at_owned`]/[`Accum::add_slice_owned`] — load, add, store,
//!   for a caller that knows no other thread adds while it does (the paper's
//!   sequential rows are plain writes too). The cells stay atomics, so a
//!   misuse loses an update; it is never a data race.
//!
//! Both skip zero contributions, add in cell order, and check a slice
//! against the extent it addresses, so which one ran is not observable in
//! the result of a race-free program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::value::Array;

/// The shared buffer behind an accumulator.
#[derive(Debug)]
struct AccBuf {
    shape: Vec<usize>,
    cells: Vec<AtomicU64>,
}

/// A handle on an accumulator. Cloning the handle shares the buffer, which
/// is exactly the behaviour needed when an accumulator is passed (as "an
/// array of accumulators") to every iteration of a `map`.
#[derive(Debug, Clone)]
pub struct Accum {
    buf: Arc<AccBuf>,
}

/// `cell += v` by compare-and-swap; zero contributions are skipped.
#[inline]
fn cas_add(cell: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// `cell += v` as load, add, store: the same result as [`cas_add`] when no
/// other thread adds to the cell meanwhile, a lost update (never a data
/// race) otherwise.
#[inline]
fn plain_add(cell: &AtomicU64, v: f64) {
    if v != 0.0 {
        let cur = f64::from_bits(cell.load(Ordering::Relaxed));
        cell.store((cur + v).to_bits(), Ordering::Relaxed);
    }
}

impl Accum {
    /// Create an accumulator initialized with the contents of an `f64` array.
    pub fn from_array(a: &Array) -> Accum {
        let cells = a
            .f64s()
            .iter()
            .map(|x| AtomicU64::new(x.to_bits()))
            .collect();
        Accum {
            buf: Arc::new(AccBuf {
                shape: a.shape.clone(),
                cells,
            }),
        }
    }

    /// Create a zero-initialized accumulator of the given shape.
    pub fn zeros(shape: Vec<usize>) -> Accum {
        let n: usize = shape.iter().product();
        let cells = (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect();
        Accum {
            buf: Arc::new(AccBuf { shape, cells }),
        }
    }

    /// The shape of the underlying array.
    pub fn shape(&self) -> &[usize] {
        &self.buf.shape
    }

    /// Number of scalar cells.
    pub fn len(&self) -> usize {
        self.buf.cells.len()
    }

    /// True when the accumulator has no cells.
    pub fn is_empty(&self) -> bool {
        self.buf.cells.is_empty()
    }

    /// Atomically add `v` to the cell at flat offset `off`.
    pub fn add_at(&self, off: usize, v: f64) {
        cas_add(&self.buf.cells[off], v);
    }

    /// [`add_at`](Accum::add_at) for a caller no other thread adds
    /// alongside.
    pub fn add_at_owned(&self, off: usize, v: f64) {
        plain_add(&self.buf.cells[off], v);
    }

    /// The cells a slice add of `vs` at `(off, span)` — what
    /// [`offset_of`](Accum::offset_of) returned — goes to. Panics, before
    /// anything is added, when `vs` is not exactly the addressed extent.
    fn slice_cells(&self, off: usize, span: usize, vs: &[f64]) -> &[AtomicU64] {
        assert!(
            vs.len() == span,
            "upd_acc: value has {} elements, the addressed slice has {span}",
            vs.len()
        );
        &self.buf.cells[off..off + span]
    }

    /// Atomically add `vs`, cell by cell, to the `span` cells from flat
    /// offset `off` (a sub-array contribution).
    pub fn add_slice(&self, off: usize, span: usize, vs: &[f64]) {
        for (cell, v) in self.slice_cells(off, span, vs).iter().zip(vs) {
            cas_add(cell, *v);
        }
    }

    /// [`add_slice`](Accum::add_slice) for a caller no other thread adds
    /// alongside.
    pub fn add_slice_owned(&self, off: usize, span: usize, vs: &[f64]) {
        for (cell, v) in self.slice_cells(off, span, vs).iter().zip(vs) {
            plain_add(cell, *v);
        }
    }

    /// The flat offset corresponding to a (partial) multi-dimensional index,
    /// together with the number of scalars it addresses.
    pub fn offset_of(&self, idx: &[usize]) -> (usize, usize) {
        assert!(
            idx.len() <= self.buf.shape.len(),
            "too many indices for accumulator"
        );
        let mut off = 0;
        let mut stride: usize = self.buf.shape.iter().product();
        for (k, &i) in idx.iter().enumerate() {
            stride /= self.buf.shape[k];
            off += i * stride;
        }
        (off, stride)
    }

    /// Whether a (partial) index is within bounds.
    pub fn in_bounds(&self, idx: &[usize]) -> bool {
        idx.iter().zip(&self.buf.shape).all(|(i, d)| i < d)
    }

    /// Snapshot the accumulator into an ordinary array (the end of its
    /// lifetime in `withacc`).
    pub fn to_array(&self) -> Array {
        let data: Vec<f64> = self
            .buf
            .cells
            .iter()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .collect();
        Array::from_f64(self.buf.shape.clone(), data)
    }

    /// Whether two handles share the same buffer.
    pub fn same_buffer(&self, other: &Accum) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot() {
        let acc = Accum::zeros(vec![4]);
        acc.add_at(1, 2.5);
        acc.add_at(1, 0.5);
        acc.add_at(3, -1.0);
        assert_eq!(acc.to_array().f64s(), &[0.0, 3.0, 0.0, -1.0]);
    }

    #[test]
    fn from_array_preserves_contents() {
        let a = Array::vec_f64(vec![1.0, 2.0]);
        let acc = Accum::from_array(&a);
        acc.add_at(0, 1.0);
        assert_eq!(acc.to_array().f64s(), &[2.0, 2.0]);
    }

    #[test]
    fn partial_index_offsets() {
        let acc = Accum::zeros(vec![2, 3]);
        let (off, n) = acc.offset_of(&[1]);
        assert_eq!((off, n), (3, 3));
        let (off, n) = acc.offset_of(&[1, 2]);
        assert_eq!((off, n), (5, 1));
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let acc = Accum::zeros(vec![1]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let acc = acc.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        acc.add_at(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(acc.to_array().f64s()[0], 8000.0);
    }

    #[test]
    fn owned_adds_land_like_atomic_ones() {
        let (shared, owned) = (Accum::zeros(vec![2, 3]), Accum::zeros(vec![2, 3]));
        for (off, v) in [(1, 2.5), (1, 0.5), (4, -0.0), (5, -1.0)] {
            shared.add_at(off, v);
            owned.add_at_owned(off, v);
        }
        let row = [0.25, 0.0, f64::NAN];
        let (off, span) = shared.offset_of(&[1]);
        shared.add_slice(off, span, &row);
        owned.add_slice_owned(off, span, &row);
        let bits = |a: &Accum| {
            a.to_array()
                .f64s()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&shared), bits(&owned));
        assert_eq!(shared.to_array().f64s()[..4], [0.0, 3.0, 0.0, 0.25]);
    }

    #[test]
    fn slice_adds_of_the_wrong_extent_add_nothing() {
        let acc = Accum::zeros(vec![2, 2]);
        let (off, span) = acc.offset_of(&[0]);
        for len in [1usize, 3, 5] {
            let row = vec![1.0; len];
            for owned in [false, true] {
                let add = || match owned {
                    true => acc.add_slice_owned(off, span, &row),
                    false => acc.add_slice(off, span, &row),
                };
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(add))
                    .expect_err("the extent check must fire");
                assert_eq!(
                    crate::error::panic_message(panic),
                    format!("upd_acc: value has {len} elements, the addressed slice has 2")
                );
            }
        }
        assert_eq!(acc.to_array().f64s(), &[0.0; 4]);
    }

    #[test]
    fn clones_share_the_buffer() {
        let acc = Accum::zeros(vec![2]);
        let acc2 = acc.clone();
        acc2.add_at(0, 5.0);
        assert!(acc.same_buffer(&acc2));
        assert_eq!(acc.to_array().f64s()[0], 5.0);
    }
}
