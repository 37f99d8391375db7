//! Dispatch allocations, checked without a clock: a tape dispatch
//! allocates nothing but its outputs.
//!
//! A counting `#[global_allocator]` (local to this test binary, counting
//! per thread) measures the heap allocations of one warm `call` and one
//! warm `grad` of GMM at seven shapes, next to the engine's own
//! tape/generic dispatch counts: a `map` nest is one dispatch, and what it
//! allocates does not depend on the extents under it. The structural form
//! of the `net-small` criterion: at tiny shapes the arithmetic is
//! negligible and the dispatches and allocations *are* the cost.
//!
//! Run with `-- --nocapture` to see the measured numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fir::builder::Builder;
use fir::ir::Atom;
use fir::types::Type;
use futhark_ad_repro::{Engine, PassPipeline};
use interp::Value;
use workloads::gmm;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) this thread makes during `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One warm operation: its allocations and how its dispatches ran.
#[derive(Debug, Clone, Copy)]
struct Measured {
    allocs: u64,
    tapes: u64,
    generic: u64,
}

/// `[call, grad]` of GMM at `(n, d, k)` on `engine`, each measured on its
/// third run (programs compiled, derived and warm).
fn measure(engine: &Engine, (n, d, k): (usize, usize, usize)) -> [Measured; 2] {
    let f = engine.compile(&gmm::objective_ir()).unwrap();
    let args = gmm::GmmData::generate(n, d, k, 7).ir_args();
    let dispatches = || {
        let t = engine.cache_stats().tier.unwrap_or_default();
        (t.jit_hits as u64, t.fallbacks as u64)
    };
    let one = |op: &dyn Fn()| {
        op();
        op();
        let (t0, g0) = dispatches();
        let allocs = allocs_during(op);
        let (t1, g1) = dispatches();
        Measured {
            allocs,
            tapes: t1 - t0,
            generic: g1 - g0,
        }
    };
    [
        one(&|| drop(f.call(&args).unwrap())),
        one(&|| drop(f.grad(&args).unwrap())),
    ]
}

/// GMM shapes `(n, d, K)`: `net-small`'s, where no block is wider than two
/// lanes; a base; then shapes that differ from the base only in `d`, only
/// in `K`, only in `n` — and two whose inner extents are 32 and 9 times
/// the base's (eight blocks of 16 lanes; a block and a partial one).
const SHAPES: [(usize, usize, usize); 7] = [
    (4, 2, 2),
    (8, 4, 3),
    (8, 32, 3),
    (8, 4, 9),
    (16, 4, 3),
    (8, 128, 3),
    (8, 4, 27),
];

/// What PR 21 (d8dc416, one VM-level dispatch per inner SOAC) pinned for
/// `[call, grad]` at its two shapes `(4, 2, 2)` and `(16, 32, 4)`; every
/// shape here has at least the first one's work.
const PR21: [[u64; 2]; 2] = [[156, 957], [745, 4524]];

/// What the parent of the PR that made blocks as wide as the stream
/// (6da97ed: a 4-lane and a 1-lane register file per nest depth) allocated
/// for `[call, grad]` at each of [`SHAPES`]; one file per depth allocates
/// no more at any of them.
const FOUR_LANE_AND_TAIL: [[u64; 2]; 7] = [
    [21, 397],
    [21, 677],
    [21, 679],
    [23, 732],
    [21, 1221],
    [21, 679],
    [23, 894],
];

/// What one warm run may allocate beyond [`FOUR_LANE_AND_TAIL`] since
/// GMM's `exp (neg ls)`, `Σ ls` and `α − Σ ls` leave the point nest as
/// `map`s over the rows of `ls`: one allocation per extracted output, per
/// `[call, grad]` (the call reads two, the grad three).
const EXTRACTED_OUTPUTS: [u64; 2] = [2, 3];

/// The `[call, grad]` `(tape, generic)` dispatches at the base shape before
/// that extraction, as the stream-block commit (42dfdc0) pinned them. The
/// extracted `map`s add one top-level tape to the call and two to the grad.
const STREAM_BLOCKS_DISPATCHES: [(u64, u64); 2] = [(4, 0), (64, 10)];

/// How far the allocations of one `grad` may differ between shapes of the
/// same `n` and `K`: the buffers a run reuses (one register file, columns
/// and temporaries per nest depth) are allocated on first use and grown to
/// the largest extent they meet, so a column that starts out long enough
/// at `d = 4` grows once at `d = 32` — never by a count of elements.
const REUSED_BUFFER_SLACK: u64 = 2;

#[test]
fn a_tape_dispatch_allocates_nothing_but_its_outputs() {
    let engine = Engine::by_name("vm-seq").unwrap();
    let measured: Vec<[Measured; 2]> = SHAPES.iter().map(|s| measure(&engine, *s)).collect();
    for (shape, m) in SHAPES.iter().zip(&measured) {
        println!("gmm {shape:?} call {:?} grad {:?}", m[0], m[1]);
    }
    let [_tiny, base, more_d, more_k, more_n, much_d, much_k] = measured[..] else {
        unreachable!()
    };
    let near = |a: u64, b: u64| a.abs_diff(b) <= REUSED_BUFFER_SLACK;

    // A warm `call` is two nests: the `map` over the rows of `ls` that
    // computes `exp (neg ls)`, `Σ ls` and `α − Σ ls` once, then `redomap`
    // over the rows of `xs`, everything under each inside its tape. Its
    // dispatch count is a constant of the program and so is its allocation
    // count: neither sees n, d or K, nor how many lanes of a block they
    // fill — the buffers of a run are the last run's, grown by warm-up.
    let (tapes, generic) = STREAM_BLOCKS_DISPATCHES[0];
    for m in &measured {
        assert_eq!((m[0].tapes, m[0].generic), (tapes + 1, generic), "{m:?}");
        assert_eq!(m[0].allocs, base[0].allocs, "{m:?} vs {base:?}");
    }
    assert!(base[0].allocs < PR21[0][0], "{base:?}");
    for ((shape, m), parent) in SHAPES.iter().zip(&measured).zip(FOUR_LANE_AND_TAIL) {
        let [call, grad] = EXTRACTED_OUTPUTS;
        assert!(m[0].allocs <= parent[0] + call, "{shape:?} call: {m:?}");
        assert!(m[1].allocs <= parent[1] + grad, "{shape:?} grad: {m:?}");
    }

    // A warm `grad` dispatches per point, not per (point, component) pair
    // and not per element: the count grows only with n. Its allocations do
    // not see d; the generic `(f64, i64)` argmax fold still boxes its
    // operands per component, so they do see K.
    let dispatches = |m: [Measured; 2]| (m[1].tapes, m[1].generic);
    let (tapes, generic) = STREAM_BLOCKS_DISPATCHES[1];
    assert_eq!(dispatches(base), (tapes + 2, generic));
    for m in [more_d, more_k, much_d, much_k] {
        assert_eq!(dispatches(m), dispatches(base), "{m:?}");
    }
    assert!(dispatches(more_n).0 > dispatches(base).0);
    assert!(near(more_d[1].allocs, base[1].allocs), "{more_d:?}");
    assert!(near(much_d[1].allocs, base[1].allocs), "{much_d:?}");
    assert!(more_k[1].allocs > base[1].allocs + REUSED_BUFFER_SLACK);
    // Twice the points of PR 21's small shape in fewer allocations, and its
    // large shape's n in less than a third.
    assert!(base[1].allocs < PR21[0][1], "{base:?}");
    assert!(more_n[1].allocs < PR21[1][1] / 3, "{more_n:?}");

    for m in measured.iter().flatten() {
        // The structural bound. A tape dispatch: at most four array
        // outputs here (the reverse nest returns a column and two matrices
        // beside its accumulator), each three allocations (the data, its
        // `Arc`, the shape), and nothing else — nothing per element, per
        // row or per inner SOAC. A generic dispatch: its frames, gathered
        // operands and boxed results (here the argmax fold, and with it the
        // per-point kernel around it). The constant: argument and result
        // handling of one `call`/`grad`, plus the scratch of the run.
        let bound = 3 * m.tapes + 60 * m.generic + 120;
        assert!(m.allocs <= bound, "{m:?} exceeds {bound}");
    }
}

/// The `a` of the bound, exactly: a loop whose every iteration dispatches
/// one `map` (one array out) and one `reduce` (scalars out), both tapes.
/// Each extra iteration costs the map's output array — its data, the `Arc`
/// around it, its shape — and not one allocation more: no gathered
/// operands, no register files, no output list.
#[test]
fn an_extra_pair_of_tape_dispatches_costs_exactly_one_array() {
    let mut b = Builder::new();
    let f = b.build_fun("steps", &[Type::arr_f64(1), Type::I64], |b, ps| {
        let r = b.loop_(
            &[(Type::F64, Atom::f64(0.0))],
            Atom::Var(ps[1]),
            |b, _i, st| {
                let ys = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                    let e = b.fexp(es[0].into());
                    vec![b.fmul(e, st[0].into())]
                });
                let s = b.sum(ys);
                vec![b.fadd(s.into(), Atom::f64(1.0))]
            },
        );
        vec![r[0].into()]
    });
    // No pipeline: fusion would turn the pair into one redomap.
    let engine = Engine::by_name("vm-seq")
        .unwrap()
        .with_pipeline(PassPipeline::none());
    let cf = engine.compile(&f).unwrap();
    // Thirty-five elements: two blocks of 16 live lanes and one of three.
    let xs = Value::from((0..35).map(|i| 0.1 + 0.02 * i as f64).collect::<Vec<_>>());
    let run = |steps: i64| {
        let args = [xs.clone(), Value::I64(steps)];
        cf.call(&args).unwrap();
        let before = engine.cache_stats().tier.unwrap();
        let allocs = allocs_during(|| drop(cf.call(&args).unwrap()));
        let after = engine.cache_stats().tier.unwrap();
        assert_eq!(
            after.fallbacks, before.fallbacks,
            "all dispatches are tapes"
        );
        assert_eq!((after.jit_hits - before.jit_hits) as i64, 2 * steps);
        allocs
    };
    let (few, many) = (run(10), run(110));
    println!("10 steps: {few} allocations, 110 steps: {many}");
    assert_eq!(many - few, 100 * 3);
}
