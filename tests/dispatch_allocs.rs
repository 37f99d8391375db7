//! Dispatch allocations, checked without a clock: a tape dispatch
//! allocates nothing but its outputs.
//!
//! A counting `#[global_allocator]` (local to this test binary, counting
//! per thread) measures the heap allocations of one warm `call` and one
//! warm `grad` of GMM at the `net-small` shape and at a shape with many
//! inner dispatches, next to the engine's own tape/generic dispatch
//! counts. The structural form of the `net-small` criterion: at tiny
//! shapes the arithmetic is negligible and the allocations *are* the cost.
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

/// The `net-small` GMM shape, and one with `d = 32` inner dispatches per
/// (point, component) pair.
const SHAPES: [(usize, usize, usize); 2] = [(4, 2, 2), (16, 32, 4)];

/// What the parent commit (7b9260d) allocates for the same four
/// operations, `[shape][call, grad]`: on its plain sequential VM, and on
/// its tier at threshold 1 (the configuration this change makes the only
/// one). Measured by running this file's `measure` there.
const PARENT_PLAIN: [[u64; 2]; 2] = [[420, 1797], [8286, 21523]];
const PARENT_TIERED: [[u64; 2]; 2] = [[495, 1996], [2787, 10646]];

#[test]
fn a_tape_dispatch_allocates_nothing_but_its_outputs() {
    let engine = Engine::by_name("vm-seq").unwrap();
    for (s, shape) in SHAPES.iter().enumerate() {
        for (o, m) in measure(&engine, *shape).iter().enumerate() {
            let what = format!("gmm {shape:?} {}", ["call", "grad"][o]);
            println!("{what}: {m:?}");
            assert!(m.tapes > 0, "{what}: {m:?}");
            // Below both of the parent's configurations.
            assert!(
                m.allocs < PARENT_PLAIN[s][o] && m.allocs < PARENT_TIERED[s][o],
                "{what}: {m:?} vs parent plain {} / tiered {}",
                PARENT_PLAIN[s][o],
                PARENT_TIERED[s][o]
            );
            // The structural bound. A tape dispatch: at most one array
            // output here, which is three allocations (the data, its `Arc`,
            // the shape), and nothing else. A generic dispatch: its frames,
            // gathered operands and boxed results. The constant: argument
            // and result handling of one `call`/`grad`, plus the scratch
            // register files of the run.
            let bound = 3 * m.tapes + 45 * m.generic + 120;
            assert!(m.allocs <= bound, "{what}: {m:?} exceeds {bound}");
        }
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
    // Seven elements: a 4-lane block and a 1-lane tail, so both register
    // files are in play.
    let xs = Value::from(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]);
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
