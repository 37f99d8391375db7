//! Cache and batching behavior of the staged API: compiling the same `Fun`
//! (and any transform stack of it) twice through one `Engine` hits the
//! fingerprint cache — one compilation per distinct `(source fingerprint,
//! transform stack)` — LRU eviction recompiles transparently while
//! `Arc`-held handles stay valid, and the batch entry points
//! (`call_batch`, `grad_batch`, and the explicit
//! `vmap ∘ vjp` / `vjp ∘ vmap` stacks) agree bitwise with sequential
//! per-example `call`/`grad` loops on all nine workloads, on both the
//! interpreter and the VM.

use fir::ir::Fun;
use futhark_ad_repro::{Engine, Transform};
use interp::Value;
use workloads::{adbench, gmm, kmeans, lstm, mc};

#[test]
fn recompiling_the_same_fun_hits_the_fingerprint_cache() {
    let engine = Engine::new();
    let f1 = engine.compile(&gmm::objective_ir()).unwrap();
    let s = engine.cache_stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));

    // A structurally identical rebuild: answered from the cache.
    let f2 = engine.compile(&gmm::objective_ir()).unwrap();
    let s = engine.cache_stats();
    assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));

    // Deriving the vjp through either handle compiles it once; both
    // handles share the derived transform.
    f1.vjp().unwrap();
    let s = engine.cache_stats();
    assert_eq!((s.misses, s.entries), (2, 2));
    f2.vjp().unwrap();
    assert_eq!(engine.cache_stats().misses, 2, "vjp must not recompile");

    // A third compile of the primal, then its vjp: everything cached.
    let f3 = engine.compile(&gmm::objective_ir()).unwrap();
    f3.vjp().unwrap();
    let s = engine.cache_stats();
    assert_eq!((s.misses, s.entries), (2, 2));
    assert!(s.hits >= 2);
}

#[test]
fn compiling_the_derived_vjp_fun_directly_also_hits_the_cache() {
    // vjp derivation is deterministic and starts from the pre-pipeline
    // source (so gradients are identical whatever pipeline the engine
    // runs): compiling the Fun derived from the same source lands on the
    // same fingerprint as the lazy handle.
    let engine = Engine::new();
    let cf = engine.compile(&kmeans::dense_objective_ir()).unwrap();
    let handle = cf.vjp().unwrap();
    let derived = futhark_ad::vjp(&kmeans::dense_objective_ir());
    let misses = engine.cache_stats().misses;
    let direct = engine.compile(&derived).unwrap();
    assert_eq!(engine.cache_stats().misses, misses, "must be a cache hit");
    assert_eq!(direct.name(), handle.name());
}

#[test]
fn lru_eviction_recompiles_derived_programs_but_held_handles_stay_valid() {
    // Three structurally distinct programs (and their vjps) through a
    // capacity-2 cache: evicted entries recompile with a counted miss,
    // while handles taken before the eviction keep working because they
    // hold their program by Arc.
    fn scaled(c: f64) -> fir::ir::Fun {
        let mut b = fir::builder::Builder::new();
        b.build_fun("scaled", &[fir::types::Type::arr_f64(1)], |b, ps| {
            let s = b.map1(fir::types::Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), fir::ir::Atom::f64(c))]
            });
            vec![b.sum(s).into()]
        })
    }
    let engine = Engine::builder()
        .backend_name("vm-seq")
        .cache_capacity(2)
        .build()
        .unwrap();
    let args = [Value::from(vec![1.0, 2.0, 3.0])];

    let cf1 = engine.compile(&scaled(2.0)).unwrap();
    let vjp1 = cf1.vjp().unwrap(); // entries: {f1, vjp(f1)}
    let s = engine.cache_stats();
    assert_eq!((s.misses, s.entries, s.evictions), (2, 2, 0));
    let grad_before = cf1.grad(&args).unwrap();

    // Compile past capacity: more distinct programs than slots.
    for c in [3.0, 4.0, 5.0] {
        engine.compile(&scaled(c)).unwrap().vjp().unwrap();
    }
    let s = engine.cache_stats();
    assert_eq!(s.entries, 2, "cache must stay at capacity");
    assert!(s.evictions >= 6, "6+ programs through 2 slots: {s}");

    // The Arc-held handles survived the eviction of their entries.
    assert_eq!(
        cf1.call(&args).unwrap()[0].as_f64().to_bits(),
        grad_before.scalar().to_bits(),
    );
    let g = vjp1
        .call(&{
            let mut a = args.to_vec();
            a.push(Value::F64(1.0));
            a
        })
        .unwrap();
    assert_eq!(g[0].as_f64().to_bits(), grad_before.scalar().to_bits());
    assert_eq!(
        g[1].as_arr().f64s(),
        grad_before.grads[0].as_arr().f64s(),
        "evicted-but-held vjp handle must still compute the same adjoints"
    );

    // Re-deriving the evicted vjp through the original handle recompiles
    // (a counted miss), transparently, with identical results.
    let misses = engine.cache_stats().misses;
    let grad_after = cf1.grad(&args).unwrap();
    let s = engine.cache_stats();
    assert!(
        s.misses > misses,
        "evicted derived program must recompile as a miss: {s}"
    );
    assert_eq!(
        grad_after.scalar().to_bits(),
        grad_before.scalar().to_bits()
    );
    assert_eq!(grad_after.flat_grads(), grad_before.flat_grads());
}

/// Per-example-gradient parity on one workload, on both backends: a
/// batch of three distinct instances computed by (a) a sequential
/// per-call `call`/`grad` loop, (b) task-parallel `call_batch` /
/// `grad_batch`, and (c) the explicit transform stacks `[Vjp, Vmap]` and
/// `[Vmap, Vjp]` called on stacked seeded arguments — all bitwise
/// identical.
fn assert_batch_parity(name: &str, fun: &Fun, instances: Vec<Vec<Value>>) {
    for backend in ["interp-seq", "vm-seq"] {
        let engine = Engine::by_name(backend).unwrap();
        let cf = engine.compile(fun).unwrap();
        let batched = cf.call_batch(&instances);
        assert_eq!(batched.len(), instances.len(), "{name}: batch arity");
        for (args, out) in instances.iter().zip(&batched) {
            let out = out.as_ref().unwrap();
            let single = cf.call(args).unwrap();
            assert_eq!(single.len(), out.len(), "{name}: result arity");
            assert_eq!(
                single[0].as_f64().to_bits(),
                out[0].as_f64().to_bits(),
                "{name} ({backend}): batched primal must be bitwise-identical to call()"
            );
        }
        // Per-example gradients, three ways.
        let singles: Vec<_> = instances.iter().map(|a| cf.grad(a).unwrap()).collect();
        let grads = cf.grad_batch(&instances).unwrap();
        for (i, single) in singles.iter().enumerate() {
            let got = grads[i].as_ref().unwrap();
            assert_eq!(
                single.scalar().to_bits(),
                got.scalar().to_bits(),
                "{name} ({backend}): grad_batch vjp primal of example {i}"
            );
            let (a, b) = (single.flat_grads(), got.flat_grads());
            assert_eq!(a.len(), b.len(), "{name} ({backend}): grad_batch arity");
            for (j, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name} ({backend}): grad_batch grad[{j}] of example {i}"
                );
            }
        }
        // The explicit stacks: vmap(vjp(f)) and vjp(vmap(f)) take the
        // same stacked seeded arguments here (every workload objective
        // is scalar, so the stacked seed column doubles as the [B]-seed
        // of the vectorized function) and must match the loop bitwise.
        let seeded: Vec<Vec<Value>> = instances
            .iter()
            .map(|args| {
                let mut a = args.clone();
                a.extend(cf.unit_seeds(args).unwrap());
                a
            })
            .collect();
        // Ragged batches (e.g. sparse k-means instances with different
        // nnz) cannot stack; `grad_batch` above already verified them
        // bitwise, so only the stackable workloads exercise the explicit
        // transform stacks.
        let Some(stacked) = fir_api::batch::stack_args(&seeded) else {
            continue;
        };
        for stack in [
            [Transform::Vjp, Transform::Vmap],
            [Transform::Vmap, Transform::Vjp],
        ] {
            let tf = cf.transform(&stack).unwrap();
            let outs = tf.call(&stacked).unwrap();
            let rows = fir_api::batch::unstack_results(
                cf.vjp().unwrap().result_types(),
                &outs,
                instances.len(),
            );
            for (i, single) in singles.iter().enumerate() {
                assert_eq!(
                    single.scalar().to_bits(),
                    rows[i][0].as_f64().to_bits(),
                    "{name} ({backend}) {stack:?}: primal of example {i}"
                );
                let nres = fun.ret.len();
                let flat: Vec<f64> = rows[i][nres..]
                    .iter()
                    .flat_map(|v| match v {
                        Value::F64(x) => vec![*x],
                        Value::Arr(a) => a.f64s().to_vec(),
                        other => panic!("unexpected adjoint {other:?}"),
                    })
                    .collect();
                let want = single.flat_grads();
                assert_eq!(
                    want.len(),
                    flat.len(),
                    "{name} ({backend}) {stack:?}: arity"
                );
                for (j, (x, y)) in want.iter().zip(&flat).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name} ({backend}) {stack:?}: grad[{j}] of example {i}"
                    );
                }
            }
        }
        // One compilation per distinct (fingerprint, stack): replaying
        // every path above must not add a single miss.
        let misses = engine.cache_stats().misses;
        let _ = cf.grad_batch(&instances).unwrap();
        let _ = cf.transform(&[Transform::Vjp, Transform::Vmap]).unwrap();
        let _ = cf.transform(&[Transform::Vmap, Transform::Vjp]).unwrap();
        assert_eq!(
            engine.cache_stats().misses,
            misses,
            "{name} ({backend}): transform replay must be all cache hits"
        );
    }
}

#[test]
fn gmm_batch_parity() {
    assert_batch_parity(
        "gmm",
        &gmm::objective_ir(),
        (0..3)
            .map(|i| gmm::GmmData::generate(20, 3, 4, i).ir_args())
            .collect(),
    );
}

#[test]
fn kmeans_dense_batch_parity() {
    assert_batch_parity(
        "kmeans-dense",
        &kmeans::dense_objective_ir(),
        (0..3)
            .map(|i| kmeans::KmeansData::generate(60, 4, 5, i).ir_args())
            .collect(),
    );
}

#[test]
fn kmeans_sparse_batch_parity() {
    assert_batch_parity(
        "kmeans-sparse",
        &kmeans::sparse_objective_ir(),
        (0..3)
            .map(|i| kmeans::SparseKmeansData::generate(40, 16, 4, 5, i).ir_args())
            .collect(),
    );
}

#[test]
fn lstm_batch_parity() {
    let data0 = lstm::LstmData::generate(4, 3, 4, 2, 0);
    assert_batch_parity(
        "lstm",
        &lstm::objective_ir(data0.h, data0.bs),
        (0..3)
            .map(|i| lstm::LstmData::generate(4, 3, 4, 2, i).ir_args())
            .collect(),
    );
}

#[test]
fn ba_batch_parity() {
    assert_batch_parity(
        "ba",
        &adbench::ba_objective_ir(),
        (0..3)
            .map(|i| adbench::BaData::generate(6, 30, 120, i).ir_args())
            .collect(),
    );
}

#[test]
fn hand_simple_batch_parity() {
    assert_batch_parity(
        "hand-simple",
        &adbench::hand_objective_ir(false),
        (0..3)
            .map(|i| adbench::HandData::generate(12, 4, i).ir_args(false))
            .collect(),
    );
}

#[test]
fn hand_complicated_batch_parity() {
    assert_batch_parity(
        "hand-complicated",
        &adbench::hand_objective_ir(true),
        (0..3)
            .map(|i| adbench::HandData::generate(12, 4, i).ir_args(true))
            .collect(),
    );
}

#[test]
fn dlstm_batch_parity() {
    let data0 = adbench::DlstmData::generate(8, 4, 4, 0);
    assert_batch_parity(
        "d-lstm",
        &adbench::dlstm_objective_ir(data0.h),
        (0..3)
            .map(|i| adbench::DlstmData::generate(8, 4, 4, i).ir_args())
            .collect(),
    );
}

#[test]
fn mc_batch_parity() {
    // XSBench and RSBench, the paper's two Monte Carlo ports.
    assert_batch_parity(
        "xsbench",
        &mc::xsbench_ir(mc::XsData::generate(8, 4, 64, 0).g),
        (0..3)
            .map(|i| mc::XsData::generate(8, 4, 64, i).ir_args())
            .collect(),
    );
    assert_batch_parity(
        "rsbench",
        &mc::rsbench_ir(4, 3),
        (0..3)
            .map(|i| mc::RsData::generate(6, 4, 3, 64, i).ir_args())
            .collect(),
    );
}
