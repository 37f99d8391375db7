//! Differential parity tests: every workload in `crates/workloads` runs
//! through both execution backends — the tree-walking interpreter and the
//! `firvm` bytecode VM — via the staged `Engine` API, and must produce
//! equal primal values and equal reverse-mode gradients (within 1e-9
//! relative tolerance; sequential configurations are compared
//! bitwise-identically where float reassociation cannot occur).

use fir::ir::Fun;
use firvm::Vm;
use futhark_ad::gradcheck::max_rel_error;
use futhark_ad_repro::Engine;
use interp::{ExecConfig, Interp, Value};
use workloads::{adbench, gmm, kmeans, lstm, mc};

const TOL: f64 = 1e-9;

/// Primal and gradient parity of `fun` across interp and VM, in both
/// sequential and parallel configurations, all through `Engine` handles.
fn assert_parity(name: &str, fun: &Fun, args: &[Value]) {
    let par_cfg = ExecConfig {
        parallel: true,
        num_threads: 4,
        parallel_threshold: 32,
    };
    let interp_seq = Engine::by_name("interp-seq").unwrap();
    let vm_seq = Engine::by_name("vm-seq").unwrap();
    let interp_par = Engine::with_backend(Box::new(Interp::with_config(par_cfg.clone())));
    let vm_par = Engine::with_backend(Box::new(Vm::with_config(par_cfg)));

    let ci = interp_seq.compile(fun).unwrap();
    let cv = vm_seq.compile(fun).unwrap();
    let cip = interp_par.compile(fun).unwrap();
    let cvp = vm_par.compile(fun).unwrap();

    // Primal parity: sequential VM must match sequential interp bitwise
    // (same operations in the same order).
    let pi = ci.call(args).unwrap();
    let pv = cv.call(args).unwrap();
    assert_eq!(pi.len(), pv.len(), "{name}: result arity");
    assert_eq!(
        pi[0].as_f64().to_bits(),
        pv[0].as_f64().to_bits(),
        "{name}: primal bitwise"
    );

    // Parallel configurations may reassociate reductions: tolerance-equal.
    let pip = cip.call_scalar(args).unwrap();
    let pvp = cvp.call_scalar(args).unwrap();
    let denom = pi[0].as_f64().abs().max(1.0);
    assert!(
        (pip - pi[0].as_f64()).abs() / denom < TOL,
        "{name}: interp par primal"
    );
    assert!(
        (pvp - pi[0].as_f64()).abs() / denom < TOL,
        "{name}: vm par primal"
    );

    // Gradient parity on the lazily derived vjp handles (seeds derived by
    // the engine from the result types).
    let gi = ci.grad(args).unwrap();
    let gv = cv.grad(args).unwrap();
    assert_eq!(
        gi.scalar().to_bits(),
        gv.scalar().to_bits(),
        "{name}: vjp primal bitwise"
    );
    let (fgi, fgv) = (gi.flat_grads(), gv.flat_grads());
    assert_eq!(fgi.len(), fgv.len(), "{name}: gradient length");
    let err = max_rel_error(&fgi, &fgv);
    assert!(
        err < TOL,
        "{name}: sequential gradient mismatch, max rel err {err:.3e}"
    );

    let gvp = cvp.grad(args).unwrap();
    let err = max_rel_error(&fgi, &gvp.flat_grads());
    assert!(
        err < TOL,
        "{name}: parallel VM gradient mismatch, max rel err {err:.3e}"
    );
}

#[test]
fn gmm_backends_agree() {
    let data = gmm::GmmData::generate(40, 4, 5, 1);
    assert_parity("gmm", &gmm::objective_ir(), &data.ir_args());
}

#[test]
fn kmeans_dense_backends_agree() {
    let data = kmeans::KmeansData::generate(200, 4, 5, 2);
    assert_parity(
        "kmeans-dense",
        &kmeans::dense_objective_ir(),
        &data.ir_args(),
    );
}

#[test]
fn kmeans_sparse_backends_agree() {
    let data = kmeans::SparseKmeansData::generate(120, 16, 4, 5, 3);
    assert_parity(
        "kmeans-sparse",
        &kmeans::sparse_objective_ir(),
        &data.ir_args(),
    );
}

#[test]
fn lstm_backends_agree() {
    let data = lstm::LstmData::generate(6, 4, 5, 2, 4);
    assert_parity(
        "lstm",
        &lstm::objective_ir(data.h, data.bs),
        &data.ir_args(),
    );
}

#[test]
fn ba_backends_agree() {
    let data = adbench::BaData::generate(8, 40, 160, 5);
    assert_parity("ba", &adbench::ba_objective_ir(), &data.ir_args());
}

#[test]
fn hand_simple_backends_agree() {
    let data = adbench::HandData::generate(16, 5, 6);
    assert_parity(
        "hand-simple",
        &adbench::hand_objective_ir(false),
        &data.ir_args(false),
    );
}

#[test]
fn hand_complicated_backends_agree() {
    let data = adbench::HandData::generate(16, 5, 7);
    assert_parity(
        "hand-complicated",
        &adbench::hand_objective_ir(true),
        &data.ir_args(true),
    );
}

#[test]
fn dlstm_backends_agree() {
    let data = adbench::DlstmData::generate(10, 6, 6, 8);
    assert_parity(
        "d-lstm",
        &adbench::dlstm_objective_ir(data.h),
        &data.ir_args(),
    );
}

#[test]
fn xsbench_backends_agree() {
    let data = mc::XsData::generate(16, 6, 256, 9);
    assert_parity("xsbench", &mc::xsbench_ir(data.g), &data.ir_args());
}

#[test]
fn rsbench_backends_agree() {
    let data = mc::RsData::generate(6, 4, 3, 128, 10);
    assert_parity("rsbench", &mc::rsbench_ir(4, 3), &data.ir_args());
}

/// Every accumulator add of a gradient through a parallel arm: with a
/// threshold of 2 every SOAC of two or more elements forks, so a strand
/// adds on the shared (CAS) path inside its chunks and on the owned one
/// between its forks. A lost update shows as a wrong gradient; repeats,
/// because a race need not show on the first run.
#[test]
fn forced_parallel_gradients_agree_with_the_sequential_vm() {
    let gmm = gmm::GmmData::generate(40, 4, 5, 1);
    let dense = kmeans::KmeansData::generate(200, 4, 5, 2);
    let sparse = kmeans::SparseKmeansData::generate(120, 16, 4, 5, 3);
    let lstm = lstm::LstmData::generate(6, 4, 5, 2, 4);
    let ba = adbench::BaData::generate(8, 40, 160, 5);
    let hand = adbench::HandData::generate(16, 5, 6);
    let dlstm = adbench::DlstmData::generate(10, 6, 6, 8);
    let xs = mc::XsData::generate(16, 6, 256, 9);
    let rs = mc::RsData::generate(6, 4, 3, 128, 10);
    let workloads: [(&str, Fun, Vec<Value>); 10] = [
        ("gmm", gmm::objective_ir(), gmm.ir_args()),
        (
            "kmeans-dense",
            kmeans::dense_objective_ir(),
            dense.ir_args(),
        ),
        (
            "kmeans-sparse",
            kmeans::sparse_objective_ir(),
            sparse.ir_args(),
        ),
        ("lstm", lstm::objective_ir(lstm.h, lstm.bs), lstm.ir_args()),
        ("ba", adbench::ba_objective_ir(), ba.ir_args()),
        (
            "hand-simple",
            adbench::hand_objective_ir(false),
            hand.ir_args(false),
        ),
        (
            "hand-complicated",
            adbench::hand_objective_ir(true),
            hand.ir_args(true),
        ),
        (
            "d-lstm",
            adbench::dlstm_objective_ir(dlstm.h),
            dlstm.ir_args(),
        ),
        ("xsbench", mc::xsbench_ir(xs.g), xs.ir_args()),
        ("rsbench", mc::rsbench_ir(4, 3), rs.ir_args()),
    ];
    let vm_seq = Engine::by_name("vm-seq").unwrap();
    let vm_par = Engine::with_backend(Box::new(Vm::with_config(ExecConfig {
        parallel: true,
        num_threads: 4,
        parallel_threshold: 2,
    })));
    for (name, fun, args) in &workloads {
        let want = vm_seq.compile(fun).unwrap().grad(args).unwrap();
        let forced = vm_par.compile(fun).unwrap();
        for repeat in 0..5 {
            let got = forced.grad(args).unwrap();
            let err = max_rel_error(&want.flat_grads(), &got.flat_grads());
            assert!(err < TOL, "{name}, repeat {repeat}: max rel err {err:.3e}");
        }
    }
}

#[test]
fn hessian_programs_run_identically_on_both_backends() {
    // hvp (jvp ∘ vjp): the nested-AD output (accumulators inside
    // forward-mode tangents) is the hardest program shape either backend
    // sees. Seeds and tangents are derived by the engine.
    let data = kmeans::KmeansData::generate(30, 3, 4, 11);
    let fun = kmeans::dense_objective_ir();
    let ones = Value::Arr(interp::Array::from_f64(
        vec![data.k, data.d],
        vec![1.0; data.k * data.d],
    ));
    let hv_i = Engine::by_name("interp-seq")
        .unwrap()
        .compile(&fun)
        .unwrap()
        .hvp(&data.ir_args(), &[(1, ones.clone())])
        .unwrap();
    let hv_v = Engine::by_name("vm-seq")
        .unwrap()
        .compile(&fun)
        .unwrap()
        .hvp(&data.ir_args(), &[(1, ones)])
        .unwrap();
    assert_eq!(hv_i.len(), hv_v.len());
    assert!(max_rel_error(hv_i[1].as_arr().f64s(), hv_v[1].as_arr().f64s()) < TOL);
}

#[test]
fn program_cache_makes_recompilation_free() {
    // A private cache (the global one is shared with concurrently running
    // tests): two structurally identical builds must share one program.
    let cache = firvm::ProgramCache::new();
    let p1 = cache.get_or_compile(&gmm::objective_ir());
    let p2 = cache.get_or_compile(&gmm::objective_ir());
    assert!(
        std::sync::Arc::ptr_eq(&p1, &p2),
        "identical rebuild must hit the cache"
    );
    assert_eq!(cache.len(), 1);

    let data = gmm::GmmData::generate(10, 3, 3, 12);
    let vm = Vm::sequential();
    let a = vm.run_program(&p1, &data.ir_args())[0].as_f64();
    let b = vm.run_program(&p2, &data.ir_args())[0].as_f64();
    let want = Engine::by_name("interp-seq")
        .unwrap()
        .with_pipeline(futhark_ad_repro::PassPipeline::none())
        .compile(&gmm::objective_ir())
        .unwrap()
        .call_scalar(&data.ir_args())
        .unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
    assert_eq!(a.to_bits(), want.to_bits());
}
