//! Table 3: dense k-means clustering solved with Newton's method. The work
//! per iteration is the cost, its gradient and the (diagonal) Hessian. Three
//! implementations are compared: the hand-written histogram-style solver
//! ("Manual"), reverse+forward AD on the IR ("AD", gradient by `vjp`,
//! Hessian diagonal by one `jvp` of the `vjp`), and the PyTorch-like tensor
//! baseline ("PyTorch"). Workload shapes are scaled-down versions of the
//! paper's (k, n, d) = (5, 494019, 35) and (1024, 10000, 256).

use ad_bench::{
    compare_backends, compare_batch, compare_pipelines, engine, header, ms, row, time_secs, Report,
    BACKEND_COLS, BATCH_COLS, PIPELINE_COLS,
};
use interp::{Array, Value};
use workloads::kmeans;

fn bench(report: &mut Report, name: &str, k: usize, n: usize, d: usize, reps: usize) {
    let data = kmeans::KmeansData::generate(n, d, k, 42);

    // Manual (histogram-style assignment + per-centre sums).
    let manual_t = time_secs(reps, || {
        let _ = kmeans::dense_manual(&data);
    });

    // AD: gradient via the vjp handle, Hessian diagonal via hvp with an
    // all-ones direction on the centers (a single extra pass — the paper's
    // §7.4 trick). Seeds and zero tangents are derived by the engine.
    let cf = engine("vm")
        .compile(&kmeans::dense_objective_ir())
        .expect("compile k-means");
    let args = data.ir_args();
    let ones = Value::Arr(Array::from_f64(vec![k, d], vec![1.0; k * d]));
    let ad_t = time_secs(reps, || {
        let _ = cf.grad(&args).expect("k-means gradient");
        let _ = cf.hvp(&args, &[(1, ones.clone())]).expect("k-means hvp");
    });

    // PyTorch-like baseline: gradient via the tape; the Hessian pass is
    // emulated by a second tape evaluation (see EXPERIMENTS.md).
    let torch_t = time_secs(reps, || {
        let _ = kmeans::dense_tensor_gradient(&data);
        let _ = kmeans::dense_tensor_gradient(&data);
    });

    row(&[name.to_string(), ms(manual_t), ms(ad_t), ms(torch_t)]);
    report.add(
        name,
        &[
            ("manual_s", manual_t),
            ("ad_s", ad_t),
            ("pytorch_s", torch_t),
        ],
    );
}

fn main() {
    header(
        "Table 3: dense k-means Newton step (cost + gradient + Hessian diagonal)",
        &["(k, n, d)", "Manual", "AD (this work)", "PyTorch-like"],
    );
    let reps = 3;
    let mut report = Report::new("table3_kmeans_dense");
    bench(
        &mut report,
        "(5, 5000, 35)   [paper: (5, 494019, 35)]",
        5,
        5_000,
        35,
        reps,
    );
    bench(
        &mut report,
        "(64, 1000, 64)   [paper: (1024, 10000, 256)]",
        64,
        1_000,
        64,
        reps,
    );
    println!();
    println!("(Paper, Table 3 on A100: manual 9.3/9.9 ms, AD 36.6/9.6 ms, PyTorch 44.9/11.2 ms.)");

    header(
        "Table 3 backends: tree-walking interp vs firvm bytecode VM",
        &BACKEND_COLS,
    );
    let big = kmeans::KmeansData::generate(5_000, 35, 5, 42);
    compare_backends(
        &mut report,
        "kmeans-dense (5, 5000, 35)",
        &kmeans::dense_objective_ir(),
        &big.ir_args(),
        reps,
    );

    header(
        "Table 3 optimizer: PassPipeline::standard vs PassPipeline::none",
        &PIPELINE_COLS,
    );
    compare_pipelines(
        &mut report,
        "kmeans-dense (5, 5000, 35)",
        &kmeans::dense_objective_ir(),
        &big.ir_args(),
        reps,
    );

    header(
        "Table 3 serving: per-call gradients vs grad_batch on the worker pool",
        &BATCH_COLS,
    );
    // A serving batch of independent clustering requests.
    let batch: Vec<Vec<Value>> = (0..16)
        .map(|i| kmeans::KmeansData::generate(1_000, 16, 5, 200 + i).ir_args())
        .collect();
    compare_batch(
        &mut report,
        "kmeans-dense (5, 1000, 16)",
        &kmeans::dense_objective_ir(),
        &batch,
        reps,
    );
    report.write();
}
