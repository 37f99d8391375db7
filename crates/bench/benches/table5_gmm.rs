//! Table 5: the GMM case study. For each dataset shape (scaled versions of
//! ADBench's D0–D5 from Table 5a) we report the PyTorch-like baseline's
//! Jacobian (gradient) time, this work's speedup over it, and both tools'
//! overheads (gradient time / objective time), mirroring Tables 5b/5c.

use ad_bench::{
    compare_backends, compare_batch, compare_pipelines, engine, header, ms, ratio, row, time_secs,
    Report, BACKEND_COLS, BATCH_COLS, PIPELINE_COLS,
};
use interp::Value;
use workloads::gmm;

fn main() {
    header(
        "Table 5: GMM gradient (scaled ADBench datasets)",
        &[
            "dataset (n, d, K)",
            "PyTorch-like Jacobian",
            "Futhark speedup",
            "PyTorch overhead",
            "Futhark overhead",
        ],
    );
    // Scaled-down versions of Table 5a's (n, d, K).
    let datasets: &[(&str, usize, usize, usize)] = &[
        ("D0 (300, 16, 25)", 300, 16, 25),
        ("D1 (300, 32, 25)", 300, 32, 25),
        ("D2 (500, 8, 25)", 500, 8, 25),
        ("D3 (500, 16, 10)", 500, 16, 10),
        ("D4 (500, 32, 10)", 500, 32, 10),
        ("D5 (500, 32, 25)", 500, 32, 25),
    ];
    let reps = 2;
    let mut report = Report::new("table5_gmm");
    let fun = gmm::objective_ir();
    // One staged compile, reused across every dataset (the vjp handle is
    // derived once and cached by the engine).
    let cf = engine("vm").compile(&fun).expect("compile GMM");
    for (name, n, d, k) in datasets {
        let data = gmm::GmmData::generate(*n, *d, *k, 11);
        // PyTorch-like: objective and gradient on the tensor tape.
        let torch_obj = time_secs(reps, || {
            let _ = gmm::objective_manual(&data);
        });
        let torch_grad = time_secs(reps, || {
            let _ = gmm::gradient_tensor(&data);
        });
        // Futhark-like: staged primal and vjp gradient on the parallel
        // executor.
        let args = data.ir_args();
        let fut_obj = time_secs(reps, || {
            let _ = cf.call(&args).expect("GMM primal");
        });
        let fut_grad = time_secs(reps, || {
            let _ = cf.grad(&args).expect("GMM gradient");
        });
        row(&[
            name.to_string(),
            ms(torch_grad),
            ratio(torch_grad / fut_grad),
            ratio(torch_grad / torch_obj),
            ratio(fut_grad / fut_obj),
        ]);
        report.add(
            name,
            &[
                ("pytorch_grad_s", torch_grad),
                ("futhark_grad_s", fut_grad),
                ("futhark_speedup", torch_grad / fut_grad),
                ("pytorch_overhead", torch_grad / torch_obj),
                ("futhark_overhead", fut_grad / fut_obj),
            ],
        );
    }
    println!();
    println!("(Paper, Table 5b on A100: Futhark speedups 1.85/2.18/1.45/1.81/1.89/0.87; overheads ~2–3x for both tools.)");

    header(
        "Table 5 backends: tree-walking interp vs firvm bytecode VM",
        &BACKEND_COLS,
    );
    // The largest dataset of the table (D5): this is the row the ISSUE's
    // >= 2x acceptance criterion is checked against.
    let big = gmm::GmmData::generate(500, 32, 25, 11);
    compare_backends(
        &mut report,
        "GMM D5 (500, 32, 25)",
        &fun,
        &big.ir_args(),
        reps,
    );

    header(
        "Table 5 optimizer: PassPipeline::standard vs PassPipeline::none",
        &PIPELINE_COLS,
    );
    // The optimizer's impact on the gradient program (fusion + CSE +
    // hoisting + simplification vs raw AD output), sequential VM.
    compare_pipelines(
        &mut report,
        "GMM D5 (500, 32, 25)",
        &fun,
        &big.ir_args(),
        reps,
    );

    header(
        "Table 5 serving: per-call gradients vs grad_batch on the worker pool",
        &BATCH_COLS,
    );
    // A serving batch of independent D3-sized requests: per-call dispatch
    // in a loop vs one grad_batch amortized across the pool.
    let batch: Vec<Vec<Value>> = (0..16)
        .map(|i| gmm::GmmData::generate(500, 16, 10, 100 + i).ir_args())
        .collect();
    compare_batch(&mut report, "GMM D3 (500, 16, 10)", &fun, &batch, reps);
    report.write();
}
