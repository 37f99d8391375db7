//! Table 6: LSTM training step. For two (scaled) dataset shapes we report
//! the PyTorch-like baseline's gradient time, this work's speedup over it,
//! and both tools' AD overheads. The cuDNN column of the paper is a
//! hand-written GPU kernel library and has no CPU analogue here; the paper's
//! reported factors are printed for reference.

use ad_bench::{
    compare_backends, compare_pipelines, engine, header, ms, ratio, row, time_secs, Report,
    BACKEND_COLS, PIPELINE_COLS,
};
use workloads::lstm;

fn main() {
    header(
        "Table 6: LSTM gradient (scaled datasets)",
        &[
            "dataset (bs, seq, d, h)",
            "PyTorch-like Jacobian",
            "Futhark speedup",
            "PyTorch overhead",
            "Futhark overhead",
        ],
    );
    // Scaled versions of D0 = (1024, 20, 300, 192) and D1 = (1024, 300, 80, 256).
    let datasets: &[(&str, usize, usize, usize, usize)] = &[
        ("D0 (16, 8, 24, 12)", 16, 8, 24, 12),
        ("D1 (16, 20, 12, 16)", 16, 20, 12, 16),
    ];
    let reps = 2;
    let mut report = Report::new("table6_lstm");
    let eng = engine("interp");
    let eng_seq = engine("interp-seq");
    for (name, bs, seq, d, h) in datasets {
        let data = lstm::LstmData::generate(*seq, *d, *h, *bs, 21);
        let fun = lstm::objective_ir(data.h, data.bs);
        let cf = eng.compile(&fun).expect("compile LSTM");
        let args = data.ir_args();
        let fut_obj = time_secs(reps, || {
            let _ = cf.call(&args).expect("LSTM primal");
        });
        let fut_grad = time_secs(reps, || {
            let _ = cf.grad(&args).expect("LSTM gradient");
        });
        // PyTorch-like baseline: forward = tape build without backward is
        // not separable in this implementation, so the overhead denominator
        // is the objective evaluated on plain tensors (no tape) via the same
        // operators.
        let torch_grad = time_secs(reps, || {
            let _ = lstm::tensor_gradient(&data);
        });
        let cf_seq = eng_seq.compile(&fun).expect("compile LSTM (seq)");
        let torch_obj = time_secs(reps, || {
            // Objective-only evaluation: run the IR objective sequentially as
            // the closest operator-for-operator primal.
            let _ = cf_seq.call(&args).expect("LSTM primal (seq)");
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
    println!("(Paper, Table 6: Futhark ~3x faster than PyTorch on both systems; cuDNN (hand-written) a further 8–25x faster; overheads 2–4x.)");

    header(
        "Table 6 backends: tree-walking interp vs firvm bytecode VM",
        &BACKEND_COLS,
    );
    let big = lstm::LstmData::generate(20, 12, 16, 16, 21);
    compare_backends(
        &mut report,
        "LSTM D1 (16, 20, 12, 16)",
        &lstm::objective_ir(big.h, big.bs),
        &big.ir_args(),
        reps,
    );

    header(
        "Table 6 optimizer: PassPipeline::standard vs PassPipeline::none",
        &PIPELINE_COLS,
    );
    compare_pipelines(
        &mut report,
        "LSTM D1 (16, 20, 12, 16)",
        &lstm::objective_ir(big.h, big.bs),
        &big.ir_args(),
        reps,
    );

    report.write();
}
