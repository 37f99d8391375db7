//! Shared infrastructure for the benchmark harnesses that regenerate the
//! paper's tables. Each `benches/table*.rs` binary prints the same rows the
//! corresponding table in the paper reports (with CPU-scaled dataset sizes,
//! documented in EXPERIMENTS.md), adds an interp-vs-`firvm` backend
//! comparison, and writes a machine-readable `BENCH_<table>.json` so the
//! repository accumulates a performance trajectory across PRs.

use std::io::Write as _;
use std::time::Instant;

use fir::ir::Fun;
use fir_api::{CompiledFn, Engine};
use interp::Value;

/// Median wall-clock seconds of `reps` runs of `f` (after one warm-up run).
pub fn time_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Format seconds as milliseconds with three significant digits.
pub fn ms(secs: f64) -> String {
    format!("{:.3} ms", secs * 1e3)
}

/// Format a ratio (`x` times).
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Print a table header with a title and column names.
pub fn header(title: &str, cols: &[&str]) {
    println!();
    println!("== {title} ==");
    println!("{}", cols.join(" | "));
}

/// Print one row of a table.
pub fn row(cells: &[String]) {
    println!("{}", cells.join(" | "));
}

// ---------------------------------------------------------------------
// Machine-readable reports
// ---------------------------------------------------------------------

/// A machine-readable benchmark report, written as `BENCH_<name>.json` in
/// `BENCH_OUT_DIR` (default: the current directory). The format is
/// deliberately flat — one object per row, numeric cells keyed by name — so
/// future PRs can diff performance trajectories with a few lines of jq.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    rows: Vec<(String, Vec<(String, f64)>)>,
}

impl Report {
    /// A new report named `name` (e.g. `"table5_gmm"`).
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row: a label plus named numeric cells (seconds, ratios…).
    pub fn add(&mut self, label: &str, cells: &[(&str, f64)]) {
        self.rows.push((
            label.to_string(),
            cells.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        ));
    }

    /// Serialize to JSON (hand-rolled; the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        fn num(x: f64) -> String {
            if x.is_finite() {
                format!("{x:.9}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", esc(&self.name)));
        out.push_str("  \"rows\": [\n");
        for (i, (label, cells)) in self.rows.iter().enumerate() {
            out.push_str(&format!("    {{\"label\": \"{}\"", esc(label)));
            for (k, v) in cells {
                out.push_str(&format!(", \"{}\": {}", esc(k), num(*v)));
            }
            out.push('}');
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<name>.json`; prints the path. I/O failures are
    /// reported but do not abort the bench (the printed table remains).
    pub fn write(&self) {
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_{}.json", self.name);
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(self.to_json().as_bytes()))
        {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Backend comparison (interp vs firvm)
// ---------------------------------------------------------------------

/// Timings of one workload on one backend: primal and full vjp gradient.
#[derive(Debug, Clone, Copy)]
pub struct BackendTiming {
    pub primal_secs: f64,
    pub grad_secs: f64,
}

/// Time a compiled function's primal call and reverse-mode gradient (the
/// vjp handle is derived lazily by the first `grad` call, which `time_secs`
/// spends on its warm-up rep).
pub fn time_backend(cf: &CompiledFn, args: &[Value], reps: usize) -> BackendTiming {
    let primal_secs = time_secs(reps, || {
        let _ = cf.call(args).expect("bench primal call failed");
    });
    let grad_secs = time_secs(reps, || {
        let _ = cf.grad(args).expect("bench gradient call failed");
    });
    BackendTiming {
        primal_secs,
        grad_secs,
    }
}

/// Print (and record) the interp-vs-VM comparison for one workload: primal
/// and gradient wall-clock on both backends plus the VM speedups. Returns
/// the gradient-time speedup of the VM over the interpreter.
pub fn compare_backends(
    report: &mut Report,
    label: &str,
    fun: &Fun,
    args: &[Value],
    reps: usize,
) -> f64 {
    let ci = engine("interp-seq").compile(fun).expect("compile (interp)");
    let cv = engine("vm-seq").compile(fun).expect("compile (vm)");
    let ti = time_backend(&ci, args, reps);
    let tv = time_backend(&cv, args, reps);
    let primal_speedup = ti.primal_secs / tv.primal_secs;
    let grad_speedup = ti.grad_secs / tv.grad_secs;
    row(&[
        label.to_string(),
        ms(ti.primal_secs),
        ms(tv.primal_secs),
        ratio(primal_speedup),
        ms(ti.grad_secs),
        ms(tv.grad_secs),
        ratio(grad_speedup),
    ]);
    report.add(
        &format!("backend:{label}"),
        &[
            ("interp_primal_s", ti.primal_secs),
            ("vm_primal_s", tv.primal_secs),
            ("vm_primal_speedup", primal_speedup),
            ("interp_grad_s", ti.grad_secs),
            ("vm_grad_s", tv.grad_secs),
            ("vm_grad_speedup", grad_speedup),
        ],
    );
    grad_speedup
}

/// The column names matching [`compare_backends`] rows.
pub const BACKEND_COLS: [&str; 7] = [
    "workload",
    "interp primal",
    "vm primal",
    "vm primal speedup",
    "interp grad",
    "vm grad",
    "vm grad speedup",
];

/// An engine on the named backend; panics on unknown names (bench
/// harnesses hard-code registered names).
pub fn engine(name: &str) -> Engine {
    Engine::by_name(name).unwrap_or_else(|e| panic!("{e}"))
}

// ---------------------------------------------------------------------
// Batched serving (call_batch amortization)
// ---------------------------------------------------------------------

/// Print (and record) the batched-serving comparison for one workload: the
/// reverse-mode gradient of every instance in `batch` computed by a
/// sequential per-call loop vs. one `grad_batch` scheduled across the
/// worker pool. Both run on the sequential VM so the comparison isolates
/// batch amortization from intra-call SOAC parallelism. Returns the batch
/// speedup.
pub fn compare_batch(
    report: &mut Report,
    label: &str,
    fun: &Fun,
    batch: &[Vec<Value>],
    reps: usize,
) -> f64 {
    let cf = engine("vm-seq").compile(fun).expect("compile (vm-seq)");
    let per_call_secs = time_secs(reps, || {
        for args in batch {
            let _ = cf.grad(args).expect("bench per-call gradient failed");
        }
    });
    let batch_secs = time_secs(reps, || {
        let _ = cf.grad_batch(batch).expect("bench batched gradient failed");
    });
    let speedup = per_call_secs / batch_secs;
    row(&[
        format!("{label} (batch of {})", batch.len()),
        ms(per_call_secs),
        ms(batch_secs),
        ratio(speedup),
    ]);
    report.add(
        &format!("batch:{label}"),
        &[
            ("batch_size", batch.len() as f64),
            ("per_call_s", per_call_secs),
            ("batch_s", batch_secs),
            ("batch_speedup", speedup),
        ],
    );
    speedup
}

/// The column names matching [`compare_batch`] rows.
pub const BATCH_COLS: [&str; 4] = ["workload", "per-call grad", "batched grad", "batch speedup"];

// ---------------------------------------------------------------------
// Optimizer impact (PassPipeline::standard vs PassPipeline::none)
// ---------------------------------------------------------------------

/// Print (and record) the optimizer-impact comparison for one workload:
/// primal and reverse-mode gradient wall-clock with the standard pass
/// pipeline vs. no optimization at all, plus the statement shrinkage the
/// pass-stats layer reports for the gradient program. Both engines run the
/// sequential VM so the comparison isolates the optimizer (results are
/// bitwise identical either way). Returns the gradient-time speedup.
pub fn compare_pipelines(
    report: &mut Report,
    label: &str,
    fun: &Fun,
    args: &[Value],
    reps: usize,
) -> f64 {
    let opt_engine = engine("vm-seq").with_pipeline(fir_api::PassPipeline::standard());
    let raw_engine = engine("vm-seq").with_pipeline(fir_api::PassPipeline::none());
    let co = opt_engine.compile(fun).expect("compile (optimized)");
    let cr = raw_engine.compile(fun).expect("compile (unoptimized)");
    let to = time_backend(&co, args, reps);
    let tr = time_backend(&cr, args, reps);
    // Statement counts of the gradient program under both pipelines (the
    // vjp handles exist after time_backend's grad warm-ups).
    let grad_stms_opt = fir_opt::count_stms(co.vjp().expect("vjp (optimized)").fun());
    let grad_stms_raw = fir_opt::count_stms(cr.vjp().expect("vjp (unoptimized)").fun());
    let primal_speedup = tr.primal_secs / to.primal_secs;
    let grad_speedup = tr.grad_secs / to.grad_secs;
    let removed_frac = 1.0 - grad_stms_opt as f64 / grad_stms_raw as f64;
    row(&[
        label.to_string(),
        ms(tr.grad_secs),
        ms(to.grad_secs),
        ratio(grad_speedup),
        format!(
            "{grad_stms_raw} -> {grad_stms_opt} (-{:.0}%)",
            removed_frac * 100.0
        ),
    ]);
    report.add(
        &format!("optimizer:{label}"),
        &[
            ("noopt_primal_s", tr.primal_secs),
            ("opt_primal_s", to.primal_secs),
            ("opt_primal_speedup", primal_speedup),
            ("noopt_grad_s", tr.grad_secs),
            ("opt_grad_s", to.grad_secs),
            ("opt_grad_speedup", grad_speedup),
            ("grad_stms_noopt", grad_stms_raw as f64),
            ("grad_stms_opt", grad_stms_opt as f64),
            ("grad_stms_removed_frac", removed_frac),
        ],
    );
    grad_speedup
}

/// The column names matching [`compare_pipelines`] rows.
pub const PIPELINE_COLS: [&str; 5] = [
    "workload",
    "unoptimized grad",
    "optimized grad",
    "optimizer speedup",
    "gradient stms",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let mut r = Report::new("table0_test");
        r.add("row \"one\"", &[("a", 1.5), ("b", f64::NAN)]);
        r.add("row2", &[]);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"table0_test\""));
        assert!(json.contains("\"label\": \"row \\\"one\\\"\""));
        assert!(json.contains("\"a\": 1.500000000"));
        assert!(json.contains("\"b\": null"));
        assert!(json.contains("{\"label\": \"row2\"}"));
    }

    #[test]
    fn time_secs_returns_positive_median() {
        let t = time_secs(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn compare_backends_smoke() {
        use fir::builder::Builder;
        use fir::types::Type;
        let mut b = Builder::new();
        let f = b.build_fun("cmp", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            vec![b.sum(sq).into()]
        });
        let mut rep = Report::new("smoke");
        let speedup = compare_backends(&mut rep, "smoke", &f, &[Value::from(vec![0.5; 64])], 1);
        assert!(speedup.is_finite() && speedup > 0.0);
        assert!(rep.to_json().contains("backend:smoke"));
    }

    #[test]
    fn compare_batch_smoke() {
        use fir::builder::Builder;
        use fir::types::Type;
        let mut b = Builder::new();
        let f = b.build_fun("batch", &[Type::arr_f64(1)], |b, ps| {
            let sq = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                vec![b.fmul(es[0].into(), es[0].into())]
            });
            vec![b.sum(sq).into()]
        });
        let batch: Vec<Vec<Value>> = (0..4)
            .map(|i| vec![Value::from(vec![0.5; 32 + i])])
            .collect();
        let mut rep = Report::new("smoke_batch");
        let speedup = compare_batch(&mut rep, "smoke", &f, &batch, 1);
        assert!(speedup.is_finite() && speedup > 0.0);
        assert!(rep.to_json().contains("batch:smoke"));
    }
}
