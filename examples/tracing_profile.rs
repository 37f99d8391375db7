//! End-to-end observability: capture a structured trace of the GMM D5
//! gradient — compile pipeline, cache lookups, VM execution, worker
//! pool, and a served `[Vjp]` request — then export it as Chrome
//! trace-event JSON (`target/trace_gmm.json`, loadable in Perfetto or
//! `chrome://tracing`) and print the aggregated per-phase profile.
//!
//! Tracing is off by default (one relaxed atomic load per potential
//! event); this example flips it on with `fir_trace::set_enabled(true)`
//! and attaches the standard collector: a thread that periodically
//! [`fir_trace::drain`]s the bounded per-thread ring buffers and
//! [`fir_trace::Trace::extend`]s the batches into one continuous trace.
//! (A single GMM D5 gradient dispatches ~80k kernels, so with the
//! `profile` feature a busy thread wraps its ring in well under a
//! second — drain faster than that and nothing is lost.)
//!
//! Build with `--features profile` to record a span per SOAC kernel
//! dispatch inside the VM; without it the trace stays at whole-program
//! granularity and a few hundred events.
//!
//! Run with `cargo run --release --example tracing_profile`
//! (optionally `--features profile`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use futhark_ad_repro::{BatchPolicy, Engine, Request, ServeError, ServerBuilder, Transform};
use interp::Value;
use workloads::gmm;

fn main() -> Result<(), ServeError> {
    fir_trace::set_enabled(true);
    static DONE: AtomicBool = AtomicBool::new(false);
    let collector = std::thread::spawn(|| {
        let mut acc = fir_trace::Trace::default();
        while !DONE.load(Ordering::Acquire) {
            // 2ms, not 10: with `profile` every SOAC dispatch is a span, and a busy ring can wrap in under 10ms
            // (which would evict the early compile events).
            std::thread::sleep(Duration::from_millis(2));
            acc.extend(fir_trace::drain());
        }
        acc.extend(fir_trace::drain());
        acc
    });

    // --- Compile + grad directly through the engine (compile/cache/vm
    // spans), on the paper's GMM D5 instance: n=500, d=32, K=25.
    // `FIR_MEMPLAN=1` swaps in `PassPipeline::standard_mem()`, so the
    // profile additionally shows the memory-planning pass (`opt/memplan`)
    // and the `compile/memplan` buffer-plan instant (the EXPERIMENTS.md
    // "Memory planning" excerpt).
    let memplan = std::env::var("FIR_MEMPLAN").is_ok();
    let engine = Engine::by_name("vm").map_err(ServeError::Exec)?;
    let engine = if memplan {
        engine.with_pipeline(futhark_ad_repro::PassPipeline::standard_mem())
    } else {
        engine
    };
    let f = engine
        .compile(&gmm::objective_ir())
        .map_err(ServeError::Exec)?;
    let data = gmm::GmmData::generate(500, 32, 25, 0);
    let args = data.ir_args();
    let g = f.grad(&args).map_err(ServeError::Exec)?;
    println!("gmm d5 objective: {:.6}", g.scalar());
    // A second gradient reuses the derived program (a "cache" instant in
    // the trace instead of a compile span).
    let _ = f.grad(&args).map_err(ServeError::Exec)?;

    // --- One [Vjp] request through the serving runtime: its trace id is
    // opened at admission and closed at ticket fulfillment, with the
    // batch span it rode in between.
    let server = ServerBuilder::new(engine)
        .batch_policy(BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::from_millis(1),
        })
        .register("gmm", &gmm::objective_ir())
        .build()?;
    let mut seeded = args.clone();
    seeded.push(Value::F64(1.0));
    let out = server
        .submit(Request::new("gmm", seeded).with_transforms([Transform::Vjp]))?
        .wait()?;
    println!("served [vjp] objective: {:.6}", out[0].as_f64());
    let metrics = server.shutdown();

    // --- Stop the collector and export.
    fir_trace::set_enabled(false);
    DONE.store(true, Ordering::Release);
    let trace = collector.join().expect("collector thread");
    assert!(!trace.is_empty(), "tracing was enabled; expected events");
    let chrome = trace.to_chrome_json();
    fir_trace::json::validate(&chrome).expect("exported trace must be valid JSON");
    for layer in ["compile", "vm", "serve"] {
        assert!(
            trace.events.iter().any(|e| e.cat == layer),
            "expected events from the {layer} layer"
        );
    }
    // Write under target/ so example runs never litter the source tree.
    std::fs::create_dir_all("target").expect("create target/");
    let out = "target/trace_gmm.json";
    std::fs::write(out, &chrome).expect("write trace_gmm.json");
    println!(
        "\nwrote {out} ({} events from {} threads) — open in Perfetto",
        trace.events.len(),
        trace.threads.len()
    );

    println!("\nper-phase profile (self time excludes child spans):");
    println!("{}", trace.profile());

    println!("serve metrics snapshot:\n{}", metrics.to_json());
    Ok(())
}
