//! End-to-end tracing: a single served `[Vjp]` request must produce one
//! *connected* trace — compile spans from the engine, a VM execution
//! span from the worker pool, and serve-side async begin/end events
//! correlated by the request's trace id, whose completion references the
//! batch span it rode in — exported as valid Chrome trace-event JSON.
//!
//! Lives in its own integration-test binary because tracing is
//! process-global state.

use futhark_ad_repro::{BatchPolicy, Engine, Request, ServerBuilder, Transform};
use interp::Value;
use std::time::Duration;
use workloads::gmm;

#[test]
fn served_vjp_request_produces_one_connected_trace() {
    fir_trace::set_enabled(true);

    // Every engine-cache lookup reports its outcome as a `cache` instant:
    // compile, recompile, first `vjp()` (the derived program compiles),
    // second `vjp()`.
    let engine = Engine::by_name("vm").unwrap();
    let f = engine.compile(&gmm::objective_ir()).unwrap();
    engine.compile(&gmm::objective_ir()).unwrap();
    f.vjp().unwrap();
    f.vjp().unwrap();
    let lookups: Vec<_> = fir_trace::drain()
        .events
        .iter()
        .filter(|e| e.cat == "cache")
        .map(|e| e.name)
        .collect();
    assert_eq!(lookups, ["miss", "hit", "miss", "alias-hit"]);

    let server = ServerBuilder::new(Engine::by_name("vm").unwrap())
        .batch_policy(BatchPolicy {
            max_batch_size: 4,
            max_wait: Duration::from_millis(1),
        })
        .register("gmm", &gmm::objective_ir())
        .build()
        .unwrap();
    let mut seeded = gmm::GmmData::generate(20, 3, 2, 0).ir_args();
    seeded.push(Value::F64(1.0));
    let out = server
        .submit(Request::new("gmm", seeded).with_transforms([Transform::Vjp]))
        .unwrap()
        .wait()
        .unwrap();
    let metrics = server.shutdown();
    fir_trace::set_enabled(false);
    let trace = fir_trace::drain();

    assert!(out[0].as_f64().is_finite());
    assert_eq!(metrics.completed(), 1);

    // Spans from all three layers made it into one trace.
    for layer in ["compile", "vm", "serve"] {
        assert!(
            trace.events.iter().any(|e| e.cat == layer),
            "no {layer} events in {:?}",
            trace.events
        );
    }

    // The request's life is an async begin/end pair correlated by one id.
    use fir_trace::EventKind;
    let begin = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::AsyncBegin && e.cat == "serve" && e.name == "request")
        .expect("request admission event");
    let end = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::AsyncEnd && e.cat == "serve" && e.name == "request")
        .expect("request completion event");
    assert_eq!(begin.id, end.id, "begin/end correlate by trace id");
    assert_ne!(begin.id, 0);

    // The completion names the batch it rode in, and that batch span
    // exists, started after admission, and carried exactly this request.
    let batch = trace
        .events
        .iter()
        .find(|e| {
            e.kind == EventKind::Span && e.cat == "serve" && e.name == "batch" && e.id == end.arg
        })
        .expect("the batch span the completion references");
    assert_eq!(batch.arg, 1, "one live request in the batch");
    assert!(begin.t0_ns <= batch.t0_ns, "admitted before the batch cut");

    // The derived program executed on the VM inside that batch's window.
    let vm = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::Span && e.cat == "vm" && e.name.ends_with("_vjp"))
        .expect("VM execution span of the derived program");
    assert!(batch.t0_ns <= vm.t0_ns && vm.t0_ns + vm.dur_ns <= batch.t0_ns + batch.dur_ns);
    assert!(
        vm.t0_ns + vm.dur_ns <= end.t0_ns,
        "fulfilled after the VM finished"
    );

    // The export is valid Chrome trace-event JSON with the right shape.
    let chrome = trace.to_chrome_json();
    let doc = fir_trace::json::parse(&chrome).expect("exported trace parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(events.len() >= trace.events.len());
    let phase_of = |want_cat: &str, want_ph: &str| {
        events.iter().any(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some(want_cat)
                && e.get("ph").and_then(|p| p.as_str()) == Some(want_ph)
        })
    };
    assert!(
        phase_of("serve", "b") && phase_of("serve", "e"),
        "async pair exported"
    );
    assert!(phase_of("vm", "X"), "complete-span events exported");

    // The aggregated profile sees the same layers.
    let profile = trace.profile();
    for cat in ["compile", "vm", "serve", "opt"] {
        assert!(
            profile.rows.iter().any(|r| r.cat == cat && r.count > 0),
            "profile missing {cat} rows: {profile}"
        );
    }
}
