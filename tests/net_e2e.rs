//! End-to-end tests for the fir-net tier: every paper workload served
//! over a real TCP socket must produce **bitwise-identical** results to
//! the same engine called in-process, quota sheds must name the tenant,
//! and the wire-level shutdown op must drain cleanly.

use std::time::Duration;

use futhark_ad_repro::fir_net::{
    NetClient, NetError, NetServerBuilder, TenantConfig, TenantPolicy,
};
use futhark_ad_repro::{Engine, Transform};
use interp::Value;
use workloads::{adbench, gmm, kmeans, lstm, mc};

struct Workload {
    key: &'static str,
    fun: fir::ir::Fun,
    args: Vec<Value>,
}

/// The nine paper workloads with small deterministic instances.
fn nine_workloads() -> Vec<Workload> {
    let lstm_data = lstm::LstmData::generate(4, 3, 4, 2, 0);
    let dlstm_data = adbench::DlstmData::generate(8, 4, 4, 0);
    let hand_s = adbench::HandData::generate(8, 4, 6);
    let hand_c = adbench::HandData::generate(8, 4, 7);
    let xs = mc::XsData::generate(8, 4, 64, 0);
    vec![
        Workload {
            key: "gmm",
            fun: gmm::objective_ir(),
            args: gmm::GmmData::generate(20, 3, 2, 1).ir_args(),
        },
        Workload {
            key: "kmeans-dense",
            fun: kmeans::dense_objective_ir(),
            args: kmeans::KmeansData::generate(30, 3, 4, 2).ir_args(),
        },
        Workload {
            key: "kmeans-sparse",
            fun: kmeans::sparse_objective_ir(),
            args: kmeans::SparseKmeansData::generate(40, 8, 4, 5, 3).ir_args(),
        },
        Workload {
            key: "lstm",
            fun: lstm::objective_ir(lstm_data.h, lstm_data.bs),
            args: lstm_data.ir_args(),
        },
        Workload {
            key: "ba",
            fun: adbench::ba_objective_ir(),
            args: adbench::BaData::generate(4, 12, 24, 5).ir_args(),
        },
        Workload {
            key: "hand-simple",
            fun: adbench::hand_objective_ir(false),
            args: hand_s.ir_args(false),
        },
        Workload {
            key: "hand-complicated",
            fun: adbench::hand_objective_ir(true),
            args: hand_c.ir_args(true),
        },
        Workload {
            key: "d-lstm",
            fun: adbench::dlstm_objective_ir(dlstm_data.h),
            args: dlstm_data.ir_args(),
        },
        Workload {
            key: "xsbench",
            fun: mc::xsbench_ir(xs.g),
            args: xs.ir_args(),
        },
    ]
}

fn assert_bitwise(what: &str, got: &[Value], want: &[Value]) {
    assert_eq!(got.len(), want.len(), "{what}: arity differs");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Value::F64(g), Value::F64(w)) => {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]")
            }
            (Value::I64(g), Value::I64(w)) => assert_eq!(g, w, "{what}[{i}]"),
            (Value::Bool(g), Value::Bool(w)) => assert_eq!(g, w, "{what}[{i}]"),
            (Value::Arr(g), Value::Arr(w)) => {
                assert_eq!(g.shape, w.shape, "{what}[{i}] shape");
                assert_eq!(g.elem(), w.elem(), "{what}[{i}] elem");
                if g.elem() == fir::types::ScalarType::F64 {
                    for (j, (a, b)) in g.f64s().iter().zip(w.f64s()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}][{j}]");
                    }
                } else if g.elem() == fir::types::ScalarType::I64 {
                    assert_eq!(g.i64s(), w.i64s(), "{what}[{i}]");
                } else {
                    assert_eq!(g.bools(), w.bools(), "{what}[{i}]");
                }
            }
            _ => panic!("{what}[{i}]: type changed over the wire"),
        }
    }
}

#[test]
fn nine_workloads_bitwise_identical_over_wire() {
    let workloads = nine_workloads();
    let mut builder =
        NetServerBuilder::new(Engine::by_name("vm-seq").unwrap()).warmup(&[&[], &[Transform::Vjp]]);
    for w in &workloads {
        builder = builder.register(w.key, &w.fun);
    }
    let server = builder.bind("127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(&server.local_addr().to_string()).unwrap();

    // The in-process reference: the same backend, called directly.
    let reference = Engine::by_name("vm-seq").unwrap();
    for w in &workloads {
        let cf = reference.compile(&w.fun).unwrap();
        let want = cf.call(&w.args).unwrap();
        let got = client.call(w.key, w.args.clone()).unwrap();
        assert_bitwise(&format!("{} call", w.key), &got, &want);

        let want = cf.grad(&w.args).unwrap();
        let got = client.grad(w.key, w.args.clone()).unwrap();
        assert_bitwise(&format!("{} grad value", w.key), &got.value, &want.value);
        assert_bitwise(&format!("{} grads", w.key), &got.grads, &want.grads);
    }

    // A transformed ([Vjp]) request over the wire: primal + adjoints of
    // the seeded program, identical to the in-process gradient.
    let w = &workloads[0];
    let mut seeded = w.args.clone();
    seeded.push(Value::F64(1.0));
    let got = client.call_t(w.key, &[Transform::Vjp], seeded).unwrap();
    let want = reference.compile(&w.fun).unwrap().grad(&w.args).unwrap();
    assert_eq!(got[0].as_f64().to_bits(), want.scalar().to_bits());

    // Unknown functions come back as a typed remote error, not a hang.
    match client.call("nope", vec![]) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, "unknown_fn"),
        other => panic!("expected remote unknown_fn, got {other:?}"),
    }

    let metrics = server.shutdown();
    assert!(metrics.completed() >= 18, "two requests per workload");
    let net = metrics.net.expect("net section present");
    assert_eq!(net.connections_accepted, 1);
    assert!(net.frames_received >= 20);
    assert_eq!(net.protocol_errors, 0);
}

#[test]
fn over_quota_tenant_is_shed_by_name() {
    let server = NetServerBuilder::new(Engine::by_name("vm-seq").unwrap())
        .register("gmm", &gmm::objective_ir())
        .tenant_policy(
            TenantPolicy::default()
                .tenant(
                    "free",
                    TenantConfig {
                        rate_per_sec: 0.001, // effectively no refill in-test
                        burst: 2.0,
                        weight: 1,
                    },
                )
                .tenant("pro", TenantConfig::unlimited()),
        )
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr().to_string();
    let args = gmm::GmmData::generate(10, 2, 2, 1).ir_args();

    let mut free = NetClient::connect(&addr).unwrap().with_tenant("free");
    // Burst of 2 admits, the third is shed with a typed error that
    // names the tenant.
    free.call("gmm", args.clone()).unwrap();
    free.call("gmm", args.clone()).unwrap();
    match free.call("gmm", args.clone()) {
        Err(NetError::Remote(e)) => {
            assert_eq!(e.code, "overloaded");
            assert_eq!(e.tenant.as_deref(), Some("free"));
            assert!(e.message.contains("\"free\""), "{}", e.message);
        }
        other => panic!("expected an overloaded shed, got {other:?}"),
    }
    // A different tenant on the same server is unaffected.
    let mut pro = NetClient::connect(&addr).unwrap().with_tenant("pro");
    pro.call("gmm", args.clone()).unwrap();

    // The metrics op reports the per-tenant ledger over the wire.
    let m = pro.metrics_json().unwrap();
    let parsed = fir_trace::json::parse(&m).unwrap();
    let net = parsed.get("net").expect("net section in metrics JSON");
    let tenants = net.get("tenants").and_then(|t| t.as_arr()).unwrap();
    let free_row = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(|n| n.as_str()) == Some("free"))
        .expect("free tenant in snapshot");
    assert_eq!(free_row.get("admitted").and_then(|v| v.as_num()), Some(2.0));
    assert_eq!(free_row.get("shed").and_then(|v| v.as_num()), Some(1.0));

    let metrics = server.shutdown();
    let net = metrics.net.unwrap();
    let free_row = net.tenants.iter().find(|t| t.tenant == "free").unwrap();
    assert_eq!((free_row.admitted, free_row.shed), (2, 1));
}

#[test]
fn wire_shutdown_op_drains_cleanly() {
    let server = NetServerBuilder::new(Engine::by_name("vm-seq").unwrap())
        .register("gmm", &gmm::objective_ir())
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr().to_string();
    let done = std::thread::spawn(move || {
        server.run_until_shutdown_requested();
        server.shutdown_within(Duration::from_secs(5))
    });

    let mut client = NetClient::connect(&addr).unwrap();
    client.ping().unwrap();
    let args = gmm::GmmData::generate(10, 2, 2, 1).ir_args();
    client.call("gmm", args).unwrap();
    client.shutdown_server().unwrap();

    let metrics = done.join().unwrap();
    assert!(metrics.completed() >= 1);
    // Post-shutdown connections are refused or dropped without a reply.
    match NetClient::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err()),
    }
}
