//! The fir-net wire protocol end to end: connect to a running
//! `fir_net_server` (or start one in-process), measure cold-start to
//! first response, mix plain / `[vjp]`-transformed / vmapped requests
//! with bitwise parity checks against an in-process engine, drive a
//! tenant over its quota, read the metrics op, and shut the server down
//! over the wire.
//!
//! * `cargo run --release --example net_client` — self-contained: binds
//!   an in-process server on a loopback port.
//! * `FIR_NET_ADDR=127.0.0.1:7177 cargo run --release --example
//!   net_client` — drives an external server (e.g. the `fir_net_server`
//!   binary); this is what CI's `net_smoke` step does.

use std::time::{Duration, Instant};

use futhark_ad_repro::fir_net::{
    NetClient, NetError, NetServer, NetServerBuilder, TenantConfig, TenantPolicy,
};
use futhark_ad_repro::{Engine, Transform};
use interp::Value;
use workloads::{gmm, kmeans};

fn main() -> Result<(), NetError> {
    // Either connect to an external server (CI) or bind one in-process.
    let external = std::env::var("FIR_NET_ADDR").ok();
    let mut local: Option<NetServer> = None;
    let t0 = Instant::now();
    let addr = match &external {
        Some(addr) => addr.clone(),
        None => {
            let server = NetServerBuilder::new(Engine::by_name("vm-seq").map_err(to_net)?)
                .register("gmm", &gmm::objective_ir())
                .register("kmeans-dense", &kmeans::dense_objective_ir())
                // Precompile the plain and reverse-mode lanes before the
                // listener opens (satellite of the serving tier: the
                // first request pays a cache hit, not a compilation).
                .warmup(&[&[], &[Transform::Vjp]])
                .tenant_policy(TenantPolicy::default().tenant(
                    "free",
                    TenantConfig {
                        rate_per_sec: 0.001,
                        burst: 2.0,
                        weight: 1,
                    },
                ))
                .bind("127.0.0.1:0")?;
            let addr = server.local_addr().to_string();
            local = Some(server);
            addr
        }
    };

    // Cold start: process/server bring-up until the first served
    // response (warmup moved compilation *before* the listener opened,
    // so this is dominated by connect + one round trip).
    let mut client = NetClient::connect(&addr)?;
    client.ping()?;

    // FIR_NET_EXPECT_WARM=1 (CI's second net_smoke run, sharing a
    // FIR_CACHE_DIR with the first): assert — before any request could
    // trigger a compile — that the server's warmup was answered entirely
    // by the persistent on-disk cache, i.e. zero fresh compilations.
    if std::env::var("FIR_NET_EXPECT_WARM").as_deref() == Ok("1") {
        let parsed = fir_trace::json::parse(&client.metrics_json()?).expect("metrics JSON parses");
        let cache = parsed.get("cache").expect("cache section in metrics");
        let misses = cache.get("misses").and_then(|v| v.as_num()).unwrap();
        let persistent = cache.get("persistent").expect("persistent cache section");
        let phits = persistent.get("hits").and_then(|v| v.as_num()).unwrap();
        assert_eq!(
            misses, 0.0,
            "a warm server must not compile anything: {cache:?}"
        );
        assert!(
            phits > 0.0,
            "a warm server must have loaded from disk: {cache:?}"
        );
        println!("warm start verified: {phits:.0} persistent-cache loads, 0 compiles");
    }

    let args = gmm::GmmData::generate(20, 3, 2, 1).ir_args();
    let first = client.call("gmm", args.clone())?;
    println!(
        "cold start to first response: {:?} (objective {:.6})",
        t0.elapsed(),
        first[0].as_f64()
    );

    // Bitwise parity: plain call, gradient, a [vjp]-transformed call
    // with an explicit seed, and a vmapped batch — each checked against
    // the same engine used in-process.
    let reference = Engine::by_name("vm-seq").map_err(to_net)?;
    let gmm_ref = reference.compile(&gmm::objective_ir()).map_err(to_net)?;

    let want = gmm_ref.call(&args).map_err(to_net)?;
    assert_eq!(first[0].as_f64().to_bits(), want[0].as_f64().to_bits());

    let got = client.grad("gmm", args.clone())?;
    let want_grad = gmm_ref.grad(&args).map_err(to_net)?;
    assert_eq!(
        got.value[0].as_f64().to_bits(),
        want_grad.value[0].as_f64().to_bits()
    );
    for (g, w) in got.grads.iter().zip(&want_grad.grads) {
        for (a, b) in g.as_arr().f64s().iter().zip(w.as_arr().f64s()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    println!("gradient over the wire matches in-process bitwise");

    let mut seeded = args.clone();
    seeded.push(Value::F64(1.0));
    let vjp_out = client.call_t("gmm", &[Transform::Vjp], seeded)?;
    assert_eq!(
        vjp_out[0].as_f64().to_bits(),
        want_grad.scalar().to_bits(),
        "[vjp] primal must equal the in-process objective"
    );
    println!("[vjp]-transformed request served with explicit seed");

    // A vmapped request: stack B=3 argument sets and compare against
    // three separate in-process calls.
    let km_args: Vec<Vec<Value>> = (0..3)
        .map(|i| kmeans::KmeansData::generate(12, 2, 3, i).ir_args())
        .collect();
    let stacked = fir_api::batch::stack_args(&km_args).expect("homogeneous batch stacks");
    let vmapped = client.call_t("kmeans-dense", &[Transform::Vmap], stacked)?;
    let km_ref = reference
        .compile(&kmeans::dense_objective_ir())
        .map_err(to_net)?;
    let batch_out = vmapped[0].as_arr();
    for (i, one) in km_args.iter().enumerate() {
        let want = km_ref.call(one).map_err(to_net)?;
        assert_eq!(batch_out.f64s()[i].to_bits(), want[0].as_f64().to_bits());
    }
    println!("vmapped batch of 3 served over the wire, bitwise-identical");

    // Tenant quotas: "free" has a burst of 2 and effectively no refill;
    // the third request must shed with a typed error naming the tenant.
    // (The external server binary configures the same "free" tenant.)
    let mut free = NetClient::connect(&addr)?.with_tenant("free");
    let tiny = gmm::GmmData::generate(2, 1, 1, 0).ir_args();
    free.call("gmm", tiny.clone())?;
    free.call("gmm", tiny.clone())?;
    match free.call("gmm", tiny.clone()) {
        Err(NetError::Remote(e)) => {
            assert_eq!(e.code, "overloaded");
            assert_eq!(e.tenant.as_deref(), Some("free"));
            println!("over-quota tenant shed: {}", e.message);
        }
        other => panic!("expected the free tenant to be shed, got {other:?}"),
    }

    // The metrics op returns the merged snapshot; its "net" section
    // carries connection, frame, and per-tenant counters.
    let metrics = client.metrics_json()?;
    let parsed = fir_trace::json::parse(&metrics).expect("metrics JSON parses");
    let net = parsed.get("net").expect("net section");
    let accepted = net
        .get("connections_accepted")
        .and_then(|v| v.as_num())
        .expect("counter");
    assert!(accepted >= 2.0);
    let tenants = net
        .get("tenants")
        .and_then(|t| t.as_arr())
        .expect("tenants");
    assert!(tenants
        .iter()
        .any(|t| t.get("tenant").and_then(|n| n.as_str()) == Some("free")));
    println!(
        "metrics op: {accepted:.0} connections, {} tenants tracked",
        tenants.len()
    );

    // Shut the server down over the wire.
    client.shutdown_server()?;
    println!("server acknowledged shutdown");
    if let Some(server) = local.take() {
        let m = server.shutdown_within(Duration::from_secs(5));
        println!(
            "drained: {} requests completed, {} frames sent",
            m.completed(),
            m.net.as_ref().map_or(0, |n| n.frames_sent)
        );
    }
    Ok(())
}

fn to_net(e: futhark_ad_repro::FirError) -> NetError {
    NetError::Config {
        what: e.to_string(),
    }
}
