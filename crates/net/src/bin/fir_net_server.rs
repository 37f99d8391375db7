//! The fir-net server binary: all nine paper workloads behind the TCP
//! wire protocol.
//!
//! Configuration is environment-driven (so CI and the closed-loop bench
//! can shape it without flags):
//!
//! * `FIR_NET_ADDR`     — listen address (default `127.0.0.1:7177`;
//!   use port `0` to let the OS pick — the bound address is printed).
//! * `FIR_NET_ENGINE`   — engine backend name (default `vm-seq`).
//! * `FIR_CACHE_DIR`    — directory for the persistent compile cache
//!   (default off). With it set, the warmup before the listener opens
//!   loads precompiled programs from disk instead of recompiling, and
//!   every fresh compile is written back for the next process.
//!
//! Two tenants are pre-configured: `free` (2 requests/s, burst 2,
//! weight 1 — easy to drive over quota in demos) and `pro` (1000/s,
//! weight 8). Unknown tenants get a moderate default quota.
//!
//! The process prints `LISTENING <addr>` once reachable, serves until a
//! client sends the `shutdown` op, then drains within 5 seconds.

use std::time::{Duration, Instant};

use fir_api::Engine;
use fir_net::{NetServerBuilder, TenantConfig, TenantPolicy, Transform};
use fir_serve::BatchPolicy;
use workloads::{adbench, gmm, kmeans, lstm, mc};

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

fn main() {
    let addr = env_or("FIR_NET_ADDR", "127.0.0.1:7177");
    let engine_name = env_or("FIR_NET_ENGINE", "vm-seq");

    let cache_dir = std::env::var("FIR_CACHE_DIR")
        .ok()
        .filter(|d| !d.is_empty());

    let mut engine_builder = Engine::builder().backend_name(&engine_name);
    if let Some(dir) = &cache_dir {
        engine_builder = engine_builder.persistent_cache(dir);
    }
    let engine = match engine_builder.build() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("could not build engine {engine_name:?}: {e}");
            std::process::exit(2);
        }
    };

    let lstm_data = lstm::LstmData::generate(4, 3, 4, 2, 0);
    let dlstm_data = adbench::DlstmData::generate(8, 4, 4, 0);
    let t0 = Instant::now();
    let builder = NetServerBuilder::new(engine)
        .batch_policy(BatchPolicy {
            max_batch_size: 16,
            max_wait: Duration::from_millis(1),
        })
        .queue_capacity(1024)
        .register("gmm", &gmm::objective_ir())
        .register("kmeans-dense", &kmeans::dense_objective_ir())
        .register("kmeans-sparse", &kmeans::sparse_objective_ir())
        .register("lstm", &lstm::objective_ir(lstm_data.h, lstm_data.bs))
        .register("ba", &adbench::ba_objective_ir())
        .register("hand-simple", &adbench::hand_objective_ir(false))
        .register("hand-complicated", &adbench::hand_objective_ir(true))
        .register("d-lstm", &adbench::dlstm_objective_ir(dlstm_data.h))
        .register(
            "xsbench",
            &mc::xsbench_ir(mc::XsData::generate(8, 4, 64, 0).g),
        )
        // Warm the plain and reverse-mode lanes before the listener
        // opens: the first request of each lane hits the compiled-
        // program cache instead of paying derivation + compilation.
        .warmup(&[&[], &[Transform::Vjp]])
        .tenant_policy(
            TenantPolicy {
                default: Some(TenantConfig {
                    rate_per_sec: 100.0,
                    burst: 200.0,
                    weight: 1,
                }),
                tenants: vec![],
                max_in_flight: 4096,
            }
            .tenant(
                "free",
                TenantConfig {
                    rate_per_sec: 2.0,
                    burst: 2.0,
                    weight: 1,
                },
            )
            .tenant(
                "pro",
                TenantConfig {
                    rate_per_sec: 1000.0,
                    burst: 2000.0,
                    weight: 8,
                },
            ),
        );
    let server = match builder.bind(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not start server on {addr}: {e}");
            std::process::exit(2);
        }
    };
    println!("LISTENING {}", server.local_addr());
    eprintln!("fir-net: warmed in {:?}", t0.elapsed());
    if cache_dir.is_some() {
        if let Some(p) = server.metrics().cache.and_then(|c| c.persistent) {
            eprintln!(
                "fir-net: persistent cache: {} hits, {} misses, {} stores",
                p.hits, p.misses, p.stores
            );
        }
    }

    server.run_until_shutdown_requested();
    eprintln!("fir-net: shutdown requested, draining (5s bound)");
    let metrics = server.shutdown_within(Duration::from_secs(5));
    eprintln!(
        "fir-net: served {} requests over {} connections, done",
        metrics.completed(),
        metrics.net.as_ref().map_or(0, |n| n.connections_accepted)
    );
}
