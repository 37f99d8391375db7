//! Table 7b: closed-loop load on the **network** serving tier
//! (`fir-net`) — a real server process, real TCP sockets, real frames.
//!
//! This extends table7_serving across the process boundary: the bench
//! re-execs itself as a server child (`NET_ROLE=server`), reads the
//! `LISTENING <addr>` line, and drives a windowed closed loop over
//! loopback from several client connections. Measured per
//! configuration: the **max sustainable QPS under an SLO** — the
//! highest client-observed throughput over a window-size sweep whose
//! client-side p99 stays under the deadline with zero errors.
//!
//! Two batching configurations price micro-batching over a socket:
//!
//! * **unbatched** — `max_batch_size = 1`, the per-request overhead
//!   baseline;
//! * **static**    — a fixed, competently-tuned policy (batch 32, wait
//!   200µs): the best single setting for this workload on loopback.
//!
//! A cold-start pair then times spawn-to-`LISTENING` of the full
//! nine-workload deployment from an empty vs a populated persistent
//! compile cache.
//!
//! `NET_BENCH_SMOKE=1` shrinks the sweep for CI.

use ad_bench::{header, ratio, row, Report};
use fir_api::{Engine, Transform};
use fir_net::{NetClient, NetServerBuilder};
use fir_serve::BatchPolicy;
use interp::Value;
use std::io::BufRead;
use std::time::{Duration, Instant};
use workloads::{adbench, gmm, kmeans, lstm, mc};

const CLIENTS: usize = 4;

// ---------------------------------------------------------------------
// Server child
// ---------------------------------------------------------------------

/// `NET_ROLE=server`: bind port 0, print the address, serve until a
/// client sends the shutdown op.
fn server_main() {
    let mode = std::env::var("NET_MODE").unwrap_or_else(|_| "static".to_string());
    let policy = match mode.as_str() {
        "unbatched" => BatchPolicy::unbatched(),
        _ => BatchPolicy {
            max_batch_size: 32,
            max_wait: Duration::from_micros(200),
        },
    };
    let mut engine_builder = Engine::builder().backend_name("vm-seq");
    if let Ok(dir) = std::env::var("NET_CACHE_DIR") {
        engine_builder = engine_builder.persistent_cache(dir);
    }
    let engine = engine_builder.build().expect("backend");
    let mut builder = NetServerBuilder::new(engine)
        .handlers(CLIENTS + 2)
        .batch_policy(policy)
        .queue_capacity(8192);
    if mode == "coldstart" {
        // The full nine-workload deployment the fir_net_server binary
        // serves, both lanes warmed — the realistic AOT-warmup payload.
        let lstm_data = lstm::LstmData::generate(4, 3, 4, 2, 0);
        let dlstm_data = adbench::DlstmData::generate(8, 4, 4, 0);
        builder = builder
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
            .warmup(&[&[], &[Transform::Vjp]]);
    } else {
        builder = builder.register("gmm", &gmm::objective_ir()).warmup(&[&[]]);
    }
    let server = builder.bind("127.0.0.1:0").expect("bind");
    println!("LISTENING {}", server.local_addr());
    server.run_until_shutdown_requested();
    server.shutdown_within(Duration::from_secs(10));
}

/// Spawn the server child and return (child, addr).
fn spawn_server(mode: &str, cache_dir: Option<&std::path::Path>) -> (std::process::Child, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.env("NET_ROLE", "server")
        .env("NET_MODE", mode)
        .stdout(std::process::Stdio::piped());
    if let Some(dir) = cache_dir {
        cmd.env("NET_CACHE_DIR", dir);
    }
    let mut child = cmd.spawn().expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before LISTENING")
            .expect("read child stdout");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };
    (child, addr)
}

// ---------------------------------------------------------------------
// Client load
// ---------------------------------------------------------------------

struct LoadResult {
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    errors: u64,
}

/// Windowed closed loop over TCP: each client connection keeps `window`
/// requests pipelined for `rounds` rounds, recording client-observed
/// per-request latency (send → matching in-order response).
fn closed_loop(addr: &str, window: usize, rounds: usize, args: &[Vec<Value>]) -> LoadResult {
    let t0 = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::new();
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut c = NetClient::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(window * rounds);
                    let mut errs = 0u64;
                    for round in 0..rounds {
                        let mut sent = Vec::with_capacity(window);
                        for i in 0..window {
                            let args = args[(client + round + i) % args.len()].clone();
                            let id = c.send_call("gmm", &[], args, None).expect("send");
                            sent.push((id, Instant::now()));
                        }
                        for (id, sent_at) in sent {
                            let (got, resp) = c.recv().expect("recv");
                            assert_eq!(got, id, "responses must arrive in order");
                            match resp {
                                fir_net::WireResponse::Values(_) => {
                                    lat.push(sent_at.elapsed().as_micros() as u64)
                                }
                                _ => errs += 1,
                            }
                        }
                    }
                    (lat, errs)
                })
            })
            .collect();
        for h in handles {
            let (lat, errs) = h.join().expect("client thread");
            all_latencies.extend(lat);
            errors += errs;
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    all_latencies.sort_unstable();
    let q = |p: f64| -> u64 {
        if all_latencies.is_empty() {
            return 0;
        }
        let i = ((all_latencies.len() - 1) as f64 * p).round() as usize;
        all_latencies[i]
    };
    LoadResult {
        throughput_rps: (CLIENTS * window * rounds) as f64 / secs,
        p50_us: q(0.50),
        p99_us: q(0.99),
        errors,
    }
}

struct Sustainable {
    qps: f64,
    best_window: usize,
    p50_us: u64,
    p99_us: u64,
    sustainable: bool,
}

/// Sweep the window size; the configuration's score is the highest
/// throughput whose p99 meets the SLO with zero errors. If no window is
/// sustainable, report the least-loaded window's numbers.
fn max_sustainable(addr: &str, windows: &[usize], rounds: usize, slo_us: u64) -> Sustainable {
    let args: Vec<Vec<Value>> = (0..CLIENTS)
        .map(|i| gmm::GmmData::generate(2, 1, 1, i as u64).ir_args())
        .collect();
    // Warm the connection path and the compiled program.
    closed_loop(addr, 1, 2, &args);
    let mut best: Option<Sustainable> = None;
    let mut fallback: Option<Sustainable> = None;
    for &window in windows {
        let r = closed_loop(addr, window, rounds, &args);
        let ok = r.errors == 0 && r.p99_us < slo_us;
        let s = Sustainable {
            qps: r.throughput_rps,
            best_window: window,
            p50_us: r.p50_us,
            p99_us: r.p99_us,
            sustainable: ok,
        };
        if fallback.is_none() {
            fallback = Some(Sustainable { ..s });
        }
        if ok && best.as_ref().is_none_or(|b| s.qps > b.qps) {
            best = Some(s);
        }
    }
    best.or(fallback).expect("at least one window measured")
}

fn measure(mode: &str, windows: &[usize], rounds: usize, slo_us: u64) -> Sustainable {
    let (mut child, addr) = spawn_server(mode, None);
    let result = max_sustainable(&addr, windows, rounds, slo_us);
    NetClient::connect(&addr)
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("shutdown op");
    let status = child.wait().expect("server child");
    assert!(status.success(), "server exited with {status:?}");
    result
}

fn report_cfg(report: &mut Report, label: &str, slo_us: u64, s: &Sustainable) {
    row(&[
        label.to_string(),
        format!("{:.0} req/s", s.qps),
        format!("w={}", s.best_window),
        format!("{}us", s.p50_us),
        format!("{}us", s.p99_us),
        if s.sustainable { "yes" } else { "NO" }.to_string(),
    ]);
    report.add(
        &format!("net:gmm:{label}"),
        &[
            ("clients", CLIENTS as f64),
            ("slo_us", slo_us as f64),
            ("sustainable_qps", s.qps),
            ("best_window", s.best_window as f64),
            ("latency_p50_us", s.p50_us as f64),
            ("latency_p99_us", s.p99_us as f64),
            ("sustainable", f64::from(u8::from(s.sustainable))),
        ],
    );
}

/// Process-level cold start: wall-clock from spawning the server child
/// to its `LISTENING` line (process start + engine build + nine
/// workloads compiled and both lanes warmed + listener bound), from an
/// empty persistent-cache directory vs the populated one the first run
/// wrote. Unlike the in-process comparison in table7_serving, this ratio
/// is diluted by constant process/bind overhead — it is the end-to-end
/// deployment number an operator would see.
fn net_coldstart(report: &mut Report) {
    let dir = std::env::temp_dir().join(format!("fir-net-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut secs = [0.0f64; 2];
    for (i, cfg) in ["cold compile", "warm cache-load"].into_iter().enumerate() {
        let t0 = Instant::now();
        let (mut child, addr) = spawn_server("coldstart", Some(&dir));
        secs[i] = t0.elapsed().as_secs_f64();
        NetClient::connect(&addr)
            .expect("connect for shutdown")
            .shutdown_server()
            .expect("shutdown op");
        let status = child.wait().expect("server child");
        assert!(status.success(), "server exited with {status:?}");
        row(&[
            format!("coldstart 9 workloads [{cfg}]"),
            format!("{:.1} ms", secs[i] * 1e3),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = secs[0] / secs[1].max(1e-9);
    row(&[
        "coldstart cold/warm".to_string(),
        ratio(speedup),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    report.add(
        "net:coldstart",
        &[
            ("cold_spawn_to_listen_s", secs[0]),
            ("warm_spawn_to_listen_s", secs[1]),
            ("speedup", speedup),
        ],
    );
}

fn main() {
    if std::env::var("NET_ROLE").as_deref() == Ok("server") {
        server_main();
        return;
    }
    let smoke = std::env::var("NET_BENCH_SMOKE").is_ok();
    let rounds = if smoke { 10 } else { 40 };
    let windows: &[usize] = if smoke {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    // SLO: p99 under 50ms — loose enough for a single-core CI container
    // (where queueing behind in-flight batches is the dominant term; the
    // 200µs static wait itself is noise against it), tight enough that a
    // mistuned policy fails it at high windows.
    let slo_us: u64 = 50_000;

    header(
        &format!("Table 7b: networked serving over loopback, {CLIENTS} connections (vm-seq)"),
        &[
            "configuration",
            "sustainable",
            "at",
            "p50",
            "p99",
            "under SLO",
        ],
    );
    let mut report = Report::new("net");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    report.add(
        "env",
        &[
            ("available_parallelism", cores as f64),
            ("clients", CLIENTS as f64),
            ("slo_us", slo_us as f64),
        ],
    );

    // Batching configurations, one server process each.
    let unbatched = measure("unbatched", windows, rounds, slo_us);
    report_cfg(&mut report, "unbatched", slo_us, &unbatched);
    let static_ = measure("static", windows, rounds, slo_us);
    report_cfg(&mut report, "static", slo_us, &static_);

    net_coldstart(&mut report);

    report.write();
}
