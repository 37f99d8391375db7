//! Concurrency stress tests of the `fir-serve` runtime: many client
//! threads hammering two registered functions, per-request error
//! isolation inside micro-batches, bounded-queue load-shedding, a
//! graceful shutdown that drains without deadlock, and counters that
//! balance.

use futhark_ad_repro::{BatchPolicy, Engine, Request, ServeError, ServerBuilder, Transform};
use interp::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use workloads::{gmm, kmeans};

const GMM: &str = "gmm";
const KMEANS: &str = "kmeans-dense";

fn gmm_args(seed: u64) -> Vec<Value> {
    gmm::GmmData::generate(30, 3, 3, seed).ir_args()
}

fn kmeans_args(seed: u64) -> Vec<Value> {
    kmeans::KmeansData::generate(30, 3, 3, seed).ir_args()
}

fn two_fn_server(policy: BatchPolicy, capacity: usize) -> futhark_ad_repro::Server {
    ServerBuilder::new(Engine::by_name("vm-seq").unwrap())
        .batch_policy(policy)
        .queue_capacity(capacity)
        .register(GMM, &gmm::objective_ir())
        .register(KMEANS, &kmeans::dense_objective_ir())
        .build()
        .unwrap()
}

#[test]
fn n_clients_two_fns_every_ticket_resolves_with_parity() {
    const CLIENTS: usize = 8;
    const REQS: usize = 12;

    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::from_micros(300),
        },
        1024,
    );
    // An independent engine computes the expected values.
    let reference = Engine::by_name("vm-seq").unwrap();
    let gmm_ref = reference.compile(&gmm::objective_ir()).unwrap();
    let km_ref = reference.compile(&kmeans::dense_objective_ir()).unwrap();

    let resolved = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (server, gmm_ref, km_ref, resolved) = (&server, &gmm_ref, &km_ref, &resolved);
            scope.spawn(move || {
                for i in 0..REQS {
                    let seed = (client * 1000 + i) as u64;
                    if (client + i) % 2 == 0 {
                        // Gradient request against one function...
                        let args = gmm_args(seed);
                        let got = server.grad(GMM, args.clone()).expect("gmm grad ticket");
                        let want = gmm_ref.grad(&args).expect("gmm reference");
                        assert_eq!(got.scalar().to_bits(), want.scalar().to_bits());
                        assert_eq!(got.flat_grads(), want.flat_grads());
                    } else {
                        // ...interleaved with primal calls against the other.
                        let args = kmeans_args(seed);
                        let got = server.call(KMEANS, args.clone()).expect("kmeans ticket");
                        let want = km_ref.call(&args).expect("kmeans reference");
                        assert_eq!(got[0].as_f64().to_bits(), want[0].as_f64().to_bits());
                    }
                    resolved.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(resolved.load(Ordering::Relaxed), (CLIENTS * REQS) as u64);

    // Shutdown drains cleanly; the books balance.
    let m = server.shutdown();
    let total: u64 = m.fns.iter().map(|f| f.completed + f.failed).sum();
    assert_eq!(total, (CLIENTS * REQS) as u64);
    for f in &m.fns {
        assert_eq!(f.queue_depth, 0, "{}: queue must be drained", f.fn_key);
        assert_eq!(f.failed, 0, "{}: no request may fail", f.fn_key);
        assert_eq!(f.shed, 0, "{}: nothing shed at capacity 1024", f.fn_key);
    }
    // Coalescing actually happened under concurrent load.
    let batches: u64 = m.fns.iter().map(|f| f.batches).sum();
    assert!(
        batches < (CLIENTS * REQS) as u64,
        "micro-batcher never coalesced: {batches} batches for {} requests",
        CLIENTS * REQS
    );
}

#[test]
fn concurrent_transformed_and_plain_requests_batch_by_stack_with_parity() {
    // Four client threads interleave plain calls, auto-seeded gradient
    // requests, and explicit [Vjp]-stack requests against one function.
    // The micro-batcher may only coalesce requests that share the
    // (key, stack) pair; every ticket must resolve with the result of
    // its own stack, bitwise-equal to an independent reference engine.
    const CLIENTS: usize = 4;
    const REQS: usize = 6;
    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 8,
            max_wait: Duration::from_micros(300),
        },
        1024,
    );
    let reference = Engine::by_name("vm-seq").unwrap();
    let gmm_ref = reference.compile(&gmm::objective_ir()).unwrap();
    let gmm_vjp = gmm_ref.vjp().unwrap();

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (server, gmm_ref, gmm_vjp) = (&server, &gmm_ref, &gmm_vjp);
            scope.spawn(move || {
                for i in 0..REQS {
                    let seed = (client * 100 + i) as u64;
                    let args = gmm_args(seed);
                    match i % 3 {
                        0 => {
                            let got = server.call(GMM, args.clone()).expect("plain call");
                            let want = gmm_ref.call(&args).expect("reference call");
                            assert_eq!(got[0].as_f64().to_bits(), want[0].as_f64().to_bits());
                        }
                        1 => {
                            let got = server.grad(GMM, args.clone()).expect("grad");
                            let want = gmm_ref.grad(&args).expect("reference grad");
                            assert_eq!(got.scalar().to_bits(), want.scalar().to_bits());
                            assert_eq!(got.flat_grads(), want.flat_grads());
                        }
                        _ => {
                            let mut seeded = args.clone();
                            seeded.push(Value::F64(1.0));
                            let got = server
                                .submit(
                                    Request::new(GMM, seeded.clone())
                                        .with_transforms([Transform::Vjp]),
                                )
                                .expect("admitted")
                                .wait()
                                .expect("vjp request");
                            let want = gmm_vjp.call(&seeded).expect("reference vjp");
                            assert_eq!(got.len(), want.len());
                            assert_eq!(got[0].as_f64().to_bits(), want[0].as_f64().to_bits());
                            for (w, g) in want[1..].iter().zip(&got[1..]) {
                                assert_eq!(w.as_arr().f64s(), g.as_arr().f64s());
                            }
                        }
                    }
                }
            });
        }
    });
    let m = server.shutdown();
    let f = &m.fns[0];
    assert_eq!(f.completed, (CLIENTS * REQS) as u64);
    assert_eq!(f.failed, 0);
}

#[test]
fn bad_requests_are_isolated_from_their_batchmates() {
    // A wide policy with a long wait forces good and bad requests into
    // the same micro-batch.
    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 16,
            max_wait: Duration::from_millis(100),
        },
        1024,
    );
    let good1 = server.submit_grad(Request::new(GMM, gmm_args(1))).unwrap();
    let bad_arity = server.submit_grad(Request::new(GMM, vec![])).unwrap();
    let bad_type = server
        .submit_grad(Request::new(GMM, vec![Value::F64(0.0); 4]))
        .unwrap();
    let good2 = server.submit_grad(Request::new(GMM, gmm_args(2))).unwrap();

    assert!(
        good1.wait().is_ok(),
        "batchmate of a bad request must succeed"
    );
    assert!(matches!(bad_arity.wait(), Err(ServeError::Exec(_))));
    assert!(matches!(bad_type.wait(), Err(ServeError::Exec(_))));
    assert!(
        good2.wait().is_ok(),
        "batchmate of a bad request must succeed"
    );

    let m = server.shutdown();
    let f = &m.fns[0];
    assert_eq!((f.completed, f.failed), (2, 2));
}

#[test]
fn bounded_queues_shed_overload_and_recover() {
    // Tiny queue, sleepy dispatcher: a burst must overflow.
    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 64,
            max_wait: Duration::from_millis(200),
        },
        3,
    );
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..24 {
        match server.submit(Request::new(KMEANS, kmeans_args(i))) {
            Ok(t) => admitted.push(t),
            Err(ServeError::Overloaded { fn_key, capacity }) => {
                assert_eq!((fn_key.as_str(), capacity), (KMEANS, 3));
                shed += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(shed > 0, "a 24-burst into a capacity-3 queue must shed");
    // Every admitted ticket still resolves successfully.
    for t in admitted {
        assert!(t.wait().is_ok());
    }
    let m = server.shutdown();
    assert_eq!(m.fns[1].shed, shed);
    assert_eq!(m.fns[1].completed + shed, 24);
}

#[test]
fn shutdown_under_load_drains_every_ticket() {
    // Submit a pile of work, then shut down immediately: every admitted
    // ticket must still resolve (drain, not drop) and nothing deadlocks.
    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 4,
            max_wait: Duration::from_millis(50),
        },
        1024,
    );
    let tickets: Vec<_> = (0..32)
        .map(|i| server.submit_grad(Request::new(GMM, gmm_args(i))).unwrap())
        .collect();
    let m = server.shutdown();
    assert_eq!(m.fns[0].completed, 32);
    for t in tickets {
        assert!(t.is_ready(), "shutdown returned before a ticket resolved");
        assert!(t.wait().is_ok());
    }
    // Post-shutdown submissions are refused but do not wedge anything.
    assert_eq!(
        server.submit(Request::new(GMM, gmm_args(0))).err(),
        Some(ServeError::ShuttingDown)
    );
}

#[test]
fn expired_deadlines_resolve_without_executing() {
    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 64,
            max_wait: Duration::from_millis(40),
        },
        1024,
    );
    // The zero-deadline request expires while queued behind max_wait;
    // the live one executes from the same cut.
    let doomed = server
        .submit(Request::new(KMEANS, kmeans_args(0)).with_deadline(Duration::ZERO))
        .unwrap();
    let live = server.submit(Request::new(KMEANS, kmeans_args(1))).unwrap();
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    assert!(live.wait().is_ok());
    let m = server.shutdown();
    assert_eq!(m.fns[1].expired, 1);
    assert_eq!(m.fns[1].completed, 1);
}

#[test]
fn bounded_shutdown_sheds_what_cannot_drain() {
    // A huge batch size and a long max_wait park every submission in the
    // queue (the dispatcher sleeps on the max_wait timer), so a
    // zero-budget shutdown finds them all still queued — it must shed
    // them promptly as ShuttingDown instead of hanging to execute them.
    let server = two_fn_server(
        BatchPolicy {
            max_batch_size: 64,
            max_wait: Duration::from_secs(30),
        },
        1024,
    );
    const N: usize = 8;
    let tickets: Vec<_> = (0..N)
        .map(|i| {
            server
                .submit(Request::new(GMM, gmm_args(i as u64)))
                .unwrap()
        })
        .collect();
    let started = std::time::Instant::now();
    let m = server.shutdown_within(Duration::ZERO);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bounded shutdown took {:?} — it must not wait out max_wait",
        started.elapsed()
    );
    for t in tickets {
        assert!(matches!(t.wait(), Err(ServeError::ShuttingDown)));
    }
    assert_eq!(m.fns[0].shed, N as u64, "every queued request is shed");
    assert_eq!(m.fns[0].completed, 0);
    assert_eq!(m.fns[0].queue_depth, 0);
    // Idempotent with the graceful path: nothing left to drain.
    assert_eq!(
        server.submit(Request::new(GMM, gmm_args(0))).err(),
        Some(ServeError::ShuttingDown)
    );
}

#[test]
fn every_arrival_is_accounted_for_exactly_once() {
    // One run that ends a request every way the server can: completed,
    // failed, expired, shed at admission, shed by a bounded shutdown.
    // GMM cuts at three queued requests; k-means (capacity 3, batch 64,
    // 30s wait) parks whatever it admits until shutdown.
    let park = BatchPolicy {
        max_batch_size: 64,
        max_wait: Duration::from_secs(30),
    };
    let server = ServerBuilder::new(Engine::by_name("vm-seq").unwrap())
        .queue_capacity(3)
        .register_with(
            GMM,
            &gmm::objective_ir(),
            BatchPolicy {
                max_batch_size: 3,
                ..park
            },
        )
        .register_with(KMEANS, &kmeans::dense_objective_ir(), park)
        .build()
        .unwrap();

    let good = server.submit(Request::new(GMM, gmm_args(1))).unwrap();
    let bad = server.submit(Request::new(GMM, vec![])).unwrap();
    let late = server
        .submit(Request::new(GMM, gmm_args(2)).with_deadline(Duration::ZERO))
        .unwrap();
    assert!(good.wait().is_ok());
    assert!(matches!(bad.wait(), Err(ServeError::Exec(_))));
    assert!(matches!(
        late.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));

    let parked: Vec<_> = (0..3)
        .map(|i| server.submit(Request::new(KMEANS, kmeans_args(i))).unwrap())
        .collect();
    assert!(matches!(
        server.submit(Request::new(KMEANS, kmeans_args(3))),
        Err(ServeError::Overloaded { .. })
    ));
    let m = server.shutdown_within(Duration::ZERO);
    for t in parked {
        assert!(matches!(t.wait(), Err(ServeError::ShuttingDown)));
    }

    let (g, k) = (&m.fns[0], &m.fns[1]);
    assert_eq!((g.completed, g.failed, g.expired, g.shed), (1, 1, 1, 0));
    assert_eq!((k.completed, k.failed, k.expired, k.shed), (0, 0, 0, 4));
    for f in &m.fns {
        assert_eq!(
            f.submitted,
            f.completed + f.failed + f.expired + f.shed,
            "{}: every arrival ends in exactly one outcome",
            f.fn_key
        );
        assert_eq!(f.queue_depth, 0, "{}: nothing left queued", f.fn_key);
    }
}
