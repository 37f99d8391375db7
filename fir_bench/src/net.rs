//! The served path: a server child on loopback under the default
//! configuration, the seeded request pool with a reference per request,
//! and the closed- and open-loop load generators.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fir_api::GradOutput;
use fir_net::wire::{
    decode_response, encode_request, write_frame, CallRequest, FrameReader, Poll, WireRequest,
    WireResponse,
};
use fir_net::{NetServerBuilder, Transform};

use crate::cases::{self, call_ok, grad_ok, Case, Expect, Workload, INSTANCES};
use crate::inproc::{child_args, default_engine, Tally};
use crate::proc::{self, Proc, CHILD_TIMEOUT};
use crate::sched::Pacer;
use crate::stats::Rng;

/// No response is waited for longer than this.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(5);
/// Load is offered from this many connections, one per core of the
/// reference box.
pub const CONNECTIONS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const WINDOW: usize = 8;
/// One request in this many is a `grad`, the rest are `call`s.
const GRAD_ONE_IN: usize = 10;

// ---------------------------------------------------------------------
// Server child
// ---------------------------------------------------------------------

/// `child serve`: the workload's programs behind a default `NetServer`
/// (only `register`, `warmup` and `bind` are called), until a client asks
/// for shutdown; then the server's own counters, one per line.
pub fn child_serve(cases: &[Case]) -> Result<(), String> {
    let engine = default_engine().map_err(|e| e.to_string())?;
    let mut builder = NetServerBuilder::new(engine);
    for c in cases {
        builder = builder.register(c.key, &c.fun);
    }
    let server = builder
        .warmup(&[&[], &[Transform::Vjp]])
        .bind("127.0.0.1:0")
        .map_err(|e| e.to_string())?;
    println!("LISTENING {}", server.local_addr());
    server.run_until_shutdown_requested();
    let m = server.shutdown_within(RECV_TIMEOUT);
    let sum = |f: fn(&fir_serve::FnMetricsSnapshot) -> u64| m.fns.iter().map(f).sum::<u64>();
    let batches = sum(|f| f.batches);
    let batched: u64 = m.fns.iter().map(|f| f.batch_sizes.sum).sum();
    let latency = m
        .fns
        .iter()
        .map(|f| f.latency_us.clone())
        .reduce(|a, b| a.merge(&b));
    println!("completed {}", m.completed());
    println!("failed {}", sum(|f| f.failed));
    println!("shed {}", sum(|f| f.shed));
    println!("expired {}", sum(|f| f.expired));
    println!("batches {batches}");
    println!("mean_batch {:.6}", batched as f64 / batches.max(1) as f64);
    println!(
        "queue_exec_us_p50 {}",
        latency.map_or(0, |l| l.quantile(0.5))
    );
    println!("heap_allocs {}", m.alloc.heap_allocs);
    println!("arena_hits {}", m.alloc.arena_hits);
    Ok(())
}

/// A running server child. Dropping it kills the process.
pub struct ServerChild {
    proc: Proc,
    pub addr: String,
    /// Spawn to `LISTENING`, in seconds: process start, engine, compile,
    /// warm-up, bind.
    pub setup_s: f64,
}

impl ServerChild {
    pub fn spawn(workload: &str, seed: u64) -> Result<ServerChild, String> {
        let mut proc = Proc::spawn(&child_args("serve", workload, seed))?;
        let line = proc.next_line(CHILD_TIMEOUT)?;
        let setup_s = proc.spawned.elapsed().as_secs_f64();
        let addr = line
            .strip_prefix("LISTENING ")
            .ok_or_else(|| format!("server child said {line:?}, not LISTENING"))?
            .to_string();
        Ok(ServerChild {
            proc,
            addr,
            setup_s,
        })
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        proc::peak_rss_mb(self.proc.id())
    }

    /// Ask for shutdown over the wire and collect the counters the child
    /// prints on its way out.
    pub fn shutdown(self) -> Result<std::collections::BTreeMap<String, f64>, String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.send(&encode_request(1, &WireRequest::Shutdown).map_err(|e| e.to_string())?)?;
        match conn.recv()? {
            (_, WireResponse::Bye) => {}
            (_, other) => return Err(format!("shutdown answered with {other:?}")),
        }
        self.proc.finish(CHILD_TIMEOUT)
    }
}

// ---------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------

/// One client connection; a read that stays silent for [`RECV_TIMEOUT`]
/// is an error, never a hang.
pub struct Conn {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: FrameReader::new(stream),
        })
    }

    pub fn send(&mut self, payload: &str) -> Result<(), String> {
        write_frame(&mut self.writer, payload).map_err(|e| e.to_string())
    }

    /// The next response frame, undecoded.
    pub fn recv_raw(&mut self) -> Result<String, String> {
        match self.reader.poll().map_err(|e| e.to_string())? {
            Poll::Frame(payload) => Ok(payload),
            Poll::Idle => Err(format!("no response within {RECV_TIMEOUT:?}")),
            Poll::Eof => Err("server closed the connection".to_string()),
        }
    }

    pub fn recv(&mut self) -> Result<(u64, WireResponse), String> {
        let (id, _trace, resp) = decode_response(&self.recv_raw()?).map_err(|e| e.to_string())?;
        Ok((id, resp))
    }

    /// The sending half for a pacing thread, the receiving half stays.
    fn split(self) -> (TcpStream, Conn) {
        let writer = self
            .writer
            .try_clone()
            .expect("clone of a connected socket");
        (writer, self)
    }
}

// ---------------------------------------------------------------------
// Request pool
// ---------------------------------------------------------------------

/// One distinct request: pre-encoded with its pool index as request id,
/// so the id on a response names the reference to check it against.
pub struct PoolEntry {
    pub request: WireRequest,
    pub payload: String,
    pub expect: Option<Expect>,
}

/// Every program of `workload` on [`INSTANCES`] seeded inputs, as a call
/// and as a grad.
pub fn pool(workload: &Workload, seed: u64) -> Result<Vec<PoolEntry>, String> {
    let mut pool = Vec::new();
    for i in 0..INSTANCES {
        for case in cases::instance(workload, seed, i) {
            for grad in [false, true] {
                let call = CallRequest {
                    fn_key: case.key.to_string(),
                    transforms: Vec::new(),
                    args: case.args.clone(),
                    deadline_ms: None,
                    tenant: String::new(),
                };
                let request = if grad {
                    WireRequest::Grad(call)
                } else {
                    WireRequest::Call(call)
                };
                let payload =
                    encode_request(pool.len() as u64, &request).map_err(|e| e.to_string())?;
                pool.push(PoolEntry {
                    request,
                    payload,
                    expect: case.expect.clone(),
                });
            }
        }
    }
    Ok(pool)
}

/// The seeded request order: a uniformly chosen program and input, a grad
/// one time in [`GRAD_ONE_IN`].
pub struct Mix {
    rng: Rng,
    pairs: usize,
}

impl Mix {
    pub fn new(pool: &[PoolEntry], seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            pairs: pool.len() / 2,
        }
    }

    /// Index into the pool of the next request.
    pub fn next(&mut self) -> usize {
        let pair = self.rng.below(self.pairs);
        let grad = self.rng.below(GRAD_ONE_IN) == 0;
        2 * pair + usize::from(grad)
    }
}

/// Whether `resp` is the right answer to pool entry `idx`.
pub fn response_ok(pool: &[PoolEntry], idx: usize, id: u64, resp: WireResponse) -> bool {
    let Some(entry) = pool.get(idx).filter(|_| id == idx as u64) else {
        return false;
    };
    match (&entry.request, resp) {
        (WireRequest::Call(_), WireResponse::Values(vs)) => call_ok(entry.expect.as_ref(), &vs),
        (WireRequest::Grad(_), WireResponse::Grad { value, grads }) => {
            grad_ok(entry.expect.as_ref(), &GradOutput { value, grads })
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------

/// Run `f(c)` for each connection `c` of [`CONNECTIONS`], each on a
/// thread of its own; the first error, or a panic, fails them all.
fn per_connection<T: Send>(
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let f = &f;
                s.spawn(move || f(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".to_string()))
            })
            .collect()
    })
}

/// Closed loop: each of [`CONNECTIONS`] keeps `window` requests in flight
/// and sends the next only when a response arrives, for `dur`. Returns
/// the responses that arrived inside `dur`, per second.
pub fn closed_loop(
    addr: &str,
    pool: &[PoolEntry],
    seed: u64,
    window: usize,
    dur: Duration,
    tally: &mut Tally,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let per_conn = per_connection(|c| {
        let mut conn = Conn::connect(addr)?;
        let mut mix = Mix::new(pool, seed.wrapping_add(c as u64));
        let mut in_flight = VecDeque::new();
        let (mut in_time, mut tally) = (0u64, Tally::default());
        for _ in 0..window {
            let idx = mix.next();
            conn.send(&pool[idx].payload)?;
            in_flight.push_back(idx);
        }
        while let Some(idx) = in_flight.pop_front() {
            let (id, resp) = conn.recv()?;
            tally.record(response_ok(pool, idx, id, resp));
            if t0.elapsed() < dur {
                in_time += 1;
                let idx = mix.next();
                conn.send(&pool[idx].payload)?;
                in_flight.push_back(idx);
            }
        }
        Ok((in_time, tally))
    })?;
    let mut in_time = 0;
    for (n, t) in per_conn {
        in_time += n;
        tally.absorb(t);
    }
    Ok(in_time as f64 / dur.as_secs_f64())
}

/// What the open loop measured.
pub struct Open {
    /// Per checked response, milliseconds from when its request was due.
    pub latency_ms: Vec<f64>,
    /// The generator's own send accounting.
    pub pacer: Pacer,
}

/// Open loop: [`CONNECTIONS`] together offer `rate` requests per second
/// on a fixed schedule for `dur`, whatever the server does; a pacing
/// thread per connection sends, the connection's own thread receives.
pub fn open_loop(
    addr: &str,
    pool: &[PoolEntry],
    seed: u64,
    rate: f64,
    dur: Duration,
    tally: &mut Tally,
) -> Result<Open, String> {
    let per_conn = rate / CONNECTIONS as f64;
    let interval_ns = 1e9 / per_conn;
    let t0 = Instant::now();
    let now_ns = move || t0.elapsed().as_nanos() as u64;
    let results = per_connection(|c| {
        // Connections are staggered evenly within one interval.
        let first_due = (interval_ns * c as f64 / CONNECTIONS as f64) as u64;
        let schedule = Pacer::new(per_conn, first_due);
        let (mut writer, mut conn) = Conn::connect(addr)?.split();
        let (tx, rx) = mpsc::channel::<(u64, usize)>();
        let mut mix = Mix::new(pool, seed.wrapping_add(c as u64));
        let mut pacer = schedule.clone();
        std::thread::scope(|s| {
            let sender = s.spawn(move || -> Result<Pacer, String> {
                for i in 0.. {
                    let due = pacer.due_ns(i);
                    if due >= dur.as_nanos() as u64 {
                        break;
                    }
                    std::thread::sleep(Duration::from_nanos(due.saturating_sub(now_ns())));
                    let idx = mix.next();
                    pacer.record_send(i, now_ns());
                    write_frame(&mut writer, &pool[idx].payload).map_err(|e| e.to_string())?;
                    if tx.send((i, idx)).is_err() {
                        break; // the receiver gave up on an error
                    }
                }
                Ok(pacer)
            });
            let (mut latency_ms, mut tally) = (Vec::new(), Tally::default());
            let mut received = Ok(());
            for (i, idx) in rx {
                match conn.recv() {
                    Ok((id, resp)) => {
                        latency_ms.push(schedule.latency_ns(i, now_ns()) as f64 / 1e6);
                        tally.record(response_ok(pool, idx, id, resp));
                    }
                    Err(e) => {
                        received = Err(e);
                        break; // dropping `rx` stops the sender
                    }
                }
            }
            let pacer = sender
                .join()
                .unwrap_or_else(|_| Err("pacing thread panicked".to_string()))?;
            received?;
            Ok((latency_ms, tally, pacer))
        })
    })?;
    let mut load = Open {
        latency_ms: Vec::new(),
        pacer: Pacer::new(rate, 0),
    };
    for (l, t, p) in results {
        load.latency_ms.extend(l);
        tally.absorb(t);
        load.pacer.absorb(&p);
    }
    Ok(load)
}

/// Round trips of a `ping` — socket, framing and handler, no engine — in
/// microseconds.
pub fn ping_rtts(addr: &str, n: usize) -> Result<Vec<f64>, String> {
    let mut conn = Conn::connect(addr)?;
    let payload = encode_request(0, &WireRequest::Ping).map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let t = Instant::now();
            conn.send(&payload)?;
            match conn.recv()? {
                (_, WireResponse::Pong) => Ok(t.elapsed().as_secs_f64() * 1e6),
                (_, other) => Err(format!("ping answered with {other:?}")),
            }
        })
        .collect()
}
