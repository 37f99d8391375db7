//! The traced run of one workload: every layer timed from outside, by
//! calling its public functions on the workload's own programs and
//! payloads inside the benchmark's spans, and counted through the
//! counters the program already exports. Single-threaded apart from the
//! short open-loop phase that measures the wire itself.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fir_api::{CompiledFn, Engine, GradOutput, PassPipeline};
use fir_net::wire::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
};
use fir_net::Transform;
use fir_serve::{Request, ServeError, Server, ServerBuilder, Ticket};
use firvm::{Program, ProgramCache, Vm};
use interp::Value;

use crate::cases::{cases, Case, Front, Workload};
use crate::e2e::{Outcome, Row};
use crate::inproc::{
    checked_calls, checked_grads, compile_all, default_engine, tiered_engine, Tally, JIT_THRESHOLD,
};
use crate::net::{
    open_loop, ping_rtts, pool, response_ok, Conn, Mix, PoolEntry, ServerChild, RECV_TIMEOUT,
};
use crate::proc::{out_dir, TempDir};
use crate::spans::{self_times, Recorder};
use crate::spec::{OPEN_LOOP_RATE, PASSES, PER_LAYER};
use crate::speed::{wall_ms, Meter};
use crate::stats::{median, percentile};

type Metrics = BTreeMap<String, f64>;

/// Repetitions of everything cheap enough to repeat a fixed number of
/// times (compiles, the floor of the sampling loops); medians are over
/// these.
const REPS: usize = 5;
/// The paper's comparison columns are slow; they get this many.
const BASELINE_REPS: usize = 3;
/// Requests replayed one at a time over the wire and through the layers;
/// fixed, so that the byte counts repeat exactly for a seed.
const REPLAY: usize = 1500;
/// Replayed requests per pair of speed probes.
const REPLAY_CHUNK: usize = 50;
/// In-process closed-loop window: what [`crate::net::CONNECTIONS`]
/// connections keep in flight between them.
const INPROC_WINDOW: usize = 16;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything a traced run accumulates.
struct Trace {
    rec: Recorder,
    meter: Meter,
    /// Last request id handed out.
    request: u64,
    /// How slow the machine ran while each request's spans were taken.
    slowdown: BTreeMap<u64, f64>,
    m: Metrics,
    tally: Tally,
}

impl Trace {
    /// Run `f` — `ids` requests' worth of spans, recorded or not — between
    /// two speed probes. `f` gets the recorder, its first request id and
    /// the tally; returns `f`'s result and the slowdown meanwhile.
    fn chunk<T>(
        &mut self,
        traced: bool,
        ids: u64,
        f: impl FnOnce(&mut Recorder, u64, &mut Tally) -> T,
    ) -> (T, f64) {
        let first = self.request + 1;
        self.request += ids;
        self.rec.set_enabled(traced);
        let Trace {
            rec, meter, tally, ..
        } = self;
        let (out, slowdown) = meter.around(|| f(rec, first, tally));
        for id in first..first + ids {
            self.slowdown.insert(id, slowdown);
        }
        (out, slowdown)
    }

    /// Per request, the summed milliseconds of its spans `name` — at
    /// nominal machine speed if `corrected`, else as measured (for spans
    /// that mostly wait on a timer).
    fn span_ms(&self, name: &str, corrected: bool) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.rec.spans().iter().filter(|s| s.name == name) {
            *by_request.entry(s.request).or_default() += s.duration_ns() as f64 / 1e6;
        }
        by_request
            .into_iter()
            .map(|(r, ms)| {
                if corrected {
                    ms / self.slowdown[&r]
                } else {
                    ms
                }
            })
            .collect()
    }

    /// Median of [`Trace::span_ms`], corrected; 0 without such spans.
    fn span_p50(&self, name: &str) -> f64 {
        let samples = self.span_ms(name, true);
        if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        }
    }

    fn put(&mut self, name: &str, value: f64) {
        self.m.insert(name.to_string(), value);
    }
}

/// One case compiled by hand, layer by layer, for running the VM with
/// the engine bypassed.
struct Built {
    primal: Program,
    grad: Program,
    /// The arguments plus the unit seed of the scalar objective.
    grad_args: Vec<Value>,
}

/// A default engine but for a program cache of its own: the process-wide
/// one would answer every compile after the first, and a layer budget
/// needs the compile to happen.
fn cold_engine(cache_dir: Option<&Path>) -> Result<Engine, String> {
    let vm = Vm::new().with_cache(Arc::new(ProgramCache::new()));
    let mut builder = Engine::builder().backend(Box::new(vm));
    if let Some(dir) = cache_dir {
        builder = builder.persistent_cache(dir);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Compile every case and its vjp on `engine`; returns the milliseconds
/// spent in `vjp()` (derivation plus the derived program's compile).
fn compile_on(engine: &Engine, cases: &[Case]) -> Result<f64, String> {
    let mut transform = Duration::ZERO;
    for c in cases {
        let f = engine.compile(&c.fun).map_err(|e| e.to_string())?;
        let t = Instant::now();
        f.vjp().map_err(|e| e.to_string())?;
        transform += t.elapsed();
    }
    Ok(ms(transform))
}

/// One case's compile, one layer at a time, as children of `root`; adds
/// what the optimizer and the bytecode compiler report to `counts` and
/// the per-pass time to `pass_ns`.
fn compile_by_layer(
    c: &Case,
    rec: &mut Recorder,
    root: usize,
    r: u64,
    counts: &mut Metrics,
    pass_ns: &mut BTreeMap<&'static str, u64>,
) -> Result<Built, String> {
    let pipeline = PassPipeline::standard();
    let parent = Some(root);
    rec.time("fir.typecheck", parent, r, || {
        fir::typecheck::check_fun(&c.fun)
    })
    .map_err(|e| e.to_string())?;
    let d = rec.time("core.vjp", parent, r, || futhark_ad::vjp(&c.fun));
    rec.time("fir.typecheck", parent, r, || fir::typecheck::check_fun(&d))
        .map_err(|e| e.to_string())?;
    let (p_opt, p_stats) = rec.time("opt.pipeline", parent, r, || {
        pipeline.apply_with_stats(&c.fun)
    });
    let (g_opt, g_stats) = rec.time("opt.pipeline", parent, r, || pipeline.apply_with_stats(&d));
    let primal = rec.time("firvm.compile", parent, r, || firvm::compile(&p_opt));
    let grad = rec.time("firvm.compile", parent, r, || firvm::compile(&g_opt));
    let mut count = |name: String, n: usize| *counts.entry(name).or_default() += n as f64;
    for pass in PASSES {
        *pass_ns.entry(pass).or_default() += p_stats.nanos_of(pass) + g_stats.nanos_of(pass);
        count(
            format!("opt.{pass}_rewrites"),
            p_stats.rewrites_of(pass) + g_stats.rewrites_of(pass),
        );
    }
    count("core.vjp_stms".to_string(), fir_opt::count_stms(&d));
    count("opt.grad_stms".to_string(), fir_opt::count_stms(&g_opt));
    count(
        "firvm.instrs".to_string(),
        primal.main.instrs.len() + grad.main.instrs.len(),
    );
    count(
        "firvm.kernels".to_string(),
        primal.kernels.len() + grad.kernels.len(),
    );
    let mut grad_args = c.args.clone();
    grad_args.push(Value::F64(1.0));
    Ok(Built {
        primal,
        grad,
        grad_args,
    })
}

/// The compile path: `api.compile` on a cold engine, then the same work
/// again one layer at a time as its children; the engine's own cache;
/// the persistent cache. Returns the hand-compiled programs and the
/// `api.compile` milliseconds traced and untraced.
fn compile_layers(cases: &[Case], t: &mut Trace) -> Result<(Vec<Built>, [Vec<f64>; 2]), String> {
    let mut built = Vec::new();
    let mut engine = cold_engine(None)?;
    let (mut traced_ms, mut untraced_ms, mut transform_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in 0..2 * REPS {
        engine = cold_engine(None)?;
        let traced = rep % 2 == 0;
        let (out, slowdown) = t.chunk(traced, 1, |rec, r, _| -> Result<_, String> {
            let root = rec.begin("api.compile", None, r);
            let (transform, ms) = wall_ms(|| compile_on(&engine, cases));
            rec.end(root);
            let (mut counts, mut pass_ns) = (Metrics::new(), BTreeMap::new());
            let mut by_layer = Vec::new();
            if traced {
                for c in cases {
                    by_layer.push(compile_by_layer(
                        c,
                        rec,
                        root,
                        r,
                        &mut counts,
                        &mut pass_ns,
                    )?);
                }
            }
            Ok((ms, transform?, counts, pass_ns, by_layer))
        });
        let (ms, transform, counts, pass_ns, by_layer) = out?;
        if !traced {
            untraced_ms.push(ms / slowdown);
            continue;
        }
        traced_ms.push(ms / slowdown);
        transform_ms.push(transform / slowdown);
        for (pass, ns) in pass_ns {
            pass_ms
                .entry(pass)
                .or_default()
                .push(ns as f64 / 1e6 / slowdown);
        }
        t.m.extend(counts); // identical every repetition
        built = by_layer;
    }
    for layer in ["fir.typecheck", "core.vjp", "opt.pipeline", "firvm.compile"] {
        t.put(&format!("{layer}_ms"), t.span_p50(layer));
    }
    for (pass, samples) in pass_ms {
        t.put(&format!("opt.{pass}_ms"), median(&samples));
    }
    t.put("api.transform_ms", median(&transform_ms));

    // The engine's own cache: everything is compiled, so compiling again hits.
    let (hits, slowdown) = t.chunk(false, 0, |_, _, _| -> Result<Vec<f64>, String> {
        let mut hit_us = Vec::new();
        for _ in 0..REPS {
            for c in cases {
                let (f, ms) = wall_ms(|| engine.compile(&c.fun));
                f.map_err(|e| e.to_string())?;
                hit_us.push(ms * 1e3);
            }
        }
        Ok(hit_us)
    });
    let stats = engine.cache_stats();
    t.put("api.compile_hit_us", median(&hits?) / slowdown);
    t.put("api.cache_hits", stats.hits as f64);
    t.put("api.cache_misses", stats.misses as f64);

    // The persistent cache: the same cold compile into an empty directory
    // (the difference is the store), then a load from the populated one.
    let mut stored_ms = Vec::new();
    let mut store = fir_api::PersistentStats::default();
    let mut dir = TempDir::new("layers")?;
    for rep in 0..REPS {
        dir = TempDir::new(&format!("layers{rep}"))?;
        let storing = cold_engine(Some(&dir.0))?;
        let ((out, ms), slowdown) =
            t.chunk(false, 0, |_, _, _| wall_ms(|| compile_on(&storing, cases)));
        out?;
        stored_ms.push(ms / slowdown);
        store = storing
            .cache_stats()
            .persistent
            .ok_or("no persistent stats")?;
    }
    let loading = cold_engine(Some(&dir.0))?;
    t.chunk(true, 1, |rec, r, _| {
        rec.time("cache.load", None, r, || compile_on(&loading, cases))
    })
    .0?;
    let load = loading
        .cache_stats()
        .persistent
        .ok_or("no persistent stats")?;
    t.put("cache.store_ms", median(&stored_ms) - median(&traced_ms));
    t.put("cache.hits", (store.hits + load.hits) as f64);
    t.put("cache.misses", (store.misses + load.misses) as f64);
    t.put("cache.stores", (store.stores + load.stores) as f64);
    t.put(
        "cache.invalidations",
        (store.invalidations + load.invalidations) as f64,
    );
    t.put("cache.dir_bytes", dir.bytes() as f64);
    Ok((built, [traced_ms, untraced_ms]))
}

/// The execution path: `api.call` / `api.grad` on the default engine with
/// the VM run underneath as their child, the sequential VM, the tiered
/// engine, and the paper's comparison columns. Returns the `api.grad`
/// milliseconds traced and untraced.
fn kernel_layers(
    cases: &[Case],
    built: &[Built],
    budget: Duration,
    t: &mut Trace,
) -> Result<[Vec<f64>; 2], String> {
    let plain = compile_all(&default_engine().map_err(|e| e.to_string())?, cases)
        .map_err(|e| e.to_string())?;
    let tiered_engine = tiered_engine().map_err(|e| e.to_string())?;
    let tiered = compile_all(&tiered_engine, cases).map_err(|e| e.to_string())?;
    checked_calls(&plain, cases, &mut t.tally);
    checked_grads(&plain, cases, &mut t.tally);
    for _ in 0..JIT_THRESHOLD {
        checked_calls(&tiered, cases, &mut t.tally);
        checked_grads(&tiered, cases, &mut t.tally);
    }
    let (parallel, sequential) = (Vm::new(), Vm::sequential());

    let (mut untraced_grad, mut seq_grad) = (Vec::new(), Vec::new());
    let (mut tiered_primal, mut tiered_grad) = (Vec::new(), Vec::new());
    let (mut heap, mut arena, mut grads) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < REPS || started.elapsed() < budget {
        rounds += 1;
        t.chunk(true, 1, |rec, r, tally| {
            let call = rec.begin("api.call", None, r);
            checked_calls(&plain, cases, tally);
            rec.end(call);
            rec.time("firvm.run_primal", Some(call), r, || {
                for (b, c) in built.iter().zip(cases) {
                    std::hint::black_box(parallel.run_program(&b.primal, &c.args));
                }
            });
        });
        t.chunk(true, 1, |rec, r, tally| {
            let before = interp::alloc_stats();
            let grad = rec.begin("api.grad", None, r);
            checked_grads(&plain, cases, tally);
            rec.end(grad);
            let after = interp::alloc_stats();
            heap += after.heap_allocs - before.heap_allocs;
            arena += after.arena_hits - before.arena_hits;
            grads += cases.len() as u64;
            rec.time("firvm.run_grad", Some(grad), r, || {
                for b in built {
                    std::hint::black_box(parallel.run_program(&b.grad, &b.grad_args));
                }
            });
        });
        // The rest is timed without spans, a pair of probes around each.
        let mut timed = |samples: &mut Vec<f64>, f: &mut dyn FnMut(&mut Tally)| {
            let (((), ms), slowdown) = t.chunk(false, 0, |_, _, tally| wall_ms(|| f(tally)));
            samples.push(ms / slowdown);
        };
        timed(&mut untraced_grad, &mut |tally| {
            checked_grads(&plain, cases, tally)
        });
        timed(&mut seq_grad, &mut |_| {
            for b in built {
                std::hint::black_box(sequential.run_program(&b.grad, &b.grad_args));
            }
        });
        timed(&mut tiered_primal, &mut |tally| {
            checked_calls(&tiered, cases, tally)
        });
        timed(&mut tiered_grad, &mut |tally| {
            checked_grads(&tiered, cases, tally)
        });
    }
    let (call_ms, grad_ms) = (t.span_ms("api.call", true), t.span_ms("api.grad", true));
    let (run_primal, run_grad) = (t.span_p50("firvm.run_primal"), t.span_p50("firvm.run_grad"));
    t.put("firvm.run_primal_ms", run_primal);
    t.put("firvm.run_grad_ms", run_grad);
    t.put("firvm.seq_grad_ms", median(&seq_grad));
    t.put("interp.pool_speedup", median(&seq_grad) / run_grad);
    t.put("interp.heap_allocs_per_call", heap as f64 / grads as f64);
    t.put("interp.arena_hits_per_call", arena as f64 / grads as f64);
    t.put("core.ad_overhead", median(&grad_ms) / median(&call_ms));
    t.put(
        "api.call_overhead_us",
        (median(&call_ms) - run_primal) * 1e3 / cases.len() as f64,
    );
    t.put("jit.primal_tiered_ms_p50", median(&tiered_primal));
    let tier = tiered_engine.cache_stats().tier.unwrap_or_default();
    t.put("jit.promotions", tier.promotions as f64);
    t.put("jit.hits", tier.jit_hits as f64);
    t.put("jit.fallbacks", tier.fallbacks as f64);
    let offered = (tier.jit_hits + tier.fallbacks).max(1);
    t.put("jit.hit_share", tier.jit_hits as f64 / offered as f64);

    // The paper's comparison columns; a column no case has reads 0.
    let mut baseline = |applies: bool, f: &mut dyn FnMut()| {
        if !applies {
            return 0.0;
        }
        let samples: Vec<f64> = (0..BASELINE_REPS)
            .map(|_| {
                let (((), ms), slowdown) = t.chunk(false, 0, |_, _, _| wall_ms(&mut *f));
                ms / slowdown
            })
            .collect();
        median(&samples)
    };
    let tape = baseline(true, &mut || {
        for c in cases {
            std::hint::black_box(tape_ad::gradient(&c.fun, &c.args));
        }
    });
    let manual = baseline(cases.iter().any(|c| c.manual.is_some()), &mut || {
        cases
            .iter()
            .filter_map(|c| c.manual.as_ref())
            .for_each(|f| f())
    });
    let tensor = baseline(cases.iter().any(|c| c.tensor.is_some()), &mut || {
        cases
            .iter()
            .filter_map(|c| c.tensor.as_ref())
            .for_each(|f| f())
    });
    t.put("baseline.tape_grad_ms", tape);
    t.put("baseline.manual_grad_ms", manual);
    t.put("baseline.tensor_grad_ms", tensor);
    t.put("core.speedup_vs_tape", tape / median(&grad_ms));
    Ok([grad_ms, untraced_grad])
}

/// A request submitted to the in-process server and not yet waited for.
enum Pending {
    Call(Ticket<Vec<Value>>),
    Grad(Ticket<GradOutput>),
}

fn submit(server: &Server, entry: &PoolEntry) -> Result<Pending, ServeError> {
    match &entry.request {
        WireRequest::Grad(c) => server
            .submit_grad(Request::new(c.fn_key.as_str(), c.args.clone()))
            .map(Pending::Grad),
        WireRequest::Call(c) => server
            .submit(Request::new(c.fn_key.as_str(), c.args.clone()))
            .map(Pending::Call),
        other => unreachable!("the pool holds calls and grads, not {other:?}"),
    }
}

/// Wait (boundedly) for a submitted request; `None` if it failed, shed,
/// expired or never resolved.
fn wait(pending: Pending) -> Option<WireResponse> {
    match pending {
        Pending::Call(t) => t
            .wait_for(RECV_TIMEOUT)
            .then(|| t.wait().ok())
            .flatten()
            .map(WireResponse::Values),
        Pending::Grad(t) => t
            .wait_for(RECV_TIMEOUT)
            .then(|| t.wait().ok())
            .flatten()
            .map(|g| WireResponse::Grad {
                value: g.value,
                grads: g.grads,
            }),
    }
}

/// One replayed request over the real socket as `net.request`, and —
/// when recording — the server-side layers on the same request in this
/// process as its children. Returns the wire milliseconds and the bytes
/// sent and received.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    rec: &mut Recorder,
    r: u64,
    tally: &mut Tally,
    conn: &mut Conn,
    pool: &[PoolEntry],
    idx: usize,
    twin: &Twin<'_>,
) -> Result<(f64, usize, usize), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let entry = &pool[idx];
    let started = Instant::now();
    let root = rec.begin("net.request", None, r);
    let payload = rec
        .time("net.encode_request", Some(root), r, || {
            encode_request(idx as u64, &entry.request)
        })
        .map_err(|e| err(&e))?;
    conn.send(&payload)?;
    let raw = conn.recv_raw()?;
    let (id, _, resp) = rec
        .time("net.decode_response", Some(root), r, || {
            decode_response(&raw)
        })
        .map_err(|e| err(&e))?;
    rec.end(root);
    let wire_ms = ms(started.elapsed());
    tally.record(response_ok(pool, idx, id, resp));
    if !rec.enabled() {
        return Ok((wire_ms, payload.len(), raw.len()));
    }

    let parent = Some(root);
    rec.time("net.decode_request", parent, r, || decode_request(&payload))
        .1
        .map_err(|e| err(&e))?;
    let serve = rec.begin("serve.submit_wait", parent, r);
    let answer = submit(twin.server, entry).ok().and_then(wait);
    rec.end(serve);
    let (WireRequest::Call(c) | WireRequest::Grad(c)) = &entry.request else {
        unreachable!("the pool holds calls and grads");
    };
    let case = twin
        .keys
        .iter()
        .position(|k| *k == c.fn_key)
        .ok_or("unknown key")?;
    let is_grad = matches!(entry.request, WireRequest::Grad(_));
    let api = rec.begin("api.call", Some(serve), r);
    if is_grad {
        std::hint::black_box(twin.fns[case].grad(&c.args).map_err(|e| err(&e))?);
    } else {
        std::hint::black_box(twin.fns[case].call(&c.args).map_err(|e| err(&e))?);
    }
    rec.end(api);
    rec.time("firvm.run", Some(api), r, || {
        if is_grad {
            let mut args = c.args.clone();
            args.push(Value::F64(1.0));
            std::hint::black_box(twin.vm.run_program(&twin.built[case].grad, &args));
        } else {
            std::hint::black_box(twin.vm.run_program(&twin.built[case].primal, &c.args));
        }
    });
    match answer {
        Some(answer) => {
            rec.time("net.encode_response", parent, r, || {
                encode_response(idx as u64, 0, &answer)
            })
            .map_err(|e| err(&e))?;
            tally.record(response_ok(pool, idx, idx as u64, answer));
        }
        None => tally.record(false),
    }
    Ok((wire_ms, payload.len(), raw.len()))
}

/// The server's twin in this process — same programs, same defaults —
/// and what it takes to run each layer beneath it directly.
struct Twin<'a> {
    server: &'a Server,
    keys: Vec<&'static str>,
    fns: Vec<CompiledFn>,
    built: &'a [Built],
    vm: Vm,
}

/// The served path: the wire by itself (ping, open loop), requests
/// replayed one at a time (see [`replay_one`]), the same stream through
/// the twin with no wire, and the server child's own counters. Returns
/// the wire milliseconds of the replay traced and untraced.
fn served_layers(
    w: &Workload,
    seed: u64,
    cases: &[Case],
    built: &[Built],
    seconds: f64,
    t: &mut Trace,
) -> Result<[Vec<f64>; 2], String> {
    let child = ServerChild::spawn(w.name, seed)?;
    let pool = pool(w, seed)?;
    t.put("net.ping_rtt_us_p50", median(&ping_rtts(&child.addr, 500)?));
    let open = open_loop(
        &child.addr,
        &pool,
        seed,
        OPEN_LOOP_RATE,
        Duration::from_secs_f64(seconds * 0.3),
        &mut t.tally,
    )?;
    let mut sorted = open.latency_ms.clone();
    sorted.sort_by(f64::total_cmp);
    t.put("net.latency_ms_p99", percentile(&sorted, 99.0));
    t.put("net.late_share", open.pacer.late_share());

    let engine = default_engine().map_err(|e| e.to_string())?;
    let mut server = ServerBuilder::new(engine.clone());
    for c in cases {
        server = server.register(c.key, &c.fun);
    }
    let server = server
        .warmup(&[&[], &[Transform::Vjp]])
        .build()
        .map_err(|e| e.to_string())?;
    let twin = Twin {
        server: &server,
        keys: cases.iter().map(|c| c.key).collect(),
        fns: compile_all(&engine, cases).map_err(|e| e.to_string())?,
        built,
        vm: Vm::new(),
    };

    let mut conn = Conn::connect(&child.addr)?;
    let mut mix = Mix::new(&pool, seed);
    let (mut wire_traced, mut wire_untraced) = (Vec::new(), Vec::new());
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    for chunk in 0..2 * REPLAY / REPLAY_CHUNK {
        let traced = chunk % 2 == 0;
        let (out, _) = t.chunk(traced, REPLAY_CHUNK as u64, |rec, first, tally| {
            (0..REPLAY_CHUNK as u64)
                .map(|i| replay_one(rec, first + i, tally, &mut conn, &pool, mix.next(), &twin))
                .collect::<Result<Vec<_>, String>>()
        });
        for (wire_ms, sent, received) in out? {
            if traced {
                wire_traced.push(wire_ms);
                request_bytes += sent;
                response_bytes += received;
            } else {
                wire_untraced.push(wire_ms);
            }
        }
    }
    let us = |t: &Trace, name: &str| t.span_p50(name) * 1e3;
    // Waiting on the batch timer does not follow the machine's speed.
    let inproc_us = median(&t.span_ms("serve.submit_wait", false)) * 1e3;
    for name in [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ] {
        t.put(&format!("net.{name}_us"), us(t, &format!("net.{name}")));
    }
    t.put("net.request_bytes", request_bytes as f64 / REPLAY as f64);
    t.put("net.response_bytes", response_bytes as f64 / REPLAY as f64);
    t.put("serve.inproc_latency_us_p50", inproc_us);
    t.put(
        "net.overhead_us",
        median(&open.latency_ms) * 1e3 - inproc_us,
    );
    t.put(
        "api.call_overhead_us",
        us(t, "api.call") - us(t, "firvm.run"),
    );

    // The same stream through the twin, closed loop, no wire.
    let dur = Duration::from_secs_f64(seconds * 0.1);
    let started = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut done = 0u64;
    loop {
        if started.elapsed() < dur && in_flight.len() < INPROC_WINDOW {
            let idx = mix.next();
            in_flight.push_back((idx, submit(&server, &pool[idx])));
            continue;
        }
        let Some((idx, pending)) = in_flight.pop_front() else {
            break;
        };
        let answer = pending.ok().and_then(wait);
        t.tally
            .record(answer.is_some_and(|a| response_ok(&pool, idx, idx as u64, a)));
        done += u64::from(started.elapsed() < dur);
    }
    t.put("serve.inproc_req_per_s", done as f64 / dur.as_secs_f64());
    server.shutdown_within(RECV_TIMEOUT);

    // What the server child counted, over everything it served.
    let counters = child.shutdown()?;
    let get = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    for k in [
        "mean_batch",
        "batches",
        "queue_exec_us_p50",
        "shed",
        "expired",
        "failed",
    ] {
        t.put(&format!("serve.{k}"), get(k));
    }
    let completed = get("completed").max(1.0);
    t.put(
        "interp.heap_allocs_per_call",
        get("heap_allocs") / completed,
    );
    t.put("interp.arena_hits_per_call", get("arena_hits") / completed);
    Ok([wire_traced, wire_untraced])
}

pub fn measure(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let cases = cases(w, seed);
    let mut t = Trace {
        rec: Recorder::new(true),
        meter: Meter::new(),
        request: 0,
        slowdown: BTreeMap::new(),
        m: Metrics::new(),
        tally: Tally::default(),
    };

    let (built, compile_ms) = compile_layers(&cases, &mut t)?;
    let kernel_share = if w.front == Front::Library { 0.7 } else { 0.2 };
    let budget = Duration::from_secs_f64(seconds * kernel_share);
    let grad_ms = kernel_layers(&cases, &built, budget, &mut t)?;
    // The workload's request as its user sees it, traced and untraced.
    let (root, [traced, untraced]) = match w.front {
        Front::Library => ("api.grad", grad_ms),
        Front::Compiler => ("api.compile", compile_ms),
        Front::Server => (
            "net.request",
            served_layers(w, seed, &cases, &built, seconds, &mut t)?,
        ),
    };

    // Everything under the request that a named layer accounts for; the
    // rest is the request's own self time — unattributed.
    let total: f64 = t.span_ms(root, false).iter().sum();
    let own: f64 = self_times(t.rec.spans())[root].iter().sum::<f64>() / 1e6;
    t.put("trace.attributed_share", 1.0 - own / total);
    t.put(
        "trace.overhead_share",
        (median(&traced) - median(&untraced)) / median(&untraced),
    );
    let slowdowns = &t.meter.slowdowns;
    t.put(
        "trace.machine_slowdown",
        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64,
    );

    let path = out_dir()?.join(format!("trace_{}.json", w.name));
    std::fs::write(&path, t.rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} ({} spans)", path.display(), t.rec.spans().len());

    let rows = PER_LAYER
        .iter()
        .filter_map(|metric| Some(Row::plain(metric.name, *t.m.get(metric.name)?)))
        .collect();
    Ok(Outcome {
        rows,
        tally: t.tally,
    })
}
