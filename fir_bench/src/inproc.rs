//! The phases that call the library directly: fresh set-ups, cold
//! compiles and warm loads (one fresh process each, because the VM keeps
//! a process-wide program cache that would turn a second "cold" compile
//! in the same process into a lookup), and the primal / grad / tiered-grad
//! round-robin.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use fir_api::{CompiledFn, Engine, FirError};

use crate::cases::{call_ok, cases, grad_ok, Case, Workload};
use crate::proc;
use crate::speed::{wall_ms, Meter};

/// Hotness threshold of the tiered engine — the one way it differs from
/// the default engine.
pub const JIT_THRESHOLD: u64 = 8;

/// Checked operations and how many of them went wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Timing samples in milliseconds, as measured and as corrected for the
/// machine's speed while each was taken (see [`crate::speed`]).
#[derive(Debug, Clone, Default)]
pub struct Timings {
    pub raw: Vec<f64>,
    pub corrected: Vec<f64>,
}

impl Timings {
    pub fn push(&mut self, raw_ms: f64, slowdown: f64) {
        self.raw.push(raw_ms);
        self.corrected.push(raw_ms / slowdown);
    }

    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

pub fn default_engine() -> Result<Engine, FirError> {
    Engine::builder().build()
}

pub fn tiered_engine() -> Result<Engine, FirError> {
    Engine::builder().jit_threshold(JIT_THRESHOLD).build()
}

/// Every case and its vjp compiled on `engine`.
pub fn compile_all(engine: &Engine, cases: &[Case]) -> Result<Vec<CompiledFn>, FirError> {
    cases
        .iter()
        .map(|c| {
            let f = engine.compile(&c.fun)?;
            f.vjp()?;
            Ok(f)
        })
        .collect()
}

/// One primal of every case, checked.
pub fn checked_calls(fns: &[CompiledFn], cases: &[Case], tally: &mut Tally) {
    for (f, c) in fns.iter().zip(cases) {
        let out = f.call(&c.args);
        tally.record(out.is_ok_and(|out| call_ok(c.expect.as_ref(), &out)));
    }
}

/// One gradient of every case, checked.
pub fn checked_grads(fns: &[CompiledFn], cases: &[Case], tally: &mut Tally) {
    for (f, c) in fns.iter().zip(cases) {
        let out = f.grad(&c.args);
        tally.record(out.is_ok_and(|out| grad_ok(c.expect.as_ref(), &out)));
    }
}

fn check_all(fns: &[CompiledFn], cases: &[Case], tally: &mut Tally) {
    checked_calls(fns, cases, tally);
    checked_grads(fns, cases, tally);
}

// ---------------------------------------------------------------------
// Child modes
// ---------------------------------------------------------------------

fn print_tally(tally: Tally) {
    println!("attempted {}", tally.attempted);
    println!("failed {}", tally.failed);
}

/// `child setup`: a fresh process builds the workload's inputs and
/// brings every program to its first primal and first gradient on the
/// default engine.
pub fn child_setup(w: &Workload, seed: u64) -> Result<(), String> {
    let mut meter = Meter::new();
    let ((tally, ms), slowdown) = meter.around(|| {
        wall_ms(|| -> Result<Tally, String> {
            let cases = cases(w, seed);
            let engine = default_engine().map_err(|e| e.to_string())?;
            let fns = compile_all(&engine, &cases).map_err(|e| e.to_string())?;
            let mut tally = Tally::default();
            check_all(&fns, &cases, &mut tally);
            Ok(tally)
        })
    });
    let tally = tally?;
    println!("raw_ms {ms:.6}");
    println!("slowdown {slowdown:.6}");
    print_tally(tally);
    Ok(())
}

/// `child compile`: a fresh process compiles every program and its vjp on
/// a default engine — over `cache_dir` when given, so that a populated
/// directory turns the compiles into loads. With `check`, the compiled
/// programs are then run and compared with their references, untimed.
pub fn child_compile(cases: &[Case], cache_dir: Option<&Path>, check: bool) -> Result<(), String> {
    let mut meter = Meter::new();
    let ((compiled, ms), slowdown) = meter.around(|| {
        wall_ms(|| -> Result<_, String> {
            let mut builder = Engine::builder();
            if let Some(dir) = cache_dir {
                builder = builder.persistent_cache(dir);
            }
            let engine = builder.build().map_err(|e| e.to_string())?;
            let fns = compile_all(&engine, cases).map_err(|e| e.to_string())?;
            Ok((engine, fns))
        })
    });
    let (engine, fns) = compiled?;
    println!("raw_ms {ms:.6}");
    println!("slowdown {slowdown:.6}");
    let mut tally = Tally {
        attempted: 2 * cases.len() as u64,
        failed: 0,
    };
    if check {
        check_all(&fns, cases, &mut tally);
    }
    print_tally(tally);
    if let Some(p) = engine.cache_stats().persistent {
        println!("cache_hits {}", p.hits);
        println!("cache_misses {}", p.misses);
        println!("cache_stores {}", p.stores);
        println!("cache_invalidations {}", p.invalidations);
    }
    println!("rss_mb {:.6}", proc::peak_rss_mb(std::process::id())?);
    Ok(())
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// Arguments that make a child rebuild this run's inputs.
pub fn child_args(mode: &str, workload: &str, seed: u64) -> Vec<String> {
    [
        "child",
        mode,
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

fn take(out: &BTreeMap<String, f64>, key: &str) -> Result<f64, String> {
    out.get(key)
        .copied()
        .ok_or_else(|| format!("child printed no `{key}`"))
}

fn tally_of(out: &BTreeMap<String, f64>) -> Result<Tally, String> {
    Ok(Tally {
        attempted: take(out, "attempted")? as u64,
        failed: take(out, "failed")? as u64,
    })
}

/// One fresh set-up in a child process, in milliseconds.
pub fn fresh_setup(
    workload: &str,
    seed: u64,
    into: &mut Timings,
    tally: &mut Tally,
) -> Result<(), String> {
    let out = proc::run(&child_args("setup", workload, seed))?;
    tally.absorb(tally_of(&out)?);
    into.push(take(&out, "raw_ms")?, take(&out, "slowdown")?);
    Ok(())
}

/// What one compile child reported besides its timing.
pub struct CompileOut {
    pub rss_mb: f64,
    /// `cache_*` counters of the persistent store, when one was used.
    pub store: BTreeMap<String, f64>,
}

/// One compile of every program in a child process, over `cache_dir` if
/// given; its milliseconds go `into`.
pub fn fresh_compile(
    workload: &str,
    seed: u64,
    cache_dir: Option<&Path>,
    check: bool,
    into: &mut Timings,
    tally: &mut Tally,
) -> Result<CompileOut, String> {
    let mut args = child_args("compile", workload, seed);
    if let Some(dir) = cache_dir {
        args.extend(["--cache".to_string(), dir.display().to_string()]);
    }
    if check {
        args.push("--check".to_string());
    }
    let out = proc::run(&args)?;
    tally.absorb(tally_of(&out)?);
    into.push(take(&out, "raw_ms")?, take(&out, "slowdown")?);
    Ok(CompileOut {
        rss_mb: take(&out, "rss_mb")?,
        store: out
            .into_iter()
            .filter(|(k, _)| k.starts_with("cache_"))
            .collect(),
    })
}

#[derive(Default)]
pub struct CompileRun {
    pub cold: Timings,
    pub warm: Timings,
    pub rss_mb: Vec<f64>,
}

/// Alternate cold compiles (no cache directory) and warm loads (over
/// `populated`) for `budget`, each in a fresh process; the first of each
/// also runs and checks what it compiled.
pub fn compile_phase(
    workload: &str,
    seed: u64,
    populated: &Path,
    budget: Duration,
    tally: &mut Tally,
) -> Result<CompileRun, String> {
    let t0 = Instant::now();
    let mut run = CompileRun::default();
    while run.cold.is_empty() || t0.elapsed() < budget {
        let check = run.cold.is_empty();
        let cold = fresh_compile(workload, seed, None, check, &mut run.cold, tally)?;
        let warm = fresh_compile(workload, seed, Some(populated), check, &mut run.warm, tally)?;
        if take(&warm.store, "cache_misses")? > 0.0 {
            return Err("a warm load missed the populated cache directory".to_string());
        }
        run.rss_mb.extend([cold.rss_mb, warm.rss_mb]);
    }
    Ok(run)
}

/// The three operations of the round-robin.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Primal,
    Grad,
    TieredGrad,
}

#[derive(Default)]
pub struct KernelRun {
    pub primal: Timings,
    pub grad: Timings,
    pub tiered: Timings,
}

/// A cheap operation is repeated within its turn for this long, so that
/// it collects samples while the expensive ones take their one; a turn is
/// also the stretch one pair of speed probes brackets.
const TURN: Duration = Duration::from_millis(50);

/// Round-robin primal / grad on the default engine and grad on the
/// tiered engine for `budget`, one sample being the operation on every
/// case in turn. Caches fill and the tiered engine promotes during an
/// untimed warm-up; every result, warm-up included, is checked.
pub fn kernel_phase(
    cases: &[Case],
    budget: Duration,
    meter: &mut Meter,
    tally: &mut Tally,
) -> Result<KernelRun, String> {
    let plain = compile_all(&default_engine().map_err(|e| e.to_string())?, cases)
        .map_err(|e| e.to_string())?;
    let tiered = compile_all(&tiered_engine().map_err(|e| e.to_string())?, cases)
        .map_err(|e| e.to_string())?;
    check_all(&plain, cases, tally);
    for _ in 0..JIT_THRESHOLD {
        check_all(&tiered, cases, tally);
    }

    let mut run = KernelRun::default();
    let t0 = Instant::now();
    while run.grad.is_empty() || t0.elapsed() < budget {
        for op in [Op::Primal, Op::Grad, Op::TieredGrad] {
            let (turn, slowdown) = meter.around(|| {
                let (started, mut turn) = (Instant::now(), Vec::new());
                while turn.is_empty() || started.elapsed() < TURN {
                    turn.push(sample(op, &plain, &tiered, cases));
                }
                turn
            });
            for (ms, ok) in turn {
                tally.attempted += cases.len() as u64;
                tally.failed += cases.len() as u64 - ok;
                match op {
                    Op::Primal => run.primal.push(ms, slowdown),
                    Op::Grad => run.grad.push(ms, slowdown),
                    Op::TieredGrad => run.tiered.push(ms, slowdown),
                }
            }
        }
    }
    Ok(run)
}

/// Time `op` on every case; returns milliseconds and how many results
/// were right (checked after the clock stops).
fn sample(op: Op, plain: &[CompiledFn], tiered: &[CompiledFn], cases: &[Case]) -> (f64, u64) {
    let fns = if op == Op::TieredGrad { tiered } else { plain };
    let pairs = fns.iter().zip(cases);
    let t = Instant::now();
    if op == Op::Primal {
        let outs: Vec<_> = pairs.map(|(f, c)| f.call(&c.args)).collect();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        (ms, count_ok(&outs, cases, |e, out| call_ok(e, out)))
    } else {
        let outs: Vec<_> = pairs.map(|(f, c)| f.grad(&c.args)).collect();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        (ms, count_ok(&outs, cases, grad_ok))
    }
}

fn count_ok<T>(
    outs: &[Result<T, FirError>],
    cases: &[Case],
    ok: impl Fn(Option<&crate::cases::Expect>, &T) -> bool,
) -> u64 {
    outs.iter()
        .zip(cases)
        .filter(|(out, c)| out.as_ref().is_ok_and(|out| ok(c.expect.as_ref(), out)))
        .count() as u64
}
