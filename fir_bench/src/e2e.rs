//! The untraced run of one workload: set-ups, then the workload's phases
//! in turn, then the end-to-end rows.

use std::time::{Duration, Instant};

use crate::cases::{cases, Front, Workload};
use crate::inproc::{compile_phase, fresh_compile, fresh_setup, kernel_phase, Tally, Timings};
use crate::net::{closed_loop, open_loop, pool, Open, ServerChild, WINDOW};
use crate::proc::{peak_rss_mb, TempDir};
use crate::spec::OPEN_LOOP_RATE;
use crate::speed::Meter;
use crate::stats::{median, Summary};

/// Fresh set-ups per run: at least [`SETUPS`], and — a set-up of a few
/// milliseconds being mostly process start, which varies — more of them
/// until [`SETUP_FLOOR`] has been spent on set-ups, up to [`MAX_SETUPS`].
/// One under `--quick`. `setup_s` is their median.
const SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_FLOOR: Duration = Duration::from_millis(300);

/// One printed metric: its value and, for a median, the samples behind it
/// and the median before speed correction.
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    pub raw: Option<f64>,
}

impl Row {
    /// The median of `samples`, scaled by `unit` (1e-3 turns ms into s).
    pub fn p50(name: &'static str, samples: &Timings, unit: f64) -> Row {
        let scaled: Vec<f64> = samples.corrected.iter().map(|v| v * unit).collect();
        let summary = Summary::of(&scaled);
        Row {
            name,
            value: summary.p50,
            summary: Some(summary),
            raw: Some(median(&samples.raw) * unit),
        }
    }

    /// The median of samples that are not speed-corrected.
    pub fn raw_p50(name: &'static str, samples: &[f64]) -> Row {
        let summary = Summary::of(samples);
        Row {
            name,
            value: summary.p50,
            summary: Some(summary),
            raw: None,
        }
    }

    pub fn plain(name: &'static str, value: f64) -> Row {
        Row {
            name,
            value,
            summary: None,
            raw: None,
        }
    }
}

pub struct Outcome {
    pub rows: Vec<Row>,
    pub tally: Tally,
}

fn secs(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// What the served phases measured. Neither is speed-corrected: with a
/// batch timer in the path, throughput and latency follow the machine's
/// single-thread speed only weakly (a fitted exponent of 0.1 to 0.2), and
/// repeat within 2–3% as they are.
struct Served {
    req_per_s: f64,
    open: Open,
    rss_mb: f64,
}

fn served_phases(
    w: &Workload,
    seed: u64,
    seconds: f64,
    server: ServerChild,
    tally: &mut Tally,
) -> Result<Served, String> {
    let pool = pool(w, seed)?;
    let addr = server.addr.as_str();
    let req_per_s = closed_loop(
        addr,
        &pool,
        seed,
        WINDOW,
        secs(seconds, w.shares.closed),
        tally,
    )?;
    let open = open_loop(
        addr,
        &pool,
        seed,
        OPEN_LOOP_RATE,
        secs(seconds, w.shares.open),
        tally,
    )?;
    eprintln!(
        "open loop: {} sent, {:.4} of them over 1 ms late, at most {:.3} ms",
        open.pacer.sent,
        open.pacer.late_share(),
        open.pacer.max_late_ns as f64 / 1e6
    );
    let rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;
    Ok(Served {
        req_per_s,
        open,
        rss_mb,
    })
}

pub fn measure(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut meter = Meter::new();
    let cases = cases(w, seed);
    let cache = TempDir::new("cache")?;

    // Set-up, several times over; the last server stays up for the run.
    let mut setups = Timings::default();
    let mut server = None;
    let started = Instant::now();
    let enough = |done: usize| match done {
        0 => false,
        _ if quick => true,
        n => n >= MAX_SETUPS || (n >= SETUPS && started.elapsed() >= SETUP_FLOOR),
    };
    while !enough(setups.raw.len()) {
        match w.front {
            Front::Library => fresh_setup(w.name, seed, &mut setups, &mut tally)?,
            Front::Compiler => {
                let fresh = TempDir::new("populate")?;
                fresh_compile(w.name, seed, Some(&fresh.0), false, &mut setups, &mut tally)?;
            }
            Front::Server => {
                drop(server.take()); // one server at a time
                let (spawned, slowdown) = meter.around(|| ServerChild::spawn(w.name, seed));
                let spawned = spawned?;
                setups.push(spawned.setup_s * 1e3, slowdown);
                server = Some(spawned);
            }
        }
    }
    // Warm loads need a populated directory whatever the front.
    fresh_compile(
        w.name,
        seed,
        Some(&cache.0),
        false,
        &mut Timings::default(),
        &mut tally,
    )?;

    let served = match server {
        Some(server) => Some(served_phases(w, seed, seconds, server, &mut tally)?),
        None => None,
    };
    let kernel = kernel_phase(
        &cases,
        secs(seconds, w.shares.kernel),
        &mut meter,
        &mut tally,
    )?;
    let compile = compile_phase(
        w.name,
        seed,
        &cache.0,
        secs(seconds, w.shares.compile),
        &mut tally,
    )?;

    // What the workload's user calls a request, how many complete per
    // second, and the peak memory of the process that serves them. Off the
    // wire a rate is that of one caller issuing the workload's operations
    // in equal parts, each at its median time.
    let per_second = |requests: usize, each_ms: &[&Timings]| {
        let total = |pick: fn(&Timings) -> &Vec<f64>| -> f64 {
            each_ms.iter().map(|t| median(pick(t))).sum()
        };
        let mut row = Row::plain("req_per_s", requests as f64 / total(|t| &t.corrected) * 1e3);
        row.raw = Some(requests as f64 / total(|t| &t.raw) * 1e3);
        row
    };
    let (latency, rate, rss_mb) = match (&served, w.front) {
        (Some(s), _) => (
            Row::raw_p50("latency_ms_p50", &s.open.latency_ms),
            Row::plain("req_per_s", s.req_per_s),
            s.rss_mb,
        ),
        (None, Front::Compiler) => (
            Row::p50("latency_ms_p50", &compile.cold, 1.0),
            per_second(2 * 2 * cases.len(), &[&compile.cold, &compile.warm]),
            median(&compile.rss_mb),
        ),
        (None, _) => (
            Row::p50("latency_ms_p50", &kernel.grad, 1.0),
            per_second(
                3 * cases.len(),
                &[&kernel.primal, &kernel.grad, &kernel.tiered],
            ),
            peak_rss_mb(std::process::id())?,
        ),
    };
    let rows = vec![
        Row::p50("setup_s", &setups, 1e-3),
        Row::p50("primal_ms_p50", &kernel.primal, 1.0),
        Row::p50("grad_ms_p50", &kernel.grad, 1.0),
        Row::p50("grad_tiered_ms_p50", &kernel.tiered, 1.0),
        Row::p50("compile_ms_p50", &compile.cold, 1.0),
        Row::p50("warm_load_ms_p50", &compile.warm, 1.0),
        rate,
        latency,
        Row::plain("peak_rss_mb", rss_mb),
    ];
    Ok(Outcome { rows, tally })
}
