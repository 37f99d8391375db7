//! `fir_bench` — the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for what it measures and why; `BENCHMARK.json` at the
//! repository root names the command line the driver uses:
//!
//! ```text
//! fir_bench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! prints one line per metric and, last, the result as one JSON object.
//! `fir_bench run` and `fir_bench trace` run every workload that way and
//! tabulate; `fir_bench spec` prints `BENCHMARK.json`; `fir_bench child …`
//! is the benchmark re-executing itself as a fresh process.

mod cases;
mod e2e;
mod inproc;
mod layers;
mod net;
mod proc;
mod report;
mod sched;
mod spans;
mod spec;
mod speed;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use cases::{workload, Workload};

/// Command-line options after the mode words; every mode takes a subset.
#[derive(Debug, Default, PartialEq)]
struct Opts {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    cache: Option<PathBuf>,
    check: bool,
    quick: bool,
    sets: Option<usize>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--seconds" => o.seconds = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--trace" => o.trace = value()? == "1",
            "--cache" => o.cache = Some(PathBuf::from(value()?)),
            "--sets" => o.sets = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--check" => o.check = true,
            "--quick" => o.quick = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn named_workload(o: &Opts) -> Result<&'static Workload, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    workload(name).ok_or_else(|| format!("no workload named {name}"))
}

/// The driver's entry: measure one workload and print its result.
fn drive(o: &Opts) -> Result<(), String> {
    let w = named_workload(o)?;
    let seed = o.seed.ok_or("--seed is required")?;
    let seconds = o.seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let (table, outcome) = if o.trace {
        (spec::PER_LAYER, layers::measure(w, seed, seconds)?)
    } else {
        (spec::END_TO_END, e2e::measure(w, seed, seconds, o.quick)?)
    };
    report::print_result(w.name, table, &outcome);
    Ok(())
}

fn child(mode: &str, o: &Opts) -> Result<(), String> {
    let w = named_workload(o)?;
    let seed = o.seed.ok_or("--seed is required")?;
    match mode {
        "setup" => inproc::child_setup(w, seed),
        "compile" => inproc::child_compile(&cases::cases(w, seed), o.cache.as_deref(), o.check),
        "serve" => net::child_serve(&cases::cases(w, seed)),
        other => Err(format!("unknown child mode {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words = args.iter().take_while(|a| !a.starts_with("--")).count();
    let (mode, rest) = args.split_at(words);
    let mode: Vec<&str> = mode.iter().map(String::as_str).collect();
    let result = parse_opts(rest).and_then(|o| match mode.as_slice() {
        [] => drive(&o),
        ["child", mode] => child(mode, &o),
        ["run"] => report::run_all(&o, false),
        ["trace"] => report::run_all(&o, true),
        ["spec"] => {
            print!("{}", spec::benchmark_json());
            Ok(())
        }
        other => Err(format!("unknown mode {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fir_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args(
            "--workload net-small --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("net-small"));
        assert_eq!((o.seed, o.seconds, o.trace), (Some(7), Some(2.5), true));
        assert!(!parse_opts(&args("--trace 0")).unwrap().trace);
        assert!(parse_opts(&args("--seed")).is_err());
        assert!(parse_opts(&args("--seed x")).is_err());
        assert!(parse_opts(&args("--frobnicate")).is_err());
        assert!(named_workload(&parse_opts(&args("--workload nope")).unwrap()).is_err());
    }
}
