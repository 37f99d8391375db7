//! What the benchmark prints and writes: per run, one line per metric
//! and the driver's JSON object; for `run` / `trace`, every workload in
//! its own process, a `result.json` through `ad_bench::Report`, and the
//! comparison of two sets.

use std::collections::BTreeMap;
use std::time::Duration;

use ad_bench::Report;

use crate::cases::WORKLOADS;
use crate::e2e::Outcome;
use crate::proc::{out_dir, Proc};
use crate::spec::{Metric, DEFAULT_SEED, END_TO_END, OPEN_LOOP_RATE, PER_LAYER, RUN_SECONDS};
use crate::stats::failed_share;
use crate::Opts;

/// No run may take longer than the driver allows one.
const RUN_TIMEOUT: Duration = Duration::from_secs(180);
/// Seconds each workload measures under `--quick`.
const QUICK_SECONDS: f64 = 1.0;

/// Print `workload metric value unit [n= q1= q3= pNN=]` for every metric
/// of `table` (a layer that did no work in this workload reads 0), the
/// failure count, and last the driver's JSON object.
pub fn print_result(workload: &str, table: &[Metric], outcome: &Outcome) {
    let mut json = Vec::new();
    for m in table {
        let row = outcome.rows.iter().find(|r| r.name == m.name);
        let value = row.map_or(0.0, |r| r.value);
        let mut line = format!("{workload} {} {value} {}", m.name, m.unit);
        if let Some(s) = row.and_then(|r| r.summary) {
            line.push_str(&format!(" n={} q1={} q3={}", s.n, s.q1, s.q3));
            if let Some((p, v)) = s.tail {
                line.push_str(&format!(" p{p}={v}"));
            }
        }
        if let Some(raw) = row.and_then(|r| r.raw) {
            line.push_str(&format!(" raw={raw}"));
        }
        println!("{line}");
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let t = outcome.tally;
    println!(
        "{workload} failed_share {} share n={}",
        failed_share(t.failed, t.attempted),
        t.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        json.join(", ")
    );
}

/// One parsed metric line of a child run.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    value: f64,
    /// `n=`, `q1=`, `q3=` when the line carried them.
    extra: BTreeMap<String, f64>,
}

/// Parse `workload metric value unit [key=value…]`; anything else (the
/// JSON line, cargo noise) is `None`.
fn parse_line(workload: &str, line: &str) -> Option<(String, Cell)> {
    let mut words = line.split(' ');
    if words.next()? != workload {
        return None;
    }
    let metric = words.next()?.to_string();
    let value = words.next()?.parse().ok()?;
    let _unit = words.next()?;
    let extra = words
        .filter_map(|w| w.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    Some((metric, Cell { value, extra }))
}

/// The commit the working directory is at, read without running git;
/// `none` outside a repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "none".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

/// `fir_bench run` / `fir_bench trace`: each workload in a process of its
/// own (so that one's peak memory is not another's), `--sets` times over
/// in alternating order; echo the metric lines, write `result.json`, and
/// with two or more sets compare the first two.
pub fn run_all(o: &Opts, trace: bool) -> Result<(), String> {
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let seconds = match (o.seconds, o.quick) {
        (Some(s), _) => s,
        (None, true) => QUICK_SECONDS,
        (None, false) => RUN_SECONDS as f64,
    };
    let sets = o.sets.unwrap_or(1).max(1);
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if let Some(only) = &o.workload {
        names.retain(|n| n == only);
        if names.is_empty() {
            return Err(format!("no workload named {only}"));
        }
    }

    let mut results: Vec<BTreeMap<&str, BTreeMap<String, Cell>>> = Vec::new();
    for set in 0..sets {
        let mut order = names.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut of_set = BTreeMap::new();
        for name in order {
            let mut args: Vec<String> = ["--workload", name, "--seed", &seed.to_string()]
                .map(String::from)
                .to_vec();
            args.extend(["--seconds".to_string(), seconds.to_string()]);
            args.extend(["--trace".to_string(), u8::from(trace).to_string()]);
            if o.quick {
                args.push("--quick".to_string());
            }
            let lines = Proc::spawn(&args)?.lines_until_exit(RUN_TIMEOUT)?;
            let mut cells = BTreeMap::new();
            for line in &lines {
                if let Some((metric, cell)) = parse_line(name, line) {
                    println!("{line}");
                    cells.insert(metric, cell);
                }
            }
            of_set.insert(name, cells);
        }
        results.push(of_set);
    }

    let mut report = Report::new("fir_bench");
    report.add(
        &format!("env git={}", git_rev()),
        &[
            (
                "available_parallelism",
                std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
            ),
            (
                "pool_workers",
                interp::WorkerPool::global().num_workers() as f64,
            ),
            ("seed", seed as f64),
            ("seconds", seconds),
            ("open_loop_rate", OPEN_LOOP_RATE),
            ("traced", f64::from(u8::from(trace))),
            // A quick run's numbers are not comparable with a full run's.
            ("comparable", f64::from(u8::from(!o.quick))),
        ],
    );
    for (set, of_set) in results.iter().enumerate() {
        for (name, cells) in of_set {
            let mut row: Vec<(String, f64)> = Vec::new();
            for (metric, cell) in cells {
                row.push((metric.clone(), cell.value));
                if let Some(n) = cell.extra.get("n") {
                    row.push((format!("{metric}.n"), *n));
                }
            }
            let row: Vec<(&str, f64)> = row.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            report.add(&format!("{name} set={set}"), &row);
        }
    }
    let path = out_dir()?.join("result.json");
    std::fs::write(&path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    let failed = results
        .iter()
        .flat_map(|s| s.values())
        .any(|cells| cells.get("failed_share").is_none_or(|c| c.value > 0.0));
    if failed {
        return Err("a workload failed or returned wrong results".to_string());
    }
    if sets >= 2 && !trace && !sets_agree(&results[0], &results[1], table) {
        return Err("two sets of the same code disagree by more than a bound".to_string());
    }
    Ok(())
}

/// Print each end-to-end metric's value in two sets of the same code
/// with the quartiles of the samples behind it, and their relative
/// difference beside the bound; `false` if any pair is further apart.
fn sets_agree(
    a: &BTreeMap<&str, BTreeMap<String, Cell>>,
    b: &BTreeMap<&str, BTreeMap<String, Cell>>,
    table: &[Metric],
) -> bool {
    let mut agree = true;
    println!("workload metric set0 [q1..q3] set1 [q1..q3] difference bound");
    for (name, first) in a {
        for m in table {
            let (Some(x), Some(y)) = (first.get(m.name), b.get(name).and_then(|s| s.get(m.name)))
            else {
                continue;
            };
            let quartiles = |c: &Cell| match (c.extra.get("q1"), c.extra.get("q3")) {
                (Some(q1), Some(q3)) => format!("[{q1:.4}..{q3:.4}]"),
                _ => "[-]".to_string(),
            };
            let difference = (y.value - x.value).abs() / x.value;
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let verdict = if difference > bound { "DISAGREE" } else { "ok" };
            agree &= difference <= bound;
            println!(
                "{name} {} {:.4} {} {:.4} {} {difference:.4} {bound} {verdict}",
                m.name,
                x.value,
                quartiles(x),
                y.value,
                quartiles(y),
            );
        }
    }
    agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_and_other_lines_do_not() {
        let (metric, cell) = parse_line(
            "gmm-grad",
            "gmm-grad grad_ms_p50 372.5 ms n=29 q1=370 q3=375.25 p50=372.5",
        )
        .unwrap();
        assert_eq!(metric, "grad_ms_p50");
        assert_eq!(cell.value, 372.5);
        assert_eq!(cell.extra["n"], 29.0);
        assert_eq!(cell.extra["q3"], 375.25);
        let (_, plain) = parse_line("gmm-grad", "gmm-grad req_per_s 4.9 1/s").unwrap();
        assert!(plain.extra.is_empty());
        assert!(parse_line("gmm-grad", "net-small req_per_s 4.9 1/s").is_none());
        assert!(parse_line("gmm-grad", "{\"correct\": true}").is_none());
        assert!(parse_line("gmm-grad", "gmm-grad oops").is_none());
    }

    #[test]
    fn sets_disagree_only_beyond_the_bound() {
        let set = |v: f64| {
            let cell = Cell {
                value: v,
                extra: BTreeMap::new(),
            };
            BTreeMap::from([("w", BTreeMap::from([("grad_ms_p50".to_string(), cell)]))])
        };
        assert!(sets_agree(&set(100.0), &set(109.0), END_TO_END));
        assert!(sets_agree(&set(100.0), &set(91.0), END_TO_END));
        assert!(!sets_agree(&set(100.0), &set(111.0), END_TO_END));
    }
}
