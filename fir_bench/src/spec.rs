//! The metric tables: every name the benchmark prints, with its unit and
//! direction, and for end-to-end metrics the bound by which a later
//! change may worsen it. `BENCHMARK.json` at the repository root is
//! `fir_bench spec` written to a file; a unit test keeps the two equal.

use crate::cases::WORKLOADS;

/// How long one driver run measures.
pub const RUN_SECONDS: u64 = 20;
/// The seed `fir_bench run` and `fir_bench trace` use when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Open-loop total request rate on `net-small`: about 40% of the
/// closed-loop rate the seed commit reached on the 2-core reference box,
/// rounded to 500 and frozen here so that later commits meet equal load.
pub const OPEN_LOOP_RATE: f64 = 5000.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
        bound: None,
    }
}

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", true, 0.25),
    e2e("primal_ms_p50", "ms", true, 0.10),
    e2e("grad_ms_p50", "ms", true, 0.10),
    e2e("grad_tiered_ms_p50", "ms", true, 0.10),
    e2e("compile_ms_p50", "ms", true, 0.10),
    e2e("warm_load_ms_p50", "ms", true, 0.25),
    e2e("req_per_s", "1/s", false, 0.25),
    e2e("latency_ms_p50", "ms", true, 0.20),
    e2e("peak_rss_mb", "MB", true, 0.10),
];

/// The passes `PassPipeline::standard()` runs, by the names
/// `PipelineStats` reports them under.
pub const PASSES: [&str; 6] = ["copy-prop", "const-fold", "cse", "fusion", "hoist", "dce"];

pub const PER_LAYER: &[Metric] = &[
    lower("fir.typecheck_ms", "ms"),
    lower("core.vjp_ms", "ms"),
    lower("core.vjp_stms", "count"),
    lower("core.ad_overhead", "x"),
    higher("core.speedup_vs_tape", "x"),
    lower("baseline.tape_grad_ms", "ms"),
    lower("baseline.manual_grad_ms", "ms"),
    lower("baseline.tensor_grad_ms", "ms"),
    lower("opt.pipeline_ms", "ms"),
    lower("opt.copy-prop_ms", "ms"),
    lower("opt.const-fold_ms", "ms"),
    lower("opt.cse_ms", "ms"),
    lower("opt.fusion_ms", "ms"),
    lower("opt.hoist_ms", "ms"),
    lower("opt.dce_ms", "ms"),
    higher("opt.copy-prop_rewrites", "count"),
    higher("opt.const-fold_rewrites", "count"),
    higher("opt.cse_rewrites", "count"),
    higher("opt.fusion_rewrites", "count"),
    higher("opt.hoist_rewrites", "count"),
    higher("opt.dce_rewrites", "count"),
    lower("opt.grad_stms", "count"),
    lower("firvm.compile_ms", "ms"),
    lower("firvm.instrs", "count"),
    lower("firvm.kernels", "count"),
    lower("firvm.run_primal_ms", "ms"),
    lower("firvm.run_grad_ms", "ms"),
    lower("firvm.seq_grad_ms", "ms"),
    higher("jit.promotions", "count"),
    higher("jit.hits", "count"),
    lower("jit.fallbacks", "count"),
    higher("jit.hit_share", "share"),
    lower("jit.primal_tiered_ms_p50", "ms"),
    higher("interp.pool_speedup", "x"),
    lower("interp.heap_allocs_per_call", "count"),
    higher("interp.arena_hits_per_call", "count"),
    lower("api.call_overhead_us", "us"),
    lower("api.compile_hit_us", "us"),
    lower("api.transform_ms", "ms"),
    higher("api.cache_hits", "count"),
    lower("api.cache_misses", "count"),
    lower("cache.store_ms", "ms"),
    higher("cache.hits", "count"),
    lower("cache.misses", "count"),
    lower("cache.stores", "count"),
    lower("cache.invalidations", "count"),
    lower("cache.dir_bytes", "bytes"),
    higher("serve.inproc_req_per_s", "1/s"),
    lower("serve.inproc_latency_us_p50", "us"),
    higher("serve.mean_batch", "count"),
    lower("serve.batches", "count"),
    lower("serve.queue_exec_us_p50", "us"),
    lower("serve.shed", "count"),
    lower("serve.expired", "count"),
    lower("serve.failed", "count"),
    lower("net.encode_request_us", "us"),
    lower("net.decode_request_us", "us"),
    lower("net.encode_response_us", "us"),
    lower("net.decode_response_us", "us"),
    lower("net.request_bytes", "bytes"),
    lower("net.response_bytes", "bytes"),
    lower("net.ping_rtt_us_p50", "us"),
    lower("net.overhead_us", "us"),
    lower("net.late_share", "share"),
    lower("net.latency_ms_p99", "ms"),
    higher("trace.attributed_share", "share"),
    lower("trace.overhead_share", "share"),
    lower("trace.machine_slowdown", "x"),
];

fn metric_json(m: &Metric) -> String {
    let better = if m.lower_is_better { "lower" } else { "higher" };
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let list = |ms: &[Metric]| ms.iter().map(metric_json).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"fir_bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"fir_bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(END_TO_END),
        list(PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir_trace::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()) && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for p in PASSES {
            assert!(PER_LAYER.iter().any(|m| m.name == format!("opt.{p}_ms")));
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == format!("opt.{p}_rewrites")));
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let text = benchmark_json();
        let parsed = json::parse(&text).expect("the generated file is JSON");
        let len = |key| parsed.get(key).and_then(Json::as_arr).map(<[Json]>::len);
        assert_eq!(len("end_to_end"), Some(END_TO_END.len()));
        assert_eq!(len("per_layer"), Some(PER_LAYER.len()));
        assert_eq!(len("workloads"), Some(WORKLOADS.len()));
        assert!(text.len() < 64 << 10);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            on_disk, text,
            "regenerate with `fir_bench spec > BENCHMARK.json`"
        );
    }
}
