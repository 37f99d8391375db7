//! Lock-free serving metrics: counters, gauges, and log-scaled
//! histograms, exported as a machine-readable snapshot.
//!
//! Every instrument is a plain atomic (no locks on the request path, no
//! external dependencies). Histograms bucket by powers of two — bucket
//! `i` covers `[2^(i-1), 2^i)` of the recorded unit (microseconds for
//! latency, requests for batch sizes) — so a record is one `fetch_add`
//! and percentile queries are a cumulative scan over 40 buckets. Reported
//! percentiles are the *upper bound* of the bucket the rank falls in
//! (conservative: never under-reports).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use firvm::pool::PoolUtilization;

/// Number of power-of-two histogram buckets. Bucket 39 tops out at
/// 2^39 µs ≈ 6.4 days — effectively unbounded for request latencies.
const BUCKETS: usize = 40;

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous gauge (queue depth).
#[derive(Debug, Default)]
pub(crate) struct Gauge(AtomicUsize);

impl Gauge {
    pub(crate) fn set(&self, v: usize) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free power-of-two histogram with exact count/sum/max.
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram, with percentile queries.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the power-of-two bucket the rank lands in (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i covers [2^(i-1), 2^i); report the upper bound,
                // clipped to the exact observed max.
                return (1u64 << i).min(self.max.max(1));
            }
        }
        self.max
    }

    /// The arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (1u64 << i, *n))
            .collect()
    }

    /// Combine two snapshots bucketwise (e.g. several functions'
    /// latencies into one distribution).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }
}

// ---------------------------------------------------------------------
// Per-function registry
// ---------------------------------------------------------------------

/// The live instruments of one registered function (all lock-free).
#[derive(Default)]
pub(crate) struct FnMetrics {
    pub(crate) submitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) shed: Counter,
    pub(crate) expired: Counter,
    pub(crate) batches: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) batch_sizes: Histogram,
    pub(crate) latency_us: Histogram,
}

impl FnMetrics {
    pub(crate) fn snapshot(&self, fn_key: &str, uptime: Duration) -> FnMetricsSnapshot {
        let completed = self.completed.get();
        FnMetricsSnapshot {
            fn_key: fn_key.to_string(),
            submitted: self.submitted.get(),
            completed,
            failed: self.failed.get(),
            shed: self.shed.get(),
            expired: self.expired.get(),
            batches: self.batches.get(),
            queue_depth: self.queue_depth.get(),
            batch_sizes: self.batch_sizes.snapshot(),
            latency_us: self.latency_us.snapshot(),
            throughput_rps: completed as f64 / uptime.as_secs_f64().max(1e-9),
        }
    }
}

/// A point-in-time copy of one function's serving metrics.
#[derive(Debug, Clone)]
pub struct FnMetricsSnapshot {
    /// The key the function was registered under.
    pub fn_key: String,
    /// Requests that arrived for this function, admitted or refused.
    /// Once the server is idle,
    /// `submitted == completed + failed + expired + shed`.
    pub submitted: u64,
    /// Requests whose ticket resolved `Ok`.
    pub completed: u64,
    /// Requests whose ticket resolved `Err` at execution.
    pub failed: u64,
    /// Requests refused without executing: queue full or server shut
    /// down at admission, or still queued when a bounded shutdown's drain
    /// budget ran out.
    pub shed: u64,
    /// Requests dropped at the batch cut because their deadline passed.
    pub expired: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Queue depth when the snapshot was taken.
    pub queue_depth: usize,
    /// Distribution of executed batch sizes.
    pub batch_sizes: HistogramSnapshot,
    /// Queue+execution latency per resolved request, in microseconds.
    pub latency_us: HistogramSnapshot,
    /// Completed requests per second of server uptime.
    pub throughput_rps: f64,
}

/// Network-tier counters: filled in by the `fir-net` front-end, `None`
/// for in-process servers.
#[derive(Debug, Clone, Default)]
pub struct NetStatsSnapshot {
    /// Connections the listener has accepted.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Connections that have closed (either side).
    pub connections_closed: u64,
    /// Request frames decoded off the wire.
    pub frames_received: u64,
    /// Response frames written to the wire.
    pub frames_sent: u64,
    /// Frames or requests rejected with a protocol-level error.
    pub protocol_errors: u64,
    /// One entry per tenant that has submitted at least one request.
    pub tenants: Vec<TenantCountersSnapshot>,
}

/// One tenant's admission counters.
#[derive(Debug, Clone, Default)]
pub struct TenantCountersSnapshot {
    /// The tenant name from the wire (empty: anonymous).
    pub tenant: String,
    /// Requests admitted past the tenant's quota.
    pub admitted: u64,
    /// Requests shed by the tenant's quota or fairness cap.
    pub shed: u64,
    /// Requests admitted but not yet responded to.
    pub in_flight: u64,
}

/// A machine-readable snapshot of a whole server's metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Time since the server was built.
    pub uptime: Duration,
    /// Utilization of the shared worker pool batches execute on (busy
    /// workers and queue depth at snapshot time).
    pub pool: PoolUtilization,
    /// One entry per registered function, in registration order.
    pub fns: Vec<FnMetricsSnapshot>,
    /// Execution-arena allocation counters at snapshot time
    /// ([`interp::alloc_stats`]; process-global, shared by every server in
    /// the process). `heap_allocs` and `arena_hits` are monotonic, so
    /// windowing two snapshots and dividing by completed requests yields
    /// allocations per call.
    pub alloc: interp::AllocStats,
    /// Compile-cache counters of the engine the server compiles through
    /// (`None` when the snapshot was assembled without an engine, e.g. in
    /// unit tests). Includes the persistent on-disk cache counters when
    /// the engine was built with [`fir_api::EngineBuilder::persistent_cache`],
    /// which is how warm-start deployments verify they served from disk.
    pub cache: Option<fir_api::CacheStats>,
    /// Network-tier counters (`None` unless served through `fir-net`).
    pub net: Option<NetStatsSnapshot>,
}

impl MetricsSnapshot {
    /// Total requests whose tickets resolved `Ok`, across functions.
    pub fn completed(&self) -> u64 {
        self.fns.iter().map(|f| f.completed).sum()
    }

    /// Serialize to JSON (hand-rolled; the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let esc = json_escape;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"uptime_secs\": {:.6},\n",
            self.uptime.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"pool\": {{\"workers\": {}, \"busy_workers\": {}, \"queued_jobs\": {}}},\n",
            self.pool.workers, self.pool.busy_workers, self.pool.queued_jobs
        ));
        out.push_str(&format!(
            "  \"alloc\": {{\"heap_allocs\": {}, \"arena_hits\": {}, \"pooled_bytes\": {}, \"reserved_slots\": {}}},\n",
            self.alloc.heap_allocs,
            self.alloc.arena_hits,
            self.alloc.pooled_bytes,
            self.alloc.reserved_slots
        ));
        out.push_str("  \"functions\": [\n");
        for (i, f) in self.fns.iter().enumerate() {
            out.push_str(&format!("    {{\"fn\": \"{}\"", esc(&f.fn_key)));
            for (k, v) in [
                ("submitted", f.submitted),
                ("completed", f.completed),
                ("failed", f.failed),
                ("shed", f.shed),
                ("expired", f.expired),
                ("batches", f.batches),
                ("queue_depth", f.queue_depth as u64),
            ] {
                out.push_str(&format!(", \"{k}\": {v}"));
            }
            out.push_str(&format!(", \"throughput_rps\": {:.3}", f.throughput_rps));
            out.push_str(&format!(
                ", \"batch_size\": {{\"mean\": {:.3}, \"max\": {}}}",
                f.batch_sizes.mean(),
                f.batch_sizes.max
            ));
            out.push_str(&format!(
                ", \"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {:.1}, \"max\": {}}}",
                f.latency_us.quantile(0.50),
                f.latency_us.quantile(0.95),
                f.latency_us.quantile(0.99),
                f.latency_us.mean(),
                f.latency_us.max
            ));
            out.push('}');
            out.push_str(if i + 1 < self.fns.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
        if let Some(cache) = &self.cache {
            out.push_str(",\n  \"cache\": {");
            for (k, v) in [
                ("hits", cache.hits),
                ("misses", cache.misses),
                ("entries", cache.entries),
                ("evictions", cache.evictions),
            ] {
                out.push_str(&format!("\"{k}\": {v}, "));
            }
            out.push_str(&format!("\"capacity\": {}", cache.capacity));
            if let Some(p) = &cache.persistent {
                out.push_str(&format!(
                    ", \"persistent\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}, \"invalidations\": {}}}",
                    p.hits, p.misses, p.stores, p.invalidations
                ));
            }
            out.push('}');
        }
        if let Some(net) = &self.net {
            out.push_str(",\n  \"net\": {");
            for (k, v) in [
                ("connections_accepted", net.connections_accepted),
                ("connections_active", net.connections_active),
                ("connections_closed", net.connections_closed),
                ("frames_received", net.frames_received),
                ("frames_sent", net.frames_sent),
                ("protocol_errors", net.protocol_errors),
            ] {
                out.push_str(&format!("\"{k}\": {v}, "));
            }
            out.push_str("\"tenants\": [");
            for (i, t) in net.tenants.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"tenant\": \"{}\", \"admitted\": {}, \"shed\": {}, \"in_flight\": {}}}",
                    esc(&t.tenant),
                    t.admitted,
                    t.shed,
                    t.in_flight
                ));
                if i + 1 < net.tenants.len() {
                    out.push_str(", ");
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Escape a string for embedding in a JSON string literal: `"` and `\`
/// get a backslash, control characters (U+0000..U+001F, the only other
/// characters JSON forbids in strings) become `\uXXXX`. Everything else —
/// including non-ASCII — passes through unchanged.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // p50 rank = 50 → value 50 lands in bucket [32, 64) → 64.
        assert_eq!(s.quantile(0.5), 64);
        // p99 rank = 99 → bucket [64, 128) → 128 clipped to max 100.
        assert_eq!(s.quantile(0.99), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.nonzero_buckets().is_empty());
    }

    #[test]
    fn snapshot_json_is_machine_readable() {
        let m = FnMetrics::default();
        m.submitted.inc();
        m.completed.inc();
        m.batch_sizes.record(4);
        m.latency_us.record(100);
        let snap = MetricsSnapshot {
            uptime: Duration::from_secs(2),
            pool: PoolUtilization {
                workers: 8,
                busy_workers: 3,
                queued_jobs: 5,
            },
            fns: vec![m.snapshot("gmm \"grad\"", Duration::from_secs(2))],
            alloc: interp::AllocStats::default(),
            cache: None,
            net: None,
        };
        let json = snap.to_json();
        fir_trace::json::validate(&json).unwrap();
        assert!(json.contains("\"fn\": \"gmm \\\"grad\\\"\""), "{json}");
        assert!(json.contains("\"completed\": 1"), "{json}");
        assert!(json.contains("\"p99\": 100"), "{json}");
        assert!(json.contains("\"busy_workers\": 3"), "{json}");
        assert!(json.contains("\"queued_jobs\": 5"), "{json}");
        assert_eq!(snap.completed(), 1);
    }

    #[test]
    fn json_escaping_survives_hostile_fn_keys() {
        // Quotes, backslashes, every control character, and non-ASCII:
        // the export must stay parseable and round-trip the key exactly.
        let hostile: String = ('\u{0}'..='\u{1f}')
            .chain("\"\\/ fin€ 日本語 \u{7f}".chars())
            .collect();
        let snap = MetricsSnapshot {
            uptime: Duration::from_secs(1),
            pool: PoolUtilization::default(),
            fns: vec![FnMetrics::default().snapshot(&hostile, Duration::from_secs(1))],
            alloc: interp::AllocStats::default(),
            cache: None,
            net: None,
        };
        let parsed = fir_trace::json::parse(&snap.to_json()).unwrap();
        let fns = parsed.get("functions").unwrap().as_arr().unwrap();
        assert_eq!(fns[0].get("fn").unwrap().as_str(), Some(hostile.as_str()));
        // The escaper itself, spot-checked.
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn json_escaping_survives_hostile_tenant_names() {
        // Same hostility budget as the fn-key test, aimed at the net
        // section: the tenant name comes straight off the wire, so it
        // must round-trip the JSON export byte for byte.
        let hostile: String = ('\u{0}'..='\u{1f}')
            .chain("\"\\/ t€nant 日本語 \u{7f}".chars())
            .collect();
        let snap = MetricsSnapshot {
            uptime: Duration::from_secs(1),
            pool: PoolUtilization::default(),
            fns: vec![FnMetrics::default().snapshot("f", Duration::from_secs(1))],
            alloc: interp::AllocStats::default(),
            cache: None,
            net: Some(NetStatsSnapshot {
                connections_accepted: 3,
                frames_received: 7,
                tenants: vec![
                    TenantCountersSnapshot {
                        tenant: hostile.clone(),
                        admitted: 5,
                        shed: 2,
                        in_flight: 1,
                    },
                    TenantCountersSnapshot::default(),
                ],
                ..Default::default()
            }),
        };
        let json = snap.to_json();
        let parsed = fir_trace::json::parse(&json).unwrap();
        let net = parsed.get("net").unwrap();
        assert_eq!(net.get("connections_accepted").unwrap().as_num(), Some(3.0));
        let tenants = net.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(
            tenants[0].get("tenant").unwrap().as_str(),
            Some(hostile.as_str())
        );
        assert_eq!(tenants[0].get("shed").unwrap().as_num(), Some(2.0));
        assert_eq!(tenants[1].get("tenant").unwrap().as_str(), Some(""));
    }

    #[test]
    fn histogram_merge_sums_counts_and_keeps_the_max() {
        let (a, b) = (Histogram::default(), Histogram::default());
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [1000u64, 1000, 1000] {
            b.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!((merged.count, merged.sum, merged.max), (6, 3111, 1000));
        assert_eq!(merged.quantile(0.5), 128);
        assert_eq!(merged.quantile(0.99), 1000);
    }

    #[test]
    fn single_value_histogram_quantiles() {
        let h = Histogram::default();
        h.record(37);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (1, 37, 37));
        // One value: every quantile is that value's bucket bound clipped
        // to the observed max — i.e. exactly 37.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 37, "q={q}");
        }
        assert_eq!(s.mean(), 37.0);
        assert_eq!(s.nonzero_buckets(), vec![(64, 1)]);
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let h = Histogram::default();
        // Values past 2^39 all land in the last bucket; quantiles report
        // its lower power-of-two bound clipped to the observed max.
        h.record(u64::MAX / 2);
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX / 2);
        assert_eq!(s.quantile(0.99), 1u64 << (BUCKETS - 1));
        assert_eq!(s.nonzero_buckets(), vec![(1u64 << (BUCKETS - 1), 2)]);
    }
}
