//! Per-tenant admission: token-bucket rate limits plus weighted
//! fair-sharing of the server's in-flight capacity.
//!
//! Every `call`/`grad` request names a tenant (empty string: anonymous).
//! Before the request reaches the serving runtime, the [`TenantGov`]
//! decides to **admit** or **shed** it:
//!
//! 1. **Token bucket** — tenant `t` accrues `rate_per_sec` tokens,
//!    capped at `burst`; each admitted request spends one. An empty
//!    bucket sheds with `overloaded`, *naming the tenant*, so a noisy
//!    client sees exactly whose quota it exhausted.
//! 2. **Weighted fairness** — when the server bounds total in-flight
//!    requests ([`TenantPolicy::max_in_flight`]), each tenant may hold at
//!    most `max_in_flight * weight / total_weight` slots (at least one).
//!    A heavy tenant therefore cannot starve a light one regardless of
//!    its token budget.
//!
//! Decisions are pure arithmetic on an explicit clock ([`TenantGov::admit_at`])
//! so the unit tests drive time deterministically.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use fir_serve::TenantCountersSnapshot;

use crate::error::WireError;

/// One tenant's quota configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    /// Steady-state admissions per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: how far above the steady rate a quiet tenant may
    /// burst.
    pub burst: f64,
    /// Fair-share weight against other tenants (≥ 1).
    pub weight: u32,
}

impl TenantConfig {
    /// An effectively unlimited tenant (used for trusted/internal
    /// traffic).
    pub fn unlimited() -> TenantConfig {
        TenantConfig {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            weight: 1,
        }
    }
}

impl Default for TenantConfig {
    fn default() -> TenantConfig {
        TenantConfig {
            rate_per_sec: 100.0,
            burst: 100.0,
            weight: 1,
        }
    }
}

/// The server-wide tenant policy.
#[derive(Debug, Clone, Default)]
pub struct TenantPolicy {
    /// Quota applied to tenants without an explicit entry. `None`
    /// admits unknown tenants without rate limiting (they still count
    /// against fairness).
    pub default: Option<TenantConfig>,
    /// Explicitly configured tenants.
    pub tenants: Vec<(String, TenantConfig)>,
    /// Total in-flight requests across all tenants that the fairness
    /// shares divide. `0` disables the fairness bound.
    pub max_in_flight: usize,
}

impl TenantPolicy {
    /// Register `tenant` with `cfg` (builder style).
    pub fn tenant(mut self, name: &str, cfg: TenantConfig) -> TenantPolicy {
        self.tenants.push((name.to_string(), cfg));
        self
    }
}

struct Bucket {
    cfg: Option<TenantConfig>,
    tokens: f64,
    last: Instant,
    admitted: u64,
    shed: u64,
    in_flight: u64,
}

/// The runtime admission governor (see module docs).
pub struct TenantGov {
    policy: TenantPolicy,
    total_weight: u64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantGov {
    pub fn new(policy: TenantPolicy, start: Instant) -> TenantGov {
        // The fairness denominator: every configured tenant's weight,
        // plus one share of the default weight for the long tail of
        // unconfigured tenants.
        let mut total_weight: u64 = policy
            .tenants
            .iter()
            .map(|(_, c)| u64::from(c.weight.max(1)))
            .sum();
        total_weight += u64::from(policy.default.map_or(1, |c| c.weight.max(1)));
        let mut buckets = HashMap::new();
        for (name, cfg) in &policy.tenants {
            buckets.insert(
                name.clone(),
                Bucket {
                    cfg: Some(*cfg),
                    tokens: cfg.burst,
                    last: start,
                    admitted: 0,
                    shed: 0,
                    in_flight: 0,
                },
            );
        }
        TenantGov {
            policy,
            total_weight,
            buckets: Mutex::new(buckets),
        }
    }

    fn fair_cap(&self, weight: u32) -> u64 {
        if self.policy.max_in_flight == 0 {
            return u64::MAX;
        }
        let share =
            (self.policy.max_in_flight as u64 * u64::from(weight.max(1))) / self.total_weight;
        share.max(1)
    }

    /// Admit or shed one request from `tenant` at the explicit time
    /// `now`. On admission the tenant holds one in-flight slot until
    /// [`TenantGov::release`].
    pub fn admit_at(&self, tenant: &str, now: Instant) -> Result<(), WireError> {
        let mut buckets = self.buckets.lock().unwrap();
        let default_cfg = self.policy.default;
        let b = buckets.entry(tenant.to_string()).or_insert_with(|| Bucket {
            cfg: default_cfg,
            tokens: default_cfg.map_or(0.0, |c| c.burst),
            last: now,
            admitted: 0,
            shed: 0,
            in_flight: 0,
        });
        // Fairness first: an in-flight hog is shed even with tokens in
        // the bucket.
        let weight = b
            .cfg
            .map_or_else(|| default_cfg.map_or(1, |c| c.weight), |c| c.weight);
        if b.in_flight >= self.fair_cap(weight) {
            b.shed += 1;
            return Err(WireError::quota(
                tenant,
                "exceeded its fair share of in-flight requests",
            ));
        }
        if let Some(cfg) = b.cfg {
            let dt = now.saturating_duration_since(b.last).as_secs_f64();
            b.last = now;
            b.tokens = (b.tokens + cfg.rate_per_sec * dt).min(cfg.burst);
            if b.tokens < 1.0 {
                b.shed += 1;
                return Err(WireError::quota(tenant, "is over its request-rate quota"));
            }
            b.tokens -= 1.0;
        }
        b.admitted += 1;
        b.in_flight += 1;
        Ok(())
    }

    /// Admit or shed one request from `tenant` now.
    pub fn admit(&self, tenant: &str) -> Result<(), WireError> {
        self.admit_at(tenant, Instant::now())
    }

    /// Return the in-flight slot taken by an admitted request.
    pub fn release(&self, tenant: &str) {
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(b) = buckets.get_mut(tenant) {
            b.in_flight = b.in_flight.saturating_sub(1);
        }
    }

    /// Per-tenant counters for the metrics snapshot, sorted by name for
    /// stable output.
    pub fn snapshot(&self) -> Vec<TenantCountersSnapshot> {
        let buckets = self.buckets.lock().unwrap();
        let mut out: Vec<TenantCountersSnapshot> = buckets
            .iter()
            .map(|(name, b)| TenantCountersSnapshot {
                tenant: name.clone(),
                admitted: b.admitted,
                shed: b.shed,
                in_flight: b.in_flight,
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_bucket_refills_at_rate_and_caps_at_burst() {
        let t0 = Instant::now();
        let gov = TenantGov::new(
            TenantPolicy::default().tenant(
                "free",
                TenantConfig {
                    rate_per_sec: 2.0,
                    burst: 2.0,
                    weight: 1,
                },
            ),
            t0,
        );
        // Burst of 2 admits immediately, the third sheds.
        assert!(gov.admit_at("free", t0).is_ok());
        assert!(gov.admit_at("free", t0).is_ok());
        let err = gov.admit_at("free", t0).unwrap_err();
        assert_eq!(err.code, "overloaded");
        assert_eq!(err.tenant.as_deref(), Some("free"));
        assert!(err.message.contains("\"free\""), "{}", err.message);
        // Half a second refills one token at 2/s.
        let t1 = t0 + Duration::from_millis(500);
        assert!(gov.admit_at("free", t1).is_ok());
        assert!(gov.admit_at("free", t1).is_err());
        // A long idle period caps at burst, not rate*dt.
        let t2 = t1 + Duration::from_secs(3600);
        assert!(gov.admit_at("free", t2).is_ok());
        assert!(gov.admit_at("free", t2).is_ok());
        assert!(gov.admit_at("free", t2).is_err());
        let snap = gov.snapshot();
        let free = snap.iter().find(|t| t.tenant == "free").unwrap();
        assert_eq!(free.admitted, 5);
        assert_eq!(free.shed, 3);
    }

    #[test]
    fn weighted_fairness_bounds_in_flight_per_tenant() {
        let t0 = Instant::now();
        // 12 slots split 3:1 between "pro" and "free" (plus 1 default
        // share): pro gets 12*3/5 = 7, free gets 12*1/5 = 2.
        let gov = TenantGov::new(
            TenantPolicy {
                default: Some(TenantConfig::unlimited()),
                tenants: vec![
                    (
                        "pro".to_string(),
                        TenantConfig {
                            weight: 3,
                            ..TenantConfig::unlimited()
                        },
                    ),
                    ("free".to_string(), TenantConfig::unlimited()),
                ],
                max_in_flight: 12,
            },
            t0,
        );
        for _ in 0..7 {
            assert!(gov.admit_at("pro", t0).is_ok());
        }
        let err = gov.admit_at("pro", t0).unwrap_err();
        assert_eq!(err.tenant.as_deref(), Some("pro"));
        assert!(err.message.contains("fair share"), "{}", err.message);
        // "free" still has its own slots even with "pro" saturated.
        assert!(gov.admit_at("free", t0).is_ok());
        assert!(gov.admit_at("free", t0).is_ok());
        assert!(gov.admit_at("free", t0).is_err());
        // Releases free slots again.
        gov.release("pro");
        assert!(gov.admit_at("pro", t0).is_ok());
    }

    #[test]
    fn unknown_tenants_use_the_default_quota() {
        let t0 = Instant::now();
        let gov = TenantGov::new(
            TenantPolicy {
                default: Some(TenantConfig {
                    rate_per_sec: 1.0,
                    burst: 1.0,
                    weight: 1,
                }),
                tenants: vec![],
                max_in_flight: 0,
            },
            t0,
        );
        assert!(gov.admit_at("walk-in", t0).is_ok());
        assert!(gov.admit_at("walk-in", t0).is_err());
        // A different unknown tenant has its own bucket.
        assert!(gov.admit_at("other", t0).is_ok());
        // No default at all: admit everything.
        let open = TenantGov::new(TenantPolicy::default(), t0);
        for _ in 0..1000 {
            assert!(open.admit_at("anyone", t0).is_ok());
        }
    }
}
