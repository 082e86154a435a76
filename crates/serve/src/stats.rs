//! Request telemetry: per-endpoint counters and a lock-free latency
//! histogram with p50/p99 readout.
//!
//! The histogram uses fixed bucket edges (linear 25 µs steps under 1 ms,
//! 1 ms steps to 100 ms, 100 ms steps to 6.1 s, then one overflow bucket)
//! so recording is a single relaxed atomic increment on the hot path and
//! quantiles are a cumulative walk at read time. Reported quantiles are
//! bucket upper bounds — a ≤ 25 µs quantisation under 1 ms, which is
//! plenty for a req/s benchmark and costs no locking.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

const LINEAR_US_STEP: u64 = 25;
const LINEAR_US_BUCKETS: usize = 40; // [0, 1 ms) in 25 µs steps
const MS_BUCKETS: usize = 99; // [1 ms, 100 ms) in 1 ms steps
const COARSE_BUCKETS: usize = 60; // [100 ms, 6.1 s) in 100 ms steps
const BUCKETS: usize = LINEAR_US_BUCKETS + MS_BUCKETS + COARSE_BUCKETS + 1;

fn bucket_of(us: u64) -> usize {
    if us < 1_000 {
        (us / LINEAR_US_STEP) as usize
    } else if us < 100_000 {
        LINEAR_US_BUCKETS + (us / 1_000) as usize - 1
    } else if us < 6_100_000 {
        LINEAR_US_BUCKETS + MS_BUCKETS + (us / 100_000) as usize - 1
    } else {
        BUCKETS - 1
    }
}

/// Inclusive upper bound (µs) of a bucket.
fn bucket_upper_us(idx: usize) -> u64 {
    if idx < LINEAR_US_BUCKETS {
        (idx as u64 + 1) * LINEAR_US_STEP
    } else if idx < LINEAR_US_BUCKETS + MS_BUCKETS {
        ((idx - LINEAR_US_BUCKETS) as u64 + 2) * 1_000
    } else if idx < BUCKETS - 1 {
        ((idx - LINEAR_US_BUCKETS - MS_BUCKETS) as u64 + 2) * 100_000
    } else {
        u64::MAX
    }
}

/// Fixed-bucket latency histogram (atomic counters).
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Quantile `q` in [0, 1], as a bucket upper bound in µs. Returns 0
    /// with no observations.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the target observation (1-based, ceil).
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                if idx == BUCKETS - 1 {
                    // Overflow bucket: the max is the best bound we have.
                    return self.max_us.load(Ordering::Relaxed);
                }
                return bucket_upper_us(idx);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Sparse cumulative bucket series: one entry per *occupied* bucket,
    /// in ascending bound order, each carrying the cumulative count at
    /// its inclusive upper bound. The overflow bucket reports
    /// `upper_us == u64::MAX` (rendered `+Inf` in the Prometheus
    /// exposition). Empty buckets are elided — a valid Prometheus
    /// histogram only needs monotone cumulative counts at the bounds it
    /// exposes, and eliding the ~200-bucket axis keeps scrapes small.
    pub fn cumulative_buckets(&self) -> Vec<LatencyBucket> {
        let mut series = Vec::new();
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            cumulative += n;
            series.push(LatencyBucket {
                upper_us: bucket_upper_us(idx),
                cumulative,
            });
        }
        series
    }

    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count();
        let total_us = self.total_us.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            total_us,
            mean_us: if count == 0 {
                0.0
            } else {
                total_us as f64 / count as f64
            },
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self.cumulative_buckets(),
        }
    }
}

/// One occupied histogram bucket: cumulative observations at (and
/// below) its inclusive upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LatencyBucket {
    /// Inclusive upper bound in µs (`u64::MAX` = the overflow bucket,
    /// exposed as `+Inf`).
    pub upper_us: u64,
    pub cumulative: u64,
}

/// Latency figures for `GET /v1/stats` and the bench report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencySnapshot {
    pub count: u64,
    /// Exact sum of all observations (the Prometheus summary `_sum`;
    /// monotone between scrapes, unlike a mean×count reconstruction).
    pub total_us: u64,
    pub mean_us: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// Occupied cumulative buckets — the native `_bucket` series of the
    /// Prometheus exposition.
    pub buckets: Vec<LatencyBucket>,
}

/// Per-endpoint request counters.
#[derive(Default)]
pub struct RequestCounters {
    pub audit: AtomicU64,
    pub batch: AtomicU64,
    /// Pages audited inside batch requests.
    pub batch_pages: AtomicU64,
    /// `POST /v1/rpc/*` requests answered by the embedder's hook.
    pub rpc: AtomicU64,
    pub healthz: AtomicU64,
    pub stats: AtomicU64,
    /// 4xx/5xx answers (routing errors + protocol errors).
    pub errors: AtomicU64,
    /// Connections refused with `503 + Retry-After` by the governor.
    pub shed: AtomicU64,
    /// Connections closed with `408` by the request deadline (slowloris).
    pub timeouts: AtomicU64,
    /// Requests whose handling panicked: answered `500` and closed, or,
    /// for a streamed batch, cut mid-stream when a pool worker panicked.
    pub panics: AtomicU64,
}

impl RequestCounters {
    pub fn snapshot(&self) -> RequestSnapshot {
        RequestSnapshot {
            audit: self.audit.load(Ordering::Relaxed),
            batch: self.batch.load(Ordering::Relaxed),
            batch_pages: self.batch_pages.load(Ordering::Relaxed),
            rpc: self.rpc.load(Ordering::Relaxed),
            healthz: self.healthz.load(Ordering::Relaxed),
            stats: self.stats.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestSnapshot {
    pub audit: u64,
    pub batch: u64,
    pub batch_pages: u64,
    pub rpc: u64,
    pub healthz: u64,
    pub stats: u64,
    pub errors: u64,
    pub shed: u64,
    pub timeouts: u64,
    pub panics: u64,
}

impl RequestSnapshot {
    /// All successfully routed requests.
    pub fn total(&self) -> u64 {
        self.audit + self.batch + self.rpc + self.healthz + self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_axis_monotonically() {
        let mut prev = 0;
        for idx in 0..BUCKETS - 1 {
            let upper = bucket_upper_us(idx);
            assert!(upper > prev, "bucket {idx}");
            prev = upper;
        }
        // Every value maps into a bucket whose bound is >= the value.
        for us in [0, 1, 24, 25, 999, 1_000, 55_123, 99_999, 100_000, 5_999_999] {
            let idx = bucket_of(us);
            assert!(idx < BUCKETS);
            assert!(bucket_upper_us(idx) >= us, "us={us} idx={idx}");
        }
        assert_eq!(bucket_of(10_000_000), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = LatencyHistogram::default();
        // 99 fast observations and one slow outlier.
        for _ in 0..99 {
            h.record_us(40);
        }
        h.record_us(80_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        assert!(p50 <= 50, "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 <= 50, "p99 must still sit in the fast mass, got {p99}");
        let p100 = h.quantile_us(1.0);
        assert!(p100 >= 80_000, "max quantile {p100}");
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean_us, 0.0);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let h = LatencyHistogram::default();
        h.record_us(7_000_000);
        assert_eq!(h.quantile_us(0.5), 7_000_000);
    }

    #[test]
    fn snapshot_serializes() {
        let h = LatencyHistogram::default();
        h.record_us(100);
        h.record_us(300);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert!((snap.mean_us - 200.0).abs() < 1e-9);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"buckets\""));
    }

    #[test]
    fn cumulative_buckets_are_sparse_and_monotone() {
        let h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record_us(40); // bucket [25, 50)
        }
        h.record_us(40_500); // a 1 ms-step bucket
        h.record_us(40_700); // same bucket
        h.record_us(7_000_000); // overflow
        let series = h.cumulative_buckets();
        // Only the three occupied buckets appear.
        assert_eq!(series.len(), 3);
        assert_eq!(
            series[0],
            LatencyBucket {
                upper_us: 50,
                cumulative: 10
            }
        );
        assert_eq!(series[1].cumulative, 12);
        assert!(series[1].upper_us >= 40_700);
        assert_eq!(
            series[2],
            LatencyBucket {
                upper_us: u64::MAX,
                cumulative: 13
            }
        );
        // Monotone in both coordinates, final cumulative == count.
        for pair in series.windows(2) {
            assert!(pair[0].upper_us < pair[1].upper_us);
            assert!(pair[0].cumulative < pair[1].cumulative);
        }
        assert_eq!(series.last().unwrap().cumulative, h.count());
    }

    #[test]
    fn empty_histogram_has_no_buckets() {
        assert!(LatencyHistogram::default().cumulative_buckets().is_empty());
    }

    #[test]
    fn counters_total() {
        let c = RequestCounters::default();
        c.audit.fetch_add(3, Ordering::Relaxed);
        c.healthz.fetch_add(1, Ordering::Relaxed);
        c.errors.fetch_add(2, Ordering::Relaxed);
        c.shed.fetch_add(5, Ordering::Relaxed);
        c.timeouts.fetch_add(1, Ordering::Relaxed);
        c.panics.fetch_add(4, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(
            snap.total(),
            4,
            "shed/timeout/panicked requests never routed"
        );
        assert_eq!(snap.errors, 2);
        assert_eq!(snap.shed, 5);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.panics, 4);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"shed\":5"));
        assert!(json.contains("\"timeouts\":1"));
        assert!(json.contains("\"panics\":4"));
    }
}
