//! Service counters and per-kind latency histograms behind
//! `GET /metrics`.
//!
//! Counters are plain `AtomicU64`s (lock-free on the request path);
//! the histograms live behind one mutex keyed by job kind, touched
//! once per executed job. The rendering is a single JSON document —
//! the same [`optpower_workload::Json`] writer as every other wire
//! body — so CI can assert counters with nothing fancier than `grep`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use optpower_workload::Json;

/// Schema tag of the metrics document.
pub const METRICS_SCHEMA: &str = "optpower-metrics/v1";

/// Wall-clock histogram bucket upper bounds, in milliseconds. The
/// last bucket is unbounded.
const BUCKET_UPPER_MS: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// One job kind's wall-time histogram.
#[derive(Debug, Default, Clone)]
struct Hist {
    /// Counts per bucket: `BUCKET_UPPER_MS` plus the overflow bucket.
    counts: [u64; 6],
    total_ms: f64,
    samples: u64,
}

impl Hist {
    fn record(&mut self, wall_ms: f64) {
        let ix = BUCKET_UPPER_MS
            .iter()
            .position(|&upper| wall_ms <= upper)
            .unwrap_or(BUCKET_UPPER_MS.len());
        self.counts[ix] += 1;
        self.total_ms += wall_ms;
        self.samples += 1;
    }
}

/// The service's observable state, shared by every thread.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs admitted (queued or served from cache).
    pub accepted: AtomicU64,
    /// Artifacts served over the wire (cache hits included).
    pub served: AtomicU64,
    /// Submissions refused with `429 queue_full`.
    pub rejected_queue_full: AtomicU64,
    /// Submissions refused for any other client-side reason (bad
    /// spec, unacceptable format, draining, oversized body).
    pub rejected_other: AtomicU64,
    /// Jobs that executed and failed.
    pub failed: AtomicU64,
    /// Admissions answered straight from the artifact cache.
    pub cache_hits: AtomicU64,
    /// Admissions that had to execute.
    pub cache_misses: AtomicU64,
    /// Per-architecture characterization rows served from the
    /// incremental row cache across all executed jobs.
    pub row_cache_hits: AtomicU64,
    /// Characterization rows simulated fresh (and inserted).
    pub row_cache_misses: AtomicU64,
    /// Synchronous waits that gave up with `504 timeout`.
    pub timeouts: AtomicU64,
    /// Shards lost in flight to a worker that died or fell silent past
    /// the timeout (at most one per dead host per round), summed
    /// across distributed runs.
    pub dist_retries: AtomicU64,
    /// Shards answered from the coordinator's shard cache.
    pub shard_cache_hits: AtomicU64,
    /// Shards that travelled to a worker.
    pub shard_cache_misses: AtomicU64,
    /// Completed shards per worker host, summed across distributed
    /// runs (every configured host present, zero included).
    dist_hosts: Mutex<BTreeMap<String, u64>>,
    hist: Mutex<BTreeMap<String, Hist>>,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed job's wall time under its kind.
    pub fn record_wall(&self, kind: &str, wall_ms: f64) {
        let mut hist = self.hist.lock().unwrap_or_else(|e| e.into_inner());
        hist.entry(kind.to_string()).or_default().record(wall_ms);
    }

    /// Folds one distributed run's per-host shard counts into the
    /// service totals (hosts that completed nothing still appear, so
    /// a dead worker is visible as a flat line, not a missing one).
    pub fn record_dist_hosts(&self, per_host: &BTreeMap<String, u64>) {
        let mut hosts = self.dist_hosts.lock().unwrap_or_else(|e| e.into_inner());
        for (host, shards) in per_host {
            *hosts.entry(host.clone()).or_insert(0) += shards;
        }
    }

    /// The `optpower-metrics/v1` JSON document. `queue_depth` is
    /// sampled by the caller (the queue owns that number).
    pub fn render(&self, queue_depth: usize, state: &str) -> String {
        let get = |c: &AtomicU64| Json::UInt(c.load(Ordering::Relaxed));
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let hit_rate = if hits + misses == 0 {
            Json::Null
        } else {
            Json::num(hits as f64 / (hits + misses) as f64)
        };
        let dist_hosts: Vec<(String, Json)> = self
            .dist_hosts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(host, &shards)| (host.clone(), Json::UInt(shards)))
            .collect();
        let hist = self.hist.lock().unwrap_or_else(|e| e.into_inner());
        let kinds: Vec<(String, Json)> = hist
            .iter()
            .map(|(kind, h)| {
                let mut bounds: Vec<Json> = BUCKET_UPPER_MS.iter().map(|&b| Json::num(b)).collect();
                bounds.push(Json::Null);
                (
                    kind.clone(),
                    Json::obj([
                        ("samples", Json::UInt(h.samples)),
                        ("total_ms", Json::num(h.total_ms)),
                        ("bucket_upper_ms", Json::Arr(bounds)),
                        (
                            "bucket_counts",
                            Json::Arr(h.counts.iter().map(|&c| Json::UInt(c)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("schema", Json::str(METRICS_SCHEMA)),
            ("state", Json::str(state)),
            ("accepted", get(&self.accepted)),
            ("served", get(&self.served)),
            ("rejected_queue_full", get(&self.rejected_queue_full)),
            ("rejected_other", get(&self.rejected_other)),
            ("failed", get(&self.failed)),
            ("cache_hits", get(&self.cache_hits)),
            ("cache_misses", get(&self.cache_misses)),
            ("cache_hit_rate", hit_rate),
            ("row_cache_hits", get(&self.row_cache_hits)),
            ("row_cache_misses", get(&self.row_cache_misses)),
            ("timeouts", get(&self.timeouts)),
            ("dist_hosts", Json::Obj(dist_hosts)),
            ("dist_retries", get(&self.dist_retries)),
            ("shard_cache_hits", get(&self.shard_cache_hits)),
            ("shard_cache_misses", get(&self.shard_cache_misses)),
            ("queue_depth", Json::UInt(queue_depth as u64)),
            ("wall_ms_by_kind", Json::Obj(kinds)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_hit_rate_render() {
        let m = Metrics::default();
        Metrics::bump(&m.accepted);
        Metrics::bump(&m.served);
        Metrics::bump(&m.cache_hits);
        Metrics::bump(&m.cache_misses);
        m.row_cache_hits.fetch_add(2, Ordering::Relaxed);
        m.dist_retries.fetch_add(1, Ordering::Relaxed);
        let mut hosts = BTreeMap::new();
        hosts.insert("h1:1".to_string(), 3u64);
        hosts.insert("h2:1".to_string(), 0u64);
        m.record_dist_hosts(&hosts);
        m.record_dist_hosts(&hosts);
        m.record_wall("table2", 0.5);
        m.record_wall("table2", 50.0);
        m.record_wall("table2", 99_999.0);
        let doc = m.render(3, "running");
        assert!(doc.contains(r#""schema":"optpower-metrics/v1""#));
        assert!(doc.contains(r#""cache_hit_rate":0.5"#));
        assert!(doc.contains(r#""row_cache_hits":2"#));
        assert!(doc.contains(r#""row_cache_misses":0"#));
        assert!(doc.contains(r#""queue_depth":3"#));
        assert!(doc.contains(r#""dist_hosts":{"h1:1":6,"h2:1":0}"#));
        assert!(doc.contains(r#""dist_retries":1"#));
        assert!(doc.contains(r#""bucket_counts":[1,0,1,0,0,1]"#));
    }
}
