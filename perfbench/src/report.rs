//! The result line: end-to-end metrics on untraced runs, per-layer
//! metrics on traced runs, printed as the last line of stdout.

use std::collections::{BTreeMap, HashMap};

use crate::stats::{median, percentile, sorted, tail_q};

/// Every per-layer metric with its unit. Each traced run prints all of
/// them; a layer the workload never enters reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("mult.generate_ms", "ms"),
    ("sta.lint_ms", "ms"),
    ("sta.analyze_ms", "ms"),
    ("netlist.stats_ms", "ms"),
    ("workload.preflight_share", "frac"),
    ("explore.timed_ms", "ms"),
    ("explore.timed_ns_per_vector", "ns"),
    ("sim.baseline_ms", "ms"),
    ("sim.baseline_ns_per_vector", "ns"),
    ("core.optimize_ms", "ms"),
    ("report.sweep_ms", "ms"),
    ("workload.parse_ms", "ms"),
    ("workload.key_ms", "ms"),
    ("workload.render_json_ms", "ms"),
    ("workload.render_csv_ms", "ms"),
    ("workload.render_text_ms", "ms"),
    ("workload.artifact_hit_ratio", "frac"),
    ("workload.row_hit_ratio", "frac"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.refused", "count"),
    ("serve.queue_depth_max", "count"),
    ("dist.overhead_ms", "ms"),
    ("dist.overhead_share", "frac"),
    ("dist.merge_ms", "ms"),
    ("dist.retries", "count"),
    ("loadgen.late_ms_p90", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.coverage", "frac"),
    ("trace.sim_share", "frac"),
    ("failed_frac", "frac"),
];

/// What one run attempted, how it went, and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The end-to-end measurements of an untraced run.
pub struct EndToEnd {
    /// Median of the set-up repetitions, in seconds.
    pub setup_s: f64,
    /// Per-job latency of every attempted job, in ms.
    pub latencies_ms: Vec<f64>,
    /// Correct completions (within the latency limit, where the
    /// workload has one) per second of the measured window.
    pub goodput_per_s: f64,
    /// Process CPU time over the window per attempted job, in ms.
    pub cpu_ms_per_job: f64,
    /// Correct completions over attempted jobs.
    pub ok_frac: f64,
    /// Peak resident memory in MiB, read when the window closes (before
    /// the output check runs its reference jobs).
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let lat = sorted(&self.latencies_ms);
        vec![
            ("setup_s", self.setup_s, "s"),
            ("job_p50_ms", percentile(&lat, 0.5), "ms"),
            ("job_p90_ms", percentile(&lat, tail_q(lat.len())), "ms"),
            ("goodput_per_s", self.goodput_per_s, "1/s"),
            ("cpu_ms_per_job", self.cpu_ms_per_job, "ms"),
            ("ok_frac", self.ok_frac, "frac"),
            ("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ]
    }
}

/// Per-layer values of a traced run, all starting at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Self(LAYERS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    /// Sets `name` to the median of `values` (0 when empty).
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        self.set(name, median(values));
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        LAYERS.iter().map(|&(n, u)| (n, self.0[n], u)).collect()
    }
}

/// Per-job samples of per-layer metrics, reported as medians.
#[derive(Default)]
pub struct Samples(HashMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    /// Every sampled metric at its median; the rest at 0.
    pub fn layers(&self) -> Layers {
        let mut layers = Layers::new();
        for (metric, values) in &self.0 {
            layers.set_median(metric, values);
        }
        layers
    }
}

/// Prints the result object as the last line of stdout.
pub fn print(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}
