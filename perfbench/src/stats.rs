//! Order statistics, process resource readings, the seeded generator
//! every input derives from, and the payload digest the output checks
//! compare.

use std::time::Duration;

/// Linear-interpolated percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The samples in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples; 0 when there are none (a layer the
/// workload never entered spent no time).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 0.5)
}

/// The tail quantile reported as `job_p90_ms`: 0.9, or the highest
/// quantile that still has ten samples above it when a run has fewer
/// than a hundred jobs.
pub fn tail_q(samples: usize) -> f64 {
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.9)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User plus system CPU seconds of this process, all threads included
/// (live and exited), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 Hz).
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// SplitMix64: the benchmark's only source of variation, seeded from
/// `--seed`, so the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over the concatenation of `parts`.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest of the deterministic payload document inside a full JSON
/// envelope: the envelope is the payload object with a trailing
/// `"meta"` member, so the payload is everything before that member
/// plus the closing brace. `None` when the body has no `meta` member.
pub fn payload_digest(envelope: &str) -> Option<u64> {
    let cut = envelope.rfind(",\"meta\":")?;
    Some(digest(&[&envelope.as_bytes()[..cut], b"}"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(tail_q(1000), 0.9);
        assert!((tail_q(50) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn payload_digest_strips_meta() {
        let payload = r#"{"schema":"x","payload":[1,2]}"#;
        let envelope = r#"{"schema":"x","payload":[1,2],"meta":{"wall_ms":3.5}}"#;
        assert_eq!(
            payload_digest(envelope),
            Some(digest(&[payload.as_bytes()]))
        );
    }
}
