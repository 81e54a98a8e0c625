//! In-memory spans recorded around the calls the benchmark makes into
//! each crate's public functions. Nothing inside the program is
//! instrumented: a span is the wall time of one call as seen from the
//! benchmark. Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: its layer name, the traced job it belongs to, the
/// span that caused it, and its interval since the tracer started.
pub struct Span {
    pub job: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    origin: Instant,
    open: Vec<usize>,
    job: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            open: Vec::new(),
            job: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a traced job: a root span whose children are the layer
    /// calls `f` makes. Returns the job id with `f`'s result.
    pub fn job<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (u64, R) {
        assert!(self.open.is_empty(), "jobs do not nest");
        self.job += 1;
        let id = self.job;
        (id, self.span(name, f))
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let ix = self.spans.len();
        self.spans.push(Span {
            job: self.job,
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(ix);
        let out = f(self);
        self.open.pop();
        self.spans[ix].end = self.origin.elapsed();
        out
    }

    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// One job's breakdown: self time in ms per layer name, plus the
    /// root span's whole duration under `"wall"`.
    pub fn breakdown(&self, job: u64) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own).filter(|(s, _)| s.job == job) {
            *out.entry(s.name).or_insert(0.0) += t.as_secs_f64() * 1e3;
            if s.parent.is_none() {
                out.insert("wall", (s.end - s.start).as_secs_f64() * 1e3);
            }
        }
        out
    }

    /// Inclusive time in ms of every span named `name` in one job.
    pub fn inclusive(&self, job: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Writes every span as one JSON line (times in microseconds).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, t)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"job\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.job,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                t.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        let (job, ()) = tr.job("root", |tr| {
            tr.span("a", |_| std::thread::sleep(Duration::from_millis(4)));
            tr.span("b", |tr| {
                tr.span("a", |_| std::thread::sleep(Duration::from_millis(2)));
            });
        });
        let b = tr.breakdown(job);
        assert!(b["a"] >= 6.0);
        assert!(b["b"] < 1.0);
        assert!(b["root"] < 1.0);
        assert!(b["wall"] >= b["a"]);
    }
}
