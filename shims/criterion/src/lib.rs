//! Offline stand-in for the subset of the `criterion` crate this
//! workspace uses: `Criterion::bench_function`, `Bencher::iter` /
//! `iter_batched`, `BatchSize`, and the `criterion_group!` /
//! `criterion_main!` macros, plus one addition of its own,
//! `Criterion::bench_pair`, which samples two rows in one interleaved
//! window.
//!
//! The build environment has no network access, so the real crates.io
//! `criterion` cannot be fetched; `[workspace.dependencies]` points
//! `criterion` at this path instead. The shim keeps the same bench
//! entry-point shape (`harness = false` targets build and run under
//! `cargo bench`) but replaces the statistical machinery with a simple
//! warm-up + timed-loop mean/min report. Numbers are indicative, not
//! rigorous; the primary contract is that every bench target compiles
//! and runs to completion.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How per-iteration setup output is batched (accepted and ignored by
/// the shim; every iteration gets a fresh setup value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
    /// Fixed number of batches.
    NumBatches(u64),
    /// Fixed number of iterations per batch.
    NumIterations(u64),
}

/// Running mean and minimum of one row's samples, in nanoseconds.
#[derive(Clone, Copy)]
struct Samples {
    count: usize,
    mean_ns: f64,
    min_ns: f64,
}

impl Samples {
    const EMPTY: Samples = Samples {
        count: 0,
        mean_ns: f64::INFINITY,
        min_ns: f64::INFINITY,
    };

    /// Times one call of `routine` and records it.
    fn time<O>(&mut self, routine: impl FnOnce() -> O) {
        let t = Instant::now();
        black_box(routine());
        let ns = t.elapsed().as_nanos() as f64;
        self.min_ns = self.min_ns.min(ns);
        self.mean_ns = if self.count == 0 {
            ns
        } else {
            self.mean_ns + (ns - self.mean_ns) / (self.count as f64 + 1.0)
        };
        self.count += 1;
    }

    /// The `(mean, min)` pair a row reports.
    fn result(self) -> (f64, f64) {
        (self.mean_ns, self.min_ns)
    }
}

/// Timing loop handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// Mean/min nanoseconds per iteration, filled by `iter*`.
    result: Option<(f64, f64)>,
}

impl Bencher {
    /// Times `routine` in a loop.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up: at least one call, until the warm-up budget is spent.
        let warm_start = Instant::now();
        loop {
            black_box(routine());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let mut samples = Samples::EMPTY;
        let budget_start = Instant::now();
        // At least `sample_size` samples, then keep sampling until the
        // measurement budget is spent: the min over the whole budget is
        // what makes the speedup rows robust against scheduler noise on
        // shared runners (a short burst of contention cannot poison
        // every sample of a multi-second window).
        while samples.count < self.sample_size || budget_start.elapsed() < self.measurement_time {
            samples.time(&mut routine);
        }
        self.result = Some(samples.result());
    }

    /// Times `routine` with a fresh `setup()` value per iteration.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        loop {
            let input = setup();
            black_box(routine(input));
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let mut samples = Samples::EMPTY;
        let budget_start = Instant::now();
        // Same sampling policy as `iter`: at least `sample_size`
        // samples, then fill the measurement budget (setup time counts
        // against the budget but not against the timed sections).
        while samples.count < self.sample_size || budget_start.elapsed() < self.measurement_time {
            let input = setup();
            samples.time(|| routine(input));
        }
        self.result = Some(samples.result());
    }

    /// Variant of `iter_batched` that takes the input by reference.
    pub fn iter_batched_ref<I, O, S, F>(&mut self, mut setup: S, mut routine: F, size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(&mut I) -> O,
    {
        self.iter_batched(&mut setup, |mut input| routine(&mut input), size);
    }
}

/// Benchmark driver (subset of the real `Criterion`).
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            result: None,
        };
        f(&mut b);
        report(id, b.result);
        self
    }

    /// Runs two named benchmarks in one interleaved window, for a pair
    /// of rows whose ratio is gated: each round times one call of `a`
    /// and one of `b`, alternating which goes first, so drift on the
    /// host lands on both rows alike instead of on whichever window
    /// ran second. Both rows are printed as `bench_function` prints
    /// them, `a` first. The window is the same as one row's: at least
    /// `sample_size` rounds, then rounds until the measurement budget
    /// is spent.
    pub fn bench_pair<A, B, OA, OB>(
        &mut self,
        id_a: &str,
        mut a: A,
        id_b: &str,
        mut b: B,
    ) -> &mut Self
    where
        A: FnMut() -> OA,
        B: FnMut() -> OB,
    {
        let warm_start = Instant::now();
        loop {
            black_box(a());
            black_box(b());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let (mut sa, mut sb) = (Samples::EMPTY, Samples::EMPTY);
        let budget_start = Instant::now();
        while sa.count < self.sample_size || budget_start.elapsed() < self.measurement_time {
            if sa.count % 2 == 0 {
                sa.time(&mut a);
                sb.time(&mut b);
            } else {
                sb.time(&mut b);
                sa.time(&mut a);
            }
        }
        report(id_a, Some(sa.result()));
        report(id_b, Some(sb.result()));
        self
    }

    /// Called by `criterion_main!` after all groups (report hook in the
    /// real crate; a no-op here).
    pub fn final_summary(&mut self) {}
}

/// Prints one row: `bench <id> mean <t> min <t>`, the line
/// `scripts/parse_bench.py` reads.
fn report(id: &str, result: Option<(f64, f64)>) {
    match result {
        Some((mean, min)) => println!(
            "bench {id:<48} mean {} min {}",
            format_ns(mean),
            format_ns(min)
        ),
        None => println!("bench {id:<48} (no timing loop executed)"),
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:>9.3} s ", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:>9.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:>9.3} µs", ns / 1e3)
    } else {
        format!("{ns:>9.1} ns")
    }
}

/// Declares a benchmark group: either the attribute form with `name =`,
/// `config =`, `targets =`, or the positional `group!(name, fn...)`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench `main` that runs each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_the_closure() {
        let mut c = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(1));
        let mut calls = 0u64;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        assert!(calls > 0, "routine never ran");
    }

    #[test]
    fn bench_pair_alternates_which_row_goes_first() {
        let mut c = Criterion::default()
            .sample_size(4)
            .measurement_time(Duration::ZERO)
            .warm_up_time(Duration::ZERO);
        let calls = std::cell::RefCell::new(Vec::new());
        c.bench_pair(
            "shim/pair_a",
            || calls.borrow_mut().push('a'),
            "shim/pair_b",
            || calls.borrow_mut().push('b'),
        );
        // One warm-up call each, then four rounds, alternating order.
        assert_eq!(calls.into_inner().iter().collect::<String>(), "ababbaabba");
    }

    #[test]
    fn iter_batched_gets_fresh_inputs() {
        let mut c = Criterion::default()
            .sample_size(4)
            .measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(1));
        let mut setups = 0u64;
        c.bench_function("shim/batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 16]
                },
                |v| v.len(),
                BatchSize::SmallInput,
            )
        });
        assert!(setups >= 2, "setup ran {setups} times");
    }
}
