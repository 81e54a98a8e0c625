//! A std-only scoped-thread worker pool.
//!
//! The workspace is offline (no `rayon`), so parallelism is built from
//! `std::thread::scope` plus an atomic work-stealing cursor: every
//! worker repeatedly claims the next unclaimed index, computes it, and
//! stashes `(index, result)` locally; results are merged and re-sorted
//! into input order at the end. Work-stealing keeps cores busy even
//! when per-item cost varies wildly (e.g. boundary-pinned optimiser
//! runs are much cheaper than interior ones).
//!
//! Panics inside a worker propagate out of [`par_map_indexed`] — a
//! poisoned evaluation never yields a silently truncated result.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of workers the host can usefully run in parallel
/// (`std::thread::available_parallelism`, with a fallback of 1).
pub fn available_workers() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker-count policy for the parallel primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workers {
    /// One worker per available core ([`available_workers`]).
    #[default]
    Auto,
    /// An explicit worker count; `Fixed(0)` and `Fixed(1)` both run
    /// serially on the calling thread.
    Fixed(usize),
}

impl Workers {
    /// The concrete thread count of the policy: [`available_workers`]
    /// for `Auto`, never fewer than 1 for `Fixed`.
    pub fn count(self) -> usize {
        match self {
            Workers::Auto => available_workers(),
            Workers::Fixed(n) => n.max(1),
        }
    }

    /// Resolves the policy to a concrete thread count for `n_items`
    /// work items (never more threads than items, never fewer than 1).
    pub fn resolve(self, n_items: usize) -> usize {
        self.count().min(n_items.max(1))
    }
}

/// Maps `f` over `0..n` on `workers` scoped threads and returns the
/// results in index order.
///
/// The result is identical to `(0..n).map(f).collect()` for any pure
/// `f`, whatever the worker count — the scheduling only decides *who*
/// computes each index, never *what* is computed. `workers <= 1` (or
/// `n <= 1`) short-circuits to exactly that serial loop.
pub fn par_map_indexed<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                merged
                    .lock()
                    .expect("a sibling worker panicked; scope will propagate it")
                    .extend(local);
            });
        }
    });
    let mut pairs = merged
        .into_inner()
        .expect("all workers joined without panicking");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over a slice on `workers` scoped threads, preserving input
/// order. See [`par_map_indexed`] for the determinism contract.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), workers, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_every_worker_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64, 1000] {
            let got = par_map(&items, workers, |&x| x * x);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert_eq!(par_map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_work_is_stolen_not_dropped() {
        // Index 0 is ~1000x more expensive than the rest; stealing must
        // still produce every result exactly once, in order.
        let n = 200;
        let got = par_map_indexed(n, 4, |i| {
            let spins = if i == 0 { 100_000 } else { 100 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        assert_eq!(got.len(), n);
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn workers_policy_resolution() {
        assert_eq!(Workers::Fixed(8).resolve(3), 3, "capped by items");
        assert_eq!(Workers::Fixed(0).resolve(10), 1, "floor of one");
        assert_eq!(Workers::Fixed(4).resolve(0), 1, "empty input");
        let auto = Workers::Auto.resolve(1_000_000);
        assert!((1..=1_000_000).contains(&auto));
        assert_eq!(Workers::default(), Workers::Auto);
    }

    // `thread::scope` re-panics with its own "a scoped thread panicked"
    // payload rather than forwarding ours, so match on that.
    #[test]
    #[should_panic(expected = "panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_indexed(16, 4, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Scheduling never changes results: for arbitrary sizes and
        /// worker counts, `par_map_indexed` equals the serial map.
        #[test]
        fn par_map_equals_serial_map(n in 0usize..300, workers in 0usize..40, seed in any::<u64>()) {
            let f = |i: usize| {
                (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
            };
            let serial: Vec<u64> = (0..n).map(f).collect();
            prop_assert_eq!(par_map_indexed(n, workers, f), serial);
        }

        /// `Workers::resolve` always lands in `[1, max(n, 1)]`.
        #[test]
        fn resolve_stays_in_bounds(requested in 0usize..10_000, n in 0usize..10_000) {
            for policy in [Workers::Fixed(requested), Workers::Auto] {
                let resolved = policy.resolve(n);
                prop_assert!(resolved >= 1);
                prop_assert!(resolved <= n.max(1));
            }
        }
    }
}
