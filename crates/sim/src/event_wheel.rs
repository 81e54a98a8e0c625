//! An indexed bucket queue (timing wheel) over integer ticks — the
//! event queue of [`crate::TimedSim`].
//!
//! A gate-level simulator's events have a strong structure: every
//! event is scheduled at `now + delay` with `1 ≤ delay ≤ max_delay`,
//! so at any instant all pending events fall inside the horizon
//! `(now, now + max_delay]`. With a wheel size `W` above the largest
//! delay, mapping tick `t` to bucket `t & (W − 1)` is collision-free
//! among pending events: a bucket never mixes two distinct ticks, and
//! no push lands in the bucket of the tick being processed.
//!
//! An entry is a bare 4-byte net id. The engine keeps each event's due
//! tick and value in the net's pending word and decides liveness when
//! the entry is popped, so the wheel only orders net ids by tick:
//!
//! * [`EventWheel::push`] is O(1) and branch-free: it writes the
//!   bucket's next slot and advances the bucket's length by the
//!   caller's `live` flag, so an evaluation that schedules nothing
//!   costs the same straight-line code as one that does;
//! * [`EventWheel::pop_run`] hands out the whole earliest bucket at
//!   once, in push order, hopping to it through a word-scanned
//!   occupancy bitmap.

/// One tick's entries: net ids in push order. Its slot storage always
/// has room for one more entry, so a push never branches on whether it
/// schedules anything.
#[derive(Debug, Clone)]
pub(crate) struct Bucket {
    /// Slot storage; `slots.len() > len` always.
    slots: Vec<u32>,
    /// Entries in use.
    len: usize,
}

impl Default for Bucket {
    fn default() -> Self {
        Self {
            slots: vec![0],
            len: 0,
        }
    }
}

impl Bucket {
    /// The entries, in push order.
    pub(crate) fn nets(&self) -> &[u32] {
        &self.slots[..self.len]
    }
}

/// The timing wheel; see the module docs for the design.
#[derive(Debug, Clone)]
pub(crate) struct EventWheel {
    /// `W` buckets, `W` a power of two strictly greater than the
    /// largest delay, so pending entries never alias within a bucket.
    buckets: Vec<Bucket>,
    /// One bit per bucket: set iff the bucket holds entries.
    occupied: Vec<u64>,
    /// `W − 1`, for the `tick & mask` bucket map.
    mask: u64,
    /// The tick last handed out by [`EventWheel::pop_run`].
    cursor: u64,
}

impl EventWheel {
    /// A wheel able to schedule any delay in `1..=max_delay`.
    pub(crate) fn new(max_delay: u64) -> Self {
        let size = (max_delay + 1).next_power_of_two() as usize;
        Self {
            buckets: vec![Bucket::default(); size],
            occupied: vec![0; size.div_ceil(64)],
            mask: size as u64 - 1,
            cursor: 0,
        }
    }

    /// Rewinds the wheel to tick 0 with no entries, keeping slot
    /// capacity (the simulator calls this at every cycle edge, so the
    /// steady state allocates nothing).
    pub(crate) fn reset(&mut self) {
        if self.occupied.iter().any(|&w| w != 0) {
            // Abandoning pending entries (after an oscillation error).
            for b in &mut self.buckets {
                b.len = 0;
            }
            self.occupied.iter_mut().for_each(|w| *w = 0);
        }
        self.cursor = 0;
    }

    /// Writes `net` into the next slot of `tick`'s bucket and keeps it
    /// iff `live`: a dead write is overwritten by the bucket's next
    /// push. `tick` must lie in `(cursor, cursor + W)` — guaranteed
    /// when every delay is in `1..=max_delay` and time never flows
    /// backwards.
    #[inline]
    pub(crate) fn push(&mut self, tick: u64, net: u32, live: bool) {
        debug_assert!(
            tick > self.cursor,
            "entry scheduled at or before the cursor"
        );
        debug_assert!(tick - self.cursor <= self.mask, "entry beyond horizon");
        let b = (tick & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        bucket.slots[bucket.len] = net;
        bucket.len += usize::from(live);
        if bucket.len == bucket.slots.len() {
            bucket.slots.push(0);
        }
        self.occupied[b / 64] |= u64::from(live) << (b % 64);
    }

    /// Removes the earliest bucket in one operation, swapping it with
    /// `run` (whose previous entries are dropped), and returns its
    /// tick; `None` when no entry is pending. Entries come back in
    /// push order.
    #[inline]
    pub(crate) fn pop_run(&mut self, run: &mut Bucket) -> Option<u64> {
        let from = (self.cursor & self.mask) as usize;
        let b = self.next_occupied(from)?;
        self.cursor += ((b + self.buckets.len() - from) & self.mask as usize) as u64;
        self.occupied[b / 64] &= !(1 << (b % 64));
        core::mem::swap(run, &mut self.buckets[b]);
        self.buckets[b].len = 0;
        Some(self.cursor)
    }

    /// The next occupied bucket strictly after bucket `from` in
    /// circular order, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        self.scan_range(from + 1, self.buckets.len())
            .or_else(|| self.scan_range(0, from))
    }

    /// Lowest set occupancy bit with bucket index in `[lo, hi)`.
    fn scan_range(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let (wlo, whi) = (lo / 64, (hi - 1) / 64);
        for w in wlo..=whi {
            let mut word = self.occupied[w];
            if w == wlo {
                word &= !0u64 << (lo % 64);
            }
            if w == whi {
                let top = hi - w * 64; // in 1..=64
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops every bucket, returning `(tick, entries)` runs.
    fn drain(w: &mut EventWheel) -> Vec<(u64, Vec<u32>)> {
        let mut run = Bucket::default();
        std::iter::from_fn(|| w.pop_run(&mut run).map(|t| (t, run.nets().to_vec()))).collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        // Push out of tick order: ticks come out ascending, and within
        // a tick the entries keep push order (the order the engine's
        // global sequence numbers used to encode).
        let mut w = EventWheel::new(100);
        w.push(50, 1, true);
        w.push(10, 2, true);
        w.push(50, 3, true);
        w.push(1, 4, true);
        assert_eq!(
            drain(&mut w),
            vec![(1, vec![4]), (10, vec![2]), (50, vec![1, 3])]
        );
        assert_eq!(w.pop_run(&mut Bucket::default()), None);
    }

    #[test]
    fn pop_run_drains_whole_buckets_in_pop_order() {
        let mut w = EventWheel::new(100);
        for (tick, net) in [(7u64, 1u32), (3, 2), (7, 3), (3, 4), (7, 5)] {
            w.push(tick, net, true);
        }
        let mut run = Bucket::default();
        assert_eq!(w.pop_run(&mut run), Some(3));
        assert_eq!(run.nets(), &[2, 4]);
        assert_eq!(w.pop_run(&mut run), Some(7));
        assert_eq!(run.nets(), &[1, 3, 5]);
        assert_eq!(w.pop_run(&mut run), None);
        // The last run is left untouched by a `None` result.
        assert_eq!(run.nets(), &[1, 3, 5]);
    }

    #[test]
    fn dead_pushes_are_overwritten_and_never_popped() {
        let mut w = EventWheel::new(7);
        w.push(3, 1, false);
        w.push(3, 2, true);
        w.push(3, 3, false);
        w.push(5, 4, false);
        w.push(3, 5, true);
        assert_eq!(drain(&mut w), vec![(3, vec![2, 5])]);
        // A bucket holding only dead writes is not occupied.
        w.push(6, 9, false);
        assert_eq!(w.pop_run(&mut Bucket::default()), None);
    }

    #[test]
    fn buckets_grow_past_their_first_slot() {
        let mut w = EventWheel::new(3);
        let nets: Vec<u32> = (0..100).collect();
        for &n in &nets {
            w.push(2, n, true);
        }
        assert_eq!(drain(&mut w), vec![(2, nets)]);
    }

    #[test]
    fn wraps_far_beyond_the_wheel_size() {
        // Each popped tick schedules the next 5 ticks later: the cursor
        // advances through many wheel revolutions.
        let mut w = EventWheel::new(7);
        let mut run = Bucket::default();
        let mut popped = Vec::new();
        w.push(5, 0, true);
        while let Some(t) = w.pop_run(&mut run) {
            popped.push(t);
            if popped.len() < 41 {
                w.push(t + 5, popped.len() as u32, true);
            }
        }
        assert_eq!(popped.len(), 41);
        assert!(popped.windows(2).all(|p| p[1] == p[0] + 5));
        assert_eq!(*popped.last().unwrap(), 205);
    }

    #[test]
    fn pop_run_allows_pushes_into_later_ticks_mid_run() {
        // While the tick-3 run is processed, new entries land at later
        // ticks, up to a full wheel size minus one away (bucket
        // 10 & 7 = 2 lies behind the cursor's bucket).
        let mut w = EventWheel::new(7);
        w.push(3, 1, true);
        let mut run = Bucket::default();
        assert_eq!(w.pop_run(&mut run), Some(3));
        w.push(4, 2, true);
        w.push(10, 3, true);
        assert_eq!(drain(&mut w), vec![(4, vec![2]), (10, vec![3])]);
    }

    #[test]
    fn pop_run_matches_pop_on_a_random_schedule() {
        // The runs of a scrambled schedule, concatenated, are what
        // popping a (tick, push order) priority queue one entry at a
        // time delivers: a stable sort by tick.
        let schedule: Vec<(u64, u32)> = (0..200u32)
            .map(|i| (1 + u64::from(i * 37 % 96), i))
            .collect();
        let mut w = EventWheel::new(100);
        for &(tick, net) in &schedule {
            w.push(tick, net, true);
        }
        let by_run: Vec<(u64, u32)> = drain(&mut w)
            .into_iter()
            .flat_map(|(t, nets)| nets.into_iter().map(move |n| (t, n)))
            .collect();
        let mut by_pop = schedule.clone();
        by_pop.sort_by_key(|&(tick, _)| tick);
        assert_eq!(by_run, by_pop);
    }

    #[test]
    fn reset_recycles_for_the_next_cycle() {
        let mut w = EventWheel::new(15);
        w.push(9, 1, true);
        w.push(2, 2, true);
        assert_eq!(w.pop_run(&mut Bucket::default()), Some(2));
        // Reset with an entry pending (an abandoned cycle).
        w.reset();
        assert_eq!(w.pop_run(&mut Bucket::default()), None);
        // The wheel is back at tick 0 and fully reusable.
        w.push(1, 3, true);
        assert_eq!(drain(&mut w), vec![(1, vec![3])]);
        w.reset();
        w.push(9, 4, true);
        assert_eq!(drain(&mut w), vec![(9, vec![4])]);
    }

    #[test]
    fn occupancy_scan_crosses_word_boundaries() {
        // 256 buckets = 4 occupancy words; entries straddle word edges,
        // and the last one wraps past the end of the wheel.
        let mut w = EventWheel::new(200);
        for (i, t) in [63u64, 64, 127, 128, 255].iter().enumerate() {
            w.push(*t, i as u32, true);
        }
        let mut run = Bucket::default();
        assert_eq!(w.pop_run(&mut run), Some(63));
        assert_eq!(w.pop_run(&mut run), Some(64));
        w.push(300, 9, true);
        let ticks: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![127, 128, 255, 300]);
    }
}
