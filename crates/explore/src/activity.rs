//! Pooled timed (glitch-counting) activity measurement.
//!
//! The event-driven engine is the slow leg of ab-initio
//! characterization: unlike the zero-delay path it cannot be
//! bit-packed 64 lanes into a word, because every lane would need its
//! own event order. What *can* be done is the thread-level analogue of
//! [`optpower_sim::BitParallelSim`]: split the stimulus into
//! [`optpower_sim::lane_seed`]-derived independent streams, run one
//! `TimedSim` per lane, and shard the lanes across the worker pool.
//!
//! Only the counted window is sharded. [`TimedLanes::warm_up`]
//! compiles the netlist once into a program every lane shares
//! read-only, and runs the uncounted warm-up items of up to 64 lanes at
//! a time on one zero-delay [`optpower_sim::BitParallelSim`] plane.
//! This is exact: an acyclic core under inertial delays ends every
//! cycle at its zero-delay values with an empty event queue, so a
//! lane's settled net values are its whole state, and the worker that
//! resumes the lane from them on the event wheel counts exactly the
//! transitions a lane simulated from cycle 0 would
//! ([`TimedLanes::measure_lane`]).
//!
//! The measurement protocol per lane is exactly
//! [`optpower_sim::measure_activity`]'s (warm-up windowing, reset
//! pulse, hold cycles), and the combination rule is
//! [`ActivityReport::combine`] — plain integer sums. Consequently the
//! pooled result is **bit-identical for any worker count**, and equal
//! to the sum of dedicated whole-protocol scalar reference runs over
//! the same lane seeds (`tests/timed_differential.rs` pins both
//! properties, at 1/2/8 workers and across a 64-lane plane boundary).

use optpower_netlist::{Library, Netlist};
use optpower_sim::{ActivityReport, SimError, TimedLanes};

use crate::pool::{par_map_indexed, Workers};

/// Configuration of one pooled timed activity measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPoolConfig {
    /// Number of independent lane-seeded stimulus streams. The lane
    /// split is part of the measurement definition (it decides which
    /// operands are applied), *not* a scheduling knob: the same
    /// `lanes` always yields the same result, whatever `workers` says.
    pub lanes: u32,
    /// Data items measured per lane (excluding warm-up).
    pub items_per_lane: u64,
    /// Clock cycles each data item occupies (1 for combinational and
    /// pipelined designs, the operand width for add-and-shift ones).
    pub cycles_per_item: u32,
    /// Warm-up items per lane, simulated but not counted.
    pub warmup: u64,
    /// Base seed; lane `L` draws its stream from
    /// [`optpower_sim::lane_seed`]`(seed, L)`, so lane 0 is the scalar
    /// stream.
    pub seed: u64,
    /// Worker-count policy for sharding lanes across threads.
    pub workers: Workers,
}

impl TimedPoolConfig {
    /// A sensible default shape: `lanes` decorrelated streams at
    /// `items_per_lane` items each, one cycle per item, 4 warm-up
    /// items, automatic worker count.
    pub fn new(lanes: u32, items_per_lane: u64, seed: u64) -> Self {
        Self {
            lanes,
            items_per_lane,
            cycles_per_item: 1,
            warmup: 4,
            seed,
            workers: Workers::Auto,
        }
    }
}

/// Measures timed (glitch-counting) switching activity by running
/// `config.lanes` independent [`optpower_sim::TimedSim`] streams over
/// lane-seeded stimulus: one compiled program, the warm-up on
/// zero-delay planes, and each lane's counted window sharded across
/// the worker pool (see the module docs).
///
/// The combined report covers `lanes × items_per_lane` measured items;
/// its transition total is the plain sum of the per-lane totals, so
/// the result is bit-identical for any worker count and equal to
/// `lanes` scalar measurements run one after the other.
///
/// # Errors
///
/// [`SimError::InvalidDelay`] when the library holds a delay the timed
/// engine rejects (found once, when the netlist is compiled), or the
/// first [`SimError::Oscillation`] in lane order.
///
/// # Panics
///
/// Panics if the netlist has no `a`/`b` input buses, if it has a `rst`
/// bus and `config.warmup` is below [`optpower_sim::MIN_RESET_WARMUP`],
/// if `config.items_per_lane == 0`, or if `config.lanes` is not in
/// `1..=`[`optpower_sim::MAX_STIMULUS_LANES`].
pub fn measure_timed_activity_pooled(
    netlist: &Netlist,
    library: &Library,
    config: &TimedPoolConfig,
) -> Result<ActivityReport, SimError> {
    assert!(config.items_per_lane > 0, "items_per_lane must be positive");
    let lanes = TimedLanes::warm_up(
        netlist,
        library,
        config.seed,
        config.lanes,
        config.items_per_lane,
        config.cycles_per_item,
        config.warmup,
    )?;
    let workers = config.workers.resolve(config.lanes as usize);
    let reports = par_map_indexed(config.lanes as usize, workers, |lane| {
        lanes.measure_lane(lane as u32)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(ActivityReport::combine(&reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::{CellKind, NetlistBuilder};
    use optpower_sim::{lane_seed, measure_activity, Engine};

    fn small_design() -> Netlist {
        let mut b = NetlistBuilder::new("small");
        let a0 = b.add_input("a0");
        let a1 = b.add_input("a1");
        let b0 = b.add_input("b0");
        let b1 = b.add_input("b1");
        let s0 = b.add_cell(CellKind::Xor2, &[a0, b0]);
        let c0 = b.add_cell(CellKind::And2, &[a0, b0]);
        let s1 = b.add_cell(CellKind::Xor3, &[a1, b1, c0]);
        let c1 = b.add_cell(CellKind::Maj3, &[a1, b1, c0]);
        b.add_output("p0", s0);
        b.add_output("p1", s1);
        b.add_output("p2", c1);
        b.build().unwrap()
    }

    #[test]
    fn pooled_equals_serial_lane_sum_for_any_worker_count() {
        let nl = small_design();
        let lib = Library::cmos13();
        let serial_sum: u64 = (0..6u32)
            .map(|lane| {
                measure_activity(&nl, &lib, Engine::Timed, 25, 1, 3, lane_seed(11, lane))
                    .unwrap()
                    .transitions
            })
            .sum();
        let mut config = TimedPoolConfig::new(6, 25, 11);
        config.warmup = 3;
        let mut reports = Vec::new();
        for workers in [1usize, 2, 8] {
            config.workers = Workers::Fixed(workers);
            let r = measure_timed_activity_pooled(&nl, &lib, &config).unwrap();
            assert_eq!(r.transitions, serial_sum, "workers = {workers}");
            assert_eq!(r.items, 6 * 25);
            reports.push(r);
        }
        // Bit-identical across worker counts, activity included.
        for r in &reports[1..] {
            assert_eq!(r.activity.to_bits(), reports[0].activity.to_bits());
            assert_eq!(r, &reports[0]);
        }
    }

    #[test]
    fn lane0_is_the_scalar_stream() {
        let nl = small_design();
        let lib = Library::cmos13();
        let mut config = TimedPoolConfig::new(1, 40, 77);
        config.warmup = 2;
        let pooled = measure_timed_activity_pooled(&nl, &lib, &config).unwrap();
        let scalar = measure_activity(&nl, &lib, Engine::Timed, 40, 1, 2, 77).unwrap();
        assert_eq!(pooled, scalar);
    }

    #[test]
    fn invalid_delays_surface_from_the_pool() {
        let nl = small_design();
        let lib = Library::with_uniform_delay(f64::INFINITY);
        let config = TimedPoolConfig::new(4, 5, 1);
        let err = measure_timed_activity_pooled(&nl, &lib, &config).unwrap_err();
        assert!(matches!(err, SimError::InvalidDelay { .. }));
    }
}
