//! Activity extraction: the paper's `a` factor from random stimulus.
//!
//! # Determinism across engines
//!
//! The stimulus sequence is defined *once*, by [`StimulusGen`], as a
//! pure function of `(seed, a_width, b_width)`. The scalar engines
//! ([`Engine::ZeroDelay`], [`Engine::Timed`] and the frozen reference
//! [`ScalarTimedSim::measure`]) consume that single stream; the plane
//! engines ([`Engine::BitParallel`], [`Engine::BitParallel256`],
//! [`Engine::BitParallel512`]) run one stream per lane whose seeds come
//! from [`lane_seed`], with lane 0 being the base seed. The measurement
//! protocol — reset pulse on item 0, operands held for
//! `cycles_per_item` cycles, the first `warmup` items uncounted — is
//! likewise defined once (`apply_items`) and drives every engine.
//! Consequences, locked down by the tests below,
//! `tests/sim_differential.rs` and `tests/timed_differential.rs`:
//!
//! * the same `seed` applies the same operands to `ZeroDelay` and
//!   `Timed`, so their activities differ only by glitches;
//! * a plane measurement of `L` lanes is *bit-identical* — transition
//!   counts included — to the sum of `L` scalar `ZeroDelay`
//!   measurements seeded with `lane_seed(seed, 0..L)` at the same
//!   per-lane item count; widths nest, so a 256/512-lane run also
//!   equals the sum of its chunked 64-lane runs;
//! * a `Timed` (event-wheel) measurement is bit-identical to a
//!   [`ScalarTimedSim::measure`] (frozen heap reference) one, and a
//!   pooled timed measurement
//!   (`optpower_explore::measure_timed_activity_pooled`)
//!   is bit-identical to the sum of per-lane scalar measurements for
//!   any worker count.
//!
//! The last point holds although `Timed` never simulates its warm-up
//! on the event wheel. Warm-up transitions are not counted, and an
//! acyclic core under inertial delays ends every cycle at its
//! zero-delay values with an empty event queue, so net values are the
//! whole state between cycles (see [`TimedSim::resume`]).
//! [`TimedLanes`] therefore runs the warm-up items of up to 64 lanes
//! at once on a [`BitParallelSim`] plane — same lane seeds, same reset
//! pulse and hold cycles — and hands each lane its settled net values
//! and its stimulus generator; only the counted items run on the
//! wheel, on one [`TimedProgram`] compiled for all lanes.
//! [`ScalarTimedSim::measure`] still runs the whole protocol from cycle
//! 0, which is what makes it the reference for the warm start. With
//! `warmup == 0` there is nothing to skip and `Timed` starts at cycle 0
//! too.

use std::ops::Range;
use std::sync::Arc;

use optpower_netlist::{CellId, Library, Logic, Netlist};

use crate::bit_parallel::LANES;
use crate::bus::{lane_seed, transpose64, StimulusGen, MAX_STIMULUS_LANES};
use crate::timed::TimedProgram;
use crate::{
    bus_inputs, BitParallelSim, ScalarTimedSim, SimError, TimedSim, WidePlaneSim, ZeroDelaySim,
};

/// Fewest warm-up items a design with a `rst` input bus can be
/// measured with: the protocol pulses the reset during item 0 and
/// releases it in item 1, and neither may fall inside the counting
/// window.
pub const MIN_RESET_WARMUP: u64 = 2;

/// Which engine to measure with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Zero-delay (glitch-free) counting, one stimulus stream.
    ZeroDelay,
    /// Event-driven with library delays (counts glitches): the
    /// production [`TimedSim`] on integer ticks and the event wheel,
    /// warm-started past the uncounted items (see the module docs).
    Timed,
    /// 64 zero-delay lanes at once ([`crate::BitParallelSim`]): ~64×
    /// the stimulus volume of [`Engine::ZeroDelay`] per unit time,
    /// with identical per-lane semantics.
    BitParallel,
    /// 256 zero-delay lanes at once ([`crate::BitParallelSim256`]):
    /// the same per-lane semantics on a four-chunk plane, amortising
    /// per-cell bookkeeping over 4× more streams.
    BitParallel256,
    /// 512 zero-delay lanes at once ([`crate::BitParallelSim512`]):
    /// the widest plane, eight chunks per word.
    BitParallel512,
}

/// Result of an activity measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityReport {
    /// The paper's activity `a`: average transitions per logic cell
    /// per *data period* (one data item).
    pub activity: f64,
    /// Total logic transitions counted over the measurement window.
    pub transitions: u64,
    /// Number of data items measured (excluding warm-up). For
    /// [`Engine::BitParallel`] this is 64× the per-lane item count.
    pub items: u64,
    /// Logic cell count `N` used for normalisation.
    pub cells: usize,
}

impl ActivityReport {
    /// The report of `transitions` counted over `items` measured items
    /// of a netlist with `cells` logic cells.
    fn over(transitions: u64, items: u64, cells: usize) -> ActivityReport {
        ActivityReport {
            activity: transitions as f64 / (items as f64 * cells as f64),
            transitions,
            items,
            cells,
        }
    }

    /// Combines independent per-lane measurements of the *same*
    /// netlist into one report: transitions and items add, and the
    /// activity is re-normalised over the combined window. The result
    /// depends only on the multiset of inputs (integer sums), so any
    /// parallel split over lanes is worker-count invariant by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty or mixes different cell counts
    /// (i.e. different netlists).
    pub fn combine(reports: &[ActivityReport]) -> ActivityReport {
        assert!(!reports.is_empty(), "nothing to combine");
        let cells = reports[0].cells;
        let mut transitions = 0u64;
        let mut items = 0u64;
        for r in reports {
            assert_eq!(r.cells, cells, "reports cover different netlists");
            transitions += r.transitions;
            items += r.items;
        }
        ActivityReport::over(transitions, items, cells)
    }
}

/// Minimal driving interface shared by the scalar engines. Buses are
/// resolved to [`CellId`]s once per measurement (in [`Buses::resolve`])
/// and driven pin by pin — re-resolving the `{prefix}{bit}` names on
/// every item would put string formatting on the measurement hot path.
trait Drive {
    fn set_pin(&mut self, pin: CellId, value: Logic);
    fn advance(&mut self) -> Result<(), SimError>;
    fn logic_transitions_so_far(&self) -> u64;
}

impl Drive for TimedSim<'_> {
    fn set_pin(&mut self, pin: CellId, value: Logic) {
        self.set_input(pin, value);
    }
    fn advance(&mut self) -> Result<(), SimError> {
        self.step().map(|_events| ())
    }
    fn logic_transitions_so_far(&self) -> u64 {
        self.logic_transitions()
    }
}

impl Drive for ScalarTimedSim<'_> {
    fn set_pin(&mut self, pin: CellId, value: Logic) {
        self.set_input(pin, value);
    }
    fn advance(&mut self) -> Result<(), SimError> {
        self.step().map(|_events| ())
    }
    fn logic_transitions_so_far(&self) -> u64 {
        self.logic_transitions()
    }
}

impl Drive for ZeroDelaySim<'_> {
    fn set_pin(&mut self, pin: CellId, value: Logic) {
        self.set_input(pin, value);
    }
    fn advance(&mut self) -> Result<(), SimError> {
        self.step();
        Ok(())
    }
    fn logic_transitions_so_far(&self) -> u64 {
        self.logic_transitions()
    }
}

/// Width-erased driving interface over [`WidePlaneSim`], so
/// [`Driver::Lanes`] holds one trait object instead of one enum arm
/// per plane width. Private on purpose: the public surface is the
/// concrete engine types plus [`Engine`].
trait LaneDrive {
    /// Number of stimulus lanes (`64 * W`).
    fn lane_count(&self) -> usize;
    /// Sets one primary input from a plane of chunk words.
    fn set_plane(&mut self, pin: CellId, ones: &[u64]);
    /// Sets one primary input to the same level in every lane.
    fn set_splat(&mut self, pin: CellId, value: bool);
    /// Advances one clock cycle in every lane.
    fn step_once(&mut self);
    /// Total logic transitions so far, summed over all lanes.
    fn transitions(&self) -> u64;
}

impl<const W: usize> LaneDrive for WidePlaneSim<'_, W> {
    fn lane_count(&self) -> usize {
        self.lanes()
    }
    fn set_plane(&mut self, pin: CellId, ones: &[u64]) {
        self.set_input_plane(pin, ones);
    }
    fn set_splat(&mut self, pin: CellId, value: bool) {
        self.set_input_all_lanes(pin, value);
    }
    fn step_once(&mut self) {
        self.step();
    }
    fn transitions(&self) -> u64 {
        self.logic_transitions()
    }
}

/// An engine bound to its stimulus source(s): what [`apply_items`]
/// needs to apply one data item. Keeping this as one enum means the
/// measurement protocol itself (reset pulse, operand draws, hold
/// cycles) exists exactly once, in [`apply_items`], for every engine
/// and for both halves of a warm-started timed measurement.
enum Driver<'s> {
    /// A scalar engine consuming one stream.
    Scalar {
        sim: &'s mut dyn Drive,
        stim: StimulusGen,
        buses: &'s Buses,
    },
    /// A plane engine consuming one stream per driven lane; lanes
    /// beyond `stims.len()` see all-zero operands.
    Lanes {
        sim: &'s mut dyn LaneDrive,
        stims: &'s mut [StimulusGen],
        buses: &'s Buses,
        /// Per-lane operand scratch (reused every item so the
        /// transpose allocates nothing on the hot path).
        ops_a: Vec<u64>,
        ops_b: Vec<u64>,
        /// Transposed plane-word scratch, `max(bus width) * W` words:
        /// row `bit` holds pin `bit`'s chunk words for one item.
        plane: Vec<u64>,
    },
}

/// The `a`/`b`/`rst` input buses, resolved to pins once per
/// measurement.
#[derive(Debug)]
struct Buses {
    a: Vec<CellId>,
    b: Vec<CellId>,
    rst: Vec<CellId>,
}

impl Buses {
    /// Resolves the buses and checks the protocol's preconditions.
    ///
    /// # Panics
    ///
    /// Panics if the `a` or `b` bus is missing, or if the netlist has a
    /// `rst` bus and `warmup < MIN_RESET_WARMUP`.
    fn resolve(netlist: &Netlist, warmup: u64) -> Buses {
        let buses = Buses {
            a: bus_inputs(netlist, "a"),
            b: bus_inputs(netlist, "b"),
            rst: bus_inputs(netlist, "rst"),
        };
        assert!(
            !buses.a.is_empty() && !buses.b.is_empty(),
            "activity measurement requires a/b input buses"
        );
        if !buses.rst.is_empty() {
            assert!(
                warmup >= MIN_RESET_WARMUP,
                "designs with a reset need warmup >= {MIN_RESET_WARMUP} items"
            );
        }
        buses
    }

    /// The operand stream seeded `seed`, masked to these bus widths.
    fn stim(&self, seed: u64) -> StimulusGen {
        StimulusGen::new(seed, self.a.len() as u32, self.b.len() as u32)
    }
}

impl<'s> Driver<'s> {
    /// Binds a plane to the streams of its first `stims.len()` lanes.
    fn lanes(sim: &'s mut dyn LaneDrive, stims: &'s mut [StimulusGen], buses: &'s Buses) -> Self {
        let lanes = sim.lane_count();
        debug_assert!(stims.len() <= lanes, "more streams than plane lanes");
        let plane_words = buses.a.len().max(buses.b.len()) * (lanes / LANES);
        Driver::Lanes {
            sim,
            stims,
            buses,
            ops_a: vec![0; lanes],
            ops_b: vec![0; lanes],
            plane: vec![0; plane_words],
        }
    }

    /// Number of stimulus streams one protocol item covers.
    fn lane_count(&self) -> u64 {
        match self {
            Driver::Scalar { .. } => 1,
            Driver::Lanes { sim, .. } => sim.lane_count() as u64,
        }
    }

    fn set_rst(&mut self, high: bool) {
        match self {
            Driver::Scalar { sim, buses, .. } => {
                for (i, &pin) in buses.rst.iter().enumerate() {
                    sim.set_pin(pin, Logic::from_bool((u64::from(high) >> i) & 1 == 1));
                }
            }
            Driver::Lanes { sim, buses, .. } => {
                for (i, &pin) in buses.rst.iter().enumerate() {
                    sim.set_splat(pin, (u64::from(high) >> i) & 1 == 1);
                }
            }
        }
    }

    /// Draws the next operand pair from every stream and applies it.
    fn apply_operands(&mut self) {
        match self {
            Driver::Scalar { sim, stim, buses } => {
                let (a, b) = stim.next_item();
                for (i, &pin) in buses.a.iter().enumerate() {
                    sim.set_pin(pin, Logic::from_bool((a >> i) & 1 == 1));
                }
                for (i, &pin) in buses.b.iter().enumerate() {
                    sim.set_pin(pin, Logic::from_bool((b >> i) & 1 == 1));
                }
            }
            Driver::Lanes {
                sim,
                stims,
                buses,
                ops_a,
                ops_b,
                plane,
            } => {
                for (lane, stim) in stims.iter_mut().enumerate() {
                    let (a, b) = stim.next_item();
                    ops_a[lane] = a;
                    ops_b[lane] = b;
                }
                // Pivot: bit `i` of every lane's operand becomes lane
                // bits of pin `i`'s plane. One 64×64 bit-matrix
                // transpose per chunk ([`transpose64`]) instead of a
                // per-bit gather — the pivot volume is the same at
                // every plane width, so it must stay cheap or it caps
                // the wide engines' speedup.
                let chunks = ops_a.len() / LANES;
                for (bus, ops) in [(&buses.a, &*ops_a), (&buses.b, &*ops_b)] {
                    let mut block = [0u64; LANES];
                    for (c, src) in ops.chunks_exact(LANES).enumerate() {
                        block.copy_from_slice(src);
                        transpose64(&mut block);
                        for (bit, &word) in block.iter().take(bus.len()).enumerate() {
                            plane[bit * chunks + c] = word;
                        }
                    }
                    for (i, &pin) in bus.iter().enumerate() {
                        sim.set_plane(pin, &plane[i * chunks..(i + 1) * chunks]);
                    }
                }
            }
        }
    }

    fn advance(&mut self) -> Result<(), SimError> {
        match self {
            Driver::Scalar { sim, .. } => sim.advance(),
            Driver::Lanes { sim, .. } => {
                sim.step_once();
                Ok(())
            }
        }
    }

    fn transitions(&self) -> u64 {
        match self {
            Driver::Scalar { sim, .. } => sim.logic_transitions_so_far(),
            Driver::Lanes { sim, .. } => sim.transitions(),
        }
    }
}

/// The measurement protocol, shared by every engine: applies the
/// protocol items numbered `items`. A `rst` bus is held high for item
/// 0 and low for every later item, each item draws the next operand
/// pair from every stream, and each item's operands are held for
/// `cycles_per_item` clock cycles.
fn apply_items(
    driver: &mut Driver<'_>,
    items: Range<u64>,
    cycles_per_item: u32,
) -> Result<(), SimError> {
    for item in items {
        driver.set_rst(item == 0);
        driver.apply_operands();
        for _ in 0..cycles_per_item.max(1) {
            driver.advance()?;
        }
    }
    Ok(())
}

/// The whole protocol on one engine from cycle 0: the first `warmup`
/// items are simulated but fall outside the counting window.
fn run(
    mut driver: Driver<'_>,
    cells: usize,
    items: u64,
    cycles_per_item: u32,
    warmup: u64,
) -> Result<ActivityReport, SimError> {
    apply_items(&mut driver, 0..warmup, cycles_per_item)?;
    let window_start = driver.transitions();
    apply_items(&mut driver, warmup..warmup + items, cycles_per_item)?;
    Ok(ActivityReport::over(
        driver.transitions() - window_start,
        items * driver.lane_count(),
        cells,
    ))
}

/// The whole protocol on a scalar engine, consuming the stream seeded
/// `seed`.
fn run_scalar(
    sim: &mut dyn Drive,
    netlist: &Netlist,
    items: u64,
    cycles_per_item: u32,
    warmup: u64,
    seed: u64,
) -> Result<ActivityReport, SimError> {
    let buses = Buses::resolve(netlist, warmup);
    let driver = Driver::Scalar {
        sim,
        stim: buses.stim(seed),
        buses: &buses,
    };
    run(
        driver,
        netlist.logic_cell_count(),
        items,
        cycles_per_item,
        warmup,
    )
}

/// The whole protocol on a `64 * W`-lane plane, one lane-seeded
/// stream per lane.
fn run_plane<const W: usize>(
    netlist: &Netlist,
    items: u64,
    cycles_per_item: u32,
    warmup: u64,
    seed: u64,
) -> Result<ActivityReport, SimError> {
    let buses = Buses::resolve(netlist, warmup);
    let mut sim = WidePlaneSim::<W>::new(netlist);
    let mut stims: Vec<StimulusGen> = (0..(LANES * W) as u32)
        .map(|lane| buses.stim(lane_seed(seed, lane)))
        .collect();
    let driver = Driver::lanes(&mut sim, &mut stims, &buses);
    run(
        driver,
        netlist.logic_cell_count(),
        items,
        cycles_per_item,
        warmup,
    )
}

/// Measures switching activity with uniform random operands on the
/// input buses `a` and `b`.
///
/// `cycles_per_item` is the number of clock cycles each data item
/// occupies (1 for combinational/pipelined/parallel designs, the
/// operand width for add-and-shift sequential designs). Inputs are
/// held stable for that many cycles.
///
/// The first `warmup` items are simulated but not counted (they flush
/// `X` state and pipeline bubbles); [`Engine::Timed`] simulates them on
/// the zero-delay plane and only the counted items on the event wheel
/// (see the module docs). For the plane engines
/// ([`Engine::BitParallel`] and its 256/512-lane variants), `items`
/// and `warmup` count *per-lane* items: the report covers
/// `lanes × items` measured items for the cost of one zero-delay pass.
///
/// # Errors
///
/// [`SimError`] from the timed engines: an invalid library delay at
/// construction, or an oscillating netlist during simulation. The
/// zero-delay engines cannot fail.
///
/// # Panics
///
/// Panics if the netlist has no `a`/`b` input buses, or has a `rst`
/// bus and `warmup` is below [`MIN_RESET_WARMUP`].
pub fn measure_activity(
    netlist: &Netlist,
    library: &Library,
    engine: Engine,
    items: u64,
    cycles_per_item: u32,
    warmup: u64,
    seed: u64,
) -> Result<ActivityReport, SimError> {
    match engine {
        // Lane 0 of a lane-seeded measurement is the base-seed stream.
        Engine::Timed => {
            TimedLanes::warm_up(netlist, library, seed, 1, items, cycles_per_item, warmup)?
                .measure_lane(0)
        }
        Engine::ZeroDelay => run_scalar(
            &mut ZeroDelaySim::new(netlist),
            netlist,
            items,
            cycles_per_item,
            warmup,
            seed,
        ),
        Engine::BitParallel => run_plane::<1>(netlist, items, cycles_per_item, warmup, seed),
        Engine::BitParallel256 => run_plane::<4>(netlist, items, cycles_per_item, warmup, seed),
        Engine::BitParallel512 => run_plane::<8>(netlist, items, cycles_per_item, warmup, seed),
    }
}

impl ScalarTimedSim<'_> {
    /// The frozen reference measurement: [`measure_activity`]'s
    /// [`Engine::Timed`] protocol on a [`ScalarTimedSim`] (binary-heap
    /// queue, per-event allocations), run from cycle 0 with no warm
    /// start. Bit-identical to [`Engine::Timed`]; it is the
    /// differential baseline the event wheel is locked against and the
    /// reference row of the `timed_engine_wallace16_64v` bench pair.
    ///
    /// # Errors
    ///
    /// As [`measure_activity`] with [`Engine::Timed`].
    ///
    /// # Panics
    ///
    /// As [`measure_activity`].
    pub fn measure(
        netlist: &Netlist,
        library: &Library,
        items: u64,
        cycles_per_item: u32,
        warmup: u64,
        seed: u64,
    ) -> Result<ActivityReport, SimError> {
        run_scalar(
            &mut ScalarTimedSim::new(netlist, library)?,
            netlist,
            items,
            cycles_per_item,
            warmup,
            seed,
        )
    }
}

/// A timed (glitch-counting) measurement over lane-seeded stimulus
/// streams, warmed up and ready to measure its counted window lane by
/// lane.
///
/// [`TimedLanes::warm_up`] compiles the netlist once into a program all
/// lanes share read-only, runs the protocol's `warmup` items for up to 64
/// lanes at a time on a [`BitParallelSim`] plane (lane `L` seeded
/// [`lane_seed`]`(seed, L)`, reset pulse and hold cycles as in every
/// measurement), and keeps each lane's settled net values and its
/// stimulus generator. [`TimedLanes::measure_lane`] then resumes the
/// lane on the event wheel and simulates only its counted items. It
/// takes `&self`, so a pool can shard lanes across worker threads.
/// Lane `L`'s report is bit-identical to a whole-protocol
/// [`ScalarTimedSim::measure`] seeded `lane_seed(seed, L)`
/// (see the module docs for why).
#[derive(Debug)]
pub struct TimedLanes<'n> {
    program: Arc<TimedProgram<'n>>,
    buses: Buses,
    seed: u64,
    lanes: u32,
    items: u64,
    cycles_per_item: u32,
    warmup: u64,
    /// Per lane: its net values after the warm-up and its stimulus
    /// generator positioned at the first counted item. Empty when
    /// `warmup == 0`: every lane then starts at cycle 0.
    warm: Vec<(Vec<Logic>, StimulusGen)>,
}

impl<'n> TimedLanes<'n> {
    /// Compiles `netlist` and runs the warm-up of `lanes` streams: see
    /// the type docs. `items` is the counted window per lane.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDelay`] if the library holds a delay the
    /// timed engine rejects.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not in `1..=`[`MAX_STIMULUS_LANES`], if the
    /// netlist has no `a`/`b` input buses, or if it has a `rst` bus and
    /// `warmup` is below [`MIN_RESET_WARMUP`].
    pub fn warm_up(
        netlist: &'n Netlist,
        library: &Library,
        seed: u64,
        lanes: u32,
        items: u64,
        cycles_per_item: u32,
        warmup: u64,
    ) -> Result<Self, SimError> {
        assert!(
            (1..=MAX_STIMULUS_LANES).contains(&lanes),
            "a timed measurement takes 1..={MAX_STIMULUS_LANES} lanes, got {lanes}"
        );
        let buses = Buses::resolve(netlist, warmup);
        let program = Arc::new(TimedProgram::compile(netlist, library)?);
        let mut warm = Vec::new();
        if warmup > 0 {
            for first in (0..lanes).step_by(LANES) {
                let block = first..lanes.min(first + LANES as u32);
                let mut plane = BitParallelSim::new(netlist);
                let mut stims: Vec<StimulusGen> = block
                    .map(|lane| buses.stim(lane_seed(seed, lane)))
                    .collect();
                let mut driver = Driver::lanes(&mut plane, &mut stims, &buses);
                apply_items(&mut driver, 0..warmup, cycles_per_item)
                    .expect("the zero-delay plane cannot fail");
                warm.extend(
                    stims
                        .into_iter()
                        .enumerate()
                        .map(|(k, stim)| (plane.lane_values(k), stim)),
                );
            }
        }
        Ok(Self {
            program,
            buses,
            seed,
            lanes,
            items,
            cycles_per_item,
            warmup,
            warm,
        })
    }

    /// Lane `lane`'s event-wheel simulator, positioned where its
    /// counted window starts: resumed from the warm-up plane's settled
    /// state, or at cycle 0 when there is no warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below the lane count given to
    /// [`TimedLanes::warm_up`].
    pub fn lane_sim(&self, lane: u32) -> TimedSim<'n> {
        self.start(lane).0
    }

    /// Measures lane `lane`'s counted window on the event wheel.
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] if the netlist fails to settle.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below the lane count given to
    /// [`TimedLanes::warm_up`].
    pub fn measure_lane(&self, lane: u32) -> Result<ActivityReport, SimError> {
        let (mut sim, stim) = self.start(lane);
        let mut driver = Driver::Scalar {
            sim: &mut sim,
            stim,
            buses: &self.buses,
        };
        apply_items(
            &mut driver,
            self.warmup..self.warmup + self.items,
            self.cycles_per_item,
        )?;
        Ok(ActivityReport::over(
            driver.transitions(),
            self.items,
            self.program.netlist().logic_cell_count(),
        ))
    }

    /// The lane's simulator and stimulus generator at the start of its
    /// counted window.
    fn start(&self, lane: u32) -> (TimedSim<'n>, StimulusGen) {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range (0..{})",
            self.lanes
        );
        let program = Arc::clone(&self.program);
        match self.warm.get(lane as usize) {
            Some((values, stim)) => {
                let cycle = self.warmup * u64::from(self.cycles_per_item.max(1));
                (TimedSim::resume(program, cycle, values), stim.clone())
            }
            None => (
                TimedSim::from_program(program),
                self.buses.stim(lane_seed(self.seed, lane)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::{CellKind, NetlistBuilder};

    /// 2-bit combinational adder-ish circuit with a/b buses.
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

    fn measure(
        nl: &Netlist,
        engine: Engine,
        items: u64,
        cpi: u32,
        warm: u64,
        seed: u64,
    ) -> ActivityReport {
        measure_activity(nl, &Library::cmos13(), engine, items, cpi, warm, seed)
            .expect("cmos13 delays are valid and the design cannot oscillate")
    }

    #[test]
    fn activity_in_plausible_range() {
        let nl = small_design();
        let r = measure(&nl, Engine::Timed, 200, 1, 4, 42);
        assert!(r.activity > 0.1 && r.activity < 2.0, "a = {}", r.activity);
        assert_eq!(r.cells, 4);
        assert_eq!(r.items, 200);
    }

    #[test]
    fn timed_activity_at_least_zero_delay() {
        // Glitches can only add transitions.
        let nl = small_design();
        let t = measure(&nl, Engine::Timed, 300, 1, 4, 7);
        let z = measure(&nl, Engine::ZeroDelay, 300, 1, 4, 7);
        assert!(
            t.activity >= z.activity - 1e-12,
            "timed {} < zero-delay {}",
            t.activity,
            z.activity
        );
    }

    #[test]
    fn wheel_and_scalar_timed_engines_are_bit_identical() {
        let nl = small_design();
        let wheel = measure(&nl, Engine::Timed, 250, 1, 3, 99);
        let scalar = ScalarTimedSim::measure(&nl, &Library::cmos13(), 250, 1, 3, 99).unwrap();
        assert_eq!(wheel, scalar);
    }

    #[test]
    fn deterministic_given_seed() {
        let nl = small_design();
        for engine in [
            Engine::Timed,
            Engine::ZeroDelay,
            Engine::BitParallel,
            Engine::BitParallel256,
            Engine::BitParallel512,
        ] {
            let r1 = measure(&nl, engine, 100, 1, 2, 123);
            let r2 = measure(&nl, engine, 100, 1, 2, 123);
            assert_eq!(r1, r2, "{engine:?}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let nl = small_design();
        let r1 = measure(&nl, Engine::Timed, 100, 1, 2, 1);
        let r2 = measure(&nl, Engine::Timed, 100, 1, 2, 2);
        assert_ne!(r1.transitions, r2.transitions);
    }

    #[test]
    fn holding_inputs_for_more_cycles_keeps_combinational_quiet() {
        // For a purely combinational design, extra hold cycles add no
        // transitions: activity per item is unchanged.
        let nl = small_design();
        let r1 = measure(&nl, Engine::Timed, 150, 1, 2, 9);
        let r4 = measure(&nl, Engine::Timed, 150, 4, 2, 9);
        assert!((r1.activity - r4.activity).abs() < 1e-12);
    }

    #[test]
    fn invalid_library_delays_surface_as_errors() {
        let nl = small_design();
        let lib = Library::with_uniform_delay(f64::NAN);
        for err in [
            measure_activity(&nl, &lib, Engine::Timed, 10, 1, 2, 1).unwrap_err(),
            ScalarTimedSim::measure(&nl, &lib, 10, 1, 2, 1).unwrap_err(),
        ] {
            assert!(matches!(err, SimError::InvalidDelay { .. }), "{err:?}");
        }
        // The delay-free engines ignore the library's delay profile.
        for engine in [
            Engine::ZeroDelay,
            Engine::BitParallel,
            Engine::BitParallel256,
            Engine::BitParallel512,
        ] {
            assert!(measure_activity(&nl, &lib, engine, 10, 1, 2, 1).is_ok());
        }
    }

    #[test]
    fn combine_renormalises_over_the_joint_window() {
        let nl = small_design();
        let a = measure(&nl, Engine::Timed, 40, 1, 2, 5);
        let b = measure(&nl, Engine::Timed, 60, 1, 2, 6);
        let c = ActivityReport::combine(&[a, b]);
        assert_eq!(c.transitions, a.transitions + b.transitions);
        assert_eq!(c.items, 100);
        assert_eq!(c.cells, a.cells);
        let expect = (a.transitions + b.transitions) as f64 / (100.0 * a.cells as f64);
        assert_eq!(c.activity.to_bits(), expect.to_bits());
    }

    #[test]
    #[should_panic(expected = "different netlists")]
    fn combine_rejects_mixed_netlists() {
        let nl = small_design();
        let a = measure(&nl, Engine::ZeroDelay, 5, 1, 2, 5);
        let bad = ActivityReport {
            cells: a.cells + 1,
            ..a
        };
        let _ = ActivityReport::combine(&[a, bad]);
    }

    #[test]
    fn bit_parallel_equals_sum_of_64_scalar_runs() {
        // The headline contract: transitions of one BitParallel run ==
        // the sum over 64 ZeroDelay runs seeded with the lane seeds.
        let nl = small_design();
        let bp = measure(&nl, Engine::BitParallel, 50, 1, 3, 99);
        let scalar_sum: u64 = (0..LANES as u32)
            .map(|lane| measure(&nl, Engine::ZeroDelay, 50, 1, 3, lane_seed(99, lane)).transitions)
            .sum();
        assert_eq!(bp.transitions, scalar_sum);
        assert_eq!(bp.items, 50 * LANES as u64);
    }

    #[test]
    fn wide_measurements_sum_the_lane_seeded_scalar_runs() {
        // The same headline contract at 256 and 512 lanes, at equal
        // per-lane item counts.
        let nl = small_design();
        for (engine, lanes) in [
            (Engine::BitParallel256, 256u32),
            (Engine::BitParallel512, 512),
        ] {
            let wide = measure(&nl, engine, 10, 1, 2, 99);
            let scalar_sum: u64 = (0..lanes)
                .map(|lane| {
                    measure(&nl, Engine::ZeroDelay, 10, 1, 2, lane_seed(99, lane)).transitions
                })
                .sum();
            assert_eq!(wide.transitions, scalar_sum, "{engine:?}");
            assert_eq!(wide.items, 10 * u64::from(lanes));
        }
    }

    #[test]
    fn bit_parallel_lane0_sees_the_scalar_stream() {
        // Same seed => the scalar ZeroDelay measurement is exactly the
        // lane-0 slice of the BitParallel measurement.
        let nl = small_design();
        let zd = measure(&nl, Engine::ZeroDelay, 80, 1, 2, 7);
        let lane0 = measure(&nl, Engine::ZeroDelay, 80, 1, 2, lane_seed(7, 0));
        assert_eq!(zd, lane0);
    }

    #[test]
    fn bit_parallel_activity_is_a_per_item_average() {
        // Sanity: activity stays in the scalar neighbourhood — it is
        // normalised per measured item, not inflated 64×.
        let nl = small_design();
        let zd = measure(&nl, Engine::ZeroDelay, 400, 1, 2, 21);
        let bp = measure(&nl, Engine::BitParallel, 50, 1, 2, 21);
        assert!(
            (zd.activity - bp.activity).abs() < 0.15,
            "zd {} vs bp {}",
            zd.activity,
            bp.activity
        );
    }
}
