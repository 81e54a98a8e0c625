//! Gate-level simulation for the `optpower` ab-initio flow.
//!
//! Replaces the paper's ModelSIM timing-annotated netlist simulation.
//! Four engines share the netlist's three-valued cell semantics:
//!
//! * [`ZeroDelaySim`] — per-cycle functional evaluation in topological
//!   order; at most one transition per cell per cycle (glitch-free).
//!   The *authoritative* engine for functional verification of the
//!   multipliers and the reference semantics the other engines are
//!   checked against.
//! * [`TimedSim`] — event-driven simulation with per-cell inertial
//!   delays from the [`optpower_netlist::Library`] (a re-evaluation
//!   preempts the cell's pending output event, so pulses narrower than
//!   the cell's delay are swallowed); counts *every* surviving output
//!   transition, so unbalanced path delays produce the glitch
//!   activity the paper observes on diagonal pipelines. Authoritative
//!   for the paper's activity factor `a` (glitches included). Time is
//!   kept in **integer picosecond ticks** ([`TICKS_PER_GATE`] ticks
//!   per gate unit, quantized once when the engine compiles the
//!   netlist): event ordering is total (no `NaN` holes), time sums are
//!   exact, and the event queue is an O(1) bucket wheel of 4-byte net
//!   ids rather than a binary heap, each net keeping its one pending
//!   event's due tick and value. Every logic cell's delay must be at
//!   least one tick. The hot path allocates nothing per event. One
//!   compiled program serves every stream of a measurement, and a
//!   stream can resume from settled net values ([`TimedLanes`]).
//! * [`ScalarTimedSim`] — the frozen pre-wheel timed engine (binary
//!   heap, per-event allocations) on the same tick base. Bit-identical
//!   to [`TimedSim`] by the differential suite
//!   (`tests/timed_differential.rs`); kept as the reference baseline
//!   and the reference row of the `timed_engine_wallace16_64v` pair in
//!   `benches/sim.rs`.
//! * [`WidePlaneSim`] — 64, 256 or 512 zero-delay simulations at once
//!   (the [`BitParallelSim`], [`BitParallelSim256`] and
//!   [`BitParallelSim512`] aliases at `W` = 1/4/8 chunks), one
//!   stimulus lane per bit of a `[u64; W]` plane per net, evaluated
//!   with plain bitwise ops. Authoritative for nothing by fiat: each
//!   lane is *bit-identical* to a [`ZeroDelaySim`] run (values and
//!   transition counts — `tests/sim_differential.rs` enforces this,
//!   and that the wide planes equal their chunked 64-lane runs), it is
//!   simply 1–2 orders of magnitude faster per stimulus vector. Use it
//!   wherever glitch-free statistics are wanted at scale, e.g. the
//!   ab-initio glitch-free activity baseline. Each plane compiles the
//!   netlist into runs of one cell kind per topological level and
//!   switches to a two-valued program once reset has flushed every `X`
//!   (see [`WidePlaneSim`]); the wider planes spread the per-cell work
//!   that does not grow with the lane count over 4–8× more streams.
//!
//! [`measure_activity`] runs random stimulus through any engine and
//! returns the paper's activity factor
//! `a = transitions per data period / N`. The stimulus stream is
//! defined once by [`StimulusGen`] — the same seed drives the same
//! operands into every engine ([`lane_seed`] defines the per-lane
//! streams of the plane engines, one per lane up to 512, with lane 0 =
//! the base seed).
//! The timed engines return typed [`SimError`]s (invalid library
//! delays at construction, oscillation at runtime) instead of
//! panicking, so sweeps can report which netlist failed;
//! [`TimedLanes`] runs a timed measurement's uncounted warm-up on a
//! zero-delay plane and only the counted items on the event wheel, and
//! `optpower_explore::measure_timed_activity_pooled` shards those
//! counted windows across a worker pool with worker-count-invariant
//! sums ([`ActivityReport::combine`]).
//!
//! # Examples
//!
//! ```
//! use optpower_netlist::{CellKind, Library, NetlistBuilder};
//! use optpower_sim::ZeroDelaySim;
//!
//! // Bus pins are named `{prefix}{bit}`: a 1-bit bus "x" is "x0".
//! let mut b = NetlistBuilder::new("inv");
//! let x = b.add_input("x0");
//! let y = b.add_cell(CellKind::Inv, &[x]);
//! b.add_output("y0", y);
//! let nl = b.build()?;
//!
//! let mut sim = ZeroDelaySim::new(&nl);
//! sim.set_input_bits("x", 1);
//! sim.step();
//! assert_eq!(sim.output_bits("y"), Some(0));
//! # Ok::<(), optpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod bit_parallel;
mod bus;
mod error;
mod event_wheel;
mod timed;
mod timed_scalar;
mod vcd;
mod verify;
mod zero_delay;

pub use activity::{measure_activity, ActivityReport, Engine, TimedLanes, MIN_RESET_WARMUP};
pub use bit_parallel::{BitParallelSim, BitParallelSim256, BitParallelSim512, WidePlaneSim, LANES};
pub use bus::{
    bus_inputs, bus_outputs, decode_bus, encode_bus, lane_seed, transpose64, width_mask,
    StimulusGen, MAX_STIMULUS_LANES,
};
pub use error::SimError;
pub use timed::{quantize_delays, tick_stride, TimedSim, MAX_DELAY_GATES, TICKS_PER_GATE};
pub use timed_scalar::ScalarTimedSim;
pub use vcd::{parse_vcd, LaneProbe, NetProbe, VcdDump, VcdRecorder};
pub use verify::{verify_product, VerifyOutcome};
pub use zero_delay::ZeroDelaySim;
