//! The event-driven timing engine (inertial delays, glitch counting),
//! built on integer picosecond ticks and the bucket wheel of
//! [`crate::event_wheel`].
//!
//! # Integer-tick time base
//!
//! Library delays are expressed in *gate units* (FO4 inverter = 1.0);
//! [`TimedProgram::compile`] quantizes them **once** to integer ticks at
//! [`TICKS_PER_GATE`] ticks per gate unit (with the 0.13 µm library's
//! FO4 ≈ 1 ns, one tick ≈ 1 ps). All event arithmetic and ordering
//! then happens in `u64`: ordering is total by construction (the old
//! `f64` engine compared `NaN` as `Ordering::Equal`, silently
//! corrupting heap order), time sums are exact (no `0.1 + 0.2`
//! drift deciding event order), and the event queue can be an O(1)
//! bucket wheel instead of a binary heap. Delays that are not finite,
//! negative, or above [`MAX_DELAY_GATES`] are rejected with a typed
//! [`SimError::InvalidDelay`], and so is a logic cell whose delay
//! quantizes to zero ticks: every scheduled event then lies strictly
//! after the tick that scheduled it, which the event loop relies on.
//!
//! # Compiled hot path
//!
//! [`TimedProgram::compile`] *compiles* the netlist into flat index
//! arrays: CSR fanout restricted to evaluable sinks, CSR input lists
//! and per-kind truth tables built by exhaustively calling
//! [`CellKind::eval`] (so the table semantics cannot drift from the
//! shared cell model). A [`TimedSim`] is that program, shared through
//! an [`Arc`], plus one stimulus stream's state: one byte per net of
//! three-valued values, one pending-event word per net and a wheel of
//! 4-byte net ids. The steady-state loop touches only these arrays —
//! no per-event allocation, no pointer chasing through `Vec<Vec<…>>`,
//! no enum dispatch per evaluation. A lane-seeded measurement compiles
//! once and starts every lane on the same program.
//!
//! # Warm start
//!
//! Every cycle runs until the event queue is empty, and in an acyclic
//! core under inertial delays the surviving events leave each cell at
//! its evaluation of its settled inputs: a cycle ends at the core's
//! unique fixed point, which is the zero-delay value of every net. Net
//! values are therefore the whole state between cycles, and
//! [`TimedSim::resume`] starts a stream at cycle ≥ 1 from them — for
//! example from one lane of a [`crate::BitParallelSim`] plane that ran
//! the measurement's uncounted warm-up items ([`crate::TimedLanes`]).
//! The resumed stream is bit-identical, values and per-cell transition
//! counts, to one that simulated those cycles on the wheel. Output-port
//! nets, which this engine never writes, stay `X`.
//!
//! The pre-wheel engine survives as [`crate::ScalarTimedSim`], the
//! frozen reference the wheel engine is locked against bit for bit
//! (`tests/timed_differential.rs`); `benches/sim.rs` tracks the two
//! engines' throughput ratio as the `timed_engine_wallace16_64v` pair.

use std::sync::Arc;

use optpower_netlist::{CellId, CellKind, Library, Logic, NetId, Netlist};

use crate::bus::{bus_inputs, bus_outputs, decode_bus};
use crate::event_wheel::{Bucket, EventWheel};
use crate::SimError;

/// Integer ticks per normalised gate unit (FO4 inverter delay). With
/// the library's FO4 ≈ 1 ns this makes one tick ≈ 1 ps — comfortably
/// below any delay difference a standard-cell library expresses.
pub const TICKS_PER_GATE: u64 = 1000;

/// Largest accepted cell delay in gate units. An order of magnitude
/// above any standard-cell reality; the bound keeps the event wheel's
/// horizon (and therefore its memory) small.
pub const MAX_DELAY_GATES: f64 = 64.0;

/// Quantizes every cell's library delay to integer ticks, validating
/// it on the way: the single place where `f64` delays enter the timed
/// engines.
///
/// # Errors
///
/// [`SimError::InvalidDelay`] for a delay that is not finite, is
/// negative, or exceeds [`MAX_DELAY_GATES`].
pub fn quantize_delays(netlist: &Netlist, library: &Library) -> Result<Vec<u64>, SimError> {
    netlist
        .cells()
        .iter()
        .map(|c| {
            let d = library.delay(c.kind);
            if !d.is_finite() || !(0.0..=MAX_DELAY_GATES).contains(&d) {
                return Err(SimError::InvalidDelay {
                    cell: c.name.to_string(),
                    kind: c.kind,
                    delay_gates: d,
                });
            }
            Ok((d * TICKS_PER_GATE as f64).round() as u64)
        })
        .collect()
}

/// Events a cycle may process per cell before the netlist counts as
/// oscillating (see [`event_budget`]).
const EVENTS_PER_CELL: u64 = 10_000;

/// Per-cycle event budget: a netlist that processes more events than
/// this within one clock cycle is declared oscillating.
pub(crate) fn event_budget(netlist: &Netlist) -> u64 {
    EVENTS_PER_CELL * netlist.cells().len() as u64
}

/// Greatest common divisor (Euclid).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The GCD stride the timed engines normalise quantized delays by:
/// event ordering is invariant under scaling every delay by a common
/// factor, so the wheel runs on tick/`stride` units. Exposed so static
/// analysis (`optpower-sta`) can reproduce the engine's exact time
/// base: arrival windows computed on the same stride compare directly
/// against the ticks [`TimedSim::record_events`] logs.
pub fn tick_stride(ticks: &[u64]) -> u64 {
    ticks.iter().copied().filter(|&d| d > 0).fold(0, gcd).max(1)
}

/// Three-valued levels as table indices: `Zero = 0`, `One = 1`,
/// `X = 2`.
#[inline]
fn code_of(l: Logic) -> u8 {
    match l {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
    }
}

#[inline]
fn logic_of(code: u8) -> Logic {
    match code {
        0 => Logic::Zero,
        1 => Logic::One,
        _ => Logic::X,
    }
}

/// Truth tables over three-valued codes, one per cell kind, indexed
/// by `i0 + 3·i1 + 9·i2`. Built by calling [`CellKind::eval`] on
/// every input combination, so they *are* the shared cell semantics.
fn build_luts() -> Vec<[u8; 27]> {
    let levels = [Logic::Zero, Logic::One, Logic::X];
    CellKind::ALL
        .iter()
        .map(|&kind| {
            let mut lut = [code_of(Logic::X); 27];
            let arity = kind.arity();
            if (1..=3).contains(&arity) {
                for (combo, slot) in lut.iter_mut().enumerate().take(3usize.pow(arity as u32)) {
                    let mut ins = [Logic::X; 3];
                    let mut c = combo;
                    for lane in ins.iter_mut().take(arity) {
                        *lane = levels[c % 3];
                        c /= 3;
                    }
                    *slot = code_of(kind.eval(&ins[..arity]));
                }
            }
            lut
        })
        .collect()
}

/// A netlist compiled for the event-driven engine: delays quantized to
/// tick/stride units, flat index arrays and truth tables (see the
/// module docs). Immutable once built, so one program serves every
/// stimulus stream of a measurement — each [`TimedSim`] holds an
/// [`Arc`] to it plus its own per-stream state, and lanes on different
/// worker threads share it read-only.
#[derive(Debug)]
pub(crate) struct TimedProgram<'n> {
    netlist: &'n Netlist,
    /// Per-cell hot metadata, one packed record per cell.
    meta: Vec<CellMeta>,
    /// Flat per-kind truth tables (see [`build_luts`]); a cell's table
    /// starts at `meta.lut_base`.
    lut: Vec<u8>,
    /// CSR fanout restricted to *evaluable* sinks (DFF and output
    /// ports pre-filtered): net `n`'s sinks are
    /// `fan_sink[fan_off[n] .. fan_off[n + 1]]`. Cell `i` drives net
    /// `i`, so a sink id is also the id of the net it drives.
    fan_off: Vec<u32>,
    fan_sink: Vec<u32>,
    /// `(cell, d_net, q_net)` triples of the sequential cells.
    dffs: Vec<(u32, u32, u32)>,
    /// `(cell, out_net)` pairs of the primary inputs.
    inputs: Vec<(u32, u32)>,
    /// `(cell, out_net, value)` of the constant cells.
    consts: Vec<(u32, u32, u8)>,
    /// Evaluable (combinational) cells in id order, for the cycle-0
    /// seeding pass.
    comb: Vec<u32>,
    /// Output-port nets. Ports are transparent to the engine, which
    /// never writes them: they read `X` forever.
    ports: Vec<u32>,
    /// Largest delay in stride units (sizes each stream's wheel).
    max_delay: u64,
    /// Per-cycle event budget (see [`event_budget`]).
    budget: u64,
}

impl<'n> TimedProgram<'n> {
    /// Quantizes `library` delays to integer ticks and compiles the
    /// netlist into the flat hot-path arrays described on the module.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDelay`] if any cell's library delay is not
    /// finite, is negative, or exceeds [`MAX_DELAY_GATES`], or if a
    /// logic cell's delay quantizes to zero ticks.
    pub(crate) fn compile(netlist: &'n Netlist, library: &Library) -> Result<Self, SimError> {
        let ticks = quantize_delays(netlist, library)?;
        // Run the wheel on tick/stride units (see [`tick_stride`]):
        // the cmos13 delays (all multiples of 0.1 gate units) collapse
        // from a sparse 4096-bucket wheel to a dense 32-bucket one.
        let stride = tick_stride(&ticks);
        let delays: Vec<u64> = ticks.iter().map(|&d| d / stride).collect();
        let max_delay = delays.iter().copied().max().unwrap_or(0);

        let n_cells = netlist.cells().len();
        // Cell `i` drives net `i`: one net per cell.
        let n_nets = n_cells;
        // The trailing dummy slot of a stream's values: permanently
        // `Zero`, so an unused input lane contributes 0 to the
        // truth-table index.
        let dummy = n_nets as u32;
        let mut meta = Vec::with_capacity(n_cells);
        let mut dffs = Vec::new();
        let mut inputs = Vec::new();
        let mut consts = Vec::new();
        let mut comb = Vec::new();
        let mut ports = Vec::new();
        for (i, cell) in netlist.cells().iter().enumerate() {
            // The transition counters (per cell) are indexed by net
            // directly in the hot loop.
            assert_eq!(
                cell.output.index(),
                i,
                "cell/net index identity violated by the netlist builder"
            );
            let kind_ix = CellKind::ALL
                .iter()
                .position(|&k| k == cell.kind)
                .expect("CellKind::ALL is exhaustive");
            let mut ins = [dummy; 3];
            for (slot, net) in ins.iter_mut().zip(cell.inputs.iter()) {
                *slot = net.0;
            }
            meta.push(CellMeta {
                ins,
                lut_base: (kind_ix * 27) as u16,
                // At most MAX_DELAY_GATES × TICKS_PER_GATE = 64 000.
                delay: delays[i] as u16,
            });
            match cell.kind {
                CellKind::Dff => dffs.push((i as u32, cell.inputs[0].0, cell.output.0)),
                CellKind::Input => inputs.push((i as u32, cell.output.0)),
                CellKind::Const0 => consts.push((i as u32, cell.output.0, 0u8)),
                CellKind::Const1 => consts.push((i as u32, cell.output.0, 1u8)),
                CellKind::Output => ports.push(cell.output.0),
                // The event loop needs every scheduled event to land
                // strictly after the tick that scheduled it.
                _ if delays[i] == 0 => {
                    return Err(SimError::InvalidDelay {
                        cell: cell.name.to_string(),
                        kind: cell.kind,
                        delay_gates: library.delay(cell.kind),
                    })
                }
                _ => comb.push(i as u32),
            }
        }
        // Fanout CSR over evaluable sinks only: DFFs capture at edges
        // and output ports are transparent, so neither is evaluated.
        let mut fan_off = Vec::with_capacity(n_nets + 1);
        let mut fan_sink = Vec::new();
        fan_off.push(0u32);
        for net in 0..n_nets {
            for &sink in netlist.fanout(NetId(net as u32)) {
                match netlist.cell(sink).kind {
                    CellKind::Dff | CellKind::Output => {}
                    _ => fan_sink.push(sink.0),
                }
            }
            fan_off.push(fan_sink.len() as u32);
        }
        Ok(Self {
            netlist,
            meta,
            lut: build_luts().concat(),
            fan_off,
            fan_sink,
            dffs,
            inputs,
            consts,
            comb,
            ports,
            max_delay,
            budget: event_budget(netlist),
        })
    }

    /// The compiled netlist.
    pub(crate) fn netlist(&self) -> &'n Netlist {
        self.netlist
    }
}

/// Event-driven gate-level simulator with per-cell *inertial* delays.
///
/// Scheduling is preemptive per net: re-evaluating a cell cancels its
/// not-yet-fired pending output event, so pulses narrower than the
/// gate's propagation delay are swallowed (inertial-delay semantics,
/// matching event-driven HDL simulators). Pulses wider than the delay
/// survive and are counted — a cell whose inputs arrive further apart
/// than its own delay produces glitch transitions, exactly the
/// mechanism by which the paper's diagonal pipelines pay a higher
/// activity than horizontal ones.
///
/// This is the production engine: time lives in integer ticks (see
/// the module docs), the netlist is compiled once into flat index
/// arrays, and the hot loop allocates nothing. A simulator is that
/// compiled program, shared through an [`Arc`], plus one stimulus
/// stream's state: it starts at cycle 0 ([`TimedSim::new`]), or
/// resumes from the settled state a zero-delay warm-up left
/// ([`crate::TimedLanes::lane_sim`]).
///
/// Every logic cell's delay is at least one tick ([`TimedSim::new`]
/// refuses a zero delay), so every event lands strictly after the tick
/// that scheduled it, and the per-stream state stays small:
///
/// * **due-tick preemption** — each net keeps one pending word, the
///   due tick and value of its one in-flight event. Scheduling
///   overwrites it, and the event wheel holds only the 4-byte net id:
///   an entry popped at tick `t` is live iff its net's pending due
///   tick is `t`. That is exact because a tick evaluates each dirty
///   cell once, so a net is scheduled at most once per tick, and with
///   one delay per cell `(net, due)` names one scheduling within a
///   cycle; a preempted entry finds another due tick, or none;
/// * **one event loop** — no event can land in the tick being
///   processed, so each tick's bucket is taken whole, its live entries
///   are applied, and then the tick's dirty cells are evaluated.
///
/// Two event-count optimisations apply, both *equivalence-preserving*:
///
/// * **batched per-tick evaluation** — instead of re-evaluating a
///   sink once per arriving input event, sinks touched during a tick
///   are marked dirty and evaluated exactly once when the tick's
///   events are exhausted, in last-marked order (the order of each
///   cell's last re-evaluation in the scalar engine, which that
///   engine's surviving event sequence is keyed on). The one
///   mid-tick effect that must not be deferred — an input change
///   preempting the sink's own not-yet-fired event due *this very
///   tick* — is applied eagerly at dirty-marking time by clearing the
///   sink's pending word. Same-tick order is therefore part of the
///   semantics, in both engines: a sink whose event fires before its
///   input's event in the same tick keeps it, one whose event comes
///   after loses it;
/// * **no-op elision** — an evaluation whose result equals the net's
///   current value schedules nothing: it clears a pending pulse's
///   word, and its write into the wheel is not kept. Sound because a
///   net's value cannot change between scheduling its latest event
///   and that event firing, so the scalar engine's corresponding
///   event provably fires as a no-op.
///
/// Consequently settled values and per-cell transition counts are
/// bit-identical to [`crate::ScalarTimedSim`], the frozen pre-wheel
/// reference (locked by `tests/timed_differential.rs`), while the
/// processed-event count reported by [`TimedSim::step`] is an
/// engine-specific diagnostic, never larger than the scalar engine's.
#[derive(Debug, Clone)]
pub struct TimedSim<'n> {
    program: Arc<TimedProgram<'n>>,
    stream: Stream,
}

/// The per-stream state of a [`TimedSim`]: everything one stimulus
/// stream mutates. The hot-path methods take the shared program as a
/// separate read-only argument.
#[derive(Debug, Clone)]
struct Stream {
    /// Three-valued value code per net (see [`code_of`]), plus one
    /// trailing dummy slot pinned to `0` that the unused input lanes
    /// of narrow cells point at (keeps evaluation branchless).
    values: Vec<u8>,
    /// Pending primary-input codes applied at the next cycle edge.
    input_next: Vec<u8>,
    transitions: Vec<u64>,
    wheel: EventWheel,
    /// Per-net pending event: `due << 2 | value code`, or
    /// [`NOT_PENDING`] (see [`pending_word`]).
    pending: Vec<u64>,
    /// Index of each cell's *latest* occurrence in the dirty list
    /// (only read for cells currently in the list, so no generation
    /// tag is needed). Re-marking moves a cell to the back, so the
    /// flush evaluates in last-marked order.
    dirty_pos: Vec<u32>,
    /// Cells awaiting evaluation at the current tick, in marking
    /// order with superseded duplicates (reused across flushes).
    dirty: Vec<u32>,
    /// Reusable buffer for the pre-edge D values (two-phase capture).
    dff_scratch: Vec<u8>,
    /// Reusable buffer the wheel swaps each tick's bucket into.
    run_buf: Bucket,
    /// When set, every popped wheel entry is appended to `events_log`
    /// as `(tick, net)` before the liveness check (stale entries
    /// included — they were legitimately scheduled and must obey the
    /// same timing windows). Off by default: the hot path pays one
    /// predictable branch per tick.
    record: bool,
    /// The recorded entries (see `record`), in pop order across cycles.
    events_log: Vec<(u64, NetId)>,
    cycle: u64,
}

/// Compiled per-cell metadata: everything one evaluation touches, in
/// one 16-byte record. Cell `i` drives net `i`.
#[derive(Debug, Clone, Copy)]
struct CellMeta {
    /// Input nets; unused lanes point at the trailing always-zero
    /// dummy slot of `values`, so the truth-table index
    /// `v0 + 3·v1 + 9·v2` needs no arity branch.
    ins: [u32; 3],
    /// Offset of the cell's truth table in `lut` (kind index × 27).
    lut_base: u16,
    /// Propagation delay in tick/stride units, at least 1 for every
    /// evaluable cell.
    delay: u16,
}

/// The pending word of a net with no event in flight. Its due tick,
/// `2^62 − 1`, lies beyond any tick a cycle reaches (asserted below).
const NOT_PENDING: u64 = u64::MAX;

// A cycle pops at most `event_budget + 1` ticks before the budget stops
// it (cell ids are `u32`), each at most one delay after the last, so
// every due tick it schedules stays below `NOT_PENDING`'s.
const _: () = assert!(
    (EVENTS_PER_CELL * u32::MAX as u64 + 2) * (MAX_DELAY_GATES as u64 * TICKS_PER_GATE)
        < NOT_PENDING >> 2
);

/// The pending word of an event due at tick `due` with value `code`.
#[inline]
fn pending_word(due: u64, code: u8) -> u64 {
    due << 2 | u64::from(code)
}

impl<'n> TimedSim<'n> {
    /// Creates a timing simulator using `library` delays, quantized to
    /// integer ticks: compiles the netlist and starts a stream on it at
    /// cycle 0, every net `X`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDelay`] if any cell's library delay is not
    /// finite, is negative, or exceeds [`MAX_DELAY_GATES`], or if a
    /// logic cell's delay quantizes to zero ticks (no library a job
    /// reaches has one).
    pub fn new(netlist: &'n Netlist, library: &Library) -> Result<Self, SimError> {
        Ok(Self::from_program(Arc::new(TimedProgram::compile(
            netlist, library,
        )?)))
    }

    /// Starts a stream at cycle 0 (every net `X`) on a shared compiled
    /// program: what [`TimedSim::new`] does, minus the compilation.
    pub(crate) fn from_program(program: Arc<TimedProgram<'n>>) -> Self {
        let stream = Stream::new(&program);
        Self { program, stream }
    }

    /// Resumes a stream from a settled state at the start of cycle
    /// `cycle`: the simulator continues exactly as one that had
    /// simulated the preceding `cycle` cycles itself and ended them
    /// with net `n` at `values[n]`.
    ///
    /// Net values are the whole state between cycles. Each cycle runs
    /// until the event queue is empty, and in an acyclic combinational
    /// core every inertial-delay event that survives preemption
    /// carries the cell's evaluation of its then-current inputs, so a
    /// cycle ends at the unique fixed point of the core — the
    /// zero-delay values of the same cycle. Pending words, the dirty
    /// list and the wheel carry nothing across a settled edge; transition counters start at zero (the counting
    /// window opens here), and each primary input keeps its last
    /// applied value until set again. Output-port nets, which the
    /// engine never writes, stay `X` whatever `values` holds for them.
    ///
    /// # Panics
    ///
    /// Panics if `cycle == 0` (cycle 0 seeds the core and has no
    /// settled predecessor) or `values` does not hold one value per
    /// net.
    pub(crate) fn resume(program: Arc<TimedProgram<'n>>, cycle: u64, values: &[Logic]) -> Self {
        assert!(cycle >= 1, "a settled state exists only after cycle 0");
        let p = &*program;
        assert_eq!(
            values.len(),
            p.netlist.cells().len(),
            "resume needs one value per net"
        );
        let mut stream = Stream::new(p);
        for (slot, &v) in stream.values.iter_mut().zip(values) {
            *slot = code_of(v);
        }
        for &net in &p.ports {
            stream.values[net as usize] = code_of(Logic::X);
        }
        for &(cell, net) in &p.inputs {
            stream.input_next[cell as usize] = stream.values[net as usize];
        }
        stream.cycle = cycle;
        Self { program, stream }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.program.netlist
    }

    /// Number of clock cycles simulated.
    pub fn cycle(&self) -> u64 {
        self.stream.cycle
    }

    /// Sets one primary input (takes effect at the next cycle edge).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary-input cell.
    pub fn set_input(&mut self, input: CellId, value: Logic) {
        assert!(
            self.netlist().cell(input).kind == CellKind::Input,
            "{input:?} is not a primary input"
        );
        self.stream.input_next[input.index()] = code_of(value);
    }

    /// Sets an entire input bus `{prefix}{0..}` from an integer.
    pub fn set_input_bits(&mut self, prefix: &str, value: u64) {
        let bus = bus_inputs(self.netlist(), prefix);
        assert!(!bus.is_empty(), "no input bus named {prefix}*");
        for (i, id) in bus.into_iter().enumerate() {
            self.set_input(id, Logic::from_bool((value >> i) & 1 == 1));
        }
    }

    /// Current (settled) value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        logic_of(self.stream.values[net.index()])
    }

    /// Decodes an output bus `{prefix}{0..}`; `None` if any bit is `X`.
    pub fn output_bits(&self, prefix: &str) -> Option<u64> {
        let netlist = self.netlist();
        let bus = bus_outputs(netlist, prefix);
        if bus.is_empty() {
            return None;
        }
        let bits: Vec<Logic> = bus
            .iter()
            .map(|&id| self.value(netlist.cell(id).inputs[0]))
            .collect();
        decode_bus(&bits)
    }

    /// Runs one full clock cycle: clocks the DFFs, applies pending
    /// inputs at tick 0, then processes events until the netlist
    /// settles. Returns the number of wheel entries popped, stale ones
    /// included — an engine-specific diagnostic (the batching and
    /// elision described on [`TimedSim`] make it much smaller than the
    /// scalar reference's count for the same cycle).
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] if the event count within one cycle
    /// exceeds `10_000 × cells` — the netlist oscillates instead of
    /// settling. Structurally validated netlists cannot trigger this;
    /// after the error the simulator state is undefined and the
    /// instance should be discarded.
    pub fn step(&mut self) -> Result<u64, SimError> {
        self.stream.step(&self.program)
    }

    /// Total known↔known transitions of logic-cell outputs so far.
    pub fn logic_transitions(&self) -> u64 {
        self.netlist()
            .logic_cells()
            .map(|(id, _)| self.stream.transitions[id.index()])
            .sum()
    }

    /// Per-cell transition counts (indexable by `CellId`).
    pub fn transitions(&self) -> &[u64] {
        &self.stream.transitions
    }

    /// Resets the transition counters (e.g. after warm-up cycles).
    pub fn reset_transitions(&mut self) {
        self.stream.transitions.iter_mut().for_each(|t| *t = 0);
    }

    /// Turns event recording on or off. While on, every entry the
    /// engine pops — including stale ones later found preempted — is
    /// kept as its cycle-local due tick and net, so static timing
    /// windows can be checked against the engine's real event stream
    /// (`tests/sta_differential.rs`). Ticks are in tick/stride units;
    /// compare against windows computed on [`tick_stride`] of
    /// [`quantize_delays`].
    pub fn record_events(&mut self, on: bool) {
        self.stream.record = on;
    }

    /// Drains the recorded `(tick, net)` log (see
    /// [`TimedSim::record_events`]), leaving it empty for further
    /// recording.
    pub fn take_events(&mut self) -> Vec<(u64, NetId)> {
        core::mem::take(&mut self.stream.events_log)
    }
}

impl Stream {
    /// A stream at cycle 0: every net `X`, no pending inputs.
    fn new(p: &TimedProgram<'_>) -> Self {
        let n_cells = p.meta.len();
        let n_nets = p.fan_off.len() - 1;
        let mut values = vec![code_of(Logic::X); n_nets + 1];
        values[n_nets] = code_of(Logic::Zero); // the dummy slot
        Self {
            values,
            input_next: vec![code_of(Logic::X); n_cells],
            transitions: vec![0; n_cells],
            wheel: EventWheel::new(p.max_delay),
            pending: vec![NOT_PENDING; n_nets],
            dirty_pos: vec![0; n_cells],
            dirty: Vec::new(),
            dff_scratch: Vec::with_capacity(p.dffs.len()),
            run_buf: Bucket::default(),
            record: false,
            events_log: Vec::new(),
            cycle: 0,
        }
    }

    /// One clock cycle; see [`TimedSim::step`].
    fn step(&mut self, p: &TimedProgram<'_>) -> Result<u64, SimError> {
        // The queue fully drained last cycle; rewind the wheel so this
        // cycle's events restart at tick 0.
        self.wheel.reset();
        // 0. First cycle only: drive constants and mark every
        // combinational cell for evaluation. Event-driven updates
        // alone never reach cells whose inputs never change, which
        // would leave their initial `X` in place forever.
        if self.cycle == 0 {
            for &(cell, net, code) in &p.consts {
                self.commit(p, cell, net, code);
            }
            for &cell in &p.comb {
                self.mark_dirty(cell);
            }
        }
        // 1. Capture D pins (values settled in the previous cycle)
        // into the reusable scratch buffer, then update all Q outputs
        // at tick 0 — two-phase so DFF-to-DFF chains see pre-edge
        // values.
        let mut scratch = core::mem::take(&mut self.dff_scratch);
        scratch.clear();
        scratch.extend(
            p.dffs
                .iter()
                .map(|&(_, d_net, _)| self.values[d_net as usize]),
        );
        for (&(cell, _, q_net), &q) in p.dffs.iter().zip(scratch.iter()) {
            self.commit(p, cell, q_net, q);
        }
        self.dff_scratch = scratch;
        // 2. At tick 0: apply primary inputs, then evaluate everything
        // the edge touched exactly once.
        for &(cell, net) in &p.inputs {
            let v = self.input_next[cell as usize];
            self.commit(p, cell, net, v);
        }
        self.flush_dirty(p, 0);
        // 3. Event loop until quiescent: take each tick's bucket whole
        // (no event lands in the tick being processed), apply its live
        // entries (marking their sinks dirty), then evaluate the
        // tick's dirty sinks in one batch.
        let mut processed = 0u64;
        let mut run = core::mem::take(&mut self.run_buf);
        while let Some(time) = self.wheel.pop_run(&mut run) {
            let nets = run.nets();
            processed += nets.len() as u64;
            if processed > p.budget {
                self.run_buf = run;
                return Err(SimError::Oscillation {
                    netlist: p.netlist.name().to_string(),
                    cycle: self.cycle,
                    budget: p.budget,
                });
            }
            if self.record {
                self.events_log
                    .extend(nets.iter().map(|&net| (time, NetId(net))));
            }
            for &net in nets {
                self.fire(p, net as usize, time);
            }
            self.flush_dirty(p, time);
        }
        self.run_buf = run;
        self.cycle += 1;
        Ok(processed)
    }

    /// Applies one popped entry of tick `time`: if it is still the
    /// net's pending event (inertial preemption leaves stale entries
    /// behind), commits its value, counts the transition and marks the
    /// sinks dirty.
    #[inline]
    fn fire(&mut self, p: &TimedProgram<'_>, net: usize, time: u64) {
        let word = self.pending[net];
        if word >> 2 != time {
            return;
        }
        self.pending[net] = NOT_PENDING;
        let (old, new) = (self.values[net], (word & 3) as u8);
        // Only value changes are scheduled, and only a net's own events
        // change its value.
        debug_assert_ne!(old, new, "a live event always changes its net");
        // Net index == driving-cell index (asserted in
        // `TimedProgram::compile`).
        self.transitions[net] += u64::from(old < 2 && new < 2);
        self.values[net] = new;
        self.mark_sinks_dirty(p, net, time);
    }

    /// Immediately sets a cell's output (tick-0 edge semantics) and
    /// marks its sinks for the tick-0 evaluation batch.
    fn commit(&mut self, p: &TimedProgram<'_>, cell: u32, net: u32, code: u8) {
        let old = self.values[net as usize];
        if old == code {
            return;
        }
        if old < 2 && code < 2 {
            self.transitions[cell as usize] += 1;
        }
        self.values[net as usize] = code;
        self.mark_sinks_dirty(p, net as usize, 0);
    }

    /// Marks every evaluable sink of `net` dirty for the current tick
    /// (`now`), cancelling any sink output event *due this very tick*
    /// that has not fired yet. The eager cancellation mirrors the
    /// scalar engine exactly: there, the input change re-evaluates the
    /// sink immediately and the push preempts the same-tick pending
    /// event before it can pop. Pending events due at later ticks need
    /// no eager treatment — the end-of-tick flush preempts or cancels
    /// them before any later tick is processed.
    #[inline]
    fn mark_sinks_dirty(&mut self, p: &TimedProgram<'_>, net: usize, now: u64) {
        let lo = p.fan_off[net] as usize;
        let hi = p.fan_off[net + 1] as usize;
        for &sink in &p.fan_sink[lo..hi] {
            let out = &mut self.pending[sink as usize];
            if *out >> 2 == now {
                *out = NOT_PENDING;
            }
            self.mark_dirty(sink);
        }
    }

    /// Adds `cell` to the back of the current tick's dirty list. A
    /// re-mark supersedes the earlier occurrence (skipped at flush),
    /// so the list's surviving order is last-marked order.
    #[inline]
    fn mark_dirty(&mut self, cell: u32) {
        self.dirty_pos[cell as usize] = self.dirty.len() as u32;
        self.dirty.push(cell);
    }

    /// Evaluates every dirty cell exactly once against the fully
    /// updated tick-`time` net values and schedules the results one
    /// cell delay later. An evaluation that would not change the net's
    /// value clears its pending word (cancelling an in-flight pulse)
    /// and its wheel write is not kept; see the equivalence argument on
    /// [`TimedSim`]. Branch-free per cell beyond the dedup check, and
    /// allocation-free: the dirty list is reused and evaluation is a
    /// truth-table lookup.
    fn flush_dirty(&mut self, p: &TimedProgram<'_>, time: u64) {
        let mut dirty = core::mem::take(&mut self.dirty);
        for (i, &id) in dirty.iter().enumerate() {
            // Only the cell's latest occurrence evaluates (last-marked
            // order; earlier occurrences were superseded by re-marks).
            if self.dirty_pos[id as usize] != i as u32 {
                continue;
            }
            let meta = p.meta[id as usize];
            let idx = self.values[meta.ins[0] as usize] as usize
                + 3 * self.values[meta.ins[1] as usize] as usize
                + 9 * self.values[meta.ins[2] as usize] as usize;
            let new = p.lut[meta.lut_base as usize + idx];
            let live = new != self.values[id as usize];
            let due = time + u64::from(meta.delay);
            self.pending[id as usize] = if live {
                pending_word(due, new)
            } else {
                NOT_PENDING
            };
            self.wheel.push(due, id, live);
        }
        dirty.clear();
        self.dirty = dirty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::NetlistBuilder;

    /// XOR with one input delayed through two buffers: flipping both
    /// inputs simultaneously produces a glitch pulse on the output.
    fn glitchy_xor() -> Netlist {
        let mut b = NetlistBuilder::new("glitch");
        let a = b.add_input("a0");
        let c = b.add_input("b0");
        let d1 = b.add_cell(CellKind::Buf, &[c]);
        let d2 = b.add_cell(CellKind::Buf, &[d1]);
        let s = b.add_cell(CellKind::Xor2, &[a, d2]);
        b.add_output("p0", s);
        b.build().unwrap()
    }

    #[test]
    fn timed_sees_the_glitch_zero_delay_does_not() {
        let nl = glitchy_xor();
        let lib = Library::cmos13();
        let mut timed = TimedSim::new(&nl, &lib).unwrap();
        let mut zd = crate::ZeroDelaySim::new(&nl);
        // Warm up to (0, 0): xor = 0.
        timed.set_input_bits("a", 0);
        timed.set_input_bits("b", 0);
        timed.step().unwrap();
        timed.reset_transitions();
        zd.set_input_bits("a", 0);
        zd.set_input_bits("b", 0);
        zd.step();
        zd.reset_transitions();
        // Flip both inputs: final xor value is unchanged (0), but the
        // delayed path makes the timed output pulse 0->1->0.
        timed.set_input_bits("a", 1);
        timed.set_input_bits("b", 1);
        timed.step().unwrap();
        zd.set_input_bits("a", 1);
        zd.set_input_bits("b", 1);
        zd.step();
        // Zero-delay: buffers toggle (2 transitions), xor stays.
        assert_eq!(zd.logic_transitions(), 2);
        // Timed: buffers toggle (2) + xor glitches (2 transitions).
        assert_eq!(timed.logic_transitions(), 4);
        assert_eq!(timed.output_bits("p"), Some(0));
        assert_eq!(zd.output_bits("p"), Some(0));
    }

    #[test]
    fn functional_agreement_with_zero_delay() {
        // Random full-adder vectors: settled outputs must agree.
        let mut b = NetlistBuilder::new("fa");
        let a = b.add_input("a0");
        let x = b.add_input("b0");
        let c = b.add_input("c0");
        let s = b.add_cell(CellKind::Xor3, &[a, x, c]);
        let co = b.add_cell(CellKind::Maj3, &[a, x, c]);
        b.add_output("p0", s);
        b.add_output("p1", co);
        let nl = b.build().unwrap();
        let lib = Library::cmos13();
        let mut timed = TimedSim::new(&nl, &lib).unwrap();
        let mut zd = crate::ZeroDelaySim::new(&nl);
        for v in 0..8u64 {
            timed.set_input_bits("a", v & 1);
            timed.set_input_bits("b", (v >> 1) & 1);
            timed.set_input_bits("c", (v >> 2) & 1);
            timed.step().unwrap();
            zd.set_input_bits("a", v & 1);
            zd.set_input_bits("b", (v >> 1) & 1);
            zd.set_input_bits("c", (v >> 2) & 1);
            zd.step();
            assert_eq!(timed.output_bits("p"), zd.output_bits("p"), "v={v}");
        }
    }

    #[test]
    fn dff_capture_uses_pre_edge_value() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.add_input("a0");
        let q = b.add_cell(CellKind::Dff, &[d]);
        b.add_output("p0", q);
        let nl = b.build().unwrap();
        let mut sim = TimedSim::new(&nl, &Library::cmos13()).unwrap();
        sim.set_input_bits("a", 1);
        sim.step().unwrap();
        assert_eq!(sim.output_bits("p"), None, "q captured pre-edge X");
        sim.step().unwrap();
        assert_eq!(sim.output_bits("p"), Some(1));
    }

    #[test]
    fn constants_and_quiet_cells_resolve() {
        // Regression: a cell fed only by constants must leave X on the
        // first cycle even though its inputs never "change".
        let mut b = NetlistBuilder::new("const");
        let one = b.add_cell(CellKind::Const1, &[]);
        let zero = b.add_cell(CellKind::Const0, &[]);
        let n = b.add_cell(CellKind::Nand2, &[one, zero]);
        let x = b.add_input("a0");
        let y = b.add_cell(CellKind::And2, &[n, x]);
        b.add_output("p0", y);
        let nl = b.build().unwrap();
        let mut sim = TimedSim::new(&nl, &Library::cmos13()).unwrap();
        sim.set_input_bits("a", 1);
        sim.step().unwrap();
        assert_eq!(sim.output_bits("p"), Some(1));
    }

    #[test]
    fn event_count_bounded_per_cycle() {
        let nl = glitchy_xor();
        let mut sim = TimedSim::new(&nl, &Library::cmos13()).unwrap();
        sim.set_input_bits("a", 1);
        sim.set_input_bits("b", 1);
        let events = sim.step().unwrap();
        // 3 combinational cells, each re-evaluated a handful of times.
        assert!(events < 20, "events = {events}");
    }

    #[test]
    fn quantization_is_exact_for_the_library() {
        // Every cmos13 delay is a multiple of 0.1 gate units, so the
        // 1000-ticks-per-gate quantization is exact.
        let nl = glitchy_xor();
        let lib = Library::cmos13();
        let ticks = quantize_delays(&nl, &lib).unwrap();
        for (cell, &t) in nl.cells().iter().zip(&ticks) {
            let gates = lib.delay(cell.kind);
            assert_eq!(t, (gates * 10.0).round() as u64 * 100, "{}", cell.name);
        }
    }

    #[test]
    fn luts_agree_with_cell_eval_exhaustively() {
        // The compiled truth tables must be CellKind::eval, verbatim.
        let levels = [Logic::Zero, Logic::One, Logic::X];
        let luts = build_luts();
        for (k, &kind) in CellKind::ALL.iter().enumerate() {
            let arity = kind.arity();
            if !(1..=3).contains(&arity) {
                continue;
            }
            for (combo, &code) in luts[k].iter().enumerate().take(3usize.pow(arity as u32)) {
                let mut ins = [Logic::X; 3];
                let mut c = combo;
                for slot in ins.iter_mut().take(arity) {
                    *slot = levels[c % 3];
                    c /= 3;
                }
                assert_eq!(
                    logic_of(code),
                    kind.eval(&ins[..arity]),
                    "{kind} combo {combo}"
                );
            }
        }
    }

    #[test]
    fn invalid_delays_are_rejected_at_construction() {
        // A library with a NaN delay must fail `new`, not corrupt
        // event ordering at runtime (the old f64 engine compared NaN
        // as Ordering::Equal). A logic delay that quantizes to zero
        // ticks is refused too: the event loop needs every event to
        // land after the tick that scheduled it.
        let nl = glitchy_xor();
        for bad in [
            f64::NAN,
            f64::INFINITY,
            -1.0,
            MAX_DELAY_GATES + 1.0,
            0.0,
            0.0004,
        ] {
            let lib = Library::with_uniform_delay(bad);
            let err = TimedSim::new(&nl, &lib).unwrap_err();
            match err {
                SimError::InvalidDelay { delay_gates, .. } => {
                    assert!(delay_gates.is_nan() || delay_gates == bad);
                }
                other => panic!("expected InvalidDelay, got {other:?}"),
            }
        }
        // One tick and MAX_DELAY_GATES are the legal extremes.
        for ok in [1.0 / TICKS_PER_GATE as f64, MAX_DELAY_GATES] {
            assert!(TimedSim::new(&nl, &Library::with_uniform_delay(ok)).is_ok());
        }
    }

    #[test]
    fn zero_delay_library_settles_in_one_tick() {
        // All-zero logic delays: the scalar reference still accepts
        // them and settles every cycle at tick 0, in pure FIFO order, to
        // the zero-delay values; the wheel engine refuses them.
        let nl = glitchy_xor();
        let lib = Library::with_uniform_delay(0.0);
        assert!(matches!(
            TimedSim::new(&nl, &lib),
            Err(SimError::InvalidDelay { .. })
        ));
        let mut sim = crate::ScalarTimedSim::new(&nl, &lib).unwrap();
        let mut zd = crate::ZeroDelaySim::new(&nl);
        for v in [0u64, 3, 1, 2, 3, 0] {
            sim.set_input_bits("a", v & 1);
            sim.set_input_bits("b", (v >> 1) & 1);
            sim.step().unwrap();
            zd.set_input_bits("a", v & 1);
            zd.set_input_bits("b", (v >> 1) & 1);
            zd.step();
            assert_eq!(sim.output_bits("p"), zd.output_bits("p"), "v={v}");
        }
    }

    #[test]
    fn recorded_log_holds_every_popped_entry() {
        // Flipping both inputs of the glitchy XOR schedules the XOR
        // twice; the recorded log holds every popped entry as
        // (tick, net) in pop order, and the step's count is its length.
        let nl = glitchy_xor();
        let mut sim = TimedSim::new(&nl, &Library::cmos13()).unwrap();
        sim.set_input_bits("a", 0);
        sim.set_input_bits("b", 0);
        sim.step().unwrap();
        sim.record_events(true);
        sim.set_input_bits("a", 1);
        sim.set_input_bits("b", 1);
        let popped = sim.step().unwrap();
        let log = sim.take_events();
        assert_eq!(log.len() as u64, popped);
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "{log:?}");
        // Buffers 1 and 2 and the XOR's rise and fall.
        let xor = NetId(4);
        assert_eq!(log.iter().filter(|&&(_, net)| net == xor).count(), 2);
        assert!(sim.take_events().is_empty());
    }
}
