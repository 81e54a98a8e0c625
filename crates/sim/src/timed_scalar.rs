//! The frozen scalar reference of the timed engine: a `BinaryHeap`
//! event queue and per-event allocations, exactly the shape of the
//! pre-wheel hot path.
//!
//! [`ScalarTimedSim`] exists for two jobs and is deliberately **not**
//! optimised:
//!
//! * it is the differential baseline the production [`crate::TimedSim`]
//!   is locked against bit for bit (settled values and per-cell
//!   transition counts; see `tests/timed_differential.rs`);
//! * it is the reference row of the `timed_engine_wallace16_64v` pair
//!   in `benches/sim.rs`, so the committed `BENCH_sweep.json` keeps
//!   measuring what the event-wheel rebuild actually bought.
//!
//! It shares the integer-tick time base (and therefore the total event
//! ordering and the delay validation) with the wheel engine through
//! [`crate::quantize_delays`] — the two engines may only differ in
//! queue mechanics, never in semantics. It still accepts a logic cell
//! of zero delay, which the wheel engine refuses.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use optpower_netlist::{CellId, CellKind, Library, Logic, NetId, Netlist};

use crate::bus::{bus_inputs, bus_outputs, decode_bus};
use crate::timed::{event_budget, quantize_delays};
use crate::SimError;

/// One scheduled net-value change, keyed by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimedEvent {
    /// Cycle-local event time in ticks.
    time: u64,
    /// Global schedule sequence number; FIFO tie-breaker within a tick
    /// and the handle used for inertial-delay preemption.
    seq: u64,
    /// The net whose value changes.
    net: NetId,
    /// The value it changes to.
    value: Logic,
}

/// Min-heap adapter: `BinaryHeap` is a max-heap, so compare reversed.
/// Integer ticks make this ordering *total* — the old `f64` version
/// fell back to `Ordering::Equal` on incomparable (NaN) times, which
/// silently corrupted heap order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry(TimedEvent);

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Earliest time first, FIFO (lowest seq) within a time.
        other
            .0
            .time
            .cmp(&self.0.time)
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pre-wheel event-driven simulator (inertial delays, glitch
/// counting) kept as the frozen reference; see the module docs. The
/// public API mirrors [`crate::TimedSim`].
#[derive(Debug, Clone)]
pub struct ScalarTimedSim<'n> {
    netlist: &'n Netlist,
    /// Per-cell propagation delay in ticks.
    delays: Vec<u64>,
    values: Vec<Logic>,
    input_next: Vec<Logic>,
    transitions: Vec<u64>,
    queue: BinaryHeap<HeapEntry>,
    /// Latest scheduled event per net; an older pending event is
    /// cancelled when popped (inertial-delay preemption).
    latest_seq: Vec<u64>,
    seq: u64,
    cycle: u64,
}

impl<'n> ScalarTimedSim<'n> {
    /// Creates a reference timing simulator using `library` delays.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDelay`] for a delay that is not finite, is
    /// negative, or exceeds [`crate::MAX_DELAY_GATES`]: the conditions
    /// of [`crate::TimedSim::new`] except that a zero delay is
    /// accepted.
    pub fn new(netlist: &'n Netlist, library: &Library) -> Result<Self, SimError> {
        let delays = quantize_delays(netlist, library)?;
        Ok(Self {
            netlist,
            delays,
            values: vec![Logic::X; netlist.cells().len()],
            input_next: vec![Logic::X; netlist.cells().len()],
            transitions: vec![0; netlist.cells().len()],
            queue: BinaryHeap::new(),
            latest_seq: vec![0; netlist.cells().len()],
            seq: 0,
            cycle: 0,
        })
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of clock cycles simulated.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets one primary input (takes effect at the next cycle edge).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary-input cell.
    pub fn set_input(&mut self, input: CellId, value: Logic) {
        assert!(
            self.netlist.cell(input).kind == CellKind::Input,
            "{input:?} is not a primary input"
        );
        self.input_next[input.index()] = value;
    }

    /// Sets an entire input bus `{prefix}{0..}` from an integer.
    pub fn set_input_bits(&mut self, prefix: &str, value: u64) {
        let bus = bus_inputs(self.netlist, prefix);
        assert!(!bus.is_empty(), "no input bus named {prefix}*");
        for (i, id) in bus.into_iter().enumerate() {
            self.set_input(id, Logic::from_bool((value >> i) & 1 == 1));
        }
    }

    /// Current (settled) value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Decodes an output bus `{prefix}{0..}`; `None` if any bit is `X`.
    pub fn output_bits(&self, prefix: &str) -> Option<u64> {
        let bus = bus_outputs(self.netlist, prefix);
        if bus.is_empty() {
            return None;
        }
        let bits: Vec<Logic> = bus
            .iter()
            .map(|&id| self.values[self.netlist.cell(id).inputs[0].index()])
            .collect();
        decode_bus(&bits)
    }

    /// Runs one full clock cycle; returns the number of events
    /// processed.
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] under exactly the conditions of
    /// [`crate::TimedSim::step`].
    pub fn step(&mut self) -> Result<u64, SimError> {
        // 0. First cycle only: drive constants and seed an evaluation
        // of every combinational cell.
        if self.cycle == 0 {
            for i in 0..self.netlist.cells().len() {
                let id = CellId(i as u32);
                match self.netlist.cell(id).kind {
                    CellKind::Const0 => self.commit(id, Logic::Zero, 0),
                    CellKind::Const1 => self.commit(id, Logic::One, 0),
                    _ => {}
                }
            }
            for i in 0..self.netlist.cells().len() {
                let id = CellId(i as u32);
                let cell = self.netlist.cell(id);
                match cell.kind {
                    CellKind::Input
                    | CellKind::Const0
                    | CellKind::Const1
                    | CellKind::Dff
                    | CellKind::Output => {}
                    _ => {
                        let ins: Vec<Logic> =
                            cell.inputs.iter().map(|n| self.values[n.index()]).collect();
                        let new = cell.kind.eval(&ins);
                        self.seq += 1;
                        self.latest_seq[cell.output.index()] = self.seq;
                        self.queue.push(HeapEntry(TimedEvent {
                            time: self.delays[id.index()],
                            seq: self.seq,
                            net: cell.output,
                            value: new,
                        }));
                    }
                }
            }
        }
        // 1. Capture D pins (values settled in the previous cycle).
        let dff_next: Vec<(CellId, Logic)> = self
            .netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(i, c)| (CellId(i as u32), self.values[c.inputs[0].index()]))
            .collect();
        // 2. At tick 0: update Q outputs and primary inputs.
        for (id, q) in dff_next {
            self.commit(id, q, 0);
        }
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            if cell.kind == CellKind::Input {
                let v = self.input_next[i];
                self.commit(CellId(i as u32), v, 0);
            }
        }
        // 3. Event loop until quiescent.
        let budget = event_budget(self.netlist);
        let mut processed = 0u64;
        while let Some(HeapEntry(ev)) = self.queue.pop() {
            processed += 1;
            if processed > budget {
                return Err(SimError::Oscillation {
                    netlist: self.netlist.name().to_string(),
                    cycle: self.cycle,
                    budget,
                });
            }
            // Inertial preemption: a newer evaluation of the driver
            // supersedes this event.
            if self.latest_seq[ev.net.index()] != ev.seq {
                continue;
            }
            let old = self.values[ev.net.index()];
            if old == ev.value {
                continue;
            }
            let driver = self.netlist.net(ev.net).driver;
            if old.is_known() && ev.value.is_known() {
                self.transitions[driver.index()] += 1;
            }
            self.values[ev.net.index()] = ev.value;
            self.propagate(ev.net, ev.time);
        }
        self.cycle += 1;
        Ok(processed)
    }

    /// Immediately sets a cell's output (tick-0 edge semantics) and
    /// seeds propagation.
    fn commit(&mut self, id: CellId, value: Logic, time: u64) {
        let net = self.netlist.cell(id).output;
        let old = self.values[net.index()];
        if old == value {
            return;
        }
        if old.is_known() && value.is_known() {
            self.transitions[id.index()] += 1;
        }
        self.values[net.index()] = value;
        self.propagate(net, time);
    }

    /// Re-evaluates every sink of `net` and schedules output changes —
    /// deliberately kept in the original allocation-per-event shape.
    fn propagate(&mut self, net: NetId, time: u64) {
        let sinks: Vec<CellId> = self.netlist.fanout(net).to_vec();
        for sink in sinks {
            let cell = self.netlist.cell(sink);
            match cell.kind {
                CellKind::Dff => {}
                CellKind::Output => {}
                _ => {
                    let ins: Vec<Logic> =
                        cell.inputs.iter().map(|n| self.values[n.index()]).collect();
                    let new = cell.kind.eval(&ins);
                    self.seq += 1;
                    self.latest_seq[cell.output.index()] = self.seq;
                    self.queue.push(HeapEntry(TimedEvent {
                        time: time + self.delays[sink.index()],
                        seq: self.seq,
                        net: cell.output,
                        value: new,
                    }));
                }
            }
        }
    }

    /// Total known↔known transitions of logic-cell outputs so far.
    pub fn logic_transitions(&self) -> u64 {
        self.netlist
            .logic_cells()
            .map(|(id, _)| self.transitions[id.index()])
            .sum()
    }

    /// Per-cell transition counts (indexable by `CellId`).
    pub fn transitions(&self) -> &[u64] {
        &self.transitions
    }

    /// Resets the transition counters (e.g. after warm-up cycles).
    pub fn reset_transitions(&mut self) {
        self.transitions.iter_mut().for_each(|t| *t = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimedSim;
    use optpower_netlist::NetlistBuilder;

    #[test]
    fn heap_ordering_is_total_on_ticks() {
        let mk = |time, seq| {
            HeapEntry(TimedEvent {
                time,
                seq,
                net: NetId(0),
                value: Logic::One,
            })
        };
        let mut heap = BinaryHeap::new();
        for (t, s) in [(5u64, 1u64), (0, 2), (5, 3), (2, 4)] {
            heap.push(mk(t, s));
        }
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| heap.pop().map(|HeapEntry(e)| (e.time, e.seq))).collect();
        assert_eq!(order, vec![(0, 2), (2, 4), (5, 1), (5, 3)]);
    }

    #[test]
    fn scalar_matches_wheel_on_a_glitchy_netlist() {
        // The module-level contract in miniature; the full differential
        // suite lives in tests/timed_differential.rs.
        let mut b = NetlistBuilder::new("glitch");
        let a = b.add_input("a0");
        let c = b.add_input("b0");
        let d1 = b.add_cell(CellKind::Buf, &[c]);
        let d2 = b.add_cell(CellKind::Buf, &[d1]);
        let s = b.add_cell(CellKind::Xor2, &[a, d2]);
        b.add_output("p0", s);
        let nl = b.build().unwrap();
        let lib = Library::cmos13();
        let mut scalar = ScalarTimedSim::new(&nl, &lib).unwrap();
        let mut wheel = TimedSim::new(&nl, &lib).unwrap();
        for v in [0u64, 3, 0, 1, 2, 3, 3, 0] {
            scalar.set_input_bits("a", v & 1);
            scalar.set_input_bits("b", (v >> 1) & 1);
            wheel.set_input_bits("a", v & 1);
            wheel.set_input_bits("b", (v >> 1) & 1);
            let es = scalar.step().unwrap();
            let ew = wheel.step().unwrap();
            // Batching + elision make the wheel process no more events
            // than the reference; values and counts stay identical.
            assert!(ew <= es, "wheel {ew} events > scalar {es} at v={v}");
            assert_eq!(scalar.output_bits("p"), wheel.output_bits("p"));
        }
        assert_eq!(scalar.transitions(), wheel.transitions());
        assert_eq!(scalar.logic_transitions(), wheel.logic_transitions());
    }

    #[test]
    fn invalid_delays_are_rejected() {
        let mut b = NetlistBuilder::new("inv");
        let x = b.add_input("a0");
        let y = b.add_cell(CellKind::Inv, &[x]);
        b.add_output("p0", y);
        let nl = b.build().unwrap();
        let err = ScalarTimedSim::new(&nl, &Library::with_uniform_delay(f64::NAN)).unwrap_err();
        assert!(matches!(err, SimError::InvalidDelay { .. }));
    }
}
