//! The zero-delay (functional) engine.

use optpower_netlist::{CellId, CellKind, Logic, Netlist};

use crate::bus::{bus_inputs, bus_outputs, decode_bus};

/// Per-cycle functional simulator: on each [`ZeroDelaySim::step`] the
/// DFFs clock simultaneously, then the combinational core is evaluated
/// once in topological order. At most one transition per cell per
/// cycle — the glitch-free reference.
#[derive(Debug, Clone)]
pub struct ZeroDelaySim<'n> {
    netlist: &'n Netlist,
    /// Current value of every net.
    values: Vec<Logic>,
    /// Pending primary-input values applied at the next step.
    input_next: Vec<Logic>,
    /// Transition count per cell output (known↔known toggles only).
    transitions: Vec<u64>,
    cycle: u64,
}

impl<'n> ZeroDelaySim<'n> {
    /// Creates a simulator with every net at `X` and all DFFs
    /// uninitialised.
    pub fn new(netlist: &'n Netlist) -> Self {
        Self {
            netlist,
            values: vec![Logic::X; netlist.cells().len()],
            input_next: vec![Logic::X; netlist.cells().len()],
            transitions: vec![0; netlist.cells().len()],
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of [`ZeroDelaySim::step`]s executed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets one primary input (takes effect at the next step).
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary-input cell.
    pub fn set_input(&mut self, input: CellId, value: Logic) {
        assert!(
            self.netlist.cell(input).kind == CellKind::Input,
            "{:?} is not a primary input",
            input
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

    /// Current value of a net.
    pub fn value(&self, net: optpower_netlist::NetId) -> Logic {
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

    /// Advances one clock cycle: clocks every DFF (capturing the D
    /// value settled in the previous cycle), applies pending inputs,
    /// then evaluates the combinational core in topological order.
    pub fn step(&mut self) {
        // 1. Sample D pins (pre-edge values), then update all Q outputs.
        let dff_next: Vec<(CellId, Logic)> = self
            .netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(i, c)| (CellId(i as u32), self.values[c.inputs[0].index()]))
            .collect();
        for (id, q) in dff_next {
            self.write(id, q);
        }
        // 2. Apply primary inputs.
        for (i, cell) in self.netlist.cells().iter().enumerate() {
            if cell.kind == CellKind::Input {
                let v = self.input_next[i];
                self.write(CellId(i as u32), v);
            }
        }
        // 3. One topological pass over the combinational core.
        for &id in self.netlist.topo_order() {
            let cell = self.netlist.cell(id);
            match cell.kind {
                CellKind::Input | CellKind::Dff => {} // already updated
                _ => {
                    let ins: Vec<Logic> =
                        cell.inputs.iter().map(|n| self.values[n.index()]).collect();
                    let out = cell.kind.eval(&ins);
                    self.write(id, out);
                }
            }
        }
        self.cycle += 1;
    }

    fn write(&mut self, id: CellId, value: Logic) {
        let net = self.netlist.cell(id).output;
        let old = self.values[net.index()];
        if old != value {
            if old.is_known() && value.is_known() {
                self.transitions[id.index()] += 1;
            }
            self.values[net.index()] = value;
        }
    }

    /// Total known↔known transitions of logic-cell outputs so far.
    pub fn logic_transitions(&self) -> u64 {
        self.netlist
            .logic_cells()
            .map(|(id, _)| self.transitions[id.index()])
            .sum()
    }

    /// Resets the transition counters (e.g. after warm-up cycles).
    pub fn reset_transitions(&mut self) {
        self.transitions.iter_mut().for_each(|t| *t = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::NetlistBuilder;

    fn full_adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let a = b.add_input("a0");
        let x = b.add_input("b0");
        let c = b.add_input("c0");
        let s = b.add_cell(CellKind::Xor3, &[a, x, c]);
        let co = b.add_cell(CellKind::Maj3, &[a, x, c]);
        b.add_output("p0", s);
        b.add_output("p1", co);
        b.build().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        let mut sim = ZeroDelaySim::new(&nl);
        for a in 0..2u64 {
            for b in 0..2u64 {
                for c in 0..2u64 {
                    sim.set_input_bits("a", a);
                    sim.set_input_bits("b", b);
                    sim.set_input_bits("c", c);
                    sim.step();
                    let out = sim.output_bits("p").unwrap();
                    assert_eq!(out, a + b + c, "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn outputs_are_x_before_inputs_arrive() {
        let nl = full_adder();
        let mut sim = ZeroDelaySim::new(&nl);
        sim.step();
        assert_eq!(sim.output_bits("p"), None);
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.add_input("a0");
        let q = b.add_cell(CellKind::Dff, &[d]);
        b.add_output("p0", q);
        let nl = b.build().unwrap();
        let mut sim = ZeroDelaySim::new(&nl);
        sim.set_input_bits("a", 1);
        sim.step(); // input visible, q still X (captured pre-edge X)
        assert_eq!(sim.output_bits("p"), None);
        sim.step(); // q captures the 1
        assert_eq!(sim.output_bits("p"), Some(1));
        sim.set_input_bits("a", 0);
        sim.step();
        assert_eq!(sim.output_bits("p"), Some(1), "old value holds");
        sim.step();
        assert_eq!(sim.output_bits("p"), Some(0));
    }

    #[test]
    fn transition_counting_is_glitch_free() {
        // XOR of two inputs that both flip: zero-delay sees at most one
        // output transition per cycle.
        let mut b = NetlistBuilder::new("x");
        let a = b.add_input("a0");
        let c = b.add_input("b0");
        let s = b.add_cell(CellKind::Xor2, &[a, c]);
        b.add_output("p0", s);
        let nl = b.build().unwrap();
        let mut sim = ZeroDelaySim::new(&nl);
        sim.set_input_bits("a", 0);
        sim.set_input_bits("b", 0);
        sim.step();
        sim.reset_transitions();
        // Both inputs flip: XOR output stays 0 — no transition at all.
        sim.set_input_bits("a", 1);
        sim.set_input_bits("b", 1);
        sim.step();
        assert_eq!(sim.logic_transitions(), 0);
    }

    #[test]
    fn x_to_known_is_not_counted() {
        let nl = full_adder();
        let mut sim = ZeroDelaySim::new(&nl);
        sim.set_input_bits("a", 1);
        sim.set_input_bits("b", 0);
        sim.set_input_bits("c", 0);
        sim.step();
        // First settle is X->known everywhere: not a power transition.
        assert_eq!(sim.logic_transitions(), 0);
    }

    #[test]
    fn toggle_flop_oscillates() {
        // q -> inv -> d: classic divide-by-two once initialised.
        let mut b = NetlistBuilder::new("toggle");
        // Need q init: use a mux to force 0 at cycle 0 via an input.
        let rst = b.add_input("a0");
        let q_net_placeholder = b.add_cell(CellKind::Const0, &[]);
        // dff reads mux(inv(q), 0, rst): rst=1 -> 0.
        let inv = b.add_cell(CellKind::Inv, &[q_net_placeholder]); // rewired below
        let zero = b.add_cell(CellKind::Const0, &[]);
        let dmux = b.add_cell(CellKind::Mux2, &[inv, zero, rst]);
        let q = b.add_cell(CellKind::Dff, &[dmux]);
        b.rewire(inv, 0, q);
        b.add_output("p0", q);
        let nl = b.build().unwrap();
        let mut sim = ZeroDelaySim::new(&nl);
        sim.set_input_bits("a", 1); // reset
        sim.step();
        sim.step();
        assert_eq!(sim.output_bits("p"), Some(0));
        sim.set_input_bits("a", 0); // release reset
        sim.step(); // captures the D settled while reset was still high
        assert_eq!(sim.output_bits("p"), Some(0));
        sim.step();
        assert_eq!(sim.output_bits("p"), Some(1));
        sim.step();
        assert_eq!(sim.output_bits("p"), Some(0));
        sim.step();
        assert_eq!(sim.output_bits("p"), Some(1));
    }
}
