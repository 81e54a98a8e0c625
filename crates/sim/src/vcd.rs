//! Value-Change-Dump (VCD) recording and re-parsing.
//!
//! Records per-cycle net values so generated multipliers can be
//! inspected in GTKWave or any other VCD viewer, and parses the dumps
//! back ([`parse_vcd`]) so tests can check a trace against the
//! simulator's own counters. Time is in cycles (1 cycle = 1 time
//! unit).
//!
//! Any engine implementing [`NetProbe`] can be sampled; note that
//! sampling happens once per cycle on *settled* values, so a dump of
//! the timed engine shows per-cycle results but cannot show pulses
//! narrower than a cycle (glitches) — on glitch-free netlists the two
//! views coincide exactly.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use optpower_netlist::{Logic, NetId, Netlist};

use crate::{TimedSim, ZeroDelaySim};

/// Read access to a simulator's current per-net values, used by
/// [`VcdRecorder::sample`] to stay engine-agnostic.
pub trait NetProbe {
    /// The current value of `net`.
    fn net_value(&self, net: NetId) -> Logic;
}

impl NetProbe for ZeroDelaySim<'_> {
    fn net_value(&self, net: NetId) -> Logic {
        self.value(net)
    }
}

impl NetProbe for TimedSim<'_> {
    fn net_value(&self, net: NetId) -> Logic {
        self.value(net)
    }
}

impl NetProbe for crate::ScalarTimedSim<'_> {
    fn net_value(&self, net: NetId) -> Logic {
        self.value(net)
    }
}

/// One lane of a [`crate::WidePlaneSim`] (any width, default the
/// 64-lane [`crate::BitParallelSim`]), viewed as a scalar probe.
pub struct LaneProbe<'a, 'n, const W: usize = 1> {
    sim: &'a crate::WidePlaneSim<'n, W>,
    lane: usize,
}

impl<'a, 'n, const W: usize> LaneProbe<'a, 'n, W> {
    /// Probes lane `lane` of `sim`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= sim.lanes()`.
    pub fn new(sim: &'a crate::WidePlaneSim<'n, W>, lane: usize) -> Self {
        assert!(lane < sim.lanes(), "lane {lane} out of range");
        Self { sim, lane }
    }
}

impl<const W: usize> NetProbe for LaneProbe<'_, '_, W> {
    fn net_value(&self, net: NetId) -> Logic {
        self.sim.value(net, self.lane)
    }
}

/// Records the settled value of selected nets after every cycle and
/// serialises them as a VCD document.
///
/// # Examples
///
/// ```
/// use optpower_netlist::{CellKind, NetlistBuilder};
/// use optpower_sim::{VcdRecorder, ZeroDelaySim};
///
/// let mut b = NetlistBuilder::new("inv");
/// let x = b.add_input("x0");
/// let y = b.add_cell(CellKind::Inv, &[x]);
/// b.add_output("y0", y);
/// let nl = b.build()?;
///
/// let mut sim = ZeroDelaySim::new(&nl);
/// let mut vcd = VcdRecorder::all_nets(&nl);
/// for v in [0u64, 1, 1, 0] {
///     sim.set_input_bits("x", v);
///     sim.step();
///     vcd.sample(&sim);
/// }
/// let text = vcd.finish();
/// assert!(text.contains("$enddefinitions"));
/// # Ok::<(), optpower_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VcdRecorder {
    design: String,
    nets: Vec<(NetId, String)>,
    /// Last emitted value per tracked net (None = never emitted).
    last: Vec<Option<Logic>>,
    body: String,
    time: u64,
}

impl VcdRecorder {
    /// Tracks every net in the netlist.
    pub fn all_nets(netlist: &Netlist) -> Self {
        let nets = (0..netlist.cells().len() as u32)
            .map(|i| (NetId(i), netlist.net_name(NetId(i))))
            .collect();
        Self::with_nets(netlist.name(), nets)
    }

    /// Tracks an explicit net selection with display names.
    pub fn with_nets(design: &str, nets: Vec<(NetId, String)>) -> Self {
        let last = vec![None; nets.len()];
        Self {
            design: design.to_string(),
            nets,
            last,
            body: String::new(),
            time: 0,
        }
    }

    /// Number of tracked nets.
    pub fn tracked(&self) -> usize {
        self.nets.len()
    }

    /// Samples the simulator's settled values for the current cycle.
    pub fn sample<P: NetProbe>(&mut self, sim: &P) {
        let mut changes = String::new();
        for (slot, (net, _)) in self.nets.iter().enumerate() {
            let value = sim.net_value(*net);
            if self.last[slot] != Some(value) {
                let ch = match value {
                    Logic::Zero => '0',
                    Logic::One => '1',
                    Logic::X => 'x',
                };
                let _ = writeln!(changes, "{ch}{}", code(slot));
                self.last[slot] = Some(value);
            }
        }
        if !changes.is_empty() {
            let _ = writeln!(self.body, "#{}", self.time);
            self.body.push_str(&changes);
        }
        self.time += 1;
    }

    /// Serialises the recording as a VCD document.
    pub fn finish(self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date optpower $end");
        let _ = writeln!(out, "$version optpower-sim $end");
        let _ = writeln!(out, "$timescale 1 ns $end");
        let _ = writeln!(out, "$scope module {} $end", sanitize(&self.design));
        for (slot, (_, name)) in self.nets.iter().enumerate() {
            let _ = writeln!(out, "$var wire 1 {} {} $end", code(slot), sanitize(name));
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        out.push_str(&self.body);
        let _ = writeln!(out, "#{}", self.time);
        out
    }
}

/// A re-parsed VCD document: variable declarations plus the ordered
/// value-change stream. Produced by [`parse_vcd`].
#[derive(Debug, Clone, Default)]
pub struct VcdDump {
    /// `(code, display name)` in declaration order.
    pub vars: Vec<(String, String)>,
    /// `(time, code, value)` in document order.
    pub changes: Vec<(u64, String, Logic)>,
}

impl VcdDump {
    /// Known↔known value changes per variable *display name*.
    ///
    /// `X`↔known changes are not counted, matching the simulators'
    /// transition counters.
    pub fn known_transitions(&self) -> HashMap<String, u64> {
        let name_of: HashMap<&str, &str> = self
            .vars
            .iter()
            .map(|(code, name)| (code.as_str(), name.as_str()))
            .collect();
        let mut last: HashMap<&str, Logic> = HashMap::new();
        let mut counts: HashMap<String, u64> = self
            .vars
            .iter()
            .map(|(_, name)| (name.clone(), 0))
            .collect();
        for (_, code, value) in &self.changes {
            let prev = last.insert(code.as_str(), *value);
            if let (Some(prev), true) = (prev, value.is_known()) {
                if prev.is_known() && prev != *value {
                    let name = name_of.get(code.as_str()).copied().unwrap_or(code);
                    *counts.entry(name.to_string()).or_default() += 1;
                }
            }
        }
        counts
    }
}

/// Parses the subset of VCD that [`VcdRecorder::finish`] emits
/// (1-bit wires, scalar value changes, `#<time>` stamps).
///
/// # Errors
///
/// Returns a human-readable description of the first malformed line:
/// an unknown value character, a change referencing an undeclared
/// identifier code, or an unparsable timestamp.
pub fn parse_vcd(text: &str) -> Result<VcdDump, String> {
    let mut dump = VcdDump::default();
    let mut known_codes: HashSet<String> = HashSet::new();
    let mut time = 0u64;
    let mut in_header = true;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if in_header {
            if line.starts_with("$var ") {
                // `$var wire 1 <code> <name> $end`
                let mut it = line.split_whitespace();
                let (code, name) = (it.nth(3), it.next());
                match (code, name) {
                    (Some(code), Some(name)) => {
                        known_codes.insert(code.to_string());
                        dump.vars.push((code.to_string(), name.to_string()));
                    }
                    _ => return Err(format!("line {}: malformed $var: {line}", lineno + 1)),
                }
            } else if line.starts_with("$enddefinitions") {
                in_header = false;
            }
            continue;
        }
        if let Some(stamp) = line.strip_prefix('#') {
            time = stamp
                .parse()
                .map_err(|_| format!("line {}: bad timestamp: {line}", lineno + 1))?;
            continue;
        }
        let mut chars = line.chars();
        let value = match chars.next() {
            Some('0') => Logic::Zero,
            Some('1') => Logic::One,
            Some('x') | Some('X') => Logic::X,
            _ => return Err(format!("line {}: unknown value char: {line}", lineno + 1)),
        };
        let code: String = chars.collect();
        if !known_codes.contains(&code) {
            return Err(format!(
                "line {}: undeclared identifier: {line}",
                lineno + 1
            ));
        }
        dump.changes.push((time, code, value));
    }
    Ok(dump)
}

/// VCD identifier code for a slot (printable ASCII 33..=126, base-94).
fn code(mut slot: usize) -> String {
    let mut out = String::new();
    loop {
        out.push((33 + (slot % 94)) as u8 as char);
        slot /= 94;
        if slot == 0 {
            break;
        }
        slot -= 1;
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::{CellKind, NetlistBuilder};

    fn toggler() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let x = b.add_input("a0");
        let y = b.add_cell(CellKind::Inv, &[x]);
        b.add_output("p0", y);
        b.build().unwrap()
    }

    #[test]
    fn records_value_changes_only() {
        let nl = toggler();
        let mut sim = ZeroDelaySim::new(&nl);
        let mut vcd = VcdRecorder::all_nets(&nl);
        for v in [0u64, 0, 1, 1, 0] {
            sim.set_input_bits("a", v);
            sim.step();
            vcd.sample(&sim);
        }
        let text = vcd.finish();
        // Timestamps only where something changed: cycles 0, 2, 4
        // (plus the closing stamp).
        assert!(text.contains("#0\n"));
        assert!(!text.contains("#1\n"));
        assert!(text.contains("#2\n"));
        assert!(text.contains("#4\n"));
        assert!(text.contains("$enddefinitions $end"));
    }

    #[test]
    fn header_declares_all_nets() {
        let nl = toggler();
        let vcd = VcdRecorder::all_nets(&nl);
        assert_eq!(vcd.tracked(), nl.cells().len());
        let text = vcd.finish();
        assert_eq!(text.matches("$var wire 1 ").count(), nl.cells().len());
    }

    #[test]
    fn codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for slot in 0..500 {
            let c = code(slot);
            assert!(c.chars().all(|ch| (33..=126).contains(&(ch as u32))));
            assert!(seen.insert(c), "slot {slot} collided");
        }
    }

    /// A linear chain (no reconvergent fanout, one toggle per input per
    /// cycle): the timed engine produces no sub-cycle pulses, so the
    /// per-cycle settled samples capture *every* transition it counts.
    fn glitch_free_chain() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let x = b.add_input("a0");
        let b1 = b.add_cell(CellKind::Buf, &[x]);
        let i1 = b.add_cell(CellKind::Inv, &[b1]);
        let q = b.add_cell(CellKind::Dff, &[i1]);
        let i2 = b.add_cell(CellKind::Inv, &[q]);
        b.add_output("p0", i2);
        b.build().unwrap()
    }

    #[test]
    fn timed_trace_roundtrips_through_parse() {
        let nl = glitch_free_chain();
        let lib = optpower_netlist::Library::cmos13();
        let mut sim = crate::TimedSim::new(&nl, &lib).expect("cmos13 delays are valid");
        let mut vcd = VcdRecorder::all_nets(&nl);
        for v in [0u64, 1, 1, 0, 1, 0, 0, 1, 1, 0] {
            sim.set_input_bits("a", v);
            sim.step().expect("chain cannot oscillate");
            vcd.sample(&sim);
        }
        let text = vcd.finish();
        let dump = parse_vcd(&text).expect("own dumps must parse");
        assert_eq!(dump.vars.len(), nl.cells().len());
        // Sum the re-parsed known<->known changes over nets driven by
        // logic cells: must equal the simulator's own counter.
        let counts = dump.known_transitions();
        let from_dump: u64 = nl
            .logic_cells()
            .map(|(_, cell)| {
                counts
                    .get(&super::sanitize(&nl.net_name(cell.output)))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(from_dump, sim.logic_transitions());
        assert!(sim.logic_transitions() > 0, "trace must not be trivial");
    }

    #[test]
    fn zero_delay_trace_roundtrips_too() {
        let nl = glitch_free_chain();
        let mut sim = ZeroDelaySim::new(&nl);
        let mut vcd = VcdRecorder::all_nets(&nl);
        for v in [1u64, 0, 1, 1, 0, 1] {
            sim.set_input_bits("a", v);
            sim.step();
            vcd.sample(&sim);
        }
        let transitions = sim.logic_transitions();
        let dump = parse_vcd(&vcd.finish()).expect("parses");
        let counts = dump.known_transitions();
        let from_dump: u64 = nl
            .logic_cells()
            .map(|(_, cell)| {
                counts
                    .get(&super::sanitize(&nl.net_name(cell.output)))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(from_dump, transitions);
    }

    #[test]
    fn bit_parallel_lane_probe_samples_one_lane() {
        let nl = glitch_free_chain();
        let mut sim = crate::BitParallelSim::new(&nl);
        let mut vcd = VcdRecorder::all_nets(&nl);
        let mut lanes = vec![0u64; sim.lanes()];
        lanes[3] = 1;
        sim.set_input_bits_lanes("a", &lanes);
        sim.step();
        vcd.sample(&LaneProbe::new(&sim, 3));
        let text = vcd.finish();
        // Lane 3 drove a 1 through the buffer: its net is high.
        assert!(text.contains('1'));
    }

    #[test]
    fn lane_probe_reaches_wide_plane_lanes() {
        let nl = glitch_free_chain();
        let mut sim = crate::BitParallelSim512::new(&nl);
        let mut lanes = vec![0u64; sim.lanes()];
        lanes[300] = 1;
        sim.set_input_bits_lanes("a", &lanes);
        sim.step();
        let mut vcd = VcdRecorder::all_nets(&nl);
        vcd.sample(&LaneProbe::new(&sim, 300));
        assert!(vcd.finish().contains('1'));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_vcd("$enddefinitions $end\n#zzz\n").is_err());
        assert!(
            parse_vcd("$enddefinitions $end\n1%\n").is_err(),
            "undeclared code"
        );
        assert!(parse_vcd("$var wire 1\n").is_err(), "truncated $var");
        let ok = parse_vcd("$var wire 1 ! a0 $end\n$enddefinitions $end\n#0\n1!\n");
        assert_eq!(ok.unwrap().changes.len(), 1);
    }

    #[test]
    fn known_transitions_ignore_x_recovery() {
        // x -> 1 -> 0 -> x -> 1: only the 1 -> 0 edge counts.
        let text = "$var wire 1 ! n $end\n$enddefinitions $end\n\
                    #0\nx!\n#1\n1!\n#2\n0!\n#3\nx!\n#4\n1!\n";
        let dump = parse_vcd(text).unwrap();
        assert_eq!(dump.known_transitions().get("n"), Some(&1));
    }

    #[test]
    fn initial_x_is_emitted() {
        let nl = toggler();
        let mut sim = ZeroDelaySim::new(&nl);
        let mut vcd = VcdRecorder::all_nets(&nl);
        sim.step(); // inputs still X
        vcd.sample(&sim);
        let text = vcd.finish();
        assert!(text.contains('x'), "X values must appear in the dump");
    }
}
