//! A *provable* static upper bound on glitch activity.
//!
//! The paper's Section-4 observation is that unequal input arrival
//! times make a gate toggle more than once per data period — extra
//! transitions, extra dynamic power. This module turns the arrival
//! windows of [`TimingAnalysis`] into a per-net upper bound on the
//! transitions the timed engine can ever count in one cycle, and
//! aggregates the bounds into a **static glitch factor** comparable
//! to the measured one (`AbInitioRow::glitch_factor()`).
//!
//! The per-net bound combines two sound rules:
//!
//! * **sum rule** — each output evaluation is triggered by at least
//!   one input change, and each flush evaluates a cell once, so the
//!   output cannot change more often than its inputs combined:
//!   `bound(out) ≤ Σ bound(in)`.
//! * **window rule** — applied events on a net sit at integer stride
//!   ticks inside `[earliest, latest]`, and a cell with non-zero
//!   delay never lands two events on the same tick (an event
//!   scheduled at flush time `t` is due at `t + d > t`, so applied
//!   times are strictly increasing): `bound(out) ≤ latest − earliest
//!   + 1`. Zero-delay cells can re-fire on the same tick, so the
//!   window rule only applies when `delay ≥ 1` stride unit.
//!
//! Timing start points contribute one change per cycle (inputs and
//! DFF outputs commit exactly once, at tick 0), constants never
//! change, and `Output` markers are transparent. The differential
//! suite (`tests/sta_differential.rs`) locks the bound against the
//! timed engine: per cell, counted transitions over `C` cycles never
//! exceed `C × bound`.

use crate::TimingAnalysis;
use optpower_netlist::{CellKind, NetId, Netlist};

/// Per-net transition bounds plus their aggregate glitch factor.
#[derive(Debug, Clone)]
pub struct GlitchProfile {
    /// Per-net upper bound on counted (known↔known) transitions per
    /// cycle, indexed by `NetId`.
    bounds: Vec<u64>,
    static_factor: f64,
    mean_bound: f64,
}

impl GlitchProfile {
    /// Derives the bounds from a finished timing analysis of the same
    /// netlist. Single topological pass.
    pub fn compute(netlist: &Netlist, sta: &TimingAnalysis) -> Self {
        let mut bounds = vec![0u64; netlist.cells().len()];
        // Seed the sources first: the topo order treats DFF *outputs*
        // as sources but may place the DFF cell itself after its
        // readers (its position is ordered by its D input), so a
        // single in-order pass would read a DFF's bound before
        // writing it.
        for cell in netlist.cells() {
            if matches!(cell.kind, CellKind::Input | CellKind::Dff) {
                bounds[cell.output.index()] = 1;
            }
        }
        for &id in netlist.topo_order() {
            let cell = netlist.cell(id);
            let out = cell.output.index();
            bounds[out] = match cell.kind {
                // One committed change per cycle, at tick 0 (seeded
                // above, restated for the in-order read).
                CellKind::Input | CellKind::Dff => 1,
                CellKind::Const0 | CellKind::Const1 => 0,
                // Transparent marker: no cell of its own.
                CellKind::Output => bounds[cell.inputs[0].index()],
                _ => {
                    let sum = cell
                        .inputs
                        .iter()
                        .fold(0u64, |acc, pin| acc.saturating_add(bounds[pin.index()]));
                    let (earliest, latest) = sta.window_units(cell.output);
                    if sta.delay_units(id) >= 1 {
                        sum.min(latest - earliest + 1)
                    } else {
                        sum
                    }
                }
            };
        }

        // Aggregate over the cells the activity factor counts: logic
        // cells (gates + DFFs; ports and constants excluded). The
        // denominator is the glitch-free ceiling — every cell that can
        // toggle at all toggles at most once per cycle under
        // zero-delay semantics.
        let mut num: u128 = 0;
        let mut den: u128 = 0;
        let mut count: u128 = 0;
        for (_, cell) in netlist.logic_cells() {
            let b = bounds[cell.output.index()];
            num += u128::from(b);
            den += u128::from(b.min(1));
            count += 1;
        }
        let static_factor = if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        };
        let mean_bound = if count == 0 {
            0.0
        } else {
            num as f64 / count as f64
        };

        Self {
            bounds,
            static_factor,
            mean_bound,
        }
    }

    /// The per-cycle transition bound of one net.
    pub fn bound(&self, net: NetId) -> u64 {
        self.bounds[net.index()]
    }

    /// The static glitch factor: `Σ bound / Σ min(1, bound)` over
    /// logic cells. A fully balanced design (all windows degenerate,
    /// all delays ≥ 1 unit) scores exactly 1.0 — no glitches are even
    /// *possible*. This is the static analogue of the measured
    /// `glitch_factor()` and tracks it across architectures, but it is
    /// a ranking statistic, not a bound on the measured ratio: the
    /// measured denominator is the *actual* zero-delay activity, which
    /// can sit well below the one-toggle-per-cycle ceiling this
    /// denominator assumes. The hard guarantee lives at the
    /// transition level — see [`GlitchProfile::mean_cell_bound`].
    pub fn static_glitch_factor(&self) -> f64 {
        self.static_factor
    }

    /// The static *activity* bound: mean per-cycle transition bound
    /// per logic cell, `Σ bound / #logic cells`. Unlike the factor
    /// (whose measured counterpart divides by a *measured* zero-delay
    /// activity), this is a hard ceiling: the timed engine's measured
    /// activity per clock cycle can never exceed it.
    pub fn mean_cell_bound(&self) -> f64 {
        self.mean_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::{Library, NetlistBuilder};

    #[test]
    fn balanced_design_scores_exactly_one() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("bal");
        let i0 = b.add_input("a0");
        let i1 = b.add_input("a1");
        let i2 = b.add_input("a2");
        let i3 = b.add_input("a3");
        let l = b.add_cell(CellKind::And2, &[i0, i1]);
        let r = b.add_cell(CellKind::And2, &[i2, i3]);
        let top = b.add_cell(CellKind::And2, &[l, r]);
        b.add_output("y0", top);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let g = GlitchProfile::compute(&nl, &sta);
        assert_eq!(g.bound(l), 1);
        assert_eq!(g.bound(top), 1);
        assert_eq!(g.static_glitch_factor(), 1.0);
    }

    #[test]
    fn skewed_inputs_raise_the_bound() {
        // XOR(x, buf(buf(x))): the XOR's inputs arrive 2 buffer
        // delays apart, so it may glitch — sum rule gives 2.
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("skew");
        let x = b.add_input("x0");
        let d1 = b.add_cell(CellKind::Buf, &[x]);
        let d2 = b.add_cell(CellKind::Buf, &[d1]);
        let s = b.add_cell(CellKind::Xor2, &[x, d2]);
        b.add_output("y0", s);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let g = GlitchProfile::compute(&nl, &sta);
        assert_eq!(g.bound(s), 2);
        assert!(g.static_glitch_factor() > 1.0);
    }

    #[test]
    fn window_rule_caps_wide_sums() {
        // Four one-tick-apart arrivals into a 3-input gate would sum
        // to 3, but a degenerate window caps it: XOR3 of three copies
        // of the same equal-arrival net has window width 1 -> bound 1.
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("cap");
        let x = b.add_input("x0");
        let y = b.add_input("x1");
        let z = b.add_input("x2");
        let s = b.add_cell(CellKind::Xor3, &[x, y, z]);
        b.add_output("y0", s);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let g = GlitchProfile::compute(&nl, &sta);
        // Sum rule alone would say 3; the window is degenerate.
        assert_eq!(g.bound(s), 1);
    }

    #[test]
    fn dff_feedback_readers_see_the_seeded_bound() {
        // The DFF's D pin comes from the XOR, so the topo order puts
        // the DFF cell *after* the XOR that reads its output. The
        // seeding pass must make the XOR see bound(q) = 1, giving the
        // skewed XOR(q, buf(buf(x))) the sum-rule bound 2 — an
        // in-order-only pass would read 0 and report 1.
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("fb");
        let x = b.add_input("x0");
        let q = b.add_cell(CellKind::Dff, &[x]);
        let d1 = b.add_cell(CellKind::Buf, &[x]);
        let d2 = b.add_cell(CellKind::Buf, &[d1]);
        let s = b.add_cell(CellKind::Xor2, &[q, d2]);
        b.rewire(q, 0, s);
        b.add_output("y0", s);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let g = GlitchProfile::compute(&nl, &sta);
        assert_eq!(g.bound(q), 1);
        assert_eq!(g.bound(s), 2);
    }

    #[test]
    fn constants_never_toggle() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("c");
        let x = b.add_input("x0");
        let c = b.add_cell(CellKind::Const1, &[]);
        let a = b.add_cell(CellKind::And2, &[x, c]);
        b.add_output("y0", a);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let g = GlitchProfile::compute(&nl, &sta);
        assert_eq!(g.bound(c), 0);
        assert_eq!(g.bound(a), 1);
    }
}
