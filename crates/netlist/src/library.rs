//! A small 0.13 µm-like standard-cell library.
//!
//! Numbers are representative of a 2003-era 0.13 µm general-purpose
//! library (the role STM's HCMOS9 played in the paper): areas in the
//! 5–30 µm² range, input capacitances of a few fF, and delays
//! expressed in *normalised gate units* (FO4-like inverter delay = 1)
//! so that the summed critical-path length is directly the paper's
//! logical-depth `LD`.

use crate::CellKind;

/// Physical characterisation of one cell kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Input capacitance per pin in farads.
    pub input_cap_f: f64,
    /// Equivalent switched capacitance per output transition in farads
    /// (drives the per-cell `C` of the power model).
    pub switched_cap_f: f64,
    /// Propagation delay in normalised gate units (inverter = 1.0).
    pub delay_gates: f64,
}

/// A complete cell library: one [`CellSpec`] per [`CellKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    name: &'static str,
    specs: [CellSpec; CellKind::ALL.len()],
}

const fn spec(area: f64, cap_ff: f64, sw_ff: f64, delay: f64) -> CellSpec {
    CellSpec {
        area_um2: area,
        input_cap_f: cap_ff * 1e-15,
        switched_cap_f: sw_ff * 1e-15,
        delay_gates: delay,
    }
}

impl Library {
    /// The default 0.13 µm-like characterisation used by the ab-initio
    /// flow. Ports and constants are free and instantaneous.
    pub fn cmos13() -> Self {
        let mut specs = [spec(0.0, 0.0, 0.0, 0.0); CellKind::ALL.len()];
        for (i, kind) in CellKind::ALL.iter().enumerate() {
            specs[i] = match kind {
                CellKind::Input | CellKind::Output | CellKind::Const0 | CellKind::Const1 => {
                    spec(0.0, 0.0, 0.0, 0.0)
                }
                CellKind::Buf => spec(6.4, 2.0, 25.0, 1.0),
                CellKind::Inv => spec(4.3, 2.0, 18.0, 1.0),
                CellKind::And2 => spec(8.6, 2.2, 32.0, 1.4),
                CellKind::Nand2 => spec(6.4, 2.2, 26.0, 1.0),
                CellKind::Or2 => spec(8.6, 2.2, 32.0, 1.4),
                CellKind::Nor2 => spec(6.4, 2.2, 26.0, 1.1),
                CellKind::Xor2 => spec(12.9, 3.0, 48.0, 1.8),
                CellKind::Xnor2 => spec(12.9, 3.0, 48.0, 1.8),
                CellKind::Mux2 => spec(12.9, 2.6, 44.0, 1.6),
                CellKind::Xor3 => spec(19.4, 3.2, 66.0, 2.2),
                CellKind::Maj3 => spec(15.1, 2.8, 52.0, 1.6),
                CellKind::Dff => spec(23.7, 2.4, 62.0, 1.5),
            };
        }
        Self {
            name: "cmos13",
            specs,
        }
    }

    /// A copy of the default library with every *logic* cell's delay
    /// replaced by `delay_gates` (ports and constants stay free and
    /// instantaneous). A test and diagnostics helper: the timed
    /// engines validate library delays at construction, and this is
    /// the easiest way to present them a degenerate (huge, NaN) delay
    /// profile, or one where every cell and each of its sinks have
    /// equal delays. `TimedSim::new` refuses a zero (or sub-tick)
    /// delay here, since every logic cell's delay must be at least one
    /// tick; the scalar reference engine and static timing still
    /// accept it.
    pub fn with_uniform_delay(delay_gates: f64) -> Self {
        let mut lib = Self::cmos13();
        lib.name = "uniform-delay";
        for (i, kind) in CellKind::ALL.iter().enumerate() {
            if kind.is_logic() {
                lib.specs[i].delay_gates = delay_gates;
            }
        }
        lib
    }

    /// Library name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The characterisation of `kind`.
    pub fn spec(&self, kind: CellKind) -> &CellSpec {
        let ix = CellKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("CellKind::ALL is exhaustive");
        &self.specs[ix]
    }

    /// Cell area in µm².
    pub fn area(&self, kind: CellKind) -> f64 {
        self.spec(kind).area_um2
    }

    /// Propagation delay in normalised gate units.
    pub fn delay(&self, kind: CellKind) -> f64 {
        self.spec(kind).delay_gates
    }

    /// Equivalent switched capacitance per output transition in farads.
    pub fn switched_cap(&self, kind: CellKind) -> f64 {
        self.spec(kind).switched_cap_f
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::cmos13()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_free() {
        let lib = Library::cmos13();
        for kind in [
            CellKind::Input,
            CellKind::Output,
            CellKind::Const0,
            CellKind::Const1,
        ] {
            assert_eq!(lib.area(kind), 0.0);
            assert_eq!(lib.delay(kind), 0.0);
            assert_eq!(lib.switched_cap(kind), 0.0);
        }
    }

    #[test]
    fn logic_cells_have_positive_characterisation() {
        let lib = Library::cmos13();
        for kind in CellKind::ALL.iter().filter(|k| k.is_logic()) {
            assert!(lib.area(*kind) > 0.0, "{kind}");
            assert!(lib.delay(*kind) > 0.0, "{kind}");
            assert!(lib.switched_cap(*kind) > 0.0, "{kind}");
            assert!(lib.spec(*kind).input_cap_f > 0.0, "{kind}");
        }
    }

    #[test]
    fn inverter_is_the_delay_unit() {
        let lib = Library::cmos13();
        assert_eq!(lib.delay(CellKind::Inv), 1.0);
    }

    #[test]
    fn xor3_is_slowest_combinational_gate() {
        let lib = Library::cmos13();
        for kind in CellKind::ALL
            .iter()
            .filter(|k| k.is_logic() && !k.is_sequential())
        {
            assert!(lib.delay(CellKind::Xor3) >= lib.delay(*kind));
        }
        for kind in [
            CellKind::Buf,
            CellKind::Inv,
            CellKind::And2,
            CellKind::Nand2,
            CellKind::Or2,
            CellKind::Nor2,
            CellKind::Mux2,
        ] {
            assert!(lib.delay(CellKind::Xor2) >= lib.delay(kind));
        }
    }

    #[test]
    fn dff_is_largest_cell() {
        let lib = Library::cmos13();
        for kind in CellKind::ALL.iter().filter(|k| k.is_logic()) {
            assert!(lib.area(CellKind::Dff) >= lib.area(*kind));
        }
    }

    #[test]
    fn default_is_cmos13() {
        assert_eq!(Library::default(), Library::cmos13());
    }

    #[test]
    fn uniform_delay_overrides_logic_cells_only() {
        let lib = Library::with_uniform_delay(3.5);
        for kind in CellKind::ALL {
            if kind.is_logic() {
                assert_eq!(lib.delay(kind), 3.5, "{kind}");
            } else {
                assert_eq!(lib.delay(kind), 0.0, "{kind}");
            }
        }
        // Everything except delays matches the default library.
        assert_eq!(
            lib.area(CellKind::Xor2),
            Library::cmos13().area(CellKind::Xor2)
        );
    }
}
