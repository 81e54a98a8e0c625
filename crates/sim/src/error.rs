//! Typed errors of the simulation engines.

use core::fmt;

use optpower_netlist::CellKind;

/// Errors from constructing or running a simulation engine.
///
/// The timed engines return these instead of panicking so batch flows
/// (activity measurement, ab-initio characterization) can report
/// *which* netlist failed and keep the rest of a sweep alive.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A library delay is unusable: not finite, negative, or beyond
    /// [`crate::MAX_DELAY_GATES`] (which would blow up the event-wheel
    /// horizon); for [`crate::TimedSim`] also a logic cell's delay that
    /// quantizes to zero ticks (its event loop needs every event to land
    /// after the tick that scheduled it). Before integer-tick
    /// quantization such a delay would have poisoned `f64` event
    /// ordering silently (`NaN` comparisons fell back to
    /// `Ordering::Equal`, corrupting the heap); now it is rejected at
    /// construction.
    InvalidDelay {
        /// Instance name of the offending cell.
        cell: String,
        /// Its cell kind (the library entry that is broken).
        kind: CellKind,
        /// The offending delay, in gate units.
        delay_gates: f64,
    },
    /// The per-cycle event budget (`10_000 × cells`) was exhausted:
    /// the netlist oscillates instead of settling. Structurally
    /// validated netlists (no combinational loops) cannot trigger
    /// this; it guards hand-built or corrupted graphs.
    Oscillation {
        /// Design name of the oscillating netlist.
        netlist: String,
        /// The clock cycle (0-based) that failed to settle.
        cycle: u64,
        /// The event budget that was exceeded.
        budget: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDelay {
                cell,
                kind,
                delay_gates,
            } => write!(
                f,
                "invalid library delay {delay_gates} gate units for cell '{cell}' ({kind}): \
                 delays must be finite, non-negative and at most {} gates, and the \
                 event-wheel engine needs every logic cell's delay to be at least one \
                 tick (1/{} gate unit)",
                crate::MAX_DELAY_GATES,
                crate::TICKS_PER_GATE
            ),
            Self::Oscillation {
                netlist,
                cycle,
                budget,
            } => write!(
                f,
                "netlist '{netlist}' oscillates: event budget of {budget} exceeded in cycle {cycle}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SimError::InvalidDelay {
            cell: "bad_cell".into(),
            kind: CellKind::Xor2,
            delay_gates: f64::NAN,
        };
        assert!(e.to_string().contains("bad_cell"));
        assert!(e.to_string().contains("NaN"));
        assert!(e
            .to_string()
            .contains("at least one tick (1/1000 gate unit)"));
        let e = SimError::Oscillation {
            netlist: "ring".into(),
            cycle: 3,
            budget: 40_000,
        };
        assert!(e.to_string().contains("ring"));
        assert!(e.to_string().contains("40000"));
    }
}
