//! Property and failure-injection tests over the multiplier
//! generators: every width multiplies correctly, and the verification
//! harness actually catches sabotaged netlists.

use optpower_mult::Architecture;
use optpower_netlist::{Cell, CellKind, Netlist, NetlistBuilder};
use optpower_sim::verify_product;
use proptest::prelude::*;

/// The pruned netlist of `arch` at `width`.
fn netlist(arch: Architecture, width: usize) -> Netlist {
    arch.generate(width)
        .unwrap_or_else(|e| panic!("{arch} @{width}: {e}"))
        .netlist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The RCA array multiplies at every width 2..=20.
    #[test]
    fn rca_all_widths(width in 2usize..=20) {
        let nl = netlist(Architecture::Rca, width);
        let out = verify_product(&nl, 30, 1, 2, width as u64);
        prop_assert!(out.is_correct(), "w={width}: {out:?}");
    }

    /// The Wallace tree multiplies at every width 2..=20.
    #[test]
    fn wallace_all_widths(width in 2usize..=20) {
        let nl = netlist(Architecture::Wallace, width);
        let out = verify_product(&nl, 30, 1, 2, width as u64);
        prop_assert!(out.is_correct(), "w={width}: {out:?}");
    }

    /// The four pipelined arrays multiply at every width 4..=16.
    #[test]
    fn pipelined_all_widths(width in 4usize..=16, pick in 0usize..4) {
        let arch = [
            Architecture::RcaHorPipe2,
            Architecture::RcaHorPipe4,
            Architecture::RcaDiagPipe2,
            Architecture::RcaDiagPipe4,
        ][pick];
        let nl = netlist(arch, width);
        let out = verify_product(&nl, 30, 1, 8, width as u64);
        prop_assert!(out.is_correct(), "w={width} {arch}: {out:?}");
    }
}

/// Rebuilds a netlist with one cell's kind swapped — a stuck/mutated
/// gate fault.
fn mutate_kind(netlist: &Netlist, victim: usize, into: CellKind) -> Netlist {
    let mut b = NetlistBuilder::new("mutated");
    for (i, cell) in netlist.cells().iter().enumerate() {
        let Cell {
            kind, name, inputs, ..
        } = cell;
        let kind = if i == victim && kind.arity() == into.arity() {
            into
        } else {
            *kind
        };
        match kind {
            CellKind::Input => {
                b.add_input(name.to_string());
            }
            CellKind::Output => {
                b.add_output(name.to_string(), inputs[0]);
            }
            _ => {
                b.add_named_cell(kind, name.to_string(), inputs);
            }
        }
    }
    b.build().expect("mutation preserves structure")
}

#[test]
fn fault_injection_is_detected() {
    // Swap each of several XOR3 sum cells for a MAJ3: the product must
    // break and the checker must say so.
    let golden = netlist(Architecture::Rca, 8);
    let xor3_sites: Vec<usize> = golden
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CellKind::Xor3)
        .map(|(i, _)| i)
        .take(5)
        .collect();
    assert!(!xor3_sites.is_empty(), "the RCA contains full adders");
    for victim in xor3_sites {
        let mutated = mutate_kind(&golden, victim, CellKind::Maj3);
        let out = verify_product(&mutated, 40, 1, 2, 7);
        assert!(
            !out.is_correct(),
            "mutating cell {victim} must break the multiplier"
        );
    }
}

#[test]
fn benign_mutation_is_accepted() {
    // Control case: rebuilding without mutation still verifies.
    let golden = netlist(Architecture::Rca, 8);
    let copy = mutate_kind(&golden, usize::MAX, CellKind::Maj3);
    assert!(verify_product(&copy, 40, 1, 2, 7).is_correct());
}

#[test]
fn verifier_rejects_output_bit_swap() {
    // Swap two product bits of a correct multiplier.
    let golden = netlist(Architecture::Wallace, 8);
    let mut b = NetlistBuilder::new("swapped");
    for cell in golden.cells() {
        match cell.kind {
            CellKind::Input => {
                b.add_input(cell.name.to_string());
            }
            CellKind::Output => {
                let name = match cell.name.to_string().as_str() {
                    "p3" => "p4".to_string(),
                    "p4" => "p3".to_string(),
                    other => other.to_string(),
                };
                b.add_output(name, cell.inputs[0]);
            }
            _ => {
                b.add_named_cell(cell.kind, cell.name.to_string(), &cell.inputs);
            }
        }
    }
    let swapped = b.build().expect("valid structure");
    assert!(!verify_product(&swapped, 40, 1, 2, 3).is_correct());
}

#[test]
fn wide_multipliers_stay_consistent() {
    // 24- and 32-bit instances: generators are width-parametric well
    // beyond the paper's 16 bits.
    for width in [24usize, 32] {
        let nl = netlist(Architecture::Wallace, width);
        let out = verify_product(&nl, 25, 1, 2, width as u64);
        assert!(out.is_correct(), "wallace w={width}: {out:?}");
    }
    let nl = netlist(Architecture::Rca, 24);
    assert!(verify_product(&nl, 25, 1, 2, 11).is_correct());
}

#[test]
fn cell_counts_scale_quadratically() {
    // Array multipliers are O(W^2) in cells — the scaling a user of the
    // library would rely on when extrapolating the paper's results.
    let n8 = netlist(Architecture::Rca, 8).logic_cell_count() as f64;
    let n16 = netlist(Architecture::Rca, 16).logic_cell_count() as f64;
    let n32 = netlist(Architecture::Rca, 32).logic_cell_count() as f64;
    let r1 = n16 / n8;
    let r2 = n32 / n16;
    assert!(r1 > 3.0 && r1 < 5.0, "8->16 ratio {r1}");
    assert!(r2 > 3.0 && r2 < 5.0, "16->32 ratio {r2}");
}
