//! The Wallace-tree multiplier: carry-save column compression of all
//! partial products followed by a fast (Kogge–Stone) carry-propagate
//! adder. "Path delays are better balanced than in RCA, resulting in
//! an overall faster architecture" (Section 4).

use optpower_netlist::{CellKind, NetId, NetlistBuilder};

use crate::adders::{kogge_stone_adder, reduce_columns};

/// The raw (pre-prune) builder of a `width × width` Wallace-tree
/// multiplier. Pruning removes the Kogge–Stone final adder's
/// unconsumed top-level propagate cells (and any other logic that
/// cannot reach a product bit), so the design lints clean and the
/// power model charges only cells that can toggle an output.
///
/// # Panics
///
/// Panics if `width < 2`.
pub(crate) fn wallace_builder(width: usize) -> NetlistBuilder {
    assert!(width >= 2, "multiplier width must be >= 2, got {width}");
    let w = width;
    let mut b = NetlistBuilder::new("wallace");
    let a: Vec<NetId> = (0..w).map(|j| b.add_input(format!("a{j}"))).collect();
    let bb: Vec<NetId> = (0..w).map(|i| b.add_input(format!("b{i}"))).collect();
    let product = wallace_core(&mut b, &a, &bb);
    for (k, net) in product.into_iter().enumerate() {
        b.add_output(format!("p{k}"), net);
    }
    b
}

/// Embeds a Wallace-tree multiplier over existing operand nets and
/// returns the `2·width` product nets — the core used by the
/// parallelisation transform.
///
/// # Panics
///
/// Panics if the operand slices differ in width or are narrower than 2.
pub(crate) fn wallace_core(b: &mut NetlistBuilder, a: &[NetId], bb: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), bb.len(), "operand widths must match");
    let w = a.len();
    assert!(w >= 2, "multiplier width must be >= 2");

    // All partial products, binned by weight.
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); 2 * w];
    for i in 0..w {
        for j in 0..w {
            let pp = b.add_cell(CellKind::And2, &[a[j], bb[i]]);
            columns[i + j].push(pp);
        }
    }
    // Weight 2w-1 has no partial product; trim the empty tail so the
    // reduction does not carry a ghost column.
    while columns.last().is_some_and(Vec::is_empty) {
        columns.pop();
    }

    // CSA tree to two rows, then one fast carry-propagate addition.
    let (row_a, row_b) = reduce_columns(b, columns);
    let sum = kogge_stone_adder(b, &row_a, &row_b, None);

    (0..(2 * w))
        .map(|k| {
            sum.get(k).copied().unwrap_or_else(|| {
                // Width 2 edge case: the tree is narrower than 2w.
                b.add_cell(CellKind::Const0, &[])
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::Netlist;
    use optpower_sim::{verify_product, VerifyOutcome, ZeroDelaySim};

    fn wallace(width: usize) -> Netlist {
        wallace_builder(width).build_pruned().unwrap()
    }

    #[test]
    fn wallace4_exhaustive() {
        let nl = wallace(4);
        let mut sim = ZeroDelaySim::new(&nl);
        for a in 0..16u64 {
            for b in 0..16u64 {
                sim.set_input_bits("a", a);
                sim.set_input_bits("b", b);
                sim.step();
                assert_eq!(sim.output_bits("p"), Some(a * b), "{a}*{b}");
            }
        }
    }

    #[test]
    fn wallace16_random() {
        let nl = wallace(16);
        match verify_product(&nl, 60, 1, 2, 77) {
            VerifyOutcome::Correct { latency_items } => assert_eq!(latency_items, 0),
            VerifyOutcome::Mismatch(m) => panic!("{m}"),
        }
    }

    #[test]
    fn wallace_is_much_shallower_than_rca() {
        // The paper's Table 1: LD 17 (Wallace) vs 61 (RCA) — about 3.5×.
        use optpower_netlist::Library;
        use optpower_sta::TimingAnalysis;
        let lib = Library::cmos13();
        let wl = TimingAnalysis::analyze(&wallace(16), &lib).logical_depth();
        let rc =
            TimingAnalysis::analyze(&crate::array::rca_builder(16).build_pruned().unwrap(), &lib)
                .logical_depth();
        // Our FA-decomposed cells and Kogge-Stone final adder give a
        // ~0.6 ratio (the paper's custom cells reach 17/61 ≈ 0.28);
        // the ordering — the architectural claim — is what matters.
        assert!(wl < rc * 0.7, "wallace {wl} vs rca {rc}");
    }

    #[test]
    fn wallace_cell_count_same_order_as_rca() {
        // Paper: Wallace 729 vs RCA 608 cells — same order, slightly more.
        let wn = wallace(16).logic_cell_count();
        let rn = crate::array::rca_builder(16)
            .build_pruned()
            .unwrap()
            .logic_cell_count();
        assert!(
            wn as f64 / rn as f64 > 0.7 && (wn as f64 / rn as f64) < 2.0,
            "wallace {wn} vs rca {rn}"
        );
    }

    #[test]
    fn wallace_has_no_registers() {
        assert_eq!(wallace(16).dff_count(), 0);
    }
}
