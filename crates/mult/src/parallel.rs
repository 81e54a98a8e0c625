//! The parallelisation transform: `k` replicas of a combinational
//! multiplier core with round-robin operand distribution and output
//! multiplexing ("obtained by replicating the basic multiplier and
//! multiplexing data across them. This way, each multiplier has
//! additional clock cycles at its disposal relaxing timing
//! constraints", Section 4).
//!
//! Structure per replica: operand hold registers loaded on the
//! replica's phase, the combinational core, and a shared output
//! multiplexer feeding a product register. The added muxes and
//! registers are exactly the "overhead introduced by parallelization"
//! that cancels the benefit on already-fast cores (Wallace par4).

use optpower_netlist::{CellKind, NetId, NetlistBuilder};

use crate::sequential::counter;

/// Which combinational core to replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreKind {
    /// The RCA array core.
    Rca,
    /// The Wallace-tree core.
    Wallace,
}

/// The raw (pre-prune) builder of a `k`-way parallelised multiplier
/// (`k` ∈ {2, 4}).
///
/// Inputs: `a`, `b` operand buses and a 1-bit `rst` bus (held high for
/// the first data item). A new operand pair arrives every clock cycle;
/// replica `r` captures the items with `item mod k == r` and computes
/// them over `k` cycles (multi-cycle paths), so the effective logical
/// depth per data period is the core depth divided by `k`.
///
/// Pruning removes the phase counter's final increment carry and the
/// core's unconsumed cells.
///
/// # Panics
///
/// Panics unless `k` is 2 or 4 and `width >= 2`.
pub(crate) fn parallelized_builder(width: usize, k: u32, core: CoreKind) -> NetlistBuilder {
    assert!(
        k == 2 || k == 4,
        "parallelisation supports k = 2 or 4, got {k}"
    );
    assert!(width >= 2, "multiplier width must be >= 2, got {width}");
    let w = width;
    let name = match core {
        CoreKind::Rca => format!("rca_par{k}"),
        CoreKind::Wallace => format!("wallace_par{k}"),
    };
    let mut b = NetlistBuilder::new(&name);

    let a_in: Vec<NetId> = (0..w).map(|j| b.add_input(format!("a{j}"))).collect();
    let b_in: Vec<NetId> = (0..w).map(|i| b.add_input(format!("b{i}"))).collect();
    let rst = b.add_input("rst0");
    let not_rst = b.add_cell(CellKind::Inv, &[rst]);

    // Phase counter mod k with synchronous reset.
    let bits = k.trailing_zeros();
    let phase = counter(&mut b, bits, rst, not_rst, 0, None);

    // Phase decode: load_r = (phase == r).
    let phase_inv: Vec<NetId> = phase
        .iter()
        .map(|&p| b.add_cell(CellKind::Inv, &[p]))
        .collect();
    let load_for = |b: &mut NetlistBuilder, r: u32| -> NetId {
        let mut terms: Vec<NetId> = (0..bits)
            .map(|i| {
                if (r >> i) & 1 == 1 {
                    phase[i as usize]
                } else {
                    phase_inv[i as usize]
                }
            })
            .collect();
        while terms.len() > 1 {
            let y = terms.pop().expect("len > 1");
            let x = terms.pop().expect("len > 1");
            terms.push(b.add_cell(CellKind::And2, &[x, y]));
        }
        terms[0]
    };

    // Replicas: operand hold registers + core.
    let mut replica_products: Vec<Vec<NetId>> = Vec::with_capacity(k as usize);
    for r in 0..k {
        let load_r = load_for(&mut b, r);
        let hold = |b: &mut NetlistBuilder, bits_in: &[NetId]| -> Vec<NetId> {
            bits_in
                .iter()
                .map(|&x| {
                    let q = b.add_cell(CellKind::Dff, &[x]);
                    let d = b.add_cell(CellKind::Mux2, &[q, x, load_r]);
                    b.rewire(q, 0, d);
                    q
                })
                .collect()
        };
        let a_r = hold(&mut b, &a_in);
        let b_r = hold(&mut b, &b_in);
        let product = match core {
            CoreKind::Rca => crate::array::rca_core(&mut b, &a_r, &b_r),
            CoreKind::Wallace => crate::wallace::wallace_core(&mut b, &a_r, &b_r),
        };
        replica_products.push(product);
    }

    // Output stage: during the cycle with phase p, replica p's result
    // (loaded k cycles ago, fully settled) is selected and captured
    // into the product register at the next edge.
    #[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
    for j in 0..2 * w {
        let mux_out = match k {
            2 => b.add_cell(
                CellKind::Mux2,
                &[replica_products[0][j], replica_products[1][j], phase[0]],
            ),
            4 => {
                let m01 = b.add_cell(
                    CellKind::Mux2,
                    &[replica_products[0][j], replica_products[1][j], phase[0]],
                );
                let m23 = b.add_cell(
                    CellKind::Mux2,
                    &[replica_products[2][j], replica_products[3][j], phase[0]],
                );
                b.add_cell(CellKind::Mux2, &[m01, m23, phase[1]])
            }
            _ => unreachable!("k validated above"),
        };
        let p_reg = b.add_cell(CellKind::Dff, &[mux_out]);
        b.add_output(format!("p{j}"), p_reg);
    }

    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::Netlist;
    use optpower_sim::{verify_product, VerifyOutcome};

    fn parallelized(width: usize, k: u32, core: CoreKind) -> Netlist {
        parallelized_builder(width, k, core).build_pruned().unwrap()
    }

    fn assert_multiplies(nl: &Netlist) -> u32 {
        match verify_product(nl, 60, 1, 8, 5150) {
            VerifyOutcome::Correct { latency_items } => latency_items,
            VerifyOutcome::Mismatch(m) => panic!("{}: {m}", nl.name()),
        }
    }

    #[test]
    fn rca_par2_multiplies() {
        let lat = assert_multiplies(&parallelized(8, 2, CoreKind::Rca));
        assert!(lat >= 2, "latency {lat}");
    }

    #[test]
    fn rca_par4_multiplies() {
        let lat = assert_multiplies(&parallelized(8, 4, CoreKind::Rca));
        assert!(lat >= 4, "latency {lat}");
    }

    #[test]
    fn wallace_par2_multiplies() {
        assert_multiplies(&parallelized(8, 2, CoreKind::Wallace));
    }

    #[test]
    fn wallace_par4_multiplies() {
        assert_multiplies(&parallelized(8, 4, CoreKind::Wallace));
    }

    #[test]
    fn par16_multiplies() {
        assert_multiplies(&parallelized(16, 2, CoreKind::Rca));
        assert_multiplies(&parallelized(16, 4, CoreKind::Wallace));
    }

    #[test]
    fn replication_scales_cell_count() {
        let base = crate::array::rca_builder(16)
            .build_pruned()
            .unwrap()
            .logic_cell_count();
        let p2 = parallelized(16, 2, CoreKind::Rca).logic_cell_count();
        let p4 = parallelized(16, 4, CoreKind::Rca).logic_cell_count();
        // Paper: 608 -> 1256 -> 2455 (slightly over k×, due to overhead).
        assert!(p2 as f64 > 1.9 * base as f64, "p2 {p2} base {base}");
        assert!(p4 as f64 > 3.7 * base as f64, "p4 {p4} base {base}");
        assert!(p4 > p2);
    }
}
