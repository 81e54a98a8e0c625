//! The sequential multiplier family: add-and-shift (basic), the 4×16
//! Wallace variant (4 partial products per cycle), and the 2-way
//! interleaved parallel version.
//!
//! The basic design computes `a × b` in `W` internal clock cycles with
//! a single adder: each cycle adds `(b_k ? a : 0)` into the top half of
//! a `2W`-bit accumulator and shifts right by one. The internal clock
//! runs `W×` faster than the data clock, which is why Table 1 reports
//! an activity far above 1 and an enormous effective logical depth for
//! this family.

use optpower_netlist::{CellKind, NetId, NetlistBuilder};

use crate::adders::{kogge_stone_adder, reduce_columns};

/// Creates a flip-flop whose D input will be wired later (forward
/// reference pattern for state feedback). The provisional input is
/// `dummy`; call [`drive_flop`] before `build`.
fn new_flop(b: &mut NetlistBuilder, dummy: NetId) -> NetId {
    b.add_cell(CellKind::Dff, &[dummy])
}

/// Connects a flip-flop's D input, optionally wrapped in a
/// recirculating enable mux (`en = 0` holds the current value).
fn drive_flop(b: &mut NetlistBuilder, q: NetId, d: NetId, en: Option<NetId>) {
    let d_final = match en {
        Some(en) => b.add_cell(CellKind::Mux2, &[q, d, en]),
        None => d,
    };
    b.rewire(q, 0, d_final);
}

/// A free-running modulo-2^bits counter with synchronous reset to
/// `reset_value` and optional clock-enable. Returns the Q bits
/// (LSB first).
pub(crate) fn counter(
    b: &mut NetlistBuilder,
    bits: u32,
    rst: NetId,
    not_rst: NetId,
    reset_value: u32,
    en: Option<NetId>,
) -> Vec<NetId> {
    let q: Vec<NetId> = (0..bits).map(|_| new_flop(b, rst)).collect();
    // Increment chain.
    let mut inc = Vec::with_capacity(bits as usize);
    let mut carry: Option<NetId> = None;
    for &qi in &q {
        match carry {
            None => {
                inc.push(b.add_cell(CellKind::Inv, &[qi]));
                carry = Some(qi);
            }
            Some(c) => {
                inc.push(b.add_cell(CellKind::Xor2, &[qi, c]));
                carry = Some(b.add_cell(CellKind::And2, &[qi, c]));
            }
        }
    }
    // Synchronous reset forcing `reset_value`, applied after the
    // enable so reset always wins.
    for i in 0..bits as usize {
        let stepped = match en {
            Some(en) => b.add_cell(CellKind::Mux2, &[q[i], inc[i], en]),
            None => inc[i],
        };
        let masked = b.add_cell(CellKind::And2, &[stepped, not_rst]);
        let d = if (reset_value >> i) & 1 == 1 {
            b.add_cell(CellKind::Or2, &[masked, rst])
        } else {
            masked
        };
        // Reset is already folded in; don't double-wrap with enable.
        b.rewire(q[i], 0, d);
    }
    q
}

/// `AND` tree over a slice (returns the slice's single net for len 1).
fn and_tree(b: &mut NetlistBuilder, nets: &[NetId]) -> NetId {
    assert!(!nets.is_empty());
    let mut level = nets.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(match pair {
                [x, y] => b.add_cell(CellKind::And2, &[*x, *y]),
                [x] => *x,
                _ => unreachable!("chunks(2)"),
            });
        }
        level = next;
    }
    level[0]
}

/// `NOR`-style zero detector: `1` iff every net is `0`.
fn is_zero(b: &mut NetlistBuilder, nets: &[NetId]) -> NetId {
    assert!(!nets.is_empty());
    let mut level = nets.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(match pair {
                [x, y] => b.add_cell(CellKind::Or2, &[*x, *y]),
                [x] => *x,
                _ => unreachable!("chunks(2)"),
            });
        }
        level = next;
    }
    b.add_cell(CellKind::Inv, &[level[0]])
}

/// One add-and-shift core; returns the `2W`-bit product register.
///
/// `reset_count` staggers interleaved cores (the parallel variant);
/// `en` is the optional clock-enable gating every state element.
fn seq_core(
    b: &mut NetlistBuilder,
    a_in: &[NetId],
    b_in: &[NetId],
    rst: NetId,
    not_rst: NetId,
    en: Option<NetId>,
    reset_count: u32,
) -> Vec<NetId> {
    let w = a_in.len();
    assert!(
        w.is_power_of_two() && w >= 4,
        "seq core needs power-of-two width >= 4"
    );
    let cb = w.trailing_zeros();

    let count = counter(b, cb, rst, not_rst, reset_count, en);
    let load = is_zero(b, &count);
    let not_load = b.add_cell(CellKind::Inv, &[load]);
    let last = and_tree(b, &count);

    // Operand register with load-bypass: the load cycle already uses
    // the fresh operand.
    let a_reg: Vec<NetId> = (0..w).map(|_| new_flop(b, rst)).collect();
    let a_used: Vec<NetId> = (0..w)
        .map(|j| b.add_cell(CellKind::Mux2, &[a_reg[j], a_in[j], load]))
        .collect();
    for j in 0..w {
        drive_flop(b, a_reg[j], a_used[j], en);
    }

    // Multiplier shift register holds the pending bits b[1..w].
    let b_reg: Vec<NetId> = (0..w - 1).map(|_| new_flop(b, rst)).collect();
    let m = b.add_cell(CellKind::Mux2, &[b_reg[0], b_in[0], load]);
    for j in 0..w - 1 {
        let d = if j + 1 < w - 1 {
            b.add_cell(CellKind::Mux2, &[b_reg[j + 1], b_in[j + 1], load])
        } else {
            // The top pending slot refills only at load (with b[w-1]).
            b.add_cell(CellKind::And2, &[b_in[w - 1], load])
        };
        drive_flop(b, b_reg[j], d, en);
    }

    // Accumulator: acc' = (acc + m·a·2^w) >> 1, cleared at load.
    let acc: Vec<NetId> = (0..2 * w).map(|_| new_flop(b, rst)).collect();
    let addend: Vec<NetId> = (0..w)
        .map(|j| b.add_cell(CellKind::And2, &[a_used[j], m]))
        .collect();
    let acc_high_gated: Vec<NetId> = (0..w)
        .map(|j| b.add_cell(CellKind::And2, &[acc[w + j], not_load]))
        .collect();
    // The internal clock runs `w x` the data clock (500 MHz for the
    // paper's 16-bit case), so the per-step adder must be fast: a
    // Kogge-Stone carry-propagate adder, not a ripple chain.
    let sum = kogge_stone_adder(b, &acc_high_gated, &addend, None); // w + 1 bits
    let mut acc_d = Vec::with_capacity(2 * w);
    for j in 0..2 * w {
        let d = if j < w - 1 {
            b.add_cell(CellKind::And2, &[acc[j + 1], not_load])
        } else {
            sum[j - (w - 1)]
        };
        acc_d.push(d);
        drive_flop(b, acc[j], d, en);
    }

    // Product register: captures the completed accumulator at the last
    // step and holds it for a full data period.
    let p_reg: Vec<NetId> = (0..2 * w).map(|_| new_flop(b, rst)).collect();
    for j in 0..2 * w {
        let d = b.add_cell(CellKind::Mux2, &[p_reg[j], acc_d[j], last]);
        drive_flop(b, p_reg[j], d, en);
    }
    p_reg
}

/// The raw (pre-prune) builder of the basic add-and-shift sequential
/// multiplier (`W` internal cycles per product; internal clock =
/// `W ×` data clock).
///
/// Inputs: `a`, `b` operand buses plus a 1-bit `rst` bus that must be
/// held high for the first data item. Pruning removes the counter's
/// final increment carry and the accumulator's never-read LSB flop.
///
/// # Panics
///
/// Panics unless `width` is a power of two ≥ 4.
pub(crate) fn sequential_builder(width: usize) -> NetlistBuilder {
    let mut b = NetlistBuilder::new("sequential");
    let a_in: Vec<NetId> = (0..width).map(|j| b.add_input(format!("a{j}"))).collect();
    let b_in: Vec<NetId> = (0..width).map(|i| b.add_input(format!("b{i}"))).collect();
    let rst = b.add_input("rst0");
    let not_rst = b.add_cell(CellKind::Inv, &[rst]);
    let p = seq_core(&mut b, &a_in, &b_in, rst, not_rst, None, 0);
    for (k, q) in p.into_iter().enumerate() {
        b.add_output(format!("p{k}"), q);
    }
    b
}

/// The raw (pre-prune) builder of the "4_16 Wallace" sequential
/// multiplier: adds **four** partial products per cycle through a
/// small Wallace (CSA) tree, finishing a 16-bit product in 4 internal
/// cycles instead of 16 (Section 4).
///
/// # Panics
///
/// Panics unless `width` is a multiple of 4, a power of two, ≥ 8.
pub(crate) fn sequential_4_wallace_builder(width: usize) -> NetlistBuilder {
    const NIB: usize = 4;
    assert!(
        width.is_multiple_of(NIB) && width.is_power_of_two() && width >= 8,
        "4_16-style core needs power-of-two width >= 8"
    );
    let w = width;
    let steps = w / NIB; // internal cycles per product
    let cb = steps.trailing_zeros();
    let acc_w = 2 * w + 1; // one headroom bit for mid-computation sums

    let mut b = NetlistBuilder::new("seq4_16");
    let a_in: Vec<NetId> = (0..w).map(|j| b.add_input(format!("a{j}"))).collect();
    let b_in: Vec<NetId> = (0..w).map(|i| b.add_input(format!("b{i}"))).collect();
    let rst = b.add_input("rst0");
    let not_rst = b.add_cell(CellKind::Inv, &[rst]);

    let count = counter(&mut b, cb, rst, not_rst, 0, None);
    let load = is_zero(&mut b, &count);
    let not_load = b.add_cell(CellKind::Inv, &[load]);
    let last = and_tree(&mut b, &count);

    let a_reg: Vec<NetId> = (0..w).map(|_| new_flop(&mut b, rst)).collect();
    let a_used: Vec<NetId> = (0..w)
        .map(|j| b.add_cell(CellKind::Mux2, &[a_reg[j], a_in[j], load]))
        .collect();
    for j in 0..w {
        drive_flop(&mut b, a_reg[j], a_used[j], None);
    }

    // Pending multiplier bits b[NIB..w], shifting down NIB per cycle.
    let b_reg: Vec<NetId> = (0..w - NIB).map(|_| new_flop(&mut b, rst)).collect();
    let m_nib: Vec<NetId> = (0..NIB)
        .map(|k| b.add_cell(CellKind::Mux2, &[b_reg[k], b_in[k], load]))
        .collect();
    for j in 0..w - NIB {
        let d = if j + NIB < w - NIB {
            b.add_cell(CellKind::Mux2, &[b_reg[j + NIB], b_in[j + NIB], load])
        } else {
            b.add_cell(CellKind::And2, &[b_in[j + NIB], load])
        };
        drive_flop(&mut b, b_reg[j], d, None);
    }

    // acc' = (acc + (Σ_k m_k·a·2^k)·2^w) >> NIB.
    let acc: Vec<NetId> = (0..acc_w).map(|_| new_flop(&mut b, rst)).collect();
    // Columns of the per-cycle addition: acc[w..] plus 4 pp rows.
    let addend_w = w + NIB; // partial sums span weights 0..w+NIB-1
    let sum_w = addend_w + 1;
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); sum_w];
    for (t, col) in columns.iter_mut().enumerate().take(acc_w - w) {
        let gated = b.add_cell(CellKind::And2, &[acc[w + t], not_load]);
        col.push(gated);
    }
    for (k, &m) in m_nib.iter().enumerate() {
        for j in 0..w {
            let pp = b.add_cell(CellKind::And2, &[a_used[j], m]);
            columns[k + j].push(pp);
        }
    }
    let (row_a, row_b) = reduce_columns(&mut b, columns);
    let sum = kogge_stone_adder(&mut b, &row_a, &row_b, None);

    let mut acc_d = Vec::with_capacity(acc_w);
    for j in 0..acc_w {
        let d = if j < w - NIB {
            b.add_cell(CellKind::And2, &[acc[j + NIB], not_load])
        } else {
            sum[j - (w - NIB)]
        };
        acc_d.push(d);
        drive_flop(&mut b, acc[j], d, None);
    }

    let p_reg: Vec<NetId> = (0..2 * w).map(|_| new_flop(&mut b, rst)).collect();
    for j in 0..2 * w {
        let d = b.add_cell(CellKind::Mux2, &[p_reg[j], acc_d[j], last]);
        drive_flop(&mut b, p_reg[j], d, None);
        b.add_output(format!("p{j}"), p_reg[j]);
    }
    b
}

/// The raw (pre-prune) builder of two interleaved add-and-shift cores
/// sharing the input buses: each core receives every other data item
/// and advances on alternate internal cycles, so its per-step timing
/// budget doubles ("additional clock cycles at its disposal relaxing
/// timing constraints").
///
/// # Panics
///
/// Panics unless `width` is a power of two ≥ 4.
pub(crate) fn sequential_parallel_builder(width: usize) -> NetlistBuilder {
    let w = width;
    let mut b = NetlistBuilder::new("seq_parallel");
    let a_in: Vec<NetId> = (0..w).map(|j| b.add_input(format!("a{j}"))).collect();
    let b_in: Vec<NetId> = (0..w).map(|i| b.add_input(format!("b{i}"))).collect();
    let rst = b.add_input("rst0");
    let not_rst = b.add_cell(CellKind::Inv, &[rst]);

    // Phase bit: selects which core advances this cycle.
    let phase = counter(&mut b, 1, rst, not_rst, 0, None)[0];
    let en_a = b.add_cell(CellKind::Inv, &[phase]);
    let en_b = phase;

    // Core A takes items starting at its counter's natural zero; core
    // B is staggered by half a counter revolution (one data period).
    let p_a = seq_core(&mut b, &a_in, &b_in, rst, not_rst, Some(en_a), 0);
    let p_b = seq_core(
        &mut b,
        &a_in,
        &b_in,
        rst,
        not_rst,
        Some(en_b),
        (w / 2) as u32,
    );

    // Select whichever product register currently holds the item that
    // completes the 2-item latency pattern: the MSB of core A's step
    // counter tracks data-item parity (it advances every other cycle).
    // Reconstruct it cheaply: a dedicated item-parity flop toggling
    // every w internal cycles via core-A's load pulse is equivalent,
    // but the simplest faithful signal is a divided counter.
    let cb = w.trailing_zeros() + 1; // counts 0..2w-1 over two items
    let item_ctr = counter(&mut b, cb, rst, not_rst, 0, None);
    let sel = item_ctr[cb as usize - 1]; // toggles once per data item

    for j in 0..2 * w {
        let o = b.add_cell(CellKind::Mux2, &[p_a[j], p_b[j], sel]);
        b.add_output(format!("p{j}"), o);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::Netlist;
    use optpower_sim::{verify_product, VerifyOutcome};

    fn pruned(builder: NetlistBuilder) -> Netlist {
        builder.build_pruned().unwrap()
    }

    fn assert_multiplies(nl: &Netlist, cycles_per_item: u32) {
        match verify_product(nl, 40, cycles_per_item, 4, 99) {
            VerifyOutcome::Correct { latency_items } => {
                assert!(
                    latency_items >= 1,
                    "{}: sequential results are registered",
                    nl.name()
                );
            }
            VerifyOutcome::Mismatch(m) => panic!("{}: {m}", nl.name()),
        }
    }

    #[test]
    fn sequential_8_multiplies() {
        assert_multiplies(&pruned(sequential_builder(8)), 8);
    }

    #[test]
    fn sequential_16_multiplies() {
        assert_multiplies(&pruned(sequential_builder(16)), 16);
    }

    #[test]
    fn seq4_wallace_8_multiplies() {
        assert_multiplies(&pruned(sequential_4_wallace_builder(8)), 2);
    }

    #[test]
    fn seq4_wallace_16_multiplies() {
        assert_multiplies(&pruned(sequential_4_wallace_builder(16)), 4);
    }

    #[test]
    fn seq_parallel_16_multiplies() {
        assert_multiplies(&pruned(sequential_parallel_builder(16)), 16);
    }

    #[test]
    fn sequential_is_compact() {
        // The whole point: far fewer cells than the array multiplier.
        let seq = pruned(sequential_builder(16)).logic_cell_count();
        let arr = pruned(crate::array::rca_builder(16)).logic_cell_count();
        assert!(seq < arr, "seq {seq} vs array {arr}");
    }

    #[test]
    fn seq4_needs_fewer_cycles_but_more_cells() {
        let s1 = pruned(sequential_builder(16)).logic_cell_count();
        let s4 = pruned(sequential_4_wallace_builder(16)).logic_cell_count();
        assert!(s4 > s1, "s4 {s4} vs s1 {s1}");
    }

    #[test]
    fn seq_parallel_doubles_state() {
        let s1 = pruned(sequential_builder(16)).dff_count();
        let sp = pruned(sequential_parallel_builder(16)).dff_count();
        assert!(sp > 2 * s1 - 10, "sp {sp} vs s1 {s1}");
    }
}
