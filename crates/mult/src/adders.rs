//! Reusable adder sub-generators: full/half adders, the Kogge–Stone
//! carry-propagate adder, and column compression.

use optpower_netlist::{CellKind, NetId, NetlistBuilder};

/// Adds a full adder (one `Xor3` + one `Maj3`); returns `(sum, carry)`.
pub(crate) fn full_adder(b: &mut NetlistBuilder, x: NetId, y: NetId, z: NetId) -> (NetId, NetId) {
    let sum = b.add_cell(CellKind::Xor3, &[x, y, z]);
    let carry = b.add_cell(CellKind::Maj3, &[x, y, z]);
    (sum, carry)
}

/// Adds a half adder (one `Xor2` + one `And2`); returns `(sum, carry)`.
pub(crate) fn half_adder(b: &mut NetlistBuilder, x: NetId, y: NetId) -> (NetId, NetId) {
    let sum = b.add_cell(CellKind::Xor2, &[x, y]);
    let carry = b.add_cell(CellKind::And2, &[x, y]);
    (sum, carry)
}

/// Kogge–Stone parallel-prefix adder; returns `width + 1` sum bits
/// (carry out last). Logarithmic depth — the "fast final adder" of the
/// Wallace multipliers.
///
/// # Panics
///
/// Panics if the operand widths differ or are zero.
pub(crate) fn kogge_stone_adder(
    b: &mut NetlistBuilder,
    x: &[NetId],
    y: &[NetId],
    cin: Option<NetId>,
) -> Vec<NetId> {
    assert_eq!(
        x.len(),
        y.len(),
        "kogge-stone operands must have equal width"
    );
    let w = x.len();
    assert!(w > 0, "kogge-stone operands must be non-empty");

    // Bit-level generate/propagate.
    let mut g: Vec<NetId> = (0..w)
        .map(|i| b.add_cell(CellKind::And2, &[x[i], y[i]]))
        .collect();
    let mut p: Vec<NetId> = (0..w)
        .map(|i| b.add_cell(CellKind::Xor2, &[x[i], y[i]]))
        .collect();
    let p_bits = p.clone(); // sum needs the original propagate bits

    // Fold carry-in into position 0: g0' = g0 | (p0 & cin).
    if let Some(cn) = cin {
        let t = b.add_cell(CellKind::And2, &[p[0], cn]);
        g[0] = b.add_cell(CellKind::Or2, &[g[0], t]);
    }

    // Prefix network: (g, p) ∘ (g', p') = (g | (p & g'), p & p').
    let mut dist = 1;
    while dist < w {
        let mut g_next = g.clone();
        let mut p_next = p.clone();
        for i in dist..w {
            let t = b.add_cell(CellKind::And2, &[p[i], g[i - dist]]);
            g_next[i] = b.add_cell(CellKind::Or2, &[g[i], t]);
            p_next[i] = b.add_cell(CellKind::And2, &[p[i], p[i - dist]]);
        }
        g = g_next;
        p = p_next;
        dist *= 2;
    }

    // Sum: s_i = p_i ^ carry_{i-1}; carry_{i-1} = G_{i-1} (carry into bit i).
    let mut out = Vec::with_capacity(w + 1);
    for i in 0..w {
        let s = if i == 0 {
            match cin {
                Some(cn) => b.add_cell(CellKind::Xor2, &[p_bits[0], cn]),
                None => b.add_cell(CellKind::Buf, &[p_bits[0]]),
            }
        } else {
            b.add_cell(CellKind::Xor2, &[p_bits[i], g[i - 1]])
        };
        out.push(s);
    }
    out.push(g[w - 1]); // carry out
    out
}

/// Compresses weight-indexed bit columns to at most two rows using
/// full/half adders (Wallace-style reduction), then returns the two
/// rows padded with `Const0` to the same width.
///
/// `columns[w]` holds the bits of weight `w`. Used by the Wallace
/// multipliers and the 4×16 sequential datapath.
pub(crate) fn reduce_columns(
    b: &mut NetlistBuilder,
    mut columns: Vec<Vec<NetId>>,
) -> (Vec<NetId>, Vec<NetId>) {
    loop {
        let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
        if max_height <= 2 {
            break;
        }
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); columns.len() + 1];
        for (w, col) in columns.iter().enumerate() {
            let mut i = 0;
            // Groups of three through a full adder…
            while col.len() - i >= 3 {
                let (s, c) = full_adder(b, col[i], col[i + 1], col[i + 2]);
                next[w].push(s);
                next[w + 1].push(c);
                i += 3;
            }
            // …a leftover pair through a half adder (only when the
            // column is over-height, to avoid needless cells)…
            if col.len() - i == 2 && col.len() > 2 {
                let (s, c) = half_adder(b, col[i], col[i + 1]);
                next[w].push(s);
                next[w + 1].push(c);
                i += 2;
            }
            // …stragglers pass through.
            while i < col.len() {
                next[w].push(col[i]);
                i += 1;
            }
        }
        while next.last().is_some_and(Vec::is_empty) {
            next.pop();
        }
        columns = next;
    }

    // Split the ≤2-high columns into two rows, zero-padded.
    let width = columns.len();
    let zero = b.add_cell(CellKind::Const0, &[]);
    let mut row_a = Vec::with_capacity(width);
    let mut row_b = Vec::with_capacity(width);
    for col in &columns {
        row_a.push(col.first().copied().unwrap_or(zero));
        row_b.push(col.get(1).copied().unwrap_or(zero));
    }
    (row_a, row_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::Netlist;
    use optpower_sim::ZeroDelaySim;

    /// Ripple-carry reference adder over equal-width operands; returns
    /// `width + 1` sum bits (carry out last).
    fn ripple_adder(b: &mut NetlistBuilder, x: &[NetId], y: &[NetId]) -> Vec<NetId> {
        let mut out = Vec::with_capacity(x.len() + 1);
        let mut carry = None;
        for (&xi, &yi) in x.iter().zip(y) {
            let (s, c) = match carry {
                Some(cn) => full_adder(b, xi, yi, cn),
                None => half_adder(b, xi, yi),
            };
            out.push(s);
            carry = Some(c);
        }
        out.push(carry.expect("width >= 1 always yields a carry"));
        out
    }

    /// Builds an adder test harness: a + b (+ cin fixed 0) = p.
    fn adder_netlist(width: usize, kogge: bool) -> Netlist {
        let mut b = NetlistBuilder::new("adder");
        let xs: Vec<NetId> = (0..width).map(|i| b.add_input(format!("a{i}"))).collect();
        let ys: Vec<NetId> = (0..width).map(|i| b.add_input(format!("b{i}"))).collect();
        let sum = if kogge {
            kogge_stone_adder(&mut b, &xs, &ys, None)
        } else {
            ripple_adder(&mut b, &xs, &ys)
        };
        for (i, s) in sum.into_iter().enumerate() {
            b.add_output(format!("p{i}"), s);
        }
        b.build().unwrap()
    }

    fn check_adder(width: usize, kogge: bool) {
        let nl = adder_netlist(width, kogge);
        let mut sim = ZeroDelaySim::new(&nl);
        let cases: Vec<(u64, u64)> = vec![
            (0, 0),
            (1, 1),
            ((1 << width) - 1, 1),
            ((1 << width) - 1, (1 << width) - 1),
            (0x5A5A & ((1 << width) - 1), 0xA5A5 & ((1 << width) - 1)),
        ];
        for (a, b) in cases {
            sim.set_input_bits("a", a);
            sim.set_input_bits("b", b);
            sim.step();
            assert_eq!(sim.output_bits("p"), Some(a + b), "{a}+{b} w={width}");
        }
    }

    #[test]
    fn ripple_adds_correctly() {
        check_adder(8, false);
        check_adder(16, false);
    }

    #[test]
    fn kogge_stone_adds_correctly() {
        check_adder(8, true);
        check_adder(16, true);
        check_adder(13, true); // non-power-of-two width
    }

    #[test]
    fn kogge_stone_exhaustive_4bit() {
        let nl = adder_netlist(4, true);
        let mut sim = ZeroDelaySim::new(&nl);
        for a in 0..16u64 {
            for b in 0..16u64 {
                sim.set_input_bits("a", a);
                sim.set_input_bits("b", b);
                sim.step();
                assert_eq!(sim.output_bits("p"), Some(a + b), "{a}+{b}");
            }
        }
    }

    #[test]
    fn adder_with_carry_in() {
        let mut b = NetlistBuilder::new("cin");
        let xs: Vec<NetId> = (0..4).map(|i| b.add_input(format!("a{i}"))).collect();
        let ys: Vec<NetId> = (0..4).map(|i| b.add_input(format!("b{i}"))).collect();
        let one = b.add_cell(CellKind::Const1, &[]);
        let sum = kogge_stone_adder(&mut b, &xs, &ys, Some(one));
        for (i, s) in sum.into_iter().enumerate() {
            b.add_output(format!("p{i}"), s);
        }
        let nl = b.build().unwrap();
        let mut sim = ZeroDelaySim::new(&nl);
        for (a, y) in [(3u64, 4u64), (15, 15), (0, 0)] {
            sim.set_input_bits("a", a);
            sim.set_input_bits("b", y);
            sim.step();
            assert_eq!(sim.output_bits("p"), Some(a + y + 1));
        }
    }

    #[test]
    fn reduce_columns_preserves_value() {
        // Feed 5 bits of weight 0 and 3 bits of weight 1; the two
        // output rows must sum to the same total.
        let mut b = NetlistBuilder::new("cols");
        let bits0: Vec<NetId> = (0..5).map(|i| b.add_input(format!("a{i}"))).collect();
        let bits1: Vec<NetId> = (0..3).map(|i| b.add_input(format!("b{i}"))).collect();
        let (ra, rb) = reduce_columns(&mut b, vec![bits0, bits1]);
        let sum = ripple_adder(&mut b, &ra, &rb);
        for (i, s) in sum.into_iter().enumerate() {
            b.add_output(format!("p{i}"), s);
        }
        let nl = b.build().unwrap();
        let mut sim = ZeroDelaySim::new(&nl);
        for a in 0..32u64 {
            for y in 0..8u64 {
                sim.set_input_bits("a", a);
                sim.set_input_bits("b", y);
                sim.step();
                let expect = u64::from(a.count_ones()) + 2 * u64::from(y.count_ones());
                assert_eq!(sim.output_bits("p"), Some(expect), "a={a:05b} b={y:03b}");
            }
        }
    }

    #[test]
    fn kogge_stone_is_shallower_than_ripple() {
        use optpower_netlist::Library;
        use optpower_sta::TimingAnalysis;
        let lib = Library::cmos13();
        let ks = TimingAnalysis::analyze(&adder_netlist(16, true), &lib);
        let rc = TimingAnalysis::analyze(&adder_netlist(16, false), &lib);
        assert!(
            ks.logical_depth() < rc.logical_depth() * 0.6,
            "ks {} vs rc {}",
            ks.logical_depth(),
            rc.logical_depth()
        );
    }
}
