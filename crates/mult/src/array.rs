//! The ripple-carry array (RCA) multiplier family: basic, horizontally
//! pipelined and diagonally pipelined (Figures 3 and 4 of the paper).
//!
//! The array computes `p = a × b` as a grid of carry-save rows: row `i`
//! adds partial-product row `pp(i,j) = a_j · b_i` to the running sum,
//! and a final ripple-carry adder resolves the remaining sum/carry
//! vectors — the carry propagation through that chain dominates the
//! logical depth, which is why the paper's transformations target it.
//!
//! Pipelining is expressed as a *stage function* over the grid:
//! horizontal cuts slice between rows (`stage = f(i)`), diagonal cuts
//! slice along anti-diagonals (`stage = f(i + j)`), reproducing the
//! register placements of Figures 3/4 including the operand balancing
//! registers.

use optpower_netlist::{CellKind, NetId, NetlistBuilder};

use crate::adders::{full_adder, half_adder};
use crate::pipeline::{Pipeliner, Staged};

/// Where the pipeline register cuts run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PipelineStyle {
    /// Cuts between array rows (the paper's Figure 3).
    Horizontal,
    /// Cuts along anti-diagonals (the paper's Figure 4) — shorter
    /// logical depth, wider path-delay spread, more glitches.
    Diagonal,
}

/// The raw (pre-prune) builder of the basic, unpipelined RCA array
/// multiplier. Pruning it is a no-op: the array's final ripple chain
/// terminates cleanly.
///
/// # Panics
///
/// Panics if `width < 2`.
pub(crate) fn rca_builder(width: usize) -> NetlistBuilder {
    rca_pipelined_impl(width, 1, PipelineStyle::Horizontal, "rca")
}

/// Embeds an unpipelined RCA array over existing operand nets and
/// returns the `2·width` product nets — the core used by the
/// parallelisation transform. At one stage the pipeliner inserts no
/// register.
///
/// # Panics
///
/// Panics if the operand slices differ in width or are narrower than 2.
pub(crate) fn rca_core(b: &mut NetlistBuilder, a: &[NetId], bb: &[NetId]) -> Vec<NetId> {
    let stage0 =
        |nets: &[NetId]| -> Vec<Staged> { nets.iter().map(|&n| Staged::new(n, 0)).collect() };
    let grid = StageGrid::compute(a.len(), 1, PipelineStyle::Horizontal);
    carry_save_array(b, &mut Pipeliner::new(), &stage0(a), &stage0(bb), &grid)
        .into_iter()
        .map(|bit| bit.net)
        .collect()
}

/// The raw (pre-prune) builder of a pipelined RCA array multiplier
/// with `stages` ≥ 2.
///
/// # Panics
///
/// Panics if `stages < 2` (use [`rca_builder`] for the unpipelined
/// array) or `width < 2`.
pub(crate) fn rca_pipelined_builder(
    width: usize,
    stages: u32,
    style: PipelineStyle,
) -> NetlistBuilder {
    assert!(stages >= 2, "pipelined RCA needs >= 2 stages, got {stages}");
    let name = match style {
        PipelineStyle::Horizontal => format!("rca_hpipe{stages}"),
        PipelineStyle::Diagonal => format!("rca_dpipe{stages}"),
    };
    rca_pipelined_impl(width, stages, style, &name)
}

fn rca_pipelined_impl(
    width: usize,
    stages: u32,
    style: PipelineStyle,
    name: &str,
) -> NetlistBuilder {
    let mut b = NetlistBuilder::new(name);
    let a: Vec<Staged> = (0..width)
        .map(|j| Staged::new(b.add_input(format!("a{j}")), 0))
        .collect();
    let bb: Vec<Staged> = (0..width)
        .map(|i| Staged::new(b.add_input(format!("b{i}")), 0))
        .collect();

    // Stage of the cell processing (row i, column j); rows run 0..=w,
    // with row w being the final ripple adder.
    //
    // Horizontal: cuts between rows, as drawn in Figure 3.
    // Diagonal: iso-delay cuts, which in an array run diagonally across
    // the grid, as drawn in Figure 4. They are computed from a dry
    // timing pass (`StageGrid`), cutting the critical path deeper than
    // row cuts while spreading short-path slack — the paper's
    // shorter-LD / more-glitches trade-off.
    let grid = StageGrid::compute(width, stages, style);
    let mut pl = Pipeliner::new();
    let product = carry_save_array(&mut b, &mut pl, &a, &bb, &grid);

    // Align all product bits to the last stage and expose them.
    let last_stage = stages.saturating_sub(1);
    for (k, bit) in product.into_iter().enumerate() {
        let net = pl.at(&mut b, bit, last_stage);
        b.add_output(format!("p{k}"), net);
    }

    b
}

/// The array itself, over staged operands: row 0 holds the partial
/// products `a_j · b_0`, rows `1..w` add partial-product row `i` to
/// the running sum in carry-save form, and row `w` ripples out the
/// upper half. The cell at (row `i`, column `j`) computes in
/// `grid.stage(i, j)`, its operands registered up to that stage by
/// `pl`. Returns the `2·w` product bits, each at the stage of the cell
/// that produced it.
///
/// # Panics
///
/// Panics if the operand slices differ in width or are narrower than 2.
fn carry_save_array(
    b: &mut NetlistBuilder,
    pl: &mut Pipeliner,
    a: &[Staged],
    bb: &[Staged],
    grid: &StageGrid,
) -> Vec<Staged> {
    assert_eq!(a.len(), bb.len(), "operand widths must match");
    let w = a.len();
    assert!(w >= 2, "multiplier width must be >= 2, got {w}");

    // Partial product at (i, j), with operands balanced to the stage.
    let pp = |b: &mut NetlistBuilder, pl: &mut Pipeliner, i: usize, j: usize| -> Staged {
        let st = grid.stage(i, j);
        let aj = pl.at(b, a[j], st);
        let bi = pl.at(b, bb[i], st);
        Staged::new(b.add_cell(CellKind::And2, &[aj, bi]), st)
    };

    let mut product: Vec<Option<Staged>> = vec![None; 2 * w];

    // Row 0: pure partial products.
    let mut sums: Vec<Option<Staged>> = vec![None; w]; // S[j], weight (i+1)+j
    let mut carries: Vec<Option<Staged>> = vec![None; w]; // C[j], weight (i+1)+j
    product[0] = Some(pp(b, pl, 0, 0));
    for j in 1..w {
        sums[j - 1] = Some(pp(b, pl, 0, j));
    }

    // Rows 1..w-1: carry-save addition of each partial-product row.
    #[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
    for i in 1..w {
        let mut next_sums: Vec<Option<Staged>> = vec![None; w];
        let mut next_carries: Vec<Option<Staged>> = vec![None; w];
        for j in 0..w {
            let p = pp(b, pl, i, j);
            let (s, c) = add_three(b, pl, p, sums[j], carries[j], grid.stage(i, j));
            if j == 0 {
                product[i] = Some(s);
            } else {
                next_sums[j - 1] = Some(s);
            }
            next_carries[j] = c;
        }
        sums = next_sums;
        carries = next_carries;
    }

    // Final row (index w): ripple-resolve S and C over weights w..2w-1.
    let mut carry: Option<Staged> = None;
    for j in 0..w {
        let (s, c) = add_three_opt(b, pl, sums[j], carries[j], carry, grid.stage(w, j));
        product[w + j] = Some(s);
        carry = c;
    }
    // The product of two w-bit numbers fits in 2w bits, so the final
    // carry (weight 2w) is provably zero and deliberately unconnected.

    product
        .into_iter()
        .map(|bit| bit.expect("all 2w product bits are produced"))
        .collect()
}

/// Pipeline-stage assignment for every grid position, computed once
/// per generation.
#[derive(Debug, Clone)]
struct StageGrid {
    /// `stage[i][j]` for rows `0..=w` (row `w` = final adder).
    stage: Vec<Vec<u32>>,
}

impl StageGrid {
    fn stage(&self, i: usize, j: usize) -> u32 {
        self.stage[i][j]
    }

    fn compute(w: usize, stages: u32, style: PipelineStyle) -> Self {
        if stages <= 1 {
            return Self {
                stage: vec![vec![0; w]; w + 1],
            };
        }
        match style {
            PipelineStyle::Horizontal => Self {
                stage: (0..=w)
                    .map(|i| vec![((i as u32) * stages) / (w as u32 + 1); w])
                    .collect(),
            },
            PipelineStyle::Diagonal => Self::iso_delay(w, stages),
        }
    }

    /// Dry timing pass over the unpipelined array using the library
    /// delays, then quantises each cell's arrival time into `stages`
    /// equal-delay bands.
    fn iso_delay(w: usize, stages: u32) -> Self {
        use optpower_netlist::{CellKind as K, Library};
        let lib = Library::cmos13();
        let (d_and, d_xor2, d_and2, d_xor3, d_maj3) = (
            lib.delay(K::And2),
            lib.delay(K::Xor2),
            lib.delay(K::And2),
            lib.delay(K::Xor3),
            lib.delay(K::Maj3),
        );
        // Arrival of the (sum, carry) produced at each grid position.
        let mut arrival = vec![vec![0.0f64; w]; w + 1];
        let mut s_arr: Vec<Option<f64>> = vec![None; w];
        let mut c_arr: Vec<Option<f64>> = vec![None; w];
        // Row 0: pure partial products.
        arrival[0] = vec![d_and; w];
        for j in 1..w {
            s_arr[j - 1] = Some(d_and);
        }
        // Rows 1..w-1: FA/HA depending on available operands.
        #[allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
        for i in 1..w {
            let mut ns: Vec<Option<f64>> = vec![None; w];
            let mut nc: Vec<Option<f64>> = vec![None; w];
            for j in 0..w {
                let inputs = [Some(d_and), s_arr[j], c_arr[j]];
                let present = inputs.iter().flatten().count();
                let base = inputs.iter().flatten().fold(0.0f64, |m, &v| m.max(v));
                let (out_s, out_c) = match present {
                    1 => (base, None),
                    2 => (base + d_xor2, Some(base + d_and2)),
                    _ => (base + d_xor3, Some(base + d_maj3)),
                };
                arrival[i][j] = out_s.max(out_c.unwrap_or(0.0));
                if j > 0 {
                    ns[j - 1] = Some(out_s);
                }
                nc[j] = out_c;
            }
            s_arr = ns;
            c_arr = nc;
        }
        // Final ripple row.
        let mut carry: Option<f64> = None;
        for j in 0..w {
            let inputs = [s_arr[j], c_arr[j], carry];
            let present = inputs.iter().flatten().count();
            let base = inputs.iter().flatten().fold(0.0f64, |m, &v| m.max(v));
            let (out_s, out_c) = match present {
                0 | 1 => (base, None),
                2 => (base + d_xor2, Some(base + d_and2)),
                _ => (base + d_xor3, Some(base + d_maj3)),
            };
            arrival[w][j] = out_s.max(out_c.unwrap_or(0.0));
            carry = out_c;
        }
        let total = arrival
            .iter()
            .flat_map(|row| row.iter())
            .fold(0.0f64, |m, &v| m.max(v))
            * 1.000_001;
        let stage = arrival
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&t| ((t / total) * f64::from(stages)) as u32)
                    .collect()
            })
            .collect();
        Self { stage }
    }
}

/// Adds a mandatory bit plus up to two optional bits at `stage`,
/// choosing pass-through / half adder / full adder; returns
/// `(sum, carry)` with the carry `None` when none is generated.
fn add_three(
    b: &mut NetlistBuilder,
    pl: &mut Pipeliner,
    x: Staged,
    y: Option<Staged>,
    z: Option<Staged>,
    stage: u32,
) -> (Staged, Option<Staged>) {
    let xn = pl.at(b, x, stage);
    match (y, z) {
        (None, None) => (Staged::new(xn, stage), None),
        (Some(y), None) | (None, Some(y)) => {
            let yn = pl.at(b, y, stage);
            let (s, c) = half_adder(b, xn, yn);
            (Staged::new(s, stage), Some(Staged::new(c, stage)))
        }
        (Some(y), Some(z)) => {
            let yn = pl.at(b, y, stage);
            let zn = pl.at(b, z, stage);
            let (s, c) = full_adder(b, xn, yn, zn);
            (Staged::new(s, stage), Some(Staged::new(c, stage)))
        }
    }
}

/// [`add_three`] where all three operands are optional. A vacuous
/// column produces a constant zero.
fn add_three_opt(
    b: &mut NetlistBuilder,
    pl: &mut Pipeliner,
    x: Option<Staged>,
    y: Option<Staged>,
    z: Option<Staged>,
    stage: u32,
) -> (Staged, Option<Staged>) {
    let mut present: Vec<Staged> = [x, y, z].into_iter().flatten().collect();
    match present.len() {
        0 => {
            let zero = b.add_cell(CellKind::Const0, &[]);
            (Staged::new(zero, stage), None)
        }
        1 => {
            let only = present.pop().expect("len checked");
            let net = pl.at(b, only, stage);
            (Staged::new(net, stage), None)
        }
        2 => add_three(b, pl, present[0], Some(present[1]), None, stage),
        _ => add_three(b, pl, present[0], Some(present[1]), Some(present[2]), stage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::Netlist;
    use optpower_sim::{verify_product, VerifyOutcome};

    fn rca(width: usize) -> Netlist {
        rca_builder(width).build_pruned().unwrap()
    }

    fn rca_pipelined(width: usize, stages: u32, style: PipelineStyle) -> Netlist {
        rca_pipelined_builder(width, stages, style)
            .build_pruned()
            .unwrap()
    }

    fn assert_multiplies(nl: &Netlist, expected_latency: Option<u32>) {
        match verify_product(nl, 60, 1, 8, 2024) {
            VerifyOutcome::Correct { latency_items } => {
                if let Some(expect) = expected_latency {
                    assert_eq!(latency_items, expect, "{}", nl.name());
                }
            }
            VerifyOutcome::Mismatch(m) => panic!("{}: {m}", nl.name()),
        }
    }

    #[test]
    fn rca4_exhaustive() {
        let nl = rca(4);
        let mut sim = optpower_sim::ZeroDelaySim::new(&nl);
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
    fn rca8_random() {
        assert_multiplies(&rca(8), Some(0));
    }

    #[test]
    fn rca16_random() {
        assert_multiplies(&rca(16), Some(0));
    }

    #[test]
    fn horizontal_pipeline_2_and_4() {
        assert_multiplies(&rca_pipelined(8, 2, PipelineStyle::Horizontal), Some(1));
        assert_multiplies(&rca_pipelined(8, 4, PipelineStyle::Horizontal), Some(3));
        assert_multiplies(&rca_pipelined(16, 2, PipelineStyle::Horizontal), Some(1));
    }

    #[test]
    fn diagonal_pipeline_2_and_4() {
        assert_multiplies(&rca_pipelined(8, 2, PipelineStyle::Diagonal), Some(1));
        assert_multiplies(&rca_pipelined(8, 4, PipelineStyle::Diagonal), Some(3));
        assert_multiplies(&rca_pipelined(16, 2, PipelineStyle::Diagonal), Some(1));
    }

    #[test]
    fn pipelining_adds_registers() {
        let base = rca(16);
        let h2 = rca_pipelined(16, 2, PipelineStyle::Horizontal);
        let h4 = rca_pipelined(16, 4, PipelineStyle::Horizontal);
        assert_eq!(base.dff_count(), 0);
        assert!(h2.dff_count() > 0);
        assert!(h4.dff_count() > h2.dff_count());
    }

    #[test]
    fn pipelining_shortens_logical_depth() {
        use optpower_netlist::Library;
        use optpower_sta::TimingAnalysis;
        let lib = Library::cmos13();
        let ld = |nl: &Netlist| TimingAnalysis::analyze(nl, &lib).logical_depth();
        let base = ld(&rca(16));
        let h2 = ld(&rca_pipelined(16, 2, PipelineStyle::Horizontal));
        let h4 = ld(&rca_pipelined(16, 4, PipelineStyle::Horizontal));
        let d2 = ld(&rca_pipelined(16, 2, PipelineStyle::Diagonal));
        assert!(h2 < base && h4 < h2, "base {base} h2 {h2} h4 {h4}");
        assert!(d2 < base, "base {base} d2 {d2}");
    }

    #[test]
    fn diagonal_cuts_deeper_than_horizontal() {
        // The paper: diagonal pipelining shortens the critical path
        // *more* than horizontal at the same stage count.
        use optpower_netlist::Library;
        use optpower_sta::TimingAnalysis;
        let lib = Library::cmos13();
        let ld = |nl: &Netlist| TimingAnalysis::analyze(nl, &lib).logical_depth();
        let h2 = ld(&rca_pipelined(16, 2, PipelineStyle::Horizontal));
        let d2 = ld(&rca_pipelined(16, 2, PipelineStyle::Diagonal));
        assert!(d2 < h2, "h2 {h2} d2 {d2}");
    }

    #[test]
    fn cell_count_scale_matches_paper() {
        // Paper Table 1: RCA = 608 cells with FA-level cells; our
        // decomposition (FA = Xor3 + Maj3) lands in the same order of
        // magnitude.
        let nl = rca(16);
        let n = nl.logic_cell_count();
        assert!(n > 500 && n < 1200, "N = {n}");
    }

    #[test]
    #[should_panic(expected = ">= 2 stages")]
    fn pipelined_requires_stages() {
        let _ = rca_pipelined_builder(8, 1, PipelineStyle::Horizontal);
    }
}
