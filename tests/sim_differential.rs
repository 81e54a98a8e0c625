//! Differential harness locking the plane engines to the scalar
//! reference: every lane of a `WidePlaneSim` run (64, 256 or 512
//! lanes) must be *bit-identical* — output values and transition
//! counts, per lane — to a scalar `ZeroDelaySim` run with that lane's
//! seed, and each wide plane must equal its independent chunked
//! 64-lane runs, on random netlists and on the full 13-architecture
//! multiplier suite; and the zero-delay activity must lower-bound the
//! timed activity on the same netlist and seed. A plane runs its
//! three-valued program until a step leaves no `X` anywhere and its
//! two-valued program from then on; dedicated cases pin both sides of
//! that switch: a netlist that never becomes `X`-free, and per-lane
//! counts across the switch.

use optpower_mult::Architecture;
use optpower_netlist::{CellKind, Library, Logic, Netlist, NetlistBuilder};
use optpower_sim::{
    lane_seed, measure_activity, BitParallelSim, Engine, StimulusGen, WidePlaneSim, ZeroDelaySim,
    LANES,
};
use proptest::prelude::*;

/// Builds a random mixed combinational/sequential DAG with `a` and `b`
/// input buses of two bits each, cell kinds (constant drivers included)
/// and fan-ins drawn from `picks`, and the last four nets exposed as the
/// `p` output bus.
fn random_netlist(picks: &[(u8, u32, u32, u32)]) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets = Vec::new();
    for i in 0..2 {
        nets.push(b.add_input(format!("a{i}")));
    }
    for i in 0..2 {
        nets.push(b.add_input(format!("b{i}")));
    }
    for &(kind_ix, x, y, z) in picks {
        let kinds = [
            CellKind::Buf,
            CellKind::Inv,
            CellKind::And2,
            CellKind::Nand2,
            CellKind::Or2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Mux2,
            CellKind::Xor3,
            CellKind::Maj3,
            CellKind::Dff,
            CellKind::Const0,
            CellKind::Const1,
        ];
        let kind = kinds[kind_ix as usize % kinds.len()];
        let pick = |v: u32| nets[v as usize % nets.len()];
        let ins: Vec<_> = match kind.arity() {
            0 => vec![],
            1 => vec![pick(x)],
            2 => vec![pick(x), pick(y)],
            _ => vec![pick(x), pick(y), pick(z)],
        };
        nets.push(b.add_cell(kind, &ins));
    }
    for (i, net) in nets.iter().rev().take(4).enumerate() {
        b.add_output(format!("p{i}"), *net);
    }
    b.build().expect("random DAG is valid by construction")
}

/// Runs a `W`-chunk wide plane over `items` lane-seeded stimulus items
/// and checks, lane by lane, that output values and transition counts
/// are bit-identical to (a) a dedicated scalar [`ZeroDelaySim`] run on
/// that lane's stream and (b) `W` independent chunked 64-lane
/// [`BitParallelSim`] runs over the same streams, with per-lane
/// counting on. Returns the wide plane for further checks. Plain
/// `assert!`s on purpose: the proptest harness reports the failing
/// inputs either way, and the helper stays monomorphic per width.
fn check_wide_plane<const W: usize>(nl: &Netlist, seed: u64, items: u64) -> WidePlaneSim<'_, W> {
    let lanes = LANES * W;
    let mut wide = WidePlaneSim::<W>::new(nl);
    wide.track_lane_transitions();
    let mut narrow: Vec<BitParallelSim> = (0..W)
        .map(|_| {
            let mut sim = BitParallelSim::new(nl);
            sim.track_lane_transitions();
            sim
        })
        .collect();
    let mut stims: Vec<StimulusGen> = (0..lanes as u32)
        .map(|l| StimulusGen::new(lane_seed(seed, l), 2, 2))
        .collect();
    let mut wide_outputs: Vec<Vec<Option<u64>>> = vec![Vec::new(); lanes];
    for _ in 0..items {
        let mut a = vec![0u64; lanes];
        let mut b = vec![0u64; lanes];
        for (lane, stim) in stims.iter_mut().enumerate() {
            let (av, bv) = stim.next_item();
            a[lane] = av;
            b[lane] = bv;
        }
        wide.set_input_bits_lanes("a", &a);
        wide.set_input_bits_lanes("b", &b);
        for (c, sim) in narrow.iter_mut().enumerate() {
            sim.set_input_bits_lanes("a", &a[c * LANES..(c + 1) * LANES]);
            sim.set_input_bits_lanes("b", &b[c * LANES..(c + 1) * LANES]);
        }
        wide.step();
        narrow.iter_mut().for_each(BitParallelSim::step);
        for (lane, outs) in wide_outputs.iter_mut().enumerate() {
            outs.push(wide.output_bits_lane("p", lane));
        }
    }
    // (a) Scalar: every lane replays as a dedicated zero-delay run.
    let mut scalar_total = 0u64;
    for (lane, lane_outs) in wide_outputs.iter().enumerate() {
        let mut zd = ZeroDelaySim::new(nl);
        let mut stim = StimulusGen::new(lane_seed(seed, lane as u32), 2, 2);
        for (t, wide_out) in lane_outs.iter().enumerate() {
            let (av, bv) = stim.next_item();
            zd.set_input_bits("a", av);
            zd.set_input_bits("b", bv);
            zd.step();
            assert_eq!(*wide_out, zd.output_bits("p"), "W={W} lane {lane} item {t}");
        }
        assert_eq!(
            wide.lane_logic_transitions()[lane],
            zd.logic_transitions(),
            "W={W} lane {lane} transition count"
        );
        scalar_total += zd.logic_transitions();
    }
    assert_eq!(wide.logic_transitions(), scalar_total, "W={W} total");
    // (b) Chunked: chunk `c` equals an independent 64-lane run over
    // lanes `64c..64c+64`.
    let mut chunk_total = 0u64;
    for (c, sim) in narrow.iter_mut().enumerate() {
        for lane in 0..LANES {
            assert_eq!(
                wide.output_bits_lane("p", c * LANES + lane),
                sim.output_bits_lane("p", lane),
                "W={W} chunk {c} lane {lane}"
            );
            assert_eq!(
                wide.lane_logic_transitions()[c * LANES + lane],
                sim.lane_logic_transitions()[lane],
                "W={W} chunk {c} lane {lane} transitions"
            );
        }
        chunk_total += sim.logic_transitions();
    }
    assert_eq!(wide.logic_transitions(), chunk_total, "W={W} chunk total");
    wide
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-lane differential: driving the bit-parallel engine with 64
    /// seeded stimulus streams yields, in every lane, exactly the
    /// output values and transition counts of a dedicated scalar
    /// zero-delay run on that lane's stream.
    #[test]
    fn bit_parallel_lanes_are_bit_identical_to_scalar_runs(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..40),
        seed in any::<u64>(),
        items in 2u64..8,
    ) {
        let nl = random_netlist(&picks);
        // Bit-parallel run: all 64 lanes at once.
        let mut bp = BitParallelSim::new(&nl);
        bp.track_lane_transitions();
        let mut stims: Vec<StimulusGen> =
            (0..LANES as u32).map(|l| StimulusGen::new(lane_seed(seed, l), 2, 2)).collect();
        let mut bp_outputs: Vec<Vec<Option<u64>>> = vec![Vec::new(); LANES];
        for _ in 0..items {
            let mut a = [0u64; LANES];
            let mut b = [0u64; LANES];
            for (lane, stim) in stims.iter_mut().enumerate() {
                let (av, bv) = stim.next_item();
                a[lane] = av;
                b[lane] = bv;
            }
            bp.set_input_bits_lanes("a", &a);
            bp.set_input_bits_lanes("b", &b);
            bp.step();
            for (lane, outs) in bp_outputs.iter_mut().enumerate() {
                outs.push(bp.output_bits_lane("p", lane));
            }
        }
        // 64 scalar runs on the same per-lane streams.
        let mut total = 0u64;
        for (lane, lane_outs) in bp_outputs.iter().enumerate() {
            let mut zd = ZeroDelaySim::new(&nl);
            let mut stim = StimulusGen::new(lane_seed(seed, lane as u32), 2, 2);
            for (t, bp_out) in lane_outs.iter().enumerate() {
                let (av, bv) = stim.next_item();
                zd.set_input_bits("a", av);
                zd.set_input_bits("b", bv);
                zd.step();
                prop_assert_eq!(
                    *bp_out,
                    zd.output_bits("p"),
                    "lane {} item {}", lane, t
                );
            }
            prop_assert_eq!(
                bp.lane_logic_transitions()[lane],
                zd.logic_transitions(),
                "lane {} transition count", lane
            );
            total += zd.logic_transitions();
        }
        prop_assert_eq!(bp.logic_transitions(), total);
    }

    /// The wide planes inherit the per-lane contract: at 256 and 512
    /// lanes, every lane's output values and transition counts equal a
    /// dedicated scalar zero-delay run, and every 64-lane chunk equals
    /// an independent chunked `BitParallelSim` run on the same streams.
    #[test]
    fn wide_planes_are_bit_identical_to_scalar_and_chunked_runs(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..30),
        seed in any::<u64>(),
        items in 2u64..6,
    ) {
        let nl = random_netlist(&picks);
        check_wide_plane::<4>(&nl, seed, items);
        check_wide_plane::<8>(&nl, seed, items);
    }

    /// The same contract through the public measurement API: one
    /// bit-parallel activity measurement equals the sum of 64 scalar
    /// zero-delay measurements over the lane seeds.
    #[test]
    fn measured_activity_is_the_sum_of_lane_measurements(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..30),
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(&picks);
        let lib = Library::cmos13();
        let bp = measure_activity(&nl, &lib, Engine::BitParallel, 6, 1, 2, seed).unwrap();
        let scalar_sum: u64 = (0..LANES as u32)
            .map(|l| {
                measure_activity(&nl, &lib, Engine::ZeroDelay, 6, 1, 2, lane_seed(seed, l))
                    .unwrap()
                    .transitions
            })
            .sum();
        prop_assert_eq!(bp.transitions, scalar_sum);
    }

    /// The measurement API at 256/512 lanes: a wide measurement equals
    /// the sum of lane-seeded scalar zero-delay measurements at the
    /// same per-lane item count.
    #[test]
    fn wide_measured_activity_sums_lane_measurements(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..20),
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(&picks);
        let lib = Library::cmos13();
        // One scalar pass over the full 512-lane seed range; the
        // 256-lane total is its prefix (widths nest by construction).
        let per_lane: Vec<u64> = (0..8 * LANES as u32)
            .map(|l| {
                measure_activity(&nl, &lib, Engine::ZeroDelay, 4, 1, 2, lane_seed(seed, l))
                    .unwrap()
                    .transitions
            })
            .collect();
        let wide256 = measure_activity(&nl, &lib, Engine::BitParallel256, 4, 1, 2, seed).unwrap();
        let wide512 = measure_activity(&nl, &lib, Engine::BitParallel512, 4, 1, 2, seed).unwrap();
        prop_assert_eq!(wide256.items, 4 * 256);
        prop_assert_eq!(wide512.items, 4 * 512);
        prop_assert_eq!(wide256.transitions, per_lane[..256].iter().sum::<u64>());
        prop_assert_eq!(wide512.transitions, per_lane.iter().sum::<u64>());
    }

    /// Glitches only add transitions: on any netlist and seed, the
    /// glitch-free (zero-delay) activity lower-bounds the timed one.
    #[test]
    fn zero_delay_activity_lower_bounds_timed(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..40),
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(&picks);
        let lib = Library::cmos13();
        let zd = measure_activity(&nl, &lib, Engine::ZeroDelay, 8, 1, 2, seed).unwrap();
        let timed = measure_activity(&nl, &lib, Engine::Timed, 8, 1, 2, seed).unwrap();
        prop_assert!(
            timed.transitions >= zd.transitions,
            "timed {} < zero-delay {}", timed.transitions, zd.transitions
        );
    }
}

/// Acceptance criterion: on every one of the thirteen multiplier
/// architectures, the bit-parallel transition count is bit-identical to
/// the sum of 64 seeded scalar zero-delay runs.
#[test]
fn full_architecture_suite_is_bit_identical() {
    let lib = Library::cmos13();
    for arch in Architecture::ALL {
        let design = arch.generate(16).unwrap();
        let bp = measure_activity(
            &design.netlist,
            &lib,
            Engine::BitParallel,
            3,
            design.cycles_per_item,
            2,
            9,
        )
        .unwrap();
        let scalar_sum: u64 = (0..LANES as u32)
            .map(|l| {
                measure_activity(
                    &design.netlist,
                    &lib,
                    Engine::ZeroDelay,
                    3,
                    design.cycles_per_item,
                    2,
                    lane_seed(9, l),
                )
                .unwrap()
                .transitions
            })
            .sum();
        assert_eq!(bp.transitions, scalar_sum, "{arch}");
        assert_eq!(bp.items, 3 * LANES as u64, "{arch}");
    }
}

/// The same acceptance criterion for the wide planes: on every
/// architecture, the 256- and 512-lane transition counts equal the
/// sums of the lane-seeded scalar zero-delay runs. One scalar pass
/// over all 512 lane seeds serves both widths (the seed sets nest);
/// 8-bit operands keep the 13 × 512 scalar replays fast.
#[test]
fn full_architecture_suite_wide_planes_are_bit_identical() {
    let lib = Library::cmos13();
    for arch in Architecture::ALL {
        let design = arch.generate(8).unwrap();
        let measure_wide = |engine| {
            measure_activity(
                &design.netlist,
                &lib,
                engine,
                1,
                design.cycles_per_item,
                2,
                9,
            )
            .unwrap()
        };
        let wide256 = measure_wide(Engine::BitParallel256);
        let wide512 = measure_wide(Engine::BitParallel512);
        let per_lane: Vec<u64> = (0..8 * LANES as u32)
            .map(|l| {
                measure_activity(
                    &design.netlist,
                    &lib,
                    Engine::ZeroDelay,
                    1,
                    design.cycles_per_item,
                    2,
                    lane_seed(9, l),
                )
                .unwrap()
                .transitions
            })
            .collect();
        assert_eq!(
            wide256.transitions,
            per_lane[..256].iter().sum::<u64>(),
            "{arch} 256"
        );
        assert_eq!(
            wide512.transitions,
            per_lane.iter().sum::<u64>(),
            "{arch} 512"
        );
        assert_eq!(wide256.items, 256, "{arch}");
        assert_eq!(wide512.items, 512, "{arch}");
    }
}

/// Whether any net holds `X` in any of the plane's lanes.
fn any_x<const W: usize>(sim: &WidePlaneSim<'_, W>) -> bool {
    (0..sim.lanes()).any(|lane| sim.lane_values(lane).contains(&Logic::X))
}

/// A flip-flop fed back through an inverter with no reset holds `X`
/// forever, so the plane never leaves its three-valued program; its `X`
/// reaches the outputs only in lanes whose operands do not mask it.
/// Values and per-lane counts stay exact against scalar runs at every
/// width.
#[test]
fn plane_that_never_becomes_x_free_matches_scalar_runs() {
    let mut b = NetlistBuilder::new("free_running_toggle");
    let a: Vec<_> = (0..2).map(|i| b.add_input(format!("a{i}"))).collect();
    let x: Vec<_> = (0..2).map(|i| b.add_input(format!("b{i}"))).collect();
    let q = b.add_cell(CellKind::Dff, &[a[0]]);
    let nq = b.add_cell(CellKind::Inv, &[q]);
    b.rewire(q, 0, nq);
    let sum = b.add_cell(CellKind::Xor2, &[a[0], x[0]]);
    let gated = b.add_cell(CellKind::And2, &[q, a[1]]);
    let masked = b.add_cell(CellKind::Or2, &[gated, x[1]]);
    let mix = b.add_cell(CellKind::Maj3, &[masked, sum, x[0]]);
    b.add_output("p0", sum);
    b.add_output("p1", masked);
    b.add_output("p2", mix);
    let nl = b.build().unwrap();
    for seed in [3, 11] {
        let wide1 = check_wide_plane::<1>(&nl, seed, 9);
        let wide4 = check_wide_plane::<4>(&nl, seed, 9);
        let wide8 = check_wide_plane::<8>(&nl, seed, 9);
        assert_eq!(wide1.value(q, 0), Logic::X);
        assert_eq!(wide4.value(nq, 255), Logic::X);
        assert_eq!(wide8.value(q, 511), Logic::X);
        // Some lanes see the loop's X on `p1`, others a known level.
        let p1: Vec<Option<u64>> = (0..64).map(|l| wide1.output_bits_lane("p", l)).collect();
        assert!(p1.contains(&None) && p1.iter().any(Option::is_some));
    }
}

/// A registered pipeline without reset leaves `X` on its flip-flops
/// until the operands have reached the last stage, so the plane
/// switches to its two-valued program mid-run. Per-lane counts, tracked
/// from the first step, equal scalar runs across the switch at every
/// width.
#[test]
fn lane_counts_stay_exact_across_the_two_valued_switch() {
    let mut b = NetlistBuilder::new("three_stage");
    let a: Vec<_> = (0..2).map(|i| b.add_input(format!("a{i}"))).collect();
    let x: Vec<_> = (0..2).map(|i| b.add_input(format!("b{i}"))).collect();
    let s0 = b.add_cell(CellKind::Xor2, &[a[0], x[0]]);
    let c0 = b.add_cell(CellKind::And2, &[a[1], x[1]]);
    let r0 = b.add_cell(CellKind::Dff, &[s0]);
    let r1 = b.add_cell(CellKind::Dff, &[c0]);
    let s1 = b.add_cell(CellKind::Nand2, &[r0, r1]);
    let r2 = b.add_cell(CellKind::Dff, &[s1]);
    let m = b.add_cell(CellKind::Mux2, &[r2, r0, a[0]]);
    let one = b.add_cell(CellKind::Const1, &[]);
    let s2 = b.add_cell(CellKind::Xnor2, &[m, one]);
    b.add_output("p0", s2);
    b.add_output("p1", r2);
    let nl = b.build().unwrap();
    // X before the last stage fills, X-free after it.
    let mut plane = BitParallelSim::new(&nl);
    for steps in 1..=4 {
        plane.set_input_bits_lanes("a", &[1; LANES]);
        plane.set_input_bits_lanes("b", &[2; LANES]);
        plane.step();
        assert_eq!(any_x(&plane), steps < 3, "after step {steps}");
    }
    for seed in [5, 17] {
        assert!(!any_x(&check_wide_plane::<1>(&nl, seed, 8)));
        assert!(!any_x(&check_wide_plane::<4>(&nl, seed, 8)));
        assert!(!any_x(&check_wide_plane::<8>(&nl, seed, 8)));
    }
}
