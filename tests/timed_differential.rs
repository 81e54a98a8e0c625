//! Differential harness locking the event-wheel timed engine and the
//! pooled timed measurement to the frozen scalar reference:
//!
//! * [`TimedSim`] (integer ticks + bucket wheel, allocation-free hot
//!   path) must be *bit-identical* — settled values and per-cell
//!   transition counts — to [`ScalarTimedSim`] (the pre-wheel
//!   binary-heap engine) on random mixed combinational/sequential
//!   netlists, under the cmos13 delays and under one uniform delay,
//!   and on the full 13-architecture multiplier suite; its
//!   processed-event count, an engine diagnostic, may only be lower;
//! * same-tick event order is part of those semantics: both engines
//!   count a glitch or none depending on which input commits first;
//! * an `Engine::Timed` measurement, which runs its warm-up on the
//!   zero-delay plane and resumes each lane on the wheel from the
//!   settled net values, must equal the `ScalarTimedSim::measure`
//!   reference that simulates the whole protocol from cycle 0 — at
//!   every warm-up length, on every architecture at widths 8/16/24/32,
//!   and net by net at the point where the counted window opens;
//! * the pooled measurement (`measure_timed_activity_pooled`) must be
//!   bit-identical to the sum of dedicated scalar reference runs over
//!   the same lane seeds, at 1, 2 and 8 workers and across the
//!   boundary between two 64-lane warm-up planes.

use optpower_explore::{measure_timed_activity_pooled, TimedPoolConfig, Workers};
use optpower_mult::Architecture;
use optpower_netlist::{CellKind, Library, NetId, Netlist, NetlistBuilder};
use optpower_sim::{
    bus_inputs, lane_seed, measure_activity, ActivityReport, Engine, ScalarTimedSim, StimulusGen,
    TimedLanes, TimedSim, MIN_RESET_WARMUP,
};
use proptest::prelude::*;

/// Builds a random mixed combinational/sequential DAG with `a` and `b`
/// input buses of two bits each, gate kinds and fan-ins drawn from
/// `picks`, and the last four nets exposed as the `p` output bus.
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
        ];
        let kind = kinds[kind_ix as usize % kinds.len()];
        let pick = |v: u32| nets[v as usize % nets.len()];
        let ins: Vec<_> = match kind.arity() {
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

/// The whole-protocol reference for one lane: `ScalarTimedSim::measure`,
/// which simulates warm-up and window from cycle 0.
fn scalar_lane(
    nl: &Netlist,
    items: u64,
    cycles_per_item: u32,
    warmup: u64,
    seed: u64,
    lane: u32,
) -> ActivityReport {
    ScalarTimedSim::measure(
        nl,
        &Library::cmos13(),
        items,
        cycles_per_item,
        warmup,
        lane_seed(seed, lane),
    )
    .expect("cmos13 delays are valid and acyclic netlists settle")
}

/// A wheel simulator driven from cycle 0 through `warmup` protocol
/// items of lane `lane`'s stream: reset high on item 0 only, fresh
/// operands every item, each held for `cycles_per_item` cycles.
fn cold_started_lane(
    nl: &Netlist,
    cycles_per_item: u32,
    warmup: u64,
    seed: u64,
    lane: u32,
) -> TimedSim<'_> {
    let mut sim = TimedSim::new(nl, &Library::cmos13()).expect("cmos13 delays are valid");
    let width = |bus| bus_inputs(nl, bus).len() as u32;
    let mut stim = StimulusGen::new(lane_seed(seed, lane), width("a"), width("b"));
    for item in 0..warmup {
        if width("rst") > 0 {
            sim.set_input_bits("rst", u64::from(item == 0));
        }
        let (a, b) = stim.next_item();
        sim.set_input_bits("a", a);
        sim.set_input_bits("b", b);
        for _ in 0..cycles_per_item.max(1) {
            sim.step().expect("acyclic netlists settle");
        }
    }
    sim
}

/// Every net of the warm-started lane holds the value the lane reaches
/// when the wheel simulates the warm-up itself, and both simulators
/// agree on one more cycle with the inputs left alone: a resumed lane
/// keeps each input's last applied value, as a cold-started one does.
fn assert_warm_state_matches(
    nl: &Netlist,
    cycles_per_item: u32,
    warmup: u64,
    seed: u64,
    lanes: u32,
) {
    let warm = TimedLanes::warm_up(
        nl,
        &Library::cmos13(),
        seed,
        lanes,
        1,
        cycles_per_item,
        warmup,
    )
    .expect("cmos13 delays are valid");
    for lane in 0..lanes {
        let resumed = warm.lane_sim(lane);
        let cold = cold_started_lane(nl, cycles_per_item, warmup, seed, lane);
        assert_eq!(resumed.cycle(), cold.cycle(), "{} lane {lane}", nl.name());
        assert_same_nets(
            &resumed,
            &cold,
            &format!("lane {lane} after {warmup} items"),
        );
        let (mut resumed, mut cold) = (resumed, cold);
        let window_start = cold.transitions().to_vec();
        resumed.step().expect("acyclic netlists settle");
        cold.step().expect("acyclic netlists settle");
        assert_same_nets(&resumed, &cold, &format!("lane {lane}, held inputs"));
        let counted: Vec<u64> = (cold.transitions().iter().zip(&window_start))
            .map(|(after, before)| after - before)
            .collect();
        assert_eq!(
            resumed.transitions(),
            &counted[..],
            "lane {lane}, held inputs"
        );
    }
}

fn assert_same_nets(resumed: &TimedSim<'_>, cold: &TimedSim<'_>, context: &str) {
    let nl = cold.netlist();
    for net in 0..nl.cells().len() {
        let id = NetId(net as u32);
        assert_eq!(
            resumed.value(id),
            cold.value(id),
            "{} net {net}, {context}",
            nl.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine-level differential: identical stimulus into the wheel
    /// engine and the scalar reference yields, on every cycle, the
    /// same settled outputs, and at the end the same per-cell
    /// transition counters and per-net values. (Processed-event counts
    /// are an engine diagnostic: batching and no-op elision keep the
    /// wheel's count at or below the scalar engine's.) It runs under
    /// the cmos13 delays and under one uniform delay, where every cell
    /// and each of its sinks have equal delays, so a cell's event and
    /// its sink's pending event fall due in the same tick and the
    /// wheel's due-tick preemption decides the counts on every cycle.
    #[test]
    fn wheel_engine_is_bit_identical_to_scalar_reference(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..40),
        stimulus in prop::collection::vec(any::<u64>(), 3..12),
    ) {
        let nl = random_netlist(&picks);
        for lib in [Library::cmos13(), Library::with_uniform_delay(1.0)] {
            let mut wheel = TimedSim::new(&nl, &lib).expect("delays are valid");
            let mut scalar = ScalarTimedSim::new(&nl, &lib).expect("delays are valid");
            let name = lib.name();
            for (t, s) in stimulus.iter().enumerate() {
                wheel.set_input_bits("a", s & 3);
                wheel.set_input_bits("b", (s >> 2) & 3);
                scalar.set_input_bits("a", s & 3);
                scalar.set_input_bits("b", (s >> 2) & 3);
                let ew = wheel.step().expect("acyclic netlists settle");
                let es = scalar.step().expect("acyclic netlists settle");
                prop_assert!(ew <= es, "{}: wheel processed {} > scalar {} at cycle {}", name, ew, es, t);
                prop_assert_eq!(wheel.output_bits("p"), scalar.output_bits("p"), "{} cycle {}", name, t);
            }
            // Per-cell transition counts, the quantity the power model
            // ultimately consumes, must agree cell by cell.
            prop_assert_eq!(wheel.transitions(), scalar.transitions(), "{}", name);
            prop_assert_eq!(wheel.logic_transitions(), scalar.logic_transitions(), "{}", name);
            // And every net's settled value.
            for net in 0..nl.cells().len() {
                let id = NetId(net as u32);
                prop_assert_eq!(wheel.value(id), scalar.value(id), "{} net {}", name, net);
            }
        }
    }

    /// Measurement-level differential through the public API: the
    /// warm-started `Timed` (wheel) measurement and the whole-protocol
    /// `ScalarTimedSim::measure` (heap) reference produce identical activity
    /// reports for any netlist and seed, at every warm-up length —
    /// zero (no warm start at all) and one (a single plane item)
    /// included, which these reset-free netlists allow — and the
    /// resumed lane starts its window on the reference's net values.
    #[test]
    fn measured_activity_matches_between_wheel_and_scalar(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..30),
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(&picks);
        let lib = Library::cmos13();
        for warmup in [0u64, 1, 3] {
            let wheel = measure_activity(&nl, &lib, Engine::Timed, 6, 1, warmup, seed).unwrap();
            prop_assert_eq!(wheel, scalar_lane(&nl, 6, 1, warmup, seed, 0), "warmup {}", warmup);
            assert_warm_state_matches(&nl, 1, warmup, seed, 2);
        }
    }

    /// Pool-level differential: the pooled timed measurement equals
    /// the sum of dedicated scalar reference runs over the same lane
    /// seeds — bit-identically, at every worker count.
    #[test]
    fn pooled_measurement_is_worker_invariant_and_matches_scalar_sum(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..25),
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(&picks);
        let lib = Library::cmos13();
        let lanes = 4u32;
        let scalar_sum: u64 = (0..lanes)
            .map(|l| {
                ScalarTimedSim::measure(&nl, &lib, 5, 1, 2, lane_seed(seed, l))
                    .unwrap()
                    .transitions
            })
            .sum();
        let mut reference = None;
        for workers in [1usize, 2, 8] {
            let config = TimedPoolConfig {
                lanes,
                items_per_lane: 5,
                cycles_per_item: 1,
                warmup: 2,
                seed,
                workers: Workers::Fixed(workers),
            };
            let pooled = measure_timed_activity_pooled(&nl, &lib, &config).unwrap();
            prop_assert_eq!(pooled.transitions, scalar_sum, "workers = {}", workers);
            prop_assert_eq!(pooled.items, u64::from(lanes) * 5);
            let reference = *reference.get_or_insert(pooled);
            prop_assert_eq!(pooled, reference, "workers = {}", workers);
            prop_assert_eq!(
                pooled.activity.to_bits(),
                reference.activity.to_bits(),
                "activity bits at workers = {}", workers
            );
        }
    }
}

/// Acceptance criterion: on every one of the thirteen multiplier
/// architectures, at every width of the glitch sweep it supports, the
/// warm-started event-wheel measurement is bit-identical to the frozen
/// scalar reference run from cycle 0, lane by lane, and the pooled
/// measurement is worker-count invariant and equal to the scalar
/// per-lane sum at 1, 2 and 8 workers. Each width runs warm-up 2 (the
/// fewest a reset design takes: its reset is released in the last
/// plane item) and warm-up 4 (the characterization's), with a
/// three-item counted window on four lanes.
fn assert_suite_matches_scalar(width: usize) {
    let lib = Library::cmos13();
    let (items, lanes, seed) = (3u64, 4u32, 9u64);
    for arch in Architecture::ALL {
        if !arch.supports_width(width) {
            continue;
        }
        let design = arch.generate(width).unwrap();
        let (nl, cpi) = (&design.netlist, design.cycles_per_item);
        for warmup in [MIN_RESET_WARMUP, 4] {
            let context = format!("{arch} @{width}, warm-up {warmup}");
            let scalar: Vec<ActivityReport> = (0..lanes)
                .map(|l| scalar_lane(nl, items, cpi, warmup, seed, l))
                .collect();
            let wheel =
                measure_activity(nl, &lib, Engine::Timed, items, cpi, warmup, seed).unwrap();
            assert_eq!(wheel, scalar[0], "{context}: wheel vs scalar");
            let warm = TimedLanes::warm_up(nl, &lib, seed, lanes, items, cpi, warmup).unwrap();
            for (lane, reference) in (0..lanes).zip(&scalar) {
                let measured = warm.measure_lane(lane).unwrap();
                assert_eq!(&measured, reference, "{context}, lane {lane}");
            }
            let scalar_sum: u64 = scalar.iter().map(|r| r.transitions).sum();
            let mut reference = None;
            for workers in [1usize, 2, 8] {
                let config = TimedPoolConfig {
                    lanes,
                    items_per_lane: items,
                    cycles_per_item: cpi,
                    warmup,
                    seed,
                    workers: Workers::Fixed(workers),
                };
                let pooled = measure_timed_activity_pooled(nl, &lib, &config).unwrap();
                assert_eq!(
                    pooled.transitions, scalar_sum,
                    "{context} at {workers} workers"
                );
                let reference = *reference.get_or_insert(pooled);
                assert_eq!(pooled, reference, "{context} at {workers} workers");
            }
        }
    }
}

#[test]
fn full_architecture_suite_wheel_and_pool_match_scalar() {
    assert_suite_matches_scalar(16);
}

#[test]
fn full_architecture_suite_matches_scalar_at_width_8() {
    assert_suite_matches_scalar(8);
}

#[test]
fn full_architecture_suite_matches_scalar_at_width_24() {
    assert_suite_matches_scalar(24);
}

#[test]
fn full_architecture_suite_matches_scalar_at_width_32() {
    assert_suite_matches_scalar(32);
}

/// After the plane warm-up, every lane of every architecture resumes
/// on exactly the net values the wheel reaches by simulating the
/// warm-up itself — reset pulse, DFF contents and constant nets
/// included, output ports `X` in both — at the shortest warm-up a
/// reset design takes and at the characterization's.
#[test]
fn warm_started_lanes_hold_the_full_protocol_state() {
    for arch in Architecture::ALL {
        let design = arch.generate(8).unwrap();
        for warmup in [MIN_RESET_WARMUP, 4] {
            assert_warm_state_matches(&design.netlist, design.cycles_per_item, warmup, 5, 2);
        }
    }
}

/// A pooled measurement wider than one 64-lane warm-up plane: lanes
/// 64..70 warm up on a second plane (with its own reset pulse), and
/// each lane still equals its whole-protocol scalar reference.
#[test]
fn pooled_lanes_across_two_warm_up_planes_match_scalar() {
    let design = Architecture::RcaParallel2.generate(8).unwrap();
    let (nl, cpi) = (&design.netlist, design.cycles_per_item);
    let lib = Library::cmos13();
    let (lanes, items, warmup, seed) = (70u32, 2u64, 4u64, 21u64);
    let warm = TimedLanes::warm_up(nl, &lib, seed, lanes, items, cpi, warmup).unwrap();
    let mut scalar_sum = 0;
    for lane in 0..lanes {
        let scalar = scalar_lane(nl, items, cpi, warmup, seed, lane);
        assert_eq!(warm.measure_lane(lane).unwrap(), scalar, "lane {lane}");
        scalar_sum += scalar.transitions;
    }
    for workers in [1usize, 2] {
        let config = TimedPoolConfig {
            lanes,
            items_per_lane: items,
            cycles_per_item: cpi,
            warmup,
            seed,
            workers: Workers::Fixed(workers),
        };
        let pooled = measure_timed_activity_pooled(nl, &lib, &config).unwrap();
        assert_eq!(pooled.transitions, scalar_sum, "{workers} workers");
        assert_eq!(pooled.items, u64::from(lanes) * items);
    }
}

/// Same-tick order is part of the timed semantics, in both engines.
/// Under one uniform delay, `u = Inv(a0)` and `s = Xor2(u, b0)` start
/// from `a = b = 0` (so `u = s = 1`) and both inputs flip: at tick 0
/// `u` and `s` both re-evaluate to 0, and both events fall due at
/// tick 1. The input committed first at the edge decides which event
/// goes first. When `a0` commits first, `u`'s event fires first, its
/// change preempts `s`'s pending event, and `s` settles back at 1
/// without a transition. When `b0` commits first, `s` falls before `u`
/// does and rises again one delay later: a glitch of two transitions.
#[test]
fn same_tick_order_is_part_of_the_timed_semantics() {
    let lib = Library::with_uniform_delay(1.0);
    for (a_first, glitches) in [(true, 0u64), (false, 2)] {
        let mut b = NetlistBuilder::new("order");
        let (a0, b0) = if a_first {
            let a0 = b.add_input("a0");
            (a0, b.add_input("b0"))
        } else {
            let b0 = b.add_input("b0");
            (b.add_input("a0"), b0)
        };
        let u = b.add_cell(CellKind::Inv, &[a0]);
        let s = b.add_cell(CellKind::Xor2, &[u, b0]);
        b.add_output("p0", s);
        let nl = b.build().expect("valid netlist");
        let mut wheel = TimedSim::new(&nl, &lib).expect("positive delays");
        let mut scalar = ScalarTimedSim::new(&nl, &lib).expect("positive delays");
        for (a, bv) in [(0, 0), (1, 1)] {
            wheel.set_input_bits("a", a);
            wheel.set_input_bits("b", bv);
            scalar.set_input_bits("a", a);
            scalar.set_input_bits("b", bv);
            wheel.step().expect("settles");
            scalar.step().expect("settles");
            if a == 0 {
                wheel.reset_transitions();
                scalar.reset_transitions();
            }
        }
        let context = if a_first { "a0 first" } else { "b0 first" };
        assert_eq!(wheel.transitions()[s.index()], glitches, "wheel, {context}");
        assert_eq!(
            scalar.transitions()[s.index()],
            glitches,
            "scalar, {context}"
        );
        assert_eq!(wheel.output_bits("p"), Some(1), "{context}");
        assert_eq!(scalar.output_bits("p"), Some(1), "{context}");
    }
}
