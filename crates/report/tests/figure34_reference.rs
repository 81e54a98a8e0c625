//! Reference implementation of the Figures 3/4 measurement, kept to
//! check `figure34` against.
//!
//! `figure34` measures its four pipelined RCAs through the shared
//! pooled characterization. This file states the same measurement
//! directly on the simulator and STA entry points: per design, one
//! static timing analysis and two scalar activity runs (glitch-counting
//! `Timed` and glitch-free `ZeroDelay`) of `items` items after a
//! 4-item warm-up at seed 7. Every summary field must agree bit for
//! bit, at any worker count.

use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_netlist::Library;
use optpower_report::{figure34, StageSummary};
use optpower_sim::{measure_activity, Engine};
use optpower_sta::TimingAnalysis;

/// The reference summaries, in `figure34`'s order.
fn reference(width: usize, items: u64) -> Vec<StageSummary> {
    let lib = Library::cmos13();
    [
        (Architecture::RcaHorPipe2, "horizontal", 2),
        (Architecture::RcaHorPipe4, "horizontal", 4),
        (Architecture::RcaDiagPipe2, "diagonal", 2),
        (Architecture::RcaDiagPipe4, "diagonal", 4),
    ]
    .into_iter()
    .map(|(arch, style, stages)| {
        let design = arch.generate(width).expect("supported width");
        let nl = &design.netlist;
        let sta = TimingAnalysis::analyze(nl, &lib);
        let activity = |engine| {
            measure_activity(nl, &lib, engine, items, 1, 4, 7)
                .expect("valid library and acyclic netlist")
                .activity
        };
        StageSummary {
            style,
            stages,
            registers: nl.dff_count(),
            logical_depth: sta.logical_depth(),
            path_spread: sta.path_spread(),
            mean_input_skew: sta.mean_input_skew(),
            activity_timed: activity(Engine::Timed),
            activity_zero_delay: activity(Engine::ZeroDelay),
        }
    })
    .collect()
}

#[test]
fn figure34_matches_the_direct_measurement_bit_for_bit() {
    for width in [3, 8, 16] {
        for items in [5, 40] {
            let expected = reference(width, items);
            for workers in [1, 2] {
                let fig = figure34(width, items, Workers::Fixed(workers)).unwrap();
                assert_eq!(fig.width, width);
                assert_eq!(fig.summaries.len(), expected.len());
                for (got, want) in fig.summaries.iter().zip(&expected) {
                    let at = format!(
                        "{} {}-stage, width {width}, {items} items, {workers} workers",
                        want.style, want.stages
                    );
                    assert_eq!(
                        (got.style, got.stages, got.registers),
                        (want.style, want.stages, want.registers),
                        "{at}"
                    );
                    for (field, g, w) in [
                        ("logical_depth", got.logical_depth, want.logical_depth),
                        ("path_spread", got.path_spread, want.path_spread),
                        ("mean_input_skew", got.mean_input_skew, want.mean_input_skew),
                        ("activity_timed", got.activity_timed, want.activity_timed),
                        (
                            "activity_zero_delay",
                            got.activity_zero_delay,
                            want.activity_zero_delay,
                        ),
                    ] {
                        assert_eq!(g.to_bits(), w.to_bits(), "{field}: {g} vs {w}, {at}");
                    }
                }
            }
        }
    }
}
