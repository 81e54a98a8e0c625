//! The parallel exploration engine must be *bit-identical* to the
//! serial sweep on the full Table 1 grid — all thirteen multiplier
//! architectures × the three STM CMOS09 flavours — independent of the
//! worker count. The pool only decides who computes each point; the
//! memoized calibration is a pure function of the technology, so no
//! floating-point result may differ by even one ULP.

use optpower::sweep::frequency_sweep;
use optpower_explore::{explore, ExploreConfig, Grid};
use optpower_units::Hertz;

const F_LO: Hertz = Hertz::new(1e6);
const F_HI: Hertz = Hertz::new(250e6);
const FREQ_POINTS: usize = 25;

#[test]
fn engine_matches_serial_sweep_on_full_table1_grid() {
    let grid = Grid::paper_full(F_LO, F_HI, FREQ_POINTS).unwrap();
    assert_eq!(grid.technologies().len(), 3);
    assert_eq!(grid.architectures().len(), 13);
    assert_eq!(grid.len(), 13 * 3 * FREQ_POINTS);

    // Serial reference: the pre-existing sweep, one (tech, arch) pair
    // at a time, in grid order.
    let mut serial = Vec::with_capacity(grid.len());
    for tech in grid.technologies() {
        for arch in grid.architectures() {
            serial.extend(frequency_sweep(*tech, arch, F_LO, F_HI, FREQ_POINTS).unwrap());
        }
    }

    let engine = explore(&grid, &ExploreConfig::with_workers(1));
    assert_eq!(engine.len(), serial.len());
    for (record, sample) in engine.records().iter().zip(serial.iter()) {
        assert_eq!(record.frequency, sample.frequency);
        assert_eq!(
            record.outcome, sample.outcome,
            "{} / {} @ {:?}",
            record.tech, record.arch, record.frequency
        );
    }
}

#[test]
fn worker_count_never_changes_full_grid_results() {
    let grid = Grid::paper_full(F_LO, F_HI, FREQ_POINTS).unwrap();
    let reference = explore(&grid, &ExploreConfig::with_workers(1));
    for workers in [2, 8] {
        let rs = explore(&grid, &ExploreConfig::with_workers(workers));
        assert_eq!(rs, reference, "workers = {workers}");
    }
}

#[test]
fn full_grid_analytics_are_sane() {
    let grid = Grid::paper_full(F_LO, F_HI, FREQ_POINTS).unwrap();
    let rs = explore(&grid, &ExploreConfig::default());
    let summary = rs.summary();
    assert_eq!(summary.points, grid.len());
    assert_eq!(
        summary.closed + summary.boundary_pinned + summary.failed,
        summary.points
    );
    assert_eq!(summary.failed, 0, "the paper grid never errors");
    // Every architecture closes somewhere (at 1 MHz at the latest).
    assert_eq!(rs.best_per_architecture().len(), 13);
    // The front spans from the slowest to the fastest closable points.
    let front = rs.pareto_front();
    assert!(!front.is_empty());
    for pair in front.windows(2) {
        assert!(pair[0].frequency < pair[1].frequency);
    }
    // Every point keeps its record.
    assert_eq!(rs.records().len(), grid.len());
}
