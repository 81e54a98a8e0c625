//! Serial vs parallel design-space sweeps at several grid sizes.
//!
//! Three variants per grid size quantify where the time goes:
//!
//! * `serial_core`  — the pre-existing serial path: one
//!   `optpower::sweep::frequency_sweep` per (tech, arch) pair,
//!   refitting the linearisation at every point;
//! * `engine_1worker` — the exploration engine pinned to one worker:
//!   same work, memoized calibration (isolates the caching win);
//! * `parallel`     — the engine on every available core (adds the
//!   threading win; this is the configuration the CI bench job tracks
//!   in `BENCH_sweep.json`).
//!
//! `sweep/frequency/{serial,parallel}_64pts` time one (tech, arch)
//! pair over 64 frequencies: `serial_64pts` is
//! `optpower::sweep::frequency_sweep`, `parallel_64pts` the engine on
//! every available core over the one-technology, one-architecture,
//! 64-frequency grid — the engine every production sweep uses.
//!
//! The equivalence of the serial and engine outputs is asserted by
//! `tests/engine_vs_serial.rs`; here only the clock runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optpower::sweep::{frequency_sweep, log_frequency_axis};
use optpower_explore::{available_workers, explore, ExploreConfig, Grid};
use optpower_units::Hertz;

const F_LO: Hertz = Hertz::new(1e6);
const F_HI: Hertz = Hertz::new(250e6);

fn bench_grid_sweeps(c: &mut Criterion) {
    // 13 architectures x 3 flavours x F frequencies.
    for &(points, label) in &[(5usize, "grid_195"), (12, "grid_468"), (25, "grid_975")] {
        let grid = Grid::paper_full(F_LO, F_HI, points).expect("paper grid builds");
        c.bench_function(&format!("sweep/serial_core/{label}"), |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(grid.len());
                for tech in grid.technologies() {
                    for arch in grid.architectures() {
                        out.extend(
                            frequency_sweep(*tech, arch, F_LO, F_HI, points).expect("valid range"),
                        );
                    }
                }
                black_box(out)
            })
        });
        c.bench_function(&format!("sweep/engine_1worker/{label}"), |b| {
            b.iter(|| black_box(explore(&grid, &ExploreConfig::with_workers(1))))
        });
        c.bench_function(&format!("sweep/parallel/{label}"), |b| {
            b.iter(|| black_box(explore(&grid, &ExploreConfig::default())))
        });
    }
}

fn bench_frequency_sweep(c: &mut Criterion) {
    // One (tech, arch) pair swept across many frequencies — the other
    // axis the engine parallelises.
    let grid = Grid::paper_full(F_LO, F_HI, 2).expect("paper grid builds");
    let tech = grid.technologies()[1]; // LL
    let arch = &grid.architectures()[7]; // basic Wallace
    let points = 64;
    c.bench_function("sweep/frequency/serial_64pts", |b| {
        b.iter(|| black_box(frequency_sweep(tech, arch, F_LO, F_HI, points).expect("valid")))
    });
    let pair = Grid::builder()
        .technology(tech)
        .architecture(arch.clone())
        .frequencies(log_frequency_axis(F_LO, F_HI, points).expect("valid range"))
        .build()
        .expect("non-empty, positive axes");
    c.bench_function("sweep/frequency/parallel_64pts", |b| {
        b.iter(|| black_box(explore(&pair, &ExploreConfig::default())))
    });
}

fn report_parallelism(c: &mut Criterion) {
    // Not a timing loop: record the worker count the parallel numbers
    // were taken with, so regressions can be read in context.
    c.bench_function(
        &format!("sweep/meta/available_workers_{}", available_workers()),
        |b| b.iter(|| black_box(available_workers())),
    );
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(core::time::Duration::from_secs(2))
        .warm_up_time(core::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_grid_sweeps, bench_frequency_sweep, report_parallelism
}
criterion_main!(benches);
