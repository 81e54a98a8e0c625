//! Activity-measurement throughput on a Wallace-tree netlist — the
//! hot loops of the ab-initio characterization.
//!
//! The speedup pairs use the `serial_core`/`parallel` id convention so
//! `scripts/parse_bench.py` derives the ratios the CI bench job
//! tracks:
//!
//! * `wallace16_640v` — glitch-free path: scalar zero-delay engine vs
//!   the 64-lane bit-parallel engine at the same total stimulus volume
//!   (640 vectors; acceptance ≥ 10×).
//! * `timed_wallace16_640v` — glitch path: the frozen scalar timed
//!   reference (binary heap, per-event allocations, one stream of 640
//!   vectors) vs the pooled event-wheel engine (8 lane-seeded streams
//!   × 80 vectors across the worker pool) at the same total stimulus
//!   volume (acceptance ≥ 5×; single-core machines see the pure
//!   engine ratio, every extra worker multiplies it).
//! * `sta_vs_timed_wallace16` — static path: the dynamic glitch
//!   measurement (wheel engine, 640 vectors) vs one full static pass
//!   (STA windows + glitch bound); acceptance ≥ 100×.
//! * `timed_warmstart_wallace16` — the timed leg at the `cold_suite`
//!   glitch-sweep shape (8 lanes × 5 counted items, warm-up 4, one
//!   worker): per-lane `TimedSim::new` stepped from cycle 0 through
//!   warm-up and window vs `measure_timed_activity_pooled`, which
//!   compiles the netlist once, warms the lanes up on one zero-delay
//!   plane and simulates only the counted items on the wheel; the
//!   transition counts are asserted equal first. Acceptance ≥ 1.5×.
//!
//! * `timed_engine_wallace16_64v` — the two timed engines on identical
//!   single-stream workloads with no pooling, sampled in one
//!   interleaved window (`bench_pair`). The scalar row steps all 66
//!   items (2 warm-up, 64 counted) on the heap engine; the wheel row is
//!   `Engine::Timed`, which runs the 2 warm-up items on a zero-delay
//!   plane and only the 64 counted items on the wheel. Their ratio is
//!   therefore the integer-tick bucket wheel + allocation-free
//!   propagation *plus* the warm start, before any threads enter the
//!   picture; the gate reads its `ratio_median` (see
//!   `scripts/parse_bench.py`).
//!
//! Equivalence of all engines' counts is asserted by
//! `tests/sim_differential.rs` and `tests/timed_differential.rs`; here
//! only the clock runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optpower_explore::{measure_timed_activity_pooled, TimedPoolConfig, Workers};
use optpower_mult::Architecture;
use optpower_netlist::{Library, Logic, Netlist};
use optpower_sim::{
    bus_inputs, lane_seed, measure_activity, Engine, ScalarTimedSim, StimulusGen, TimedSim, LANES,
};
use optpower_sta::{GlitchProfile, TimingAnalysis};

fn bench_activity_measurement(c: &mut Criterion) {
    let design = Architecture::Wallace.generate(16).expect("wallace builds");
    let lib = Library::cmos13();
    let total_vectors = 640u64;
    c.bench_function("sim/serial_core/wallace16_640v", |b| {
        b.iter(|| {
            black_box(
                measure_activity(
                    &design.netlist,
                    &lib,
                    Engine::ZeroDelay,
                    total_vectors,
                    1,
                    2,
                    42,
                )
                .expect("measures"),
            )
        })
    });
    c.bench_function("sim/parallel/wallace16_640v", |b| {
        b.iter(|| {
            black_box(
                measure_activity(
                    &design.netlist,
                    &lib,
                    Engine::BitParallel,
                    total_vectors / LANES as u64,
                    1,
                    2,
                    42,
                )
                .expect("measures"),
            )
        })
    });
    // Wide-plane acceptance pairs: the 64-lane engine vs the 256- and
    // 512-lane planes at equal total stimulus volume (10240 vectors).
    // The ratio is pure plane-width amortisation — same zero-delay
    // semantics, 4-8x fewer topological passes — and the CI guard in
    // scripts/parse_bench.py requires speedup_min >= 2.0 on both rows.
    // The volume is high enough that the fixed per-measurement costs
    // (simulator setup, the 2 warm-up items) stay a small fraction of
    // the 512-lane run too (20 counted items at W=8).
    let plane_vectors = 10_240u64;
    for (label, wide_engine, wide_lanes) in [
        ("bitparallel_256_wallace16", Engine::BitParallel256, 256u64),
        ("bitparallel_512_wallace16", Engine::BitParallel512, 512u64),
    ] {
        c.bench_function(&format!("sim/serial_core/{label}"), |b| {
            b.iter(|| {
                black_box(
                    measure_activity(
                        &design.netlist,
                        &lib,
                        Engine::BitParallel,
                        plane_vectors / LANES as u64,
                        1,
                        2,
                        42,
                    )
                    .expect("measures"),
                )
            })
        });
        c.bench_function(&format!("sim/parallel/{label}"), |b| {
            b.iter(|| {
                black_box(
                    measure_activity(
                        &design.netlist,
                        &lib,
                        wide_engine,
                        plane_vectors / wide_lanes,
                        1,
                        2,
                        42,
                    )
                    .expect("measures"),
                )
            })
        });
    }
    // Engine-only acceptance pair: the frozen heap reference vs the
    // event wheel on identical single-stream workloads, sampled in one
    // interleaved window and gated on the median per-round ratio.
    c.bench_pair(
        "sim/serial_core/timed_engine_wallace16_64v",
        || ScalarTimedSim::measure(&design.netlist, &lib, 64, 1, 2, 42).expect("measures"),
        "sim/parallel/timed_engine_wallace16_64v",
        || measure_activity(&design.netlist, &lib, Engine::Timed, 64, 1, 2, 42).expect("measures"),
    );
    // Acceptance pair: the full glitch-path rebuild (wheel engine +
    // worker pool) vs the current scalar path at equal stimulus
    // volume (640 vectors, matching the zero-delay pair).
    let timed_vectors = 640u64;
    c.bench_function("sim/serial_core/timed_wallace16_640v", |b| {
        b.iter(|| {
            black_box(
                ScalarTimedSim::measure(&design.netlist, &lib, timed_vectors, 1, 2, 42)
                    .expect("measures"),
            )
        })
    });
    let pooled_config = TimedPoolConfig {
        lanes: 8,
        items_per_lane: timed_vectors / 8,
        cycles_per_item: 1,
        warmup: 2,
        seed: 42,
        workers: Workers::Auto,
    };
    c.bench_function("sim/parallel/timed_wallace16_640v", |b| {
        b.iter(|| {
            black_box(
                measure_timed_activity_pooled(&design.netlist, &lib, &pooled_config)
                    .expect("measures"),
            )
        })
    });
    // Static-vs-dynamic cost: the dynamic glitch measurement (wheel
    // engine, one stream at the acceptance-pair volume of 640
    // vectors) vs one full static pass (integer-tick STA windows +
    // glitch bound) on the same netlist. The static pass is the
    // preflight the Runtime runs before every characterization; the
    // `sta_vs_timed_wallace16` speedup row documents that it is
    // effectively free (>= 100x cheaper than the simulation it
    // sanity-checks).
    c.bench_function("sim/serial_core/sta_vs_timed_wallace16", |b| {
        b.iter(|| {
            black_box(
                measure_activity(
                    &design.netlist,
                    &lib,
                    Engine::Timed,
                    timed_vectors,
                    1,
                    2,
                    42,
                )
                .expect("measures"),
            )
        })
    });
    c.bench_function("sim/parallel/sta_vs_timed_wallace16", |b| {
        b.iter(|| {
            let sta = TimingAnalysis::analyze(&design.netlist, &lib);
            black_box(GlitchProfile::compute(&design.netlist, &sta))
        })
    });
    // Warm-start acceptance pair at the cold_suite glitch-sweep shape.
    let warm_config = TimedPoolConfig {
        lanes: 8,
        items_per_lane: 5,
        cycles_per_item: 1,
        warmup: 4,
        seed: 42,
        workers: Workers::Fixed(1),
    };
    let pooled = measure_timed_activity_pooled(&design.netlist, &lib, &warm_config)
        .expect("measures")
        .transitions;
    assert_eq!(
        cold_started_lanes(&design.netlist, &lib, &warm_config),
        pooled,
        "warm start must count exactly the cold-started transitions"
    );
    c.bench_function("sim/serial_core/timed_warmstart_wallace16", |b| {
        b.iter(|| black_box(cold_started_lanes(&design.netlist, &lib, &warm_config)))
    });
    c.bench_function("sim/parallel/timed_warmstart_wallace16", |b| {
        b.iter(|| {
            black_box(
                measure_timed_activity_pooled(&design.netlist, &lib, &warm_config)
                    .expect("measures"),
            )
        })
    });
    // Build-cost guard for the dead-cone prune pass: the raw
    // (unpruned) Wallace generator vs the production pruned path.
    // The prune runs *before* the single fanout/topo finalize, so the
    // pruned build must stay within 5% of the raw one — read the
    // `prune_build_wallace16` row's `speedup_min` (raw/pruned build
    // time on the per-run minima) and require >= 0.95. The min is the
    // statistic here because the 5% margin is far below the
    // run-to-run mean swing of a 1-core shared container, and the
    // in-place mask/compact cost this guards is a deterministic
    // per-cell walk, not a contention effect.
    c.bench_function("sim/serial_core/prune_build_wallace16", |b| {
        b.iter(|| {
            black_box(
                Architecture::Wallace
                    .generate_raw(16)
                    .expect("wallace builds"),
            )
        })
    });
    c.bench_function("sim/parallel/prune_build_wallace16", |b| {
        b.iter(|| black_box(Architecture::Wallace.generate(16).expect("wallace builds")))
    });
    // Netlist construction at scale: every (architecture, width) pair
    // of the default `lint` job (321 netlists), built one after the
    // other on this thread.
    let lint_grid: Vec<(Architecture, usize)> = Architecture::ALL
        .into_iter()
        .flat_map(|arch| (2..=32).map(move |w| (arch, w)))
        .filter(|&(arch, w)| arch.supports_width(w))
        .collect();
    assert_eq!(lint_grid.len(), 321);
    c.bench_function("sim/build/lint_grid", |b| {
        b.iter(|| {
            for &(arch, w) in &lint_grid {
                black_box(arch.generate(w).expect("generator builds"));
            }
        })
    });
}

/// The pooled timed leg without the warm start: every lane compiles its
/// own `TimedSim` and steps the reset-free protocol from cycle 0
/// through warm-up and counted window on the wheel, one lane after the
/// other. Returns the summed window transitions.
fn cold_started_lanes(netlist: &Netlist, lib: &Library, config: &TimedPoolConfig) -> u64 {
    let (a, b) = (bus_inputs(netlist, "a"), bus_inputs(netlist, "b"));
    let drive = |sim: &mut TimedSim<'_>, bus: &[_], value: u64| {
        for (i, &pin) in bus.iter().enumerate() {
            sim.set_input(pin, Logic::from_bool((value >> i) & 1 == 1));
        }
    };
    (0..config.lanes)
        .map(|lane| {
            let mut sim = TimedSim::new(netlist, lib).expect("cmos13 delays are valid");
            let seed = lane_seed(config.seed, lane);
            let mut stim = StimulusGen::new(seed, a.len() as u32, b.len() as u32);
            let mut window_start = 0;
            for item in 0..config.warmup + config.items_per_lane {
                if item == config.warmup {
                    window_start = sim.logic_transitions();
                }
                let (x, y) = stim.next_item();
                drive(&mut sim, &a, x);
                drive(&mut sim, &b, y);
                for _ in 0..config.cycles_per_item {
                    sim.step().expect("acyclic netlists settle");
                }
            }
            sim.logic_transitions() - window_start
        })
        .sum()
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
    targets = bench_activity_measurement
}
criterion_main!(benches);
