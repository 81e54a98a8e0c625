//! The workload API overhead check: driving a sweep through the
//! declarative `JobSpec -> Runtime -> Artifact` path must cost the
//! same as calling the underlying flow directly — the envelope is
//! organisational, not computational.
//!
//! * `workload/direct/table1`   — `table1` straight;
//! * `workload/runtime/table1`  — the same sweep as a `JobSpec` run by
//!   the runtime (spec parse from JSON included, as a service
//!   front-end would do it);
//! * `workload/runtime/batch3`  — a three-member batch, measuring the
//!   per-job envelope cost;
//! * `workload/serial_core/...` / `workload/parallel/...` — the
//!   pooled Pareto sweep JobSpec at 1 worker vs all cores (tracked in
//!   `BENCH_sweep.json` like every serial/parallel pair);
//! * `workload/.../dist_overhead_wallace16` — the same single-shard
//!   Wallace16 characterization run locally vs through a loopback
//!   coordinator/worker cluster, gating the wire protocol's overhead
//!   (connect + frame codec + payload re-parse + merge) at <= 10%.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optpower_dist::{spawn, Cluster};
use optpower_explore::Workers;
use optpower_report::table1;
use optpower_workload::{AbInitioSpec, JobSpec, Runtime};

fn bench_envelope_overhead(c: &mut Criterion) {
    c.bench_function("workload/direct/table1", |b| {
        b.iter(|| black_box(table1(None, Workers::Auto).expect("table 1 solves")))
    });
    let spec_json = JobSpec::Table1Sweep { archs: None }.to_json();
    c.bench_function("workload/runtime/table1", |b| {
        b.iter(|| {
            let spec = JobSpec::from_json(black_box(&spec_json)).expect("wire form parses");
            let artifact = Runtime::default().run(&spec).expect("job runs");
            black_box(artifact.payload_json())
        })
    });
    let batch = JobSpec::Batch(vec![
        JobSpec::Table2,
        JobSpec::Figure2 { samples: 64 },
        JobSpec::Table3,
    ]);
    c.bench_function("workload/runtime/batch3", |b| {
        b.iter(|| black_box(Runtime::default().run(&batch).expect("batch runs")))
    });
}

fn bench_pooled_jobspec(c: &mut Criterion) {
    let spec = JobSpec::Pareto { freq_points: 12 };
    c.bench_function("workload/serial_core/pareto_12pts", |b| {
        b.iter(|| {
            black_box(
                Runtime::new(Workers::Fixed(1))
                    .run(&spec)
                    .expect("pareto runs"),
            )
        })
    });
    c.bench_function("workload/parallel/pareto_12pts", |b| {
        b.iter(|| black_box(Runtime::default().run(&spec).expect("pareto runs")))
    });
}

/// The distribution tax: one Wallace16 characterization shard, run
/// locally vs routed through a loopback coordinator/worker pair. A
/// single-arch spec shards to exactly one cell, so both rows do the
/// same serial compute and the gap is pure wire cost — TCP connect,
/// frame codec, payload JSON round-trip and the merge. The
/// `dist_overhead_wallace16` acceptance row (speedup_min >= 0.9 in
/// `parse_bench.py`) keeps that tax at or below ~10%. The two rows
/// are sampled in one interleaved window (`bench_pair`): timed one
/// after the other, host drift between the windows moved the ratio by
/// more than the 10% margin.
fn bench_dist_overhead(c: &mut Criterion) {
    let spec = JobSpec::AbInitio(AbInitioSpec {
        archs: Some(vec!["Wallace".to_string()]),
        items: 384,
        ..AbInitioSpec::default()
    });
    let local = Runtime::new(Workers::Fixed(1));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            spawn("127.0.0.1:0", Runtime::new(Workers::Fixed(1))).expect("bind loopback worker")
        })
        .collect();
    let cluster = Cluster::new(workers.iter().map(|w| w.addr().to_string()).collect())
        .with_workers(Workers::Fixed(1));
    c.bench_pair(
        "workload/serial_core/dist_overhead_wallace16",
        || local.run(&spec).expect("local run"),
        "workload/parallel/dist_overhead_wallace16",
        || cluster.run(&spec).expect("cluster run"),
    );
    drop(workers);
}

criterion_group!(
    benches,
    bench_envelope_overhead,
    bench_pooled_jobspec,
    bench_dist_overhead
);
criterion_main!(benches);
