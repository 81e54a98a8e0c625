//! Benches the ab-initio flow (generate -> simulate -> STA -> optimise)
//! on representative architectures, and prints the full Table 1'.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use optpower_mult::Architecture;
use optpower_netlist::Library;
use optpower_sim::{measure_activity, Engine};
use optpower_workload::{AbInitioSpec, JobSpec, Runtime};

fn bench_ab_initio(c: &mut Criterion) {
    let spec = JobSpec::AbInitio(AbInitioSpec {
        items: 100,
        ..AbInitioSpec::default()
    });
    let table = Runtime::default().run(&spec).expect("flow runs");
    println!("\n{}", table.render_text());

    c.bench_function("ab_initio/generate_rca16", |b| {
        b.iter(|| Architecture::Rca.generate(16).expect("generates"))
    });
    c.bench_function("ab_initio/generate_wallace16", |b| {
        b.iter(|| Architecture::Wallace.generate(16).expect("generates"))
    });
    let lib = Library::cmos13();
    let rca = Architecture::Rca.generate(16).expect("generates");
    c.bench_function("ab_initio/timed_activity_rca16_20items", |b| {
        b.iter_batched(
            || (),
            |()| {
                measure_activity(&rca.netlist, &lib, Engine::Timed, 20, 1, 2, 42).expect("measures")
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("ab_initio/zero_delay_activity_rca16_20items", |b| {
        b.iter(|| {
            measure_activity(&rca.netlist, &lib, Engine::ZeroDelay, 20, 1, 2, 42).expect("measures")
        })
    });
}

fn config() -> Criterion {
    // Short measurement windows: each payload is deterministic model
    // code, and the bench's main job is regenerating the artefacts.
    Criterion::default()
        .sample_size(10)
        .measurement_time(core::time::Duration::from_secs(3))
        .warm_up_time(core::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_ab_initio
}
criterion_main!(benches);
