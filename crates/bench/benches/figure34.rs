//! Regenerates the Figures 3/4 structural comparison (horizontal vs
//! diagonal pipelining) and benches netlist generation + STA.

use criterion::{criterion_group, criterion_main, Criterion};
use optpower_explore::Workers;
use optpower_mult::{rca_pipelined, PipelineStyle};
use optpower_netlist::Library;
use optpower_sta::TimingAnalysis;

fn bench_figure34(c: &mut Criterion) {
    let fig = optpower_report::figure34(16, 100, Workers::Auto).expect("figure34 reproduces");
    println!("\n{}", optpower_report::render_figure34(&fig));

    c.bench_function("figure34/generate_hpipe2_16bit", |b| {
        b.iter(|| rca_pipelined(16, 2, PipelineStyle::Horizontal).expect("generates"))
    });
    c.bench_function("figure34/generate_dpipe4_16bit", |b| {
        b.iter(|| rca_pipelined(16, 4, PipelineStyle::Diagonal).expect("generates"))
    });
    let nl = rca_pipelined(16, 4, PipelineStyle::Diagonal).expect("generates");
    let lib = Library::cmos13();
    c.bench_function("figure34/sta_dpipe4_16bit", |b| {
        b.iter(|| TimingAnalysis::analyze(&nl, &lib))
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
    targets = bench_figure34
}
criterion_main!(benches);
