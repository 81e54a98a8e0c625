//! Runs and benches the ablation studies of DESIGN.md §5.

use criterion::{criterion_group, criterion_main, Criterion};
use optpower_explore::Workers;
use optpower_report::ablation;

fn bench_ablations(c: &mut Criterion) {
    let fit = ablation::fit_range_sensitivity(1.86).expect("fits");
    println!("\n{}", ablation::render_fit_ranges(1.86, &fit));
    let opt = ablation::optimizer_ablation().expect("solves");
    println!("{}", ablation::render_optimizer(&opt));
    let glitch = ablation::glitch_ablation(100, 42, Workers::Auto).expect("measures");
    println!("{}", ablation::render_glitch(&glitch));

    c.bench_function("ablation/fit_range_sensitivity", |b| {
        b.iter(|| ablation::fit_range_sensitivity(1.86).expect("fits"))
    });
    c.bench_function("ablation/optimizer_grid_vs_golden", |b| {
        b.iter(|| ablation::optimizer_ablation().expect("solves"))
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
    targets = bench_ablations
}
criterion_main!(benches);
