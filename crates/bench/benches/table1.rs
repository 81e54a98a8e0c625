//! Regenerates Table 1 (13 multipliers, LL flavour) and benches the
//! calibrated reproduction path. The rows are printed once so a bench
//! run doubles as the experiment run.

use criterion::{criterion_group, criterion_main, Criterion};
use optpower_explore::Workers;

fn bench_table1(c: &mut Criterion) {
    // Print the reproduction once (the bench's scientific payload).
    let rows = optpower_report::table1(None, Workers::Fixed(1)).expect("table1 reproduces");
    println!(
        "\n{}",
        optpower_report::render_rows("Table 1 reproduction (paper vs measured)", &rows)
    );
    for r in &rows {
        assert!(
            r.our_err_pct.abs() < 3.5,
            "{} err {}",
            r.name,
            r.our_err_pct
        );
    }

    c.bench_function("table1/full_reproduction_13_rows", |b| {
        b.iter(|| optpower_report::table1(None, Workers::Fixed(1)).expect("reproduces"))
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
    targets = bench_table1
}
criterion_main!(benches);
