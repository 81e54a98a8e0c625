//! Regenerates Tables 3 and 4 (Wallace family on ULL and HS flavours)
//! and benches the total-power reverse-calibration path.

use criterion::{criterion_group, criterion_main, Criterion};
use optpower_workload::{JobSpec, Runtime};

fn bench_tables(c: &mut Criterion) {
    let t3 = optpower_report::table3().expect("table3 reproduces");
    let t4 = optpower_report::table4().expect("table4 reproduces");
    println!("\n{}", optpower_report::render_rows("Table 3 (ULL)", &t3));
    println!("{}", optpower_report::render_rows("Table 4 (HS)", &t4));
    let table2 = Runtime::default().run(&JobSpec::Table2);
    println!("{}", table2.expect("table2 renders").render_text());

    c.bench_function("table3/ull_wallace_family", |b| {
        b.iter(|| optpower_report::table3().expect("reproduces"))
    });
    c.bench_function("table4/hs_wallace_family", |b| {
        b.iter(|| optpower_report::table4().expect("reproduces"))
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
    targets = bench_tables
}
criterion_main!(benches);
