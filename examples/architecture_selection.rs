//! Architecture selection (the paper's Section 4), end to end and
//! ab-initio: generate all thirteen 16-bit multiplier netlists, measure
//! their activity (with glitches) and logical depth with our own
//! simulator and STA, then rank them by optimal total power.
//!
//! Run with: `cargo run --release --example architecture_selection`

use optpower_report::render_ab_initio;
use optpower_workload::{AbInitioSpec, JobSpec, Payload, Runtime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating, simulating and optimising 13 architectures (LL flavour)...\n");
    let spec = JobSpec::AbInitio(AbInitioSpec {
        items: 150,
        ..AbInitioSpec::default()
    });
    let Payload::AbInitio(mut rows) = Runtime::default().run(&spec)?.payload else {
        unreachable!("an ab_initio job returns characterization rows");
    };
    println!("{}", render_ab_initio(&rows));

    rows.sort_by(|a, b| a.ptot_uw.total_cmp(&b.ptot_uw));
    println!("ranking by optimal total power:");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "  {:>2}. {:<18} {:>10.2} uW",
            i + 1,
            r.arch.paper_name(),
            r.ptot_uw
        );
    }

    let best = &rows[0];
    let worst = rows.last().expect("thirteen rows");
    println!(
        "\nThe paper's Section 4 conclusions, reproduced from scratch:\n\
         - best architecture: {} ({:.2} uW)\n\
         - worst: {} ({:.2} uW), {:.0}x more power — sequential designs\n\
           pay both a large activity (>1 per data period) and a huge\n\
           effective logical depth (paths repeated every internal cycle).",
        best.arch.paper_name(),
        best.ptot_uw,
        worst.arch.paper_name(),
        worst.ptot_uw,
        worst.ptot_uw / best.ptot_uw,
    );
    Ok(())
}
