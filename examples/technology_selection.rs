//! Technology selection (the paper's Section 5), driven by the
//! parallel design-space exploration engine: evaluate the Wallace
//! family on all three STM CMOS09 flavours across a frequency range in
//! one `Grid`, then read the flavour table, the per-frequency winners
//! and the power/throughput Pareto front straight off the `ResultSet`.
//!
//! Run with: `cargo run --example technology_selection`

use optpower::reference::table1_arch_params;
use optpower_explore::{explore, ExploreConfig, Grid};
use optpower_tech::{Flavor, Technology};
use optpower_units::Hertz;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flavors = [
        Flavor::UltraLowLeakage,
        Flavor::LowLeakage,
        Flavor::HighSpeed,
    ];
    // The Wallace family rows of Table 1 (indices 7..10), with the
    // per-cell capacitance back-computed from the published Pdyn; the
    // structural parameters are flavour-independent.
    let wallace_family: Vec<_> = table1_arch_params()?.drain(7..10).collect();
    let f0 = Hertz::new(31.25e6);
    let sweep_mhz = [2.0, 8.0, 31.25, 125.0, 250.0, 500.0];

    // One grid covers the whole study: 3 flavours x 3 architectures x
    // (paper frequency + sweep frequencies).
    let grid = Grid::builder()
        .technologies(flavors.iter().map(|&fl| Technology::stm_cmos09(fl)))
        .architectures(wallace_family.iter().cloned())
        .frequency(f0)
        .frequencies(sweep_mhz.iter().map(|&mhz| Hertz::new(mhz * 1e6)))
        .build()?;
    let results = explore(&grid, &ExploreConfig::default());

    // Records are in grid order: look points up via Grid::index_of.
    let ptot_uw = |flavor_ix: usize, arch_ix: usize, freq_ix: usize| {
        results.records()[grid.index_of(flavor_ix, arch_ix, freq_ix)]
            .optimum()
            .map(|o| o.ptot().value() * 1e6)
    };

    println!("Wallace family optimal power per flavour (f = 31.25 MHz):\n");
    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "arch", "ULL [uW]", "LL [uW]", "HS [uW]"
    );
    for (a, arch) in grid.architectures().iter().enumerate() {
        let cell = |t: usize| match ptot_uw(t, a, 0) {
            Some(p) => format!("{p:>10.2}"),
            None => format!("{:>10}", "-"),
        };
        println!("{:<18} {} {} {}", arch.name(), cell(0), cell(1), cell(2));
    }

    println!("\nfrequency sweep, basic Wallace — which flavour wins where:\n");
    println!(
        "{:>10}  {:>10} {:>10} {:>10}  winner",
        "f [MHz]", "ULL", "LL", "HS"
    );
    for (fi, &mhz) in sweep_mhz.iter().enumerate() {
        let mut best = (f64::INFINITY, "-");
        let mut row = Vec::new();
        for (t, flavor) in flavors.iter().enumerate() {
            let p = ptot_uw(t, 0, fi + 1).unwrap_or(f64::NAN);
            if p < best.0 {
                best = (p, flavor.abbreviation());
            }
            row.push(p);
        }
        println!(
            "{:>10.2}  {:>10.2} {:>10.2} {:>10.2}  {}",
            mhz, row[0], row[1], row[2], best.1
        );
    }

    let summary = results.summary();
    println!(
        "\nexplored {} design points on {} worker(s): {} closed, {} boundary-pinned, {} failed",
        summary.points,
        optpower_explore::available_workers(),
        summary.closed,
        summary.boundary_pinned,
        summary.failed,
    );
    println!("\nPareto front over (throughput, optimal total power):");
    for r in results.pareto_front() {
        let opt = r.optimum().expect("front members closed timing");
        println!(
            "  {:>8.2} MHz  {:>9.2} uW  {} / {}",
            r.frequency.value() / 1e6,
            opt.ptot().value() * 1e6,
            r.tech,
            r.arch,
        );
    }
    println!(
        "\nSection 5's structure reproduces: ULL always loses at the paper's\n\
         operating point, parallelisation *hurts* on HS (its leakage taxes\n\
         the doubled cell count) while it helps on ULL/LL, and the frequency\n\
         sweep shows the flavour crossovers — slow/low-leakage wins at low f,\n\
         fast/leaky as timing tightens. With the datasheet Io (no per-design\n\
         leakage calibration) the LL/HS crossover lands almost exactly at\n\
         31.25 MHz; the calibrated reproduction (`optpower table3` /\n\
         `optpower table4`) recovers the paper's exact LL win."
    );
    Ok(())
}
