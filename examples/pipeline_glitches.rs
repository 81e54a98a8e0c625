//! The horizontal-vs-diagonal pipelining story (the paper's Figures 3/4
//! and the Section 4 glitch observation), reproduced mechanically:
//! build both pipeline styles of the 16-bit RCA, time them, simulate
//! them with an inertial-delay event engine, and show the trade-off —
//! diagonal cuts are deeper (shorter LD) but glitchier (higher a).
//! The four designs go through the same characterization as the
//! ab-initio table, one per core; the worker count never changes the
//! numbers.
//!
//! Run with: `cargo run --release --example pipeline_glitches`

use optpower_explore::Workers;
use optpower_report::{figure34, render_figure34};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fig = figure34(16, 150, Workers::Auto)?;
    println!("{}", render_figure34(&fig));

    let get = |style: &str, stages: u32| {
        fig.summaries
            .iter()
            .find(|s| s.style == style && s.stages == stages)
            .expect("summary present")
    };
    for stages in [2u32, 4] {
        let h = get("horizontal", stages);
        let d = get("diagonal", stages);
        println!(
            "{stages}-stage: diagonal is {:.0}% shorter in LD but pays {:+.0}% activity \
             (glitch factor {:.2} vs {:.2})",
            (1.0 - d.logical_depth / h.logical_depth) * 100.0,
            (d.activity_timed / h.activity_timed - 1.0) * 100.0,
            d.glitch_factor(),
            h.glitch_factor(),
        );
    }
    println!(
        "\nThis is the paper's conclusion: \"a diagonal pipeline, presenting a\n\
         shorter logical depth than the horizontal one, was penalized due to\n\
         the increased number of glitches (reflected by the increase in\n\
         activity)\" — here measured from an actual netlist, not asserted."
    );
    Ok(())
}
