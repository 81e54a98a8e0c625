//! Experiment harness: regenerates every table and figure of
//! Schuster et al. (DATE 2006) and the ab-initio / ablation studies.
//!
//! Each experiment is a pure function returning a data structure, plus
//! a `render_*` helper producing the console table. The `optpower`
//! command runs each one as a job kind (`optpower <kind>`):
//!
//! | paper artefact | function | command |
//! |---|---|---|
//! | Table 1 (13 multipliers, LL) | [`table1`] | `optpower table1-sweep` |
//! | Table 2 (flavour parameters) | [`table2`] | `optpower table2` |
//! | Table 3 (Wallace, ULL) | [`table3`] | `optpower table3` |
//! | Table 4 (Wallace, HS) | [`table4`] | `optpower table4` |
//! | Figure 1 (Ptot vs Vdd per activity) | [`figure1`] | `optpower figure1` |
//! | Figure 2 (Vdd^{1/α} linearisation) | [`figure2`] | `optpower figure2` |
//! | Figures 3/4 (pipeline structures) | [`figure34`] | `optpower figure34` |
//! | Table 1′ (ab-initio netlist flow) | [`characterize_architecture_with`] | `optpower ab-initio` |
//! | Ablations | [`ablation`] module | `optpower ablation` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abinitio;
pub mod ablation;
mod calibrated;
pub mod extended;
mod figures;
mod render;

pub use abinitio::{
    characterize_architecture_with, characterize_design_with, glitch_sweep_from_rows,
    measured_arch_params, render_ab_initio, render_glitch_factors, AbInitioError, AbInitioRow,
    ActivitySource, CharacterizeConfig, GlitchSweep, PlaneTiling, TIMED_LANES,
};
pub use calibrated::{
    render_rows, table1, table1_names, table1_parallel, table1_subset_parallel, table2, table3,
    table4, RowComparison,
};
pub use figures::{
    figure1, figure2, figure34, figure_pareto, pearson_correlation, render_figure1, render_figure2,
    render_figure34, render_pareto, Figure1, Figure1Curve, Figure2, Figure34, ParetoFigure,
    StageSummary,
};
pub use render::Table;
