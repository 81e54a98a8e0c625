//! Ablation studies for the design choices called out in DESIGN.md §5:
//! linearisation fit range, optimiser strategy, and the glitch model.

use optpower::calibrate::{build_model, from_breakdown};
use optpower::reference::{PAPER_FREQUENCY, TABLE1};
use optpower::{ArchParams, ModelError, OptimizerConfig, PowerModel};
use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_netlist::Library;
use optpower_sim::Engine;
use optpower_tech::{Flavor, Linearization, Technology};
use optpower_units::{Farads, SquareMicrons, Volts, Watts};

use crate::abinitio::{
    characterize_design_with, measured_arch_params, AbInitioError, ActivitySource,
    CharacterizeConfig,
};
use crate::render::{fnum, Table};

/// A/B result of fitting Eq. 7 over a given range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitRangeResult {
    /// Fit range lower end \[V\].
    pub lo: f64,
    /// Fit range upper end \[V\].
    pub hi: f64,
    /// Fitted slope `A`.
    pub a: f64,
    /// Fitted intercept `B`.
    pub b: f64,
    /// Worst-case fit residual.
    pub max_error: f64,
}

/// Sensitivity of `(A, B)` to the fitting range (the paper fixes
/// 0.3–1.0 V; this quantifies how much that choice matters).
///
/// # Errors
///
/// Propagates numeric errors from the fits (unreachable for valid α).
pub fn fit_range_sensitivity(alpha: f64) -> Result<Vec<FitRangeResult>, ModelError> {
    let ranges = [(0.2, 1.0), (0.3, 1.0), (0.3, 0.9), (0.4, 1.1), (0.25, 1.2)];
    ranges
        .iter()
        .map(|&(lo, hi)| {
            let fit = Linearization::fit(alpha, Volts::new(lo), Volts::new(hi))?;
            Ok(FitRangeResult {
                lo,
                hi,
                a: fit.a(),
                b: fit.b(),
                max_error: fit.max_error(),
            })
        })
        .collect()
}

/// Renders the fit-range ablation.
pub fn render_fit_ranges(alpha: f64, rows: &[FitRangeResult]) -> String {
    let mut t = Table::new(&["range [V]", "A", "B", "max err"]);
    for r in rows {
        t.row(&[
            format!("{:.2}-{:.2}", r.lo, r.hi),
            fnum(r.a, 4),
            fnum(r.b, 4),
            fnum(r.max_error, 5),
        ]);
    }
    format!("Ablation - Eq.7 fit range sensitivity (alpha = {alpha})\n{t}")
}

/// A/B result of one optimiser configuration against the golden
/// reference.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerAblationRow {
    /// Description of the strategy.
    pub strategy: String,
    /// Total power found \[µW\].
    pub ptot_uw: f64,
    /// Excess over the golden-section reference \[%\].
    pub excess_pct: f64,
}

/// Compares the paper-style 2-D grid sweep at several resolutions
/// against the golden-section reference on the calibrated RCA model.
///
/// The returned excesses quantify the rounding inherent in the paper's
/// "all reasonable Vdd/Vth couples" procedure.
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or solving.
pub fn optimizer_ablation() -> Result<Vec<OptimizerAblationRow>, ModelError> {
    let model = calibrated_rca()?;
    let reference = model.optimize()?.ptot().value();
    let mut rows = vec![OptimizerAblationRow {
        strategy: "golden-section (reference)".to_string(),
        ptot_uw: reference * 1e6,
        excess_pct: 0.0,
    }];
    for n in [11usize, 31, 101, 301] {
        let grid = model.optimize_grid2d(n, n, OptimizerConfig::default())?;
        let p = grid.ptot().value();
        rows.push(OptimizerAblationRow {
            strategy: format!("2-D grid {n}x{n}"),
            ptot_uw: p * 1e6,
            excess_pct: (p - reference) / reference * 100.0,
        });
    }
    Ok(rows)
}

/// Renders the optimiser ablation.
pub fn render_optimizer(rows: &[OptimizerAblationRow]) -> String {
    let mut t = Table::new(&["strategy", "Ptot [uW]", "excess %"]);
    for r in rows {
        t.row(&[
            r.strategy.clone(),
            fnum(r.ptot_uw, 3),
            fnum(r.excess_pct, 3),
        ]);
    }
    format!("Ablation - optimiser strategy (calibrated RCA)\n{t}")
}

/// A/B result of the glitch model on one architecture's optimal power.
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchAblationRow {
    /// Architecture name.
    pub name: String,
    /// Activity with glitches (timed engine).
    pub activity_timed: f64,
    /// Activity without glitches (zero-delay engine).
    pub activity_zero_delay: f64,
    /// Optimal Ptot using the glitchy activity, in µW.
    pub ptot_timed_uw: f64,
    /// Optimal Ptot using the glitch-free activity, in µW.
    pub ptot_zero_delay_uw: f64,
}

/// Quantifies how much of each pipelined RCA's optimal power is due to
/// glitches: the same model solved with timed vs zero-delay activity.
///
/// This isolates the paper's diagonal-pipeline penalty: with glitches
/// removed, the diagonal variant's shorter LD would win; with them, the
/// horizontal variant does.
///
/// Each design is generated at the paper's 16-bit width and runs the
/// shared ab-initio characterization ([`characterize_design_with`])
/// serially on one worker, with one timed lane and a scalar zero-delay
/// baseline; the glitch-free column re-optimises the same measurement
/// on its zero-delay activity.
///
/// # Errors
///
/// Propagates [`AbInitioError`] from characterization, model building
/// or solving.
pub fn glitch_ablation(items: u64, seed: u64) -> Result<Vec<GlitchAblationRow>, AbInitioError> {
    let archs = [
        Architecture::RcaHorPipe2,
        Architecture::RcaDiagPipe2,
        Architecture::RcaHorPipe4,
        Architecture::RcaDiagPipe4,
    ];
    let config = CharacterizeConfig {
        lanes: 1,
        baseline: Engine::ZeroDelay,
        workers: Workers::Fixed(1),
        ..CharacterizeConfig::new(items, seed)
    };
    let lib = Library::cmos13();
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let rows = archs
        .iter()
        .map(|&arch| {
            let design = arch
                .generate(config.width)
                .expect("the pipelined RCAs generate at 16 bits");
            characterize_design_with(&design, &lib, tech, PAPER_FREQUENCY, &config)
                .map(|(row, _)| row)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let glitch_free = measured_arch_params(&rows, ActivitySource::MeasuredZeroDelay)?;
    rows.iter()
        .zip(glitch_free)
        .map(|(row, params)| {
            let model = PowerModel::from_technology(tech, params, PAPER_FREQUENCY)?;
            Ok(GlitchAblationRow {
                name: row.arch.paper_name().to_string(),
                activity_timed: row.activity,
                activity_zero_delay: row.activity_zero_delay,
                ptot_timed_uw: row.ptot_uw,
                ptot_zero_delay_uw: model.optimize()?.ptot().value() * 1e6,
            })
        })
        .collect()
}

/// Renders the glitch ablation.
pub fn render_glitch(rows: &[GlitchAblationRow]) -> String {
    let mut t = Table::new(&[
        "arch",
        "a(timed)",
        "a(0-delay)",
        "Ptot glitchy",
        "Ptot glitch-free",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            fnum(r.activity_timed, 4),
            fnum(r.activity_zero_delay, 4),
            fnum(r.ptot_timed_uw, 2),
            fnum(r.ptot_zero_delay_uw, 2),
        ]);
    }
    format!("Ablation - glitch contribution to optimal power\n{t}")
}

fn calibrated_rca() -> Result<PowerModel, ModelError> {
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let rca = &TABLE1[0];
    let cal = from_breakdown(
        &tech,
        Volts::new(rca.vdd),
        Volts::new(rca.vth),
        Watts::new(rca.pdyn_uw * 1e-6),
        Watts::new(rca.pstat_uw * 1e-6),
        f64::from(rca.cells),
        rca.activity,
        PAPER_FREQUENCY,
    )?;
    let arch = ArchParams::builder(rca.name)
        .cells(rca.cells)
        .activity(rca.activity)
        .logical_depth(rca.ld_eff)
        .cap_per_cell(Farads::new(1e-15))
        .area(SquareMicrons::new(rca.area_um2))
        .build()?;
    build_model(tech, arch, PAPER_FREQUENCY, cal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_range_paper_choice_reproduces_published_constants() {
        let rows = fit_range_sensitivity(1.86).unwrap();
        let paper = rows
            .iter()
            .find(|r| r.lo == 0.3 && r.hi == 1.0)
            .expect("paper range present");
        assert!((paper.a - 0.671).abs() < 0.005);
        assert!((paper.b - 0.347).abs() < 0.005);
    }

    #[test]
    fn fit_range_shifts_coefficients() {
        let rows = fit_range_sensitivity(1.86).unwrap();
        let a_values: Vec<f64> = rows.iter().map(|r| r.a).collect();
        let spread = a_values.iter().cloned().fold(f64::MIN, f64::max)
            - a_values.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.01, "fit range must matter: spread {spread}");
    }

    #[test]
    fn grid_error_shrinks_with_resolution() {
        let rows = optimizer_ablation().unwrap();
        assert_eq!(rows[0].excess_pct, 0.0);
        let coarse = rows[1].excess_pct;
        let fine = rows.last().unwrap().excess_pct;
        assert!(fine <= coarse, "fine {fine} vs coarse {coarse}");
        assert!(fine >= -1e-9, "grid can never beat the continuum");
        // At 301x301 the grid is within a fraction of a percent.
        assert!(fine < 0.5, "fine {fine}");
    }

    #[test]
    fn glitches_raise_optimal_power() {
        let rows = glitch_ablation(50, 3).unwrap();
        for r in &rows {
            assert!(r.activity_timed >= r.activity_zero_delay, "{}", r.name);
            assert!(r.ptot_timed_uw >= r.ptot_zero_delay_uw, "{}", r.name);
        }
        // Diagonal pays a larger glitch premium than horizontal.
        let prem = |name: &str| {
            let r = rows.iter().find(|r| r.name == name).expect("present");
            r.ptot_timed_uw / r.ptot_zero_delay_uw
        };
        assert!(prem("RCA diagpipe2") > prem("RCA hor.pipe2"));
    }

    #[test]
    fn renders() {
        let s = render_fit_ranges(1.86, &fit_range_sensitivity(1.86).unwrap());
        assert!(s.contains("0.30-1.00"));
        let s = render_optimizer(&optimizer_ablation().unwrap());
        assert!(s.contains("golden-section"));
    }
}
