//! The tabulated optimiser against the algorithm it replaced.
//!
//! [`PowerModel::optimize_with`] reads `Vdd^{1/α}` for its coarse pass
//! from a [`optpower::CoarseGrid`] instead of evaluating it per sample.
//! The reference below is the pass as it was written before: the
//! numeric crate's `grid_min` over `power_on_curve`, the ±2-step
//! bracket around the coarse minimum, then golden-section refinement.
//! Every comparison is `==` on the whole `Result`: same `f64`s on
//! success, the same error otherwise.

use optpower::calibrate::{build_model, from_breakdown};
use optpower::reference::{PAPER_FREQUENCY, TABLE1};
use optpower::{ArchParams, ModelError, OperatingPoint, OptimizerConfig, PowerModel};
use optpower_numeric::{golden_section_min, grid_min};
use optpower_tech::{Flavor, Technology};
use optpower_units::{Farads, Hertz, Volts, Watts};
use proptest::prelude::*;

/// The coarse pass plus refinement exactly as `optimize_with` ran it
/// when every coarse sample evaluated Eq. 5 through `vth_at`.
fn reference_optimize(
    model: &PowerModel,
    config: OptimizerConfig,
) -> Result<OperatingPoint, ModelError> {
    let objective = |v: f64| model.power_on_curve(Volts::new(v)).total().value();
    let coarse = grid_min(
        objective,
        config.vdd_min.value(),
        config.vdd_max.value(),
        config.coarse_samples.max(3),
    )?;
    let step =
        (config.vdd_max - config.vdd_min).value() / (config.coarse_samples.max(3) - 1) as f64;
    let lo = (coarse.x - 2.0 * step).max(config.vdd_min.value());
    let hi = (coarse.x + 2.0 * step).min(config.vdd_max.value());
    let refined = golden_section_min(objective, lo, hi, config.tolerance)?;
    Ok(model.point_on_curve(Volts::new(refined.x)))
}

/// The thirteen Table 1 rows, calibrated from their published power
/// breakdown on the LL flavour, as the Table 1 report builds them.
fn table1_models() -> Vec<PowerModel> {
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    TABLE1
        .iter()
        .map(|row| {
            let cal = from_breakdown(
                &tech,
                Volts::new(row.vdd),
                Volts::new(row.vth),
                Watts::new(row.pdyn_uw * 1e-6),
                Watts::new(row.pstat_uw * 1e-6),
                f64::from(row.cells),
                row.activity,
                PAPER_FREQUENCY,
            )
            .unwrap();
            let arch = ArchParams::builder(row.name)
                .cells(row.cells)
                .activity(row.activity)
                .logical_depth(row.ld_eff)
                .cap_per_cell(Farads::new(1e-15))
                .build()
                .unwrap();
            build_model(tech, arch, PAPER_FREQUENCY, cal).unwrap()
        })
        .collect()
}

/// The default window, sample counts at and below the `max(3)` floor
/// and well above the default, a shifted window, and degenerate
/// windows the coarse pass must refuse with the same error.
fn windows() -> Vec<OptimizerConfig> {
    let base = OptimizerConfig::default();
    let mut out: Vec<OptimizerConfig> = [0, 1, 2, 3, 17, 512, 1024]
        .into_iter()
        .map(|coarse_samples| OptimizerConfig {
            coarse_samples,
            ..base
        })
        .collect();
    out.push(OptimizerConfig {
        vdd_min: Volts::new(0.3),
        vdd_max: Volts::new(0.9),
        tolerance: 1e-9,
        coarse_samples: 64,
    });
    for (lo, hi) in [(0.8, 0.8), (1.2, 0.4)] {
        out.push(OptimizerConfig {
            vdd_min: Volts::new(lo),
            vdd_max: Volts::new(hi),
            ..base
        });
    }
    out
}

#[test]
fn table1_models_optimise_bit_identically_in_every_window() {
    for model in table1_models() {
        for config in windows() {
            assert_eq!(
                model.optimize_with(config),
                reference_optimize(&model, config),
                "{} with {config:?}",
                model.arch().name()
            );
        }
    }
}

#[test]
fn a_degenerate_window_gives_the_reference_error() {
    let model = &table1_models()[0];
    let config = OptimizerConfig {
        vdd_min: Volts::new(1.0),
        vdd_max: Volts::new(0.5),
        ..OptimizerConfig::default()
    };
    let err = model.optimize_with(config).unwrap_err();
    assert_eq!(Err(err.clone()), reference_optimize(model, config));
    assert!(
        matches!(
            err,
            ModelError::Numeric(optpower_numeric::NumericError::InvalidBracket { a, b, .. })
                if a == 1.0 && b == 0.5
        ),
        "{err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any first-principles model, on any flavour and frequency,
    /// optimises to the reference's exact result in the default window
    /// and in a coarse one.
    #[test]
    fn any_model_optimises_bit_identically(
        cells in 50u32..20_000,
        activity in 0.01f64..2.0,
        ld in 2.0f64..250.0,
        cap_ff in 5.0f64..150.0,
        log_f in 5.0f64..9.0,
        flavor in 0usize..3,
        coarse_samples in 0usize..40,
    ) {
        let arch = ArchParams::builder("prop")
            .cells(cells)
            .activity(activity)
            .logical_depth(ld)
            .cap_per_cell(Farads::new(cap_ff * 1e-15))
            .build()
            .unwrap();
        let model = PowerModel::from_technology(
            Technology::stm_cmos09(Flavor::ALL[flavor]),
            arch,
            Hertz::new(10f64.powf(log_f)),
        )
        .unwrap();
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig { coarse_samples, ..OptimizerConfig::default() },
        ] {
            prop_assert_eq!(model.optimize_with(config), reference_optimize(&model, config));
        }
    }
}
