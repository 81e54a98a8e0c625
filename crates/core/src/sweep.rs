//! Parameter sweeps and technology-selection studies built on the
//! optimal-power model — the quantitative form of Section 5.
//!
//! The parallel exploration engine (`optpower-explore`) builds its
//! frequency axes with [`log_frequency_axis`] and classifies each point
//! with [`SweepOutcome::classify`], and its tests hold every point
//! bit-identical to [`sample_at`]: both paths evaluate exactly the same
//! functions at exactly the same points.

use optpower_numeric::{bisect, linspace};
use optpower_tech::Technology;
use optpower_units::{Hertz, Volts};

use crate::{ArchParams, ModelError, OperatingPoint, OptimizerConfig, PowerModel};

/// Width of the guard band inside the `[vdd_min, vdd_max]` search
/// window within which an optimum is treated as pinned to the search
/// boundary rather than interior.
///
/// With the default [`OptimizerConfig`] (`vdd_max` = 1.5 V) this puts
/// the upper boundary at 1.45 V — the historical cut-off the serial
/// sweep used before outcomes were made explicit. The lower wall is
/// guarded too: far past the closable frequency range the constraint
/// curve flips (`dVth/dVdd < 0` everywhere) and the optimiser walks
/// into `vdd_min` instead, producing an astronomically leaky
/// pseudo-optimum that must not be mistaken for timing closure.
pub const BOUNDARY_MARGIN: Volts = Volts::new(0.05);

/// What happened when optimising one `(tech, arch, f)` point.
///
/// The distinction between [`SweepOutcome::BoundaryPinned`] and
/// [`SweepOutcome::Failed`] matters to design-space consumers:
/// boundary-pinned means *timing cannot close in the search window*
/// (the optimiser ran fine but walked into the `vdd_max` wall chasing
/// an ever-lower leakage), while failed means the optimiser itself
/// errored out.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepOutcome {
    /// The optimiser found an interior optimum: timing closes.
    Closed(OperatingPoint),
    /// The optimiser pinned at the search boundary: timing effectively
    /// cannot close at this frequency. The point is reported for
    /// diagnostics but is not a usable optimum.
    BoundaryPinned(OperatingPoint),
    /// Model building or optimisation failed outright.
    Failed(ModelError),
}

impl SweepOutcome {
    /// Classifies an optimiser result against the search window of
    /// `config`: an optimum within [`BOUNDARY_MARGIN`] of `vdd_max` is
    /// [`SweepOutcome::BoundaryPinned`].
    pub fn classify(result: Result<OperatingPoint, ModelError>, config: &OptimizerConfig) -> Self {
        match result {
            Ok(opt)
                if opt.vdd() < config.vdd_max - BOUNDARY_MARGIN
                    && opt.vdd() > config.vdd_min + BOUNDARY_MARGIN =>
            {
                Self::Closed(opt)
            }
            Ok(opt) => Self::BoundaryPinned(opt),
            Err(e) => Self::Failed(e),
        }
    }

    /// The interior optimum, if timing closed.
    pub fn closed(&self) -> Option<OperatingPoint> {
        match self {
            Self::Closed(opt) => Some(*opt),
            _ => None,
        }
    }

    /// True when the optimum pinned at the search boundary.
    pub fn is_boundary_pinned(&self) -> bool {
        matches!(self, Self::BoundaryPinned(_))
    }

    /// The operating point the optimiser produced, interior or pinned.
    pub fn point(&self) -> Option<OperatingPoint> {
        match self {
            Self::Closed(opt) | Self::BoundaryPinned(opt) => Some(*opt),
            Self::Failed(_) => None,
        }
    }

    /// Machine-readable status tag (`closed`, `boundary_pinned`,
    /// `failed`) — the single definition shared by every CSV/JSON
    /// export and the workload artifact envelope, so wire formats
    /// cannot drift per consumer.
    pub fn status(&self) -> &'static str {
        match self {
            Self::Closed(_) => "closed",
            Self::BoundaryPinned(_) => "boundary_pinned",
            Self::Failed(_) => "failed",
        }
    }
}

/// One sample of a frequency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencySample {
    /// The swept frequency.
    pub frequency: Hertz,
    /// What the optimiser did at that frequency.
    pub outcome: SweepOutcome,
}

impl FrequencySample {
    /// The optimal working point at this frequency, if timing closes.
    ///
    /// Boundary-pinned and failed points both yield `None`; inspect
    /// [`FrequencySample::outcome`] to tell them apart.
    pub fn optimum(&self) -> Option<OperatingPoint> {
        self.outcome.closed()
    }
}

/// The logarithmic frequency axis a sweep evaluates: `points` samples
/// (at least 2) uniform in `log10 f` over `[f_lo, f_hi]`.
///
/// # Errors
///
/// [`ModelError::InvalidFrequency`] if the range is non-positive or
/// inverted.
pub fn log_frequency_axis(
    f_lo: Hertz,
    f_hi: Hertz,
    points: usize,
) -> Result<Vec<Hertz>, ModelError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
    if !(f_lo.value() > 0.0) || !(f_hi.value() > f_lo.value()) || !f_hi.value().is_finite() {
        return Err(ModelError::InvalidFrequency {
            hertz: if f_hi.value().is_finite() {
                f_lo.value()
            } else {
                f_hi.value()
            },
        });
    }
    let lo = f_lo.value().log10();
    let hi = f_hi.value().log10();
    Ok(linspace(lo, hi, points.max(2))
        .into_iter()
        .map(|exp| Hertz::new(10f64.powf(exp)))
        .collect())
}

/// Evaluates one `(tech, arch, f)` point with the default optimiser
/// window and classifies the outcome.
///
/// This is the unit of work of both the serial [`frequency_sweep`] and
/// the parallel engine in `optpower-explore`.
pub fn sample_at(tech: Technology, arch: &ArchParams, f: Hertz) -> FrequencySample {
    let result = PowerModel::from_technology(tech, arch.clone(), f).and_then(|m| m.optimize());
    FrequencySample {
        frequency: f,
        outcome: SweepOutcome::classify(result, &OptimizerConfig::default()),
    }
}

/// Sweeps the optimal working point of `(tech, arch)` across a
/// logarithmic frequency range.
///
/// Frequencies where the optimiser pins at the search boundary (timing
/// effectively cannot close) are reported as
/// [`SweepOutcome::BoundaryPinned`]; outright failures as
/// [`SweepOutcome::Failed`].
///
/// # Errors
///
/// [`ModelError::InvalidFrequency`] if the range is non-positive or
/// inverted.
pub fn frequency_sweep(
    tech: Technology,
    arch: &ArchParams,
    f_lo: Hertz,
    f_hi: Hertz,
    points: usize,
) -> Result<Vec<FrequencySample>, ModelError> {
    Ok(log_frequency_axis(f_lo, f_hi, points)?
        .into_iter()
        .map(|f| sample_at(tech, arch, f))
        .collect())
}

/// Optimal total power of `(tech, arch)` at `f`, in watts; `None` when
/// timing cannot close in the search window.
pub fn optimal_ptot(tech: Technology, arch: &ArchParams, f: Hertz) -> Option<f64> {
    sample_at(tech, arch, f)
        .optimum()
        .map(|opt| opt.ptot().value())
}

/// Finds the frequency at which two technologies' optimal powers cross
/// for the same architecture, if one exists in `[f_lo, f_hi]`.
///
/// Below the crossover the first technology is cheaper; above it the
/// second is (or vice versa — check the sign at the ends). This
/// quantifies Section 5's "extreme technology flavors are penalized"
/// into an actual operating-regime boundary.
///
/// Returns `None` when either technology fails to close timing over
/// part of the range or the difference does not change sign.
pub fn flavor_crossover(
    tech_a: Technology,
    tech_b: Technology,
    arch: &ArchParams,
    f_lo: Hertz,
    f_hi: Hertz,
) -> Option<Hertz> {
    let diff = |log_f: f64| -> f64 {
        let f = Hertz::new(10f64.powf(log_f));
        match (optimal_ptot(tech_a, arch, f), optimal_ptot(tech_b, arch, f)) {
            (Some(pa), Some(pb)) => pa - pb,
            _ => f64::NAN,
        }
    };
    let lo = f_lo.value().log10();
    let hi = f_hi.value().log10();
    let (d_lo, d_hi) = (diff(lo), diff(hi));
    if !d_lo.is_finite() || !d_hi.is_finite() || d_lo.signum() == d_hi.signum() {
        return None;
    }
    bisect(diff, lo, hi, 1e-6)
        .ok()
        .map(|log_f| Hertz::new(10f64.powf(log_f)))
}

/// Result of ranking several technologies for one architecture at one
/// frequency.
#[derive(Debug, Clone)]
pub struct TechnologyRanking {
    /// `(technology name, optimal Ptot in watts)`, cheapest first;
    /// technologies that cannot close timing are omitted.
    pub ranking: Vec<(&'static str, f64)>,
}

impl TechnologyRanking {
    /// The winning technology's name, if any closed timing.
    pub fn winner(&self) -> Option<&'static str> {
        self.ranking.first().map(|(name, _)| *name)
    }

    /// Sorts `(name, Ptot)` pairs cheapest-first into a ranking; ties
    /// keep their input order (a stable sort on the total order).
    pub fn from_pairs(mut ranking: Vec<(&'static str, f64)>) -> Self {
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        TechnologyRanking { ranking }
    }
}

/// Ranks `techs` by optimal total power for `(arch, f)` — the paper's
/// technology-selection use case as an API.
pub fn rank_technologies(techs: &[Technology], arch: &ArchParams, f: Hertz) -> TechnologyRanking {
    TechnologyRanking::from_pairs(
        techs
            .iter()
            .filter_map(|t| optimal_ptot(*t, arch, f).map(|p| (t.name(), p)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_tech::Flavor;
    use optpower_units::Farads;

    fn wallace_arch() -> ArchParams {
        // The basic Wallace structure of Table 1 with its
        // back-computed capacitance.
        let c = 56.69e-6 / (729.0 * 0.2976 * 31.25e6 * 0.372 * 0.372);
        ArchParams::builder("Wallace")
            .cells(729)
            .activity(0.2976)
            .logical_depth(17.0)
            .cap_per_cell(Farads::new(c))
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_power_increases_with_frequency() {
        let sweep = frequency_sweep(
            Technology::stm_cmos09(Flavor::LowLeakage),
            &wallace_arch(),
            Hertz::new(1e6),
            Hertz::new(200e6),
            12,
        )
        .unwrap();
        let powers: Vec<f64> = sweep
            .iter()
            .filter_map(|s| s.optimum().map(|o| o.ptot().value()))
            .collect();
        assert!(powers.len() >= 10, "most points close timing");
        for pair in powers.windows(2) {
            assert!(pair[1] > pair[0], "Ptot must grow with f");
        }
    }

    #[test]
    fn sweep_vth_decreases_with_frequency() {
        // Eq. 9: Vth_opt = n·Ut·ln(Io(1−χA)/(2aCf·nUt)) falls with f
        // through both the log argument and (1−χA). (Vdd_opt is NOT
        // monotone: the χB/(1−χA) term pushes up while the log pushes
        // down — which is why this test pins Vth, not Vdd.)
        let sweep = frequency_sweep(
            Technology::stm_cmos09(Flavor::LowLeakage),
            &wallace_arch(),
            Hertz::new(1e6),
            Hertz::new(200e6),
            8,
        )
        .unwrap();
        let vths: Vec<f64> = sweep
            .iter()
            .filter_map(|s| s.optimum().map(|o| o.vth().value()))
            .collect();
        for pair in vths.windows(2) {
            assert!(pair[1] < pair[0], "vth must fall with f: {vths:?}");
        }
    }

    #[test]
    fn sweep_rejects_bad_range() {
        for (lo, hi) in [
            (10e6, 1e6),
            (0.0, 1e6),
            (1e6, f64::INFINITY),
            (1e6, f64::NAN),
        ] {
            let err = frequency_sweep(
                Technology::stm_cmos09(Flavor::LowLeakage),
                &wallace_arch(),
                Hertz::new(lo),
                Hertz::new(hi),
                4,
            )
            .unwrap_err();
            assert!(
                matches!(err, ModelError::InvalidFrequency { .. }),
                "({lo}, {hi})"
            );
        }
    }

    #[test]
    fn boundary_pinning_is_distinguished_from_failure() {
        // Push the Wallace multiplier far beyond any closable
        // frequency: the optimiser walks into the vdd_max wall chasing
        // lower leakage. That must surface as BoundaryPinned — the
        // optimiser itself worked — not as Failed, and not be silently
        // conflated with "no optimum".
        let sweep = frequency_sweep(
            Technology::stm_cmos09(Flavor::LowLeakage),
            &wallace_arch(),
            Hertz::new(5e9),
            Hertz::new(50e9),
            4,
        )
        .unwrap();
        for s in &sweep {
            assert!(
                s.outcome.is_boundary_pinned(),
                "expected BoundaryPinned at {:?}, got {:?}",
                s.frequency,
                s.outcome
            );
            assert_eq!(s.optimum(), None, "pinned points expose no optimum");
            // The pinned point itself is still reported, at a wall.
            let pinned = s.outcome.point().expect("pinned point is reported");
            let cfg = OptimizerConfig::default();
            assert!(
                pinned.vdd() >= cfg.vdd_max - BOUNDARY_MARGIN
                    || pinned.vdd() <= cfg.vdd_min + BOUNDARY_MARGIN
            );
        }
    }

    #[test]
    fn classify_splits_interior_boundary_failed() {
        let cfg = OptimizerConfig::default();
        let m = PowerModel::from_technology(
            Technology::stm_cmos09(Flavor::LowLeakage),
            wallace_arch(),
            Hertz::new(31.25e6),
        )
        .unwrap();
        let interior = m.optimize().unwrap();
        assert!(matches!(
            SweepOutcome::classify(Ok(interior), &cfg),
            SweepOutcome::Closed(_)
        ));
        let wall = m.point_on_curve(cfg.vdd_max);
        assert!(SweepOutcome::classify(Ok(wall), &cfg).is_boundary_pinned());
        let failed =
            SweepOutcome::classify(Err(ModelError::InvalidFrequency { hertz: -1.0 }), &cfg);
        assert!(matches!(failed, SweepOutcome::Failed(_)));
        assert_eq!(failed.point(), None);
    }

    #[test]
    fn ull_vs_hs_crossover_exists() {
        // ULL wins at very low f (leakage-dominated), HS wins at high f
        // (speed-dominated): a crossover must exist between them.
        let x = flavor_crossover(
            Technology::stm_cmos09(Flavor::UltraLowLeakage),
            Technology::stm_cmos09(Flavor::HighSpeed),
            &wallace_arch(),
            Hertz::new(0.2e6),
            Hertz::new(200e6),
        );
        let f = x.expect("ULL/HS crossover exists").value();
        assert!(f > 0.2e6 && f < 200e6, "crossover at {f}");
    }

    #[test]
    fn ranking_orders_by_power() {
        let techs = [
            Technology::stm_cmos09(Flavor::UltraLowLeakage),
            Technology::stm_cmos09(Flavor::LowLeakage),
            Technology::stm_cmos09(Flavor::HighSpeed),
        ];
        let ranking = rank_technologies(&techs, &wallace_arch(), Hertz::new(31.25e6));
        assert_eq!(ranking.ranking.len(), 3);
        for pair in ranking.ranking.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // ULL never wins at the paper's operating point.
        assert_ne!(ranking.winner(), Some("STM CMOS09 ULL"));
    }

    #[test]
    fn ull_wins_at_very_low_frequency() {
        let techs = [
            Technology::stm_cmos09(Flavor::UltraLowLeakage),
            Technology::stm_cmos09(Flavor::LowLeakage),
            Technology::stm_cmos09(Flavor::HighSpeed),
        ];
        let ranking = rank_technologies(&techs, &wallace_arch(), Hertz::new(0.2e6));
        assert_eq!(ranking.winner(), Some("STM CMOS09 ULL"));
    }
}
