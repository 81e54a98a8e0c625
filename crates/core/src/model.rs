//! [`PowerModel`]: one architecture, one technology, one frequency —
//! and everything the paper computes about that combination.

use optpower_numeric::{first_min, golden_section_min, grid_points};
use optpower_tech::{Linearization, Technology};
use optpower_units::{Hertz, Volts, Watts};

use crate::constraint::vdd_root;
use crate::{ArchParams, ClosedFormSolution, ModelError, PowerBreakdown, TimingConstraint};

/// One working point on the timing-closure curve, with its power split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    vdd: Volts,
    vth: Volts,
    breakdown: PowerBreakdown,
}

impl OperatingPoint {
    /// Supply voltage of this working point.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Threshold voltage of this working point.
    pub fn vth(&self) -> Volts {
        self.vth
    }

    /// Dynamic/static power split at this point.
    pub fn breakdown(&self) -> PowerBreakdown {
        self.breakdown
    }

    /// Total power at this point (Eq. 1).
    pub fn ptot(&self) -> Watts {
        self.breakdown.total()
    }

    /// Energy per data item at throughput `f`: `Ptot / f`, in joules.
    ///
    /// The figure of merit used when comparing designs across
    /// frequencies (power alone penalises faster clocks).
    pub fn energy_per_item(&self, f: Hertz) -> f64 {
        self.breakdown.total().value() / f.value()
    }
}

impl core::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Vdd = {}, Vth = {}, Ptot = {} (dyn/stat = {:.2})",
            self.vdd,
            self.vth,
            self.breakdown.total(),
            self.breakdown.dyn_static_ratio()
        )
    }
}

/// Search-window configuration for [`PowerModel::optimize_with`].
///
/// The window's coarse pass depends on the model only through `α`, so
/// it can be tabulated once as a [`CoarseGrid`] and shared by every
/// model of a flavour ([`PowerModel::optimize_on`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Lower end of the Vdd search window.
    pub vdd_min: Volts,
    /// Upper end of the Vdd search window.
    pub vdd_max: Volts,
    /// Absolute Vdd tolerance of the golden-section refinement.
    pub tolerance: f64,
    /// Number of coarse bracketing samples before refinement.
    pub coarse_samples: usize,
}

impl Default for OptimizerConfig {
    /// Covers 50 mV up to 1.5 V at sub-µV resolution — wide enough for
    /// every architecture/technology combination in the paper
    /// (the slowest design, the basic sequential multiplier, optimises
    /// at 0.824 V).
    fn default() -> Self {
        Self {
            vdd_min: Volts::new(0.05),
            vdd_max: Volts::new(1.5),
            tolerance: 1e-7,
            coarse_samples: 512,
        }
    }
}

/// The optimiser's coarse pass, tabulated for one `α` and one search
/// window: the `coarse_samples.max(3)` uniform Vdd abscissae of the
/// window (`linspace(vdd_min, vdd_max, …)`), each beside the root
/// `Vdd^{1/α}` that Eq. 5 needs there.
///
/// The root depends on `α` and `Vdd` only, so every model of a
/// technology flavour — every architecture at every frequency — can
/// share one grid, and each coarse sample then costs Eq. 1's `exp`
/// without Eq. 5's `powf`. The table holds the very values
/// [`TimingConstraint::vth_at`] computes, so
/// [`PowerModel::optimize_on`] returns the same `f64`s for any model
/// whose constraint has this `α`. [`PowerModel::optimize_with`] builds
/// one per call; the exploration engine (`optpower-explore`) builds
/// one per distinct `α` of its grid and shares it.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseGrid {
    alpha: f64,
    config: OptimizerConfig,
    /// `(Vdd, Vdd^{1/α})` per coarse sample, in window order.
    samples: Vec<(f64, f64)>,
}

impl CoarseGrid {
    /// Tabulates the coarse grid of `config`'s window for `alpha`.
    ///
    /// # Errors
    ///
    /// [`ModelError::Numeric`] carrying
    /// [`optpower_numeric::NumericError::InvalidBracket`] when
    /// `vdd_min >= vdd_max` (or either is NaN) — the error the coarse
    /// pass has always reported for such a window.
    pub fn new(alpha: f64, config: OptimizerConfig) -> Result<Self, ModelError> {
        let samples = grid_points(
            config.vdd_min.value(),
            config.vdd_max.value(),
            config.coarse_samples.max(3),
        )?
        .into_iter()
        .map(|v| (v, vdd_root(v, alpha)))
        .collect();
        Ok(Self {
            alpha,
            config,
            samples,
        })
    }
}

/// The paper's model for one circuit: Eq. 1 total power constrained by
/// the Eq. 5 timing-closure curve.
///
/// Build it either from first principles ([`PowerModel::from_technology`],
/// which derives `χ` from Eq. 6) or from a known optimal point via the
/// calibration helpers in [`crate::calibrate`].
#[derive(Debug, Clone)]
pub struct PowerModel {
    tech: Technology,
    arch: ArchParams,
    freq: Hertz,
    constraint: TimingConstraint,
    lin: Linearization,
}

impl PowerModel {
    /// Builds a model deriving the timing constraint from the
    /// technology's `ζ`, `Io` and `α` (Eq. 6).
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidFrequency`] for a non-positive frequency,
    /// * [`ModelError::Numeric`] if the Eq. 7 linearisation fails
    ///   (cannot happen for valid `α`).
    pub fn from_technology(
        tech: Technology,
        arch: ArchParams,
        freq: Hertz,
    ) -> Result<Self, ModelError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
        if !(freq.value() > 0.0) || !freq.value().is_finite() {
            return Err(ModelError::InvalidFrequency {
                hertz: freq.value(),
            });
        }
        let constraint = TimingConstraint::from_technology(&tech, arch.logical_depth(), freq);
        Self::with_constraint(tech, arch, freq, constraint)
    }

    /// Builds a model from an explicit (typically calibrated) timing
    /// constraint, bypassing Eq. 6.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PowerModel::from_technology`].
    pub fn with_constraint(
        tech: Technology,
        arch: ArchParams,
        freq: Hertz,
        constraint: TimingConstraint,
    ) -> Result<Self, ModelError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
        if !(freq.value() > 0.0) || !freq.value().is_finite() {
            return Err(ModelError::InvalidFrequency {
                hertz: freq.value(),
            });
        }
        let lin = Linearization::fit_paper_range(constraint.alpha())?;
        Self::with_linearization(tech, arch, freq, constraint, lin)
    }

    /// Builds a model from an explicit constraint *and* a pre-fitted
    /// Eq. 7 linearisation.
    ///
    /// [`Linearization::fit_paper_range`] is a pure function of the
    /// constraint's `α`, so callers evaluating many models that share a
    /// technology (the parallel exploration engine in
    /// `optpower-explore`) can fit once per `α` and reuse the result —
    /// the model produced is bit-identical to the one
    /// [`PowerModel::with_constraint`] would build.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidFrequency`] for a non-positive frequency,
    /// * [`ModelError::InvalidCalibration`] if `lin` was fitted for a
    ///   different `α` than the constraint's.
    pub fn with_linearization(
        tech: Technology,
        arch: ArchParams,
        freq: Hertz,
        constraint: TimingConstraint,
        lin: Linearization,
    ) -> Result<Self, ModelError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
        if !(freq.value() > 0.0) || !freq.value().is_finite() {
            return Err(ModelError::InvalidFrequency {
                hertz: freq.value(),
            });
        }
        if lin.alpha() != constraint.alpha() {
            return Err(ModelError::InvalidCalibration {
                reason: "linearization alpha does not match the timing constraint",
            });
        }
        Ok(Self {
            tech,
            arch,
            freq,
            constraint,
            lin,
        })
    }

    /// The technology this model evaluates in.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The architecture parameter set.
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// The throughput frequency `f`.
    pub fn freq(&self) -> Hertz {
        self.freq
    }

    /// The timing-closure constraint in effect.
    pub fn constraint(&self) -> TimingConstraint {
        self.constraint
    }

    /// The Eq. 7 linearisation used by the closed form.
    pub fn linearization(&self) -> Linearization {
        self.lin
    }

    /// Evaluates Eq. 1 at an arbitrary `(Vdd, Vth)` couple:
    /// `Ptot = N·a·C·f·Vdd² + N·Vdd·Io·exp(−Vth/(n·Ut))`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use optpower::{ArchParams, PowerModel};
    /// # use optpower_tech::{Flavor, Technology};
    /// # use optpower_units::{Farads, Hertz, Volts};
    /// # let arch = ArchParams::builder("RCA").cells(608).activity(0.5056)
    /// #     .logical_depth(61.0).cap_per_cell(Farads::new(70.5e-15)).build()?;
    /// # let m = PowerModel::from_technology(
    /// #     Technology::stm_cmos09(Flavor::LowLeakage), arch, Hertz::new(31.25e6))?;
    /// let p = m.power_at(Volts::new(1.2), Volts::new(0.354));
    /// assert!(p.pdyn().value() > 0.0 && p.pstat().value() > 0.0);
    /// # Ok::<(), optpower::ModelError>(())
    /// ```
    pub fn power_at(&self, vdd: Volts, vth: Volts) -> PowerBreakdown {
        let a = self.arch.activity();
        let n = self.arch.cells();
        let c = self.arch.cap_per_cell().value();
        let pdyn = n * a * c * self.freq.value() * vdd.value() * vdd.value();
        let pstat = n * vdd.value() * self.tech.off_current(vth).value();
        PowerBreakdown::new(Watts::new(pdyn), Watts::new(pstat))
    }

    /// Evaluates Eq. 1 on the timing-closure curve at `vdd`
    /// (i.e. with `Vth = Vth(Vdd)` from Eq. 5).
    pub fn power_on_curve(&self, vdd: Volts) -> PowerBreakdown {
        self.power_at(vdd, self.constraint.vth_at(vdd))
    }

    /// The working point on the timing-closure curve at `vdd`.
    pub fn point_on_curve(&self, vdd: Volts) -> OperatingPoint {
        let vth = self.constraint.vth_at(vdd);
        OperatingPoint {
            vdd,
            vth,
            breakdown: self.power_at(vdd, vth),
        }
    }

    /// Finds the optimal working point numerically with the default
    /// search window.
    ///
    /// This is the reference computation the paper validates Eq. 13
    /// against: coarse bracketing over the window followed by
    /// golden-section refinement of the (unimodal) total power along
    /// the constraint curve.
    ///
    /// # Errors
    ///
    /// [`ModelError::Numeric`] if the search window is degenerate or
    /// the objective is non-finite everywhere in it.
    pub fn optimize(&self) -> Result<OperatingPoint, ModelError> {
        self.optimize_with(OptimizerConfig::default())
    }

    /// [`PowerModel::optimize`] with an explicit search window: builds
    /// the window's [`CoarseGrid`] for this model's `α` and runs
    /// [`PowerModel::optimize_on`] on it.
    ///
    /// # Errors
    ///
    /// See [`PowerModel::optimize`].
    pub fn optimize_with(&self, config: OptimizerConfig) -> Result<OperatingPoint, ModelError> {
        self.optimize_on(&CoarseGrid::new(self.constraint.alpha(), config)?)
    }

    /// The optimiser on a prebuilt [`CoarseGrid`], over the grid's
    /// window: the first strict minimum of the total power over the
    /// grid's finite samples, then golden-section refinement within
    /// two grid steps of it.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidCalibration`] if `grid` was tabulated for
    ///   a different `α` than the constraint's,
    /// * otherwise see [`PowerModel::optimize`].
    pub fn optimize_on(&self, grid: &CoarseGrid) -> Result<OperatingPoint, ModelError> {
        if grid.alpha != self.constraint.alpha() {
            return Err(ModelError::InvalidCalibration {
                reason: "coarse grid alpha does not match the timing constraint",
            });
        }
        let config = grid.config;
        // Coarse pass to bracket the basin, robust to any residual
        // non-unimodality at the window edges.
        let coarse = first_min(grid.samples.iter().map(|&(v, root)| {
            let vdd = Volts::new(v);
            let vth = self.constraint.vth_with_root(vdd, root);
            (v, self.power_at(vdd, vth).total().value())
        }))?;
        let step = (config.vdd_max - config.vdd_min).value() / (grid.samples.len() - 1) as f64;
        let lo = (coarse.x - 2.0 * step).max(config.vdd_min.value());
        let hi = (coarse.x + 2.0 * step).min(config.vdd_max.value());
        let objective = |v: f64| self.power_on_curve(Volts::new(v)).total().value();
        let refined = golden_section_min(objective, lo, hi, config.tolerance)?;
        Ok(self.point_on_curve(Volts::new(refined.x)))
    }

    /// Paper-style exhaustive sweep: evaluates Eq. 1 on a 2-D grid of
    /// `(Vdd, Vth)` couples, keeping only couples that close timing
    /// (`LD·t_gate ≤ 1/f`), and returns the cheapest.
    ///
    /// This mirrors the paper's "calculating the total power for all
    /// reasonable Vdd/Vth couples" and is used by the ablation bench to
    /// quantify grid-resolution error versus [`PowerModel::optimize`].
    ///
    /// Note: timing feasibility is checked with the *technology* delay
    /// model (Eqs. 4–6 via `χ`), so the result is consistent with the
    /// curve-based optimiser by construction.
    ///
    /// # Errors
    ///
    /// [`ModelError::Numeric`] if no grid point closes timing.
    pub fn optimize_grid2d(
        &self,
        n_vdd: usize,
        n_vth: usize,
        config: OptimizerConfig,
    ) -> Result<OperatingPoint, ModelError> {
        let mut best: Option<OperatingPoint> = None;
        for vdd in
            optpower_numeric::linspace(config.vdd_min.value(), config.vdd_max.value(), n_vdd.max(2))
        {
            let vdd_v = Volts::new(vdd);
            // Timing closes iff vth <= vth_curve(vdd).
            let vth_max = self.constraint.vth_at(vdd_v).value();
            for vth in optpower_numeric::linspace(-0.2, 0.6, n_vth.max(2)) {
                if vth > vth_max {
                    continue;
                }
                let bd = self.power_at(vdd_v, Volts::new(vth));
                if !bd.total().value().is_finite() {
                    continue;
                }
                if best.is_none_or(|b| bd.total().value() < b.ptot().value()) {
                    best = Some(OperatingPoint {
                        vdd: vdd_v,
                        vth: Volts::new(vth),
                        breakdown: bd,
                    });
                }
            }
        }
        best.ok_or(ModelError::Numeric(
            optpower_numeric::NumericError::NonFinite,
        ))
    }

    /// The closed-form solution (Eqs. 9, 10 and 13).
    ///
    /// # Errors
    ///
    /// * [`ModelError::ArchitectureTooSlow`] when `χ·A ≥ 1` — the
    ///   architecture cannot close timing anywhere in the linearised
    ///   voltage range,
    /// * [`ModelError::DegenerateLogArgument`] when the Eq. 10
    ///   logarithm argument is non-positive.
    pub fn closed_form(&self) -> Result<ClosedFormSolution, ModelError> {
        ClosedFormSolution::solve(self)
    }

    /// Sweeps `Ptot(Vdd)` along the timing-closure curve — the data
    /// behind each Figure 1 curve.
    ///
    /// Returns `(Vdd, PowerBreakdown)` pairs at `n` uniform samples.
    pub fn sweep_curve(&self, lo: Volts, hi: Volts, n: usize) -> Vec<(Volts, PowerBreakdown)> {
        optpower_numeric::linspace(lo.value(), hi.value(), n.max(2))
            .into_iter()
            .map(|v| (Volts::new(v), self.power_on_curve(Volts::new(v))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_tech::Flavor;
    use optpower_units::Farads;

    fn rca_model() -> PowerModel {
        let arch = ArchParams::builder("RCA")
            .cells(608)
            .activity(0.5056)
            .logical_depth(61.0)
            .cap_per_cell(Farads::new(70.5e-15))
            .build()
            .unwrap();
        PowerModel::from_technology(
            Technology::stm_cmos09(Flavor::LowLeakage),
            arch,
            Hertz::new(31.25e6),
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_frequency() {
        let arch = rca_model().arch().clone();
        let err = PowerModel::from_technology(
            Technology::stm_cmos09(Flavor::LowLeakage),
            arch,
            Hertz::new(0.0),
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::InvalidFrequency { .. }));
    }

    #[test]
    fn eq1_evaluates_both_terms() {
        let m = rca_model();
        let p = m.power_at(Volts::new(1.2), Volts::new(0.354));
        // Pdyn = N a C f Vdd^2.
        let expect = 608.0 * 0.5056 * 70.5e-15 * 31.25e6 * 1.44;
        assert!((p.pdyn().value() - expect).abs() / expect < 1e-12);
        assert!(p.pstat().value() > 0.0);
    }

    #[test]
    fn dynamic_power_quadratic_in_vdd() {
        let m = rca_model();
        let p1 = m.power_at(Volts::new(0.5), Volts::new(0.3));
        let p2 = m.power_at(Volts::new(1.0), Volts::new(0.3));
        assert!((p2.pdyn().value() / p1.pdyn().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn optimum_is_interior_and_stationary() {
        let m = rca_model();
        let opt = m.optimize().unwrap();
        let cfg = OptimizerConfig::default();
        assert!(opt.vdd() > cfg.vdd_min && opt.vdd() < cfg.vdd_max);
        // Neighbouring points on the curve are no cheaper.
        let eps = 1e-4;
        let left = m.power_on_curve(opt.vdd() - Volts::new(eps)).total();
        let right = m.power_on_curve(opt.vdd() + Volts::new(eps)).total();
        assert!(opt.ptot().value() <= left.value() + 1e-15);
        assert!(opt.ptot().value() <= right.value() + 1e-15);
    }

    #[test]
    fn optimum_beats_nominal_point() {
        // The whole premise: the optimal point consumes far less than
        // running at nominal voltages.
        let m = rca_model();
        let opt = m.optimize().unwrap();
        let nominal = m.power_at(m.tech().vdd_nom(), m.tech().vth0_nom());
        assert!(opt.ptot().value() < nominal.total().value());
    }

    #[test]
    fn lower_activity_lowers_optimal_power_and_raises_vdd_vth() {
        // Figure 1's observation: reducing activity reduces Ptot while
        // increasing the optimal Vdd and Vth.
        let m = rca_model();
        let arch_low = m.arch().clone().with_activity(0.05056).unwrap();
        let m_low = PowerModel::from_technology(*m.tech(), arch_low, m.freq()).unwrap();
        let opt = m.optimize().unwrap();
        let opt_low = m_low.optimize().unwrap();
        assert!(opt_low.ptot().value() < opt.ptot().value());
        assert!(opt_low.vdd() > opt.vdd());
        assert!(opt_low.vth() > opt.vth());
    }

    #[test]
    fn grid2d_agrees_with_curve_optimizer() {
        let m = rca_model();
        let opt = m.optimize().unwrap();
        let grid = m
            .optimize_grid2d(400, 400, OptimizerConfig::default())
            .unwrap();
        let rel = (grid.ptot().value() - opt.ptot().value()) / opt.ptot().value();
        // Grid can only be >= the continuous optimum, and close to it.
        assert!(rel >= -1e-9, "rel = {rel}");
        assert!(rel < 0.02, "rel = {rel}");
    }

    #[test]
    fn grid2d_optimal_vth_sits_on_constraint() {
        // At the 2-D optimum there is no slack: Vth is (one grid step
        // below) the timing-closure curve.
        let m = rca_model();
        let grid = m
            .optimize_grid2d(300, 300, OptimizerConfig::default())
            .unwrap();
        let vth_curve = m.constraint().vth_at(grid.vdd());
        let step = 0.8 / 299.0;
        assert!(grid.vth().value() <= vth_curve.value() + 1e-12);
        assert!(grid.vth().value() > vth_curve.value() - 2.0 * step);
    }

    #[test]
    fn sweep_curve_contains_minimum() {
        let m = rca_model();
        let opt = m.optimize().unwrap();
        let sweep = m.sweep_curve(Volts::new(0.2), Volts::new(1.2), 2001);
        let min_sweep = sweep
            .iter()
            .map(|(_, p)| p.total().value())
            .fold(f64::INFINITY, f64::min);
        assert!((min_sweep - opt.ptot().value()) / opt.ptot().value() < 1e-4);
    }

    #[test]
    fn with_linearization_is_bit_identical_to_with_constraint() {
        let m = rca_model();
        let cached = PowerModel::with_linearization(
            *m.tech(),
            m.arch().clone(),
            m.freq(),
            m.constraint(),
            m.linearization(),
        )
        .unwrap();
        assert_eq!(m.optimize().unwrap(), cached.optimize().unwrap());
        assert_eq!(m.closed_form().unwrap(), cached.closed_form().unwrap());
    }

    #[test]
    fn with_linearization_rejects_alpha_mismatch() {
        let m = rca_model();
        let other = Linearization::fit_paper_range(m.constraint().alpha() * 1.1).unwrap();
        let err = PowerModel::with_linearization(
            *m.tech(),
            m.arch().clone(),
            m.freq(),
            m.constraint(),
            other,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::InvalidCalibration { .. }));
    }

    #[test]
    fn coarse_grid_tabulates_the_roots_vth_at_uses() {
        let c = rca_model().constraint();
        let grid = CoarseGrid::new(c.alpha(), OptimizerConfig::default()).unwrap();
        assert_eq!(grid.samples.len(), 512);
        for &(v, root) in &grid.samples {
            let vdd = Volts::new(v);
            assert_eq!(c.vth_with_root(vdd, root), c.vth_at(vdd), "at {v}");
        }
    }

    #[test]
    fn optimize_on_rejects_alpha_mismatch() {
        let m = rca_model();
        let other = CoarseGrid::new(m.constraint().alpha() * 1.1, OptimizerConfig::default());
        let err = m.optimize_on(&other.unwrap()).unwrap_err();
        assert!(matches!(err, ModelError::InvalidCalibration { .. }));
    }

    #[test]
    fn accessors() {
        let m = rca_model();
        assert_eq!(m.freq(), Hertz::new(31.25e6));
        assert_eq!(m.arch().name(), "RCA");
        assert!(m.constraint().chi() > 0.0);
        assert!(m.linearization().a() > 0.0);
    }

    #[test]
    fn energy_per_item_is_power_over_frequency() {
        let m = rca_model();
        let opt = m.optimize().unwrap();
        let e = opt.energy_per_item(m.freq());
        assert!((e - opt.ptot().value() / 31.25e6).abs() < 1e-24);
        // Around a few pJ/multiply at the optimum — the right order for
        // a 16-bit multiplier in 0.13 um.
        assert!(e > 1e-13 && e < 1e-10, "E = {e}");
    }

    #[test]
    fn operating_point_display() {
        let m = rca_model();
        let opt = m.optimize().unwrap();
        let s = opt.to_string();
        assert!(s.contains("Vdd") && s.contains("Ptot"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use optpower_tech::Flavor;
    use optpower_units::Farads;
    use proptest::prelude::*;

    fn model(activity: f64, ld: f64, cap_ff: f64) -> PowerModel {
        let arch = ArchParams::builder("prop")
            .cells(1000)
            .activity(activity)
            .logical_depth(ld)
            .cap_per_cell(Farads::new(cap_ff * 1e-15))
            .build()
            .unwrap();
        PowerModel::from_technology(
            Technology::stm_cmos09(Flavor::LowLeakage),
            arch,
            Hertz::new(31.25e6),
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The numerical optimum is a global minimum over a fine sweep
        /// of the constraint curve, for a wide parameter family.
        #[test]
        fn optimum_is_global_on_curve(
            activity in 0.05f64..2.0,
            ld in 4.0f64..200.0,
            cap_ff in 10.0f64..120.0,
        ) {
            let m = model(activity, ld, cap_ff);
            let opt = m.optimize().unwrap();
            for (_, p) in m.sweep_curve(Volts::new(0.06), Volts::new(1.45), 500) {
                prop_assert!(opt.ptot().value() <= p.total().value() * (1.0 + 1e-9));
            }
        }

        /// Optimal total power increases monotonically with activity
        /// (first factor of Eq. 13).
        #[test]
        fn ptot_monotonic_in_activity(a1 in 0.05f64..0.9, ld in 8.0f64..100.0) {
            let a2 = a1 * 1.5;
            let m1 = model(a1, ld, 60.0);
            let m2 = model(a2, ld, 60.0);
            let p1 = m1.optimize().unwrap().ptot().value();
            let p2 = m2.optimize().unwrap().ptot().value();
            prop_assert!(p2 > p1);
        }

        /// A deeper logical depth (larger chi) can never reduce the
        /// optimal total power, all else equal.
        #[test]
        fn ptot_monotonic_in_depth(ld in 4.0f64..150.0) {
            let m1 = model(0.3, ld, 60.0);
            let m2 = model(0.3, ld * 1.5, 60.0);
            let p1 = m1.optimize().unwrap().ptot().value();
            let p2 = m2.optimize().unwrap().ptot().value();
            prop_assert!(p2 > p1);
        }
    }
}
