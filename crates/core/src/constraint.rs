//! The timing-closure constraint (Eqs. 5–6) tying Vth to Vdd.
//!
//! At the optimal working point the critical-path delay must exactly
//! match the clock period ("a positive slack would allow further
//! reducing Vdd ... a negative slack would correspond to a non working
//! device"). Substituting the gate-delay model (Eq. 4) into
//! `LD · t_gate = 1/f` yields
//!
//! ```text
//! Vth(Vdd) = Vdd − χ · Vdd^{1/α},    χ = (α·n·Ut/e) · (f·LD·ζ/Io)^{1/α}
//! ```

use optpower_tech::Technology;
use optpower_units::{Hertz, Volts};

/// The timing-closure curve `Vth(Vdd)` for one architecture in one
/// technology at one frequency.
///
/// # Examples
///
/// ```
/// use optpower::TimingConstraint;
/// use optpower_tech::{Flavor, Technology};
/// use optpower_units::{Hertz, Volts};
///
/// let ll = Technology::stm_cmos09(Flavor::LowLeakage);
/// let tc = TimingConstraint::from_technology(&ll, 61.0, Hertz::new(31.25e6));
/// // Raising Vdd relaxes timing, allowing a higher (less leaky) Vth.
/// let vth_lo = tc.vth_at(Volts::new(0.45));
/// let vth_hi = tc.vth_at(Volts::new(0.55));
/// assert!(vth_hi > vth_lo);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConstraint {
    chi: f64,
    alpha: f64,
}

impl TimingConstraint {
    /// Builds the constraint from an explicit `χ` and `α`.
    ///
    /// # Panics
    ///
    /// Panics if `chi` or `alpha` is not positive and finite — both are
    /// derived quantities and a non-physical value is a logic error.
    pub fn new(chi: f64, alpha: f64) -> Self {
        assert!(
            chi > 0.0 && chi.is_finite(),
            "chi must be positive and finite, got {chi}"
        );
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be positive and finite, got {alpha}"
        );
        Self { chi, alpha }
    }

    /// Derives `χ` from technology parameters via Eq. 6:
    /// `χ = (α·n·Ut/e)·(f·LD·ζ/Io)^{1/α}`, with `ζ` taken per gate
    /// ([`Technology::zeta_per_gate`], the documented ring-chain
    /// normalisation of the printed Table 2 values).
    pub fn from_technology(tech: &Technology, logical_depth: f64, f: Hertz) -> Self {
        let alpha = tech.alpha();
        let x = f.value() * logical_depth * tech.zeta_per_gate().value() / tech.io().value();
        let chi = (alpha * tech.n_ut().value() / core::f64::consts::E) * x.powf(1.0 / alpha);
        Self::new(chi, alpha)
    }

    /// Recovers `χ` from a known optimal point `(Vdd*, Vth*)` by
    /// inverting Eq. 5: `χ = (Vdd − Vth)/Vdd^{1/α}`.
    ///
    /// This is the calibration path for reproducing the paper's tables
    /// (DESIGN.md §2): the published optimal points necessarily lie on
    /// the timing-closure curve their optimiser used.
    ///
    /// # Panics
    ///
    /// Panics if `vdd <= vth` or `vdd <= 0` — such a point cannot lie
    /// on any timing-closure curve.
    pub fn from_optimal_point(vdd: Volts, vth: Volts, alpha: f64) -> Self {
        assert!(
            vdd.value() > 0.0 && vdd > vth,
            "optimal point must satisfy vdd > vth > -inf and vdd > 0, got vdd={vdd}, vth={vth}"
        );
        let chi = (vdd - vth).value() / vdd_root(vdd.value(), alpha);
        Self::new(chi, alpha)
    }

    /// The constraint coefficient `χ`.
    pub fn chi(&self) -> f64 {
        self.chi
    }

    /// The alpha-power exponent the curve was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The threshold voltage that exactly closes timing at `vdd`
    /// (Eq. 5). May be negative at very low supply voltages — the
    /// device would need to be depletion-mode, which simply means such
    /// a `Vdd` is not usable in practice (its leakage is astronomical,
    /// so the optimiser never selects it).
    pub fn vth_at(&self, vdd: Volts) -> Volts {
        self.vth_with_root(vdd, vdd_root(vdd.value(), self.alpha))
    }

    /// [`TimingConstraint::vth_at`] with the root `Vdd^{1/α}` supplied
    /// by the caller: `Vdd − χ·root`. The optimiser's coarse grid
    /// tabulates the root once per `α` and passes it here, so Eq. 5 is
    /// written once and both paths produce the same `f64`.
    pub(crate) fn vth_with_root(&self, vdd: Volts, root: f64) -> Volts {
        Volts::new(vdd.value() - self.chi * root)
    }

    /// Derivative `dVth/dVdd = 1 − (χ/α)·Vdd^{1/α − 1}` of the curve,
    /// used by the stationarity condition in reverse calibration.
    pub fn dvth_dvdd(&self, vdd: Volts) -> f64 {
        1.0 - (self.chi / self.alpha) * vdd.value().powf(1.0 / self.alpha - 1.0)
    }

    /// The supply voltage below which the required `Vth` goes negative:
    /// `Vdd_min = χ^{α/(α−1)}` (from `Vdd = χ·Vdd^{1/α}`).
    ///
    /// Only defined for `α > 1` (always true in this model's range).
    pub fn vdd_floor(&self) -> Volts {
        Volts::new(self.chi.powf(self.alpha / (self.alpha - 1.0)))
    }
}

/// `vdd^{1/α}`, the root Eq. 5 scales by `χ`: the one expression that
/// both [`TimingConstraint::vth_at`] and the optimiser's coarse grid
/// evaluate.
pub(crate) fn vdd_root(vdd: f64, alpha: f64) -> f64 {
    vdd.powf(1.0 / alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_tech::Flavor;

    #[test]
    fn roundtrip_chi_through_optimal_point() {
        // Extract chi from a synthetic point and verify vth_at returns
        // exactly the original vth.
        let tc = TimingConstraint::new(0.394, 1.86);
        let vdd = Volts::new(0.478);
        let vth = tc.vth_at(vdd);
        let tc2 = TimingConstraint::from_optimal_point(vdd, vth, 1.86);
        assert!((tc2.chi() - tc.chi()).abs() < 1e-12);
    }

    #[test]
    fn table1_rca_point_chi() {
        // RCA row of Table 1: (0.478, 0.213) with alpha = 1.86.
        let tc = TimingConstraint::from_optimal_point(Volts::new(0.478), Volts::new(0.213), 1.86);
        assert!((tc.chi() - 0.394).abs() < 0.001, "chi = {}", tc.chi());
    }

    #[test]
    fn vth_curve_monotonic_in_vdd() {
        let tc = TimingConstraint::new(0.3, 1.86);
        let mut prev = tc.vth_at(Volts::new(0.2));
        for i in 1..100 {
            let v = Volts::new(0.2 + 0.01 * f64::from(i));
            let vth = tc.vth_at(v);
            assert!(vth > prev, "vth must increase with vdd");
            prev = vth;
        }
    }

    #[test]
    fn chi_grows_with_logical_depth() {
        let ll = Technology::stm_cmos09(Flavor::LowLeakage);
        let f = Hertz::new(31.25e6);
        let shallow = TimingConstraint::from_technology(&ll, 17.0, f);
        let deep = TimingConstraint::from_technology(&ll, 61.0, f);
        assert!(deep.chi() > shallow.chi());
        // chi scales as LD^{1/alpha}.
        let expect = (61.0f64 / 17.0).powf(1.0 / ll.alpha());
        assert!((deep.chi() / shallow.chi() - expect).abs() < 1e-9);
    }

    #[test]
    fn chi_grows_with_frequency() {
        let ll = Technology::stm_cmos09(Flavor::LowLeakage);
        let slow = TimingConstraint::from_technology(&ll, 61.0, Hertz::new(10e6));
        let fast = TimingConstraint::from_technology(&ll, 61.0, Hertz::new(100e6));
        assert!(fast.chi() > slow.chi());
    }

    #[test]
    fn vdd_floor_is_the_zero_crossing() {
        let tc = TimingConstraint::new(0.394, 1.86);
        let floor = tc.vdd_floor();
        assert!(tc.vth_at(floor).value().abs() < 1e-9);
        assert!(tc.vth_at(floor * 1.01).value() > 0.0);
        assert!(tc.vth_at(floor * 0.99).value() < 0.0);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let tc = TimingConstraint::new(0.25, 1.7);
        let v = Volts::new(0.6);
        let h = 1e-7;
        let fd =
            (tc.vth_at(Volts::new(0.6 + h)) - tc.vth_at(Volts::new(0.6 - h))).value() / (2.0 * h);
        assert!((tc.dvth_dvdd(v) - fd).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "chi must be positive")]
    fn rejects_negative_chi() {
        let _ = TimingConstraint::new(-0.1, 1.86);
    }

    #[test]
    #[should_panic(expected = "optimal point must satisfy")]
    fn rejects_inverted_point() {
        let _ = TimingConstraint::from_optimal_point(Volts::new(0.2), Volts::new(0.3), 1.86);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// chi extraction and curve evaluation are mutual inverses for
        /// any physical point.
        #[test]
        fn point_roundtrip(vdd in 0.2f64..1.2, frac in 0.05f64..0.95, alpha in 1.2f64..2.5) {
            let vth = vdd * frac;
            let tc = TimingConstraint::from_optimal_point(
                Volts::new(vdd), Volts::new(vth), alpha);
            let back = tc.vth_at(Volts::new(vdd));
            prop_assert!((back.value() - vth).abs() < 1e-12);
        }

        /// The timing-closure curve always sits strictly below Vdd
        /// (some positive overdrive is always consumed by the gates).
        #[test]
        fn vth_below_vdd(chi in 0.01f64..1.5, alpha in 1.2f64..2.5, vdd in 0.05f64..1.3) {
            let tc = TimingConstraint::new(chi, alpha);
            prop_assert!(tc.vth_at(Volts::new(vdd)).value() < vdd);
        }
    }
}
