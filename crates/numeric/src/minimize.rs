//! 1-D minimisation: golden-section search and exhaustive grid sweep.

use crate::{linspace, NumericError};

/// Result of a 1-D minimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minimum {
    /// Abscissa of the minimum.
    pub x: f64,
    /// Objective value at [`Minimum::x`].
    pub value: f64,
}

const INV_PHI: f64 = 0.618_033_988_749_894_9; // (sqrt(5) - 1) / 2
const MAX_ITER: usize = 400;

/// Minimises a unimodal `f` over `[a, b]` by golden-section search.
///
/// This is the production path for the optimal-Vdd search: the total
/// power along the timing-closure curve is unimodal in Vdd (convex
/// dynamic term plus a decreasing-then-flat exponential static term).
///
/// # Errors
///
/// * [`NumericError::InvalidBracket`] if `a >= b`,
/// * [`NumericError::NonFinite`] if `f` returns NaN/∞ inside the bracket,
/// * [`NumericError::NoConvergence`] if the bracket fails to shrink to
///   `tol` (practically unreachable: the bracket shrinks geometrically).
///
/// # Examples
///
/// ```
/// use optpower_numeric::golden_section_min;
/// let m = golden_section_min(|x| (x - 0.478).powi(2) + 1.0, 0.1, 1.2, 1e-10)?;
/// assert!((m.x - 0.478).abs() < 1e-6);
/// assert!((m.value - 1.0).abs() < 1e-10);
/// # Ok::<(), optpower_numeric::NumericError>(())
/// ```
pub fn golden_section_min(
    mut f: impl FnMut(f64) -> f64,
    a: f64,
    b: f64,
    tol: f64,
) -> Result<Minimum, NumericError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
    if !(a < b) {
        return Err(NumericError::InvalidBracket {
            a,
            b,
            reason: "a must be strictly less than b",
        });
    }
    let (mut lo, mut hi) = (a, b);
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    if !f1.is_finite() || !f2.is_finite() {
        return Err(NumericError::NonFinite);
    }
    let mut iterations = 0;
    while (hi - lo) > tol {
        iterations += 1;
        if iterations > MAX_ITER {
            return Err(NumericError::NoConvergence {
                iterations: MAX_ITER,
            });
        }
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_PHI * (hi - lo);
            f1 = f(x1);
            if !f1.is_finite() {
                return Err(NumericError::NonFinite);
            }
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_PHI * (hi - lo);
            f2 = f(x2);
            if !f2.is_finite() {
                return Err(NumericError::NonFinite);
            }
        }
    }
    let x = 0.5 * (lo + hi);
    Ok(Minimum { x, value: f(x) })
}

/// Minimises `f` over `[a, b]` by evaluating `n` uniform grid points.
///
/// Mirrors the paper's numerical procedure ("calculating the total
/// power for all reasonable Vdd/Vth couples") and is used in the
/// ablation benches to quantify the grid-resolution error of that
/// approach against [`golden_section_min`]. Non-finite objective values
/// are skipped, so a partially-defined objective (e.g. negative
/// gate overdrive at very low Vdd) is acceptable.
///
/// It is [`grid_points`] evaluated through `f` and reduced by
/// [`first_min`]; callers that tabulate something per abscissa use
/// those two directly and get the same minimum.
///
/// # Errors
///
/// * [`NumericError::InvalidBracket`] if `a >= b`,
/// * [`NumericError::InsufficientData`] if `n < 2`,
/// * [`NumericError::NonFinite`] if *every* grid point is non-finite.
///
/// # Examples
///
/// ```
/// use optpower_numeric::grid_min;
/// let m = grid_min(|x| (x - 0.5).abs(), 0.0, 1.0, 101)?;
/// assert_eq!(m.x, 0.5);
/// # Ok::<(), optpower_numeric::NumericError>(())
/// ```
pub fn grid_min(
    mut f: impl FnMut(f64) -> f64,
    a: f64,
    b: f64,
    n: usize,
) -> Result<Minimum, NumericError> {
    first_min(grid_points(a, b, n)?.into_iter().map(|x| (x, f(x))))
}

/// The `n` uniform abscissae [`grid_min`] evaluates over `[a, b]`
/// ([`linspace`], endpoints exact), after its argument checks.
///
/// # Errors
///
/// * [`NumericError::InvalidBracket`] if `a >= b`,
/// * [`NumericError::InsufficientData`] if `n < 2`.
pub fn grid_points(a: f64, b: f64, n: usize) -> Result<Vec<f64>, NumericError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail the check
    if !(a < b) {
        return Err(NumericError::InvalidBracket {
            a,
            b,
            reason: "a must be strictly less than b",
        });
    }
    if n < 2 {
        return Err(NumericError::InsufficientData { got: n, need: 2 });
    }
    Ok(linspace(a, b, n))
}

/// [`grid_min`]'s selection rule over `(x, f(x))` samples in order:
/// the first strict minimum among the finite values.
///
/// # Errors
///
/// [`NumericError::NonFinite`] if no sample has a finite value.
pub fn first_min(samples: impl IntoIterator<Item = (f64, f64)>) -> Result<Minimum, NumericError> {
    let mut best: Option<Minimum> = None;
    for (x, value) in samples {
        if !value.is_finite() {
            continue;
        }
        if best.is_none_or(|m| value < m.value) {
            best = Some(Minimum { x, value });
        }
    }
    best.ok_or(NumericError::NonFinite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_parabola() {
        let m = golden_section_min(|x| (x - 2.0).powi(2), -5.0, 5.0, 1e-12).unwrap();
        assert!((m.x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn golden_asymmetric_objective() {
        // Shaped like Ptot(Vdd): quadratic + decaying exponential.
        let f = |v: f64| v * v + 0.3 * (-v / 0.05).exp();
        let m = golden_section_min(f, 0.05, 1.2, 1e-12).unwrap();
        // Analytic stationary point: 2v = 6 exp(-v/0.05).
        let g = |v: f64| 2.0 * v - 6.0 * (-v / 0.05).exp();
        let root = crate::bisect(g, 0.05, 1.2, 1e-13).unwrap();
        assert!((m.x - root).abs() < 1e-6, "m.x={} root={}", m.x, root);
    }

    #[test]
    fn golden_rejects_bad_bracket() {
        let err = golden_section_min(|x| x, 1.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(err, NumericError::InvalidBracket { .. }));
    }

    #[test]
    fn golden_propagates_nan() {
        let err = golden_section_min(|_| f64::NAN, 0.0, 1.0, 1e-9).unwrap_err();
        assert_eq!(err, NumericError::NonFinite);
    }

    #[test]
    fn grid_finds_endpoint_minimum() {
        let m = grid_min(|x| x, 0.0, 1.0, 11).unwrap();
        assert_eq!(m.x, 0.0);
        assert_eq!(m.value, 0.0);
    }

    #[test]
    fn grid_skips_non_finite_points() {
        // Objective undefined (NaN) below 0.3 — like negative overdrive.
        let f = |x: f64| if x < 0.3 { f64::NAN } else { (x - 0.5).powi(2) };
        let m = grid_min(f, 0.0, 1.0, 1001).unwrap();
        assert!((m.x - 0.5).abs() < 1e-3);
    }

    #[test]
    fn grid_all_nan_is_error() {
        let err = grid_min(|_| f64::NAN, 0.0, 1.0, 11).unwrap_err();
        assert_eq!(err, NumericError::NonFinite);
    }

    #[test]
    fn grid_approaches_golden_with_resolution() {
        let f = |x: f64| (x - 0.333).powi(2);
        let g = golden_section_min(f, 0.0, 1.0, 1e-12).unwrap();
        let coarse = grid_min(f, 0.0, 1.0, 11).unwrap();
        let fine = grid_min(f, 0.0, 1.0, 100_001).unwrap();
        assert!((fine.x - g.x).abs() < (coarse.x - g.x).abs());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Golden-section must locate the vertex of any parabola within the bracket.
        #[test]
        fn golden_finds_parabola_vertex(c in -4.9f64..4.9) {
            let m = golden_section_min(|x| (x - c).powi(2), -5.0, 5.0, 1e-12).unwrap();
            prop_assert!((m.x - c).abs() < 1e-6);
        }

        /// Grid minimum is never above the objective at any grid point we re-evaluate.
        #[test]
        fn grid_min_is_global_over_grid(c in -0.9f64..0.9, n in 3usize..300) {
            let f = |x: f64| (x - c).powi(2) + 0.1 * x;
            let m = grid_min(f, -1.0, 1.0, n).unwrap();
            for x in crate::linspace(-1.0, 1.0, n) {
                prop_assert!(m.value <= f(x) + 1e-15);
            }
        }
    }
}
