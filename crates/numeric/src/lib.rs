//! Numerical routines backing the `optpower` model crates.
//!
//! Everything the paper's calculations need and nothing more:
//!
//! * [`bisect`] and [`brent`] — 1-D root finding (used to invert the
//!   timing-closure constraint and for reverse calibration),
//! * [`golden_section_min`] and [`grid_min`] — 1-D minimisation (the
//!   optimal-Vdd search along the constraint curve; the grid variant
//!   mirrors the paper's "all reasonable Vdd/Vth couples" sweep, and
//!   its two halves [`grid_points`] and [`first_min`] serve callers
//!   that tabulate the grid once and reuse it),
//! * [`fit_line`] — closed-form least-squares line fit (the Eq. 7
//!   linearisation `Vdd^(1/α) ≈ A·Vdd + B`),
//! * [`linspace`] — uniform sampling helper shared by fits and sweeps.
//!
//! # Examples
//!
//! ```
//! use optpower_numeric::golden_section_min;
//! let m = golden_section_min(|x| (x - 2.0).powi(2), 0.0, 5.0, 1e-12)?;
//! assert!((m.x - 2.0).abs() < 1e-6);
//! # Ok::<(), optpower_numeric::NumericError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fit;
mod minimize;
mod roots;

pub use fit::{fit_line, LineFit};
pub use minimize::{first_min, golden_section_min, grid_min, grid_points, Minimum};
pub use roots::{bisect, brent};

use core::fmt;

/// Errors produced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// The supplied bracket `[a, b]` does not satisfy the routine's
    /// precondition (e.g. `a >= b`, or no sign change for root finding).
    InvalidBracket {
        /// Lower end of the offending bracket.
        a: f64,
        /// Upper end of the offending bracket.
        b: f64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The iteration limit was reached before the tolerance was met.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The objective or its inputs produced a non-finite value.
    NonFinite,
    /// Not enough samples to perform the requested fit.
    InsufficientData {
        /// Samples provided.
        got: usize,
        /// Samples required.
        need: usize,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidBracket { a, b, reason } => {
                write!(f, "invalid bracket [{a}, {b}]: {reason}")
            }
            Self::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            Self::NonFinite => write!(f, "objective produced a non-finite value"),
            Self::InsufficientData { got, need } => {
                write!(f, "insufficient data: got {got} samples, need {need}")
            }
        }
    }
}

impl std::error::Error for NumericError {}

/// `n` uniformly spaced samples covering `[a, b]` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` — a "range" of fewer than two samples is a logic
/// error at every call site in this workspace.
///
/// # Examples
///
/// ```
/// let xs = optpower_numeric::linspace(0.0, 1.0, 5);
/// assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(a: f64, b: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "linspace requires at least 2 samples, got {n}");
    let step = (b - a) / (n - 1) as f64;
    (0..n)
        .map(|i| if i == n - 1 { b } else { a + step * i as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_exact() {
        let xs = linspace(0.3, 1.0, 701);
        assert_eq!(xs.len(), 701);
        assert_eq!(xs[0], 0.3);
        assert_eq!(*xs.last().unwrap(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn linspace_rejects_single_sample() {
        let _ = linspace(0.0, 1.0, 1);
    }

    #[test]
    fn error_display_is_informative() {
        let e = NumericError::InvalidBracket {
            a: 1.0,
            b: 0.0,
            reason: "a >= b",
        };
        assert!(e.to_string().contains("invalid bracket"));
        assert!(NumericError::NonFinite.to_string().contains("non-finite"));
    }
}
