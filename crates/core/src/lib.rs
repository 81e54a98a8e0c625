//! Optimal total power consumption under joint Vdd/Vth scaling.
//!
//! This crate is a faithful implementation of
//! *"Architectural and Technology Influence on the Optimal Total Power
//! Consumption"* (Schuster, Nagel, Piguet, Farine — DATE 2006).
//!
//! For a CMOS circuit that must sustain a throughput frequency `f`,
//! lowering the supply voltage `Vdd` cuts dynamic power quadratically
//! but slows the gates; restoring speed by lowering the threshold
//! voltage `Vth` raises sub-threshold leakage exponentially. Exactly
//! one `(Vdd, Vth)` pair minimises the *total* power. This crate
//! computes that optimum two ways:
//!
//! 1. **Numerically** ([`PowerModel::optimize`]) — minimising the exact
//!    Eq. 1 total power along the timing-closure curve of Eq. 5, as the
//!    paper does for its reference columns;
//! 2. **In closed form** ([`PowerModel::closed_form`]) — the paper's
//!    headline Eq. 13, which agrees with the numerical optimum to
//!    within ±3 % across all thirteen 16-bit multipliers of Table 1.
//!
//! The paper's proprietary calibration inputs (Synopsys/ELDO data) are
//! replaced by [`calibrate`] — an exact reverse-calibration from the
//! published optimal points — and by the ab-initio netlist flow in the
//! companion crates (`optpower-mult`, `optpower-sim`, `optpower-sta`).
//!
//! # Quickstart
//!
//! ```
//! use optpower::{ArchParams, PowerModel};
//! use optpower_tech::{Flavor, Technology};
//! use optpower_units::{Farads, Hertz};
//!
//! // The basic 16-bit ripple-carry array multiplier of Table 1.
//! let arch = ArchParams::builder("RCA")
//!     .cells(608)
//!     .activity(0.5056)
//!     .logical_depth(61.0)
//!     .cap_per_cell(Farads::new(70.5e-15))
//!     .build()?;
//!
//! let model = PowerModel::from_technology(
//!     Technology::stm_cmos09(Flavor::LowLeakage),
//!     arch,
//!     Hertz::new(31.25e6),
//! )?;
//!
//! let opt = model.optimize()?;          // full numerical optimum
//! let cf = model.closed_form()?;        // Eq. 13
//! let err = (cf.ptot.value() - opt.ptot().value()) / opt.ptot().value();
//! // Closed form tracks the numerical optimum to a few percent (the
//! // paper reports ±3 % on its calibrated data; see `reference`).
//! assert!(err.abs() < 0.08);
//! # Ok::<(), optpower::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
pub mod calibrate;
mod closed_form;
mod constraint;
mod error;
mod model;
mod power;
pub mod reference;
mod sensitivity;
pub mod sweep;

pub use arch::{ArchParams, ArchParamsBuilder};
pub use closed_form::ClosedFormSolution;
pub use constraint::TimingConstraint;
pub use error::ModelError;
pub use model::{CoarseGrid, OperatingPoint, OptimizerConfig, PowerModel};
pub use power::PowerBreakdown;
pub use sensitivity::Sensitivities;
