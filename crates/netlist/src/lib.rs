//! Gate-level structural netlists for the `optpower` ab-initio flow.
//!
//! The paper's architectural parameters (`N`, `a`, `LD`) came from
//! synthesising thirteen VHDL multipliers with Synopsys DC and
//! simulating the netlists in ModelSIM. This crate provides the
//! substrate replacing that flow: a structural netlist representation
//! over a small 0.13 µm-like standard-cell [`Library`], with
//!
//! * a validating [`NetlistBuilder`] (arity checks, single-driver,
//!   no floating nets, combinational-loop detection),
//! * topological traversal of the combinational core,
//! * per-design statistics (cell count, area, average input
//!   capacitance) feeding the power model,
//! * three-valued cell evaluation ([`Logic`], [`CellKind::eval`])
//!   shared with the event-driven simulator.
//!
//! # Examples
//!
//! Build and inspect a full adder:
//!
//! ```
//! use optpower_netlist::{CellKind, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("full_adder");
//! let a = b.add_input("a");
//! let bb = b.add_input("b");
//! let cin = b.add_input("cin");
//! let axb = b.add_cell(CellKind::Xor2, &[a, bb]);
//! let sum = b.add_cell(CellKind::Xor2, &[axb, cin]);
//! let t1 = b.add_cell(CellKind::And2, &[a, bb]);
//! let t2 = b.add_cell(CellKind::And2, &[axb, cin]);
//! let cout = b.add_cell(CellKind::Or2, &[t1, t2]);
//! b.add_output("sum", sum);
//! b.add_output("cout", cout);
//! let nl = b.build()?;
//! assert_eq!(nl.logic_cell_count(), 5);
//! # Ok::<(), optpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod error;
mod export;
mod graph;
mod library;
mod stats;

pub use cell::{CellKind, Logic};
pub use error::NetlistError;
pub use export::{to_dot, to_verilog};
pub use graph::{Cell, CellId, CellName, Net, NetId, Netlist, NetlistBuilder, Pins, PruneStats};
pub use library::{CellSpec, Library};
pub use stats::NetlistStats;
