//! The thirteen 16-bit multiplier architectures of Schuster et al.
//! (DATE 2006), generated as gate-level netlists.
//!
//! | family | variants |
//! |--------|----------|
//! | RCA array | basic, horizontal pipeline ×2/×4 (Fig. 3), diagonal pipeline ×2/×4 (Fig. 4), parallel ×2/×4 |
//! | Wallace tree | basic, parallel ×2/×4 |
//! | Sequential | add-and-shift, 4×16 Wallace, parallel ×2 |
//!
//! [`Architecture`] is the way in: each one generates a
//! [`MultiplierDesign`], the netlist plus the protocol metadata
//! (`cycles_per_item`, `ld_scale`) needed to convert simulator/STA
//! measurements into the paper's architectural parameters (`a` per
//! data period, effective `LD` per throughput period). The adders,
//! pipeliner and per-family generators behind it are private.
//!
//! # Examples
//!
//! ```
//! use optpower_mult::Architecture;
//!
//! let design = Architecture::Wallace.generate(16)?;
//! assert!(design.netlist.logic_cell_count() > 500);
//! assert_eq!(design.cycles_per_item, 1);
//! # Ok::<(), optpower_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adders;
mod array;
mod parallel;
mod pipeline;
mod sequential;
mod wallace;

use array::PipelineStyle;
use optpower_netlist::{Netlist, NetlistBuilder, NetlistError};
use parallel::CoreKind;

/// The thirteen multiplier architectures of Table 1, in table order.
/// The default is the first row, the basic RCA.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Basic ripple-carry array.
    #[default]
    Rca,
    /// RCA replicated ×2 with round-robin distribution.
    RcaParallel2,
    /// RCA replicated ×4.
    RcaParallel4,
    /// RCA with 2 horizontal pipeline stages (Figure 3).
    RcaHorPipe2,
    /// RCA with 4 horizontal pipeline stages.
    RcaHorPipe4,
    /// RCA with 2 diagonal pipeline stages (Figure 4).
    RcaDiagPipe2,
    /// RCA with 4 diagonal pipeline stages.
    RcaDiagPipe4,
    /// Basic Wallace tree.
    Wallace,
    /// Wallace replicated ×2.
    WallaceParallel2,
    /// Wallace replicated ×4.
    WallaceParallel4,
    /// Add-and-shift sequential (width internal cycles per item).
    Sequential,
    /// Sequential adding 4 partial products per cycle ("4_16 Wallace").
    Seq4Wallace,
    /// Two interleaved sequential cores.
    SeqParallel,
}

impl Architecture {
    /// All architectures in the paper's Table 1 order.
    pub const ALL: [Architecture; 13] = [
        Architecture::Rca,
        Architecture::RcaParallel2,
        Architecture::RcaParallel4,
        Architecture::RcaHorPipe2,
        Architecture::RcaHorPipe4,
        Architecture::RcaDiagPipe2,
        Architecture::RcaDiagPipe4,
        Architecture::Wallace,
        Architecture::WallaceParallel2,
        Architecture::WallaceParallel4,
        Architecture::Sequential,
        Architecture::Seq4Wallace,
        Architecture::SeqParallel,
    ];

    /// The architecture's name as printed in Table 1.
    pub fn paper_name(self) -> &'static str {
        match self {
            Self::Rca => "RCA",
            Self::RcaParallel2 => "RCA parallel",
            Self::RcaParallel4 => "RCA parallel 4",
            Self::RcaHorPipe2 => "RCA hor.pipe2",
            Self::RcaHorPipe4 => "RCA hor.pipe4",
            Self::RcaDiagPipe2 => "RCA diagpipe2",
            Self::RcaDiagPipe4 => "RCA diagpipe4",
            Self::Wallace => "Wallace",
            Self::WallaceParallel2 => "Wallace parallel",
            Self::WallaceParallel4 => "Wallace par4",
            Self::Sequential => "Sequential",
            Self::Seq4Wallace => "Seq4_16",
            Self::SeqParallel => "Seq parallel",
        }
    }

    /// Looks an architecture up by its Table 1 name (the inverse of
    /// [`Architecture::paper_name`]) — the wire-format spelling used
    /// by declarative job specs.
    pub fn from_paper_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|a| a.paper_name() == name)
    }

    /// The widest operand any generator accepts: the simulators drive
    /// operands through `u64` buses and the product needs
    /// `2 × width` bits.
    pub const MAX_WIDTH: usize = 32;

    /// Whether [`Architecture::generate`] accepts `width` for this
    /// architecture (instead of panicking): the array and tree
    /// families take any width ≥ 2, the sequential family needs a
    /// power of two ≥ 4 (≥ 8 for the 4-per-cycle core). Widths above
    /// [`Architecture::MAX_WIDTH`] are rejected everywhere.
    pub fn supports_width(self, width: usize) -> bool {
        if width > Self::MAX_WIDTH {
            return false;
        }
        match self {
            Self::Sequential | Self::SeqParallel => width >= 4 && width.is_power_of_two(),
            Self::Seq4Wallace => width >= 8 && width.is_power_of_two(),
            _ => width >= 2,
        }
    }

    /// Whether the generated netlist has a `rst` input bus: the
    /// round-robin distributors of the parallel variants and the
    /// controllers of the sequential family do. Activity measurements
    /// pulse it during their first warm-up item, so these designs need
    /// at least two warm-up items.
    pub fn has_reset(self) -> bool {
        matches!(
            self,
            Self::RcaParallel2
                | Self::RcaParallel4
                | Self::WallaceParallel2
                | Self::WallaceParallel4
                | Self::Sequential
                | Self::Seq4Wallace
                | Self::SeqParallel
        )
    }

    /// Generates the `width × width` instance of this architecture.
    ///
    /// Every generated netlist satisfies the *dead-logic invariant*:
    /// sink-less cones are pruned at build time
    /// ([`optpower_netlist::NetlistBuilder::build_pruned`]), so no
    /// instantiated cell is unreachable from a product bit and the
    /// power model charges only logic that can toggle an output. Use
    /// [`Architecture::generate_raw`] to reproduce the unpruned form.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from netlist validation.
    ///
    /// # Panics
    ///
    /// Panics on widths unsupported by the specific generator (the
    /// sequential family needs a power of two ≥ 4; everything in the
    /// paper uses 16).
    pub fn generate(self, width: usize) -> Result<MultiplierDesign, NetlistError> {
        self.with_netlist(width, self.builder(width).build_pruned()?)
    }

    /// Generates the *raw* (as-emitted, pre-prune) instance: the same
    /// generator output as [`Architecture::generate`] but without the
    /// dead-cone prune, so Wallace/Seq-family netlists still carry
    /// their historical unconsumed cells. Exists for before/after
    /// comparisons (the prune-delta artifact) and build benchmarks —
    /// analyses should use [`Architecture::generate`].
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from netlist validation.
    ///
    /// # Panics
    ///
    /// Same width contract as [`Architecture::generate`].
    pub fn generate_raw(self, width: usize) -> Result<MultiplierDesign, NetlistError> {
        self.with_netlist(width, self.builder(width).build()?)
    }

    /// The raw netlist builder for this architecture.
    fn builder(self, width: usize) -> NetlistBuilder {
        let w = width;
        match self {
            Self::Rca => array::rca_builder(w),
            Self::RcaParallel2 => parallel::parallelized_builder(w, 2, CoreKind::Rca),
            Self::RcaParallel4 => parallel::parallelized_builder(w, 4, CoreKind::Rca),
            Self::RcaHorPipe2 => array::rca_pipelined_builder(w, 2, PipelineStyle::Horizontal),
            Self::RcaHorPipe4 => array::rca_pipelined_builder(w, 4, PipelineStyle::Horizontal),
            Self::RcaDiagPipe2 => array::rca_pipelined_builder(w, 2, PipelineStyle::Diagonal),
            Self::RcaDiagPipe4 => array::rca_pipelined_builder(w, 4, PipelineStyle::Diagonal),
            Self::Wallace => wallace::wallace_builder(w),
            Self::WallaceParallel2 => parallel::parallelized_builder(w, 2, CoreKind::Wallace),
            Self::WallaceParallel4 => parallel::parallelized_builder(w, 4, CoreKind::Wallace),
            Self::Sequential => sequential::sequential_builder(w),
            Self::Seq4Wallace => sequential::sequential_4_wallace_builder(w),
            Self::SeqParallel => sequential::sequential_parallel_builder(w),
        }
    }

    /// Attaches the protocol metadata to a built netlist.
    fn with_netlist(
        self,
        width: usize,
        netlist: Netlist,
    ) -> Result<MultiplierDesign, NetlistError> {
        let w = width;
        let (cycles_per_item, ld_scale) = match self {
            Self::RcaParallel2 | Self::WallaceParallel2 => (1, 0.5),
            Self::RcaParallel4 | Self::WallaceParallel4 => (1, 0.25),
            Self::Sequential => (w as u32, w as f64),
            Self::Seq4Wallace => ((w / 4) as u32, (w / 4) as f64),
            Self::SeqParallel => (w as u32, (w / 2) as f64),
            _ => (1, 1.0),
        };
        Ok(MultiplierDesign {
            arch: self,
            width: w,
            netlist,
            cycles_per_item,
            ld_scale,
        })
    }
}

impl core::fmt::Display for Architecture {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A generated multiplier plus the protocol metadata needed to map
/// measurements onto the paper's architectural parameters.
#[derive(Debug, Clone)]
pub struct MultiplierDesign {
    /// Which architecture this is.
    pub arch: Architecture,
    /// Operand width in bits.
    pub width: usize,
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// Clock cycles consumed per data item (sequential designs run an
    /// internal clock faster than the data clock).
    pub cycles_per_item: u32,
    /// Multiplier applied to the netlist's STA depth to obtain the
    /// *effective* logical depth relative to the throughput period:
    /// `> 1` for sequential designs (the per-cycle path repeats), `< 1`
    /// for parallelised designs (multi-cycle paths get `k` periods).
    pub ld_scale: f64,
}

impl MultiplierDesign {
    /// Effective logical depth per throughput period given the raw STA
    /// critical path of [`MultiplierDesign::netlist`].
    pub fn effective_logical_depth(&self, sta_depth: f64) -> f64 {
        sta_depth * self.ld_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_architectures() {
        assert_eq!(Architecture::ALL.len(), 13);
        let names: std::collections::HashSet<&str> =
            Architecture::ALL.iter().map(|a| a.paper_name()).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn paper_name_round_trips() {
        for arch in Architecture::ALL {
            assert_eq!(Architecture::from_paper_name(arch.paper_name()), Some(arch));
        }
        assert_eq!(Architecture::from_paper_name("no such design"), None);
    }

    #[test]
    fn supported_widths_generate_cleanly() {
        // The glitch sweep's operand-width axis: every width an
        // architecture claims to support must actually generate.
        for arch in Architecture::ALL {
            for width in [8usize, 16, 24, 32] {
                if arch.supports_width(width) {
                    let d = arch
                        .generate(width)
                        .unwrap_or_else(|e| panic!("{arch} @{width}: {e}"));
                    assert_eq!(d.width, width);
                }
            }
        }
        // 24 bits: fine for arrays/trees, rejected for the sequential
        // family (power-of-two requirement) instead of panicking.
        assert!(Architecture::Rca.supports_width(24));
        assert!(Architecture::Wallace.supports_width(24));
        assert!(!Architecture::Sequential.supports_width(24));
        assert!(!Architecture::Seq4Wallace.supports_width(4));
        assert!(!Architecture::Rca.supports_width(64));
    }

    /// `has_reset` is a hand-written list; the generators decide which
    /// netlists carry a `rst` bus. They must agree at every width an
    /// architecture accepts.
    #[test]
    fn has_reset_matches_the_generated_rst_bus() {
        for arch in Architecture::ALL {
            for width in (0..=32).filter(|&w| arch.supports_width(w)) {
                let design = arch
                    .generate(width)
                    .unwrap_or_else(|e| panic!("{arch} @{width}: {e}"));
                let has_rst = !optpower_sim::bus_inputs(&design.netlist, "rst").is_empty();
                assert_eq!(arch.has_reset(), has_rst, "{arch} @{width}");
            }
        }
    }

    #[test]
    fn all_generate_at_width_16() {
        for arch in Architecture::ALL {
            let d = arch.generate(16).unwrap_or_else(|e| panic!("{arch}: {e}"));
            assert!(d.netlist.logic_cell_count() > 50, "{arch}");
            assert_eq!(d.width, 16);
        }
    }

    #[test]
    fn sequential_family_is_smallest() {
        // Table 1: sequential N=290 is the smallest design.
        let n = |a: Architecture| a.generate(16).unwrap().netlist.logic_cell_count();
        let seq = n(Architecture::Sequential);
        for arch in [
            Architecture::Rca,
            Architecture::Wallace,
            Architecture::RcaParallel2,
            Architecture::WallaceParallel2,
        ] {
            assert!(seq < n(arch), "{arch}");
        }
    }

    #[test]
    fn ld_scales() {
        assert_eq!(
            Architecture::Sequential.generate(16).unwrap().ld_scale,
            16.0
        );
        assert_eq!(
            Architecture::Seq4Wallace.generate(16).unwrap().ld_scale,
            4.0
        );
        assert_eq!(
            Architecture::SeqParallel.generate(16).unwrap().ld_scale,
            8.0
        );
        assert_eq!(
            Architecture::RcaParallel4.generate(16).unwrap().ld_scale,
            0.25
        );
        assert_eq!(Architecture::Rca.generate(16).unwrap().ld_scale, 1.0);
    }

    #[test]
    fn effective_depth_applies_scale() {
        let d = Architecture::RcaParallel2.generate(16).unwrap();
        assert!((d.effective_logical_depth(60.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Architecture::Seq4Wallace.to_string(), "Seq4_16");
        assert_eq!(Architecture::RcaHorPipe2.to_string(), "RCA hor.pipe2");
    }
}
