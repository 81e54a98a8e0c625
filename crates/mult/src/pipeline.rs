//! Stage-tracked pipeline construction.
//!
//! Pipelined generators tag every signal with the pipeline stage it
//! belongs to; combining signals from different stages inserts
//! balancing flip-flops. The [`Pipeliner`] caches delayed versions of
//! each net so a signal consumed by many cells in a later stage is
//! registered once, not once per consumer — matching how registers are
//! drawn across the arrays in the paper's Figures 3 and 4.

use std::collections::HashMap;

use optpower_netlist::{CellKind, NetId, NetlistBuilder};

/// A net tagged with the pipeline stage its value belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Staged {
    /// The carrying net.
    pub(crate) net: NetId,
    /// Pipeline stage (0 = before the first register cut).
    pub(crate) stage: u32,
}

impl Staged {
    /// Tags `net` as belonging to `stage`.
    pub(crate) fn new(net: NetId, stage: u32) -> Self {
        Self { net, stage }
    }
}

/// Inserts and caches stage-balancing flip-flops.
#[derive(Debug, Default)]
pub(crate) struct Pipeliner {
    /// `(source net, target stage) → delayed net`.
    cache: HashMap<(NetId, u32), NetId>,
}

impl Pipeliner {
    /// Creates an empty pipeliner.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Returns `sig`'s net as seen in `target` stage, inserting
    /// `target − sig.stage` flip-flops (cached and shared).
    ///
    /// # Panics
    ///
    /// Panics if `target < sig.stage` — data cannot travel backwards
    /// through a pipeline; that is a generator staging bug.
    pub(crate) fn at(&mut self, b: &mut NetlistBuilder, sig: Staged, target: u32) -> NetId {
        assert!(
            target >= sig.stage,
            "cannot move a stage-{} signal back to stage {target}",
            sig.stage
        );
        let mut net = sig.net;
        for s in sig.stage..target {
            let key = (net, s + 1);
            net = match self.cache.get(&key) {
                Some(&delayed) => delayed,
                None => {
                    let q = b.add_cell(CellKind::Dff, &[net]);
                    self.cache.insert(key, q);
                    q
                }
            };
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stage_is_identity() {
        let mut b = NetlistBuilder::new("t");
        let x = b.add_input("x0");
        let mut p = Pipeliner::new();
        let out = p.at(&mut b, Staged::new(x, 0), 0);
        assert_eq!(out, x);
        assert_eq!(b.cell_count(), 1, "only the input cell");
    }

    #[test]
    fn inserts_one_dff_per_stage() {
        let mut b = NetlistBuilder::new("t");
        let x = b.add_input("x0");
        let mut p = Pipeliner::new();
        let _ = p.at(&mut b, Staged::new(x, 0), 3);
        assert_eq!(b.cell_count(), 1 + 3);
    }

    #[test]
    fn chains_are_shared_between_consumers() {
        let mut b = NetlistBuilder::new("t");
        let x = b.add_input("x0");
        let mut p = Pipeliner::new();
        let d2 = p.at(&mut b, Staged::new(x, 0), 2);
        let d2_again = p.at(&mut b, Staged::new(x, 0), 2);
        let d3 = p.at(&mut b, Staged::new(x, 0), 3);
        assert_eq!(d2, d2_again);
        assert_ne!(d2, d3);
        // 2 DFFs for stage 2, 1 more extending to stage 3.
        assert_eq!(b.cell_count(), 1 + 3);
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn backward_staging_is_a_bug() {
        let mut b = NetlistBuilder::new("t");
        let x = b.add_input("x0");
        let mut p = Pipeliner::new();
        let _ = p.at(&mut b, Staged::new(x, 2), 1);
    }
}
