//! The netlist graph: cells, nets, builder, validation and traversal.

use std::collections::VecDeque;

use crate::{CellKind, NetlistError};

/// Identifier of a cell within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Identifier of a net within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl CellId {
    /// The cell's index into [`Netlist::cells`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NetId {
    /// The net's index into [`Netlist::nets`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// What the cell is.
    pub kind: CellKind,
    /// Instance name (used in diagnostics and reports).
    pub name: String,
    /// Input nets, in pin order (see [`CellKind`] for pin semantics).
    pub inputs: Vec<NetId>,
    /// The single net this cell drives.
    pub output: NetId,
}

/// One net: a single driver and any number of sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name (derived from the driving cell).
    pub name: String,
    /// The driving cell.
    pub driver: CellId,
}

/// What a dead-cone prune removed, by cell class.
///
/// Produced by [`Netlist::prune_dead_cones`]; the *dead-logic
/// invariant* holds exactly when [`PruneStats::is_identity`] is true.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Cells before the prune (ports and constants included).
    pub cells_before: usize,
    /// Cells after the prune.
    pub cells_after: usize,
    /// Removed combinational logic cells (gates, the paper's `N` minus
    /// flip-flops).
    pub removed_logic: usize,
    /// Removed flip-flops.
    pub removed_dffs: usize,
}

impl PruneStats {
    /// Total cells removed (logic, flip-flops, ports, constants).
    pub fn removed(&self) -> usize {
        self.cells_before - self.cells_after
    }

    /// Whether the prune changed nothing — the netlist already
    /// satisfied the dead-logic invariant.
    pub fn is_identity(&self) -> bool {
        self.removed() == 0
    }
}

/// An immutable, validated gate-level netlist.
///
/// Construct via [`NetlistBuilder`]; validation guarantees:
/// every net has exactly one driver, all pin arities match, and the
/// combinational core (ignoring DFF outputs) is acyclic.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    fanouts: Vec<Vec<CellId>>,
    topo: Vec<CellId>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All cells, indexable by [`CellId`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Cells whose inputs include `net` (the net's sinks).
    pub fn fanout(&self, net: NetId) -> &[CellId] {
        &self.fanouts[net.index()]
    }

    /// Primary-input pseudo-cells, in creation order.
    pub fn primary_inputs(&self) -> &[CellId] {
        &self.primary_inputs
    }

    /// Primary-output pseudo-cells, in creation order.
    pub fn primary_outputs(&self) -> &[CellId] {
        &self.primary_outputs
    }

    /// A topological order of all cells in which every cell appears
    /// after the drivers of its inputs, treating DFF outputs as
    /// sources (their value is state, not a combinational function).
    pub fn topo_order(&self) -> &[CellId] {
        &self.topo
    }

    /// Timing endpoints: `(endpoint cell, sampled net)` for every
    /// primary output and every DFF `D` pin, in cell order. This is
    /// the one definition of *observable* shared by static timing
    /// analysis (endpoint arrivals), lint (reachability from
    /// endpoints) and the simulators (where paths terminate).
    pub fn endpoints(&self) -> impl Iterator<Item = (CellId, NetId)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.kind, CellKind::Output | CellKind::Dff))
            .map(|(i, c)| (CellId(i as u32), c.inputs[0]))
    }

    /// Number of logic cells — the paper's `N` (gates + flip-flops;
    /// ports and constants excluded).
    pub fn logic_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_logic()).count()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_sequential()).count()
    }

    /// Per-cell logic mask, indexable by [`CellId`]: `true` for cells
    /// counted in the paper's `N`. Simulators that count transitions in
    /// their inner write path use this instead of re-classifying the
    /// [`CellKind`] on every event.
    pub fn logic_mask(&self) -> Vec<bool> {
        self.cells.iter().map(|c| c.kind.is_logic()).collect()
    }

    /// Iterator over `(CellId, &Cell)` of logic cells only.
    pub fn logic_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_logic())
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Removes every *sink-less cone*: cells from which no primary
    /// output is reachable through input-pin edges, with flip-flops
    /// traversed transparently (a live DFF keeps its whole `D` cone).
    /// This is the reverse walk the L001 lint rule performs from
    /// [`Netlist::endpoints`], so a pruned netlist lints clean of
    /// unreachable-cell (L001) and floating-net (L002) diagnostics —
    /// the repo's *dead-logic invariant*. Primary inputs are always
    /// kept: the module interface is part of the contract even when a
    /// pin is unused.
    ///
    /// The live cone — every cell, net and pin that can influence a
    /// primary output in any cycle — is untouched (only ids are
    /// renumbered, names are preserved), so simulated output values
    /// and endpoint transition counts are bit-identical, and the pass
    /// is idempotent: pruning a pruned netlist removes nothing.
    ///
    /// Returns the pruned netlist and removal statistics. Generators
    /// should prefer [`NetlistBuilder::build_pruned`], which computes
    /// the same result without building the dead cells' fanout and
    /// topological structures first.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalLoop`] cannot actually occur
    /// (pruning a DAG subset stays acyclic) but the rebuild shares
    /// the validating constructor, so the signature is fallible.
    pub fn prune_dead_cones(&self) -> Result<(Netlist, PruneStats), NetlistError> {
        let live = live_mask(&self.cells);
        let dead = |pred: &dyn Fn(&Cell) -> bool| {
            self.cells
                .iter()
                .enumerate()
                .filter(|&(i, c)| !live[i] && pred(c))
                .count()
        };
        let stats = PruneStats {
            cells_before: self.cells.len(),
            cells_after: live.iter().filter(|&&l| l).count(),
            removed_logic: dead(&|c| c.kind.is_logic() && !c.kind.is_sequential()),
            removed_dffs: dead(&|c| c.kind.is_sequential()),
        };
        if stats.is_identity() {
            return Ok((self.clone(), stats));
        }
        let (cells, nets, primary_inputs, primary_outputs) = compact(
            self.cells.clone(),
            self.nets.clone(),
            self.primary_inputs.clone(),
            self.primary_outputs.clone(),
            &live,
            // A frozen netlist no longer carries the builder's
            // forward-edge flag; assume the worst. This path is not
            // build-time critical.
            true,
        );
        let pruned = finalize(
            self.name.clone(),
            cells,
            nets,
            primary_inputs,
            primary_outputs,
        )?;
        Ok((pruned, stats))
    }

    /// Histogram of cell kinds (for reports and structural tests).
    pub fn kind_histogram(&self) -> Vec<(CellKind, usize)> {
        let mut counts: Vec<(CellKind, usize)> = Vec::new();
        for kind in CellKind::ALL {
            let n = self.cells.iter().filter(|c| c.kind == kind).count();
            if n > 0 {
                counts.push((kind, n));
            }
        }
        counts
    }
}

/// Incremental builder for [`Netlist`]; see the crate-level example.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
    pending_error: Option<NetlistError>,
    /// Whether any pin references a net at or past its own cell — set
    /// by feedback `rewire`s (and fabricated forward ids); lets the
    /// prune compaction skip work in the common feed-forward case.
    has_forward_edges: bool,
}

impl NetlistBuilder {
    /// Starts an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            pending_error: None,
            has_forward_edges: false,
        }
    }

    fn push_cell(&mut self, kind: CellKind, name: String, inputs: Vec<NetId>) -> NetId {
        // Forward net references are allowed here (sequential feedback
        // loops need them); existence is validated in `build`.
        if self.pending_error.is_none() && inputs.len() != kind.arity() {
            self.pending_error = Some(NetlistError::ArityMismatch {
                kind,
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        let cell_id = CellId(self.cells.len() as u32);
        let net_id = NetId(self.nets.len() as u32);
        if inputs.iter().any(|n| n.0 >= net_id.0) {
            self.has_forward_edges = true;
        }
        self.nets.push(Net {
            name: format!("{name}__o"),
            driver: cell_id,
        });
        self.cells.push(Cell {
            kind,
            name,
            inputs,
            output: net_id,
        });
        net_id
    }

    /// Adds a primary input; returns the net it drives.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let net = self.push_cell(CellKind::Input, name.into(), Vec::new());
        let id = self.nets[net.index()].driver;
        self.primary_inputs.push(id);
        net
    }

    /// Adds a logic/constant cell with auto-generated instance name;
    /// returns its output net.
    ///
    /// Arity violations and dangling nets are recorded and reported by
    /// [`NetlistBuilder::build`] — intermediate calls stay infallible
    /// so generators can be written naturally.
    pub fn add_cell(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        let name = format!("{kind}_{}", self.cells.len());
        self.push_cell(kind, name, inputs.to_vec())
    }

    /// Adds a named logic/constant cell; returns its output net.
    pub fn add_named_cell(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
    ) -> NetId {
        self.push_cell(kind, name.into(), inputs.to_vec())
    }

    /// Marks `net` as a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) -> CellId {
        let out_net = self.push_cell(CellKind::Output, name.into(), vec![net]);
        let id = self.nets[out_net.index()].driver;
        self.primary_outputs.push(id);
        id
    }

    /// Number of cells added so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell driving `net`. Cells and their output nets are created
    /// together, so this is a constant-time index identity.
    pub fn driver_of(&self, net: NetId) -> CellId {
        CellId(net.0)
    }

    /// Re-targets input pin `pin` of the cell driving `cell_output` to
    /// `net`. This is the supported way to close sequential feedback
    /// loops: create the DFF with a provisional input, build the logic
    /// that consumes its output, then rewire the D pin.
    ///
    /// # Panics
    ///
    /// Panics if `cell_output` does not name an existing cell or `pin`
    /// is out of range for it — both are generator logic errors.
    pub fn rewire(&mut self, cell_output: NetId, pin: usize, net: NetId) {
        let id = self.driver_of(cell_output);
        let cell = self
            .cells
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("rewire: no cell drives {cell_output:?}"));
        assert!(
            pin < cell.inputs.len(),
            "rewire: pin {pin} out of range for {} ({} pins)",
            cell.name,
            cell.inputs.len()
        );
        if net.0 >= cell_output.0 {
            self.has_forward_edges = true;
        }
        cell.inputs[pin] = net;
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// * any deferred [`NetlistError::ArityMismatch`] /
    ///   [`NetlistError::UnknownNet`] from construction,
    /// * [`NetlistError::Empty`] for a netlist with no cells,
    /// * [`NetlistError::CombinationalLoop`] if the DFF-broken graph
    ///   has no topological order.
    pub fn build(mut self) -> Result<Netlist, NetlistError> {
        self.validate()?;
        finalize(
            self.name,
            self.cells,
            self.nets,
            self.primary_inputs,
            self.primary_outputs,
        )
    }

    /// Validates, prunes every sink-less cone, and freezes the netlist.
    ///
    /// Identical to [`NetlistBuilder::build`] except that cells from
    /// which no primary output is reachable (flip-flops traversed
    /// transparently through their `D` pins) are dropped *before* the
    /// fanout lists and topological order are constructed, so pruning
    /// costs one extra reverse walk rather than a second build. Ports
    /// are always kept. The result satisfies the dead-logic invariant
    /// described on [`Netlist::prune_dead_cones`].
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::build`]; validation runs on the
    /// unpruned netlist, so a dead cone does not hide its own errors.
    pub fn build_pruned(mut self) -> Result<Netlist, NetlistError> {
        self.validate()?;
        let live = live_mask(&self.cells);
        let (cells, nets, primary_inputs, primary_outputs) = if live.iter().all(|&l| l) {
            (
                self.cells,
                self.nets,
                self.primary_inputs,
                self.primary_outputs,
            )
        } else {
            compact(
                self.cells,
                self.nets,
                self.primary_inputs,
                self.primary_outputs,
                &live,
                self.has_forward_edges,
            )
        };
        finalize(self.name, cells, nets, primary_inputs, primary_outputs)
    }

    /// The deferred-error / emptiness / dangling-net checks shared by
    /// [`NetlistBuilder::build`] and [`NetlistBuilder::build_pruned`].
    fn validate(&mut self) -> Result<(), NetlistError> {
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        if self.cells.is_empty() {
            return Err(NetlistError::Empty);
        }
        // All referenced nets (including forward references) must exist.
        for cell in &self.cells {
            if let Some(&bad) = cell.inputs.iter().find(|n| n.index() >= self.nets.len()) {
                return Err(NetlistError::UnknownNet { net: bad });
            }
        }
        Ok(())
    }
}

/// Builds the derived structures (fanout lists, topological order) and
/// freezes validated cell/net vectors into a [`Netlist`].
fn finalize(
    name: String,
    mut cells: Vec<Cell>,
    mut nets: Vec<Net>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
) -> Result<Netlist, NetlistError> {
    // A frozen netlist never grows: drop the builder's doubling slack,
    // up to half of each table.
    cells.shrink_to_fit();
    nets.shrink_to_fit();
    // Fanout lists.
    let mut fanouts: Vec<Vec<CellId>> = vec![Vec::new(); nets.len()];
    for (i, cell) in cells.iter().enumerate() {
        for &input in &cell.inputs {
            fanouts[input.index()].push(CellId(i as u32));
        }
    }

    // Kahn's algorithm on the combinational graph: edges run from a
    // cell to the sinks of its output net, except that DFFs do not
    // propagate combinationally (their output is captured state, so
    // a DFF's D pin is not a dependency of its Q output).
    let n = cells.len();
    let mut indegree = vec![0usize; n];
    for (i, cell) in cells.iter().enumerate() {
        indegree[i] = cell
            .inputs
            .iter()
            .filter(|&&net| !cells[nets[net.index()].driver.index()].kind.is_sequential())
            .count();
    }

    let mut queue: VecDeque<CellId> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| CellId(i as u32))
        .collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        topo.push(id);
        let cell = &cells[id.index()];
        if cell.kind.is_sequential() {
            continue; // edges out of a DFF are not combinational
        }
        for &sink in &fanouts[cell.output.index()] {
            indegree[sink.index()] -= 1;
            if indegree[sink.index()] == 0 {
                queue.push_back(sink);
            }
        }
    }
    if topo.len() != n {
        let witness = (0..n)
            .find(|&i| indegree[i] > 0)
            .map(|i| CellId(i as u32))
            .expect("some cell must remain when topo is incomplete");
        return Err(NetlistError::CombinationalLoop { witness });
    }

    Ok(Netlist {
        name,
        cells,
        nets,
        fanouts,
        topo,
        primary_inputs,
        primary_outputs,
    })
}

/// `live[i]` is true when cell `i` reaches a primary output through
/// input pins (flip-flops traversed transparently — a live DFF keeps
/// its whole D-cone), or is a port cell. This is the same reverse walk
/// the L001 lint rule performs from [`Netlist::endpoints`]: a cell the
/// walk never reaches can influence no primary output in any cycle, so
/// removing it cannot change any observable value.
///
/// Output cells seed the walk; Input cells are kept unconditionally
/// (the module interface is part of the contract) but seed nothing, so
/// logic hanging off an otherwise-unused input is still pruned.
fn live_mask(cells: &[Cell]) -> Vec<bool> {
    // Cells and their output nets are index-aligned pairs (`push_cell`),
    // so the driver of net `pin` is cell `pin` — the walk never has to
    // load the net table at all.
    debug_assert!(
        cells.iter().enumerate().all(|(i, c)| c.output.index() == i),
        "cell/net pairing violated before liveness walk"
    );
    let mut live = vec![false; cells.len()];
    let mut stack: Vec<usize> = Vec::new();
    // One reverse sweep seeds the ports and resolves every backward
    // edge (generators build mostly feed-forward, pins referencing
    // earlier cells); a pin at or past the sweep position — a `rewire`
    // feedback patch — was already visited, so it spills onto a DFS
    // stack instead.
    for i in (0..cells.len()).rev() {
        let cell = &cells[i];
        match cell.kind {
            CellKind::Input => {
                live[i] = true;
                continue;
            }
            CellKind::Output => live[i] = true,
            _ if !live[i] => continue,
            _ => {}
        }
        for &pin in &cell.inputs {
            let driver = pin.index();
            if !live[driver] {
                live[driver] = true;
                if driver >= i {
                    stack.push(driver);
                }
            }
        }
    }
    while let Some(i) = stack.pop() {
        for &pin in &cells[i].inputs {
            let driver = pin.index();
            if !live[driver] {
                live[driver] = true;
                stack.push(driver);
            }
        }
    }
    live
}

/// Drops every dead cell/net pair and renumbers the survivors.
///
/// Cells and their output nets are created as index-aligned pairs
/// (`push_cell`), so one rank map renumbers both id spaces; the
/// pairing (`driver_of` identity) is preserved in the output. Every
/// net referenced by a live cell has a live driver (the walk marked
/// it), and every port is live, so all remaps are defined.
fn compact(
    mut cells: Vec<Cell>,
    mut nets: Vec<Net>,
    mut primary_inputs: Vec<CellId>,
    mut primary_outputs: Vec<CellId>,
    live: &[bool],
    has_forward_edges: bool,
) -> (Vec<Cell>, Vec<Net>, Vec<CellId>, Vec<CellId>) {
    debug_assert!(
        cells.iter().enumerate().all(|(i, c)| c.output.index() == i),
        "cell/net pairing violated before compaction"
    );
    // Ids before the first dead cell are unchanged, so only the tail
    // needs a rank map and shifting — in the generators the dead cells
    // sit in the late reduction/adder stages, which keeps this pass
    // inside the build-time budget (the `prune_build_wallace16` bench
    // row, `speedup_min >= 0.95`).
    let first_dead = live.iter().position(|&l| !l).unwrap_or(cells.len());
    let mut new_id = vec![u32::MAX; cells.len() - first_dead];
    let mut next = first_dead as u32;
    for (i, &keep) in live[first_dead..].iter().enumerate() {
        if keep {
            new_id[i] = next;
            next += 1;
        }
    }
    let remap = |ix: u32| -> u32 {
        if (ix as usize) < first_dead {
            ix
        } else {
            new_id[ix as usize - first_dead]
        }
    };
    // Prefix cells keep their ids and (by pairing) their output nets;
    // only input pins that forward-reference the renumbered tail (a
    // feedback `rewire`) can need rewriting, so the whole scan is
    // skipped when the builder never created a forward edge.
    if has_forward_edges {
        for cell in &mut cells[..first_dead] {
            for pin in &mut cell.inputs {
                *pin = NetId(remap(pin.0));
            }
        }
    }
    // Tail survivors shift down in place; a cell landing at position
    // `p` drives net `p` (the pairing is preserved), so outputs and
    // drivers come straight from the position counter and only input
    // pins go through the rank map.
    let tail_cells = cells.split_off(first_dead);
    for (j, mut cell) in tail_cells.into_iter().enumerate() {
        if live[first_dead + j] {
            for pin in &mut cell.inputs {
                *pin = NetId(remap(pin.0));
            }
            cell.output = NetId(cells.len() as u32);
            cells.push(cell);
        }
    }
    let tail_nets = nets.split_off(first_dead);
    for (j, mut net) in tail_nets.into_iter().enumerate() {
        if live[first_dead + j] {
            net.driver = CellId(nets.len() as u32);
            nets.push(net);
        }
    }
    for id in primary_inputs.iter_mut().chain(primary_outputs.iter_mut()) {
        *id = CellId(remap(id.0));
    }
    (cells, nets, primary_inputs, primary_outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut b = NetlistBuilder::new("half_adder");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let s = b.add_cell(CellKind::Xor2, &[x, y]);
        let c = b.add_cell(CellKind::And2, &[x, y]);
        b.add_output("s", s);
        b.add_output("c", c);
        b.build().unwrap()
    }

    #[test]
    fn counts_and_ports() {
        let nl = half_adder();
        assert_eq!(nl.logic_cell_count(), 2);
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 2);
        assert_eq!(nl.dff_count(), 0);
        assert_eq!(nl.name(), "half_adder");
    }

    #[test]
    fn logic_mask_matches_classification() {
        let nl = half_adder();
        let mask = nl.logic_mask();
        assert_eq!(mask.len(), nl.cells().len());
        for (i, cell) in nl.cells().iter().enumerate() {
            assert_eq!(mask[i], cell.kind.is_logic(), "{}", cell.name);
        }
        assert_eq!(mask.iter().filter(|&&m| m).count(), nl.logic_cell_count());
    }

    #[test]
    fn fanout_lists() {
        let nl = half_adder();
        let x_net = nl.cell(nl.primary_inputs()[0]).output;
        // x feeds both the XOR and the AND.
        assert_eq!(nl.fanout(x_net).len(), 2);
    }

    #[test]
    fn endpoints_are_outputs_and_dff_d_pins() {
        let nl = half_adder();
        let eps: Vec<_> = nl.endpoints().collect();
        // Two primary outputs, no flops.
        assert_eq!(eps.len(), 2);
        for (cell, net) in eps {
            assert_eq!(nl.cell(cell).kind, CellKind::Output);
            assert_eq!(nl.cell(cell).inputs[0], net);
        }
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = half_adder();
        let pos = |id: CellId| {
            nl.topo_order()
                .iter()
                .position(|&c| c == id)
                .expect("cell must appear in topo order")
        };
        for (id, cell) in nl.cells().iter().enumerate() {
            for &input in &cell.inputs {
                let driver = nl.net(input).driver;
                if !nl.cell(driver).kind.is_sequential() {
                    assert!(
                        pos(driver) < pos(CellId(id as u32)),
                        "driver must precede sink"
                    );
                }
            }
        }
    }

    #[test]
    fn arity_error_is_deferred_to_build() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.add_input("x");
        let _ = b.add_cell(CellKind::And2, &[x]); // missing a pin
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_net_detected() {
        let mut b = NetlistBuilder::new("bad");
        let _ = b.add_input("x");
        let _ = b.add_cell(CellKind::Inv, &[NetId(99)]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::UnknownNet { .. }));
    }

    #[test]
    fn empty_netlist_rejected() {
        let err = NetlistBuilder::new("empty").build().unwrap_err();
        assert_eq!(err, NetlistError::Empty);
    }

    #[test]
    fn combinational_loop_detected() {
        // inv1 -> inv2 -> inv1 (a ring oscillator) has no topo order.
        // Build it by wiring inv1's input to inv2's (future) output net:
        // we can't reference a future net, so create the loop with a
        // 2-phase trick: inv2 reads inv1, and we retarget via a cell
        // whose input is its own output — simplest: inv reading itself.
        let mut b = NetlistBuilder::new("loop");
        // Cell 0 will drive net 0; make it read net 0 (itself).
        let net = b.add_cell(CellKind::Buf, &[NetId(0)]);
        assert_eq!(net, NetId(0));
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn dff_breaks_loops() {
        // A DFF in a feedback loop (toggle flop: q -> inv -> d) is legal.
        let mut b = NetlistBuilder::new("toggle");
        // DFF first, reading a net that its own inverted output drives.
        // Build: dff (reads inv output), inv (reads dff output).
        // Order of creation: create dff reading a forward net is not
        // possible; instead create inv reading dff, then dff reading inv:
        // that also needs a forward ref. Use self-loop through DFF:
        // dff output -> inv -> (can't). Instead test: dff whose D is
        // driven by an inv fed by the dff's q, constructed via the
        // two-step builder on indices we know in advance.
        // Cell 0 = dff reads net 1 (inv output); cell 1 = inv reads net 0.
        let d_net = b.push_cell(CellKind::Dff, "t".into(), vec![NetId(1)]);
        let _ = b.push_cell(CellKind::Inv, "n".into(), vec![d_net]);
        let nl = b.build().expect("DFF feedback must be legal");
        assert_eq!(nl.dff_count(), 1);
    }

    #[test]
    fn kind_histogram_counts() {
        let nl = half_adder();
        let hist = nl.kind_histogram();
        let get = |k: CellKind| hist.iter().find(|(kk, _)| *kk == k).map(|(_, n)| *n);
        assert_eq!(get(CellKind::Xor2), Some(1));
        assert_eq!(get(CellKind::And2), Some(1));
        assert_eq!(get(CellKind::Input), Some(2));
        assert_eq!(get(CellKind::Nand2), None);
    }

    #[test]
    fn named_cells_keep_names() {
        let mut b = NetlistBuilder::new("n");
        let x = b.add_input("x");
        let y = b.add_named_cell(CellKind::Inv, "my_inv", &[x]);
        b.add_output("y", y);
        let nl = b.build().unwrap();
        assert!(nl.cells().iter().any(|c| c.name == "my_inv"));
    }

    /// Half adder plus a dead XOR/INV cone hanging off the inputs.
    fn half_adder_with_dead_cone() -> NetlistBuilder {
        let mut b = NetlistBuilder::new("ha_dead");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let s = b.add_cell(CellKind::Xor2, &[x, y]);
        let c = b.add_cell(CellKind::And2, &[x, y]);
        let dead = b.add_named_cell(CellKind::Xor2, "dead_root", &[x, y]);
        let _ = b.add_named_cell(CellKind::Inv, "dead_leaf", &[dead]);
        b.add_output("s", s);
        b.add_output("c", c);
        b
    }

    #[test]
    fn build_pruned_removes_dead_cone() {
        let nl = half_adder_with_dead_cone().build_pruned().unwrap();
        assert_eq!(nl.logic_cell_count(), 2);
        assert!(nl.cells().iter().all(|c| !c.name.starts_with("dead_")));
        // Survivors keep their names; ids are compact and consistent.
        assert!(nl.cells().iter().any(|c| c.kind == CellKind::Xor2));
        for (i, cell) in nl.cells().iter().enumerate() {
            assert_eq!(cell.output.index(), i, "cell/net pairing preserved");
            assert_eq!(nl.net(cell.output).driver, CellId(i as u32));
        }
        // Both ports survive even though the walk starts at outputs only.
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 2);
    }

    #[test]
    fn prune_dead_cones_matches_build_pruned() {
        let builder = half_adder_with_dead_cone();
        let raw = builder.clone().build().unwrap();
        let (pruned, stats) = raw.prune_dead_cones().unwrap();
        let direct = builder.build_pruned().unwrap();
        assert_eq!(pruned.cells(), direct.cells());
        assert_eq!(pruned.nets(), direct.nets());
        assert_eq!(stats.cells_before, raw.cells().len());
        assert_eq!(stats.cells_after, pruned.cells().len());
        assert_eq!(stats.removed(), 2);
        assert_eq!(stats.removed_logic, 2);
        assert_eq!(stats.removed_dffs, 0);
    }

    #[test]
    fn prune_is_idempotent_and_identity_on_clean_netlists() {
        let clean = half_adder();
        let (same, stats) = clean.prune_dead_cones().unwrap();
        assert!(stats.is_identity());
        assert_eq!(same.cells(), clean.cells());

        let (pruned, _) = half_adder_with_dead_cone()
            .build()
            .unwrap()
            .prune_dead_cones()
            .unwrap();
        let (again, stats2) = pruned.prune_dead_cones().unwrap();
        assert!(stats2.is_identity());
        assert_eq!(again.cells(), pruned.cells());
    }

    #[test]
    fn prune_removes_dangling_dff_but_keeps_live_dff_cone() {
        let mut b = NetlistBuilder::new("flops");
        let x = b.add_input("x");
        // Live flop: its Q reaches an output, so its D-cone (the INV)
        // must survive the transparent traversal.
        let inv = b.add_cell(CellKind::Inv, &[x]);
        let q = b.add_named_cell(CellKind::Dff, "live_ff", &[inv]);
        b.add_output("q", q);
        // Dead flop: Q never read, so the DFF and its private AND die.
        let g = b.add_named_cell(CellKind::And2, "dead_and", &[x, q]);
        let _ = b.add_named_cell(CellKind::Dff, "dead_ff", &[g]);
        let raw = b.clone().build().unwrap();
        let (pruned, stats) = raw.prune_dead_cones().unwrap();
        assert_eq!(stats.removed_dffs, 1);
        assert_eq!(stats.removed_logic, 1);
        assert_eq!(pruned.dff_count(), 1);
        assert!(pruned.cells().iter().any(|c| c.name == "live_ff"));
        assert!(pruned.cells().iter().any(|c| c.kind == CellKind::Inv));
        assert!(pruned.cells().iter().all(|c| !c.name.starts_with("dead_")));
        let direct = b.build_pruned().unwrap();
        assert_eq!(direct.cells(), pruned.cells());
    }

    #[test]
    fn build_pruned_still_reports_construction_errors() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.add_input("x");
        let _ = b.add_cell(CellKind::And2, &[x]); // dead AND, but bad arity
        let err = b.build_pruned().unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }
}
