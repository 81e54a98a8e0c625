//! The netlist graph: cells, nets, builder, validation and traversal.

use core::fmt;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

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
    /// The net's index: net `i` is the output of cell `i`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A cell's input nets in pin order, stored inline in the cell.
///
/// No [`CellKind`] has more than three pins, so the pins never need a
/// heap allocation. `Pins` dereferences to `[NetId]`: index it, iterate
/// it and take its `len` like a slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    // Slots at and past `len` stay `NetId(0)`, so the derived
    // equality compares exactly the pins.
    nets: [NetId; 3],
    len: u8,
}

impl Pins {
    /// Copies up to three pins. The builder records an arity error for
    /// a longer slice before it gets here, so the cut never reaches a
    /// built netlist.
    fn new(pins: &[NetId]) -> Self {
        let mut nets = [NetId(0); 3];
        let len = pins.len().min(nets.len());
        nets[..len].copy_from_slice(&pins[..len]);
        Self {
            nets,
            len: len as u8,
        }
    }

    /// All three slots, each with whether it holds a pin. A hot loop
    /// walks the same three slots for every cell instead of branching
    /// on its arity; it must ignore the slots that hold none.
    fn slots(&self) -> impl Iterator<Item = (NetId, bool)> + '_ {
        let len = usize::from(self.len);
        self.nets
            .iter()
            .enumerate()
            .map(move |(k, &net)| (net, k < len))
    }
}

impl Deref for Pins {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        &self.nets[..usize::from(self.len)]
    }
}

impl DerefMut for Pins {
    fn deref_mut(&mut self) -> &mut [NetId] {
        &mut self.nets[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Pins {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Pins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A cell's instance name.
///
/// A cell added by [`NetlistBuilder::add_cell`] is named
/// `{kind}_{index}`, where `index` is the number of cells created
/// before it. Such a name stores only the kind and the index and keeps
/// the index through pruning, so it can differ from the cell's
/// [`CellId`]. Given names (ports, [`NetlistBuilder::add_named_cell`])
/// are stored as boxed strings.
///
/// Print a name with `Display`. A name equals a `&str`, and another
/// name, exactly when it prints the same text.
#[derive(Clone)]
pub struct CellName(NameRepr);

#[derive(Clone, PartialEq)]
enum NameRepr {
    Auto { kind: CellKind, index: u32 },
    Given(Box<str>),
}

impl CellName {
    fn auto(kind: CellKind, index: u32) -> Self {
        Self(NameRepr::Auto { kind, index })
    }

    fn given(name: String) -> Self {
        Self(NameRepr::Given(name.into_boxed_str()))
    }
}

impl fmt::Display for CellName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            NameRepr::Auto { kind, index } => write!(f, "{kind}_{index}"),
            NameRepr::Given(name) => f.write_str(name),
        }
    }
}

impl fmt::Debug for CellName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            NameRepr::Auto { .. } => write!(f, "\"{self}\""),
            NameRepr::Given(name) => fmt::Debug::fmt(name, f),
        }
    }
}

impl PartialEq<str> for CellName {
    fn eq(&self, other: &str) -> bool {
        /// Consumes the expected text piece by piece as the name prints.
        struct Expect<'a>(&'a str);
        impl fmt::Write for Expect<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Expect(other);
        fmt::write(&mut rest, format_args!("{self}")).is_ok() && rest.0.is_empty()
    }
}

impl PartialEq<&str> for CellName {
    fn eq(&self, other: &&str) -> bool {
        self == *other
    }
}

impl PartialEq for CellName {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (_, NameRepr::Given(name)) => self == &**name,
            (NameRepr::Given(name), _) => other == &**name,
            (auto, other_auto) => auto == other_auto,
        }
    }
}

impl Eq for CellName {}

/// One cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// What the cell is.
    pub kind: CellKind,
    /// Instance name (used in diagnostics and reports).
    pub name: CellName,
    /// Input nets, in pin order (see [`CellKind`] for pin semantics).
    pub inputs: Pins,
    /// The single net this cell drives.
    pub output: NetId,
}

/// One net: a single driver and any number of sinks. Cell `i` drives
/// net `i`, so a net is derived from its id ([`Netlist::net`]), never
/// stored; its name is derived from the driver, see
/// [`Netlist::net_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net {
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
    /// The sinks of net `n` are
    /// `fanout_sinks[fanout_offsets[n]..fanout_offsets[n + 1]]`.
    fanout_offsets: Vec<u32>,
    fanout_sinks: Vec<CellId>,
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

    /// The cell with the given id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id: the output of the cell with the same
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if no cell drives `id`.
    pub fn net(&self, id: NetId) -> Net {
        assert!(id.index() < self.cells.len(), "no cell drives {id:?}");
        Net {
            driver: CellId(id.0),
        }
    }

    /// The name of `net`: its driving cell's name followed by `__o`
    /// (`and2_7__o`, `a0__o`). Net names are derived on each call,
    /// not stored.
    pub fn net_name(&self, net: NetId) -> String {
        format!("{}__o", self.cell(self.net(net).driver).name)
    }

    /// Cells whose inputs include `net` (the net's sinks).
    pub fn fanout(&self, net: NetId) -> &[CellId] {
        let i = net.index();
        &self.fanout_sinks[self.fanout_offsets[i] as usize..self.fanout_offsets[i + 1] as usize]
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
        let liveness =
            Liveness::sweep(&self.cells).expect("a built netlist names only existing nets");
        let dead = |pred: &dyn Fn(&Cell) -> bool| {
            self.cells
                .iter()
                .enumerate()
                .filter(|&(i, c)| !liveness.is_live(i) && pred(c))
                .count()
        };
        let stats = PruneStats {
            cells_before: self.cells.len(),
            cells_after: self.cells.len() - dead(&|_| true),
            removed_logic: dead(&|c| c.kind.is_logic() && !c.kind.is_sequential()),
            removed_dffs: dead(&|c| c.kind.is_sequential()),
        };
        if stats.is_identity() {
            return Ok((self.clone(), stats));
        }
        let mut cells = self.cells.clone();
        let mut primary_inputs = self.primary_inputs.clone();
        let mut primary_outputs = self.primary_outputs.clone();
        let sinks = compact(
            &mut cells,
            &mut primary_inputs,
            &mut primary_outputs,
            liveness,
            // A frozen netlist no longer carries the builder's
            // forward-edge flag; assume the worst. This path is not
            // build-time critical.
            true,
        );
        let pruned = finalize(
            self.name.clone(),
            cells,
            primary_inputs,
            primary_outputs,
            sinks,
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
///
/// Cells and their output nets are created as index-aligned pairs:
/// cell `i` drives net `i`, so the builder keeps only the cells.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    cells: Vec<Cell>,
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
            primary_inputs: Vec::new(),
            primary_outputs: Vec::new(),
            pending_error: None,
            has_forward_edges: false,
        }
    }

    fn push_cell(&mut self, kind: CellKind, name: CellName, inputs: &[NetId]) -> NetId {
        // Forward net references are allowed here (sequential feedback
        // loops need them); existence is validated in `build`.
        if self.pending_error.is_none() && inputs.len() != kind.arity() {
            self.pending_error = Some(NetlistError::ArityMismatch {
                kind,
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        let net_id = NetId(self.cells.len() as u32);
        if inputs.iter().any(|n| n.0 >= net_id.0) {
            self.has_forward_edges = true;
        }
        self.cells.push(Cell {
            kind,
            name,
            inputs: Pins::new(inputs),
            output: net_id,
        });
        net_id
    }

    /// Adds a primary input; returns the net it drives.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let net = self.push_cell(CellKind::Input, CellName::given(name.into()), &[]);
        self.primary_inputs.push(self.driver_of(net));
        net
    }

    /// Adds a logic/constant cell with auto-generated instance name
    /// (`{kind}_{index}`, see [`CellName`]); returns its output net.
    ///
    /// Arity violations and dangling nets are recorded and reported by
    /// [`NetlistBuilder::build`] — intermediate calls stay infallible
    /// so generators can be written naturally.
    pub fn add_cell(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        let name = CellName::auto(kind, self.cells.len() as u32);
        self.push_cell(kind, name, inputs)
    }

    /// Adds a named logic/constant cell; returns its output net.
    pub fn add_named_cell(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[NetId],
    ) -> NetId {
        self.push_cell(kind, CellName::given(name.into()), inputs)
    }

    /// Marks `net` as a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) -> CellId {
        let out_net = self.push_cell(CellKind::Output, CellName::given(name.into()), &[net]);
        let id = self.driver_of(out_net);
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
        self.check_deferred()?;
        self.check_nets()?;
        let sinks = sink_counts(&self.cells);
        finalize(
            self.name,
            self.cells,
            self.primary_inputs,
            self.primary_outputs,
            sinks,
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
        self.check_deferred()?;
        // The liveness sweep reads every pin, so it stands in for the
        // dangling-net scan of `build`; only when it meets a pin that
        // names no net does the scan run, to report the first such pin
        // in cell order.
        let Some(liveness) = Liveness::sweep(&self.cells) else {
            return Err(self
                .check_nets()
                .expect_err("the liveness sweep met a pin that names no net"));
        };
        let sinks = compact(
            &mut self.cells,
            &mut self.primary_inputs,
            &mut self.primary_outputs,
            liveness,
            self.has_forward_edges,
        );
        finalize(
            self.name,
            self.cells,
            self.primary_inputs,
            self.primary_outputs,
            sinks,
        )
    }

    /// The deferred-error and emptiness checks shared by
    /// [`NetlistBuilder::build`] and [`NetlistBuilder::build_pruned`].
    fn check_deferred(&mut self) -> Result<(), NetlistError> {
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        if self.cells.is_empty() {
            return Err(NetlistError::Empty);
        }
        Ok(())
    }

    /// All referenced nets (including forward references) must exist;
    /// net `i` exists exactly when cell `i` does. Reports the first
    /// pin, in cell order, that names no net.
    fn check_nets(&self) -> Result<(), NetlistError> {
        for cell in &self.cells {
            if let Some(&bad) = cell.inputs.iter().find(|n| n.index() >= self.cells.len()) {
                return Err(NetlistError::UnknownNet { net: bad });
            }
        }
        Ok(())
    }
}

/// The number of pins that read each net, then one zero: the sink
/// counts `finalize` takes.
fn sink_counts(cells: &[Cell]) -> Vec<u32> {
    let mut sinks = vec![0u32; cells.len() + 1];
    for cell in cells {
        for &pin in &cell.inputs {
            sinks[pin.index()] += 1;
        }
    }
    sinks
}

/// Derives the fanout and the topological order of validated,
/// index-aligned cells and freezes them into a [`Netlist`].
/// `sinks` are the cells' [`sink_counts`]; a pruned build has them
/// from its liveness sweep.
fn finalize(
    name: String,
    mut cells: Vec<Cell>,
    primary_inputs: Vec<CellId>,
    primary_outputs: Vec<CellId>,
    sinks: Vec<u32>,
) -> Result<Netlist, NetlistError> {
    debug_assert_eq!(
        sinks,
        sink_counts(&cells),
        "sink counts disagree with the pins"
    );
    // A frozen netlist never grows: drop the builder's doubling slack,
    // up to half of the table.
    cells.shrink_to_fit();

    // Fanout as one CSR table: turn the sink counts into running ends,
    // then walk the pins backwards, moving each net's end down to its
    // start while filling its range. The backward walk leaves every
    // range in cell order, then pin order.
    let mut fanout_offsets = sinks;
    let mut end = 0;
    for offset in &mut fanout_offsets {
        end += *offset;
        *offset = end;
    }
    let mut fanout_sinks = vec![CellId(0); end as usize];
    for (i, cell) in cells.iter().enumerate().rev() {
        for &pin in cell.inputs.iter().rev() {
            let slot = &mut fanout_offsets[pin.index()];
            *slot -= 1;
            fanout_sinks[*slot as usize] = CellId(i as u32);
        }
    }

    let mut netlist = Netlist {
        name,
        cells,
        fanout_offsets,
        fanout_sinks,
        topo: Vec::new(),
        primary_inputs,
        primary_outputs,
    };
    netlist.topo = topo_order(&netlist)?;
    Ok(netlist)
}

/// Kahn's algorithm on the combinational graph: edges run from a cell
/// to the sinks of its output net, except that DFFs do not propagate
/// combinationally (their output is captured state, so a DFF's D pin is
/// not a dependency of its Q output).
fn topo_order(netlist: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let cells = netlist.cells();
    let n = cells.len();
    // The driver of net `pin` is cell `pin` (index-aligned pairs).
    let mut indegree: Vec<usize> = cells
        .iter()
        .map(|cell| {
            cell.inputs
                .iter()
                .filter(|&&pin| !cells[pin.index()].kind.is_sequential())
                .count()
        })
        .collect();

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
        for &sink in netlist.fanout(cell.output) {
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
    Ok(topo)
}

/// What the liveness sweep found in a cell table.
///
/// Cell `i` is *live* when it reaches a primary output through input
/// pins (flip-flops traversed transparently — a live DFF keeps its
/// whole D-cone), or is a port cell. This is the same reverse walk the
/// L001 lint rule performs from [`Netlist::endpoints`]: a cell the walk
/// never reaches can influence no primary output in any cycle, so
/// removing it cannot change any observable value.
struct Liveness {
    /// `sinks[i]` is [`DEAD`] for a dead cell and otherwise counts the
    /// pins of live cells that read net `i`; one zero follows. Once
    /// the dead cells are gone these are the survivors' [`sink_counts`].
    sinks: Vec<u32>,
    /// No cell before this index is dead.
    first_dead: usize,
}

/// The [`Liveness::sinks`] entry of a dead cell.
const DEAD: u32 = u32::MAX;

impl Liveness {
    /// Sweeps index-aligned cells. Output cells seed the walk; Input
    /// cells are kept unconditionally (the module interface is part of
    /// the contract) but seed nothing, so logic hanging off an
    /// otherwise-unused input is still pruned.
    ///
    /// The sweep reads every pin of every cell and returns `None` if
    /// one names no net.
    fn sweep(cells: &[Cell]) -> Option<Self> {
        // Cells and their output nets are index-aligned pairs
        // (`push_cell`), so the driver of net `pin` is cell `pin`.
        debug_assert!(
            cells.iter().enumerate().all(|(i, c)| c.output.index() == i),
            "cell/net pairing violated before liveness walk"
        );
        let n = cells.len();
        let mut counts = vec![0u32; n + 1];
        // One entry per net: the sweep never indexes the trailing zero,
        // and with the slice's length in sight the compiler drops the
        // bounds checks it can prove.
        let sinks = &mut counts[..n];
        let mut first_dead = n;
        let mut stack: Vec<usize> = Vec::new();
        // One reverse sweep resolves every backward edge (generators
        // build mostly feed-forward, pins referencing earlier cells):
        // the sweep has yet to reach such a driver, so counting the
        // sink is all it takes. A pin at or past the sweep position —
        // a `rewire` feedback patch — reaches a cell already passed;
        // if that cell was passed as dead, it is live after all and
        // spills onto a DFS stack, which visits it as the sweep would
        // have.
        for (i, cell) in cells.iter().enumerate().rev() {
            // No live cell reads this one (yet): it is dead, unless a
            // feedback pin met later in the sweep revives it.
            if sinks[i] == 0 && !matches!(cell.kind, CellKind::Input | CellKind::Output) {
                if cell.inputs.iter().any(|pin| pin.index() >= n) {
                    return None;
                }
                sinks[i] = DEAD;
                first_dead = i;
                continue;
            }
            for (pin, used) in cell.inputs.slots() {
                let driver = pin.index();
                if driver < i {
                    sinks[driver] += u32::from(used);
                } else if used {
                    if driver >= n {
                        return None;
                    }
                    if sinks[driver] == DEAD {
                        sinks[driver] = 0;
                        stack.push(driver);
                    }
                    sinks[driver] += 1;
                }
            }
        }
        // The sweep has checked every pin, so the stack's are in range.
        while let Some(i) = stack.pop() {
            for &pin in &cells[i].inputs {
                let driver = pin.index();
                if sinks[driver] == DEAD {
                    sinks[driver] = 0;
                    stack.push(driver);
                }
                sinks[driver] += 1;
            }
        }
        Some(Self {
            sinks: counts,
            first_dead,
        })
    }

    fn is_live(&self, cell: usize) -> bool {
        self.sinks[cell] != DEAD
    }
}

/// Drops every dead cell, renumbers the survivors in place and returns
/// their sink counts.
///
/// Cells and their output nets are index-aligned pairs (`push_cell`),
/// so one rank map renumbers both id spaces, and `finalize` derives
/// the net table from the compacted cells. Every net referenced by a
/// live cell has a live driver (the walk reached it), and every port is
/// live, so all remaps are defined.
fn compact(
    cells: &mut Vec<Cell>,
    primary_inputs: &mut [CellId],
    primary_outputs: &mut [CellId],
    liveness: Liveness,
    has_forward_edges: bool,
) -> Vec<u32> {
    let Liveness {
        mut sinks,
        first_dead,
    } = liveness;
    if first_dead == cells.len() {
        return sinks;
    }
    // Ids before the first dead cell are unchanged, so only the tail
    // needs a rank map and moving — in the generators the dead cells
    // sit in the late reduction/adder stages, which keeps this pass
    // inside the build-time budget (the `prune_build_wallace16` bench
    // row, `speedup_min >= 0.95`).
    let mut next = first_dead as u32;
    let new_id: Vec<u32> = sinks[first_dead..cells.len()]
        .iter()
        .map(|&count| {
            let id = next;
            next += u32::from(count != DEAD);
            id
        })
        .collect();
    let remap = |ix: u32| match (ix as usize).checked_sub(first_dead) {
        Some(tail) => new_id[tail],
        None => ix,
    };
    // Prefix cells keep their ids and (by pairing) their output nets;
    // only pins that point forward into the renumbered tail (a feedback
    // `rewire`) can need rewriting, so the scan is skipped when the
    // builder never created a forward edge.
    if has_forward_edges {
        for cell in &mut cells[..first_dead] {
            for pin in cell.inputs.iter_mut() {
                *pin = NetId(remap(pin.0));
            }
        }
    }
    // Tail survivors move down in order, swapping the dead cells
    // behind them; `truncate` then drops the dead. A cell landing at
    // position `p` drives net `p`: the pairing holds, and its sink
    // count moves with it.
    let mut kept = first_dead;
    for i in first_dead..cells.len() {
        if sinks[i] != DEAD {
            cells.swap(kept, i);
            sinks[kept] = sinks[i];
            let cell = &mut cells[kept];
            for pin in cell.inputs.iter_mut() {
                *pin = NetId(remap(pin.0));
            }
            cell.output = NetId(kept as u32);
            kept += 1;
        }
    }
    cells.truncate(kept);
    sinks.truncate(kept);
    sinks.push(0);
    for id in primary_inputs.iter_mut().chain(primary_outputs.iter_mut()) {
        *id = CellId(remap(id.0));
    }
    sinks
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
    fn fanout_lists_cells_in_order_once_per_pin() {
        let mut b = NetlistBuilder::new("fan");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let d = b.add_cell(CellKind::Xor2, &[x, x]);
        let e = b.add_cell(CellKind::And2, &[y, x]);
        b.add_output("d", d);
        b.add_output("e", e);
        let nl = b.build().unwrap();
        assert_eq!(nl.fanout(x), [CellId(2), CellId(2), CellId(3)]);
        assert_eq!(nl.fanout(y), [CellId(3)]);
        assert_eq!(nl.fanout(d), [CellId(4)]);
        assert!(nl.fanout(NetId(4)).is_empty());
    }

    #[test]
    fn names_print_and_compare_as_text() {
        let mut b = NetlistBuilder::new("names");
        let x = b.add_input("x");
        let g = b.add_cell(CellKind::Xor2, &[x, x]);
        let h = b.add_named_cell(CellKind::Inv, "xor2_1", &[g]);
        b.add_output("p", h);
        let nl = b.build().unwrap();
        let [port, auto, given, _] = nl.cells() else {
            panic!("four cells")
        };
        assert_eq!(auto.name.to_string(), "xor2_1");
        assert_eq!(format!("{:?}", auto.name), "\"xor2_1\"");
        assert_eq!(format!("{:?}", port.name), "\"x\"");
        assert_eq!(auto.name, "xor2_1");
        assert_ne!(auto.name, "xor2_10");
        assert_ne!(auto.name, "xor2_");
        assert_ne!(auto.name, "xor2_01");
        assert_eq!(auto.name, given.name, "equal text, different storage");
        assert_ne!(auto.name, port.name);
        assert_eq!(nl.net_name(x), "x__o");
        assert_eq!(nl.net_name(g), "xor2_1__o");
    }

    #[test]
    fn pins_are_an_inline_slice() {
        let mut b = NetlistBuilder::new("pins");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let m = b.add_cell(CellKind::Mux2, &[x, y, x]);
        b.add_output("m", m);
        let nl = b.build().unwrap();
        let mux = &nl.cell(CellId(2)).inputs;
        assert_eq!(**mux, [x, y, x]);
        assert_eq!(format!("{mux:?}"), "[NetId(0), NetId(1), NetId(0)]");
        assert!(nl.cell(CellId(0)).inputs.is_empty());
        #[cfg(target_pointer_width = "64")]
        {
            assert!(std::mem::size_of::<Cell>() <= 40);
            assert_eq!(std::mem::size_of::<Net>(), 4);
        }
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

        // One pin too many: the deferred error counts the caller's pins.
        let mut b = NetlistBuilder::new("bad");
        let x = b.add_input("x");
        let _ = b.add_cell(CellKind::Xor3, &[x, x, x, x]);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            NetlistError::ArityMismatch {
                kind: CellKind::Xor3,
                expected: 3,
                got: 4,
            }
        );
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
        let d_net = b.add_named_cell(CellKind::Dff, "t", &[NetId(1)]);
        let _ = b.add_named_cell(CellKind::Inv, "n", &[d_net]);
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
        assert!(nl
            .cells()
            .iter()
            .all(|c| c.name != "dead_root" && c.name != "dead_leaf"));
        // Survivors keep their names; ids are compact and consistent.
        assert!(nl.cells().iter().any(|c| c.kind == CellKind::Xor2));
        for (i, cell) in nl.cells().iter().enumerate() {
            assert_eq!(cell.output.index(), i, "cell/net pairing preserved");
            assert_eq!(nl.net(cell.output).driver, CellId(i as u32));
        }
        // Both ports survive even though the walk starts at outputs only.
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 2);
        // The dead cells' pins leave the fanout with them.
        assert_eq!(nl.fanout(NetId(0)), [CellId(2), CellId(3)]);
        assert_eq!(nl.fanout(NetId(2)), [CellId(4)]);
    }

    #[test]
    fn prune_follows_feedback_edges() {
        // A toggle flop closed by `rewire`: the sweep passes its D logic
        // before it learns that the flop reads it. Beside it, a flop
        // ring that no output observes.
        let mut b = NetlistBuilder::new("feedback");
        let x = b.add_input("x");
        let q = b.add_named_cell(CellKind::Dff, "ff", &[x]);
        let t = b.add_named_cell(CellKind::Xor2, "t", &[x, q]);
        b.rewire(q, 0, t);
        let ring = b.add_named_cell(CellKind::Dff, "ring", &[x]);
        let ring_n = b.add_named_cell(CellKind::Inv, "ring_n", &[ring]);
        b.rewire(ring, 0, ring_n);
        b.add_output("q", q);
        let (pruned, stats) = b.clone().build().unwrap().prune_dead_cones().unwrap();
        assert_eq!((stats.removed_dffs, stats.removed_logic), (1, 1));
        let nl = b.build_pruned().unwrap();
        assert_eq!(nl.cells(), pruned.cells());
        let names: Vec<String> = nl.cells().iter().map(|c| c.name.to_string()).collect();
        assert_eq!(names, ["x", "ff", "t", "q"]);
        assert_eq!(*nl.cell(CellId(1)).inputs, [t]);
        assert_eq!(nl.fanout(q), [CellId(2), CellId(3)]);
        assert_eq!(nl.fanout(t), [CellId(1)]);
    }

    #[test]
    fn prune_dead_cones_matches_build_pruned() {
        let builder = half_adder_with_dead_cone();
        let raw = builder.clone().build().unwrap();
        let (pruned, stats) = raw.prune_dead_cones().unwrap();
        let direct = builder.build_pruned().unwrap();
        assert_eq!(pruned.cells(), direct.cells());
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
        assert!(pruned
            .cells()
            .iter()
            .all(|c| c.name != "dead_and" && c.name != "dead_ff"));
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

        // Both builds report the first pin, in cell order, that names
        // no net, here one of a dead cell.
        let dangling = || {
            let mut b = NetlistBuilder::new("bad");
            let x = b.add_input("x");
            let _ = b.add_cell(CellKind::Inv, &[NetId(99)]);
            let y = b.add_cell(CellKind::And2, &[x, NetId(98)]);
            b.add_output("y", y);
            b
        };
        let first = NetlistError::UnknownNet { net: NetId(99) };
        assert_eq!(dangling().build().unwrap_err(), first);
        assert_eq!(dangling().build_pruned().unwrap_err(), first);
    }
}
