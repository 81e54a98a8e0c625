//! Arrival-*window* propagation and path statistics on the timed
//! engine's exact integer time base.
//!
//! Every arrival is kept as an earliest/latest pair of integer
//! tick/stride units — the same quantization
//! ([`optpower_sim::quantize_delays`]) and the same GCD stride
//! ([`optpower_sim::tick_stride`]) the event-wheel [`TimedSim`]
//! engine runs on — so the static windows are directly comparable to
//! simulated event times with `u64` equality, no epsilon. The
//! differential suite (`tests/sta_differential.rs`) holds the engine
//! to it: every event the timed engine processes lies inside the
//! static window of its net.
//!
//! [`TimedSim`]: optpower_sim::TimedSim

use optpower_netlist::{CellId, CellKind, Library, NetId, Netlist};
use optpower_sim::{quantize_delays, tick_stride, SimError, TICKS_PER_GATE};

/// A reported timing path (for diagnostics and the Figure 3/4 report).
#[derive(Debug, Clone, PartialEq)]
pub struct PathReport {
    /// Cells along the path, start point first.
    pub cells: Vec<CellId>,
    /// Path length in gate units.
    pub length: f64,
}

/// The result of one static timing analysis.
///
/// Windows are computed in integer tick/stride units and converted to
/// normalised gate units (FO4 inverter = 1.0) at the accessor
/// boundary. Start points (primary inputs, constants, DFF outputs)
/// arrive in the degenerate window `[0, 0]` — exactly the tick the
/// timed engine commits them at; every combinational cell adds its
/// quantized library delay to both bounds.
#[derive(Debug, Clone)]
pub struct TimingAnalysis {
    /// Ticks per stride unit (the engine's wheel granularity).
    stride: u64,
    /// Per-cell propagation delay in stride units.
    delay_units: Vec<u64>,
    /// Per-net earliest possible arrival, in stride units.
    earliest: Vec<u64>,
    /// Per-net latest possible arrival, in stride units.
    latest: Vec<u64>,
    /// Latest endpoint arrival (the paper's `LD`), in stride units.
    depth_units: u64,
    /// Earliest endpoint arrival, in stride units.
    shortest_units: u64,
    mean_input_skew: f64,
    critical_endpoint: Option<CellId>,
}

impl TimingAnalysis {
    /// Runs the analysis. Single topological pass; `O(cells + pins)`.
    ///
    /// # Panics
    ///
    /// Panics if a library delay is invalid (not finite, negative, or
    /// above [`optpower_sim::MAX_DELAY_GATES`]); use
    /// [`TimingAnalysis::try_analyze`] for the fallible form. The
    /// built-in libraries are always valid.
    pub fn analyze(netlist: &Netlist, library: &Library) -> Self {
        Self::try_analyze(netlist, library).expect("library delays are valid")
    }

    /// Runs the analysis, surfacing invalid library delays as the same
    /// typed error the timed engine constructor reports.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidDelay`] — precisely when
    /// [`optpower_sim::quantize_delays`] rejects the pair, which
    /// [`optpower_sim::TimedSim::new`] also does; that engine further
    /// refuses a logic cell of zero delay, which the analysis accepts.
    pub fn try_analyze(netlist: &Netlist, library: &Library) -> Result<Self, SimError> {
        let ticks = quantize_delays(netlist, library)?;
        let stride = tick_stride(&ticks);
        let delay_units: Vec<u64> = ticks.iter().map(|&t| t / stride).collect();

        let n_nets = netlist.cells().len();
        let mut earliest = vec![0u64; n_nets];
        let mut latest = vec![0u64; n_nets];

        let mut skew_sum: u128 = 0;
        let mut skew_cells = 0usize;

        for &id in netlist.topo_order() {
            let cell = netlist.cell(id);
            let out = cell.output.index();
            match cell.kind {
                // Timing start points: committed exactly at the cycle
                // edge (tick 0) by the timed engine. A DFF cell may
                // appear after its readers in the topo order (DFF
                // outputs are sources, the cell is ordered by its D
                // pin) — safe here because its window equals the
                // arrays' zero initialization.
                CellKind::Input | CellKind::Const0 | CellKind::Const1 | CellKind::Dff => {
                    earliest[out] = 0;
                    latest[out] = 0;
                }
                // Output markers are transparent.
                CellKind::Output => {
                    let i = cell.inputs[0].index();
                    earliest[out] = earliest[i];
                    latest[out] = latest[i];
                }
                _ => {
                    let d = delay_units[id.index()];
                    let mut in_latest = 0u64;
                    let mut in_earliest = u64::MAX;
                    for &pin in &cell.inputs {
                        in_latest = in_latest.max(latest[pin.index()]);
                        in_earliest = in_earliest.min(earliest[pin.index()]);
                    }
                    if cell.inputs.len() >= 2 {
                        skew_sum += u128::from(in_latest - in_earliest);
                        skew_cells += 1;
                    }
                    earliest[out] = in_earliest + d;
                    latest[out] = in_latest + d;
                }
            }
        }

        // Endpoints: primary outputs and DFF D pins.
        let mut depth_units = 0u64;
        let mut shortest = u64::MAX;
        let mut critical_endpoint = None;
        for (id, net) in netlist.endpoints() {
            let net = net.index();
            // Strict `>` keeps the first (lowest-CellId) endpoint on
            // ties, matching the walk's lowest-id tie-break.
            if latest[net] > depth_units {
                depth_units = latest[net];
                critical_endpoint = Some(id);
            }
            shortest = shortest.min(earliest[net]);
        }
        if shortest == u64::MAX {
            shortest = 0;
        }

        let mean_input_skew = if skew_cells > 0 {
            units_to_gates_u128(skew_sum, stride) / skew_cells as f64
        } else {
            0.0
        };

        Ok(Self {
            stride,
            delay_units,
            earliest,
            latest,
            depth_units,
            shortest_units: shortest,
            mean_input_skew,
            critical_endpoint,
        })
    }

    /// Ticks per stride unit: the granularity both this analysis and
    /// the event-wheel engine express time in. Identical to the
    /// stride `TimedSim::new` derives for the same netlist/library.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// A cell's propagation delay in stride units.
    pub fn delay_units(&self, cell: CellId) -> u64 {
        self.delay_units[cell.index()]
    }

    /// Earliest possible arrival of a net, in stride units.
    pub fn earliest_units(&self, net: NetId) -> u64 {
        self.earliest[net.index()]
    }

    /// Latest possible arrival of a net, in stride units.
    pub fn latest_units(&self, net: NetId) -> u64 {
        self.latest[net.index()]
    }

    /// The arrival window `[earliest, latest]` of a net in stride
    /// units: every event the timed engine ever schedules on this net
    /// falls inside it (locked by `tests/sta_differential.rs`).
    pub fn window_units(&self, net: NetId) -> (u64, u64) {
        (self.earliest[net.index()], self.latest[net.index()])
    }

    /// The paper's logical depth `LD`: the longest start-to-endpoint
    /// combinational path in gate units.
    pub fn logical_depth(&self) -> f64 {
        self.units_to_gates(self.depth_units)
    }

    /// The shortest endpoint path (lower bound of the path spread).
    pub fn shortest_endpoint_path(&self) -> f64 {
        self.units_to_gates(self.shortest_units)
    }

    /// `LD − shortest path`: the global path-delay spread. Larger
    /// spread ⇒ more glitch-prone (Section 4's diagonal-pipeline
    /// observation).
    pub fn path_spread(&self) -> f64 {
        self.units_to_gates(self.depth_units - self.shortest_units.min(self.depth_units))
    }

    /// Mean over multi-input cells of (latest − earliest input
    /// arrival): a local glitch-proneness measure.
    pub fn mean_input_skew(&self) -> f64 {
        self.mean_input_skew
    }

    /// Latest arrival time of a net, in gate units.
    pub fn arrival(&self, net: NetId) -> f64 {
        self.units_to_gates(self.latest[net.index()])
    }

    /// Earliest arrival time of a net, in gate units.
    pub fn min_arrival(&self, net: NetId) -> f64 {
        self.units_to_gates(self.earliest[net.index()])
    }

    /// The endpoint cell of the critical path, if any combinational
    /// path exists.
    pub fn critical_endpoint(&self) -> Option<CellId> {
        self.critical_endpoint
    }

    /// Histogram of endpoint arrival times in `bins` uniform bins over
    /// `[0, logical_depth]`. The spread of this histogram is the
    /// glitch-proneness picture behind the paper's diagonal-pipeline
    /// observation: a wide histogram means wildly unbalanced paths.
    ///
    /// Returns an all-zero histogram for a netlist with no endpoints
    /// or zero depth.
    pub fn arrival_histogram(&self, netlist: &Netlist, bins: usize) -> Vec<usize> {
        let bins = bins.max(1);
        let mut hist = vec![0usize; bins];
        if self.depth_units == 0 {
            return hist;
        }
        for (_, net) in netlist.endpoints() {
            // Exact integer binning: bin = floor(a · bins / depth),
            // clamped so arrival == depth lands in the last bin.
            let a = u128::from(self.latest[net.index()]);
            let ix = (a * bins as u128 / u128::from(self.depth_units)) as usize;
            hist[ix.min(bins - 1)] += 1;
        }
        hist
    }

    /// Reconstructs the critical path by walking back along
    /// worst-arrival pins from the critical endpoint.
    ///
    /// Integer arrivals make the walk total and exact: at each cell
    /// the chosen pin satisfies `latest(pin) + delay == latest(out)`
    /// by `u64` equality (the old `f64` walk needed a NaN-tolerant
    /// comparator and an epsilon assertion). Ties are broken towards
    /// the lowest [`NetId`], so the reported path is deterministic
    /// across platforms.
    pub fn critical_path(&self, netlist: &Netlist, _library: &Library) -> Option<PathReport> {
        let endpoint = self.critical_endpoint?;
        let mut cells = vec![endpoint];
        let mut current = netlist.cell(endpoint).inputs[0];
        loop {
            let driver = netlist.net(current).driver;
            cells.push(driver);
            let cell = netlist.cell(driver);
            let is_start = matches!(
                cell.kind,
                CellKind::Input | CellKind::Const0 | CellKind::Const1 | CellKind::Dff
            );
            if is_start || cell.inputs.is_empty() {
                break;
            }
            // Follow the latest-arriving input; lowest NetId on ties.
            let mut best: Option<NetId> = None;
            for &pin in &cell.inputs {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (a, bb) = (self.latest[pin.index()], self.latest[b.index()]);
                        a > bb || (a == bb && pin.index() < b.index())
                    }
                };
                if better {
                    best = Some(pin);
                }
            }
            current = best.expect("non-start cells have inputs");
            debug_assert_eq!(
                self.latest[current.index()] + self.delay_units[driver.index()],
                self.latest[cell.output.index()],
                "critical-path walk left the worst path"
            );
        }
        cells.reverse();
        Some(PathReport {
            cells,
            length: self.logical_depth(),
        })
    }

    /// Converts stride units to normalised gate units.
    fn units_to_gates(&self, units: u64) -> f64 {
        units_to_gates_u128(u128::from(units), self.stride)
    }
}

/// Stride units → gate units with one rounding at the very end: the
/// integer product `units × stride` is exact in `u128`, so derived
/// `f64` depths match the old per-cell `f64` sums to well below any
/// test tolerance.
fn units_to_gates_u128(units: u128, stride: u64) -> f64 {
    (units * u128::from(stride)) as f64 / TICKS_PER_GATE as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::NetlistBuilder;

    #[test]
    fn chain_depth_is_sum_of_delays() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("chain");
        let x = b.add_input("x0");
        let n1 = b.add_cell(CellKind::Xor2, &[x, x]);
        let n2 = b.add_cell(CellKind::Nand2, &[n1, x]);
        b.add_output("y0", n2);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let expect = lib.delay(CellKind::Xor2) + lib.delay(CellKind::Nand2);
        assert!((sta.logical_depth() - expect).abs() < 1e-12);
    }

    #[test]
    fn dff_cuts_paths() {
        // in -> inv -> DFF -> inv -> out: depth is max(1, 1) = 1 inv,
        // not 2 (the flop restarts timing).
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("cut");
        let x = b.add_input("x0");
        let n1 = b.add_cell(CellKind::Inv, &[x]);
        let q = b.add_cell(CellKind::Dff, &[n1]);
        let n2 = b.add_cell(CellKind::Inv, &[q]);
        b.add_output("y0", n2);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        assert!((sta.logical_depth() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_tree_has_zero_skew() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("bal");
        let i0 = b.add_input("a0");
        let i1 = b.add_input("a1");
        let i2 = b.add_input("a2");
        let i3 = b.add_input("a3");
        let l = b.add_cell(CellKind::And2, &[i0, i1]);
        let r = b.add_cell(CellKind::And2, &[i2, i3]);
        let top = b.add_cell(CellKind::And2, &[l, r]);
        b.add_output("y0", top);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        assert!(sta.mean_input_skew().abs() < 1e-12);
        assert!(sta.path_spread().abs() < 1e-12);
    }

    #[test]
    fn unbalanced_chain_has_skew() {
        // XOR(x, buf(buf(x))): input skew = 2 buffer delays.
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("skew");
        let x = b.add_input("x0");
        let d1 = b.add_cell(CellKind::Buf, &[x]);
        let d2 = b.add_cell(CellKind::Buf, &[d1]);
        let s = b.add_cell(CellKind::Xor2, &[x, d2]);
        b.add_output("y0", s);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        assert!((sta.mean_input_skew() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_reconstruction() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("cp");
        let x = b.add_input("x0");
        let y = b.add_input("x1");
        let slow1 = b.add_cell(CellKind::Xor2, &[x, y]);
        let slow2 = b.add_cell(CellKind::Xor2, &[slow1, y]);
        let fast = b.add_cell(CellKind::Inv, &[x]);
        let top = b.add_cell(CellKind::And2, &[slow2, fast]);
        b.add_output("y0", top);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let path = sta.critical_path(&nl, &lib).unwrap();
        // Path: input -> xor -> xor -> and -> output = 5 cells listed.
        assert_eq!(path.cells.len(), 5);
        assert!((path.length - sta.logical_depth()).abs() < 1e-12);
        // The slow XORs are on it; the fast inverter is not.
        let kinds: Vec<CellKind> = path.cells.iter().map(|&c| nl.cell(c).kind).collect();
        assert_eq!(kinds.iter().filter(|&&k| k == CellKind::Xor2).count(), 2);
        assert!(!kinds.contains(&CellKind::Inv));
    }

    #[test]
    fn critical_path_tie_breaks_to_lowest_net_id() {
        // Two equally slow pins into the endpoint gate: the walk must
        // deterministically pick the lower NetId.
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("tie");
        let x = b.add_input("x0");
        let y = b.add_input("x1");
        let p = b.add_cell(CellKind::Inv, &[x]);
        let q = b.add_cell(CellKind::Inv, &[y]);
        let top = b.add_cell(CellKind::And2, &[q, p]);
        b.add_output("y0", top);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let path = sta.critical_path(&nl, &lib).unwrap();
        // Both inverters arrive together; `p` has the lower net id
        // even though `q` is the first pin.
        assert!(path.cells.contains(&nl.net(p).driver));
        assert!(!path.cells.contains(&nl.net(q).driver));
    }

    #[test]
    fn pure_register_file_has_zero_depth() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("regs");
        let x = b.add_input("x0");
        let q = b.add_cell(CellKind::Dff, &[x]);
        b.add_output("y0", q);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        assert_eq!(sta.logical_depth(), 0.0);
        assert_eq!(sta.path_spread(), 0.0);
        assert_eq!(sta.critical_endpoint(), None);
    }

    #[test]
    fn windows_are_in_engine_units() {
        // Buf chain: windows collapse to points at exact multiples of
        // the buffer delay in stride units.
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("w");
        let x = b.add_input("x0");
        let d1 = b.add_cell(CellKind::Buf, &[x]);
        let d2 = b.add_cell(CellKind::Buf, &[d1]);
        b.add_output("y0", d2);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let buf_units = (lib.delay(CellKind::Buf) * 1000.0).round() as u64 / sta.stride();
        assert_eq!(sta.window_units(x), (0, 0));
        assert_eq!(sta.window_units(d1), (buf_units, buf_units));
        assert_eq!(sta.window_units(d2), (2 * buf_units, 2 * buf_units));
    }

    #[test]
    fn invalid_delays_are_a_typed_error() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.add_input("x0");
        let y = b.add_cell(CellKind::Inv, &[x]);
        b.add_output("y0", y);
        let nl = b.build().unwrap();
        let err = TimingAnalysis::try_analyze(&nl, &Library::with_uniform_delay(f64::NAN));
        assert!(matches!(err, Err(SimError::InvalidDelay { .. })));
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;
    use optpower_netlist::NetlistBuilder;

    #[test]
    fn histogram_counts_endpoints() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("h");
        let x = b.add_input("x0");
        let fast = b.add_cell(CellKind::Inv, &[x]);
        let s1 = b.add_cell(CellKind::Xor2, &[x, fast]);
        let s2 = b.add_cell(CellKind::Xor2, &[s1, x]);
        b.add_output("fast", fast);
        b.add_output("slow", s2);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let hist = sta.arrival_histogram(&nl, 4);
        assert_eq!(hist.iter().sum::<usize>(), 2, "two endpoints");
        // One early endpoint, one in the last bin.
        assert_eq!(hist[3], 1);
        assert_eq!(hist[0], 1);
    }

    #[test]
    fn histogram_of_registers_only_is_zero_depth() {
        let lib = Library::cmos13();
        let mut b = NetlistBuilder::new("r");
        let x = b.add_input("x0");
        let q = b.add_cell(CellKind::Dff, &[x]);
        b.add_output("p0", q);
        let nl = b.build().unwrap();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        assert_eq!(sta.arrival_histogram(&nl, 8), vec![0; 8]);
    }
}
