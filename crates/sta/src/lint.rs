//! Structural netlist lint: seven rules with stable IDs, typed
//! severities and deterministic ordering.
//!
//! The lint pass answers "is this netlist even worth simulating?"
//! before any engine runs. Rules are purely structural — no library,
//! no stimulus — and deterministic: diagnostics are emitted in rule-ID
//! order, and within a rule in cell/net index order, so the rendered
//! report is byte-stable across platforms (golden-tested in
//! `tests/sta_differential.rs`).
//!
//! | id   | name              | severity | fires on |
//! |------|-------------------|----------|----------|
//! | L001 | unreachable-cell  | warning  | cell with no path to any endpoint (primary output or DFF `D` pin) |
//! | L002 | floating-net      | warning  | driven net with no sinks |
//! | L003 | constant-foldable | warning  | combinational cell whose inputs are all (transitively) constant |
//! | L004 | x-source          | **error**| cell unreachable from every primary input / constant: its output can never leave `X` |
//! | L005 | fanout-outlier    | warning  | combinational net with fanout ≥ 8 and > 4× the design's mean fanout (input/const/flop nets exempt) |
//! | L006 | arity-hazard      | warning  | cell with the same net on two pins |
//! | L007 | width-hazard      | warning  | gap in a port bus's bit indices (`a0`, `a2` but no `a1`) |
//!
//! Only `error`-severity diagnostics fail the [`LintReport::gate`]:
//! an X-source drives `X` into the design forever, so every simulated
//! number downstream of it is meaningless. Warnings flag waste
//! (unreachable logic still burns power in the paper's model) or
//! likely generator bugs, but leave results well-defined.

use optpower_netlist::{CellId, CellKind, NetId, Netlist};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious structure; simulation results stay well-defined.
    Warning,
    /// The netlist cannot produce meaningful results.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The seven lint rules. The enum order is the stable rule-ID order
/// diagnostics are reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintRule {
    /// No path from the cell to any endpoint.
    UnreachableCell,
    /// A driven net with no sinks.
    FloatingNet,
    /// A combinational cell with all-constant inputs.
    ConstantFoldable,
    /// A cell no primary input or constant can ever reach: stuck at X.
    XSource,
    /// A net with far more sinks than the rest of the design.
    FanoutOutlier,
    /// The same net wired to two pins of one cell.
    ArityHazard,
    /// A port bus with missing bit indices.
    WidthHazard,
}

impl LintRule {
    /// Every rule, in rule-ID order.
    pub const ALL: [LintRule; 7] = [
        LintRule::UnreachableCell,
        LintRule::FloatingNet,
        LintRule::ConstantFoldable,
        LintRule::XSource,
        LintRule::FanoutOutlier,
        LintRule::ArityHazard,
        LintRule::WidthHazard,
    ];

    /// Stable machine-readable rule ID (`L001`…`L007`).
    pub fn id(self) -> &'static str {
        match self {
            LintRule::UnreachableCell => "L001",
            LintRule::FloatingNet => "L002",
            LintRule::ConstantFoldable => "L003",
            LintRule::XSource => "L004",
            LintRule::FanoutOutlier => "L005",
            LintRule::ArityHazard => "L006",
            LintRule::WidthHazard => "L007",
        }
    }

    /// Human-readable kebab-case rule name.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::UnreachableCell => "unreachable-cell",
            LintRule::FloatingNet => "floating-net",
            LintRule::ConstantFoldable => "constant-foldable",
            LintRule::XSource => "x-source",
            LintRule::FanoutOutlier => "fanout-outlier",
            LintRule::ArityHazard => "arity-hazard",
            LintRule::WidthHazard => "width-hazard",
        }
    }

    /// The rule's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            LintRule::XSource => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

/// One lint finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: LintRule,
    /// Offending cell, if the finding is cell-anchored.
    pub cell: Option<CellId>,
    /// Offending net, if the finding is net-anchored.
    pub net: Option<NetId>,
    /// Human-readable explanation with names and numbers.
    pub message: String,
}

/// The result of linting one netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    name: String,
    cells: usize,
    nets: usize,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Runs all seven rules over the netlist.
    pub fn lint(netlist: &Netlist) -> Self {
        let mut diagnostics = Vec::new();
        unreachable_cells(netlist, &mut diagnostics);
        floating_nets(netlist, &mut diagnostics);
        constant_foldable(netlist, &mut diagnostics);
        x_sources(netlist, &mut diagnostics);
        fanout_outliers(netlist, &mut diagnostics);
        arity_hazards(netlist, &mut diagnostics);
        width_hazards(netlist, &mut diagnostics);
        Self {
            name: netlist.name().to_string(),
            cells: netlist.cells().len(),
            // Cell `i` drives net `i`: one net per cell.
            nets: netlist.cells().len(),
            diagnostics,
        }
    }

    /// Name of the linted netlist.
    pub fn netlist_name(&self) -> &str {
        &self.name
    }

    /// Cell count of the linted netlist.
    pub fn cell_count(&self) -> usize {
        self.cells
    }

    /// Net count of the linted netlist.
    pub fn net_count(&self) -> usize {
        self.nets
    }

    /// All diagnostics, in rule-ID then cell/net index order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.rule.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// No diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The preflight gate: `Ok` unless an error-severity diagnostic
    /// fired. Warnings pass — they flag waste, not wrongness.
    pub fn gate(&self) -> Result<(), &Diagnostic> {
        match self
            .diagnostics
            .iter()
            .find(|d| d.rule.severity() == Severity::Error)
        {
            Some(d) => Err(d),
            None => Ok(()),
        }
    }

    /// Renders the report as stable, human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "lint {}: {} cells, {} nets, {} error(s), {} warning(s)\n",
            self.name,
            self.cells,
            self.nets,
            self.error_count(),
            self.warning_count()
        );
        for d in &self.diagnostics {
            out.push_str(&format!(
                "  {} {} [{}] {}\n",
                d.rule.severity().label(),
                d.rule.id(),
                d.rule.name(),
                d.message
            ));
        }
        if self.diagnostics.is_empty() {
            out.push_str("  clean\n");
        }
        out
    }
}

/// L001: reverse reachability from endpoints over input pins. A cell
/// the walk never visits influences no observable value — dead logic
/// that still burns power in the paper's model.
fn unreachable_cells(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut reached = vec![false; netlist.cells().len()];
    let mut stack: Vec<CellId> = Vec::new();
    for (cell, _) in netlist.endpoints() {
        reached[cell.index()] = true;
        stack.push(cell);
    }
    while let Some(id) = stack.pop() {
        for &pin in &netlist.cell(id).inputs {
            let driver = netlist.net(pin).driver;
            if !reached[driver.index()] {
                reached[driver.index()] = true;
                stack.push(driver);
            }
        }
    }
    for (i, cell) in netlist.cells().iter().enumerate() {
        // Ports are reported by other rules (a dangling input is a
        // floating net, not dead logic).
        if reached[i] || matches!(cell.kind, CellKind::Input | CellKind::Output) {
            continue;
        }
        out.push(Diagnostic {
            rule: LintRule::UnreachableCell,
            cell: Some(CellId(i as u32)),
            net: None,
            message: format!(
                "cell '{}' ({:?}) drives no primary output or flop",
                cell.name, cell.kind
            ),
        });
    }
}

/// L002: a driven net with no sinks. `Output` markers terminate a net
/// by design and are exempt.
fn floating_nets(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    for (i, cell) in netlist.cells().iter().enumerate() {
        let id = NetId(i as u32);
        if netlist.fanout(id).is_empty() && cell.kind != CellKind::Output {
            out.push(Diagnostic {
                rule: LintRule::FloatingNet,
                cell: Some(CellId(i as u32)),
                net: Some(id),
                message: format!("net '{}' has no sinks", netlist.net_name(id)),
            });
        }
    }
}

/// L003: transitive constant propagation. A combinational cell whose
/// inputs are all constant computes a constant — it should be a
/// `Const` cell (or folded away entirely).
fn constant_foldable(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut is_const = vec![false; netlist.cells().len()];
    for &id in netlist.topo_order() {
        let cell = netlist.cell(id);
        is_const[cell.output.index()] = match cell.kind {
            CellKind::Const0 | CellKind::Const1 => true,
            CellKind::Input | CellKind::Dff | CellKind::Output => false,
            _ => !cell.inputs.is_empty() && cell.inputs.iter().all(|p| is_const[p.index()]),
        };
    }
    for (i, cell) in netlist.cells().iter().enumerate() {
        let comb = cell.kind.is_logic() && !cell.kind.is_sequential();
        if comb && !cell.inputs.is_empty() && cell.inputs.iter().all(|p| is_const[p.index()]) {
            out.push(Diagnostic {
                rule: LintRule::ConstantFoldable,
                cell: Some(CellId(i as u32)),
                net: None,
                message: format!(
                    "cell '{}' ({:?}) computes a constant: every input is constant",
                    cell.name, cell.kind
                ),
            });
        }
    }
}

/// L004 (error): forward reachability from primary inputs and
/// constants, through DFFs. A cell outside the closure has *all*
/// inputs forever-X (three-valued eval maps all-X inputs to X for
/// every kind), so its output can never leave X — e.g. a flop
/// rewired into a self-loop with no external driver.
fn x_sources(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut reached = vec![false; netlist.cells().len()];
    let mut stack: Vec<CellId> = Vec::new();
    for (i, cell) in netlist.cells().iter().enumerate() {
        if matches!(
            cell.kind,
            CellKind::Input | CellKind::Const0 | CellKind::Const1
        ) {
            reached[i] = true;
            stack.push(CellId(i as u32));
        }
    }
    while let Some(id) = stack.pop() {
        for &sink in netlist.fanout(netlist.cell(id).output) {
            if !reached[sink.index()] {
                reached[sink.index()] = true;
                stack.push(sink);
            }
        }
    }
    for (i, cell) in netlist.cells().iter().enumerate() {
        // `Output` markers are skipped: an unreached output's driver
        // is in the same unreached closure and already flagged.
        if reached[i]
            || matches!(
                cell.kind,
                CellKind::Input | CellKind::Const0 | CellKind::Const1 | CellKind::Output
            )
        {
            continue;
        }
        out.push(Diagnostic {
            rule: LintRule::XSource,
            cell: Some(CellId(i as u32)),
            net: Some(cell.output),
            message: format!(
                "cell '{}' ({:?}) is fed by no primary input or constant: output is X forever",
                cell.name, cell.kind
            ),
        });
    }
}

/// L005: fanout outliers. Absolute floor of 8 sinks *and* 4× the
/// design mean, so small designs and uniform high-fanout designs
/// (clock-ish nets) don't false-positive. Primary-input, constant and
/// flop-output nets are exempt: an operand bit of a W-bit multiplier
/// inherently feeds ~W partial-product gates whether it arrives on a
/// port or out of a pipeline register, so the load there is a
/// property of the design boundary, not a sign of an accidentally
/// shared *combinational* net — which is what this rule hunts.
fn fanout_outliers(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut total = 0usize;
    let mut driven = 0usize;
    for i in 0..netlist.cells().len() {
        let f = netlist.fanout(NetId(i as u32)).len();
        if f > 0 {
            total += f;
            driven += 1;
        }
    }
    if driven == 0 {
        return;
    }
    for (i, cell) in netlist.cells().iter().enumerate() {
        let id = NetId(i as u32);
        if matches!(
            cell.kind,
            CellKind::Input | CellKind::Const0 | CellKind::Const1 | CellKind::Dff
        ) {
            continue;
        }
        let f = netlist.fanout(id).len();
        // f > 4·mean  ⇔  f·driven > 4·total, in exact integers.
        if f >= 8 && f * driven > 4 * total {
            out.push(Diagnostic {
                rule: LintRule::FanoutOutlier,
                cell: Some(CellId(i as u32)),
                net: Some(id),
                message: format!(
                    "net '{}' drives {} sinks (design mean {:.2})",
                    netlist.net_name(id),
                    f,
                    total as f64 / driven as f64
                ),
            });
        }
    }
}

/// L006: the same net on two pins of one cell. Legal, but for most
/// kinds it degenerates (`Xor2(x, x) = 0`) — usually a generator bug.
fn arity_hazards(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    for (i, cell) in netlist.cells().iter().enumerate() {
        let mut dup: Option<NetId> = None;
        for (a, &pin) in cell.inputs.iter().enumerate() {
            if cell.inputs[..a].contains(&pin) {
                dup = Some(pin);
                break;
            }
        }
        if let Some(pin) = dup {
            out.push(Diagnostic {
                rule: LintRule::ArityHazard,
                cell: Some(CellId(i as u32)),
                net: Some(pin),
                message: format!(
                    "cell '{}' ({:?}) has net '{}' on more than one pin",
                    cell.name,
                    cell.kind,
                    netlist.net_name(pin)
                ),
            });
        }
    }
}

/// L007: bus-index gaps on ports. Port names ending in decimal digits
/// are grouped into buses by prefix; a bus whose indices don't cover
/// `0..=max` has a hole — almost always a width bug in a generator.
fn width_hazards(netlist: &Netlist, out: &mut Vec<Diagnostic>) {
    // (prefix, indices) per port direction, insertion-ordered so the
    // report order follows first appearance.
    let mut buses: Vec<(bool, String, Vec<u32>)> = Vec::new();
    for cell in netlist.cells() {
        let is_input = match cell.kind {
            CellKind::Input => true,
            CellKind::Output => false,
            _ => continue,
        };
        let Some((prefix, index)) = split_bus_name(&cell.name.to_string()) else {
            continue;
        };
        match buses
            .iter_mut()
            .find(|(i, p, _)| *i == is_input && *p == prefix)
        {
            Some((_, _, ixs)) => ixs.push(index),
            None => buses.push((is_input, prefix, vec![index])),
        }
    }
    for (is_input, prefix, mut ixs) in buses {
        ixs.sort_unstable();
        ixs.dedup();
        let max = *ixs.last().expect("bus has at least one bit");
        if ixs.len() as u32 == max + 1 {
            continue;
        }
        let missing: Vec<String> = (0..=max)
            .filter(|i| ixs.binary_search(i).is_err())
            .map(|i| i.to_string())
            .collect();
        out.push(Diagnostic {
            rule: LintRule::WidthHazard,
            cell: None,
            net: None,
            message: format!(
                "{} bus '{}' skips bit index(es) {} (width {})",
                if is_input { "input" } else { "output" },
                prefix,
                missing.join(", "),
                max + 1
            ),
        });
    }
}

/// Splits `a12` into `("a", 12)`; `None` if the name has no trailing
/// digits (scalar ports are not bus bits).
fn split_bus_name(name: &str) -> Option<(String, u32)> {
    let digits = name.len() - name.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 || digits == name.len() {
        return None;
    }
    let (prefix, index) = name.split_at(name.len() - digits);
    index.parse().ok().map(|i| (prefix.to_string(), i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use optpower_netlist::NetlistBuilder;

    fn clean_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("clean");
        let a = b.add_input("a0");
        let c = b.add_input("b0");
        let x = b.add_cell(CellKind::Xor2, &[a, c]);
        let g = b.add_cell(CellKind::And2, &[a, c]);
        b.add_output("p0", x);
        b.add_output("p1", g);
        b.build().unwrap()
    }

    #[test]
    fn clean_netlist_is_clean() {
        let report = LintReport::lint(&clean_netlist());
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.gate().is_ok());
        assert!(report.render_text().contains("clean"));
    }

    #[test]
    fn unreachable_cell_fires() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.add_input("a0");
        let live = b.add_cell(CellKind::Inv, &[a]);
        let dead = b.add_cell(CellKind::Inv, &[live]);
        let _deader = b.add_cell(CellKind::Buf, &[dead]);
        b.add_output("p0", live);
        let report = LintReport::lint(&b.build().unwrap());
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == LintRule::UnreachableCell)
            .collect();
        assert_eq!(hits.len(), 2, "{}", report.render_text());
        assert!(report.gate().is_ok(), "warnings do not gate");
    }

    #[test]
    fn x_source_is_an_error_and_gates() {
        // A flop rewired into a self-loop: no input or constant ever
        // reaches it, so q is X forever.
        let mut b = NetlistBuilder::new("xloop");
        let a = b.add_input("a0");
        let q = b.add_cell(CellKind::Dff, &[a]);
        b.rewire(q, 0, q);
        b.add_output("p0", q);
        let report = LintReport::lint(&b.build().unwrap());
        assert_eq!(report.error_count(), 1, "{}", report.render_text());
        let gate = report.gate().unwrap_err();
        assert_eq!(gate.rule, LintRule::XSource);
    }

    #[test]
    fn fanout_outlier_skips_input_nets() {
        // An input and a flop each feeding nine buffers directly
        // (both exempt: operand bits legitimately broadcast, whether
        // from a port or a pipeline register) and one combinational
        // hub feeding nine more (fires: an internal net with 9 sinks
        // against a low mean is an outlier).
        let mut b = NetlistBuilder::new("fanout");
        let a = b.add_input("a0");
        let q = b.add_cell(CellKind::Dff, &[a]);
        let hub = b.add_cell(CellKind::Inv, &[a]);
        for i in 0..9 {
            let d = b.add_cell(CellKind::Buf, &[a]);
            let r = b.add_cell(CellKind::Buf, &[q]);
            let h = b.add_cell(CellKind::Buf, &[hub]);
            b.add_output(format!("p{i}"), d);
            b.add_output(format!("q{i}"), r);
            b.add_output(format!("r{i}"), h);
        }
        let report = LintReport::lint(&b.build().unwrap());
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == LintRule::FanoutOutlier)
            .collect();
        assert_eq!(hits.len(), 1, "{}", report.render_text());
        assert!(hits[0].message.contains("inv_2__o"), "{}", hits[0].message);
    }

    #[test]
    fn bus_gap_fires() {
        let mut b = NetlistBuilder::new("gap");
        let a0 = b.add_input("a0");
        let a2 = b.add_input("a2");
        let x = b.add_cell(CellKind::Or2, &[a0, a2]);
        b.add_output("p0", x);
        let report = LintReport::lint(&b.build().unwrap());
        let hit = report
            .diagnostics()
            .iter()
            .find(|d| d.rule == LintRule::WidthHazard)
            .expect("gap must fire");
        assert!(hit.message.contains("'a'"), "{}", hit.message);
        assert!(hit.message.contains('1'), "{}", hit.message);
    }

    #[test]
    fn rule_ids_are_stable_and_ordered() {
        let ids: Vec<_> = LintRule::ALL.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            ["L001", "L002", "L003", "L004", "L005", "L006", "L007"]
        );
        let mut sorted = LintRule::ALL;
        sorted.sort();
        assert_eq!(sorted, LintRule::ALL, "enum order is rule-ID order");
    }
}
