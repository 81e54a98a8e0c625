//! Netlist exporters: structural Verilog and Graphviz DOT.
//!
//! The Verilog export makes the generated multipliers consumable by
//! external tools (iverilog, yosys); the DOT export renders the
//! pipeline structures the paper draws in Figures 3/4.

use std::fmt::{self, Write as _};

use crate::{CellKind, Netlist};

/// Sanitises an instance/net name into a Verilog-safe identifier.
fn ident(name: impl fmt::Display) -> String {
    let mut out: String = name
        .to_string()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Emits the netlist as structural Verilog-2001.
///
/// Gates map to Verilog primitives or `assign` expressions; DFFs to a
/// positive-edge `always` block on a generated `clk` port. Primary
/// inputs/outputs become module ports (scalar, in creation order).
///
/// # Examples
///
/// ```
/// use optpower_netlist::{to_verilog, CellKind, NetlistBuilder};
/// let mut b = NetlistBuilder::new("inv");
/// let x = b.add_input("x0");
/// let y = b.add_cell(CellKind::Inv, &[x]);
/// b.add_output("y0", y);
/// let v = to_verilog(&b.build()?);
/// assert!(v.contains("module inv"));
/// assert!(v.contains("assign"));
/// # Ok::<(), optpower_netlist::NetlistError>(())
/// ```
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut v = String::new();
    let has_dff = netlist.dff_count() > 0;
    let net_name = |id: crate::NetId| format!("n{}", id.index());

    // Ports.
    let inputs: Vec<String> = netlist
        .primary_inputs()
        .iter()
        .map(|&c| ident(&netlist.cell(c).name))
        .collect();
    let outputs: Vec<String> = netlist
        .primary_outputs()
        .iter()
        .map(|&c| ident(&netlist.cell(c).name))
        .collect();
    let mut ports: Vec<String> = Vec::new();
    if has_dff {
        ports.push("clk".to_string());
    }
    ports.extend(inputs.iter().cloned());
    ports.extend(outputs.iter().cloned());
    let _ = writeln!(
        v,
        "// generated by optpower-netlist\nmodule {} ({});",
        ident(netlist.name()),
        ports.join(", ")
    );
    if has_dff {
        let _ = writeln!(v, "  input clk;");
    }
    for name in &inputs {
        let _ = writeln!(v, "  input {name};");
    }
    for name in &outputs {
        let _ = writeln!(v, "  output {name};");
    }

    // Internal wires and registers.
    for (i, cell) in netlist.cells().iter().enumerate() {
        let n = net_name(crate::NetId(i as u32));
        match cell.kind {
            CellKind::Dff => {
                let _ = writeln!(v, "  reg {n};");
            }
            CellKind::Output => {}
            _ => {
                let _ = writeln!(v, "  wire {n};");
            }
        }
    }

    // Cell bodies.
    for cell in netlist.cells() {
        let o = net_name(cell.output);
        let arg = |k: usize| net_name(cell.inputs[k]);
        match cell.kind {
            CellKind::Input => {
                let _ = writeln!(v, "  assign {o} = {};", ident(&cell.name));
            }
            CellKind::Output => {
                let _ = writeln!(v, "  assign {} = {};", ident(&cell.name), arg(0));
            }
            CellKind::Const0 => {
                let _ = writeln!(v, "  assign {o} = 1'b0;");
            }
            CellKind::Const1 => {
                let _ = writeln!(v, "  assign {o} = 1'b1;");
            }
            CellKind::Buf => {
                let _ = writeln!(v, "  assign {o} = {};", arg(0));
            }
            CellKind::Inv => {
                let _ = writeln!(v, "  assign {o} = ~{};", arg(0));
            }
            CellKind::And2 => {
                let _ = writeln!(v, "  assign {o} = {} & {};", arg(0), arg(1));
            }
            CellKind::Nand2 => {
                let _ = writeln!(v, "  assign {o} = ~({} & {});", arg(0), arg(1));
            }
            CellKind::Or2 => {
                let _ = writeln!(v, "  assign {o} = {} | {};", arg(0), arg(1));
            }
            CellKind::Nor2 => {
                let _ = writeln!(v, "  assign {o} = ~({} | {});", arg(0), arg(1));
            }
            CellKind::Xor2 => {
                let _ = writeln!(v, "  assign {o} = {} ^ {};", arg(0), arg(1));
            }
            CellKind::Xnor2 => {
                let _ = writeln!(v, "  assign {o} = ~({} ^ {});", arg(0), arg(1));
            }
            CellKind::Xor3 => {
                let _ = writeln!(v, "  assign {o} = {} ^ {} ^ {};", arg(0), arg(1), arg(2));
            }
            CellKind::Maj3 => {
                let (x, y, z) = (arg(0), arg(1), arg(2));
                let _ = writeln!(v, "  assign {o} = ({x} & {y}) | ({x} & {z}) | ({y} & {z});");
            }
            CellKind::Mux2 => {
                let _ = writeln!(v, "  assign {o} = {} ? {} : {};", arg(2), arg(1), arg(0));
            }
            CellKind::Dff => {
                let _ = writeln!(v, "  always @(posedge clk) {o} <= {};", arg(0));
            }
        }
    }
    let _ = writeln!(v, "endmodule");
    v
}

/// Emits the netlist as a Graphviz DOT digraph, optionally clustering
/// cells by a caller-provided grouping (used to draw pipeline stages
/// like the paper's Figures 3/4).
///
/// The `group_of` closure maps each cell index to a cluster id; return
/// `None` for ungrouped cells (ports are always ungrouped).
pub fn to_dot(netlist: &Netlist, group_of: impl Fn(usize) -> Option<u32>) -> String {
    let mut d = String::new();
    let _ = writeln!(d, "digraph \"{}\" {{", ident(netlist.name()));
    let _ = writeln!(d, "  rankdir=LR; node [shape=box, fontsize=9];");

    // Group cells into clusters.
    let mut clusters: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    let mut loose: Vec<usize> = Vec::new();
    for i in 0..netlist.cells().len() {
        match group_of(i) {
            Some(g) if netlist.cells()[i].kind.is_logic() => {
                clusters.entry(g).or_default().push(i);
            }
            _ => loose.push(i),
        }
    }
    let node = |i: usize| -> String {
        let cell = &netlist.cells()[i];
        format!("  c{i} [label=\"{}\\n{}\"];", cell.kind, ident(&cell.name))
    };
    for (g, members) in &clusters {
        let _ = writeln!(d, "  subgraph cluster_{g} {{ label=\"stage {g}\";");
        for &i in members {
            let _ = writeln!(d, "  {}", node(i));
        }
        let _ = writeln!(d, "  }}");
    }
    for &i in &loose {
        let _ = writeln!(d, "{}", node(i));
    }
    // Edges: driver cell -> sink cell per net.
    for (i, cell) in netlist.cells().iter().enumerate() {
        for &input in &cell.inputs {
            let driver = netlist.net(input).driver;
            let _ = writeln!(d, "  c{} -> c{i};", driver.index());
        }
    }
    let _ = writeln!(d, "}}");
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample-2x");
        let x = b.add_input("a0");
        let y = b.add_input("b0");
        let s = b.add_cell(CellKind::Xor2, &[x, y]);
        let c = b.add_cell(CellKind::And2, &[x, y]);
        let q = b.add_cell(CellKind::Dff, &[c]);
        let m = b.add_cell(CellKind::Mux2, &[s, q, y]);
        let z = b.add_cell(CellKind::Const0, &[]);
        let w = b.add_cell(CellKind::Maj3, &[m, z, s]);
        b.add_output("p0", w);
        b.build().unwrap()
    }

    #[test]
    fn verilog_has_module_ports_and_clk() {
        let v = to_verilog(&sample());
        assert!(v.contains("module sample_2x (clk, a0, b0, p0);"));
        assert!(v.contains("input clk;"));
        assert!(v.contains("always @(posedge clk)"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn verilog_expressions_cover_kinds() {
        let v = to_verilog(&sample());
        assert!(v.contains(" ^ "));
        assert!(v.contains(" & "));
        assert!(v.contains(" ? "));
        assert!(v.contains("1'b0"));
    }

    #[test]
    fn verilog_without_dff_has_no_clk() {
        let mut b = NetlistBuilder::new("comb");
        let x = b.add_input("a0");
        let y = b.add_cell(CellKind::Inv, &[x]);
        b.add_output("p0", y);
        let v = to_verilog(&b.build().unwrap());
        assert!(!v.contains("clk"));
    }

    #[test]
    fn verilog_identifier_sanitisation() {
        assert_eq!(ident("rca hor.pipe2"), "rca_hor_pipe2");
        assert_eq!(ident("4bit"), "_4bit");
    }

    #[test]
    fn dot_contains_clusters_and_edges() {
        let nl = sample();
        let d = to_dot(&nl, |i| if i < 4 { Some(0) } else { Some(1) });
        assert!(d.starts_with("digraph"));
        assert!(d.contains("subgraph cluster_0"));
        assert!(d.contains("subgraph cluster_1"));
        assert!(d.contains("->"));
        assert!(d.ends_with("}\n"));
    }

    #[test]
    fn dot_ungrouped_mode() {
        let nl = sample();
        let d = to_dot(&nl, |_| None);
        assert!(!d.contains("subgraph"));
        // One node statement per cell.
        assert_eq!(d.matches("[label=").count(), nl.cells().len(),);
    }
}
