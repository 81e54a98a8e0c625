//! Differential harness locking the static analyses to the timed
//! engine they describe:
//!
//! * **window soundness** — every event the event-wheel engine pops
//!   (stale preempted ones included) lies inside the static arrival
//!   window [`TimingAnalysis`] computed for its net, with exact `u64`
//!   comparisons on the shared stride time base;
//! * **glitch-bound soundness** — per cell, the engine's counted
//!   known↔known transitions over `C` cycles never exceed
//!   `C × bound` from [`GlitchProfile`];
//! * on the full 13-architecture multiplier suite, the aggregated
//!   static activity bound dominates the *measured* pooled timed
//!   activity, and the static glitch factor dominates the measured
//!   one;
//! * **golden names** — the cell and net names a pruned generator
//!   netlist prints through Verilog, DOT, VCD and lint are byte-stable.

use optpower_mult::Architecture;
use optpower_netlist::{to_dot, to_verilog, CellKind, Library, Netlist, NetlistBuilder};
use optpower_sim::{measure_activity, Engine, TimedSim, VcdRecorder, ZeroDelaySim};
use optpower_sta::{GlitchProfile, LintReport, LintRule, TimingAnalysis};
use proptest::prelude::*;

/// Builds a random mixed combinational/sequential DAG with `a` and `b`
/// input buses of two bits each, gate kinds and fan-ins drawn from
/// `picks`, and the last four nets exposed as the `p` output bus —
/// the same generator shape `tests/timed_differential.rs` uses.
fn random_netlist(picks: &[(u8, u32, u32, u32)]) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut nets = Vec::new();
    for i in 0..2 {
        nets.push(b.add_input(format!("a{i}")));
    }
    for i in 0..2 {
        nets.push(b.add_input(format!("b{i}")));
    }
    for &(kind_ix, x, y, z) in picks {
        let kinds = [
            CellKind::Buf,
            CellKind::Inv,
            CellKind::And2,
            CellKind::Nand2,
            CellKind::Or2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Mux2,
            CellKind::Xor3,
            CellKind::Maj3,
            CellKind::Dff,
        ];
        let kind = kinds[kind_ix as usize % kinds.len()];
        let pick = |v: u32| nets[v as usize % nets.len()];
        let ins: Vec<_> = match kind.arity() {
            1 => vec![pick(x)],
            2 => vec![pick(x), pick(y)],
            _ => vec![pick(x), pick(y), pick(z)],
        };
        nets.push(b.add_cell(kind, &ins));
    }
    for (i, net) in nets.iter().rev().take(4).enumerate() {
        b.add_output(format!("p{i}"), *net);
    }
    b.build().expect("random DAG is valid by construction")
}

/// Runs the recording timed engine over `stimulus`, asserting every
/// popped event against the static window of its net, and returns the
/// per-cell transition counters for the glitch-bound check.
fn drive_and_check_windows(
    nl: &Netlist,
    lib: &Library,
    sta: &TimingAnalysis,
    stimulus: &[u64],
) -> Vec<u64> {
    let mut sim = TimedSim::new(nl, lib).expect("cmos13 delays are valid");
    sim.record_events(true);
    for (t, s) in stimulus.iter().enumerate() {
        sim.set_input_bits("a", s & 3);
        sim.set_input_bits("b", (s >> 2) & 3);
        sim.step().expect("acyclic netlists settle");
        for ev in sim.take_events() {
            let (earliest, latest) = sta.window_units(ev.net);
            assert!(
                earliest <= ev.time && ev.time <= latest,
                "cycle {t}: event on {:?} at stride-time {} escapes the \
                 static window [{earliest}, {latest}]",
                ev.net,
                ev.time,
            );
        }
    }
    sim.transitions().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Window + glitch-bound soundness on random netlists: every
    /// engine event sits inside its net's static arrival window, and
    /// no cell's transition count exceeds `cycles × bound`.
    #[test]
    fn events_stay_inside_static_windows(
        picks in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u32>()), 5..40),
        stimulus in prop::collection::vec(any::<u64>(), 3..12),
    ) {
        let nl = random_netlist(&picks);
        let lib = Library::cmos13();
        let sta = TimingAnalysis::analyze(&nl, &lib);
        let glitch = GlitchProfile::compute(&nl, &sta);
        let transitions = drive_and_check_windows(&nl, &lib, &sta, &stimulus);
        let cycles = stimulus.len() as u64;
        for (id, cell) in nl.logic_cells() {
            let bound = glitch.bound(cell.output);
            prop_assert!(
                transitions[id.index()] <= cycles * bound,
                "{:?} ({:?}) toggled {} times in {} cycles, bound {}",
                id, cell.kind, transitions[id.index()], cycles, bound
            );
        }
    }
}

/// Acceptance criterion: on every one of the thirteen multiplier
/// architectures the lint gate passes, every timed-engine event lies
/// inside its static arrival window, per-cell transitions respect the
/// static glitch bound, and the aggregated static numbers dominate
/// the measured ones.
#[test]
fn full_architecture_suite_obeys_static_bounds() {
    let lib = Library::cmos13();
    for arch in Architecture::ALL {
        let design = arch.generate(16).unwrap();
        let nl = &design.netlist;

        // The real generators produce lint-clean-of-errors netlists;
        // the Runtime preflight relies on exactly this.
        let report = LintReport::lint(nl);
        assert!(
            report.gate().is_ok(),
            "{arch}: lint gate rejects a generator netlist: {}",
            report.render_text()
        );

        let sta = TimingAnalysis::analyze(nl, &lib);
        let glitch = GlitchProfile::compute(nl, &sta);

        // Event-level: windows + per-cell bounds over a short run.
        let cycles = 3 * design.cycles_per_item as usize;
        let stimulus: Vec<u64> = (0..cycles as u64).map(|i| i.wrapping_mul(0x9e37)).collect();
        let mut sim = TimedSim::new(nl, &lib).unwrap();
        sim.record_events(true);
        for s in &stimulus {
            sim.set_input_bits("a", *s & 0xffff);
            sim.set_input_bits("b", (*s >> 16) & 0xffff);
            sim.step().unwrap();
            for ev in sim.take_events() {
                let (earliest, latest) = sta.window_units(ev.net);
                assert!(
                    earliest <= ev.time && ev.time <= latest,
                    "{arch}: event on {:?} at {} escapes [{earliest}, {latest}]",
                    ev.net,
                    ev.time,
                );
            }
        }
        let transitions = sim.transitions();
        for (id, cell) in nl.logic_cells() {
            let bound = glitch.bound(cell.output);
            assert!(
                transitions[id.index()] <= cycles as u64 * bound,
                "{arch}: {id:?} ({:?}) toggled {} times in {cycles} cycles, bound {bound}",
                cell.kind,
                transitions[id.index()],
            );
        }

        // Aggregate: the static activity bound is a hard ceiling on
        // the measured per-item timed activity, and (empirically, on
        // this suite) the static glitch factor dominates the measured
        // a(timed)/a(zero-delay) ratio.
        let timed =
            measure_activity(nl, &lib, Engine::Timed, 8, design.cycles_per_item, 2, 7).unwrap();
        let bound_per_item = glitch.mean_cell_bound() * f64::from(design.cycles_per_item);
        assert!(
            timed.activity <= bound_per_item + 1e-9,
            "{arch}: measured activity {} exceeds static bound {}",
            timed.activity,
            bound_per_item
        );
        let zd = measure_activity(
            nl,
            &lib,
            Engine::BitParallel,
            8,
            design.cycles_per_item,
            2,
            7,
        )
        .unwrap();
        let measured_factor = timed.activity / zd.activity;
        assert!(
            glitch.static_glitch_factor() + 1e-9 >= measured_factor,
            "{arch}: static factor {} below measured {}",
            glitch.static_glitch_factor(),
            measured_factor
        );
    }
}

/// A deliberately dirty netlist on which every one of the seven lint
/// rules fires at least once:
///
/// * `a0`/`a2` with no `a1` — width-hazard (L007);
/// * `dup = Xor2(a0, a0)` — arity-hazard (L006);
/// * `fold = And2(const1, const0)` — constant-foldable (L003);
/// * `qx = Dff(qx)` self-loop — x-source (L004, the one error);
/// * `hub = Inv(x0)` fanning out to nine buffers — fanout-outlier
///   (L005; the hub is a logic cell because input-driven nets are
///   exempt from the rule);
/// * `dead1 → dead2` chain reaching no endpoint — two
///   unreachable-cells (L001), with `dead2`'s sink-less output net the
///   floating-net (L002).
fn dirty_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("dirty");
    let a0 = b.add_input("a0");
    let a2 = b.add_input("a2");
    let x = b.add_input("x0");
    let c1 = b.add_cell(CellKind::Const1, &[]);
    let c0 = b.add_cell(CellKind::Const0, &[]);
    let fold = b.add_cell(CellKind::And2, &[c1, c0]);
    let dup = b.add_cell(CellKind::Xor2, &[a0, a0]);
    let qx = b.add_cell(CellKind::Dff, &[a0]);
    b.rewire(qx, 0, qx);
    let hub = b.add_cell(CellKind::Inv, &[x]);
    let bufs: Vec<_> = (0..9).map(|_| b.add_cell(CellKind::Buf, &[hub])).collect();
    let dead1 = b.add_cell(CellKind::Inv, &[a2]);
    let _dead2 = b.add_cell(CellKind::Buf, &[dead1]);
    b.add_output("p0", fold);
    b.add_output("p1", dup);
    b.add_output("p2", qx);
    for (i, &buf) in bufs.iter().enumerate() {
        b.add_output(format!("p{}", 3 + i), buf);
    }
    b.build().unwrap()
}

/// Golden lint report: on the dirty fixture every rule fires, the
/// x-source gates, and the text rendering is byte-stable
/// (`UPDATE_GOLDENS=1 cargo test -q --test sta_differential`
/// refreshes).
#[test]
fn golden_dirty_lint_report() {
    let report = LintReport::lint(&dirty_netlist());
    for rule in LintRule::ALL {
        assert!(
            report.diagnostics().iter().any(|d| d.rule == rule),
            "rule {} never fired:\n{}",
            rule.id(),
            report.render_text()
        );
    }
    assert_eq!(report.error_count(), 1);
    assert!(report.gate().is_err(), "the x-source must gate");
    golden_compare("tests/golden/dirty_lint.txt", &report.render_text());
}

/// Golden names of the width-4 Wallace tree: pruning drops 6 dead
/// cells, so the surviving auto-named cells carry creation indices
/// that differ from their cell ids. Verilog, DOT and a short
/// zero-delay VCD of the pruned netlist pin the cell and net names it
/// prints; the raw netlist's lint report pins the names its L001/L002
/// diagnostics give the dead cells and their `__o` nets.
#[test]
fn golden_wallace4_names() {
    let nl = Architecture::Wallace.generate(4).unwrap().netlist;
    golden_compare("tests/golden/names/wallace4.v", &to_verilog(&nl));
    golden_compare("tests/golden/names/wallace4.dot", &to_dot(&nl, |_| None));
    let mut sim = ZeroDelaySim::new(&nl);
    let mut vcd = VcdRecorder::all_nets(&nl);
    for i in 0..6u64 {
        sim.set_input_bits("a", (i * 7 + 3) & 0xF);
        sim.set_input_bits("b", (i * 11 + 5) & 0xF);
        sim.step();
        vcd.sample(&sim);
    }
    golden_compare("tests/golden/names/wallace4.vcd", &vcd.finish());
    let raw = Architecture::Wallace.generate_raw(4).unwrap().netlist;
    golden_compare(
        "tests/golden/names/wallace4_raw_lint.txt",
        &LintReport::lint(&raw).render_text(),
    );
}

fn golden_compare(path: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "golden drift at {} (UPDATE_GOLDENS=1 refreshes after intentional changes)",
        path.display()
    );
}
