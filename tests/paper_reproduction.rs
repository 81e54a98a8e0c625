//! Integration tests asserting the paper's headline claims end to end,
//! across the calibrated reproduction path.

use optpower::calibrate::{build_model, from_breakdown};
use optpower::reference::{PAPER_FREQUENCY, TABLE1};
use optpower::{ArchParams, PowerModel};
use optpower_tech::{Flavor, Linearization, Technology};
use optpower_units::{Farads, SquareMicrons, Volts, Watts};

fn calibrated_model(row_index: usize) -> PowerModel {
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let row = &TABLE1[row_index];
    let cal = from_breakdown(
        &tech,
        Volts::new(row.vdd),
        Volts::new(row.vth),
        Watts::new(row.pdyn_uw * 1e-6),
        Watts::new(row.pstat_uw * 1e-6),
        f64::from(row.cells),
        row.activity,
        PAPER_FREQUENCY,
    )
    .expect("published rows calibrate");
    let arch = ArchParams::builder(row.name)
        .cells(row.cells)
        .activity(row.activity)
        .logical_depth(row.ld_eff)
        .cap_per_cell(Farads::new(1e-15))
        .area(SquareMicrons::new(row.area_um2))
        .build()
        .expect("published rows are valid");
    build_model(tech, arch, PAPER_FREQUENCY, cal).expect("model builds")
}

/// The headline claim: Eq. 13 matches the full numerical optimisation
/// within ±3 % on every one of the thirteen multipliers.
#[test]
fn eq13_error_below_three_percent_on_all_thirteen() {
    for (i, row) in TABLE1.iter().enumerate() {
        let model = calibrated_model(i);
        let num = model.optimize().expect("optimum exists");
        let cf = model.closed_form().expect("closed form defined");
        let err = (num.ptot().value() - cf.ptot.value()) / cf.ptot.value() * 100.0;
        assert!(
            err.abs() < 3.5,
            "{}: Eq.13 error {err:.2}% (paper printed {:.2}%)",
            row.name,
            row.eq13_err_pct
        );
    }
}

/// Our Eq. 13 values match the paper's printed Eq. 13 column.
#[test]
fn eq13_column_matches_printed_values() {
    for (i, row) in TABLE1.iter().enumerate() {
        let cf = calibrated_model(i).closed_form().expect("defined");
        let ours = cf.ptot.value() * 1e6;
        let rel = (ours - row.eq13_uw) / row.eq13_uw;
        assert!(
            rel.abs() < 0.03,
            "{}: Eq13 {ours:.2} vs printed {:.2} ({:.2}%)",
            row.name,
            row.eq13_uw,
            rel * 100.0
        );
    }
}

/// The published linearisation constants are recovered by the fit.
#[test]
fn published_a_b_constants_recovered() {
    let lin = Linearization::fit_paper_range(1.86).expect("fits");
    assert!((lin.a() - 0.671).abs() < 0.005, "A = {}", lin.a());
    assert!((lin.b() - 0.347).abs() < 0.005, "B = {}", lin.b());
}

/// Section 4's architectural conclusions hold in our reproduced optima.
#[test]
fn architectural_conclusions_hold() {
    let ptot = |i: usize| {
        calibrated_model(i)
            .optimize()
            .expect("optimum exists")
            .ptot()
            .value()
    };
    let by_name = |name: &str| {
        TABLE1
            .iter()
            .position(|r| r.name == name)
            .expect("row exists")
    };
    // Sequential designs are heavily penalised.
    assert!(ptot(by_name("Sequential")) > 5.0 * ptot(by_name("RCA")));
    // Pipelining and parallelisation help the RCA.
    assert!(ptot(by_name("RCA hor.pipe2")) < ptot(by_name("RCA")));
    assert!(ptot(by_name("RCA parallel")) < ptot(by_name("RCA")));
    // Wallace par4 loses to par2: the multiplexing overhead cancels the
    // marginal chi reduction.
    assert!(ptot(by_name("Wallace par4")) > ptot(by_name("Wallace parallel")));
    // Horizontal beats diagonal at 4 stages despite the longer LD.
    assert!(ptot(by_name("RCA hor.pipe4")) < ptot(by_name("RCA diagpipe4")));
}

/// Eq. 13 is independent of the DIBL coefficient (the paper's remark
/// at the end of Section 3): solving with different η gives the same
/// closed form.
#[test]
fn closed_form_independent_of_dibl() {
    let arch = ArchParams::builder("RCA")
        .cells(608)
        .activity(0.5056)
        .logical_depth(61.0)
        .cap_per_cell(Farads::new(70.5e-15))
        .build()
        .expect("valid");
    let solve = |eta: f64| {
        let tech = Technology::builder("eta test")
            .alpha(1.86)
            .n(1.33)
            .eta(eta)
            .zeta_chain_length(16.0) // match the published presets
            .build()
            .expect("valid tech");
        PowerModel::from_technology(tech, arch.clone(), PAPER_FREQUENCY)
            .expect("model builds")
            .closed_form()
            .expect("defined")
    };
    let base = solve(0.0);
    let dibl = solve(0.12);
    assert!((base.ptot.value() - dibl.ptot.value()).abs() / base.ptot.value() < 1e-12);
    assert!((base.vdd.value() - dibl.vdd.value()).abs() < 1e-12);
}

/// Figure 1's qualitative content: the optimum moves up in voltage and
/// down in power as the activity drops.
#[test]
fn figure1_trends() {
    let model = calibrated_model(0);
    let mut prev_ptot = f64::INFINITY;
    let mut prev_vdd = 0.0;
    for factor in [1.0, 0.5, 0.1, 0.01] {
        let arch = model
            .arch()
            .clone()
            .with_activity(TABLE1[0].activity * factor)
            .expect("valid activity");
        let m = PowerModel::with_constraint(*model.tech(), arch, model.freq(), model.constraint())
            .expect("model builds");
        let opt = m.optimize().expect("optimum exists");
        assert!(opt.ptot().value() < prev_ptot);
        assert!(opt.vdd().value() > prev_vdd);
        prev_ptot = opt.ptot().value();
        prev_vdd = opt.vdd().value();
    }
}

/// The reproduced flavour tables preserve Section 5's ordering.
#[test]
fn flavor_conclusions_hold() {
    let t1 =
        optpower_report::table1(None, optpower_explore::Workers::Fixed(1)).expect("reproduces");
    let t3 = optpower_report::table3().expect("reproduces");
    let t4 = optpower_report::table4().expect("reproduces");
    for i in 0..3 {
        let ll = &t1[7 + i];
        assert!(ll.our_ptot_uw < t3[i].our_ptot_uw, "LL < ULL for row {i}");
        assert!(ll.our_ptot_uw < t4[i].our_ptot_uw, "LL < HS for row {i}");
    }
    // HS punishes parallelisation.
    assert!(t4[1].our_ptot_uw > t4[0].our_ptot_uw);
    assert!(t4[2].our_ptot_uw > t4[1].our_ptot_uw);
}
