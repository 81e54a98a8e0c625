//! Calibrated reproduction of Tables 1–4: reverse-calibrate each
//! published optimal point, re-run the numerical optimiser and Eq. 13,
//! and put paper-vs-measured side by side.

use optpower::calibrate::{build_model, from_breakdown, from_total};
use optpower::reference::{
    Table1Row, WallaceFlavorRow, PAPER_FREQUENCY, TABLE1, TABLE3_ULL, TABLE4_HS,
};
use optpower::{ArchParams, ModelError, PowerModel};
use optpower_explore::{par_map, Workers};
use optpower_tech::{Flavor, Technology};
use optpower_units::{Farads, SquareMicrons, Volts, Watts};

use crate::render::{fnum, Table};

/// One architecture's paper-vs-measured comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowComparison {
    /// Architecture name as printed in the paper.
    pub name: String,
    /// Published optimal supply voltage \[V\].
    pub paper_vdd: f64,
    /// Our numerical optimum supply voltage \[V\].
    pub our_vdd: f64,
    /// Published optimal threshold voltage \[V\].
    pub paper_vth: f64,
    /// Our numerical optimum threshold voltage \[V\].
    pub our_vth: f64,
    /// Published numerical total power \[µW\].
    pub paper_ptot_uw: f64,
    /// Our numerical total power \[µW\].
    pub our_ptot_uw: f64,
    /// Published Eq. 13 total power \[µW\].
    pub paper_eq13_uw: f64,
    /// Our Eq. 13 total power \[µW\].
    pub our_eq13_uw: f64,
    /// Published Eq. 13 error \[%\].
    pub paper_err_pct: f64,
    /// Our Eq. 13 error \[%\] (`(Ptot − Eq13)/Eq13`, paper convention).
    pub our_err_pct: f64,
}

impl RowComparison {
    fn from_model(
        name: &str,
        model: &PowerModel,
        paper_vdd: f64,
        paper_vth: f64,
        paper_ptot_uw: f64,
        paper_eq13_uw: f64,
        paper_err_pct: f64,
    ) -> Result<Self, ModelError> {
        let num = model.optimize()?;
        let cf = model.closed_form()?;
        let our_ptot_uw = num.ptot().value() * 1e6;
        let our_eq13_uw = cf.ptot.value() * 1e6;
        Ok(Self {
            name: name.to_string(),
            paper_vdd,
            our_vdd: num.vdd().value(),
            paper_vth,
            our_vth: num.vth().value(),
            paper_ptot_uw,
            our_ptot_uw,
            paper_eq13_uw,
            our_eq13_uw,
            paper_err_pct,
            our_err_pct: (our_ptot_uw - our_eq13_uw) / our_eq13_uw * 100.0,
        })
    }
}

fn arch_from_row(row: &Table1Row) -> Result<ArchParams, ModelError> {
    ArchParams::builder(row.name)
        .cells(row.cells)
        .activity(row.activity)
        .logical_depth(row.ld_eff)
        .cap_per_cell(Farads::new(1e-15)) // replaced by calibration
        .area(SquareMicrons::new(row.area_um2))
        .build()
}

/// Calibrates and re-solves one Table 1 row: the unit of work
/// [`table1`] maps over its rows.
fn table1_row(tech: &Technology, row: &Table1Row) -> Result<RowComparison, ModelError> {
    let cal = from_breakdown(
        tech,
        Volts::new(row.vdd),
        Volts::new(row.vth),
        Watts::new(row.pdyn_uw * 1e-6),
        Watts::new(row.pstat_uw * 1e-6),
        f64::from(row.cells),
        row.activity,
        PAPER_FREQUENCY,
    )?;
    let model = build_model(*tech, arch_from_row(row)?, PAPER_FREQUENCY, cal)?;
    RowComparison::from_model(
        row.name,
        &model,
        row.vdd,
        row.vth,
        row.ptot_uw,
        row.eq13_uw,
        row.eq13_err_pct,
    )
}

/// Reproduces Table 1: the thirteen multipliers on the LL flavour,
/// calibrated from the published power *breakdown*, each row
/// calibrated and re-solved on its own worker.
///
/// `rows` selects rows by paper name, in the caller's order (`None` =
/// all thirteen in published order). Every selected row goes through
/// the identical per-row unit of work, so a subset row is
/// bit-identical to the corresponding full-table row, and the rows
/// are the same for any worker policy (`Workers::Fixed(1)` is the
/// serial path). Names not present in Table 1 are skipped; callers
/// validate against [`table1_names`] first.
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or solving.
pub fn table1(rows: Option<&[String]>, workers: Workers) -> Result<Vec<RowComparison>, ModelError> {
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let selected: Vec<&Table1Row> = match rows {
        None => TABLE1.iter().collect(),
        Some(names) => names
            .iter()
            .filter_map(|name| TABLE1.iter().find(|row| row.name == name))
            .collect(),
    };
    par_map(&selected, workers.resolve(selected.len()), |row| {
        table1_row(&tech, row)
    })
    .into_iter()
    .collect()
}

/// The thirteen Table 1 row names, in published row order: the axis
/// [`table1`] selects from, and the order a distributed merge restores
/// shard rows into.
pub fn table1_names() -> Vec<&'static str> {
    TABLE1.iter().map(|row| row.name).collect()
}

fn wallace_flavor_table(
    flavor: Flavor,
    rows: &[WallaceFlavorRow; 3],
) -> Result<Vec<RowComparison>, ModelError> {
    let tech = Technology::stm_cmos09(flavor);
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            // Structural parameters are flavour-independent; reuse the
            // Table 1 (LL) Wallace-family rows.
            let structure = optpower::reference::wallace_structure(i);
            let cal = from_total(
                &tech,
                Volts::new(row.vdd),
                Volts::new(row.vth),
                Watts::new(row.ptot_uw * 1e-6),
                f64::from(structure.cells),
                structure.activity,
                PAPER_FREQUENCY,
            )?;
            let model = build_model(tech, arch_from_row(structure)?, PAPER_FREQUENCY, cal)?;
            RowComparison::from_model(
                row.name,
                &model,
                row.vdd,
                row.vth,
                row.ptot_uw,
                row.eq13_uw,
                row.eq13_err_pct,
            )
        })
        .collect()
}

/// Reproduces Table 3: the Wallace family on the ULL flavour,
/// calibrated from the published *total* power (stationarity solve).
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or solving.
pub fn table3() -> Result<Vec<RowComparison>, ModelError> {
    wallace_flavor_table(Flavor::UltraLowLeakage, &TABLE3_ULL)
}

/// Reproduces Table 4: the Wallace family on the HS flavour.
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or solving.
pub fn table4() -> Result<Vec<RowComparison>, ModelError> {
    wallace_flavor_table(Flavor::HighSpeed, &TABLE4_HS)
}

/// Renders comparison rows in the paper's column layout.
pub fn render_rows(title: &str, rows: &[RowComparison]) -> String {
    let mut t = Table::new(&[
        "arch", "Vdd(p)", "Vdd", "Vth(p)", "Vth", "Ptot(p)", "Ptot", "Eq13(p)", "Eq13", "err%(p)",
        "err%",
    ]);
    for r in rows {
        t.row(&[
            r.name.clone(),
            fnum(r.paper_vdd, 3),
            fnum(r.our_vdd, 3),
            fnum(r.paper_vth, 3),
            fnum(r.our_vth, 3),
            fnum(r.paper_ptot_uw, 2),
            fnum(r.our_ptot_uw, 2),
            fnum(r.paper_eq13_uw, 2),
            fnum(r.our_eq13_uw, 2),
            fnum(r.paper_err_pct, 2),
            fnum(r.our_err_pct, 2),
        ]);
    }
    format!("{title}\n{t}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_table1() -> Vec<RowComparison> {
        table1(None, Workers::Fixed(1)).unwrap()
    }

    #[test]
    fn table1_reproduces_optimal_points() {
        let rows = full_table1();
        assert_eq!(rows.len(), 13);
        for r in &rows {
            // Voltages within the paper's grid resolution + rounding.
            assert!(
                (r.our_vdd - r.paper_vdd).abs() < 0.02,
                "{}: vdd {} vs {}",
                r.name,
                r.our_vdd,
                r.paper_vdd
            );
            assert!(
                (r.our_vth - r.paper_vth).abs() < 0.02,
                "{}: vth {} vs {}",
                r.name,
                r.our_vth,
                r.paper_vth
            );
            // Totals within 2%.
            let rel = (r.our_ptot_uw - r.paper_ptot_uw) / r.paper_ptot_uw;
            assert!(rel.abs() < 0.02, "{}: ptot rel {rel}", r.name);
        }
    }

    #[test]
    fn table1_parallel_matches_serial_for_any_worker_count() {
        let serial = full_table1();
        for workers in [2, 8] {
            let par = table1(None, Workers::Fixed(workers)).unwrap();
            assert_eq!(par, serial, "workers = {workers}");
        }
    }

    #[test]
    fn table1_eq13_errors_match_paper_sign_and_magnitude() {
        for r in full_table1() {
            // The paper's headline: |err| < 3% everywhere. Ours obeys
            // the same bound (slightly different split rounding).
            assert!(r.our_err_pct.abs() < 3.5, "{}: {}", r.name, r.our_err_pct);
        }
    }

    #[test]
    fn table1_subset_rows_are_bit_identical_to_the_full_table() {
        let full = full_table1();
        let names: Vec<String> = ["Seq4_16", "RCA", "Wallace par4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let subset = table1(Some(&names), Workers::Fixed(2)).unwrap();
        assert_eq!(subset.len(), 3);
        for (name, row) in names.iter().zip(&subset) {
            let reference = full.iter().find(|r| &r.name == name).unwrap();
            assert_eq!(row, reference, "{name}");
        }
        // The full name list reproduces the full table exactly.
        let all: Vec<String> = table1_names().iter().map(|s| s.to_string()).collect();
        assert_eq!(table1(Some(&all), Workers::Auto).unwrap(), full);
    }

    #[test]
    fn table3_and_4_reproduce_totals() {
        for rows in [table3().unwrap(), table4().unwrap()] {
            assert_eq!(rows.len(), 3);
            for r in &rows {
                let rel = (r.our_ptot_uw - r.paper_ptot_uw) / r.paper_ptot_uw;
                assert!(rel.abs() < 0.01, "{}: {rel}", r.name);
                assert!((r.our_vdd - r.paper_vdd).abs() < 0.005, "{}", r.name);
                assert!(r.our_err_pct.abs() < 3.5, "{}", r.name);
            }
        }
    }

    #[test]
    fn flavor_comparison_ll_wins() {
        // Section 5: LL beats both ULL and HS for every Wallace variant.
        let ll = full_table1();
        let ull = table3().unwrap();
        let hs = table4().unwrap();
        for (i, ull_row) in ull.iter().enumerate() {
            let ll_row = &ll[7 + i];
            assert!(ll_row.our_ptot_uw < ull_row.our_ptot_uw, "LL < ULL at {i}");
            assert!(ll_row.our_ptot_uw < hs[i].our_ptot_uw, "LL < HS at {i}");
        }
        // On HS parallelisation hurts; on ULL par4 overshoots par2.
        assert!(hs[1].our_ptot_uw > hs[0].our_ptot_uw);
        assert!(ull[2].our_ptot_uw > ull[1].our_ptot_uw);
    }

    #[test]
    fn render_contains_all_architectures() {
        let s = render_rows("Table 1", &full_table1());
        for row in &TABLE1 {
            assert!(s.contains(row.name), "{}", row.name);
        }
    }
}
