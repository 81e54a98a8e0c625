//! Extended studies beyond the paper's printed artefacts:
//!
//! * [`scaling_study`] — the paper's closing remark ("a smaller
//!   technology node with ultra-high speed and large leakage might
//!   consume more than a larger techno ... at its optimal working
//!   point") evaluated over synthetic scaled nodes and a frequency
//!   range,
//! * [`sensitivity_report`] — logarithmic sensitivities of Eq. 13 for
//!   every Table 1 architecture (the quantitative version of
//!   Section 4's reasoning).
//!
//! Each study maps its rows over the `optpower-explore` worker pool
//! under the caller's [`Workers`] policy, which never changes a row.

use optpower::calibrate::{build_model, from_breakdown};
use optpower::reference::{Table1Row, PAPER_FREQUENCY, TABLE1};
use optpower::sweep::rank_technologies;
use optpower::{ArchParams, ModelError, Sensitivities};
use optpower_explore::{par_map, Workers};
use optpower_tech::{Flavor, ScaledNode, Technology};
use optpower_units::{Farads, Hertz, SquareMicrons, Volts, Watts};

use crate::render::{fnum, Table};

/// One frequency row of the scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Evaluated frequency \[MHz\].
    pub f_mhz: f64,
    /// `(node label, optimal Ptot \[µW\])` per node; NaN when timing
    /// cannot close.
    pub ptot_uw: Vec<(&'static str, f64)>,
    /// The cheapest node at this frequency, if any closed timing.
    pub winner: Option<&'static str>,
}

/// Evaluates the basic Wallace architecture across the synthetic
/// scaled nodes and a frequency range.
///
/// With `scale_capacitance = true`, per-cell capacitance shrinks ×0.7
/// per node ("the same RTL ported with full gate-capacitance
/// scaling"): under the paper's freely-adjustable-Vth assumption the
/// leakage penalty is only logarithmic (`n·Ut·ln Io` in the Eq. 13
/// bracket), so the smaller node wins everywhere — by a margin that
/// collapses at low frequency.
///
/// With `scale_capacitance = false` ("wire-dominated port": the
/// switched capacitance does not improve), the paper's cautionary
/// closing remark materialises as an actual crossover: the large,
/// balanced node wins at low frequency and the ultra-leaky small node
/// only pays off once the timing constraint tightens.
///
/// Each frequency row is evaluated on its own worker; the rows are the
/// same, in the same order, for any worker policy (`Workers::Fixed(1)`
/// is the serial path).
///
/// # Errors
///
/// Propagates [`ModelError`] from model building.
pub fn scaling_study(
    frequencies_mhz: &[f64],
    scale_capacitance: bool,
    workers: Workers,
) -> Result<Vec<ScalingRow>, ModelError> {
    par_map(
        frequencies_mhz,
        workers.resolve(frequencies_mhz.len()),
        |&f_mhz| scaling_row(f_mhz, scale_capacitance),
    )
    .into_iter()
    .collect()
}

/// Evaluates one frequency row of the scaling study: the unit of work
/// [`scaling_study`] maps over its frequencies.
fn scaling_row(f_mhz: f64, scale_capacitance: bool) -> Result<ScalingRow, ModelError> {
    // Wallace structure with the LL-calibrated per-cell capacitance.
    let c130 = 56.69e-6 / (729.0 * 0.2976 * 31.25e6 * 0.372 * 0.372);
    let cap_for = |node: ScaledNode| match (scale_capacitance, node) {
        (_, ScaledNode::Node130) => c130,
        (true, ScaledNode::Node90) => c130 * 0.7,
        (true, ScaledNode::Node65) => c130 * 0.49,
        (false, _) => c130,
    };
    let f = Hertz::new(f_mhz * 1e6);
    let mut ptot_uw = Vec::new();
    let mut winner: Option<(&'static str, f64)> = None;
    for node in ScaledNode::ALL {
        let tech = node.technology().expect("presets are valid");
        let arch = ArchParams::builder("Wallace")
            .cells(729)
            .activity(0.2976)
            .logical_depth(17.0)
            .cap_per_cell(Farads::new(cap_for(node)))
            .build()?;
        let ranking = rank_technologies(&[tech], &arch, f);
        let p = ranking
            .ranking
            .first()
            .map(|&(_, p)| p * 1e6)
            .unwrap_or(f64::NAN);
        if p.is_finite() && winner.is_none_or(|(_, best)| p < best) {
            winner = Some((node.label(), p));
        }
        ptot_uw.push((node.label(), p));
    }
    Ok(ScalingRow {
        f_mhz,
        ptot_uw,
        winner: winner.map(|(n, _)| n),
    })
}

/// Renders the scaling study.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let mut t = Table::new(&["f [MHz]", "130nm [uW]", "90nm [uW]", "65nm [uW]", "winner"]);
    for r in rows {
        let p = |label: &str| {
            r.ptot_uw
                .iter()
                .find(|(l, _)| *l == label)
                .map(|&(_, v)| if v.is_nan() { "-".into() } else { fnum(v, 2) })
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            fnum(r.f_mhz, 2),
            p("130nm"),
            p("90nm"),
            p("65nm"),
            r.winner.unwrap_or("-").to_string(),
        ]);
    }
    format!(
        "Scaling study - basic Wallace ported across synthetic nodes\n\
         (the paper's closing remark: leaky small nodes lose at low f)\n{t}"
    )
}

/// One architecture's Eq. 13 sensitivities.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Architecture name.
    pub name: &'static str,
    /// The computed sensitivities.
    pub sens: Sensitivities,
}

/// Computes the logarithmic Eq. 13 sensitivities for every Table 1
/// architecture on its calibrated model, each architecture calibrated
/// and differentiated on its own worker. The rows are the same, in the
/// same order, for any worker policy (`Workers::Fixed(1)` is the
/// serial path).
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or the closed form.
pub fn sensitivity_report(workers: Workers) -> Result<Vec<SensitivityRow>, ModelError> {
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    par_map(&TABLE1, workers.resolve(TABLE1.len()), |row| {
        sensitivity_row(&tech, row)
    })
    .into_iter()
    .collect()
}

/// Calibrates one Table 1 row and computes its Eq. 13 sensitivities:
/// the unit of work [`sensitivity_report`] maps over the rows.
fn sensitivity_row(tech: &Technology, row: &Table1Row) -> Result<SensitivityRow, ModelError> {
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
    let arch = ArchParams::builder(row.name)
        .cells(row.cells)
        .activity(row.activity)
        .logical_depth(row.ld_eff)
        .cap_per_cell(Farads::new(1e-15))
        .area(SquareMicrons::new(row.area_um2))
        .build()?;
    let model = build_model(*tech, arch, PAPER_FREQUENCY, cal)?;
    let sens = Sensitivities::at(&model)?;
    Ok(SensitivityRow {
        name: row.name,
        sens,
    })
}

/// Renders the sensitivity report.
pub fn render_sensitivities(rows: &[SensitivityRow]) -> String {
    let mut t = Table::new(&["arch", "S_a", "S_N", "S_LD", "S_f", "S_Io"]);
    for r in rows {
        t.row(&[
            r.name.to_string(),
            fnum(r.sens.activity, 3),
            fnum(r.sens.cells, 3),
            fnum(r.sens.logical_depth, 3),
            fnum(r.sens.frequency, 3),
            fnum(r.sens.io, 3),
        ]);
    }
    format!(
        "Eq. 13 logarithmic sensitivities per architecture\n\
         (S_x = % power change per % parameter change at the optimum)\n{t}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscaled_port_reproduces_papers_cautionary_remark() {
        // Wire-dominated port: same switched capacitance per node.
        let rows = scaling_study(&[1.0, 250.0], false, Workers::Fixed(1)).unwrap();
        // At 1 MHz the leaky small node loses to the balanced 130 nm.
        assert_eq!(rows[0].winner, Some("130nm"), "{:?}", rows[0]);
        // At 250 MHz speed wins.
        assert_eq!(rows[1].winner, Some("65nm"), "{:?}", rows[1]);
    }

    #[test]
    fn scaled_port_margin_collapses_at_low_frequency() {
        // Full capacitance scaling: the small node always wins under
        // free-Vth (leakage costs only ~n·Ut·ln Io), but its advantage
        // shrinks dramatically at low f.
        let rows = scaling_study(&[1.0, 250.0], true, Workers::Fixed(1)).unwrap();
        let margin = |r: &ScalingRow| {
            let p130 = r.ptot_uw.iter().find(|(l, _)| *l == "130nm").unwrap().1;
            let p65 = r.ptot_uw.iter().find(|(l, _)| *l == "65nm").unwrap().1;
            p130 / p65
        };
        let low = margin(&rows[0]);
        let high = margin(&rows[1]);
        assert!(low < high, "advantage must grow with f: {low} vs {high}");
        assert!(low < 1.10, "at 1 MHz the nodes are within 10%: {low}");
    }

    #[test]
    fn scaling_renders() {
        let rows = scaling_study(&[31.25], true, Workers::Fixed(1)).unwrap();
        let s = render_scaling(&rows);
        assert!(s.contains("130nm"));
        assert!(s.contains("31.25"));
    }

    #[test]
    fn parallel_studies_match_serial_for_any_worker_count() {
        let freqs = [1.0, 31.25, 250.0];
        let serial_scaling = scaling_study(&freqs, false, Workers::Fixed(1)).unwrap();
        let serial_sens = sensitivity_report(Workers::Fixed(1)).unwrap();
        for workers in [2, 8] {
            assert_eq!(
                scaling_study(&freqs, false, Workers::Fixed(workers)).unwrap(),
                serial_scaling,
                "scaling, workers = {workers}"
            );
            assert_eq!(
                sensitivity_report(Workers::Fixed(workers)).unwrap(),
                serial_sens,
                "sensitivity, workers = {workers}"
            );
        }
    }

    #[test]
    fn sensitivities_cover_all_architectures() {
        let rows = sensitivity_report(Workers::Fixed(1)).unwrap();
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!((r.sens.cells - 1.0).abs() < 1e-12, "{}", r.name);
            assert!(
                r.sens.activity > 0.0 && r.sens.activity <= 1.0,
                "{}",
                r.name
            );
        }
    }

    #[test]
    fn sequential_is_most_depth_sensitive() {
        // The paper's Section 4: sequential designs are penalised by
        // "a large effective logical depth" — their LD sensitivity
        // must dominate the combinational families'.
        let rows = sensitivity_report(Workers::Fixed(1)).unwrap();
        let s = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .expect("row present")
                .sens
                .logical_depth
        };
        assert!(s("Sequential") > s("RCA"));
        assert!(s("Sequential") > s("Wallace"));
        assert!(s("Seq parallel") > s("Wallace"));
    }

    #[test]
    fn sensitivity_render() {
        let s = render_sensitivities(&sensitivity_report(Workers::Fixed(1)).unwrap());
        assert!(s.contains("S_LD"));
        assert!(s.contains("Sequential"));
    }
}
