//! Figure reproductions: the Ptot-vs-Vdd curves (Fig. 1), the
//! linearisation plot (Fig. 2), and the pipeline structure summaries
//! (Figs. 3/4).

use optpower::calibrate::{build_model, from_breakdown};
use optpower::reference::{table1_arch_params, PAPER_FREQUENCY, TABLE1};
use optpower::sweep::log_frequency_axis;
use optpower::{ArchParams, ModelError, OperatingPoint};
use optpower_explore::{explore, ExploreConfig, Grid, ResultSet, Workers};
use optpower_mult::Architecture;
use optpower_tech::{Flavor, Linearization, Technology};
use optpower_units::{Farads, Hertz, SquareMicrons, Volts, Watts};

use crate::abinitio::{characterize_glitch_study, AbInitioError};
use crate::render::{fnum, Table};

/// One activity's curve in Figure 1.
#[derive(Debug, Clone)]
pub struct Figure1Curve {
    /// The cell activity of this curve.
    pub activity: f64,
    /// `(Vdd, Ptot)` samples along the timing-closure curve.
    pub points: Vec<(f64, f64)>,
    /// The optimal working point (the figure's cross marks).
    pub optimum: OperatingPoint,
    /// The `Pdyn/Pstat` ratio annotated at the optimum.
    pub dyn_static_ratio: f64,
}

/// The Figure 1 dataset: Ptot vs Vdd for the 16-bit RCA at several
/// activities.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// One curve per activity, highest activity first.
    pub curves: Vec<Figure1Curve>,
}

/// Regenerates Figure 1: the calibrated RCA multiplier swept along its
/// timing-closure curve at activity `a₀·{1, ½, ⅒, 1⁄100}`.
///
/// The paper's observations hold on the returned data: lower activity
/// lowers `Ptot` while *raising* the optimal `Vdd` and `Vth`.
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or solving.
pub fn figure1(samples_per_curve: usize) -> Result<Figure1, ModelError> {
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let rca = &TABLE1[0];
    let cal = from_breakdown(
        &tech,
        Volts::new(rca.vdd),
        Volts::new(rca.vth),
        Watts::new(rca.pdyn_uw * 1e-6),
        Watts::new(rca.pstat_uw * 1e-6),
        f64::from(rca.cells),
        rca.activity,
        PAPER_FREQUENCY,
    )?;
    let base_arch = ArchParams::builder(rca.name)
        .cells(rca.cells)
        .activity(rca.activity)
        .logical_depth(rca.ld_eff)
        .cap_per_cell(Farads::new(1e-15))
        .area(SquareMicrons::new(rca.area_um2))
        .build()?;
    let mut curves = Vec::new();
    for factor in [1.0, 0.5, 0.1, 0.01] {
        let arch = base_arch.clone().with_activity(rca.activity * factor)?;
        let model = build_model(tech, arch, PAPER_FREQUENCY, cal)?;
        let optimum = model.optimize()?;
        let points = model
            .sweep_curve(Volts::new(0.2), Volts::new(1.2), samples_per_curve)
            .into_iter()
            .map(|(v, p)| (v.value(), p.total().value()))
            .collect();
        curves.push(Figure1Curve {
            activity: rca.activity * factor,
            points,
            dyn_static_ratio: optimum.breakdown().dyn_static_ratio(),
            optimum,
        });
    }
    Ok(Figure1 { curves })
}

/// Renders the Figure 1 optima as a table (the series themselves are
/// CSV-ready in [`Figure1`]).
pub fn render_figure1(fig: &Figure1) -> String {
    let mut t = Table::new(&[
        "activity",
        "Vdd* [V]",
        "Vth* [V]",
        "Ptot* [uW]",
        "Pdyn/Pstat",
    ]);
    for c in &fig.curves {
        t.row(&[
            fnum(c.activity, 4),
            fnum(c.optimum.vdd().value(), 3),
            fnum(c.optimum.vth().value(), 3),
            fnum(c.optimum.ptot().value() * 1e6, 2),
            fnum(c.dyn_static_ratio, 2),
        ]);
    }
    format!("Figure 1 - optimal points of the 16-bit RCA vs activity\n{t}")
}

/// The Figure 2 dataset: `Vdd^{1/α}` against its linear fit.
#[derive(Debug, Clone)]
pub struct Figure2 {
    /// The fitted linearisation (A, B, range, max error).
    pub fit: Linearization,
    /// `(Vdd, exact, approx)` samples.
    pub points: Vec<(f64, f64, f64)>,
}

/// Regenerates Figure 2 (`α = 1.5`, Vdd ∈ [0.3, 0.9] as plotted).
///
/// # Errors
///
/// Propagates numeric errors from the fit (unreachable for valid α).
pub fn figure2(samples: usize) -> Result<Figure2, ModelError> {
    let lo = Volts::new(0.3);
    let hi = Volts::new(0.9);
    let fit = Linearization::fit(1.5, lo, hi)?;
    let points = optpower_numeric::linspace(lo.value(), hi.value(), samples.max(2))
        .into_iter()
        .map(|v| {
            let vv = Volts::new(v);
            (v, fit.exact(vv), fit.approx(vv))
        })
        .collect();
    Ok(Figure2 { fit, points })
}

/// Renders the Figure 2 fit summary.
pub fn render_figure2(fig: &Figure2) -> String {
    format!(
        "Figure 2 - Vdd^(1/alpha) linearisation, alpha = {}\n\
         A = {:.4}, B = {:.4}, max |error| = {:.4} over [{:.2}, {:.2}] V\n\
         ({} samples available for plotting)",
        fig.fit.alpha(),
        fig.fit.a(),
        fig.fit.b(),
        fig.fit.max_error(),
        fig.fit.lo().value(),
        fig.fit.hi().value(),
        fig.points.len(),
    )
}

/// Structural summary of one pipelined array (Figures 3/4 analogue).
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// `"horizontal"` or `"diagonal"`.
    pub style: &'static str,
    /// Stage count.
    pub stages: u32,
    /// Flip-flops inserted by the pipeline cuts.
    pub registers: usize,
    /// Critical path in gate units (the effective LD).
    pub logical_depth: f64,
    /// Global path-delay spread (max − min endpoint arrival).
    pub path_spread: f64,
    /// Mean input-arrival skew over multi-input cells.
    pub mean_input_skew: f64,
    /// Timed (glitch-counting) activity from random stimulus.
    pub activity_timed: f64,
    /// Zero-delay (glitch-free) activity from the same stimulus.
    pub activity_zero_delay: f64,
}

impl StageSummary {
    /// The glitch amplification factor `a_timed / a_zero_delay`.
    pub fn glitch_factor(&self) -> f64 {
        self.activity_timed / self.activity_zero_delay
    }
}

/// The Figures 3/4 dataset: horizontal vs diagonal pipeline structure
/// and glitch statistics at 2 and 4 stages.
#[derive(Debug, Clone)]
pub struct Figure34 {
    /// Operand width used.
    pub width: usize,
    /// One summary per (style, stages) combination.
    pub summaries: Vec<StageSummary>,
}

/// Regenerates the Figures 3/4 comparison on `width`-bit arrays.
///
/// The four pipelined RCAs (horizontal then diagonal cuts, 2 then 4
/// stages each) share the glitch ablation's characterization: one
/// timed lane and a scalar zero-delay baseline over `items` random
/// operand pairs at seed 7, the designs mapped over `workers`, which
/// never changes the result. The structural columns come from the
/// characterization's own timing analysis. The paper's qualitative
/// claim — diagonal cuts yield shorter LD but higher (glitch) activity
/// than horizontal cuts — is visible in the returned summaries.
///
/// # Errors
///
/// [`AbInitioError`] from the characterization, e.g. an activity of 0
/// when the counted window sees no transition (width 2 at one or two
/// items).
///
/// # Panics
///
/// Panics if `width < 2`: the pipelined arrays need two operand bits.
pub fn figure34(width: usize, items: u64, workers: Workers) -> Result<Figure34, AbInitioError> {
    const DESIGNS: [(Architecture, &str, u32); 4] = [
        (Architecture::RcaHorPipe2, "horizontal", 2),
        (Architecture::RcaHorPipe4, "horizontal", 4),
        (Architecture::RcaDiagPipe2, "diagonal", 2),
        (Architecture::RcaDiagPipe4, "diagonal", 4),
    ];
    let archs = DESIGNS.map(|(arch, ..)| arch);
    let measured = characterize_glitch_study(&archs, width, items, 7, workers)?;
    let summaries = DESIGNS
        .into_iter()
        .zip(measured)
        .map(|((_, style, stages), (row, sta, registers))| StageSummary {
            style,
            stages,
            registers,
            logical_depth: sta.logical_depth(),
            path_spread: sta.path_spread(),
            mean_input_skew: sta.mean_input_skew(),
            activity_timed: row.activity,
            activity_zero_delay: row.activity_zero_delay,
        })
        .collect();
    Ok(Figure34 { width, summaries })
}

/// Renders the Figures 3/4 structural comparison.
pub fn render_figure34(fig: &Figure34) -> String {
    let mut t = Table::new(&[
        "pipeline",
        "stages",
        "DFFs",
        "LD",
        "spread",
        "skew",
        "a(timed)",
        "a(0-delay)",
        "glitch x",
    ]);
    for s in &fig.summaries {
        t.row(&[
            s.style.to_string(),
            s.stages.to_string(),
            s.registers.to_string(),
            fnum(s.logical_depth, 1),
            fnum(s.path_spread, 1),
            fnum(s.mean_input_skew, 2),
            fnum(s.activity_timed, 4),
            fnum(s.activity_zero_delay, 4),
            fnum(s.glitch_factor(), 2),
        ]);
    }
    format!(
        "Figures 3/4 - horizontal vs diagonal pipelining of the {}-bit RCA\n{t}",
        fig.width
    )
}

/// The Ptot-vs-frequency Pareto figure: a design-space exploration
/// over the calibrated Table 1 architectures, all three STM CMOS09
/// flavours and a log frequency axis, plus the extracted
/// (throughput ↑, power ↓) Pareto front.
#[derive(Debug, Clone)]
pub struct ParetoFigure {
    /// The explored design space, in grid order.
    pub result: ResultSet,
    /// The swept frequency axis.
    pub frequencies: Vec<Hertz>,
}

/// Runs the Pareto sweep: the thirteen calibrated Table 1
/// architectures × all three flavours × `freq_points` log-spaced
/// frequencies in `[1 MHz, 250 MHz]` on the exploration engine.
///
/// # Errors
///
/// Propagates [`ModelError`] from calibration or an invalid axis.
pub fn figure_pareto(freq_points: usize, workers: Workers) -> Result<ParetoFigure, ModelError> {
    let frequencies = log_frequency_axis(Hertz::new(1e6), Hertz::new(250e6), freq_points)?;
    let grid = Grid::builder()
        .technologies(Flavor::ALL.iter().map(|&fl| Technology::stm_cmos09(fl)))
        .architectures(table1_arch_params()?)
        .frequencies(frequencies.iter().copied())
        .build()
        .expect("all three axes are non-empty and validated");
    let config = ExploreConfig {
        workers,
        ..ExploreConfig::default()
    };
    Ok(ParetoFigure {
        result: explore(&grid, &config),
        frequencies,
    })
}

/// Renders the Pareto figure: an ASCII log-log scatter (front points
/// `*`, dominated closed points `.`) above the front table.
pub fn render_pareto(fig: &ParetoFigure) -> String {
    const COLS: usize = 64;
    const ROWS: usize = 16;
    // Computed once and shared by the scatter and the table below.
    let front = fig.result.pareto_front();
    let closed: Vec<(f64, f64, bool)> = fig
        .result
        .records()
        .iter()
        .filter_map(|r| {
            r.optimum().map(|o| {
                let on_front = front.iter().any(|f| std::ptr::eq(*f, r));
                (r.frequency.value(), o.ptot().value(), on_front)
            })
        })
        .collect();
    let mut out = String::from(
        "Pareto figure - optimal Ptot vs throughput over the explored design space\n\
         (log-log; '*' Pareto front, '.' dominated closed points)\n",
    );
    if closed.is_empty() {
        out.push_str("(no closed points)\n");
        return out;
    }
    let (mut fmin, mut fmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut pmin, mut pmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(f, p, _) in &closed {
        fmin = fmin.min(f);
        fmax = fmax.max(f);
        pmin = pmin.min(p);
        pmax = pmax.max(p);
    }
    let fspan = (fmax.log10() - fmin.log10()).max(f64::MIN_POSITIVE);
    let pspan = (pmax.log10() - pmin.log10()).max(f64::MIN_POSITIVE);
    let mut canvas = vec![vec![b' '; COLS]; ROWS];
    for &(f, p, on_front) in &closed {
        let x = ((f.log10() - fmin.log10()) / fspan * (COLS - 1) as f64).round() as usize;
        let y = ((pmax.log10() - p.log10()) / pspan * (ROWS - 1) as f64).round() as usize;
        let cell = &mut canvas[y.min(ROWS - 1)][x.min(COLS - 1)];
        if on_front {
            *cell = b'*';
        } else if *cell == b' ' {
            *cell = b'.';
        }
    }
    for (i, row) in canvas.into_iter().enumerate() {
        let label = if i == 0 {
            format!("{:>9.2} uW", pmax * 1e6)
        } else if i == ROWS - 1 {
            format!("{:>9.2} uW", pmin * 1e6)
        } else {
            " ".repeat(12)
        };
        out.push_str(&format!(
            "{label} |{}\n",
            String::from_utf8(row).expect("ascii canvas")
        ));
    }
    out.push_str(&format!(
        "{} +{}\n{:>18.2} MHz{:>width$.2} MHz\n",
        " ".repeat(12),
        "-".repeat(COLS),
        fmin / 1e6,
        fmax / 1e6,
        width = COLS - 6
    ));
    let mut t = Table::new(&[
        "f [MHz]",
        "tech",
        "arch",
        "Vdd [V]",
        "Vth [V]",
        "Ptot [uW]",
        "E/op [pJ]",
    ]);
    for r in front {
        let opt = r.optimum().expect("front members are closed");
        t.row(&[
            fnum(r.frequency.value() / 1e6, 2),
            r.tech.to_string(),
            r.arch.clone(),
            fnum(opt.vdd().value(), 3),
            fnum(opt.vth().value(), 3),
            fnum(opt.ptot().value() * 1e6, 2),
            fnum(opt.energy_per_item(r.frequency) * 1e12, 3),
        ]);
    }
    out.push_str(&format!("Pareto front (throughput up, power down)\n{t}"));
    out
}

/// Pearson correlation coefficient of paired samples, used by the
/// static-vs-measured glitch artifact (`optpower sta`) to quantify how
/// well the static bound tracks the simulated glitch factor across
/// architectures — the paper's Section-4 claim, reduced to one number.
///
/// Returns `None` for fewer than two pairs or zero variance on either
/// axis (the coefficient is undefined there, not 0 or 1).
pub fn pearson_correlation(pairs: &[(f64, f64)]) -> Option<f64> {
    let n = pairs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let (mx, my) = pairs
        .iter()
        .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x, sy + y));
    let (mx, my) = (mx / nf, my / nf);
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for &(x, y) in pairs {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_basics() {
        // Perfectly linear: r = 1; anti-linear: r = -1.
        let up: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 2.0 + 3.0 * i as f64)).collect();
        assert!((pearson_correlation(&up).unwrap() - 1.0).abs() < 1e-12);
        let down: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson_correlation(&down).unwrap() + 1.0).abs() < 1e-12);
        // Degenerate inputs have no defined coefficient.
        assert_eq!(pearson_correlation(&[(1.0, 2.0)]), None);
        assert_eq!(pearson_correlation(&[(1.0, 2.0), (1.0, 5.0)]), None);
    }

    #[test]
    fn figure1_reproduces_activity_trends() {
        let fig = figure1(64).unwrap();
        assert_eq!(fig.curves.len(), 4);
        // Lower activity: lower Ptot, higher Vdd*, higher Vth*.
        for pair in fig.curves.windows(2) {
            let (hi_a, lo_a) = (&pair[0], &pair[1]);
            assert!(lo_a.activity < hi_a.activity);
            assert!(lo_a.optimum.ptot().value() < hi_a.optimum.ptot().value());
            assert!(lo_a.optimum.vdd() > hi_a.optimum.vdd());
            assert!(lo_a.optimum.vth() > hi_a.optimum.vth());
        }
    }

    #[test]
    fn figure1_optimum_is_on_its_curve() {
        let fig = figure1(512).unwrap();
        for c in &fig.curves {
            let min_curve = c
                .points
                .iter()
                .map(|&(_, p)| p)
                .fold(f64::INFINITY, f64::min);
            let opt = c.optimum.ptot().value();
            assert!(
                opt <= min_curve * 1.0001,
                "opt {opt} vs curve min {min_curve}"
            );
        }
    }

    #[test]
    fn figure1_ratio_annotation_positive() {
        let fig = figure1(32).unwrap();
        for c in &fig.curves {
            assert!(c.dyn_static_ratio > 1.0, "dyn should dominate at optimum");
        }
    }

    #[test]
    fn figure2_matches_linearization_module() {
        let fig = figure2(301).unwrap();
        assert_eq!(fig.points.len(), 301);
        for &(_, exact, approx) in &fig.points {
            assert!((exact - approx).abs() <= fig.fit.max_error() + 1e-12);
        }
    }

    #[test]
    fn figure34_diagonal_trades_depth_for_glitches() {
        // 8-bit arrays keep the test fast; the paper's Figs 3/4 are
        // also drawn at 8 bits.
        let fig = figure34(8, 60, Workers::Fixed(2)).unwrap();
        let get = |style: &str, stages: u32| {
            fig.summaries
                .iter()
                .find(|s| s.style == style && s.stages == stages)
                .expect("summary must exist")
                .clone()
        };
        for stages in [2u32, 4] {
            let h = get("horizontal", stages);
            let d = get("diagonal", stages);
            // Diagonal cuts the critical path deeper...
            assert!(d.logical_depth < h.logical_depth, "stages {stages}");
            // ...at the price of more glitch activity.
            assert!(
                d.activity_timed > h.activity_timed,
                "stages {stages}: diag {} vs hor {}",
                d.activity_timed,
                h.activity_timed
            );
        }
    }

    #[test]
    fn renders_are_non_empty() {
        let f1 = figure1(16).unwrap();
        assert!(render_figure1(&f1).contains("Figure 1"));
        let f2 = figure2(16).unwrap();
        assert!(render_figure2(&f2).contains("alpha"));
    }

    #[test]
    fn pareto_figure_front_is_monotone_and_worker_invariant() {
        let fig = figure_pareto(5, Workers::Fixed(1)).unwrap();
        assert_eq!(fig.frequencies.len(), 5);
        assert_eq!(fig.result.len(), 3 * 13 * 5);
        let front = fig.result.pareto_front();
        assert!(!front.is_empty());
        // Ascending frequency implies ascending power along the front.
        let ptot = |r: &optpower_explore::EvalRecord| r.optimum().unwrap().ptot().value();
        for pair in front.windows(2) {
            assert!(pair[0].frequency.value() < pair[1].frequency.value());
            assert!(ptot(pair[0]) < ptot(pair[1]));
        }
        // Scheduling never changes the figure.
        let par = figure_pareto(5, Workers::Fixed(8)).unwrap();
        assert_eq!(par.result, fig.result);
    }

    #[test]
    fn pareto_renders_scatter_and_table() {
        let fig = figure_pareto(4, Workers::Auto).unwrap();
        let s = render_pareto(&fig);
        assert!(s.contains("Pareto front"));
        assert!(s.contains('*'), "front points plotted:\n{s}");
        assert!(s.contains("MHz"));
    }

    #[test]
    fn pareto_empty_result_set_renders_placeholder() {
        let fig = ParetoFigure {
            result: ResultSet::default(),
            frequencies: Vec::new(),
        };
        assert!(render_pareto(&fig).contains("no closed points"));
    }
}
