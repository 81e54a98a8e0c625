//! The ab-initio reproduction (Table 1′): every architectural
//! parameter measured from our own netlists, simulator and STA — no
//! calibration against the paper's numbers at all.
//!
//! Characterization (STA `LD` → activity measurement → optimisation)
//! is independent per netlist: [`characterize_design_with`] runs it
//! for one generated design, and the workload runtime maps it over a
//! job's (width, architecture) cells on the `optpower-explore` worker
//! pool. Both activity legs are parallel: the glitch-free baseline
//! uses the 64-lane [`optpower_sim::BitParallelSim`] engine, and the
//! glitch-counting leg shards [`TIMED_LANES`] lane-seeded event-wheel
//! [`optpower_sim::TimedSim`] instances over the pool
//! ([`optpower_explore::measure_timed_activity_pooled`]) — the
//! measured activity is worker-count invariant in both cases.
//!
//! The measured glitch factor `a(timed) / a(zero-delay)` per
//! architecture then feeds the *glitch-aware design-space sweep*
//! ([`glitch_sweep_from_rows`]): Table 1′ parameters — with activities
//! actually measured, glitches included — swept over every STM CMOS09
//! flavour and a log frequency axis on the exploration engine.

use core::fmt;

use optpower::sweep::log_frequency_axis;
use optpower::{ArchParams, ModelError, PowerModel};
use optpower_explore::{
    explore, measure_timed_activity_pooled, ExploreConfig, Grid, ResultSet, TimedPoolConfig,
    Workers,
};
use optpower_mult::{Architecture, MultiplierDesign};
use optpower_netlist::{Library, NetlistStats};
use optpower_sim::{measure_activity, Engine, SimError};
use optpower_sta::{LintReport, TimingAnalysis};
use optpower_tech::{Flavor, Technology};
use optpower_units::{Farads, Hertz, SquareMicrons};

use crate::render::{fnum, Table};

/// Stimulus lanes of the pooled timed (glitch-counting) measurement:
/// the per-architecture item budget is split into this many
/// lane-seeded independent streams so the slowest engine in the flow
/// can use the worker pool. Part of the measurement definition — the
/// result never depends on the worker count, only on the lane split.
pub const TIMED_LANES: u32 = 8;

/// Errors of the ab-initio flow: the power model/optimiser failed, the
/// lint gate refused a netlist, or a simulation failed — and then the
/// error says *which* architecture's netlist was at fault (the typed
/// replacement for the old in-library panic on oscillation).
#[derive(Debug, Clone, PartialEq)]
pub enum AbInitioError {
    /// Model building, calibration or optimisation failed.
    Model(ModelError),
    /// The structural lint found error-severity diagnostics in the
    /// netlist about to be simulated: its numbers would be meaningless.
    Lint {
        /// Name of the rejected netlist.
        netlist: String,
        /// The full lint report (error and warning diagnostics).
        report: LintReport,
    },
    /// A simulation engine rejected or aborted an architecture's
    /// netlist (invalid library delay, oscillation).
    Sim {
        /// The architecture whose netlist failed.
        arch: Architecture,
        /// The underlying simulation error.
        source: SimError,
    },
}

impl fmt::Display for AbInitioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "{e}"),
            Self::Lint { netlist, report } => write!(
                f,
                "lint rejected netlist '{netlist}' ({} error(s))",
                report.error_count()
            ),
            Self::Sim { arch, source } => {
                write!(f, "simulating {} failed: {source}", arch.paper_name())
            }
        }
    }
}

impl std::error::Error for AbInitioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::Lint { .. } => None,
            Self::Sim { source, .. } => Some(source),
        }
    }
}

impl From<ModelError> for AbInitioError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

/// How the glitch-free baseline's stimulus volume is tiled across
/// bit-parallel plane lanes.
///
/// The *total* baseline volume is fixed by the config — `items`
/// per-lane items at the `baseline` engine's native lane count (64 for
/// the default [`Engine::BitParallel`]) — and the tiling only decides
/// how many lanes carry it: at a resolved width of `L` lanes each lane
/// runs `items × native_lanes / L` items. Note that retiling *is* a
/// different measurement (different per-lane stream lengths under
/// different [`optpower_sim::lane_seed`] seeds), so the tiling is part
/// of the measurement definition, not pure scheduling — which is why
/// the default stays `Fixed(64)` and legacy results are byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneTiling {
    /// Exactly this many plane lanes: 64, 256 or 512. Errors if the
    /// total volume is not divisible by the lane count.
    Fixed(u32),
    /// The widest supported plane (512, then 256, then 64) that
    /// divides the total stimulus volume evenly — equal-volume runs
    /// automatically pick the widest plane that fits the work.
    Auto,
}

/// Native lane count of a plane engine (`None` for scalar engines).
fn engine_lanes(engine: Engine) -> Option<u64> {
    match engine {
        Engine::BitParallel => Some(64),
        Engine::BitParallel256 => Some(256),
        Engine::BitParallel512 => Some(512),
        Engine::ZeroDelay | Engine::Timed => None,
    }
}

/// The plane engine with `lanes` lanes.
fn engine_for_lanes(lanes: u64) -> Option<Engine> {
    match lanes {
        64 => Some(Engine::BitParallel),
        256 => Some(Engine::BitParallel256),
        512 => Some(Engine::BitParallel512),
        _ => None,
    }
}

impl PlaneTiling {
    /// Resolves the tiling against a baseline engine and per-lane item
    /// count: the effective `(engine, per_lane_items)` pair the
    /// baseline leg runs with.
    ///
    /// The baseline must count glitch-free activity: [`Engine::ZeroDelay`]
    /// or a bit-parallel plane. The scalar [`Engine::ZeroDelay`] has no
    /// plane to tile: `Auto` and `Fixed(64)` leave it untouched, any
    /// other fixed width is an error.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidArchParameter`] with field `"engine"` when
    /// the baseline counts glitches ([`Engine::Timed`]), field `"items"`
    /// when the total stimulus volume `items × native lanes` overflows
    /// 64 bits, and field `"plane_lanes"` when the width is not
    /// 64/256/512, does not divide the total stimulus volume, or is
    /// wider than 64 on a scalar baseline.
    pub fn resolve(self, baseline: Engine, items: u64) -> Result<(Engine, u64), ModelError> {
        let invalid =
            |field: &'static str, value: f64| ModelError::InvalidArchParameter { field, value };
        if baseline == Engine::Timed {
            return Err(invalid("engine", f64::NAN));
        }
        let Some(native) = engine_lanes(baseline) else {
            return match self {
                PlaneTiling::Auto | PlaneTiling::Fixed(64) => Ok((baseline, items)),
                PlaneTiling::Fixed(l) => Err(invalid("plane_lanes", f64::from(l))),
            };
        };
        let total = items
            .checked_mul(native)
            .ok_or_else(|| invalid("items", items as f64))?;
        match self {
            PlaneTiling::Fixed(l) => {
                let l = u64::from(l);
                let engine = engine_for_lanes(l).ok_or_else(|| invalid("plane_lanes", l as f64))?;
                if !total.is_multiple_of(l) {
                    return Err(invalid("plane_lanes", l as f64));
                }
                Ok((engine, total / l))
            }
            PlaneTiling::Auto => {
                let l = [512u64, 256, 64]
                    .into_iter()
                    .find(|l| total.is_multiple_of(*l))
                    .unwrap_or(64);
                Ok((
                    engine_for_lanes(l).expect("auto widths are supported"),
                    total / l,
                ))
            }
        }
    }
}

/// Full configuration of one ab-initio characterization run — the
/// measurement definition as one value, so declarative job specs can
/// express everything the old binary flags could and more.
///
/// `width`, `lanes`, `baseline`, `plane`, `items` and `seed` are part
/// of the *measurement definition* (they decide which operands are
/// applied and how results are normalised); `workers` is pure
/// scheduling and never changes the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizeConfig {
    /// Operand width in bits (the paper uses 16).
    pub width: usize,
    /// Stimulus lanes of the pooled timed (glitch-counting) leg.
    pub lanes: u32,
    /// Engine of the glitch-free baseline leg: [`Engine::BitParallel`]
    /// (64 stimulus lanes per item, the default) or
    /// [`Engine::ZeroDelay`] (the single-stream equivalent).
    pub baseline: Engine,
    /// Plane tiling of the glitch-free baseline leg: how many lanes
    /// the `items × 64` stimulus volume is spread over (default
    /// `Fixed(64)`, the legacy-identical shape).
    pub plane: PlaneTiling,
    /// Random-stimulus volume per architecture.
    pub items: u64,
    /// Base stimulus seed.
    pub seed: u64,
    /// Worker-count policy (wall-clock only, never the result).
    pub workers: Workers,
}

impl CharacterizeConfig {
    /// The paper's measurement shape: 16-bit operands,
    /// [`TIMED_LANES`] timed lanes, bit-parallel glitch-free baseline
    /// on the legacy 64-lane plane.
    pub fn new(items: u64, seed: u64) -> Self {
        Self {
            width: 16,
            lanes: TIMED_LANES,
            baseline: Engine::BitParallel,
            plane: PlaneTiling::Fixed(64),
            items,
            seed,
            workers: Workers::Auto,
        }
    }

    /// The effective `(engine, per_lane_items)` of the glitch-free
    /// baseline leg after plane tiling.
    ///
    /// # Errors
    ///
    /// As [`PlaneTiling::resolve`], wrapped in
    /// [`AbInitioError::Model`].
    pub fn resolved_baseline(&self) -> Result<(Engine, u64), AbInitioError> {
        self.plane
            .resolve(self.baseline, self.items)
            .map_err(AbInitioError::Model)
    }
}

/// One architecture's ab-initio measurement and optimisation result.
#[derive(Debug, Clone, Default)]
pub struct AbInitioRow {
    /// The architecture.
    pub arch: Architecture,
    /// Operand width the measurement ran at (16 in the paper).
    pub width: usize,
    /// Measured cell count `N`.
    pub cells: usize,
    /// Measured area in µm².
    pub area_um2: f64,
    /// Measured activity (timed engine, glitches included; pooled
    /// over [`TIMED_LANES`] lane-seeded streams).
    pub activity: f64,
    /// Measured glitch-free activity (bit-parallel engine: 64
    /// zero-delay stimulus lanes per item).
    pub activity_zero_delay: f64,
    /// Measured average switched capacitance per cell \[F\].
    pub cap_per_cell_f: f64,
    /// Effective logical depth per throughput period.
    pub ld_eff: f64,
    /// Optimal supply voltage \[V\].
    pub vdd: f64,
    /// Optimal threshold voltage \[V\].
    pub vth: f64,
    /// Optimal total power, numerical \[µW\].
    pub ptot_uw: f64,
    /// Optimal total power by Eq. 13 \[µW\] (NaN when the closed form is
    /// undefined, e.g. `χA ≥ 1` for the sequential designs).
    pub eq13_uw: f64,
}

impl AbInitioRow {
    /// The measured glitch amplification factor
    /// `a(timed) / a(zero-delay)`: how much switching the
    /// architecture's unbalanced path delays add on top of its
    /// functional activity. ~1 for well-balanced trees, rising on deep
    /// ripple arrays and diagonal pipeline cuts.
    pub fn glitch_factor(&self) -> f64 {
        self.activity / self.activity_zero_delay
    }

    /// The row's name on a design-space axis: the paper name at the
    /// paper's 16-bit width, width-qualified otherwise — so a sweep
    /// mixing operand widths never aliases two rows.
    pub fn axis_name(&self) -> String {
        if self.width == 16 {
            self.arch.paper_name().to_string()
        } else {
            format!("{} {}b", self.arch.paper_name(), self.width)
        }
    }
}

/// Ab-initio characterization of one generated [`MultiplierDesign`]:
/// library stats (N, C) → STA (LD) → activity (pooled timed +
/// glitch-free baseline) → optimise at `freq` on `tech`, under the
/// measurement definition in `config`. The caller generates the
/// design, so netlist variants characterize the same way, e.g. the raw
/// (pre-prune) form from [`Architecture::generate_raw`] for the
/// dead-cone before/after power delta. `config.width` is ignored in
/// favour of `design.width`; `config.workers` is the worker policy of
/// the pooled timed leg only — it affects wall-clock, never the
/// result.
///
/// The netlist passes the structural lint gate before anything is
/// simulated: warnings (such as the dead cones of a raw netlist) pass,
/// error-severity diagnostics refuse it. Linting costs a small fraction
/// of the simulation it protects, and gating here means a netlist is
/// linted exactly when it is characterized.
///
/// The static timing analysis the characterization ran (for the
/// effective logical depth) comes back beside the row, so a caller
/// that also reports static timing does not analyse the netlist again.
///
/// # Errors
///
/// [`AbInitioError::Lint`] when the lint gate refuses the netlist;
/// simulation failures carry the design's architecture, and
/// model/optimiser failures are propagated.
pub fn characterize_design_with(
    design: &MultiplierDesign,
    lib: &Library,
    tech: Technology,
    freq: Hertz,
    config: &CharacterizeConfig,
) -> Result<(AbInitioRow, TimingAnalysis), AbInitioError> {
    let arch = design.arch;
    let report = LintReport::lint(&design.netlist);
    if report.gate().is_err() {
        return Err(AbInitioError::Lint {
            netlist: design.netlist.name().to_string(),
            report,
        });
    }
    let (baseline_engine, baseline_items) = config.resolved_baseline()?;
    let stats = NetlistStats::measure(&design.netlist, lib);
    let sta = TimingAnalysis::analyze(&design.netlist, lib);
    let sim_err = |source: SimError| AbInitioError::Sim { arch, source };
    // The timed budget follows the *total* stimulus volume, expressed
    // in per-64-lane units: `items` counts per-lane items of the
    // baseline plane, so a native wide baseline (256/512 lanes) carries
    // `native/64`× more volume per item and the glitch leg must scale
    // with it — otherwise equal-volume configs (native wide vs retiled
    // 64-lane) would disagree on the timed leg. Scalar baselines keep
    // the legacy single-stream budget. The baseline resolved above, so
    // `items × native` fits 64 bits.
    let timed_items = match engine_lanes(config.baseline) {
        Some(native) => config.items * native / 64,
        None => config.items,
    };
    let timed_config = TimedPoolConfig {
        lanes: config.lanes,
        items_per_lane: timed_items.div_ceil(u64::from(config.lanes)).max(1),
        cycles_per_item: design.cycles_per_item,
        warmup: 4,
        seed: config.seed,
        workers: config.workers,
    };
    let timed =
        measure_timed_activity_pooled(&design.netlist, lib, &timed_config).map_err(sim_err)?;
    let zd = measure_activity(
        &design.netlist,
        lib,
        baseline_engine,
        baseline_items,
        design.cycles_per_item,
        4,
        config.seed,
    )
    .map_err(sim_err)?;
    let ld_eff = design.effective_logical_depth(sta.logical_depth());
    let params = ArchParams::builder(arch.paper_name())
        .cells(stats.logic_cells as u32)
        .activity(timed.activity)
        .logical_depth(ld_eff)
        .cap_per_cell(Farads::new(stats.avg_switched_cap_f))
        .build()?;
    let model = PowerModel::from_technology(tech, params, freq)?;
    let opt = model.optimize()?;
    let eq13_uw = model
        .closed_form()
        .map(|cf| cf.ptot.value() * 1e6)
        .unwrap_or(f64::NAN);
    let row = AbInitioRow {
        arch,
        width: design.width,
        cells: stats.logic_cells,
        area_um2: stats.area_um2,
        activity: timed.activity,
        activity_zero_delay: zd.activity,
        cap_per_cell_f: stats.avg_switched_cap_f,
        ld_eff,
        vdd: opt.vdd().value(),
        vth: opt.vth().value(),
        ptot_uw: opt.ptot().value() * 1e6,
        eq13_uw,
    };
    Ok((row, sta))
}

/// Which measured activity feeds a design-space sweep built from
/// ab-initio rows — the "activity source" of the exploration engine's
/// architecture axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivitySource {
    /// Timed activity, glitches included: the physically honest
    /// source, and what the paper's Table 1 reports.
    MeasuredTimed,
    /// Zero-delay activity: the counterfactual "no glitches" world.
    /// Sweeping both sources prices the glitch cost in the design
    /// space.
    MeasuredZeroDelay,
}

/// Converts measured ab-initio rows into the exploration engine's
/// [`ArchParams`] axis, drawing the activity from `source`.
///
/// # Errors
///
/// [`ModelError::InvalidArchParameter`] if a measured value is out of
/// physical range (e.g. an activity of 0 from a degenerate stimulus
/// volume).
pub fn measured_arch_params(
    rows: &[AbInitioRow],
    source: ActivitySource,
) -> Result<Vec<ArchParams>, ModelError> {
    rows.iter()
        .map(|r| {
            let activity = match source {
                ActivitySource::MeasuredTimed => r.activity,
                ActivitySource::MeasuredZeroDelay => r.activity_zero_delay,
            };
            ArchParams::builder(r.axis_name())
                .cells(r.cells as u32)
                .activity(activity)
                .logical_depth(r.ld_eff)
                .cap_per_cell(Farads::new(r.cap_per_cell_f))
                .area(SquareMicrons::new(r.area_um2))
                .build()
        })
        .collect()
}

/// A glitch-aware design-space sweep: the measured Table 1′
/// parameters swept over all three STM CMOS09 flavours and a log
/// frequency axis, once with glitch-inclusive activities and once
/// with the glitch-free baseline.
#[derive(Debug, Clone)]
pub struct GlitchSweep {
    /// The characterization rows the sweep was built from.
    pub rows: Vec<AbInitioRow>,
    /// The swept frequency axis.
    pub frequencies: Vec<Hertz>,
    /// Sweep results with measured timed (glitch-aware) activities,
    /// in grid order (tech-major, frequency fastest).
    pub glitch_aware: ResultSet,
    /// The same grid with glitch-free (zero-delay) activities.
    pub glitch_free: ResultSet,
}

impl GlitchSweep {
    /// Total extra optimal power the glitches cost across all closed
    /// points present in both sweeps, in watts — the design-space-wide
    /// price of unbalanced path delays.
    pub fn total_glitch_cost_w(&self) -> f64 {
        self.glitch_aware
            .records()
            .iter()
            .zip(self.glitch_free.records())
            .filter_map(|(a, f)| Some(a.optimum()?.ptot().value() - f.optimum()?.ptot().value()))
            .sum()
    }
}

/// Builds the glitch-aware and glitch-free sweeps from already
/// characterized rows (so a caller can reuse one characterization for
/// table rendering *and* the sweep).
///
/// # Errors
///
/// Propagates [`AbInitioError::Model`] for invalid measured
/// parameters or an empty row set.
pub fn glitch_sweep_from_rows(
    rows: Vec<AbInitioRow>,
    freq_points: usize,
    workers: Workers,
) -> Result<GlitchSweep, AbInitioError> {
    if rows.is_empty() {
        return Err(AbInitioError::Model(ModelError::InvalidCalibration {
            reason: "glitch sweep needs at least one characterized architecture",
        }));
    }
    let frequencies = log_frequency_axis(Hertz::new(1e6), Hertz::new(250e6), freq_points)
        .map_err(AbInitioError::Model)?;
    let config = ExploreConfig {
        workers,
        ..ExploreConfig::default()
    };
    let sweep_with = |source: ActivitySource| -> Result<ResultSet, AbInitioError> {
        let grid = Grid::builder()
            .technologies(Flavor::ALL.iter().map(|&fl| Technology::stm_cmos09(fl)))
            .architectures(measured_arch_params(&rows, source)?)
            .frequencies(frequencies.iter().copied())
            .build()
            .expect("all three axes are non-empty and validated");
        Ok(explore(&grid, &config))
    };
    Ok(GlitchSweep {
        glitch_aware: sweep_with(ActivitySource::MeasuredTimed)?,
        glitch_free: sweep_with(ActivitySource::MeasuredZeroDelay)?,
        rows,
        frequencies,
    })
}

/// Renders the ab-initio table in the paper's Table 1 layout, plus
/// the measured glitch-factor column.
pub fn render_ab_initio(rows: &[AbInitioRow]) -> String {
    let mut t = Table::new(&[
        "arch", "N", "area", "a", "a(0d)", "glitch x", "LDeff", "Vdd", "Vth", "Ptot[uW]",
        "Eq13[uW]",
    ]);
    for r in rows {
        t.row(&[
            r.arch.paper_name().to_string(),
            r.cells.to_string(),
            fnum(r.area_um2, 0),
            fnum(r.activity, 4),
            fnum(r.activity_zero_delay, 4),
            fnum(r.glitch_factor(), 2),
            fnum(r.ld_eff, 1),
            fnum(r.vdd, 3),
            fnum(r.vth, 3),
            fnum(r.ptot_uw, 2),
            if r.eq13_uw.is_nan() {
                "-".to_string()
            } else {
                fnum(r.eq13_uw, 2)
            },
        ]);
    }
    format!("Table 1' - ab-initio flow (no calibration against the paper)\n{t}")
}

/// Renders the measured glitch factors as an ASCII bar figure — the
/// per-architecture companion row to the paper's Figures 3/4 glitch
/// observation, from the full 13-architecture characterization.
pub fn render_glitch_factors(rows: &[AbInitioRow]) -> String {
    let mut out =
        String::from("Measured glitch factor a(timed) / a(zero-delay) per architecture\n");
    let max = rows
        .iter()
        .map(AbInitioRow::glitch_factor)
        .fold(1.0, f64::max);
    for r in rows {
        let g = r.glitch_factor();
        let bar = "#".repeat(((g / max) * 40.0).round().max(1.0) as usize);
        out.push_str(&format!(
            "{:<16} {:>5} |{}\n",
            r.arch.paper_name(),
            fnum(g, 2),
            bar
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The architectures' rows under `config`, each generated at
    /// `config.width` and characterized one after another at the
    /// paper's working point (ST LL, 31.25 MHz).
    fn characterize(
        archs: &[Architecture],
        config: &CharacterizeConfig,
    ) -> Result<Vec<AbInitioRow>, AbInitioError> {
        let lib = Library::cmos13();
        let tech = Technology::stm_cmos09(Flavor::LowLeakage);
        archs
            .iter()
            .map(|&arch| {
                let design = arch.generate(config.width).expect("supported width");
                characterize_design_with(&design, &lib, tech, Hertz::new(31.25e6), config)
                    .map(|(row, _)| row)
            })
            .collect()
    }

    /// All thirteen architectures, characterized once for every test
    /// that reads them.
    fn rows() -> &'static [AbInitioRow] {
        static ROWS: OnceLock<Vec<AbInitioRow>> = OnceLock::new();
        // Small stimulus volume keeps the debug-mode test quick while
        // remaining statistically stable for the coarse orderings.
        ROWS.get_or_init(|| {
            characterize(&Architecture::ALL, &CharacterizeConfig::new(60, 17)).unwrap()
        })
    }

    fn find(rows: &[AbInitioRow], arch: Architecture) -> &AbInitioRow {
        rows.iter().find(|r| r.arch == arch).expect("present")
    }

    #[test]
    fn section4_orderings_reproduce_ab_initio() {
        let rows = rows();
        let p = |a: Architecture| find(rows, a).ptot_uw;
        // Sequential family is by far the worst.
        assert!(p(Architecture::Sequential) > 3.0 * p(Architecture::Rca));
        // The Wallace family is the best.
        assert!(p(Architecture::Wallace) < p(Architecture::Rca));
        // Pipelining and parallelisation help the RCA.
        assert!(p(Architecture::RcaHorPipe2) < p(Architecture::Rca));
        assert!(p(Architecture::RcaParallel2) < p(Architecture::Rca));
    }

    #[test]
    fn glitch_effect_diag_vs_hor() {
        let rows = rows();
        let a = |x: Architecture| find(rows, x).activity;
        let ld = |x: Architecture| find(rows, x).ld_eff;
        assert!(a(Architecture::RcaDiagPipe2) > a(Architecture::RcaHorPipe2));
        assert!(ld(Architecture::RcaDiagPipe2) < ld(Architecture::RcaHorPipe2));
    }

    #[test]
    fn activity_scale_matches_paper() {
        // Our RCA activity lands in the paper's neighbourhood (0.5056);
        // sequential exceeds 1 as the paper stresses.
        let rows = rows();
        let rca = find(rows, Architecture::Rca);
        assert!(rca.activity > 0.3 && rca.activity < 1.5, "{}", rca.activity);
        assert!(find(rows, Architecture::Sequential).activity > 1.0);
    }

    #[test]
    fn glitch_factors_are_physical() {
        // Glitches only add switching: factor >= 1 (up to statistical
        // noise) everywhere, and the deep ripple array glitches more
        // than the balanced Wallace tree.
        let rows = rows();
        for r in rows {
            assert!(
                r.glitch_factor() > 0.95,
                "{}: {}",
                r.arch,
                r.glitch_factor()
            );
        }
        assert!(
            find(rows, Architecture::Rca).glitch_factor()
                > find(rows, Architecture::Wallace).glitch_factor()
        );
    }

    #[test]
    fn optimal_voltages_in_plausible_band() {
        for r in rows() {
            assert!(r.vdd > 0.2 && r.vdd < 1.3, "{}: vdd {}", r.arch, r.vdd);
            assert!(r.vth > 0.0 && r.vth < r.vdd, "{}: vth {}", r.arch, r.vth);
        }
    }

    #[test]
    fn render_lists_all() {
        let rows = rows();
        let s = render_ab_initio(rows);
        for arch in Architecture::ALL {
            assert!(s.contains(arch.paper_name()));
        }
        assert!(s.contains("glitch x"));
        let fig = render_glitch_factors(rows);
        for arch in Architecture::ALL {
            assert!(fig.contains(arch.paper_name()));
        }
        assert!(fig.contains('#'));
    }

    #[test]
    fn glitch_sweep_prices_glitches_in_the_design_space() {
        // A cheap two-architecture sweep: measured glitch-aware optima
        // must cost at least the glitch-free ones wherever both close.
        let archs = [Architecture::Rca, Architecture::Wallace];
        let rows = characterize(&archs, &CharacterizeConfig::new(30, 5)).unwrap();
        let sweep = glitch_sweep_from_rows(rows, 4, Workers::Auto).unwrap();
        assert_eq!(sweep.frequencies.len(), 4);
        assert_eq!(sweep.glitch_aware.len(), 3 * 2 * 4);
        assert_eq!(sweep.glitch_free.len(), 3 * 2 * 4);
        let mut compared = 0;
        for (a, f) in sweep
            .glitch_aware
            .records()
            .iter()
            .zip(sweep.glitch_free.records())
        {
            assert_eq!(a.tech, f.tech);
            assert_eq!(a.arch, f.arch);
            if let (Some(pa), Some(pf)) = (a.optimum(), f.optimum()) {
                assert!(
                    pa.ptot().value() >= pf.ptot().value() * 0.999,
                    "{}/{}: glitch-aware {} < glitch-free {}",
                    a.tech,
                    a.arch,
                    pa.ptot().value(),
                    pf.ptot().value()
                );
                compared += 1;
            }
        }
        assert!(compared > 0, "no point closed in both sweeps");
        assert!(sweep.total_glitch_cost_w() >= 0.0);
    }

    #[test]
    fn width_axis_characterizes_and_names_rows() {
        let cfg8 = CharacterizeConfig {
            width: 8,
            ..CharacterizeConfig::new(20, 3)
        };
        let rows8 = characterize(&[Architecture::Rca], &cfg8).unwrap();
        assert_eq!(rows8[0].width, 8);
        assert_eq!(rows8[0].axis_name(), "RCA 8b");
        let rows16 = characterize(&[Architecture::Rca], &CharacterizeConfig::new(20, 3)).unwrap();
        // 16-bit rows keep the bare paper name (legacy-identical axes).
        assert_eq!(rows16[0].axis_name(), "RCA");
        assert!(rows8[0].cells < rows16[0].cells);
        // A mixed-width sweep has no axis-name collisions.
        let mixed: Vec<AbInitioRow> = rows8.iter().chain(&rows16).cloned().collect();
        let params = measured_arch_params(&mixed, ActivitySource::MeasuredTimed).unwrap();
        assert_eq!(params[0].name(), "RCA 8b");
        assert_eq!(params[1].name(), "RCA");
    }

    #[test]
    fn baseline_engine_is_configurable() {
        // A ZeroDelay baseline consumes exactly the lane-0 stream, so
        // it reproduces the scalar measurement; the default 64-lane
        // bit-parallel baseline averages more stimulus but stays in
        // the same neighbourhood.
        let zd_cfg = CharacterizeConfig {
            baseline: Engine::ZeroDelay,
            ..CharacterizeConfig::new(30, 11)
        };
        let zd = characterize(&[Architecture::Wallace], &zd_cfg).unwrap();
        let bp = characterize(&[Architecture::Wallace], &CharacterizeConfig::new(30, 11)).unwrap();
        // Timed leg identical (same lanes/seed); baselines close but
        // generally not bit-equal (different stimulus volume).
        assert_eq!(zd[0].activity.to_bits(), bp[0].activity.to_bits());
        assert!((zd[0].activity_zero_delay - bp[0].activity_zero_delay).abs() < 0.1);
    }

    #[test]
    fn plane_tiling_resolves_widths_and_volumes() {
        // Fixed retiling preserves total volume: 60 per-lane items on
        // the 64-lane baseline = 3840 vectors = 15 per lane at 256.
        assert_eq!(
            PlaneTiling::Fixed(256).resolve(Engine::BitParallel, 60),
            Ok((Engine::BitParallel256, 15))
        );
        assert_eq!(
            PlaneTiling::Fixed(64).resolve(Engine::BitParallel, 60),
            Ok((Engine::BitParallel, 60))
        );
        // 3840 is not divisible by 512: Fixed errors, Auto falls back
        // to the widest divisor (256).
        assert!(matches!(
            PlaneTiling::Fixed(512).resolve(Engine::BitParallel, 60),
            Err(ModelError::InvalidArchParameter {
                field: "plane_lanes",
                ..
            })
        ));
        assert_eq!(
            PlaneTiling::Auto.resolve(Engine::BitParallel, 60),
            Ok((Engine::BitParallel256, 15))
        );
        // 8 × 64 = 512 vectors: Auto picks the full 512-lane plane.
        assert_eq!(
            PlaneTiling::Auto.resolve(Engine::BitParallel, 8),
            Ok((Engine::BitParallel512, 1))
        );
        // Unsupported widths are typed errors.
        assert!(PlaneTiling::Fixed(13)
            .resolve(Engine::BitParallel, 60)
            .is_err());
        // Scalar baselines have no plane: Auto/Fixed(64) are no-ops,
        // wider fixed planes are errors.
        assert_eq!(
            PlaneTiling::Auto.resolve(Engine::ZeroDelay, 60),
            Ok((Engine::ZeroDelay, 60))
        );
        assert_eq!(
            PlaneTiling::Fixed(64).resolve(Engine::ZeroDelay, 60),
            Ok((Engine::ZeroDelay, 60))
        );
        assert!(PlaneTiling::Fixed(256)
            .resolve(Engine::ZeroDelay, 60)
            .is_err());
        // A glitch-counting baseline is refused, and so is a volume
        // that overflows 64 bits; the largest volume that fits resolves.
        let field = |r: Result<(Engine, u64), ModelError>| match r {
            Err(ModelError::InvalidArchParameter { field, .. }) => field,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            field(PlaneTiling::Auto.resolve(Engine::Timed, 60)),
            "engine"
        );
        assert_eq!(
            field(PlaneTiling::Fixed(64).resolve(Engine::BitParallel, (1 << 58) + 1)),
            "items"
        );
        assert_eq!(
            PlaneTiling::Fixed(64).resolve(Engine::BitParallel, u64::MAX / 64),
            Ok((Engine::BitParallel, u64::MAX / 64))
        );
    }

    #[test]
    fn retiled_baseline_is_bit_identical_to_the_native_wide_engine() {
        // Fixed(256) over the 64-lane baseline is exactly the 256-lane
        // engine at the retiled per-lane volume: both configs must
        // produce bit-identical rows.
        let retiled = CharacterizeConfig {
            plane: PlaneTiling::Fixed(256),
            ..CharacterizeConfig::new(20, 7)
        };
        let native = CharacterizeConfig {
            baseline: Engine::BitParallel256,
            plane: PlaneTiling::Fixed(256),
            items: 5,
            ..CharacterizeConfig::new(20, 7)
        };
        let a = characterize(&[Architecture::Wallace], &retiled).unwrap();
        let b = characterize(&[Architecture::Wallace], &native).unwrap();
        assert_eq!(
            a[0].activity_zero_delay.to_bits(),
            b[0].activity_zero_delay.to_bits()
        );
        // The timed leg is untouched by the plane knob.
        assert_eq!(a[0].activity.to_bits(), b[0].activity.to_bits());
        // And an invalid tiling surfaces as the typed error.
        let bad = CharacterizeConfig {
            plane: PlaneTiling::Fixed(512),
            items: 30,
            ..CharacterizeConfig::new(30, 7)
        };
        let err = characterize(&[Architecture::Wallace], &bad).unwrap_err();
        assert!(matches!(
            err,
            AbInitioError::Model(ModelError::InvalidArchParameter {
                field: "plane_lanes",
                ..
            })
        ));
    }

    #[test]
    fn glitch_sweep_rejects_empty_rows() {
        let err = glitch_sweep_from_rows(Vec::new(), 3, Workers::Auto).unwrap_err();
        assert!(matches!(err, AbInitioError::Model(_)));
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn measured_params_pick_the_requested_activity_source() {
        let archs = [Architecture::Wallace];
        let rows = characterize(&archs, &CharacterizeConfig::new(20, 9)).unwrap();
        let timed = measured_arch_params(&rows, ActivitySource::MeasuredTimed).unwrap();
        let zd = measured_arch_params(&rows, ActivitySource::MeasuredZeroDelay).unwrap();
        assert_eq!(timed[0].activity(), rows[0].activity);
        assert_eq!(zd[0].activity(), rows[0].activity_zero_delay);
        assert_eq!(timed[0].cells(), rows[0].cells as f64);
        assert_eq!(timed[0].logical_depth(), rows[0].ld_eff);
    }
}
