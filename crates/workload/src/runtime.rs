//! The single execution engine behind every workload: a [`Runtime`]
//! owns one `optpower-explore` worker policy ([`Workers`]) and turns
//! any [`JobSpec`] into an [`Artifact`].
//!
//! One rule governs the whole module: **the worker policy is handed
//! in, never chosen ad hoc per flow.** Each job draws its parallelism
//! from the runtime's policy (specs may pin an explicit worker count
//! for their own run), and because every underlying flow is
//! worker-count-invariant, the artifact payload is a pure function of
//! the spec.
//!
//! The five netlist kinds (`ab_initio`, `glitch_sweep`, `sta`,
//! `prune_delta`, `lint`) share one list of (width, architecture)
//! cells per job (`job_cells`, which the sharder and the shard merge
//! use too), one pooled executor over it (`run_cells`) and one
//! characterization path through the row store; their arms only
//! assemble payloads.

use std::path::{Path, PathBuf};
use std::time::Instant;

use optpower_explore::{par_map, Workers};
use optpower_mult::{Architecture, MultiplierDesign};
use optpower_netlist::{Library, Netlist};
use optpower_report::ablation;
use optpower_report::extended::{scaling_study, sensitivity_report};
use optpower_report::{
    characterize_design_with, figure1, figure2, figure34, figure_pareto, glitch_sweep_from_rows,
    table1, table3, table4, AbInitioRow, CharacterizeConfig,
};
use optpower_sim::{measure_activity, VcdRecorder, ZeroDelaySim};
use optpower_sta::{GlitchProfile, LintReport, TimingAnalysis};
use optpower_tech::{Flavor, Technology};
use optpower_units::Hertz;

use crate::artifact::{
    Artifact, CacheStatus, ExportListing, FlavorRow, LintSummary, Payload, PruneDeltaRow,
    RowCacheStats, RunMeta, StaRow,
};
use crate::error::{SpecError, WorkloadError};
use crate::spec::{
    engine_name, AbInitioSpec, GlitchSweepSpec, JobSpec, LintSpec, PruneDeltaSpec, StaSpec,
};
use crate::store::Store;

/// Console title of the Table 1 artifact.
pub const TABLE1_TITLE: &str = "Table 1 - 16-bit multipliers at the optimal working point \
                                (ST LL, 31.25 MHz)\n(p) = paper columns; bare = this reproduction";
/// Console title of the Table 3 artifact.
pub const TABLE3_TITLE: &str = "Table 3 - Wallace family optimal power, ULL flavour (31.25 MHz)";
/// Console title of the Table 4 artifact.
pub const TABLE4_TITLE: &str = "Table 4 - Wallace family optimal power, HS flavour (31.25 MHz)";

/// The content address of one characterization under a given config:
/// every field that decides the measured row, nothing that doesn't
/// (`workers` is pure scheduling). `raw` marks the netlist before the
/// dead-cone prune, so `prune_delta`'s two legs never alias. The
/// baseline leg is keyed by its *resolved* `(engine, per-lane items)`
/// pair on top of the raw `(baseline, items)` — the raw pair still
/// matters because the timed leg derives its per-lane volume from raw
/// `items`. Every characterization runs at the paper's working point
/// (ST LL, 31.25 MHz).
fn row_key(
    (width, arch, raw): (usize, Architecture, bool),
    config: &CharacterizeConfig,
) -> Result<String, WorkloadError> {
    let (resolved_engine, resolved_items) = config.resolved_baseline()?;
    Ok(format!(
        "arch={};netlist={};width={width};lanes={};baseline={};items={};plane={}x{};seed={}",
        arch.paper_name(),
        if raw { "raw" } else { "pruned" },
        config.lanes,
        engine_name(config.baseline),
        config.items,
        engine_name(resolved_engine),
        resolved_items,
        config.seed,
    ))
}

/// What [`Runtime::characterize_cells`] returns: each leg's row and
/// netlist flip-flop count, and the `on_miss` result of every leg it
/// computed.
type CharacterizedLegs<T> = (Vec<AbInitioRow>, Vec<usize>, Vec<Option<T>>);

/// Executes [`JobSpec`]s under one shared worker policy.
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: Workers,
    artifact_dir: PathBuf,
    cache: Option<Store<Artifact>>,
    /// Each row beside its netlist's flip-flop count, which the row
    /// does not carry and `prune_delta` reports.
    row_cache: Option<Store<(AbInitioRow, usize)>>,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new(Workers::Auto)
    }
}

impl Runtime {
    /// A runtime whose jobs run on `workers`, writing side-effect
    /// artifacts (the export job) under `target/optpower-artifacts`.
    pub fn new(workers: Workers) -> Self {
        Self {
            workers,
            artifact_dir: PathBuf::from("target/optpower-artifacts"),
            cache: None,
            row_cache: None,
        }
    }

    /// Overrides the directory side-effect artifacts are written to.
    pub fn with_artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifact_dir = dir.into();
        self
    }

    /// Attaches two fresh [`Store`]s: an artifact store holding at
    /// most `capacity` artifacts, keyed by the spec's canonical JSON,
    /// and the incremental row store behind it, keyed by everything
    /// that decides one characterization (architecture, raw or pruned
    /// netlist, width, lanes, baseline, items, resolved plane, seed)
    /// and sized at one full 13-architecture sweep per artifact slot.
    /// Once attached, every [`Runtime::run`] stamps `meta.cache` and
    /// identical specs (by canonical JSON — key order and float
    /// spelling don't matter) are served from the artifact store,
    /// while characterizing jobs (`prune_delta`'s raw and pruned legs
    /// included) additionally reuse any rows a *different* spec
    /// already computed (stamped in `meta.row_cache`). Cloned runtimes
    /// share both stores.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(Store::new(capacity));
        self.row_cache = Some(Store::new(capacity.saturating_mul(Architecture::ALL.len())));
        self
    }

    /// The directory side-effect artifacts are written to.
    pub fn artifact_dir(&self) -> &Path {
        &self.artifact_dir
    }

    /// Executes one job, returning its artifact.
    ///
    /// With a cache attached (see [`Runtime::with_cache`]) the spec's
    /// canonical JSON is looked up first: a hit returns the stored
    /// artifact with `meta.cache = hit` and the lookup's own wall
    /// time; a miss executes, stamps `meta.cache = miss` and inserts.
    /// Batch members recurse through this method, so each member is
    /// cached (and served) individually too. The export job is cached
    /// like any other: a hit returns the original listing — the files
    /// it names were written by the miss that populated the entry.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] — the single error surface of every workload.
    pub fn run(&self, spec: &JobSpec) -> Result<Artifact, WorkloadError> {
        let Some(cache) = &self.cache else {
            return self.execute(spec, None);
        };
        if let Some(artifact) = self.cache_lookup(spec) {
            return Ok(artifact);
        }
        let artifact = self.execute(spec, Some(CacheStatus::Miss))?;
        cache.insert(spec.canonical_json(), artifact.clone());
        Ok(artifact)
    }

    /// Serves a spec straight from the attached cache, if resident:
    /// the stored artifact with `meta.cache = hit` and the lookup's
    /// wall time. `None` when no cache is attached or the spec hasn't
    /// run yet. The job service uses this at admission so hits never
    /// occupy a queue slot.
    pub fn cache_lookup(&self, spec: &JobSpec) -> Option<Artifact> {
        let started = Instant::now();
        let cache = self.cache.as_ref()?;
        let artifact = cache.get(&spec.canonical_json())?;
        Some(artifact.into_cache_hit(started))
    }

    /// The uncached execution path behind [`Runtime::run`].
    fn execute(
        &self,
        spec: &JobSpec,
        cache_status: Option<CacheStatus>,
    ) -> Result<Artifact, WorkloadError> {
        let started = Instant::now();
        // A spec's own `workers` field overrides this policy.
        let workers = self.workers;
        // Filled in by the characterizing arms when a row cache is
        // attached; `None` keeps every other job's envelope unchanged.
        let mut row_stats: Option<RowCacheStats> = None;
        let (payload, meta_workers) = match spec {
            JobSpec::Table1Sweep { archs } => (
                Payload::Rows {
                    title: TABLE1_TITLE.to_string(),
                    rows: table1(Some(&table1_rows(archs)?), workers)?,
                },
                workers.count(),
            ),
            JobSpec::Table2 => (
                Payload::Flavors(
                    Flavor::ALL
                        .iter()
                        .map(|&flavor| {
                            let tech = Technology::stm_cmos09(flavor);
                            FlavorRow {
                                flavor: flavor.abbreviation(),
                                vdd_nom_v: tech.vdd_nom().value(),
                                vth0_nom_v: tech.vth0_nom().value(),
                                io_ua: tech.io().value() * 1e6,
                                zeta_pf: tech.zeta().value() * 1e12,
                                alpha: tech.alpha(),
                                n: tech.n(),
                            }
                        })
                        .collect(),
                ),
                1,
            ),
            JobSpec::Table3 => (
                Payload::Rows {
                    title: TABLE3_TITLE.to_string(),
                    rows: table3()?,
                },
                1,
            ),
            JobSpec::Table4 => (
                Payload::Rows {
                    title: TABLE4_TITLE.to_string(),
                    rows: table4()?,
                },
                1,
            ),
            JobSpec::ScalingStudy { frequencies_mhz } => (
                Payload::Scaling {
                    unscaled: scaling_study(frequencies_mhz, false, workers)?,
                    scaled: scaling_study(frequencies_mhz, true, workers)?,
                },
                workers.count(),
            ),
            JobSpec::Sensitivity => (
                Payload::Sensitivity(sensitivity_report(workers)?),
                workers.count(),
            ),
            JobSpec::Ablation { items, seed } => (
                Payload::Ablation {
                    alpha: 1.86,
                    fit: ablation::fit_range_sensitivity(1.86)?,
                    optimizer: ablation::optimizer_ablation()?,
                    glitch: ablation::glitch_ablation(*items, *seed)?,
                },
                1,
            ),
            JobSpec::AbInitio(s) => {
                let workers = s.workers.map_or(workers, Workers::Fixed);
                let config = CharacterizeConfig {
                    lanes: s.lanes,
                    baseline: s.engine,
                    plane: s.plane,
                    workers,
                    ..CharacterizeConfig::new(s.items, s.seed)
                };
                let (rows, ..) = self.characterize_cells(
                    &job_cells(spec)?,
                    &[false],
                    &config,
                    &mut row_stats,
                    |_, _, _| Ok(()),
                )?;
                (Payload::AbInitio(rows), workers.count())
            }
            JobSpec::GlitchSweep(s) => {
                let workers = s.workers.map_or(workers, Workers::Fixed);
                let config = CharacterizeConfig {
                    lanes: s.lanes,
                    baseline: s.engine,
                    plane: s.plane,
                    workers,
                    ..CharacterizeConfig::new(s.items, s.seed)
                };
                let (rows, ..) = self.characterize_cells(
                    &job_cells(spec)?,
                    &[false],
                    &config,
                    &mut row_stats,
                    |_, _, _| Ok(()),
                )?;
                (
                    Payload::Glitch(glitch_sweep_from_rows(rows, s.freq_points, workers)?),
                    workers.count(),
                )
            }
            JobSpec::ActivityMeasure(s) => {
                let arch = arch_by_name(&s.arch)?;
                if !arch.supports_width(s.width) {
                    return Err(width_error(arch, s.width));
                }
                let design = arch
                    .generate(s.width)
                    .expect("supported widths generate structurally valid netlists");
                lint_preflight(&design.netlist)?;
                let report = measure_activity(
                    &design.netlist,
                    &Library::cmos13(),
                    s.engine,
                    s.items,
                    design.cycles_per_item,
                    s.warmup,
                    s.seed,
                )?;
                (
                    Payload::Activity {
                        spec: s.clone(),
                        report,
                    },
                    1,
                )
            }
            JobSpec::Figure1 { samples } => (Payload::Figure1(figure1(*samples)?), 1),
            JobSpec::Figure2 { samples } => (Payload::Figure2(figure2(*samples)?), 1),
            JobSpec::Figure34 { width, items } => (Payload::Figure34(figure34(*width, *items)?), 1),
            JobSpec::Pareto { freq_points } => (
                Payload::Pareto(figure_pareto(*freq_points, workers)?),
                workers.count(),
            ),
            JobSpec::Export => (Payload::Export(self.export()?), 1),
            JobSpec::Lint(_) => {
                let summaries = run_cells(&job_cells(spec)?, workers, |&(width, arch), _| {
                    Ok(LintSummary {
                        arch: arch.paper_name().to_string(),
                        width,
                        report: LintReport::lint(&arch.generate(width)?.netlist),
                    })
                })?;
                (Payload::Lint(summaries), workers.count())
            }
            JobSpec::Sta(s) => {
                let workers = s.workers.map_or(workers, Workers::Fixed);
                let cells = job_cells(spec)?;
                let lib = Library::cmos13();
                // Each cell's netlist is built once per job: a measured
                // leg that misses the row store reports the static row
                // of the design it just characterized. Only the other
                // cells (served rows, or no measured leg) generate
                // theirs in a second pass, so hits still stay out of
                // the characterization's worker split.
                let (measured, mut rows) = if s.items > 0 {
                    let config = CharacterizeConfig {
                        lanes: s.lanes,
                        workers,
                        ..CharacterizeConfig::new(s.items, s.seed)
                    };
                    let (measured, _, rows) = self.characterize_cells(
                        &cells,
                        &[false],
                        &config,
                        &mut row_stats,
                        |design, row, sta| Ok(sta_row(&lib, design, sta, Some(row))),
                    )?;
                    (measured.into_iter().map(Some).collect(), rows)
                } else {
                    (vec![None; cells.len()], vec![None; cells.len()])
                };
                let static_only: Vec<usize> =
                    (0..cells.len()).filter(|&i| rows[i].is_none()).collect();
                let computed = run_cells(&static_only, workers, |&i, _| {
                    let (width, arch) = cells[i];
                    let design = arch.generate(width)?;
                    lint_preflight(&design.netlist)?;
                    let sta = TimingAnalysis::try_analyze(&design.netlist, &lib)?;
                    Ok(sta_row(&lib, &design, &sta, measured[i].as_ref()))
                })?;
                for (i, row) in static_only.into_iter().zip(computed) {
                    rows[i] = Some(row);
                }
                let rows = rows
                    .into_iter()
                    .map(|row| row.expect("every cell is filled by one of the two passes"))
                    .collect();
                (Payload::Sta(rows), workers.count())
            }
            JobSpec::PruneDelta(s) => {
                // Per cell, the raw (pre-prune) and the production
                // (pruned) netlist through the identical
                // characterization. Both legs pass its lint gate: the
                // raw leg's dead cones are warnings, not errors, so what
                // they cost can be surfaced, while an X-source in either
                // leg is still refused.
                let workers = s.workers.map_or(workers, Workers::Fixed);
                let config = CharacterizeConfig {
                    workers,
                    ..CharacterizeConfig::new(s.items, s.seed)
                };
                let cells = job_cells(spec)?;
                let (legs, dffs, _) = self.characterize_cells(
                    &cells,
                    &[true, false],
                    &config,
                    &mut row_stats,
                    |_, _, _| Ok(()),
                )?;
                let rows = cells
                    .iter()
                    .zip(legs.chunks_exact(2).zip(dffs.chunks_exact(2)))
                    .map(|(&(width, arch), (legs, dffs))| PruneDeltaRow {
                        arch: arch.paper_name().to_string(),
                        width,
                        cells_before: legs[0].cells,
                        cells_after: legs[1].cells,
                        dffs_before: dffs[0],
                        dffs_after: dffs[1],
                        activity_before: legs[0].activity,
                        activity_after: legs[1].activity,
                        ptot_uw_before: legs[0].ptot_uw,
                        ptot_uw_after: legs[1].ptot_uw,
                    })
                    .collect();
                (Payload::PruneDelta(rows), workers.count())
            }
            JobSpec::Batch(jobs) => {
                let artifacts = jobs
                    .iter()
                    .map(|job| self.run(job))
                    .collect::<Result<Vec<_>, _>>()?;
                (Payload::Batch(artifacts), workers.count())
            }
        };
        let mut meta = RunMeta::for_spec(spec, meta_workers);
        meta.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        meta.cache = cache_status;
        meta.row_cache = row_stats;
        Ok(Artifact {
            spec: spec.clone(),
            payload,
            meta,
        })
    }

    /// The one characterization path of the netlist jobs: the
    /// netlists `raw` lists of each cell (`false` = the production
    /// netlist every job measures, `true` = the raw one before the
    /// dead-cone prune), each generated → [`characterize_design_with`]
    /// under `config` at the paper's working point (ST LL,
    /// 31.25 MHz). Rows come back cell-major, in `raw` order, beside
    /// each netlist's flip-flop count. `config.width` is ignored (each
    /// cell brings its own) and `config.workers` is the job's whole
    /// budget.
    ///
    /// With a row store attached, resident rows are served first
    /// (bit-identical by determinism) and `stats` counts hits and
    /// misses; only the misses go to [`run_cells`], so they split the
    /// whole budget among themselves, and each is inserted. The lint
    /// gate runs inside the characterization, so a served row does no
    /// netlist work at all.
    ///
    /// Each computed leg also runs `on_miss` on the design it just
    /// characterized and the timing analysis the characterization
    /// built, before the netlist is dropped; its result comes back in
    /// the leg's slot of the third list (`None` for a served row).
    fn characterize_cells<T: Send>(
        &self,
        cells: &[(usize, Architecture)],
        raw: &[bool],
        config: &CharacterizeConfig,
        stats: &mut Option<RowCacheStats>,
        on_miss: impl Fn(&MultiplierDesign, &AbInitioRow, &TimingAnalysis) -> Result<T, WorkloadError>
            + Sync,
    ) -> Result<CharacterizedLegs<T>, WorkloadError> {
        let legs: Vec<(usize, Architecture, bool)> = cells
            .iter()
            .flat_map(|&(width, arch)| raw.iter().map(move |&raw| (width, arch, raw)))
            .collect();
        let keys = legs
            .iter()
            .map(|&leg| row_key(leg, config))
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows: Vec<Option<(AbInitioRow, usize)>> = match &self.row_cache {
            Some(store) => keys.iter().map(|key| store.get(key)).collect(),
            None => vec![None; legs.len()],
        };
        let missing: Vec<usize> = (0..legs.len()).filter(|&i| rows[i].is_none()).collect();
        if self.row_cache.is_some() {
            let stats = stats.get_or_insert_with(RowCacheStats::default);
            stats.hits += (legs.len() - missing.len()) as u64;
            stats.misses += missing.len() as u64;
        }
        let lib = Library::cmos13();
        let tech = Technology::stm_cmos09(Flavor::LowLeakage);
        let freq = Hertz::new(31.25e6);
        let computed = run_cells(&missing, config.workers, |&i, workers| {
            let (width, arch, raw) = legs[i];
            let design = if raw {
                arch.generate_raw(width)?
            } else {
                arch.generate(width)?
            };
            let config = CharacterizeConfig {
                width,
                workers,
                ..*config
            };
            let (row, sta) = characterize_design_with(&design, &lib, tech, freq, &config)?;
            let extra = on_miss(&design, &row, &sta)?;
            Ok(((row, design.netlist.dff_count()), extra))
        })?;
        let mut extras: Vec<Option<T>> = legs.iter().map(|_| None).collect();
        for (i, (row, extra)) in missing.into_iter().zip(computed) {
            if let Some(store) = &self.row_cache {
                store.insert(keys[i].clone(), row.clone());
            }
            rows[i] = Some(row);
            extras[i] = Some(extra);
        }
        let (rows, dffs) = rows
            .into_iter()
            .map(|row| row.expect("every leg is either served or computed"))
            .unzip();
        Ok((rows, dffs, extras))
    }

    /// The structural export job: Verilog + DOT per architecture and a
    /// short RCA VCD trace, written under the artifact directory.
    fn export(&self) -> Result<ExportListing, WorkloadError> {
        let dir = &self.artifact_dir;
        std::fs::create_dir_all(dir)
            .map_err(|e| WorkloadError::io(dir.display().to_string(), e))?;
        let mut files = Vec::new();
        let mut write = |name: String, contents: String| -> Result<(), WorkloadError> {
            let path = dir.join(&name);
            std::fs::write(&path, contents)
                .map_err(|e| WorkloadError::io(path.display().to_string(), e))?;
            files.push(name);
            Ok(())
        };
        for arch in Architecture::ALL {
            let design = arch.generate(16)?;
            let stem = design.netlist.name().to_string();
            write(
                format!("{stem}.v"),
                optpower_netlist::to_verilog(&design.netlist),
            )?;
            write(
                format!("{stem}.dot"),
                optpower_netlist::to_dot(&design.netlist, |_| None),
            )?;
        }
        // A short VCD trace of the basic RCA multiplying random
        // operands (same stimulus as the legacy export binary).
        let design = Architecture::Rca.generate(16)?;
        let mut sim = ZeroDelaySim::new(&design.netlist);
        let mut vcd = VcdRecorder::all_nets(&design.netlist);
        for i in 0..32u64 {
            sim.set_input_bits("a", (i * 2654435761) & 0xFFFF);
            sim.set_input_bits("b", (i * 40503) & 0xFFFF);
            sim.step();
            vcd.sample(&sim);
        }
        write("rca.vcd".to_string(), vcd.finish())?;
        Ok(ExportListing {
            dir: dir.display().to_string(),
            files,
        })
    }
}

/// Structural lint for the jobs that use a netlist outside
/// characterization — the activity measurement and the static STA
/// rows of cells not characterized in the job — failing with the typed
/// [`WorkloadError::Lint`] on error-severity diagnostics (warnings
/// pass). Characterizing jobs
/// need no preflight: [`characterize_design_with`] applies the same
/// gate to the netlist it simulates, so rows served from the row
/// cache do no netlist work at all.
fn lint_preflight(netlist: &Netlist) -> Result<(), WorkloadError> {
    let report = LintReport::lint(netlist);
    if report.gate().is_err() {
        return Err(WorkloadError::Lint {
            netlist: netlist.name().to_string(),
            report,
        });
    }
    Ok(())
}

/// The one executor behind every netlist job: runs `task` once per
/// item on the pool and returns the results in item order, or the
/// first error in item order. The budget splits two levels deep: the
/// outer pool runs min(workers, items) items at a time, and each task
/// gets the leftover workers for its timed lanes, so a few very slow
/// netlists (the 61-deep RCA, the sequential cores) cannot serialise
/// the tail. Every task is an independent deterministic computation:
/// the pools only decide *who* runs it, never what it returns.
fn run_cells<T: Sync, R: Send>(
    items: &[T],
    workers: Workers,
    task: impl Fn(&T, Workers) -> Result<R, WorkloadError> + Sync,
) -> Result<Vec<R>, WorkloadError> {
    let total = workers.count();
    let outer = total.clamp(1, items.len().max(1));
    let inner = Workers::Fixed((total / outer).max(1));
    par_map(items, outer, |item| task(item, inner))
        .into_iter()
        .collect()
}

/// One STA row: integer-tick windows, path statistics and the static
/// glitch bound of a cell's linted production netlist, read off its
/// timing analysis `sta`, beside the cell's measured glitch factor and
/// activity when the job measured them.
fn sta_row(
    lib: &Library,
    design: &MultiplierDesign,
    sta: &TimingAnalysis,
    measured: Option<&AbInitioRow>,
) -> StaRow {
    let glitch = GlitchProfile::compute(&design.netlist, sta);
    let critical_path_cells = sta
        .critical_path(&design.netlist, lib)
        .map(|p| p.cells.len())
        .unwrap_or(0);
    StaRow {
        arch: design.arch.paper_name().to_string(),
        width: design.width,
        cells: design.netlist.logic_cell_count(),
        stride_ticks: sta.stride(),
        logical_depth: sta.logical_depth(),
        shortest_path: sta.shortest_endpoint_path(),
        path_spread: sta.path_spread(),
        mean_input_skew: sta.mean_input_skew(),
        critical_path_cells,
        static_glitch_factor: glitch.static_glitch_factor(),
        measured_glitch_factor: measured.map(AbInitioRow::glitch_factor),
        // Activity is per data item; the per-cycle cell bound scales
        // by the item's cycle count.
        static_activity_bound: glitch.mean_cell_bound() * f64::from(design.cycles_per_item),
        measured_activity: measured.map(|row| row.activity),
    }
}

/// Looks one architecture up by paper name, as a typed error.
pub(crate) fn arch_by_name(name: &str) -> Result<Architecture, WorkloadError> {
    Architecture::from_paper_name(name).ok_or_else(|| {
        SpecError::new(format!(
            "unknown architecture {name:?} (Table 1 paper names expected)"
        ))
        .into()
    })
}

/// A netlist job's (width, architecture) cells in evaluation order:
/// the one place a job's grid is resolved and validated. The runtime
/// runs these cells, [`JobSpec::shard`] cuts along them and
/// [`Artifact::merge_shards`] orders rows by them, so a spec that
/// shards is a spec that would run.
///
/// * `ab_initio` and `sta`: the architectures at the spec's width, each
///   of which must support it;
/// * `glitch_sweep` and `prune_delta`: the [`width_grid`];
/// * `lint`: architecture-major. Explicit architectures *and* widths
///   must all fit together; otherwise each architecture narrows to the
///   widths it exists at (with no `widths`, every width it supports:
///   the CI gate shape).
///
/// Every other kind has no cells.
pub(crate) fn job_cells(spec: &JobSpec) -> Result<Vec<(usize, Architecture)>, WorkloadError> {
    match spec {
        JobSpec::AbInitio(AbInitioSpec { archs, width, .. })
        | JobSpec::Sta(StaSpec { archs, width, .. }) => resolve_archs(archs)?
            .into_iter()
            .map(|arch| {
                if arch.supports_width(*width) {
                    Ok((*width, arch))
                } else {
                    Err(width_error(arch, *width))
                }
            })
            .collect(),
        JobSpec::GlitchSweep(GlitchSweepSpec { archs, widths, .. })
        | JobSpec::PruneDelta(PruneDeltaSpec { archs, widths, .. }) => width_grid(archs, widths),
        JobSpec::Lint(LintSpec { archs, widths }) => {
            let resolved = resolve_archs(archs)?;
            if let Some(ws) = widths {
                check_widths(ws)?;
            }
            let strict = archs.is_some() && widths.is_some();
            let widths = widths.clone().unwrap_or_else(|| (2..=32).collect());
            let mut cells = Vec::new();
            for arch in resolved {
                for &width in &widths {
                    if arch.supports_width(width) {
                        cells.push((width, arch));
                    } else if strict {
                        return Err(width_error(arch, width));
                    }
                }
            }
            Ok(cells)
        }
        _ => Ok(Vec::new()),
    }
}

/// A `table1_sweep`'s row names in evaluation order: the explicit
/// `archs` list, validated like every other architecture axis, or all
/// thirteen rows. Table 1's published rows are the paper names of
/// [`Architecture::ALL`], in order. The runtime solves these rows,
/// [`JobSpec::shard`] cuts along them and [`Artifact::merge_shards`]
/// orders shard rows by them.
pub(crate) fn table1_rows(archs: &Option<Vec<String>>) -> Result<Vec<String>, WorkloadError> {
    Ok(resolve_archs(archs)?
        .into_iter()
        .map(|arch| arch.paper_name().to_string())
        .collect())
}

/// The width-major cells of a job with a width axis: each width with
/// its architectures in resolution order. With an explicit `archs`
/// list an unsupported width is an error; the default (all thirteen)
/// narrows each width to the architectures that exist at it. An empty
/// or repeating `widths` is an error too: a repeat would characterize
/// everything twice and alias two identically named rows on the sweep
/// axis.
fn width_grid(
    archs: &Option<Vec<String>>,
    widths: &[usize],
) -> Result<Vec<(usize, Architecture)>, WorkloadError> {
    check_widths(widths)?;
    let resolved = resolve_archs(archs)?;
    let mut cells = Vec::new();
    for &width in widths {
        let before = cells.len();
        for &arch in &resolved {
            if arch.supports_width(width) {
                cells.push((width, arch));
            } else if archs.is_some() {
                return Err(width_error(arch, width));
            }
        }
        if cells.len() == before {
            return Err(SpecError::new(format!(
                "no requested architecture supports width {width}"
            ))
            .into());
        }
    }
    Ok(cells)
}

/// A width axis must be non-empty and must not repeat a width.
fn check_widths(widths: &[usize]) -> Result<(), WorkloadError> {
    if widths.is_empty() {
        return Err(SpecError::new("\"widths\" must not be empty").into());
    }
    if let Some(dup) = first_duplicate(widths) {
        return Err(SpecError::new(format!("\"widths\" lists {dup} more than once")).into());
    }
    Ok(())
}

/// The first value appearing more than once, if any.
fn first_duplicate<T: PartialEq>(items: &[T]) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find(|(i, v)| items[..*i].contains(v))
        .map(|(_, v)| v)
}

/// Resolves paper names to architectures (`None` = all thirteen).
/// Duplicate names are rejected — they would silently double-count
/// every downstream aggregate.
fn resolve_archs(names: &Option<Vec<String>>) -> Result<Vec<Architecture>, WorkloadError> {
    match names {
        None => Ok(Architecture::ALL.to_vec()),
        Some(names) => {
            if names.is_empty() {
                return Err(SpecError::new("\"archs\" must not be an empty list").into());
            }
            let archs = names
                .iter()
                .map(|name| arch_by_name(name))
                .collect::<Result<Vec<_>, _>>()?;
            if let Some(dup) = first_duplicate(&archs) {
                return Err(SpecError::new(format!(
                    "\"archs\" lists {:?} more than once",
                    dup.paper_name()
                ))
                .into());
            }
            Ok(archs)
        }
    }
}

fn width_error(arch: Architecture, width: usize) -> WorkloadError {
    SpecError::new(format!(
        "{} does not support operand width {width} \
         (arrays/trees: 2..=32; sequential family: power of two >= 4)",
        arch.paper_name()
    ))
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`table1_rows`] resolves through the architecture list, which is
    /// only right while Table 1's published rows are the architectures'
    /// paper names in [`Architecture::ALL`] order.
    #[test]
    fn table1_rows_are_the_paper_names_of_every_architecture() {
        let paper_names: Vec<&str> = Architecture::ALL.iter().map(|a| a.paper_name()).collect();
        assert_eq!(optpower_report::table1_names(), paper_names);
        assert_eq!(table1_rows(&None).unwrap(), paper_names);
    }
}
