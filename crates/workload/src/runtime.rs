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

use std::path::{Path, PathBuf};
use std::time::Instant;

use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_netlist::{Library, Netlist};
use optpower_report::ablation;
use optpower_report::extended::{scaling_study_parallel, sensitivity_report_parallel};
use optpower_report::{
    characterize_design_with, characterize_parallel_with, figure1, figure2, figure34,
    figure_pareto, glitch_sweep_from_rows, table1_names, table1_parallel, table1_subset_parallel,
    table3, table4, AbInitioRow, CharacterizeConfig, GlitchSweep,
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

/// The content address of one architecture's characterization under a
/// given config: every field that decides the measured row, nothing
/// that doesn't (`workers` is pure scheduling). The baseline leg is
/// keyed by its *resolved* `(engine, per-lane items)` pair on top of
/// the raw `(baseline, items)` — the raw pair still matters because
/// the timed leg derives its per-lane volume from raw `items`.
fn row_key(
    arch: Architecture,
    flavor: Flavor,
    config: &CharacterizeConfig,
) -> Result<String, WorkloadError> {
    let (resolved_engine, resolved_items) = config.resolved_baseline()?;
    Ok(format!(
        "arch={};flavor={};width={};lanes={};baseline={};items={};plane={}x{};seed={}",
        arch.paper_name(),
        flavor.abbreviation(),
        config.width,
        config.lanes,
        engine_name(config.baseline),
        config.items,
        engine_name(resolved_engine),
        resolved_items,
        config.seed,
    ))
}

/// Executes [`JobSpec`]s under one shared worker policy.
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: Workers,
    artifact_dir: PathBuf,
    cache: Option<Store<Artifact>>,
    row_cache: Option<Store<AbInitioRow>>,
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
    /// that decides one architecture's characterization (architecture,
    /// flavour, width, lanes, baseline, items, resolved plane, seed)
    /// and sized at one full 13-architecture sweep per artifact slot.
    /// Once attached, every [`Runtime::run`] stamps `meta.cache` and
    /// identical specs (by canonical JSON — key order and float
    /// spelling don't matter) are served from the artifact store,
    /// while characterizing jobs additionally reuse any
    /// per-architecture rows a *different* spec already computed
    /// (stamped in `meta.row_cache`). Cloned runtimes share both
    /// stores.
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
                    rows: match archs {
                        None => table1_parallel(workers)?,
                        Some(names) => {
                            resolve_table1_names(names)?;
                            table1_subset_parallel(names, workers)?
                        }
                    },
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
                    unscaled: scaling_study_parallel(frequencies_mhz, false, workers)?,
                    scaled: scaling_study_parallel(frequencies_mhz, true, workers)?,
                },
                workers.count(),
            ),
            JobSpec::Sensitivity => (
                Payload::Sensitivity(sensitivity_report_parallel(workers)?),
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
                let job_workers = s.workers.map_or(workers, Workers::Fixed);
                (
                    Payload::AbInitio(self.characterize(s, job_workers, &mut row_stats)?),
                    job_workers.count(),
                )
            }
            JobSpec::GlitchSweep(s) => {
                let job_workers = s.workers.map_or(workers, Workers::Fixed);
                (
                    Payload::Glitch(self.glitch_sweep(s, job_workers, &mut row_stats)?),
                    job_workers.count(),
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
            JobSpec::Lint(s) => (Payload::Lint(lint_job(s)?), 1),
            JobSpec::Sta(s) => {
                let job_workers = s.workers.map_or(workers, Workers::Fixed);
                (
                    Payload::Sta(self.sta_job(s, job_workers, &mut row_stats)?),
                    job_workers.count(),
                )
            }
            JobSpec::PruneDelta(s) => {
                let job_workers = s.workers.map_or(workers, Workers::Fixed);
                (
                    Payload::PruneDelta(prune_delta_job(s, job_workers)?),
                    job_workers.count(),
                )
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

    /// [`characterize_parallel_with`] behind the incremental row
    /// cache: resident architectures are served as-is (bit-identical
    /// by determinism), the rest are characterized in one pooled call
    /// and inserted. Without an attached cache this is a plain
    /// pass-through and `stats` stays `None`; with one, `stats`
    /// accumulates hits and misses across every call of the job.
    fn cached_characterize(
        &self,
        archs: &[Architecture],
        flavor: Flavor,
        config: &CharacterizeConfig,
        stats: &mut Option<RowCacheStats>,
    ) -> Result<Vec<AbInitioRow>, WorkloadError> {
        let Some(cache) = &self.row_cache else {
            return Ok(characterize_parallel_with(archs, flavor, config)?);
        };
        let stats = stats.get_or_insert_with(RowCacheStats::default);
        let keys = archs
            .iter()
            .map(|&arch| row_key(arch, flavor, config))
            .collect::<Result<Vec<_>, _>>()?;
        let mut slots: Vec<Option<AbInitioRow>> = keys.iter().map(|k| cache.get(k)).collect();
        let missing: Vec<Architecture> = archs
            .iter()
            .zip(&slots)
            .filter(|(_, slot)| slot.is_none())
            .map(|(&arch, _)| arch)
            .collect();
        stats.hits += (archs.len() - missing.len()) as u64;
        stats.misses += missing.len() as u64;
        if !missing.is_empty() {
            // Results come back in `missing` order; `archs` has no
            // duplicates (the spec layer rejects them), so matching by
            // architecture restores input order.
            for row in characterize_parallel_with(&missing, flavor, config)? {
                let i = archs
                    .iter()
                    .position(|&a| a == row.arch)
                    .expect("characterization returns only requested architectures");
                cache.insert(keys[i].clone(), row.clone());
                slots[i] = Some(row);
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every architecture is either cached or recomputed"))
            .collect())
    }

    /// Ab-initio characterization for a spec: resolve the architecture
    /// subset, then run [`characterize_parallel_with`] on the pool
    /// (through the row cache when one is attached). The lint gate
    /// runs inside each characterization, so cached rows skip it.
    fn characterize(
        &self,
        s: &AbInitioSpec,
        workers: Workers,
        stats: &mut Option<RowCacheStats>,
    ) -> Result<Vec<AbInitioRow>, WorkloadError> {
        let archs = resolve_archs(&s.archs)?;
        for &arch in &archs {
            if !arch.supports_width(s.width) {
                return Err(width_error(arch, s.width));
            }
        }
        let config = CharacterizeConfig {
            width: s.width,
            lanes: s.lanes,
            baseline: s.engine,
            plane: s.plane,
            items: s.items,
            seed: s.seed,
            workers,
        };
        self.cached_characterize(&archs, Flavor::LowLeakage, &config, stats)
    }

    /// The glitch-aware sweep over the spec's operand-width axis:
    /// characterize per width of the [`width_grid`], concatenate the
    /// rows (width-qualified axis names keep them distinct), sweep
    /// once.
    fn glitch_sweep(
        &self,
        s: &GlitchSweepSpec,
        workers: Workers,
        stats: &mut Option<RowCacheStats>,
    ) -> Result<GlitchSweep, WorkloadError> {
        let mut rows = Vec::new();
        for (width, subset) in width_grid(&s.archs, &s.widths)? {
            let config = CharacterizeConfig {
                width,
                lanes: s.lanes,
                baseline: s.engine,
                plane: s.plane,
                items: s.items,
                seed: s.seed,
                workers,
            };
            rows.extend(self.cached_characterize(&subset, Flavor::LowLeakage, &config, stats)?);
        }
        Ok(glitch_sweep_from_rows(rows, s.freq_points, workers)?)
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
/// rows — failing with the typed [`WorkloadError::Lint`] on
/// error-severity diagnostics (warnings pass). Characterizing jobs
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

/// The lint job: one report per (architecture, width). `widths: None`
/// is the CI gate shape — every width each architecture supports.
fn lint_job(s: &LintSpec) -> Result<Vec<LintSummary>, WorkloadError> {
    let archs = resolve_archs(&s.archs)?;
    if let Some(ws) = &s.widths {
        check_widths(ws)?;
    }
    let mut out = Vec::new();
    for &arch in &archs {
        // Same semantics as the glitch sweep: explicit arch list +
        // unsupported width is an error; the default (all thirteen)
        // narrows to the widths each architecture exists at.
        let widths: Vec<usize> = match &s.widths {
            Some(ws) if s.archs.is_some() => {
                for &w in ws {
                    if !arch.supports_width(w) {
                        return Err(width_error(arch, w));
                    }
                }
                ws.clone()
            }
            Some(ws) => ws
                .iter()
                .copied()
                .filter(|&w| arch.supports_width(w))
                .collect(),
            None => (2..=32).filter(|&w| arch.supports_width(w)).collect(),
        };
        for width in widths {
            let design = arch.generate(width)?;
            out.push(LintSummary {
                arch: arch.paper_name().to_string(),
                width,
                report: LintReport::lint(&design.netlist),
            });
        }
    }
    Ok(out)
}

impl Runtime {
    /// The STA job: integer-tick windows, path statistics and the
    /// static glitch bound per architecture; when `items > 0` a
    /// measured timed leg runs on the pool (through the row cache
    /// when one is attached — an earlier characterization sweep over
    /// the same measurement shape hands its rows over for free) and
    /// each row carries the simulated glitch factor for the
    /// static-vs-measured correlation.
    fn sta_job(
        &self,
        s: &StaSpec,
        workers: Workers,
        stats: &mut Option<RowCacheStats>,
    ) -> Result<Vec<StaRow>, WorkloadError> {
        let archs = resolve_archs(&s.archs)?;
        for &arch in &archs {
            if !arch.supports_width(s.width) {
                return Err(width_error(arch, s.width));
            }
        }
        let measured: Vec<(Architecture, f64, f64)> = if s.items > 0 {
            let config = CharacterizeConfig {
                width: s.width,
                lanes: s.lanes,
                workers,
                ..CharacterizeConfig::new(s.items, s.seed)
            };
            self.cached_characterize(&archs, Flavor::LowLeakage, &config, stats)?
                .iter()
                .map(|r| (r.arch, r.glitch_factor(), r.activity))
                .collect()
        } else {
            Vec::new()
        };
        let lib = Library::cmos13();
        let mut rows = Vec::new();
        for &arch in &archs {
            let design = arch.generate(s.width)?;
            lint_preflight(&design.netlist)?;
            let sta = TimingAnalysis::try_analyze(&design.netlist, &lib)?;
            let glitch = GlitchProfile::compute(&design.netlist, &sta);
            let critical_path_cells = sta
                .critical_path(&design.netlist, &lib)
                .map(|p| p.cells.len())
                .unwrap_or(0);
            rows.push(StaRow {
                arch: arch.paper_name().to_string(),
                width: s.width,
                cells: design.netlist.logic_cell_count(),
                stride_ticks: sta.stride(),
                logical_depth: sta.logical_depth(),
                shortest_path: sta.shortest_endpoint_path(),
                path_spread: sta.path_spread(),
                mean_input_skew: sta.mean_input_skew(),
                critical_path_cells,
                static_glitch_factor: glitch.static_glitch_factor(),
                measured_glitch_factor: measured
                    .iter()
                    .find(|(a, _, _)| *a == arch)
                    .map(|&(_, g, _)| g),
                // Activity is per data item; the per-cycle cell bound
                // scales by the item's cycle count.
                static_activity_bound: glitch.mean_cell_bound() * f64::from(design.cycles_per_item),
                measured_activity: measured
                    .iter()
                    .find(|(a, _, _)| *a == arch)
                    .map(|&(_, _, a)| a),
            });
        }
        Ok(rows)
    }
}

/// The dead-cone prune delta job: per (architecture, width), generate
/// the raw (pre-prune) and production (pruned) netlists and push both
/// through the identical timed characterization + power optimisation
/// flow at the paper's working point (ST LL, 31.25 MHz). Both legs pass
/// the lint gate inside [`characterize_design_with`]: the raw leg's
/// dead cones are warnings, not errors, so surfacing what they cost
/// stays possible, while an X-source in either leg is still refused.
fn prune_delta_job(
    s: &PruneDeltaSpec,
    workers: Workers,
) -> Result<Vec<PruneDeltaRow>, WorkloadError> {
    let lib = Library::cmos13();
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let freq = Hertz::new(31.25e6);
    let mut rows = Vec::new();
    for (width, subset) in width_grid(&s.archs, &s.widths)? {
        let config = CharacterizeConfig {
            width,
            workers,
            ..CharacterizeConfig::new(s.items, s.seed)
        };
        // Deliberately bypasses the row cache: the raw and pruned legs
        // of one architecture share every key field, so caching would
        // serve one leg's row for the other.
        for &arch in &subset {
            let raw = arch.generate_raw(width)?;
            let pruned = arch.generate(width)?;
            let before = characterize_design_with(&raw, &lib, tech, freq, &config)?;
            let after = characterize_design_with(&pruned, &lib, tech, freq, &config)?;
            rows.push(PruneDeltaRow {
                arch: arch.paper_name().to_string(),
                width,
                cells_before: raw.netlist.logic_cell_count(),
                cells_after: pruned.netlist.logic_cell_count(),
                dffs_before: raw.netlist.dff_count(),
                dffs_after: pruned.netlist.dff_count(),
                activity_before: before.activity,
                activity_after: after.activity,
                ptot_uw_before: before.ptot_uw,
                ptot_uw_after: after.ptot_uw,
            });
        }
    }
    Ok(rows)
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

/// Validates an explicit Table 1 row-name list: non-empty, every name
/// a published row, no duplicates. The same vocabulary
/// [`JobSpec::shard`] splits along, so shard specs re-validate on the
/// worker exactly as the coordinator resolved them.
pub(crate) fn resolve_table1_names(names: &[String]) -> Result<(), WorkloadError> {
    if names.is_empty() {
        return Err(SpecError::new("\"archs\" must not be an empty list").into());
    }
    let known = table1_names();
    for name in names {
        if !known.contains(&name.as_str()) {
            return Err(SpecError::new(format!(
                "unknown architecture {name:?} (Table 1 paper names expected)"
            ))
            .into());
        }
    }
    if let Some(dup) = first_duplicate(names) {
        return Err(SpecError::new(format!("\"archs\" lists {dup:?} more than once")).into());
    }
    Ok(())
}

/// The (width × architecture) grid of a job with a width axis, in
/// evaluation order: width-major, each width with its architecture
/// subset in resolution order. With an explicit `archs` list an
/// unsupported width is an error; the default (all thirteen) narrows
/// each width to the architectures that exist at it. An empty or
/// repeating `widths` is an error too: a repeat would characterize
/// everything twice and alias two identically named rows on the sweep
/// axis. The glitch sweep and
/// the prune delta run this grid, the sharder cuts along it and the
/// shard merge restores its order.
pub(crate) fn width_grid(
    archs: &Option<Vec<String>>,
    widths: &[usize],
) -> Result<Vec<(usize, Vec<Architecture>)>, WorkloadError> {
    check_widths(widths)?;
    let resolved = resolve_archs(archs)?;
    widths
        .iter()
        .map(|&width| {
            let subset: Vec<Architecture> = if archs.is_some() {
                if let Some(&arch) = resolved.iter().find(|a| !a.supports_width(width)) {
                    return Err(width_error(arch, width));
                }
                resolved.clone()
            } else {
                resolved
                    .iter()
                    .copied()
                    .filter(|a| a.supports_width(width))
                    .collect()
            };
            if subset.is_empty() {
                return Err(SpecError::new(format!(
                    "no requested architecture supports width {width}"
                ))
                .into());
            }
            Ok((width, subset))
        })
        .collect()
}

/// A [`width_grid`] flattened into its (width, architecture) cells, in
/// the same order: the axis the sharder cuts and the merge restores.
pub(crate) fn grid_cells(grid: Vec<(usize, Vec<Architecture>)>) -> Vec<(usize, Architecture)> {
    grid.into_iter()
        .flat_map(|(width, archs)| archs.into_iter().map(move |a| (width, a)))
        .collect()
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
/// every downstream aggregate. Shared with [`JobSpec::shard`] and the
/// shard merge, which must reproduce the runtime's resolution order.
pub(crate) fn resolve_archs(
    names: &Option<Vec<String>>,
) -> Result<Vec<Architecture>, WorkloadError> {
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
