//! The shadow pipeline: an ab-initio job re-run through the public
//! layer functions in the runtime's own order, with a span around each
//! call. Its rows are compared bit for bit with `Runtime::run`'s rows,
//! so the breakdown it reports describes the real job.
//!
//! Order (`Runtime::characterize`, then `characterize_design_with` per
//! architecture): the serial lint preflight — `Architecture::generate`
//! and `LintReport::lint` for every architecture — then, per
//! architecture, `generate` again, `NetlistStats::measure`,
//! `TimingAnalysis::analyze`, the pooled timed leg, the bit-parallel
//! baseline and the power model. Everything runs on one thread.

use std::collections::BTreeMap;

use optpower::{ArchParams, PowerModel};
use optpower_explore::{measure_timed_activity_pooled, TimedPoolConfig, Workers};
use optpower_mult::Architecture;
use optpower_netlist::{Library, NetlistStats};
use optpower_report::{AbInitioRow, CharacterizeConfig};
use optpower_sim::{measure_activity, Engine};
use optpower_sta::{GlitchProfile, LintReport, TimingAnalysis};
use optpower_tech::{Flavor, Technology};
use optpower_units::{Farads, Hertz};
use optpower_workload::{AbInitioSpec, Artifact, JobSpec};

use crate::report::Samples;
use crate::trace::Tracer;

/// Per-layer metric and the span it reads: the structural layers,
/// which row-hit requests also run.
pub const STATIC_LAYERS: [(&str, &str); 3] = [
    ("mult.generate_ms", "mult.generate"),
    ("sta.lint_ms", "sta.lint"),
    ("sta.analyze_ms", "sta.analyze"),
];

/// Per-layer metric and the span it reads: the measurement layers,
/// which only a characterization runs.
pub const MEASURE_LAYERS: [(&str, &str); 4] = [
    ("netlist.stats_ms", "netlist.stats"),
    ("explore.timed_ms", "explore.timed"),
    ("sim.baseline_ms", "sim.baseline"),
    ("core.optimize_ms", "core.optimize"),
];

/// Per-layer metric and the span it reads, for [`io`].
pub const IO_LAYERS: [(&str, &str); 5] = [
    ("workload.parse_ms", "workload.parse"),
    ("workload.key_ms", "workload.key"),
    ("workload.render_json_ms", "workload.render_json"),
    ("workload.render_csv_ms", "workload.render_csv"),
    ("workload.render_text_ms", "workload.render_text"),
];

/// The byte-level layers of one job as a traced job: parse the spec
/// bytes, derive the cache key, render all three formats; samples the
/// self time of each [`IO_LAYERS`] metric.
pub fn io(tr: &mut Tracer, json: &str, art: &Artifact, samples: &mut Samples) {
    let (job, ()) = tr.job("io", |tr| {
        let spec = tr.span("workload.parse", |_| JobSpec::from_json(json));
        tr.span("workload.key", |_| spec.map(|s| s.canonical_key()).ok());
        tr.span("workload.render_json", |_| art.to_json());
        tr.span("workload.render_csv", |_| art.to_csv());
        tr.span("workload.render_text", |_| art.render_text());
    });
    let b = tr.breakdown(job);
    for (metric, span) in IO_LAYERS {
        samples.push(metric, b[span]);
    }
}

/// What the shadow run measured besides its spans.
pub struct Shadow {
    pub rows: Vec<AbInitioRow>,
    /// Clock cycles simulated by the timed leg, summed over its lanes.
    pub timed_vectors: u64,
    /// Clock cycles simulated by the baseline, summed over its lanes.
    pub baseline_vectors: u64,
}

/// Samples one shadow job: the self time of each of `layers`, the time
/// per simulated vector of both legs, and the share of the job's wall
/// time its layer spans cover. Returns the job's breakdown.
pub fn sample(
    tr: &Tracer,
    (job, sh): (u64, &Shadow),
    layers: &[(&'static str, &'static str)],
    samples: &mut Samples,
) -> BTreeMap<&'static str, f64> {
    let b = tr.breakdown(job);
    let get = |n: &str| b.get(n).copied().unwrap_or(0.0);
    for &(metric, span) in layers {
        samples.push(metric, get(span));
    }
    samples.push(
        "explore.timed_ns_per_vector",
        get("explore.timed") * 1e6 / sh.timed_vectors as f64,
    );
    samples.push(
        "sim.baseline_ns_per_vector",
        get("sim.baseline") * 1e6 / sh.baseline_vectors as f64,
    );
    samples.push("trace.coverage", 1.0 - get("job") / get("wall"));
    b
}

/// Paper names to architectures, `None` meaning all thirteen.
pub fn resolve(names: &Option<Vec<String>>) -> Result<Vec<Architecture>, String> {
    match names {
        None => Ok(Architecture::ALL.to_vec()),
        Some(names) => names
            .iter()
            .map(|n| Architecture::from_paper_name(n).ok_or_else(|| format!("unknown arch {n}")))
            .collect(),
    }
}

/// The runtime's serial preflight: generate and lint every
/// architecture, failing on an error-severity diagnostic.
pub fn preflight(tr: &mut Tracer, archs: &[Architecture], width: usize) -> Result<(), String> {
    tr.span("workload.preflight", |tr| {
        for &arch in archs {
            let design = tr
                .span("mult.generate", |_| arch.generate(width))
                .map_err(|e| e.to_string())?;
            let report = tr.span("sta.lint", |_| LintReport::lint(&design.netlist));
            if report.gate().is_err() {
                return Err(format!("{} fails the lint gate", arch.paper_name()));
            }
        }
        Ok(())
    })
}

/// The static half of an STA job, per architecture: generate, lint,
/// analyze, then the glitch bound and critical path.
pub fn sta_static(tr: &mut Tracer, archs: &[Architecture], width: usize) -> Result<(), String> {
    let lib = Library::cmos13();
    for &arch in archs {
        let design = tr
            .span("mult.generate", |_| arch.generate(width))
            .map_err(|e| e.to_string())?;
        let report = tr.span("sta.lint", |_| LintReport::lint(&design.netlist));
        if report.gate().is_err() {
            return Err(format!("{} fails the lint gate", arch.paper_name()));
        }
        let sta = tr
            .span("sta.analyze", |_| {
                TimingAnalysis::try_analyze(&design.netlist, &lib)
            })
            .map_err(|e| e.to_string())?;
        tr.span("sta.glitch_bound", |_| {
            let glitch = GlitchProfile::compute(&design.netlist, &sta);
            std::hint::black_box((glitch, sta.critical_path(&design.netlist, &lib)));
        });
    }
    Ok(())
}

/// Native lane count of a plane baseline (the timed budget scales
/// with it), as `characterize_design_with` defines the timed volume.
fn native_lanes(engine: Engine) -> Option<u64> {
    match engine {
        Engine::BitParallel => Some(64),
        Engine::BitParallel256 => Some(256),
        Engine::BitParallel512 => Some(512),
        _ => None,
    }
}

/// Runs one ab-initio spec as a traced job; returns the job id.
pub fn ab_initio(tr: &mut Tracer, spec: &AbInitioSpec) -> Result<(u64, Shadow), String> {
    let (job, out) = tr.job("job", |tr| {
        let archs = resolve(&spec.archs)?;
        if let Some(a) = archs.iter().find(|a| !a.supports_width(spec.width)) {
            return Err(format!("{} has no width {}", a.paper_name(), spec.width));
        }
        preflight(tr, &archs, spec.width)?;
        let config = CharacterizeConfig {
            width: spec.width,
            lanes: spec.lanes,
            baseline: spec.engine,
            plane: spec.plane,
            items: spec.items,
            seed: spec.seed,
            workers: Workers::Fixed(1),
        };
        let lib = Library::cmos13();
        let tech = Technology::stm_cmos09(Flavor::LowLeakage);
        let mut shadow = Shadow {
            rows: Vec::with_capacity(archs.len()),
            timed_vectors: 0,
            baseline_vectors: 0,
        };
        for &arch in &archs {
            let row = characterize(tr, arch, &lib, tech, &config, &mut shadow)?;
            shadow.rows.push(row);
        }
        Ok(shadow)
    });
    Ok((job, out?))
}

fn characterize(
    tr: &mut Tracer,
    arch: Architecture,
    lib: &Library,
    tech: Technology,
    config: &CharacterizeConfig,
    shadow: &mut Shadow,
) -> Result<AbInitioRow, String> {
    let design = tr
        .span("mult.generate", |_| arch.generate(config.width))
        .map_err(|e| e.to_string())?;
    let (baseline_engine, baseline_items) =
        config.resolved_baseline().map_err(|e| e.to_string())?;
    let stats = tr.span("netlist.stats", |_| {
        NetlistStats::measure(&design.netlist, lib)
    });
    let sta = tr.span("sta.analyze", |_| {
        TimingAnalysis::analyze(&design.netlist, lib)
    });
    let timed_items = match native_lanes(config.baseline) {
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
    let timed = tr
        .span("explore.timed", |_| {
            measure_timed_activity_pooled(&design.netlist, lib, &timed_config)
        })
        .map_err(|e| e.to_string())?;
    let zd = tr
        .span("sim.baseline", |_| {
            measure_activity(
                &design.netlist,
                lib,
                baseline_engine,
                baseline_items,
                design.cycles_per_item,
                4,
                config.seed,
            )
        })
        .map_err(|e| e.to_string())?;
    let cycles = u64::from(design.cycles_per_item);
    shadow.timed_vectors += timed.items * cycles;
    shadow.baseline_vectors += zd.items * cycles;
    tr.span("core.optimize", |_| {
        let ld_eff = design.effective_logical_depth(sta.logical_depth());
        let params = ArchParams::builder(arch.paper_name())
            .cells(stats.logic_cells as u32)
            .activity(timed.activity)
            .logical_depth(ld_eff)
            .cap_per_cell(Farads::new(stats.avg_switched_cap_f))
            .build()
            .map_err(|e| e.to_string())?;
        let model = PowerModel::from_technology(tech, params, Hertz::new(31.25e6))
            .map_err(|e| e.to_string())?;
        let opt = model.optimize().map_err(|e| e.to_string())?;
        let eq13_uw = model
            .closed_form()
            .map(|cf| cf.ptot.value() * 1e6)
            .unwrap_or(f64::NAN);
        Ok(AbInitioRow {
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
        })
    })
}

/// Whether two row sets are bit-identical, field by field.
pub fn rows_identical(a: &[AbInitioRow], b: &[AbInitioRow]) -> bool {
    let bits = |r: &AbInitioRow| {
        [
            r.area_um2,
            r.activity,
            r.activity_zero_delay,
            r.cap_per_cell_f,
            r.ld_eff,
            r.vdd,
            r.vth,
            r.ptot_uw,
            r.eq13_uw,
        ]
        .map(f64::to_bits)
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.arch == y.arch && x.width == y.width && x.cells == y.cells && bits(x) == bits(y)
        })
}
