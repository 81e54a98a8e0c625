//! The declarative job specification: every workload of the
//! reproduction as one serializable value.
//!
//! A [`JobSpec`] is the unit the [`crate::Runtime`] executes and the
//! wire format a future service front-end consumes verbatim: it
//! round-trips **losslessly** through JSON
//! (`JobSpec::from_json(&spec.to_json()) == spec`, locked by proptests
//! at the workspace level), and a spec plus a seed fully determines
//! the [`crate::Artifact`] payload — worker counts only change
//! wall-clock, never bytes.
//!
//! The JSON envelope is schema-versioned:
//!
//! ```json
//! {"schema":"optpower-job/v1","job":"ab_initio","width":16,"lanes":8,
//!  "engine":"bit_parallel","items":200,"seed":42,"workers":null,"archs":null}
//! ```

use optpower::ModelError;
use optpower_mult::Architecture;
use optpower_report::{CharacterizeConfig, PlaneTiling};
use optpower_sim::{Engine, MAX_STIMULUS_LANES, MIN_RESET_WARMUP};

use crate::error::{SpecError, WorkloadError};
use crate::json::Json;

/// Schema tag of the JobSpec wire format.
pub const JOB_SCHEMA: &str = "optpower-job/v1";

/// Simulation-engine choice on the wire (`zero_delay`, `timed`,
/// `bit_parallel`, `bit_parallel_256`, `bit_parallel_512`).
pub fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::ZeroDelay => "zero_delay",
        Engine::Timed => "timed",
        Engine::BitParallel => "bit_parallel",
        Engine::BitParallel256 => "bit_parallel_256",
        Engine::BitParallel512 => "bit_parallel_512",
    }
}

/// Parses an engine wire name (the inverse of [`engine_name`]).
pub fn engine_from_name(name: &str) -> Option<Engine> {
    match name {
        "zero_delay" => Some(Engine::ZeroDelay),
        "timed" => Some(Engine::Timed),
        "bit_parallel" => Some(Engine::BitParallel),
        "bit_parallel_256" => Some(Engine::BitParallel256),
        "bit_parallel_512" => Some(Engine::BitParallel512),
        _ => None,
    }
}

/// Ab-initio characterization spec (Table 1′): architectures are paper
/// names (`None` = all thirteen), the rest is the measurement
/// definition of [`optpower_report::CharacterizeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct AbInitioSpec {
    /// Paper names of the architectures to characterize; `None` = all.
    pub archs: Option<Vec<String>>,
    /// Operand width in bits.
    pub width: usize,
    /// Stimulus lanes of the pooled timed (glitch) leg, 1 to 512.
    pub lanes: u32,
    /// Glitch-free baseline engine: `zero_delay` or a `bit_parallel*`
    /// plane.
    pub engine: Engine,
    /// Plane tiling of the glitch-free baseline leg: `plane_lanes` on
    /// the wire, 64/256/512 or `"auto"` (default `Fixed(64)`, the
    /// legacy-identical measurement).
    pub plane: PlaneTiling,
    /// Random-stimulus volume per architecture, at least 1.
    pub items: u64,
    /// Base stimulus seed.
    pub seed: u64,
    /// Worker override for this job; `None` = the runtime's pool.
    pub workers: Option<usize>,
}

impl Default for AbInitioSpec {
    fn default() -> Self {
        Self {
            archs: None,
            width: 16,
            lanes: optpower_report::TIMED_LANES,
            engine: Engine::BitParallel,
            plane: PlaneTiling::Fixed(64),
            items: 200,
            seed: 42,
            workers: None,
        }
    }
}

impl AbInitioSpec {
    /// The CI smoke shape: one array and one sequential architecture
    /// at a reduced stimulus volume.
    pub fn smoke() -> Self {
        Self {
            archs: Some(vec!["RCA".to_string(), "Sequential".to_string()]),
            items: 60,
            ..Self::default()
        }
    }
}

/// Glitch-aware design-space sweep spec: characterize over an operand
/// **width axis**, then sweep the measured parameters over all three
/// flavours × a log frequency axis, glitch-aware vs glitch-free.
#[derive(Debug, Clone, PartialEq)]
pub struct GlitchSweepSpec {
    /// Paper names of the architectures to characterize; `None` = all
    /// (widths the sequential family cannot generate at are rejected
    /// at run time with a typed error).
    pub archs: Option<Vec<String>>,
    /// Operand widths to characterize at (e.g. `[8, 16, 24, 32]`).
    pub widths: Vec<usize>,
    /// Stimulus lanes of the pooled timed leg, 1 to 512.
    pub lanes: u32,
    /// Glitch-free baseline engine, as in [`AbInitioSpec`].
    pub engine: Engine,
    /// Plane tiling of the glitch-free baseline leg (`plane_lanes` on
    /// the wire, as in [`AbInitioSpec`]).
    pub plane: PlaneTiling,
    /// Random-stimulus volume per architecture and width, at least 1.
    pub items: u64,
    /// Base stimulus seed.
    pub seed: u64,
    /// Frequency-axis resolution of the sweep.
    pub freq_points: usize,
    /// Worker override for this job; `None` = the runtime's pool.
    pub workers: Option<usize>,
}

impl Default for GlitchSweepSpec {
    fn default() -> Self {
        Self {
            archs: None,
            widths: vec![16],
            lanes: optpower_report::TIMED_LANES,
            engine: Engine::BitParallel,
            plane: PlaneTiling::Fixed(64),
            items: 200,
            seed: 42,
            freq_points: 9,
            workers: None,
        }
    }
}

/// One activity measurement: an architecture, an engine, a stimulus
/// definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySpec {
    /// Paper name of the architecture.
    pub arch: String,
    /// Operand width in bits.
    pub width: usize,
    /// Which engine measures.
    pub engine: Engine,
    /// Data items measured (excluding warm-up).
    pub items: u64,
    /// Warm-up items, simulated but not counted; at least 2 on an
    /// architecture with a reset input.
    pub warmup: u64,
    /// Stimulus seed.
    pub seed: u64,
}

impl Default for ActivitySpec {
    fn default() -> Self {
        Self {
            arch: "RCA".to_string(),
            width: 16,
            engine: Engine::Timed,
            items: 200,
            warmup: 4,
            seed: 42,
        }
    }
}

/// Netlist lint spec: run the structural rules of
/// `optpower_sta::LintReport` over generated architectures, one
/// report per (architecture, width).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintSpec {
    /// Paper names of the architectures to lint; `None` = all.
    pub archs: Option<Vec<String>>,
    /// Operand widths to lint at; `None` = every width the
    /// architecture supports (the CI gate shape).
    pub widths: Option<Vec<usize>>,
}

/// Static-timing-analysis spec: integer-tick arrival windows, path
/// statistics and the static glitch bound per architecture, with an
/// optional measured-glitch leg for the static-vs-measured
/// correlation artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct StaSpec {
    /// Paper names of the architectures to analyze; `None` = all.
    pub archs: Option<Vec<String>>,
    /// Operand width in bits.
    pub width: usize,
    /// Stimulus lanes of the measured (timed pooled) leg, 1 to 512.
    pub lanes: u32,
    /// Stimulus volume of the measured leg; `0` skips simulation
    /// entirely and reports static numbers only.
    pub items: u64,
    /// Base stimulus seed of the measured leg.
    pub seed: u64,
    /// Worker override for this job; `None` = the runtime's pool.
    pub workers: Option<usize>,
}

impl Default for StaSpec {
    fn default() -> Self {
        Self {
            archs: None,
            width: 16,
            lanes: optpower_report::TIMED_LANES,
            items: 120,
            seed: 42,
            workers: None,
        }
    }
}

/// Dead-cone prune before/after comparison spec: characterize the raw
/// (as-emitted) and pruned form of each (architecture, width) so the
/// power correction of the prune is quantified — cell counts, measured
/// activity and Table-1 power, old vs new.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneDeltaSpec {
    /// Paper names of the architectures to compare; `None` = all
    /// (widths an architecture cannot generate at are skipped).
    pub archs: Option<Vec<String>>,
    /// Operand widths to compare at.
    pub widths: Vec<usize>,
    /// Random-stimulus volume per characterization leg.
    pub items: u64,
    /// Base stimulus seed.
    pub seed: u64,
    /// Worker override for this job; `None` = the runtime's pool.
    pub workers: Option<usize>,
}

impl Default for PruneDeltaSpec {
    fn default() -> Self {
        Self {
            archs: None,
            widths: vec![4, 8, 16, 24, 32],
            items: 60,
            seed: 42,
            workers: None,
        }
    }
}

/// A declarative workload: one variant per table, figure, study or
/// analysis of the reproduction, plus the composed [`JobSpec::Batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Table 1: the thirteen calibrated multipliers (LL flavour),
    /// re-solved in parallel.
    Table1Sweep {
        /// Paper names of the rows to solve; `None` = the full table.
        /// The field is omitted from the wire form when `None`, so the
        /// default spec's canonical JSON (and cache key) is unchanged
        /// from before the axis existed.
        archs: Option<Vec<String>>,
    },
    /// Table 2: the published STM CMOS09 flavour parameters.
    Table2,
    /// Table 3: the Wallace family on the ULL flavour.
    Table3,
    /// Table 4: the Wallace family on the HS flavour.
    Table4,
    /// The technology-scaling study over a frequency axis (both the
    /// wire-dominated and the fully scaled port).
    ScalingStudy {
        /// Evaluated frequencies in MHz.
        frequencies_mhz: Vec<f64>,
    },
    /// Eq. 13 logarithmic sensitivities for all Table 1 architectures.
    Sensitivity,
    /// The three ablation studies (fit range, optimiser, glitches).
    Ablation {
        /// Stimulus volume of the glitch ablation.
        items: u64,
        /// Stimulus seed of the glitch ablation.
        seed: u64,
    },
    /// Ab-initio characterization (Table 1′).
    AbInitio(AbInitioSpec),
    /// The glitch-aware design-space sweep, with an operand-width axis.
    GlitchSweep(GlitchSweepSpec),
    /// One activity measurement on one architecture.
    ActivityMeasure(ActivitySpec),
    /// Figure 1: Ptot vs Vdd per activity.
    Figure1 {
        /// Samples per sweep curve.
        samples: usize,
    },
    /// Figure 2: the Vdd^{1/α} linearisation.
    Figure2 {
        /// Samples of the plotted range.
        samples: usize,
    },
    /// Figures 3/4: horizontal vs diagonal pipeline structures.
    Figure34 {
        /// Operand width in bits.
        width: usize,
        /// Stimulus volume of the activity measurement.
        items: u64,
    },
    /// The Ptot-vs-frequency Pareto figure over the explored design
    /// space.
    Pareto {
        /// Frequency-axis resolution.
        freq_points: usize,
    },
    /// Structural exports: Verilog + DOT per architecture and an RCA
    /// VCD trace, written under the runtime's artifact directory.
    Export,
    /// Netlist lint over architectures × widths.
    Lint(LintSpec),
    /// Integer-tick STA + static glitch bound, optionally correlated
    /// against the measured glitch factor.
    Sta(StaSpec),
    /// Dead-cone prune before/after power delta per (arch, width).
    PruneDelta(PruneDeltaSpec),
    /// A batch of jobs executed in order, yielding one artifact each.
    Batch(Vec<JobSpec>),
}

/// `(kind, summary)` of every job kind, in `optpower list` order.
pub const JOB_KINDS: &[(&str, &str)] = &[
    ("table1_sweep", "Table 1: 13 calibrated multipliers (LL)"),
    ("table2", "Table 2: STM CMOS09 flavour parameters"),
    ("table3", "Table 3: Wallace family, ULL flavour"),
    ("table4", "Table 4: Wallace family, HS flavour"),
    ("scaling_study", "technology-scaling study over frequency"),
    ("sensitivity", "Eq. 13 sensitivities per architecture"),
    ("ablation", "fit-range / optimiser / glitch ablations"),
    ("ab_initio", "Table 1': ab-initio netlist characterization"),
    (
        "glitch_sweep",
        "glitch-aware design-space sweep (width axis)",
    ),
    ("activity_measure", "one activity measurement, any engine"),
    ("figure1", "Figure 1: Ptot vs Vdd per activity"),
    ("figure2", "Figure 2: Vdd^(1/alpha) linearisation"),
    ("figure34", "Figures 3/4: pipeline structure comparison"),
    ("pareto", "Ptot-vs-frequency Pareto figure"),
    ("export", "Verilog/DOT/VCD structural exports"),
    ("lint", "structural netlist lint over archs x widths"),
    ("sta", "integer-tick STA + static glitch bound"),
    ("prune_delta", "dead-cone prune before/after power delta"),
    ("batch", "a list of jobs run in order"),
];

impl JobSpec {
    /// The wire kind tag (`job` field of the JSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Table1Sweep { .. } => "table1_sweep",
            Self::Table2 => "table2",
            Self::Table3 => "table3",
            Self::Table4 => "table4",
            Self::ScalingStudy { .. } => "scaling_study",
            Self::Sensitivity => "sensitivity",
            Self::Ablation { .. } => "ablation",
            Self::AbInitio(_) => "ab_initio",
            Self::GlitchSweep(_) => "glitch_sweep",
            Self::ActivityMeasure(_) => "activity_measure",
            Self::Figure1 { .. } => "figure1",
            Self::Figure2 { .. } => "figure2",
            Self::Figure34 { .. } => "figure34",
            Self::Pareto { .. } => "pareto",
            Self::Export => "export",
            Self::Lint(_) => "lint",
            Self::Sta(_) => "sta",
            Self::PruneDelta(_) => "prune_delta",
            Self::Batch(_) => "batch",
        }
    }

    /// The default spec of a wire kind (what `optpower <kind>` runs
    /// with no flags), or `None` for an unknown kind.
    pub fn default_for(kind: &str) -> Option<JobSpec> {
        Some(match kind {
            "table1_sweep" => Self::Table1Sweep { archs: None },
            "table2" => Self::Table2,
            "table3" => Self::Table3,
            "table4" => Self::Table4,
            "scaling_study" => Self::ScalingStudy {
                frequencies_mhz: vec![1.0, 4.0, 31.25, 125.0, 250.0],
            },
            "sensitivity" => Self::Sensitivity,
            "ablation" => Self::Ablation {
                items: 200,
                seed: 42,
            },
            "ab_initio" => Self::AbInitio(AbInitioSpec::default()),
            "glitch_sweep" => Self::GlitchSweep(GlitchSweepSpec::default()),
            "activity_measure" => Self::ActivityMeasure(ActivitySpec::default()),
            "figure1" => Self::Figure1 { samples: 256 },
            "figure2" => Self::Figure2 { samples: 601 },
            "figure34" => Self::Figure34 {
                width: 16,
                items: 200,
            },
            "pareto" => Self::Pareto { freq_points: 9 },
            "export" => Self::Export,
            "lint" => Self::Lint(LintSpec::default()),
            "sta" => Self::Sta(StaSpec::default()),
            "prune_delta" => Self::PruneDelta(PruneDeltaSpec::default()),
            "batch" => Self::Batch(Vec::new()),
            _ => return None,
        })
    }

    /// The JSON value form (see the module docs for the envelope).
    pub fn to_json_value(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("schema".to_string(), Json::str(JOB_SCHEMA)),
            ("job".to_string(), Json::str(self.kind())),
        ];
        let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
        match self {
            Self::Table2 | Self::Table3 | Self::Table4 | Self::Sensitivity | Self::Export => {}
            Self::Table1Sweep { archs } => {
                // Emitted only when set: the no-axis wire form must
                // stay byte-identical to the historical unit variant.
                if archs.is_some() {
                    push("archs", opt_names(archs));
                }
            }
            Self::ScalingStudy { frequencies_mhz } => push(
                "frequencies_mhz",
                Json::Arr(frequencies_mhz.iter().map(|&f| Json::num(f)).collect()),
            ),
            Self::Ablation { items, seed } => {
                push("items", Json::UInt(*items));
                push("seed", Json::UInt(*seed));
            }
            Self::AbInitio(s) => {
                push("archs", opt_names(&s.archs));
                push("width", Json::UInt(s.width as u64));
                push("lanes", Json::UInt(u64::from(s.lanes)));
                push("engine", Json::str(engine_name(s.engine)));
                push("plane_lanes", plane_json(s.plane));
                push("items", Json::UInt(s.items));
                push("seed", Json::UInt(s.seed));
                push("workers", opt_uint(s.workers));
            }
            Self::GlitchSweep(s) => {
                push("archs", opt_names(&s.archs));
                push(
                    "widths",
                    Json::Arr(s.widths.iter().map(|&w| Json::UInt(w as u64)).collect()),
                );
                push("lanes", Json::UInt(u64::from(s.lanes)));
                push("engine", Json::str(engine_name(s.engine)));
                push("plane_lanes", plane_json(s.plane));
                push("items", Json::UInt(s.items));
                push("seed", Json::UInt(s.seed));
                push("freq_points", Json::UInt(s.freq_points as u64));
                push("workers", opt_uint(s.workers));
            }
            Self::ActivityMeasure(s) => {
                push("arch", Json::str(&s.arch));
                push("width", Json::UInt(s.width as u64));
                push("engine", Json::str(engine_name(s.engine)));
                push("items", Json::UInt(s.items));
                push("warmup", Json::UInt(s.warmup));
                push("seed", Json::UInt(s.seed));
            }
            Self::Figure1 { samples } | Self::Figure2 { samples } => {
                push("samples", Json::UInt(*samples as u64));
            }
            Self::Figure34 { width, items } => {
                push("width", Json::UInt(*width as u64));
                push("items", Json::UInt(*items));
            }
            Self::Pareto { freq_points } => {
                push("freq_points", Json::UInt(*freq_points as u64));
            }
            Self::Lint(s) => {
                push("archs", opt_names(&s.archs));
                push(
                    "widths",
                    match &s.widths {
                        Some(ws) => Json::Arr(ws.iter().map(|&w| Json::UInt(w as u64)).collect()),
                        None => Json::Null,
                    },
                );
            }
            Self::Sta(s) => {
                push("archs", opt_names(&s.archs));
                push("width", Json::UInt(s.width as u64));
                push("lanes", Json::UInt(u64::from(s.lanes)));
                push("items", Json::UInt(s.items));
                push("seed", Json::UInt(s.seed));
                push("workers", opt_uint(s.workers));
            }
            Self::PruneDelta(s) => {
                push("archs", opt_names(&s.archs));
                push(
                    "widths",
                    Json::Arr(s.widths.iter().map(|&w| Json::UInt(w as u64)).collect()),
                );
                push("items", Json::UInt(s.items));
                push("seed", Json::UInt(s.seed));
                push("workers", opt_uint(s.workers));
            }
            Self::Batch(jobs) => push(
                "jobs",
                Json::Arr(jobs.iter().map(JobSpec::to_json_value).collect()),
            ),
        }
        Json::Obj(pairs)
    }

    /// The compact JSON wire form.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The canonical JSON form: the byte sequence [`JobSpec::to_json`]
    /// emits, which is a pure function of the spec *value* — field
    /// order is fixed by the serializer, integers are written exactly,
    /// and floats use shortest-round-trip formatting. Two wire
    /// documents that parse to equal specs (whatever their key order,
    /// whitespace or float spelling) share one canonical form, so it
    /// is the content-address of the job.
    pub fn canonical_json(&self) -> String {
        self.to_json()
    }

    /// The content-addressed cache key: 64-bit FNV-1a over
    /// [`JobSpec::canonical_json`], as 16 lowercase hex digits.
    /// Deterministic across processes and platforms (no randomized
    /// hashing), so a client can predict the key of a spec it submits.
    pub fn canonical_key(&self) -> String {
        format!("{:016x}", fnv1a_64(self.canonical_json().as_bytes()))
    }

    /// Parses the JSON wire form. Unknown kinds, malformed fields and
    /// schema mismatches are [`WorkloadError::Spec`]; fields absent
    /// from the document take the kind's defaults, so hand-written
    /// specs stay terse — but *unrecognized* keys are rejected, so a
    /// typoed `"sed"` cannot silently run with the default seed.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] describing the first problem.
    pub fn from_json(input: &str) -> Result<JobSpec, WorkloadError> {
        let doc = Json::parse(input).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_json_value(&doc)
    }

    /// Parses an already-decoded JSON value (used recursively for
    /// batches).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] describing the first problem.
    pub fn from_json_value(doc: &Json) -> Result<JobSpec, WorkloadError> {
        match doc.get("schema") {
            None => {}
            Some(v) => {
                let schema = v
                    .as_str()
                    .ok_or_else(|| SpecError::new("\"schema\" must be a string when present"))?;
                if schema != JOB_SCHEMA {
                    return Err(SpecError::new(format!(
                        "unsupported spec schema {schema:?} (expected {JOB_SCHEMA:?})"
                    ))
                    .into());
                }
            }
        }
        let kind = doc
            .get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("spec object needs a string \"job\" field"))?;
        let defaults = Self::default_for(kind).ok_or_else(|| {
            SpecError::new(format!(
                "unknown job kind {kind:?} (see `optpower list` for the catalogue)"
            ))
        })?;
        reject_unknown_fields(doc, kind)?;
        let spec = match defaults {
            Self::ScalingStudy { frequencies_mhz } => Self::ScalingStudy {
                frequencies_mhz: match doc.get("frequencies_mhz") {
                    Some(v) => float_array(v, "frequencies_mhz")?,
                    None => frequencies_mhz,
                },
            },
            Self::Ablation { items, seed } => Self::Ablation {
                items: uint_field(doc, "items", items)?,
                seed: uint_field(doc, "seed", seed)?,
            },
            Self::AbInitio(d) => {
                let s = AbInitioSpec {
                    archs: names_field(doc, "archs", d.archs)?,
                    width: usize_field(doc, "width", d.width)?,
                    lanes: lanes_field(doc, d.lanes)?,
                    engine: engine_field(doc, d.engine)?,
                    plane: plane_field(doc, d.plane)?,
                    items: at_least("items", uint_field(doc, "items", d.items)?, 1)?,
                    seed: uint_field(doc, "seed", d.seed)?,
                    workers: opt_usize_field(doc, "workers")?,
                };
                baseline_check(s.engine, s.plane, s.items)?;
                Self::AbInitio(s)
            }
            Self::GlitchSweep(d) => {
                let s = GlitchSweepSpec {
                    archs: names_field(doc, "archs", d.archs)?,
                    widths: match doc.get("widths") {
                        Some(v) => usize_array(v, "widths")?,
                        None => d.widths,
                    },
                    lanes: lanes_field(doc, d.lanes)?,
                    engine: engine_field(doc, d.engine)?,
                    plane: plane_field(doc, d.plane)?,
                    items: at_least("items", uint_field(doc, "items", d.items)?, 1)?,
                    seed: uint_field(doc, "seed", d.seed)?,
                    freq_points: freq_points_field(doc, d.freq_points)?,
                    workers: opt_usize_field(doc, "workers")?,
                };
                baseline_check(s.engine, s.plane, s.items)?;
                Self::GlitchSweep(s)
            }
            Self::ActivityMeasure(d) => {
                let arch = match doc.get("arch") {
                    Some(v) => v
                        .as_str()
                        .ok_or_else(|| SpecError::new("\"arch\" must be a string"))?
                        .to_string(),
                    None => d.arch,
                };
                let warmup = reset_warmup(&arch, uint_field(doc, "warmup", d.warmup)?)?;
                Self::ActivityMeasure(ActivitySpec {
                    arch,
                    width: usize_field(doc, "width", d.width)?,
                    engine: engine_field(doc, d.engine)?,
                    items: uint_field(doc, "items", d.items)?,
                    warmup,
                    seed: uint_field(doc, "seed", d.seed)?,
                })
            }
            Self::Figure1 { samples } => Self::Figure1 {
                samples: at_most(
                    "samples",
                    usize_field(doc, "samples", samples)?,
                    MAX_SAMPLES,
                )?,
            },
            Self::Figure2 { samples } => Self::Figure2 {
                samples: at_most(
                    "samples",
                    usize_field(doc, "samples", samples)?,
                    MAX_SAMPLES,
                )?,
            },
            Self::Figure34 { width, items } => Self::Figure34 {
                // The pipelined arrays need two operand bits to split,
                // and the generators stop at their widest operand.
                width: at_most(
                    "width",
                    at_least("width", usize_field(doc, "width", width)?, 2)?,
                    Architecture::MAX_WIDTH,
                )?,
                items: uint_field(doc, "items", items)?,
            },
            Self::Pareto { freq_points } => Self::Pareto {
                freq_points: freq_points_field(doc, freq_points)?,
            },
            Self::Lint(d) => Self::Lint(LintSpec {
                archs: names_field(doc, "archs", d.archs)?,
                widths: match doc.get("widths") {
                    None => d.widths,
                    Some(Json::Null) => None,
                    Some(v) => Some(usize_array(v, "widths")?),
                },
            }),
            Self::Sta(d) => {
                let s = StaSpec {
                    archs: names_field(doc, "archs", d.archs)?,
                    width: usize_field(doc, "width", d.width)?,
                    lanes: lanes_field(doc, d.lanes)?,
                    items: uint_field(doc, "items", d.items)?,
                    seed: uint_field(doc, "seed", d.seed)?,
                    workers: opt_usize_field(doc, "workers")?,
                };
                if s.items > 0 {
                    paper_baseline_check(s.items)?;
                }
                Self::Sta(s)
            }
            Self::PruneDelta(d) => {
                let s = PruneDeltaSpec {
                    archs: names_field(doc, "archs", d.archs)?,
                    widths: match doc.get("widths") {
                        Some(v) => usize_array(v, "widths")?,
                        None => d.widths,
                    },
                    items: uint_field(doc, "items", d.items)?,
                    seed: uint_field(doc, "seed", d.seed)?,
                    workers: opt_usize_field(doc, "workers")?,
                };
                paper_baseline_check(s.items)?;
                Self::PruneDelta(s)
            }
            Self::Table1Sweep { archs } => Self::Table1Sweep {
                archs: names_field(doc, "archs", archs)?,
            },
            Self::Batch(_) => {
                let jobs = doc
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| SpecError::new("batch needs a \"jobs\" array"))?;
                Self::Batch(
                    jobs.iter()
                        .map(JobSpec::from_json_value)
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            other => other,
        };
        Ok(spec)
    }
}

/// 64-bit FNV-1a over a byte slice — the std-only hash behind
/// [`JobSpec::canonical_key`]. Stable by construction (no per-process
/// seeding), unlike `std::hash::DefaultHasher`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The field names each kind accepts (besides `schema` and `job`).
fn allowed_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "table1_sweep" => &["archs"],
        "scaling_study" => &["frequencies_mhz"],
        "ablation" => &["items", "seed"],
        "ab_initio" => &[
            "archs",
            "width",
            "lanes",
            "engine",
            "plane_lanes",
            "items",
            "seed",
            "workers",
        ],
        "glitch_sweep" => &[
            "archs",
            "widths",
            "lanes",
            "engine",
            "plane_lanes",
            "items",
            "seed",
            "freq_points",
            "workers",
        ],
        "activity_measure" => &["arch", "width", "engine", "items", "warmup", "seed"],
        "figure1" | "figure2" => &["samples"],
        "figure34" => &["width", "items"],
        "pareto" => &["freq_points"],
        "lint" => &["archs", "widths"],
        "sta" => &["archs", "width", "lanes", "items", "seed", "workers"],
        "prune_delta" => &["archs", "widths", "items", "seed", "workers"],
        "batch" => &["jobs"],
        _ => &[],
    }
}

/// A misspelled key must not silently run the job with a default — an
/// unrecognized field is an error naming the kind's accepted fields.
fn reject_unknown_fields(doc: &Json, kind: &str) -> Result<(), WorkloadError> {
    let Json::Obj(pairs) = doc else {
        return Err(SpecError::new("a job spec must be a JSON object").into());
    };
    let allowed = allowed_fields(kind);
    for (key, _) in pairs {
        if key != "schema" && key != "job" && !allowed.contains(&key.as_str()) {
            return Err(SpecError::new(format!(
                "unknown field {key:?} for job {kind:?} (accepted: schema, job{}{})",
                if allowed.is_empty() { "" } else { ", " },
                allowed.join(", "),
            ))
            .into());
        }
    }
    Ok(())
}

fn opt_uint(v: Option<usize>) -> Json {
    match v {
        Some(u) => Json::UInt(u as u64),
        None => Json::Null,
    }
}

fn opt_names(v: &Option<Vec<String>>) -> Json {
    match v {
        Some(names) => Json::Arr(names.iter().map(Json::str).collect()),
        None => Json::Null,
    }
}

fn uint_field(doc: &Json, key: &str, default: u64) -> Result<u64, WorkloadError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| SpecError::new(format!("{key:?} must be an unsigned integer")).into()),
    }
}

fn usize_field(doc: &Json, key: &str, default: usize) -> Result<usize, WorkloadError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| SpecError::new(format!("{key:?} must be an unsigned integer")).into()),
    }
}

fn u32_field(doc: &Json, key: &str, default: u32) -> Result<u32, WorkloadError> {
    uint_field(doc, key, u64::from(default)).and_then(|u| {
        u32::try_from(u).map_err(|_| SpecError::new(format!("{key:?} must fit 32 bits")).into())
    })
}

/// Rejects a count below the smallest value the job can run with —
/// a lane split divides by it, a generator asserts on it — so the
/// value fails here as a spec error instead of panicking an executor.
fn at_least<T: PartialOrd + std::fmt::Display>(
    key: &str,
    value: T,
    min: T,
) -> Result<T, WorkloadError> {
    if value < min {
        return Err(SpecError::new(format!("{key:?} must be at least {min}, got {value}")).into());
    }
    Ok(value)
}

/// Rejects a count above the largest value the job accepts — a
/// figure, a frequency axis or a generator is sized by it, and an
/// unbounded value would abort the process on allocation.
fn at_most<T: PartialOrd + std::fmt::Display>(
    key: &str,
    value: T,
    max: T,
) -> Result<T, WorkloadError> {
    if value > max {
        return Err(SpecError::new(format!("{key:?} must be at most {max}, got {value}")).into());
    }
    Ok(value)
}

/// The most points a figure curve is sampled at.
const MAX_SAMPLES: usize = 65_536;

/// The most points a sweep's log frequency axis has.
const MAX_FREQ_POINTS: usize = 1_024;

fn freq_points_field(doc: &Json, default: usize) -> Result<usize, WorkloadError> {
    at_most(
        "freq_points",
        usize_field(doc, "freq_points", default)?,
        MAX_FREQ_POINTS,
    )
}

/// The lane count of a pooled timed leg: at least one (the lane split
/// divides by it) and at most [`MAX_STIMULUS_LANES`], the range on
/// which `lane_seed` promises distinct streams — a larger count would
/// also size per-lane buffers from an untrusted number.
fn lanes_field(doc: &Json, default: u32) -> Result<u32, WorkloadError> {
    let lanes = at_least("lanes", u32_field(doc, "lanes", default)?, 1)?;
    if lanes > MAX_STIMULUS_LANES {
        return Err(SpecError::new(format!(
            "\"lanes\" must be at most {MAX_STIMULUS_LANES}, got {lanes}"
        ))
        .into());
    }
    Ok(lanes)
}

/// An activity measurement pulses a design's `rst` bus during its
/// first warm-up item, so an architecture with one needs
/// [`MIN_RESET_WARMUP`] warm-up items; fewer fail here rather than on
/// the measurement's assertion. Unknown names pass: running the spec
/// reports them.
fn reset_warmup(arch: &str, warmup: u64) -> Result<u64, WorkloadError> {
    match Architecture::from_paper_name(arch) {
        Some(a) if a.has_reset() && warmup < MIN_RESET_WARMUP => Err(SpecError::new(format!(
            "\"warmup\" must be at least {MIN_RESET_WARMUP} for {arch:?}, which has a reset \
             input, got {warmup}"
        ))
        .into()),
        _ => Ok(warmup),
    }
}

fn opt_usize_field(doc: &Json, key: &str) -> Result<Option<usize>, WorkloadError> {
    match doc.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| SpecError::new(format!("{key:?} must be an integer or null")).into()),
    }
}

fn engine_field(doc: &Json, default: Engine) -> Result<Engine, WorkloadError> {
    match doc.get("engine") {
        None => Ok(default),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| SpecError::new("\"engine\" must be a string"))?;
            engine_from_name(name).ok_or_else(|| {
                SpecError::new(format!(
                    "unknown engine {name:?} (zero_delay | timed | bit_parallel | bit_parallel_256 \
                     | bit_parallel_512)"
                ))
                .into()
            })
        }
    }
}

/// Refuses a characterization whose glitch-free baseline cannot run,
/// by resolving it as the run will ([`PlaneTiling::resolve`]): the
/// engine must count glitch-free activity, the stimulus volume
/// `items × plane lanes` must fit 64 bits, and the plane width must
/// tile that volume.
fn baseline_check(engine: Engine, plane: PlaneTiling, items: u64) -> Result<(), WorkloadError> {
    let Err(ModelError::InvalidArchParameter { field, .. }) = plane.resolve(engine, items) else {
        return Ok(());
    };
    let rule = match field {
        "engine" => "must be a glitch-free baseline: zero_delay or a bit_parallel plane",
        "items" => "times the baseline's plane lanes must fit 64 bits",
        _ => "must tile the baseline: 64 or \"auto\" on zero_delay, else divide items x lanes",
    };
    Err(SpecError::new(format!(
        "{field:?} {rule} (engine {:?}, plane_lanes {}, items {items})",
        engine_name(engine),
        plane_json(plane)
    ))
    .into())
}

/// [`baseline_check`] for the jobs whose measured leg runs the paper's
/// baseline ([`CharacterizeConfig::new`]): `sta` and `prune_delta`.
fn paper_baseline_check(items: u64) -> Result<(), WorkloadError> {
    let paper = CharacterizeConfig::new(items, 0);
    baseline_check(paper.baseline, paper.plane, items)
}

fn plane_json(plane: PlaneTiling) -> Json {
    match plane {
        PlaneTiling::Fixed(lanes) => Json::UInt(u64::from(lanes)),
        PlaneTiling::Auto => Json::str("auto"),
    }
}

fn plane_field(doc: &Json, default: PlaneTiling) -> Result<PlaneTiling, WorkloadError> {
    match doc.get("plane_lanes") {
        None => Ok(default),
        Some(v) => {
            if v.as_str() == Some("auto") {
                return Ok(PlaneTiling::Auto);
            }
            match v.as_u64() {
                Some(lanes @ (64 | 256 | 512)) => Ok(PlaneTiling::Fixed(lanes as u32)),
                _ => Err(SpecError::new("\"plane_lanes\" must be 64, 256, 512 or \"auto\"").into()),
            }
        }
    }
}

fn names_field(
    doc: &Json,
    key: &str,
    default: Option<Vec<String>>,
) -> Result<Option<Vec<String>>, WorkloadError> {
    match doc.get(key) {
        None => Ok(default),
        Some(Json::Null) => Ok(None),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| SpecError::new(format!("{key:?} must be an array or null")))?;
            arr.iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        SpecError::new(format!("{key:?} entries must be strings")).into()
                    })
                })
                .collect::<Result<Vec<_>, WorkloadError>>()
                .map(Some)
        }
    }
}

fn float_array(v: &Json, key: &str) -> Result<Vec<f64>, WorkloadError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| SpecError::new(format!("{key:?} must be an array of numbers")))?;
    arr.iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| SpecError::new(format!("{key:?} entries must be numbers")).into())
        })
        .collect()
}

fn usize_array(v: &Json, key: &str) -> Result<Vec<usize>, WorkloadError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| SpecError::new(format!("{key:?} must be an array of integers")))?;
    arr.iter()
        .map(|item| {
            item.as_usize()
                .ok_or_else(|| SpecError::new(format!("{key:?} entries must be integers")).into())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_roundtrip(spec: &JobSpec) {
        let json = spec.to_json();
        let back = JobSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("{json} failed to parse back: {e}"));
        assert_eq!(&back, spec, "{json}");
    }

    #[test]
    fn every_kind_has_a_default_and_round_trips() {
        for &(kind, _) in JOB_KINDS {
            let spec = JobSpec::default_for(kind).expect(kind);
            assert_eq!(spec.kind(), kind);
            assert_roundtrip(&spec);
        }
        assert_eq!(JobSpec::default_for("nope"), None);
    }

    #[test]
    fn non_default_fields_round_trip() {
        assert_roundtrip(&JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec!["RCA".into(), "Wallace parallel".into()]),
            width: 8,
            lanes: 3,
            engine: Engine::ZeroDelay,
            plane: PlaneTiling::Fixed(64),
            items: u64::MAX,
            seed: (1 << 53) + 1,
            workers: Some(7),
        }));
        assert_roundtrip(&JobSpec::AbInitio(AbInitioSpec {
            engine: Engine::BitParallel512,
            plane: PlaneTiling::Auto,
            ..AbInitioSpec::default()
        }));
        assert_roundtrip(&JobSpec::AbInitio(AbInitioSpec {
            engine: Engine::BitParallel256,
            plane: PlaneTiling::Fixed(256),
            ..AbInitioSpec::default()
        }));
        assert_roundtrip(&JobSpec::GlitchSweep(GlitchSweepSpec {
            widths: vec![8, 16, 24, 32],
            freq_points: 3,
            plane: PlaneTiling::Fixed(512),
            ..GlitchSweepSpec::default()
        }));
        assert_roundtrip(&JobSpec::ScalingStudy {
            frequencies_mhz: vec![0.5, 31.25, 250.0],
        });
        assert_roundtrip(&JobSpec::Lint(LintSpec {
            archs: Some(vec!["RCA".into()]),
            widths: Some(vec![8, 16]),
        }));
        assert_roundtrip(&JobSpec::Sta(StaSpec {
            width: 8,
            items: 0,
            workers: Some(3),
            ..StaSpec::default()
        }));
        assert_roundtrip(&JobSpec::PruneDelta(PruneDeltaSpec {
            archs: Some(vec!["Wallace".into(), "Seq4_16".into()]),
            widths: vec![8, 32],
            items: 12,
            workers: Some(2),
            ..PruneDeltaSpec::default()
        }));
        assert_roundtrip(&JobSpec::Batch(vec![
            JobSpec::Table1Sweep { archs: None },
            JobSpec::Batch(vec![JobSpec::Figure2 { samples: 3 }]),
        ]));
        assert_roundtrip(&JobSpec::Table1Sweep {
            archs: Some(vec!["RCA".into(), "Wallace".into()]),
        });
    }

    #[test]
    fn table1_axis_is_invisible_when_unset() {
        // The optional row axis must not disturb the historical wire
        // form (which is also the content-address of cached runs).
        assert_eq!(
            JobSpec::Table1Sweep { archs: None }.to_json(),
            r#"{"schema":"optpower-job/v1","job":"table1_sweep"}"#
        );
        let spec = JobSpec::from_json(r#"{"job":"table1_sweep","archs":["RCA"]}"#).unwrap();
        assert_eq!(
            spec,
            JobSpec::Table1Sweep {
                archs: Some(vec!["RCA".to_string()])
            }
        );
    }

    #[test]
    fn terse_specs_fill_defaults() {
        let spec = JobSpec::from_json(r#"{"job":"ab_initio","items":10}"#).unwrap();
        match spec {
            JobSpec::AbInitio(s) => {
                assert_eq!(s.items, 10);
                assert_eq!(s.width, 16);
                assert_eq!(s.lanes, optpower_report::TIMED_LANES);
                assert_eq!(s.engine, Engine::BitParallel);
                assert_eq!(s.plane, PlaneTiling::Fixed(64));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in [
            r#"{"jobs":"x"}"#,
            r#"{"job":"unknown_kind"}"#,
            r#"{"schema":"optpower-job/v2","job":"table2"}"#,
            r#"{"job":"ab_initio","engine":"warp"}"#,
            r#"{"job":"ab_initio","items":-4}"#,
            // The plane width is a closed set: 64/256/512 or "auto".
            r#"{"job":"ab_initio","plane_lanes":128}"#,
            r#"{"job":"ab_initio","plane_lanes":"wide"}"#,
            r#"{"job":"glitch_sweep","plane_lanes":0}"#,
            r#"{"job":"batch"}"#,
            r#"{"job":"glitch_sweep","widths":[8.5]}"#,
            "not json",
            // Typoed keys must not silently fall back to defaults.
            r#"{"job":"activity_measure","sed":7}"#,
            r#"{"job":"ab_initio","itmes":3}"#,
            r#"{"job":"table2","samples":4}"#,
            r#"{"schema":7,"job":"table2"}"#,
            r#"["job","table2"]"#,
            // Values the engines cannot run with fail at parse time.
            r#"{"job":"ab_initio","lanes":0}"#,
            r#"{"job":"glitch_sweep","lanes":0}"#,
            r#"{"job":"sta","lanes":0}"#,
            r#"{"job":"figure34","width":0}"#,
            r#"{"job":"figure34","width":1}"#,
            // A reset design needs two warm-up items.
            r#"{"job":"activity_measure","arch":"Sequential","warmup":0}"#,
            r#"{"job":"activity_measure","arch":"Seq4_16","warmup":1}"#,
            r#"{"job":"activity_measure","arch":"RCA parallel","warmup":1}"#,
            // Lane seeds are distinct on 512 lanes only.
            r#"{"job":"ab_initio","archs":["RCA"],"items":1,"lanes":4000000000}"#,
            r#"{"job":"glitch_sweep","lanes":4000000000}"#,
            r#"{"job":"sta","lanes":4000000000}"#,
            r#"{"job":"ab_initio","lanes":513}"#,
            // Fields that size an allocation are capped.
            r#"{"job":"figure1","samples":9223372036854775808}"#,
            r#"{"job":"figure2","samples":65537}"#,
            r#"{"job":"pareto","freq_points":9223372036854775808}"#,
            r#"{"job":"glitch_sweep","freq_points":1025}"#,
            r#"{"job":"figure34","width":33}"#,
            // The glitch-free baseline resolves at parse time: a
            // glitch-counting engine, a volume past 64 bits and a
            // plane that does not tile the volume are refused ...
            r#"{"job":"ab_initio","archs":["Wallace"],"items":20,"engine":"timed"}"#,
            r#"{"job":"glitch_sweep","engine":"timed"}"#,
            r#"{"job":"ab_initio","items":288230376151711745}"#,
            r#"{"job":"glitch_sweep","items":288230376151711745}"#,
            r#"{"job":"sta","items":288230376151711745}"#,
            r#"{"job":"prune_delta","items":288230376151711745}"#,
            r#"{"job":"ab_initio","engine":"bit_parallel_512","items":36028797018963968}"#,
            r#"{"job":"ab_initio","archs":["RCA"],"items":20,"engine":"zero_delay","plane_lanes":256}"#,
            r#"{"job":"ab_initio","items":3,"plane_lanes":256}"#,
            // ... and a characterization needs at least one item.
            r#"{"job":"ab_initio","items":0}"#,
            r#"{"job":"glitch_sweep","items":0}"#,
            // The frozen scalar timed engine is not on the wire.
            r#"{"job":"activity_measure","engine":"timed_scalar"}"#,
        ] {
            let err = JobSpec::from_json(bad).unwrap_err();
            assert!(matches!(err, WorkloadError::Spec(_)), "{bad}: {err:?}");
        }
    }

    /// The warm-up rule follows `Architecture::has_reset`, which the
    /// generators' own tests tie to the `rst` buses they emit.
    #[test]
    fn reset_designs_are_refused_short_warm_ups() {
        for arch in Architecture::ALL {
            for warmup in 0..=MIN_RESET_WARMUP {
                let wire =
                    format!(r#"{{"job":"activity_measure","arch":"{arch}","warmup":{warmup}}}"#);
                let refused = JobSpec::from_json(&wire).is_err();
                assert_eq!(
                    refused,
                    arch.has_reset() && warmup < MIN_RESET_WARMUP,
                    "{wire}"
                );
            }
        }
    }

    #[test]
    fn lanes_span_the_lane_seed_domain() {
        for (lanes, ok) in [
            (1, true),
            (MAX_STIMULUS_LANES, true),
            (MAX_STIMULUS_LANES + 1, false),
        ] {
            for kind in ["ab_initio", "glitch_sweep", "sta"] {
                let wire = format!(r#"{{"job":"{kind}","lanes":{lanes}}}"#);
                assert_eq!(JobSpec::from_json(&wire).is_ok(), ok, "{wire}");
            }
        }
    }

    #[test]
    fn engine_names_are_bijective() {
        for engine in [
            Engine::ZeroDelay,
            Engine::Timed,
            Engine::BitParallel,
            Engine::BitParallel256,
            Engine::BitParallel512,
        ] {
            assert_eq!(engine_from_name(engine_name(engine)), Some(engine));
        }
        assert_eq!(engine_from_name("warp"), None);
    }

    #[test]
    fn canonical_key_is_invariant_under_wire_spelling() {
        // Key order, whitespace, float spelling and the optional
        // schema tag are wire noise: all five documents address the
        // same job.
        let canonical = JobSpec::from_json(
            r#"{"schema":"optpower-job/v1","job":"scaling_study","frequencies_mhz":[1.0,31.25]}"#,
        )
        .unwrap();
        for variant in [
            r#"{"job":"scaling_study","frequencies_mhz":[1.0,31.25]}"#,
            r#"{"frequencies_mhz":[1.0,31.25],"job":"scaling_study"}"#,
            r#"{ "job" : "scaling_study", "frequencies_mhz" : [ 1, 31.25 ] }"#,
            r#"{"job":"scaling_study","frequencies_mhz":[1e0,3.125e1]}"#,
        ] {
            let spec = JobSpec::from_json(variant).unwrap();
            assert_eq!(spec.canonical_key(), canonical.canonical_key(), "{variant}");
            assert_eq!(spec.canonical_json(), canonical.canonical_json());
        }
        // ... and a different job is a different address.
        let other =
            JobSpec::from_json(r#"{"job":"scaling_study","frequencies_mhz":[2.0,31.25]}"#).unwrap();
        assert_ne!(other.canonical_key(), canonical.canonical_key());
    }

    #[test]
    fn canonical_key_shape_and_fnv_vectors() {
        // The published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        let key = JobSpec::Table2.canonical_key();
        assert_eq!(key.len(), 16);
        assert!(key.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn smoke_spec_matches_the_legacy_flag() {
        let s = AbInitioSpec::smoke();
        assert_eq!(s.items, 60);
        assert_eq!(
            s.archs.as_deref(),
            Some(&["RCA".to_string(), "Sequential".to_string()][..])
        );
    }
}
