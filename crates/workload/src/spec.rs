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
//!
//! Each kind lists its wire fields once, in wire order; the writer,
//! the reader and the unknown-field check all walk that list, and one
//! private value trait spells each field type in JSON. Decoding checks
//! shapes only: every range lives in one private `JobSpec::validate`,
//! which the parser runs on every document.

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
    /// Worker override for this job; `None` = the runtime's worker policy.
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
    /// Frequency-axis resolution of the sweep, 2 to 1,024 points.
    pub freq_points: usize,
    /// Worker override for this job; `None` = the runtime's worker policy.
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
    /// Data items measured (excluding warm-up), at least 1.
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
    /// Worker override for this job; `None` = the runtime's worker policy.
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
    /// Random-stimulus volume per characterization leg, at least 1.
    pub items: u64,
    /// Base stimulus seed.
    pub seed: u64,
    /// Worker override for this job; `None` = the runtime's worker policy.
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
        /// Evaluated frequencies in MHz, each finite and positive.
        frequencies_mhz: Vec<f64>,
    },
    /// Eq. 13 logarithmic sensitivities for all Table 1 architectures.
    Sensitivity,
    /// The three ablation studies (fit range, optimiser, glitches).
    Ablation {
        /// Stimulus volume of the glitch ablation, at least 1.
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
        /// Samples per sweep curve, 2 to 65,536.
        samples: usize,
    },
    /// Figure 2: the Vdd^{1/α} linearisation.
    Figure2 {
        /// Samples of the plotted range, 2 to 65,536.
        samples: usize,
    },
    /// Figures 3/4: horizontal vs diagonal pipeline structures.
    Figure34 {
        /// Operand width in bits, 2 to 32.
        width: usize,
        /// Stimulus volume of the activity measurement, at least 1.
        items: u64,
    },
    /// The Ptot-vs-frequency Pareto figure over the explored design
    /// space.
    Pareto {
        /// Frequency-axis resolution, 2 to 1,024 points.
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
        let mut writer = Writer(vec![
            ("schema".to_string(), Json::str(JOB_SCHEMA)),
            ("job".to_string(), Json::str(self.kind())),
        ]);
        // The field list lends each field mutably, for the reader; the
        // writer walks a copy.
        self.clone().fields(&mut writer);
        Json::Obj(writer.0)
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

    /// Parses the JSON wire form. Unknown kinds, malformed fields,
    /// out-of-range values and schema mismatches are
    /// [`WorkloadError::Spec`]; fields absent from the document take
    /// the kind's defaults, so hand-written specs stay terse — but
    /// *unrecognized* keys are rejected, so a typoed `"sed"` cannot
    /// silently run with the default seed.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] describing the first problem.
    pub fn from_json(input: &str) -> Result<JobSpec, WorkloadError> {
        let doc = Json::parse(input).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_json_value(&doc)
    }

    /// Parses an already-decoded JSON value: decodes it, then checks
    /// every field's range.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] describing the first problem.
    pub fn from_json_value(doc: &Json) -> Result<JobSpec, WorkloadError> {
        let spec = Self::decode(doc)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Decodes a document, checking shapes but no range: the kind's
    /// defaults, with every listed field the document carries read
    /// over them. A key the kind does not list is an error naming the
    /// accepted fields.
    fn decode(doc: &Json) -> Result<JobSpec, WorkloadError> {
        let Json::Obj(pairs) = doc else {
            return Err(SpecError::new("a job spec must be a JSON object").into());
        };
        if let Some(v) = doc.get("schema") {
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
        let kind = doc
            .get("job")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("spec object needs a string \"job\" field"))?;
        let mut spec = Self::default_for(kind).ok_or_else(|| {
            SpecError::new(format!(
                "unknown job kind {kind:?} (see `optpower list` for the catalogue)"
            ))
        })?;
        let mut reader = Reader {
            doc,
            names: vec!["schema", "job"],
            error: None,
        };
        spec.fields(&mut reader);
        let known = |key: &String| reader.names.contains(&key.as_str());
        if let Some((key, _)) = pairs.iter().find(|(key, _)| !known(key)) {
            return Err(SpecError::new(format!(
                "unknown field {key:?} for job {kind:?} (accepted: {})",
                reader.names.join(", ")
            ))
            .into());
        }
        reader.error.map_or(Ok(spec), Err)
    }

    /// The wire fields of each kind, in wire order: the one list the
    /// writer, the reader and the unknown-field check walk.
    fn fields(&mut self, w: &mut impl Walk) {
        match self {
            Self::Table2 | Self::Table3 | Self::Table4 | Self::Sensitivity | Self::Export => {}
            // Written only when set: the no-axis wire form (and cache
            // key) stays that of the historical unit variant.
            Self::Table1Sweep { archs } => w.visit("archs", archs, Rule::OmitNull),
            Self::ScalingStudy { frequencies_mhz } => w.field("frequencies_mhz", frequencies_mhz),
            Self::Ablation { items, seed } => {
                w.field("items", items);
                w.field("seed", seed);
            }
            Self::AbInitio(s) => {
                w.field("archs", &mut s.archs);
                w.field("width", &mut s.width);
                w.field("lanes", &mut s.lanes);
                w.field("engine", &mut s.engine);
                w.field("plane_lanes", &mut s.plane);
                w.field("items", &mut s.items);
                w.field("seed", &mut s.seed);
                w.field("workers", &mut s.workers);
            }
            Self::GlitchSweep(s) => {
                w.field("archs", &mut s.archs);
                w.field("widths", &mut s.widths);
                w.field("lanes", &mut s.lanes);
                w.field("engine", &mut s.engine);
                w.field("plane_lanes", &mut s.plane);
                w.field("items", &mut s.items);
                w.field("seed", &mut s.seed);
                w.field("freq_points", &mut s.freq_points);
                w.field("workers", &mut s.workers);
            }
            Self::ActivityMeasure(s) => {
                w.field("arch", &mut s.arch);
                w.field("width", &mut s.width);
                w.field("engine", &mut s.engine);
                w.field("items", &mut s.items);
                w.field("warmup", &mut s.warmup);
                w.field("seed", &mut s.seed);
            }
            Self::Figure1 { samples } | Self::Figure2 { samples } => w.field("samples", samples),
            Self::Figure34 { width, items } => {
                w.field("width", width);
                w.field("items", items);
            }
            Self::Pareto { freq_points } => w.field("freq_points", freq_points),
            Self::Lint(s) => {
                w.field("archs", &mut s.archs);
                w.field("widths", &mut s.widths);
            }
            Self::Sta(s) => {
                w.field("archs", &mut s.archs);
                w.field("width", &mut s.width);
                w.field("lanes", &mut s.lanes);
                w.field("items", &mut s.items);
                w.field("seed", &mut s.seed);
                w.field("workers", &mut s.workers);
            }
            Self::PruneDelta(s) => {
                w.field("archs", &mut s.archs);
                w.field("widths", &mut s.widths);
                w.field("items", &mut s.items);
                w.field("seed", &mut s.seed);
                w.field("workers", &mut s.workers);
            }
            Self::Batch(jobs) => w.visit("jobs", jobs, Rule::Required),
        }
    }

    /// Checks every range a spec's fields must lie in, so a value the
    /// job cannot run with fails as a spec error naming the field
    /// instead of panicking, aborting or silently running a different
    /// job. Name and architecture lists are checked when the job
    /// resolves them.
    fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            Self::Table1Sweep { .. }
            | Self::Table2
            | Self::Table3
            | Self::Table4
            | Self::Sensitivity
            | Self::Export
            | Self::Lint(_) => Ok(()),
            Self::ScalingStudy { frequencies_mhz } => {
                match frequencies_mhz
                    .iter()
                    .find(|f| !(f.is_finite() && **f > 0.0))
                {
                    Some(f) => Err(SpecError::new(format!(
                        "\"frequencies_mhz\" entries must be finite and positive, got {f}"
                    ))
                    .into()),
                    None => Ok(()),
                }
            }
            Self::Ablation { items, .. } => within("items", *items, 1, u64::MAX),
            Self::AbInitio(s) => {
                within("lanes", s.lanes, 1, MAX_STIMULUS_LANES)?;
                within("items", s.items, 1, u64::MAX)?;
                baseline_check(s.engine, s.plane, s.items)
            }
            Self::GlitchSweep(s) => {
                within("lanes", s.lanes, 1, MAX_STIMULUS_LANES)?;
                within("items", s.items, 1, u64::MAX)?;
                within("freq_points", s.freq_points, 2, MAX_FREQ_POINTS)?;
                baseline_check(s.engine, s.plane, s.items)
            }
            Self::ActivityMeasure(s) => {
                within("items", s.items, 1, u64::MAX)?;
                reset_warmup(&s.arch, s.warmup)
            }
            Self::Figure1 { samples } | Self::Figure2 { samples } => {
                within("samples", *samples, 2, MAX_SAMPLES)
            }
            Self::Figure34 { width, items } => {
                // The pipelined arrays need two operand bits to split,
                // and the generators stop at their widest operand.
                within("width", *width, 2, Architecture::MAX_WIDTH)?;
                within("items", *items, 1, u64::MAX)
            }
            Self::Pareto { freq_points } => within("freq_points", *freq_points, 2, MAX_FREQ_POINTS),
            // `items` 0 skips the measured leg, and passes the check.
            Self::Sta(s) => {
                within("lanes", s.lanes, 1, MAX_STIMULUS_LANES)?;
                paper_baseline_check(s.items)
            }
            Self::PruneDelta(s) => {
                within("items", s.items, 1, u64::MAX)?;
                paper_baseline_check(s.items)
            }
            Self::Batch(jobs) => jobs.iter().try_for_each(JobSpec::validate),
        }
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

/// How the field list treats a field beyond its value's spelling.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Always written; a document may omit it and keep the default.
    Plain,
    /// Written only while it is not `null`.
    OmitNull,
    /// Always written; a document must carry it.
    Required,
}

/// One pass over the field list of [`JobSpec::fields`].
trait Walk {
    /// Visits field `key` under `rule`.
    fn visit<T: WireValue>(&mut self, key: &'static str, value: &mut T, rule: Rule);

    /// Visits a [`Rule::Plain`] field.
    fn field<T: WireValue>(&mut self, key: &'static str, value: &mut T) {
        self.visit(key, value, Rule::Plain);
    }
}

/// The writing pass: each field's JSON member, in list order.
struct Writer(Vec<(String, Json)>);

impl Walk for Writer {
    fn visit<T: WireValue>(&mut self, key: &'static str, value: &mut T, rule: Rule) {
        let json = value.to_wire();
        if !(rule == Rule::OmitNull && json.is_null()) {
            self.0.push((key.to_string(), json));
        }
    }
}

/// The reading pass: overwrites each field the document carries,
/// keeps the first error, and records every field name after `schema`
/// and `job` for the unknown-key check.
struct Reader<'a> {
    doc: &'a Json,
    names: Vec<&'static str>,
    error: Option<WorkloadError>,
}

impl Walk for Reader<'_> {
    fn visit<T: WireValue>(&mut self, key: &'static str, value: &mut T, rule: Rule) {
        self.names.push(key);
        if self.error.is_some() {
            return;
        }
        let read = match self.doc.get(key) {
            Some(v) => T::from_wire(v, key).map(|read| *value = read),
            None if rule == Rule::Required => {
                Err(SpecError::new(format!("{key:?} is required")).into())
            }
            None => Ok(()),
        };
        self.error = read.err();
    }
}

/// A field type's JSON spelling. Reading checks the value's shape
/// only; [`JobSpec::validate`] owns every range.
trait WireValue: Sized {
    /// The JSON form of the value.
    fn to_wire(&self) -> Json;
    /// Reads `v`, the value of field `key`.
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError>;
}

/// `get(v)`, or an error naming field `key`, the `what` it takes and
/// the value it got.
fn read<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, WorkloadError> {
    get(v).ok_or_else(|| {
        let got = match v {
            Json::Arr(_) => "an array".to_string(),
            Json::Obj(_) => "an object".to_string(),
            scalar => scalar.to_string(),
        };
        SpecError::new(format!("{key:?}: expected {what}, got {got}")).into()
    })
}

impl WireValue for u64 {
    fn to_wire(&self) -> Json {
        Json::UInt(*self)
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "an unsigned integer", Json::as_u64)
    }
}

impl WireValue for usize {
    fn to_wire(&self) -> Json {
        Json::UInt(*self as u64)
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "an unsigned integer", Json::as_usize)
    }
}

impl WireValue for u32 {
    fn to_wire(&self) -> Json {
        Json::UInt(u64::from(*self))
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "an unsigned 32-bit integer", |v| {
            u32::try_from(v.as_u64()?).ok()
        })
    }
}

impl WireValue for f64 {
    fn to_wire(&self) -> Json {
        Json::num(*self)
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "a number", Json::as_f64)
    }
}

impl WireValue for String {
    fn to_wire(&self) -> Json {
        Json::str(self)
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "a string", |v| v.as_str().map(str::to_string))
    }
}

impl<T: WireValue> WireValue for Vec<T> {
    fn to_wire(&self) -> Json {
        Json::Arr(self.iter().map(T::to_wire).collect())
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "an array", Json::as_arr)?
            .iter()
            .map(|item| T::from_wire(item, key))
            .collect()
    }
}

/// `null` is `None`.
impl<T: WireValue> WireValue for Option<T> {
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_wire)
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        if v.is_null() {
            return Ok(None);
        }
        T::from_wire(v, key).map(Some)
    }
}

impl WireValue for Engine {
    fn to_wire(&self) -> Json {
        Json::str(engine_name(*self))
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        let what = "zero_delay, timed, bit_parallel, bit_parallel_256 or bit_parallel_512";
        read(v, key, what, |v| engine_from_name(v.as_str()?))
    }
}

/// `plane_lanes`: a lane count or `"auto"`; which counts tile the
/// baseline is [`PlaneTiling::resolve`]'s to say.
impl WireValue for PlaneTiling {
    fn to_wire(&self) -> Json {
        match self {
            PlaneTiling::Fixed(lanes) => lanes.to_wire(),
            PlaneTiling::Auto => Json::str("auto"),
        }
    }
    fn from_wire(v: &Json, key: &str) -> Result<Self, WorkloadError> {
        read(v, key, "a lane count or \"auto\"", |v| match v.as_str() {
            Some("auto") => Some(PlaneTiling::Auto),
            _ => Some(PlaneTiling::Fixed(u32::try_from(v.as_u64()?).ok()?)),
        })
    }
}

/// A batch member: decoded here, validated with its batch.
impl WireValue for JobSpec {
    fn to_wire(&self) -> Json {
        self.to_json_value()
    }
    fn from_wire(v: &Json, _key: &str) -> Result<Self, WorkloadError> {
        JobSpec::decode(v)
    }
}

/// Refuses a count outside `min..=max`: below the smallest value the
/// job runs with (a lane split divides by it, a curve needs two
/// points, a measurement one item) or above the largest it accepts (a
/// figure, a frequency axis or a generator is sized by it, and an
/// unbounded value would abort the process on allocation).
fn within<T: PartialOrd + std::fmt::Display>(
    key: &str,
    value: T,
    min: T,
    max: T,
) -> Result<(), WorkloadError> {
    let rule = if value < min {
        format!("at least {min}")
    } else if value > max {
        format!("at most {max}")
    } else {
        return Ok(());
    };
    Err(SpecError::new(format!("{key:?} must be {rule}, got {value}")).into())
}

/// The most points a figure curve is sampled at.
const MAX_SAMPLES: usize = 65_536;

/// The most points a sweep's log frequency axis has.
const MAX_FREQ_POINTS: usize = 1_024;

/// An activity measurement pulses a design's `rst` bus during its
/// first warm-up item, so an architecture with one needs
/// [`MIN_RESET_WARMUP`] warm-up items; fewer fail here rather than on
/// the measurement's assertion. Unknown names pass: running the spec
/// reports them.
fn reset_warmup(arch: &str, warmup: u64) -> Result<(), WorkloadError> {
    match Architecture::from_paper_name(arch) {
        Some(a) if a.has_reset() && warmup < MIN_RESET_WARMUP => Err(SpecError::new(format!(
            "\"warmup\" must be at least {MIN_RESET_WARMUP} for {arch:?}, which has a reset \
             input, got {warmup}"
        ))
        .into()),
        _ => Ok(()),
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
        _ => "must be 64, 256, 512 or \"auto\" (64 or \"auto\" on zero_delay) and divide items x lanes",
    };
    Err(SpecError::new(format!(
        "{field:?} {rule} (engine {:?}, plane_lanes {}, items {items})",
        engine_name(engine),
        plane.to_wire()
    ))
    .into())
}

/// [`baseline_check`] for the jobs whose measured leg runs the paper's
/// baseline ([`CharacterizeConfig::new`]): `sta` and `prune_delta`.
fn paper_baseline_check(items: u64) -> Result<(), WorkloadError> {
    let paper = CharacterizeConfig::new(items, 0);
    baseline_check(paper.baseline, paper.plane, items)
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
            // Counts below what the computation runs with: a curve
            // needs two points, a measurement one item, and a
            // frequency is finite and positive.
            r#"{"job":"figure1","samples":0}"#,
            r#"{"job":"figure1","samples":1}"#,
            r#"{"job":"figure2","samples":0}"#,
            r#"{"job":"figure2","samples":1}"#,
            r#"{"job":"pareto","freq_points":0}"#,
            r#"{"job":"pareto","freq_points":1}"#,
            r#"{"job":"glitch_sweep","freq_points":0}"#,
            r#"{"job":"glitch_sweep","freq_points":1}"#,
            r#"{"job":"figure34","items":0}"#,
            r#"{"job":"activity_measure","items":0}"#,
            r#"{"job":"ablation","items":0}"#,
            r#"{"job":"prune_delta","items":0}"#,
            r#"{"job":"scaling_study","frequencies_mhz":[0]}"#,
            r#"{"job":"scaling_study","frequencies_mhz":[-5]}"#,
            r#"{"job":"scaling_study","frequencies_mhz":[1e999]}"#,
            // Batch members are checked like top-level specs.
            r#"{"job":"batch","jobs":[{"job":"figure1","samples":1}]}"#,
        ] {
            let err = JobSpec::from_json(bad).unwrap_err();
            assert!(matches!(err, WorkloadError::Spec(_)), "{bad}: {err:?}");
        }
    }

    #[test]
    fn unknown_fields_name_the_accepted_fields_in_wire_order() {
        let err = JobSpec::from_json(r#"{"job":"ab_initio","itmes":3}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid job spec: unknown field \"itmes\" for job \"ab_initio\" (accepted: schema, job, \
             archs, width, lanes, engine, plane_lanes, items, seed, workers)"
        );
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
