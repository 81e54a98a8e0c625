//! One column table per payload row type. Each entry holds a column's
//! wire name, its accessor and its CSV number format; the JSON row
//! object, the CSV header and cells, and the shard re-parser of
//! [`crate::Artifact::from_payload_json`] all follow from the table,
//! so adding a column is one entry.
//!
//! The tables reproduce the frozen wire bytes:
//!
//! * JSON — floats in shortest round-trip form, `null` for a
//!   non-finite float and for an absent value, counts as exact
//!   integers;
//! * CSV — floats through `{}` (or `{:e}` on the columns marked
//!   [`Fmt::Exp`]), an empty cell for an absent value, text quoted
//!   only when it holds a separator, quote or newline.
//!
//! A column may exist in one format only ([`Fmt::CsvOnly`],
//! [`Fmt::JsonOnly`]); the re-parser fills the columns that carry a
//! [`Slot`] and re-derives the rest.

use std::borrow::Cow;
use std::fmt::Write as _;

use optpower_explore::EvalRecord;
use optpower_mult::Architecture;
use optpower_report::ablation::{FitRangeResult, GlitchAblationRow, OptimizerAblationRow};
use optpower_report::extended::SensitivityRow;
use optpower_report::{AbInitioRow, RowComparison, StageSummary};
use optpower_sim::ActivityReport;
use optpower_sta::Diagnostic;

use crate::artifact::{FlavorRow, LintSummary, PruneDeltaRow, StaRow};
use crate::error::{SpecError, WorkloadError};
use crate::json::Json;
use crate::runtime::arch_by_name;
use crate::spec::{engine_name, ActivitySpec};

/// One cell of a row, before a format spells it.
pub(crate) enum Cell<'a> {
    /// Text.
    Text(&'a str),
    /// An exact count.
    Count(u64),
    /// A float.
    Float(f64),
    /// No value.
    Null,
}

/// How a column is spelled in CSV, and which formats carry it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fmt {
    /// JSON and CSV; CSV floats through `{}`.
    Plain,
    /// JSON and CSV; CSV floats through `{:e}`.
    Exp,
    /// CSV only, floats through `{}`.
    CsvOnly,
    /// CSV only, floats through `{:e}`.
    CsvOnlyExp,
    /// JSON only.
    JsonOnly,
}

use Fmt::{CsvOnly, CsvOnlyExp, Exp, JsonOnly, Plain};

impl Fmt {
    fn in_json(self) -> bool {
        !matches!(self, CsvOnly | CsvOnlyExp)
    }

    fn in_csv(self) -> bool {
        self != JsonOnly
    }
}

/// Where the re-parser writes a column's value.
pub(crate) enum Slot<'a> {
    Text(&'a mut String),
    Arch(&'a mut Architecture),
    Count(&'a mut usize),
    /// `null` reads back as NaN.
    Float(&'a mut f64),
}

/// One column of a row type `R`: wire name, format, accessor and,
/// for the re-parsed row types, where the parser writes it back.
pub(crate) struct Column<R> {
    name: &'static str,
    fmt: Fmt,
    get: fn(&R) -> Cell<'_>,
    slot: Option<fn(&mut R) -> Slot<'_>>,
}

impl<R> Column<R> {
    /// A column the re-parser skips (derived, or a row type that is
    /// never re-parsed).
    const fn new(name: &'static str, fmt: Fmt, get: fn(&R) -> Cell<'_>) -> Self {
        Self {
            name,
            fmt,
            get,
            slot: None,
        }
    }

    /// A column the re-parser writes back through `slot`.
    const fn parsed(
        name: &'static str,
        fmt: Fmt,
        get: fn(&R) -> Cell<'_>,
        slot: fn(&mut R) -> Slot<'_>,
    ) -> Self {
        Self {
            name,
            fmt,
            get,
            slot: Some(slot),
        }
    }
}

/// The JSON members of one row, in column order.
pub(crate) fn json_pairs<R>(columns: &[Column<R>], row: &R) -> Vec<(String, Json)> {
    let mut pairs = Vec::with_capacity(columns.len());
    for c in columns.iter().filter(|c| c.fmt.in_json()) {
        let value = match (c.get)(row) {
            Cell::Text(s) => Json::str(s),
            Cell::Count(n) => Json::UInt(n),
            Cell::Float(v) => Json::num(v),
            Cell::Null => Json::Null,
        };
        pairs.push((c.name.to_string(), value));
    }
    pairs
}

/// A JSON array with one object per row.
pub(crate) fn json_rows<'a, R: 'a>(
    columns: &[Column<R>],
    rows: impl IntoIterator<Item = &'a R>,
) -> Json {
    Json::Arr(
        rows.into_iter()
            .map(|r| Json::Obj(json_pairs(columns, r)))
            .collect(),
    )
}

/// The CSV header names, comma-separated, without a newline.
pub(crate) fn csv_header<R>(columns: &[Column<R>]) -> String {
    columns
        .iter()
        .filter(|c| c.fmt.in_csv())
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(",")
}

/// Appends one row's CSV cells, comma-separated, without a newline.
pub(crate) fn csv_cells<R>(columns: &[Column<R>], row: &R, out: &mut String) {
    for (i, c) in columns.iter().filter(|c| c.fmt.in_csv()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let written = match ((c.get)(row), c.fmt) {
            (Cell::Text(s), _) => write!(out, "{}", csv_field(s)),
            (Cell::Count(n), _) => write!(out, "{n}"),
            (Cell::Float(v), Exp | CsvOnlyExp) => write!(out, "{v:e}"),
            (Cell::Float(v), _) => write!(out, "{v}"),
            (Cell::Null, _) => Ok(()),
        };
        written.expect("writing to a String cannot fail");
    }
}

/// A CSV document: the header line, then one line per row.
pub(crate) fn csv<'a, R: 'a>(
    columns: &[Column<R>],
    rows: impl IntoIterator<Item = &'a R>,
) -> String {
    let mut out = csv_header(columns);
    out.push('\n');
    for row in rows {
        csv_cells(columns, row, &mut out);
        out.push('\n');
    }
    out
}

/// Quotes a CSV field when it contains a separator, quote or newline.
pub(crate) fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// Parses one JSON row object back into `R`: every column with a
/// [`Slot`] must be present; the others are derived and skipped.
pub(crate) fn parse_row<R: Default>(columns: &[Column<R>], row: &Json) -> Result<R, WorkloadError> {
    let mut out = R::default();
    for c in columns {
        let Some(slot) = c.slot else { continue };
        let value = row
            .get(c.name)
            .ok_or_else(|| SpecError::new(format!("row is missing field {:?}", c.name)))?;
        let bad = |what: &str| SpecError::new(format!("row field {:?} must be {what}", c.name));
        match slot(&mut out) {
            Slot::Text(s) => *s = value.as_str().ok_or_else(|| bad("a string"))?.to_string(),
            Slot::Arch(a) => *a = arch_by_name(value.as_str().ok_or_else(|| bad("a string"))?)?,
            Slot::Count(n) => *n = value.as_usize().ok_or_else(|| bad("an unsigned integer"))?,
            Slot::Float(v) if value.is_null() => *v = f64::NAN,
            Slot::Float(v) => *v = value.as_f64().ok_or_else(|| bad("a number"))?,
        }
    }
    Ok(out)
}

fn count(n: usize) -> Cell<'static> {
    Cell::Count(n as u64)
}

fn opt_float(v: Option<f64>) -> Cell<'static> {
    v.map_or(Cell::Null, Cell::Float)
}

/// The optimum of a record the caller knows is closed.
fn closed(r: &EvalRecord) -> optpower::OperatingPoint {
    r.optimum()
        .expect("only closed records reach an optimum column")
}

/// A column over a plain field that the re-parser writes back: the
/// field's kind (`Text`, `Count` or `Float`) picks both the cell and
/// the slot.
macro_rules! field {
    ($name:literal, $fmt:ident, Text, $field:ident) => {
        Column::parsed(
            $name,
            $fmt,
            |r| Cell::Text(&r.$field),
            |r| Slot::Text(&mut r.$field),
        )
    };
    ($name:literal, $fmt:ident, Count, $field:ident) => {
        Column::parsed(
            $name,
            $fmt,
            |r| count(r.$field),
            |r| Slot::Count(&mut r.$field),
        )
    };
    ($name:literal, $fmt:ident, Float, $field:ident) => {
        Column::parsed(
            $name,
            $fmt,
            |r| Cell::Float(r.$field),
            |r| Slot::Float(&mut r.$field),
        )
    };
}

/// Paper-vs-reproduction comparison rows (Tables 1, 3 and 4).
pub(crate) const COMPARISON: &[Column<RowComparison>] = &[
    field!("name", Plain, Text, name),
    field!("paper_vdd_v", Plain, Float, paper_vdd),
    field!("vdd_v", Plain, Float, our_vdd),
    field!("paper_vth_v", Plain, Float, paper_vth),
    field!("vth_v", Plain, Float, our_vth),
    field!("paper_ptot_uw", Plain, Float, paper_ptot_uw),
    field!("ptot_uw", Plain, Float, our_ptot_uw),
    field!("paper_eq13_uw", Plain, Float, paper_eq13_uw),
    field!("eq13_uw", Plain, Float, our_eq13_uw),
    field!("paper_err_pct", Plain, Float, paper_err_pct),
    field!("err_pct", Plain, Float, our_err_pct),
];

/// The published flavour parameters (Table 2).
pub(crate) const FLAVOR: &[Column<FlavorRow>] = &[
    Column::new("flavor", Plain, |r| Cell::Text(r.flavor)),
    Column::new("vdd_nom_v", Plain, |r| Cell::Float(r.vdd_nom_v)),
    Column::new("vth0_nom_v", Plain, |r| Cell::Float(r.vth0_nom_v)),
    Column::new("io_ua", Plain, |r| Cell::Float(r.io_ua)),
    Column::new("zeta_pf", Plain, |r| Cell::Float(r.zeta_pf)),
    Column::new("alpha", Plain, |r| Cell::Float(r.alpha)),
    Column::new("n", Plain, |r| Cell::Float(r.n)),
];

/// Eq. 13 sensitivities per architecture.
pub(crate) const SENSITIVITY: &[Column<SensitivityRow>] = &[
    Column::new("arch", Plain, |r| Cell::Text(r.name)),
    Column::new("s_activity", Plain, |r| Cell::Float(r.sens.activity)),
    Column::new("s_cells", Plain, |r| Cell::Float(r.sens.cells)),
    Column::new("s_logical_depth", Plain, |r| {
        Cell::Float(r.sens.logical_depth)
    }),
    Column::new("s_frequency", Plain, |r| Cell::Float(r.sens.frequency)),
    Column::new("s_io", Plain, |r| Cell::Float(r.sens.io)),
];

/// Fit-range ablation rows.
pub(crate) const FIT_RANGE: &[Column<FitRangeResult>] = &[
    Column::new("lo_v", Plain, |r| Cell::Float(r.lo)),
    Column::new("hi_v", Plain, |r| Cell::Float(r.hi)),
    Column::new("a", Plain, |r| Cell::Float(r.a)),
    Column::new("b", Plain, |r| Cell::Float(r.b)),
    Column::new("max_error", Plain, |r| Cell::Float(r.max_error)),
];

/// Optimiser-strategy ablation rows.
pub(crate) const OPTIMIZER: &[Column<OptimizerAblationRow>] = &[
    Column::new("strategy", Plain, |r| Cell::Text(&r.strategy)),
    Column::new("ptot_uw", Plain, |r| Cell::Float(r.ptot_uw)),
    Column::new("excess_pct", Plain, |r| Cell::Float(r.excess_pct)),
];

/// Glitch-contribution ablation rows.
pub(crate) const GLITCH_ABLATION: &[Column<GlitchAblationRow>] = &[
    Column::new("arch", Plain, |r| Cell::Text(&r.name)),
    Column::new("activity_timed", Plain, |r| Cell::Float(r.activity_timed)),
    Column::new("activity_zero_delay", Plain, |r| {
        Cell::Float(r.activity_zero_delay)
    }),
    Column::new("ptot_timed_uw", Plain, |r| Cell::Float(r.ptot_timed_uw)),
    Column::new("ptot_zero_delay_uw", Plain, |r| {
        Cell::Float(r.ptot_zero_delay_uw)
    }),
];

/// Ab-initio characterization rows (Table 1′ and the glitch sweep).
/// `glitch_factor` re-derives from the parsed activities.
pub(crate) const AB_INITIO: &[Column<AbInitioRow>] = &[
    Column::parsed(
        "arch",
        Plain,
        |r| Cell::Text(r.arch.paper_name()),
        |r| Slot::Arch(&mut r.arch),
    ),
    field!("width", Plain, Count, width),
    field!("cells", Plain, Count, cells),
    field!("area_um2", Exp, Float, area_um2),
    field!("activity_timed", Exp, Float, activity),
    field!("activity_zero_delay", Exp, Float, activity_zero_delay),
    Column::new("glitch_factor", Exp, |r| Cell::Float(r.glitch_factor())),
    field!("ld_eff", Exp, Float, ld_eff),
    field!("cap_per_cell_f", Exp, Float, cap_per_cell_f),
    field!("vdd_v", Exp, Float, vdd),
    field!("vth_v", Exp, Float, vth),
    field!("ptot_uw", Exp, Float, ptot_uw),
    // No closed form for a design: the NaN is an absent value.
    Column::parsed(
        "eq13_uw",
        Exp,
        |r| match r.eq13_uw {
            v if v.is_nan() => Cell::Null,
            v => Cell::Float(v),
        },
        |r| Slot::Float(&mut r.eq13_uw),
    ),
];

/// One activity measurement: the spec's coordinates and the report.
pub(crate) const ACTIVITY: &[Column<(ActivitySpec, ActivityReport)>] = &[
    Column::new("arch", Plain, |(s, _)| Cell::Text(&s.arch)),
    Column::new("width", Plain, |(s, _)| count(s.width)),
    Column::new("engine", Plain, |(s, _)| Cell::Text(engine_name(s.engine))),
    Column::new("items", CsvOnly, |(s, _)| Cell::Count(s.items)),
    Column::new("warmup", CsvOnly, |(s, _)| Cell::Count(s.warmup)),
    Column::new("seed", CsvOnly, |(s, _)| Cell::Count(s.seed)),
    Column::new("activity", Plain, |(_, r)| Cell::Float(r.activity)),
    Column::new("transitions", Plain, |(_, r)| Cell::Count(r.transitions)),
    Column::new("measured_items", Plain, |(_, r)| Cell::Count(r.items)),
    Column::new("cells", Plain, |(_, r)| count(r.cells)),
];

/// Figures 3/4 per-pipeline-style summaries.
pub(crate) const STAGE: &[Column<StageSummary>] = &[
    Column::new("style", Plain, |s| Cell::Text(s.style)),
    Column::new("stages", Plain, |s| Cell::Count(u64::from(s.stages))),
    Column::new("registers", Plain, |s| count(s.registers)),
    Column::new("logical_depth", Plain, |s| Cell::Float(s.logical_depth)),
    Column::new("path_spread", Plain, |s| Cell::Float(s.path_spread)),
    Column::new("mean_input_skew", Plain, |s| Cell::Float(s.mean_input_skew)),
    Column::new("activity_timed", Plain, |s| Cell::Float(s.activity_timed)),
    Column::new("activity_zero_delay", Plain, |s| {
        Cell::Float(s.activity_zero_delay)
    }),
    Column::new("glitch_factor", Plain, |s| Cell::Float(s.glitch_factor())),
];

/// Every design-space record.
pub(crate) const RECORD: &[Column<EvalRecord>] = &[
    Column::new("tech", Plain, |r| Cell::Text(r.tech)),
    Column::new("arch", Plain, |r| Cell::Text(&r.arch)),
    Column::new("frequency_hz", Plain, |r| Cell::Float(r.frequency.value())),
    Column::new("status", Plain, |r| Cell::Text(r.status())),
];

/// The optimum of a closed design-space record, after [`RECORD`].
pub(crate) const RECORD_OPTIMUM: &[Column<EvalRecord>] = &[
    Column::new("vdd_v", Plain, |r| Cell::Float(closed(r).vdd().value())),
    Column::new("vth_v", Plain, |r| Cell::Float(closed(r).vth().value())),
    Column::new("pdyn_w", Plain, |r| {
        Cell::Float(closed(r).breakdown().pdyn().value())
    }),
    Column::new("pstat_w", Plain, |r| {
        Cell::Float(closed(r).breakdown().pstat().value())
    }),
    Column::new("ptot_w", Plain, |r| Cell::Float(closed(r).ptot().value())),
    Column::new("energy_per_op_j", Plain, |r| {
        Cell::Float(closed(r).energy_per_item(r.frequency))
    }),
];

/// The Pareto front's points, by ascending frequency.
pub(crate) const PARETO_FRONT: &[Column<EvalRecord>] = &[
    Column::new("frequency_hz", Exp, |r| Cell::Float(r.frequency.value())),
    Column::new("tech", Plain, |r| Cell::Text(r.tech)),
    Column::new("arch", Plain, |r| Cell::Text(&r.arch)),
    Column::new("vdd_v", CsvOnlyExp, |r| {
        Cell::Float(closed(r).vdd().value())
    }),
    Column::new("vth_v", CsvOnlyExp, |r| {
        Cell::Float(closed(r).vth().value())
    }),
    Column::new("ptot_w", Exp, |r| Cell::Float(closed(r).ptot().value())),
    Column::new("energy_per_op_j", CsvOnlyExp, |r| {
        Cell::Float(closed(r).energy_per_item(r.frequency))
    }),
];

/// One file the export job wrote (the CSV; the JSON lists bare names).
pub(crate) const EXPORT_FILE: &[Column<String>] = &[Column::new("file", Plain, |f| Cell::Text(f))];

/// One linted netlist (its diagnostics nest below it).
pub(crate) const LINT_NETLIST: &[Column<LintSummary>] = &[
    Column::new("arch", Plain, |s| Cell::Text(&s.arch)),
    Column::new("width", Plain, |s| count(s.width)),
    Column::new("cells", Plain, |s| count(s.report.cell_count())),
    Column::new("nets", Plain, |s| count(s.report.net_count())),
    Column::new("errors", JsonOnly, |s| count(s.report.error_count())),
    Column::new("warnings", JsonOnly, |s| count(s.report.warning_count())),
];

/// One lint finding.
pub(crate) const DIAGNOSTIC: &[Column<Diagnostic>] = &[
    Column::new("id", Plain, |d| Cell::Text(d.rule.id())),
    Column::new("rule", Plain, |d| Cell::Text(d.rule.name())),
    Column::new("severity", Plain, |d| Cell::Text(d.rule.severity().label())),
    Column::new("cell", Plain, |d| {
        d.cell.map_or(Cell::Null, |c| count(c.index()))
    }),
    Column::new("net", Plain, |d| {
        d.net.map_or(Cell::Null, |n| count(n.index()))
    }),
    Column::new("message", Plain, |d| Cell::Text(&d.message)),
];

/// Static timing and glitch-bound rows.
pub(crate) const STA: &[Column<StaRow>] = &[
    Column::new("arch", Plain, |r| Cell::Text(&r.arch)),
    Column::new("width", Plain, |r| count(r.width)),
    Column::new("cells", Plain, |r| count(r.cells)),
    Column::new("stride_ticks", Plain, |r| Cell::Count(r.stride_ticks)),
    Column::new("logical_depth", Plain, |r| Cell::Float(r.logical_depth)),
    Column::new("shortest_path", Plain, |r| Cell::Float(r.shortest_path)),
    Column::new("path_spread", Plain, |r| Cell::Float(r.path_spread)),
    Column::new("mean_input_skew", Plain, |r| Cell::Float(r.mean_input_skew)),
    Column::new("critical_path_cells", Plain, |r| {
        count(r.critical_path_cells)
    }),
    Column::new("static_glitch_factor", Plain, |r| {
        Cell::Float(r.static_glitch_factor)
    }),
    Column::new("measured_glitch_factor", Plain, |r| {
        opt_float(r.measured_glitch_factor)
    }),
    Column::new("static_activity_bound", Plain, |r| {
        Cell::Float(r.static_activity_bound)
    }),
    Column::new("measured_activity", Plain, |r| {
        opt_float(r.measured_activity)
    }),
];

/// Raw-vs-pruned characterization rows.
pub(crate) const PRUNE_DELTA: &[Column<PruneDeltaRow>] = &[
    Column::new("arch", Plain, |r| Cell::Text(&r.arch)),
    Column::new("width", Plain, |r| count(r.width)),
    Column::new("cells_before", Plain, |r| count(r.cells_before)),
    Column::new("cells_after", Plain, |r| count(r.cells_after)),
    Column::new("cells_removed", Plain, |r| count(r.cells_removed())),
    Column::new("dffs_before", Plain, |r| count(r.dffs_before)),
    Column::new("dffs_after", Plain, |r| count(r.dffs_after)),
    Column::new("activity_before", Plain, |r| Cell::Float(r.activity_before)),
    Column::new("activity_after", Plain, |r| Cell::Float(r.activity_after)),
    Column::new("ptot_uw_before", Plain, |r| Cell::Float(r.ptot_uw_before)),
    Column::new("ptot_uw_after", Plain, |r| Cell::Float(r.ptot_uw_after)),
    Column::new("ptot_delta_pct", Plain, |r| Cell::Float(r.ptot_delta_pct())),
];
