//! Reassembling shard artifacts into the single-host envelope.
//!
//! The inverse of [`JobSpec::shard`]: given the artifacts the shard
//! specs produced — in *any* order — rebuild the artifact the
//! unsharded spec would have produced, bit for bit. Two properties
//! carry the whole module:
//!
//! * **typed reconstruction** — shard payloads are re-parsed into the
//!   real row types ([`AbInitioRow`], [`RowComparison`]), and because
//!   the JSON writer uses shortest-round-trip float formatting,
//!   `parse(write(x)) == x` exactly, so the merged rendering is
//!   byte-identical to the single-host one;
//! * **spec-derived order** — the merge orders rows by the original
//!   spec's resolution order (the same order [`JobSpec::shard`] cut
//!   along), never by shard arrival order, so a retried or reordered
//!   shard cannot change the output.
//!
//! The underlying combination rules are the worker-count-invariant
//! ones the rest of the workspace already exposes: row union for the
//! characterization grids and the Table 1 rows, and the frequency
//! sweep rebuilt from merged rows via [`glitch_sweep_from_rows`] (whose
//! [`optpower_explore::ResultSet`] grids are themselves concatenations
//! of contiguous slices — see `ResultSet::concat`). Batches and jobs
//! that do not shard never merge here: the coordinator recomposes them
//! from their rendered strings.

use std::collections::HashMap;

use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_report::{glitch_sweep_from_rows, AbInitioRow, RowComparison};

use crate::artifact::{Artifact, Payload, RunMeta, ARTIFACT_SCHEMA};
use crate::columns::{parse_row, Column, AB_INITIO, COMPARISON};
use crate::error::{SpecError, WorkloadError};
use crate::json::Json;
use crate::runtime::{job_cells, table1_rows, TABLE1_TITLE};
use crate::spec::JobSpec;

impl Artifact {
    /// Merges shard artifacts back into the artifact `spec` would have
    /// produced on one host, for the kinds that merge typed:
    /// `ab_initio`, `glitch_sweep` and `table1_sweep`. `shards` may
    /// arrive in any order and may contain duplicates (a raced retry);
    /// rows are keyed by their grid coordinates and emitted in the
    /// spec's own resolution order, so the merged
    /// [`Artifact::payload_json`] / [`Artifact::to_csv`] /
    /// [`Artifact::render_text`] are byte-identical to the single-host
    /// run.
    ///
    /// Meta is rebuilt from the spec ([`RunMeta::for_spec`]) with
    /// `wall_ms` zero and no cache/dist fields — the coordinator owns
    /// those.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] when the spec is of another kind, the
    /// shard set does not cover the spec's grid, covers cells the spec
    /// never asked for, or carries payloads of the wrong kind.
    pub fn merge_shards(
        spec: &JobSpec,
        shards: Vec<Artifact>,
        workers: Workers,
    ) -> Result<Artifact, WorkloadError> {
        let payload = match spec {
            JobSpec::AbInitio(_) => Payload::AbInitio(collect_rows(&job_cells(spec)?, shards)?),
            JobSpec::GlitchSweep(s) => {
                let rows = collect_rows(&job_cells(spec)?, shards)?;
                Payload::Glitch(glitch_sweep_from_rows(rows, s.freq_points, workers)?)
            }
            JobSpec::Table1Sweep { archs } => {
                let order = table1_rows(archs)?;
                let mut by_name: HashMap<String, RowComparison> = HashMap::new();
                for shard in shards {
                    let Payload::Rows { rows, .. } = shard.payload else {
                        return Err(SpecError::new(format!(
                            "shard artifact of kind {:?} does not belong to job {:?}",
                            shard.spec.kind(),
                            spec.kind()
                        ))
                        .into());
                    };
                    for row in rows {
                        by_name.entry(row.name.clone()).or_insert(row);
                    }
                }
                let rows = order
                    .iter()
                    .map(|name| {
                        by_name.remove(name).ok_or_else(|| {
                            SpecError::new(format!("shard results missing row {name:?}"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Payload::Rows {
                    title: TABLE1_TITLE.to_string(),
                    rows,
                }
            }
            other => {
                return Err(SpecError::new(format!(
                    "job kind {:?} has no typed shard merge",
                    other.kind()
                ))
                .into())
            }
        };
        Ok(Artifact {
            spec: spec.clone(),
            payload,
            meta: RunMeta::for_spec(spec, workers.count()),
        })
    }

    /// Re-parses an [`Artifact::payload_json`] document back into a
    /// typed artifact — the coordinator's inverse of the wire
    /// rendering, for the kinds whose shards it merges typed
    /// (`ab_initio` rows, which a glitch sweep shards into, and
    /// `table1_sweep` comparison rows). Numbers round-trip exactly
    /// (the writer uses shortest-round-trip formatting and `null`
    /// encodes NaN), so re-rendering the parsed artifact reproduces
    /// the input bytes. Meta is rebuilt from the spec
    /// ([`RunMeta::for_spec`], one worker): the payload document
    /// carries no run facts.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] on schema mismatch, a kind without a
    /// typed re-parser, or malformed rows.
    pub fn from_payload_json(text: &str) -> Result<Artifact, WorkloadError> {
        let doc = Json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != ARTIFACT_SCHEMA {
            return Err(SpecError::new(format!(
                "unsupported artifact schema {schema:?} (expected {ARTIFACT_SCHEMA:?})"
            ))
            .into());
        }
        let spec = JobSpec::from_json_value(
            doc.get("spec")
                .ok_or_else(|| SpecError::new("artifact document needs a \"spec\" object"))?,
        )?;
        let payload = doc
            .get("payload")
            .ok_or_else(|| SpecError::new("artifact document needs a \"payload\" field"))?;
        let typed = match &spec {
            JobSpec::AbInitio(_) => Payload::AbInitio(parse_rows(AB_INITIO, payload)?),
            JobSpec::Table1Sweep { .. } => Payload::Rows {
                title: payload
                    .get("title")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SpecError::new("rows payload needs a string \"title\""))?
                    .to_string(),
                rows: parse_rows(COMPARISON, payload)?,
            },
            other => {
                return Err(SpecError::new(format!(
                    "job kind {:?} has no typed shard re-parser",
                    other.kind()
                ))
                .into())
            }
        };
        Ok(Artifact {
            meta: RunMeta::for_spec(&spec, 1),
            spec,
            payload: typed,
        })
    }
}

/// Pools ab-initio rows from every shard and emits them in grid
/// order. Duplicate coverage (a raced retry) keeps the first copy —
/// all copies are bit-identical by determinism.
fn collect_rows(
    order: &[(usize, Architecture)],
    shards: Vec<Artifact>,
) -> Result<Vec<AbInitioRow>, WorkloadError> {
    let mut by_cell: HashMap<(usize, Architecture), AbInitioRow> = HashMap::new();
    for shard in shards {
        let Payload::AbInitio(rows) = shard.payload else {
            return Err(SpecError::new(format!(
                "shard for job {:?} returned a non-characterization payload",
                shard.spec.kind()
            ))
            .into());
        };
        for row in rows {
            by_cell.entry((row.width, row.arch)).or_insert(row);
        }
    }
    order
        .iter()
        .map(|&(width, arch)| {
            by_cell.remove(&(width, arch)).ok_or_else(|| {
                SpecError::new(format!(
                    "shard results missing {} at width {width}",
                    arch.paper_name()
                ))
                .into()
            })
        })
        .collect()
}

/// The payload's `rows` array, each row parsed through `columns`.
fn parse_rows<R: Default>(columns: &[Column<R>], payload: &Json) -> Result<Vec<R>, WorkloadError> {
    let rows = payload
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| SpecError::new("payload needs a \"rows\" array"))?;
    rows.iter().map(|row| parse_row(columns, row)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AbInitioSpec;

    /// A synthetic characterization row (no simulation needed: every
    /// field is public and the merge never recomputes).
    fn row(arch: Architecture, width: usize, salt: f64) -> AbInitioRow {
        AbInitioRow {
            arch,
            width,
            cells: 100 + width,
            area_um2: 1234.5 + salt,
            activity: 1.5 + salt,
            activity_zero_delay: 1.1 + salt,
            cap_per_cell_f: 1.9e-15,
            ld_eff: 12.0 + salt,
            vdd: 0.5,
            vth: 0.3,
            ptot_uw: 10.0 + salt,
            eq13_uw: if arch == Architecture::Sequential {
                f64::NAN
            } else {
                9.0 + salt
            },
        }
    }

    fn shard_artifact(spec: JobSpec, payload: Payload) -> Artifact {
        Artifact {
            meta: RunMeta::for_spec(&spec, 1),
            spec,
            payload,
        }
    }

    /// Shard order never matters: merging in any permutation (and with
    /// a duplicated shard, as after a raced retry) yields byte-equal
    /// renderings.
    #[test]
    fn ab_initio_merge_is_order_invariant() {
        let spec = JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec![
                "RCA".to_string(),
                "Wallace".to_string(),
                "Sequential".to_string(),
            ]),
            ..AbInitioSpec::default()
        });
        let shards = spec.shard(3).unwrap();
        let make = |i: usize| {
            let JobSpec::AbInitio(s) = &shards[i] else {
                panic!()
            };
            let names = s.archs.as_ref().unwrap();
            let rows = names
                .iter()
                .map(|n| row(Architecture::from_paper_name(n).unwrap(), s.width, i as f64))
                .collect();
            shard_artifact(shards[i].clone(), Payload::AbInitio(rows))
        };
        let forward =
            Artifact::merge_shards(&spec, vec![make(0), make(1), make(2)], Workers::Fixed(1))
                .unwrap();
        let shuffled = Artifact::merge_shards(
            &spec,
            vec![make(2), make(0), make(1), make(0)],
            Workers::Fixed(2),
        )
        .unwrap();
        assert_eq!(forward.payload_json(), shuffled.payload_json());
        assert_eq!(forward.to_csv(), shuffled.to_csv());
        assert_eq!(forward.render_text(), shuffled.render_text());
        // NaN eq13 survives the round trip through the payload parser.
        let reparsed = Artifact::from_payload_json(&forward.payload_json()).unwrap();
        assert_eq!(reparsed.payload_json(), forward.payload_json());
        // A missing architecture is a typed error, not a short table.
        let err = Artifact::merge_shards(&spec, vec![make(0)], Workers::Fixed(1)).unwrap_err();
        assert!(matches!(err, WorkloadError::Spec(_)), "{err:?}");
    }

    /// Table 1 shards reassemble in published-row order regardless of
    /// arrival order, under the full-table spec (`archs: None`).
    #[test]
    fn table1_merge_orders_rows_by_the_published_table() {
        let spec = JobSpec::Table1Sweep { archs: None };
        let shards = spec.shard(4).unwrap();
        let mut artifacts: Vec<Artifact> = shards
            .iter()
            .map(|shard| {
                let JobSpec::Table1Sweep { archs: Some(names) } = shard else {
                    panic!()
                };
                let rows = names
                    .iter()
                    .map(|n| RowComparison {
                        name: n.clone(),
                        paper_vdd: 1.0,
                        our_vdd: 1.0,
                        paper_vth: 0.3,
                        our_vth: 0.3,
                        paper_ptot_uw: 50.0,
                        our_ptot_uw: 51.0,
                        paper_eq13_uw: 49.0,
                        our_eq13_uw: 50.0,
                        paper_err_pct: 2.0,
                        our_err_pct: 2.0,
                    })
                    .collect();
                shard_artifact(
                    shard.clone(),
                    Payload::Rows {
                        title: "partial".to_string(),
                        rows,
                    },
                )
            })
            .collect();
        let forward = Artifact::merge_shards(&spec, artifacts.clone(), Workers::Fixed(1)).unwrap();
        artifacts.reverse();
        let backward = Artifact::merge_shards(&spec, artifacts, Workers::Fixed(1)).unwrap();
        assert_eq!(forward.payload_json(), backward.payload_json());
        assert_eq!(forward.to_csv(), backward.to_csv());
        let Payload::Rows { title, rows } = &forward.payload else {
            panic!()
        };
        assert_eq!(title, TABLE1_TITLE);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, optpower_report::table1_names());
    }

    /// Only the typed-merge kinds merge here; the coordinator merges
    /// batches and indivisible jobs from their rendered strings.
    #[test]
    fn other_kinds_have_no_typed_merge() {
        let spec = JobSpec::Table2;
        let shard = shard_artifact(spec.clone(), Payload::Flavors(Vec::new()));
        let err = Artifact::merge_shards(&spec, vec![shard], Workers::Fixed(1)).unwrap_err();
        assert!(matches!(err, WorkloadError::Spec(_)), "{err:?}");
    }
}
