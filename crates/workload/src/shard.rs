//! Splitting a grid-shaped [`JobSpec`] into shard specs.
//!
//! A shard is an ordinary `JobSpec` — it travels over the frozen
//! `optpower-job/v1` wire form, executes through the unchanged
//! [`crate::Runtime`], and is content-addressed by the same
//! [`JobSpec::canonical_key`] as any other job. Distribution therefore
//! adds no new execution semantics: a coordinator fans shard specs out
//! to workers and reassembles the single-host payload bit for bit
//! ([`crate::Artifact::merge_shards`] for the grid kinds).
//!
//! The split follows each job's *resolution order* (the exact order
//! the runtime would evaluate the grid in), cut into balanced
//! contiguous chunks — so concatenating shard results in shard-spec
//! order is the identity on the single-host row order, which is what
//! makes the merge a pure reordering and never a recomputation.

use crate::error::WorkloadError;
use crate::runtime::{job_cells, table1_rows};
use crate::spec::{AbInitioSpec, JobSpec};
use optpower_mult::Architecture;

impl JobSpec {
    /// Splits this job into at most `n`-ish independent shard specs
    /// along its natural grid axis, in resolution order:
    ///
    /// * `ab_initio` — the architecture axis, as smaller explicit
    ///   `archs` lists;
    /// * `glitch_sweep` — the (width × architecture) cell grid,
    ///   width-major, emitted as `ab_initio` sub-specs (one per
    ///   contiguous same-width run; the coordinator rebuilds the sweep
    ///   from the merged rows, so a shard never re-runs the frequency
    ///   sweep). Because chunks split at width boundaries this can
    ///   yield slightly more than `n` shards;
    /// * `table1_sweep` — the published row axis;
    /// * `batch` — one shard per *unique* member (deduplicated by
    ///   canonical key, first-occurrence order), so repeated members
    ///   execute once and the merge clones;
    /// * everything else — indivisible: one shard, the spec itself.
    ///
    /// `n <= 1` always returns the spec unsplit. The grid kinds cut
    /// the runtime's own cell list, so validation is the runtime's own
    /// (the same typed errors) and a spec that shards is a spec that
    /// would run.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] when the axis list is empty, names an
    /// unknown architecture/row, repeats an entry, or requests a width
    /// the runtime would refuse (an `ab_initio` architecture without
    /// it, or a `glitch_sweep` width with an explicit arch list).
    pub fn shard(&self, n: usize) -> Result<Vec<JobSpec>, WorkloadError> {
        if n <= 1 {
            return Ok(vec![self.clone()]);
        }
        Ok(match self {
            JobSpec::AbInitio(s) => cell_shards(job_cells(self)?, n, s),
            JobSpec::GlitchSweep(s) => cell_shards(
                job_cells(self)?,
                n,
                &AbInitioSpec {
                    lanes: s.lanes,
                    engine: s.engine,
                    plane: s.plane,
                    items: s.items,
                    seed: s.seed,
                    workers: s.workers,
                    ..AbInitioSpec::default()
                },
            ),
            JobSpec::Table1Sweep { archs } => chunks(&table1_rows(archs)?, n)
                .into_iter()
                .map(|chunk| JobSpec::Table1Sweep { archs: Some(chunk) })
                .collect(),
            JobSpec::Batch(jobs) if !jobs.is_empty() => {
                let mut seen = Vec::new();
                let mut shards = Vec::new();
                for job in jobs {
                    let key = job.canonical_key();
                    if !seen.contains(&key) {
                        seen.push(key);
                        shards.push(job.clone());
                    }
                }
                shards
            }
            _ => vec![self.clone()],
        })
    }
}

/// Cuts `items` into at most `n` balanced contiguous chunks (sizes
/// differ by at most one, larger chunks first), preserving order.
fn chunks<T: Clone>(items: &[T], n: usize) -> Vec<Vec<T>> {
    let n = n.clamp(1, items.len().max(1));
    let base = items.len() / n;
    let extra = items.len() % n;
    let mut out = Vec::with_capacity(n);
    let mut at = 0;
    for k in 0..n {
        let take = base + usize::from(k < extra);
        out.push(items[at..at + take].to_vec());
        at += take;
    }
    out
}

/// Cuts a job's cells into at most `n`-ish `ab_initio` shard specs:
/// balanced contiguous chunks, each regrouped into contiguous
/// same-width runs, and each run one single-width spec that takes its
/// measurement definition from `template`.
fn cell_shards(
    cells: Vec<(usize, Architecture)>,
    n: usize,
    template: &AbInitioSpec,
) -> Vec<JobSpec> {
    let mut shards = Vec::new();
    for chunk in chunks(&cells, n) {
        let mut runs: Vec<(usize, Vec<String>)> = Vec::new();
        for (width, arch) in chunk {
            let name = arch.paper_name().to_string();
            match runs.last_mut() {
                Some((w, names)) if *w == width => names.push(name),
                _ => runs.push((width, vec![name])),
            }
        }
        shards.extend(runs.into_iter().map(|(width, names)| {
            JobSpec::AbInitio(AbInitioSpec {
                archs: Some(names),
                width,
                ..template.clone()
            })
        }));
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GlitchSweepSpec;

    /// Every shard count partitions the arch axis contiguously: the
    /// concatenation of shard arch lists is the full resolution order.
    #[test]
    fn ab_initio_shards_partition_the_arch_axis() {
        let spec = JobSpec::AbInitio(AbInitioSpec::default());
        let full: Vec<String> = Architecture::ALL
            .iter()
            .map(|a| a.paper_name().to_string())
            .collect();
        for n in [1, 2, 4, 8, 13, 50] {
            let shards = spec.shard(n).unwrap();
            assert!(shards.len() <= n.max(1));
            let mut joined = Vec::new();
            for shard in &shards {
                match shard {
                    JobSpec::AbInitio(s) if n > 1 => {
                        joined.extend(s.archs.clone().expect("shards pin archs"));
                        assert_eq!(s.width, 16);
                        assert_eq!(s.seed, 42);
                    }
                    JobSpec::AbInitio(_) => joined = full.clone(),
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(joined, full, "n={n}");
        }
    }

    /// Glitch-sweep shards are single-width ab-initio specs whose
    /// (width, arch) cells concatenate to the runtime's width-major
    /// evaluation grid.
    #[test]
    fn glitch_sweep_shards_cover_the_width_major_grid() {
        let spec_inner = GlitchSweepSpec {
            widths: vec![4, 8],
            items: 20,
            freq_points: 3,
            ..GlitchSweepSpec::default()
        };
        let spec = JobSpec::GlitchSweep(spec_inner);
        let grid: Vec<(usize, String)> = job_cells(&spec)
            .unwrap()
            .into_iter()
            .map(|(width, a)| (width, a.paper_name().to_string()))
            .collect();
        for n in [2, 3, 8] {
            let mut joined = Vec::new();
            for shard in spec.shard(n).unwrap() {
                match shard {
                    JobSpec::AbInitio(s) => {
                        for name in s.archs.expect("shards pin archs") {
                            joined.push((s.width, name));
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(joined, grid, "n={n}");
        }
    }

    /// Batch sharding deduplicates repeated members by canonical key,
    /// keeping first-occurrence order.
    #[test]
    fn batch_shards_are_unique_members() {
        let member = JobSpec::Figure2 { samples: 8 };
        let spec = JobSpec::Batch(vec![member.clone(), JobSpec::Table2, member.clone()]);
        let shards = spec.shard(4).unwrap();
        assert_eq!(shards, vec![member, JobSpec::Table2]);
        // An empty batch (and any indivisible job) passes through.
        assert_eq!(
            JobSpec::Batch(Vec::new()).shard(4).unwrap(),
            vec![JobSpec::Batch(Vec::new())]
        );
        assert_eq!(JobSpec::Table2.shard(4).unwrap(), vec![JobSpec::Table2]);
    }

    /// Axis validation matches the runtime's typed errors.
    #[test]
    fn invalid_axes_fail_to_shard() {
        let empty = JobSpec::Table1Sweep {
            archs: Some(Vec::new()),
        };
        assert!(empty.shard(2).is_err());
        let unknown = JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec!["Warp".to_string()]),
            ..AbInitioSpec::default()
        });
        assert!(unknown.shard(2).is_err());
        let dup_width = JobSpec::GlitchSweep(GlitchSweepSpec {
            widths: vec![8, 8],
            ..GlitchSweepSpec::default()
        });
        assert!(dup_width.shard(2).is_err());
        // A width some architecture cannot run fails to shard, before
        // any shard runs: for an explicit list and the default alike.
        let rca_seq_24 =
            JobSpec::from_json(r#"{"job":"ab_initio","archs":["RCA","Sequential"],"width":24}"#)
                .unwrap();
        let all_24 = JobSpec::from_json(r#"{"job":"ab_initio","width":24}"#).unwrap();
        for spec in [rca_seq_24, all_24] {
            let err = spec.shard(2).unwrap_err();
            assert!(
                err.to_string()
                    .contains("Sequential does not support operand width 24"),
                "{err}"
            );
        }
    }
}
