//! `cluster_sweep`: one client in a closed loop runs
//! `optpower_dist::Cluster::run` over two in-process loopback workers
//! (`optpower_dist::spawn`, one pool worker each). It alternates two
//! jobs: a glitch sweep over four widths, split into one shard per
//! (width, architecture) cell whose compute dominates, and
//! `table1_sweep`, split into thirteen row
//! shards of microsecond compute, where framing, re-parse and merge
//! dominate. The only workload that exercises `dist`.
//!
//! Output check: every merged payload must equal the single-host
//! payload of the same spec (`Runtime::run`, after the window).
//!
//! Traced run: odd rotations are traced. After each of their jobs the
//! same shard specs run locally on as many threads as the cluster has
//! workers (`dist.overhead_ms` is the cluster's time minus that),
//! `Artifact::merge_shards` is timed on the local shard artifacts, and
//! glitch sweeps time `glitch_sweep_from_rows` on the merged rows.
//! Untraced rotations give the baseline of `trace.overhead_frac`.

use std::time::Instant;

use optpower_dist::{spawn, Cluster, WorkerHandle};
use optpower_explore::{par_map, Workers};
use optpower_report::glitch_sweep_from_rows;
use optpower_workload::{Artifact, JobSpec, Payload, Runtime};

use crate::report::{EndToEnd, Outcome, Samples};
use crate::shadow;
use crate::stats::{cpu_seconds, digest, median, ms, peak_rss_mib, Rng};
use crate::trace::Tracer;
use crate::{timed_setup, Args, CHECK_WORKERS, CLUSTER_HOSTS, CLUSTER_HOST_WORKERS};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Table1,
    Glitch,
}

/// Two glitch sweeps per table job: both reported quantiles fall among
/// the sweeps (the median a quarter of the way into them). The table
/// jobs' own latency swung up to 1.8x between otherwise equal runs on a
/// shared two-core host, too unsteady to carry a bounded quantile; the
/// wire, re-parse and merge they stress are also on every sweep's path
/// (one frame pair and one re-parse per cell), and their per-layer
/// split is `dist.overhead_ms`.
const ROTATION: [Kind; 3] = [Kind::Table1, Kind::Glitch, Kind::Glitch];
const GLITCH_ITEMS: u64 = 120;
/// Shard targets: one shard per (width, architecture) cell of the
/// sweep, so rendezvous placement spreads the costly 32-bit cells over
/// both hosts, and one shard per table row.
const GLITCH_SHARDS: usize = 64;
const ROW_SHARDS: usize = 13;

struct System {
    _workers: Vec<WorkerHandle>,
    rows: Cluster,
    sweeps: Cluster,
}

impl System {
    fn build() -> Result<Self, String> {
        let workers = (0..CLUSTER_HOSTS)
            .map(|_| {
                spawn(
                    "127.0.0.1:0",
                    Runtime::new(Workers::Fixed(CLUSTER_HOST_WORKERS)),
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("worker spawn: {e}"))?;
        let hosts: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let cluster = |shards| {
            Cluster::new(hosts.clone())
                .with_workers(Workers::Fixed(CLUSTER_HOST_WORKERS))
                .with_shards(shards)
        };
        Ok(Self {
            rows: cluster(ROW_SHARDS),
            sweeps: cluster(GLITCH_SHARDS),
            _workers: workers,
        })
    }

    fn cluster(&self, kind: Kind) -> (&Cluster, usize) {
        match kind {
            Kind::Table1 => (&self.rows, ROW_SHARDS),
            Kind::Glitch => (&self.sweeps, GLITCH_SHARDS),
        }
    }
}

/// The next spec of a kind: a seeded row order for the table, a seeded
/// stimulus seed for the sweep.
fn spec_json(rng: &mut Rng, kind: Kind) -> String {
    match kind {
        Kind::Table1 => {
            let mut rows = optpower_report::table1_names();
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let rows: Vec<String> = rows.iter().map(|r| format!("\"{r}\"")).collect();
            format!(r#"{{"job":"table1_sweep","archs":[{}]}}"#, rows.join(","))
        }
        Kind::Glitch => format!(
            r#"{{"job":"glitch_sweep","widths":[8,16,24,32],"items":{GLITCH_ITEMS},"seed":{}}}"#,
            1 + rng.below(1 << 30)
        ),
    }
}

/// One completed cluster job.
struct Job {
    json: String,
    latency_ms: f64,
    traced: bool,
    payload: Option<u64>,
}

pub fn run(args: &Args, trace_path: &std::path::Path) -> Result<Outcome, String> {
    let warm = JobSpec::from_json(r#"{"job":"table1_sweep"}"#).map_err(|e| e.to_string())?;
    let (system, setup_s) = timed_setup(
        || {
            let system = System::build()?;
            system
                .rows
                .run(&warm)
                .map_err(|e| format!("first job: {e}"))?;
            Ok(system)
        },
        drop,
    )?;

    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new();
    let mut samples = Samples::default();
    let mut jobs: Vec<Job> = Vec::new();
    let (mut retries, mut local_identical) = (0u64, true);
    let cpu0 = cpu_seconds();
    let window = Instant::now();
    let mut rotation = 0u64;
    while window.elapsed() < args.seconds {
        rotation += 1;
        let traced = args.trace && rotation % 2 == 1;
        for kind in ROTATION {
            let json = spec_json(&mut rng, kind);
            let (cluster, shards) = system.cluster(kind);
            let started = Instant::now();
            let result = JobSpec::from_json(&json)
                .map_err(|e| e.to_string())
                .and_then(|spec| cluster.run(&spec).map_err(|e| e.to_string()));
            let latency_ms = ms(started.elapsed());
            let payload = result
                .as_ref()
                .ok()
                .map(|run| digest(&[run.payload_json.as_bytes()]));
            if let Ok(run) = &result {
                retries += run.stats.retries;
                if traced {
                    let merged = run.artifact.as_ref().ok_or("typed merge expected")?;
                    local_identical &= trace_job(
                        &mut tracer,
                        &mut samples,
                        (&json, merged),
                        shards,
                        latency_ms,
                    )?;
                }
            }
            jobs.push(Job {
                json,
                latency_ms,
                traced,
                payload,
            });
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let rss_mib = peak_rss_mib();
    drop(system);

    // Output check: the single-host payload of every spec.
    let reference = Runtime::new(Workers::Fixed(CHECK_WORKERS));
    let (mut ok, mut failed) = (0u64, 0u64);
    for job in &jobs {
        let spec = JobSpec::from_json(&job.json).map_err(|e| e.to_string())?;
        let single = reference.run(&spec).map_err(|e| e.to_string())?;
        if job.payload == Some(digest(&[single.payload_json().as_bytes()])) {
            ok += 1;
        } else {
            eprintln!("cluster_sweep: merged payload of {} differs", job.json);
            failed += 1;
        }
    }
    let attempted = jobs.len() as u64;

    let metrics = if args.trace {
        tracer
            .write(trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let mut layers = samples.layers();
        layers.set("dist.retries", retries as f64);
        layers.set("failed_frac", failed as f64 / attempted as f64);
        let p50 = |traced: bool| {
            median(
                &jobs
                    .iter()
                    .filter(|j| j.traced == traced)
                    .map(|j| j.latency_ms)
                    .collect::<Vec<_>>(),
            )
        };
        let untraced = p50(false);
        if untraced > 0.0 {
            layers.set("trace.overhead_frac", (p50(true) - untraced) / untraced);
        }
        layers.metrics()
    } else {
        EndToEnd {
            setup_s,
            latencies_ms: jobs.iter().map(|j| j.latency_ms).collect(),
            goodput_per_s: ok as f64 / elapsed,
            cpu_ms_per_job: cpu_s * 1e3 / attempted as f64,
            ok_frac: ok as f64 / attempted as f64,
            peak_rss_mib: rss_mib,
        }
        .metrics()
    };
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && local_identical,
        metrics,
    })
}

/// The traced extras of one cluster job: the local run of the same
/// shard specs, their merge, the sweep rebuild and the byte layers.
/// Returns whether the local merge reproduced the cluster's payload.
fn trace_job(
    tr: &mut Tracer,
    samples: &mut Samples,
    (json, merged): (&str, &Artifact),
    shards: usize,
    cluster_ms: f64,
) -> Result<bool, String> {
    let spec = &merged.spec;
    let shard_specs = spec.shard(shards).map_err(|e| e.to_string())?;
    let (job, local) = tr.job("local", |tr| {
        let parts = tr.span("dist.local_shards", |_| {
            par_map(&shard_specs, CLUSTER_HOSTS, |s| {
                Runtime::new(Workers::Fixed(CLUSTER_HOST_WORKERS)).run(s)
            })
        });
        let parts = parts.into_iter().collect::<Result<Vec<_>, _>>()?;
        tr.span("dist.merge", |_| {
            Artifact::merge_shards(spec, parts, Workers::Fixed(CLUSTER_HOST_WORKERS))
        })
    });
    let local = local.map_err(|e| e.to_string())?;
    let b = tr.breakdown(job);
    if let Payload::Glitch(sweep) = &merged.payload {
        let (job, rebuilt) = tr.job("sweep", |tr| {
            tr.span("report.sweep", |_| {
                glitch_sweep_from_rows(
                    sweep.rows.clone(),
                    sweep.frequencies.len(),
                    Workers::Fixed(1),
                )
            })
        });
        rebuilt.map_err(|e| e.to_string())?;
        samples.push("report.sweep_ms", tr.breakdown(job)["report.sweep"]);
    } else {
        let overhead = cluster_ms - b["dist.local_shards"];
        samples.push("dist.overhead_ms", overhead);
        samples.push("dist.overhead_share", overhead / cluster_ms);
        samples.push("dist.merge_ms", b["dist.merge"]);
    }
    shadow::io(tr, json, merged, samples);
    Ok(local.payload_json() == merged.payload_json())
}
