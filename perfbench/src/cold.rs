//! `cold_suite`: one client in a closed loop runs `Runtime::run` with
//! no cache over a rotation of characterization, sweep, STA and lint
//! jobs, each characterizing job with a stimulus seed of its own. The
//! simulator does nearly all the work; the cache, HTTP and wire layers
//! do none.
//!
//! Output check: every job's `payload_json` digest must equal the
//! committed reference for its spec (`references/cold_suite.txt`,
//! regenerated with `--write-references`).
//!
//! Traced run: every `ab_initio` job is also decomposed by the shadow
//! pipeline, whose rows must be bit-identical to the job's. Glitch sweeps time
//! `glitch_sweep_from_rows` on the job's own rows, and every job times
//! the spec parse, key and the three renderings.

use std::collections::HashMap;
use std::time::Instant;

use optpower_explore::Workers;
use optpower_report::glitch_sweep_from_rows;
use optpower_workload::{Artifact, JobSpec, Payload, Runtime};

use crate::report::{EndToEnd, Layers, Outcome, Samples};
use crate::shadow::{self, MEASURE_LAYERS, STATIC_LAYERS};
use crate::stats::{cpu_seconds, median, ms, payload_digest, peak_rss_mib, Rng};
use crate::trace::Tracer;
use crate::{timed_setup, Args, CHECK_WORKERS, RUNTIME_WORKERS};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    AbInitio,
    Sta,
    Glitch,
    Lint,
}

use Kind::{AbInitio, Glitch, Lint, Sta};

impl Kind {
    const ALL: [Kind; 4] = [AbInitio, Sta, Glitch, Lint];

    fn name(self) -> &'static str {
        match self {
            AbInitio => "ab_initio",
            Sta => "sta",
            Glitch => "glitch_sweep",
            Lint => "lint",
        }
    }
}

/// One rotation of the loop. On one worker the kinds sort by cost as
/// sta (~0.12 s) < ab_initio (~0.2 s) < lint (~0.4 s) < glitch_sweep
/// (~0.75 s). With 4 : 4 : 1 : 3 the median falls in the middle of the
/// ab_initio jobs and every tail quantile from 0.8 to 0.9 among the
/// glitch sweeps, so no reported quantile sits on the boundary between
/// two kinds; every ab_initio job follows an sta job. The loop only
/// runs whole rotations, which keeps the mix exact.
const ROTATION: [Kind; 12] = [
    Sta, AbInitio, Glitch, Sta, AbInitio, Lint, Sta, AbInitio, Glitch, Sta, AbInitio, Glitch,
];

/// Stimulus seeds per seeded kind in the reference table.
pub const POOL: u64 = 64;

/// The spec of pool entry `k` of a kind (lint has no seed: one entry).
fn spec_json(kind: Kind, k: u64) -> String {
    let seed = 1000 + k;
    match kind {
        AbInitio => format!(r#"{{"job":"ab_initio","items":100,"seed":{seed}}}"#),
        Sta => format!(r#"{{"job":"sta","items":40,"seed":{seed}}}"#),
        Glitch => {
            format!(r#"{{"job":"glitch_sweep","widths":[8,16,24,32],"items":40,"seed":{seed}}}"#)
        }
        Lint => r#"{"job":"lint"}"#.to_string(),
    }
}

fn pool_size(kind: Kind) -> u64 {
    if kind == Lint {
        1
    } else {
        POOL
    }
}

/// Reference digests keyed by `(kind, pool index)`.
fn references() -> Result<HashMap<(&'static str, u64), u64>, String> {
    include_str!("../references/cold_suite.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let kind = Kind::ALL
                .into_iter()
                .find(|k| f.first() == Some(&k.name()))
                .ok_or_else(|| format!("bad reference line {line:?}"))?;
            let k = f.get(1).and_then(|v| v.parse().ok());
            let d = f.get(2).and_then(|v| u64::from_str_radix(v, 16).ok());
            match (k, d) {
                (Some(k), Some(d)) => Ok(((kind.name(), k), d)),
                _ => Err(format!("bad reference line {line:?}")),
            }
        })
        .collect()
}

/// Regenerates the reference table from the program at hand.
pub fn write_references(path: &str) -> Result<(), String> {
    let rt = Runtime::new(Workers::Fixed(CHECK_WORKERS));
    let mut out = String::from(
        "# cold_suite reference digests: <kind> <pool index> <FNV-1a of payload_json>\n",
    );
    for kind in Kind::ALL {
        for k in 0..pool_size(kind) {
            let spec = JobSpec::from_json(&spec_json(kind, k)).map_err(|e| e.to_string())?;
            let art = rt.run(&spec).map_err(|e| e.to_string())?;
            let d = crate::stats::digest(&[art.payload_json().as_bytes()]);
            out.push_str(&format!("{} {k} {d:016x}\n", kind.name()));
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Which pool entry the n-th job of each kind uses: a seeded offset
/// and an odd stride, so every seed walks the pool in its own order.
struct Plan {
    offset: [u64; 4],
    stride: [u64; 4],
    seen: [u64; 4],
}

impl Plan {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut plan = Plan {
            offset: [0; 4],
            stride: [1; 4],
            seen: [0; 4],
        };
        for i in 0..4 {
            plan.offset[i] = rng.below(POOL);
            plan.stride[i] = 2 * rng.below(POOL / 2) + 1;
        }
        plan
    }

    fn next(&mut self, kind: Kind) -> u64 {
        let i = kind as usize;
        let k = (self.offset[i] + self.seen[i] * self.stride[i]) % pool_size(kind);
        self.seen[i] += 1;
        k
    }
}

/// What a traced run collects besides its spans.
struct Traced {
    samples: Samples,
    /// Wall time of each ab_initio shadow and the latency of its job.
    shadow_wall: Vec<f64>,
    job_wall: Vec<f64>,
    /// Whether every shadow's rows matched its job's bit for bit.
    identical: bool,
}

pub fn run(args: &Args, trace_path: &std::path::Path) -> Result<Outcome, String> {
    let refs = references()?;
    let warm = JobSpec::from_json(r#"{"job":"ab_initio","archs":["RCA","Wallace"],"items":20}"#)
        .map_err(|e| e.to_string())?;
    let (rt, setup_s) = timed_setup(
        || {
            let rt = Runtime::new(Workers::Fixed(RUNTIME_WORKERS));
            let art = rt.run(&warm).map_err(|e| e.to_string())?;
            std::hint::black_box(art.to_json());
            Ok(rt)
        },
        drop,
    )?;

    let mut plan = Plan::new(args.seed);
    let mut tracer = Tracer::new();
    let mut traced = Traced {
        samples: Samples::default(),
        shadow_wall: Vec::new(),
        job_wall: Vec::new(),
        identical: true,
    };
    let mut latencies = Vec::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    let cpu0 = cpu_seconds();
    let window = Instant::now();
    while window.elapsed() < args.seconds {
        for kind in ROTATION {
            let k = plan.next(kind);
            let json = spec_json(kind, k);
            let started = Instant::now();
            let result = JobSpec::from_json(&json)
                .and_then(|spec| rt.run(&spec))
                .map(|art| (art.to_json(), art));
            let latency_ms = ms(started.elapsed());
            latencies.push(latency_ms);
            let Ok((bytes, art)) = result else {
                failed += 1;
                continue;
            };
            if payload_digest(&bytes) != refs.get(&(kind.name(), k)).copied() {
                eprintln!(
                    "cold_suite: {} #{k} payload differs from reference",
                    kind.name()
                );
                failed += 1;
                continue;
            }
            ok += 1;
            if args.trace {
                trace_job(&mut tracer, &mut traced, (&json, &art, latency_ms))?;
            }
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let rss_mib = peak_rss_mib();
    let attempted = latencies.len() as u64;

    let metrics = if args.trace {
        tracer
            .write(trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        layer_metrics(&traced, failed as f64 / attempted as f64).metrics()
    } else {
        EndToEnd {
            setup_s,
            latencies_ms: latencies,
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
        correct: failed == 0 && traced.identical,
        metrics,
    })
}

/// The traced extras of one job; none of this is in its latency. The
/// shadow of an ab_initio job runs on one thread like the job itself,
/// so its wall time against the job's latency is the tracing overhead.
fn trace_job(
    tr: &mut Tracer,
    traced: &mut Traced,
    (json, art, latency_ms): (&str, &Artifact, f64),
) -> Result<(), String> {
    let samples = &mut traced.samples;
    shadow::io(tr, json, art, samples);
    match (&art.spec, &art.payload) {
        (JobSpec::AbInitio(spec), Payload::AbInitio(rows)) => {
            let (job, sh) = shadow::ab_initio(tr, spec)?;
            traced.identical &= shadow::rows_identical(&sh.rows, rows);
            let layers: Vec<_> = STATIC_LAYERS.into_iter().chain(MEASURE_LAYERS).collect();
            let b = shadow::sample(tr, (job, &sh), &layers, samples);
            let wall = b["wall"];
            samples.push(
                "workload.preflight_share",
                tr.inclusive(job, "workload.preflight") / wall,
            );
            samples.push(
                "trace.sim_share",
                (b["explore.timed"] + b["sim.baseline"]) / wall,
            );
            traced.shadow_wall.push(wall);
            traced.job_wall.push(latency_ms);
        }
        (JobSpec::GlitchSweep(spec), Payload::Glitch(sweep)) => {
            let (job, rebuilt) = tr.job("sweep", |tr| {
                tr.span("report.sweep", |_| {
                    glitch_sweep_from_rows(
                        sweep.rows.clone(),
                        spec.freq_points,
                        Workers::Fixed(RUNTIME_WORKERS),
                    )
                })
            });
            rebuilt.map_err(|e| e.to_string())?;
            samples.push("report.sweep_ms", tr.breakdown(job)["report.sweep"]);
        }
        _ => {}
    }
    Ok(())
}

fn layer_metrics(traced: &Traced, failed_frac: f64) -> Layers {
    let mut layers = traced.samples.layers();
    let job = median(&traced.job_wall);
    if job > 0.0 {
        layers.set(
            "trace.overhead_frac",
            (median(&traced.shadow_wall) - job) / job,
        );
    }
    layers.set("failed_frac", failed_frac);
    layers
}
