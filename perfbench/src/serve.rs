//! `serve_mixed`: an open loop at a fixed arrival rate against an
//! in-process `optpower_serve::start` with the cache on. Latency is
//! timed from each request's due time, so a stall also delays every
//! request due behind it. The mix has four parts:
//!
//! - repeated specs, which are artifact-cache hits (until a fill evicts
//!   them: the cache is small, so hits run beside fills and evictions);
//! - new specs overlapping the warm-up characterizations (architecture
//!   subsets, or `sta` of the same shape), which are row-cache hits;
//! - cheap analytic jobs (`table1_sweep` subsets, `pareto`, `figure2`,
//!   `sensitivity`);
//! - a few cold single-architecture characterizations.
//!
//! `Accept` rotates over JSON, CSV and text. Output check: every served
//! body must equal the direct `Runtime` rendering of its spec in its
//! format (for JSON, the payload document in front of `meta`).
//!
//! Traced run: the same traffic, plus `/metrics` polled for the queue
//! depth while a generator thread is idle; after the window, row-hit
//! requests are replayed on a private warmed runtime beside a shadow of
//! their preflight, and cold requests through the shadow pipeline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_serve::{request, start, Config, ServerHandle};
use optpower_workload::{Artifact, JobSpec, Json, Payload, Runtime, WireFormat};

use crate::report::{EndToEnd, Layers, Outcome, Samples};
use crate::shadow::{self, MEASURE_LAYERS, STATIC_LAYERS};
use crate::stats::{
    cpu_seconds, digest, median, ms, payload_digest, peak_rss_mib, percentile, sorted, Rng,
};
use crate::trace::Tracer;
use crate::{timed_setup, Args, CHECK_WORKERS, SERVE_EXECUTORS, SERVE_JOB_WORKERS};

/// Arrivals per second, evenly spaced.
const RATE_PER_S: f64 = 50.0;
/// Completions later than this after their due time miss the limit
/// and do not count toward goodput.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// A run whose generator sent its 90th-percentile request later than
/// this after its due time fell behind: it is invalid, not slow.
const LATE_LIMIT_MS: f64 = 5.0;
/// Artifacts the service caches (rows: thirteen per artifact).
const CACHE_CAPACITY: usize = 64;
/// Stimulus items of every characterization in the mix.
const ITEMS: u64 = 60;
/// Row-hit and cold requests replayed per traced run.
const REPLAYS: usize = 24;
const FORMATS: [WireFormat; 3] = [WireFormat::Json, WireFormat::Csv, WireFormat::Text];
const TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Repeat,
    RowHit,
    Analytic,
    Cold,
}

struct Planned {
    class: Class,
    spec: usize,
    format: WireFormat,
}

/// The seeded traffic: distinct spec texts, the warm-up list and the
/// request sequence (indices into `specs`).
struct Plan {
    specs: Vec<String>,
    warm: Vec<usize>,
    requests: Vec<Planned>,
}

impl Plan {
    fn intern(&mut self, text: String, index: &mut HashMap<String, usize>) -> usize {
        *index.entry(text.clone()).or_insert_with(|| {
            self.specs.push(text);
            self.specs.len() - 1
        })
    }

    fn new(seed: u64, n: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut plan = Plan {
            specs: Vec::new(),
            warm: Vec::new(),
            requests: Vec::with_capacity(n),
        };
        let mut index = HashMap::new();
        let names: Vec<&str> = Architecture::ALL.iter().map(|a| a.paper_name()).collect();
        let rows = optpower_report::table1_names();
        let quoted = |list: &[&str]| {
            list.iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let subset = |rng: &mut Rng, from: &[&'static str]| -> String {
            let mut pick: Vec<&str> = from.iter().copied().filter(|_| rng.below(2) == 0).collect();
            if pick.is_empty() {
                pick.push(from[rng.below(from.len() as u64) as usize]);
            }
            quoted(&pick)
        };
        // The two characterizations the row-hit traffic overlaps.
        let bases = [
            (16usize, 1 + rng.below(1 << 30)),
            (8, 1 + rng.below(1 << 30)),
        ];
        let (w0, s0) = bases[0];
        let hot: Vec<String> = bases
            .iter()
            .map(|(w, s)| format!(r#"{{"job":"ab_initio","width":{w},"items":{ITEMS},"seed":{s}}}"#))
            .chain([
                format!(
                    r#"{{"job":"ab_initio","archs":["RCA","Wallace"],"width":{w0},"items":{ITEMS},"seed":{s0}}}"#
                ),
                r#"{"job":"table1_sweep"}"#.to_string(),
                r#"{"job":"table2"}"#.to_string(),
                r#"{"job":"sensitivity"}"#.to_string(),
                r#"{"job":"pareto","freq_points":9}"#.to_string(),
                r#"{"job":"figure2","samples":601}"#.to_string(),
                r#"{"job":"sta","items":0}"#.to_string(),
            ])
            .collect();
        for text in hot {
            let ix = plan.intern(text, &mut index);
            plan.warm.push(ix);
        }
        for i in 0..n {
            let u = rng.unit();
            let (class, text) = if u < 0.50 {
                let ix = plan.warm[rng.below(plan.warm.len() as u64) as usize];
                (Class::Repeat, plan.specs[ix].clone())
            } else if u < 0.75 {
                let (w, s) = bases[rng.below(2) as usize];
                let archs = subset(&mut rng, &names);
                let kind = if rng.below(5) < 3 { "ab_initio" } else { "sta" };
                (
                    Class::RowHit,
                    format!(
                        r#"{{"job":"{kind}","archs":[{archs}],"width":{w},"items":{ITEMS},"seed":{s}}}"#
                    ),
                )
            } else if u < 0.93 {
                let text = match rng.below(4) {
                    0 => format!(
                        r#"{{"job":"table1_sweep","archs":[{}]}}"#,
                        subset(&mut rng, &rows)
                    ),
                    1 => format!(r#"{{"job":"pareto","freq_points":{}}}"#, 4 + rng.below(13)),
                    2 => format!(r#"{{"job":"figure2","samples":{}}}"#, 101 + rng.below(901)),
                    _ => r#"{"job":"sensitivity"}"#.to_string(),
                };
                (Class::Analytic, text)
            } else {
                let arch = names[rng.below(names.len() as u64) as usize];
                let seed = (seed << 20).wrapping_add(i as u64);
                (
                    Class::Cold,
                    format!(
                        r#"{{"job":"ab_initio","archs":["{arch}"],"width":16,"items":{ITEMS},"seed":{seed}}}"#
                    ),
                )
            };
            let spec = plan.intern(text, &mut index);
            plan.requests.push(Planned {
                class,
                spec,
                format: FORMATS[i % FORMATS.len()],
            });
        }
        plan
    }
}

/// One request as the client saw it.
struct Record {
    late_ms: f64,
    /// From the due time to the last byte of the reply.
    latency_ms: f64,
    /// From the send to the last byte of the reply.
    round_trip_ms: f64,
    status: u16,
    hit: bool,
    digest: Option<u64>,
    /// `meta.wall_ms` and `meta.row_cache` (JSON replies only).
    wall_ms: Option<f64>,
    rows: Option<(u64, u64)>,
}

fn post(addr: &str, spec: &str, format: WireFormat) -> std::io::Result<optpower_serve::HttpReply> {
    request(
        addr,
        "POST",
        "/v1/jobs",
        &[("Accept", format.content_type())],
        spec.as_bytes(),
        TIMEOUT,
    )
}

fn config() -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        executors: SERVE_EXECUTORS,
        workers: Workers::Fixed(SERVE_JOB_WORKERS),
        cache_capacity: CACHE_CAPACITY,
        request_timeout_ms: TIMEOUT.as_millis() as u64,
        ..Config::default()
    }
}

fn shut_down(server: ServerHandle) {
    server.drain();
    server.join();
}

/// Reads the fields the checks need out of one reply.
fn read_reply(
    reply: &optpower_serve::HttpReply,
    format: WireFormat,
) -> (Option<u64>, Option<f64>, Option<(u64, u64)>) {
    let body = reply.body_text();
    if format != WireFormat::Json {
        return (Some(digest(&[body.as_bytes()])), None, None);
    }
    let meta = body
        .rfind(",\"meta\":")
        .and_then(|cut| Json::parse(&format!("{{{}", &body[cut + 1..])).ok());
    let meta = meta.as_ref().and_then(|m| m.get("meta"));
    let wall_ms = meta.and_then(|m| m.get("wall_ms")).and_then(Json::as_f64);
    let rows = meta
        .and_then(|m| m.get("row_cache"))
        .and_then(|rc| Some((rc.get("hits")?.as_u64()?, rc.get("misses")?.as_u64()?)));
    (payload_digest(&body), wall_ms, rows)
}

pub fn run(args: &Args, trace_path: &std::path::Path) -> Result<Outcome, String> {
    let n = (args.seconds.as_secs_f64() * RATE_PER_S) as usize;
    let plan = Plan::new(args.seed, n);
    // Set-up runs up to the first measured request: bind, spawn, and
    // fill the caches with the warm-up specs, one request at a time.
    let (server, setup_s) = timed_setup(
        || {
            let server = start(config()).map_err(|e| format!("server start: {e}"))?;
            let addr = server.addr().to_string();
            for &ix in &plan.warm {
                let reply =
                    post(&addr, &plan.specs[ix], WireFormat::Json).map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!(
                        "warm-up answered {}: {}",
                        reply.status,
                        reply.body_text()
                    ));
                }
            }
            Ok(server)
        },
        shut_down,
    )?;
    let addr = server.addr().to_string();

    let next = AtomicUsize::new(0);
    let depth_max = AtomicU64::new(0);
    let last_poll = Mutex::new(Instant::now());
    let records: Mutex<Vec<(usize, Record)>> = Mutex::new(Vec::with_capacity(n));
    let gap = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let cpu0 = cpu_seconds();
    let window = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..args.loadgen_threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let due = window + gap * i as u32;
                if args.trace {
                    poll_depth(&addr, due, &last_poll, &depth_max);
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let planned = &plan.requests[i];
                let reply = post(&addr, &plan.specs[planned.spec], planned.format);
                let done = Instant::now();
                let mut rec = Record {
                    late_ms: ms(sent - due),
                    latency_ms: ms(done - due),
                    round_trip_ms: ms(done - sent),
                    status: 0,
                    hit: false,
                    digest: None,
                    wall_ms: None,
                    rows: None,
                };
                if let Ok(reply) = reply {
                    rec.status = reply.status;
                    rec.hit = reply.header("x-optpower-cache") == Some("hit");
                    if reply.status == 200 {
                        (rec.digest, rec.wall_ms, rec.rows) = read_reply(&reply, planned.format);
                    }
                }
                records
                    .lock()
                    .expect("no sender panics holding the lock")
                    .push((i, rec));
            });
        }
    });
    let elapsed = window.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let rss_mib = peak_rss_mib();
    shut_down(server);

    let mut records = records.into_inner().expect("senders have exited");
    records.sort_by_key(|(i, _)| *i);
    let late = sorted(&records.iter().map(|(_, r)| r.late_ms).collect::<Vec<_>>());
    let late_p90 = percentile(&late, 0.9);
    if late_p90 > LATE_LIMIT_MS {
        return Err(format!(
            "invalid run: the load generator fell behind (late p90 {late_p90:.2} ms > {LATE_LIMIT_MS} ms)"
        ));
    }

    // Output check against direct Runtime renderings.
    let reference = Runtime::new(Workers::Fixed(CHECK_WORKERS)).with_cache(plan.specs.len());
    let mut expected: HashMap<usize, Artifact> = HashMap::new();
    let (mut ok, mut failed, mut within) = (0u64, 0u64, 0u64);
    for (i, rec) in &records {
        let planned = &plan.requests[*i];
        let art = match expected.get(&planned.spec) {
            Some(art) => art,
            None => {
                let spec =
                    JobSpec::from_json(&plan.specs[planned.spec]).map_err(|e| e.to_string())?;
                let art = reference.run(&spec).map_err(|e| e.to_string())?;
                expected.entry(planned.spec).or_insert(art)
            }
        };
        let want = match planned.format {
            WireFormat::Json => digest(&[art.payload_json().as_bytes()]),
            format => digest(&[format.render(art).as_bytes()]),
        };
        if rec.status == 200 && rec.digest == Some(want) {
            ok += 1;
            within += u64::from(rec.latency_ms <= LATENCY_LIMIT_MS);
        } else {
            if rec.status == 200 {
                eprintln!("serve_mixed: request {i} body differs from the direct rendering");
            }
            failed += 1;
        }
    }
    let attempted = records.len() as u64;

    let mut identical = true;
    let metrics = if args.trace {
        let replay = replay(&plan, &records, &expected, trace_path)?;
        identical = replay.identical;
        let mut layers = replay.layers;
        let replies: Vec<&Record> = records
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.status == 200)
            .collect();
        let hits = replies.iter().filter(|r| r.hit).count();
        layers.set(
            "workload.artifact_hit_ratio",
            hits as f64 / replies.len() as f64,
        );
        let (rh, rm) = replies
            .iter()
            .filter(|r| !r.hit)
            .filter_map(|r| r.rows)
            .fold((0, 0), |(h, m), (a, b)| (h + a, m + b));
        if rh + rm > 0 {
            layers.set("workload.row_hit_ratio", rh as f64 / (rh + rm) as f64);
        }
        let rtt = |hit: bool| -> Vec<f64> {
            replies
                .iter()
                .filter(|r| r.hit == hit)
                .map(|r| r.round_trip_ms)
                .collect()
        };
        layers.set_median("serve.hit_ms_p50", &rtt(true));
        layers.set_median("serve.miss_ms_p50", &rtt(false));
        let overhead: Vec<f64> = replies
            .iter()
            .filter_map(|r| Some(r.round_trip_ms - r.wall_ms?))
            .collect();
        layers.set_median("serve.overhead_ms_p50", &overhead);
        let refused = records
            .iter()
            .filter(|(_, r)| r.status == 429 || r.status >= 500)
            .count();
        layers.set("serve.refused", refused as f64);
        layers.set(
            "serve.queue_depth_max",
            depth_max.load(Ordering::Relaxed) as f64,
        );
        layers.set("loadgen.late_ms_p90", late_p90);
        layers.set("failed_frac", failed as f64 / attempted as f64);
        // The simulator's share of all request time: the replayed
        // timed+baseline time of every cold request over the summed
        // latency of all requests.
        let total_latency: f64 = records.iter().map(|(_, r)| r.latency_ms).sum();
        layers.set("trace.sim_share", replay.sim_ms / total_latency);
        layers.metrics()
    } else {
        EndToEnd {
            setup_s,
            latencies_ms: records.iter().map(|(_, r)| r.latency_ms).collect(),
            goodput_per_s: within as f64 / elapsed,
            cpu_ms_per_job: cpu_s * 1e3 / attempted as f64,
            ok_frac: ok as f64 / attempted as f64,
            peak_rss_mib: rss_mib,
        }
        .metrics()
    };
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && identical,
        metrics,
    })
}

/// The traced decomposition, run after the window.
struct Replay {
    layers: Layers,
    /// Timed plus baseline simulation time of every cold request, ms.
    sim_ms: f64,
    /// Whether every shadow matched its runtime rows bit for bit.
    identical: bool,
}

/// Replays row-hit requests on a private runtime warmed like the
/// service, each beside a shadow of its preflight (ab_initio) or static
/// analysis (sta); replays every cold request through the shadow
/// pipeline and a one-thread `Runtime::run`; and times the byte-level
/// layers on the first requests' reference artifacts.
fn replay(
    plan: &Plan,
    records: &[(usize, Record)],
    expected: &HashMap<usize, Artifact>,
    trace_path: &std::path::Path,
) -> Result<Replay, String> {
    let parse = |ix: usize| JobSpec::from_json(&plan.specs[ix]).map_err(|e| e.to_string());
    let mut tr = Tracer::new();
    let mut samples = Samples::default();
    let distinct = |class: Class| {
        let mut seen = std::collections::HashSet::new();
        records
            .iter()
            .map(|(i, _)| &plan.requests[*i])
            .filter(|p| p.class == class && seen.insert(p.spec))
            .map(|p| p.spec)
            .collect::<Vec<_>>()
    };

    let private = Runtime::new(Workers::Fixed(SERVE_JOB_WORKERS)).with_cache(CACHE_CAPACITY);
    for &ix in &plan.warm[..2] {
        private.run(&parse(ix)?).map_err(|e| e.to_string())?;
    }
    for (n, ix) in distinct(Class::RowHit)
        .into_iter()
        .take(REPLAYS)
        .enumerate()
    {
        let spec = parse(ix)?;
        let (archs, width, sta) = match &spec {
            JobSpec::AbInitio(s) => (shadow::resolve(&s.archs)?, s.width, false),
            JobSpec::Sta(s) => (shadow::resolve(&s.archs)?, s.width, true),
            _ => return Err("row-hit traffic is ab_initio or sta".to_string()),
        };
        let run = || -> Result<f64, String> {
            let t = Instant::now();
            private.run(&spec).map_err(|e| e.to_string())?;
            Ok(ms(t.elapsed()))
        };
        let first = if n % 2 == 0 { Some(run()?) } else { None };
        let (job, result) = tr.job("row_hit", |tr| {
            if sta {
                shadow::sta_static(tr, &archs, width)
            } else {
                shadow::preflight(tr, &archs, width)
            }
        });
        result?;
        let run_ms = match first {
            Some(t) => t,
            None => run()?,
        };
        let b = tr.breakdown(job);
        for (metric, span) in STATIC_LAYERS {
            if let Some(&ms) = b.get(span) {
                samples.push(metric, ms);
            }
        }
        if !sta {
            samples.push(
                "workload.preflight_share",
                tr.inclusive(job, "workload.preflight") / run_ms,
            );
        }
    }

    let (mut sim_ms, mut identical) = (0.0, true);
    let (mut shadow_wall, mut plain_wall) = (Vec::new(), Vec::new());
    for ix in distinct(Class::Cold) {
        let spec = parse(ix)?;
        let JobSpec::AbInitio(s) = &spec else {
            return Err("cold traffic is ab_initio".to_string());
        };
        let t = Instant::now();
        let plain = Runtime::new(Workers::Fixed(1))
            .run(&spec)
            .map_err(|e| e.to_string())?;
        plain_wall.push(ms(t.elapsed()));
        let (job, sh) = shadow::ab_initio(&mut tr, s)?;
        for art in [&plain, &expected[&ix]] {
            identical &= matches!(&art.payload, Payload::AbInitio(rows) if shadow::rows_identical(&sh.rows, rows));
        }
        let b = shadow::sample(&tr, (job, &sh), &MEASURE_LAYERS, &mut samples);
        sim_ms += b["explore.timed"] + b["sim.baseline"];
        shadow_wall.push(b["wall"]);
    }

    let mut seen = std::collections::HashSet::new();
    for (i, _) in records
        .iter()
        .filter(|(i, _)| seen.insert(plan.requests[*i].spec))
        .take(60)
    {
        let ix = plan.requests[*i].spec;
        shadow::io(&mut tr, &plan.specs[ix], &expected[&ix], &mut samples);
    }
    tr.write(trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut layers = samples.layers();
    let plain = median(&plain_wall);
    if plain > 0.0 {
        layers.set(
            "trace.overhead_frac",
            (median(&shadow_wall) - plain) / plain,
        );
    }
    Ok(Replay {
        layers,
        sim_ms,
        identical,
    })
}

/// Polls `/metrics` for the queue depth when this generator thread has
/// at least 20 ms before its next request and nobody polled in the
/// last 100 ms. The poll is this thread's one open connection.
fn poll_depth(addr: &str, due: Instant, last_poll: &Mutex<Instant>, depth_max: &AtomicU64) {
    if due < Instant::now() + Duration::from_millis(20) {
        return;
    }
    {
        let mut last = last_poll.lock().expect("no poller panics holding the lock");
        if last.elapsed() < Duration::from_millis(100) {
            return;
        }
        *last = Instant::now();
    }
    if let Ok(reply) = request(addr, "GET", "/metrics", &[], b"", TIMEOUT) {
        if let Some(depth) = Json::parse(&reply.body_text())
            .ok()
            .and_then(|doc| doc.get("queue_depth").and_then(Json::as_u64))
        {
            depth_max.fetch_max(depth, Ordering::Relaxed);
        }
    }
}
