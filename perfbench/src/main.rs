//! The optpower benchmark: three workloads, each driven from this one
//! process, each with an untraced run (end-to-end metrics) and a traced
//! run (per-layer metrics).
//!
//! ```text
//! optpower-perfbench --workload <cold_suite|serve_mixed|cluster_sweep>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! optpower-perfbench --write-references <path>
//! ```
//!
//! Every input derives from `--seed`. The result is the last line of
//! stdout; a line before it records the seed, `nproc` and every pinned
//! thread count. See `README.md` beside this crate for the workloads
//! and what each metric is expected to move.

mod cluster;
mod cold;
mod report;
mod serve;
mod shadow;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Pool workers of the `cold_suite` runtime. One: single-thread stage
/// cost is what a change can move on a two-core host, and the second
/// core is left to the rest of the machine.
pub const RUNTIME_WORKERS: usize = 1;
/// Pool workers of the reference runs behind the output checks, which
/// run after the measured window.
pub const CHECK_WORKERS: usize = 2;
/// Executor threads of the in-process job service.
pub const SERVE_EXECUTORS: usize = 2;
/// Pool workers each service job runs with.
pub const SERVE_JOB_WORKERS: usize = 1;
/// Loopback shard workers of `cluster_sweep`.
pub const CLUSTER_HOSTS: usize = 2;
/// Pool workers of each shard worker's runtime.
pub const CLUSTER_HOST_WORKERS: usize = 1;
/// Upper bound on load-generator threads (and so on the connections
/// they hold open at once: one each).
pub const LOADGEN_THREADS: usize = 2;
/// How often each workload's set-up is repeated; the median is
/// reported as `setup_s`.
pub const SETUP_REPS: usize = 7;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Load-generator threads for this host: `LOADGEN_THREADS`,
    /// capped at `nproc`.
    pub loadgen_threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["cold_suite", "serve_mixed", "cluster_sweep"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be within 1..=120".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let nproc = optpower_explore::available_workers();
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        loadgen_threads: LOADGEN_THREADS.min(nproc),
    })
}

/// Builds a workload's system `SETUP_REPS` times, tearing down each
/// one but the last before the next build (untimed); returns the last
/// system and the median build time in seconds.
pub fn timed_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        if let Some(system) = last.take() {
            teardown(system);
        }
        let started = Instant::now();
        last = Some(build()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let system = last.expect("SETUP_REPS is at least one");
    Ok((system, stats::median(&times)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--write-references") {
        let Some(path) = argv.get(2) else {
            eprintln!("usage: --write-references <path>");
            return ExitCode::from(2);
        };
        return match cold::write_references(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = optpower_explore::available_workers();
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()));
    let trace_path = target
        .join("perfbench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    // Resource discipline, recorded with the result: every thread count
    // is pinned, and the load generator never outnumbers the cores.
    assert!(args.loadgen_threads >= 1 && args.loadgen_threads <= nproc);
    println!(
        "{{\"perfbench\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"runtime_workers\":{RUNTIME_WORKERS},\"check_workers\":{CHECK_WORKERS},\
         \"serve_executors\":{SERVE_EXECUTORS},\"serve_job_workers\":{SERVE_JOB_WORKERS},\
         \"cluster_hosts\":{CLUSTER_HOSTS},\"cluster_host_workers\":{CLUSTER_HOST_WORKERS},\
         \"loadgen_threads\":{},\"trace_file\":{:?}}}}}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        args.trace,
        args.loadgen_threads,
        trace_path.display().to_string(),
    );
    let outcome = match args.workload.as_str() {
        "cold_suite" => cold::run(&args, &trace_path),
        "serve_mixed" => serve::run(&args, &trace_path),
        _ => cluster::run(&args, &trace_path),
    };
    match outcome {
        Ok(outcome) => {
            report::print(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
