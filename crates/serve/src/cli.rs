//! The `optpower` command line: every verb of the one binary.
//!
//! `optpower <kind>` — any name in [`JOB_KINDS`], kebab or snake case —
//! is `optpower run` on [`JobSpec::default_for`] of that kind. Every
//! other job is a spec: `optpower spec <kind>` prints the default, and
//! `optpower run <file|->` runs an edited copy, locally or across
//! shard workers with `--hosts`. Every failure is an [`ErrorBody`], and
//! the process exits with its [`ErrorBody::exit_code`]: 2 for a bad
//! argument or spec, 3 for a job that parsed but failed, 4 for a
//! host-side failure.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use optpower_dist::Cluster;
use optpower_explore::Workers;
use optpower_workload::{
    Artifact, ErrorBody, JobSpec, Payload, Runtime, WireFormat, WorkloadError, JOB_KINDS,
};

use crate::client;
use crate::server::{self, Config};

const USAGE: &str = "\
optpower - declarative workloads over the Schuster et al. (DATE'06) reproduction

usage:
  optpower list                          the job catalogue
  optpower spec <kind>                   print a kind's default JobSpec JSON
  optpower run <spec.json|-> [--workers N] [--cache N]
               [--out DIR] [--json|--csv]
                                         execute a JSON JobSpec
  optpower run <spec.json|-> --hosts HOST:PORT,... [--shards N]
               [--timeout-ms N] [--workers N] [--out DIR] [--json|--csv]
                                         run one job across shard workers
  optpower <kind> [run flags]            run a kind's default spec
  optpower serve [--addr HOST:PORT] [--queue N] [--executors N]
               [--workers N|HOST:PORT,...] [--shards N] [--cache N]
               [--store N] [--timeout-ms N] [--retry-after S]
               [--max-body N] [--out DIR] [--drain-on-stdin-eof]
                                         boot the job service
  optpower worker [--addr HOST:PORT] [--workers N] [--cache N]
                                         serve shards over TCP
  optpower submit <spec.json|-> [--addr HOST:PORT]
               [--format text|json|csv] [--async] [--timeout-ms N]
                                         POST a spec, print the artifact

exit codes: 0 ok, 2 bad argument or spec, 3 job failed, 4 host failure
";

/// Runs the `optpower` command line on `args` (without the program
/// name) and returns the process exit code.
pub fn main(args: &[String]) -> ExitCode {
    match dispatch(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {}", e.message);
            ExitCode::from(e.exit_code())
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), ErrorBody> {
    let Some((command, rest)) = args.split_first() else {
        return print_out(format_args!("{USAGE}"));
    };
    let mut flags = Flags {
        verb: command,
        args: rest.iter(),
    };
    match command.as_str() {
        "help" | "--help" | "-h" => print_out(format_args!("{USAGE}")),
        "list" => {
            flags.finish()?;
            let mut text = String::from(
                "job kinds (run one with `optpower run <spec.json>` or `optpower <kind>`):\n",
            );
            for &(kind, summary) in JOB_KINDS {
                text += &format!("  {kind:<18} {summary}\n");
            }
            text += "\ndefault specs are printable with `optpower spec <kind>`\n";
            print_out(format_args!("{text}"))
        }
        "spec" => {
            let kind = flags
                .next()
                .ok_or_else(|| client_error("usage: optpower spec <kind>"))?;
            flags.finish()?;
            let spec = default_spec(kind).ok_or_else(|| {
                client_error(format!("unknown job kind {kind:?}; see `optpower list`"))
            })?;
            print_out(format_args!("{}\n", spec.to_json()))
        }
        "run" => run(flags, None),
        "serve" => serve(flags),
        "worker" => worker(flags),
        "submit" => submit(flags),
        other => match default_spec(other) {
            Some(spec) => run(flags, Some(spec)),
            None => Err(client_error(format!(
                "unknown command {other:?}; try `optpower list` or `optpower help`"
            ))),
        },
    }
}

/// The default spec of a kind named in snake or kebab case.
fn default_spec(kind: &str) -> Option<JobSpec> {
    JobSpec::default_for(&kind.replace('-', "_"))
}

/// `run` and `<kind>`: one job, in process or across `--hosts`.
/// `default` is the kind's spec; without it the job comes from the
/// spec file (or stdin) named by the one positional argument.
fn run(mut flags: Flags, default: Option<JobSpec>) -> Result<(), ErrorBody> {
    let mut source = None;
    let mut workers = Workers::Auto;
    let mut cache: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut format = WireFormat::Text;
    let mut hosts: Option<Vec<String>> = None;
    let mut shards: Option<usize> = None;
    let mut timeout_ms: Option<u64> = None;
    while let Some(arg) = flags.next() {
        match arg {
            "--workers" => workers = Workers::Fixed(flags.count(arg)?),
            "--cache" => cache = Some(flags.count(arg)?),
            "--out" => out = Some(flags.value(arg, "a directory")?.into()),
            "--json" => format = WireFormat::Json,
            "--csv" => format = WireFormat::Csv,
            "--hosts" => hosts = Some(host_list(flags.value(arg, "HOST:PORT,...")?)),
            "--shards" => shards = Some(flags.count(arg)?),
            "--timeout-ms" => timeout_ms = Some(flags.count(arg)?),
            _ if default.is_none() => flags.positional(arg, &mut source)?,
            _ => return Err(flags.unknown(arg)),
        }
    }
    let misuse = match &hosts {
        None if shards.is_some() || timeout_ms.is_some() => {
            "--shards and --timeout-ms need --hosts"
        }
        Some(list) if list.is_empty() => "--hosts needs at least one HOST:PORT",
        Some(_) if cache.is_some() => "--cache applies to in-process runs, not --hosts",
        _ => "",
    };
    if !misuse.is_empty() {
        return Err(client_error(misuse));
    }
    let spec = match default {
        Some(spec) => spec,
        None => JobSpec::from_json(&read_spec(source, "run")?).map_err(|e| ErrorBody::of(&e))?,
    };
    let Some(hosts) = hosts else {
        let artifact = runtime(workers, cache)
            .run(&spec)
            .map_err(|e| ErrorBody::of(&e))?;
        emit(format, &format.render(&artifact), out.as_deref(), || {
            artifact_files(&artifact)
        })?;
        return lint_gate(&artifact);
    };
    let mut cluster = Cluster::new(hosts).with_workers(workers);
    if let Some(n) = shards {
        cluster = cluster.with_shards(n);
    }
    if let Some(ms) = timeout_ms {
        cluster = cluster.with_timeout_ms(ms);
    }
    // The cluster's output is byte-identical to the in-process run's;
    // distribution shows only in `meta.dist`.
    let merged = cluster.run(&spec).map_err(|e| ErrorBody {
        message: e.to_string(),
        ..e.error_body()
    })?;
    let rendered = match format {
        WireFormat::Text => &merged.text,
        WireFormat::Json => &merged.json,
        WireFormat::Csv => &merged.csv,
    };
    emit(format, rendered, out.as_deref(), || {
        match &merged.artifact {
            Some(artifact) => artifact_files(artifact),
            // A rendered-level merge lands the same triple, from the
            // merged strings.
            None => file_triple(
                spec.kind(),
                merged.json.clone(),
                merged.csv.clone(),
                merged.text.clone(),
            ),
        }
    })
}

/// A runtime on the given pool, with the artifact and row caches when
/// `cache` names a capacity: a batch then reuses its repeated members,
/// and a worker answers a resubmitted shard from the cache.
fn runtime(workers: Workers, cache: Option<usize>) -> Runtime {
    let runtime = Runtime::new(workers);
    match cache {
        Some(capacity) => runtime.with_cache(capacity),
        None => runtime,
    }
}

/// Prints one rendering and, with `--out`, writes the artifact files.
fn emit(
    format: WireFormat,
    rendered: &str,
    out: Option<&Path>,
    files: impl FnOnce() -> Vec<(String, String)>,
) -> Result<(), ErrorBody> {
    match format {
        WireFormat::Csv => print_out(format_args!("{rendered}"))?,
        WireFormat::Text | WireFormat::Json => print_out(format_args!("{rendered}\n"))?,
    }
    let Some(dir) = out else {
        return Ok(());
    };
    let io_error =
        |path: &Path, e| ErrorBody::of(&WorkloadError::io(path.display().to_string(), e));
    std::fs::create_dir_all(dir).map_err(|e| io_error(dir, e))?;
    let files = files();
    for (name, contents) in &files {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| io_error(&path, e))?;
    }
    let _ = writeln!(
        io::stderr(),
        "wrote {} artifact files to {}",
        files.len(),
        dir.display()
    );
    Ok(())
}

/// The `--out` files of an artifact: `<kind>.{json,csv,txt}`, or for a
/// batch, `batch.json` plus an index-prefixed triple per member.
fn artifact_files(artifact: &Artifact) -> Vec<(String, String)> {
    let triple =
        |stem: &str, a: &Artifact| file_triple(stem, a.to_json(), a.to_csv(), a.render_text());
    match &artifact.payload {
        Payload::Batch(members) => {
            let mut files = vec![("batch.json".to_string(), artifact.to_json())];
            for (i, member) in members.iter().enumerate() {
                files.extend(triple(&format!("{i:02}_{}", member.kind()), member));
            }
            files
        }
        _ => triple(artifact.kind(), artifact),
    }
}

fn file_triple(stem: &str, json: String, csv: String, text: String) -> Vec<(String, String)> {
    vec![
        (format!("{stem}.json"), json),
        (format!("{stem}.csv"), csv),
        (format!("{stem}.txt"), text),
    ]
}

/// A lint job run in process is a CI gate: once its report is out, an
/// error-severity diagnostic fails the invocation.
fn lint_gate(artifact: &Artifact) -> Result<(), ErrorBody> {
    let Payload::Lint(rows) = &artifact.payload else {
        return Ok(());
    };
    match rows.iter().map(|r| r.report.error_count()).sum::<usize>() {
        0 => Ok(()),
        errors => Err(client_error(format!(
            "lint found {errors} error-severity diagnostic(s); see the report above"
        ))),
    }
}

fn serve(mut flags: Flags) -> Result<(), ErrorBody> {
    let mut config = Config::default();
    let mut drain_on_stdin_eof = false;
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => config.addr = flags.value(arg, "HOST:PORT")?.to_string(),
            "--queue" => config.queue_capacity = flags.count(arg)?,
            "--executors" => config.executors = flags.count(arg)?,
            // `--workers 4` is a thread count; `--workers h1:1,h2:1`
            // is a worker-host list for distributed execution. A bare
            // count parses as a number first, so the two spellings
            // cannot collide.
            "--workers" => {
                let value = flags.value(arg, "a count or a HOST:PORT list")?;
                match value.parse() {
                    Ok(n) => config.workers = Workers::Fixed(n),
                    Err(_) => config.hosts = host_list(value),
                }
            }
            "--shards" => config.shards = flags.count(arg)?,
            "--cache" => config.cache_capacity = flags.count(arg)?,
            "--store" => config.store_capacity = flags.count(arg)?,
            "--timeout-ms" => config.request_timeout_ms = flags.count(arg)?,
            "--retry-after" => config.retry_after_s = flags.count(arg)?,
            "--max-body" => config.max_body_bytes = flags.count(arg)?,
            "--out" => config.artifact_dir = Some(flags.value(arg, "a directory")?.into()),
            "--drain-on-stdin-eof" => drain_on_stdin_eof = true,
            _ => return Err(flags.unknown(arg)),
        }
    }
    let handle = server::start(config)
        .map_err(|e| host_error(format!("could not start the server: {e}")))?;
    print_out(format_args!(
        "optpower serve listening on http://{}\n",
        handle.addr()
    ))?;
    if drain_on_stdin_eof {
        // No signal handler (the workspace forbids `unsafe`), so a
        // supervisor that can't POST /v1/shutdown may simply close
        // our stdin to trigger the same graceful drain.
        let drainer = handle.drainer();
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = io::stdin().read_to_end(&mut sink);
            drainer.drain();
        });
    }
    handle.join();
    print_out(format_args!("optpower serve drained; exiting\n"))
}

/// The blocking shard server behind a `run --hosts` coordinator.
fn worker(mut flags: Flags) -> Result<(), ErrorBody> {
    let mut addr = "127.0.0.1:0";
    let mut workers = Workers::Auto;
    let mut cache = None;
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value(arg, "HOST:PORT")?,
            "--workers" => workers = Workers::Fixed(flags.count(arg)?),
            "--cache" => cache = Some(flags.count(arg)?),
            _ => return Err(flags.unknown(arg)),
        }
    }
    optpower_dist::serve(addr, runtime(workers, cache))
        .map_err(|e| host_error(format!("could not start the worker: {e}")))
}

/// The wire client: POSTs the spec text as is and prints the reply.
fn submit(mut flags: Flags) -> Result<(), ErrorBody> {
    let mut source = None;
    let mut addr = "127.0.0.1:7878";
    let mut format = WireFormat::Json;
    let mut target = "/v1/jobs";
    let mut timeout_ms = 120_000;
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value(arg, "HOST:PORT")?,
            "--format" => {
                format = WireFormat::from_name(flags.value(arg, "text | json | csv")?)
                    .ok_or_else(|| client_error("--format needs text | json | csv"))?;
            }
            "--async" => target = "/v1/jobs?mode=async",
            "--timeout-ms" => timeout_ms = flags.count(arg)?,
            _ => flags.positional(arg, &mut source)?,
        }
    }
    let body = read_spec(source, "submit")?;
    let reply = client::request(
        addr,
        "POST",
        target,
        &[("Accept", format.content_type())],
        body.as_bytes(),
        Duration::from_millis(timeout_ms),
    )
    .map_err(|e| host_error(format!("request to {addr} failed: {e}")))?;
    if !matches!(reply.status, 200 | 202) {
        return Err(ErrorBody::new(
            reply.status,
            "unknown_error",
            format!("HTTP {}: {}", reply.status, reply.body_text()),
        ));
    }
    if let Some(cache) = reply.header("x-optpower-cache") {
        let _ = writeln!(io::stderr(), "cache: {cache}");
    }
    let newline = if reply.body.ends_with(b"\n") {
        ""
    } else {
        "\n"
    };
    print_out(format_args!("{}{newline}", reply.body_text()))
}

/// Writes to stdout and flushes. A reader that has gone away
/// (`BrokenPipe`) ends printing quietly, and the verb exits as it
/// otherwise would; any other write error is a host failure (exit 4).
fn print_out(args: fmt::Arguments) -> Result<(), ErrorBody> {
    let mut stdout = io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(host_error(format!("cannot write to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// The spec text of `run` or `submit`: the named file, or stdin for
/// `-`. A spec that cannot be read is the caller's error (exit 2).
fn read_spec(source: Option<&str>, verb: &str) -> Result<String, ErrorBody> {
    let source = source
        .ok_or_else(|| client_error(format!("usage: optpower {verb} <spec.json|-> [flags]")))?;
    let text = if source == "-" {
        let mut buf = String::new();
        io::stdin().read_to_string(&mut buf).map(|_| buf)
    } else {
        std::fs::read_to_string(source)
    };
    text.map_err(|e| client_error(format!("cannot read spec {source}: {e}")))
}

fn host_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .collect()
}

/// A bad command line: HTTP-shaped 400, so exit code 2.
fn client_error(message: impl Into<String>) -> ErrorBody {
    ErrorBody::new(400, "bad_request", message)
}

/// A host that cannot serve (bind or connect failed): exit code 4.
fn host_error(message: String) -> ErrorBody {
    ErrorBody::new(500, "io_failed", message)
}

/// One verb's arguments, walked flag by flag.
struct Flags<'a> {
    verb: &'a str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value after `flag`, which should be `what`.
    fn value(&mut self, flag: &str, what: &str) -> Result<&'a str, ErrorBody> {
        self.next()
            .ok_or_else(|| client_error(format!("{flag} needs {what}")))
    }

    /// The unsigned integer after `flag`.
    fn count<T: FromStr>(&mut self, flag: &str) -> Result<T, ErrorBody> {
        self.next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| client_error(format!("{flag} needs an unsigned integer")))
    }

    /// Takes `arg` as the verb's one positional argument.
    fn positional(&self, arg: &'a str, slot: &mut Option<&'a str>) -> Result<(), ErrorBody> {
        if slot.is_some() || arg.starts_with("--") {
            return Err(self.unknown(arg));
        }
        *slot = Some(arg);
        Ok(())
    }

    /// Refuses any argument left over.
    fn finish(mut self) -> Result<(), ErrorBody> {
        match self.next() {
            Some(arg) => Err(self.unknown(arg)),
            None => Ok(()),
        }
    }

    fn unknown(&self, arg: &str) -> ErrorBody {
        client_error(format!("unknown `optpower {}` argument {arg:?}", self.verb))
    }
}
