//! The job service itself: one accept loop, a bounded admission
//! queue, N executor threads around a shared cache-backed
//! [`Runtime`], and the v1 routing table.
//!
//! Threading model: the acceptor owns the listener and blocks in
//! `accept`, so a connection is handled the moment it arrives; at
//! shutdown [`ServerHandle::join`] wakes it with one loopback connect.
//! It spawns one short-lived handler thread per connection; executors
//! block on the queue. Handlers never execute jobs — they admit,
//! wait, and frame — so a wedged job can only ever consume an
//! executor, and the per-request deadline (`request_timeout_ms`)
//! turns a too-slow synchronous wait into `504` without touching the
//! executor that is still computing (the artifact lands in the cache,
//! so a retry is a hit).
//!
//! Graceful shutdown is cooperative: `POST /v1/shutdown` (or
//! [`ServerHandle::drain`]) flips the queue to draining — admission
//! returns `503 draining`, executors finish what is queued, then
//! [`ServerHandle::join`] returns. There is no signal handler by
//! design: the workspace forbids `unsafe`, and a `SIGTERM` hook
//! cannot be installed without it, so process supervisors drive the
//! shutdown endpoint (or close stdin when the CLI runs with
//! `--drain-on-stdin-eof`).

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use optpower_dist::Cluster;
use optpower_explore::Workers;
use optpower_workload::{
    status_json, Artifact, ErrorBody, JobSpec, Json, Runtime, Store, SubmitMode, WireFormat,
};

use crate::http::{read_request, HttpError, HttpRequest, HttpResponse};
use crate::metrics::Metrics;
use crate::queue::{JobQueue, JobState, JobStore, PushError};

/// How long a handler waits for the socket itself (reading the
/// request, writing the response). Deliberately short — bodies are
/// small; the long wait in a synchronous submit happens on the job
/// store condvar, not the socket.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How long [`ServerHandle::join`] waits for in-flight handler
/// threads to finish writing after the executors exit.
const CONNECTION_GRACE: Duration = Duration::from_secs(5);

/// How long the acceptor pauses after a failed `accept` (out of file
/// descriptors, say) before trying again, so a persistent failure
/// does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Jobs admitted but not yet running (backpressure bound).
    pub queue_capacity: usize,
    /// Executor threads pulling from the queue.
    pub executors: usize,
    /// Worker policy of the shared runtime pool.
    pub workers: Workers,
    /// Artifacts retained in the content-addressed cache.
    pub cache_capacity: usize,
    /// Terminal jobs retained for `GET /v1/jobs/<key>` pollers.
    pub store_capacity: usize,
    /// Deadline for a synchronous submission, in milliseconds; past
    /// it the request gets `504` (the job keeps running).
    pub request_timeout_ms: u64,
    /// The `Retry-After` value (seconds) sent with `429`.
    pub retry_after_s: u64,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Directory for side-effect artifacts (the export job); `None`
    /// keeps the runtime default.
    pub artifact_dir: Option<PathBuf>,
    /// Worker `host:port` addresses for distributed execution; empty
    /// means every job runs locally on the shared runtime.
    pub hosts: Vec<String>,
    /// Target shard count for distributed jobs; 0 means one shard per
    /// worker host.
    pub shards: usize,
    /// Start with executors paused (test hook: admission works, the
    /// queue fills deterministically, [`ServerHandle::resume`]
    /// releases the executors).
    pub start_paused: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            queue_capacity: 32,
            executors: 2,
            workers: Workers::Auto,
            cache_capacity: 64,
            store_capacity: 256,
            request_timeout_ms: 120_000,
            retry_after_s: 1,
            max_body_bytes: 1024 * 1024,
            artifact_dir: None,
            hosts: Vec::new(),
            shards: 0,
            start_paused: false,
        }
    }
}

struct Shared {
    runtime: Runtime,
    /// The coordinator, when `Config::hosts` named worker addresses.
    cluster: Option<Cluster>,
    queue: JobQueue,
    store: JobStore,
    metrics: Metrics,
    config: Config,
    stop_accepting: AtomicBool,
    active_connections: AtomicUsize,
}

impl Shared {
    fn state_label(&self) -> &'static str {
        if self.queue.is_draining() {
            "draining"
        } else {
            "running"
        }
    }
}

/// A running server: the bound address plus the thread handles.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Releases paused executors (pairs with `Config::start_paused`).
    pub fn resume(&self) {
        self.shared.queue.resume();
    }

    /// Starts a graceful drain: admission refused, queued jobs finish.
    pub fn drain(&self) {
        self.shared.queue.drain();
    }

    /// Stops immediately: queued jobs are dropped unrun.
    pub fn abort(&self) {
        self.shared.queue.abort();
    }

    /// A cloneable drain trigger, for watcher threads (e.g. the CLI's
    /// stdin-EOF watcher) that outlive this handle's borrow.
    pub fn drainer(&self) -> Drainer {
        Drainer(Arc::clone(&self.shared))
    }

    /// Blocks until the server has shut down (a drain or abort must
    /// be triggered — by this handle or by `POST /v1/shutdown` — or
    /// this waits forever, which is the CLI's foreground behaviour).
    pub fn join(mut self) {
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        // Give in-flight handler threads a bounded window to finish
        // writing (they are detached; only the counter tracks them).
        let deadline = Instant::now() + CONNECTION_GRACE;
        while self.shared.active_connections.load(Ordering::Acquire) > 0
            && Instant::now() < deadline
        {
            thread::sleep(Duration::from_millis(5));
        }
        self.shared.stop_accepting.store(true, Ordering::Release);
        // The acceptor is blocked in `accept`; one connection wakes it
        // to see the flag.
        let _ = TcpStream::connect(wake_addr(self.addr));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Where a connect reaches the listener bound at `bound`: the bound
/// address itself, or loopback when the listener took every interface
/// (an unspecified IP is not a connectable destination).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// A detached drain trigger (see [`ServerHandle::drainer`]).
pub struct Drainer(Arc<Shared>);

impl Drainer {
    /// Starts the graceful drain, exactly like [`ServerHandle::drain`].
    pub fn drain(&self) {
        self.0.queue.drain();
    }
}

/// Binds the listener and spawns the service threads.
///
/// # Errors
///
/// [`io::Error`] when the address cannot be bound.
pub fn start(config: Config) -> io::Result<ServerHandle> {
    let mut runtime = Runtime::new(config.workers).with_cache(config.cache_capacity);
    if let Some(dir) = &config.artifact_dir {
        runtime = runtime.with_artifact_dir(dir.clone());
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let cluster = if config.hosts.is_empty() {
        None
    } else {
        // Shard results are one grid cell each, so the shard cache can
        // afford to be an order of magnitude deeper than the artifact
        // cache without changing the memory story.
        let mut cluster = Cluster::new(config.hosts.clone())
            .with_workers(config.workers)
            .with_cache(Store::new(config.cache_capacity.saturating_mul(8)));
        if config.shards > 0 {
            cluster = cluster.with_shards(config.shards);
        }
        Some(cluster)
    };

    let shared = Arc::new(Shared {
        runtime,
        cluster,
        queue: JobQueue::new(config.queue_capacity, config.start_paused),
        store: JobStore::new(config.store_capacity),
        metrics: Metrics::default(),
        config,
        stop_accepting: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
    });

    let executors = (0..shared.config.executors.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                while let Some(key) = shared.queue.pop() {
                    execute_one(&shared, &key);
                }
            })
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || accept_loop(&listener, &shared))
    };

    Ok(ServerHandle {
        addr,
        shared,
        executors,
        acceptor: Some(acceptor),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop_accepting.load(Ordering::Acquire) {
            return;
        }
        match conn {
            Ok(stream) => {
                shared.active_connections.fetch_add(1, Ordering::AcqRel);
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    handle_connection(&shared, stream);
                    shared.active_connections.fetch_sub(1, Ordering::AcqRel);
                });
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Runs one admitted job on the shared runtime and records the
/// outcome for waiters, pollers and metrics.
fn execute_one(shared: &Shared, key: &str) {
    let Some(spec) = shared.store.spec(key) else {
        return;
    };
    shared.store.mark_running(key);
    // Grid-shaped kinds go through the cluster when one is configured;
    // everything else (and everything when `--workers` named no hosts)
    // runs locally on the shared runtime.
    if let Some(cluster) = &shared.cluster {
        if matches!(
            spec,
            JobSpec::AbInitio(_) | JobSpec::GlitchSweep(_) | JobSpec::Table1Sweep { .. }
        ) {
            execute_distributed(shared, cluster, key, &spec);
            return;
        }
    }
    match shared.runtime.run(&spec) {
        Ok(artifact) => {
            shared
                .metrics
                .record_wall(artifact.kind(), artifact.meta.wall_ms);
            if let Some(rc) = artifact.meta.row_cache {
                shared
                    .metrics
                    .row_cache_hits
                    .fetch_add(rc.hits, std::sync::atomic::Ordering::Relaxed);
                shared
                    .metrics
                    .row_cache_misses
                    .fetch_add(rc.misses, std::sync::atomic::Ordering::Relaxed);
            }
            shared.store.finish(key, JobState::Done(Arc::new(artifact)));
        }
        Err(e) => {
            Metrics::bump(&shared.metrics.failed);
            shared
                .store
                .finish(key, JobState::Failed(ErrorBody::of(&e)));
        }
    }
}

/// Runs one job across the worker cluster and folds the scheduling
/// stats — per-host shard counts, retries, shard/artifact/row cache
/// counters from every worker — into the service metrics.
fn execute_distributed(shared: &Shared, cluster: &Cluster, key: &str, spec: &JobSpec) {
    use std::sync::atomic::Ordering::Relaxed;
    match cluster.run(spec) {
        Ok(run) => {
            let stats = &run.stats;
            shared
                .metrics
                .dist_retries
                .fetch_add(stats.retries, Relaxed);
            shared
                .metrics
                .shard_cache_hits
                .fetch_add(stats.shard_cache_hits, Relaxed);
            shared
                .metrics
                .shard_cache_misses
                .fetch_add(stats.shard_cache_misses, Relaxed);
            shared.metrics.record_dist_hosts(&stats.per_host);
            shared
                .metrics
                .cache_hits
                .fetch_add(stats.cache_hits, Relaxed);
            shared
                .metrics
                .cache_misses
                .fetch_add(stats.cache_misses, Relaxed);
            if let Some(rc) = stats.row_cache {
                shared.metrics.row_cache_hits.fetch_add(rc.hits, Relaxed);
                shared
                    .metrics
                    .row_cache_misses
                    .fetch_add(rc.misses, Relaxed);
            }
            let artifact = run.artifact.expect("distributed kinds merge typed");
            shared
                .metrics
                .record_wall(artifact.kind(), artifact.meta.wall_ms);
            shared.store.finish(key, JobState::Done(Arc::new(artifact)));
        }
        Err(e) => {
            Metrics::bump(&shared.metrics.failed);
            shared.store.finish(key, JobState::Failed(e.error_body()));
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let response = match read_request(&mut stream, shared.config.max_body_bytes) {
        Ok(request) => route(shared, &request),
        Err(HttpError::BodyTooLarge { declared, limit }) => {
            Metrics::bump(&shared.metrics.rejected_other);
            error_response(&ErrorBody::new(
                413,
                "payload_too_large",
                format!("body of {declared} bytes exceeds the {limit}-byte limit"),
            ))
        }
        Err(HttpError::Malformed(why)) => error_response(&ErrorBody::new(400, "bad_request", why)),
        // The socket died or timed out before a request arrived;
        // nobody is listening for a response.
        Err(HttpError::Io(_)) => return,
    };
    let _ = response.write_to(&mut stream);
}

/// The v1 routing table.
fn route(shared: &Shared, request: &HttpRequest) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => submit(shared, request),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            poll(shared, &path["/v1/jobs/".len()..], request)
        }
        ("GET", "/metrics") => HttpResponse::new(200).body(
            "application/json",
            shared
                .metrics
                .render(shared.queue.depth(), shared.state_label()),
        ),
        ("GET", "/healthz") => HttpResponse::new(200).body(
            "application/json",
            Json::obj([
                ("ok", Json::Bool(true)),
                ("state", Json::str(shared.state_label())),
            ])
            .to_string(),
        ),
        ("POST", "/v1/shutdown") => {
            shared.queue.drain();
            HttpResponse::new(200).body(
                "application/json",
                Json::obj([("ok", Json::Bool(true)), ("state", Json::str("draining"))]).to_string(),
            )
        }
        (_, "/v1/jobs") => method_not_allowed("POST"),
        (_, path) if path.starts_with("/v1/jobs/") => method_not_allowed("GET"),
        (_, "/metrics") | (_, "/healthz") => method_not_allowed("GET"),
        (_, "/v1/shutdown") => method_not_allowed("POST"),
        _ => error_response(&ErrorBody::new(
            404,
            "unknown_path",
            format!("no such endpoint {:?}", request.path),
        )),
    }
}

fn method_not_allowed(allow: &str) -> HttpResponse {
    error_response(&ErrorBody::new(
        405,
        "method_not_allowed",
        format!("allowed: {allow}"),
    ))
    .header("Allow", allow)
}

/// `POST /v1/jobs`: negotiate, parse, consult the cache, admit, and
/// either wait (sync) or hand back the key (async).
fn submit(shared: &Shared, request: &HttpRequest) -> HttpResponse {
    if shared.queue.is_draining() {
        Metrics::bump(&shared.metrics.rejected_other);
        return error_response(&ErrorBody::new(
            503,
            "draining",
            "server is draining and refuses new work",
        ));
    }
    let Some(format) = WireFormat::from_accept(request.header("accept").unwrap_or("")) else {
        Metrics::bump(&shared.metrics.rejected_other);
        return error_response(&ErrorBody::new(
            406,
            "not_acceptable",
            "no supported media type in Accept (application/json, text/csv, text/plain)",
        ));
    };
    let mode = match request.query_param("mode") {
        None | Some("sync") => SubmitMode::Sync,
        Some("async") => SubmitMode::Async,
        Some(other) => {
            Metrics::bump(&shared.metrics.rejected_other);
            return error_response(&ErrorBody::new(
                400,
                "invalid_spec",
                format!("unknown mode {other:?} (sync | async)"),
            ));
        }
    };
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            Metrics::bump(&shared.metrics.rejected_other);
            return error_response(&ErrorBody::new(
                400,
                "invalid_spec",
                "request body is not UTF-8",
            ));
        }
    };
    let spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(e) => {
            Metrics::bump(&shared.metrics.rejected_other);
            return error_response(&ErrorBody::of(&e));
        }
    };
    let key = spec.canonical_key();

    // Hits bypass the queue entirely: no slot, no executor. A finished
    // job the artifact cache has since evicted is still answered from
    // the job store without running anything, so it is a hit too.
    let lookup_started = Instant::now();
    let stored = || match shared.store.state(&key) {
        Some(JobState::Done(done)) => Some(Artifact::clone(&done).into_cache_hit(lookup_started)),
        _ => None,
    };
    if let Some(artifact) = shared.runtime.cache_lookup(&spec).or_else(stored) {
        Metrics::bump(&shared.metrics.accepted);
        Metrics::bump(&shared.metrics.served);
        Metrics::bump(&shared.metrics.cache_hits);
        return artifact_response(format, &artifact, &key, "hit");
    }
    Metrics::bump(&shared.metrics.cache_misses);

    if shared.store.admit(&key, &spec) {
        match shared.queue.try_push(key.clone()) {
            Ok(()) => Metrics::bump(&shared.metrics.accepted),
            Err(PushError::Full) => {
                shared.store.remove_if_queued(&key);
                Metrics::bump(&shared.metrics.rejected_queue_full);
                return error_response(&ErrorBody::new(
                    429,
                    "queue_full",
                    format!(
                        "admission queue is full ({} jobs); retry later",
                        shared.config.queue_capacity
                    ),
                ))
                .header("Retry-After", shared.config.retry_after_s.to_string());
            }
            Err(PushError::Draining) => {
                shared.store.remove_if_queued(&key);
                Metrics::bump(&shared.metrics.rejected_other);
                return error_response(&ErrorBody::new(
                    503,
                    "draining",
                    "server is draining and refuses new work",
                ));
            }
        }
    }
    // (an admit() of false coalesced onto an identical in-flight job,
    // or a finished one that failed or finished since the lookup — no
    // new queue slot, same key to wait on)

    match mode {
        SubmitMode::Async => HttpResponse::new(202)
            .header("X-Optpower-Key", key.clone())
            .body("application/json", status_json(&key, "queued")),
        SubmitMode::Sync => {
            let timeout = Duration::from_millis(shared.config.request_timeout_ms);
            match shared.store.wait_terminal(&key, timeout) {
                Some(JobState::Done(artifact)) => {
                    Metrics::bump(&shared.metrics.served);
                    artifact_response(format, &artifact, &key, "miss")
                }
                Some(JobState::Failed(body)) => error_response(&body),
                _ => {
                    Metrics::bump(&shared.metrics.timeouts);
                    error_response(&ErrorBody::new(
                        504,
                        "timeout",
                        format!(
                            "job {key} did not finish within {} ms; it keeps running — \
                             resubmit or poll /v1/jobs/{key}",
                            shared.config.request_timeout_ms
                        ),
                    ))
                }
            }
        }
    }
}

/// `GET /v1/jobs/<key>`: the status document while in flight, the
/// rendered artifact once done, the mapped error once failed.
fn poll(shared: &Shared, key: &str, request: &HttpRequest) -> HttpResponse {
    let Some(format) = WireFormat::from_accept(request.header("accept").unwrap_or("")) else {
        return error_response(&ErrorBody::new(
            406,
            "not_acceptable",
            "no supported media type in Accept (application/json, text/csv, text/plain)",
        ));
    };
    match shared.store.state(key) {
        None => error_response(&ErrorBody::new(
            404,
            "unknown_job",
            format!("no job {key:?} is tracked (never submitted, or evicted)"),
        )),
        Some(JobState::Done(artifact)) => {
            Metrics::bump(&shared.metrics.served);
            let label = artifact.meta.cache.map(|c| c.label()).unwrap_or("miss");
            artifact_response(format, &artifact, key, label)
        }
        Some(JobState::Failed(body)) => error_response(&body),
        Some(state) => {
            HttpResponse::new(200).body("application/json", status_json(key, state.label()))
        }
    }
}

fn artifact_response(
    format: WireFormat,
    artifact: &Artifact,
    key: &str,
    cache: &str,
) -> HttpResponse {
    HttpResponse::new(200)
        .header("X-Optpower-Key", key)
        .header("X-Optpower-Cache", cache)
        .body(format.content_type(), format.render(artifact))
}

fn error_response(body: &ErrorBody) -> HttpResponse {
    HttpResponse::new(body.status).body("application/json", body.to_json())
}
