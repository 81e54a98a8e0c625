//! The coordinator side: shard a spec, hand the shards out over TCP to
//! worker processes, survive worker death, and merge the results back
//! into the single-host envelope bit for bit.
//!
//! Three rules keep the merged artifact deterministic whatever the
//! cluster does:
//!
//! * **pull-based dispatch** — each round puts the missing shards in
//!   one queue and every live host (up to one per queued shard) pulls
//!   its next shard when idle, so no shard has a home host and a slow
//!   host simply takes fewer. The queue starts with the widest cells
//!   of a characterization (the costliest), as in Graham's
//!   longest-processing-time-first list scheduling;
//! * **result identity by shard key** — results are keyed by the shard
//!   spec's canonical key and merged in shard order, so retries,
//!   duplicates, arrival order and which host ran what cannot change
//!   the payload;
//! * **failure taxonomy** — a worker *death* (connect failure, EOF,
//!   heartbeat silence past the timeout) puts the shard it held back
//!   at the front of the queue for the surviving hosts and is visible
//!   only in `meta.dist.retries`, while a *deterministic* shard error
//!   (the job itself is invalid or unsolvable) stops the dispatch and
//!   fails the whole run: retrying a pure function cannot change its
//!   answer.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use optpower_explore::Workers;
use optpower_workload::{
    Artifact, CacheStatus, DistMeta, ErrorBody, JobSpec, Json, RowCacheStats, RunMeta, ShardFrame,
    ShardResult, SpecError, Store, WorkloadError,
};

/// Default per-shard silence window before a worker is declared dead.
/// Workers heartbeat every [`crate::HEARTBEAT_MS`], so this bounds
/// death *detection* latency, not shard compute time.
pub const DEFAULT_SHARD_TIMEOUT_MS: u64 = 10_000;

/// How a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// Local sharding/merge/validation failure.
    Workload(WorkloadError),
    /// A shard failed deterministically on a worker — the job is at
    /// fault, so the coordinator did not retry.
    Shard(ErrorBody),
    /// Every worker host died before the job completed.
    AllHostsDead {
        /// What happened to the last host.
        detail: String,
    },
}

impl From<WorkloadError> for DistError {
    fn from(e: WorkloadError) -> Self {
        DistError::Workload(e)
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Workload(e) => e.fmt(f),
            DistError::Shard(body) => write!(f, "shard failed: {}", body.message),
            DistError::AllHostsDead { detail } => {
                write!(f, "all worker hosts died ({detail})")
            }
        }
    }
}

impl std::error::Error for DistError {}

impl DistError {
    /// The frozen machine-readable form, for front-ends that signal
    /// through `optpower-error/v1`.
    pub fn error_body(&self) -> ErrorBody {
        match self {
            DistError::Workload(e) => ErrorBody::of(e),
            DistError::Shard(body) => body.clone(),
            DistError::AllHostsDead { detail } => ErrorBody::new(500, "worker_failed", detail),
        }
    }
}

/// Scheduling facts of one distributed run, for `/metrics` and logs.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Completed shards per host address (every configured host
    /// present, zero included).
    pub per_host: BTreeMap<String, u64>,
    /// Shards lost in flight: each was assigned to a worker that then
    /// died or fell silent past the timeout, and went back to the
    /// queue. At most one per dead host per round; a host that cannot
    /// be reached at all costs none.
    pub retries: u64,
    /// Shards the job was split into.
    pub shards: usize,
    /// Configured worker hosts.
    pub hosts: usize,
    /// Shards served from the coordinator's shard cache.
    pub shard_cache_hits: u64,
    /// Shards that had to travel to a worker.
    pub shard_cache_misses: u64,
    /// Worker artifact-cache hits across shards.
    pub cache_hits: u64,
    /// Worker artifact-cache misses across shards.
    pub cache_misses: u64,
    /// Worker row-cache counters summed across shards, when any
    /// worker reported them.
    pub row_cache: Option<RowCacheStats>,
    /// Coordinator wall clock of the whole run, in milliseconds.
    pub wall_ms: f64,
}

/// A merged distributed run: the three renderings (always), the typed
/// artifact when the kind reconstructs typed, and the scheduling
/// stats.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// The merged typed artifact with `meta.dist` stamped — present
    /// for the typed-merge kinds (`ab_initio`, `glitch_sweep`,
    /// `table1_sweep`); `None` for rendered-level merges (batch and
    /// indivisible jobs).
    pub artifact: Option<Artifact>,
    /// The full JSON envelope (payload + `meta` incl. `dist`).
    pub json: String,
    /// The deterministic payload document — byte-identical to the
    /// single-host [`Artifact::payload_json`].
    pub payload_json: String,
    /// The CSV rendering — byte-identical to the single-host one.
    pub csv: String,
    /// The console rendering — byte-identical to the single-host one.
    pub text: String,
    /// Scheduling facts of the run.
    pub stats: DistStats,
}

/// A coordinator over a fixed set of worker addresses.
#[derive(Clone)]
pub struct Cluster {
    hosts: Vec<String>,
    shards: usize,
    timeout_ms: u64,
    workers: Workers,
    cache: Option<Store<ShardResult>>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts)
            .field("shards", &self.shards)
            .field("timeout_ms", &self.timeout_ms)
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl Cluster {
    /// A cluster over `hosts` (worker `host:port` addresses),
    /// targeting one shard per host and the default timeout.
    pub fn new(hosts: Vec<String>) -> Self {
        let shards = hosts.len().max(1);
        Self {
            hosts,
            shards,
            timeout_ms: DEFAULT_SHARD_TIMEOUT_MS,
            workers: Workers::Auto,
            cache: None,
        }
    }

    /// Overrides the target shard count (the `n` handed to
    /// [`JobSpec::shard`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-shard silence timeout.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = timeout_ms.max(1);
        self
    }

    /// Worker policy of the coordinator's own (small) compute steps —
    /// currently only the glitch-sweep rebuild from merged rows.
    pub fn with_workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches a shard-result store, keyed by the shard spec's
    /// canonical JSON, consulted before fan-out and filled after every
    /// completed shard: a shard resubmitted after a retry (or by the
    /// next job sharing grid cells) never travels to a worker while
    /// resident.
    pub fn with_cache(mut self, cache: Store<ShardResult>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configured worker addresses.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// Runs one job across the cluster: shard, dispatch to whichever
    /// host is idle with retry-on-death, merge. The merged
    /// `payload_json`/`csv`/`text` are byte-identical to the
    /// single-host run; distribution shows up only in `meta.dist` and
    /// [`DistStats`].
    ///
    /// # Errors
    ///
    /// [`DistError`] — spec/merge problems, a deterministic shard
    /// failure, or the whole cluster dying.
    pub fn run(&self, spec: &JobSpec) -> Result<DistRun, DistError> {
        let started = Instant::now();
        if self.hosts.is_empty() {
            return Err(WorkloadError::from(SpecError::new(
                "a cluster needs at least one worker host",
            ))
            .into());
        }
        // A glitch sweep always decomposes (its payload has no typed
        // single-document re-parser, but its ab-initio cells do);
        // every other kind honours the requested count, including the
        // n = 1 pass-through.
        let target = match spec {
            JobSpec::GlitchSweep(_) => self.shards.max(2),
            _ => self.shards,
        };
        let keyed: Vec<(String, JobSpec)> = spec
            .shard(target)?
            .into_iter()
            .map(|s| (s.canonical_key(), s))
            .collect();
        let mut stats = DistStats {
            per_host: self.hosts.iter().map(|h| (h.clone(), 0)).collect(),
            shards: keyed.len(),
            hosts: self.hosts.len(),
            ..DistStats::default()
        };
        let mut results: HashMap<String, ShardResult> = HashMap::new();
        if let Some(cache) = &self.cache {
            for (key, shard) in &keyed {
                match cache.get(&shard.canonical_json()) {
                    Some(r) => {
                        results.insert(key.clone(), r);
                        stats.shard_cache_hits += 1;
                    }
                    None => stats.shard_cache_misses += 1,
                }
            }
        }
        let mut queue: VecDeque<&(String, JobSpec)> = dispatch_order(spec, &keyed)
            .into_iter()
            .filter(|(k, _)| !results.contains_key(k))
            .collect();
        let mut alive = self.hosts.clone();
        let mut last_death = String::from("no host contacted");
        // A round ends when its live hosts have drained the queue or
        // died; the next round only restarts what no live host was
        // left to take.
        while !queue.is_empty() {
            if alive.is_empty() {
                return Err(DistError::AllHostsDead { detail: last_death });
            }
            // A host beyond one per queued shard would find the queue
            // empty, so it gets no thread; the first host runs on this
            // one, and a single-shard round spawns nothing.
            let (first, rest) = alive[..alive.len().min(queue.len())]
                .split_first()
                .expect("a round starts with a live host and a queued shard");
            let dispatch = Dispatch {
                queue: Mutex::new(queue),
                stop: AtomicBool::new(false),
            };
            let timeout_ms = self.timeout_ms;
            let round: Vec<HostOutcome> = thread::scope(|scope| {
                let dispatch = &dispatch;
                let handles: Vec<_> = rest
                    .iter()
                    .map(|host| scope.spawn(move || run_host(host, dispatch, timeout_ms)))
                    .collect();
                let mut round = vec![run_host(first, dispatch, timeout_ms)];
                round.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("host thread does not panic")),
                );
                round
            });
            queue = dispatch
                .queue
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            let mut failed = None;
            let mut dead = Vec::new();
            for (host, outcome) in alive.iter().zip(round) {
                *stats.per_host.entry(host.clone()).or_insert(0) += outcome.completed.len() as u64;
                for ((key, shard), r) in outcome.completed {
                    if let Some(cache) = &self.cache {
                        cache.insert(shard.canonical_json(), r.clone());
                    }
                    results.insert(key.clone(), r);
                }
                failed = failed.or(outcome.failed);
                match outcome.death {
                    Some(Death::Unreachable) => {
                        last_death = format!("{host} could not be reached");
                        dead.push(host.clone());
                    }
                    Some(Death::LostShard) => {
                        stats.retries += 1;
                        last_death = format!("{host} stopped responding");
                        dead.push(host.clone());
                    }
                    None => {}
                }
            }
            if let Some(body) = failed {
                return Err(DistError::Shard(body));
            }
            alive.retain(|h| !dead.contains(h));
        }
        // Everything below is pure merging; order results in shard
        // order so arrival order is irrelevant.
        let ordered: Vec<ShardResult> = keyed
            .iter()
            .map(|(k, _)| results.remove(k).expect("loop exits only when complete"))
            .collect();
        for r in &ordered {
            match r.cache {
                Some(CacheStatus::Hit) => stats.cache_hits += 1,
                Some(CacheStatus::Miss) => stats.cache_misses += 1,
                None => {}
            }
            if let Some(rc) = r.row_cache {
                let sum = stats.row_cache.get_or_insert_with(RowCacheStats::default);
                sum.hits += rc.hits;
                sum.misses += rc.misses;
            }
        }
        let dist = DistMeta {
            hosts: self.hosts.len(),
            shards: keyed.len(),
            retries: stats.retries,
        };
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.merge(spec, &keyed, ordered, dist, stats)
    }

    fn merge(
        &self,
        spec: &JobSpec,
        keyed: &[(String, JobSpec)],
        ordered: Vec<ShardResult>,
        dist: DistMeta,
        stats: DistStats,
    ) -> Result<DistRun, DistError> {
        // A single shard whose spec IS the whole job (the n = 1 path
        // of every kind, batches included) needs no recomposition.
        let passthrough = keyed.len() == 1 && keyed[0].0 == spec.canonical_key();
        match spec {
            // Typed merge: re-parse shard payloads into real rows and
            // reassemble in spec order.
            JobSpec::AbInitio(_) | JobSpec::GlitchSweep(_) | JobSpec::Table1Sweep { .. } => {
                let artifacts = ordered
                    .iter()
                    .map(|r| Artifact::from_payload_json(&r.payload_json))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut artifact = Artifact::merge_shards(spec, artifacts, self.workers)?;
                artifact.meta = RunMeta {
                    row_cache: stats.row_cache,
                    ..self.meta(spec, &stats, dist)
                };
                let payload_json = artifact.payload_json();
                Ok(DistRun {
                    json: artifact.meta.envelope(&payload_json),
                    payload_json,
                    csv: artifact.to_csv(),
                    text: artifact.render_text(),
                    artifact: Some(artifact),
                    stats,
                })
            }
            // Rendered merge: member documents recompose exactly
            // because the JSON tree round-trips bytes.
            JobSpec::Batch(jobs) if !passthrough => {
                let mut by_key: HashMap<String, &ShardResult> = HashMap::new();
                for (i, (key, _)) in keyed.iter().enumerate() {
                    by_key.insert(key.clone(), &ordered[i]);
                }
                let mut entries = Vec::new();
                let mut csv = String::new();
                let mut texts = Vec::new();
                for job in jobs {
                    let r = by_key.get(&job.canonical_key()).ok_or_else(|| {
                        WorkloadError::from(SpecError::new(format!(
                            "shard results missing batch member {:?}",
                            job.kind()
                        )))
                    })?;
                    let doc = parse_payload_doc(&r.payload_json)?;
                    entries.push(Json::obj([
                        ("job", field(&doc, "job")?),
                        ("spec", field(&doc, "spec")?),
                        ("payload", field(&doc, "payload")?),
                    ]));
                    csv.push_str(&format!("# job: {}\n", job.kind()));
                    csv.push_str(&r.csv);
                    texts.push(r.text.clone());
                }
                let payload_doc = Json::obj([
                    ("schema", Json::str("optpower-workload/v1")),
                    ("job", Json::str("batch")),
                    ("spec", spec.to_json_value()),
                    ("payload", Json::Arr(entries)),
                ]);
                let payload_json = payload_doc.to_string();
                let json = self.meta(spec, &stats, dist).envelope(&payload_json);
                Ok(DistRun {
                    artifact: None,
                    json,
                    payload_json,
                    csv,
                    text: texts.join("\n"),
                    stats,
                })
            }
            // Indivisible job: the single shard's renderings pass
            // through verbatim; only the envelope meta is rebuilt.
            _ => {
                let r = ordered.into_iter().next().ok_or_else(|| {
                    WorkloadError::from(SpecError::new("no shard results to merge"))
                })?;
                let mut meta = self.meta(spec, &stats, dist);
                meta.cache = r.cache;
                meta.row_cache = r.row_cache;
                // The worker's document, re-rendered compact, must be
                // an object for meta to be spliced into it.
                let doc = parse_payload_doc(&r.payload_json)?;
                let Json::Obj(_) = doc else {
                    return Err(WorkloadError::from(SpecError::new(
                        "shard payload document is not an object",
                    ))
                    .into());
                };
                let json = meta.envelope(&doc.to_string());
                Ok(DistRun {
                    artifact: None,
                    json,
                    payload_json: r.payload_json,
                    csv: r.csv,
                    text: r.text,
                    stats,
                })
            }
        }
    }

    /// The envelope meta of a merged run: seed and engine from the
    /// spec, the coordinator's resolved workers, its wall time and the
    /// cluster shape.
    fn meta(&self, spec: &JobSpec, stats: &DistStats, dist: DistMeta) -> RunMeta {
        RunMeta {
            wall_ms: stats.wall_ms,
            dist: Some(dist),
            ..RunMeta::for_spec(spec, self.workers.count())
        }
    }
}

/// The order a job's shards are handed out in. The cells of a
/// characterization (`ab_initio`, `glitch_sweep`) go widest operand
/// first, each width in resolution order: a cell's cost grows steeply
/// with its width, and starting the costliest first keeps one of them
/// from running alone at the end. Every other job keeps resolution
/// order. Only the shard specs are read; nothing is generated.
fn dispatch_order<'a>(
    spec: &JobSpec,
    keyed: &'a [(String, JobSpec)],
) -> Vec<&'a (String, JobSpec)> {
    let mut order: Vec<_> = keyed.iter().collect();
    if matches!(spec, JobSpec::AbInitio(_) | JobSpec::GlitchSweep(_)) {
        order.sort_by_key(|(_, shard)| match shard {
            JobSpec::AbInitio(cell) => Reverse(cell.width),
            _ => Reverse(0),
        });
    }
    order
}

/// One round's shared dispatch state: the shards still to hand out,
/// front first, and the stop flag a deterministic failure raises.
struct Dispatch<'a> {
    queue: Mutex<VecDeque<&'a (String, JobSpec)>>,
    stop: AtomicBool,
}

impl<'a> Dispatch<'a> {
    /// The next shard to run, unless the queue is drained or the run
    /// has already failed.
    fn pull(&self) -> Option<&'a (String, JobSpec)> {
        if self.stop.load(Ordering::SeqCst) {
            return None;
        }
        self.queue().pop_front()
    }

    /// Puts a shard a host could not finish back at the front, for the
    /// next host that pulls.
    fn hand_back(&self, shard: &'a (String, JobSpec)) {
        self.queue().push_front(shard);
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<&'a (String, JobSpec)>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Why a host left its round early.
enum Death {
    /// Connect or Hello failed: its shard never left the coordinator.
    Unreachable,
    /// It took a shard and then failed to answer it.
    LostShard,
}

/// What one host did in a round.
#[derive(Default)]
struct HostOutcome<'a> {
    completed: Vec<(&'a (String, JobSpec), ShardResult)>,
    failed: Option<ErrorBody>,
    death: Option<Death>,
}

/// Drives one host through a round: pull a shard, connect on the
/// first one, send `Assign`, wait for its `Result`, pull the next. A
/// host that never pulls a shard never connects. Any transport
/// irregularity — connect failure, missing Hello, EOF, a read timing
/// out past the heartbeat window — ends the host's round and hands its
/// shard back; only an explicit Error frame is a deterministic job
/// failure, and it stops every host from pulling more.
fn run_host<'a>(host: &str, dispatch: &Dispatch<'a>, timeout_ms: u64) -> HostOutcome<'a> {
    let mut out = HostOutcome::default();
    let mut conn: Option<TcpStream> = None;
    while let Some(shard) = dispatch.pull() {
        let stream = match &mut conn {
            Some(stream) => stream,
            None => match connect(host, timeout_ms) {
                Some(stream) => conn.insert(stream),
                None => {
                    dispatch.hand_back(shard);
                    out.death = Some(Death::Unreachable);
                    return out;
                }
            },
        };
        match exchange(stream, shard) {
            Some(Ok(result)) => out.completed.push((shard, result)),
            Some(Err(error)) => {
                dispatch.stop.store(true, Ordering::SeqCst);
                out.failed = Some(error);
                return out;
            }
            None => {
                dispatch.hand_back(shard);
                out.death = Some(Death::LostShard);
                return out;
            }
        }
    }
    out
}

/// Opens a connection to `host` and reads its Hello; `None` when the
/// host cannot be reached.
fn connect(host: &str, timeout_ms: u64) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(host).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(timeout_ms)));
    let _ = stream.set_nodelay(true);
    match ShardFrame::read_from(&mut stream) {
        Ok(ShardFrame::Hello { .. }) => Some(stream),
        _ => None,
    }
}

/// Sends one shard and waits through its heartbeats for the answer:
/// the shard's result, or the worker's deterministic error, or `None`
/// when the shard was lost in flight.
fn exchange(
    stream: &mut TcpStream,
    (key, spec): &(String, JobSpec),
) -> Option<Result<ShardResult, ErrorBody>> {
    let assign = ShardFrame::Assign {
        shard: key.clone(),
        spec: spec.clone(),
    };
    assign.write_to(stream).ok()?;
    loop {
        match ShardFrame::read_from(stream) {
            Ok(ShardFrame::Heartbeat { .. }) => continue,
            Ok(ShardFrame::Result(r)) if r.shard == *key => return Some(Ok(*r)),
            Ok(ShardFrame::Error { error, .. }) => return Some(Err(error)),
            Ok(_) | Err(_) => return None,
        }
    }
}

fn parse_payload_doc(text: &str) -> Result<Json, WorkloadError> {
    Json::parse(text).map_err(|e| SpecError::new(e.to_string()).into())
}

fn field(doc: &Json, key: &str) -> Result<Json, WorkloadError> {
    doc.get(key)
        .cloned()
        .ok_or_else(|| SpecError::new(format!("shard payload document lacks {key:?}")).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 4-width glitch sweep perfbench's `cluster_sweep` runs, cut
    /// into one shard per cell, is queued 32-bit first with each width
    /// in resolution order; a `table1_sweep`'s row shards keep
    /// resolution order.
    #[test]
    fn dispatch_queues_the_widest_cells_first() {
        let keyed = |spec: &JobSpec, n| -> Vec<(String, JobSpec)> {
            let shards = spec.shard(n).expect("shardable");
            shards.into_iter().map(|s| (s.canonical_key(), s)).collect()
        };
        let sweep =
            JobSpec::from_json(r#"{"job":"glitch_sweep","widths":[8,16,24,32],"items":120}"#)
                .expect("valid spec");
        let shards = keyed(&sweep, 64);
        assert_eq!(shards.len(), 49);
        let width = |shard: &JobSpec| match shard {
            JobSpec::AbInitio(cell) => cell.width,
            other => panic!("{other:?}"),
        };
        let queued: Vec<(usize, &String)> = dispatch_order(&sweep, &shards)
            .into_iter()
            .map(|(key, shard)| (width(shard), key))
            .collect();
        let mut expected = Vec::new();
        for w in [32, 24, 16, 8] {
            expected.extend(
                shards
                    .iter()
                    .filter(|(_, shard)| width(shard) == w)
                    .map(|(key, _)| (w, key)),
            );
        }
        assert_eq!(queued, expected);

        let table = JobSpec::Table1Sweep { archs: None };
        let rows = keyed(&table, 13);
        assert_eq!(rows.len(), 13);
        let order: Vec<&String> = dispatch_order(&table, &rows)
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        assert_eq!(order, rows.iter().map(|(key, _)| key).collect::<Vec<_>>());
    }

    /// A cluster with no hosts fails fast with a typed error.
    #[test]
    fn empty_cluster_is_a_spec_error() {
        let err = Cluster::new(Vec::new())
            .run(&JobSpec::Table2)
            .expect_err("no hosts");
        assert!(matches!(err, DistError::Workload(WorkloadError::Spec(_))));
        assert_eq!(err.error_body().code, "invalid_spec");
    }
}
