//! The coordinator side: shard a spec, fan the shards out over TCP to
//! worker processes, survive worker death, and merge the results back
//! into the single-host envelope bit for bit.
//!
//! Three rules keep the merged artifact deterministic whatever the
//! cluster does:
//!
//! * **deterministic assignment** — each shard's home host is the
//!   rendezvous-hash winner over the *alive* host set
//!   ([`assign_host`]), so two coordinators with the same host list
//!   agree, and losing a host only moves that host's shards;
//! * **result identity by shard key** — results are keyed by the shard
//!   spec's canonical key and merged in shard order, so retries,
//!   duplicates and arrival order cannot change the payload;
//! * **failure taxonomy** — a worker *death* (connect failure, EOF,
//!   heartbeat silence past the timeout) retries the unfinished
//!   shards elsewhere and is visible only in `meta.dist.retries`,
//!   while a *deterministic* shard error (the job itself is invalid
//!   or unsolvable) fails the whole run immediately: retrying a pure
//!   function cannot change its answer.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use optpower_explore::Workers;
use optpower_workload::{
    fnv1a_64, Artifact, CacheStatus, DistMeta, ErrorBody, JobSpec, Json, RowCacheStats, RunMeta,
    ShardFrame, ShardResult, SpecError, Store, WorkloadError,
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
    /// Shards reassigned after a worker death or timeout.
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

/// The deterministic shard → host map: highest-random-weight
/// (rendezvous) hash of `"{shard_key}|{host}"` over the alive host
/// set; ties break to the lexicographically smallest host. Removing a
/// dead host only remaps that host's shards — everything else keeps
/// its assignment, which is what makes retry placement stable and
/// testable.
pub fn assign_host<'a>(hosts: &'a [String], shard_key: &str) -> &'a str {
    hosts
        .iter()
        .max_by(|a, b| {
            let wa = fnv1a_64(format!("{shard_key}|{a}").as_bytes());
            let wb = fnv1a_64(format!("{shard_key}|{b}").as_bytes());
            wa.cmp(&wb).then_with(|| b.cmp(a))
        })
        .expect("assign_host requires a non-empty host list")
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

    /// Runs one job across the cluster: shard, assign, execute with
    /// retry-on-death, merge. The merged `payload_json`/`csv`/`text`
    /// are byte-identical to the single-host run; distribution shows
    /// up only in `meta.dist` and [`DistStats`].
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
        let mut alive = self.hosts.clone();
        let mut last_death = String::from("no host contacted");
        while results.len() < keyed.len() {
            if alive.is_empty() {
                return Err(DistError::AllHostsDead { detail: last_death });
            }
            let mut assignment: BTreeMap<String, Vec<&(String, JobSpec)>> = BTreeMap::new();
            for pair in keyed.iter().filter(|(k, _)| !results.contains_key(k)) {
                assignment
                    .entry(assign_host(&alive, &pair.0).to_string())
                    .or_default()
                    .push(pair);
            }
            let timeout_ms = self.timeout_ms;
            let round: Vec<(String, usize, HostOutcome)> = thread::scope(|scope| {
                let handles: Vec<_> = assignment
                    .iter()
                    .map(|(host, shards)| {
                        scope.spawn(move || {
                            (
                                host.clone(),
                                shards.len(),
                                run_host(host, shards, timeout_ms),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("host thread does not panic"))
                    .collect()
            });
            for (host, assigned, outcome) in round {
                let completed = outcome.completed.len() as u64;
                *stats.per_host.entry(host.clone()).or_insert(0) += completed;
                for r in outcome.completed {
                    if let Some(cache) = &self.cache {
                        if let Some((_, shard)) = keyed.iter().find(|(k, _)| *k == r.shard) {
                            cache.insert(shard.canonical_json(), r.clone());
                        }
                    }
                    results.insert(r.shard.clone(), r);
                }
                if let Some(body) = outcome.failed {
                    return Err(DistError::Shard(body));
                }
                if outcome.died {
                    stats.retries += assigned as u64 - completed;
                    last_death = format!("{host} stopped responding");
                    alive.retain(|h| h != &host);
                }
            }
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
                Ok(DistRun {
                    json: artifact.to_json(),
                    payload_json: artifact.payload_json(),
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
                let json = self.meta(spec, &stats, dist).envelope(payload_doc);
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
                let json = meta.envelope(parse_payload_doc(&r.payload_json)?);
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

#[derive(Default)]
struct HostOutcome {
    completed: Vec<ShardResult>,
    failed: Option<ErrorBody>,
    died: bool,
}

/// Drives one host through its assigned shards over one connection.
/// Any transport irregularity — connect failure, missing Hello, EOF,
/// a read timing out past the heartbeat window — marks the host dead;
/// only an explicit Error frame is a deterministic job failure.
fn run_host(host: &str, shards: &[&(String, JobSpec)], timeout_ms: u64) -> HostOutcome {
    let mut out = HostOutcome::default();
    let mut stream = match TcpStream::connect(host) {
        Ok(s) => s,
        Err(_) => {
            out.died = true;
            return out;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(timeout_ms)));
    let _ = stream.set_nodelay(true);
    match ShardFrame::read_from(&mut stream) {
        Ok(ShardFrame::Hello { .. }) => {}
        _ => {
            out.died = true;
            return out;
        }
    }
    for (key, spec) in shards {
        let assign = ShardFrame::Assign {
            shard: key.clone(),
            spec: spec.clone(),
        };
        if assign.write_to(&mut stream).is_err() {
            out.died = true;
            return out;
        }
        loop {
            match ShardFrame::read_from(&mut stream) {
                Ok(ShardFrame::Heartbeat { .. }) => continue,
                Ok(ShardFrame::Result(r)) if r.shard == *key => {
                    out.completed.push(*r);
                    break;
                }
                Ok(ShardFrame::Error { error, .. }) => {
                    out.failed = Some(error);
                    return out;
                }
                Ok(_) | Err(_) => {
                    out.died = true;
                    return out;
                }
            }
        }
    }
    out
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

    /// Rendezvous assignment is deterministic, total, and minimally
    /// disruptive: removing a host only remaps that host's shards.
    #[test]
    fn rendezvous_assignment_is_stable_under_host_loss() {
        let hosts: Vec<String> = ["h1:1", "h2:1", "h3:1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let keys: Vec<String> = (0..64).map(|i| format!("{i:016x}")).collect();
        let full: Vec<&str> = keys.iter().map(|k| assign_host(&hosts, k)).collect();
        // Deterministic: same inputs, same answers.
        for (k, &h) in keys.iter().zip(&full) {
            assert_eq!(assign_host(&hosts, k), h);
        }
        // Every host gets some work on a 64-shard axis.
        for h in &hosts {
            assert!(full.iter().any(|&a| a == h), "{h} got nothing");
        }
        // Minimal disruption: dropping h2 remaps only h2's shards.
        let reduced: Vec<String> = hosts.iter().filter(|h| *h != "h2:1").cloned().collect();
        for (k, &before) in keys.iter().zip(&full) {
            let after = assign_host(&reduced, k);
            if before != "h2:1" {
                assert_eq!(after, before, "{k} moved needlessly");
            } else {
                assert_ne!(after, "h2:1");
            }
        }
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
