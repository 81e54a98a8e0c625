//! Fault injection for the coordinator/worker cluster: a worker that
//! dies mid-shard (socket dropped right after accepting the Assign)
//! must never change the merged artifact — the retried run's
//! `payload_json` and CSV must be byte-identical to both a fault-free
//! cluster run and the single-host run, with the death visible only
//! in `meta.dist.retries` and the per-host shard counts. Plus the
//! retry/cache composition: resubmitting after the fault through a
//! shard cache answers every shard without touching a worker.

use std::net::{SocketAddr, TcpListener};
use std::thread;

use optpower_dist::{assign_host, spawn, Cluster};
use optpower_explore::Workers;
use optpower_workload::{AbInitioSpec, JobSpec, Runtime, ShardFrame, Store};

/// A worker that speaks just enough protocol to be assigned work and
/// then dies: accept, Hello, read the first Assign, drop the socket.
/// From the coordinator's side this is a worker crashing mid-shard.
fn spawn_faulty_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind faulty worker");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = ShardFrame::Hello {
                host: addr.to_string(),
            }
            .write_to(&mut stream);
            let _ = ShardFrame::read_from(&mut stream);
            // Dropping the stream here is the mid-shard death: the
            // coordinator sees EOF where a Heartbeat/Result was due.
        }
    });
    addr
}

fn small_suite() -> JobSpec {
    JobSpec::AbInitio(AbInitioSpec {
        archs: Some(vec![
            "RCA".to_string(),
            "RCA parallel".to_string(),
            "Wallace".to_string(),
            "Wallace parallel".to_string(),
        ]),
        items: 16,
        ..AbInitioSpec::default()
    })
}

#[test]
fn worker_death_mid_shard_retries_without_changing_a_byte() {
    let spec = small_suite();
    let shard_keys: Vec<String> = spec
        .shard(4)
        .expect("shardable")
        .iter()
        .map(|s| s.canonical_key())
        .collect();

    let healthy = spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("healthy worker");

    // Rendezvous placement is deterministic in (shard key, host
    // address), so bind fresh faulty listeners until one actually
    // wins a shard — then the death is guaranteed to happen.
    let (faulty, hosts) = loop {
        let candidate = spawn_faulty_worker();
        let hosts = vec![healthy.addr().to_string(), candidate.to_string()];
        let victim = candidate.to_string();
        if shard_keys.iter().any(|k| assign_host(&hosts, k) == victim) {
            break (victim, hosts);
        }
    };
    let planned_deaths = shard_keys
        .iter()
        .filter(|k| assign_host(&hosts, k) == faulty)
        .count() as u64;

    // Baselines: single-host, and a fault-free two-worker cluster.
    let local = Runtime::new(Workers::Fixed(1))
        .run(&spec)
        .expect("local run");
    let spare = spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("spare worker");
    let fault_free = Cluster::new(vec![healthy.addr().to_string(), spare.addr().to_string()])
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .run(&spec)
        .expect("fault-free cluster run");

    let faulted = Cluster::new(hosts)
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_timeout_ms(5_000)
        .run(&spec)
        .expect("faulted cluster run survives the death");

    // Byte identity against both baselines.
    assert_eq!(faulted.payload_json, local.payload_json());
    assert_eq!(faulted.csv, local.to_csv());
    assert_eq!(faulted.text, local.render_text());
    assert_eq!(faulted.payload_json, fault_free.payload_json);
    assert_eq!(faulted.csv, fault_free.csv);

    // The death is recorded — and only in the metadata.
    assert_eq!(faulted.stats.retries, planned_deaths);
    assert_eq!(faulted.stats.per_host.get(&faulty), Some(&0));
    let artifact = faulted.artifact.expect("typed merge");
    let dist = artifact.meta.dist.expect("dist meta stamped");
    assert_eq!(dist.retries, planned_deaths);
    assert_eq!((dist.hosts, dist.shards), (2, 4));
    let clean = fault_free.artifact.expect("typed merge");
    assert_eq!(clean.meta.dist.expect("dist meta").retries, 0);
}

/// The retry/cache composition: a coordinator that survived a worker
/// death fills its shard cache, so resubmitting the same job answers
/// every shard from the cache — zero worker traffic, same bytes.
#[test]
fn resubmission_after_a_fault_is_a_pure_shard_cache_hit() {
    let spec = small_suite();
    let shard_keys: Vec<String> = spec
        .shard(4)
        .expect("shardable")
        .iter()
        .map(|s| s.canonical_key())
        .collect();
    let healthy = spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("healthy worker");
    let hosts = loop {
        let candidate = spawn_faulty_worker();
        let hosts = vec![healthy.addr().to_string(), candidate.to_string()];
        let victim = candidate.to_string();
        if shard_keys.iter().any(|k| assign_host(&hosts, k) == victim) {
            break hosts;
        }
    };

    let cache = Store::new(64);
    let first = Cluster::new(hosts)
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_timeout_ms(5_000)
        .with_cache(cache.clone())
        .run(&spec)
        .expect("first run survives the death");
    assert!(first.stats.retries >= 1);
    assert_eq!(first.stats.shard_cache_hits, 0);

    // Resubmit against a cluster whose only "worker" address is a
    // dead port: every shard must come from the cache, or this run
    // could not succeed at all.
    let resubmit = Cluster::new(vec!["127.0.0.1:1".to_string()])
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_cache(cache.clone())
        .run(&spec)
        .expect("cache-only run");
    assert_eq!(resubmit.stats.shard_cache_hits, 4);
    assert_eq!(resubmit.stats.shard_cache_misses, 0);
    assert_eq!(resubmit.payload_json, first.payload_json);
    assert_eq!(resubmit.csv, first.csv);
    assert_eq!(
        resubmit.artifact.expect("typed merge").meta.dist,
        Some(optpower_workload::DistMeta {
            hosts: 1,
            shards: 4,
            retries: 0,
        })
    );
}
