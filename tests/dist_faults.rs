//! Fault injection for the coordinator/worker cluster, and the
//! dispatch's connection discipline. Hosts pull shards from one queue,
//! so which host runs which shard is not fixed; what is fixed is how
//! each fault is accounted:
//!
//! * a worker that dies mid-shard (socket dropped right after reading
//!   the Assign) loses exactly the one shard it held — one retry — and
//!   never changes the merged artifact: `payload_json`, CSV and text
//!   stay byte-identical to a fault-free cluster run and to the
//!   single-host run;
//! * a host that cannot be reached never held a shard: no retry;
//! * a worker that answers with an Error frame fails the run with that
//!   error: nothing is re-sent, and the other hosts finish the shard
//!   they hold and pull no more;
//! * a host connects only once it holds a shard, so a job that does
//!   not split opens one connection.
//!
//! Plus the retry/cache composition: resubmitting after the fault
//! through a shard cache answers every shard without touching a
//! worker.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use optpower_dist::{spawn, Cluster, DistError, WorkerHandle};
use optpower_explore::Workers;
use optpower_workload::{
    AbInitioSpec, ErrorBody, JobSpec, Runtime, ShardFrame, ShardResult, Store,
};

/// A worker that speaks just enough protocol to be assigned work and
/// then dies: accept, Hello, read the first Assign, signal `read`,
/// drop the socket. From the coordinator's side this is a worker
/// crashing mid-shard. The counter reports how many Assigns it read.
fn spawn_faulty_worker(read: mpsc::Sender<()>) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind faulty worker");
    let addr = listener.local_addr().expect("local addr");
    let assigns = Arc::new(AtomicUsize::new(0));
    let seen = assigns.clone();
    thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = ShardFrame::Hello {
                host: addr.to_string(),
            }
            .write_to(&mut stream);
            if let Ok(ShardFrame::Assign { .. }) = ShardFrame::read_from(&mut stream) {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            let _ = read.send(());
            // Dropping the stream here is the mid-shard death: the
            // coordinator sees EOF where a Heartbeat/Result was due.
        }
    });
    (addr, assigns)
}

/// A loopback relay in front of `target` that counts the connections
/// it accepts and, given a `gate`, accepts none before the gate fires
/// (the connecting host waits for its Hello meanwhile).
fn relay(target: SocketAddr, gate: Option<mpsc::Receiver<()>>) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("local addr").to_string();
    let accepted = Arc::new(AtomicUsize::new(0));
    let seen = accepted.clone();
    thread::spawn(move || {
        if let Some(gate) = gate {
            let _ = gate.recv();
        }
        for client in listener.incoming().flatten() {
            seen.fetch_add(1, Ordering::SeqCst);
            let Ok(server) = TcpStream::connect(target) else {
                continue;
            };
            let pipe = |mut from: TcpStream, mut to: TcpStream| {
                thread::spawn(move || {
                    let _ = io::copy(&mut from, &mut to);
                    let _ = to.shutdown(Shutdown::Write);
                });
            };
            pipe(
                client.try_clone().expect("clone client"),
                server.try_clone().expect("clone server"),
            );
            pipe(server, client);
        }
    });
    (addr, accepted)
}

/// A healthy worker behind a relay that opens only once the faulty
/// worker has read its Assign: the healthy host cannot finish any
/// shard before the faulty one holds one, so the death always happens.
/// Returns the healthy worker, both host addresses (healthy first) and
/// the faulty worker's Assign count.
fn healthy_and_faulty() -> (WorkerHandle, [String; 2], Arc<AtomicUsize>) {
    let healthy = healthy_worker();
    let (read, gate) = mpsc::channel();
    let (faulty, assigns) = spawn_faulty_worker(read);
    let (gated, _) = relay(healthy.addr(), Some(gate));
    (healthy, [gated, faulty.to_string()], assigns)
}

fn healthy_worker() -> WorkerHandle {
    spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("healthy worker")
}

fn cluster(hosts: Vec<String>) -> Cluster {
    Cluster::new(hosts)
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_timeout_ms(5_000)
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
    let (healthy, [gated, faulty], assigns) = healthy_and_faulty();

    // Baselines: single-host, and a fault-free two-worker cluster.
    let local = Runtime::new(Workers::Fixed(1))
        .run(&spec)
        .expect("local run");
    let spare = healthy_worker();
    let fault_free = cluster(vec![healthy.addr().to_string(), spare.addr().to_string()])
        .run(&spec)
        .expect("fault-free cluster run");

    let faulted = cluster(vec![gated.clone(), faulty.clone()])
        .run(&spec)
        .expect("faulted cluster run survives the death");

    // Byte identity against both baselines.
    assert_eq!(faulted.payload_json, local.payload_json());
    assert_eq!(faulted.csv, local.to_csv());
    assert_eq!(faulted.text, local.render_text());
    assert_eq!(faulted.payload_json, fault_free.payload_json);
    assert_eq!(faulted.csv, fault_free.csv);

    // The dead host lost exactly the one shard it pulled, and that
    // loss is recorded only in the metadata.
    let lost = assigns.load(Ordering::SeqCst) as u64;
    assert_eq!(lost, 1);
    assert_eq!(faulted.stats.retries, lost);
    assert_eq!(faulted.stats.per_host.get(&faulty), Some(&0));
    assert_eq!(faulted.stats.per_host.get(&gated), Some(&4));
    let artifact = faulted.artifact.expect("typed merge");
    let dist = artifact.meta.dist.expect("dist meta stamped");
    assert_eq!(dist.retries, lost);
    assert_eq!((dist.hosts, dist.shards), (2, 4));
    let clean = fault_free.artifact.expect("typed merge");
    assert_eq!(clean.meta.dist.expect("dist meta").retries, 0);
}

/// A host that refuses connections never held a shard, so losing it
/// costs no retry: the other host runs every shard and the merge is
/// byte-identical to the single-host run.
#[test]
fn an_unreachable_host_costs_no_retry() {
    let spec = small_suite();
    let healthy = healthy_worker();
    // A port that was bound and released: connecting is refused.
    let unreachable = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("local addr").to_string()
    };
    let run = cluster(vec![healthy.addr().to_string(), unreachable.clone()])
        .run(&spec)
        .expect("the reachable host finishes the job");
    let local = Runtime::new(Workers::Fixed(1))
        .run(&spec)
        .expect("local run");
    assert_eq!(run.payload_json, local.payload_json());
    assert_eq!(run.csv, local.to_csv());
    assert_eq!(run.text, local.render_text());
    assert_eq!(run.stats.retries, 0);
    assert_eq!(run.stats.per_host.get(&unreachable), Some(&0));
    assert_eq!(
        run.stats.per_host.get(&healthy.addr().to_string()),
        Some(&4)
    );
    let dist = run.artifact.expect("typed merge").meta.dist.expect("dist");
    assert_eq!((dist.hosts, dist.shards, dist.retries), (2, 4, 0));
}

/// A shard that fails deterministically stops the dispatch. Worker E
/// answers its Assign with an Error frame once worker C holds a shard;
/// C answers only after the coordinator has hung up on E, which it
/// does after raising the stop flag. The run fails with E's error, E
/// is not sent its shard again (it keeps accepting, so a retry would
/// show as a second Assign), and C finishes the shard it holds and
/// pulls nothing more.
#[test]
fn a_deterministic_shard_error_fails_the_run_without_retry() {
    let (held, c_holds) = mpsc::channel();
    let (hung_up, e_closed) = mpsc::channel();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind erroring worker");
    let erroring = listener.local_addr().expect("local addr");
    let e_assigns = Arc::new(AtomicUsize::new(0));
    let seen = e_assigns.clone();
    thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let _ = ShardFrame::Hello {
                host: erroring.to_string(),
            }
            .write_to(&mut stream);
            while let Ok(ShardFrame::Assign { shard, .. }) = ShardFrame::read_from(&mut stream) {
                seen.fetch_add(1, Ordering::SeqCst);
                let _ = c_holds.recv();
                let error = ErrorBody::new(422, "model_failed", "no optimum");
                let _ = ShardFrame::Error { shard, error }.write_to(&mut stream);
            }
            let _ = hung_up.send(());
        }
    });

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind holding worker");
    let holding = listener.local_addr().expect("local addr");
    let c_assigns = Arc::new(AtomicUsize::new(0));
    let seen = c_assigns.clone();
    thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let _ = ShardFrame::Hello {
                host: holding.to_string(),
            }
            .write_to(&mut stream);
            while let Ok(ShardFrame::Assign { shard, .. }) = ShardFrame::read_from(&mut stream) {
                seen.fetch_add(1, Ordering::SeqCst);
                let _ = held.send(());
                let _ = e_closed.recv();
                // The run fails, so the payload is never merged.
                let result = ShardResult {
                    shard,
                    payload_json: String::new(),
                    csv: String::new(),
                    text: String::new(),
                    wall_ms: 0.0,
                    cache: None,
                    row_cache: None,
                };
                let _ = ShardFrame::Result(Box::new(result)).write_to(&mut stream);
            }
        }
    });

    let err = cluster(vec![erroring.to_string(), holding.to_string()])
        .run(&small_suite())
        .expect_err("a deterministic error fails the run");
    match &err {
        DistError::Shard(body) => {
            assert_eq!((body.status, body.code), (422, "model_failed"));
            assert_eq!(body.message, "no optimum");
        }
        other => panic!("expected a shard error, got {other:?}"),
    }
    assert_eq!(err.error_body().code, "model_failed");
    assert_eq!(e_assigns.load(Ordering::SeqCst), 1);
    assert_eq!(c_assigns.load(Ordering::SeqCst), 1);
}

/// The retry/cache composition: a coordinator that survived a worker
/// death fills its shard cache, so resubmitting the same job answers
/// every shard from the cache — zero worker traffic, same bytes.
#[test]
fn resubmission_after_a_fault_is_a_pure_shard_cache_hit() {
    let spec = small_suite();
    let (_healthy, hosts, _) = healthy_and_faulty();

    let cache = Store::new(64);
    let first = cluster(hosts.to_vec())
        .with_cache(cache.clone())
        .run(&spec)
        .expect("first run survives the death");
    assert_eq!(first.stats.retries, 1);
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

/// Hosts connect only after pulling a shard: a job that does not
/// split opens exactly one connection, however many hosts there are.
#[test]
fn a_single_shard_job_opens_one_connection() {
    let workers = [healthy_worker(), healthy_worker()];
    let relays: Vec<(String, Arc<AtomicUsize>)> =
        workers.iter().map(|w| relay(w.addr(), None)).collect();
    let run = Cluster::new(relays.iter().map(|(addr, _)| addr.clone()).collect())
        .with_workers(Workers::Fixed(1))
        .run(&JobSpec::Table2)
        .expect("table2 through the relays");
    let local = Runtime::new(Workers::Fixed(1))
        .run(&JobSpec::Table2)
        .expect("local run");
    assert_eq!(run.payload_json, local.payload_json());
    assert_eq!(run.stats.shards, 1);
    let opened: usize = relays.iter().map(|(_, n)| n.load(Ordering::SeqCst)).sum();
    assert_eq!(opened, 1);
}
