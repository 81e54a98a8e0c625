//! The worker side of the shard protocol: a TCP listener that
//! executes assigned shard specs through an ordinary
//! [`Runtime`] and streams heartbeats while they run.
//!
//! A worker is deliberately stateless between connections: every
//! shard arrives as a self-contained `optpower-job/v1` spec and
//! executes exactly as `optpower run` would. The only distribution
//! concern it owns is liveness — while a shard computes, the
//! connection carries a [`ShardFrame::Heartbeat`] every
//! [`HEARTBEAT_MS`], so a silent socket always means a dead worker
//! and never a slow job.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use optpower_workload::{ErrorBody, Runtime, ShardFrame, ShardResult};

/// Heartbeat cadence while a shard executes, in milliseconds. The
/// coordinator's per-shard timeout only has to exceed this (plus
/// network slack), not the shard's compute time.
pub const HEARTBEAT_MS: u64 = 100;

/// A spawned worker: its bound address plus the stop switch for the
/// accept loop.
#[derive(Debug)]
pub struct WorkerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl WorkerHandle {
    /// The address the worker accepts coordinator connections on
    /// (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop. In-flight connections finish their
    /// current shard; no new connections are accepted.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop re-checks the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves shards on a detached
/// accept loop — one connection handler thread per coordinator.
/// Returns immediately; use the handle's address to point a
/// coordinator at it. Connections share the runtime's pool and
/// caches, so a shard resubmitted after a coordinator-side retry is
/// an artifact-cache hit.
///
/// # Errors
///
/// [`io::Error`] when the address cannot be bound.
pub fn spawn(addr: impl ToSocketAddrs, runtime: Runtime) -> io::Result<WorkerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    thread::spawn(move || accept_loop(&listener, &runtime, &flag));
    Ok(WorkerHandle { addr: local, stop })
}

/// The blocking form behind `optpower worker`: binds `addr` and
/// serves shards until the process ends. Prints the bound address to
/// stderr so scripts (and the CI smoke) can scrape ephemeral ports.
///
/// # Errors
///
/// [`io::Error`] when the address cannot be bound.
pub fn serve(addr: impl ToSocketAddrs, runtime: Runtime) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("optpower worker listening on {}", listener.local_addr()?);
    let never = Arc::new(AtomicBool::new(false));
    accept_loop(&listener, &runtime, &never);
    Ok(())
}

fn accept_loop(listener: &TcpListener, runtime: &Runtime, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        // Greet before spawning the connection's thread, so the
        // coordinator reads Hello while the spawn runs. A torn
        // connection is the coordinator's problem (it queues the shard
        // again); the worker just moves on.
        if greet(&mut stream).is_err() {
            continue;
        }
        let runtime = runtime.clone();
        thread::spawn(move || {
            let _ = serve_connection(stream, &runtime);
        });
    }
}

/// Opens a coordinator connection: no Nagle delay, then Hello.
fn greet(stream: &mut TcpStream) -> io::Result<()> {
    // Frames are small and latency-bound: never let Nagle sit on a
    // Result while the coordinator's timeout clock runs.
    let _ = stream.set_nodelay(true);
    let host = stream
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    ShardFrame::Hello { host }.write_to(stream)
}

/// One greeted coordinator connection: Assign → (Heartbeat…)
/// Result/Error until the coordinator hangs up.
fn serve_connection(mut stream: TcpStream, runtime: &Runtime) -> io::Result<()> {
    loop {
        let frame = match ShardFrame::read_from(&mut stream) {
            Ok(frame) => frame,
            // Clean hang-up ends the connection; anything else too.
            Err(_) => return Ok(()),
        };
        let ShardFrame::Assign { shard, spec } = frame else {
            // Only coordinators speak to workers, and they only send
            // Assign; anything else is protocol noise worth dropping
            // the connection over.
            return Ok(());
        };
        let (tx, rx) = mpsc::channel();
        let job_runtime = runtime.clone();
        let job_spec = spec.clone();
        thread::spawn(move || {
            let _ = tx.send(job_runtime.run(&job_spec));
        });
        let reply = loop {
            match rx.recv_timeout(Duration::from_millis(HEARTBEAT_MS)) {
                Ok(Ok(artifact)) => {
                    break ShardFrame::Result(Box::new(ShardResult {
                        shard: shard.clone(),
                        payload_json: artifact.payload_json(),
                        csv: artifact.to_csv(),
                        text: artifact.render_text(),
                        wall_ms: artifact.meta.wall_ms,
                        cache: artifact.meta.cache,
                        row_cache: artifact.meta.row_cache,
                    }))
                }
                Ok(Err(e)) => {
                    break ShardFrame::Error {
                        shard: shard.clone(),
                        error: ErrorBody::of(&e),
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    ShardFrame::Heartbeat {
                        shard: shard.clone(),
                    }
                    .write_to(&mut stream)?;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break ShardFrame::Error {
                        shard: shard.clone(),
                        error: ErrorBody::new(500, "worker_failed", "shard execution thread died"),
                    }
                }
            }
        };
        reply.write_to(&mut stream)?;
    }
}
