//! The bounded admission queue between the HTTP front-end and the
//! executor threads, plus the job store that tracks every admitted
//! job's lifecycle.
//!
//! The queue is deliberately tiny: a `Mutex<VecDeque>` of canonical
//! keys with a `Condvar` for the executors. Admission never blocks —
//! a full queue is an immediate [`PushError::Full`], which the server
//! turns into `429 Too Many Requests` + `Retry-After`. Only executors
//! block (in [`JobQueue::pop`]), and they wake for work, for drain,
//! and for abort.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use optpower_workload::{Artifact, ErrorBody, JobSpec};

/// Why a job could not be queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; retry later.
    Full,
    /// The server is draining and refuses new work.
    Draining,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    Running,
    Draining,
    Aborted,
}

#[derive(Debug)]
struct QueueInner {
    jobs: VecDeque<String>,
    capacity: usize,
    paused: bool,
    state: Lifecycle,
}

/// The bounded FIFO of canonical keys awaiting an executor.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    cond: Condvar,
}

impl JobQueue {
    /// A queue admitting at most `capacity` jobs, optionally born
    /// paused (a test hook: executors wait until [`JobQueue::resume`]
    /// even though admission works, so backpressure is deterministic).
    pub fn new(capacity: usize, paused: bool) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                capacity: capacity.max(1),
                paused,
                state: Lifecycle::Running,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueues a key, failing fast when full or draining.
    pub fn try_push(&self, key: String) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.state != Lifecycle::Running {
            return Err(PushError::Draining);
        }
        if inner.jobs.len() >= inner.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(key);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next key. `None` means shut down: the queue
    /// drained after [`JobQueue::drain`], or [`JobQueue::abort`] fired.
    pub fn pop(&self) -> Option<String> {
        let mut inner = self.lock();
        loop {
            match inner.state {
                Lifecycle::Aborted => return None,
                Lifecycle::Draining if inner.jobs.is_empty() => return None,
                _ => {}
            }
            if !inner.paused {
                if let Some(key) = inner.jobs.pop_front() {
                    return Some(key);
                }
            }
            inner = self.cond.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Jobs currently waiting (not counting running ones).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Stops admission and lets executors finish what is queued.
    /// Also unpauses, so a paused queue can still drain to empty.
    pub fn drain(&self) {
        let mut inner = self.lock();
        if inner.state == Lifecycle::Running {
            inner.state = Lifecycle::Draining;
        }
        inner.paused = false;
        self.cond.notify_all();
    }

    /// Stops everything now: queued jobs are dropped unrun.
    pub fn abort(&self) {
        let mut inner = self.lock();
        inner.state = Lifecycle::Aborted;
        inner.jobs.clear();
        self.cond.notify_all();
    }

    /// Whether new work is refused (draining or aborted).
    pub fn is_draining(&self) -> bool {
        self.lock().state != Lifecycle::Running
    }

    /// Releases a paused queue's executors (test hook).
    pub fn resume(&self) {
        let mut inner = self.lock();
        inner.paused = false;
        self.cond.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One admitted job's lifecycle state.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// An executor is running it.
    Running,
    /// Finished; the artifact is held for pollers.
    Done(Arc<Artifact>),
    /// Failed; the mapped error is held for pollers.
    Failed(ErrorBody),
}

impl JobState {
    /// The wire spelling used in `optpower-job-status/v1` documents.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

#[derive(Debug)]
struct StoreInner {
    jobs: HashMap<String, (JobSpec, JobState)>,
    /// Terminal keys in completion order, for bounded eviction.
    finished: VecDeque<String>,
    capacity: usize,
}

/// Tracks every admitted job by canonical key so synchronous waiters
/// and `GET /v1/jobs/<key>` pollers observe the same lifecycle.
/// Bounded: terminal entries beyond `capacity` are evicted oldest
/// first (in-flight jobs are never evicted).
#[derive(Debug)]
pub struct JobStore {
    inner: Mutex<StoreInner>,
    cond: Condvar,
}

impl JobStore {
    /// A store retaining at most `capacity` terminal jobs.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(StoreInner {
                jobs: HashMap::new(),
                finished: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            cond: Condvar::new(),
        }
    }

    /// Admits a job as queued unless it is already tracked; returns
    /// whether a queue slot is needed (false = coalesced onto an
    /// existing in-flight or finished entry).
    pub fn admit(&self, key: &str, spec: &JobSpec) -> bool {
        let mut inner = self.lock();
        if inner.jobs.contains_key(key) {
            return false;
        }
        inner
            .jobs
            .insert(key.to_string(), (spec.clone(), JobState::Queued));
        true
    }

    /// Rolls back an admission whose queue push was refused: the
    /// entry is removed only if still queued (an executor that got to
    /// it first owns it now).
    pub fn remove_if_queued(&self, key: &str) {
        let mut inner = self.lock();
        if matches!(inner.jobs.get(key), Some((_, JobState::Queued))) {
            inner.jobs.remove(key);
        }
    }

    /// The tracked state of a key.
    pub fn state(&self, key: &str) -> Option<JobState> {
        self.lock().jobs.get(key).map(|(_, s)| s.clone())
    }

    /// The spec a key was admitted with (executors read it back).
    pub fn spec(&self, key: &str) -> Option<JobSpec> {
        self.lock().jobs.get(key).map(|(s, _)| s.clone())
    }

    /// Marks a job running.
    pub fn mark_running(&self, key: &str) {
        let mut inner = self.lock();
        if let Some((_, state)) = inner.jobs.get_mut(key) {
            *state = JobState::Running;
        }
    }

    /// Records a terminal state and wakes synchronous waiters.
    pub fn finish(&self, key: &str, outcome: JobState) {
        debug_assert!(outcome.is_terminal());
        let mut inner = self.lock();
        if let Some((_, state)) = inner.jobs.get_mut(key) {
            *state = outcome;
            inner.finished.push_back(key.to_string());
            while inner.finished.len() > inner.capacity {
                if let Some(old) = inner.finished.pop_front() {
                    inner.jobs.remove(&old);
                }
            }
        }
        self.cond.notify_all();
    }

    /// Blocks until the key reaches a terminal state or the deadline
    /// passes; `None` on timeout (or if the entry was evicted).
    pub fn wait_terminal(&self, key: &str, timeout: Duration) -> Option<JobState> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            match inner.jobs.get(key) {
                Some((_, state)) if state.is_terminal() => return Some(state.clone()),
                Some(_) => {}
                None => return None,
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, result) = self
                .cond
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            if result.timed_out() {
                match inner.jobs.get(key) {
                    Some((_, state)) if state.is_terminal() => return Some(state.clone()),
                    _ => return None,
                }
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_enforces_capacity_and_drain() {
        let q = JobQueue::new(2, false);
        assert_eq!(q.try_push("a".into()), Ok(()));
        assert_eq!(q.try_push("b".into()), Ok(()));
        assert_eq!(q.try_push("c".into()), Err(PushError::Full));
        assert_eq!(q.depth(), 2);
        q.drain();
        assert_eq!(q.try_push("d".into()), Err(PushError::Draining));
        assert_eq!(q.pop(), Some("a".to_string()));
        assert_eq!(q.pop(), Some("b".to_string()));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn paused_queue_admits_but_withholds() {
        let q = Arc::new(JobQueue::new(4, true));
        assert_eq!(q.try_push("a".into()), Ok(()));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // The popper stays parked while paused; resume releases it.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!popper.is_finished());
        q.resume();
        assert_eq!(popper.join().expect("popper"), Some("a".to_string()));
    }

    #[test]
    fn store_coalesces_and_evicts_terminal_jobs() {
        let store = JobStore::new(1);
        let spec = JobSpec::Table2;
        assert!(store.admit("k1", &spec));
        assert!(!store.admit("k1", &spec), "duplicate admit coalesces");
        assert_eq!(store.state("k1").map(|s| s.label()), Some("queued"));
        store.mark_running("k1");
        store.finish("k1", JobState::Failed(ErrorBody::new(422, "x", "boom")));
        assert!(store.admit("k2", &spec));
        store.finish("k2", JobState::Failed(ErrorBody::new(422, "x", "boom")));
        // capacity 1: k1 (older terminal) evicted, k2 retained.
        assert!(store.state("k1").is_none());
        assert!(store.state("k2").is_some());
    }

    #[test]
    fn wait_terminal_times_out_and_completes() {
        let store = Arc::new(JobStore::new(8));
        store.admit("k", &JobSpec::Table2);
        assert!(store
            .wait_terminal("k", Duration::from_millis(10))
            .is_none());
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.wait_terminal("k", Duration::from_secs(5)))
        };
        store.finish("k", JobState::Failed(ErrorBody::new(422, "x", "boom")));
        let state = waiter.join().expect("waiter").expect("terminal");
        assert_eq!(state.label(), "failed");
    }
}
