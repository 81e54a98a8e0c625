//! The one bounded cache type behind every cache level: whole
//! artifacts and per-architecture rows in the [`crate::Runtime`], and
//! shard results on a cluster coordinator.
//!
//! Every cached value is a pure function of its identity string — the
//! spec's canonical JSON for artifacts and shards, the row key for
//! rows — so the store keys by that string itself: no hash stands in
//! for it, and no collision can serve another entry's value.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// A bounded map from identity strings to values, shared by handle:
/// clones see (and fill) the same entries, which is how every executor
/// thread of the job service shares one cache through cloned runtimes.
///
/// Eviction is FIFO on insertion order. Values are deterministic, so
/// recency carries no correctness weight, and FIFO keeps a hit free of
/// bookkeeping. The first insert of an identity wins: a racing thread
/// that computed the same value again leaves the resident entry alone.
#[derive(Debug)]
pub struct Store<V> {
    inner: Arc<Mutex<Inner<V>>>,
}

#[derive(Debug)]
struct Inner<V> {
    entries: HashMap<String, V>,
    order: VecDeque<String>,
    capacity: usize,
}

impl<V> Clone for Store<V> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: Clone> Store<V> {
    /// A store holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                entries: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            })),
        }
    }

    /// The value stored under `identity`, if resident.
    pub fn get(&self, identity: &str) -> Option<V> {
        self.lock().entries.get(identity).cloned()
    }

    /// Stores `value` under `identity` unless it is already resident,
    /// evicting the oldest entries over capacity.
    pub fn insert(&self, identity: String, value: V) {
        let mut inner = self.lock();
        if inner.entries.contains_key(&identity) {
            return;
        }
        while inner.entries.len() >= inner.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.entries.remove(&oldest);
        }
        inner.order.push_back(identity.clone());
        inner.entries.insert(identity, value);
    }

    /// A poisoned lock only means a panic on another thread while it
    /// held the guard; every mutation above leaves the map consistent
    /// between statements, so the store keeps serving rather than
    /// cascading the panic.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_evicts_fifo_and_keeps_the_first_insert() {
        let store = Store::new(2);
        assert_eq!(store.get("a"), None);
        store.insert("a".to_string(), 1);
        store.insert("b".to_string(), 2);
        // Re-inserting a resident identity (a raced recompute) keeps
        // the first value and does not refresh its place in line.
        store.insert("a".to_string(), 10);
        assert_eq!(store.get("a"), Some(1));
        // Capacity 2: inserting c evicts the oldest insert (a).
        store.insert("c".to_string(), 3);
        assert_eq!(store.get("a"), None);
        assert_eq!((store.get("b"), store.get("c")), (Some(2), Some(3)));
        // Clones share the entries.
        let handle = store.clone();
        handle.insert("d".to_string(), 4);
        assert_eq!(store.get("d"), Some(4));
        assert_eq!(store.get("b"), None);
    }

    #[test]
    fn a_poisoned_store_keeps_serving() {
        let store = Store::new(4);
        store.insert("a".to_string(), 1);
        let handle = store.clone();
        let _ = std::thread::spawn(move || {
            let _guard = handle.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(store.get("a"), Some(1));
        store.insert("b".to_string(), 2);
        assert_eq!(store.get("b"), Some(2));
    }
}
