//! The content-addressed result cache.
//!
//! Solves are deterministic — the same [`Problem`] produces the same
//! flux, bit for bit — so a finished outcome can be replayed for any
//! later request with an equal configuration.  The cache key is
//! [`Problem::canonical_hash`]: a stable FNV-1a over the canonical wire
//! serialisation, identical across processes and platforms.
//!
//! The store keeps the *rendered* outcome JSON rather than the outcome
//! struct: replaying a hit must be bit-for-bit identical to the first
//! response, and freezing the bytes at completion time makes that true
//! by construction (wall-clock fields included — a cached response is a
//! replay of the original run, not a re-measurement).  The bytes are one
//! shared `Arc<str>`: a hit hands out a reference to them, not a copy.
//!
//! Eviction is least-recently-used over a fixed capacity; a capacity of
//! zero disables caching entirely (every lookup misses, nothing is
//! retained).  Hit/miss counters live in the server's
//! [`MetricsRegistry`](unsnap_obs::MetricsRegistry), not here, so
//! `/v1/metrics` is the single source of truth.
//!
//! [`Problem`]: unsnap_core::problem::Problem
//! [`Problem::canonical_hash`]: unsnap_core::problem::Problem::canonical_hash

use std::sync::Arc;

/// An in-memory LRU of rendered outcome JSON keyed by canonical problem
/// hash (see the [module docs](self)).
#[derive(Debug)]
pub struct ResultStore {
    capacity: usize,
    /// Pairs in LRU order: front = coldest, back = hottest.
    entries: Vec<(u64, Arc<str>)>,
}

impl ResultStore {
    /// An empty store retaining at most `capacity` outcomes (0 disables
    /// caching).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Look up a hash, promoting a hit to most-recently-used.
    pub(crate) fn get(&mut self, hash: u64) -> Option<Arc<str>> {
        let index = self.entries.iter().position(|(h, _)| *h == hash)?;
        let entry = self.entries.remove(index);
        let json = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(json)
    }

    /// Insert (or refresh) an outcome, evicting the least-recently-used
    /// entry when over capacity.  A no-op when caching is disabled.
    pub(crate) fn insert(&mut self, hash: u64, outcome_json: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(index) = self.entries.iter().position(|(h, _)| *h == hash) {
            self.entries.remove(index);
        }
        self.entries.push((hash, outcome_json));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_replay_the_exact_bytes() {
        let mut store = ResultStore::new(4);
        assert!(store.entries.is_empty());
        store.insert(7, "{\"a\":1}".into());
        assert_eq!(store.get(7).as_deref(), Some("{\"a\":1}"));
        assert_eq!(store.get(8), None);
        assert_eq!(store.entries.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut store = ResultStore::new(2);
        store.insert(1, "one".into());
        store.insert(2, "two".into());
        // Touch 1 so 2 becomes the coldest entry.
        assert!(store.get(1).is_some());
        store.insert(3, "three".into());
        assert_eq!(store.entries.len(), 2);
        assert!(store.get(2).is_none(), "coldest entry must be evicted");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let mut store = ResultStore::new(2);
        store.insert(1, "old".into());
        store.insert(1, "new".into());
        assert_eq!(store.entries.len(), 1);
        assert_eq!(store.get(1).as_deref(), Some("new"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut store = ResultStore::new(0);
        store.insert(1, "x".into());
        assert!(store.entries.is_empty());
        assert_eq!(store.get(1), None);
    }
}
