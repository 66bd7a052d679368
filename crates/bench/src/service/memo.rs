//! Bounded LRU memo store of completed job outcomes.
//!
//! Maps a [`ConfigHash`] to the `Arc<JobOutcome>` the worker produced, so a
//! resubmission of the same job is answered without touching the simulator.
//! Failures are memoized too: the simulator is deterministic, so a config
//! that yields `RunError::KernelDoesNotFit` yields it every time — caching
//! the error saves the doomed retry ladder on resubmission.
//!
//! Recency is tracked with a lazy-stamp queue: every hit pushes a fresh
//! `(key, stamp)` pair instead of splicing the old one out, and eviction
//! pops entries whose stamp is stale. This keeps both hit and insert O(1)
//! amortized without an intrusive list, at the cost of the queue holding up
//! to one stale entry per hit (bounded by compaction below).

use std::collections::{HashMap, VecDeque};

use super::hash::ConfigHash;
use super::JobOutcome;
use std::sync::Arc;

struct Entry {
    outcome: Arc<super::JobOutcome>,
    /// Stamp of this key's newest recency-queue entry; older queue entries
    /// for the key are stale and skipped at eviction time.
    stamp: u64,
}

/// Bounded LRU map from job key to completed outcome.
pub struct MemoStore {
    entries: HashMap<ConfigHash, Entry>,
    /// Recency queue, oldest first; an entry is live iff its stamp matches
    /// the map's.
    recency: VecDeque<(ConfigHash, u64)>,
    next_stamp: u64,
    capacity: usize,
    evicted: u64,
}

impl MemoStore {
    /// A store holding at most `capacity` outcomes (0 disables memoization).
    pub fn new(capacity: usize) -> Self {
        MemoStore {
            entries: HashMap::new(),
            recency: VecDeque::new(),
            next_stamp: 0,
            capacity,
            evicted: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Look up a completed outcome, refreshing its recency on hit.
    pub fn get(&mut self, key: &ConfigHash) -> Option<Arc<JobOutcome>> {
        let stamp = self.stamp();
        let entry = self.entries.get_mut(key)?;
        entry.stamp = stamp;
        let outcome = Arc::clone(&entry.outcome);
        self.recency.push_back((*key, stamp));
        self.compact();
        Some(outcome)
    }

    /// Insert (or refresh) an outcome, evicting the least recently used
    /// entries if over capacity.
    pub fn insert(&mut self, key: ConfigHash, outcome: Arc<JobOutcome>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.stamp();
        self.entries.insert(key, Entry { outcome, stamp });
        self.recency.push_back((key, stamp));
        while self.entries.len() > self.capacity {
            self.evict_one();
        }
        self.compact();
    }

    fn evict_one(&mut self) {
        while let Some((key, stamp)) = self.recency.pop_front() {
            match self.entries.get(&key) {
                Some(e) if e.stamp == stamp => {
                    self.entries.remove(&key);
                    self.evicted += 1;
                    return;
                }
                _ => {} // stale queue entry — the key was refreshed or evicted
            }
        }
    }

    /// Drop stale recency entries from the front so the queue's length
    /// stays proportional to the live entry count.
    fn compact(&mut self) {
        if self.recency.len() <= 2 * self.entries.len() + 8 {
            return;
        }
        let entries = &self.entries;
        self.recency
            .retain(|(key, stamp)| matches!(entries.get(key), Some(e) if e.stamp == *stamp));
    }

    /// Number of memoized outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total evictions since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::super::JobOutcome;
    use super::*;

    fn key(n: u64) -> ConfigHash {
        use super::super::hash::StableHasher;
        let mut h = StableHasher::new();
        h.write_u64(n);
        h.finish()
    }

    fn outcome(tag: &str) -> Arc<JobOutcome> {
        Arc::new(JobOutcome {
            report: Err(tag.to_string()),
        })
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut m = MemoStore::new(2);
        m.insert(key(1), outcome("a"));
        m.insert(key(2), outcome("b"));
        assert!(m.get(&key(1)).is_some(), "refresh 1 so 2 is coldest");
        m.insert(key(3), outcome("c"));
        assert_eq!(m.len(), 2);
        assert!(m.get(&key(2)).is_none(), "2 was least recently used");
        assert!(m.get(&key(1)).is_some());
        assert!(m.get(&key(3)).is_some());
        assert_eq!(m.evicted(), 1);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let mut m = MemoStore::new(0);
        m.insert(key(1), outcome("a"));
        assert!(m.is_empty());
        assert!(m.get(&key(1)).is_none());
    }

    #[test]
    fn recency_queue_stays_bounded_under_repeated_hits() {
        let mut m = MemoStore::new(4);
        for n in 0..4 {
            m.insert(key(n), outcome("x"));
        }
        for _ in 0..10_000 {
            assert!(m.get(&key(2)).is_some());
        }
        assert!(
            m.recency.len() <= 2 * m.entries.len() + 8,
            "lazy stamps must be compacted, queue is {} long",
            m.recency.len()
        );
    }
}
