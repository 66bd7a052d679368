//! The service's shared state: pending queue, in-flight table, memo store,
//! counters — everything behind the one mutex.
//!
//! A submission's life: [`job_key`](super::hash::job_key) → memo probe →
//! in-flight probe → pending queue. The three structures share one lock, so
//! the probe-then-insert sequence is atomic and two racing submissions of
//! the same key can never both enqueue: the loser of the race *attaches* to
//! the winner's [`JobCell`] and the simulation runs once.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use grs_isa::Kernel;
use grs_sim::{RunConfig, ServiceStats};

use super::hash::ConfigHash;
use super::memo::MemoStore;
use super::JobOutcome;

/// One unit of work owned by the queue: everything a worker needs to run
/// the simulation, plus the precomputed identity key.
pub(super) struct Task {
    pub key: ConfigHash,
    pub cfg: RunConfig,
    pub kernel: Kernel,
}

/// The rendezvous point between a job's executor and its subscribers: a
/// write-once slot plus a condvar. Every [`JobHandle`](super::JobHandle)
/// for the same in-flight key shares one cell, which is what makes late
/// subscription (attach instead of re-enqueue) work.
pub(super) struct JobCell {
    slot: Mutex<Option<Arc<JobOutcome>>>,
    done: Condvar,
}

impl JobCell {
    pub fn new() -> Self {
        JobCell {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// A cell born resolved (memo hits hand these out).
    pub fn resolved(outcome: Arc<JobOutcome>) -> Self {
        JobCell {
            slot: Mutex::new(Some(outcome)),
            done: Condvar::new(),
        }
    }

    /// Publish the outcome and wake every subscriber. Write-once: a second
    /// resolve is a logic error upstream (the in-flight table guarantees
    /// one executor per cell).
    pub fn resolve(&self, outcome: Arc<JobOutcome>) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "job cell resolved twice");
        *slot = Some(outcome);
        self.done.notify_all();
    }

    /// The outcome, if already published.
    pub fn try_get(&self) -> Option<Arc<JobOutcome>> {
        self.slot.lock().unwrap().clone()
    }

    /// Block until the outcome is published.
    pub fn wait(&self) -> Arc<JobOutcome> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Arc::clone(outcome);
            }
            slot = self.done.wait(slot).unwrap();
        }
    }
}

/// Everything the service mutates, under one mutex (see module docs).
pub(super) struct State {
    /// Tasks not yet picked up by an executor, FIFO.
    pub pending: VecDeque<Task>,
    /// Key → cell for every submitted-but-unresolved job. A key is present
    /// here from submission until its outcome lands in the memo store.
    pub inflight: HashMap<ConfigHash, Arc<JobCell>>,
    /// Completed outcomes, bounded LRU.
    pub memo: MemoStore,
    /// Service counters surfaced through [`SweepService::stats`](super::SweepService::stats).
    pub stats: ServiceStats,
    /// Set once at drop; workers exit when pending drains.
    pub shutdown: bool,
}

/// The state plus the worker wake-up signal — the `Arc` shared by the
/// service façade, its worker threads, and every [`JobHandle`](super::JobHandle).
pub(super) struct Shared {
    pub state: Mutex<State>,
    /// Signalled on every enqueue and on shutdown.
    pub work: Condvar,
}

impl Shared {
    pub fn new(memo_capacity: usize) -> Self {
        Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                inflight: HashMap::new(),
                memo: MemoStore::new(memo_capacity),
                stats: ServiceStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }
}
