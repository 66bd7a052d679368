//! # Sweep service: persistent job queue with content-hash memoization
//!
//! Every simulation request in the bench harness flows through one of
//! these: a submission is a `(RunConfig, Kernel)` pair, keyed by the
//! canonical [`ConfigHash`] over *every* semantic field of both
//! ([`hash`]). The pipeline is
//!
//! ```text
//!   submit ──▶ job_key ──▶ memo store ──hit──▶ resolved JobHandle
//!                 │            miss
//!                 ▼
//!           in-flight table ──hit──▶ attached JobHandle (shared cell)
//!                 │            miss
//!                 ▼
//!           pending queue ──▶ worker pool ──▶ supervised run
//!                                   │          (watchdog)
//!                                   ▼
//!                           memoize + resolve cell
//! ```
//!
//! The load-bearing invariant: **the simulator is deterministic, so
//! memoization is exact.** Equal keys mean equal inputs, equal inputs mean
//! bit-identical [`RunReport`]s (the determinism suites pin this across
//! engines and memory models), so answering a resubmission
//! from the memo store is indistinguishable from re-running it — modulo
//! the saved CPU-hours. The same argument covers in-flight dedup: a late
//! subscriber to a running job attaches to the first submission's
//! write-once job cell and receives the one shared outcome.
//!
//! The queue is *persistent* at process scope: [`SweepService::global`]
//! hands out one process-wide instance that the grid runner
//! ([`crate::run_grid`], and through it every experiment and `repro run`)
//! and `repro trace` share, so duplicate configurations dedupe across
//! grids, not just within one. Tests wanting exact counter assertions
//! build private instances with [`SweepService::new`].

pub mod hash;
pub mod memo;
mod queue;
mod worker;

use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use grs_isa::Kernel;
use grs_sim::{RunConfig, RunReport, ServiceStats};

pub use hash::{job_key, ConfigHash};

use queue::{JobCell, Shared, State, Task};

/// Terminal result of one executed (or failed) job, shared by every
/// subscriber and by the memo store.
#[derive(Debug)]
pub struct JobOutcome {
    /// The supervised run's report, or the rendered configuration error or
    /// panic message.
    pub report: Result<Arc<RunReport>, String>,
}

/// How a submission was answered — the service's visible dedup decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// New work: the job was enqueued for execution.
    Queued,
    /// An identical job was already in flight; this handle subscribed to it.
    Attached,
    /// Answered from the memo store; the handle was born resolved.
    MemoHit,
}

/// Subscription to one job's outcome. Cheap to clone conceptually (all
/// handles to the same in-flight key share one cell); waiting is
/// *help-first*: a blocked waiter drains pending tasks inline rather than
/// idling, so a zero-worker service still makes progress and a full worker
/// pool gets an extra pair of hands.
pub struct JobHandle {
    key: ConfigHash,
    source: JobSource,
    cell: Arc<JobCell>,
    shared: Arc<Shared>,
}

impl JobHandle {
    /// The job's canonical content hash.
    pub fn key(&self) -> ConfigHash {
        self.key
    }

    /// How the service answered this submission.
    pub fn source(&self) -> JobSource {
        self.source
    }

    /// The outcome, if already available (memo hits always are).
    pub fn try_get(&self) -> Option<Arc<JobOutcome>> {
        self.cell.try_get()
    }

    /// Block until the outcome is available, helping execute pending work
    /// while waiting (see the type docs).
    pub fn wait(&self) -> Arc<JobOutcome> {
        loop {
            if let Some(outcome) = self.cell.try_get() {
                return outcome;
            }
            // Help-first: run any pending task inline. Executing *any* task
            // makes progress toward ours — either it is ours, or it frees
            // the executor that will take ours.
            let task = { self.shared.state.lock().unwrap().pending.pop_front() };
            match task {
                Some(task) => worker::run_one(&self.shared, task),
                // Nothing pending: ours is running on another thread.
                None => return self.cell.wait(),
            }
        }
    }
}

/// Construction knobs for a private service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads to spawn. `0` spawns none: tasks queue until a
    /// [`JobHandle::wait`] or [`SweepService::drain`] executes them on the
    /// calling thread — the mode tests use for exact in-flight-dedup
    /// counter assertions.
    pub workers: usize,
    /// Memo-store capacity in outcomes (`0` disables memoization).
    pub memo_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            memo_capacity: 512,
        }
    }
}

/// The sweep service. See the [module docs](self) for the architecture.
pub struct SweepService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SweepService {
    /// A private instance with its own queue, memo store, and counters.
    pub fn new(cfg: ServiceConfig) -> Self {
        let shared = Arc::new(Shared::new(cfg.memo_capacity));
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker::worker_loop(shared))
            })
            .collect();
        SweepService {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The process-wide instance behind [`crate::run_grid`] and `repro trace`.
    /// Never dropped; its memo store is what makes duplicate configurations
    /// across separate sweeps in one process free.
    pub fn global() -> &'static SweepService {
        static GLOBAL: OnceLock<SweepService> = OnceLock::new();
        GLOBAL.get_or_init(|| SweepService::new(ServiceConfig::default()))
    }

    /// Submit a job. Returns immediately with a [`JobHandle`]; whether the
    /// job was queued, attached to an identical in-flight run, or answered
    /// from the memo store is on [`JobHandle::source`].
    pub fn submit(&self, cfg: RunConfig, kernel: Kernel) -> JobHandle {
        let key = job_key(&cfg, &kernel, None);
        let mut state = self.shared.state.lock().unwrap();
        state.stats.submitted += 1;
        if let Some(outcome) = state.memo.get(&key) {
            state.stats.memo_hits += 1;
            return JobHandle {
                key,
                source: JobSource::MemoHit,
                cell: Arc::new(JobCell::resolved(outcome)),
                shared: Arc::clone(&self.shared),
            };
        }
        if let Some(cell) = state.inflight.get(&key).map(Arc::clone) {
            state.stats.deduped += 1;
            return JobHandle {
                key,
                source: JobSource::Attached,
                cell,
                shared: Arc::clone(&self.shared),
            };
        }
        let cell = Arc::new(JobCell::new());
        state.inflight.insert(key, Arc::clone(&cell));
        state.pending.push_back(Task { key, cfg, kernel });
        drop(state);
        self.shared.work.notify_one();
        JobHandle {
            key,
            source: JobSource::Queued,
            cell,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Execute every pending task on the calling thread, in queue order.
    /// With `workers: 0` this is the whole execution engine; with workers
    /// it is an extra pair of hands. Returns when the pending queue is
    /// empty (tasks already claimed by workers may still be running —
    /// [`JobHandle::wait`] for those).
    pub fn drain(&self) {
        loop {
            let task = { self.shared.state.lock().unwrap().pending.pop_front() };
            match task {
                Some(task) => worker::run_one(&self.shared, task),
                None => break,
            }
        }
    }

    /// The service counters as they stand.
    pub fn stats(&self) -> ServiceStats {
        self.shared.state.lock().unwrap().stats
    }

    /// Number of outcomes currently memoized.
    pub fn memo_len(&self) -> usize {
        self.shared.state.lock().unwrap().memo.len()
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        let orphans: Vec<(Option<Arc<JobCell>>, Arc<JobOutcome>)> = {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            // Unstarted tasks will never run; resolve their cells so no
            // subscriber blocks forever on a dead service.
            let pending: Vec<Task> = state.pending.drain(..).collect();
            pending
                .into_iter()
                .map(|task| {
                    let outcome = Arc::new(JobOutcome {
                        report: Err("sweep service shut down before the job ran".to_string()),
                    });
                    (state.inflight.remove(&task.key), outcome)
                })
                .collect()
        };
        for (cell, outcome) in orphans {
            if let Some(cell) = cell {
                cell.resolve(outcome);
            }
        }
        self.shared.work.notify_all();
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

// `State` is reachable only through `Shared`'s mutex; keep the compiler
// honest about the types crossing worker-thread boundaries.
#[allow(dead_code)]
fn assert_send() {
    fn check<T: Send>() {}
    check::<State>();
    check::<Task>();
    check::<Arc<Shared>>();
}
