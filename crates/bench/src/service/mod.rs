//! # Sweep service: persistent job queue with machine-keyed memoization
//!
//! Every simulation request in the bench harness flows through one of
//! these. A submission is a `(RunConfig, Kernel)` pair; the service
//! resolves it on the submitting thread to the
//! [`Machine`](grs_sim::Machine) it builds ([`Simulator::prepare`]) and
//! keys it on the canonical [`ConfigHash`] of that machine
//! ([`hash::machine_key`]). A job's identity is the
//! machine, not the spelling: configurations that build one machine (a
//! plan without shared pairs under any sharing resource, threshold,
//! throttle or reorder flag; OWF or GTO without pairs; two thresholds or
//! declaration orders with one plan and one set of per-instruction shared
//! flags) are simulated once. The pipeline is
//!
//! ```text
//!   submit ──▶ prepare ──err──▶ job_key ──▶ failed outcome (memoized)
//!                 │ Machine
//!                 ▼
//!            machine_key ──▶ memo store ──hit──▶ resolved JobHandle
//!                                │  miss
//!                                ▼
//!                        in-flight table ──hit──▶ attached JobHandle (shared cell)
//!                                │  miss
//!                                ▼
//!                         pending queue ──▶ worker pool ──▶ supervised run
//!                                                 │          (watchdog)
//!                                                 ▼
//!                                         memoize + resolve cell
//! ```
//!
//! A worker runs exactly the `Machine` its key was computed from, so a key
//! and its run cannot disagree. The load-bearing invariant: **the
//! simulator is deterministic, so memoization is exact.** Equal machine
//! keys mean equal machines, equal machines mean bit-identical
//! [`RunReport`]s (the determinism suites pin this across engines and
//! memory models, and `tests/sweep_service.rs` checks equal keys ⇒ equal
//! reports over random settings), so answering a resubmission from the
//! memo store is indistinguishable from re-running it — modulo the saved
//! CPU-hours. The same argument covers in-flight dedup: a late subscriber
//! to a running job attaches to the first submission's write-once job cell
//! and receives the one shared outcome.
//!
//! A job whose preparation fails (a configuration error, or a panic,
//! caught) has no machine: it resolves at submission as one failed
//! outcome, counted as executed and failed, and memoized under its
//! [`job_key`] so a resubmission is a memo hit. `submit` never panics.
//!
//! The queue is *persistent* at process scope: [`SweepService::global`]
//! hands out one process-wide instance that the grid runner
//! ([`crate::run_grid`], and through it every experiment and `repro run`)
//! and `repro trace` share, so duplicate machines dedupe across grids, not
//! just within one. Tests wanting exact counter assertions build private
//! instances with [`SweepService::new`]; a test asserting counter deltas on
//! the global instance must submit jobs that no other test in its binary
//! can merge with.

pub mod hash;
pub mod memo;
mod queue;
mod worker;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use grs_isa::Kernel;
use grs_sim::{RunConfig, RunReport, ServiceStats, Simulator};

pub use hash::{job_key, machine_key, ConfigHash};

use queue::{JobCell, Shared, State, Task};

/// Terminal result of one executed (or failed) job, shared by every
/// subscriber and by the memo store.
#[derive(Debug)]
pub struct JobOutcome {
    /// The supervised run's report, or the rendered configuration error or
    /// panic message (of the preparation or the run).
    pub report: Result<Arc<RunReport>, String>,
}

/// How a submission was answered — the service's visible dedup decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// New work: the job was enqueued for execution, or its preparation
    /// failed and the handle was born resolved with the error.
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
    /// The job's canonical key: its [`machine_key`], or its [`job_key`]
    /// when its preparation failed.
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

    /// Submit a job. Prepares it on the calling thread, then returns with a
    /// [`JobHandle`]; whether the job was queued, attached to an in-flight
    /// run of the same machine, or answered from the memo store is on
    /// [`JobHandle::source`]. A job whose preparation fails or panics
    /// returns a handle already resolved with the error (see the module
    /// docs); `submit` itself never panics.
    pub fn submit(&self, cfg: RunConfig, kernel: Kernel) -> JobHandle {
        let sim = Simulator::new(cfg);
        let (key, machine) = match catch_unwind(AssertUnwindSafe(|| sim.prepare(&kernel))) {
            Ok(Ok(machine)) => (machine_key(&machine), Ok(machine)),
            Ok(Err(e)) => (job_key(sim.config(), &kernel, None), Err(e.to_string())),
            Err(panic) => (
                job_key(sim.config(), &kernel, None),
                Err(worker::panic_message(panic)),
            ),
        };
        let mut state = self.shared.state.lock().unwrap();
        state.stats.submitted += 1;
        if let Some(outcome) = state.memo.get(&key) {
            state.stats.memo_hits += 1;
            return self.handle(
                key,
                JobSource::MemoHit,
                Arc::new(JobCell::resolved(outcome)),
            );
        }
        let machine = match machine {
            Ok(machine) => machine,
            Err(error) => {
                // No machine to run: the failure is this job's outcome.
                let outcome = Arc::new(JobOutcome { report: Err(error) });
                worker::record(&mut state, key, &outcome);
                return self.handle(key, JobSource::Queued, Arc::new(JobCell::resolved(outcome)));
            }
        };
        if let Some(cell) = state.inflight.get(&key).map(Arc::clone) {
            state.stats.deduped += 1;
            return self.handle(key, JobSource::Attached, cell);
        }
        let cell = Arc::new(JobCell::new());
        state.inflight.insert(key, Arc::clone(&cell));
        state.pending.push_back(Task { key, machine });
        drop(state);
        self.shared.work.notify_one();
        self.handle(key, JobSource::Queued, cell)
    }

    fn handle(&self, key: ConfigHash, source: JobSource, cell: Arc<JobCell>) -> JobHandle {
        JobHandle {
            key,
            source,
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
