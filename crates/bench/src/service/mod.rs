//! # Sweep service: batches of simulations, memoized by the machine
//!
//! Every simulation request in the bench harness flows through one of
//! these. A submission is a `(RunConfig, Kernel)` pair; the service
//! resolves it on the submitting thread to the [`Machine`] it builds
//! ([`Simulator::prepare`]) and looks that machine up, by value, in one
//! map from [`MachineKey`] to the machine's job cell. A job's identity is
//! the machine, not the spelling: configurations that build one machine (a
//! plan without shared pairs under any sharing resource, threshold,
//! throttle or reorder flag; OWF or GTO without pairs; two thresholds or
//! declaration orders with one plan and one set of per-instruction shared
//! flags) are simulated once.
//!
//! ```text
//!   submit ──▶ prepare ──err/panic──▶ resolved JobHandle (executed + failed)
//!                 │ Machine
//!                 ▼
//!            machine_key ──▶ map ──resolved cell──▶ memo hit
//!                             │  ──unresolved cell──▶ deduped (shares the cell)
//!                             │ absent
//!                             ▼
//!                   new cell, pushed on the pending batch
//!
//!   JobHandle::wait ──▶ take the whole pending batch ──▶ `workers` scoped
//!       threads + the waiter, each Machine::run under catch_unwind
//!       ──▶ count, resolve the cell
//! ```
//!
//! Both structures sit behind one mutex, so two racing submissions of one
//! machine cannot both push it: the second finds the first's cell.
//!
//! **Nothing runs until a wait.** No client loses overlap from that,
//! because each waits right after it submits: [`crate::run_grid`] submits
//! every cell of its grid and then waits on each, `repro trace` submits
//! one job and waits, the benchmark's paper-quick makes its 311
//! submissions and then waits, and the tests do the same.
//!
//! The load-bearing invariant: **the simulator is deterministic, so
//! memoization is exact.** Equal machine keys are equal machines, and
//! equal machines report bit-identical [`RunReport`]s (the determinism
//! suites pin this across engines and memory models, and
//! `tests/sweep_service.rs` checks equal keys ⇒ equal reports over random
//! settings), so answering a resubmission from a resolved cell, or
//! sharing an unresolved one, is indistinguishable from re-running it. A
//! run that panics is memoized like any other outcome, because it would
//! fail the same way again. A job whose preparation fails (a configuration
//! error, or a panic, caught) has no machine: its handle resolves at
//! submission, counted as executed and failed, and nothing is memoized,
//! so a resubmission is prepared again. `submit` never panics.
//!
//! [`SweepService::global`] hands out one process-wide instance that the
//! grid runner (and through it every experiment and `repro run`) and
//! `repro trace` share, so duplicate machines dedupe across grids, not
//! just within one. Tests wanting exact counter assertions build private
//! instances with [`SweepService::new`]; a test asserting counter deltas on
//! the global instance must submit jobs that no other test in its binary
//! can merge with.

pub mod hash;

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use grs_core::{GpuConfig, LaunchPlan, ResourceKind, SchedulerKind};
use grs_isa::Kernel;
use grs_sim::kinfo::{InstrMeta, KernelInfo};
use grs_sim::{Machine, RunConfig, RunReport, ServiceStats, Simulator, TelemetryConfig};

pub use hash::{job_key, ConfigHash};

/// Terminal result of one executed (or failed) job, shared by every
/// handle to its machine.
#[derive(Debug)]
pub struct JobOutcome {
    /// The supervised run's report, or the rendered configuration error or
    /// panic message (of the preparation or the run).
    pub report: Result<Arc<RunReport>, String>,
}

/// One machine's write-once outcome, shared by the map and every handle.
type JobCell = Arc<OnceLock<Arc<JobOutcome>>>;

/// Subscription to one job's outcome.
pub struct JobHandle {
    cell: JobCell,
    service: Arc<Inner>,
}

impl JobHandle {
    /// Block until the outcome is available. If it is not yet, first run
    /// the service's whole pending batch (see the [module docs](self)); a
    /// job already taken by another waiter is waited for.
    pub fn wait(&self) -> Arc<JobOutcome> {
        if self.cell.get().is_none() {
            let batch = std::mem::take(&mut self.service.state().pending);
            self.service.run(&batch);
        }
        Arc::clone(self.cell.wait())
    }
}

/// Construction knobs for a private service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Threads that run a batch beside the waiting thread. `0` runs every
    /// batch on the waiter alone, and nothing runs before a wait either
    /// way, so tests read exact dedup counters after submitting.
    pub workers: usize,
    /// Unread: the map never evicts, and a process builds at most 124
    /// machines (`repro all`). Kept only so the struct literal in
    /// `benchmark/src/run.rs` compiles, as [`job_key`]'s third parameter is.
    pub memo_capacity: usize,
}

impl Default for ServiceConfig {
    /// One worker fewer than the available cores: with the waiter, a
    /// batch runs on one thread per core.
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, |p| p.get()) - 1,
            memo_capacity: 512,
        }
    }
}

/// The sweep service. See the [module docs](self) for the architecture.
pub struct SweepService {
    inner: Arc<Inner>,
}

/// What a [`SweepService`] and its handles share.
struct Inner {
    workers: usize,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// Every machine submitted, with its cell: resolved once it has run.
    jobs: HashMap<MachineKey, JobCell>,
    /// Machines no wait has taken yet, in submission order.
    pending: Vec<(Machine, JobCell)>,
    stats: ServiceStats,
}

impl SweepService {
    /// A private instance with its own map and counters. Spawns nothing.
    pub fn new(cfg: ServiceConfig) -> Self {
        SweepService {
            inner: Arc::new(Inner {
                workers: cfg.workers,
                state: Mutex::default(),
            }),
        }
    }

    /// The process-wide instance behind [`crate::run_grid`] and `repro
    /// trace`, with [`ServiceConfig::default`]. Never dropped; its map is
    /// what makes duplicate machines across separate grids in one process
    /// free.
    pub fn global() -> &'static SweepService {
        static GLOBAL: OnceLock<SweepService> = OnceLock::new();
        GLOBAL.get_or_init(|| SweepService::new(ServiceConfig::default()))
    }

    /// Submit a job: prepare it on the calling thread and return a handle
    /// to its machine's cell. A job whose preparation fails or panics
    /// returns a handle already resolved with the error (see the module
    /// docs); `submit` itself never panics.
    pub fn submit(&self, cfg: RunConfig, kernel: Kernel) -> JobHandle {
        let sim = Simulator::new(cfg);
        let machine = match catch_unwind(AssertUnwindSafe(|| sim.prepare(&kernel))) {
            Ok(Ok(machine)) => machine,
            Ok(Err(e)) => return self.failed(e.to_string()),
            Err(panic) => return self.failed(panic_message(panic)),
        };
        let key = machine_key(&machine);
        let mut guard = self.inner.state();
        let state = &mut *guard;
        state.stats.submitted += 1;
        let cell = match state.jobs.entry(key) {
            Entry::Occupied(e) => {
                match e.get().get() {
                    Some(_) => state.stats.memo_hits += 1,
                    None => state.stats.deduped += 1,
                }
                Arc::clone(e.get())
            }
            Entry::Vacant(e) => {
                let cell = Arc::clone(e.insert(JobCell::default()));
                state.pending.push((machine, Arc::clone(&cell)));
                cell
            }
        };
        self.handle(cell)
    }

    /// A handle resolved with a preparation failure: there is no machine
    /// to run, so the failure is the job's outcome.
    fn failed(&self, error: String) -> JobHandle {
        let mut state = self.inner.state();
        state.stats.submitted += 1;
        state.stats.executed += 1;
        state.stats.failed += 1;
        let outcome = Arc::new(JobOutcome { report: Err(error) });
        self.handle(Arc::new(OnceLock::from(outcome)))
    }

    fn handle(&self, cell: JobCell) -> JobHandle {
        JobHandle {
            cell,
            service: Arc::clone(&self.inner),
        }
    }

    /// The service counters as they stand.
    pub fn stats(&self) -> ServiceStats {
        self.inner.state().stats
    }
}

impl Inner {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("nothing panics while holding the service's lock")
    }

    /// Run `batch` on up to `workers` scoped threads plus the calling one,
    /// each taking the next unstarted machine, and resolve every cell.
    fn run(&self, batch: &[(Machine, JobCell)]) {
        // Hands out indices only; the batch itself is read-only.
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some((machine, cell)) = batch.get(next.fetch_add(1, Ordering::Relaxed)) {
                let report = catch_unwind(AssertUnwindSafe(|| machine.run()));
                let report = report.map(Arc::new).map_err(panic_message);
                let mut state = self.state();
                state.stats.executed += 1;
                state.stats.failed += u64::from(report.is_err());
                // Only this batch holds the cell unresolved, so the set
                // cannot fail.
                let _ = cell.set(Arc::new(JobOutcome { report }));
            }
        };
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(batch.len().saturating_sub(1)) {
                s.spawn(work);
            }
            work();
        });
    }
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A [`Machine`] projected to the values its run reads, as a map key:
/// equal keys are equal machines, with no hash collision to argue about.
/// Built only by [`machine_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineKey {
    gpu: GpuConfig,
    /// The kernel's name, kept conservatively so that tests can make a
    /// kernel unique by its name.
    name: String,
    /// Threads, registers per thread and scratchpad bytes per block, grid
    /// blocks, warps per block.
    footprint: [u32; 5],
    threads_in_warp: Vec<u32>,
    num_loops: usize,
    /// Per instruction: op, destination, operand mask, transaction count
    /// and classification flags.
    meta: Vec<InstrMeta>,
    /// The plan's unshared blocks, shared pairs and resident blocks.
    plan: [u32; 3],
    scheduler: SchedulerKind,
    dyn_throttle: bool,
    sharing: Option<ResourceKind>,
    /// Observation knobs are keyed even where they are proven
    /// stats-invariant: the memoized artifact is the whole report,
    /// telemetry included, and that depends on them.
    fast_forward: bool,
    telemetry: Option<TelemetryConfig>,
    watchdog: Option<u64>,
    max_cycles: u64,
}

/// The key of the machine
/// [`Simulator::prepare`](grs_sim::Simulator::prepare) builds for a job.
///
/// Every struct is taken apart with a full pattern (no `..`), so a new
/// field on `Machine`, `KernelInfo`, `Kernel` or `LaunchPlan` is a compile
/// error here until it is keyed or skipped with its reason beside it. A
/// field silently missing from the key would let the map serve the wrong
/// report. The per-instruction `InstrMeta` stands in for the program, the
/// declaration order and the threshold, whose only effects are the plan
/// and its flags.
pub fn machine_key(m: &Machine) -> MachineKey {
    let Machine {
        gpu,
        kinfo,
        plan,
        scheduler,
        dyn_throttle,
        sharing,
        fast_forward,
        telemetry,
        watchdog,
        max_cycles,
    } = m;
    let KernelInfo {
        kernel,
        warps_per_block,
        threads_in_warp,
        meta,
        num_loops,
    } = kinfo;
    let Kernel {
        name,
        threads_per_block,
        regs_per_thread,
        smem_per_block,
        grid_blocks,
        // Read only through `meta`, which holds one entry per instruction
        // with its op, destination and operand mask.
        program: _,
        // Read only through the shared flag in `meta` (the plan
        // depends on the footprint alone).
        decl_seq: _,
    } = kernel;
    let LaunchPlan {
        unshared,
        shared_pairs,
        max_blocks,
        // Reported alongside the plan, never read by the machine.
        baseline_blocks: _,
        // The machine reads `sharing` instead.
        resource: _,
    } = plan;
    MachineKey {
        gpu: gpu.clone(),
        name: name.clone(),
        footprint: [
            *threads_per_block,
            *regs_per_thread,
            *smem_per_block,
            *grid_blocks,
            *warps_per_block,
        ],
        threads_in_warp: threads_in_warp.clone(),
        num_loops: *num_loops,
        meta: meta.clone(),
        plan: [*unshared, *shared_pairs, *max_blocks],
        scheduler: *scheduler,
        dyn_throttle: *dyn_throttle,
        sharing: *sharing,
        fast_forward: *fast_forward,
        telemetry: *telemetry,
        watchdog: *watchdog,
        max_cycles: *max_cycles,
    }
}
