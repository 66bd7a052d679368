//! Job execution: the worker loop and the inline helper.
//!
//! A task carries the [`Machine`](grs_sim::Machine) its key was computed
//! from, already validated and resolved at submission; a worker runs
//! exactly that machine under the simulator's supervisor —
//! [`Machine::run`](grs_sim::Machine::run) brings the livelock watchdog —
//! and this module adds `catch_unwind` around the whole run. A run that
//! panics is recorded as a failed [`JobOutcome`] and memoized like any
//! other: the simulator is deterministic, so a retry would fail the same
//! way. (Configuration errors surface earlier, at submission; see the
//! [module docs](super).)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use super::hash::ConfigHash;
use super::queue::{Shared, State, Task};
use super::JobOutcome;

/// The message of a caught panic.
pub(super) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run the simulation, turning a panic into a failed outcome. Pure with
/// respect to the service (no locks taken).
fn execute(task: &Task) -> JobOutcome {
    let report = catch_unwind(AssertUnwindSafe(|| task.machine.run())).map_err(panic_message);
    JobOutcome {
        report: report.map(Arc::new),
    }
}

/// Count a finished job (executed, and failed if it did) and memoize its
/// outcome under `key`. Called with the state lock held.
pub(super) fn record(state: &mut State, key: ConfigHash, outcome: &Arc<JobOutcome>) {
    state.stats.executed += 1;
    if outcome.report.is_err() {
        state.stats.failed += 1;
    }
    state.memo.insert(key, Arc::clone(outcome));
    state.stats.evicted = state.memo.evicted();
}

/// Execute one task to completion: simulate (unlocked), then under the
/// state lock bump counters, memoize the outcome, and retire the in-flight
/// entry; finally resolve the cell so subscribers wake. Shared by worker
/// threads, [`SweepService::drain`](super::SweepService::drain), and the
/// help-first path in [`JobHandle::wait`](super::JobHandle::wait).
pub(super) fn run_one(shared: &Shared, task: Task) {
    let outcome = Arc::new(execute(&task));
    let cell = {
        let mut state = shared.state.lock().unwrap();
        record(&mut state, task.key, &outcome);
        state.inflight.remove(&task.key)
    };
    if let Some(cell) = cell {
        cell.resolve(outcome);
    }
}

/// Body of one worker thread: pop-or-sleep until shutdown.
pub(super) fn worker_loop(shared: Arc<Shared>) {
    loop {
        let task = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if let Some(task) = state.pending.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        run_one(&shared, task);
    }
}
