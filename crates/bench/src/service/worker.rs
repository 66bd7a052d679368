//! Job execution: the worker loop and the inline helper.
//!
//! Every job runs under the simulator's supervision stack —
//! [`Simulator::try_run_report`] brings checkpoints and the livelock
//! watchdog — and this module adds `catch_unwind` around the whole run. A
//! job that panics or returns a `RunError` is recorded as a failed
//! [`JobOutcome`] and memoized like any other: the simulator is
//! deterministic, so a retry would fail the same way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use grs_sim::Simulator;

use super::queue::{Shared, Task};
use super::JobOutcome;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run the simulation, turning a panic or a configuration error into a
/// failed outcome. Pure with respect to the service (no locks taken).
fn execute(task: &Task) -> JobOutcome {
    let sim = Simulator::new(task.cfg.clone());
    let report = catch_unwind(AssertUnwindSafe(|| sim.try_run_report(&task.kernel)))
        .map_err(panic_message)
        .and_then(|r| r.map_err(|e| e.to_string()));
    JobOutcome {
        report: report.map(Arc::new),
    }
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
        state.stats.executed += 1;
        if outcome.report.is_err() {
            state.stats.failed += 1;
        }
        state.memo.insert(task.key, Arc::clone(&outcome));
        state.stats.evicted = state.memo.evicted();
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
