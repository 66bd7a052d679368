//! Supervised execution: one run to completion, `max_cycles` or a
//! forward-progress watchdog trip, and the [`RunReport`] saying which.
//!
//! ## Watchdog
//!
//! The machine can genuinely livelock (e.g. a configuration whose per-warp
//! MSHR quota is zero leaves every global-memory warp permanently blocked).
//! Rather than burning cycles to `max_cycles`, the watchdog
//! ([`crate::run::RunConfig::watchdog`]) trips when a full window of `w`
//! cycles elapses past the *progress watermark* — the latest issue and the
//! latest event ever scheduled on any timing wheel
//! (`Gpu::progress_watermark`). Past the watermark no wheel holds an
//! event, so no writeback or capacity release can change a warp any more.
//! One cycle of slack remains: an issue at the watermark cycle can make
//! another issue possible on the next cycle with nothing scheduled
//! (after a branch, a barrier release or a block refill), so windows below
//! [`MIN_WATCHDOG_WINDOW`] are raised to it. From then on a warp's
//! readiness depends only on state that issues and wheel events change,
//! plus the dynamic throttle's draws: with the throttle off a trip proves a
//! livelock, and with it on the window bounds how long throttled warps may
//! wait. Because the watermark's inputs are engine-invariant, the
//! per-cycle and fast-forward engines trip at the same cycle with
//! bit-identical statistics. The run ends with a populated
//! [`StallDiagnosis`] in the [`RunReport`].

use crate::gpu::{EngineState, Gpu, SpanEnd};
use crate::kinfo::KernelInfo;
use crate::run::RunConfig;
use crate::stats::SimStats;
use crate::telemetry::{assemble, TelemetryReport};

/// Smallest effective watchdog window, in cycles: the slack one issue with
/// nothing scheduled leaves before the next (see the module docs).
pub const MIN_WATCHDOG_WINDOW: u64 = 2;

/// Why a supervised run ended, beyond what [`SimStats`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The grid drained.
    Completed,
    /// `max_cycles` elapsed with work still in flight.
    TimedOut,
    /// The forward-progress watchdog proved a livelock (see the module
    /// docs) and ended the run early with a diagnosis.
    Stalled(Box<StallDiagnosis>),
}

/// Structured diagnosis of a watchdog trip: where every SM and the memory
/// system stood when the machine provably could not progress any more.
#[derive(Debug, Clone, PartialEq)]
pub struct StallDiagnosis {
    /// Cycle the watchdog tripped at (`last_progress` + `window`).
    pub at_cycle: u64,
    /// The effective watchdog window (the configured one, raised to at
    /// least [`MIN_WATCHDOG_WINDOW`]).
    pub window: u64,
    /// The progress watermark: the latest issue or scheduled event.
    pub last_progress: u64,
    /// Grid blocks never dispatched.
    pub blocks_undispatched: u32,
    /// Per-SM state at the trip.
    pub sms: Vec<SmDiag>,
    /// Memory-system state at the trip.
    pub mem: MemDiag,
}

impl std::fmt::Display for StallDiagnosis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "livelock proven at cycle {}: no progress since cycle {} \
             (watchdog window {}), {} grid blocks never dispatched",
            self.at_cycle, self.last_progress, self.window, self.blocks_undispatched
        )?;
        for sm in &self.sms {
            write!(
                f,
                "  SM {}: {} blocks, live warps: {}, ",
                sm.id, sm.live_blocks, sm.live_warps
            )?;
            match sm.next_wake {
                Some(w) => write!(f, "next wake at {w}")?,
                None => write!(f, "no pending wake")?,
            }
            writeln!(
                f,
                ", gate-blocked warps: {} mshr / {} dram{}",
                sm.gate_mshr,
                sm.gate_dram,
                if sm.sleeping { ", sleeping" } else { "" }
            )?;
        }
        write!(
            f,
            "  MEM: {} MSHR + {} DRAM-queue entries in flight, ",
            self.mem.mshr_in_flight, self.mem.dram_queue_in_flight
        )?;
        match self.mem.next_release {
            Some(r) => write!(f, "next release at {r}"),
            None => write!(f, "no pending release"),
        }
    }
}

/// One SM's state inside a [`StallDiagnosis`].
#[derive(Debug, Clone, PartialEq)]
pub struct SmDiag {
    /// SM index.
    pub id: usize,
    /// Blocks resident.
    pub live_blocks: u32,
    /// Any unfinished warp?
    pub live_warps: bool,
    /// Earliest pending writeback, if any (none in a livelock).
    pub next_wake: Option<u64>,
    /// Warps blocked by MSHR back-pressure at the last scan.
    pub gate_mshr: u32,
    /// Warps blocked by DRAM-queue back-pressure at the last scan.
    pub gate_dram: u32,
    /// Was the SM inside a sleep span when the watchdog tripped?
    pub sleeping: bool,
}

/// Memory-system state inside a [`StallDiagnosis`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemDiag {
    /// Earliest pending MSHR/DRAM capacity release (none in a livelock).
    pub next_release: Option<u64>,
    /// MSHR entries in flight across all partitions.
    pub mshr_in_flight: u32,
    /// DRAM-queue slots in flight across all partitions.
    pub dram_queue_in_flight: u32,
}

/// Per-service counters of a memoizing sweep service (the `grs-bench`
/// service layer): how many jobs were submitted, how many were answered
/// without simulating (in-flight dedup and memo hits), and how the executed
/// remainder fared. Its `Display` renders one `service: …` line, which
/// `repro trace` prints after the [`RunReport::summary`] of the run it
/// served.
///
/// Every run is deterministic by construction (the repository's
/// bit-identity test suites pin this), which is what makes exact
/// content-hash memoization sound: `deduped + memo_hits` submissions were
/// answered from a single execution with *bit-identical* statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted to the service.
    pub submitted: u64,
    /// Submissions attached to an already in-flight identical job
    /// (in-flight dedup; the subscriber shares the first submission's run).
    pub deduped: u64,
    /// Submissions answered from the memo store without simulating.
    pub memo_hits: u64,
    /// Jobs actually simulated by a worker.
    pub executed: u64,
    /// Executed jobs that failed: a configuration error or a panic.
    pub failed: u64,
    /// Memo-store entries evicted by the bounded LRU.
    pub evicted: u64,
}

impl ServiceStats {
    /// Fraction of submissions answered without simulating (0 when nothing
    /// was submitted).
    pub fn hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.deduped + self.memo_hits) as f64 / self.submitted as f64
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "service: {} submitted, {} deduped in-flight, {} memo hits, \
             {} executed, {} failed, {} evicted",
            self.submitted, self.deduped, self.memo_hits, self.executed, self.failed, self.evicted
        )
    }
}

/// Everything a supervised run reports: the statistics, how the run ended,
/// and the telemetry it collected.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Aggregated simulation statistics.
    pub stats: SimStats,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Collected telemetry, when [`crate::run::RunConfig::telemetry`] was
    /// set (`None` otherwise).
    pub telemetry: Option<TelemetryReport>,
}

impl RunReport {
    /// Did the grid drain?
    pub fn completed(&self) -> bool {
        self.outcome == RunOutcome::Completed
    }

    /// Multi-line human-readable summary of the run: outcome, headline
    /// statistics, the stall breakdown, and the telemetry footprint.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.stats;
        let mut out = String::new();
        match &self.outcome {
            RunOutcome::Completed => {
                let _ = writeln!(out, "outcome: completed in {} cycles", s.cycles);
            }
            RunOutcome::TimedOut => {
                let _ = writeln!(out, "outcome: timed out after {} cycles", s.cycles);
            }
            RunOutcome::Stalled(d) => {
                let _ = writeln!(out, "outcome: stalled (watchdog)\n{d}");
            }
        }
        let _ = writeln!(
            out,
            "blocks: {} completed; instrs: {} warp / {} thread; IPC {:.3}",
            s.blocks_completed,
            s.warp_instrs,
            s.thread_instrs,
            s.ipc()
        );
        let _ = writeln!(
            out,
            "idle breakdown: {} scoreboard, {} barrier, {} no-ready (of {} idle); \
             {} pipeline-stall cycles (mem gate)",
            s.stall_scoreboard_cycles,
            s.stall_barrier_cycles,
            s.stall_no_ready_cycles,
            s.idle_cycles,
            s.stall_mem_gate_cycles,
        );
        if let Some(t) = &self.telemetry {
            let _ = writeln!(out, "telemetry: {}", t.summary());
        }
        out
    }
}

/// Capture a [`StallDiagnosis`] from the machine state at the trip cycle.
fn diagnose(gpu: &Gpu, st: &EngineState, window: u64) -> StallDiagnosis {
    StallDiagnosis {
        at_cycle: st.cycle,
        window,
        last_progress: gpu.progress_watermark(st),
        blocks_undispatched: gpu.dispatcher.remaining(),
        sms: gpu
            .sms
            .iter()
            .enumerate()
            .map(|(i, sm)| {
                let (gate_mshr, gate_dram) = sm.gate_block_counts();
                SmDiag {
                    id: sm.id,
                    live_blocks: sm.live_blocks(),
                    live_warps: sm.has_live_warps(),
                    next_wake: sm.next_wake(),
                    gate_mshr,
                    gate_dram,
                    sleeping: st.sleep_from.get(i).copied().flatten().is_some(),
                }
            })
            .collect(),
        mem: {
            let (mshr_in_flight, dram_queue_in_flight) = gpu.shared.in_flight();
            MemDiag {
                next_release: gpu.shared.next_release(),
                mshr_in_flight,
                dram_queue_in_flight,
            }
        },
    }
}

/// Run `gpu` until the grid drains, `cfg.max_cycles` elapse or the
/// watchdog trips, and report how the run ended.
pub(crate) fn supervise(cfg: &RunConfig, mut gpu: Gpu, kinfo: &KernelInfo) -> RunReport {
    let watchdog = cfg.watchdog.map(|w| w.max(MIN_WATCHDOG_WINDOW));
    let mut st = gpu.start(kinfo);
    let outcome = match gpu.run_until(&mut st, kinfo, cfg.max_cycles, watchdog) {
        SpanEnd::Finished => RunOutcome::Completed,
        SpanEnd::ReachedStop => RunOutcome::TimedOut,
        SpanEnd::Stalled => {
            RunOutcome::Stalled(Box::new(diagnose(&gpu, &st, watchdog.unwrap_or(0))))
        }
    };
    let stats = gpu.finish(st);
    let telemetry = cfg.telemetry.is_some().then(|| {
        let (sms, mem) = gpu.take_telemetry();
        assemble(sms, mem)
    });
    RunReport {
        stats,
        outcome,
        telemetry,
    }
}
