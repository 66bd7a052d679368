//! Whole-GPU orchestration: SM array, shared memory system, dispatcher,
//! dynamic throttle, main cycle loop with event-driven fast-forward.
//!
//! ## Fast-forward
//!
//! On memory-bound kernels most cycles are *dead* for most SMs: no ready
//! warp, nothing blocked on a lock, a port or the throttle, and every state
//! change until the next writeback drain is fully predetermined. An SM that
//! reports such a quiescent cycle ([`crate::sm::StepOutcome`]) goes to
//! *sleep* until its earliest pending writeback (its timing wheel's
//! minimum): while asleep it cannot act (no ready warps, no issues, no
//! memory traffic) and nothing external can change its readiness — other
//! SMs interact only through the shared memory system (touched at issue
//! time only) and the dispatcher (consulted only on block completion), and
//! throttle-probability changes only matter to warps the scan classifies
//! volatile, which a quiescent SM has none of. The run loop steps only the
//! SMs whose wake-up cycle has arrived and jumps the clock to the next
//! wake-up when every SM sleeps. Skipped spans are credited to the exact
//! same per-SM `idle_cycles`/`empty_cycles` counters and throttle stall
//! windows the per-cycle loop would have produced (see
//! [`DynThrottle::sleep_sm`]), so [`crate::SimStats`] is bit-identical with
//! the engine on or off. Stall cycles from locks, ports, the throttle and
//! the per-warp MSHR limit are never skippable by construction: any warp in
//! such a state marks its SM's cycle non-quiescent.
//!
//! ## Quiescence under memory back-pressure
//!
//! Finite MSHR tables and DRAM queues add one external wake source: a warp
//! blocked by memory back-pressure ([`crate::mem::MemGate`]) unblocks when
//! an MSHR entry or DRAM-queue slot *drains*, not when a writeback lands.
//! Such an SM reports [`crate::sm::StepOutcome::gated`] instead of
//! `quiescent`; it still sleeps, but its wake-up cycle is the minimum of
//! its own writeback wheel **and** the memory system's next capacity
//! release ([`crate::mem::SharedMem::next_release`]), and the skipped span
//! is credited as *stall* cycles with the per-warp MSHR-full/queue-full
//! counters scaled in closed form ([`crate::sm::Sm::credit_gated`] — exact
//! because the gate provably cannot open before the next release). SMs that
//! sleep purely on writebacks never need a release wake-up: the gate only
//! blocks warps the scan would classify gated, and capacity releases are
//! processed lazily ([`crate::mem::SharedMem::advance_to`]) with the
//! occupancy integrals credited piecewise at event times, which keeps them
//! exact across arbitrarily long clock jumps.

use grs_core::{DynThrottle, GpuConfig, LaunchPlan, ResourceKind, SchedulerKind};

use crate::cache::Cache;
use crate::dispatch::Dispatcher;
use crate::kinfo::KernelInfo;
use crate::mem::SharedMem;
use crate::sm::{Sm, SmMode};
use crate::stats::SimStats;
use crate::telemetry::{MemTelemetry, SmTelemetry, TelemetryConfig};

/// Engine-loop state carried between [`Gpu::run_until`] spans: the per-SM
/// wake/sleep bookkeeping plus the clock. Splitting it out of the run loop
/// is what makes checkpoint/resume possible — a [`Snapshot`] is exactly
/// `(cloned Gpu, cloned EngineState)`, and resuming a span from either a
/// fresh [`Gpu::start`] or a restored snapshot is bit-identical to a
/// straight run (the loop body never reads anything else).
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Per-SM wake-up cycle (`u64::MAX`: empty, nothing can ever wake it).
    pub(crate) wake_at: Vec<u64>,
    /// For sleepers, the first slept cycle (for stats crediting).
    pub(crate) sleep_from: Vec<Option<u64>>,
    /// Whether a slept span is a memory-gated stall span.
    pub(crate) sleep_gated: Vec<bool>,
    /// Next cycle the engine will evaluate.
    pub(crate) cycle: u64,
    /// Latest cycle on which any SM issued an instruction (0 before the
    /// first issue) — the non-event half of the watchdog watermark.
    pub(crate) last_issue: u64,
}

impl EngineState {
    /// Next cycle the engine will evaluate.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// How a bounded [`Gpu::run_until`] span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEnd {
    /// The grid drained.
    Finished,
    /// The stop cycle arrived first.
    ReachedStop,
    /// The forward-progress watchdog tripped: a full window elapsed past
    /// the progress watermark with no issue and no scheduled event left to
    /// fire (see the [`crate::supervise`] module docs).
    Stalled,
}

/// Deep-copy checkpoint of a run in flight: the complete deterministic
/// state — per-SM warp/slot/wheel state, MSHR/DRAM partition tables,
/// dispatcher, throttle RNG streams — plus the engine-loop bookkeeping.
/// Restoring and running to completion is bit-identical to never having
/// stopped ([`crate::run::RunConfig::checkpoint_every`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    gpu: Gpu,
    engine: EngineState,
}

impl Snapshot {
    /// Cycle the checkpoint resumes at.
    pub fn cycle(&self) -> u64 {
        self.engine.cycle
    }
}

/// A configured GPU mid-simulation.
#[derive(Debug, Clone)]
pub struct Gpu {
    /// The SM array.
    pub sms: Vec<Sm>,
    /// Shared L2 + DRAM.
    pub shared: SharedMem,
    /// Dynamic warp-execution throttle.
    pub throttle: DynThrottle,
    /// Grid dispatcher.
    pub dispatcher: Dispatcher,
    pub(crate) cfg: GpuConfig,
    fast_forward: bool,
}

impl Gpu {
    /// Build the machine for one run. `fast_forward` enables the
    /// event-driven engine (results are identical either way; see the module
    /// docs).
    #[allow(clippy::too_many_arguments)] // mirrors RunConfig knob-for-knob
    pub fn new(
        cfg: &GpuConfig,
        kinfo: &KernelInfo,
        plan: LaunchPlan,
        sched_kind: SchedulerKind,
        dyn_throttle: bool,
        sharing: Option<ResourceKind>,
        fast_forward: bool,
        telemetry: Option<TelemetryConfig>,
    ) -> Self {
        let units = cfg.sm.schedulers as usize;
        let register_sharing = sharing == Some(ResourceKind::Registers);
        let sms = (0..cfg.num_sms as usize)
            .map(|id| {
                let l1 = Cache::new(
                    u64::from(cfg.mem.l1_bytes),
                    cfg.mem.l1_ways,
                    u64::from(cfg.mem.line_bytes),
                );
                Sm::new(
                    id,
                    plan,
                    kinfo,
                    sched_kind,
                    units,
                    l1,
                    SmMode {
                        register_sharing,
                        incremental: fast_forward,
                        telemetry,
                    },
                )
            })
            .collect();
        let throttle = if dyn_throttle && sharing.is_some() {
            DynThrottle::paper(cfg.num_sms as usize)
        } else {
            DynThrottle::disabled(cfg.num_sms as usize)
        };
        let mut shared = SharedMem::new(cfg.mem);
        if let Some(t) = telemetry.as_ref() {
            shared.set_telemetry(t);
        }
        Gpu {
            sms,
            shared,
            throttle,
            dispatcher: Dispatcher::new(kinfo.kernel.grid_blocks),
            cfg: cfg.clone(),
            fast_forward,
        }
    }

    /// Fill SM block slots round-robin at kernel start (GPGPU-Sim's initial
    /// distribution).
    pub fn initial_fill(&mut self, kinfo: &KernelInfo) {
        loop {
            let mut progressed = false;
            for sm in &mut self.sms {
                if sm.has_free_slot() {
                    if let Some(gid) = self.dispatcher.next_block() {
                        sm.launch_block(gid, kinfo, 0);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// All work dispatched and drained?
    pub fn finished(&self) -> bool {
        self.dispatcher.remaining() == 0 && self.sms.iter().all(|s| s.live_blocks() == 0)
    }

    /// Run until the grid completes or `max_cycles` elapse; returns the
    /// aggregated statistics.
    pub fn run(&mut self, kinfo: &KernelInfo, max_cycles: u64) -> SimStats {
        let mut st = self.start(kinfo);
        self.run_until(&mut st, kinfo, max_cycles, None);
        self.finish(st)
    }

    /// Dispatch the grid's initial wave and hand back a fresh engine state
    /// positioned at cycle 0.
    pub fn start(&mut self, kinfo: &KernelInfo) -> EngineState {
        self.initial_fill(kinfo);
        let n = self.sms.len();
        EngineState {
            wake_at: vec![0u64; n],
            sleep_from: vec![None; n],
            sleep_gated: vec![false; n],
            cycle: 0,
            last_issue: 0,
        }
    }

    /// Deep-copy checkpoint of the machine and engine state as they stand.
    pub fn snapshot(&self, engine: &EngineState) -> Snapshot {
        Snapshot {
            gpu: self.clone(),
            engine: engine.clone(),
        }
    }

    /// Overwrite this machine with `snap`'s state and return the engine
    /// state to resume from. The snapshot is reusable: restoring it twice
    /// resumes from the same state twice.
    pub fn restore(&mut self, snap: &Snapshot) -> EngineState {
        *self = snap.gpu.clone();
        snap.engine.clone()
    }

    /// The progress watermark: the later of the latest issue and the latest
    /// event ever scheduled on any wheel (SM writebacks, memory capacity
    /// releases). Strictly past this cycle every wheel is empty, so only an
    /// issue can still change a warp's state; the watchdog counts its window
    /// from here. Engine-invariant — see the accessors it reads.
    pub(crate) fn progress_watermark(&self, st: &EngineState) -> u64 {
        let mut wm = st.last_issue;
        for sm in &self.sms {
            wm = wm.max(sm.latest_writeback());
        }
        wm.max(self.shared.latest_release_scheduled())
    }

    /// Run from `st.cycle` until the grid completes, `stop` arrives, or —
    /// with `watchdog: Some(w)` — a window of `w` cycles elapses past the
    /// progress watermark (livelock; see [`Self::progress_watermark`]).
    /// Stopping and resuming at any cycle is bit-identical to a straight
    /// run: the boundary evaluation is a no-op (no SM is due before its
    /// wake-up, and the throttle's lazy crediting is path-independent).
    pub fn run_until(
        &mut self,
        st: &mut EngineState,
        kinfo: &KernelInfo,
        stop: u64,
        watchdog: Option<u64>,
    ) -> SpanEnd {
        let lat = self.cfg.lat;
        let n = self.sms.len();
        let mut cycle = st.cycle;
        while !self.finished() && cycle < stop {
            if let Some(w) = watchdog {
                st.cycle = cycle;
                if cycle >= self.progress_watermark(st).saturating_add(w) {
                    return SpanEnd::Stalled;
                }
            }
            if cycle > 0 {
                // Window boundaries inside a fully-asleep span fire before
                // the cycle that wakes an SM, exactly as the per-cycle loop
                // would have fired them (probabilities must be current when
                // the woken SM scans).
                self.throttle.advance_to(cycle - 1);
            }
            for i in 0..n {
                if st.wake_at[i] > cycle {
                    continue;
                }
                if let Some(since) = st.sleep_from[i].take() {
                    if st.sleep_gated[i] {
                        self.sms[i].credit_gated(since, cycle);
                    } else {
                        self.sms[i].credit_skipped(since, cycle);
                    }
                    self.throttle.wake_sm(i, cycle);
                }
                let out = self.sms[i].step(
                    cycle,
                    kinfo,
                    &lat,
                    &mut self.shared,
                    &mut self.throttle,
                    &mut self.dispatcher,
                );
                if out.issued {
                    st.last_issue = cycle;
                }
                st.wake_at[i] = if self.fast_forward && (out.quiescent || out.gated) {
                    if out.live {
                        let mut wake = self.sms[i].next_wake();
                        if out.gated {
                            // Memory back-pressure only lifts when an MSHR
                            // entry or DRAM-queue slot drains: wake on the
                            // next capacity release too.
                            wake = match (wake, self.shared.next_release()) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                (a, b) => a.or(b),
                            };
                        }
                        match wake {
                            Some(w) if w > cycle => w,
                            // A live-but-eventless SM can only be a
                            // (deadlocked) reference-path state; keep
                            // stepping it every cycle.
                            _ => cycle + 1,
                        }
                    } else {
                        u64::MAX
                    }
                } else {
                    cycle + 1
                };
                if st.wake_at[i] > cycle + 1 {
                    st.sleep_from[i] = Some(cycle + 1);
                    st.sleep_gated[i] = out.gated;
                    if out.live {
                        self.throttle.sleep_sm(i, cycle + 1);
                    }
                }
            }
            self.throttle.advance_to(cycle);
            cycle += 1;
            if self.fast_forward {
                // Jump to the next cycle on which anything can happen.
                let next = st.wake_at.iter().copied().min().unwrap_or(cycle);
                if next > cycle {
                    cycle = next.min(stop);
                }
            }
        }
        st.cycle = cycle;
        if self.finished() {
            SpanEnd::Finished
        } else {
            SpanEnd::ReachedStop
        }
    }

    /// Close out a run at `st.cycle`: credit sleepers interrupted by grid
    /// completion, timeout or a watchdog trip, flush the memory system's
    /// occupancy integrals, and aggregate the statistics. Consumes the
    /// engine state — a finished run cannot be resumed.
    pub fn finish(&mut self, mut st: EngineState) -> SimStats {
        let cycle = st.cycle;
        for (i, (sm, slept)) in self.sms.iter_mut().zip(&mut st.sleep_from).enumerate() {
            if let Some(since) = slept.take() {
                if cycle > since {
                    if st.sleep_gated[i] {
                        sm.credit_gated(since, cycle);
                    } else {
                        sm.credit_skipped(since, cycle);
                    }
                }
            }
        }
        // Flush the memory system's occupancy integrals through the end.
        self.shared.finalize(cycle);
        self.collect(cycle, !self.finished())
    }

    pub(crate) fn collect(&self, cycles: u64, timed_out: bool) -> SimStats {
        SimStats::aggregate(
            cycles,
            timed_out,
            self.shared.stats.clone(),
            self.sms.iter().map(|sm| &sm.stats),
        )
    }

    /// Take the SM (in id order) and memory telemetry state for end-of-run
    /// assembly. Empty/`None` when tracing was off.
    pub(crate) fn take_telemetry(&mut self) -> (Vec<SmTelemetry>, Option<MemTelemetry>) {
        let sms = self
            .sms
            .iter_mut()
            .filter_map(|sm| sm.take_telemetry())
            .collect();
        (sms, self.shared.take_telemetry())
    }
}
