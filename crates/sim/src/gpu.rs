//! Whole-GPU orchestration: SM array, shared memory system, dispatcher,
//! dynamic throttle, main cycle loop with event-driven fast-forward.
//!
//! ## Fast-forward
//!
//! On memory-bound kernels most cycles are *dead* for most SMs: no ready
//! warp, no port conflict, no warp drawing from or held by the throttle or
//! checking a finite memory gate, and every state change until the next
//! writeback drain is fully predetermined. An SM that reports such a quiescent cycle
//! ([`crate::sm::StepOutcome`]) goes to *sleep* until its earliest pending
//! writeback (its timing wheel's minimum): while asleep it cannot act (no
//! ready warps, no issues, no memory traffic) and nothing external can
//! change its readiness — other SMs interact only through the shared
//! memory system (touched at issue time only) and the dispatcher
//! (consulted only on block completion), pair locks change only at an
//! issue on their own SM, and throttle-probability changes only matter to
//! non-owner warps that reach the throttle check: at 0 < p < 1 they draw,
//! which the scan classifies volatile; at p = 0 they are held, which keeps
//! the SM awake so that it sees the window close that lifts the hold; at
//! p = 1 they are ready. A quiescent SM has none of them, and the scan of
//! the cycle it wakes in re-evaluates its non-owner warps if its
//! probability moved while it slept. The run loop steps only the SMs whose wake-up
//! cycle has arrived and jumps the clock to the next wake-up when every SM
//! sleeps. Skipped spans are credited to the exact same per-SM counters
//! and throttle stall windows the per-cycle loop would have produced (see
//! [`DynThrottle::sleep_sm`]), so [`crate::SimStats`] is bit-identical
//! with the engine on or off:
//!
//! * an SM whose warps wait only on latency, barriers or pair locks
//!   sleeps an *idle* span ([`crate::sm::Sm::credit_sleep`]), with one
//!   `lock_retries` per lock waiter per skipped cycle;
//! * an SM with a warp at the per-warp MSHR limit sleeps a *stall* span
//!   (the same function, with `stalled` set): the limit lifts only at one
//!   of the warp's own writebacks.
//!
//! Port conflicts, same-cycle lock races, throttle draws and throttle holds
//! are never skipped: an SM with any of them is stepped again on the next
//! cycle.
//!
//! ## Quiescence under memory back-pressure
//!
//! Finite MSHR tables and DRAM queues add one external wake source: a warp
//! blocked by memory back-pressure ([`crate::mem::MemGate`]) unblocks when
//! an MSHR entry or DRAM-queue slot *drains*, not when a writeback lands.
//! Such an SM reports [`crate::sm::StepOutcome::gated`] as well as
//! `quiescent`; it still sleeps, but its wake-up cycle is the minimum of
//! its own writeback wheel **and** the memory system's next capacity
//! release ([`crate::mem::SharedMem::next_release`]), and the skipped span
//! is credited as *stall* cycles with the per-warp MSHR-full/queue-full
//! counters scaled in closed form ([`crate::sm::Sm::credit_sleep`] — exact
//! because the gate provably cannot open before the next release). A
//! release rarely frees room for a whole instruction, so a gated sleeper
//! woken by a release alone (its own next writeback is later) is not
//! stepped at once: the engine settles memory for it and, if the gate
//! still admits none of its gated warps ([`crate::sm::Sm::gate_holds`]),
//! re-arms it at the next writeback or release without stepping or
//! crediting it — the step would only have repeated the last one's
//! accounting, which the longer span credits. Only releases open the gate
//! (an earlier-stepped SM's admission in the same cycle can only close
//! it), and the gate is read at the SM's own turn, as its step would read
//! it. SMs that sleep purely on writebacks never need a release wake-up:
//! the gate only blocks warps the scan would classify gated, and capacity
//! releases are processed lazily ([`crate::mem::SharedMem::advance_to`])
//! with the occupancy integrals credited piecewise at event times, which
//! keeps them exact across arbitrarily long clock jumps.

use grs_core::{DynThrottle, GpuConfig, LaunchPlan, ResourceKind, SchedulerKind};

use crate::cache::Cache;
use crate::dispatch::Dispatcher;
use crate::kinfo::KernelInfo;
use crate::mem::SharedMem;
use crate::sm::{Sm, SmMode};
use crate::stats::SimStats;
use crate::telemetry::{MemTelemetry, SmTelemetry, TelemetryConfig};

/// Engine-loop state of one run: the per-SM wake/sleep bookkeeping plus
/// the clock. [`Gpu::start`] creates it, [`Gpu::run_until`] advances it,
/// and [`Gpu::finish`] consumes it; the watchdog's diagnosis reads it at a
/// trip.
#[derive(Debug)]
pub struct EngineState {
    /// Per-SM wake-up cycle (`u64::MAX`: empty, nothing can ever wake it).
    pub(crate) wake_at: Vec<u64>,
    /// For sleepers, the first slept cycle (for stats crediting).
    pub(crate) sleep_from: Vec<Option<u64>>,
    /// Whether a slept span is a pipeline-stall span (per-warp MSHR limit
    /// or memory gate) rather than an idle or empty one.
    pub(crate) sleep_stalled: Vec<bool>,
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

/// How a [`Gpu::run_until`] call ended.
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

/// A configured GPU mid-simulation.
#[derive(Debug)]
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

    /// Dispatch the grid's initial wave and hand back a fresh engine state
    /// positioned at cycle 0.
    pub fn start(&mut self, kinfo: &KernelInfo) -> EngineState {
        self.initial_fill(kinfo);
        let n = self.sms.len();
        EngineState {
            wake_at: vec![0u64; n],
            sleep_from: vec![None; n],
            sleep_stalled: vec![false; n],
            cycle: 0,
            last_issue: 0,
        }
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
    /// progress watermark (livelock; see `Gpu::progress_watermark`). A
    /// fast-forward jump never overshoots `stop`; sleepers the bound
    /// interrupts are credited by [`Self::finish`].
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
                if st.sleep_from[i].is_some() && self.sms[i].next_wake().is_none_or(|w| w > cycle) {
                    // A gated sleeper woken by a capacity release alone. Only
                    // releases open the gate (an earlier SM's admission this
                    // cycle can only close it), so if it still blocks every
                    // gated warp, the step would repeat the last one: sleep
                    // on, uncredited, until the next writeback or release.
                    self.shared.advance_to(cycle);
                    if self.sms[i].gate_holds(self.shared.issue_gate()) {
                        st.wake_at[i] = self.quiescent_wake(i, cycle, true);
                        continue;
                    }
                }
                if let Some(since) = st.sleep_from[i].take() {
                    self.sms[i].credit_sleep(since, cycle, st.sleep_stalled[i]);
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
                st.wake_at[i] = if self.fast_forward && out.quiescent {
                    if out.live {
                        self.quiescent_wake(i, cycle, out.gated)
                    } else {
                        u64::MAX
                    }
                } else {
                    cycle + 1
                };
                if st.wake_at[i] > cycle + 1 {
                    st.sleep_from[i] = Some(cycle + 1);
                    st.sleep_stalled[i] = out.stalled;
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

    /// The cycle SM `i`, live and quiescent at `cycle`, must next be
    /// stepped: its next writeback drain or, with a warp blocked by the
    /// memory gate, the next capacity release if that is earlier.
    fn quiescent_wake(&self, i: usize, cycle: u64, gated: bool) -> u64 {
        let mut wake = self.sms[i].next_wake();
        if gated {
            // Memory back-pressure only lifts when an MSHR entry or
            // DRAM-queue slot drains: wake on the next capacity release too.
            wake = match (wake, self.shared.next_release()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        match wake {
            Some(w) if w > cycle => w,
            // A live-but-eventless SM can only be a (deadlocked)
            // reference-path state; keep stepping it every cycle.
            _ => cycle + 1,
        }
    }

    /// Close out a run at `st.cycle`: credit sleepers interrupted by grid
    /// completion, timeout or a watchdog trip, flush the memory system's
    /// occupancy integrals, and aggregate the statistics.
    pub fn finish(&mut self, mut st: EngineState) -> SimStats {
        let cycle = st.cycle;
        for (i, (sm, slept)) in self.sms.iter_mut().zip(&mut st.sleep_from).enumerate() {
            if let Some(since) = slept.take() {
                sm.credit_sleep(since, cycle, st.sleep_stalled[i]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use grs_core::Threshold;
    use grs_isa::{GlobalPattern, KernelBuilder};

    /// One SM whose two warps each open with a two-transaction load, on a
    /// one-partition memory system whose two MSHRs another L1 fills with
    /// misses at cycles 0 and 10 (so their fills return apart). The SM is
    /// first stepped at cycle 10, with the engine on or off.
    fn gated_pair(fast_forward: bool) -> (Gpu, KernelInfo, EngineState) {
        let k = KernelBuilder::new("gated")
            .threads_per_block(64)
            .regs_per_thread(8)
            .grid_blocks(1)
            .ld_global(GlobalPattern::scatter(1024, 2))
            .ialu(1)
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let mut cfg = GpuConfig::tiny();
        (cfg.mem.mem_partitions, cfg.mem.mshr_entries) = (1, 2);
        let plan = LaunchPlan {
            unshared: 1,
            shared_pairs: 0,
            max_blocks: 1,
            baseline_blocks: 1,
            resource: ResourceKind::Registers,
        };
        let mut gpu = Gpu::new(
            &cfg,
            &ki,
            plan,
            SchedulerKind::Lrr,
            false,
            None,
            fast_forward,
            None,
        );
        let mut other_l1 = gpu.sms[0].l1.clone();
        for i in 0..2u64 {
            let addr = crate::mem::layout::KERNEL_TILE_BASE + i * u64::from(cfg.mem.line_bytes);
            gpu.shared.advance_to(10 * i);
            gpu.shared.access(&mut other_l1, addr, 10 * i, true);
        }
        let mut st = gpu.start(&ki);
        st.cycle = 10;
        (gpu, ki, st)
    }

    /// Run `gpu` to completion.
    fn run_to_end(mut gpu: Gpu, ki: &KernelInfo) -> SimStats {
        let mut st = gpu.start(ki);
        assert_eq!(
            gpu.run_until(&mut st, ki, u64::MAX, None),
            SpanEnd::Finished
        );
        gpu.finish(st)
    }

    #[test]
    fn a_plan_without_pairs_runs_as_the_unshared_gto_machine() {
        // Built with the throttle on, a sharing resource, OWF and the
        // threshold's shared flags, a plan with no shared pairs must give
        // the unshared GTO machine's statistics: no block is paired, so no
        // lock, owner class or throttle gate arises. `Simulator::prepare`
        // resolves such plans to the unshared machine on the strength of
        // this.
        let k = KernelBuilder::new("no-pairs")
            .threads_per_block(96)
            .regs_per_thread(20)
            .smem_per_block(1024)
            .grid_blocks(24)
            .ld_shared(0, 512)
            .ld_global(GlobalPattern::Stream)
            .ffma(3)
            .st_shared(600, 256)
            .sfu(1)
            .st_global(GlobalPattern::Stream)
            .build();
        let mut cfg = GpuConfig::paper_baseline();
        cfg.num_sms = 3;
        let plan = |resource| LaunchPlan {
            unshared: 4,
            shared_pairs: 0,
            max_blocks: 4,
            baseline_blocks: 4,
            resource,
        };
        for resource in [ResourceKind::Registers, ResourceKind::Scratchpad] {
            let shared_ki = KernelInfo::new(k.clone(), Some(resource), Threshold::paper_default());
            assert!(
                shared_ki
                    .meta
                    .iter()
                    .any(|m| m.uses_shared_reg() || m.uses_shared_smem()),
                "{resource:?}: the threshold classifies some access shared"
            );
            let plain_ki = KernelInfo::new(k.clone(), None, Threshold::paper_default());
            for fast_forward in [true, false] {
                let shared = Gpu::new(
                    &cfg,
                    &shared_ki,
                    plan(resource),
                    SchedulerKind::Owf,
                    true,
                    Some(resource),
                    fast_forward,
                    None,
                );
                assert!(shared.throttle.enabled());
                let plain = Gpu::new(
                    &cfg,
                    &plain_ki,
                    plan(ResourceKind::Registers),
                    SchedulerKind::Gto,
                    false,
                    None,
                    fast_forward,
                    None,
                );
                let want = run_to_end(plain, &plain_ki);
                assert_eq!(want.blocks_completed, 24);
                assert_eq!(
                    run_to_end(shared, &shared_ki),
                    want,
                    "{resource:?}, fast_forward {fast_forward}"
                );
            }
        }
    }

    #[test]
    fn a_gated_sm_sleeps_through_a_release_that_admits_none_of_its_warps() {
        let (mut gpu, ki, mut st) = gated_pair(true);
        gpu.run_until(&mut st, &ki, 11, None);
        assert_eq!(gpu.sms[0].gate_block_counts(), (2, 0));
        assert_eq!(st.sleep_from[0], Some(11), "asleep, gated");
        let first = gpu.shared.next_release().expect("the first fill");
        assert!(gpu.sms[0].next_wake().is_none());
        assert_eq!(st.wake_at[0], first);
        // The first fill frees one of the two entries: no warp fits.
        gpu.run_until(&mut st, &ki, first + 1, None);
        assert_eq!(gpu.shared.in_flight().0, 1);
        assert_eq!(gpu.shared.issue_gate().mshr_free, 1);
        assert_eq!(st.sleep_from[0], Some(11), "slept through {first}");
        let second = gpu.shared.next_release().expect("the second fill");
        assert_eq!(st.wake_at[0], second);
        assert_eq!(gpu.sms[0].stats.stall_cycles, 1, "stepped once, at 10");

        // The whole run matches the per-cycle reference bit for bit.
        gpu.run_until(&mut st, &ki, u64::MAX, None);
        let (mut reference, _, mut ref_st) = gated_pair(false);
        reference.run_until(&mut ref_st, &ki, u64::MAX, None);
        assert_eq!(gpu.finish(st), reference.finish(ref_st));
    }
}
