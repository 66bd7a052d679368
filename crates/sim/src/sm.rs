//! The SM pipeline: per-cycle readiness scan, dual-issue scheduling,
//! execution, barriers, block completion and refill.
//!
//! Each cycle an SM:
//!
//! 1. drains due writebacks (scoreboard clears, MSHR slots free),
//! 2. scans every resident warp and classifies it *ready* or blocked
//!    (scoreboard hazard, MSHR full, barrier, pair-lock busy-wait per the
//!    Fig. 3/Fig. 4 automata, dynamic-throttle suppression),
//! 3. lets each scheduler unit pick one ready warp (policy from
//!    [`grs_core::sched`]) and issues its next instruction, subject to one
//!    global-memory and one scratchpad instruction per SM per cycle
//!    (structural ports),
//! 4. accounts the cycle as productive, *stall* (something was blocked by a
//!    lock/throttle/port) or *idle* (everything ready-less was waiting on
//!    latency or barriers) — the paper's Fig. 9(c,d) split.
//!
//! ## Incremental readiness
//!
//! The scan is incremental: each warp slot carries a `SlotScan` state and
//! the cached [`WarpView`] from its last evaluation. A warp blocked purely on
//! conditions that only a writeback drain or an issue on this SM can change —
//! scoreboard hazard, exit drain, barrier wait — is *stable*: its cached view
//! remains valid and the reference scan would produce no side effects for it,
//! so it is skipped until something dirties it. Warps whose evaluation has
//! per-cycle side effects or same-cycle dependencies (ready, lock busy-wait,
//! throttle gating, MSHR backpressure) are *volatile* and re-evaluated every
//! cycle, reproducing the reference side-effect sequence (stat counters, RNG
//! draws) in slot order. Structural changes (block launch/retire) rebuild the
//! whole view vector, which otherwise keeps the exact composition the
//! schedulers saw in the reference implementation.
//!
//! ## Fast-forward support
//!
//! [`Sm::step`] reports whether the cycle was *quiescent* — zero issues, no
//! stall reason, and no volatile warp, i.e. a cycle whose outcome is fully
//! determined until the next writeback drains. [`Sm::next_wake`] exposes that
//! drain cycle (the timing wheel's minimum); [`crate::gpu::Gpu::run_until`]
//! jumps the clock when every SM is quiescent and credits the skipped span
//! through [`Sm::credit_skipped`], preserving the idle/empty split bit for
//! bit.

use grs_core::{
    DynThrottle, LatencyConfig, LaunchPlan, RegAccess, RegPairLocks, Scheduler, SchedulerKind,
    SmemPairLock, WarpClass, WarpView,
};
use grs_isa::Op;

use crate::block::{pairing_of_slot, Block, PairLocks, Pairing};
use crate::cache::Cache;
use crate::dispatch::Dispatcher;
use crate::kinfo::KernelInfo;
use crate::mem::{generate_addresses, GateBlock, MemGate, SharedMem};
use crate::stats::SmStats;
use crate::telemetry::{SmTelemetry, StallReason, TelemetryConfig, TelemetryEvent};
use crate::warp::{Warp, NO_REG};
use crate::wheel::TimingWheel;

/// Payload of one completion event on the SM's timing wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Target warp slot.
    pub slot: u32,
    /// What completed.
    pub kind: WbKind,
}

/// Kind of completion a [`Writeback`] delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbKind {
    /// An ALU/SFU/scratchpad result for register `.0`.
    Alu(u16),
    /// One global-memory transaction of pending-group `.0`; the group
    /// coalesces its transactions into a single warp wake-up on the last,
    /// which clears the register the group holds.
    MemTxn(u16),
}

/// Scan bookkeeping for one warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotScan {
    /// No live warp in the slot.
    Vacant,
    /// State changed since the last evaluation; re-evaluate once.
    Dirty,
    /// Blocked on conditions only a drain or an SM-local issue can change
    /// (hazard, exit drain, barrier): cached view valid, no per-cycle side
    /// effects. Skippable.
    Stable,
    /// Re-evaluate every cycle: ready, lock-blocked, throttle-gated or
    /// MSHR-full — evaluation has per-cycle side effects (stat counters,
    /// RNG draws) or can change without time passing.
    Volatile,
    /// Blocked solely by memory back-pressure ([`MemGate`]).
    /// Re-evaluated every stepped cycle (the per-cycle block counters are
    /// side effects), but — unlike [`SlotScan::Volatile`] — it does not
    /// prevent the SM from sleeping: the block can only end at a capacity
    /// release, whose cycle the memory system knows, and the skipped span's
    /// accounting is credited in closed form ([`Sm::credit_gated`]).
    Gated,
}

/// How a warp's evaluation left it blocked, as the scan summary needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Not blocked (ready, or waiting without stalling).
    No,
    /// Pipeline stall (lock busy-wait, per-warp MSHR limit): never
    /// skippable.
    Hard,
    /// MSHR back-pressure: stall cycles, but sleepable.
    GateMshr,
    /// DRAM-queue back-pressure: stall cycles, but sleepable.
    GateDram,
}

/// Aggregate outcome of one readiness scan.
#[derive(Debug, Clone, Copy)]
struct ScanSummary {
    any_live: bool,
    any_stall: bool,
    any_volatile: bool,
    any_ready: bool,
    /// Warps blocked by the memory gate this cycle (MSHR, DRAM queue).
    gate_mshr: u32,
    gate_dram: u32,
}

impl ScanSummary {
    #[inline]
    fn note(&mut self, view: &WarpView, state: SlotScan, blocked: Blocked) {
        match blocked {
            Blocked::No => {}
            Blocked::Hard => self.any_stall = true,
            Blocked::GateMshr => self.gate_mshr += 1,
            Blocked::GateDram => self.gate_dram += 1,
        }
        self.any_volatile |= state == SlotScan::Volatile;
        self.any_ready |= view.ready;
    }

    /// Any warp blocked by the memory gate?
    #[inline]
    fn any_gated(&self) -> bool {
        self.gate_mshr + self.gate_dram > 0
    }
}

/// Static per-run SM mode flags.
#[derive(Debug, Clone, Copy)]
pub struct SmMode {
    /// Register (true) or scratchpad (false) pair locks for shared slots.
    pub register_sharing: bool,
    /// Event-engine incremental scan (true) or the per-cycle reference scan
    /// (false; see [`Sm`] field docs).
    pub incremental: bool,
    /// Telemetry recording for this SM (`None` = fully disabled; see
    /// [`crate::telemetry`]).
    pub telemetry: Option<TelemetryConfig>,
}

/// What one [`Sm::step`] call did, as the fast-forward engine needs it.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Did the SM hold any live (unfinished) warp this cycle?
    pub live: bool,
    /// Zero issues, no stall reason, no volatile warp: nothing on this SM
    /// can change before its next writeback drains.
    pub quiescent: bool,
    /// Like `quiescent`, except ≥1 warp is blocked by memory back-pressure:
    /// the SM may sleep, but it must also wake on the next MSHR/DRAM-queue
    /// release and the skipped span counts as *stall* cycles, credited by
    /// [`Sm::credit_gated`]. Mutually exclusive with `quiescent`.
    pub gated: bool,
    /// Did the SM issue at least one instruction this cycle? The
    /// forward-progress watchdog treats issues as progress even when they
    /// schedule no wheel event (barriers, branches, scratchpad stores,
    /// exits), so this feeds its watermark directly.
    pub issued: bool,
}

/// One streaming multiprocessor.
#[derive(Debug, Clone)]
pub struct Sm {
    /// SM index (SM0 is the throttle reference).
    pub id: usize,
    /// L1 data cache.
    pub l1: Cache,
    /// Resident blocks by slot.
    pub blocks: Vec<Option<Block>>,
    /// Warp contexts: block slot `b` owns warp slots
    /// `b*warps_per_block ..= (b+1)*warps_per_block - 1`.
    pub warps: Vec<Option<Warp>>,
    /// Pair-lock state, one entry per shared pair of the launch plan.
    pub pairs: Vec<PairLocks>,
    /// The launch plan this SM was configured with.
    pub plan: LaunchPlan,
    /// Statistics.
    pub stats: SmStats,
    sched: Scheduler,
    units: usize,
    next_dyn_id: u64,
    writebacks: TimingWheel<Writeback>,
    // Incremental-scan state.
    scan_state: Vec<SlotScan>,
    view_pos: Vec<u32>,
    live_warp_count: u32,
    structural: bool,
    /// Gate-blocked warp counts `(mshr, dram)` from the latest scan, kept
    /// for closed-form crediting of a gated sleep span.
    last_gate_blocks: (u32, u32),
    /// With `incremental` off (the `fast_forward: false` reference mode)
    /// every scan rebuilds every view from scratch and ready-less cycles
    /// still walk the scheduler units — the seed's exact per-cycle
    /// behaviour, so the equivalence suite genuinely diffs the incremental
    /// engine (dirty tracking, idle shortcut) against it.
    incremental: bool,
    /// Telemetry recording state (`None` unless tracing is on). Boxed so the
    /// disabled case costs one pointer.
    telemetry: Option<Box<SmTelemetry>>,
    /// Current stall reason per warp slot (0 = none, 1 = scoreboard,
    /// 2 = barrier, 3 = memory gate), maintained by [`Sm::set_reason`] so
    /// reason changes are edge-triggered events and the counts below stay
    /// incremental (never recomputed — that is what keeps them identical
    /// between the per-cycle and the incremental scan).
    slot_reason: Vec<u8>,
    /// Live slots currently scoreboard-blocked (reason 1).
    n_hazard: u32,
    /// Live slots currently barrier-parked (reason 2).
    n_barrier: u32,
    // per-cycle scratch, reused to avoid allocation
    views: Vec<WarpView>,
    addr_buf: Vec<u64>,
    wb_scratch: Vec<(u64, Writeback)>,
}

const NO_VIEW: u32 = u32::MAX;

impl Sm {
    /// Build an SM for one run. `mode.incremental` selects the event-engine
    /// scan (see the module docs); off reproduces the per-cycle reference.
    pub fn new(
        id: usize,
        plan: LaunchPlan,
        kinfo: &KernelInfo,
        sched_kind: SchedulerKind,
        units: usize,
        l1: Cache,
        mode: SmMode,
    ) -> Self {
        let slots = plan.max_blocks as usize;
        let wpb = kinfo.warps_per_block as usize;
        let pairs = (0..plan.shared_pairs)
            .map(|_| {
                if mode.register_sharing {
                    PairLocks::Reg(RegPairLocks::new(wpb))
                } else {
                    PairLocks::Smem(SmemPairLock::new())
                }
            })
            .collect();
        Sm {
            id,
            l1,
            blocks: vec![None; slots],
            warps: vec![None; slots * wpb],
            pairs,
            plan,
            stats: SmStats::default(),
            sched: sched_kind.build(slots * wpb, units),
            units,
            next_dyn_id: 0,
            writebacks: TimingWheel::new(),
            scan_state: vec![SlotScan::Vacant; slots * wpb],
            view_pos: vec![NO_VIEW; slots * wpb],
            live_warp_count: 0,
            structural: true,
            last_gate_blocks: (0, 0),
            incremental: mode.incremental,
            telemetry: mode.telemetry.map(|c| Box::new(SmTelemetry::new(&c))),
            slot_reason: vec![0; slots * wpb],
            n_hazard: 0,
            n_barrier: 0,
            views: Vec::with_capacity(slots * wpb),
            addr_buf: Vec::with_capacity(32),
            wb_scratch: Vec::with_capacity(32),
        }
    }

    /// Number of blocks currently resident.
    pub fn live_blocks(&self) -> u32 {
        self.blocks.iter().filter(|b| b.is_some()).count() as u32
    }

    /// Does any slot lack a block?
    pub fn has_free_slot(&self) -> bool {
        self.blocks.iter().any(|b| b.is_none())
    }

    /// Does the SM hold any live (unfinished) warp?
    pub fn has_live_warps(&self) -> bool {
        self.live_warp_count > 0
    }

    /// Earliest cycle at which a pending writeback will drain, if any — the
    /// only future event that can change a quiescent SM's state.
    pub fn next_wake(&self) -> Option<u64> {
        self.writebacks.next_due()
    }

    /// Latest completion cycle ever scheduled on this SM's writeback wheel
    /// (0 if none yet) — one input to the forward-progress watchdog's
    /// watermark. Engine-invariant: every engine pushes the same writebacks
    /// at the same due cycles.
    pub fn latest_writeback(&self) -> u64 {
        self.writebacks.latest_scheduled()
    }

    /// Gate-blocked warp counts `(mshr, dram)` from the latest readiness
    /// scan — surfaced in the watchdog's [`crate::supervise::StallDiagnosis`].
    pub fn gate_block_counts(&self) -> (u32, u32) {
        self.last_gate_blocks
    }

    /// Credit the skipped sleep span `[since, now)` with exactly the
    /// accounting the per-cycle loop would have produced for a quiescent SM:
    /// idle when live warps wait on latency, empty when no work is resident.
    /// The per-reason breakdown is frozen for the whole span (no drain can
    /// occur inside it, so no warp's stall reason can change), and sample
    /// rows falling inside the span are emitted piecewise at their exact
    /// boundaries — a row at cycle `b` sees precisely the counters the
    /// per-cycle loop would have accumulated through cycle `b - 1`.
    pub fn credit_skipped(&mut self, since: u64, now: u64) {
        if now <= since {
            return;
        }
        if let Some(mut t) = self.telemetry.take() {
            t.record(
                since,
                TelemetryEvent::SleepSpan {
                    until: now,
                    gated: false,
                },
            );
            let lb = self.live_blocks();
            let lw = self.live_warp_count;
            let mut cur = since;
            // Strictly-inside boundaries only: a boundary at `now` is
            // emitted by the step that follows the wake (mirroring the
            // per-cycle loop), and a run ending at `now` never emits it.
            while t.next_sample < now {
                let b = t.next_sample;
                self.credit_idle_span(b - cur);
                t.emit_row(self.id as u32, &self.stats, lb, lw);
                cur = b;
            }
            self.credit_idle_span(now - cur);
            self.telemetry = Some(t);
        } else {
            self.credit_idle_span(now - since);
        }
    }

    fn credit_idle_span(&mut self, span: u64) {
        if span == 0 {
            return;
        }
        if self.live_warp_count > 0 {
            self.stats.idle_cycles += span;
            if self.n_hazard > 0 {
                self.stats.stall_scoreboard_cycles += span;
            } else if self.n_barrier > 0 {
                self.stats.stall_barrier_cycles += span;
            } else {
                self.stats.stall_no_ready_cycles += span;
            }
        } else {
            self.stats.empty_cycles += span;
        }
    }

    /// Credit the sleep span `[since, now)` slept under memory back-pressure
    /// ([`StepOutcome::gated`]) in closed form: each skipped cycle would have
    /// counted one pipeline-stall cycle and re-blocked the same warps (the
    /// gate can only open at a capacity release, which bounds the span), so
    /// the per-cycle counters scale linearly with the span. Sample rows
    /// inside the span are emitted piecewise like [`Sm::credit_skipped`].
    pub fn credit_gated(&mut self, since: u64, now: u64) {
        if now <= since {
            return;
        }
        if let Some(mut t) = self.telemetry.take() {
            t.record(
                since,
                TelemetryEvent::SleepSpan {
                    until: now,
                    gated: true,
                },
            );
            let lb = self.live_blocks();
            let lw = self.live_warp_count;
            let mut cur = since;
            // Strictly-inside boundaries only, as in `credit_skipped`.
            while t.next_sample < now {
                let b = t.next_sample;
                self.credit_gated_span(b - cur);
                t.emit_row(self.id as u32, &self.stats, lb, lw);
                cur = b;
            }
            self.credit_gated_span(now - cur);
            self.telemetry = Some(t);
        } else {
            self.credit_gated_span(now - since);
        }
    }

    fn credit_gated_span(&mut self, span: u64) {
        self.stats.stall_cycles += span;
        self.stats.stall_mem_gate_cycles += span;
        self.stats.mshr_full_stalls += span * u64::from(self.last_gate_blocks.0);
        self.stats.dram_queue_full_stalls += span * u64::from(self.last_gate_blocks.1);
    }

    /// Update `slot`'s stall reason (0 none, 1 scoreboard, 2 barrier,
    /// 3 memory gate), keeping the incremental reason counts and recording
    /// an edge-triggered [`TelemetryEvent::WarpStall`] on a change into a
    /// non-ready reason. Reasons only change when the slot is re-evaluated,
    /// and every engine re-evaluates a slot at the same cycles, so both the
    /// counts and the event stream are engine-invariant.
    #[inline]
    fn set_reason(&mut self, slot: usize, reason: u8, now: u64) {
        let old = self.slot_reason[slot];
        if old == reason {
            return;
        }
        match old {
            1 => self.n_hazard -= 1,
            2 => self.n_barrier -= 1,
            _ => {}
        }
        match reason {
            1 => self.n_hazard += 1,
            2 => self.n_barrier += 1,
            _ => {}
        }
        self.slot_reason[slot] = reason;
        if reason != 0 {
            if let Some(t) = self.telemetry.as_deref_mut() {
                let r = match reason {
                    1 => StallReason::Scoreboard,
                    2 => StallReason::Barrier,
                    _ => StallReason::MemGate,
                };
                t.record(
                    now,
                    TelemetryEvent::WarpStall {
                        slot: slot as u32,
                        reason: r,
                    },
                );
            }
        }
    }

    /// Take this SM's telemetry state for end-of-run assembly.
    pub(crate) fn take_telemetry(&mut self) -> Option<SmTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Launch grid block `grid_id` into the first free slot at cycle `now`.
    /// Panics if no slot is free (callers check [`Self::has_free_slot`]).
    pub fn launch_block(&mut self, grid_id: u32, kinfo: &KernelInfo, now: u64) {
        let slot = self
            .blocks
            .iter()
            .position(|b| b.is_none())
            .expect("launch_block requires a free slot");
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record(
                now,
                TelemetryEvent::BlockLaunch {
                    grid_id,
                    slot: slot as u32,
                },
            );
        }
        let wpb = kinfo.warps_per_block;
        self.blocks[slot] = Some(Block {
            grid_id,
            live_warps: wpb,
            at_barrier: 0,
            pairing: pairing_of_slot(slot as u32, self.plan.unshared),
        });
        for w in 0..wpb {
            let dyn_id = self.next_dyn_id;
            self.next_dyn_id += 1;
            self.warps[slot * wpb as usize + w as usize] = Some(Warp::new(
                dyn_id,
                slot as u32,
                w,
                kinfo.threads_in_warp[w as usize],
                kinfo.num_loops,
                grid_id,
            ));
        }
        self.live_warp_count += wpb;
        self.structural = true;
        self.stats.max_resident_blocks = self.stats.max_resident_blocks.max(self.live_blocks());
    }

    /// Advance one cycle.
    pub fn step(
        &mut self,
        now: u64,
        kinfo: &KernelInfo,
        lat: &LatencyConfig,
        shared: &mut SharedMem,
        throttle: &mut DynThrottle,
        dispatcher: &mut Dispatcher,
    ) -> StepOutcome {
        // Same-cycle tie-break (load-bearing for gated-sleep wake-ups, pinned
        // by `capacity_release_is_visible_exactly_at_its_cycle`): the SM's own
        // writebacks drain FIRST, then capacity releases due at `now` settle,
        // and only then is the gate read — so an SM woken at `now` by a
        // release observes both its drained scoreboard and the freed
        // capacity in the same scan.
        if let Some(mut t) = self.telemetry.take() {
            // Sample boundaries due at or before this cycle: a row at `b`
            // reflects the state at the start of cycle `b`, before the
            // cycle's drains, scans and issues (the crediting paths emit
            // in-span boundaries themselves, so at most one is due here in
            // the per-cycle engine and none after a credited wake).
            if t.next_sample <= now {
                let lb = self.live_blocks();
                let lw = self.live_warp_count;
                while t.next_sample <= now {
                    t.emit_row(self.id as u32, &self.stats, lb, lw);
                }
            }
            self.telemetry = Some(t);
        }
        self.drain_writebacks(now);
        shared.advance_to(now); // settle capacity releases
        let max_pending = shared.cfg.max_pending_per_warp;
        let gate = shared.issue_gate();
        let scan = self.scan_readiness(now, kinfo, throttle, max_pending, gate);

        let mut issued = 0u32;
        let mut port_conflict = false;
        let mut global_port_used = false;
        let mut smem_port_used = false;
        if scan.any_ready || !self.incremental {
            for unit in 0..self.units {
                let Some(slot) = self.sched.pick(unit, self.units, &self.views) else {
                    continue;
                };
                let pc = self.warps[slot].as_ref().expect("picked warp exists").pc as usize;
                let meta = &kinfo.meta[pc];
                // Structural ports: one global-memory and one scratchpad
                // instruction per SM per cycle.
                if meta.is_global_mem() {
                    if global_port_used {
                        port_conflict = true;
                        continue;
                    }
                    global_port_used = true;
                } else if meta.is_shared_mem() {
                    if smem_port_used {
                        port_conflict = true;
                        continue;
                    }
                    smem_port_used = true;
                }
                if self.issue(slot, now, kinfo, lat, shared, dispatcher) {
                    issued += 1;
                } else {
                    port_conflict = true; // same-cycle lock race: counts as stall
                }
            }
        } else {
            // No unit can pick anything; apply the scheduler-state
            // transition an all-unready pick round would have made and skip
            // the per-unit view walks.
            self.sched.note_idle_cycle();
        }

        if issued == 0 {
            if scan.any_stall || port_conflict || scan.any_gated() {
                // Every pipeline-stall cycle is caused by the memory system
                // or a structural conflict, so the breakdown attributes it
                // to the mem-gate bucket wholesale.
                self.stats.stall_cycles += 1;
                self.stats.stall_mem_gate_cycles += 1;
            } else if scan.any_live {
                self.stats.idle_cycles += 1;
                if self.n_hazard > 0 {
                    self.stats.stall_scoreboard_cycles += 1;
                } else if self.n_barrier > 0 {
                    self.stats.stall_barrier_cycles += 1;
                } else {
                    self.stats.stall_no_ready_cycles += 1;
                }
            } else {
                self.stats.empty_cycles += 1;
            }
            if scan.any_live {
                // The Sec. IV-C monitor compares per-SM lost cycles; both
                // pipeline stalls and ready-less (memory-wait) cycles are
                // symptoms of the interference it throttles.
                throttle.note_stall(self.id);
            }
        }

        self.last_gate_blocks = (scan.gate_mshr, scan.gate_dram);
        let sleepable = issued == 0 && !scan.any_stall && !port_conflict && !scan.any_volatile;
        StepOutcome {
            live: scan.any_live,
            quiescent: sleepable && !scan.any_gated(),
            gated: sleepable && scan.any_gated(),
            issued: issued > 0,
        }
    }

    fn drain_writebacks(&mut self, now: u64) {
        self.writebacks.drain_due_into(now, &mut self.wb_scratch);
        for &(_, wb) in &self.wb_scratch {
            let slot = wb.slot as usize;
            if let Some(w) = self.warps[slot].as_mut() {
                match wb.kind {
                    WbKind::Alu(reg) => w.clear_pending(reg),
                    // Intermediate transactions of a group dirty the slot
                    // harmlessly (a still-blocked warp re-evaluates to the
                    // same view with no side effects); the group's last
                    // transaction is the real wake-up.
                    WbKind::MemTxn(group) => {
                        w.mem_txn_done(group);
                    }
                }
                if self.scan_state[slot] == SlotScan::Stable {
                    self.scan_state[slot] = SlotScan::Dirty;
                }
            }
        }
    }

    #[inline]
    fn mark_slot_dirty(&mut self, slot: usize) {
        if self.scan_state[slot] == SlotScan::Stable {
            self.scan_state[slot] = SlotScan::Dirty;
        }
    }

    /// Invalidate every warp of `block_slot` (barrier release, lock/owner
    /// transitions of the block's pair).
    fn mark_block_dirty(&mut self, block_slot: u32, warps_per_block: u32) {
        let base = block_slot as usize * warps_per_block as usize;
        for slot in base..base + warps_per_block as usize {
            self.mark_slot_dirty(slot);
        }
    }

    /// Invalidate both blocks of `pair` — a lock grant may have changed the
    /// pair's owner, which feeds every cached view's [`WarpClass`].
    fn mark_pair_dirty(&mut self, pair: u32, warps_per_block: u32) {
        let a = self.plan.unshared + 2 * pair;
        self.mark_block_dirty(a, warps_per_block);
        self.mark_block_dirty(a + 1, warps_per_block);
    }

    /// Scan resident warps, refreshing the scheduler view. Stable slots are
    /// skipped; their cached views are still exactly what a full scan would
    /// produce, with the same (empty) side-effect set. Ready warps are
    /// always volatile, so `any_ready` only needs the re-evaluated slots.
    fn scan_readiness(
        &mut self,
        now: u64,
        kinfo: &KernelInfo,
        throttle: &mut DynThrottle,
        max_pending: u32,
        gate: MemGate,
    ) -> ScanSummary {
        let mut summary = ScanSummary {
            any_live: self.live_warp_count > 0,
            any_stall: false,
            any_volatile: false,
            any_ready: false,
            gate_mshr: 0,
            gate_dram: 0,
        };
        if self.structural || !self.incremental {
            self.structural = false;
            self.views.clear();
            for slot in 0..self.warps.len() {
                let live = self.warps[slot].as_ref().is_some_and(|w| !w.finished);
                if !live {
                    self.scan_state[slot] = SlotScan::Vacant;
                    self.view_pos[slot] = NO_VIEW;
                    self.set_reason(slot, 0, now);
                    continue;
                }
                let (view, state, blocked) =
                    self.eval_warp(slot, now, kinfo, throttle, max_pending, gate);
                summary.note(&view, state, blocked);
                self.scan_state[slot] = state;
                self.view_pos[slot] = self.views.len() as u32;
                self.views.push(view);
            }
        } else {
            for slot in 0..self.warps.len() {
                match self.scan_state[slot] {
                    SlotScan::Vacant | SlotScan::Stable => {}
                    SlotScan::Dirty | SlotScan::Volatile | SlotScan::Gated => {
                        let (view, state, blocked) =
                            self.eval_warp(slot, now, kinfo, throttle, max_pending, gate);
                        summary.note(&view, state, blocked);
                        self.scan_state[slot] = state;
                        self.views[self.view_pos[slot] as usize] = view;
                    }
                }
            }
        }
        summary
    }

    /// Evaluate one live warp exactly as the reference per-cycle scan would:
    /// same checks, same order, same side effects (lock-retry and throttle
    /// counters, throttle RNG draws).
    fn eval_warp(
        &mut self,
        slot: usize,
        now: u64,
        kinfo: &KernelInfo,
        throttle: &mut DynThrottle,
        max_pending: u32,
        gate: MemGate,
    ) -> (WarpView, SlotScan, Blocked) {
        let w = self.warps[slot].as_ref().expect("evaluating a live warp");
        let block = self.blocks[w.block_slot as usize]
            .as_ref()
            .expect("live warp belongs to a live block");
        // OWF class (paper Sec. IV-A). Ownership only exists once a
        // block waits on shared resources held by its partner: a shared
        // block whose partner slot is empty, or whose pair has no
        // determined owner yet, behaves like an unshared block.
        let class = match block.pairing {
            Pairing::Unshared => WarpClass::Unshared,
            Pairing::Paired { pair, member } => {
                let base = self.plan.unshared + 2 * pair;
                let partner_slot = base
                    + if member == grs_core::PairMember::A {
                        1
                    } else {
                        0
                    };
                let partner_present = self.blocks[partner_slot as usize].is_some();
                match self.pairs[pair as usize].owner() {
                    _ if !partner_present => WarpClass::Unshared,
                    Some(m) if m == member => WarpClass::Owner,
                    Some(_) => WarpClass::NonOwner,
                    None => WarpClass::Unshared,
                }
            }
        };

        let mut ready = false;
        let mut blocked = Blocked::No;
        let mut state = SlotScan::Stable;
        // Stall reason for the breakdown counters: barrier unless the
        // !at_barrier branch refines it below.
        let mut reason = 2u8;
        if !w.at_barrier {
            let meta = &kinfo.meta[w.pc as usize];
            let hazard = w.has_hazard(meta.op_mask);
            let drain_for_exit = meta.is_exit() && (w.outstanding_mem > 0 || w.pending_regs != 0);
            let mshr_full = meta.is_global_mem() && w.outstanding_mem >= max_pending;
            if mshr_full {
                // Structural congestion: the warp has work but the
                // memory pipeline cannot accept it — a *pipeline stall*
                // in the paper's Sec. VI-B accounting (and the signal
                // the Sec. IV-C throttle monitors).
                blocked = Blocked::Hard;
                state = SlotScan::Volatile;
            }
            let mut gated = false;
            if !hazard && !drain_for_exit && !mshr_full {
                // Memory issue gate: the shared memory system cannot
                // take this instruction's transactions. Same stall class as
                // `mshr_full`, but sleepable (see `SlotScan::Gated`).
                match gate.blocks(meta) {
                    Some(GateBlock::Mshr) => {
                        blocked = Blocked::GateMshr;
                        self.stats.mshr_full_stalls += 1;
                        gated = true;
                    }
                    Some(GateBlock::DramQueue) => {
                        blocked = Blocked::GateDram;
                        self.stats.dram_queue_full_stalls += 1;
                        gated = true;
                    }
                    None => {}
                }
                if gated {
                    state = SlotScan::Gated;
                }
            }
            if !hazard && !drain_for_exit && !mshr_full && !gated {
                state = SlotScan::Volatile;
                ready = true;
                // Pair-lock busy-wait (Fig. 3 / Fig. 4 step (e)): the
                // warp is simply not ready; it retries next cycle.
                if let Pairing::Paired { pair, member } = block.pairing {
                    if meta.uses_shared_reg() {
                        if let PairLocks::Reg(l) = &self.pairs[pair as usize] {
                            if !l.can_access(member, w.warp_in_block as usize) {
                                ready = false;
                                self.stats.lock_retries += 1;
                            }
                        }
                    }
                    if ready && meta.uses_shared_smem() {
                        if let PairLocks::Smem(l) = &self.pairs[pair as usize] {
                            if !l.can_access(member) {
                                ready = false;
                                self.stats.lock_retries += 1;
                            }
                        }
                    }
                }
                // Dynamic warp-execution throttle (paper Sec. IV-C):
                // intentional suppression, not a pipeline stall.
                if ready
                    && meta.is_global_mem()
                    && class == WarpClass::NonOwner
                    && throttle.enabled()
                    && !throttle.allow(self.id)
                {
                    ready = false;
                    self.stats.throttled_issues += 1;
                }
            }
            // Scoreboard beats the memory gate when both hold; everything
            // else (exit drain, lock busy-wait, throttle, ready) is "none".
            reason = if hazard {
                1
            } else if mshr_full || gated {
                3
            } else {
                0
            };
        }
        let view = WarpView {
            slot,
            dynamic_id: w.dynamic_id,
            class,
            ready,
        };
        self.set_reason(slot, reason, now);
        (view, state, blocked)
    }

    /// Issue the next instruction of the warp in `slot`. Returns false only
    /// when a same-cycle lock race invalidated the readiness decision.
    fn issue(
        &mut self,
        slot: usize,
        now: u64,
        kinfo: &KernelInfo,
        lat: &LatencyConfig,
        shared: &mut SharedMem,
        dispatcher: &mut Dispatcher,
    ) -> bool {
        let (pc, block_slot, warp_in_block, pairing) = {
            let w = self.warps[slot].as_ref().expect("issuing a live warp");
            let b = self.blocks[w.block_slot as usize]
                .as_ref()
                .expect("live block");
            (w.pc as usize, w.block_slot, w.warp_in_block, b.pairing)
        };
        let meta = kinfo.meta[pc];

        // Re-check the memory issue gate: a peer scheduler unit's issue
        // this cycle may have consumed the capacity the readiness scan saw.
        // Nothing has been mutated yet, so bailing out is side-effect-free
        // (like a lost same-cycle lock race below).
        match shared.issue_gate().blocks(&meta) {
            Some(GateBlock::Mshr) => {
                self.stats.mshr_full_stalls += 1;
                return false;
            }
            Some(GateBlock::DramQueue) => {
                self.stats.dram_queue_full_stalls += 1;
                return false;
            }
            None => {}
        }

        // Acquire pair locks for real (a peer scheduler unit may have taken
        // them since the readiness scan). A grant may flip the pair's lock
        // and owner state, so cached views of both blocks are invalidated;
        // a denial mutates nothing.
        if let Pairing::Paired { pair, member } = pairing {
            if meta.uses_shared_reg() {
                if let PairLocks::Reg(l) = &mut self.pairs[pair as usize] {
                    if l.access_shared(member, warp_in_block as usize) == RegAccess::Blocked {
                        self.stats.lock_retries += 1;
                        return false;
                    }
                }
                self.mark_pair_dirty(pair, kinfo.warps_per_block);
            }
            if meta.uses_shared_smem() {
                if let PairLocks::Smem(l) = &mut self.pairs[pair as usize] {
                    if l.access_shared(member) == RegAccess::Blocked {
                        self.stats.lock_retries += 1;
                        return false;
                    }
                }
                self.mark_pair_dirty(pair, kinfo.warps_per_block);
            }
        }

        let threads;
        {
            let w = self.warps[slot].as_mut().expect("issuing a live warp");
            threads = w.threads;
            match meta.op {
                Op::IAlu => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.ialu),
                    slot,
                    &mut self.writebacks,
                ),
                Op::IMul => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.imul),
                    slot,
                    &mut self.writebacks,
                ),
                Op::FAdd | Op::FMul | Op::FFma => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.fp),
                    slot,
                    &mut self.writebacks,
                ),
                Op::Sfu => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.sfu),
                    slot,
                    &mut self.writebacks,
                ),
                Op::LdShared(_) => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.scratchpad),
                    slot,
                    &mut self.writebacks,
                ),
                Op::StShared(_) => {
                    w.pc += 1; // fire-and-forget scratchpad write
                }
                Op::LdGlobal(p) | Op::StGlobal(p) => {
                    self.addr_buf.clear();
                    let grid_id = self.blocks[block_slot as usize].as_ref().unwrap().grid_id;
                    generate_addresses(p, w, grid_id, &mut self.addr_buf);
                    let is_load = matches!(meta.op, Op::LdGlobal(_));
                    let reg = if is_load {
                        if meta.dst != NO_REG {
                            w.mark_pending(meta.dst);
                        }
                        meta.dst
                    } else {
                        NO_REG
                    };
                    w.outstanding_mem += 1;
                    // Each transaction runs the partition pipeline and
                    // schedules its own completion; the group coalesces
                    // them into one warp wake-up.
                    let group = w.alloc_mem_group(reg, self.addr_buf.len() as u32);
                    for &addr in &self.addr_buf {
                        let done = shared.access(&mut self.l1, addr, now, is_load);
                        self.writebacks.push(
                            done,
                            Writeback {
                                slot: slot as u32,
                                kind: WbKind::MemTxn(group),
                            },
                        );
                    }
                    w.pc += 1;
                }
                Op::Barrier => {
                    w.at_barrier = true;
                    w.pc += 1;
                    let block = self.blocks[block_slot as usize].as_mut().unwrap();
                    block.at_barrier += 1;
                    if block.at_barrier == block.live_warps {
                        release_barrier(&mut self.warps, block_slot, kinfo.warps_per_block);
                        self.blocks[block_slot as usize]
                            .as_mut()
                            .unwrap()
                            .at_barrier = 0;
                        self.mark_block_dirty(block_slot, kinfo.warps_per_block);
                    }
                }
                Op::BranchBack {
                    target,
                    trips,
                    loop_id,
                } => {
                    let id = loop_id as usize;
                    if w.loop_init & (1 << id) == 0 {
                        w.loop_counters[id] = trips;
                        w.loop_init |= 1 << id;
                    }
                    if w.loop_counters[id] > 0 {
                        w.loop_counters[id] -= 1;
                        w.pc = u32::from(target);
                    } else {
                        w.loop_init &= !(1 << id);
                        w.pc += 1;
                    }
                }
                Op::Exit => {
                    w.finished = true;
                    self.live_warp_count -= 1;
                    self.retire_warp(block_slot, warp_in_block, pairing, kinfo, dispatcher, now);
                }
            }
        }

        self.stats.warp_instrs += 1;
        self.stats.thread_instrs += u64::from(threads);
        true
    }

    /// Handle a warp retirement: release its register pair lock, resolve
    /// barriers it is no longer part of, and complete the block when it was
    /// the last warp. Retirement changes the view composition (and possibly
    /// lock/owner state), so the next scan rebuilds from scratch.
    fn retire_warp(
        &mut self,
        block_slot: u32,
        warp_in_block: u32,
        pairing: Pairing,
        kinfo: &KernelInfo,
        dispatcher: &mut Dispatcher,
        now: u64,
    ) {
        self.structural = true;
        if let Pairing::Paired { pair, member } = pairing {
            if let PairLocks::Reg(l) = &mut self.pairs[pair as usize] {
                l.warp_finished(member, warp_in_block as usize);
            }
        }
        let block = self.blocks[block_slot as usize]
            .as_mut()
            .expect("retiring into live block");
        block.live_warps -= 1;
        if block.live_warps == 0 {
            self.complete_block(block_slot, pairing, kinfo, dispatcher, now);
        } else if block.at_barrier > 0 && block.at_barrier == block.live_warps {
            // Remaining warps were all at the barrier; the exit releases it.
            release_barrier(&mut self.warps, block_slot, kinfo.warps_per_block);
            self.blocks[block_slot as usize]
                .as_mut()
                .unwrap()
                .at_barrier = 0;
        }
    }

    fn complete_block(
        &mut self,
        block_slot: u32,
        pairing: Pairing,
        kinfo: &KernelInfo,
        dispatcher: &mut Dispatcher,
        now: u64,
    ) {
        if let Pairing::Paired { pair, member } = pairing {
            self.pairs[pair as usize].block_completed(member);
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            let grid_id = self.blocks[block_slot as usize]
                .as_ref()
                .expect("completing a live block")
                .grid_id;
            t.record(
                now,
                TelemetryEvent::BlockRetire {
                    grid_id,
                    slot: block_slot,
                },
            );
        }
        self.stats.blocks_completed += 1;
        let wpb = kinfo.warps_per_block as usize;
        let base = block_slot as usize * wpb;
        for w in &mut self.warps[base..base + wpb] {
            debug_assert!(w.as_ref().map(|w| w.finished).unwrap_or(true));
            *w = None;
        }
        self.blocks[block_slot as usize] = None;
        // Refill immediately (paper Sec. IV: the replacement enters the pair
        // as the new non-owner).
        if let Some(gid) = dispatcher.next_block() {
            self.launch_block(gid, kinfo, now);
        }
    }
}

fn advance_alu(
    w: &mut Warp,
    dst: u16,
    now: u64,
    latency: u64,
    slot: usize,
    writebacks: &mut TimingWheel<Writeback>,
) {
    if dst != NO_REG {
        w.mark_pending(dst);
        writebacks.push(
            now + latency,
            Writeback {
                slot: slot as u32,
                kind: WbKind::Alu(dst),
            },
        );
    }
    w.pc += 1;
}

fn release_barrier(warps: &mut [Option<Warp>], block_slot: u32, warps_per_block: u32) {
    let base = block_slot as usize * warps_per_block as usize;
    for w in warps[base..base + warps_per_block as usize]
        .iter_mut()
        .flatten()
    {
        w.at_barrier = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_core::{GpuConfig, ResourceKind, Threshold};
    use grs_isa::KernelBuilder;

    fn kinfo(regs: u32, threads: u32) -> KernelInfo {
        let k = KernelBuilder::new("t")
            .threads_per_block(threads)
            .regs_per_thread(regs)
            .grid_blocks(16)
            .ialu(4)
            .build();
        KernelInfo::new(k, None, Threshold::paper_default())
    }

    fn plan(unshared: u32, pairs: u32) -> LaunchPlan {
        LaunchPlan {
            unshared,
            shared_pairs: pairs,
            max_blocks: unshared + 2 * pairs,
            baseline_blocks: unshared + pairs,
            resource: ResourceKind::Registers,
        }
    }

    fn sm(ki: &KernelInfo, p: LaunchPlan) -> Sm {
        let cfg = GpuConfig::tiny();
        let l1 = Cache::new(
            u64::from(cfg.mem.l1_bytes),
            cfg.mem.l1_ways,
            u64::from(cfg.mem.line_bytes),
        );
        Sm::new(
            0,
            p,
            ki,
            SchedulerKind::Lrr,
            2,
            l1,
            SmMode {
                register_sharing: true,
                incremental: true,
                telemetry: None,
            },
        )
    }

    #[test]
    fn launch_fills_slots_and_counts_residency() {
        let ki = kinfo(8, 64);
        let mut s = sm(&ki, plan(3, 0));
        assert!(s.has_free_slot());
        s.launch_block(0, &ki, 0);
        s.launch_block(1, &ki, 0);
        assert_eq!(s.live_blocks(), 2);
        assert_eq!(s.stats.max_resident_blocks, 2);
        s.launch_block(2, &ki, 0);
        assert!(!s.has_free_slot());
    }

    #[test]
    fn whole_block_retires_and_slot_refills() {
        let ki = kinfo(8, 32);
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(3);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        let lat = cfg.lat;
        for cycle in 0..2000 {
            s.step(cycle, &ki, &lat, &mut shared, &mut throttle, &mut disp);
            if s.stats.blocks_completed == 3 && s.live_blocks() == 0 {
                break;
            }
        }
        assert_eq!(s.stats.blocks_completed, 3);
        assert_eq!(disp.remaining(), 0);
        // 5 dynamic warp instructions per block (4 ialu + exit) × 3 blocks.
        assert_eq!(s.stats.warp_instrs, 15);
        assert_eq!(s.stats.thread_instrs, 15 * 32);
    }

    #[test]
    fn barrier_joins_all_warps_of_a_block() {
        let k = KernelBuilder::new("barrier")
            .threads_per_block(64) // 2 warps
            .regs_per_thread(8)
            .grid_blocks(1)
            .ialu(1)
            .barrier()
            .ialu(1)
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(1);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        for cycle in 0..1000 {
            s.step(cycle, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
            if s.live_blocks() == 0 {
                break;
            }
        }
        assert_eq!(s.stats.blocks_completed, 1);
        // 2 warps × 4 instructions (ialu, barrier, ialu, exit).
        assert_eq!(s.stats.warp_instrs, 8);
    }

    #[test]
    fn quiescent_cycles_report_the_next_writeback() {
        // A single warp issues one ialu (latency 4) then hazards on its
        // result: the following cycles are quiescent with a wake at the
        // writeback, exactly what the fast-forward engine consumes.
        let k = KernelBuilder::new("dep")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(1)
            .ialu(2) // dependent chain
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(1);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        let out0 = s.step(0, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(!out0.quiescent, "cycle 0 issues");
        let out1 = s.step(1, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(out1.quiescent, "cycle 1 hazards on the ialu result");
        assert!(out1.live);
        assert_eq!(s.next_wake(), Some(u64::from(cfg.lat.ialu)));
        assert_eq!(s.stats.idle_cycles, 1);
    }
}
