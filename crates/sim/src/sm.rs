//! The SM pipeline: per-cycle readiness scan, dual-issue scheduling,
//! execution, barriers, block completion and refill.
//!
//! Each cycle an SM:
//!
//! 1. drains due writebacks (scoreboard clears; a global-memory
//!    instruction's one writeback, due at its last transaction's
//!    completion, also frees the warp's in-flight slot),
//! 2. scans every resident warp and classifies it *ready* or blocked
//!    (scoreboard hazard, MSHR full, barrier, pair-lock busy-wait per the
//!    Fig. 3/Fig. 4 pair lock, dynamic-throttle suppression),
//! 3. lets each scheduler unit pick one ready warp (policy from
//!    [`grs_core::sched`]) and issues its next instruction, subject to one
//!    global-memory and one scratchpad instruction per SM per cycle
//!    (structural ports),
//! 4. accounts the cycle as productive, *stall* (a warp was held at the
//!    per-warp MSHR limit or by the memory gate, or lost a port or a
//!    same-cycle lock race) or *idle* (every live warp waited on latency, a
//!    barrier, a pair lock or the throttle) — the paper's Fig. 9(c,d)
//!    split.
//!
//! ## Incremental readiness
//!
//! The scan keeps one `u64` bit per warp slot in a handful of masks: the
//! scheduler's view list (the live slots as of the last rebuild), the
//! latest outcome of each slot (ready, pair-lock wait, throttle hold,
//! per-warp MSHR limit, gated load, gated store; the rest are *stable*),
//! its OWF class, and which slots are dirty or volatile. A warp is
//! re-evaluated only when an input of its evaluation can have changed:
//!
//! * a writeback, a barrier release, a lock acquisition on its pair (a
//!   re-grant of a held lock changes nothing) or its own issue dirties it;
//! * a change of the SM's throttle probability (a window close) dirties
//!   every non-owner warp, the only class the throttle gates;
//! * a *volatile* warp is re-evaluated every stepped cycle: it drew from
//!   the throttle at 0 < p < 1 (a side effect), or it passed a
//!   global-memory instruction through a finite memory gate, which another
//!   SM's issue can close;
//! * a gated warp is re-evaluated when the memory gate has room for the
//!   smallest transaction count among the gated warps of its class: MSHR
//!   and DRAM-queue room for a load, queue room for a store
//!   ([`Sm::gate_reopened`]). Below that, every gated warp of the class is
//!   still blocked exactly as when it was evaluated.
//!
//! Every other outcome (ready, lock wait, throttle hold or pass at p = 0
//! or 1, per-warp MSHR limit, gated, hazard, exit drain, barrier) is
//! cached: a full scan would reproduce it with no side effect but one
//! `lock_retries` per lock waiter, one `throttled_issues` per
//! throttle-held warp and one `mshr_full_stalls` per gated load (one
//! `dram_queue_full_stalls` per gated store), which each stepped cycle
//! adds by count. Re-evaluations run in slot order, so the side effect
//! that remains (throttle RNG draws) comes in the reference order. Block
//! launch and retire rebuild the view list, which otherwise keeps the exact
//! composition the schedulers saw in the per-cycle reference.
//!
//! ## Fast-forward support
//!
//! [`Sm::step`] reports whether the cycle was *quiescent* — zero issues, no
//! port conflict, no volatile warp and no warp held by the throttle (so a
//! window close takes effect in the cycle it would in the reference), i.e.
//! a cycle whose outcome is fully determined until the next writeback
//! drains (or, with a gated warp, the next capacity release that gives one
//! room: [`Sm::gate_holds`] tells the engine whether a release did).
//! [`Sm::next_wake`] exposes that drain cycle (the timing wheel's
//! minimum); [`crate::gpu::Gpu::run_until`] sleeps the SM until then and
//! credits the skipped span in closed form through [`Sm::credit_sleep`]:
//! as idle or empty cycles, or as stall cycles when a warp is at the
//! per-warp MSHR limit or gated, preserving every counter bit for bit.

use grs_core::sched::unit_slots;
use grs_core::{
    DynThrottle, LatencyConfig, LaunchPlan, PairLock, Scheduler, SchedulerKind, SlotView,
    WarpClass, MAX_WARP_SLOTS,
};
use grs_isa::Op;

use crate::block::{pairing_of_slot, Block, Pairing};
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
    /// A global-memory instruction's last transaction returned: clear
    /// register `.0` ([`NO_REG`] for a store) and free the instruction's
    /// [`Warp::outstanding_mem`] slot.
    Mem(u16),
}

/// What one warp evaluation found. Every outcome is cached until something
/// dirties the slot, unless the evaluation was volatile (see
/// [`Sm::scan_readiness`]). Outcomes a throttle check decided at p = 0 or
/// p = 1 also hold only until the SM's probability changes, and a gated
/// outcome only until the gate has room for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Blocked on conditions only a drain or an SM-local issue can change
    /// (hazard, exit drain, barrier); no per-cycle side effects.
    Stable,
    /// Ready to issue.
    Ready,
    /// Pair-lock busy-wait: idle, and one `lock_retries` per stepped cycle.
    Locked,
    /// Held by the dynamic throttle: idle, and one `throttled_issues` per
    /// stepped cycle. Cached at p = 0, where holding draws nothing; a
    /// denial at 0 < p < 1 is volatile.
    Throttled,
    /// At the per-warp MSHR limit: a pipeline stall that only the warp's
    /// own writeback or issue can lift.
    MshrLimit,
    /// Blocked by memory back-pressure ([`MemGate`]): a stall, and one
    /// `mshr_full_stalls` (a load) or `dram_queue_full_stalls` (a store) per
    /// stepped cycle. Cached with the instruction's transaction count until
    /// the gate has room for the smallest such count of its class
    /// ([`Sm::gate_reopened`]); the gate only opens at a capacity release,
    /// whose cycle the memory system knows, so a gated SM sleeps until then
    /// and the skipped span is credited in closed form as a stall
    /// ([`Sm::credit_sleep`]).
    Gated(GateBlock),
}

/// The memory-side inputs of one cycle's warp evaluations.
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// The issue gate as of this cycle.
    now: MemGate,
    /// Can the gate ever close (finite MSHR tables or DRAM queues)?
    can_close: bool,
    /// Per-warp limit on in-flight global-memory instructions.
    max_pending: u32,
}

/// Static per-run SM mode flags.
#[derive(Debug, Clone, Copy)]
pub struct SmMode {
    /// Register sharing (true: one pair lock per warp index, released at
    /// the warp's exit) or scratchpad sharing (false: one lock per pair,
    /// released at its holder block's completion).
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
    /// Zero issues, no port conflict, no warp that must be re-evaluated
    /// every cycle and none held by the throttle: nothing on this SM can
    /// change before its next writeback drains (or, when `gated`, the next
    /// capacity release), so it may sleep until then.
    pub quiescent: bool,
    /// A quiescent cycle that counts as a pipeline stall: ≥1 warp is at the
    /// per-warp MSHR limit or blocked by memory back-pressure. The skipped
    /// span is credited as stall cycles by [`Sm::credit_sleep`].
    pub stalled: bool,
    /// A stalled cycle with ≥1 warp blocked by memory back-pressure: the SM
    /// must also wake on the next MSHR/DRAM-queue release.
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
    pub pairs: Vec<PairLock>,
    /// See [`SmMode::register_sharing`].
    register_sharing: bool,
    /// The launch plan this SM was configured with.
    pub plan: LaunchPlan,
    /// Statistics.
    pub stats: SmStats,
    sched: Scheduler,
    /// Constant slot mask of each scheduler unit.
    unit_slots: Vec<u64>,
    next_dyn_id: u64,
    writebacks: TimingWheel<Writeback>,
    // Incremental-scan state: one bit per warp slot.
    /// The scheduler's view list: the live slots as of the last rebuild.
    listed: u64,
    /// Slots dirtied since their last evaluation.
    dirty: u64,
    /// Slots whose last evaluation was volatile: it drew from the throttle,
    /// or it checked a global-memory instruction against a finite memory
    /// gate. Re-evaluated every stepped cycle, and they keep the SM awake.
    volatile: u64,
    /// Outcomes of the latest evaluations ([`Outcome`]); listed slots in
    /// none of these are [`Outcome::Stable`].
    ready: u64,
    locked: u64,
    throttled: u64,
    mshr_limited: u64,
    /// Gated loads (blocked on MSHR room) and gated stores (blocked on
    /// DRAM-queue room), kept apart because the gate admits them by
    /// different rules.
    gated_loads: u64,
    gated_stores: u64,
    /// Transaction count of each gated slot's instruction, and the smallest
    /// one among the gated loads and among the gated stores (meaningful
    /// only while the class's mask is non-empty).
    gate_need: Vec<u8>,
    min_load_need: u32,
    min_store_need: u32,
    /// The SM's throttle probability as the cached outcomes read it.
    throttle_p: f64,
    /// OWF classes of the latest evaluations; the other slots are unshared.
    owner: u64,
    non_owner: u64,
    /// Dynamic warp id per slot, as of the last rebuild.
    dyn_ids: Vec<u64>,
    live_warp_count: u32,
    /// Resident blocks: the `Some` entries of [`Self::blocks`].
    live_block_count: u32,
    structural: bool,
    /// With `incremental` off (the `fast_forward: false` reference mode)
    /// every scan re-evaluates every live warp and ready-less cycles
    /// still run every scheduler unit's pick — the seed's exact per-cycle
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
    addr_buf: Vec<u64>,
}

impl Sm {
    /// Build an SM for one run. `mode.incremental` selects the event-engine
    /// scan (see the module docs); off reproduces the per-cycle reference.
    ///
    /// # Panics
    ///
    /// If the plan needs more than [`MAX_WARP_SLOTS`] warp slots
    /// (`max_blocks × warps_per_block`); `Simulator` rejects such a run
    /// with a `RunError` first.
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
        assert!(
            slots * wpb <= MAX_WARP_SLOTS,
            "{slots} blocks × {wpb} warps exceed {MAX_WARP_SLOTS} warp slots"
        );
        let locks = if mode.register_sharing { wpb } else { 1 };
        Sm {
            id,
            l1,
            blocks: vec![None; slots],
            warps: vec![None; slots * wpb],
            pairs: vec![PairLock::new(locks); plan.shared_pairs as usize],
            register_sharing: mode.register_sharing,
            plan,
            stats: SmStats::default(),
            sched: sched_kind.build(slots * wpb, units),
            unit_slots: unit_slots(slots * wpb, units),
            next_dyn_id: 0,
            writebacks: TimingWheel::new(),
            listed: 0,
            dirty: 0,
            volatile: 0,
            ready: 0,
            locked: 0,
            throttled: 0,
            mshr_limited: 0,
            gated_loads: 0,
            gated_stores: 0,
            gate_need: vec![0; slots * wpb],
            min_load_need: 0,
            min_store_need: 0,
            throttle_p: 1.0,
            owner: 0,
            non_owner: 0,
            dyn_ids: vec![0; slots * wpb],
            live_warp_count: 0,
            live_block_count: 0,
            structural: true,
            incremental: mode.incremental,
            telemetry: mode.telemetry.map(|c| Box::new(SmTelemetry::new(&c))),
            slot_reason: vec![0; slots * wpb],
            n_hazard: 0,
            n_barrier: 0,
            addr_buf: Vec::with_capacity(32),
        }
    }

    /// Number of blocks currently resident.
    pub fn live_blocks(&self) -> u32 {
        self.live_block_count
    }

    /// Does any slot lack a block?
    pub fn has_free_slot(&self) -> bool {
        (self.live_block_count as usize) < self.blocks.len()
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
        (
            self.gated_loads.count_ones(),
            self.gated_stores.count_ones(),
        )
    }

    /// The gated slots `gate` may admit, which the next scan re-evaluates:
    /// every gated load if it has MSHR and DRAM-queue room for the smallest
    /// gated load, every gated store if it has DRAM-queue room for the
    /// smallest gated store. A gated slot outside the result is blocked by
    /// `gate` exactly as when it was evaluated ([`MemGate::blocks`]).
    #[inline]
    pub fn gate_reopened(&self, gate: MemGate) -> u64 {
        // A class with no gated warp contributes an empty mask, whatever its
        // stale minimum reads against `MemGate::OPEN`'s `u32::MAX`.
        let mut due = 0;
        if gate.mshr_free.min(gate.dram_free) >= self.min_load_need {
            due |= self.gated_loads;
        }
        if gate.dram_free >= self.min_store_need {
            due |= self.gated_stores;
        }
        due
    }

    /// Does `gate` still block every warp the latest scan found gated, and
    /// is there one? Then stepping the SM would change nothing but its
    /// stall accounting until a writeback or a later release.
    pub fn gate_holds(&self, gate: MemGate) -> bool {
        self.gated_loads | self.gated_stores != 0 && self.gate_reopened(gate) == 0
    }

    /// Credit the skipped sleep span `[since, now)` with exactly the
    /// accounting the per-cycle loop would have produced for a quiescent SM
    /// (`Sm::credit_span`), as a pipeline stall when `stalled`
    /// ([`StepOutcome::stalled`]) and as idle or empty cycles otherwise.
    /// Nothing that decides a skipped cycle's accounting can change inside
    /// the span, so the counters scale linearly with it. Sample rows
    /// falling inside the span are emitted piecewise at their exact
    /// boundaries — a row at cycle `b` sees precisely the counters the
    /// per-cycle loop would have accumulated through cycle `b - 1`.
    pub fn credit_sleep(&mut self, since: u64, now: u64, stalled: bool) {
        if now <= since {
            return;
        }
        if let Some(mut t) = self.telemetry.take() {
            t.record(
                since,
                TelemetryEvent::SleepSpan {
                    until: now,
                    gated: stalled,
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
                self.credit_span(b - cur, stalled);
                t.emit_row(self.id as u32, &self.stats, lb, lw);
                cur = b;
            }
            self.credit_span(now - cur, stalled);
            self.telemetry = Some(t);
        } else {
            self.credit_span(now - since, stalled);
        }
    }

    /// Credit `span` skipped cycles, each counted as the per-cycle loop
    /// counts a quiescent cycle, plus one `lock_retries` per lock waiter
    /// per cycle.
    /// * A stall span (a warp at the per-warp MSHR limit or blocked by
    ///   memory back-pressure): each cycle is a pipeline-stall cycle that
    ///   re-blocks the same warps. A per-warp limit lifts only at a
    ///   writeback and the gate only at a capacity release, and both bound
    ///   the span.
    /// * An idle span: idle when live warps wait on latency, barriers or
    ///   pair locks, with the per-reason breakdown frozen (no drain occurs
    ///   inside the span, so no warp's stall reason changes), and empty
    ///   when no work is resident.
    fn credit_span(&mut self, span: u64, stalled: bool) {
        if span == 0 {
            return;
        }
        debug_assert_eq!(self.throttled, 0, "a throttle hold keeps the SM awake");
        self.stats.lock_retries += span * u64::from(self.locked.count_ones());
        if stalled {
            self.stats.stall_cycles += span;
            self.stats.stall_mem_gate_cycles += span;
            self.stats.mshr_full_stalls += span * u64::from(self.gated_loads.count_ones());
            self.stats.dram_queue_full_stalls += span * u64::from(self.gated_stores.count_ones());
        } else if self.live_warp_count > 0 {
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

    /// Update `slot`'s stall reason (0 none, 1 scoreboard, 2 barrier,
    /// 3 memory gate), keeping the incremental reason counts and recording
    /// an edge-triggered [`TelemetryEvent::WarpStall`] on a change into a
    /// non-ready reason. A slot's reason changes only with an input of its
    /// evaluation, and every engine re-evaluates the slot in the cycle that
    /// input changes, so both the counts and the event stream are
    /// engine-invariant.
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
        self.live_block_count += 1;
        self.structural = true;
        self.stats.max_resident_blocks = self.stats.max_resident_blocks.max(self.live_block_count);
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
        let gate = Gate {
            now: shared.issue_gate(),
            can_close: shared.gate_can_close(),
            max_pending: shared.cfg.max_pending_per_warp,
        };
        self.scan_readiness(now, kinfo, throttle, gate);
        let any_live = self.live_warp_count > 0;
        let gated = self.gated_loads | self.gated_stores != 0;
        if self.locked | self.throttled != 0 || gated {
            self.stats.lock_retries += u64::from(self.locked.count_ones());
            self.stats.throttled_issues += u64::from(self.throttled.count_ones());
            self.stats.mshr_full_stalls += u64::from(self.gated_loads.count_ones());
            self.stats.dram_queue_full_stalls += u64::from(self.gated_stores.count_ones());
        }

        let mut issued = 0u32;
        let mut port_conflict = false;
        let mut global_port_used = false;
        let mut smem_port_used = false;
        if self.ready != 0 || !self.incremental {
            for unit in 0..self.unit_slots.len() {
                let view = SlotView {
                    listed: self.listed,
                    ready: self.ready,
                    owner: self.owner,
                    non_owner: self.non_owner,
                    dynamic_ids: &self.dyn_ids,
                };
                let Some(slot) = self.sched.pick(unit, self.unit_slots[unit], &view) else {
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
                    self.mark_slot_dirty(slot);
                    issued += 1;
                } else {
                    port_conflict = true; // same-cycle lock race: counts as stall
                }
            }
        } else {
            // No unit can pick anything; apply the scheduler-state
            // transition an all-unready pick round would have made and skip
            // the per-unit picks.
            self.sched.note_idle_cycle();
        }

        let stalled = self.mshr_limited != 0 || gated;
        if issued == 0 {
            if stalled || port_conflict {
                // Every pipeline-stall cycle is caused by the memory system
                // or a structural conflict, so the breakdown attributes it
                // to the mem-gate bucket wholesale.
                self.stats.stall_cycles += 1;
                self.stats.stall_mem_gate_cycles += 1;
            } else if any_live {
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
            if any_live {
                // The Sec. IV-C monitor compares per-SM lost cycles; both
                // pipeline stalls and ready-less (memory-wait) cycles are
                // symptoms of the interference it throttles.
                throttle.note_stall(self.id);
            }
        }

        StepOutcome {
            live: any_live,
            quiescent: issued == 0 && !port_conflict && self.volatile | self.throttled == 0,
            stalled,
            gated,
            issued: issued > 0,
        }
    }

    fn drain_writebacks(&mut self, now: u64) {
        self.writebacks.drain_due(now, |_, wb| {
            let slot = wb.slot as usize;
            if let Some(w) = self.warps[slot].as_mut() {
                match wb.kind {
                    WbKind::Alu(reg) => w.clear_pending(reg),
                    WbKind::Mem(reg) => {
                        w.clear_pending(reg);
                        w.outstanding_mem -= 1;
                    }
                }
                self.dirty |= 1 << slot;
            }
        });
    }

    /// Drop `slot`'s cached outcome so the next scan re-evaluates it.
    #[inline]
    fn mark_slot_dirty(&mut self, slot: usize) {
        self.dirty |= 1 << slot;
    }

    /// Invalidate the warps of `blocks` consecutive block slots from
    /// `block_slot` on.
    #[inline]
    fn mark_blocks_dirty(&mut self, block_slot: u32, blocks: u32, warps_per_block: u32) {
        let width = blocks * warps_per_block;
        let base = block_slot * warps_per_block;
        self.dirty |= (u64::MAX >> (64 - width)) << base;
    }

    /// Invalidate both blocks of `pair` — a lock acquisition changed the
    /// pair's lock and owner state, which feeds every cached outcome and
    /// [`WarpClass`] of the pair.
    fn mark_pair_dirty(&mut self, pair: u32, warps_per_block: u32) {
        self.mark_blocks_dirty(self.plan.unshared + 2 * pair, 2, warps_per_block);
    }

    /// The pair lock a shared access of warp `warp_in_block` needs: its
    /// own under register sharing, the pair's one lock otherwise.
    #[inline]
    fn lock_of(&self, warp_in_block: u32) -> usize {
        if self.register_sharing {
            warp_in_block as usize
        } else {
            0
        }
    }

    /// Scan resident warps, refreshing the scheduler view. Only the slots
    /// whose outcome can have changed are re-evaluated: dirtied slots
    /// (including every non-owner slot when the SM's throttle probability
    /// changed), volatile ones and the gated ones the current gate may admit
    /// ([`Self::gate_reopened`]), in increasing slot order (the order the
    /// reference scan makes its side effects in). Every other listed slot
    /// keeps its cached outcome, which is exactly what a full scan would
    /// produce; its only per-cycle side effects, one `lock_retries` per lock
    /// waiter, one `throttled_issues` per throttle-held warp and one
    /// `mshr_full_stalls` or `dram_queue_full_stalls` per gated warp, are
    /// counted from the outcome masks by the caller.
    /// With `incremental` off, or after a block launch or a warp exit, the
    /// view list is rebuilt and every live slot re-evaluated.
    fn scan_readiness(
        &mut self,
        now: u64,
        kinfo: &KernelInfo,
        throttle: &mut DynThrottle,
        gate: Gate,
    ) {
        // A window close moved the probability: the cached outcomes of
        // non-owner warps, the only ones the throttle gates, read the old
        // one.
        let p = throttle.probability(self.id);
        if p != self.throttle_p {
            self.throttle_p = p;
            self.dirty |= self.non_owner;
        }
        let eval = if self.structural || !self.incremental {
            self.structural = false;
            let mut listed = 0;
            for slot in 0..self.warps.len() {
                match self.warps[slot].as_ref() {
                    Some(w) if !w.finished => {
                        listed |= 1 << slot;
                        self.dyn_ids[slot] = w.dynamic_id;
                    }
                    _ => self.set_reason(slot, 0, now),
                }
            }
            self.listed = listed;
            listed
        } else {
            self.due_slots(gate.now)
        };
        self.dirty = 0;
        let was_gated = self.gated_loads | self.gated_stores;
        let keep = self.listed & !eval;
        for mask in [
            &mut self.volatile,
            &mut self.ready,
            &mut self.locked,
            &mut self.throttled,
            &mut self.mshr_limited,
            &mut self.gated_loads,
            &mut self.gated_stores,
            &mut self.owner,
            &mut self.non_owner,
        ] {
            *mask &= keep;
        }
        let mut todo = eval;
        while todo != 0 {
            let slot = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let bit = 1u64 << slot;
            let (outcome, class, volatile) = self.eval_warp(slot, now, kinfo, throttle, gate);
            match class {
                WarpClass::Owner => self.owner |= bit,
                WarpClass::NonOwner => self.non_owner |= bit,
                WarpClass::Unshared => {}
            }
            if volatile {
                self.volatile |= bit;
            }
            match outcome {
                Outcome::Stable => {}
                Outcome::Ready => self.ready |= bit,
                Outcome::Locked => self.locked |= bit,
                Outcome::Throttled => self.throttled |= bit,
                Outcome::MshrLimit => self.mshr_limited |= bit,
                Outcome::Gated(GateBlock::Mshr) => self.gated_loads |= bit,
                Outcome::Gated(GateBlock::DramQueue) => self.gated_stores |= bit,
            }
        }
        if eval & (was_gated | self.gated_loads | self.gated_stores) != 0 {
            self.min_load_need = self.min_need(self.gated_loads);
            self.min_store_need = self.min_need(self.gated_stores);
        }
    }

    /// The listed slots an incremental scan reading `gate` re-evaluates:
    /// the dirtied and volatile ones, and the gated ones `gate` may admit.
    #[inline]
    fn due_slots(&self, gate: MemGate) -> u64 {
        (self.dirty | self.volatile | self.gate_reopened(gate)) & self.listed
    }

    /// The smallest transaction count among the gated slots in `mask`
    /// (`u32::MAX` for none).
    fn min_need(&self, mut mask: u64) -> u32 {
        let mut min = u32::MAX;
        while mask != 0 {
            min = min.min(u32::from(self.gate_need[mask.trailing_zeros() as usize]));
            mask &= mask - 1;
        }
        min
    }

    /// Evaluate one live warp exactly as the reference per-cycle scan would:
    /// same checks, same order, same side effect (throttle RNG draws). A
    /// lock waiter's `lock_retries`, a throttle-held warp's
    /// `throttled_issues` and a gated warp's block counter are counted by
    /// the caller, once per stepped cycle; a gated warp's transaction count
    /// is recorded in [`Self::gate_need`]. Returns the outcome, the warp's
    /// OWF class, and whether the outcome is volatile: it drew from the
    /// throttle (a side effect), or it passed a global-memory instruction
    /// through a finite memory gate, which another SM's issue can close with
    /// no event on this SM.
    fn eval_warp(
        &mut self,
        slot: usize,
        now: u64,
        kinfo: &KernelInfo,
        throttle: &mut DynThrottle,
        gate: Gate,
    ) -> (Outcome, WarpClass, bool) {
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

        let mut outcome = Outcome::Stable;
        let mut volatile = false;
        // Stall reason for the breakdown counters: barrier unless the
        // !at_barrier branch refines it below.
        let mut reason = 2u8;
        if !w.at_barrier {
            let meta = &kinfo.meta[w.pc as usize];
            let hazard = w.has_hazard(meta.op_mask);
            let drain_for_exit = meta.is_exit() && (w.outstanding_mem > 0 || w.pending_regs != 0);
            let mshr_full = meta.is_global_mem() && w.outstanding_mem >= gate.max_pending;
            if mshr_full {
                // Structural congestion: the warp has work but the
                // memory pipeline cannot accept it — a *pipeline stall*
                // in the paper's Sec. VI-B accounting (and the signal
                // the Sec. IV-C throttle monitors).
                outcome = Outcome::MshrLimit;
            } else if !hazard && !drain_for_exit {
                // Memory issue gate: the shared memory system cannot
                // take this instruction's transactions. Same stall class as
                // `mshr_full`, but sleepable (see `Outcome::Gated`).
                if let Some(block) = gate.now.blocks(meta) {
                    self.gate_need[slot] = meta.mem_txns;
                    outcome = Outcome::Gated(block);
                } else {
                    volatile = gate.can_close && meta.is_global_mem();
                    outcome = Outcome::Ready;
                    // Pair-lock busy-wait (Fig. 3 / Fig. 4 step (e)): the
                    // warp is simply not ready; it retries next cycle.
                    if let Pairing::Paired { pair, member } = block.pairing {
                        if meta.uses_shared() {
                            let lock = self.lock_of(w.warp_in_block);
                            if !self.pairs[pair as usize].can_access(member, lock) {
                                outcome = Outcome::Locked;
                            }
                        }
                    }
                    // Dynamic warp-execution throttle (paper Sec. IV-C):
                    // intentional suppression, not a pipeline stall. It
                    // draws only at 0 < p < 1 (`allow`'s predicates); at
                    // p = 0 or 1 the outcome holds until the probability
                    // changes, which `scan_readiness` watches.
                    if outcome == Outcome::Ready
                        && meta.is_global_mem()
                        && class == WarpClass::NonOwner
                        && throttle.enabled()
                    {
                        let p = throttle.probability(self.id);
                        volatile |= p > 0.0 && p < 1.0;
                        if !throttle.allow(self.id) {
                            outcome = Outcome::Throttled;
                        }
                    }
                }
            }
            // Scoreboard beats the memory gate when both hold; everything
            // else (exit drain, lock busy-wait, throttle, ready) is "none".
            reason = if hazard {
                1
            } else if matches!(outcome, Outcome::MshrLimit | Outcome::Gated(_)) {
                3
            } else {
                0
            };
        }
        self.set_reason(slot, reason, now);
        (outcome, class, volatile)
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

        // Acquire the pair lock for real (a peer scheduler unit may have
        // taken it since the readiness scan). An acquisition flips the
        // pair's lock and owner state, so cached outcomes of both blocks are
        // invalidated; a re-grant of a lock the warp holds and a denial
        // mutate nothing.
        if let Pairing::Paired { pair, member } = pairing {
            if meta.uses_shared() {
                let lock = self.lock_of(warp_in_block);
                let l = &mut self.pairs[pair as usize];
                let held = l.holds(member, lock);
                if !l.access_shared(member, lock) {
                    self.stats.lock_retries += 1;
                    return false;
                }
                if !held {
                    self.mark_pair_dirty(pair, kinfo.warps_per_block);
                }
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
                    // Each transaction runs the partition pipeline. Only
                    // the last to return clears the register and frees the
                    // in-flight slot, so the instruction schedules one
                    // writeback, at the latest completion cycle.
                    let done = self.addr_buf.iter().fold(0, |done, &addr| {
                        done.max(shared.access(&mut self.l1, addr, now, is_load))
                    });
                    self.writebacks.push(
                        done,
                        Writeback {
                            slot: slot as u32,
                            kind: WbKind::Mem(reg),
                        },
                    );
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
                        self.mark_blocks_dirty(block_slot, 1, kinfo.warps_per_block);
                    }
                }
                Op::BranchBack {
                    target,
                    trips,
                    loop_id,
                } => {
                    let counter = &mut w.loop_counters[loop_id as usize];
                    let left = counter.get_or_insert(trips);
                    if *left > 0 {
                        *left -= 1;
                        w.pc = u32::from(target);
                    } else {
                        *counter = None;
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
            if self.register_sharing {
                self.pairs[pair as usize].warp_finished(member, warp_in_block as usize);
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
        self.live_block_count -= 1;
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
    use grs_core::{GpuConfig, PairMember, ResourceKind, Threshold};
    use grs_isa::{GlobalPattern, KernelBuilder};

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
        assert_eq!(s.live_blocks(), resident(&s));
        assert_eq!(s.stats.max_resident_blocks, 2);
        s.launch_block(2, &ki, 0);
        assert_eq!((s.live_blocks(), resident(&s)), (3, 3));
        assert!(!s.has_free_slot());
    }

    /// The occupied block slots, counted the slow way.
    fn resident(s: &Sm) -> u32 {
        s.blocks.iter().flatten().count() as u32
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
            assert_eq!(s.live_blocks(), resident(&s), "cycle {cycle}");
            if s.stats.blocks_completed == 3 && s.live_blocks() == 0 {
                break;
            }
        }
        assert_eq!(s.live_blocks(), 0);
        assert!(s.has_free_slot());
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

    #[test]
    fn a_multi_transaction_load_completes_once_at_its_last_transaction() {
        // A cold scatter load whose transactions complete at different
        // cycles: the SM's only wake-up is the last one's completion, and the
        // register and in-flight slot stay held until then.
        let pattern = GlobalPattern::Scatter {
            span_lines: 1024,
            txns: 4,
        };
        let k = KernelBuilder::new("scatter")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(1)
            .ld_global(pattern)
            .ialu(1)
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(1);
        let grid_id = disp.next_block().unwrap();
        s.launch_block(grid_id, &ki, 0);
        // The same transactions on an identical cold machine.
        let mut addrs = Vec::new();
        generate_addresses(
            pattern,
            &mut Warp::new(0, 0, 0, 32, 0, grid_id),
            grid_id,
            &mut addrs,
        );
        let (mut mem, mut l1) = (SharedMem::new(cfg.mem), s.l1.clone());
        let done: Vec<u64> = addrs
            .iter()
            .map(|&a| mem.access(&mut l1, a, 0, true))
            .collect();
        let last = *done.iter().max().unwrap();
        assert!(done.iter().any(|&d| d < last), "{done:?}");

        assert!(
            s.step(0, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp)
                .issued
        );
        assert_eq!(s.next_wake(), Some(last), "{done:?}");
        let dst = ki.meta[0].dst;
        for cycle in 1..last {
            s.step(cycle, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
            let w = s.warps[0].as_ref().unwrap();
            assert!(
                w.has_hazard(1 << dst) && w.outstanding_mem == 1,
                "cycle {cycle}"
            );
        }
        let out = s.step(last, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        let w = s.warps[0].as_ref().unwrap();
        assert_eq!(w.outstanding_mem, 0);
        assert!(
            out.issued && w.pc == 2,
            "the dependent ialu issues at {last}"
        );
    }

    /// SM 1 with one shared pair whose block A (slot 0) holds a pair lock,
    /// so the warp of block B (slot 1) is a non-owner whose global load the
    /// throttle gates. Both warps load, then use the value. The throttle
    /// starts SM 1 at p = 1 and moves it by `step` per window; the blocks
    /// come from outside the dispatcher, which has none to refill.
    fn throttled_pair(step: f64) -> (Sm, KernelInfo, DynThrottle) {
        let k = KernelBuilder::new("throttled")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(2)
            .ld_global(GlobalPattern::Stream)
            .ialu(1)
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let mut s = sm(&ki, plan(0, 1));
        s.id = 1;
        s.launch_block(0, &ki, 0);
        s.launch_block(1, &ki, 0);
        s.pairs[0].access_shared(PairMember::A, 0);
        (s, ki, DynThrottle::new(2, 1000, step, true))
    }

    /// Will the next scan, reading `gate`, re-evaluate `slot` whatever the
    /// throttle does?
    fn due(s: &Sm, gate: MemGate, slot: usize) -> bool {
        s.structural || s.due_slots(gate) >> slot & 1 == 1
    }

    #[test]
    fn throttle_holds_at_p0_are_cached_until_the_probability_changes() {
        let (mut s, ki, mut throttle) = throttled_pair(1.0);
        let cfg = GpuConfig::tiny();
        let mut shared = SharedMem::new(cfg.mem);
        let mut disp = Dispatcher::new(0);
        // A window in which SM 1 stalls more than SM 0 takes it to p = 0.
        throttle.note_stall(1);
        throttle.on_cycle(1000);
        assert_eq!(throttle.probability(1), 0.0);
        let out = s.step(0, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(out.issued, "the owner's load issues");
        assert_eq!(s.throttled, 0b10);
        assert_eq!(s.stats.throttled_issues, 1);
        // The owner now waits on its load. The hold is evaluated once, adds
        // one throttled issue per stepped cycle and keeps the SM awake.
        for cycle in 1..8 {
            assert!(
                !due(&s, shared.issue_gate(), 1),
                "cycle {cycle}: the hold is re-evaluated"
            );
            let out = s.step(cycle, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
            assert!(!out.issued && !out.quiescent, "cycle {cycle}");
            assert_eq!(s.stats.throttled_issues, cycle + 1);
        }
        // SM 0 stalls more in the next window: p = 1, and the very next
        // step re-evaluates the warp, which issues its load.
        for _ in 0..100 {
            throttle.note_stall(0);
        }
        throttle.on_cycle(2000);
        assert_eq!(throttle.probability(1), 1.0);
        let out = s.step(8, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(out.issued, "the non-owner's load issues at p = 1");
        assert_eq!((s.throttled, s.volatile), (0, 0));
        assert_eq!(s.stats.throttled_issues, 8);
        assert_eq!(s.stats.warp_instrs, 2);
    }

    #[test]
    fn throttle_draws_at_fractional_p_are_volatile() {
        let (mut s, ki, mut throttle) = throttled_pair(0.5);
        let cfg = GpuConfig::tiny();
        let mut shared = SharedMem::new(cfg.mem);
        let mut disp = Dispatcher::new(0);
        throttle.note_stall(1);
        throttle.on_cycle(1000);
        assert_eq!(throttle.probability(1), 0.5);
        let out = s.step(0, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(!out.quiescent);
        assert!(
            due(&s, shared.issue_gate(), 1),
            "a warp that drew is re-evaluated next cycle"
        );
        assert_eq!(s.volatile, 0b10);
    }

    /// One warp whose first instruction is a global load of `txns`
    /// transactions, on a one-partition memory system with `mshr_entries`
    /// MSHRs and `dram_queue_entries` queue slots, into whose MSHR table
    /// another L1 has put `foreign` cold misses, one every 10 cycles (so
    /// their fills return apart). Returns the cycle of the last miss.
    fn gated_load(
        txns: u8,
        mshr_entries: u32,
        dram_queue_entries: u32,
        foreign: u64,
    ) -> (Sm, KernelInfo, SharedMem, LatencyConfig, u64) {
        let k = KernelBuilder::new("gated")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(1)
            .ld_global(GlobalPattern::scatter(1024, txns))
            .ialu(1)
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let mut cfg = GpuConfig::tiny();
        cfg.mem.mem_partitions = 1;
        cfg.mem.mshr_entries = mshr_entries;
        cfg.mem.dram_queue_entries = dram_queue_entries;
        let mut s = sm(&ki, plan(1, 0));
        s.launch_block(0, &ki, 0);
        let mut shared = SharedMem::new(cfg.mem);
        let mut other_l1 = s.l1.clone();
        for i in 0..foreign {
            let addr = crate::mem::layout::KERNEL_TILE_BASE + i * u64::from(cfg.mem.line_bytes);
            shared.advance_to(10 * i);
            shared.access(&mut other_l1, addr, 10 * i, true);
        }
        assert_eq!(u64::from(shared.in_flight().0), foreign);
        (s, ki, shared, cfg.lat, 10 * (foreign - 1))
    }

    #[test]
    fn a_gated_warp_is_cached_until_a_release_admits_it() {
        // Three foreign misses fill the table; the warp's load needs two
        // entries, so the first release (one free) admits nothing and the
        // second (exactly two free) admits it.
        let (mut s, ki, mut shared, lat, start) = gated_load(2, 3, 0, 3);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(0);
        let out = s.step(start, &ki, &lat, &mut shared, &mut throttle, &mut disp);
        assert!(out.quiescent && out.gated && !out.issued);
        assert_eq!((s.gated_loads, s.stats.mshr_full_stalls), (1, 1));
        let mut below = 0;
        let mut cycle = start + 1;
        loop {
            shared.advance_to(cycle);
            let gate = shared.issue_gate();
            if gate.mshr_free >= 2 {
                break;
            }
            below += u32::from(gate.mshr_free == 1);
            assert!(!due(&s, gate, 0), "cycle {cycle}: {gate:?}");
            s.step(cycle, &ki, &lat, &mut shared, &mut throttle, &mut disp);
            assert_eq!(s.stats.mshr_full_stalls, cycle - start + 1, "cycle {cycle}");
            cycle += 1;
        }
        assert!(below > 0, "a release freed one entry first");
        assert_eq!(shared.issue_gate().mshr_free, 2, "admitted at equality");
        assert!(due(&s, shared.issue_gate(), 0), "due at {cycle}");
        let out = s.step(cycle, &ki, &lat, &mut shared, &mut throttle, &mut disp);
        assert!(out.issued, "the load issues at {cycle}");
        assert_eq!(s.stats.mshr_full_stalls, cycle - start);
        assert_eq!(s.gated_loads, 0);
    }

    #[test]
    fn an_empty_dram_queue_admits_no_gated_load_while_the_mshrs_are_full() {
        // The foreign miss holds the only MSHR until its fill, but its DRAM
        // slot only until the channel serves it: in between, every DRAM
        // queue is empty (`dram_free` reads `u32::MAX`) and the gated load
        // is still blocked.
        let (mut s, ki, mut shared, lat, _) = gated_load(1, 1, 4, 1);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(0);
        s.step(0, &ki, &lat, &mut shared, &mut throttle, &mut disp);
        assert_eq!((s.gated_loads, s.gated_stores), (1, 0));
        let served = shared.next_release().expect("the DRAM slot's release");
        shared.advance_to(served);
        let gate = shared.issue_gate();
        assert_eq!((gate.mshr_free, gate.dram_free), (0, u32::MAX));
        assert!(!due(&s, gate, 0), "{gate:?}");
        let out = s.step(served, &ki, &lat, &mut shared, &mut throttle, &mut disp);
        assert!(out.gated && !out.issued);
        assert_eq!(s.stats.mshr_full_stalls, 2);
    }
}
