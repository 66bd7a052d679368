//! Global-memory subsystem: coalescer address generation, L1 → L2 → DRAM
//! timing, in two selectable models.
//!
//! Each SM owns an L1; everything behind it is shared by every SM (paper
//! Table I: 16 KB L1 per core, 768 KB unified L2). [`MemoryModel`] selects
//! how the shared side is timed:
//!
//! * [`MemoryModel::Functional`] (the default): a unified L2 tag store plus
//!   two bandwidth [`ServerQueue`]s. Timing is computed functionally at
//!   issue — a transaction's completion cycle is `now + hit latency (+ L2
//!   latency + L2 queue) (+ DRAM latency + DRAM queue)` depending on where
//!   it hits; tag state updates eagerly. Deterministic and fast, and it
//!   preserves the first-order contention effect the paper's analysis relies
//!   on (more resident blocks ⇒ bigger combined working set ⇒ more misses ⇒
//!   longer queues) — but all buffering is infinite, so congestion can never
//!   push back on SM issue.
//!
//! * [`MemoryModel::Event`]: an event-driven memory-partition model
//!   ([`EventMem`]). The L2 is sliced into `MemConfig::mem_partitions`
//!   line-interleaved banks, each with its own tag slice, bank bandwidth
//!   server, **MSHR table** and **bounded DRAM request queue**. An L2 miss
//!   holds an MSHR entry (and a DRAM-queue slot for the service time) until
//!   its fill returns, releases are scheduled on a calendar wheel
//!   ([`TimingWheel`]), and a full table back-pressures SM issue through
//!   [`MemGate`]. A second miss to a line whose fill is already in flight
//!   **merges** into the existing entry instead of paying for another DRAM
//!   access, and a tag hit on an in-flight line waits for the fill
//!   (hit-under-miss). With unlimited entries (`mshr_entries = 0`,
//!   `dram_queue_entries = 0`) and a single partition the event model
//!   reproduces the functional timing bit for bit — the equivalence the
//!   `event_memory_model` integration suite pins.

use grs_core::MemConfig;
use grs_isa::{GlobalPattern, LINE_BYTES};
use serde::{Deserialize, Serialize};

use crate::cache::{Cache, CacheOutcome};
use crate::kinfo::InstrMeta;
use crate::server::ServerQueue;
use crate::stats::MemStats;
use crate::telemetry::{MemTelemetry, TelemetryConfig, TelemetryEvent};
use crate::warp::Warp;
use crate::wheel::TimingWheel;

/// Virtual-address layout constants. Each grid block owns a disjoint 8 MB
/// span; kernel-shared tiles live in a separate high region.
pub mod layout {
    /// Bytes of address space per grid block.
    pub const BLOCK_SPAN: u64 = 1 << 23;
    /// Offset of the per-warp streaming region inside a block span.
    pub const STREAM_BASE: u64 = 0;
    /// Bytes of stream per warp (256 lines; wraps after that).
    pub const STREAM_PER_WARP: u64 = 1 << 15;
    /// Offset of the per-block tile region.
    pub const TILE_BASE: u64 = 0x60_0000;
    /// Offset of the per-block scatter region.
    pub const SCATTER_BASE: u64 = 0x70_0000;
    /// Base of the kernel-wide shared-tile region.
    pub const KERNEL_TILE_BASE: u64 = 0x4000_0000_0000;

    /// Base address of a grid block's span, including the anti-aliasing
    /// jitter applied by the address generator.
    pub fn block_base(grid_block: u32) -> u64 {
        u64::from(grid_block) * BLOCK_SPAN + (u64::from(grid_block) % 61) * crate::mem::JITTER_UNIT
    }
}

/// Jitter granularity (one cache line).
pub(crate) const JITTER_UNIT: u64 = LINE_BYTES;

/// Which timing model services the shared side of the memory system. See the
/// module docs for the two models; `Functional` is the default and keeps
/// every pre-existing configuration bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryModel {
    /// Issue-time latency formula over infinite buffering (the seed model).
    Functional,
    /// Event-driven per-partition L2 banks with MSHR tables and bounded
    /// DRAM queues; finite buffers back-pressure SM issue.
    Event,
}

/// Per-cycle issue-capacity snapshot of the event-driven memory system: the
/// worst-case (minimum across partitions) free MSHR entries and DRAM-queue
/// slots. The SM readiness scan blocks a global-memory instruction whose
/// transaction count does not fit — the back-pressure that makes post-issue
/// congestion visible to the paper's stall accounting. The functional model
/// always reports [`MemGate::OPEN`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGate {
    /// Free MSHR entries in the fullest partition (`u32::MAX` = unlimited).
    pub mshr_free: u32,
    /// Free DRAM-queue slots in the fullest partition (`u32::MAX` =
    /// unlimited).
    pub dram_free: u32,
}

impl MemGate {
    /// A gate that admits everything (functional model / unlimited buffers).
    pub const OPEN: MemGate = MemGate {
        mshr_free: u32::MAX,
        dram_free: u32::MAX,
    };

    /// What, if anything, blocks issuing `meta` under this gate. A **load**
    /// conservatively needs room for all its transactions in both the MSHR
    /// table and the DRAM queue (any of them may miss to DRAM); a **store**
    /// takes no MSHR, so only the DRAM queue gates it. The block class
    /// depends only on the instruction kind — not on *which* resource ran
    /// out — so a blocked warp's classification is stable for as long as it
    /// stays blocked (free capacity only shrinks between releases), which is
    /// what lets a gated sleep span be credited in closed form.
    #[inline]
    pub fn blocks(&self, meta: &InstrMeta) -> Option<GateBlock> {
        if !meta.is_global_mem() {
            return None;
        }
        let need = u32::from(meta.mem_txns);
        if meta.is_global_load() {
            if self.mshr_free < need || self.dram_free < need {
                return Some(GateBlock::Mshr);
            }
        } else if self.dram_free < need {
            return Some(GateBlock::DramQueue);
        }
        None
    }
}

/// Why the issue gate blocked an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateBlock {
    /// A load could not reserve MSHR/DRAM-queue capacity for its
    /// transactions (counted as `mshr_full_stalls`).
    Mshr,
    /// A store could not reserve DRAM request-queue slots (counted as
    /// `dram_queue_full_stalls`).
    DramQueue,
}

/// Shared (cross-SM) part of the memory system.
#[derive(Debug, Clone)]
pub struct SharedMem {
    /// Unified L2 tag store (functional model).
    pub l2: Cache,
    /// L2 bank / interconnect bandwidth (functional model).
    pub l2_server: ServerQueue,
    /// DRAM channel bandwidth (functional model).
    pub dram_server: ServerQueue,
    /// Latency constants.
    pub cfg: MemConfig,
    /// Counters.
    pub stats: MemStats,
    /// Event-driven partition state; `Some` iff the run uses
    /// [`MemoryModel::Event`].
    pub event: Option<EventMem>,
}

impl SharedMem {
    /// Build the functional (issue-time) model from a memory configuration.
    pub fn new(cfg: MemConfig) -> Self {
        Self::with_model(cfg, MemoryModel::Functional)
    }

    /// Build with an explicit [`MemoryModel`].
    pub fn with_model(cfg: MemConfig, model: MemoryModel) -> Self {
        SharedMem {
            l2: Cache::new(
                u64::from(cfg.l2_bytes),
                cfg.l2_ways,
                u64::from(cfg.line_bytes),
            ),
            l2_server: ServerQueue::new(cfg.l2_service_q4),
            dram_server: ServerQueue::new(cfg.dram_service_q4),
            cfg,
            stats: MemStats::default(),
            event: match model {
                MemoryModel::Functional => None,
                MemoryModel::Event => Some(EventMem::new(&cfg)),
            },
        }
    }

    /// Is the event-driven model active?
    #[inline]
    pub fn is_event(&self) -> bool {
        self.event.is_some()
    }

    /// Process every capacity release due by `now` and bring the occupancy
    /// integrals up to date. Idempotent per cycle; the SM step loop calls it
    /// before consulting the gate, so a clock jump settles lazily.
    pub fn advance_to(&mut self, now: u64) {
        if let Some(ev) = &mut self.event {
            ev.advance_to(now, &mut self.stats);
        }
    }

    /// Capacity snapshot for the SM readiness scan at `now` (call after
    /// [`Self::advance_to`]).
    pub fn issue_gate(&self) -> MemGate {
        match &self.event {
            Some(ev) => ev.gate(),
            None => MemGate::OPEN,
        }
    }

    /// Earliest pending MSHR/DRAM-queue release — the wake-up cycle for an
    /// SM sleeping on memory back-pressure. `None` for the functional model
    /// or when nothing is in flight.
    pub fn next_release(&self) -> Option<u64> {
        self.event.as_ref().and_then(|ev| ev.next_release())
    }

    /// In-flight occupancy `(mshr entries, dram-queue slots)` across all
    /// partitions — `(0, 0)` under the functional model. Surfaced in the
    /// watchdog's [`crate::supervise::StallDiagnosis`].
    pub fn in_flight(&self) -> (u32, u32) {
        self.event
            .as_ref()
            .map_or((0, 0), |ev| (ev.total_mshr, ev.total_dram))
    }

    /// Latest capacity-release cycle ever scheduled (0 if none, and always 0
    /// under the functional model) — one input to the forward-progress
    /// watchdog's watermark. Engine-invariant: releases are scheduled at
    /// issue time with identical due cycles in every engine.
    pub fn latest_release_scheduled(&self) -> u64 {
        self.event
            .as_ref()
            .map_or(0, |ev| ev.releases.latest_scheduled())
    }

    /// Flush the occupancy integrals through the end of the run.
    pub fn finalize(&mut self, end: u64) {
        self.advance_to(end);
    }

    /// Enable telemetry recording on the event model (no-op under the
    /// functional model, which has no observable memory-side events).
    pub(crate) fn set_telemetry(&mut self, cfg: &TelemetryConfig) {
        if let Some(ev) = &mut self.event {
            ev.telemetry = Some(Box::new(MemTelemetry::new(cfg)));
        }
    }

    /// Take the memory-side telemetry state for end-of-run assembly.
    pub(crate) fn take_telemetry(&mut self) -> Option<MemTelemetry> {
        self.event
            .as_mut()
            .and_then(|ev| ev.telemetry.take())
            .map(|b| *b)
    }

    /// Timing for one **load** transaction to `addr` from the SM owning
    /// `l1`, issued at `now`. Returns the transaction latency in cycles.
    pub fn load(&mut self, l1: &mut Cache, addr: u64, now: u64) -> u64 {
        self.stats.transactions += 1;
        let base = u64::from(self.cfg.l1_hit_latency);
        match l1.access(addr) {
            CacheOutcome::Hit => {
                self.stats.l1_hits += 1;
                base
            }
            CacheOutcome::Miss => {
                self.stats.l1_misses += 1;
                let queue_l2 = self.l2_server.admit(now);
                match self.l2.access(addr) {
                    CacheOutcome::Hit => {
                        self.stats.l2_hits += 1;
                        base + u64::from(self.cfg.l2_latency) + queue_l2
                    }
                    CacheOutcome::Miss => {
                        self.stats.l2_misses += 1;
                        let queue_dram = self.dram_server.admit(now);
                        base + u64::from(self.cfg.l2_latency)
                            + queue_l2
                            + u64::from(self.cfg.dram_latency)
                            + queue_dram
                    }
                }
            }
        }
    }

    /// Timing for one **store** transaction (write-through, no allocate):
    /// consumes L2/DRAM bandwidth; latency models store-buffer drain.
    pub fn store(&mut self, l1: &mut Cache, addr: u64, now: u64) -> u64 {
        self.stats.transactions += 1;
        let base = u64::from(self.cfg.l1_hit_latency);
        l1.access_store(addr);
        let queue_l2 = self.l2_server.admit(now);
        match self.l2.access_store(addr) {
            CacheOutcome::Hit => base + u64::from(self.cfg.l2_latency) + queue_l2,
            CacheOutcome::Miss => {
                let queue_dram = self.dram_server.admit(now);
                base + u64::from(self.cfg.l2_latency) + queue_l2 + queue_dram
                // no dram_latency: stores are posted; only bandwidth matters
            }
        }
    }

    /// Event-model timing for one transaction; returns the **absolute
    /// completion cycle**. Requires [`MemoryModel::Event`] and a preceding
    /// [`Self::advance_to`] for `now`.
    pub fn event_access(&mut self, l1: &mut Cache, addr: u64, now: u64, is_load: bool) -> u64 {
        let cfg = self.cfg;
        let ev = self
            .event
            .as_mut()
            .expect("event_access requires MemoryModel::Event");
        ev.access(l1, addr, now, is_load, &cfg, &mut self.stats)
    }
}

/// A capacity release scheduled on the event wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Release {
    /// A DRAM fill returned: free the MSHR entry holding `line` in partition
    /// `part`.
    Mshr {
        /// Partition index.
        part: u16,
        /// Global line number of the filled line.
        line: u64,
    },
    /// The DRAM channel of partition `part` finished a transaction: free its
    /// request-queue slot.
    DramSlot {
        /// Partition index.
        part: u16,
    },
}

/// An in-flight L2 miss: the fill for `line` returns to the L2 slice at
/// cycle `fill_at`. Later requests for the same line merge into the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MshrEntry {
    line: u64,
    fill_at: u64,
}

/// One memory partition: an L2 slice with its bank server, MSHR table and
/// DRAM channel (bounded queue + bandwidth server).
#[derive(Debug, Clone)]
struct Partition {
    l2: Cache,
    l2_server: ServerQueue,
    dram_server: ServerQueue,
    /// Live MSHR entries (small; linear scan keeps lookups deterministic).
    mshr: Vec<MshrEntry>,
    /// DRAM request-queue slots currently held.
    dram_in_queue: u32,
}

/// Event-driven memory-partition model (see the module docs). Capacity
/// releases live on a calendar wheel and are processed lazily — the step
/// loop advances the model to "now" before consulting the gate — so the
/// occupancy integrals in [`MemStats`] are exact even across fast-forward
/// clock jumps (each release credits `occupancy × elapsed` in closed form).
#[derive(Debug, Clone)]
pub struct EventMem {
    parts: Vec<Partition>,
    releases: TimingWheel<Release>,
    release_buf: Vec<(u64, Release)>,
    /// Per-partition limits; 0 = unlimited (tracking disabled).
    mshr_limit: u32,
    dram_queue_limit: u32,
    /// Totals across partitions, for the occupancy integrals.
    total_mshr: u32,
    total_dram: u32,
    /// Cycle the integrals are valid through.
    clock: u64,
    /// Telemetry recording state (`None` unless tracing is on). Rides the
    /// clone into snapshots so a restore carries the buffers.
    telemetry: Option<Box<MemTelemetry>>,
}

impl EventMem {
    /// Hard ceiling on `MemConfig::mem_partitions`. Configurations above it
    /// are clamped (behaving bit-identically to a machine configured at the
    /// ceiling). The bound keeps the per-bank service-interval scaling
    /// `service_q4 × partitions` provably inside `u32` for every interval
    /// the quarter-cycle [`ServerQueue`] can represent meaningfully, so the
    /// scaling below never silently saturates capacity — the overflow
    /// behaviour the `partition_extremes` tests pin.
    pub const MAX_PARTITIONS: u32 = 4096;

    /// Build the partitioned model from `cfg` (see the `MemConfig` fields
    /// `mem_partitions`, `mshr_entries`, `dram_queue_entries`).
    /// `mem_partitions` is clamped to `1..=MAX_PARTITIONS`.
    pub fn new(cfg: &MemConfig) -> Self {
        let parts_n = cfg.mem_partitions.clamp(1, Self::MAX_PARTITIONS);
        let slice_bytes = (u64::from(cfg.l2_bytes) / u64::from(parts_n))
            .max(u64::from(cfg.line_bytes) * u64::from(cfg.l2_ways.max(1)));
        // Per-bank service is `partitions`× slower than the functional
        // aggregate so total bandwidth matches. Saturation policy (decided,
        // not accidental): a product that would exceed u32::MAX pins to
        // u32::MAX quarter-cycles — per-bank bandwidth bottoms out rather
        // than wrapping to a fast interval. Unreachable for any service
        // interval below u32::MAX / MAX_PARTITIONS ≈ 1M quarter-cycles.
        let l2_q4 = cfg.l2_service_q4.saturating_mul(parts_n);
        let dram_q4 = cfg.dram_service_q4.saturating_mul(parts_n);
        let parts = (0..parts_n)
            .map(|_| Partition {
                l2: Cache::new(slice_bytes, cfg.l2_ways, u64::from(cfg.line_bytes)),
                l2_server: ServerQueue::new(l2_q4),
                dram_server: ServerQueue::new(dram_q4),
                mshr: Vec::new(),
                dram_in_queue: 0,
            })
            .collect();
        EventMem {
            parts,
            releases: TimingWheel::new(),
            release_buf: Vec::new(),
            mshr_limit: cfg.mshr_entries,
            dram_queue_limit: cfg.dram_queue_entries,
            total_mshr: 0,
            total_dram: 0,
            clock: 0,
            telemetry: None,
        }
    }

    /// Credit `occupancy × elapsed` for both resources up to `to`.
    fn integrate(&mut self, to: u64, stats: &mut MemStats) {
        // Sample rows due in `(clock, to]` see the occupancy that held over
        // that whole stretch (it only changes at release/admission cycles,
        // which bound every integrate call). A row at cycle `b` therefore
        // reflects the totals after every release due *before* `b` and
        // before any due *at* `b` — a rule that depends only on the release
        // trajectory, not on when the lazy `advance_to` calls happen, so
        // the rows are identical across engines.
        if let Some(t) = self.telemetry.as_deref_mut() {
            while t.next_sample <= to {
                t.emit_row(self.total_mshr, self.total_dram);
            }
        }
        let span = to.saturating_sub(self.clock);
        if span > 0 {
            stats.mshr_occupancy_cycles += span * u64::from(self.total_mshr);
            stats.dram_queue_occupancy_cycles += span * u64::from(self.total_dram);
            self.clock = to;
        }
    }

    /// Process releases due by `now`, integrating occupancy piecewise at
    /// each release cycle (exact across arbitrarily long jumps).
    fn advance_to(&mut self, now: u64, stats: &mut MemStats) {
        while let Some(due) = self.releases.next_due() {
            if due > now {
                break;
            }
            self.integrate(due, stats);
            let mut buf = std::mem::take(&mut self.release_buf);
            self.releases.drain_due_into(due, &mut buf);
            for &(_, r) in &buf {
                match r {
                    Release::Mshr { part, line } => {
                        let mshr = &mut self.parts[part as usize].mshr;
                        let i = mshr
                            .iter()
                            .position(|e| e.line == line)
                            .expect("release for a live MSHR entry");
                        mshr.swap_remove(i);
                        self.total_mshr -= 1;
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            // Stamped with the release's *due* cycle, so the
                            // stream is invariant to when the lazy drain ran.
                            t.record(due, TelemetryEvent::MshrFill { part: part.into() });
                        }
                    }
                    Release::DramSlot { part } => {
                        self.parts[part as usize].dram_in_queue -= 1;
                        self.total_dram -= 1;
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.record(due, TelemetryEvent::DramService { part: part.into() });
                        }
                    }
                }
            }
            self.release_buf = buf;
        }
        self.integrate(now, stats);
    }

    /// Worst-case free capacity across partitions. Soft-limit semantics: an
    /// *empty* table accepts any instruction whole (even one whose
    /// transaction count exceeds the nominal limit), which is what makes
    /// finite tables deadlock-free — entries drain on their own, so a
    /// blocked instruction always eventually sees an empty table.
    fn gate(&self) -> MemGate {
        let mut gate = MemGate::OPEN;
        for p in &self.parts {
            if self.mshr_limit > 0 && !p.mshr.is_empty() {
                let free = self.mshr_limit.saturating_sub(p.mshr.len() as u32);
                gate.mshr_free = gate.mshr_free.min(free);
            }
            if self.dram_queue_limit > 0 && p.dram_in_queue > 0 {
                let free = self.dram_queue_limit.saturating_sub(p.dram_in_queue);
                gate.dram_free = gate.dram_free.min(free);
            }
        }
        gate
    }

    /// Earliest pending capacity release, if any.
    fn next_release(&self) -> Option<u64> {
        self.releases.next_due()
    }

    /// Partition index and partition-local probe address of `addr`
    /// (line-interleaved slicing; the local address renumbers the
    /// partition's lines densely so each slice uses all its sets).
    #[inline]
    fn route(&self, addr: u64, line_bytes: u64) -> (usize, u64, u64) {
        let line = addr / line_bytes;
        let part = (line % self.parts.len() as u64) as usize;
        let local_addr = (line / self.parts.len() as u64) * line_bytes;
        (part, line, local_addr)
    }

    /// Time one transaction; returns the absolute completion cycle. Tag
    /// state updates eagerly (as in the functional model); MSHR entries and
    /// DRAM-queue slots are held via wheel-scheduled releases.
    fn access(
        &mut self,
        l1: &mut Cache,
        addr: u64,
        now: u64,
        is_load: bool,
        cfg: &MemConfig,
        stats: &mut MemStats,
    ) -> u64 {
        debug_assert!(self.clock == now, "advance_to(now) must precede access");
        stats.transactions += 1;
        let base = u64::from(cfg.l1_hit_latency);
        if is_load {
            if l1.access(addr) == CacheOutcome::Hit {
                stats.l1_hits += 1;
                return now + base;
            }
            stats.l1_misses += 1;
        } else {
            l1.access_store(addr);
        }
        let (part, line, local_addr) = self.route(addr, u64::from(cfg.line_bytes));
        let p = &mut self.parts[part];
        let queue_l2 = p.l2_server.admit(now);
        let l2_time = now + base + u64::from(cfg.l2_latency) + queue_l2;
        if !is_load {
            // Write-through, no allocate: stores consume bandwidth (and a
            // DRAM-queue slot on an L2 miss) but hold no MSHR entry.
            return match p.l2.access_store(local_addr) {
                CacheOutcome::Hit => l2_time,
                CacheOutcome::Miss => {
                    let (queue_dram, service_end) = p.dram_server.admit_timed(now);
                    if self.dram_queue_limit > 0 {
                        p.dram_in_queue += 1;
                        self.total_dram += 1;
                        stats.peak_dram_queue_occupancy =
                            stats.peak_dram_queue_occupancy.max(self.total_dram);
                        self.releases
                            .push(service_end, Release::DramSlot { part: part as u16 });
                        if let Some(t) = self.telemetry.as_deref_mut() {
                            t.record(now, TelemetryEvent::DramAdmit { part: part as u32 });
                        }
                    }
                    l2_time + queue_dram // posted: no dram_latency
                }
            };
        }
        let outcome = p.l2.access(local_addr);
        if self.mshr_limit > 0 {
            // Hit-under-miss / miss merging: any request touching a line
            // whose fill is still in flight completes with that fill.
            if let Some(e) = p.mshr.iter().find(|e| e.line == line) {
                match outcome {
                    CacheOutcome::Hit => stats.l2_hits += 1,
                    CacheOutcome::Miss => stats.l2_misses += 1,
                }
                stats.mshr_merges += 1;
                let merged_at = l2_time.max(e.fill_at + base);
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.record(now, TelemetryEvent::MshrMerge { part: part as u32 });
                }
                return merged_at;
            }
        }
        match outcome {
            CacheOutcome::Hit => {
                stats.l2_hits += 1;
                l2_time
            }
            CacheOutcome::Miss => {
                stats.l2_misses += 1;
                let (queue_dram, service_end) = p.dram_server.admit_timed(now);
                let fill_at = now
                    + u64::from(cfg.l2_latency)
                    + queue_l2
                    + u64::from(cfg.dram_latency)
                    + queue_dram;
                if self.mshr_limit > 0 {
                    p.mshr.push(MshrEntry { line, fill_at });
                    self.total_mshr += 1;
                    // Sample the cross-partition total at admission: totals
                    // only grow here (releases only shrink them), so this one
                    // sampling point sees every peak. Maxing one partition's
                    // table length — the old behaviour — understated the
                    // machine-wide peak whenever misses spread across
                    // partitions.
                    stats.peak_mshr_occupancy = stats.peak_mshr_occupancy.max(self.total_mshr);
                    self.releases.push(
                        fill_at,
                        Release::Mshr {
                            part: part as u16,
                            line,
                        },
                    );
                }
                if self.dram_queue_limit > 0 {
                    p.dram_in_queue += 1;
                    self.total_dram += 1;
                    stats.peak_dram_queue_occupancy =
                        stats.peak_dram_queue_occupancy.max(self.total_dram);
                    self.releases
                        .push(service_end, Release::DramSlot { part: part as u16 });
                    if let Some(t) = self.telemetry.as_deref_mut() {
                        t.record(now, TelemetryEvent::DramAdmit { part: part as u32 });
                    }
                }
                fill_at + base
            }
        }
    }
}

/// Generate the line addresses one warp-level execution of `pattern`
/// produces, appending to `out`. Advances the warp's pattern counters/RNG —
/// call exactly once per issued memory instruction.
pub fn generate_addresses(
    pattern: GlobalPattern,
    warp: &mut Warp,
    grid_block: u32,
    out: &mut Vec<u64>,
) {
    // Per-block jitter of a few lines breaks the pathological set alignment
    // that power-of-two block spans would otherwise create (every block's
    // region mapping to the same cache sets) — the moral equivalent of the
    // address hashing real memory controllers apply.
    let block_base = layout::block_base(grid_block);
    match pattern {
        GlobalPattern::Stream => {
            let lines_per_warp = layout::STREAM_PER_WARP / LINE_BYTES;
            let line = warp.stream_pos % lines_per_warp;
            // Saturating, never wrapping: a wrapped counter would restart the
            // modulo sequence mid-stream and alias fresh accesses onto old
            // lines, silently inflating hit rates on very long runs. (At
            // saturation — 2^64 issues, unreachable in practice — the stream
            // pins to its last line, which is at least visible in stats.)
            warp.stream_pos = warp.stream_pos.saturating_add(1);
            out.push(
                block_base
                    + layout::STREAM_BASE
                    + u64::from(warp.warp_in_block) * layout::STREAM_PER_WARP
                    + line * LINE_BYTES,
            );
        }
        GlobalPattern::BlockTile { tile_lines } => {
            let tl = u64::from(tile_lines.max(1));
            let line = (u64::from(warp.warp_in_block) * 7 + warp.tile_pos) % tl;
            warp.tile_pos = warp.tile_pos.saturating_add(1);
            out.push(block_base + layout::TILE_BASE + line * LINE_BYTES);
        }
        GlobalPattern::KernelTile { tile_lines } => {
            let tl = u64::from(tile_lines.max(1));
            let line = (u64::from(warp.warp_in_block) * 3 + warp.tile_pos) % tl;
            warp.tile_pos = warp.tile_pos.saturating_add(1);
            out.push(layout::KERNEL_TILE_BASE + line * LINE_BYTES);
        }
        GlobalPattern::Scatter { span_lines, txns } => {
            // Cap the span so the region stays inside the block span.
            let span = u64::from(span_lines.max(1)).min(4096);
            for _ in 0..txns.max(1) {
                let line = warp.rng.next_below(span);
                out.push(block_base + layout::SCATTER_BASE + line * LINE_BYTES);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_core::MemConfig;

    fn mem() -> (SharedMem, Cache) {
        let cfg = MemConfig::default();
        let l1 = Cache::new(
            u64::from(cfg.l1_bytes),
            cfg.l1_ways,
            u64::from(cfg.line_bytes),
        );
        (SharedMem::new(cfg), l1)
    }

    #[test]
    fn l1_hit_is_cheapest() {
        let (mut sm, mut l1) = mem();
        let cold = sm.load(&mut l1, 0x1000, 0);
        let warm = sm.load(&mut l1, 0x1000, 0);
        assert!(warm < cold);
        assert_eq!(warm, u64::from(sm.cfg.l1_hit_latency));
        assert_eq!(sm.stats.l1_hits, 1);
        assert_eq!(sm.stats.l1_misses, 1);
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let (mut sm, mut l1a) = mem();
        let cfg = sm.cfg;
        let mut l1b = Cache::new(
            u64::from(cfg.l1_bytes),
            cfg.l1_ways,
            u64::from(cfg.line_bytes),
        );
        // SM A warms L2; SM B misses L1 but hits L2.
        let dram = sm.load(&mut l1a, 0x8000, 0);
        let l2hit = sm.load(&mut l1b, 0x8000, 0);
        assert!(l2hit < dram);
        assert_eq!(sm.stats.l2_hits, 1);
        assert_eq!(sm.stats.l2_misses, 1);
    }

    #[test]
    fn dram_bandwidth_builds_queues() {
        let (mut sm, mut l1) = mem();
        // Distinct lines all missing to DRAM at the same cycle: latencies
        // must grow (non-strictly, thanks to sub-cycle service resolution)
        // as the service queue backs up.
        let lats: Vec<u64> = (0u64..8)
            .map(|i| sm.load(&mut l1, 0x100_0000 + i * 0x10_0000, 0))
            .collect();
        assert!(lats.windows(2).all(|w| w[0] <= w[1]), "{lats:?}");
        assert!(lats[7] > lats[0], "{lats:?}");
    }

    #[test]
    fn stream_addresses_advance_and_stay_disjoint_per_warp() {
        let mut w0 = Warp::new(0, 0, 0, 32, 0, 5);
        let mut w1 = Warp::new(1, 0, 1, 32, 0, 5);
        let mut a = Vec::new();
        generate_addresses(GlobalPattern::Stream, &mut w0, 5, &mut a);
        generate_addresses(GlobalPattern::Stream, &mut w0, 5, &mut a);
        generate_addresses(GlobalPattern::Stream, &mut w1, 5, &mut a);
        assert_eq!(a[1], a[0] + LINE_BYTES);
        assert_ne!(a[2], a[0]);
        // Warp regions are disjoint.
        assert_eq!(a[2] - a[0], layout::STREAM_PER_WARP);
    }

    #[test]
    fn block_tile_wraps_within_tile() {
        let mut w = Warp::new(0, 0, 0, 32, 0, 1);
        let mut a = Vec::new();
        for _ in 0..10 {
            generate_addresses(
                GlobalPattern::BlockTile { tile_lines: 4 },
                &mut w,
                1,
                &mut a,
            );
        }
        let base = layout::block_base(1) + layout::TILE_BASE;
        for addr in &a {
            assert!(*addr >= base && *addr < base + 4 * LINE_BYTES);
        }
        // Periodicity 4.
        assert_eq!(a[0], a[4]);
    }

    #[test]
    fn kernel_tile_is_shared_across_blocks() {
        let mut w_b0 = Warp::new(0, 0, 0, 32, 0, 0);
        let mut w_b9 = Warp::new(0, 0, 0, 32, 0, 9);
        let mut a = Vec::new();
        generate_addresses(
            GlobalPattern::KernelTile { tile_lines: 8 },
            &mut w_b0,
            0,
            &mut a,
        );
        generate_addresses(
            GlobalPattern::KernelTile { tile_lines: 8 },
            &mut w_b9,
            9,
            &mut a,
        );
        assert_eq!(a[0], a[1]); // same position → same address despite block
    }

    fn event_mem(parts: u32, mshr: u32, dramq: u32) -> (SharedMem, Cache) {
        let cfg = MemConfig {
            mem_partitions: parts,
            mshr_entries: mshr,
            dram_queue_entries: dramq,
            ..MemConfig::default()
        };
        let l1 = Cache::new(
            u64::from(cfg.l1_bytes),
            cfg.l1_ways,
            u64::from(cfg.line_bytes),
        );
        (SharedMem::with_model(cfg, MemoryModel::Event), l1)
    }

    #[test]
    fn peak_mshr_occupancy_sums_across_partitions() {
        // Two same-cycle misses routed to different partitions (lines 0 and
        // 1 under 2-way interleaving): the machine-wide peak is 2 entries,
        // not the per-partition maximum of 1 the old sampling reported.
        let (mut sm, mut l1) = event_mem(2, 8, 0);
        sm.event_access(&mut l1, 0, 0, true);
        sm.event_access(&mut l1, 128, 0, true);
        assert_eq!(sm.stats.peak_mshr_occupancy, 2);
        // Same shape for the DRAM queue peak.
        let (mut sm, mut l1) = event_mem(2, 0, 8);
        sm.event_access(&mut l1, 0, 0, true);
        sm.event_access(&mut l1, 128, 0, true);
        assert_eq!(sm.stats.peak_dram_queue_occupancy, 2);
    }

    #[test]
    fn peak_mshr_occupancy_sees_peaks_between_releases() {
        // Admissions at different cycles with no release processed in
        // between must still raise the recorded peak monotonically: the
        // sample happens at every admission, not at release processing.
        let (mut sm, mut l1) = event_mem(1, 16, 0);
        for i in 0..4u64 {
            sm.advance_to(i);
            sm.event_access(&mut l1, i * 128, i, true);
            assert_eq!(sm.stats.peak_mshr_occupancy, (i + 1) as u32);
        }
    }

    #[test]
    fn capacity_release_is_visible_exactly_at_its_cycle() {
        // The tie-break the gated-sleep wake path relies on: a release due
        // at cycle `r` is applied by `advance_to(r)` — i.e. an SM woken at
        // `r` that settles the memory
        // system before scanning observes the freed capacity that very
        // cycle, never one later. Same-cycle SM writebacks drain before
        // `advance_to` runs (see `Sm::step`), so the order within the wake
        // cycle is: writebacks, then releases, then the gate read.
        let (mut sm, mut l1) = event_mem(1, 1, 0);
        sm.event_access(&mut l1, 0, 0, true);
        let r = sm.next_release().expect("miss holds an MSHR entry");
        assert_eq!(sm.issue_gate().mshr_free, 0);
        sm.advance_to(r - 1);
        assert_eq!(sm.issue_gate().mshr_free, 0, "release must not fire early");
        assert_eq!(sm.next_release(), Some(r));
        sm.advance_to(r);
        assert_eq!(sm.issue_gate(), MemGate::OPEN, "table empty again at r");
        assert_eq!(sm.next_release(), None);
    }

    #[test]
    fn partition_count_above_the_cap_clamps_bit_identically() {
        let over = MemConfig {
            mem_partitions: u32::MAX,
            ..MemConfig::default()
        };
        let at_cap = MemConfig {
            mem_partitions: EventMem::MAX_PARTITIONS,
            ..MemConfig::default()
        };
        let mut a = SharedMem::with_model(over, MemoryModel::Event);
        let mut b = SharedMem::with_model(at_cap, MemoryModel::Event);
        let mk_l1 = |cfg: &MemConfig| {
            Cache::new(
                u64::from(cfg.l1_bytes),
                cfg.l1_ways,
                u64::from(cfg.line_bytes),
            )
        };
        let (mut l1a, mut l1b) = (mk_l1(&over), mk_l1(&at_cap));
        for i in 0..64u64 {
            let addr = i * 128 * 4097; // spread across many partitions
            assert_eq!(
                a.event_access(&mut l1a, addr, 0, true),
                b.event_access(&mut l1b, addr, 0, true),
            );
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn service_interval_scaling_saturates_instead_of_wrapping() {
        // A pathological per-transaction interval times the partition count
        // overflows u32: the scaled interval must pin to u32::MAX (slowest
        // representable bank), not wrap around to a tiny (fast) one.
        let cfg = MemConfig {
            mem_partitions: 2,
            l2_service_q4: u32::MAX,
            dram_service_q4: u32::MAX,
            ..MemConfig::default()
        };
        let mut sm = SharedMem::with_model(cfg, MemoryModel::Event);
        let mut l1 = Cache::new(
            u64::from(cfg.l1_bytes),
            cfg.l1_ways,
            u64::from(cfg.line_bytes),
        );
        let first = sm.event_access(&mut l1, 0, 0, true);
        let second = sm.event_access(&mut l1, 2 * 128, 0, true); // same partition
                                                                 // Back-to-back transactions on one bank must queue behind the
                                                                 // (saturated, enormous) service interval — a wrapped interval would
                                                                 // make them nearly free.
        assert!(second - first >= u64::from(u32::MAX) / 8);
    }

    #[test]
    fn stream_position_does_not_wrap_at_the_u32_boundary() {
        // Regression for the old `u32` + `wrapping_add` counters: a stream
        // position crossing 2^32 must keep its modulo phase instead of
        // snapping back to line 0 and re-aliasing the stream.
        let mut w = Warp::new(0, 0, 0, 32, 0, 0);
        let lines_per_warp = layout::STREAM_PER_WARP / LINE_BYTES;
        w.stream_pos = u64::from(u32::MAX);
        let mut a = Vec::new();
        generate_addresses(GlobalPattern::Stream, &mut w, 0, &mut a);
        generate_addresses(GlobalPattern::Stream, &mut w, 0, &mut a);
        assert_eq!(w.stream_pos, u64::from(u32::MAX) + 2, "no wrap to 0");
        let line0 = (u64::from(u32::MAX)) % lines_per_warp;
        let line1 = (u64::from(u32::MAX) + 1) % lines_per_warp;
        assert_eq!(a[0], layout::block_base(0) + line0 * LINE_BYTES);
        assert_eq!(a[1], layout::block_base(0) + line1 * LINE_BYTES);
        // Tile counters share the contract.
        w.tile_pos = u64::MAX;
        let mut b = Vec::new();
        generate_addresses(
            GlobalPattern::BlockTile { tile_lines: 4 },
            &mut w,
            0,
            &mut b,
        );
        assert_eq!(w.tile_pos, u64::MAX, "saturates rather than wraps");
    }

    #[test]
    fn scatter_emits_requested_transactions_in_span() {
        let mut w = Warp::new(0, 0, 0, 32, 0, 2);
        let mut a = Vec::new();
        generate_addresses(
            GlobalPattern::Scatter {
                span_lines: 64,
                txns: 5,
            },
            &mut w,
            2,
            &mut a,
        );
        assert_eq!(a.len(), 5);
        let base = layout::block_base(2) + layout::SCATTER_BASE;
        for addr in &a {
            assert!(*addr >= base && *addr < base + 64 * LINE_BYTES);
        }
    }
}
